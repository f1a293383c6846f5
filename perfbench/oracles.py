"""Answers the benchmark knows without asking rackq.

Every verdict a workload checks is compared against a value from this
module: a published count, a theorem of the paper, or a small
computation on raw integers and tuples written here from the
definitions.  None of these functions imports rackq.

``PLANT`` names one oracle family whose answers are deliberately made
wrong; ``check_oracles.py`` sets it to confirm that each family's
comparison can fail and is counted.  It is ``None`` in every measured
run.
"""

from fractions import Fraction
from math import gcd, lcm

PLANT = None

FAMILIES = (
    "counts", "bell", "theorems", "quotients", "homs", "grid", "eval",
    "sparse", "weights", "sampled", "shifts", "normal_form", "cli",
)


def planted(family, value):
    """The true answer, or a wrong one when ``family`` is planted."""
    if PLANT != family:
        return value
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return ("planted", value)


# --- counts: published labelled and isomorphism-class counts of racks
# and quandles of orders 1..5.

RACKS = {1: 1, 2: 2, 3: 13, 4: 114, 5: 1708}
QUANDLES = {1: 1, 2: 1, 3: 5, 4: 36, 5: 404}
RACK_CLASSES = {1: 1, 2: 2, 3: 6, 4: 19, 5: 74}
QUANDLE_CLASSES = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22}


def enum_count(n, quandles_only, up_to_iso):
    if quandles_only:
        table = QUANDLE_CLASSES if up_to_iso else QUANDLES
    else:
        table = RACK_CLASSES if up_to_iso else RACKS
    return planted("counts", table[n])


def bell(n):
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return planted("bell", row[-1])


# --- finite racks, from the axioms

def is_rack(rows):
    n = len(rows)
    cols_ok = all(sorted(rows[x][y] for x in range(n)) == list(range(n)) for y in range(n))
    rsd = all(
        rows[rows[x][y]][z] == rows[rows[x][z]][rows[y][z]]
        for x in range(n) for y in range(n) for z in range(n)
    )
    return cols_ok and rsd


def is_quandle(rows):
    return is_rack(rows) and all(rows[x][x] == x for x in range(len(rows)))


def inverse_rows(rows):
    n = len(rows)
    inv = [[0] * n for _ in range(n)]
    for y in range(n):
        for x in range(n):
            inv[rows[x][y]][y] = x
    return tuple(tuple(r) for r in inv)


def relabel_rows(rows, p):
    """Rows of the copy of ``rows`` under x -> p[x]."""
    n = len(rows)
    q = [0] * n
    for i, v in enumerate(p):
        q[v] = i
    return tuple(tuple(p[rows[q[x]][q[y]]] for y in range(n)) for x in range(n))


def exponent(rows):
    """lcm of the orders of the column permutations."""
    n = len(rows)
    result = 1
    for y in range(n):
        col = [rows[x][y] for x in range(n)]
        seen = [False] * n
        for i in range(n):
            length, j = 0, i
            while not seen[j]:
                seen[j], j, length = True, col[j], length + 1
            if length:
                result = lcm(result, length)
    return result


def half_class_allowed(cls_value):
    """The finite-rack theorem: no partition respects exactly one of the
    two operations."""
    return planted("theorems", cls_value in ("Both", "Neither"))


def induced_rows(rows, labels):
    """[x] * [y] = [x*y] on blocks numbered by first appearance; the
    quotient table a full congruence must produce."""
    block, seen = [], {}
    for v in labels:
        block.append(seen.setdefault(v, len(seen)))
    k = len(seen)
    out = [[None] * k for _ in range(k)]
    for x in range(len(rows)):
        for y in range(len(rows)):
            out[block[x]][block[y]] = block[rows[x][y]]
    return planted("quotients", tuple(tuple(r) for r in out))


def is_homomorphism(r_rows, s_rows, image):
    n = len(r_rows)
    return planted("homs", all(image[r_rows[x][y]] == s_rows[image[x]][image[y]]
                               for x in range(n) for y in range(n)))


def homomorphisms(r_rows, s_rows):
    """Image tuples of every map r -> s respecting the operation."""
    n, m = len(r_rows), len(s_rows)
    found = []
    image = [0] * n

    def rec(i):
        if i == n:
            if all(image[r_rows[x][y]] == s_rows[image[x]][image[y]]
                   for x in range(n) for y in range(n)):
                found.append(tuple(image))
            return
        for v in range(m):
            image[i] = v
            rec(i + 1)

    rec(0)
    return planted("homs", found)


def is_subrack(rows, subset):
    inv = inverse_rows(rows)
    sub = set(subset)
    return all(rows[x][y] in sub and inv[x][y] in sub for x in sub for y in sub)


# --- Laurent polynomials, on raw {exponent: coefficient} dicts

def grid_row(f_coeffs, all_coeffs):
    """The parity-shift relation of f against every g, on grid tuples
    (exponents -2..2): g - f has no negative powers and its coefficient
    sum is 0 or +1 when f's sum is even, 0 or -1 when odd."""
    a0, a1, s = f_coeffs[0], f_coeffs[1], sum(f_coeffs)
    allowed = (s, s + 1) if s % 2 == 0 else (s, s - 1)
    return planted("grid", [g[0] == a0 and g[1] == a1 and sum(g) in allowed
                            for g in all_coeffs])


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def eval_product(a, b):
    """Value at t = 1 of a * b, as the product of the coefficient sums."""
    return planted("eval", sum(a.values()) * sum(b.values()))


def alexander_eval(f):
    """Value at t = 1 of t*f + (1-t)*g: the coefficient sum of f."""
    return planted("eval", sum(f.values()))


def submodule_member(multiplier, ring_is_laurent, shifted_by_one):
    """Membership of generator * multiplier (- 1 when shifted_by_one) in
    the principal submodule.  The generators used (2, t - 1, t^2 + 1) are
    not units, so subtracting 1 always leaves the submodule; over Z[t] a
    multiple lies in it exactly when the multiplier has no negative
    powers, since the generators have nonzero constant term."""
    if shifted_by_one:
        member = False
    else:
        member = ring_is_laurent or min(multiplier) >= 0
    return planted("sparse", member)


# --- weighted averages on Q

# Four-way classification (paper, weight theorem): case and the status of
# the coset relation of each witness subgroup, for the four weights.
WEIGHT_TABLE = {
    Fraction(-1): (1, {"integers": "Both", "denominator": "Both",
                       "numerator": "Both", "combined": "Both"}),
    Fraction(1, 2): (2, {"integers": "LeftOnly", "denominator": "Both",
                         "numerator": "LeftOnly", "combined": "Both"}),
    Fraction(2): (3, {"integers": "RightOnly", "denominator": "RightOnly",
                      "numerator": "Both", "combined": "Both"}),
    Fraction(2, 3): (4, {"integers": "Neither", "denominator": "RightOnly",
                         "numerator": "LeftOnly", "combined": "Both"}),
}


def weight_case(w):
    return planted("weights", WEIGHT_TABLE[w][0])


def weight_status(w, role):
    return planted("weights", WEIGHT_TABLE[w][1][role])


def witness_base(w, role):
    """m of the witness subgroup Z[1/m] for a weight p/q."""
    p, q = abs(w.numerator), w.denominator
    return {"integers": 1, "denominator": q, "numerator": p, "combined": p * q}[role]


def holding_sides(status):
    return {"Both": ("primary", "inverse"), "RightOnly": ("primary",),
            "LeftOnly": ("inverse",), "Neither": ()}[status]


def in_scaled(x, g, m):
    """x in g * Z[1/m]: every prime of the denominator of x/g divides m."""
    den = Fraction(x) / g
    den = den.denominator
    while den > 1:
        d = gcd(den, m)
        if d == 1:
            return False
        den //= d
    return True


def is_half_witness(quad, w, m, side):
    """a ~ c and b ~ e in Z[1/m] but the products on ``side`` are not."""
    a, b, c, e = (Fraction(v) for v in quad)
    t = w if side == "primary" else 1 / w
    gap = (t * c + (1 - t) * e) - (t * a + (1 - t) * b)
    ok = in_scaled(c - a, 1, m) and in_scaled(e - b, 1, m) and not in_scaled(gap, 1, m)
    return planted("weights", ok)


def sampled_holds():
    """A holding side passes every sampled congruence check."""
    return planted("sampled", True)


# --- shift sequences and the presented quandle

def shift_theorem():
    """The sampled half-congruence identities of criteria 3 and 4 hold."""
    return planted("shifts", True)


def normal_form_op(u, v, primary):
    """(gen, power) pairs: c fixes everything on the left; acting by c
    steps the power; everything else is fixed."""
    if u[0] == "c" or v[0] != "c":
        return planted("normal_form", u)
    return planted("normal_form", (u[0], u[1] + (1 if primary else -1)))
