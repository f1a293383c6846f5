"""Integer Laurent polynomials and the Alexander quandle structure on
them: x * y = t*x + (1-t)*y, with inverse the same formula in 1/t.

Includes coset relations of principal submodules (membership decided by
exact polynomial division) and a parity-shift relation that respects the
primary operation although it is not the coset relation of any single
difference set: the allowed difference of a pair depends on the parity
of the left element's coefficient sum.
"""

from __future__ import annotations

from bisect import bisect_left

from .tables import INVERSE, PRIMARY, Record, _draw, _quoted, side_sign

POLY_RING = "poly"        # multipliers from Z[t]
LAURENT_RING = "laurent"  # multipliers from Z[t, 1/t]


class LaurentPoly(Record):
    """Finite integer combination of powers t^e, e in Z, stored as sorted
    (exponent, coefficient) pairs with no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...] = ()):
        raw = terms.items() if isinstance(terms, dict) else terms
        acc: dict[int, int] = {}
        for e, c in raw:
            acc[e] = acc.get(e, 0) + c
        object.__setattr__(
            self, "terms", tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        )

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def t(cls, e: int = 1) -> "LaurentPoly":
        return cls({e: 1})

    def coeff(self, e: int) -> int:
        for exp, c in self.terms:
            if exp == e:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return self.terms[0][0]

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[-1][0]

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        _set_terms(p := _new(LaurentPoly), tuple([(e + k, c) for e, c in self.terms]))
        return p

    def _merge(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other: one pass over the left operand's terms, kept
        as they are, against the right's by index; the rest added in one step."""
        b = other.terms
        nb = len(b)
        if not nb:
            return self
        out = []
        append = out.append
        eb, cb = b[0]
        j = 0
        rest = iter(self.terms)
        for ta in rest:
            ea = ta[0]
            while eb < ea:
                append((eb, sign * cb))
                j += 1
                if j == nb:
                    append(ta)
                    break
                eb, cb = b[j]
            else:
                if ea < eb:
                    append(ta)
                    continue
                c = ta[1] + sign * cb
                if c:
                    append((ea, c))
                j += 1
                if j < nb:
                    eb, cb = b[j]
                    continue
            out += rest  # b has ended
            break
        else:
            out += b[j:] if sign == 1 else [(e, -c) for e, c in b[j:]]
        _set_terms(p := _new(LaurentPoly), tuple(out))
        return p

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._merge(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._merge(other, -1)

    def __neg__(self) -> "LaurentPoly":
        _set_terms(p := _new(LaurentPoly), tuple([(e, -c) for e, c in self.terms]))
        return p

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = e1 + e2
                out[key] = out.get(key, 0) + c1 * c2
        _set_terms(p := _new(LaurentPoly), tuple(sorted(t for t in out.items() if t[1])))
        return p

    def __str__(self) -> str:
        return format_laurent(self)


# Trusted constructor, terms sorted with no zero: _set_terms(p := _new(LaurentPoly), terms).
_new = object.__new__
_set_terms = LaurentPoly.terms.__set__

ZERO = LaurentPoly()
ONE = LaurentPoly.constant(1)
T = LaurentPoly.t(1)
T_INV = LaurentPoly.t(-1)


def eval_at_one(p: LaurentPoly) -> int:
    """Sum of coefficients (the value at t = 1)."""
    total = 0
    for _, c in p.terms:
        total += c
    return total


def in_poly_ring(p: LaurentPoly) -> bool:
    """No negative exponents (zero counts as in Z[t])."""
    terms = p.terms
    return not terms or terms[0][0] >= 0


def alexander_op(f: LaurentPoly, g: LaurentPoly, side: str = PRIMARY) -> LaurentPoly:
    """t*f + (1-t)*g, or the inverse-side formula with 1/t for t.

    Computed as t^k*(f - g) + g with k = 1 or -1: one shift and two
    merges, no products."""
    return (f - g).shifted(side_sign(side)) + g


# ---------------------------------------------------------------------------
# the parity-shift relation and its difference sets

def _parity_constant(total: int) -> int:
    """+1 at an element with even coefficient sum total, -1 at an odd one."""
    return -1 if total % 2 else 1


def parity_shift_relation(f: LaurentPoly, g: LaurentPoly) -> bool:
    """f ~ g iff g - f lies in Z[t] and its coefficient sum is 0 or 1
    when f's coefficient sum is even, 0 or -1 when odd.

    Decided on the terms without forming g - f: the difference lies in
    Z[t] exactly when f and g have the same negative-exponent terms, and
    its coefficient sum is eval_at_one(g) - eval_at_one(f), summed inline.
    """
    a, b = f.terms, g.terms
    k = bisect_left(a, (0,))  # number of negative exponents in f
    if a[:k] != b[:k] or (len(b) > k and b[k][0] < 0):
        return False
    ef = 0
    for _, c in a:
        ef += c
    d = -ef
    for _, c in b:
        d += c
    return d == 0 or d == (-1 if ef % 2 else 1)


def parity_shift_half_witness(side: str):
    """Quadruple (a, b, c, d) with a ~ c and b ~ d whose products on the
    side are not related by parity_shift_relation, or None on the
    primary side, which the relation respects.

    On the inverse side (0, 0, 0, 1) is one: 0 ~ 1, but 0 *' 1 = 1 - t^-1
    is not related to 0 *' 0 = 0, since their difference leaves Z[t].
    """
    if side_sign(side) == 1:
        return None
    if not parity_shift_relation(ZERO, ONE) or parity_shift_relation(
            ZERO, alexander_op(ZERO, ONE, INVERSE)):
        raise AssertionError("(0, 0, 0, 1) is no witness for the parity-shift relation")
    return (ZERO, ZERO, ZERO, ONE)


def in_common_difference_set(p: LaurentPoly) -> bool:
    """Membership in the set of differences allowed at every element:
    polynomials in Z[t] with coefficient sum 0."""
    return in_poly_ring(p) and eval_at_one(p) == 0


def in_difference_set(f: LaurentPoly, d: LaurentPoly) -> bool:
    """Membership in the difference set at f: the common set, shifted up
    by the constant 1 when f has even coefficient sum and down by 1 when
    odd.  Agrees with parity_shift_relation(f, f + d).

    A constant shift keeps d in or out of Z[t] and moves its coefficient
    sum by the constant, so no shifted polynomial is built."""
    terms = d.terms
    if terms and terms[0][0] < 0:
        return False
    s = 0
    for _, c in terms:
        s += c
    if not s:
        return True
    ef = 0
    for _, c in f.terms:
        ef += c
    return s == (-1 if ef % 2 else 1)


# ---------------------------------------------------------------------------
# principal submodules and their coset relations

class PrincipalSubmodule(Record):
    """Multiples of a fixed nonzero generator by Z[t] (ring="poly") or by
    Z[t, 1/t] (ring="laurent")."""

    __slots__ = ("generator", "ring")

    def __init__(self, generator: LaurentPoly, ring: str = POLY_RING):
        if generator.is_zero:
            raise ValueError("generator must be nonzero")
        if ring not in (POLY_RING, LAURENT_RING):
            raise ValueError(f"ring must be {POLY_RING!r} or {LAURENT_RING!r}")
        super().__init__(generator, ring)

    def contains(self, d: LaurentPoly) -> bool:
        if d.is_zero:
            return True
        # Divide by t^v for the generator's valuation v, skipped when v = 0.
        h0 = self.generator
        v = h0.terms[0][0]
        if v:
            h0 = h0.shifted(-v)
        if self.ring == LAURENT_RING:
            # Units +-t^k are absorbed by normalising both to valuation 0.
            v = d.terms[0][0]
        if v:
            d = d.shifted(-v)
        return d.terms[0][0] >= 0 and _exact_divides(d, h0)


def _exact_divides(num: LaurentPoly, den: LaurentPoly) -> bool:
    """Whether den divides num in Z[t] with an integer quotient; num is
    nonzero in Z[t], den has valuation 0; dense long division."""
    width = num.max_exp + 1
    rem = [0] * width
    for e, c in num.terms:
        rem[e] = c
    *lower, (deg, lead) = den.terms
    for top in range(width - 1, deg - 1, -1):
        c = rem[top]
        if c:
            if c % lead:
                return False
            q = c // lead
            off = top - deg
            rem[top] = 0
            for e, dc in lower:
                rem[off + e] -= q * dc
    return not any(rem)


def submodule_relation(m: PrincipalSubmodule, f: LaurentPoly, g: LaurentPoly) -> bool:
    """Coset relation of the submodule: f ~ g iff g - f is a multiple of
    the generator within the chosen ring."""
    return m.contains(g - f)


def submodule_half_witness(m: PrincipalSubmodule, side: str):
    """Quadruple (a, b, c, d) with a ~ c and b ~ d whose products on the
    side are not related by the coset relation of m, or None when the
    side holds.

    A submodule is closed under t and 1 - t, so the primary side holds;
    over Z[t, 1/t] it is closed under 1/t too, so the inverse side holds.
    Over Z[t] the inverse side fails: t^-1 * g in Z[t] * g would make
    t^-1 a polynomial.  So (0, 0, g, 0) is a witness: 0 ~ g and 0 ~ 0,
    and the products 0 and t^-1 * g differ by t^-1 * g.
    """
    if side_sign(side) == 1 or m.ring == LAURENT_RING:
        return None
    g = m.generator
    if not m.contains(g) or m.contains(alexander_op(g, ZERO, INVERSE)):
        raise AssertionError(f"(0, 0, g, 0) is no witness for {m!r} on the inverse side")
    return (ZERO, ZERO, g, ZERO)


# ---------------------------------------------------------------------------
# text syntax and sampling

def parse_laurent(text: str) -> LaurentPoly:
    """Parse a signed monomial list such as "t^2 - 3 + 2t^-1".

    Terms are joined by + or -; whitespace may surround an operator but
    not split a term.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial literal")
    terms: dict[int, int] = {}
    i = 0
    while i < len(s):
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
            while i < len(s) and s[i].isspace():
                i += 1
        elif i > 0:
            raise ValueError(f"expected + or - before {_quoted(s[i:])} in {_quoted(text)}")
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        has_coeff = j > i
        coeff = int(s[i:j]) if has_coeff else 1
        i = j
        if i < len(s) and s[i] == "t":
            i += 1
            exp = 1
            if i < len(s) and s[i] == "^":
                i += 1
                k = i + 1 if i < len(s) and s[i] in "+-" else i
                while k < len(s) and s[k].isdigit():
                    k += 1
                if k == i or (k == i + 1 and s[i] in "+-"):
                    raise ValueError(f"missing exponent in {_quoted(text)}")
                exp = int(s[i:k])
                i = k
        elif has_coeff:
            exp = 0
        elif i == len(s):
            raise ValueError(f"missing term at the end of {_quoted(text)}")
        else:
            raise ValueError(f"unexpected character {s[i]!r} in {_quoted(text)}")
        terms[exp] = terms.get(exp, 0) + sign * coeff
        while i < len(s) and s[i].isspace():
            i += 1
    return LaurentPoly(terms)


def format_laurent(p: LaurentPoly) -> str:
    """Inverse of parse_laurent; exact round-trip, highest exponent first."""
    if p.is_zero:
        return "0"
    chunks = []
    for e, c in sorted(p.terms, reverse=True):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def random_laurent(rng, lo: int = -4, hi: int = 4, cmax: int = 3) -> LaurentPoly:
    """Coefficient uniform in [-cmax, cmax] for every exponent in [lo, hi],
    drawn from the lowest exponent up; on a random.Random the draws are
    bit for bit those of rng.randrange(-cmax, cmax + 1)."""
    bits = rng.getrandbits
    return LaurentPoly({e: _draw(bits, -cmax, cmax) for e in range(lo, hi + 1)})


def random_relation_partner(rng, f: LaurentPoly) -> LaurentPoly:
    """Random g related to f under parity_shift_relation: f plus a multiple
    of t - 1 (always allowed) and, half the time, the parity constant."""
    d = (T - ONE) * random_laurent(rng, 0, 4)
    if rng.random() < 0.5:
        d = d + LaurentPoly.constant(_parity_constant(eval_at_one(f)))
    return f + d
