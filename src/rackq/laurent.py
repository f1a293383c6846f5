"""Integer Laurent polynomials and the Alexander quandle structure on
them: x * y = t*x + (1-t)*y, with inverse the same formula in 1/t.

Includes coset relations of principal submodules (membership decided by
exact polynomial division) and a parity-shift relation that respects the
primary operation although it is not the coset relation of any single
difference set: the allowed difference of a pair depends on the parity
of the left element's coefficient sum.

A polynomial is two int tuples, its exponents and their coefficients,
with no object per term: the kernels below merge, shift and sum those
tuples, and every polynomial they return is built by the unchecked
LaurentPoly._new.  The public constructor checks that every term is a
pair of ints.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from operator import neg

from .tables import PRIMARY, Record, _draw, _half_witness, _quoted, side_sign

POLY_RING = "poly"        # multipliers from Z[t]
LAURENT_RING = "laurent"  # multipliers from Z[t, 1/t]

# The largest exponent a submodule membership test divides at: its long
# division holds one dense list entry per exponent, and with the
# generator t - 1, contains(t^1000000 - 1) takes about 0.3 s.
MAX_DIVISION_SPAN = 10**6


class LaurentPoly(Record):
    """Finite integer combination of powers t^e, e in Z, stored as two int
    tuples of equal length: the exponents, strictly increasing, and their
    coefficients, none zero.

    The terms are given as a dict from exponent to coefficient or as an
    iterable of (exponent, coefficient) pairs, whose coefficients at a
    repeated exponent add up; or, with coeffs given, as the exponents and
    the coefficients one for one.  Every exponent and coefficient must be
    an int (not a bool): anything else is a ValueError."""

    __slots__ = ("exps", "coeffs")

    def __new__(cls, exps=(), coeffs=None):
        terms = exps if coeffs is None else zip(exps, coeffs, strict=True)
        if not isinstance(terms, dict):
            pairs, terms = terms, {}
            for e, c in pairs:
                # a lone term keeps its type, so that the check below sees it
                terms[e] = terms[e] + c if e in terms else c
        if not (_INT.issuperset(map(type, terms)) and _INT.issuperset(map(type, terms.values()))):
            bad = next(t for t in terms.items() if not _INT.issuperset(map(type, t)))
            raise ValueError(f"term {_quoted(bad)} needs an int exponent and an int coefficient")
        exps, coeffs = _split(terms)  # a call with *args would not be inlined
        return cls._new(exps, coeffs)

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def t(cls, e: int = 1) -> "LaurentPoly":
        return cls({e: 1})

    def coeff(self, e: int) -> int:
        exps = self.exps
        i = bisect_left(exps, e)
        return self.coeffs[i] if i < len(exps) and exps[i] == e else 0

    @property
    def is_zero(self) -> bool:
        return not self.exps

    @property
    def min_exp(self) -> int:
        if not self.exps:
            raise ValueError("zero polynomial has no valuation")
        return self.exps[0]

    @property
    def max_exp(self) -> int:
        if not self.exps:
            raise ValueError("zero polynomial has no degree")
        return self.exps[-1]

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k: new exponents, the same coefficient tuple."""
        return _make(tuple([e + k for e in self.exps]), self.coeffs)

    def _merge(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other: one pass over the left operand's terms
        against the right's by index; the rest of the right added as a slice."""
        eb, cb = other.exps, other.coeffs
        nb = len(eb)
        if not nb:
            return self
        # list.append called as a method is a specialised instruction on
        # Python 3.11; a pre-bound append is a generic call, and slower
        exps, coeffs = [], []
        j = 0
        y = eb[0]
        rest = zip(self.exps, self.coeffs)
        for x, c in rest:
            while y < x:
                exps.append(y)
                coeffs.append(sign * cb[j])
                j += 1
                if j == nb:
                    exps.append(x)
                    coeffs.append(c)
                    break
                y = eb[j]
            else:
                if x < y:
                    exps.append(x)
                    coeffs.append(c)
                    continue
                c += sign * cb[j]
                if c:
                    exps.append(x)
                    coeffs.append(c)
                j += 1
                if j < nb:
                    y = eb[j]
                    continue
            for x, c in rest:  # the right operand has ended
                exps.append(x)
                coeffs.append(c)
            break
        else:
            exps += eb[j:]
            coeffs += cb[j:] if sign == 1 else map(neg, cb[j:])
        return _make(tuple(exps), tuple(coeffs))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._merge(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._merge(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return _make(self.exps, tuple(map(neg, self.coeffs)))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        pairs = [*zip(other.exps, other.coeffs)]
        for e1, c1 in zip(self.exps, self.coeffs):
            for e2, c2 in pairs:
                key = e1 + e2
                out[key] = out.get(key, 0) + c1 * c2
        return _make(*_split(out))

    def __str__(self) -> str:
        return format_laurent(self)


_INT = {int}
# the kernels' trusted constructor, as a global: int tuples of equal
# length, exps strictly increasing, no coefficient zero
_make = LaurentPoly._new


def _split(terms: dict[int, int]) -> tuple[tuple, tuple]:
    """(exps, coeffs) of a dict from exponent to coefficient, zero
    coefficients dropped: filtered, sorted and looked up in C."""
    coeff = terms.__getitem__
    exps = sorted(filter(coeff, terms))
    return tuple(exps), tuple(map(coeff, exps))


ZERO = LaurentPoly()
ONE = LaurentPoly.constant(1)
T = LaurentPoly.t(1)
T_INV = LaurentPoly.t(-1)


def eval_at_one(p: LaurentPoly) -> int:
    """Sum of coefficients (the value at t = 1)."""
    return sum(p.coeffs)


def in_poly_ring(p: LaurentPoly) -> bool:
    """No negative exponents (zero counts as in Z[t])."""
    exps = p.exps
    return not exps or exps[0] >= 0


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
    its coefficient sum is eval_at_one(g) - eval_at_one(f), two sums in C.
    """
    ea, eb = f.exps, g.exps
    k = bisect_left(ea, 0)  # number of negative exponents in f
    if bisect_left(eb, 0) != k:
        return False
    ca, cb = f.coeffs, g.coeffs
    if k and (ca[:k] != cb[:k] or ea[:k] != eb[:k]):
        return False
    ef = sum(ca)
    d = sum(cb) - ef
    return d == 0 or d == (-1 if ef % 2 else 1)


def parity_shift_half_witness(side: str):
    """Quadruple (a, b, c, d) with a ~ c and b ~ d whose products on the
    side are not related by parity_shift_relation, or None on the
    primary side, which the relation respects.

    On the inverse side (0, 0, 0, 1) is one: 0 ~ 1, but 0 *' 1 = 1 - t^-1
    is not related to 0 *' 0 = 0, since their difference leaves Z[t].
    """
    return _half_witness(alexander_op, parity_shift_relation, (ZERO, ZERO, ZERO, ONE), side)


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
    exps = d.exps
    if exps and exps[0] < 0:
        return False
    s = sum(d.coeffs)
    return not s or s == (-1 if sum(f.coeffs) % 2 else 1)


# ---------------------------------------------------------------------------
# principal submodules and their coset relations

class PrincipalSubmodule(Record):
    """Multiples of a fixed nonzero generator by Z[t] (ring="poly") or by
    Z[t, 1/t] (ring="laurent")."""

    __slots__ = ("generator", "ring")

    def __new__(cls, generator: LaurentPoly, ring: str = POLY_RING):
        if generator.is_zero:
            raise ValueError("generator must be nonzero")
        if ring not in (POLY_RING, LAURENT_RING):
            raise ValueError(f"ring must be {POLY_RING!r} or {LAURENT_RING!r}")
        return cls._new(generator, ring)

    def contains(self, d: LaurentPoly) -> bool:
        if d.is_zero:
            return True
        # Divide by t^v for the generator's valuation v, skipped when v = 0.
        h0 = self.generator
        v = h0.exps[0]
        if v:
            h0 = h0.shifted(-v)
        if self.ring == LAURENT_RING:
            # Units +-t^k are absorbed by normalising both to valuation 0.
            v = d.exps[0]
        if v:
            d = d.shifted(-v)
        if d.exps[0] < 0:
            return False
        if d.exps[-1] > MAX_DIVISION_SPAN:
            raise ValueError(
                f"exponent span 0..{_quoted(d.exps[-1])} exceeds the membership "
                f"test's limit of {MAX_DIVISION_SPAN}"
            )
        return _exact_divides(d, h0)


def _exact_divides(num: LaurentPoly, den: LaurentPoly) -> bool:
    """Whether den divides num in Z[t] with an integer quotient; num is
    nonzero in Z[t], den has valuation 0; dense long division."""
    exps, coeffs = den.exps, den.coeffs
    deg, lead = exps[-1], coeffs[-1]
    lower = [*zip(exps[:-1], coeffs[:-1])]
    width = num.max_exp + 1
    rem = [0] * width
    for e, c in zip(num.exps, num.coeffs):
        rem[e] = c
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
    return _half_witness(
        alexander_op, partial(submodule_relation, m), (ZERO, ZERO, m.generator, ZERO), side)


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
        coeff = _int_literal(s[i:j], text) if has_coeff else 1
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
                exp = _int_literal(s[i:k], text)
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


def _int_literal(digits: str, text: str) -> int:
    """int(digits) for a signed run of digits in the literal text; a
    ValueError that quotes both when the run is past Python's int-to-str
    limit (4,300 digits by default)."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"integer {_quoted(digits)} in {_quoted(text)} is too long") from None


def format_laurent(p: LaurentPoly) -> str:
    """Inverse of parse_laurent; exact round-trip, highest exponent first."""
    if p.is_zero:
        return "0"
    chunks = []
    for e, c in zip(reversed(p.exps), reversed(p.coeffs)):
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
