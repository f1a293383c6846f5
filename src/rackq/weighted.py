"""Weighted average quandles on the exact rationals.

The operation with weight w is x * y = w*x + (1-w)*y, its inverse the
same formula with 1/w.  Coset relations of additive subgroups are the
congruences here: a subgroup D induces x ~ y iff y - x in D, and that
relation respects the primary operation exactly when D is closed under
multiplication by w (equivalently, by 1/q for w = p/q reduced), and the
inverse operation exactly when D is closed under multiplication by 1/w.

Subgroups are restricted to a representable descriptor class: {0}, all
of Q, or g * Z[1/m] = {g * k / m^l}.  Not every subgroup of Q has this
form (rationals with squarefree denominator do not), but the class
covers every witness needed for the four-way classification by weight.
All arithmetic is exact Fractions; no floating point anywhere.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .tables import (
    _CLASS_OF, PRIMARY, INVERSE, CongruenceClass, Record, _half_witness, _quoted, side_sign,
)


class Weight(Record):
    """Nonzero rational weight; trivial means weight 1 (projection)."""

    __slots__ = ("value",)

    def __new__(cls, value: Fraction):
        if type(value) not in (int, Fraction):
            raise ValueError(f"weight must be an int or a Fraction, got {_quoted(value)}")
        if value == 0:
            raise ValueError("weight must be nonzero")
        return cls._new(Fraction(value))

    @property
    def p(self) -> int:
        return self.value.numerator

    @property
    def q(self) -> int:
        return self.value.denominator

    @property
    def nontrivial(self) -> bool:
        return self.value != 1

    @property
    def inverse(self) -> Fraction:
        return 1 / self.value


# Largest base m accepted for g * Z[1/m]: the radical is found by trial
# division up to sqrt(m), about a million steps at this bound.
MAX_DESCRIPTOR_BASE = 10**12


def _radical(m: int) -> int:
    """Product of the distinct prime factors of m (1 for m = 1)."""
    rad = 1
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            rad *= p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        rad *= rest
    return rad


def _divides_radically(den: int, m: int) -> bool:
    """Every prime factor of den divides m."""
    while den > 1:
        g = math.gcd(den, m)
        if g == 1:
            return False
        den //= g
    return True


class SubgroupDescriptor(Record):
    """Representable additive subgroup of Q: zero, everything, or
    g * Z[1/m].  Only the prime factors of m matter, so m is stored as
    its radical; m = 1 gives the cyclic-like subgroup gZ."""

    __slots__ = ("kind", "g", "m")

    def __new__(cls, kind: str, g: Fraction = Fraction(1), m: int = 1):
        if kind not in ("zero", "all", "scaled"):
            raise ValueError(f"unknown descriptor kind {kind!r}")
        if type(g) not in (int, Fraction):
            raise ValueError(f"scale must be an int or a Fraction, got {_quoted(g)}")
        if type(m) is not int:
            raise ValueError(f"denominator base must be an int, got {_quoted(m)}")
        if kind != "scaled":
            return cls._new(kind, Fraction(1), 1)
        if g <= 0:
            raise ValueError("scale must be positive")
        if m < 1:
            raise ValueError("denominator base must be >= 1")
        if m > MAX_DESCRIPTOR_BASE:
            # no value in the message: a huge int may not convert to str
            raise ValueError(f"denominator base exceeds {MAX_DESCRIPTOR_BASE}")
        return cls._new(kind, Fraction(g), _radical(m))

    @classmethod
    def zero(cls) -> "SubgroupDescriptor":
        return cls("zero")

    @classmethod
    def all(cls) -> "SubgroupDescriptor":
        return cls("all")

    @classmethod
    def scaled(cls, g, m: int = 1) -> "SubgroupDescriptor":
        return cls("scaled", g, m)

    @classmethod
    def integers(cls) -> "SubgroupDescriptor":
        return cls("scaled", Fraction(1), 1)

    def contains(self, x) -> bool:
        """Membership of a rational in the subgroup."""
        x = Fraction(x)
        return self._contains_pair(x.numerator, x.denominator)

    def _contains_pair(self, num: int, den: int) -> bool:
        # contains(num/den) for den > 0, reduced or not: (num/den)/g has
        # denominator den*gn / gcd(num*gd, den*gn) in lowest terms.
        if self.kind == "zero":
            return num == 0
        if self.kind == "all":
            return True
        gn, gd = self.g.numerator, self.g.denominator
        den *= gn
        return _divides_radically(den // math.gcd(num * gd, den), self.m)

    def closed_under(self, rho) -> bool:
        """Whether multiplication by the nonzero rational rho maps the
        subgroup into itself.  For g*Z[1/m] this only depends on the
        denominator of rho: closure under p'/q' and under 1/q' agree."""
        rho = Fraction(rho)
        if rho == 0:
            raise ValueError("closure is tested for nonzero multipliers")
        if self.kind != "scaled":
            return True
        return _divides_radically(rho.denominator, self.m)

    def sample(self, rng: random.Random) -> Fraction:
        """Random element: g*k/m^l with k in [-100, 100], l in [0, 4]
        for scaled descriptors; numerator [-100, 100] over denominator
        [1, 16] for the full group.  Fixed distributions keep the seeded
        suites reproducible: on a random.Random the draws are bit for
        bit those of rng.randrange over each range (k, then l)."""
        return Fraction(*self._sampler(rng.getrandbits)())

    def _sampler(self, bits):
        """sample() as a function of no arguments that draws an unreduced
        (numerator, positive denominator) pair from bits = rng.getrandbits:
        k from 8 bits below 201 and l from 3 bits below 5, as
        rng.randrange would (tables._draw)."""
        if self.kind == "zero":
            return lambda: (0, 1)
        if self.kind == "all":
            return _rational_sampler(bits)
        gn, dens = self.g.numerator, tuple(self.g.denominator * self.m ** l for l in range(5))

        def draw():
            while (k := bits(8)) > 200:
                pass
            while (l := bits(3)) > 4:
                pass
            return gn * (k - 100), dens[l]

        return draw

    def describe(self) -> str:
        if self.kind != "scaled":
            return self.kind
        return f"{self.g}:{self.m}"


def parse_descriptor(text: str) -> SubgroupDescriptor:
    """Parse "zero", "all", or "g:m" (e.g. "1:3" for Z[1/3], "2/7:3").

    A g or m that does not parse raises ValueError("malformed descriptor:
    <the literal, cut to its first characters>: <the reason>")."""
    text = text.strip()
    if text == "zero":
        return SubgroupDescriptor.zero()
    if text == "all":
        return SubgroupDescriptor.all()
    head, sep, tail = text.rpartition(":")
    if not sep:
        raise _malformed(text, 'expected "zero", "all" or "g:m"')
    if _oversized_literal(head):
        raise _malformed(text, f"g is a {_OVERSIZED}")
    try:
        g = Fraction(head)
    except ZeroDivisionError:
        raise _malformed(text, "g has a zero denominator") from None
    except ValueError:
        raise _malformed(text, "g is not a rational literal") from None
    if _unprintable(g):
        raise _malformed(text, f"g has a {_UNPRINTABLE}")
    try:
        m = int(tail)
    except ValueError:
        reason = f"m is not an integer of at most {MAX_LITERAL_DIGITS} digits"
        raise _malformed(text, reason) from None
    return SubgroupDescriptor.scaled(g, m)


def _malformed(text: str, reason: str) -> ValueError:
    return ValueError(f"malformed descriptor: {_quoted(text)}: {reason}")


# Most digits, and largest decimal exponent, that a rational literal may
# have.  Fraction expands "1e10000000" into a ten-million-digit integer,
# in time and memory that grow without bound; and past Python's default
# int-to-str limit of 4,300 digits the value could not be printed anyway.
MAX_LITERAL_DIGITS = 4300
_OVERSIZED = (
    f"rational literal with more than {MAX_LITERAL_DIGITS} digits "
    f"or an exponent beyond {MAX_LITERAL_DIGITS}"
)
# 1e4300 keeps to both bounds, yet its 4,301 digits could not be printed
_UNPRINTABLE = f"numerator or denominator of more than {MAX_LITERAL_DIGITS} digits"


def _unprintable(value: Fraction) -> bool:
    return max(abs(value.numerator), value.denominator) >= 10**MAX_LITERAL_DIGITS


def _oversized_literal(text: str) -> bool:
    mantissa, _, exponent = text.lower().partition("e")
    exponent = "".join(filter(str.isdecimal, exponent)).lstrip("0")
    return (
        sum(map(str.isdecimal, mantissa)) > MAX_LITERAL_DIGITS
        or len(exponent) > len(str(MAX_LITERAL_DIGITS))
        or int(exponent or 0) > MAX_LITERAL_DIGITS
    )


def parse_rational(text: str) -> Fraction:
    """Fraction(text) for a literal such as "2/3", "-1", "0.25" or "1e-3",
    rejected with ValueError before conversion when it has more than
    MAX_LITERAL_DIGITS digits or an exponent beyond that bound.  A zero
    denominator raises ZeroDivisionError, as in Fraction."""
    if _oversized_literal(text):
        raise ValueError(_OVERSIZED)
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError(f"Invalid literal for Fraction: {_quoted(text)}") from None


def random_rational(rng: random.Random) -> Fraction:
    """Numerator uniform in [-100, 100], denominator uniform in [1, 16]."""
    return Fraction(*_rational_sampler(rng.getrandbits)())


def _rational_sampler(bits):
    """random_rational as a function of no arguments that draws an
    unreduced (numerator, denominator) pair from bits = rng.getrandbits:
    the numerator from 8 bits below 201 and the denominator from 5 bits
    below 16, as rng.randrange would (tables._draw)."""

    def draw():
        while (num := bits(8)) > 200:
            pass
        while (den := bits(5)) > 15:
            pass
        return num - 100, den + 1

    return draw


# ---------------------------------------------------------------------------
# operations and classification

def weighted_op(x, y, w: Weight, side: str = PRIMARY) -> Fraction:
    """w*x + (1-w)*y, or the same with 1/w on the inverse side."""
    y = Fraction(y)
    return y + _side_weight(w, side) * (x - y)


def _side_weight(w: Weight, side: str) -> Fraction:
    """The t of t*x + (1-t)*y on the given side: w, or 1/w."""
    return w.value if side_sign(side) == 1 else 1 / w.value


def _require_nontrivial(w: Weight) -> None:
    if not w.nontrivial:
        raise ValueError(
            "trivial weighted average quandle: weight 1 makes the operation "
            "a projection and every equivalence relation a congruence"
        )


def coset_congruence_status(d: SubgroupDescriptor, w: Weight) -> CongruenceClass:
    """Classification of the coset relation x ~ y iff y - x in D: it
    respects the primary operation iff D is closed under multiplication
    by w, and the inverse operation iff closed under 1/w.  The class is
    read off the (primary, inverse) table the finite classification uses."""
    _require_nontrivial(w)
    return _CLASS_OF[d.closed_under(w.value), d.closed_under(w.inverse)]


def find_half_witness(d: SubgroupDescriptor, w: Weight, failing_side: str):
    """Quadruple (a, b, c, e) with a ~ c and b ~ e whose products on the
    failing side land in different cosets, or None when the side holds.

    A side with weight t fails exactly when D = g*Z[1/m] is not closed
    under t, that is when t*g lies outside D.  Then (0, 0, g, 0) is a
    witness: 0 ~ g and 0 ~ 0, and the products 0 and t*g differ by t*g.
    """
    side_sign(failing_side)  # an unknown side is reported before a trivial weight
    _require_nontrivial(w)
    zero = Fraction(0)
    return _half_witness(lambda x, y, side: weighted_op(x, y, w, side),
                         lambda x, y: d.contains(y - x), (zero, zero, d.g, zero), failing_side)


def sampled_congruence_check(
    d: SubgroupDescriptor,
    w: Weight,
    side: str = PRIMARY,
    samples: int = 10_000,
    seed: int = 0,
) -> bool:
    """Randomised check of the congruence condition for one side: draws
    quadruples with a ~ c and b ~ e by construction (differences sampled
    from D) and verifies the products stay in one coset.  Deterministic
    for a given seed."""
    # Exact arithmetic on unreduced integer pairs: t*x + (1-t)*y is
    # (tp*xn*yd + (tq-tp)*yn*xd) / (tq*xd*yd) for t = tp/tq, tq > 0.
    t = _side_weight(w, side)
    tp, tq = t.numerator, t.denominator
    sp = tq - tp
    # a and b are drawn as random_rational draws them, and u and v as
    # d.sample does
    bits = random.Random(seed).getrandbits
    rational, difference = _rational_sampler(bits), d._sampler(bits)
    contains = d._contains_pair
    for _ in range(samples):
        an, ad = rational()
        bn, bd = rational()
        un, ud = difference()
        vn, vd = difference()
        cn, cd = an * ud + un * ad, ad * ud  # c = a + u
        en, ed = bn * vd + vn * bd, bd * vd  # e = b + v
        num_ab, den_ab = tp * an * bd + sp * bn * ad, tq * ad * bd
        num_ce, den_ce = tp * cn * ed + sp * en * cd, tq * cd * ed
        if not contains(num_ce * den_ab - num_ab * den_ce, den_ab * den_ce):
            return False
    return True


# ---------------------------------------------------------------------------
# the four-way classification by weight

_CASE_EXPLANATIONS = {
    1: "weight -1: the primary and inverse operations coincide, so a relation "
       "respects one iff it respects the other",
    2: "1/weight is an integer: every relation respecting the primary operation "
       "respects the inverse one, but not conversely (the integers witness)",
    3: "weight is an integer: every relation respecting the inverse operation "
       "respects the primary one, but not conversely (the integers witness)",
    4: "neither the weight nor its inverse is an integer: both kinds of half "
       "congruence exist",
}


class WitnessStatus(Record):
    """One theorem witness subgroup with its verified classification and,
    for each failing side, a verified half-congruence quadruple."""

    __slots__ = ("role", "descriptor", "status", "half_witnesses")

    def __new__(cls, role, descriptor, status, half_witnesses=None):
        return cls._new(role, descriptor, status, {} if half_witnesses is None else half_witnesses)


class WeightClassification(Record):
    __slots__ = ("case", "explanation", "witnesses")


def classify_weight(w: Weight) -> WeightClassification:
    """Four-way classification of a nontrivial weight, with the witness
    subgroups: the integers, Z[1/q], Z[1/|p|] and Z[1/|pq|] for w = p/q.

    Case 1: w = -1.  Case 2: 1/w an integer, w != -1.  Case 3: w an
    integer, w != -1.  Case 4: |p|, |q| > 1.  Every witness status is
    verified via coset_congruence_status before being reported.
    """
    _require_nontrivial(w)
    p, q = w.p, w.q
    if abs(p) * q > MAX_DESCRIPTOR_BASE:
        # the witness Z[1/|pq|] is out of range; a huge int may not convert to str
        raise ValueError(f"weight |numerator| * denominator exceeds {MAX_DESCRIPTOR_BASE}")
    if w.value == -1:
        case = 1
    elif abs(p) == 1:
        case = 2
    elif q == 1:
        case = 3
    else:
        case = 4

    named = (
        ("integers", SubgroupDescriptor.integers()),
        ("denominator", SubgroupDescriptor.scaled(1, q)),
        ("numerator", SubgroupDescriptor.scaled(1, abs(p))),
        ("combined", SubgroupDescriptor.scaled(1, abs(p) * q)),
    )
    witnesses = tuple(_witness_status(role, desc, w) for role, desc in named)
    return WeightClassification(case, _CASE_EXPLANATIONS[case], witnesses)


def _witness_status(role, d: SubgroupDescriptor, w: Weight) -> WitnessStatus:
    """The record of the coset relation of d: its coset_congruence_status
    and the find_half_witness quadruple of each failing side.
    AssertionError unless the sides with a witness are exactly the
    failing sides of the status."""
    status = coset_congruence_status(d, w)
    found = {side: quad for side in (PRIMARY, INVERSE) if (quad := find_half_witness(d, w, side))}
    if _CLASS_OF[PRIMARY not in found, INVERSE not in found] is not status:
        raise AssertionError(f"half witnesses of {d.describe()} contradict its status at {w.value}")
    return WitnessStatus(role, d, status, found)
