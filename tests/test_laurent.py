import copy
import gc
import itertools
import pickle
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rackq import laurent as la
from rackq import tables as tb
from rackq.laurent import LaurentPoly, ONE, T, T_INV, ZERO
from rackq.tables import PRIMARY, INVERSE


def lp(mapping):
    return LaurentPoly(mapping)


def terms(p):
    """The (exponent, coefficient) pairs of p, after checking its layout:
    two int tuples of equal length, exponents strictly increasing, no
    coefficient zero."""
    exps, coeffs = p.exps, p.coeffs
    assert type(exps) is tuple and type(coeffs) is tuple and len(exps) == len(coeffs)
    assert {type(x) for x in exps + coeffs} <= {int}
    assert all(a < b for a, b in zip(exps, exps[1:])) and 0 not in coeffs
    return tuple(zip(exps, coeffs))


# ---------------------------------------------------------------------------
# representation and arithmetic

def test_zero_coefficients_are_dropped():
    assert terms(lp({2: 0, 1: 3, 0: 0})) == ((1, 3),)
    assert lp({0: 1}) - ONE == ZERO
    assert ZERO.is_zero and not ONE.is_zero


def test_valuation_and_degree():
    p = la.parse_laurent("t^2 - 3 + 2t^-1")
    assert (p.min_exp, p.max_exp) == (-1, 2)
    assert p.coeff(0) == -3 and p.coeff(5) == 0
    with pytest.raises(ValueError):
        ZERO.min_exp
    with pytest.raises(ValueError, match="no degree"):
        la.LaurentPoly().max_exp


poly_terms = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
)


def test_every_way_to_zero_gives_the_empty_tuples():
    f = la.parse_laurent("t^2 - 3 + 2t^-1")
    zeros = [
        LaurentPoly(), LaurentPoly({}), LaurentPoly(()), LaurentPoly({3: 0}),
        LaurentPoly([(1, 2), (1, -2)]), LaurentPoly((), ()),
        f - f, f + -f, f * ZERO, ZERO * f, ZERO.shifted(5), -ZERO, ZERO - ZERO,
    ]
    for z in zeros:
        assert z == ZERO and z.is_zero
        assert z.exps == z.coeffs == ()
        assert la.eval_at_one(z) == 0 and la.format_laurent(z) == "0"


def test_constructor_forms_agree():
    want = lp({-1: 2, 3: -1})
    assert terms(want) == ((-1, 2), (3, -1))
    assert LaurentPoly([(3, -1), (-1, 2)]) == want
    assert LaurentPoly([(3, -2), (-1, 2), (3, 1), (0, 4), (0, -4)]) == want
    assert LaurentPoly((3, -1), (-1, 2)) == want
    assert LaurentPoly(exps=(-1, 3), coeffs=(2, -1)) == want
    with pytest.raises(ValueError):
        LaurentPoly((0, 1), (5,))


@pytest.mark.parametrize("given", [
    {0: 1.5, 0.5: 2},
    {0.5: 2},
    {True: 1},
    {0: True},
    {0: Fraction(1, 2)},
    {Fraction(2): 1},
    {1: 1, 2: 2.0},
    {0: 0.0},
    {0.5: 0},
    [(0, 1.5)],
    [(True, 1)],
    [(0, False), (1, 1)],
    [(0, 1), (0, 0.5)],
])
def test_constructor_rejects_a_term_that_is_not_two_ints(given):
    with pytest.raises(ValueError, match="needs an int exponent and an int coefficient"):
        LaurentPoly(given)


def test_constructor_quotes_an_excerpt_of_the_bad_term():
    with pytest.raises(ValueError, match=r"term \(0\.5, 2\)"):
        LaurentPoly({0: 1, 0.5: 2})
    with pytest.raises(ValueError) as info:
        LaurentPoly({0: Fraction(10**1000 + 1, 3)})
    message = str(info.value)
    assert len(message) < 300 and "characters)" in message
    for bad in (2.0, True, Fraction(2)):
        with pytest.raises(ValueError):
            LaurentPoly.constant(bad)
        with pytest.raises(ValueError):
            LaurentPoly.t(bad)


def test_grid_polynomials_take_under_256_traced_bytes_each():
    # the 3,125 polynomials of criterion 9: one object and two small
    # tuples each (about 201 bytes on Python 3.11), where one tuple per
    # term took 344
    grid = [dict(zip(range(-2, 3), c)) for c in itertools.product(range(-2, 3), repeat=5)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        polys = [LaurentPoly(d) for d in grid]
        per_poly = (tracemalloc.get_traced_memory()[0] - before) / len(polys)
    finally:
        tracemalloc.stop()
    assert per_poly < 256, per_poly


@given(poly_terms)
def test_copy_and_pickle_round_trip(d):
    f = lp(d)
    for other in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert other == f and terms(other) == terms(f) and hash(other) == hash(f)
    if not f.is_zero:
        m = la.PrincipalSubmodule(f, la.LAURENT_RING)
        for other in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert other == m and other.generator == f and other.ring == la.LAURENT_RING


@given(poly_terms, poly_terms)
def test_arithmetic_consistency(da, db):
    f, g = lp(da), lp(db)
    assert la.eval_at_one(f + g) == la.eval_at_one(f) + la.eval_at_one(g)
    assert la.eval_at_one(f * g) == la.eval_at_one(f) * la.eval_at_one(g)
    assert (f + g) - g == f
    assert f * g == g * f
    assert f.shifted(3).shifted(-3) == f
    assert f - f == ZERO


@given(poly_terms)
def test_text_roundtrip(d):
    f = lp(d)
    assert la.parse_laurent(la.format_laurent(f)) == f


def test_parse_examples():
    assert la.parse_laurent("t^2 - 3 + 2t^-1") == lp({2: 1, 0: -3, -1: 2})
    assert la.parse_laurent("t") == T
    assert la.parse_laurent("-t") == -T
    assert la.parse_laurent("0") == ZERO
    assert la.parse_laurent("1 - t^-1") == ONE - T_INV
    assert la.parse_laurent("2t^3+t-4") == lp({3: 2, 1: 1, 0: -4})


def test_parse_errors():
    for bad in ("", "t^", "t^+", "q", "3x"):
        with pytest.raises(ValueError):
            la.parse_laurent(bad)


def test_parse_requires_an_operator_between_terms():
    for bad in ("1 2", "t^2t", "2 t", "t ^2", "3t t", "1 -", "1 - - 2"):
        with pytest.raises(ValueError):
            la.parse_laurent(bad)


@pytest.mark.parametrize("bad, start", [
    ("t" * 100_000, "expected + or - before 'ttt"),
    ("t^" + "x" * 99_998, "missing exponent in 't^xx"),
    ("1+" * 50_000, "missing term at the end of '1+1+"),
    ("x" * 100_000, "unexpected character 'x' in 'xxx"),
], ids=["operator", "exponent", "last-term", "character"])
def test_long_malformed_literal_gets_a_short_message(bad, start):
    with pytest.raises(ValueError) as info:
        la.parse_laurent(bad)
    message = str(info.value)
    assert message.startswith(start) and "... (100000 characters)" in message
    assert len(message) < 200


def test_parse_allows_whitespace_around_operators():
    assert la.parse_laurent(" - t ") == -T
    assert la.parse_laurent("2t^3 +t-  4") == lp({3: 2, 1: 1, 0: -4})


def test_format_examples():
    assert la.format_laurent(lp({2: 1, 0: -3, -1: 2})) == "t^2 - 3 + 2t^-1"
    assert la.format_laurent(ZERO) == "0"
    assert la.format_laurent(-T) == "-t"
    assert la.format_laurent(lp({0: -7})) == "-7"


# ---------------------------------------------------------------------------
# the quandle operation

def test_alexander_op_examples():
    assert la.alexander_op(ONE, ZERO) == T
    assert la.alexander_op(ZERO, ONE, INVERSE) == ONE - T_INV
    f = la.parse_laurent("t^2 - 3")
    assert la.alexander_op(f, f) == f
    assert la.alexander_op(f, f, INVERSE) == f


@given(poly_terms, poly_terms)
def test_alexander_op_inverse_identities(da, db):
    f, g = lp(da), lp(db)
    assert la.alexander_op(la.alexander_op(f, g), g, INVERSE) == f
    assert la.alexander_op(la.alexander_op(f, g, INVERSE), g) == f


def test_membership_primitives():
    assert la.in_poly_ring(la.parse_laurent("t^2 - 3"))
    assert not la.in_poly_ring(T_INV)
    assert la.in_poly_ring(ZERO)
    assert la.eval_at_one(T - ONE) == 0
    assert la.eval_at_one(la.parse_laurent("t^2 + t + 1")) == 3
    assert la.eval_at_one(ZERO) == 0


# ---------------------------------------------------------------------------
# the parity-shift relation

def test_relation_examples():
    assert la.parity_shift_relation(ZERO, ONE)
    assert not la.parity_shift_relation(ONE, ONE + ONE)
    f = la.parse_laurent("t^3 - 2t")
    assert la.parity_shift_relation(f, f)


def test_relation_is_an_equivalence_on_samples():
    rng = random.Random(20)
    for _ in range(300):
        f = la.random_laurent(rng)
        g = la.random_relation_partner(rng, f)
        h = la.random_relation_partner(rng, g)
        assert la.parity_shift_relation(f, g)
        assert la.parity_shift_relation(g, f)
        assert la.parity_shift_relation(g, h)
        assert la.parity_shift_relation(f, h)


def test_relation_respects_primary_op_on_samples():
    rng = random.Random(21)
    for _ in range(1000):
        f, g = la.random_laurent(rng), la.random_laurent(rng)
        f2 = la.random_relation_partner(rng, f)
        g2 = la.random_relation_partner(rng, g)
        assert la.parity_shift_relation(
            la.alexander_op(f, g), la.alexander_op(f2, g2)
        )


# the samplers as they drew through rng.randint, kept as the references
# for the getrandbits draws

def reference_random_laurent(rng, lo=-4, hi=4, cmax=3):
    return LaurentPoly({e: rng.randint(-cmax, cmax) for e in range(lo, hi + 1)})


def reference_relation_partner(rng, f):
    d = (T - ONE) * reference_random_laurent(rng, 0, 4)
    if rng.random() < 0.5:
        d = d + LaurentPoly.constant(la._parity_constant(la.eval_at_one(f)))
    return f + d


def test_samplers_draw_the_randint_references():
    for seed in (0, 5, 21):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(1000):
            f = la.random_laurent(rng)
            assert f == reference_random_laurent(ref)
            assert la.random_relation_partner(rng, f) == reference_relation_partner(ref, f)
            assert la.random_laurent(rng, -2, 2, 2) == reference_random_laurent(ref, -2, 2, 2)
            assert la.random_laurent(rng, 0, 6, 0) == reference_random_laurent(ref, 0, 6, 0)
        assert rng.getstate() == ref.getstate()


def test_common_difference_set_examples():
    assert la.in_common_difference_set(T - ONE)
    assert not la.in_common_difference_set(ONE)
    assert not la.in_common_difference_set(T_INV - ONE)


def test_common_difference_set_is_a_submodule_on_samples():
    rng = random.Random(22)
    for _ in range(300):
        p = (T - ONE) * la.random_laurent(rng, 0, 4)
        p2 = (T - ONE) * la.random_laurent(rng, 0, 4)
        r = la.random_laurent(rng, 0, 4)
        assert la.in_common_difference_set(p)
        assert la.in_common_difference_set(p - p2)
        assert la.in_common_difference_set(r * p)


def test_difference_set_examples():
    assert la.in_difference_set(ZERO, ONE)
    assert la.in_difference_set(ONE, -ONE)
    assert not la.in_difference_set(ZERO, T_INV)


def test_difference_set_matches_relation_small_grid():
    polys = [
        lp(dict(zip(range(-1, 2), coeffs)))
        for coeffs in itertools.product((-1, 0, 1), repeat=3)
    ]
    for f in polys:
        for g in polys:
            assert la.in_difference_set(f, g - f) == la.parity_shift_relation(f, g)


def test_difference_sets_depend_on_the_base_point():
    # +1 is allowed from 0 but not from 1, so no single set gives the relation
    assert la.in_difference_set(ZERO, ONE)
    assert not la.in_difference_set(ONE, ONE)
    assert la.in_difference_set(ONE, -ONE)
    assert not la.in_difference_set(ZERO, -ONE)


# ---------------------------------------------------------------------------
# principal submodules

def test_submodule_relation_examples():
    poly_tminus1 = la.PrincipalSubmodule(T - ONE, la.POLY_RING)
    assert la.submodule_relation(poly_tminus1, ZERO, T * T - ONE)
    poly_two = la.PrincipalSubmodule(LaurentPoly.constant(2), la.POLY_RING)
    assert not la.submodule_relation(poly_two, ZERO, ONE)
    laurent_tminus1 = la.PrincipalSubmodule(T - ONE, la.LAURENT_RING)
    assert la.submodule_relation(laurent_tminus1, ZERO, ONE - T_INV)


def test_submodule_membership_details():
    poly_two = la.PrincipalSubmodule(LaurentPoly.constant(2), la.POLY_RING)
    assert poly_two.contains(lp({5: 2}))
    assert not poly_two.contains(lp({-3: 2}))
    laurent_two = la.PrincipalSubmodule(LaurentPoly.constant(2), la.LAURENT_RING)
    assert laurent_two.contains(lp({-3: 2}))
    poly_tminus1 = la.PrincipalSubmodule(T - ONE, la.POLY_RING)
    assert not poly_tminus1.contains(ONE - T_INV)
    assert poly_tminus1.contains(ZERO)
    # sign units are absorbed
    assert poly_tminus1.contains(ONE - T)
    assert la.PrincipalSubmodule(-T - ONE, la.POLY_RING).contains((T + ONE) * (T + ONE))


def test_submodule_validation():
    with pytest.raises(ValueError, match="nonzero"):
        la.PrincipalSubmodule(ZERO, la.POLY_RING)
    with pytest.raises(ValueError, match="ring"):
        la.PrincipalSubmodule(ONE, "field")


GENERATORS = ("2", "t - 1", "t^2 + 1")


def sample_member(mod, rng):
    """The generator of mod times a random ring element (coefficients in
    [-3, 3]; exponents [0, 4] for Z[t], [-2, 2] for Laurent)."""
    lo = 0 if mod.ring == la.POLY_RING else -2
    hi = 4 if mod.ring == la.POLY_RING else 2
    return mod.generator * la.random_laurent(rng, lo, hi)


def test_submodule_members_are_members():
    rng = random.Random(23)
    for text in GENERATORS:
        gen = la.parse_laurent(text)
        for ring in (la.POLY_RING, la.LAURENT_RING):
            mod = la.PrincipalSubmodule(gen, ring)
            for _ in range(200):
                assert mod.contains(sample_member(mod, rng))


def test_submodule_coset_relation_is_a_primary_congruence_on_samples():
    rng = random.Random(24)
    for text in GENERATORS:
        gen = la.parse_laurent(text)
        for ring in (la.POLY_RING, la.LAURENT_RING):
            mod = la.PrincipalSubmodule(gen, ring)
            for _ in range(300):
                f, g = la.random_laurent(rng), la.random_laurent(rng)
                f2 = f + sample_member(mod, rng)
                g2 = g + sample_member(mod, rng)
                gap = la.alexander_op(f2, g2) - la.alexander_op(f, g)
                assert mod.contains(gap)
                if ring == la.LAURENT_RING:
                    gap_inv = la.alexander_op(f2, g2, INVERSE) - la.alexander_op(
                        f, g, INVERSE
                    )
                    assert mod.contains(gap_inv)


def test_poly_ring_submodules_fail_the_inverse_side():
    # with differences allowed from Z[t] only, multiplying by 1/t escapes
    for text in GENERATORS:
        gen = la.parse_laurent(text)
        mod = la.PrincipalSubmodule(gen, la.POLY_RING)
        gap = la.alexander_op(gen, ZERO, INVERSE) - la.alexander_op(ZERO, ZERO, INVERSE)
        assert gap == T_INV * gen
        assert not mod.contains(gap)
        laurent_mod = la.PrincipalSubmodule(gen, la.LAURENT_RING)
        assert laurent_mod.contains(gap)


def test_relation_fails_the_inverse_side_at_small_scale():
    # one checked counterexample proves the relation no congruence of the
    # inverse operation: 0 ~ 1 but their images under the inverse
    # operation against 0 differ by 1/t, outside Z[t]
    assert la.parity_shift_relation(ZERO, ONE)
    left = la.alexander_op(ZERO, ZERO, INVERSE)
    right = la.alexander_op(ONE, ZERO, INVERSE)
    assert right - left == T_INV
    assert not la.parity_shift_relation(left, right)


# ---------------------------------------------------------------------------
# the closed-form half witnesses against the bounded searches they replaced

def _first_violation_reference(related, quads, side):
    """The first quadruple on which alexander_op fails to respect related
    on the side, or None."""
    op = la.alexander_op
    return next((q for q in quads
                 if not related(op(q[0], q[1], side), op(q[2], q[3], side))), None)


def _submodule_search(m, side):
    # the quadruples (0, 0, k * g, 0), k = 1, 2, 3
    quads = ((ZERO, ZERO, m.generator * LaurentPoly.constant(k), ZERO) for k in range(1, 4))
    return _first_violation_reference(
        lambda f, g: la.submodule_relation(m, f, g), quads, side)


def _parity_shift_search(side):
    # every related pair of pairs over six small polynomials
    small = [ZERO, ONE, -ONE, T, T - ONE, (T - ONE) * T]
    quads = ((f, g, f + d1, g + d2) for f, g, d1, d2 in itertools.product(small, repeat=4)
             if la.in_difference_set(f, d1) and la.in_difference_set(g, d2))
    return _first_violation_reference(la.parity_shift_relation, quads, side)


def test_closed_form_witnesses_are_the_first_quadruples_the_searches_found():
    for text in GENERATORS:
        gen = la.parse_laurent(text)
        for ring in (la.POLY_RING, la.LAURENT_RING):
            m = la.PrincipalSubmodule(gen, ring)
            for side in (PRIMARY, INVERSE):
                found = _submodule_search(m, side)
                assert la.submodule_half_witness(m, side) == found
                assert (found is None) == (side == PRIMARY or ring == la.LAURENT_RING)
    for side in (PRIMARY, INVERSE):
        assert la.parity_shift_half_witness(side) == _parity_shift_search(side)
    quad = la.parity_shift_half_witness(INVERSE)
    assert quad == (ZERO, ZERO, ZERO, ONE)
    assert tb._half_witness(la.alexander_op, la.parity_shift_relation, quad, INVERSE) == quad


def test_submodule_half_witness_holds_for_every_generator_on_a_grid():
    # the ring rule the builder once decided by, kept as the reference:
    # only the inverse side over Z[t] fails
    op, checked = la.alexander_op, 0
    for coeffs in itertools.product(range(-2, 3), repeat=5):
        gen = lp(dict(zip(range(-2, 3), coeffs)))
        if gen.is_zero:
            continue
        poly = la.PrincipalSubmodule(gen, la.POLY_RING)
        a, b, c, d = la.submodule_half_witness(poly, INVERSE)
        assert (a, b, c, d) == (ZERO, ZERO, gen, ZERO)
        assert la.submodule_relation(poly, a, c) and la.submodule_relation(poly, b, d)
        assert not la.submodule_relation(poly, op(a, b, INVERSE), op(c, d, INVERSE))
        related = lambda f, g: la.submodule_relation(poly, f, g)  # noqa: E731
        assert tb._half_witness(op, related, (a, b, c, d), INVERSE) == (a, b, c, d)
        assert la.submodule_half_witness(poly, PRIMARY) is None
        laurent = la.PrincipalSubmodule(gen, la.LAURENT_RING)
        for side in (PRIMARY, INVERSE):
            assert la.submodule_half_witness(laurent, side) is None
        checked += 1
    assert checked == 5 ** 5 - 1


def test_half_witnesses_reject_an_unknown_side():
    m = la.PrincipalSubmodule(T - ONE, la.POLY_RING)
    for call in (lambda: la.submodule_half_witness(m, "left"),
                 lambda: la.parity_shift_half_witness("left")):
        with pytest.raises(ValueError, match="side must be 'primary' or 'inverse'"):
            call()


def test_relation_partner_construction():
    rng = random.Random(25)
    for _ in range(300):
        f = la.random_laurent(rng)
        assert la.parity_shift_relation(f, la.random_relation_partner(rng, f))


# ---------------------------------------------------------------------------
# the term-level kernels against their polynomial-building definitions

def reference_relation(f, g):
    d = g - f
    if not la.in_poly_ring(d):
        return False
    allowed = (0, 1) if la.eval_at_one(f) % 2 == 0 else (0, -1)
    return la.eval_at_one(d) in allowed


def reference_in_difference_set(f, d):
    if la.eval_at_one(f) % 2 == 0:
        return la.in_common_difference_set(d) or la.in_common_difference_set(d - ONE)
    return la.in_common_difference_set(d) or la.in_common_difference_set(d + ONE)


def reference_alexander_op(f, g, side):
    t = T if side == PRIMARY else T_INV
    return t * f + (ONE - t) * g


def random_sparse(rng, spread=64):
    exps = rng.sample(range(-spread, spread + 1), rng.randint(0, 8))
    return lp({e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exps})


def test_kernels_match_reference_on_grid_rows():
    # every 25th row of the criterion-9 grid against all 3,125 g
    polys = [
        lp(dict(zip(range(-2, 3), coeffs)))
        for coeffs in itertools.product(range(-2, 3), repeat=5)
    ]
    for f in polys[::25]:
        for g in polys:
            d = g - f
            assert la.in_difference_set(f, d) == reference_in_difference_set(f, d)
            assert la.parity_shift_relation(f, g) == reference_relation(f, g)


def test_kernels_match_reference_on_sparse_polynomials():
    rng = random.Random(26)
    for _ in range(3000):
        f = random_sparse(rng)
        # partners sharing f's negative part exercise the equal-prefix path
        g = f + random_sparse(rng) if rng.random() < 0.5 else random_sparse(rng)
        if rng.random() < 0.5:
            g = lp({e: c for e, c in zip(g.exps, g.coeffs) if e >= 0}) + lp(
                {e: c for e, c in zip(f.exps, f.coeffs) if e < 0})
        d = g - f
        assert la.in_difference_set(f, d) == reference_in_difference_set(f, d)
        assert la.parity_shift_relation(f, g) == reference_relation(f, g)
        for side in (PRIMARY, INVERSE):
            got = la.alexander_op(f, g, side)
            assert terms(got) == terms(reference_alexander_op(f, g, side))


@given(poly_terms, poly_terms)
def test_alexander_op_matches_reference(da, db):
    f, g = lp(da), lp(db)
    for side in (PRIMARY, INVERSE):
        assert terms(la.alexander_op(f, g, side)) == terms(reference_alexander_op(f, g, side))


# ---------------------------------------------------------------------------
# arithmetic against the term loops it replaced

def _merge_reference(p, q, sign):
    """p + sign * q by the merge that built a generator for q's tail."""
    a, b = terms(p), terms(q)
    i = j = 0
    out = []
    while i < len(a) and j < len(b):
        ea, ca = a[i]
        eb, cb = b[j]
        if ea < eb:
            out.append((ea, ca))
            i += 1
        elif ea > eb:
            out.append((eb, sign * cb))
            j += 1
        else:
            c = ca + sign * cb
            if c:
                out.append((ea, c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend((e, sign * c) for e, c in b[j:])
    return LaurentPoly(tuple(out))


def _mul_reference(p, q):
    """p * q re-accumulated through the public constructor."""
    out = {}
    for e1, c1 in zip(p.exps, p.coeffs):
        for e2, c2 in zip(q.exps, q.coeffs):
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(out)


def _assert_arithmetic_matches_reference(f, g):
    for x, y in ((f, g), (g, f)):
        assert terms(x + y) == terms(_merge_reference(x, y, 1))
        assert terms(x - y) == terms(_merge_reference(x, y, -1))
    assert terms(f * g) == terms(_mul_reference(f, g))


wide_terms = st.dictionaries(
    st.one_of(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=10**6, max_value=10**6 + 5),
        st.integers(min_value=-(10**6) - 5, max_value=-(10**6)),
    ),
    st.integers(min_value=-9, max_value=9),
    max_size=8,
)


@st.composite
def arithmetic_pairs(draw):
    """(f, g) with g any polynomial, zero, f or -f (full cancellation),
    f's exponents left out (disjoint exponents), or placed above all of
    f's exponents."""
    f, h = lp(draw(wide_terms)), lp(draw(wide_terms))
    kind = draw(st.sampled_from(("any", "zero", "same", "negated", "disjoint", "above")))
    if kind == "zero":
        return f, ZERO
    if kind == "same":
        return f, f
    if kind == "negated":
        return f, -f
    if kind == "disjoint":
        return f, lp({e: c for e, c in zip(h.exps, h.coeffs) if f.coeff(e) == 0})
    if kind == "above" and not (f.is_zero or h.is_zero):
        return f, h.shifted(f.max_exp - h.min_exp + draw(st.integers(1, 3)))
    return f, h


@given(arithmetic_pairs())
def test_arithmetic_matches_the_reference_term_loops(pair):
    _assert_arithmetic_matches_reference(*pair)
    f, g = pair
    for side in (PRIMARY, INVERSE):
        assert terms(la.alexander_op(f, g, side)) == terms(reference_alexander_op(f, g, side))
    # shifts and negation against the public constructor
    for k in (-7, 0, 3):
        shifted = LaurentPoly([(e + k, c) for e, c in zip(f.exps, f.coeffs)])
        assert terms(f.shifted(k)) == terms(shifted)
    assert terms(-g) == terms(LaurentPoly([(e, -c) for e, c in zip(g.exps, g.coeffs)]))


def test_arithmetic_matches_the_reference_term_loops_on_grid_rows():
    # every 125th row of the criterion-9 grid against all 3,125 g
    polys = [
        lp(dict(zip(range(-2, 3), coeffs)))
        for coeffs in itertools.product(range(-2, 3), repeat=5)
    ]
    for f in polys[::125]:
        for g in polys:
            _assert_arithmetic_matches_reference(f, g)


# ---------------------------------------------------------------------------
# submodule membership against the dense division it replaced

def _exact_divides_reference(num, den):
    """Long division subtracting den's whole dense row at every step."""
    if num.is_zero:
        return True
    width = num.max_exp + 1
    rem = [0] * width
    for e, c in zip(num.exps, num.coeffs):
        rem[e] = c
    dense_den = [0] * (den.max_exp + 1)
    for e, c in zip(den.exps, den.coeffs):
        dense_den[e] = c
    deg = len(dense_den) - 1
    lead = dense_den[-1]
    for top in range(width - 1, deg - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        if c % lead:
            return False
        q = c // lead
        off = top - deg
        for i, dc in enumerate(dense_den):
            rem[off + i] -= q * dc
    return all(c == 0 for c in rem)


def _contains_reference(m, d):
    if d.is_zero:
        return True
    h0 = m.generator.shifted(-m.generator.min_exp)
    if m.ring == la.LAURENT_RING:
        return _exact_divides_reference(d.shifted(-d.min_exp), h0)
    shifted = d.shifted(-m.generator.min_exp)
    if shifted.min_exp < 0:
        return False
    return _exact_divides_reference(shifted, h0)


# non-unit and negative leads, zero middle coefficients
DIVISION_GENERATORS = ("2", "-3t + 1", "2t^2 - 1", "t^2 + 1", "t^3 - 2", "t - 1", "-t^4 + 3t")


@st.composite
def membership_cases(draw):
    """(submodule, d): d a multiple of the generator, a multiple plus one
    term, or any polynomial; generator and d may have negative exponents."""
    gen = la.parse_laurent(draw(st.sampled_from(DIVISION_GENERATORS)))
    gen = gen.shifted(draw(st.integers(-3, 3)))
    m = la.PrincipalSubmodule(gen, draw(st.sampled_from((la.POLY_RING, la.LAURENT_RING))))
    q = lp(draw(poly_terms))
    kind = draw(st.sampled_from(("multiple", "perturbed", "any")))
    if kind == "any":
        return m, q
    d = gen * q
    if kind == "perturbed":
        d = d + lp({draw(st.integers(-8, 12)): draw(st.sampled_from((-2, -1, 1, 3)))})
    return m, d


@given(membership_cases())
def test_contains_matches_the_dense_division_reference(case):
    m, d = case
    assert m.contains(d) == _contains_reference(m, d)


def test_dense_division_reference_cases_reach_both_answers():
    for text in DIVISION_GENERATORS:
        gen = la.parse_laurent(text)
        for ring in (la.POLY_RING, la.LAURENT_RING):
            m = la.PrincipalSubmodule(gen, ring)
            multiple = gen * la.parse_laurent("t^-2 + 5 - t^3")
            off = multiple + ONE
            assert m.contains(multiple) == _contains_reference(m, multiple)
            assert m.contains(off) == _contains_reference(m, off)
            assert not m.contains(off) and m.contains(multiple) == (ring == la.LAURENT_RING)


def test_membership_refuses_a_division_wider_than_its_limit():
    m = la.PrincipalSubmodule(la.parse_laurent("t - 1"))
    assert la.MAX_DIVISION_SPAN == 10**6
    # the widest division allowed still answers, in about 0.3 s
    assert m.contains(LaurentPoly({10**6: 1, 0: -1}))
    # a dense list of 10**9 entries would not fit in memory
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^exponent span 0\.\.1000000000 exceeds .* 1000000$"):
        m.contains(LaurentPoly({10**9: 1, 0: -1}))
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match=r"^exponent span 0\.\.1000001 "):
        m.contains(LaurentPoly({10**6 + 1: 1, 0: -1}))
    # the span is counted after the valuation is divided out
    laurent_ring = la.PrincipalSubmodule(m.generator, la.LAURENT_RING)
    assert laurent_ring.contains(LaurentPoly({10**9 + 10**6: 1, 10**9: -1}))
    # a term below t^0 answers False in Z[t] before any span is counted
    assert not m.contains(LaurentPoly({10**9: 1, -1: -1}))
    with pytest.raises(ValueError, match="int of about 5001 digits"):
        m.contains(LaurentPoly({10**5000: 1, 0: -1}))
