import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rackq import tables as tb
from rackq import weighted as wa
from rackq.congruence import CongruenceClass as CC
from rackq.tables import PRIMARY, INVERSE


F = Fraction
Z = wa.SubgroupDescriptor.integers()
Z2 = wa.SubgroupDescriptor.scaled(1, 2)
Z3 = wa.SubgroupDescriptor.scaled(1, 3)
Z6 = wa.SubgroupDescriptor.scaled(1, 6)
SCALED27 = wa.SubgroupDescriptor.scaled(F(2, 7), 3)
ZERO = wa.SubgroupDescriptor.zero()
ALL = wa.SubgroupDescriptor.all()

GRID_DESCRIPTORS = (ZERO, ALL, Z, Z2, Z3, Z6, SCALED27)
GRID_WEIGHTS = tuple(
    wa.Weight(F(s))
    for s in ("-1", "1/2", "-1/2", "2", "-2", "2/3", "-2/3", "3/2", "-3/2", "5/6")
)


# ---------------------------------------------------------------------------
# weights

def test_weight_reduces_and_rejects_zero():
    w = wa.Weight(F(4, 6))
    assert (w.p, w.q) == (2, 3)
    assert w.nontrivial
    assert w.inverse == F(3, 2)
    assert not wa.Weight(F(1)).nontrivial
    with pytest.raises(ValueError, match="nonzero"):
        wa.Weight(F(0))


@pytest.mark.parametrize("value, shown", [
    # a float would store its binary expansion, 0.1 as 3602879701896397/2**55
    (0.1, "0.1"), (True, "True"), ("2/3", "'2/3'"), (2.0, "2.0"),
])
def test_weight_accepts_only_an_int_or_a_fraction(value, shown):
    with pytest.raises(ValueError, match=f"^weight must be an int or a Fraction, got {re.escape(shown)}$"):
        wa.Weight(value)
    assert wa.Weight(2) == wa.Weight(F(2)) and wa.Weight(-1).value == -1


def test_weighted_op_examples():
    half = wa.Weight(F(1, 2))
    assert wa.weighted_op(0, 2, half) == 1
    assert wa.weighted_op(0, 2, half, INVERSE) == -2
    with pytest.raises(ValueError, match="side"):
        wa.weighted_op(0, 2, half, "sideways")


rationals = st.builds(
    F, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=40)
)


@given(rationals, rationals, rationals.filter(lambda f: f != 0))
def test_weighted_op_identities(x, y, t):
    w = wa.Weight(t)
    assert wa.weighted_op(x, x, w) == x
    assert wa.weighted_op(wa.weighted_op(x, y, w), y, w, INVERSE) == x
    assert wa.weighted_op(wa.weighted_op(x, y, w, INVERSE), y, w) == x


# ---------------------------------------------------------------------------
# descriptors

def test_scaled_normalises_to_radical():
    assert wa.SubgroupDescriptor.scaled(1, 12) == wa.SubgroupDescriptor.scaled(1, 6)
    assert wa.SubgroupDescriptor.scaled(1, 8) == Z2
    assert wa.SubgroupDescriptor.scaled(1, 1).m == 1


def test_descriptor_validation():
    with pytest.raises(ValueError, match="positive"):
        wa.SubgroupDescriptor.scaled(-1, 3)
    with pytest.raises(ValueError, match=">= 1"):
        wa.SubgroupDescriptor.scaled(1, 0)
    with pytest.raises(ValueError, match="kind"):
        wa.SubgroupDescriptor("weird")
    # a float base would make contains raise TypeError, and True would
    # stand for 1
    for m in (3.0, True, F(3), "3"):
        with pytest.raises(ValueError, match="^denominator base must be an int, got "):
            wa.SubgroupDescriptor.scaled(1, m)
    with pytest.raises(ValueError, match=r"^denominator base must be an int, got 3\.0$"):
        wa.SubgroupDescriptor.scaled(1, 3.0)
    assert wa.SubgroupDescriptor.scaled(1, 3).contains(F(1, 3))


@pytest.mark.parametrize("make, message", [
    (lambda: wa.SubgroupDescriptor.scaled(0.1, 3), "scale must be an int or a Fraction, got 0.1"),
    (lambda: wa.SubgroupDescriptor.scaled(True, 3), "scale must be an int or a Fraction, got True"),
    (lambda: wa.SubgroupDescriptor.scaled("1/2", 3), "scale must be an int or a Fraction, got '1/2'"),
    # zero and all drop g and m, but a value of the wrong type is refused
    (lambda: wa.SubgroupDescriptor("zero", m=3.0), "denominator base must be an int, got 3.0"),
    (lambda: wa.SubgroupDescriptor("all", g=0.5, m="x"), "scale must be an int or a Fraction, got 0.5"),
    (lambda: wa.SubgroupDescriptor("all", m="x"), "denominator base must be an int, got 'x'"),
], ids=["scaled-float-g", "scaled-bool-g", "scaled-str-g", "zero-float-m", "all-float-g", "all-str-m"])
def test_descriptor_accepts_only_an_int_or_a_fraction_scale_and_an_int_base(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
    assert wa.SubgroupDescriptor.scaled(2, 3) == wa.SubgroupDescriptor.scaled(F(2), 3)
    assert wa.SubgroupDescriptor("zero", F(5), 7) == wa.SubgroupDescriptor.zero()


def test_contains_examples():
    assert Z3.contains(F(5, 9))
    assert not Z3.contains(F(1, 2))
    assert ZERO.contains(0) and not ZERO.contains(F(1, 3))
    assert ALL.contains(F(-17, 23))
    assert SCALED27.contains(F(2, 7) * F(5, 9))
    assert not SCALED27.contains(F(5, 9))
    assert Z.contains(-4) and not Z.contains(F(1, 2))


def test_closed_under_examples():
    assert not Z.closed_under(F(1, 2))
    assert Z3.closed_under(F(2, 3))
    assert ALL.closed_under(F(7, 13))
    assert ZERO.closed_under(F(7, 13))
    with pytest.raises(ValueError, match="nonzero"):
        Z3.closed_under(0)


def test_closure_depends_only_on_denominator():
    # closed under p/q iff closed under 1/q, over the whole grid
    for d in GRID_DESCRIPTORS:
        for p in range(-10, 11):
            for q in range(1, 11):
                if p == 0 or math.gcd(p, q) != 1:
                    continue
                assert d.closed_under(F(p, q)) == d.closed_under(F(1, q))


def test_subgroups_closed_under_subtraction():
    rng = random.Random(0)
    for d in GRID_DESCRIPTORS:
        for _ in range(300):
            x, y = d.sample(rng), d.sample(rng)
            assert d.contains(x) and d.contains(y)
            assert d.contains(x - y)


def test_descriptor_literals():
    assert wa.parse_descriptor("zero") == ZERO
    assert wa.parse_descriptor("all") == ALL
    assert wa.parse_descriptor("1:3") == Z3
    assert wa.parse_descriptor("2/7:3") == SCALED27
    for d in GRID_DESCRIPTORS:
        assert wa.parse_descriptor(d.describe()) == d
    for bad in ("", "3", "1:x", "x:3", "1:0", "-1:2"):
        with pytest.raises(ValueError):
            wa.parse_descriptor(bad)


# ---------------------------------------------------------------------------
# congruence status of coset relations

def test_status_examples():
    w23 = wa.Weight(F(2, 3))
    assert wa.coset_congruence_status(Z3, w23) is CC.RIGHT_ONLY
    assert wa.coset_congruence_status(Z6, w23) is CC.BOTH
    assert wa.coset_congruence_status(Z, wa.Weight(F(-1))) is CC.BOTH
    assert wa.coset_congruence_status(Z, w23) is CC.NEITHER


def test_trivial_weight_is_rejected():
    with pytest.raises(ValueError, match="trivial weighted average quandle"):
        wa.coset_congruence_status(Z, wa.Weight(F(1)))
    with pytest.raises(ValueError, match="trivial weighted average quandle"):
        wa.classify_weight(wa.Weight(F(1)))


def test_status_duality_swaps_half_tags():
    swap = {CC.BOTH: CC.BOTH, CC.NEITHER: CC.NEITHER,
            CC.RIGHT_ONLY: CC.LEFT_ONLY, CC.LEFT_ONLY: CC.RIGHT_ONLY}
    for d in GRID_DESCRIPTORS:
        for w in GRID_WEIGHTS:
            dual = wa.Weight(w.inverse)
            assert wa.coset_congruence_status(d, dual) is swap[wa.coset_congruence_status(d, w)]


# ---------------------------------------------------------------------------
# half-congruence witnesses

def test_half_witness_exact_examples():
    quad = wa.find_half_witness(Z3, wa.Weight(F(2, 3)), INVERSE)
    assert quad == (0, 0, 1, 0)
    gap = wa.weighted_op(1, 0, wa.Weight(F(2, 3)), INVERSE)
    assert gap == F(3, 2) and not Z3.contains(gap)

    assert wa.find_half_witness(Z, wa.Weight(F(1, 2)), PRIMARY) == (0, 0, 1, 0)
    assert wa.weighted_op(1, 0, wa.Weight(F(1, 2))) == F(1, 2)

    assert wa.find_half_witness(Z6, wa.Weight(F(2, 3)), PRIMARY) is None
    assert wa.find_half_witness(Z6, wa.Weight(F(2, 3)), INVERSE) is None


def test_half_witness_checks_the_side_before_the_weight():
    with pytest.raises(ValueError, match="side must be"):
        wa.find_half_witness(Z, wa.Weight(F(1)), "sideways")
    with pytest.raises(ValueError, match="trivial weighted average quandle"):
        wa.find_half_witness(Z, wa.Weight(F(1)), PRIMARY)


def _weighted(w):
    return lambda x, y, side: wa.weighted_op(x, y, w, side)


def _coset(d):
    return lambda x, y: d.contains(y - x)


def test_half_witness_is_always_verified():
    for d in GRID_DESCRIPTORS + REFERENCE_DESCRIPTORS:
        for w in GRID_WEIGHTS + REFERENCE_WEIGHTS:
            status = wa.coset_congruence_status(d, w)
            failing = {
                PRIMARY: status in (CC.LEFT_ONLY, CC.NEITHER),
                INVERSE: status in (CC.RIGHT_ONLY, CC.NEITHER),
            }
            for side, t in ((PRIMARY, w.value), (INVERSE, w.inverse)):
                quad = wa.find_half_witness(d, w, side)
                assert (quad is not None) == failing[side]
                # the closed_under rule the builder once decided by, kept
                # as the reference
                assert quad == (None if d.closed_under(t) else (0, 0, d.g, 0))
                if quad is not None:
                    assert all(type(v) is Fraction for v in quad)
                    a, b, c, e = quad
                    assert d.contains(c - a) and d.contains(e - b)
                    gap = wa.weighted_op(c, e, w, side) - wa.weighted_op(a, b, w, side)
                    assert not d.contains(gap)
                    assert tb._half_witness(_weighted(w), _coset(d), quad, side) == quad


def test_classification_witnesses_pass_the_definition_on_the_weight_and_role_grid():
    for w in GRID_WEIGHTS + REFERENCE_WEIGHTS:
        for ws in wa.classify_weight(w).witnesses:
            d = ws.descriptor
            failing = {side for side, t in ((PRIMARY, w.value), (INVERSE, w.inverse))
                       if not d.closed_under(t)}
            assert set(ws.half_witnesses) == failing, (w, ws.role)
            for side, quad in ws.half_witnesses.items():
                assert tb._half_witness(_weighted(w), _coset(d), quad, side) == quad


def test_half_witnesses_that_contradict_the_status_are_refused(monkeypatch):
    # a builder that misses a failing side would break the "verified"
    # contract of WitnessStatus; the one check in _witness_status stops it
    monkeypatch.setattr(wa, "find_half_witness", lambda d, w, side: None)
    with pytest.raises(AssertionError, match="contradict its status"):
        wa._witness_status("integers", Z, wa.Weight(F(2, 3)))
    assert wa._witness_status("combined", Z6, wa.Weight(F(2, 3))).half_witnesses == {}


# ---------------------------------------------------------------------------
# sampled checks

def test_sampled_check_zero_descriptor_is_trivially_true():
    for w in GRID_WEIGHTS:
        assert wa.sampled_congruence_check(ZERO, w, PRIMARY, samples=50)
        assert wa.sampled_congruence_check(ZERO, w, INVERSE, samples=50)


def test_sampled_check_detects_a_failing_side():
    assert not wa.sampled_congruence_check(Z, wa.Weight(F(1, 2)), PRIMARY, samples=200, seed=0)


def test_sampled_check_deterministic_per_seed():
    rng1, rng2 = random.Random(5), random.Random(5)
    assert [Z3.sample(rng1) for _ in range(20)] == [Z3.sample(rng2) for _ in range(20)]


def test_closure_decides_the_sampled_check():
    # closed sides pass the sampled check, open sides produce witnesses
    for d in GRID_DESCRIPTORS:
        for w in GRID_WEIGHTS:
            for side, rho in ((PRIMARY, w.value), (INVERSE, w.inverse)):
                if d.closed_under(rho):
                    assert wa.sampled_congruence_check(d, w, side, samples=300, seed=1)
                else:
                    assert wa.find_half_witness(d, w, side) is not None


# ---------------------------------------------------------------------------
# classification by weight

def test_classification_cases():
    cases = {
        "-1": 1,
        "1/2": 2, "-1/2": 2,
        "2": 3, "-2": 3,
        "2/3": 4, "-2/3": 4, "3/2": 4, "-3/2": 4, "5/6": 4,
    }
    for literal, case in cases.items():
        result = wa.classify_weight(wa.Weight(F(literal)))
        assert result.case == case, literal
        assert result.explanation
        assert len(result.witnesses) == 4


def test_classification_witness_statuses():
    def statuses(literal):
        result = wa.classify_weight(wa.Weight(F(literal)))
        return {ws.role: ws.status for ws in result.witnesses}

    assert statuses("-1") == {
        "integers": CC.BOTH, "denominator": CC.BOTH,
        "numerator": CC.BOTH, "combined": CC.BOTH,
    }
    assert statuses("1/2") == {
        "integers": CC.LEFT_ONLY, "denominator": CC.BOTH,
        "numerator": CC.LEFT_ONLY, "combined": CC.BOTH,
    }
    assert statuses("2") == {
        "integers": CC.RIGHT_ONLY, "denominator": CC.RIGHT_ONLY,
        "numerator": CC.BOTH, "combined": CC.BOTH,
    }
    assert statuses("2/3") == {
        "integers": CC.NEITHER, "denominator": CC.RIGHT_ONLY,
        "numerator": CC.LEFT_ONLY, "combined": CC.BOTH,
    }


def test_classification_every_weight_has_full_congruences():
    # the combined subgroup always yields a two-sided congruence
    for w in GRID_WEIGHTS:
        result = wa.classify_weight(w)
        combined = next(ws for ws in result.witnesses if ws.role == "combined")
        assert combined.status is CC.BOTH
        assert not combined.half_witnesses


def test_classification_half_witnesses_are_recorded():
    result = wa.classify_weight(wa.Weight(F(2, 3)))
    by_role = {ws.role: ws for ws in result.witnesses}
    assert set(by_role["denominator"].half_witnesses) == {INVERSE}
    assert set(by_role["numerator"].half_witnesses) == {PRIMARY}
    assert set(by_role["integers"].half_witnesses) == {PRIMARY, INVERSE}
    assert by_role["denominator"].half_witnesses[INVERSE] == (0, 0, 1, 0)


def _non_member(d):
    """Some rational outside the subgroup, or None when there is none."""
    if d.kind == "all":
        return None
    if d.kind == "zero":
        return F(1)
    p = next(p for p in (2, 3, 5, 7, 11, 13) if d.m % p != 0)
    return d.g / p


def test_coset_relation_recovers_its_subgroup():
    # constructive core of the completeness direction: differences of
    # related pairs land exactly in D, and the elements u, v built in the
    # recovery argument move a pair x ~ x+d to pairs differing by t*d and
    # (1-t)*d, which a subgroup closed under t must contain
    rng = random.Random(3)
    for d in GRID_DESCRIPTORS:
        for w in GRID_WEIGHTS:
            if not d.closed_under(w.value):
                continue
            t = w.value
            for _ in range(100):
                x = wa.random_rational(rng)
                delta = d.sample(rng)
                a = wa.random_rational(rng)
                u = (a - t * x) / (1 - t)
                assert wa.weighted_op(x, u, w) == a
                assert wa.weighted_op(x + delta, u, w) == a + t * delta
                assert d.contains(t * delta)
                v = (a - (1 - t) * x) / t
                assert wa.weighted_op(v, x, w) == a
                assert wa.weighted_op(v, x + delta, w) == a + (1 - t) * delta
                assert d.contains((1 - t) * delta)
                assert d.contains(delta)
            bad = _non_member(d)
            if bad is not None:
                assert not d.contains(bad)
                x = wa.random_rational(rng)
                assert not d.contains((x + bad) - x)


# ---------------------------------------------------------------------------
# the positives are not closed in the weight-1/2 quandle

def test_positive_rationals_fail_the_inverse_closure():
    half = wa.Weight(F(1, 2))
    assert wa.weighted_op(0, 2, half) == 1
    solution = wa.weighted_op(1, 2, half, INVERSE)
    assert solution == 0
    assert wa.weighted_op(solution, 2, half) == 1  # unique preimage
    assert not solution > 0


# ---------------------------------------------------------------------------
# the integer-pair kernels against the Fraction definitions

def reference_random_rational(rng):
    return F(rng.randint(-100, 100), rng.randint(1, 16))


def reference_sample(d, rng):
    if d.kind == "zero":
        return F(0)
    if d.kind == "all":
        return reference_random_rational(rng)
    return d.g * F(rng.randint(-100, 100), d.m ** rng.randint(0, 4))


# the pair samplers as they drew through rng.randint, kept as the
# references for the getrandbits draws

def reference_rational_pair(rng):
    return rng.randint(-100, 100), rng.randint(1, 16)


def reference_sample_pair(d, rng):
    if d.kind == "zero":
        return 0, 1
    if d.kind == "all":
        return reference_rational_pair(rng)
    return d.g.numerator * rng.randint(-100, 100), d.g.denominator * d.m ** rng.randint(0, 4)


def reference_contains(d, x):
    if d.kind == "zero":
        return x == 0
    if d.kind == "all":
        return True
    return wa._divides_radically((x / d.g).denominator, d.m)


def reference_sampled_check(d, w, side, samples, seed):
    rng = random.Random(seed)
    for _ in range(samples):
        a = reference_random_rational(rng)
        b = reference_random_rational(rng)
        c = a + reference_sample(d, rng)
        e = b + reference_sample(d, rng)
        gap = wa.weighted_op(c, e, w, side) - wa.weighted_op(a, b, w, side)
        if not reference_contains(d, gap):
            return False
    return True


REFERENCE_WEIGHTS = tuple(wa.Weight(F(s)) for s in ("-1", "1/2", "2", "2/3", "-3/5", "7/4"))
REFERENCE_DESCRIPTORS = (ZERO, ALL, Z) + tuple(
    wa.SubgroupDescriptor.scaled(g, m)
    for g in (F(1), F(2, 7), F(3)) for m in (2, 3, 4, 5, 6, 15)
)


def test_samplers_draw_the_reference_sequences():
    for d in REFERENCE_DESCRIPTORS:
        rng, ref = random.Random(8), random.Random(8)
        for _ in range(200):
            assert wa.random_rational(rng) == reference_random_rational(ref)
            assert d.sample(rng) == reference_sample(d, ref)
        assert rng.getstate() == ref.getstate()


def test_pair_samplers_draw_the_reference_pairs():
    for seed in (0, 9):
        for d in REFERENCE_DESCRIPTORS:
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(1000):
                assert wa._rational_sampler(rng.getrandbits)() == reference_rational_pair(ref)
                assert d._sampler(rng.getrandbits)() == reference_sample_pair(d, ref)
            assert rng.getstate() == ref.getstate()


class RecordingRandom(random.Random):
    """random.Random that records every getrandbits call and the instances
    made; overriding getrandbits keeps the draws of randint unchanged."""

    made = []

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []
        RecordingRandom.made.append(self)

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.calls.append((k, r))
        return r


def test_sampled_check_draws_the_bits_of_the_fraction_reference(monkeypatch):
    # the inline draws of sampled_congruence_check read the same bits, in
    # the same order, as the Fraction loop that drew through randint
    monkeypatch.setattr(wa.random, "Random", RecordingRandom)
    for w in REFERENCE_WEIGHTS[:3]:
        for d in REFERENCE_DESCRIPTORS:
            for side in (PRIMARY, INVERSE):
                RecordingRandom.made.clear()
                got = wa.sampled_congruence_check(d, w, side, 60, 4)
                expected = reference_sampled_check(d, w, side, 60, 4)
                rng, ref = RecordingRandom.made
                assert got == expected
                assert rng.calls == ref.calls, (w, d, side)
                assert rng.getstate() == ref.getstate()


def test_sampled_check_matches_the_fraction_reference():
    outcomes = set()
    for w in REFERENCE_WEIGHTS:
        for d in REFERENCE_DESCRIPTORS:
            for side in (PRIMARY, INVERSE):
                for seed in range(3):
                    got = wa.sampled_congruence_check(d, w, side, 100, seed)
                    assert got == reference_sampled_check(d, w, side, 100, seed), (
                        w, d, side, seed)
                    outcomes.add(got)
    assert outcomes == {True, False}


def test_contains_matches_the_fraction_reference_on_unreduced_pairs():
    for d in REFERENCE_DESCRIPTORS:
        for num in range(-30, 31):
            for den in (1, 2, 4, 6, 9, 14, 35, 45):
                expected = reference_contains(d, F(num, den))
                assert d.contains(F(num, den)) == expected
                assert d._contains_pair(num, den) == expected


# ---------------------------------------------------------------------------
# the descriptor base bound

def test_oversized_descriptor_base_is_rejected_quickly():
    import time

    start = time.perf_counter()
    for m in (wa.MAX_DESCRIPTOR_BASE + 1, 10**18 + 3, 1000000007 * 1000000009):
        with pytest.raises(ValueError, match="exceeds"):
            wa.SubgroupDescriptor.scaled(1, m)
    with pytest.raises(ValueError, match="exceeds"):
        wa.classify_weight(wa.Weight(F(1000000007, 1000000009)))
    with pytest.raises(ValueError, match="exceeds"):
        wa.parse_descriptor("1:1000000000000000003")
    assert time.perf_counter() - start < 0.5


def test_descriptor_base_at_the_bound_is_accepted():
    assert wa.SubgroupDescriptor.scaled(1, wa.MAX_DESCRIPTOR_BASE).m == 10


# ---------------------------------------------------------------------------
# the rational literal bound

@pytest.mark.parametrize("text", [
    "2/3", "-1", "+7", " 5/10 ", "0.25", "-.5", "1e-3", "2.5E+2", "1_000/3",
    "1e4300", "1e-4300", "1e+0004300", "9" * wa.MAX_LITERAL_DIGITS,
])
def test_parse_rational_agrees_with_fraction(text):
    assert wa.parse_rational(text) == F(text)


def test_parse_rational_keeps_the_errors_of_fraction():
    with pytest.raises(ZeroDivisionError):
        wa.parse_rational("1/0")
    for bad in ("", "x", "1/2/3", "1e", "e5"):
        with pytest.raises(ValueError):
            wa.parse_rational(bad)


def test_parse_rational_rejects_oversized_literals_quickly():
    import time

    digits = wa.MAX_LITERAL_DIGITS
    start = time.perf_counter()
    for text in (
        "1e10000000", "-1E-10000000", "1e+4301", "1e-0004301", "1e" + "9" * 10**5,
        "1" * (digits + 1), "1/" + "3" * (digits + 1), "0." + "0" * digits + "1",
    ):
        with pytest.raises(ValueError, match="more than"):
            wa.parse_rational(text)
    with pytest.raises(ValueError, match="malformed"):
        wa.parse_descriptor("1e10000000:3")
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("text, reason", [
    ("1e5000:3", "g is a rational literal with more than 4300 digits or an exponent beyond 4300"),
    ("1" * 4301 + ":3",
     "g is a rational literal with more than 4300 digits or an exponent beyond 4300"),
    ("1/0:3", "g has a zero denominator"),
    ("x:3", "g is not a rational literal"),
    ("1:x", "m is not an integer of at most 4300 digits"),
    ("1:" + "3" * 4301, "m is not an integer of at most 4300 digits"),
    ("1/3", 'expected "zero", "all" or "g:m"'),
])
def test_malformed_descriptor_names_the_reason(text, reason):
    with pytest.raises(ValueError, match="^malformed descriptor: ") as info:
        wa.parse_descriptor(text)
    assert str(info.value).endswith(": " + reason)


def test_malformed_descriptor_echoes_a_short_prefix():
    short = "1e5000:3"
    with pytest.raises(ValueError) as info:
        wa.parse_descriptor(short)
    assert f"malformed descriptor: {short!r}: " in str(info.value)
    long = "1" * 100_000 + ":3"
    with pytest.raises(ValueError) as info:
        wa.parse_descriptor(long)
    message = str(info.value)
    assert message.startswith(f"malformed descriptor: {long[:40]!r}... (100002 characters): ")
    assert len(message) < 200
