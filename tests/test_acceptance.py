"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``).  Exact checks are
exhaustive; sampled checks are seeded and allow zero failures.
Criteria 3, 4, 5 and 9 run the check lists of ``rackq demo`` at 10,000
samples and seed 0, so ``rackq demo b_quandle --samples 10000 --seed 0``
repeats criterion 4 input for input.  Most of the suite's time goes to
the exhaustive difference-set grid of criterion 9.
"""

import functools
import itertools
import time
from fractions import Fraction

from rackq import congruence as cg
from rackq import demos
from rackq import laurent as la
from rackq import tables as tb
from rackq import weighted as wa
from rackq.congruence import CongruenceClass as CC
from rackq.tables import PRIMARY, INVERSE

import two_sided

SAMPLES = 10_000
SEED = 0


def _racks_up_to(max_order):
    for n in range(1, max_order + 1):
        for rack in tb.enumerate_racks(n):
            yield rack


@functools.cache
def _order6_classes():
    # one rack of each class: relabelling preserves both classifications
    return tb.enumerate_racks(6, up_to_iso=True)


def test_criterion_1_no_half_congruences_on_small_racks():
    # the two-sided search, which checks each partition on both
    # operations; rackq's own search decides by * alone on this theorem,
    # and must give the same classes on every rack checked
    counts = []
    for racks in (_racks_up_to(5), _order6_classes()):
        checked = 0
        for rack in racks:
            classes = two_sided.search(rack)
            assert cg.enumerate_congruences(rack) == classes
            for _, cls in classes:
                assert cls in (CC.BOTH, CC.NEITHER)
                checked += 1
        counts.append(checked)
    # Bell(6) = 203 partitions of each of the 353 classes of order 6
    assert counts[1] == 353 * 203 == 71659
    print(f"ACCEPTANCE 1 PASS: no half congruence on any rack of order <= 5 "
          f"({counts[0]} rack/partition classifications) or any rack class of "
          f"order 6 ({counts[1]})")


def test_criterion_2_quotients_of_full_congruences_validate():
    counts = []
    for racks in (_racks_up_to(5), _order6_classes()):
        checked = 0
        for rack in racks:
            source_is_quandle = tb.validate(rack).is_quandle
            quotients = [cg.quotient(rack, p) for p, cls in cg.enumerate_congruences(rack)
                         if cls is CC.BOTH]
            for q in quotients:
                report = tb.validate(q.table)
                assert report.is_rack
                if source_is_quandle:
                    assert report.is_quandle
            checked += len(quotients)
        counts.append(checked)
    assert counts[1] == 5098
    print(f"ACCEPTANCE 2 PASS: {counts[0]} quotients of the racks of order <= 5 "
          f"and {counts[1]} of the rack classes of order 6 validate as racks "
          f"(and quandles where the source is one)")


def _demo_checks(name):
    """Run the named ``rackq demo`` on the suite's samples and seed, assert
    each of its checks by name, and return its payload.  The check lists
    themselves are pinned by tests/data/cli_golden.jsonl."""
    payload, checks = demos.run(name, SAMPLES, SEED)
    for check, passed in checks:
        assert passed, f"demo {name}: {check}"
    return payload


def test_criterion_3_shift_rack_half_congruence():
    _demo_checks("b_ell")
    print(f"ACCEPTANCE 3 PASS: shift-rack witness pair exact, left-shift "
          f"direction holds on {SAMPLES} seeded samples")


def test_criterion_4_quandle_half_congruence():
    _demo_checks("b_quandle")
    print(f"ACCEPTANCE 4 PASS: quandle axioms and primary congruence on "
          f"{SAMPLES} seeded samples, inverse-side failure witness exact")


def test_criterion_5_presented_quandle_window():
    payload = _demo_checks("b0")
    print(f"ACCEPTANCE 5 PASS: normal-form quandle axioms exhaustive on powers "
          f"within +-{payload['window']} ({payload['element_count']} elements), "
          f"embedding is an injective homomorphism for both operations")


EXPECTED_CASES = {
    Fraction(-1): (1, {"integers": CC.BOTH, "denominator": CC.BOTH,
                       "numerator": CC.BOTH, "combined": CC.BOTH}),
    Fraction(1, 2): (2, {"integers": CC.LEFT_ONLY, "denominator": CC.BOTH,
                         "numerator": CC.LEFT_ONLY, "combined": CC.BOTH}),
    Fraction(2): (3, {"integers": CC.RIGHT_ONLY, "denominator": CC.RIGHT_ONLY,
                      "numerator": CC.BOTH, "combined": CC.BOTH}),
    Fraction(2, 3): (4, {"integers": CC.NEITHER, "denominator": CC.RIGHT_ONLY,
                         "numerator": CC.LEFT_ONLY, "combined": CC.BOTH}),
}


def test_criterion_6_weight_classification():
    sampled_runs = 0
    for value, (case, expected_status) in EXPECTED_CASES.items():
        w = wa.Weight(value)
        result = wa.classify_weight(w)
        assert result.case == case
        for ws in result.witnesses:
            assert ws.status is expected_status[ws.role], (value, ws.role)
            for side in (PRIMARY, INVERSE):
                if side in ws.half_witnesses:
                    a, b, c, e = ws.half_witnesses[side]
                    assert ws.descriptor.contains(c - a)
                    assert ws.descriptor.contains(e - b)
                    gap = wa.weighted_op(c, e, w, side) - wa.weighted_op(a, b, w, side)
                    assert not ws.descriptor.contains(gap)
                else:
                    assert wa.sampled_congruence_check(
                        ws.descriptor, w, side, SAMPLES, SEED
                    )
                    sampled_runs += 1
    # the exact witness from the four-way classification: weight 2/3,
    # denominators-of-powers-of-3 subgroup, inverse side
    quad = wa.find_half_witness(
        wa.SubgroupDescriptor.scaled(1, 3), wa.Weight(Fraction(2, 3)), INVERSE
    )
    assert quad == (0, 0, 1, 0)
    gap = wa.weighted_op(1, 0, wa.Weight(Fraction(2, 3)), INVERSE)
    assert gap == Fraction(3, 2)
    assert not wa.SubgroupDescriptor.scaled(1, 3).contains(gap)
    print(f"ACCEPTANCE 6 PASS: cases 1-4 with all witness statuses exact, "
          f"failing sides verified, {sampled_runs} holding sides x {SAMPLES} "
          f"seeded samples")


def test_criterion_7_closure_lemma_grid():
    import math

    descriptors = (
        wa.SubgroupDescriptor.zero(),
        wa.SubgroupDescriptor.all(),
        wa.SubgroupDescriptor.integers(),
        wa.SubgroupDescriptor.scaled(1, 2),
        wa.SubgroupDescriptor.scaled(1, 3),
        wa.SubgroupDescriptor.scaled(1, 6),
        wa.SubgroupDescriptor.scaled(Fraction(2, 7), 3),
    )
    checked = 0
    for d in descriptors:
        for p in range(-10, 11):
            for q in range(1, 11):
                if p == 0 or math.gcd(p, q) != 1:
                    continue
                assert d.closed_under(Fraction(p, q)) == d.closed_under(Fraction(1, q))
                checked += 1
    print(f"ACCEPTANCE 7 PASS: closure under p/q equals closure under 1/q "
          f"on {checked} descriptor/rational pairs")


def test_criterion_8_first_isomorphism_theorem():
    # every labelled rack of order <= 3, one rack of each class of order
    # <= 5, and each class of order 6 into each class of order <= 3
    labelled = [t for n in (1, 2, 3) for t in tb.enumerate_racks(n)]
    classes = [t for n in range(1, 6) for t in tb.enumerate_racks(n, up_to_iso=True)]
    small = [t for t in classes if t.order <= 3]
    pair_sets = (
        list(itertools.product(labelled, repeat=2)),
        list(itertools.product(classes, repeat=2)),
        list(itertools.product(_order6_classes(), small)),
    )
    assert [len(pairs) for pairs in pair_sets] == [256, 10404, 353 * 9]
    start = time.perf_counter()
    counts = []
    for pairs in pair_sets:
        homs = small_homs = 0
        for r, s in pairs:
            for f in cg.find_homomorphisms(r, s):
                assert cg.first_isomorphism_check(f, r, s)
                assert cg.classify_relation(r, cg.kernel_partition(f, r, s)) is CC.BOTH
                homs += 1
                small_homs += max(r.order, s.order) <= 4
        counts.append((homs, small_homs))
    # the homomorphisms between classes of order <= 5, of which those of
    # order <= 4, and from the classes of order 6 into those of order
    # <= 3 (a brute force over their 1,589,559 maps finds the same
    # 26,426); about 11 s on a 2-vCPU VM, 2.3 s of it in the search
    assert counts[1] == (159801, 4834)
    assert counts[2][0] == 26426
    assert time.perf_counter() - start < 60
    print(f"ACCEPTANCE 8 PASS: first isomorphism theorem and kernel "
          f"classification for {counts[0][0]} homomorphisms over {len(labelled)}^2 "
          f"ordered pairs of labelled racks of order <= 3, {counts[1][0]} over "
          f"{len(classes)}^2 ordered pairs of rack classes of order <= 5 "
          f"({counts[1][1]} between classes of order <= 4), and {counts[2][0]} over "
          f"the {len(pair_sets[2])} ordered pairs from the rack classes of order 6 "
          f"into those of order <= 3")


def test_criterion_9_alexander_example():
    _demo_checks("alexander")

    polys = [
        la.LaurentPoly(dict(zip(range(-2, 3), coeffs)))
        for coeffs in itertools.product(range(-2, 3), repeat=5)
    ]
    # common difference set against its defining conditions, computed
    # from the raw coefficient tuples
    for coeffs, p in zip(itertools.product(range(-2, 3), repeat=5), polys):
        in_ring = coeffs[0] == 0 and coeffs[1] == 0  # exponents -2, -1
        expected = in_ring and sum(coeffs) == 0
        assert la.in_common_difference_set(p) == expected

    in_diff = la.in_difference_set
    rel = la.parity_shift_relation
    for f in polys:
        for g in polys:
            assert in_diff(f, g - f) == rel(f, g)
    print(f"ACCEPTANCE 9 PASS: primary congruence on {SAMPLES} seeded samples; "
          f"difference-set membership matches the relation on all "
          f"{len(polys)}^2 grid pairs")


def test_criterion_10_one_sided_inverse():
    ys = (0, -5, 11)
    failures = set()
    for x in range(-1000, 1001):
        for y in ys:
            assert tb.halve_op(tb.double_op(x, y), y) == x
            if tb.double_op(tb.halve_op(x, y), y) != x:
                failures.add(x)
    assert failures == {x for x in range(-1000, 1001) if x % 2 != 0}
    print("ACCEPTANCE 10 PASS: doubling then halving is the identity on "
          "[-1000, 1000]; halving then doubling fails exactly on the odds")


def test_criterion_11_affine_per_side_rule():
    # A subgroup D with w*D inside D is a Z[w]-module, so a RightOnly coset
    # relation exists iff 1/w is not in Z[w], and a LeftOnly one iff w is
    # not in Z[1/w]: for w = p/q in lowest terms, iff |p| != 1 and q != 1.
    import math

    weights = 0
    for p in range(-30, 31):
        for q in range(1, 31):
            if p == 0 or p == q or math.gcd(p, q) != 1:
                continue
            statuses = {ws.status for ws in wa.classify_weight(wa.Weight(Fraction(p, q))).witnesses}
            assert (CC.RIGHT_ONLY in statuses) == (abs(p) != 1), (p, q)
            assert (CC.LEFT_ONLY in statuses) == (q != 1), (p, q)
            # the orbit form of the finite theorem: S_y(x) = y + w(x - y)
            # has only finite orbits iff w is 1 or -1, and some role is
            # half exactly when an orbit is infinite
            half = bool(statuses & {CC.RIGHT_ONLY, CC.LEFT_ONLY})
            assert half == (Fraction(p, q) not in (1, -1)), (p, q)
            weights += 1
    assert weights == 1109
    print(f"ACCEPTANCE 11 PASS: on all {weights} weights p/q with |p|, q <= 30, "
          f"a RightOnly witness iff |p| != 1 and a LeftOnly one iff q != 1, "
          f"so some role is half iff w is not -1")
