import itertools
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rackq import congruence as cg
from rackq import tables as tb
from rackq.congruence import CongruenceClass as CC

import two_sided


D3 = tb.dihedral(3)
D4 = tb.dihedral(4)
PARITY = cg.Partition((0, 1, 0, 1))


# ---------------------------------------------------------------------------
# partitions

def test_partition_normalises_to_first_appearance():
    p = cg.Partition((5, 2, 5, 9))
    assert p.block_of == (0, 1, 0, 2)
    assert p.blocks() == ((0, 2), (1,), (3,))
    assert p.together(0, 2) and not p.together(0, 1)


def test_partition_from_blocks():
    p = cg.Partition.from_blocks([[1, 3], [0, 2]])
    assert p.block_of == (0, 1, 0, 1)
    with pytest.raises(ValueError, match="do not partition"):
        cg.Partition.from_blocks([[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="do not partition"):
        cg.Partition.from_blocks([[0], [2]], order=3)


def test_an_order_past_the_blocks_is_refused_before_any_range_is_built():
    # list(range(order)) overflows past sys.maxsize and would not fit in
    # memory below it; the element count decides first
    for order in (10**20, 10**18, 3):
        with pytest.raises(ValueError, match=rf"do not partition 0\.\.{order - 1}: "):
            cg.Partition.from_blocks([[0], [1]], order)
        with pytest.raises(ValueError, match=rf"do not partition 0\.\.{order - 1}: "):
            cg.parse_partition("0|1", order)


def test_partition_counts_are_bell_numbers():
    assert [len(list(cg.partitions(n))) for n in (1, 2, 3, 4, 5)] == [1, 2, 5, 15, 52]


def test_partitions_come_in_growth_string_order():
    got = [p.block_of for p in cg.partitions(3)]
    assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]


@pytest.mark.parametrize("n, message", [
    (0, "partition of the empty set"), (-1, "partition of the empty set"),
    (2.0, "order 2.0 is not an int"), (True, "order True is not an int"),
])
def test_partitions_of_no_elements_or_of_a_non_int_order_are_refused(n, message):
    # 0 and -1 used to raise a bare IndexError; the message is that of
    # Partition(()), and that of the other builders for a non-int order
    with pytest.raises(ValueError, match=f"^{message}$"):
        cg.partitions(n)


def test_partitions_of_a_deep_domain_start_lazily_with_one_block():
    # the search keeps its own stack: a recursive one passed Python's
    # 1,000-frame limit here
    first = next(iter(cg.partitions(1500)))
    assert first.order == 1500 and first.num_blocks == 1


def test_homomorphisms_from_a_deep_domain():
    # 1,100 elements, a labelling search 1,100 levels deep
    maps = cg.find_homomorphisms(tb.trivial(1100), tb.trivial(1))
    assert [f.image for f in maps] == [(0,) * 1100]


def test_partition_literal_roundtrip():
    p = cg.parse_partition("0,2|1,3", 4)
    assert p == PARITY
    assert cg.format_partition(p) == "0,2|1,3"
    with pytest.raises(ValueError, match="malformed"):
        cg.parse_partition("0,a|1", 3)
    with pytest.raises(ValueError, match="do not partition"):
        cg.parse_partition("0,2|1", 4)


def test_partitions_are_built_from_growth_strings_as_given():
    for n in (1, 2, 3, 4, 5):
        for p in cg.partitions(n):
            assert cg._rgs(p.block_of) == p.block_of
            assert cg.Partition(p.block_of) == p


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
def test_partition_normalisation_is_idempotent(labels):
    p = cg.Partition(tuple(labels))
    assert p.block_of[0] == 0
    assert sorted(set(p.block_of)) == list(range(p.num_blocks))
    assert cg.Partition(p.block_of) == p


# ---------------------------------------------------------------------------
# classification

def test_trivial_partitions_are_always_congruences():
    for t in tb.enumerate_racks(3):
        n = t.order
        assert cg.classify_relation(t, cg.Partition((0,) * n)) is CC.BOTH
        assert cg.classify_relation(t, cg.Partition(tuple(range(n)))) is CC.BOTH


def test_dihedral4_parity_is_a_full_congruence():
    assert cg.classify_relation(D4, PARITY) is CC.BOTH


def test_dihedral3_congruence_census():
    census = {p.block_of: cls for p, cls in cg.enumerate_congruences(D3)}
    assert census == {
        (0, 0, 0): CC.BOTH,
        (0, 0, 1): CC.NEITHER,
        (0, 1, 0): CC.NEITHER,
        (0, 1, 1): CC.NEITHER,
        (0, 1, 2): CC.BOTH,
    }


def test_enumerate_congruences_smallest_racks():
    assert [cls for _, cls in cg.enumerate_congruences(tb.trivial(1))] == [CC.BOTH]
    assert [cls for _, cls in cg.enumerate_congruences(tb.trivial(2))] == [CC.BOTH, CC.BOTH]


def test_classify_order_mismatch():
    with pytest.raises(ValueError, match="order"):
        cg.classify_relation(D3, PARITY)


def test_enumerate_congruences_order_bound():
    with pytest.raises(ValueError, match="Bell"):
        cg.enumerate_congruences(tb.trivial(9))


def test_classification_on_dual_swaps_the_half_tags():
    swap = {
        CC.BOTH: CC.BOTH,
        CC.NEITHER: CC.NEITHER,
        CC.RIGHT_ONLY: CC.LEFT_ONLY,
        CC.LEFT_ONLY: CC.RIGHT_ONLY,
    }
    for t in tb.enumerate_racks(3):
        dual = tb.inverse_table(t)
        for p in cg.partitions(t.order):
            assert cg.classify_relation(dual, p) is swap[cg.classify_relation(t, p)]


def test_induced_table_conflicts_match_classification():
    # an induced operation is well defined exactly when the relation
    # respects that operation
    for t in tb.enumerate_racks(3):
        inv = tb.inverse_table(t)
        for p in cg.partitions(t.order):
            cls = cg.classify_relation(t, p)
            table, conflict = cg.try_induced_table(t, p)
            assert (conflict is None) == (cls in (CC.BOTH, CC.RIGHT_ONLY))
            if conflict is not None:
                a, b, c, d = conflict
                assert p.together(a, c) and p.together(b, d)
                assert not p.together(t.op(a, b), t.op(c, d))
            table, conflict = cg.try_induced_table(inv, p)
            assert (conflict is None) == (cls in (CC.BOTH, CC.LEFT_ONLY))


def _respects_by_sweep(rows, p):
    # a ~ c and b ~ d imply a*b ~ c*d, over all quadruples
    n = len(rows)
    return all(
        p.together(rows[a][b], rows[c][d])
        for a, c in itertools.product(range(n), repeat=2) if p.together(a, c)
        for b, d in itertools.product(range(n), repeat=2) if p.together(b, d)
    )


def _class_by_sweep(t, p):
    right = _respects_by_sweep(t.rows, p)
    left = _respects_by_sweep(tb.inverse_table(t).rows, p)
    return {
        (True, True): CC.BOTH,
        (True, False): CC.RIGHT_ONLY,
        (False, True): CC.LEFT_ONLY,
        (False, False): CC.NEITHER,
    }[right, left]


def test_classification_matches_quadruple_sweep():
    racks = [t for n in (1, 2, 3, 4) for t in tb.enumerate_racks(n)]
    racks += [tb.dihedral(6), tb.constant_action((1, 2, 0, 4, 3, 5))]
    for t in racks:
        census = cg.enumerate_congruences(t)
        assert [p for p, _ in census] == list(cg.partitions(t.order))
        for p, cls in census:
            expected = _class_by_sweep(t, p)
            assert cls is expected
            assert cg.classify_relation(t, p) is expected


def _classify_each(t):
    # the reference: every partition classified on its own by one pass
    # over the products of each operation
    rows, inv_rows = two_sided.rack_tables(t)
    return [(p, two_sided.classify(rows, inv_rows, p)[0]) for p in cg.partitions(t.order)]


def _cycles(*lengths):
    # the permutation with consecutive cycles of the given lengths
    p, start = [], 0
    for length in lengths:
        p.extend(start + (i + 1) % length for i in range(length))
        start += length
    return tuple(p)


FAMILIES = [
    family
    for n, cycle_type in ((6, (3, 2, 1)), (7, (4, 3)), (8, (4, 2, 2)))
    for family in (
        tb.dihedral(n),
        tb.trivial(n),
        tb.constant_action(_cycles(n)),
        tb.constant_action(_cycles(*cycle_type)),
    )
]


def _check_against_both_operations(t):
    # the search by * alone equals the two-sided search and the two-sided
    # classification of each partition, so the finite theorem it rests on
    # is checked on t
    expected = _classify_each(t)
    assert two_sided.search(t) == expected
    assert cg.enumerate_congruences(t) == expected
    for p, cls in expected[::7]:
        assert cg.classify_relation(t, p) is cls


def test_search_matches_classifying_each_partition():
    racks = [t for n in (1, 2, 3, 4, 5) for t in tb.enumerate_racks(n)]
    assert len(racks) == 1838
    for t in racks + FAMILIES:
        _check_against_both_operations(t)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_search_matches_classifying_each_partition_after_relabelling(data):
    t = data.draw(st.sampled_from(FAMILIES + tb.enumerate_racks(5, up_to_iso=True)))
    _check_against_both_operations(tb.relabel(t, tuple(data.draw(st.permutations(range(t.order))))))


def _right_invertible_tables(n):
    perms = list(itertools.permutations(range(n)))
    return [tb.Table(tuple(zip(*cols))) for cols in itertools.product(perms, repeat=n)]


def _star_decides_star_inverse(t, p):
    # the finite theorem needs only permutation columns of finite order,
    # not distributivity: p respects * iff it respects *'
    rows = t.rows
    inv_rows = tb._inverse_rows(tb._permutation_columns(rows))
    blk, k = p.block_of, p.num_blocks
    respects = cg._induced_cells(rows, blk, k)[1] is None
    return respects == (cg._induced_cells(inv_rows, blk, k)[1] is None)


def test_star_alone_decides_on_every_right_invertible_table_of_order_at_most_3():
    pairs = non_racks = 0
    for n in (1, 2, 3):
        for t in _right_invertible_tables(n):
            non_racks += not tb.validate(t).is_rack
            for p in cg.partitions(n):
                assert _star_decides_star_inverse(t, p), (t, p)
                pairs += 1
    assert (pairs, non_racks) == (1089, 205)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.permutations(range(4)), min_size=4, max_size=4))
def test_star_alone_decides_on_order4_tables_with_permutation_columns(cols):
    t = tb.Table(tuple(zip(*cols)))
    for p in cg.partitions(4):
        assert _star_decides_star_inverse(t, p), (t, p)


def test_classification_requires_a_rack():
    not_rack = tb.Table(((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="not a rack"):
        cg.classify_relation(not_rack, cg.Partition((0, 0)))
    with pytest.raises(ValueError, match="not a rack"):
        cg.enumerate_congruences(not_rack)


def test_induced_table_conflict_is_the_first_in_row_major_order():
    # a ~ c, b ~ d with a, b the least members of their blocks, and (c, d)
    # the first pair in row-major order whose product leaves the block
    p = cg.Partition((0, 0, 1, 1, 2, 2))
    table, conflict = cg.try_induced_table(tb.dihedral(6), p)
    assert table is None
    assert conflict == (0, 0, 0, 1)
    table, conflict = cg.try_induced_table(tb.dihedral(6), cg.Partition((0, 1, 0, 1, 0, 1)))
    assert conflict is None and table == tb.trivial(2)


@pytest.mark.parametrize("block_of", [(0, 1, 0, 1), (0, 0, 1, 1, 2), (0, 1)])
def test_induced_table_rejects_a_partition_of_another_order(block_of):
    # as classify_relation and quotient do, rather than a table of the
    # wrong order, a conflict or an IndexError
    p = cg.Partition(block_of)
    message = f"partition order {len(block_of)} != rack order 3"
    for check in (cg.try_induced_table, cg.classify_relation, cg.quotient):
        with pytest.raises(ValueError, match=message):
            check(D3, p)


# ---------------------------------------------------------------------------
# quotients

def test_quotient_dihedral4_by_parity_is_trivial_order2():
    q = cg.quotient(D4, PARITY)
    assert q.table == tb.trivial(2)
    assert q.blocks == ((0, 2), (1, 3))


def test_quotient_by_singletons_is_the_rack_itself():
    for t in tb.enumerate_racks(3, up_to_iso=True):
        q = cg.quotient(t, cg.Partition(tuple(range(t.order))))
        assert q.table == t


def test_quotient_by_one_block_is_order_one():
    q = cg.quotient(D3, cg.Partition((0, 0, 0)))
    assert q.table == tb.trivial(1)


def test_quotient_error_carries_classification():
    with pytest.raises(cg.NotACongruenceError) as info:
        cg.quotient(D3, cg.Partition((0, 0, 1)))
    assert info.value.classification is CC.NEITHER


def _induced_rows_by_definition(t, p):
    """[x] * [y] = [x * y] on the blocks of p, or None when two products
    of the same pair of blocks lie in different blocks."""
    blocks, blk = p.blocks(), p.block_of
    cells = [{blk[t.op(x, y)] for x in bx for y in by} for bx in blocks for by in blocks]
    if any(len(c) > 1 for c in cells):
        return None
    k = len(blocks)
    return tuple(tuple(c.pop() for c in cells[i * k:(i + 1) * k]) for i in range(k))


# tables of order <= 3 that are not racks
NOT_RACKS = (
    tb.Table(((0, 1), (1, 0))),
    tb.Table(((0, 0), (1, 0))),
    tb.Table(((0, 1, 2),) * 3),
    tb.Table(((1, 2, 0), (2, 0, 1), (0, 1, 2))),
)


def test_quotient_matches_classification_and_induced_table():
    # every partition of every labelled rack of order <= 4
    quotients = 0
    for n in (1, 2, 3, 4):
        for t in tb.enumerate_racks(n):
            for p in cg.partitions(n):
                cls = cg.classify_relation(t, p)
                rows = _induced_rows_by_definition(t, p)
                assert (cls is CC.BOTH) == (rows is not None)
                if cls is CC.BOTH:
                    q = cg.quotient(t, p)
                    assert q.table.rows == rows and q.blocks == p.blocks()
                    quotients += 1
                else:
                    with pytest.raises(cg.NotACongruenceError) as info:
                        cg.quotient(t, p)
                    assert info.value.classification is CC.NEITHER
    # full congruences of the 1, 2, 13 and 114 labelled racks of orders 1-4
    assert quotients == 1 + 4 + 38 + 556


def test_quotient_rejects_mismatched_orders_and_non_racks():
    with pytest.raises(ValueError, match="partition order"):
        cg.quotient(D3, PARITY)
    with pytest.raises(ValueError, match="not a rack"):
        cg.quotient(tb.Table(((0, 1), (1, 0))), cg.Partition((0, 1)))
    # the order is reported first, then the rack check, then the class
    wrong_order = [cg.Partition((0,) * n) for n in (1, 2, 3, 4, 5)]
    for t in [t for n in (1, 2, 3, 4) for t in tb.enumerate_racks(n)] + list(NOT_RACKS):
        for p in wrong_order[:t.order - 1] + wrong_order[t.order:]:
            with pytest.raises(ValueError, match="^partition order"):
                cg.quotient(t, p)
    for t in NOT_RACKS:
        assert not tb.validate(t).is_rack
        for p in cg.partitions(t.order):
            with pytest.raises(ValueError, match="^not a rack$"):
                cg.quotient(t, p)


def test_no_half_congruences_on_small_racks():
    for n in (1, 2, 3):
        for t in tb.enumerate_racks(n):
            assert all(cls in (CC.BOTH, CC.NEITHER) for _, cls in two_sided.search(t))


# ---------------------------------------------------------------------------
# subracks

def test_subrack_examples():
    assert cg.is_subrack(D3, {0})
    assert not cg.is_subrack(D3, {0, 1})
    assert cg.is_subrack(D3, {0, 1, 2})


def test_subrack_errors():
    with pytest.raises(ValueError, match="nonempty"):
        cg.is_subrack(D3, set())
    with pytest.raises(ValueError, match="out-of-range"):
        cg.is_subrack(D3, {0, 7})


def _is_subrack_reference(r, subset):
    """is_subrack before it decided by * alone: closure under * and *'."""
    sub = set(subset)
    inv = tb.inverse_table(r)
    return all(r.rows[x][y] in sub and inv.rows[x][y] in sub for x in sub for y in sub)


def _nonempty_subsets(n):
    return (s for k in range(1, n + 1) for s in itertools.combinations(range(n), k))


def test_subrack_by_star_alone_agrees_with_both_operations():
    # every labelled rack of order <= 5, and every table of order <= 3
    # whose columns are permutations, rack or not
    tables = [r for n in range(1, 6) for r in tb.enumerate_racks(n)]
    for n in (1, 2, 3):
        perms = list(itertools.permutations(range(n)))
        tables += [tb.Table(tuple(zip(*cols))) for cols in itertools.product(perms, repeat=n)]
    pairs = 0
    for r in tables:
        for subset in _nonempty_subsets(r.order):
            assert cg.is_subrack(r, subset) == _is_subrack_reference(r, subset), (r, subset)
            pairs += 1
    assert pairs == 56_281


def test_subrack_needs_a_right_invertible_table():
    with pytest.raises(ValueError, match="not right invertible"):
        cg.is_subrack(tb.Table(((0, 0), (0, 0))), {0})


# ---------------------------------------------------------------------------
# homomorphisms

MOD2 = cg.FiniteMap(4, 2, (0, 1, 0, 1))
T2 = tb.trivial(2)


def test_finite_map_validation():
    with pytest.raises(ValueError, match="length"):
        cg.FiniteMap(3, 2, (0, 1))
    with pytest.raises(ValueError, match="codomain"):
        cg.FiniteMap(2, 2, (0, 2))


@pytest.mark.parametrize("entry, quoted", [
    (2.0, "2.0"), ("2", "'2'"), (True, "True"), (None, "None"), (F(2), "Fraction(2, 1)"),
    ("x" * 50, repr("x" * 40) + "... (50 characters)"),
    (F(10**5000 + 1, 3), "<Fraction holding an int too long to print>"),
])
def test_finite_map_rejects_an_image_entry_that_is_not_an_int(entry, quoted):
    # a float or a str used to be stored, and the homomorphism test then
    # raised TypeError; a bool was taken as 0 or 1
    with pytest.raises(ValueError, match=re.escape(f"image entry {quoted} is not an int")):
        cg.FiniteMap(3, 3, (0, 1, entry))


def test_homomorphism_examples():
    ident = cg.FiniteMap(3, 3, (0, 1, 2))
    assert cg.is_homomorphism(ident, D3, D3)
    const = cg.FiniteMap(3, 1, (0, 0, 0))
    assert cg.is_homomorphism(const, D3, tb.trivial(1))
    assert cg.is_homomorphism(MOD2, D4, T2)
    not_hom = cg.FiniteMap(3, 3, (0, 0, 1))
    assert not cg.is_homomorphism(not_hom, D3, D3)


def test_homomorphism_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        cg.is_homomorphism(MOD2, D3, T2)


def test_kernel_examples():
    assert cg.kernel_partition(cg.FiniteMap(3, 3, (0, 1, 2)), D3, D3).block_of == (0, 1, 2)
    assert cg.kernel_partition(cg.FiniteMap(3, 1, (0, 0, 0)), D3, tb.trivial(1)).block_of == (0, 0, 0)
    assert cg.kernel_partition(MOD2, D4, T2) == PARITY


def test_kernel_requires_homomorphism():
    with pytest.raises(ValueError, match="homomorphism"):
        cg.kernel_partition(cg.FiniteMap(3, 3, (0, 0, 1)), D3, D3)


def test_image_and_preimage_are_subracks():
    racks = [t for n in (1, 2, 3) for t in tb.enumerate_racks(n, up_to_iso=True)]
    for r in racks:
        for s in racks:
            for f in cg.find_homomorphisms(r, s):
                assert cg.is_subrack(s, set(f.image))
                # push forward every subrack of r
                for size in range(1, r.order + 1):
                    for subset in itertools.combinations(range(r.order), size):
                        if cg.is_subrack(r, subset):
                            assert cg.is_subrack(s, {f(x) for x in subset})
                # pull back every subrack of s with nonempty preimage
                for size in range(1, s.order + 1):
                    for subset in itertools.combinations(range(s.order), size):
                        if cg.is_subrack(s, subset):
                            pre = {x for x in range(r.order) if f(x) in subset}
                            if pre:
                                assert cg.is_subrack(r, pre)


def test_first_isomorphism_examples():
    assert cg.first_isomorphism_check(cg.FiniteMap(3, 3, (0, 1, 2)), D3, D3)
    assert cg.first_isomorphism_check(MOD2, D4, T2)
    assert cg.quotient(D4, cg.kernel_partition(MOD2, D4, T2)).table.order == 2
    assert cg.first_isomorphism_check(cg.FiniteMap(3, 1, (0, 0, 0)), D3, tb.trivial(1))


def test_each_check_of_the_induced_map_can_fail():
    # given a full congruence that is not the kernel of f, the induced
    # map disagrees with f, or is not one-to-one, or (f not being a
    # homomorphism) is not a homomorphism
    one_block, singletons = cg.Partition((0, 0, 0, 0)), cg.Partition((0, 1, 2, 3))
    assert not cg._first_isomorphism(MOD2, D4, T2, one_block)
    assert not cg._first_isomorphism(MOD2, D4, T2, singletons)
    identity = cg.FiniteMap(3, 3, (0, 1, 2))
    assert not cg._first_isomorphism(identity, D3, tb.trivial(3), cg.Partition((0, 1, 2)))


# ---------------------------------------------------------------------------
# the homomorphism kernel against the index loops it replaced, and the
# homomorphism search against the brute force it replaced

def _all_maps(domain_order, codomain_order):
    """Every function between the index sets (codomain_order ** domain_order)."""
    for image in itertools.product(range(codomain_order), repeat=domain_order):
        yield cg.FiniteMap(domain_order, codomain_order, image)


def _find_homomorphisms_reference(r, s):
    """Every map of _all_maps that passes is_homomorphism, in order."""
    return [f for f in _all_maps(r.order, s.order) if cg.is_homomorphism(f, r, s)]


def _is_homomorphism_reference(f, r, s):
    if f.domain_order != r.order or f.codomain_order != s.order:
        raise ValueError("map dimensions do not match the tables")
    for t in (r, s):
        for y in range(t.order):
            if sorted(row[y] for row in t.rows) != list(range(t.order)):
                raise ValueError(f"column {y} is not a permutation; not right invertible")
    phi = f.image
    holds = all(
        phi[r.rows[x][y]] == s.rows[phi[x]][phi[y]]
        for x in range(r.order)
        for y in range(r.order)
    )
    if holds:
        r_inv, s_inv = tb.inverse_table(r), tb.inverse_table(s)
        assert all(
            phi[r_inv.rows[x][y]] == s_inv.rows[phi[x]][phi[y]]
            for x in range(r.order)
            for y in range(r.order)
        ), "homomorphism fails to respect the inverse operation"
    return holds


def _first_isomorphism_reference(f, r, s):
    """The first-isomorphism check for a homomorphism f, ending in the
    index loop over the quotient."""
    ker = cg.Partition(f.image)
    q = cg.quotient(r, ker)
    image = sorted(set(f.image))
    pos = {e: i for i, e in enumerate(image)}
    img_rows = tuple(tuple(pos[s.rows[a][b]] for b in image) for a in image)
    psi = [None] * q.table.order
    for x in range(r.order):
        psi[ker.block_of[x]] = pos[f.image[x]]
    if sorted(psi) != list(range(len(image))):
        return False
    k = q.table.order
    return all(
        psi[q.table.rows[i][j]] == img_rows[psi[i]][psi[j]]
        for i in range(k)
        for j in range(k)
    )


def _outcome(check, *args):
    """The result of check(*args), or the type and message it raised."""
    try:
        return check(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


SMALL_RACKS = [t for n in (1, 2, 3) for t in tb.enumerate_racks(n)]
RACK_CLASSES = [t for n in (1, 2, 3, 4) for t in tb.enumerate_racks(n, up_to_iso=True)]


def test_homomorphism_kernel_matches_index_loops_between_small_racks():
    assert len(SMALL_RACKS) ** 2 == 256
    for r in SMALL_RACKS:
        for s in SMALL_RACKS:
            for f in _all_maps(r.order, s.order):
                hom = cg.is_homomorphism(f, r, s)
                assert hom == _is_homomorphism_reference(f, r, s)
                if hom:
                    assert cg.first_isomorphism_check(f, r, s) == _first_isomorphism_reference(f, r, s)


@pytest.mark.parametrize("racks, pairs, homs", [(SMALL_RACKS, 256, 658), (RACK_CLASSES, 784, 4834)])
def test_homomorphism_search_matches_the_brute_force(racks, pairs, homs):
    # every labelled pair of order <= 3 and every class pair of order <= 4:
    # the same maps in the same order
    assert len(racks) ** 2 == pairs
    found = 0
    for r in racks:
        for s in racks:
            maps = cg.find_homomorphisms(r, s)
            assert maps == _find_homomorphisms_reference(r, s)
            found += len(maps)
    assert found == homs


def test_endomorphisms_of_dihedral_7_within_a_time_budget():
    # the brute force tries 7^7 maps, about 1.7 s on a 2-vCPU VM; the
    # search about 1.4 ms
    d7 = tb.dihedral(7)
    start = time.perf_counter()
    maps = cg.find_homomorphisms(d7, d7)
    assert time.perf_counter() - start < 1
    # x -> a*x + b mod 7, a != 0, and the 7 constant maps
    affine = {tuple((a * x + b) % 7 for x in range(7)) for a in range(7) for b in range(7)}
    assert len(maps) == 49 and {f.image for f in maps} == affine


def test_first_isomorphism_matches_the_index_loop_between_rack_classes_of_order_at_most_4():
    assert len(RACK_CLASSES) ** 2 == 784
    homs = 0
    for r in RACK_CLASSES:
        for s in RACK_CLASSES:
            for f in cg.find_homomorphisms(r, s):
                assert cg.first_isomorphism_check(f, r, s) == _first_isomorphism_reference(f, r, s)
                homs += 1
    assert homs == 4834


def test_homomorphism_kernel_matches_index_loops_from_magmas():
    perms = list(itertools.permutations(range(3)))
    magmas = [tb.Table(tuple(zip(*cols))) for cols in itertools.product(perms, repeat=3)]
    calls = 0
    for m in magmas:
        for s in SMALL_RACKS:
            homs = []
            for f in _all_maps(3, s.order):
                got = _outcome(cg.is_homomorphism, f, m, s)
                assert got == _outcome(_is_homomorphism_reference, f, m, s)
                homs += [f] if got is True else []
                calls += 1
            # the search needs only permutation columns, not a rack domain
            assert cg.find_homomorphisms(m, s) == homs
    assert calls == 79488
    # a table with a column that is not a permutation is refused whatever
    # the map, and by the search before it tries one
    order2 = [tb.Table((flat[:2], flat[2:])) for flat in itertools.product(range(2), repeat=4)]
    invertible = [r for r in order2 if tb.validate(r).right_invertible]
    assert len(invertible) == 4
    for r in order2:
        for s in order2:
            both = r in invertible and s in invertible
            homs = []
            for f in _all_maps(2, 2):
                got = _outcome(cg.is_homomorphism, f, r, s)
                assert got == _outcome(_is_homomorphism_reference, f, r, s)
                assert isinstance(got, tuple) != both
                homs += [f] if got is True else []
            found = _outcome(cg.find_homomorphisms, r, s)
            assert found == (homs if both else got)


@st.composite
def _homomorphism_cases(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def table(k):
        cell = st.integers(0, k - 1)
        return tuple(tuple(draw(st.lists(cell, min_size=k, max_size=k))) for _ in range(k))

    rows = table(n)
    target = rows if n == m and draw(st.booleans()) else table(m)
    one_map = st.one_of(
        st.lists(st.integers(0, m - 1), min_size=n, max_size=n).map(tuple),
        st.integers(0, m - 1).map(lambda c: (c,) * n),
        st.just(tuple(range(n)) if target is rows else (0,) * n),
    )
    return rows, target, tuple(draw(st.lists(one_map, max_size=4)))


@settings(max_examples=300, deadline=None)
@given(_homomorphism_cases())
def test_homomorphic_matches_a_double_loop(case):
    rows, target, maps = case
    n = len(rows)
    expected = all(
        f[rows[x][y]] == target[f[x]][f[y]] for f in maps for x in range(n) for y in range(n)
    )
    assert tb._homomorphic(rows, target, maps) == expected


def test_every_induced_table_conflict_is_a_half_witness_by_the_definition():
    # every conflict try_induced_table reports on the partitions of every
    # rack of order <= 4 passes the one checker of a witness quadruple
    conflicts = 0
    for n in (1, 2, 3, 4):
        for r in tb.enumerate_racks(n):
            def op(x, y, side, rows=r.rows):
                assert side == tb.PRIMARY
                return rows[x][y]

            for p in cg.partitions(n):
                quad = cg.try_induced_table(r, p)[1]
                if quad is not None:
                    assert tb._half_witness(op, p.together, quad, tb.PRIMARY) == quad
                    conflicts += 1
    assert conflicts > 0
