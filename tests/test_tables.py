import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from rackq import _search as se
from rackq import congruence as cg
from rackq import laurent as la
from rackq import tables as tb


DIHEDRAL3 = tb.Table(((0, 2, 1), (2, 1, 0), (1, 0, 2)))
THREE_CYCLE = (1, 2, 0)


def test_dihedral_formula_matches_fixed_rows():
    assert tb.dihedral(3) == DIHEDRAL3


def test_validate_dihedral3_all_flags():
    report = tb.validate(DIHEDRAL3)
    assert report == tb.AxiomReport(True, True, True, True, True)


def test_validate_constant_action_three_cycle():
    report = tb.validate(tb.constant_action(THREE_CYCLE))
    assert report.is_rack
    assert not report.idempotent
    assert not report.is_quandle


def test_validate_trivial_quandle():
    assert tb.validate(tb.trivial(4)).is_quandle


def test_validate_invertible_but_not_distributive():
    # x*0 = x, x*1 = 1-x: (0*0)*1 = 1 but (0*1)*(0*1) = 0
    t = tb.Table(((0, 1), (1, 0)))
    report = tb.validate(t)
    assert report.right_invertible
    assert not report.right_self_distributive
    assert not report.is_rack


def test_structural_error_is_not_axiom_false():
    with pytest.raises(ValueError, match="out of range"):
        tb.Table(((0, 3), (1, 0)))
    with pytest.raises(ValueError, match="entries"):
        tb.Table(((0, 1, 0), (1, 0)))
    with pytest.raises(ValueError, match="positive order"):
        tb.Table(())
    with pytest.raises(ValueError, match="requires a permutation"):
        tb.constant_action((0, 0, 1))


# ---------------------------------------------------------------------------
# inverse operation

def test_inverse_dihedral3_is_self():
    assert tb.inverse_table(DIHEDRAL3) == DIHEDRAL3
    for y in range(3):
        col = DIHEDRAL3.column(y)
        assert tuple(col[x] for x in col) == (0, 1, 2)


def test_inverse_constant_action_inverts_the_bijection():
    inv_cycle = tb.invert_perm(THREE_CYCLE)
    assert tb.inverse_table(tb.constant_action(THREE_CYCLE)) == tb.constant_action(inv_cycle)


def test_inverse_trivial_is_trivial():
    assert tb.inverse_table(tb.trivial(3)) == tb.trivial(3)


def test_inverse_identities_and_involution():
    candidates = tb.enumerate_racks(3) + [tb.Table(((0, 1), (1, 0)))]
    for t in candidates:
        inv = tb.inverse_table(t)
        n = t.order
        for x in range(n):
            for y in range(n):
                assert t.op(inv.op(x, y), y) == x
                assert inv.op(t.op(x, y), y) == x
        assert tb.inverse_table(inv) == t


def test_inverse_column_is_a_power_of_the_symmetry():
    # Why a rack whose columns have only finite orbits has no half
    # congruence: x's own S_y-orbit has some length l, so
    # x *' y = S_y^(l-1)(x), and a relation respecting * respects *'.
    racks = [t for n in range(1, 6) for t in tb.enumerate_racks(n)]
    assert len(racks) == 1838
    for t in racks:
        inv = tb.inverse_table(t)
        for y in range(t.order):
            s = t.column(y)
            for x in range(t.order):
                orbit = [x]
                while s[orbit[-1]] != x:
                    orbit.append(s[orbit[-1]])
                # S_y^(l-1)(x) is the last point of the orbit before x
                assert inv.op(x, y) == orbit[-1], (t, x, y)


def test_ray_relation_is_a_half_congruence_of_the_successor_rack():
    # On Z with x * y = x + 1 and x *' y = x - 1, the ray {n >= 0} as one
    # block, every other integer alone, respects * but not *': 0 ~ 1,
    # while 0 *' 0 = -1 and 1 *' 0 = 0 are not related.
    def op(x, y, side):
        return x + tb.side_sign(side)

    ray = lambda x, y: x == y or min(x, y) >= 0  # noqa: E731
    box = itertools.product(range(-6, 7), repeat=4)
    quads = [(a, b, c, d) for a, b, c, d in box if ray(a, c) and ray(b, d)]
    assert len(quads) == (6 + 7 * 7) ** 2  # related pairs: 6 alone, 7 * 7 in the ray
    assert tb._respects(op, ray, quads, tb.PRIMARY)
    assert not tb._respects(op, ray, quads, tb.INVERSE)
    assert tb._half_witness(op, ray, (0, 0, 1, 0), tb.PRIMARY) is None
    assert tb._half_witness(op, ray, (0, 0, 1, 0), tb.INVERSE) == (0, 0, 1, 0)


def test_closures_on_a_rack_with_only_finite_orbits_respect_the_inverse():
    # On N with x * y = sigma(x), where sigma has one cycle of each length
    # k >= 1 ({0}, {1, 2}, {3, 4, 5}, ...), S_y = sigma has infinite order
    # but every orbit is finite, so no half principal congruence exists.
    # The *-closure of (a, b) joins sigma^i(a) with sigma^i(b) for i below
    # the lcm of the two cycle lengths and leaves every other point alone.
    cycles, first = [], 0
    while first < 200:
        cycles.append(range(first, first + len(cycles) + 1))
        first = cycles[-1].stop
    cycle_of = {x: c for c in cycles for x in c}

    def sigma(x, step):
        c = cycle_of[x]
        return c[(x - c.start + step) % len(c)]

    def find(parent, x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    pairs = 0
    for b in range(200):
        for a in range(b):
            ca, cb = cycle_of[a], cycle_of[b]
            parent = {x: x for x in (*ca, *cb)}
            x, y = a, b
            for _ in range(math.lcm(len(ca), len(cb))):
                parent[find(parent, x)] = find(parent, y)
                x, y = sigma(x, 1), sigma(y, 1)
            classes = {}
            for x in parent:
                classes.setdefault(find(parent, x), []).append(x)
            for cls in classes.values():
                for step in (1, -1):  # * and *' map each class into one class
                    assert len({find(parent, sigma(x, step)) for x in cls}) == 1, (a, b)
            pairs += 1
    assert pairs == 19900


def test_inverse_error_names_the_column():
    rows = ((0, 0), (1, 0))  # column 1 is constant
    with pytest.raises(ValueError, match="column 1"):
        tb.inverse_table(tb.Table(rows))


def test_dual_of_rack_is_rack_and_dual_of_quandle_is_quandle():
    for t in tb.enumerate_racks(3):
        report = tb.validate(t)
        dual_report = tb.validate(tb.inverse_table(t))
        assert dual_report.is_rack
        assert dual_report.is_quandle == report.is_quandle


# ---------------------------------------------------------------------------
# exponent

def test_exponent_examples():
    assert tb.exponent(tb.trivial(1)) == 1
    assert tb.exponent(tb.trivial(5)) == 1
    assert tb.exponent(DIHEDRAL3) == 2
    assert tb.exponent(tb.constant_action(THREE_CYCLE)) == 3


def test_exponent_requires_rack():
    with pytest.raises(ValueError, match="not a rack"):
        tb.exponent(tb.Table(((0, 1), (1, 0))))


def test_exponent_bounded_by_factorial():
    import math

    for t in tb.enumerate_racks(4, up_to_iso=True):
        assert 1 <= tb.exponent(t) <= math.factorial(t.order)


# ---------------------------------------------------------------------------
# enumeration

def _all_tables(n):
    for flat in itertools.product(range(n), repeat=n * n):
        yield tb.Table(tuple(flat[i * n : (i + 1) * n] for i in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_matches_all_tables_oracle(n):
    oracle_racks = sorted(t.rows for t in _all_tables(n) if tb.validate(t).is_rack)
    assert [t.rows for t in tb.enumerate_racks(n)] == oracle_racks
    oracle_quandles = sorted(t.rows for t in _all_tables(n) if tb.validate(t).is_quandle)
    assert [t.rows for t in tb.enumerate_racks(n, quandles_only=True)] == oracle_quandles


def test_enumeration_counts():
    # cross-checked against the flat product search and, for n <= 3, the
    # all-tables oracle above
    assert [len(tb.enumerate_racks(n)) for n in (1, 2, 3, 4)] == [1, 2, 13, 114]
    assert [len(tb.enumerate_racks(n, up_to_iso=True)) for n in (1, 2, 3, 4)] == [1, 2, 6, 19]
    assert [len(tb.enumerate_racks(n, quandles_only=True)) for n in (1, 2, 3, 4)] == [1, 1, 5, 36]
    assert [
        len(tb.enumerate_racks(n, quandles_only=True, up_to_iso=True)) for n in (1, 2, 3, 4)
    ] == [1, 1, 3, 7]


def test_quandle_search_gives_the_idempotent_racks():
    # the quandle search checks only the columns it branches on; every
    # forced column then fixes its own index, so no quandle is lost or added
    labelled, classes = [], []
    for n in range(1, 6):
        quandles = tb.enumerate_racks(n, quandles_only=True)
        assert quandles == [t for t in tb.enumerate_racks(n) if tb.validate(t).idempotent]
        reps = tb.enumerate_racks(n, quandles_only=True, up_to_iso=True)
        assert reps == [t for t in tb.enumerate_racks(n, up_to_iso=True) if tb.validate(t).idempotent]
        labelled.append(len(quandles))
        classes.append(len(reps))
    assert labelled == [1, 1, 5, 36, 404]
    assert classes == [1, 1, 3, 7, 22]


def test_enumeration_order5():
    racks = tb.enumerate_racks(5)
    assert len(racks) == 1708
    quandles = tb.enumerate_racks(5, quandles_only=True, up_to_iso=True)
    assert len(quandles) == 22


def test_enumeration_order2_tables():
    racks = tb.enumerate_racks(2, up_to_iso=True)
    assert [t.rows for t in racks] == [
        ((0, 0), (1, 1)),  # trivial quandle
        ((1, 1), (0, 0)),  # constant action by the swap
    ]
    assert len(tb.enumerate_racks(2, quandles_only=True, up_to_iso=True)) == 1


def test_enumeration_deterministic_and_sorted():
    a = tb.enumerate_racks(3)
    b = tb.enumerate_racks(3)
    assert a == b
    assert [t.rows for t in a] == sorted(t.rows for t in a)


def test_enumeration_iso_representatives_are_canonical():
    reps = tb.enumerate_racks(3, up_to_iso=True)
    assert all(tb.canonical_form(t) == t for t in reps)
    assert len({t.rows for t in reps}) == len(reps)


def _least_relabelling(t):
    return min(tb.relabel(t, p).rows for p in itertools.permutations(range(t.order)))


def test_canonical_form_is_the_least_relabelling():
    racks = [t for n in (1, 2, 3, 4) for t in tb.enumerate_racks(n)]
    racks += tb.enumerate_racks(5)[::17]
    for t in racks:
        assert tb.canonical_form(t).rows == _least_relabelling(t)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("quandles_only", [False, True])
def test_enumeration_matches_column_tuple_filter(n, quandles_only):
    perms = list(itertools.permutations(range(n)))
    oracle = []
    for cols in itertools.product(perms, repeat=n):
        t = tb.Table(tuple(zip(*cols)))
        report = tb.validate(t)
        if report.is_quandle if quandles_only else report.is_rack:
            oracle.append(t)
    assert tb.enumerate_racks(n, quandles_only) == sorted(oracle, key=lambda t: t.rows)
    classes = sorted({_least_relabelling(t) for t in oracle})
    assert [t.rows for t in tb.enumerate_racks(n, quandles_only, up_to_iso=True)] == classes


@pytest.mark.parametrize("quandles_only", [False, True])
def test_iso_classes_are_the_canonical_forms_of_the_labelled_racks(quandles_only):
    # the labelled search followed by one canonical_form per table, as
    # up_to_iso was computed before the relabelling-orbit walk
    for n in range(1, 6):
        labelled = tb.enumerate_racks(n, quandles_only)
        reference = sorted({tb.canonical_form(t) for t in labelled}, key=lambda t: t.rows)
        assert tb.enumerate_racks(n, quandles_only, up_to_iso=True) == reference


def _enumerate_racks_reference(n, quandles_only=False, up_to_iso=False):
    """enumerate_racks as it was before it searched on permutation indices:
    columns are permutation tuples, a forced column is built by an n-step
    loop, every permutation is a candidate, and the orbit walk relabels
    table rows."""
    perms = list(itertools.permutations(range(n)))
    cols = [None] * n
    assigned = []
    found = []
    shared_rows = {}

    def force(y, z):
        sy, sz = cols[y], cols[z]
        sw = [0] * n
        for x in range(n):
            sw[sz[x]] = sz[sy[x]]
        sw = tuple(sw)
        w = sz[y]
        if cols[w] is None:
            cols[w] = sw
            assigned.append(w)
            return True
        return cols[w] == sw

    def close(start):
        i = start
        while i < len(assigned):
            c = assigned[i]
            for z in assigned[:i]:
                if not (force(c, z) and force(z, c)):
                    return False
            if not force(c, c):
                return False
            i += 1
        return True

    def search():
        if len(assigned) == n:
            found.append(tuple(shared_rows.setdefault(row, row) for row in zip(*cols)))
            return
        k = cols.index(None)
        mark = len(assigned)
        for p in perms:
            if quandles_only and p[k] != k:
                continue
            cols[k] = p
            assigned.append(k)
            if close(mark):
                search()
            for c in assigned[mark:]:
                cols[c] = None
            del assigned[mark:]

    search()
    if up_to_iso:
        found = _orbit_representatives_reference(found, n)
    return [tb.Table._new(rows) for rows in sorted(found)]


def _orbit_representatives_reference(found, n):
    """The least relabelling of each table of raw rows in found, a list
    closed under relabelling, by building each orbit on table rows."""
    relabellings = [(tb.invert_perm(q), q) for q in itertools.permutations(range(n))]
    uncovered = set(found)
    reps = []
    for rows in found:
        if rows in uncovered:
            orbit = {tb._relabel_rows(rows, p, q) for p, q in relabellings}
            uncovered -= orbit
            reps.append(min(orbit))
    return reps


@pytest.mark.parametrize("quandles_only", [False, True])
@pytest.mark.parametrize("up_to_iso", [False, True])
def test_enumeration_matches_the_permutation_tuple_search(quandles_only, up_to_iso):
    for n in range(1, 6):
        tables = tb.enumerate_racks(n, quandles_only, up_to_iso)
        assert tables == _enumerate_racks_reference(n, quandles_only, up_to_iso)
        # the tables of one call share equal rows
        first = {}
        assert all(first.setdefault(row, row) is row for t in tables for row in t.rows)


def _composition_table_reference(perms, index):
    """The composition table with one permutation lookup per entry."""
    return [[index[at(q)] for q in perms] for at in map(tb._picker, perms)]


@pytest.mark.parametrize("n", range(1, 7))
def test_composition_table_matches_the_entry_by_entry_reference(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    comp = se._composition_table(perms, index)
    assert [list(row) for row in comp] == _composition_table_reference(perms, index)


def _rack_columns_unrestricted(perms, quandles_only, up_to_iso):
    """_search._rack_columns as it was before the search set S_0 only to
    a root: every permutation is a candidate for S_0, the labelled racks
    are the search's own output, and the orbit walk takes each rack not
    yet in an orbit from that output, which is closed under relabelling."""
    n = len(perms[0])
    index = {p: i for i, p in enumerate(perms)}
    inv = [index[tb.invert_perm(p)] for p in perms]
    comp = se._composition_table(perms, index)
    by_image = [[[i for i, p in enumerate(perms) if p[k] == v] for v in range(n)] for k in range(n)]
    cols = [-1] * n
    assigned = []
    found = []

    def close(start):
        i = start
        while i < len(assigned):
            c = assigned[i]
            a = cols[c]
            pa, after_inv_a = perms[a], comp[inv[a]]
            for z in assigned[:i + 1]:
                b = cols[z]
                w, s = perms[b][c], comp[comp[inv[b]][a]][b]
                t = cols[w]
                if t < 0:
                    cols[w] = s
                    assigned.append(w)
                elif t != s:
                    return False
                w, s = pa[z], comp[after_inv_a[b]][a]
                t = cols[w]
                if t < 0:
                    cols[w] = s
                    assigned.append(w)
                elif t != s:
                    return False
            i += 1
        return True

    def search():
        if len(assigned) == n:
            found.append(tuple(cols))
            return
        k = cols.index(-1)
        mark = len(assigned)
        images = (k,) if quandles_only else [v for v in range(n) if cols[v] < 0]
        for p in [p for v in images for p in by_image[k][v]]:
            cols[k] = p
            assigned.append(k)
            if close(mark):
                search()
            for c in assigned[mark:]:
                cols[c] = -1
            del assigned[mark:]

    search()
    if not up_to_iso:
        return found
    moves = [(comp[inv[p]], p, perms[inv[p]]) for p in range(len(perms))]
    uncovered = set(found)
    reps = []
    for c in found:
        if c in uncovered:
            orbit = {tuple([comp[after[c[j]]][p] for j in q]) for after, p, q in moves}
            uncovered -= orbit
            reps.append(min(orbit, key=lambda d: tuple(zip(*map(perms.__getitem__, d)))))
    return reps


@pytest.mark.parametrize("quandles_only", [False, True])
@pytest.mark.parametrize("up_to_iso", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_the_unrestricted_root_search(n, quandles_only, up_to_iso):
    perms = list(itertools.permutations(range(n)))
    reference = _rack_columns_unrestricted(perms, quandles_only, up_to_iso)
    tables = tb.enumerate_racks(n, quandles_only, up_to_iso)
    assert [t.rows for t in tables] == sorted(tuple(zip(*map(perms.__getitem__, c))) for c in reference)
    # the tables of one call share equal rows
    first = {}
    assert all(first.setdefault(row, row) is row for t in tables for row in t.rows)


def _cycle_key(p):
    """The cycle type of p, sorted, and the length of its cycle through 0."""
    lengths, seen = [], set()
    for x in range(len(p)):
        length = 0
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths)), lengths[0]


@pytest.mark.parametrize("n, racks, quandles", [
    (1, 1, 1), (2, 2, 1), (3, 4, 2), (4, 7, 3), (5, 12, 5), (6, 19, 7),
])
def test_roots_are_one_permutation_per_cycle_type_and_length_of_the_cycle_of_0(n, racks, quandles):
    perms = list(itertools.permutations(range(n)))
    for quandles_only, count in ((False, racks), (True, quandles)):
        roots = se._roots(n, quandles_only)
        assert len(roots) == count
        keys = [_cycle_key(r) for r in roots]
        wanted = {_cycle_key(p) for p in perms if p[0] == 0 or not quandles_only}
        assert len(set(keys)) == len(keys) and set(keys) == wanted


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("quandles_only", [False, True])
def test_each_permutation_is_conjugate_to_one_root_by_a_permutation_fixing_0(n, quandles_only):
    # for quandles: each permutation that fixes 0
    perms = list(itertools.permutations(range(n)))
    fixing = [s for s in perms if s[0] == 0]
    classes = []
    for r in se._roots(n, quandles_only):
        # s r s^-1 sends s(x) to s(r(x))
        conjugates = set()
        for s in fixing:
            c = [0] * n
            for x in range(n):
                c[s[x]] = s[r[x]]
            conjugates.add(tuple(c))
        classes.append(conjugates)
    everything = set(fixing if quandles_only else perms)
    assert sum(map(len, classes)) == len(everything) and set().union(*classes) == everything


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("quandles_only", [False, True])
def test_the_coset_expansion_gives_each_labelled_rack_once(n, quandles_only):
    perms = list(itertools.permutations(range(n)))
    labelled = se._rack_columns(perms, quandles_only, False)
    assert len(labelled) == len(set(labelled))
    counts = (1, 2, 13, 114, 1708, 36538) if not quandles_only else (1, 1, 5, 36, 404, 6658)
    assert len(labelled) == counts[n - 1]


def test_uncapped_search_gives_the_published_order_6_counts():
    # Vojtechovsky and Yang, Enumeration of racks and quandles up to
    # isomorphism (Math. Comp. 2019); order 6 is the cap
    assert tb.MAX_ENUM_ORDER == 6
    start = time.perf_counter()
    assert len(tb.enumerate_racks(6)) == 36538
    assert len(tb.enumerate_racks(6, up_to_iso=True)) == 353
    assert len(tb.enumerate_racks(6, quandles_only=True)) == 6658
    assert len(tb.enumerate_racks(6, quandles_only=True, up_to_iso=True)) == 73
    # about 1 s on a 2-vCPU VM; with every permutation a candidate for
    # S_0 the other three calls took 2.6 s, and the search on permutation
    # tuples took 15 s for the labelled racks alone
    assert time.perf_counter() - start < 20


def test_enumeration_rejects_out_of_range_order():
    with pytest.raises(ValueError):
        tb.enumerate_racks(0)
    with pytest.raises(ValueError, match="outside supported range 1..6"):
        tb.enumerate_racks(7)


@pytest.mark.parametrize("build", [tb.enumerate_racks, tb.trivial, tb.dihedral])
@pytest.mark.parametrize("order, shown", [(True, "True"), (5.0, "5.0"), (2.0, "2.0"), ("3", "'3'")])
def test_orders_that_are_not_ints_are_refused(build, order, shown):
    # True used to give the order-1 tables, and 5.0 or "3" a bare TypeError
    with pytest.raises(ValueError, match=f"^order {shown} is not an int$"):
        build(order)


@pytest.mark.parametrize("flags, message", [
    (("no",), "quandles_only 'no' is not a bool"),
    ((1,), "quandles_only 1 is not a bool"),
    ((False, [0]), r"up_to_iso \[0\] is not a bool"),
    ((None, True), "quandles_only None is not a bool"),
])
def test_enumeration_flags_that_are_not_bools_are_refused(flags, message):
    # the flags used to be tested for truth only, so "no" gave the 36
    # quandles of order 4 and [0] its 19 classes
    with pytest.raises(ValueError, match=f"^{message}$"):
        tb.enumerate_racks(4, *flags)


def test_relabel_preserves_axioms():
    t = tb.dihedral(4)
    for p in itertools.permutations(range(4)):
        assert tb.validate(tb.relabel(t, p)).is_quandle


@pytest.mark.parametrize("p", [
    (0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3), (0, 1, -1), (0, 1.0, 2), (0, True, 2),
])
def test_relabel_rejects_what_is_not_a_permutation_of_the_elements(p):
    # (0, 0, 1) used to give ((0,0,1),(0,1,0),(1,0,0)), which is not a
    # rack, and a p of the wrong length a bare IndexError
    with pytest.raises(ValueError, match="is not a permutation of 0..2"):
        tb.relabel(tb.dihedral(3), p)


@pytest.mark.parametrize("call, prefix", [
    (lambda: la.LaurentPoly({0: F(10**5000 + 1, 3)}), "term <tuple holding an int "),
    (lambda: la.parse_laurent("9" * 5000 + "t"), "integer '9999"),
    (lambda: tb.relabel(tb.trivial(2), (0, 10**5000)), "relabelling <tuple holding an int "),
    (lambda: cg.Partition.from_blocks([[0], [10**5000]], 2), "blocks do not partition 0..1: <"),
    (lambda: tb.enumerate_racks(10**5000), "order <int of about 5001 digits> outside"),
    (lambda: tb.Table([[10**5000]]), "entry <int of about 5001 digits> at row 0"),
], ids=["LaurentPoly", "parse_laurent", "relabel", "from_blocks", "enumerate_racks", "Table"])
def test_messages_quote_ints_past_the_int_to_str_limit(call, prefix):
    # repr of an int of more than 4,300 digits raises its own ValueError
    # ("Exceeds the limit (4300 digits) ..."), which these used to leak
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert message.startswith(prefix) and len(message) < 1024, message


# ---------------------------------------------------------------------------
# canonical form against the search over all n! relabellings it replaced

def _canonical_rows_reference(rows):
    """Least relabelling of raw rows: every relabelling, built one row at a
    time and dropped at the first row above the best so far."""
    best = None
    for q in itertools.permutations(range(len(rows))):
        p = tb.invert_perm(q)  # q maps each new label to its old one
        cand = []
        tied = best is not None
        for old in q:
            r = rows[old]
            row = tuple([p[r[j]] for j in q])
            if tied:
                b = best[len(cand)]
                if row > b:
                    break
                tied = row == b
            cand.append(row)
        else:
            best = tuple(cand)
    return best


def _check_canonical_rows(t):
    expected = _canonical_rows_reference(t.rows)
    assert se._canonical_rows(t.rows) == expected
    assert tb.canonical_form(t) == tb.Table(expected)


def _cycle_type_perm(*lengths):
    p, start = [], 0
    for length in lengths:
        p.extend(start + (i + 1) % length for i in range(length))
        start += length
    return tuple(p)


LARGE_CYCLE_TYPES = [(3, 2, 1), (6,), (4, 3), (2, 2, 2, 1), (4, 2, 2), (8,), (3, 3, 2), (1,) * 8]


def test_canonical_form_on_every_table_of_order_at_most_3():
    tables = [t for n in (1, 2, 3) for t in _all_tables(n)]
    assert len(tables) == 1 + 16 + 3 ** 9
    for t in tables:
        _check_canonical_rows(t)


def test_canonical_form_on_every_small_rack_and_a_relabelling():
    import random

    rng = random.Random(8)
    for n in range(1, 6):
        for t in tb.enumerate_racks(n):
            p = list(range(n))
            rng.shuffle(p)
            _check_canonical_rows(t)
            _check_canonical_rows(tb.relabel(t, tuple(p)))


def test_canonical_form_on_every_order_6_class_and_a_relabelling():
    # each class representative is the least member of its relabelling
    # orbit, found by the orbit walk of enumerate_racks, which shares no
    # code with _canonical_rows
    rng = random.Random(6)
    reps = tb.enumerate_racks(6, up_to_iso=True)
    assert len(reps) == 353
    for t in reps:
        p = list(range(6))
        rng.shuffle(p)
        assert tb.canonical_form(t) == t
        assert tb.canonical_form(tb.relabel(t, tuple(p))) == t


def test_canonical_row_0_opens_with_one_0_per_fixer_of_the_best_idempotent():
    # the search starts row 0 only from the idempotents c with the most
    # fixers y (c*y = c); row 0 from e_0 = c opens with exactly one 0 per
    # fixer of c, so the least table opens with the largest count
    tables = [t for n in (1, 2, 3) for t in _all_tables(n)]
    tables += [t for n in range(1, 6) for t in tb.enumerate_racks(n)]
    checked = 0
    for t in tables:
        most = max([row.count(c) for c, row in enumerate(t.rows) if row[c] == c], default=0)
        if most:
            row0 = tb.canonical_form(t).rows[0]
            assert row0[:most] == (0,) * most and row0[most:most + 1] != (0,), t
            checked += 1
    # n^(n*n) tables of order n, (n-1)^n * n^(n*n-n) of them without an
    # idempotent; 1,673 of the 1,838 labelled racks of order <= 5 have one
    assert checked == (1 + 12 + 3 ** 9 - 2 ** 3 * 3 ** 6) + 1673


@pytest.mark.parametrize("n", [6, 7, 8])
def test_canonical_form_on_large_dihedral_and_trivial_racks(n):
    _check_canonical_rows(tb.dihedral(n))
    _check_canonical_rows(tb.trivial(n))


@pytest.mark.parametrize("lengths", LARGE_CYCLE_TYPES)
def test_canonical_form_on_large_constant_action_racks(lengths):
    _check_canonical_rows(tb.constant_action(_cycle_type_perm(*lengths)))


@pytest.mark.parametrize("t", [
    tb.trivial(8), tb.dihedral(8), tb.constant_action(_cycle_type_perm(4, 2, 2)),
], ids=["trivial8", "dihedral8", "constant_action_4_2_2"])
def test_canonical_form_of_an_order8_rack_is_fast(t):
    # the search over all 8! relabellings takes longer than this on each
    import time

    start = time.perf_counter()
    tb.canonical_form(t)
    assert time.perf_counter() - start < 0.1


@st.composite
def permutation_column_tables(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    cols = [draw(st.permutations(range(n))) for _ in range(n)]
    return tb.Table(tuple(zip(*cols)))


@st.composite
def magmas_up_to_order_5(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=0, max_value=n - 1)
    return tb.Table(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))


@given(magmas_up_to_order_5())
def test_canonical_form_on_magmas(t):
    _check_canonical_rows(t)


@given(permutation_column_tables())
def test_canonical_form_on_permutation_column_tables(t):
    _check_canonical_rows(t)


# ---------------------------------------------------------------------------
# tables built without the constructor's checks

def _unchecked_tables():
    r = tb.dihedral(6)
    yield from tb.enumerate_racks(3)
    yield from tb.enumerate_racks(4, quandles_only=True, up_to_iso=True)
    yield from tb.enumerate_racks(5, up_to_iso=True)
    yield tb.canonical_form(r)
    yield tb.canonical_form(tb.Table(((0, 0, 1), (1, 1, 0), (2, 2, 2))))
    yield tb.inverse_table(tb.constant_action((1, 2, 0, 4, 3)))
    yield tb.relabel(r, (5, 3, 1, 0, 2, 4))
    for p, cls in cg.enumerate_congruences(r):
        if cls is cg.CongruenceClass.BOTH:
            yield cg.quotient(r, p).table
    yield cg.try_induced_table(r, cg.Partition((0, 1, 2, 0, 1, 2)))[0]
    for t in (r, tb.trivial(1), tb.constant_action((1, 2, 0, 4, 3))):
        yield tb.parse_rack(tb.format_rack(t))
    yield tb.parse_rack(RACK_TEXT)


def test_tables_built_from_rows_equal_checked_tables():
    tables = list(_unchecked_tables())
    assert len(tables) > 100
    for t in tables:
        assert type(t) is tb.Table
        assert t == tb.Table(t.rows)
        assert type(t.rows) is tuple and all(type(row) is tuple for row in t.rows)
        assert all(type(e) is int for row in t.rows for e in row)


# ---------------------------------------------------------------------------
# mutual distributivity

def _mutually_distributive_reference(r):
    # both identities over all triples, by the triple loop
    t, u = r.rows, tb.inverse_table(r).rows
    n = len(t)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if u[t[x][y]][z] != t[u[x][z]][u[y][z]]:
                    return False
                if t[u[x][y]][z] != u[t[x][z]][t[y][z]]:
                    return False
    return True


def _columns_are_automorphisms(r):
    # The identities as the proof reads them: each S_z^-1 (a column of *')
    # is an automorphism of *, and each S_z is an automorphism of *'.
    t, u = r.rows, tb.inverse_table(r).rows
    n = len(t)
    for a, b in ((t, u), (u, t)):
        for z in range(n):
            s = [b[x][z] for x in range(n)]
            for x in range(n):
                for y in range(n):
                    if s[a[x][y]] != a[s[x]][s[y]]:
                        return False
    return True


# Mutual distributivity is a theorem, so there is no library function:
# S_z is an automorphism of *, so S_z^-1 is one too, which is
# (x*y) *' z = (x *' z) * (y *' z); and an automorphism of * commutes
# with *', which is (x *' y) * z = (x * z) *' (y * z).

def test_mutual_distributivity_examples():
    assert _mutually_distributive_reference(DIHEDRAL3)
    assert _mutually_distributive_reference(tb.constant_action(THREE_CYCLE))


def test_mutual_distributivity_all_small_racks():
    for n in (1, 2, 3, 4):
        for t in tb.enumerate_racks(n):
            assert _mutually_distributive_reference(t), t
    for t in tb.enumerate_racks(5, up_to_iso=True):
        assert _mutually_distributive_reference(t), t


def test_mutual_distributivity_matches_the_reference():
    racks = []
    for n in range(1, 9):
        racks += [tb.dihedral(n), tb.trivial(n)]
        racks += [tb.constant_action(tuple((x + 1) % n for x in range(n))),
                  tb.constant_action(tuple(range(n - 1, -1, -1)))]
    for t in racks:
        assert _mutually_distributive_reference(t), t
        assert _columns_are_automorphisms(t), t
    # on tables with permutation columns, racks or not, the automorphism
    # reading agrees with the triple loop, and both fail off racks here
    seen_false = 0
    for n in (2, 3):
        perms = list(itertools.permutations(range(n)))
        for cols in itertools.product(perms, repeat=n):
            t = tb.Table(tuple(zip(*cols)))
            ref = _mutually_distributive_reference(t)
            assert _columns_are_automorphisms(t) == ref, t
            if not ref:
                seen_false += 1
                assert not tb.validate(t).is_rack, t
    assert seen_false > 0


# ---------------------------------------------------------------------------
# the doubling/halving pair on the integers

def test_one_sided_inverse_pair():
    ys = (-7, 0, 3)
    for x in range(-200, 201):
        for y in ys:
            assert tb.halve_op(tb.double_op(x, y), y) == x
    failures = {
        x
        for x in range(-200, 201)
        if tb.double_op(tb.halve_op(x, 0), 0) != x
    }
    assert failures == {x for x in range(-200, 201) if x % 2 != 0}


# ---------------------------------------------------------------------------
# .rack format

RACK_TEXT = """\
# dihedral quandle of order 3
3
0 2 1
2 1 0
1 0 2
"""


def test_parse_rack_with_comments():
    assert tb.parse_rack(RACK_TEXT) == DIHEDRAL3


def test_format_parse_roundtrip():
    for t in tb.enumerate_racks(3, up_to_iso=True):
        assert tb.parse_rack(tb.format_rack(t)) == t


def test_parse_rack_entry_out_of_range_has_position():
    with pytest.raises(tb.RackParseError, match="entry out of range") as info:
        tb.parse_rack("3\n0 2 1\n2 7 0\n1 0 2\n")
    assert info.value.line == 3
    assert info.value.column == 2


def test_parse_rack_other_errors():
    with pytest.raises(tb.RackParseError, match="expected order"):
        tb.parse_rack("x\n")
    with pytest.raises(tb.RackParseError, match="expected 2 entries"):
        tb.parse_rack("2\n0\n1 0\n")
    with pytest.raises(tb.RackParseError, match="not an integer"):
        tb.parse_rack("2\n0 a\n1 0\n")
    with pytest.raises(tb.RackParseError, match="expected 2 rows"):
        tb.parse_rack("2\n0 1\n")
    with pytest.raises(tb.RackParseError):
        tb.parse_rack("")
    # every entry of a wrong row is counted, also past the order
    for text, got in (("2\n0 1 1\n1 0\n", 3), ("2\n0\t1 \xa01\u20000 \u3000 1\n1 0\n", 5),
                      (f"{10**30}\n0 1\n", 2)):
        with pytest.raises(tb.RackParseError, match=f"line 2: expected [0-9]+ entries, got {got}$"):
            tb.parse_rack(text)


def test_parse_rack_counts_a_long_row_without_keeping_it():
    # a 2.1 MB row of 700,000 entries in an order-1 table: only the order
    # plus one tokens are kept, the rest are counted for the message
    import tracemalloc

    text = "1\n" + "10 " * 700_000
    tracemalloc.start()
    try:
        with pytest.raises(tb.RackParseError) as info:
            tb.parse_rack(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "line 2: expected 1 entries, got 700000"
    assert peak < 5 * len(text)


LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@given(st.lists(st.sampled_from(LINE_BREAKS + ("", "0", " 1", "\t", "\x1f", "\xa0", "#"))))
def test_lines_end_where_splitlines_ends_them(pieces):
    text = "".join(pieces)
    assert list(tb._lines(text)) == text.splitlines()


@given(st.lists(st.sampled_from(LINE_BREAKS + ("\r\n\r", "\n\r", "", "0", " 1", "#", "xy"))),
       st.integers(min_value=1, max_value=6))
def test_lines_end_where_splitlines_ends_them_across_block_edges(pieces, block):
    # blocks of a few characters put every kind of break, "\r\n" too, on
    # a block edge, and send the stretches without "\n" to the regex
    text = "".join(pieces)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tb, "_BLOCK", block)
        assert list(tb._lines(text)) == text.splitlines()


@pytest.mark.parametrize("brk", ["\r", "\u2028", "\r\n", "\x85"])
def test_lines_split_text_without_a_newline_across_blocks(brk):
    # lines ending in one kind of break only, over several blocks: with
    # _BLOCK = 1,024, "# x\r" lines put a lone "\r" on every block edge,
    # and the longest lines leave whole blocks without a break
    for line in ("# x", "", "a" * 3 * tb._BLOCK):
        text = (line + brk) * (4 * tb._BLOCK // len(line + brk) + 1) + line
        assert len(text) > 3 * tb._BLOCK
        assert list(tb._lines(text)) == text.splitlines()


def test_parse_rack_numbers_lines_across_every_line_break():
    for brk in LINE_BREAKS:
        text = brk.join(["# a", "", "2", "0 1", "1 x", "1 0"])
        with pytest.raises(tb.RackParseError) as info:
            tb.parse_rack(text)
        assert str(info.value) == "line 5, column 2: not an integer: 'x'"


def traced_peak(text):
    # the tracemalloc peak of parse_rack(text), which must reject text
    tracemalloc.start()
    try:
        with pytest.raises(tb.RackParseError) as info:
            tb.parse_rack(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(info.value), peak


def test_parse_rack_holds_one_line_at_a_time():
    # 20,000 comment lines and one 20,000-character line: the lines are
    # read one at a time (all of them at once took about 15 bytes per
    # character of the text)
    longest = "#" + "y" * 19_999
    for brk in ("\n", "\r\n", "\u2028"):
        text = brk.join(["# x"] * 10_000 + [longest] + ["# x"] * 10_000) + brk
        message, peak = traced_peak(text)
        assert message == "empty input"
        assert peak < 4 * len(longest)


def test_parse_rack_counts_a_row_one_entry_short_without_keeping_it():
    # a declared order of 55,925 and one row of 55,924 entries: the row is
    # rejected on its count, its 55,924 tokens are never held
    order = 55_925
    row = " ".join(["10"] * (order - 1))
    message, peak = traced_peak(f"{order}\n{row}\n")
    assert message == f"line 2: expected {order} entries, got {order - 1}"
    assert peak < 2 * len(row)


# ---------------------------------------------------------------------------
# seeded draws

def test_draw_is_randint_bit_for_bit():
    widths = (1, 2, 3, 5, 9, 16, 17, 201) + tuple(
        2 ** k + d for k in (2, 3, 5, 8, 16, 40) for d in (-1, 0, 1)
    )
    for seed in (0, 1, 2014):
        for width in widths:
            lo = seed - width // 2
            hi = lo + width - 1
            rng, ref = random.Random(seed), random.Random(seed)
            bits = rng.getrandbits
            assert [tb._draw(bits, lo, hi) for _ in range(10_000)] == [
                ref.randint(lo, hi) for _ in range(10_000)
            ], (seed, width)
            assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# property tests

@st.composite
def small_tables(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return tb.Table(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# the column-form axiom kernel against the triple loop it replaced

def _validate_reference(t):
    n, rows = t.order, t.rows
    idem = all(rows[x][x] == x for x in range(n))
    rinv = all(tb.is_permutation(t.column(y)) for y in range(n))
    rsd = all(
        rows[rows[x][y]][z] == rows[rows[x][z]][rows[y][z]]
        for x in range(n) for y in range(n) for z in range(n)
    )
    return tb.AxiomReport(idem, rinv, rsd, rinv and rsd, rinv and rsd and idem)


def _inverse_reference(t):
    """Rows of the inverse operation, or the error message."""
    n = t.order
    inv_cols = []
    for y in range(n):
        col = t.column(y)
        if not tb.is_permutation(col):
            return f"column {y} is not a permutation; not right invertible"
        inv_cols.append(tb.invert_perm(col))
    return tuple(tuple(inv_cols[y][x] for y in range(n)) for x in range(n))


def _check_kernel_against_reference(t):
    report = _validate_reference(t)
    remembered = tb._last_rack
    assert tb.validate(t) == report
    # validate remembers a rack for the congruence functions, and only a rack
    assert tb._last_rack is (t.rows if report.is_rack else remembered)
    expected = _inverse_reference(t)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            tb.inverse_table(t)
        assert str(info.value) == expected
    else:
        assert tb.inverse_table(t).rows == expected
    # an equal table with rows of its own, which validate did not remember,
    # so that _rack_rows runs its own check
    twin = tb.Table(t.rows)
    if report.is_rack:
        assert cg._rack_rows(twin) is twin.rows
    else:
        with pytest.raises(ValueError, match="^not a rack$"):
            cg._rack_rows(twin)


def _one_entry_changed(t, k):
    n = t.order
    x, y = k % n, (k // n) % n
    rows = [list(row) for row in t.rows]
    rows[x][y] = (rows[x][y] + 1 + k % (n - 1)) % n
    return tb.Table(rows)


def _column_entries_swapped(t, k):
    # columns stay permutations, so right invertibility holds
    n = t.order
    x, y = k % n, (k // n) % n
    rows = [list(row) for row in t.rows]
    rows[x][y], rows[x - 1][y] = rows[x - 1][y], rows[x][y]
    return tb.Table(rows)


def test_axiom_kernel_on_every_table_of_order_at_most_3():
    tables = [t for n in (1, 2, 3) for t in _all_tables(n)]
    assert len(tables) == 1 + 16 + 19683
    for t in tables:
        _check_kernel_against_reference(t)


def test_axiom_kernel_on_order5_racks_with_one_entry_changed():
    for k, t in enumerate(tb.enumerate_racks(5)[::5]):
        _check_kernel_against_reference(t)
        _check_kernel_against_reference(_one_entry_changed(t, k))
        _check_kernel_against_reference(_column_entries_swapped(t, k))


def test_axiom_kernel_on_order8_racks():
    cycle = (1, 2, 3, 0, 5, 4, 7, 6)
    for t in (tb.dihedral(8), tb.trivial(8), tb.constant_action(cycle)):
        assert _validate_reference(t).is_rack
        _check_kernel_against_reference(t)
        for k in (0, 13, 63):
            _check_kernel_against_reference(_one_entry_changed(t, k))
            _check_kernel_against_reference(_column_entries_swapped(t, k))


def test_rack_check_runs_once_across_calls_on_one_table(monkeypatch):
    calls = []
    kernel = tb._homomorphic
    monkeypatch.setattr(tb, "_homomorphic", lambda *a: calls.append(1) or kernel(*a))
    t = tb.dihedral(6)
    assert tb.validate(t).is_rack
    census = cg.enumerate_congruences(t)
    for p, cls in census:
        assert cg.classify_relation(t, p) is cls
        if cls is cg.CongruenceClass.BOTH:
            cg.quotient(t, p)
    assert len(calls) == 1


def test_rack_check_remembers_only_racks():
    rack, not_rack = tb.dihedral(5), tb.Table(((0, 1), (1, 0)))
    rows = tb._rack_rows(rack)
    for _ in range(2):
        assert not tb.validate(not_rack).is_rack
        with pytest.raises(ValueError, match="^not a rack$"):
            tb._rack_rows(not_rack)
        with pytest.raises(ValueError, match="not a rack"):
            cg.enumerate_congruences(not_rack)
        with pytest.raises(ValueError, match="not a rack"):
            cg.quotient(not_rack, cg.Partition((0, 1)))
    assert tb._rack_rows(rack) is rows


def test_rack_check_of_an_equal_table_gives_equal_tables():
    rack = tb.dihedral(5)
    twin = tb.Table(rack.rows)
    assert twin == rack and twin.rows is not rack.rows
    assert tb._rack_rows(rack) is rack.rows
    assert tb._rack_rows(twin) is twin.rows and twin.rows == rack.rows
    assert cg.enumerate_congruences(twin) == cg.enumerate_congruences(rack)


@given(small_tables())
def test_axiom_kernel_on_small_tables(t):
    _check_kernel_against_reference(t)


@given(small_tables())
def test_report_flags_are_consistent(t):
    report = tb.validate(t)
    assert report.is_rack == (report.right_invertible and report.right_self_distributive)
    assert report.is_quandle == (report.is_rack and report.idempotent)


@given(small_tables())
def test_rack_text_roundtrip(t):
    assert tb.parse_rack(tb.format_rack(t)) == t


@given(small_tables())
def test_inverse_table_iff_right_invertible(t):
    report = tb.validate(t)
    if report.right_invertible:
        inv = tb.inverse_table(t)
        for x in range(t.order):
            for y in range(t.order):
                assert inv.op(t.op(x, y), y) == x
    else:
        with pytest.raises(ValueError):
            tb.inverse_table(t)


# ---------------------------------------------------------------------------
# one side check for every family's operation

def _side_callers():
    from fractions import Fraction

    from rackq import laurent as la
    from rackq import shifts as sh
    from rackq import weighted as wa

    seq, word = sh.BiSeq(0, 0, (1,), 0), sh.NormalForm("a", 1)
    w, d = wa.Weight(Fraction(2, 3)), wa.SubgroupDescriptor.integers()
    return {
        "seq_rack_op": lambda side: sh.seq_rack_op(seq, seq, side),
        "seq_quandle_op": lambda side: sh.seq_quandle_op(seq, seq, side),
        "normal_form_op": lambda side: sh.normal_form_op(word, sh.NormalForm("c"), side),
        "alexander_op": lambda side: la.alexander_op(la.ONE, la.T, side),
        "_side_weight": lambda side: wa._side_weight(w, side),
        "find_half_witness": lambda side: wa.find_half_witness(d, w, side),
        "submodule_half_witness":
            lambda side: la.submodule_half_witness(la.PrincipalSubmodule(la.T - la.ONE), side),
        "parity_shift_half_witness": lambda side: la.parity_shift_half_witness(side),
    }


@pytest.mark.parametrize("name", sorted(_side_callers()))
def test_every_operation_rejects_an_unknown_side_with_one_message(name):
    call = _side_callers()[name]
    call(tb.PRIMARY), call(tb.INVERSE)
    with pytest.raises(ValueError) as info:
        call("left")
    assert str(info.value) == "side must be 'primary' or 'inverse'"
    assert tb.side_sign(tb.PRIMARY) == 1 and tb.side_sign(tb.INVERSE) == -1


# ---------------------------------------------------------------------------
# the one half-witness checker

def test_half_witness_checks_a_quadruple_by_the_definition():
    # on the integers mod 4 with x * y = x + 1 and x *' y = x - 1: "same
    # parity" respects both sides, the blocks {0}, {1}, {2, 3} neither
    def op(x, y, side):
        return (x + tb.side_sign(side)) % 4

    parity = lambda x, y: (x - y) % 2 == 0  # noqa: E731
    blocks = lambda x, y: x == y or min(x, y) > 1  # noqa: E731
    for side in (tb.PRIMARY, tb.INVERSE):
        assert tb._half_witness(op, parity, (0, 0, 2, 0), side) is None
        assert tb._respects(op, parity, [(0, 1, 2, 3), (1, 1, 3, 3)], side)
        # a and c, or b and d, unrelated
        assert tb._half_witness(op, blocks, (0, 0, 1, 0), side) is None
        assert tb._half_witness(op, blocks, (2, 0, 3, 1), side) is None
        assert tb._half_witness(op, blocks, (2, 0, 2, 0), side) is None  # one product
        # 3 and 0 on the primary side, 1 and 2 on the inverse one
        assert tb._half_witness(op, blocks, (2, 0, 3, 0), side) == (2, 0, 3, 0)


def test_half_witness_rejects_an_unknown_side_before_calling_anything():
    def fail(*args):
        raise AssertionError("called")

    with pytest.raises(ValueError, match="^side must be 'primary' or 'inverse'$"):
        tb._half_witness(fail, fail, (0, 0, 0, 0), "left")
