"""finite_census: racks and quandles as finite tables.

The work is in ``tables`` and ``congruence`` only.  A pass enumerates
racks and quandles of orders 1..5, labelled and up to isomorphism, then
gives a fixed set of racks, each relabelled by the seed, their full
treatment: every partition classified, a quotient built and validated
for every full congruence, and ``canonical_form`` compared across the
relabelling.  Many small racks (Bell(5) = 52 partitions) mix with a few
of order 7 and 8 (877 and 4,140 partitions), so a congruence algorithm
that wins on large racks but adds per-call cost on small ones moves
``op_p50_ms`` and ``verdict_s`` in opposite directions.
"""

import random

from rackq import congruence as cg
from rackq import tables as tb

import oracles
from spans import Op

# Order-5 racks treated per pass: every (1708 / ORDER5_SAMPLE)-th rack of
# the sorted enumeration.  The set is the same for every seed, so the
# work is too; the seed relabels each rack before its treatment.
ORDER5_SAMPLE = 480
# canonical_form tries all n! relabellings; beyond order 6 one call
# costs more than a whole small rack's treatment.
CANON_MAX_ORDER = 6
# Constant-action racks up to order 8 use these cycle types, relabelled
# by the seed, so that the number of congruences (and the work) is the
# same for every seed.
CYCLE_TYPES = {1: (1,), 2: (2,), 3: (3,), 4: (2, 2), 5: (3, 2), 6: (3, 2, 1),
               7: (4, 3), 8: (4, 2, 2)}
DIHEDRAL_ORDERS = range(3, 9)
TRIVIAL_ORDERS = range(1, 8)
HOM_MAX_ORDER = 3


def _perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _cycle_perm(cycle_type):
    p, start = [], 0
    for length in cycle_type:
        p.extend(start + (i + 1) % length for i in range(length))
        start += length
    return tuple(p)


def setup(seed, workdir):
    rng = random.Random(seed)
    special_rows = [tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n))
                    for n in DIHEDRAL_ORDERS]
    special_rows += [tuple((x,) * n for x in range(n)) for n in TRIVIAL_ORDERS]
    for n, ctype in CYCLE_TYPES.items():
        c = _cycle_perm(ctype)
        special_rows.append(oracles.relabel_rows(tuple((c[x],) * n for x in range(n)), _perm(rng, n)))
    specials = [(tb.Table(rows), _perm(rng, len(rows))) for rows in special_rows]
    small = [(n, i, _perm(rng, n)) for n in range(1, 5) for i in range(oracles.RACKS[n])]
    step = oracles.RACKS[5] / ORDER5_SAMPLE
    picked = [int((k + 0.5) * step) for k in range(ORDER5_SAMPLE)]
    order5 = [(5, i, _perm(rng, 5)) for i in picked]
    inputs = {"specials": specials, "labelled": small + order5}
    digest = repr(([(t.rows, p) for t, p in specials], small, order5))
    return inputs, digest


def _enumerate(n, quandles_only, up_to_iso):
    name = "tables.enumerate_racks_iso" if up_to_iso else "tables.enumerate_racks"

    def run(tr, state):
        with tr.span(name):
            found = tb.enumerate_racks(n, quandles_only, up_to_iso)
        if not (quandles_only or up_to_iso):
            state[n] = found
        expected = oracles.enum_count(n, quandles_only, up_to_iso)
        if len(found) != expected:
            return f"enumerate_racks({n}, {quandles_only}, {up_to_iso}): {len(found)} != {expected}"
        return None

    return Op("enumerate", ("counts",), run)


def treat(tr, r, perm):
    """Full treatment of the copy of ``r`` relabelled by ``perm``; returns a
    mismatch message or None."""
    with tr.span("tables.relabel"):
        copy = tb.relabel(r, perm)
    rows, n = oracles.relabel_rows(r.rows, perm), r.order
    if copy.rows != rows:
        return f"relabel of {r.rows} by {perm}"
    with tr.span("tables.validate"):
        report = tb.validate(copy)
    if report.is_rack != oracles.is_rack(rows) or report.is_quandle != oracles.is_quandle(rows):
        return f"validate disagrees on {rows}"
    with tr.span("congruence.enumerate_congruences"):
        classes = cg.enumerate_congruences(copy)
    tr.count("congruence.partitions", len(classes))
    if len(classes) != oracles.bell(n):
        return f"{len(classes)} partitions of an order-{n} rack"
    half = [p for p, c in classes if c in (cg.CongruenceClass.RIGHT_ONLY, cg.CongruenceClass.LEFT_ONLY)]
    tr.count("congruence.half_congruences", len(half))
    if not all(oracles.half_class_allowed(c.value) for _, c in classes):
        return f"half congruence on {rows}"
    full = [p for p, c in classes if c is cg.CongruenceClass.BOTH]
    with tr.span("congruence.quotient", len(full)):
        quotients = [cg.quotient(copy, p) for p in full]
    with tr.span("tables.validate", len(quotients)):
        reports = [tb.validate(q.table) for q in quotients]
    for p, q, qr in zip(full, quotients, reports):
        if not qr.is_rack or (report.is_quandle and not qr.is_quandle):
            return f"quotient of {rows} by {p.block_of} fails the axioms"
        if q.table.rows != oracles.induced_rows(rows, p.block_of):
            return f"quotient of {rows} by {p.block_of} is not the induced table"
    if n <= CANON_MAX_ORDER:
        with tr.span("tables.canonical_form", 2):
            same = tb.canonical_form(r) == tb.canonical_form(copy)
        if not same or not oracles.planted("theorems", True):
            return f"canonical_form of {r.rows} changes under relabelling {perm}"
    return None


def _treat_labelled(n, i, perm):
    return Op("rack", ("bell", "theorems", "quotients"),
              lambda tr, state: treat(tr, state[n][i], perm))


def _treat_special(r, perm):
    return Op("rack", ("bell", "theorems", "quotients"), lambda tr, state: treat(tr, r, perm))


def _homs(i):
    def run(tr, state):
        racks = [t for n in range(1, HOM_MAX_ORDER + 1) for t in state[n]]
        r = racks[i]
        for s in racks:
            with tr.span("congruence.find_homomorphisms"):
                homs = cg.find_homomorphisms(r, s)
            tr.count("congruence.maps_tried", s.order ** r.order)
            tr.count("congruence.homs_found", len(homs))
            if sorted(f.image for f in homs) != sorted(oracles.homomorphisms(r.rows, s.rows)):
                return f"homomorphisms {r.rows} -> {s.rows}"
            with tr.span("congruence.first_isomorphism_check", len(homs)):
                ok = all(cg.first_isomorphism_check(f, r, s) for f in homs)
            if ok != oracles.planted("theorems", True):
                return f"first isomorphism check {r.rows} -> {s.rows}"
        return None

    return Op("homs", ("homs", "theorems"), run)


def ops(inputs):
    out = [_enumerate(n, q, iso) for n in range(1, 6)
           for q in (False, True) for iso in (False, True)]
    out += [_treat_labelled(n, i, p) for n, i, p in inputs["labelled"]]
    out += [_treat_special(r, p) for r, p in inputs["specials"]]
    n_domains = sum(oracles.RACKS[n] for n in range(1, HOM_MAX_ORDER + 1))
    out += [_homs(i) for i in range(n_domains)]
    return out
