"""infinite_witnesses: the exact infinite structures.

The work is in ``laurent``, ``weighted`` and ``shifts`` and bypasses
``tables`` and ``congruence``.  Four phases:

* rows of the criterion-9 grid (every polynomial with exponents -2..2
  and coefficients -2..2): one f against all 3,125 g, computing g - f,
  ``in_difference_set`` and ``parity_shift_relation``;
* Alexander-operation congruence samples and ``eval_at_one`` on
  products;
* a sparse phase, ``PrincipalSubmodule.contains`` on multiples with
  exponents spread over -64..64;
* ``classify_weight``, ``find_half_witness`` and seeded
  ``sampled_congruence_check`` for the weights -1, 1/2, 2 and 2/3, and
  the shift-rack, shift-quandle and normal-form checks of criteria 3-5.

The dense grid and the sparse phase sit on opposite sides of a choice
between sparse and dense polynomial representations.  Phase sizes keep
each module below about half of the traced busy time.
"""

import itertools
import random

from rackq import laurent as la
from rackq import shifts as sh
from rackq import weighted as wa
from rackq.tables import INVERSE, PRIMARY

import oracles
from spans import Op

GRID_EXPONENTS = range(-2, 3)
# Every (3125 / GRID_ROWS)-th f from a seeded offset: rows with few and
# many nonzero coefficients in the same proportions for every seed.
GRID_ROWS = 120
ALEX_BLOCKS, ALEX_SAMPLES = 16, 250
SPARSE_BLOCKS, SPARSE_MULTIPLES, SPARSE_SPREAD, SPARSE_TERMS = 24, 40, 64, 16
SPARSE_GENERATORS = ({0: 2}, {1: 1, 0: -1}, {2: 1, 0: 1})
WEIGHTS = tuple(oracles.WEIGHT_TABLE)
ROLES = ("integers", "denominator", "numerator", "combined")
WEIGHT_BLOCKS, WEIGHT_SAMPLES = 2, 1250
SHIFT_BLOCKS, SHIFT_SAMPLES = 16, 500
NORMAL_FORM_WINDOW = 20
NORMAL_FORM_CHUNK = 4


def _random_coeffs(rng, lo, hi, cmax):
    return {e: c for e in range(lo, hi + 1) if (c := rng.randint(-cmax, cmax))}


def _relation_partner(rng, f):
    """f plus a multiple of t - 1 and, half the time, the constant that
    f's parity allows: related to f under the parity-shift relation."""
    q = _random_coeffs(rng, 0, 4, 3)
    d = oracles.poly_mul({1: 1, 0: -1}, q)
    if rng.random() < 0.5:
        d = oracles.poly_add(d, {0: 1 if sum(f.values()) % 2 == 0 else -1})
    return oracles.poly_add(f, d)


def _sparse_multiplier(rng):
    exps = rng.sample(range(-SPARSE_SPREAD, SPARSE_SPREAD + 1), SPARSE_TERMS)
    return {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exps}


def setup(seed, workdir):
    rng = random.Random(seed)
    coeffs = list(itertools.product(range(-2, 3), repeat=5))
    polys = [la.LaurentPoly(dict(zip(GRID_EXPONENTS, c))) for c in coeffs]
    step = len(coeffs) / GRID_ROWS
    offset = rng.random() * step
    rows = [int(offset + k * step) for k in range(GRID_ROWS)]

    alex = []
    for _ in range(ALEX_BLOCKS):
        block = []
        for _ in range(ALEX_SAMPLES):
            f, g = _random_coeffs(rng, -4, 4, 3), _random_coeffs(rng, -4, 4, 3)
            block.append((f, g, _relation_partner(rng, f), _relation_partner(rng, g)))
        alex.append(block)

    sparse = []
    for _ in range(SPARSE_BLOCKS):
        sparse.append([(gen, _sparse_multiplier(rng)) for gen in SPARSE_GENERATORS
                       for _ in range(SPARSE_MULTIPLES)])

    sampled = []
    for w in WEIGHTS:
        for role in ROLES:
            for side in oracles.holding_sides(oracles.WEIGHT_TABLE[w][1][role]):
                sampled += [(w, role, side, rng.randrange(2**32)) for _ in range(WEIGHT_BLOCKS)]
    shift_seeds = [rng.randrange(2**32) for _ in range(2 * SHIFT_BLOCKS)]

    material = repr((rows, alex, sparse, sampled, shift_seeds))
    lp = la.LaurentPoly
    inputs = {
        "coeffs": coeffs,
        "polys": polys,
        "rows": rows,
        "alex": [[(lp(f), lp(g), lp(f2), lp(g2), f, g) for f, g, f2, g2 in block] for block in alex],
        "sparse": [[(lp(gen), lp(q), gen, q) for gen, q in block] for block in sparse],
        "weights": {w: wa.Weight(w) for w in WEIGHTS},
        "descriptors": {(w, role): wa.SubgroupDescriptor.scaled(1, oracles.witness_base(w, role))
                        for w in WEIGHTS for role in ROLES},
        "sampled": sampled,
        "shift_seeds": shift_seeds,
    }
    return inputs, material


# --- phase 1: the difference-set grid

def _grid_row(inputs, fi):
    coeffs, polys = inputs["coeffs"], inputs["polys"]

    def run(tr, state):
        f = polys[fi]
        n = len(polys)
        with tr.span("laurent.sub", n):
            diffs = [g - f for g in polys]
        with tr.span("laurent.in_difference_set", n):
            members = [la.in_difference_set(f, d) for d in diffs]
        with tr.span("laurent.parity_shift_relation", n):
            related = [la.parity_shift_relation(f, g) for g in polys]
        tr.count("laurent.grid_pairs", n)
        fc = coeffs[fi]
        expected = oracles.grid_row(fc, coeffs)
        if members != expected or related != expected:
            return f"grid row {fc} disagrees with the relation on raw coefficients"
        return None

    return Op("grid_row", ("grid",), run)


# --- phase 2: Alexander-operation samples and products

def _alexander_block(block):
    def run(tr, state):
        n = len(block)
        with tr.span("laurent.alexander_op", 2 * n):
            left = [la.alexander_op(f, g) for f, g, _, _, _, _ in block]
            right = [la.alexander_op(f2, g2) for _, _, f2, g2, _, _ in block]
        with tr.span("laurent.parity_shift_relation", n):
            related = [la.parity_shift_relation(a, b) for a, b in zip(left, right)]
        with tr.span("laurent.mul", n):
            products = [f * g for f, g, _, _, _, _ in block]
        with tr.span("laurent.eval_at_one", 2 * n):
            op_values = [la.eval_at_one(a) for a in left]
            product_values = [la.eval_at_one(p) for p in products]
        if not all(related) or not oracles.planted("theorems", True):
            return "parity-shift relation fails to respect the primary operation"
        for (_, _, _, _, fr, gr), ov, pv in zip(block, op_values, product_values):
            if ov != oracles.alexander_eval(fr) or pv != oracles.eval_product(fr, gr):
                return f"eval_at_one on {fr}, {gr}: {ov}, {pv}"
        return None

    return Op("alexander_block", ("theorems", "eval"), run)


# --- phase 3: sparse submodule membership

def _sparse_block(block):
    one = la.LaurentPoly({0: 1})

    def run(tr, state):
        n = len(block)
        with tr.span("laurent.mul", n):
            products = [g * q for g, q, _, _ in block]
        with tr.span("laurent.sub", n):
            off = [p - one for p in products]
        with tr.span("laurent.eval_at_one", n):
            values = [la.eval_at_one(p) for p in products]
        cases = []
        for (g, _, gr, qr), p, p1 in zip(block, products, off):
            for ring in (la.POLY_RING, la.LAURENT_RING):
                mod = la.PrincipalSubmodule(g, ring)
                cases += [(mod, p, qr, ring, False), (mod, p1, qr, ring, True)]
        with tr.span("laurent.contains", len(cases)):
            found = [mod.contains(d) for mod, d, _, _, _ in cases]
        for (_, _, gr, qr), v in zip(block, values):
            if v != oracles.eval_product(gr, qr):
                return f"eval_at_one of {gr} * {qr}: {v}"
        for (_, _, qr, ring, shifted), got in zip(cases, found):
            if got != oracles.submodule_member(qr, ring == la.LAURENT_RING, shifted):
                return f"contains({qr}, shifted={shifted}, ring={ring}) = {got}"
        return None

    return Op("sparse_block", ("sparse", "eval"), run)


# --- phase 4a: weighted averages

def _classify(inputs, w):
    weight = inputs["weights"][w]

    def run(tr, state):
        with tr.span("weighted.classify_weight"):
            result = wa.classify_weight(weight)
        if result.case != oracles.weight_case(w):
            return f"weight {w}: case {result.case}"
        pairs = []
        for ws in result.witnesses:
            if ws.status.value != oracles.weight_status(w, ws.role):
                return f"weight {w}, {ws.role}: {ws.status.value}"
            pairs += [(ws, side) for side in (PRIMARY, INVERSE)]
        with tr.span("weighted.find_half_witness", len(pairs)):
            quads = [wa.find_half_witness(ws.descriptor, weight, side) for ws, side in pairs]
        for (ws, side), quad in zip(pairs, quads):
            holds = side in oracles.holding_sides(oracles.weight_status(w, ws.role))
            if holds:
                if quad is not None or side in ws.half_witnesses:
                    return f"weight {w}, {ws.role}: witness on the holding {side} side"
                continue
            m = oracles.witness_base(w, ws.role)
            if quad != ws.half_witnesses.get(side) or not oracles.is_half_witness(quad, w, m, side):
                return f"weight {w}, {ws.role}, {side}: bad witness {quad}"
        return None

    return Op("classify_weight", ("weights",), run)


def _sampled(inputs, w, role, side, seed):
    weight, desc = inputs["weights"][w], inputs["descriptors"][(w, role)]

    def run(tr, state):
        with tr.span("weighted.sampled_congruence_check"):
            ok = wa.sampled_congruence_check(desc, weight, side, WEIGHT_SAMPLES, seed)
        tr.count("weighted.samples", WEIGHT_SAMPLES)
        if ok != oracles.sampled_holds():
            return f"sampled {side} check for weight {w}, {role}: {ok}"
        return None

    return Op("sample_block", ("sampled",), run)


# --- phase 4b: shifts and the presented quandle

def _shift_witnesses(tr, state):
    w = sh.half_congruence_witnesses()
    holds = oracles.shift_theorem()
    with tr.span("shifts.shift", 6):
        ra, rb = sh.shift(w.zeros, sh.RIGHT), sh.shift(w.spike_left, sh.RIGHT)
        r_spike, r_step = sh.shift(w.spike, sh.RIGHT), sh.shift(w.step, sh.RIGHT)
    with tr.span("shifts.seq_quandle_op", 4):
        acted = (sh.seq_quandle_op(w.spike, w.ones, INVERSE), sh.seq_quandle_op(w.step, w.ones, INVERSE))
        back = (sh.seq_quandle_op(r_spike, w.ones), sh.seq_quandle_op(r_step, w.ones))
    with tr.span("shifts.agree_nonneg", 6):
        checks = [
            sh.agree_nonneg(w.zeros, w.spike_left) == holds,
            sh.agree_nonneg(ra, rb) != holds,
            sh.agree_nonneg(w.spike, w.step) == holds,
            sh.agree_nonneg(r_spike, r_step) != holds,
            sh.agree_nonneg(back[0], w.spike) == holds,
            sh.agree_nonneg(back[1], w.spike) == holds,
        ]
    checks.append(acted == (r_spike, r_step))
    if not all(checks):
        return f"half-congruence witness checks {checks}"
    return None


def _shift_rack_block(seed):
    def run(tr, state):
        rng = random.Random(seed)
        with tr.span("shifts.sampling", 2 * SHIFT_SAMPLES):
            xs = [sh.random_biseq(rng) for _ in range(SHIFT_SAMPLES)]
            ys = [sh.random_agree_partner(rng, x) for x in xs]
        with tr.span("shifts.shift", 2 * SHIFT_SAMPLES):
            sxs = [sh.shift(x, sh.LEFT) for x in xs]
            sys_ = [sh.shift(y, sh.LEFT) for y in ys]
        with tr.span("shifts.agree_nonneg", 2 * SHIFT_SAMPLES):
            ok = all(map(sh.agree_nonneg, xs, ys)) and all(map(sh.agree_nonneg, sxs, sys_))
        if ok != oracles.shift_theorem():
            return f"shift-rack relation, block seed {seed}"
        return None

    return Op("shift_block", ("shifts",), run)


def _shift_quandle_block(seed):
    def run(tr, state):
        rng = random.Random(seed)
        n = SHIFT_SAMPLES
        op = sh.seq_quandle_op
        with tr.span("shifts.sampling", 3 * n):
            triples = [(sh.random_biseq(rng), sh.random_biseq(rng), sh.random_biseq(rng))
                       for _ in range(n)]
        with tr.span("shifts.seq_quandle_op", 10 * n):
            axioms = all(
                op(a, a) == a
                and op(op(a, b), b, INVERSE) == a
                and op(op(a, b, INVERSE), b) == a
                and op(op(a, b), c) == op(op(a, c), op(b, c))
                for a, b, c in triples
            )
        with tr.span("shifts.sampling", 4 * n):
            quads = []
            for _ in range(n):
                a = sh.random_biseq(rng)
                c = sh.random_agree_partner(rng, a)
                b = sh.random_biseq(rng)
                quads.append((a, b, c, sh.random_agree_partner(rng, b)))
        with tr.span("shifts.seq_quandle_op", 2 * n):
            pairs = [(op(a, b), op(c, d)) for a, b, c, d in quads]
        with tr.span("shifts.agree_nonneg", n):
            respects = all(sh.agree_nonneg(x, y) for x, y in pairs)
        if (axioms and respects) != oracles.shift_theorem():
            return f"shift quandle axioms {axioms}, relation {respects}, block seed {seed}"
        return None

    return Op("shift_block", ("shifts",), run)


def _elements():
    out = [sh.NormalForm("c")]
    for k in range(-NORMAL_FORM_WINDOW, NORMAL_FORM_WINDOW + 1):
        out += [sh.NormalForm("a", k), sh.NormalForm("b", k)]
    return out


def _normal_form_block(chunk):
    def run(tr, state):
        elements = _elements()
        us = [elements[i] for i in chunk]
        op = sh.normal_form_op
        n = len(elements)
        with tr.span("shifts.normal_form_op", len(us) * (3 * n * n + 4 * n + 1)):
            products = [[(op(u, v), op(u, v, INVERSE)) for v in elements] for u in us]
            axioms = all(op(u, u) == u for u in us) and all(
                op(uv, v, INVERSE) == u and op(uvi, v) == u
                for u, prods in zip(us, products) for (uv, uvi), v in zip(prods, elements)
            ) and all(
                op(uv, z) == op(op(u, z), op(v, z))
                for u, prods in zip(us, products) for (uv, _), v in zip(prods, elements)
                for z in elements
            )
        with tr.span("shifts.embed_normal_form", len(us) * (2 * n + 1) + n):
            ev = [sh.embed_normal_form(v) for v in elements]
            eus = [sh.embed_normal_form(u) for u in us]
            eprods = [[(sh.embed_normal_form(a), sh.embed_normal_form(b)) for a, b in prods]
                      for prods in products]
        with tr.span("shifts.seq_quandle_op", len(us) * 2 * n):
            hom = all(
                ea == sh.seq_quandle_op(eu, e, PRIMARY) and eb == sh.seq_quandle_op(eu, e, INVERSE)
                for eu, eprod in zip(eus, eprods) for (ea, eb), e in zip(eprod, ev)
            )
        if (axioms and hom) != oracles.shift_theorem():
            return f"normal-form axioms {axioms}, embedding {hom} at {us}"
        for u, prods in zip(us, products):
            for (uv, uvi), v in zip(prods, elements):
                key, vk = (u.gen, u.power), (v.gen, v.power)
                if ((uv.gen, uv.power) != oracles.normal_form_op(key, vk, True)
                        or (uvi.gen, uvi.power) != oracles.normal_form_op(key, vk, False)):
                    return f"normal form {key} * {vk}"
        return None

    return Op("normal_form_block", ("shifts", "normal_form"), run)


def _embedding_injective(tr, state):
    elements = _elements()
    with tr.span("shifts.embed_normal_form", len(elements)):
        images = {sh.embed_normal_form(u) for u in elements}
    if (len(images) == len(elements)) != oracles.shift_theorem():
        return "embedding is not injective on the window"
    return None


def ops(inputs):
    out = [_grid_row(inputs, fi) for fi in inputs["rows"]]
    out += [_alexander_block(b) for b in inputs["alex"]]
    out += [_sparse_block(b) for b in inputs["sparse"]]
    out += [_classify(inputs, w) for w in WEIGHTS]
    out += [_sampled(inputs, *s) for s in inputs["sampled"]]
    out.append(Op("shift_witnesses", ("shifts",), _shift_witnesses))
    seeds = inputs["shift_seeds"]
    out += [_shift_rack_block(s) for s in seeds[:SHIFT_BLOCKS]]
    out += [_shift_quandle_block(s) for s in seeds[SHIFT_BLOCKS:]]
    indices = list(range(len(_elements())))
    out += [_normal_form_block(indices[i:i + NORMAL_FORM_CHUNK])
            for i in range(0, len(indices), NORMAL_FORM_CHUNK)]
    out.append(Op("normal_form_block", ("shifts",), _embedding_injective))
    return out
