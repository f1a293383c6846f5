"""The witness suites of ``rackq demo``: each returns its witnesses and a
list of named checks (name, passed) of what the paper asserts of them.
Sampled checks draw from one seeded rng in the order they are listed.
Each demo imports the module of its structure when it runs."""

from __future__ import annotations

import random
from itertools import product

from .tables import PRIMARY, INVERSE, _respects


def _every(samples: int, draw, holds) -> bool:
    """Whether holds(*draw()) on samples draws; stops at the first failure."""
    return all(holds(*draw()) for _ in range(samples))


def _axioms(op, xs, ys, zs) -> list[bool]:
    """Truth values of idempotence on xs, both inverse identities on
    xs x ys, and right self-distributivity on xs x ys x zs, for the
    operation op(x, y, side)."""
    return [
        all(op(x, x, PRIMARY) == x for x in xs),
        all(op(op(x, y, PRIMARY), y, INVERSE) == x and op(op(x, y, INVERSE), y, PRIMARY) == x
            for x, y in product(xs, ys)),
        all(op(op(x, y, PRIMARY), z, PRIMARY)
            == op(op(x, z, PRIMARY), op(y, z, PRIMARY), PRIMARY)
            for x, y, z in product(xs, ys, zs)),
    ]


def _agreeing(rng):
    """A random sequence and a partner agreeing with it at indices >= 0."""
    from . import shifts as sh

    x = sh.random_biseq(rng)
    return x, sh.random_agree_partner(rng, x)


def b_ell(samples: int, rng):
    from . import shifts as sh

    w = sh.half_congruence_witnesses()
    a, b = w.zeros, w.spike_left
    ra, rb = sh.shift(a, sh.RIGHT), sh.shift(b, sh.RIGHT)

    checks = [
        ("witness pair agrees at indices >= 0", sh.agree_nonneg(a, b)),
        ("right shifts disagree at index 0", not sh.agree_nonneg(ra, rb)),
        ("right shift of pair differs exactly at index 0", ra.bit_at(0) == 0 and rb.bit_at(0) == 1),
        # the rack operation ignores its second argument: any b, d will do
        (f"left shift preserves the relation on {samples} samples",
         _respects(sh.seq_rack_op, sh.agree_nonneg,
                   ((x, x, y, y) for x, y in (_agreeing(rng) for _ in range(samples))), PRIMARY)),
    ]
    payload = {
        "witnesses": {"zeros": sh.format_biseq(a), "spike_left": sh.format_biseq(b)},
    }
    return payload, checks


def b_quandle(samples: int, rng):
    from . import shifts as sh

    op, agree = sh.seq_quandle_op, sh.agree_nonneg
    w = sh.half_congruence_witnesses()
    spike, step, ones = w.spike, w.step, w.ones
    r_spike = sh.shift(spike, sh.RIGHT)
    r_step = sh.shift(step, sh.RIGHT)

    checks = [
        ("spike and step agree at indices >= 0", agree(spike, step)),
        ("spike acted by ones (inverse) is its right shift", op(spike, ones, INVERSE) == r_spike),
        ("step acted by ones (inverse) is its right shift", op(step, ones, INVERSE) == r_step),
        ("the two right shifts do not agree at indices >= 0", not agree(r_spike, r_step)),
        ("both right shifts solve X * [ones] = [spike] in the quotient",
         agree(op(r_spike, ones, PRIMARY), spike) and agree(op(r_step, ones, PRIMARY), spike)),
        (f"quandle axioms hold on {samples} sampled triples",
         _every(samples, lambda: (sh.random_biseq(rng), sh.random_biseq(rng), sh.random_biseq(rng)),
                lambda a, b, c: all(_axioms(op, [a], [b], [c])))),
        (f"relation respects the primary operation on {samples} samples",
         _respects(op, agree, ((a, b, c, d) for (a, c), (b, d) in
                               ((_agreeing(rng), _agreeing(rng)) for _ in range(samples))), PRIMARY)),
    ]
    payload = {
        "witnesses": {
            "spike": sh.format_biseq(spike),
            "step": sh.format_biseq(step),
            "ones": sh.format_biseq(ones),
            "right_shift_of_spike": sh.format_biseq(r_spike),
            "right_shift_of_step": sh.format_biseq(r_step),
        },
    }
    return payload, checks


def b0(samples: int, rng):
    from . import shifts as sh

    op, embed = sh.normal_form_op, sh.embed_normal_form
    window = 20
    elements = [sh.NormalForm("c")] + [
        sh.NormalForm(gen, k) for k in range(-window, window + 1) for gen in "ab"
    ]
    idem, inverse_ok, distrib_ok = _axioms(op, elements, elements, elements)
    hom_ok = all(
        embed(op(u, v, side)) == sh.seq_quandle_op(embed(u), embed(v), side)
        for u, v in product(elements, repeat=2)
        for side in (PRIMARY, INVERSE)
    )
    checks = [
        (f"idempotence on powers within +-{window}", idem),
        (f"inverse identities on powers within +-{window}", inverse_ok),
        (f"right self-distributivity on powers within +-{window}", distrib_ok),
        (f"embedding is a homomorphism for both operations within +-{window}", hom_ok),
        (f"embedding is injective within +-{window}", len(set(map(embed, elements))) == len(elements)),
    ]
    payload = {
        "window": window,
        "element_count": len(elements),
        "embeddings": {
            "a^0": sh.format_biseq(embed(sh.NormalForm("a", 0))),
            "a^1": sh.format_biseq(embed(sh.NormalForm("a", 1))),
            "b^0": sh.format_biseq(embed(sh.NormalForm("b", 0))),
            "c": sh.format_biseq(embed(sh.NormalForm("c"))),
        },
    }
    return payload, checks


def alexander(samples: int, rng):
    from . import laurent as la

    op = la.alexander_op
    gens = {text: la.parse_laurent(text) for text in ("2", "t - 1", "t^2 + 1")}

    def quad():
        # random f ~ f2 and g ~ g2, drawn in the order f, g, f2, g2
        f, g = la.random_laurent(rng), la.random_laurent(rng)
        return f, g, la.random_relation_partner(rng, f), la.random_relation_partner(rng, g)

    # Each ring claims the sides its submodules are closed under:
    # t and 1 - t over Z[t], and 1/t too over Z[t, 1/t].
    claims = ((la.POLY_RING, (PRIMARY,)), (la.LAURENT_RING, (PRIMARY, INVERSE)))
    checks = [
        (f"parity-shift relation respects the primary operation on {samples} samples",
         _respects(op, la.parity_shift_relation, (quad() for _ in range(samples)), PRIMARY)),
        (f"difference-set membership matches the relation on {samples} samples",
         _every(samples, lambda: (la.random_laurent(rng, -2, 2, 2), la.random_laurent(rng, -2, 2, 2)),
                lambda f, g: la.in_difference_set(f, g - f) == la.parity_shift_relation(f, g))),
        ("difference sets at 0 and at 1 differ (membership of the constant 1)",
         la.in_difference_set(la.ZERO, la.ONE) and not la.in_difference_set(la.ONE, la.ONE)),
        ("principal submodules give primary congruences (and inverse for Laurent ring)",
         all(la.submodule_half_witness(la.PrincipalSubmodule(gen, ring), side) is None
             for gen in gens.values() for ring, sides in claims for side in sides)),
    ]
    payload = {
        "submodule_inverse_violations": {
            text: tuple(map(str, la.submodule_half_witness(la.PrincipalSubmodule(gen), INVERSE)))
            for text, gen in gens.items()
        },
        "parity_shift_inverse_violation": tuple(map(str, la.parity_shift_half_witness(INVERSE))),
    }
    return payload, checks


DEMOS = {"b_ell": b_ell, "b_quandle": b_quandle, "b0": b0, "alexander": alexander}


def run(name: str, samples: int, seed: int):
    """(payload, checks) of the named demo."""
    return DEMOS[name](samples, random.Random(seed))
