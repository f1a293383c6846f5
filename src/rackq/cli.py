"""Batch command-line front end.

Every command prints one JSON document {"status", "payload",
"diagnostics"} with stable key order.  Exit code 0 means the command
succeeded and every embedded assertion passed; assertion failures exit
1, malformed input or usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

# Only what the table commands need is imported here; the weight and demo
# commands import the modules of the infinite structures when they run.
from . import congruence as cg
from . import tables as tb
from .tables import PRIMARY, INVERSE


def _ok(payload, diagnostics=()):
    return {"status": "ok", "payload": payload, "diagnostics": list(diagnostics)}


def _error(*diagnostics):
    return {"status": "error", "payload": {}, "diagnostics": list(diagnostics)}


def _load_table(path: str) -> tb.Table:
    with open(path, "r", encoding="utf-8") as fh:
        return tb.parse_rack(fh.read())


def _axiom_payload(t: tb.Table) -> dict:
    report = tb.validate(t)
    payload = {
        "order": t.order,
        "idempotent": report.idempotent,
        "right_invertible": report.right_invertible,
        "right_self_distributive": report.right_self_distributive,
        "is_rack": report.is_rack,
        "is_quandle": report.is_quandle,
    }
    if report.is_rack:
        payload["exponent"] = tb.exponent(t)
    return payload


# ---------------------------------------------------------------------------
# command handlers: each returns (result dict, exit code)

def cmd_validate(args):
    return _ok(_axiom_payload(_load_table(args.path))), 0


def cmd_inverse(args):
    t = _load_table(args.path)
    inv = tb.inverse_table(t)
    return _ok({"order": inv.order, "table": [list(r) for r in inv.rows]}), 0


def cmd_enumerate(args):
    tables = tb.enumerate_racks(args.order, args.quandles, args.up_to_iso)
    payload = {
        "order": args.order,
        "quandles_only": args.quandles,
        "up_to_iso": args.up_to_iso,
        "count": len(tables),
        "tables": [[list(r) for r in t.rows] for t in tables],
    }
    return _ok(payload), 0


def cmd_congruences(args):
    t = _load_table(args.path)
    if args.partition is not None:
        p = cg.parse_partition(args.partition, t.order)
        cls = cg.classify_relation(t, p)
        payload = {
            "partition": [list(b) for b in p.blocks()],
            "class": cls.value,
        }
        return _ok(payload), 0
    report = cg.congruences_report(t)
    return _ok({"order": t.order, "count": len(report), "congruences": report}), 0


def cmd_quotient(args):
    t = _load_table(args.path)
    p = cg.parse_partition(args.partition, t.order)
    q = cg.quotient(t, p)
    qreport = tb.validate(q.table)
    payload = {
        "blocks": [list(b) for b in q.blocks],
        "table": [list(r) for r in q.table.rows],
        "is_rack": qreport.is_rack,
        "is_quandle": qreport.is_quandle,
    }
    return _ok(payload), 0


def cmd_subrack(args):
    t = _load_table(args.path)
    subset = sorted({int(tok) for tok in args.subset.split(",")})
    return _ok({"subset": subset, "is_subrack": cg.is_subrack(t, subset)}), 0


def _parse_map(text: str, r: tb.Table, s: tb.Table) -> cg.FiniteMap:
    image = tuple(int(tok) for tok in text.split(","))
    return cg.FiniteMap(r.order, s.order, image)


def cmd_hom_check(args):
    r, s = _load_table(args.domain), _load_table(args.codomain)
    f = _parse_map(args.map, r, s)
    return _ok({"is_homomorphism": cg.is_homomorphism(f, r, s)}), 0


def cmd_iso_check(args):
    r, s = _load_table(args.domain), _load_table(args.codomain)
    f = _parse_map(args.map, r, s)
    if not cg.is_homomorphism(f, r, s):
        return _error("map is not a homomorphism; no kernel or quotient exists"), 2
    ker = cg.kernel_partition(f, r, s)
    payload = {
        "is_homomorphism": True,
        "kernel_blocks": [list(b) for b in ker.blocks()],
        "kernel_class": cg.classify_relation(r, ker).value,
        "image": sorted(set(f.image)),
        "first_isomorphism": cg.first_isomorphism_check(f, r, s),
    }
    return _ok(payload), 0 if payload["first_isomorphism"] else 1


def _witness_json(ws) -> dict:
    out = {
        "role": ws.role,
        "descriptor": ws.descriptor.describe(),
        "status": ws.status.value,
    }
    if ws.half_witnesses:
        out["half_witness"] = {
            side: [str(v) for v in quad] for side, quad in sorted(ws.half_witnesses.items())
        }
    return out


def _check_samples(samples: int) -> None:
    if samples < 0:
        raise ValueError(f"--samples must be non-negative, got {samples}")


def _parse_weight(text: str):
    from . import weighted as wa

    try:
        value = wa.parse_rational(text)
    except ZeroDivisionError:
        raise ValueError(f"weight {text!r} has a zero denominator")
    return wa.Weight(value)


def cmd_classify_tau(args):
    from . import weighted as wa

    _check_samples(args.samples)
    w = _parse_weight(args.tau)
    failures = []
    if args.subgroup is not None:
        desc = wa.parse_descriptor(args.subgroup)
        status = wa.coset_congruence_status(desc, w)
        payload = {
            "tau": str(w.value),
            "descriptor": desc.describe(),
            "status": status.value,
        }
        halves = {}
        for side in (PRIMARY, INVERSE):
            quad = wa.find_half_witness(desc, w, side)
            if quad is not None:
                halves[side] = [str(v) for v in quad]
        if halves:
            payload["half_witness"] = halves
        if args.samples > 0:
            checks = {}
            for side in (PRIMARY, INVERSE):
                if side not in halves:
                    passed = wa.sampled_congruence_check(
                        desc, w, side, args.samples, args.seed
                    )
                    checks[side] = passed
                    if not passed:
                        failures.append(f"sampled {side} check failed")
            payload["sampled_checks"] = checks
        return _ok(payload, failures), 0 if not failures else 1

    result = wa.classify_weight(w)
    witnesses = []
    for ws in result.witnesses:
        wj = _witness_json(ws)
        if args.samples > 0:
            checks = {}
            for side in (PRIMARY, INVERSE):
                if side not in ws.half_witnesses:
                    passed = wa.sampled_congruence_check(
                        ws.descriptor, w, side, args.samples, args.seed
                    )
                    checks[side] = passed
                    if not passed:
                        failures.append(
                            f"sampled {side} check failed for {ws.descriptor.describe()}"
                        )
            wj["sampled_checks"] = checks
        witnesses.append(wj)
    payload = {
        "tau": str(w.value),
        "case": result.case,
        "explanation": result.explanation,
        "witnesses": witnesses,
    }
    return _ok(payload, failures), 0 if not failures else 1


# ---------------------------------------------------------------------------
# demos: print the named witnesses and check each asserted (in)equality

def _demo_b_ell(samples: int, seed: int):
    import random

    from . import shifts as sh

    w = sh.half_congruence_witnesses()
    a, b = w.zeros, w.spike_left
    ra, rb = sh.shift(a, sh.RIGHT), sh.shift(b, sh.RIGHT)
    checks = [
        ("witness pair agrees at indices >= 0", sh.agree_nonneg(a, b)),
        ("right shifts disagree at index 0", not sh.agree_nonneg(ra, rb)),
        ("right shift of pair differs exactly at index 0", ra.bit_at(0) == 0 and rb.bit_at(0) == 1),
    ]
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        x = sh.random_biseq(rng)
        y = sh.random_agree_partner(rng, x)
        if not sh.agree_nonneg(sh.shift(x, sh.LEFT), sh.shift(y, sh.LEFT)):
            ok = False
            break
    checks.append((f"left shift preserves the relation on {samples} samples", ok))
    payload = {
        "witnesses": {"zeros": sh.format_biseq(a), "spike_left": sh.format_biseq(b)},
    }
    return payload, checks


def _demo_b_quandle(samples: int, seed: int):
    import random

    from . import shifts as sh

    w = sh.half_congruence_witnesses()
    spike, step, ones = w.spike, w.step, w.ones
    r_spike = sh.shift(spike, sh.RIGHT)
    r_step = sh.shift(step, sh.RIGHT)
    checks = [
        ("spike and step agree at indices >= 0", sh.agree_nonneg(spike, step)),
        ("spike acted by ones (inverse) is its right shift",
         sh.seq_quandle_op(spike, ones, INVERSE) == r_spike),
        ("step acted by ones (inverse) is its right shift",
         sh.seq_quandle_op(step, ones, INVERSE) == r_step),
        ("the two right shifts do not agree at indices >= 0",
         not sh.agree_nonneg(r_spike, r_step)),
        ("both right shifts solve X * [ones] = [spike] in the quotient",
         sh.agree_nonneg(sh.seq_quandle_op(r_spike, ones, PRIMARY), spike)
         and sh.agree_nonneg(sh.seq_quandle_op(r_step, ones, PRIMARY), spike)),
    ]
    rng = random.Random(seed)
    axioms_ok = True
    for _ in range(samples):
        a, b, c = (sh.random_biseq(rng) for _ in range(3))
        if sh.seq_quandle_op(a, a, PRIMARY) != a:
            axioms_ok = False
        if sh.seq_quandle_op(sh.seq_quandle_op(a, b, PRIMARY), b, INVERSE) != a:
            axioms_ok = False
        if sh.seq_quandle_op(sh.seq_quandle_op(a, b, INVERSE), b, PRIMARY) != a:
            axioms_ok = False
        lhs = sh.seq_quandle_op(sh.seq_quandle_op(a, b, PRIMARY), c, PRIMARY)
        rhs = sh.seq_quandle_op(
            sh.seq_quandle_op(a, c, PRIMARY), sh.seq_quandle_op(b, c, PRIMARY), PRIMARY
        )
        if lhs != rhs:
            axioms_ok = False
        if not axioms_ok:
            break
    checks.append((f"quandle axioms hold on {samples} sampled triples", axioms_ok))
    cong_ok = True
    for _ in range(samples):
        a = sh.random_biseq(rng)
        c = sh.random_agree_partner(rng, a)
        b = sh.random_biseq(rng)
        d = sh.random_agree_partner(rng, b)
        if not sh.agree_nonneg(
            sh.seq_quandle_op(a, b, PRIMARY), sh.seq_quandle_op(c, d, PRIMARY)
        ):
            cong_ok = False
            break
    checks.append((f"relation respects the primary operation on {samples} samples", cong_ok))
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


def _demo_b0(samples: int, seed: int):
    from . import shifts as sh

    window = 20
    elements = [sh.NormalForm("c")]
    for k in range(-window, window + 1):
        elements.append(sh.NormalForm("a", k))
        elements.append(sh.NormalForm("b", k))
    idem = all(sh.normal_form_op(u, u, PRIMARY) == u for u in elements)
    inverse_ok = all(
        sh.normal_form_op(sh.normal_form_op(u, v, PRIMARY), v, INVERSE) == u
        and sh.normal_form_op(sh.normal_form_op(u, v, INVERSE), v, PRIMARY) == u
        for u in elements
        for v in elements
    )
    distrib_ok = True
    for u in elements:
        for v in elements:
            uv = sh.normal_form_op(u, v, PRIMARY)
            for z in elements:
                lhs = sh.normal_form_op(uv, z, PRIMARY)
                rhs = sh.normal_form_op(
                    sh.normal_form_op(u, z, PRIMARY), sh.normal_form_op(v, z, PRIMARY), PRIMARY
                )
                if lhs != rhs:
                    distrib_ok = False
                    break
            if not distrib_ok:
                break
        if not distrib_ok:
            break
    hom_ok = all(
        sh.embed_normal_form(sh.normal_form_op(u, v, side))
        == sh.seq_quandle_op(sh.embed_normal_form(u), sh.embed_normal_form(v), side)
        for u in elements
        for v in elements
        for side in (PRIMARY, INVERSE)
    )
    injective = len({sh.embed_normal_form(u) for u in elements}) == len(elements)
    checks = [
        (f"idempotence on powers within +-{window}", idem),
        (f"inverse identities on powers within +-{window}", inverse_ok),
        (f"right self-distributivity on powers within +-{window}", distrib_ok),
        (f"embedding is a homomorphism for both operations within +-{window}", hom_ok),
        (f"embedding is injective within +-{window}", injective),
    ]
    payload = {
        "window": window,
        "element_count": len(elements),
        "embeddings": {
            "a^0": sh.format_biseq(sh.embed_normal_form(sh.NormalForm("a", 0))),
            "a^1": sh.format_biseq(sh.embed_normal_form(sh.NormalForm("a", 1))),
            "b^0": sh.format_biseq(sh.embed_normal_form(sh.NormalForm("b", 0))),
            "c": sh.format_biseq(sh.embed_normal_form(sh.NormalForm("c"))),
        },
    }
    return payload, checks


def _demo_alexander(samples: int, seed: int):
    import random

    from . import laurent as la

    rng = random.Random(seed)
    cong_ok = True
    for _ in range(samples):
        f, g = la.random_laurent(rng), la.random_laurent(rng)
        f2 = la.random_relation_partner(rng, f)
        g2 = la.random_relation_partner(rng, g)
        if not la.parity_shift_relation(
            la.alexander_op(f, g, PRIMARY), la.alexander_op(f2, g2, PRIMARY)
        ):
            cong_ok = False
            break
    consistency_ok = True
    for _ in range(samples):
        f, g = la.random_laurent(rng, -2, 2, 2), la.random_laurent(rng, -2, 2, 2)
        if la.in_difference_set(f, g - f) != la.parity_shift_relation(f, g):
            consistency_ok = False
            break
    zero, one = la.ZERO, la.ONE
    distinct_sets = la.in_difference_set(zero, one) and not la.in_difference_set(one, one)
    submodule_ok = True
    inverse_violations = {}
    for gen_text in ("2", "t - 1", "t^2 + 1"):
        gen = la.parse_laurent(gen_text)
        for ring in (la.POLY_RING, la.LAURENT_RING):
            mod = la.PrincipalSubmodule(gen, ring)
            for _ in range(max(1, samples // 10)):
                f, g = la.random_laurent(rng), la.random_laurent(rng)
                f2 = f + mod.sample_member(rng)
                g2 = g + mod.sample_member(rng)
                gap = la.alexander_op(f2, g2, PRIMARY) - la.alexander_op(f, g, PRIMARY)
                if not mod.contains(gap):
                    submodule_ok = False
                if ring == la.LAURENT_RING:
                    gap_inv = la.alexander_op(f2, g2, INVERSE) - la.alexander_op(f, g, INVERSE)
                    if not mod.contains(gap_inv):
                        submodule_ok = False
            if ring == la.POLY_RING:
                # bounded search for an inverse-side violation; reported
                # as found/not found at this scale, never as a theorem
                found = None
                for k in range(1, 4):
                    cand = gen * la.LaurentPoly.constant(k)
                    gap = la.alexander_op(cand, zero, INVERSE) - la.alexander_op(
                        zero, zero, INVERSE
                    )
                    if not mod.contains(gap):
                        found = (str(zero), str(zero), str(cand), str(zero))
                        break
                inverse_violations[gen_text] = found or "none found at this scale"
    # bounded search for an inverse-side violation of the parity-shift
    # relation itself; the outcome is reported empirically ("at this
    # scale"), it is not asserted as a theorem
    small = [zero, one, -one, la.T, la.T - one, (la.T - one) * la.T]
    parity_violation = None
    for f in small:
        for g in small:
            for d1 in small:
                if parity_violation or not la.in_difference_set(f, d1):
                    continue
                for d2 in small:
                    if not la.in_difference_set(g, d2):
                        continue
                    f2, g2 = f + d1, g + d2
                    if not la.parity_shift_relation(
                        la.alexander_op(f, g, INVERSE), la.alexander_op(f2, g2, INVERSE)
                    ):
                        parity_violation = tuple(str(x) for x in (f, g, f2, g2))
                        break
    checks = [
        (f"parity-shift relation respects the primary operation on {samples} samples", cong_ok),
        (f"difference-set membership matches the relation on {samples} samples", consistency_ok),
        ("difference sets at 0 and at 1 differ (membership of the constant 1)", distinct_sets),
        ("principal submodules give primary congruences (and inverse for Laurent ring)", submodule_ok),
    ]
    payload = {
        "submodule_inverse_violations": inverse_violations,
        "parity_shift_inverse_violation": parity_violation or "none found at this scale",
    }
    return payload, checks


_DEMOS = {
    "b_ell": _demo_b_ell,
    "b_quandle": _demo_b_quandle,
    "b0": _demo_b0,
    "alexander": _demo_alexander,
}


def cmd_demo(args):
    handler = _DEMOS.get(args.name)
    if handler is None:
        return _error(f"unknown demo {args.name!r}; choose from {sorted(_DEMOS)}"), 2
    _check_samples(args.samples)
    payload, checks = handler(args.samples, args.seed)
    payload = dict(payload)
    payload["demo"] = args.name
    payload["checks"] = [{"name": n, "passed": p} for n, p in checks]
    failed = [n for n, p in checks if not p]
    diagnostics = [f"FAILED: {n}" for n in failed]
    return _ok(payload, diagnostics), 0 if not failed else 1


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that also accepts negative rationals like "-1/2"
    or "-2.5e-1" as positional values, and answers a usage error with a
    JSON error document on stdout and exit code 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$"
        )

    def error(self, message):
        print(json.dumps(_error(f"{self.prog}: {message}"), sort_keys=True))
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rackq",
        description="racks, quandles, congruences, quotients and half-congruence witnesses",
    )
    common = _Parser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("validate", help="check the axioms of a .rack table")
    p.add_argument("path")
    p.set_defaults(handler=cmd_validate)

    p = add_parser("inverse", help="table of the right-inverse operation")
    p.add_argument("path")
    p.set_defaults(handler=cmd_inverse)

    p = add_parser("enumerate", help="all racks or quandles of a small order")
    p.add_argument("order", type=int)
    p.add_argument("--quandles", action="store_true", help="idempotent tables only")
    p.add_argument("--up-to-iso", action="store_true", help="one table per isomorphism class")
    p.set_defaults(handler=cmd_enumerate)

    p = add_parser("congruences", help="classify partitions of a rack")
    p.add_argument("path")
    p.add_argument("--partition", help='partition literal, e.g. "0,2|1,3"')
    p.set_defaults(handler=cmd_congruences)

    p = add_parser("quotient", help="quotient rack by a full congruence")
    p.add_argument("path")
    p.add_argument("--partition", required=True)
    p.set_defaults(handler=cmd_quotient)

    p = add_parser("subrack", help="closure test for a subset")
    p.add_argument("path")
    p.add_argument("--subset", required=True, help='comma-separated indices, e.g. "0,2"')
    p.set_defaults(handler=cmd_subrack)

    p = add_parser("hom-check", help="is a map a rack homomorphism")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("--map", required=True, help='image list, e.g. "0,1,0,1"')
    p.set_defaults(handler=cmd_hom_check)

    p = add_parser("iso-check", help="first-isomorphism check for a homomorphism")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("--map", required=True)
    p.set_defaults(handler=cmd_iso_check)

    p = add_parser("classify-tau", help="four-way classification of a weight")
    p.add_argument("tau", help='rational literal, e.g. "2/3" or "-1"')
    p.add_argument("--subgroup", help='descriptor: "zero", "all" or "g:m"')
    p.add_argument("--samples", type=int, default=1000,
                   help="sampled checks per holding side (0 disables; default 1000)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_classify_tau)

    p = add_parser("demo", help="run a named witness suite")
    p.add_argument("name", choices=sorted(_DEMOS))
    p.add_argument("--samples", type=int, default=1000,
                   help="sample count for randomised checks (default 1000)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result, code = args.handler(args)
    except (ValueError, OSError) as exc:
        result, code = _error(str(exc)), 2
    print(json.dumps(result, sort_keys=True, indent=2 if args.pretty else None))
    return code


if __name__ == "__main__":
    sys.exit(main())
