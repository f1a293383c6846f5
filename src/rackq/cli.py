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

# Only what every table command needs is imported here; the congruence,
# weight and demo commands import their modules when they run.
from . import tables as tb
from .tables import PRIMARY, INVERSE


def _ok(payload, diagnostics=()):
    return {"status": "ok", "payload": payload, "diagnostics": list(diagnostics)}


def _error(*diagnostics):
    return {"status": "error", "payload": {}, "diagnostics": list(diagnostics)}


# The most bytes a table file may hold.  A table of order 1,000 takes
# under 4 MB; an endless input such as /dev/zero is cut off here.
MAX_TABLE_BYTES = 16 * 1024 * 1024


def _load_table(path: str) -> tb.Table:
    with open(path, "rb") as fh:
        data = fh.read(MAX_TABLE_BYTES + 1)
    if len(data) > MAX_TABLE_BYTES:
        raise ValueError(f"table file {tb._quoted(path)} is longer than {MAX_TABLE_BYTES} bytes")
    # parse_rack ends lines where str.splitlines does, at \r\n and \r as
    # text mode did
    return tb.parse_rack(data.decode("utf-8"))


def _axiom_payload(t: tb.Table) -> dict:
    report = tb.validate(t)
    payload = dict(zip(report.__slots__, report._key(report)), order=t.order)
    if report.is_rack:
        payload["exponent"] = tb._exponent(t.rows)
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
    from . import congruence as cg

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
    from . import congruence as cg

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


def _int_list(text: str, option: str) -> list[int]:
    """The comma-separated integers of --subset or --map, with a short echo."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} must be comma-separated integers: {tb._quoted(text)}") from None


def cmd_subrack(args):
    from . import congruence as cg

    t = _load_table(args.path)
    subset = sorted(set(_int_list(args.subset, "--subset")))
    return _ok({"subset": subset, "is_subrack": cg.is_subrack(t, subset)}), 0


def cmd_hom_check(args):
    from . import congruence as cg

    r, s = _load_table(args.domain), _load_table(args.codomain)
    f = cg.FiniteMap(r.order, s.order, tuple(_int_list(args.map, "--map")))
    return _ok({"is_homomorphism": cg.is_homomorphism(f, r, s)}), 0


def cmd_iso_check(args):
    from . import congruence as cg

    r, s = _load_table(args.domain), _load_table(args.codomain)
    f = cg.FiniteMap(r.order, s.order, tuple(_int_list(args.map, "--map")))
    if not cg.is_homomorphism(f, r, s):
        return _error("map is not a homomorphism; no kernel or quotient exists"), 2
    ker = cg.Partition(f.image)  # the kernel of the homomorphism just checked
    payload = {
        "is_homomorphism": True,
        "kernel_blocks": [list(b) for b in ker.blocks()],
        "kernel_class": cg.classify_relation(r, ker).value,
        "image": sorted(set(f.image)),
        "first_isomorphism": cg._first_isomorphism(f, r, s, ker),
    }
    return _ok(payload), 0 if payload["first_isomorphism"] else 1


# The largest --samples a command takes.  `demo alexander` draws about
# 20,000 samples in 4.3 s on a 2-vCPU VM, so a run stays under half a
# minute there.
MAX_SAMPLES = 100_000


def _check_samples(samples: int) -> None:
    if samples < 0:
        raise ValueError(f"--samples must be non-negative, got {tb._quoted(samples)}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}, got {tb._quoted(samples)}")


# classify-tau draws at most this many --samples times digits (of the longest
# numerator or denominator of the weight and scale g): a sample's time grows
# with them, and 100,000 samples of a 4,300-digit weight took 32 s.
MAX_SAMPLED_DIGITS = 20 * MAX_SAMPLES


def _check_sampled_digits(samples: int, *values) -> None:
    digits = max(len(str(abs(n))) for v in values for n in (v.numerator, v.denominator))
    if samples * digits > MAX_SAMPLED_DIGITS:
        raise ValueError(f"--samples times the digits of the weight and subgroup scale "
                         f"must be at most {MAX_SAMPLED_DIGITS}, got {samples} x {digits}")


def _int_arg(text: str) -> int:
    """argparse type for the integer arguments: int, with a short echo."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {tb._quoted(text)}") from None


def _parse_weight(text: str):
    from . import weighted as wa

    try:
        value = wa.parse_rational(text)
    except ZeroDivisionError:
        raise ValueError(f"weight {tb._quoted(text)} has a zero denominator")
    if wa._unprintable(value):
        raise ValueError(f"weight {tb._quoted(text)} has a {wa._UNPRINTABLE}")
    return wa.Weight(value)


def _coset_json(w, ws, args, failures):
    """The classification of the coset relation of the WitnessStatus ws,
    its half witnesses, and the sampled congruence check of each side
    that has no half witness; a failed check is added to failures, naming
    the descriptor when ws has a role."""
    from . import weighted as wa

    desc, halves = ws.descriptor, ws.half_witnesses
    suffix = f" for {desc.describe()}" if ws.role else ""
    out = {"descriptor": desc.describe(), "status": ws.status.value}
    if halves:
        out["half_witness"] = {side: [str(v) for v in quad] for side, quad in halves.items()}
    if args.samples > 0:
        checks = out["sampled_checks"] = {}
        for side in (PRIMARY, INVERSE):
            if side not in halves:
                _check_sampled_digits(args.samples, w.value, desc.g)
                checks[side] = wa.sampled_congruence_check(desc, w, side, args.samples, args.seed)
                if not checks[side]:
                    failures.append(f"sampled {side} check failed{suffix}")
    return out


def cmd_classify_tau(args):
    from . import weighted as wa

    _check_samples(args.samples)
    w = _parse_weight(args.tau)
    failures = []
    if args.subgroup is not None:
        ws = wa._witness_status(None, wa.parse_descriptor(args.subgroup), w)
        payload = _coset_json(w, ws, args, failures)
    else:
        result = wa.classify_weight(w)
        payload = {
            "case": result.case,
            "explanation": result.explanation,
            "witnesses": [
                {"role": ws.role, **_coset_json(w, ws, args, failures)}
                for ws in result.witnesses
            ],
        }
    payload["tau"] = str(w.value)
    return _ok(payload, failures), 0 if not failures else 1


def cmd_demo(args):
    from . import demos

    _check_samples(args.samples)
    payload, checks = demos.run(args.name, args.samples, args.seed)
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
    p.add_argument("order", type=_int_arg)
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
    p.add_argument("--samples", type=_int_arg, default=1000,
                   help="sampled checks per holding side "
                        "(0 disables; default 1000; at most 100000)")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.set_defaults(handler=cmd_classify_tau)

    p = add_parser("demo", help="run a named witness suite")
    # the names of demos.DEMOS, listed here so that parsing does not load it
    p.add_argument("name", choices=("alexander", "b0", "b_ell", "b_quandle"))
    p.add_argument("--samples", type=_int_arg, default=1000,
                   help="sample count for randomised checks (default 1000; at most 100000)")
    p.add_argument("--seed", type=_int_arg, default=0)
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
