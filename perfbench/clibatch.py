"""cli_batch: cold ``python -m rackq.cli`` subprocesses, one at a time.

Each op starts a fresh interpreter on one command of a fixed script, so
interpreter start-up, import, argparse and JSON dominate the short
commands, and work moved into import time shows here.  The script runs
every command on seeded ``.rack`` files (dihedral, Alexander, trivial
and constant-action racks of orders 3..8, relabelled by the seed), the
enumeration, weight classification and demo commands, and malformed
inputs that must give a JSON rejection with exit 2.

Three of the malformed inputs hit known rackq defects and are kept as
failed ops, so that fixing them reads as an improvement: ``classify-tau
1/0`` prints a traceback, ``--samples -5`` is accepted, and an oversized
tau runs until the per-command time limit kills it.
"""

import contextlib
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

from rackq import cli

import oracles
from spans import Op

# (family, order, parameter): the order schedule is fixed, so every seed
# does the same amount of work; the seed picks the relabelling, partitions,
# subsets and maps.
SLOTS = (
    ("dihedral", 3, None), ("dihedral", 4, None), ("dihedral", 5, None),
    ("dihedral", 6, None), ("dihedral", 7, None), ("dihedral", 8, None),
    ("alexander", 5, 2), ("alexander", 7, 3), ("alexander", 8, 3), ("alexander", 8, 5),
    ("trivial", 3, None), ("trivial", 7, None),
    ("constant", 5, (3, 2)), ("constant", 6, (3, 2, 1)), ("constant", 8, (4, 2, 2)),
    ("constant", 8, (8,)),
)
LIMIT_S = 60.0
# A correct rejection of the oversized tau takes milliseconds.
OVERSIZED_LIMIT_S = 2.0
DEMO_SAMPLES = "200"
TAU_SAMPLES = "100"
PROBES = 5
# Op times are reported unscaled (see reference.py): the ops run in child
# processes, whose speed a kernel timed in this process does not track,
# and a kernel timed in a spawned child varies more than the ops do.
SCALE_TIMES = False


def _base_rows(family, n, param):
    if family == "dihedral":
        return [[(2 * y - x) % n for y in range(n)] for x in range(n)]
    if family == "alexander":
        return [[(param * x + (1 - param) * y) % n for y in range(n)] for x in range(n)]
    if family == "trivial":
        return [[x] * n for x in range(n)]
    p, start = [], 0
    for length in param:
        p.extend(start + (i + 1) % length for i in range(length))
        start += length
    return [[p[x]] * n for x in range(n)]


def _base_labels(family, n, param, rng):
    """Block label of each element under a known full congruence."""
    if family in ("dihedral", "alexander"):
        d = next((k for k in range(2, n) if n % k == 0), 1)
        return [x % d for x in range(n)]
    if family == "trivial":
        return [rng.randrange(3) for _ in range(n)]
    return [i for i, length in enumerate(param) for _ in range(length)]


def _format(rows):
    return "\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows]) + "\n"


def _literal(labels):
    blocks = {}
    for x, b in enumerate(labels):
        blocks.setdefault(b, []).append(x)
    return "|".join(",".join(map(str, b)) for b in blocks.values())


def _expect(code, check=None):
    """A checker for exit code ``code`` and a JSON document on stdout;
    ``check(payload)`` returns a message or None."""
    def verdict(rc, out, err):
        if b"Traceback" in err:
            return f"traceback: {err.decode(errors='replace').strip().splitlines()[-1]}"
        try:
            doc = json.loads(out)
        except ValueError:
            return f"exit {rc} without a JSON document"
        if rc != oracles.planted("cli", code):
            return f"exit {rc}, expected {code}: {doc.get('diagnostics')}"
        if code == 2:
            return None if doc.get("status") == "error" else "rejection without error status"
        return check(doc["payload"]) if check else None

    return verdict


def _rack_commands(name, rows, labels, quandle, subset):
    n = len(rows)
    inv = [list(r) for r in oracles.inverse_rows(rows)]
    exponent = oracles.exponent(rows)
    k = len(set(labels))

    def validate(p):
        return None if (p["is_rack"], p["is_quandle"], p.get("exponent")) == (True, quandle, exponent) \
            else f"validate {name}: {p}"

    def congruences(p):
        classes = {c["class"] for c in p["congruences"]}
        if p["count"] != oracles.bell(n) or not all(oracles.half_class_allowed(c) for c in classes):
            return f"congruences {name}: count {p['count']}, classes {classes}"
        return None

    def quotient(p):
        if not p["is_rack"] or (quandle and not p["is_quandle"]) or len(p["blocks"]) != k:
            return f"quotient {name}: {p}"
        return None

    sub = oracles.is_subrack(rows, subset)
    identity = ",".join(map(str, range(n)))
    is_hom = oracles.is_homomorphism(rows, rows, list(range(n)))
    return [
        (["validate", name], _expect(0, validate), LIMIT_S, False),
        (["inverse", name], _expect(0, lambda p: None if p["table"] == inv else f"inverse {name}"),
         LIMIT_S, False),
        (["congruences", name], _expect(0, congruences), LIMIT_S, False),
        (["congruences", name, "--partition", _literal(labels)],
         _expect(0, lambda p: None if p["class"] == "Both" else f"partition class {p['class']}"),
         LIMIT_S, False),
        (["quotient", name, "--partition", _literal(labels)], _expect(0, quotient), LIMIT_S, False),
        (["subrack", name, "--subset", ",".join(map(str, subset))],
         _expect(0, lambda p: None if p["is_subrack"] == sub else f"subrack {name} {subset}"),
         LIMIT_S, False),
        (["hom-check", name, name, "--map", identity],
         _expect(0, lambda p: None if p["is_homomorphism"] == is_hom else f"identity of {name}"),
         LIMIT_S, False),
    ]


def _hom_commands(dom, cod, image, racks):
    is_hom = oracles.is_homomorphism(racks[dom], racks[cod], image)
    m = ",".join(map(str, image))
    out = [(["hom-check", dom, cod, "--map", m],
            _expect(0, lambda p: None if p["is_homomorphism"] == is_hom else f"hom-check {dom} {cod} {m}"),
            LIMIT_S, False)]
    if is_hom:
        out.append((["iso-check", dom, cod, "--map", m],
                    _expect(0, lambda p: None if p["first_isomorphism"] and p["kernel_class"] == "Both"
                            else f"iso-check {dom} {cod} {m}"), LIMIT_S, False))
    return out


def _tau_check(w):
    def check(p):
        if p["case"] != oracles.weight_case(w):
            return f"classify-tau {w}: case {p['case']}"
        for wj in p["witnesses"]:
            if wj["status"] != oracles.weight_status(w, wj["role"]):
                return f"classify-tau {w}, {wj['role']}: {wj['status']}"
            if not all(wj.get("sampled_checks", {}).values()):
                return f"classify-tau {w}, {wj['role']}: sampled check failed"
        return None

    return check


def _demo_check(p):
    return None if all(c["passed"] for c in p["checks"]) else f"demo {p['demo']}: {p['checks']}"


def setup(seed, workdir):
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    racks, perms, script = {}, {}, []
    for i, (family, n, param) in enumerate(SLOTS):
        perm = list(range(n))
        rng.shuffle(perm)
        rows = oracles.relabel_rows(_base_rows(family, n, param), perm)
        base = _base_labels(family, n, param, rng)
        labels = [0] * n
        for x in range(n):
            labels[perm[x]] = base[x]
        name = f"r{i:02d}_{family}{n}.rack"
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(_format(rows))
        racks[name], perms[name] = rows, perm
        subset = sorted(rng.sample(range(n), rng.randint(1, n)))
        script += _rack_commands(name, rows, labels, oracles.is_quandle(rows), subset)

    def projection(dom, cod, d):
        # x -> x mod d on the dihedral base labels, through both relabellings
        inv = {v: x for x, v in enumerate(perms[dom])}
        return [perms[cod][inv[y] % d] for y in range(len(perms[dom]))]

    names = list(racks)
    d3, d4, d6, d8, t3, t7 = (names[i] for i in (0, 1, 3, 5, 10, 11))
    for dom, cod, image in ((d6, d3, projection(d6, d3, 3)), (d8, d4, projection(d8, d4, 4)),
                            (t7, t3, [rng.randrange(3) for _ in range(7)]),
                            (d4, d8, [rng.randrange(8) for _ in range(4)])):
        script += _hom_commands(dom, cod, image, racks)

    for order, iso in ((3, False), (4, False), (4, True)):
        script.append((["enumerate", str(order)] + ["--up-to-iso"] * iso,
                       _expect(0, _count_check(order, iso)), LIMIT_S, False))
    for w in oracles.WEIGHT_TABLE:
        script.append((["classify-tau", str(w), "--samples", TAU_SAMPLES,
                        "--seed", str(rng.randrange(10**6))], _expect(0, _tau_check(w)),
                       LIMIT_S, False))
    script.append((["demo", "b0"], _expect(0, _demo_check), LIMIT_S, False))
    for demo in ("b_ell", "b_quandle", "alexander"):
        script.append((["demo", demo, "--samples", DEMO_SAMPLES, "--seed", str(rng.randrange(10**6))],
                       _expect(0, _demo_check), LIMIT_S, False))
    script += [
        (["validate", "missing.rack"], _expect(2), LIMIT_S, False),
        (["quotient", d3, "--partition", "0,1|x"], _expect(2), LIMIT_S, False),
        (["classify-tau", "1/0"], _expect(2), LIMIT_S, True),
        (["classify-tau", "2/3", "--samples", "-5"], _expect(2), LIMIT_S, True),
        (["classify-tau", "1000000007/1000000009", "--samples", "0"], _expect(2),
         OVERSIZED_LIMIT_S, True),
    ]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    material = repr((sorted(racks.items()), [argv for argv, _, _, _ in script]))
    return {"script": script, "workdir": workdir, "env": dict(os.environ, PYTHONPATH=src)}, material


def _count_check(order, iso):
    def check(p):
        count = oracles.enum_count(order, False, iso)
        if p["count"] != count or len(p["tables"]) != count:
            return f"enumerate: count {p['count']}, expected {count}"
        return None

    return check


def _spawn(inputs, argv, limit):
    return subprocess.run([sys.executable, "-m", "rackq.cli", *argv], cwd=inputs["workdir"],
                          env=inputs["env"], capture_output=True, timeout=limit)


def _command(inputs, argv, verdict, limit, known_defect):
    def run(tr, state):
        with tr.span("cli.spawn"):
            try:
                proc = _spawn(inputs, argv, limit)
            except subprocess.TimeoutExpired:
                return f"{' '.join(argv)}: killed at the {limit} s limit"
        tr.count("cli.json_bytes", len(proc.stdout))
        msg = verdict(proc.returncode, proc.stdout, proc.stderr)
        return f"{' '.join(argv)}: {msg}" if msg else None

    return Op("cli", ("cli",), run, known_defect)


def ops(inputs):
    return [_command(inputs, *cmd) for cmd in inputs["script"]]


class _TimeLimit(Exception):
    pass


def _alarm(signum, frame):
    raise _TimeLimit


def _timed_spawns(inputs, code):
    walls = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=inputs["workdir"], env=inputs["env"],
                       capture_output=True, timeout=LIMIT_S, check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def trace_extras(inputs, tr, op_seconds):
    """cli.* layer metrics: bare interpreter start, import of rackq.cli,
    in-process ``cli.main`` on the same script, and what a subprocess
    adds on top of it."""
    interp = _timed_spawns(inputs, "pass")
    imported = _timed_spawns(inputs, "import rackq.cli")
    mains, overheads = [], []
    cwd = os.getcwd()
    old = signal.signal(signal.SIGALRM, _alarm)
    os.chdir(inputs["workdir"])
    try:
        for (argv, _, limit, _), spawned in zip(inputs["script"], op_seconds):
            t0 = time.perf_counter()
            timed_out = False
            with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    cli.main(argv)
                except _TimeLimit:
                    timed_out = True
                except (ArithmeticError, ValueError, SystemExit):
                    pass  # the defects the script probes; the subprocess run judges them
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            main_s = time.perf_counter() - t0
            mains.append(main_s)
            if not timed_out and spawned < limit:
                overheads.append(spawned - main_s)
    finally:
        os.chdir(cwd)
        signal.signal(signal.SIGALRM, old)
    return {
        "cli.interp_ms": interp * 1e3,
        "cli.import_ms": (imported - interp) * 1e3,
        "cli.main_ms": statistics.median(mains) * 1e3,
        "cli.spawn_overhead_ms": statistics.median(overheads) * 1e3,
    }
