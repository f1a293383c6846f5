"""rackq benchmark: times rackq from outside on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rackq is imported from ``src/``.
Workloads: finite_census, infinite_witnesses, cli_batch (see
BENCHMARK.json and perfbench/NOTES.md).

The inputs come from ``--seed`` alone.  Set-up (import plus input
generation) runs in SETUP_SAMPLES fresh processes and ``setup_s`` is
their median; the last of them also measures, running whole passes of
the workload for about ``--seconds``.  Every verdict is checked against
an oracle in oracles.py.  The summary lines name every metric with its
unit; the last line is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
The exit code is 0 only when every output was correct; an op that fails
because of a known rackq defect is counted in ``failed`` without making
the run incorrect.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("finite_census", "infinite_witnesses", "cli_batch")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 175


class BenchError(Exception):
    pass


def _child(args, role, deadline):
    cmd = [sys.executable, WORKER, "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded the {RUN_LIMIT_S} s run limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentiles(seconds):
    cuts = statistics.quantiles(seconds, n=100, method="inclusive")
    return cuts[49] * 1e3, cuts[89] * 1e3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "rackq", "__init__.py")):
        print("perfbench: no rackq sources under src/; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [_child(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        result = _child(args, "measure", deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    passes = result["passes"]
    all_passes = passes + result.get("traced", [])
    op_s = [t for p in passes for t in p["op_s"]]
    p50, p90 = _percentiles(op_s)
    digests = {r["digest"] for r in setups + [result]}
    attempted = sum(len(p["op_s"]) for p in all_passes)
    failures = [f for p in all_passes for f in p["failures"]]
    unexpected = [f for f in failures if not f[3]]
    correct = len(digests) == 1 and not unexpected
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + [result]),
        "verdict_s": statistics.median(p["verdict_s"] for p in passes),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs_sha256 {result['digest']}")
    if len(digests) != 1:
        print(f"INCORRECT: set-up processes generated different inputs: {sorted(digests)}")
    print(f"passes {len(passes)} untraced, {len(all_passes) - len(passes)} traced; "
          f"{len(passes[0]['op_s'])} ops per pass; {len(op_s)} untraced ops")
    for m in spec["end_to_end"]:
        print(f"{m['name']} {e2e[m['name']]:.6g} {m['unit']}")
    raw50, raw90 = _percentiles([t for p in passes for t in p["raw_op_s"]])
    refs = [p["reference_s"] for p in passes if p["reference_s"]]
    print(f"unscaled: setup_s {statistics.median(r['raw_setup_s'] for r in setups + [result]):.6g} s, "
          f"verdict_s {statistics.median(p['raw_verdict_s'] for p in passes):.6g} s, "
          f"op_p50_ms {raw50:.6g} ms, op_p90_ms {raw90:.6g} ms"
          + (f"; reference kernel {statistics.median(refs) * 1e3:.4g} ms" if refs else ""))
    print(f"failed_share {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} ops)")
    for msg in sorted({f[2] for f in failures if f[3]}):
        print(f"known defect: {msg}")
    for f in unexpected:
        print(f"INCORRECT: op {f[0]} ({f[1]}): {f[2]}")
    if args.trace:
        values = result["layers"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        for name, v in metrics.items():
            print(f"{name} {v['value']:.6g} {v['unit']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
