"""Child process of run.py: sets up one workload and, when measuring,
runs whole passes of it and prints one JSON record as its last line.

    python3 perfbench/worker.py --role setup|measure --workload NAME
        --seed N --seconds S --trace 0|1

A pass runs every op of the workload once, in order.  Passes repeat
while another one still fits in ``--seconds``; there is always at least
one.  With ``--trace 1`` the first half of the time runs untraced passes
and the second half traced ones, so that one run reports both the layer
metrics and the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import statistics
import sys
import time

import reference
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODULES = {"finite_census": "census", "infinite_witnesses": "witnesses", "cli_batch": "clibatch"}

# rackq functions the workloads call inside spans; each gets .calls and
# .busy_s (self time) per pass.
FUNCTIONS = (
    "tables.enumerate_racks", "tables.enumerate_racks_iso", "tables.validate",
    "tables.relabel", "tables.canonical_form",
    "congruence.enumerate_congruences", "congruence.quotient",
    "congruence.find_homomorphisms", "congruence.first_isomorphism_check",
    "laurent.sub", "laurent.mul", "laurent.eval_at_one", "laurent.in_difference_set",
    "laurent.parity_shift_relation", "laurent.alexander_op", "laurent.contains",
    "weighted.classify_weight", "weighted.find_half_witness",
    "weighted.sampled_congruence_check",
    "shifts.sampling", "shifts.shift", "shifts.seq_quandle_op", "shifts.agree_nonneg",
    "shifts.normal_form_op", "shifts.embed_normal_form",
    "cli.spawn",
)
LAYERS = ("tables", "congruence", "laurent", "weighted", "shifts", "cli")
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW_S = 1.0


def run_pass(wl, ops, tracer, first_op_id):
    """Runs every op once.  Unless the workload sets SCALE_TIMES = False,
    op times are scaled by reference samples (see reference.py)."""
    scale = getattr(wl, "SCALE_TIMES", True)
    sampler = reference.Sampler(REFERENCE_EVERY_S)
    state = {}
    starts, raw_s, failures = [], [], []
    with sampler if scale else contextlib.nullcontext():
        start = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = first_op_id + i
            # clock before counter at the start and counter before clock at
            # the end, so that a sample landing in between is never subtracted
            t0 = time.perf_counter()
            spent = sampler.spent
            with tracer.span("op." + op.kind):
                try:
                    msg = op.run(tracer, state)
                except Exception as exc:  # an op that raises has failed; the run goes on
                    msg = f"{op.kind}: raised {type(exc).__name__}: {exc}"
            spent = sampler.spent - spent
            starts.append(t0)
            raw_s.append(time.perf_counter() - t0 - spent)
            if msg:
                failures.append([i, op.kind, msg, op.known_defect])
        wall = time.perf_counter() - start
    op_s = reference.scale(starts, raw_s, sampler.samples, REFERENCE_WINDOW_S) if scale else raw_s
    return {"verdict_s": sum(op_s), "raw_verdict_s": sum(raw_s), "wall_s": wall,
            "op_s": op_s, "raw_op_s": raw_s, "failures": failures,
            "reference_s": statistics.median(r for _, r in sampler.samples) if scale else None}


def run_passes(wl, ops, tracer, budget_s, passes_before=0):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, ops, tracer, (passes_before + len(passes)) * len(ops)))
        if time.perf_counter() - start + passes[-1]["wall_s"] > budget_s:
            return passes


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops, n_passes):
    """Per-pass layer metrics from the spans of ``n_passes`` traced passes."""
    times = tracer.self_times()
    counters = tracer.counters
    m = {}
    for name in FUNCTIONS:
        calls, busy = times.get(name, (0, 0.0))
        m[name + ".calls"] = calls / n_passes
        m[name + ".busy_s"] = busy / n_passes
    canon_calls, canon_busy = times.get("tables.canonical_form", (0, 0.0))
    m["tables.canonical_form.us_per_call"] = _ratio(canon_busy * 1e6, canon_calls)
    partitions = counters["congruence.partitions"]
    m["congruence.partitions"] = partitions / n_passes
    m["congruence.us_per_partition"] = _ratio(
        times.get("congruence.enumerate_congruences", (0, 0.0))[1] * 1e6, partitions)
    m["congruence.hom_yield"] = _ratio(counters["congruence.homs_found"],
                                       counters["congruence.maps_tried"])
    m["congruence.half_congruences"] = counters["congruence.half_congruences"] / n_passes
    grid_busy = sum(end - start for name, start, end, _, op, _ in tracer.spans
                    if name.startswith("laurent.") and ops[op % len(ops)].kind == "grid_row")
    m["laurent.grid_pairs"] = counters["laurent.grid_pairs"] / n_passes
    m["laurent.us_per_grid_pair"] = _ratio(grid_busy * 1e6, counters["laurent.grid_pairs"])
    samples = counters["weighted.samples"]
    m["weighted.samples"] = samples / n_passes
    m["weighted.us_per_sample"] = _ratio(
        times.get("weighted.sampled_congruence_check", (0, 0.0))[1] * 1e6, samples)
    m["cli.json_bytes"] = counters["cli.json_bytes"] / n_passes
    total = sum(busy for _, busy in times.values())
    for layer in LAYERS + ("op",):
        busy = sum(b for name, (_, b) in times.items() if name.split(".")[0] == layer)
        m["share." + ("harness" if layer == "op" else layer)] = _ratio(100 * busy, total)
    m["trace.spans"] = len(tracer.spans) / n_passes
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", choices=sorted(MODULES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workdir = os.path.join(HERE, "work", args.workload)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    before = reference.sample()
    t0 = time.perf_counter()
    wl = importlib.import_module(MODULES[args.workload])
    inputs, material = wl.setup(args.seed, workdir)
    digest = hashlib.sha256(material.encode()).hexdigest()
    raw_setup = time.perf_counter() - t0
    local = (before + reference.sample()) / 2
    record = {"setup_s": raw_setup * reference.NOMINAL_S / local, "raw_setup_s": raw_setup,
              "digest": digest}
    if args.role == "setup":
        print(json.dumps(record))
        return 0

    ops = wl.ops(inputs)
    budget = args.seconds / 2 if args.trace else args.seconds
    record["passes"] = run_passes(wl, ops, Tracer(False), budget)
    if args.trace:
        tracer = Tracer(True)
        traced = run_passes(wl, ops, tracer, budget, len(record["passes"]))
        layers = layer_metrics(tracer, ops, len(traced))
        untraced_v = statistics.median(p["verdict_s"] for p in record["passes"])
        traced_v = statistics.median(p["verdict_s"] for p in traced)
        layers.update({
            "trace.verdict_s": traced_v,
            "trace.untraced_verdict_s": untraced_v,
            "trace.overhead_s": traced_v - untraced_v,
            "trace.overhead_pct": 100 * (traced_v - untraced_v) / untraced_v,
        })
        extra = Tracer(True)
        if hasattr(wl, "trace_extras"):
            op_seconds = [statistics.median(col) for col in zip(*(p["op_s"] for p in record["passes"]))]
            layers.update(wl.trace_extras(inputs, extra, op_seconds))
        else:
            layers.update(dict.fromkeys(
                ("cli.interp_ms", "cli.import_ms", "cli.main_ms", "cli.spawn_overhead_ms"), 0.0))
        # the in-process script runs once, outside the passes
        calls, busy = extra.self_times().get("cli.main", (0, 0.0))
        layers["cli.main.calls"], layers["cli.main.busy_s"] = calls, busy
        record["traced"] = traced
        record["layers"] = layers
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "calls"],
                       "spans": tracer.spans + extra.spans}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
