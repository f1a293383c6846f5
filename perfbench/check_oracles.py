"""Checks that every oracle family can fail.

    python3 perfbench/check_oracles.py

For each family in ``oracles.FAMILIES`` this plants a wrong answer
(``oracles.PLANT``), runs a few ops of every workload that consult the
family, and confirms that they are counted as failed ops, the count
that ``failed`` and failed_share report.  The same ops run once with
nothing planted and must all pass, apart from ops marked as known rackq
defects.  Exits 1 if any family goes undetected.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import census  # noqa: E402
import clibatch  # noqa: E402
import oracles  # noqa: E402
import witnesses  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402

OPS_PER_FAMILY = 3
SEED = 1


def _selected(module, family):
    inputs, _ = module.setup(SEED, os.path.join(HERE, "work", "check_oracles"))
    ops = module.ops(inputs)
    # racks of order <= 4 for the census ops that need them; cheap to enumerate
    prelude = [op for op in ops if op.kind == "enumerate"][:16] if module is census else []
    chosen = [op for op in ops if family in op.families and not op.known_defect]
    return prelude, chosen[:OPS_PER_FAMILY]


def _failures(module, prelude, chosen):
    result = run_pass(module, prelude + chosen, Tracer(False), 0)
    return [f for f in result["failures"] if f[0] >= len(prelude)]


def main():
    undetected = []
    for family in oracles.FAMILIES:
        attempted = failed = clean_failures = 0
        for module in (census, witnesses, clibatch):
            prelude, chosen = _selected(module, family)
            if not chosen:
                continue
            oracles.PLANT = None
            clean_failures += len(_failures(module, prelude, chosen))
            oracles.PLANT = family
            failed += len(_failures(module, prelude, chosen))
            oracles.PLANT = None
            attempted += len(chosen)
        ok = attempted and failed == attempted and clean_failures == 0
        print(f"{family:12s} planted: {failed}/{attempted} ops failed; "
              f"clean: {clean_failures} failed  {'ok' if ok else 'NOT DETECTED'}")
        if not ok:
            undetected.append(family)
    if undetected:
        print(f"undetected oracle families: {undetected}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
