"""Regenerate perfbench/reference.json: the correctness reference.

For each workload at the default seed it records one digest of the predicted
labels per household, and per spec (or sweep grid point) the pooled error
count, held-out count and a digest over households; for the sweep also the
best grid point. Run from the root of a checkout, only when a change is
meant to alter predictions:

    python3 perfbench/make_reference.py
"""

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    run.pin_blas_threads()
    run.use_checkout_sources(Path.cwd())
    import harness

    seed = harness.DEFAULT_SEED
    entries = {}
    for name, workload in harness.WORKLOADS.items():
        workdir = harness.OUT_DIR / "reference-data"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            households, _ = harness.setup_once(workload, seed, False, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        checker = harness.Checker(workload, households, None)
        for hh in households:
            checker.record(hh.household_id, harness.evaluate_household(workload, hh), None)
        if checker.failed:
            print("\n".join(checker.errors), file=sys.stderr)
            return 1
        entries[name] = harness.reference_entry(workload, checker)
        print(f"{name}: {len(households)} households")
    harness.REFERENCE_PATH.write_text(json.dumps({str(seed): entries}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
