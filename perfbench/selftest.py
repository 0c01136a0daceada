"""Quick self-test of the benchmark at tiny household sizes.

Run from the root of a checkout (takes well under a minute):

    python3 perfbench/selftest.py

For every workload it checks that each metric BENCHMARK.json names is
printed with its unit, under --trace 0 and --trace 1, that trace.coverage
is at least 0.95, that a matching reference passes, and that one
deliberately perturbed prediction counts as a failed evaluation. It also
checks that the command exits non-zero without a result in a directory
that holds only BENCHMARK.json and perfbench/.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

MIN_COVERAGE = 0.95


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def run_quietly(harness, *args, **kwargs):
    """run_benchmark with its output captured; returns (result, lines)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = harness.run_benchmark(*args, **kwargs)
    return result, buf.getvalue().splitlines()


@contextlib.contextmanager
def perturbed(evaluate):
    """Flip whether the first held-out prediction of every spec is right."""
    original = evaluate.run_method

    def run_method(hh, spec):
        pred, truth = original(hh, spec)
        labels = pred.labels.copy()
        right = labels[0] == truth[0]
        labels[0] = (truth[0] + 1) % len(hh.speakers) if right else truth[0]
        return dataclasses.replace(pred, labels=labels), truth

    evaluate.run_method = run_method
    try:
        yield
    finally:
        evaluate.run_method = original


def check_workload(harness, name: str, expected: dict) -> None:
    for trace in (False, True):
        result, lines = run_quietly(harness, name, harness.DEFAULT_SEED, 0.0, trace,
                                    tiny=True)
        line = json.loads(lines[-1])
        check(set(line) == {"correct", "attempted", "failed", "metrics"},
              f"{name}: result keys {sorted(line)}")
        check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
              f"{name}: clean run not correct: {lines[-1][:200]}")
        units = {k: v["unit"] for k, v in line["metrics"].items()}
        check(units == expected[trace], f"{name} trace={int(trace)}: metrics/units "
              f"differ from BENCHMARK.json: {sorted(set(units) ^ set(expected[trace]))}")
        printed = {p[1]: p[3] for p in (s.split() for s in lines)
                   if len(p) == 4 and p[0] == "metric"}
        check(printed == expected[trace], f"{name}: printed metric lines differ")
        if trace:
            coverage = line["metrics"]["trace.coverage"]["value"]
            check(coverage >= MIN_COVERAGE, f"{name}: trace.coverage {coverage:.3f}")

    workload = harness.WORKLOADS[name]
    reference = harness.reference_entry(workload, result.checker)
    result, _ = run_quietly(harness, name, harness.DEFAULT_SEED, 0.0, False,
                            tiny=True, reference=reference)
    check(result.line["correct"] and result.line["failed"] == 0,
          f"{name}: run against its own reference failed")
    with perturbed(harness.evaluate):
        result, _ = run_quietly(harness, name, harness.DEFAULT_SEED, 0.0, False,
                                tiny=True, reference=reference)
    check(result.line["failed"] >= 1 and not result.line["correct"]
          and result.extras["failed_frac"] > 0,
          f"{name}: perturbed predictions were not counted as failed")
    print(f"selftest {name}: ok")


def check_bare_directory(root: Path) -> None:
    """Without src/ the command must fail and print no result."""
    bare = root / ".perfbench-out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "single-view",
             "--seed", "7", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare directory: exit code 0")
    check('"metrics"' not in proc.stdout, "bare directory: printed a result")
    print("selftest bare directory: ok")


def main() -> int:
    root = Path.cwd()
    run.pin_blas_threads()
    run.use_checkout_sources(root)
    import harness

    spec = json.loads((root / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(harness.WORKLOAD_NAMES),
          "BENCHMARK.json workloads differ from harness.WORKLOADS")
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    for name in harness.WORKLOAD_NAMES:
        check_workload(harness, name, expected)
    check_bare_directory(root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
