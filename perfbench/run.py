"""Closed-loop household benchmark for speakergraph.

Run it from the root of a checkout, which must hold ``src/speakergraph``:

    python3 perfbench/run.py --workload single-view --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is a separate run that wraps the public functions of each
speakergraph module from outside and reports per-layer metrics. Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, plus the environment.
"""

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread. On a shared 2-core machine, OpenBLAS with 2 threads made
# every 368x368 solve cost ~168 ms instead of ~2.3 ms, and a single client
# has no second task to overlap with anyway. Must be set before numpy loads.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)


def use_checkout_sources(root: Path) -> None:
    """Import speakergraph from ``root/src``, never from an installed copy."""
    package = root / "src" / "speakergraph"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    import speakergraph
    if Path(speakergraph.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported speakergraph from {speakergraph.__file__}, "
                         f"not from {package}")


def main(argv=None) -> int:
    pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources(Path.cwd())

    import harness
    if args.workload not in harness.WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(harness.WORKLOAD_NAMES)}")
    harness.run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
