"""Workloads, set-up, closed loops, correctness checks and metrics.

One client evaluates households one after another: the next household
starts only when the previous one has finished (a closed loop). A
*household evaluation* runs every method spec of the workload on one
household, one ``evaluate.run_method`` call per spec; on ``sweep`` it is one
``evaluate.sweep`` call over the grid for one household. The loop cycles
through the households in id order until ``--seconds`` have passed and
every household has been evaluated at least once.

Import this module only after ``run.pin_blas_threads`` and
``run.use_checkout_sources``; it imports numpy and speakergraph.
"""

import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial.distance import pdist, squareform

from speakergraph.evaluate import MethodSpec
from speakergraph.fusion import EdgePoolFusion, PowerMeanFusion, SingleView
from speakergraph.graph import LocalScaling

import tracer

# The package re-exports a function named ``evaluate`` that shadows the
# submodule attribute, so take the modules from the import system.
dataio = importlib.import_module("speakergraph.dataio")
evaluate = importlib.import_module("speakergraph.evaluate")
simulate = importlib.import_module("speakergraph.simulate")

DEFAULT_SEED = 7
SETUP_REPEATS = 3
# p90 needs at least ten samples beyond it.
P90_MIN_SAMPLES = 100
OUT_DIR = Path(".perfbench-out")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

LOCAL = LocalScaling(k=20, s=0.5)
SWEEP_GRID = {
    "scaling.k": [10, 20, 40],
    "scaling.s": [0.25, 0.5, 1.0],
    "propagation.alpha": [0.5, 0.9, 0.99],
}
# Household sizes small enough for the self-test (n = 8 + 48 + 20 = 76,
# which still leaves room for k = 40 neighbours).
TINY = {"households_per_group": 3, "utterances_per_speaker": 60,
        "unlabeled_per_household": 48, "heldout_per_speaker": 5}


@dataclass(frozen=True)
class Workload:
    name: str
    simulation: dict          # SimulationConfig fields besides the seed
    split: str                # "val" is evaluated, "dev" is swept
    specs: tuple              # one run_method call each; the sweep template
    grid: dict | None = None  # sweep grid over specs[0]

    @property
    def points(self) -> list[str]:
        """Labels of what one household evaluation scores, in order."""
        if self.grid is None:
            return [spec.label for spec in self.specs]
        return [",".join(f"{name.split('.')[-1]}={value}"
                         for name, value in zip(self.grid, combo))
                for combo in itertools.product(*self.grid.values())]


def _lp(method, fusion):
    return MethodSpec(method, scaling=LOCAL, fusion=fusion)


def _workloads() -> dict[str, Workload]:
    voice = SingleView("voice")
    edge_pool = EdgePoolFusion(("voice", "face", "session"))
    baselines = tuple(MethodSpec(m) for m in ("CS", "CSEA", "2CS", "2CSEA"))
    paper = {"households_per_group": 9}
    return {w.name: w for w in (
        Workload("single-view", paper, "val",
                 baselines + tuple(_lp(m, voice) for m in ("LP", "2LP", "2LPEA"))),
        Workload("multi-view", {**paper, "face_outlier_rate": 0.1}, "val", (
            _lp("2LP", edge_pool),
            _lp("LP", PowerMeanFusion(("voice", "face"), p=1.0)),
            _lp("LP", PowerMeanFusion(("voice", "face"), p=-1.0)),
            _lp("2LP", PowerMeanFusion(("voice", "face"), p=-1.0)))),
        Workload("sweep", paper, "dev", (_lp("2LP", voice),), grid=SWEEP_GRID),
        Workload("large-household",
                 {"households_per_group": 6, "groups": ("random", "hard"),
                  "unlabeled_per_household": 1560, "utterances_per_speaker": 420},
                 "val", (MethodSpec("CS"), _lp("LP", voice), _lp("2LP", voice),
                         _lp("2LP", edge_pool))),
    )}


WORKLOADS = _workloads()
WORKLOAD_NAMES = tuple(WORKLOADS)


def metric_name(label: str) -> str:
    """Spec label as a metric-name fragment: 'LP/local/voice+face(pmean p=-1)'
    becomes 'LP-local-voice-face-pmean-p-m1'."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", label.replace("=-", "=m")).strip("-")


END_TO_END_UNITS = {"household_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
EXTRA_UNITS = {"samples": "count", "micro_sier": "fraction", "failed_frac": "fraction",
               "household_ms_p90": "ms", "sweep_ms_per_point": "ms",
               "wall_household_ms_p50": "ms", "wall_setup_s": "s", "probe_ms_p50": "ms"}
PER_LAYER_UNITS = {
    "graph.pairwise_distances.calls": "count",
    "graph.pairwise_distances.self_ms": "ms",
    "graph.affinity.calls": "count",
    "graph.affinity.self_ms": "ms",
    "graph.propagation_operator.self_ms": "ms",
    "graph.normalized_laplacian.calls": "count",
    "graph.sym_matrix_power.calls": "count",
    "graph.distance_reuse": "ratio",
    "fusion.pml_fuse.calls": "count",
    "fusion.edgepool_fuse.self_ms": "ms",
    "fusion.subgraph.self_ms": "ms",
    "fusion.propagation_matrix.calls": "count",
    "fusion.propagation_matrix.self_ms": "ms",
    "linalg.eigh.calls": "count",
    "propagation.propagate.calls": "count",
    "propagation.propagate.self_ms": "ms",
    "propagation.iterations": "count",
    "propagation.converged_frac": "fraction",
    "propagation.predict.self_ms": "ms",
    "linalg.solve.calls": "count",
    "baselines.calls": "count",
    "records.ordered.calls": "count",
    "records.ordered.self_ms": "ms",
    "evaluate.run_method.self_ms": "ms",
    "evaluate.build_household_graph.self_ms": "ms",
    "simulate.generate_dataset.ms": "ms",
    "dataio.save_dataset.ms": "ms",
    "dataio.load_dataset.ms": "ms",
    "dataio.jsonl_bytes": "bytes",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}
# Self times of layers that some workloads never call, printed as extras of
# the traced run with the workload's spec.<label>.ms times. As metrics they
# would be a time reading exactly 0 on every run of those workloads.
LAYER_EXTRAS = ("graph.normalized_laplacian.self_ms", "graph.sym_matrix_power.self_ms",
                "fusion.pml_fuse.self_ms", "linalg.eigh.self_ms", "linalg.solve.self_ms",
                "baselines.self_ms")


# ---------------------------------------------------------------------------
# Household evaluations and their correctness
# ---------------------------------------------------------------------------

def evaluate_household(workload: Workload, hh):
    """The unit the loop times. Returns the raw program outputs."""
    if workload.grid is not None:
        return evaluate.sweep([hh], workload.grid, workload.specs[0]).rows
    return [evaluate.run_method(hh, spec) for spec in workload.specs]


@dataclass(frozen=True)
class Outcome:
    """What one household evaluation predicted, per point, plus a digest."""

    errors: tuple[int, ...]
    heldout: tuple[int, ...]
    payloads: tuple[bytes, ...]
    digest: str


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def summarize(workload: Workload, raw, class_count: int) -> Outcome:
    """Check the outputs' shape and range; raise ValueError when invalid."""
    if len(raw) != len(workload.points):
        raise ValueError(f"{len(raw)} results for {len(workload.points)} points")
    errors, heldout, payloads = [], [], []
    if workload.grid is not None:
        for row in raw:
            if not 0 <= row["errors"] <= row["heldout"]:
                raise ValueError(f"sweep row errors out of range: {row}")
            errors.append(int(row["errors"]))
            heldout.append(int(row["heldout"]))
            payloads.append(str(row["errors"]).encode())
    else:
        for pred, truth in raw:
            labels = np.asarray(pred.labels)
            if labels.shape != truth.shape or truth.size == 0:
                raise ValueError(f"predictions {labels.shape} vs truth {truth.shape}")
            if labels.min() < -1 or labels.max() >= class_count:
                raise ValueError("predicted class index out of range")
            errors.append(int(np.sum(labels != truth)))
            heldout.append(int(truth.size))
            payloads.append(labels.astype("<i8").tobytes())
    return Outcome(tuple(errors), tuple(heldout), tuple(payloads), _digest(payloads))


class Checker:
    """Counts household evaluations that failed.

    An evaluation fails when it raises, returns invalid predictions, differs
    from the committed reference for this seed, or differs from the same
    household's first evaluation in this run.
    """

    def __init__(self, workload: Workload, households, reference: dict | None):
        self.workload = workload
        self.expected = reference["households"] if reference else None
        self.class_count = {hh.household_id: len(hh.speakers) for hh in households}
        self.first: dict[str, Outcome] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, hh_id: str, raw, exc: BaseException | None) -> None:
        self.attempted += 1
        problem = None
        if exc is not None:
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            try:
                outcome = summarize(self.workload, raw, self.class_count[hh_id])
            except ValueError as err:
                problem = f"invalid output: {err}"
            else:
                first = self.first.setdefault(hh_id, outcome)
                if outcome.digest != first.digest:
                    problem = f"digest {outcome.digest} != first evaluation {first.digest}"
                elif self.expected is not None and self.expected.get(hh_id) != outcome.digest:
                    problem = (f"digest {outcome.digest} != reference "
                               f"{self.expected.get(hh_id)}")
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{hh_id}: {problem}")

    def pooled(self) -> list[dict]:
        """Per point: errors and held-out pooled over households, and a digest."""
        ids = sorted(self.first)
        rows = []
        for i, label in enumerate(self.workload.points):
            rows.append({
                "point": label,
                "errors": sum(self.first[h].errors[i] for h in ids),
                "heldout": sum(self.first[h].heldout[i] for h in ids),
                "digest": _digest(h.encode() + self.first[h].payloads[i] for h in ids),
            })
        return rows


def micro_sier(workload: Workload, pooled: list[dict]) -> tuple[float, str | None]:
    """Pooled SIER over the specs; on a sweep, the best grid point's SIER
    (first point wins ties, as in evaluate.sweep)."""
    if workload.grid is None:
        return (sum(r["errors"] for r in pooled) / sum(r["heldout"] for r in pooled), None)
    best = min(pooled, key=lambda r: r["errors"] / r["heldout"])
    return best["errors"] / best["heldout"], best["point"]


def load_reference(workload: Workload, seed: int) -> dict | None:
    if not REFERENCE_PATH.is_file():
        return None
    data = json.loads(REFERENCE_PATH.read_text())
    return data.get(str(seed), {}).get(workload.name)


def reference_entry(workload: Workload, checker: Checker) -> dict:
    """What make_reference.py commits for one workload and seed."""
    pooled = checker.pooled()
    entry = {"households": {h: checker.first[h].digest for h in sorted(checker.first)},
             "points": pooled}
    if workload.grid is not None:
        entry["best_point"] = micro_sier(workload, pooled)[1]
    return entry


# ---------------------------------------------------------------------------
# Set-up: simulate, JSONL round trip, warm-up
# ---------------------------------------------------------------------------

def setup_once(workload: Workload, seed: int, tiny: bool, workdir: Path):
    """One set-up as a CLI user pays it. Returns households and stage times."""
    times = {}
    start = time.perf_counter()
    cfg = simulate.SimulationConfig(seed=seed, **{**workload.simulation,
                                                  **(TINY if tiny else {})})
    dev, val = simulate.generate_dataset(cfg)
    times["generate"] = time.perf_counter() - start
    t = time.perf_counter()
    dataio.save_dataset(dev, workdir / "dev.jsonl")
    dataio.save_dataset(val, workdir / "val.jsonl")
    times["save"] = time.perf_counter() - t
    t = time.perf_counter()
    households = dataio.load_dataset(workdir / f"{workload.split}.jsonl")
    times["load"] = time.perf_counter() - t
    # Warm-up: first calls into LAPACK and scipy pay one-off costs that
    # belong to set-up, not to the latency samples.
    evaluate_household(workload, households[0])
    times["total"] = time.perf_counter() - start
    times["bytes"] = sum((workdir / f).stat().st_size for f in ("dev.jsonl", "val.jsonl"))
    return households, times


def setup(workload: Workload, seed: int, tiny: bool, probe: "SpeedProbe"):
    """SETUP_REPEATS set-ups; keeps the last households and the median of
    each timing, the total also at reference speed."""
    workdir = OUT_DIR / f"data-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runs = []
    try:
        before = probe.read()
        for _ in range(SETUP_REPEATS):
            households = None
            gc.collect()
            households, times = setup_once(workload, seed, tiny, workdir)
            after = probe.read()
            times["calibrated"] = probe.calibrate(times["total"], before, after)
            before = after
            runs.append(times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return households, {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# ---------------------------------------------------------------------------
# Speed calibration
# ---------------------------------------------------------------------------

PROBE_INTERVAL_S = 0.25
# The probe's time on an uncontended core of the machine the benchmark was
# written on: a 2-vCPU x86-64 VM, numpy 2.4 with OpenBLAS 0.3.31, one thread.
PROBE_REFERENCE_S = 0.0135


class SpeedProbe:
    """Fixed work, timed between samples, that reads the machine's speed.

    On a shared 2-vCPU machine one household evaluation took 28 ms in one
    stretch of seconds and 44 ms in the next, and CPU time moved with wall
    time, so the core itself ran slower. The ratio of a household's time to
    this probe's time stayed within about 2% across both states. Reported
    timings are therefore at reference speed: each is scaled by
    PROBE_REFERENCE_S over the mean of the probes just before and just after
    it. The probe mixes what households spend time on: pairwise distances,
    an elementwise kernel, a row sort, a dense solve, a small eigh, a
    matrix product too large for L2, JSON and a Python loop. Raw wall times
    are printed beside the calibrated ones.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = rng.normal(size=(368, 16))
        a = rng.random((368, 368))
        self._system = a + a.T + 400.0 * np.eye(368)
        self._rhs = rng.random((368, 4))
        self._block = self._system[:160, :160]
        self._large = rng.random((1600, 1600))
        self._vectors = rng.random((1600, 4))
        self._floats = rng.random(2000).tolist()
        self.times: list[float] = []
        self._last = -float("inf")
        for _ in range(2):  # first calls pay one-off costs
            self._work()

    def _work(self) -> None:
        dist = squareform(pdist(self._points))
        np.exp(-(dist / 3.0) ** 2)
        np.sort(dist, axis=1)
        np.linalg.solve(self._system, self._rhs)
        np.linalg.eigh(self._block)
        self._large @ self._vectors
        json.loads(json.dumps(self._floats))
        total = 0
        for i in range(5000):
            total += i * i

    def read(self) -> int:
        """Time the probe once; returns the index of the reading."""
        start = time.perf_counter()
        self._work()
        self._last = time.perf_counter()
        self.times.append(self._last - start)
        return len(self.times) - 1

    def due(self) -> bool:
        return time.perf_counter() - self._last >= PROBE_INTERVAL_S

    def calibrate(self, seconds: float, before: int, after: int) -> float:
        """A timing taken between readings ``before`` and ``after``, at reference speed."""
        return seconds * PROBE_REFERENCE_S / ((self.times[before] + self.times[after]) / 2)


# ---------------------------------------------------------------------------
# Closed loops
# ---------------------------------------------------------------------------

def _timed(workload, hh):
    start = time.perf_counter()
    try:
        raw, exc = evaluate_household(workload, hh), None
    except Exception as err:  # a failed evaluation is counted, not fatal
        raw, exc = None, err
    return time.perf_counter() - start, raw, exc


def _schedule(households, seconds: float):
    """Households in id order, cycling, until time is up and each ran once."""
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if i >= len(households) and time.perf_counter() >= deadline:
            return
        yield i, households[i % len(households)]


def timed_loop(workload: Workload, households, seconds: float, checker: Checker,
               probe: SpeedProbe):
    """One latency sample per evaluation: (wall seconds, at reference speed)."""
    samples = []
    before = probe.read()
    for _, hh in _schedule(households, seconds):
        if probe.due():
            before = probe.read()
        wall, raw, exc = _timed(workload, hh)
        checker.record(hh.household_id, raw, exc)
        samples.append((wall, before))
    probe.read()
    # The first reading after a sample is always the next one.
    walls = [wall for wall, _ in samples]
    return walls, [probe.calibrate(wall, k, k + 1) for wall, k in samples]


def traced_loop(workload: Workload, households, seconds: float, checker: Checker,
                recorder: tracer.Recorder):
    """Each household twice in a row, untraced then traced, so the two walls
    compare the same work. Returns both lists of walls."""
    untraced, traced = [], []
    for i, hh in _schedule(households, seconds):
        wall, raw, exc = _timed(workload, hh)
        checker.record(hh.household_id, raw, exc)
        untraced.append(wall)
        with recorder.installed(f"{i}:{hh.household_id}"):
            wall, raw, exc = _timed(workload, hh)
        checker.record(hh.household_id, raw, exc)
        traced.append(wall)
    return untraced, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_metrics(workload: Workload, recorder: tracer.Recorder, traced_walls,
                  untraced_walls, setup_times) -> tuple[dict, dict]:
    """Per-layer metrics and extras, each per household evaluation (sweep:
    per point)."""
    spans = recorder.spans
    own = recorder.self_times()
    units = len(traced_walls) * (len(workload.points) if workload.grid else 1)
    calls, self_ms = Counter(), Counter()
    for span, own_s in zip(spans, own):
        calls[span[0]] += 1
        self_ms[span[0]] += 1000.0 * own_s

    def per(value):
        return value / units

    m = {}
    for key in (*PER_LAYER_UNITS, *LAYER_EXTRAS):
        parts = key.split(".")
        if len(parts) == 3 and parts[2] in ("calls", "self_ms") and parts[0] != "spec":
            name = f"{parts[0]}.{parts[1]}"
            m[key] = per(calls[name] if parts[2] == "calls" else self_ms[name])

    distance_calls = [s for s in spans if s[0] == "graph.pairwise_distances"]
    distinct = {(s[4], s[5]) for s in distance_calls}
    m["graph.distance_reuse"] = len(distinct) / len(distance_calls) if distance_calls else 1.0
    solves = [s[5] for s in spans if s[0] == "propagation.propagate"]
    m["propagation.iterations"] = per(sum(iters for iters, _ in solves))
    m["propagation.converged_frac"] = (sum(ok for _, ok in solves) / len(solves)
                                       if solves else 1.0)
    m["baselines.calls"] = per(sum(v for k, v in calls.items() if k.startswith("baselines.")))
    m["baselines.self_ms"] = per(sum(v for k, v in self_ms.items()
                                     if k.startswith("baselines.")))
    m["simulate.generate_dataset.ms"] = 1000.0 * setup_times["generate"]
    m["dataio.save_dataset.ms"] = 1000.0 * setup_times["save"]
    m["dataio.load_dataset.ms"] = 1000.0 * setup_times["load"]
    m["dataio.jsonl_bytes"] = setup_times["bytes"]
    spec_ms = Counter()
    for span in spans:
        if span[0] == "evaluate.run_method":
            spec_ms[span[5]] += 1000.0 * (span[2] - span[1])
    extras = {key: m[key] for key in LAYER_EXTRAS}
    for label in dict.fromkeys(spec.label for spec in workload.specs):
        extras[f"spec.{metric_name(label)}.ms"] = per(spec_ms[label])
    roots = sum(s[2] - s[1] for s in spans if s[3] is None
                and s[0] in ("evaluate.run_method", "evaluate.sweep"))
    m["trace.coverage"] = roots / sum(traced_walls)
    m["trace.overhead_frac"] = sum(traced_walls) / sum(untraced_walls) - 1.0
    return {key: m[key] for key in PER_LAYER_UNITS}, extras


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
        return int(out)
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@dataclass
class Result:
    line: dict
    checker: Checker
    extras: dict


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, reference: dict | None = None) -> Result:
    """Set up, run the closed loop, check, and print the metrics.

    The committed reference for (workload, seed) applies unless ``tiny``;
    the self-test passes its own ``reference`` instead.
    """
    workload = WORKLOADS[name]
    if reference is None and not tiny:
        reference = load_reference(workload, seed)
    probe = SpeedProbe()
    households, setup_times = setup(workload, seed, tiny, probe)
    checker = Checker(workload, households, reference)
    if trace:
        recorder = tracer.Recorder()
        untraced, traced = traced_loop(workload, households, seconds, checker, recorder)
    else:
        untraced, calibrated = timed_loop(workload, households, seconds, checker, probe)
    pooled = checker.pooled()
    sier, best_point = micro_sier(workload, pooled) if pooled else (float("nan"), None)
    if reference is not None and (pooled != reference["points"]
                                  or best_point != reference.get("best_point")):
        checker.errors.append("pooled points differ from the reference")

    if trace:
        units = PER_LAYER_UNITS
        metrics, layer_extras = layer_metrics(workload, recorder, traced, untraced,
                                              setup_times)
    else:
        units = END_TO_END_UNITS
        metrics = {
            "household_ms_p50": 1000.0 * statistics.median(calibrated),
            "setup_s": setup_times["calibrated"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    samples = len(untraced)
    extras = {
        "samples": samples,
        "micro_sier": sier,
        "failed_frac": checker.failed / checker.attempted,
        "reference": "committed" if reference is not None else "none for this seed",
    }
    if not trace:
        if samples >= P90_MIN_SAMPLES:
            extras["household_ms_p90"] = 1000.0 * statistics.quantiles(calibrated, n=10)[-1]
        if workload.grid is not None:
            extras["sweep_ms_per_point"] = (metrics["household_ms_p50"]
                                            / len(workload.points))
        extras["wall_household_ms_p50"] = 1000.0 * statistics.median(untraced)
        extras["wall_setup_s"] = setup_times["total"]
        extras["probe_ms_p50"] = 1000.0 * statistics.median(probe.times)
    else:
        extras.update(layer_extras)
    if workload.grid is not None:
        extras["best_point"] = best_point

    env = environment()
    sizes = sorted({len(hh.utterances) for hh in households})
    shape = {"households": len(households),
             "nodes_per_household": "-".join(str(s) for s in sorted({sizes[0], sizes[-1]})),
             "points": len(workload.points), "split": workload.split}
    correct = checker.failed == 0 and not checker.errors
    line = {"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}"
          f"{' tiny' if tiny else ''}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("workload " + " ".join(f"{k}={v}" for k, v in shape.items()))
    for row in pooled:
        print(f"point {row['point']} errors={row['errors']} heldout={row['heldout']} "
              f"digest={row['digest']}")
    for problem in checker.errors:
        print(f"failure {problem}")
    for key, value in metrics.items():
        print(f"metric {key} {value:.6g} {units[key]}")
    for key, value in extras.items():
        unit = EXTRA_UNITS.get(key, "ms" if key.endswith("ms") else "")
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"extra {key} {shown} {unit}".rstrip())

    if not tiny:
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
        stem.with_suffix(".json").write_text(json.dumps(
            {**line, "env": env, "workload": shape, "extras": extras, "points": pooled,
             "failures": checker.errors}, indent=1))
        if trace:
            with stem.with_suffix(".spans.jsonl").open("w") as fh:
                for span in recorder.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(line))
    return Result(line=line, checker=checker, extras=extras)
