"""SIER evaluation, per-group reporting, and grid sweeps.

SIER is 1 minus top-1 accuracy over held-out utterances; abstentions count
as errors. Aggregation is always the micro-average: pooled error count over
pooled held-out count, never a mean of per-household rates. Relative
improvement against the strongest baseline follows
(best_baseline - method) / best_baseline.
"""

import contextvars
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .baselines import (PredictionResult, _class_indices, _normalize_rows, run_2cs, run_2csea,
                        run_cs, run_csea)
# MethodSpec and the method names stay importable from this module.
from .config import BASELINE_METHODS, LP_METHODS, METHODS, MethodSpec, apply_param
from .errors import _WARNING_PREFIX, ConfigurationError, SpeakerGraphError, StructuralError
from .fusion import EdgePoolFusion, SingleView, _fuse_weights, _max_into
from .graph import (
    CohortScaling,
    EmbeddingView,
    LocalScaling,
    UniversalScaling,
    ViewDistances,
    _by_views,
    _lend,
    _session_kernel,
)
from .propagation import HouseholdGraph, SolveSchedule
from .records import ROLE_ENROLLED, ROLE_UNLABELED, HouseholdDataset

SESSION_VIEW = "session"
_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# Per-household execution
# ---------------------------------------------------------------------------

def _graph_groups(specs: Sequence[MethodSpec]) -> list[list[int]]:
    """Indices of the specs that share a graph, grouped in order of first
    appearance. Specs share a graph when they agree on every field
    build_household_graph reads (compared, not hashed: a cohort scaling holds
    a dict). Baselines build no graph; they group the same way."""
    keys: list[tuple] = []
    groups: list[list[int]] = []
    for i, spec in enumerate(specs):
        key = (spec.scaling, spec.fusion, spec.session_sigma, spec.unit_normalize)
        if key not in keys:
            keys.append(key)
            groups.append([])
        groups[keys.index(key)].append(i)
    return groups


class HouseholdStages:
    """One household's quantities for a list of specs, each built once and
    keyed only by the spec fields it reads:

    - the records in graph node order (enrolled, unlabeled, held-out), with
      class indices for the enrolled and held-out ones;
    - each view's matrix, keyed by (view, ``unit_normalize``);
    - each view's distances and one neighbor sort to the specs' widest local
      k, under the same key, kept only when more than one of the specs'
      graphs reads them (see _graph_groups for which specs share one).

    Affinities are built from these on each call and not kept. A view whose
    distances are not kept has its kernel built in their buffer. Where the
    specs solve more than one (graph group, alpha) system, as a sweep's do,
    ``spare`` lists n x n buffers (see graph._lend) for the SolveSchedules'
    systems and the kernel of a graph of one vector view whose distances are
    kept, lent until the next graph; a graph that builds other n x n arrays
    (more views, a power mean, distances not kept) first drops the idle ones.
    Without them the household owns its graphs (see SolveSchedule's own_graph).
    """

    def __init__(self, hh: HouseholdDataset, specs: Sequence[MethodSpec]):
        self.household_id, self.group = hh.household_id, hh.group
        self.records = hh.ordered()
        class_of = {spk: i for i, spk in enumerate(hh.speakers)}
        self.class_count = len(class_of)
        roles = [r.role for r in self.records]
        l = roles.count(ROLE_ENROLLED)
        self.n_unlabeled = u = roles.count(ROLE_UNLABELED)
        self.labels = np.array([class_of[r.speaker] for r in self.records[:l]], dtype=int)
        for r in self.records[l + u:]:
            if r.speaker is None:
                raise StructuralError(f"{r.utt_id}: held-out utterance without ground truth")
            if r.speaker not in class_of:
                raise StructuralError(
                    f"{r.utt_id}: speaker {r.speaker!r} has zero enrolled utterances")
        self.truth = np.array([class_of[r.speaker] for r in self.records[l + u:]], dtype=int)
        if self.truth.size == 0:
            raise StructuralError(f"household {hh.household_id}: no held-out utterances to score")
        self.k_max = max((s.scaling.k for s in specs if isinstance(s.scaling, LocalScaling)),
                         default=1)
        groups = [g for g in _graph_groups(specs) if not specs[g[0]].is_baseline]
        systems = len({(g[0], specs[i].propagation.alpha) for g in groups for i in g})
        self.spare, self._lent = ([] if systems > 1 else None), None
        readers = Counter((name, specs[g[0]].unit_normalize)
                          for g in groups for name in set(specs[g[0]].fusion.view_names))
        self._shared = {key for key, count in readers.items() if count > 1}
        self._matrices: dict[tuple[str, bool], np.ndarray] = {}
        self._distances: dict[tuple[str, bool], ViewDistances] = {}

    def _matrix(self, name: str, unit_normalize: bool = False) -> np.ndarray:
        key = (name, unit_normalize)
        if key not in self._matrices:
            if unit_normalize:
                matrix = _normalize_rows(self._matrix(name))
            else:
                try:
                    matrix = np.array([r.views[name] for r in self.records])
                except KeyError as exc:
                    raise ConfigurationError(f"view {name!r} missing from dataset") from exc
                except ValueError as exc:  # rows of more than one dimension
                    raise StructuralError(f"view {name!r}: rows differ in dimension") from exc
            self._matrices[key] = matrix
        return self._matrices[key]

    def _affinity(self, name: str, spec: MethodSpec, out: np.ndarray | None = None) -> np.ndarray:
        if name == SESSION_VIEW:
            return _session_kernel([r.session_id for r in self.records], spec.session_sigma)
        view_key = (name, spec.unit_normalize)
        distances = self._distances.get(view_key) or ViewDistances(
            EmbeddingView(name, self._matrix(*view_key)), self.k_max)
        if view_key in self._shared:
            self._distances[view_key] = distances
        else:  # the distances' only reader: the kernel takes their buffer
            out = distances.dist
        return distances._affinity(spec.scaling, self.group, out)

    def _lend_kernel(self, spec: MethodSpec) -> np.ndarray | None:
        """The spare array for the kernel of spec's graph, or None (see the class)."""
        name, n, spare = spec.fusion.view_names[0], len(self.records), self.spare
        key = (name, spec.unit_normalize)
        one_kernel = (spare is not None and name != SESSION_VIEW and key in self._shared
                      and spec.fusion == SingleView(name))
        if self._lent is not None:  # the previous graph's, whose specs have all ended
            spare.append(self._lent.base)
        if spare and not (one_kernel and key in self._distances):
            spare.clear()
        self._lent = _lend(spare, n, n) if one_kernel else None
        return self._lent


def build_household_graph(stages: HouseholdStages, spec: MethodSpec) -> HouseholdGraph:
    """Per-view affinities under the spec's scaling, fused per the spec's rule.

    The session view always uses the fixed bandwidth spec.session_sigma;
    cohort scaling is keyed by the household's group tag. Each view named is
    built once, as a task of graph._by_views, in a buffer stages may lend or
    in its distances' (see HouseholdStages). The kernels are this call's own,
    so an edge pool accumulates in the first one; where views are built one
    after another, each other one as soon as it is built (two kernels alive).
    """
    names = list(dict.fromkeys(spec.fusion.view_names))
    out, pool = stages._lend_kernel(spec), isinstance(spec.fusion, EdgePoolFusion)
    built = _by_views(len(stages.records), names, lambda name: stages._affinity(name, spec, out),
                      (lambda first, w: _max_into(first, (first, w))) if pool else None)
    weights = built if pool else [built[names.index(name)] for name in spec.fusion.view_names]
    return HouseholdGraph(fused=_fuse_weights(weights, spec.fusion), labels=stages.labels,
                          n_unlabeled=stages.n_unlabeled, n_heldout=stages.truth.size,
                          class_count=stages.class_count)


def primary_view_name(spec: MethodSpec) -> str:
    for name in spec.fusion.view_names:
        if name != SESSION_VIEW:
            return name
    raise ConfigurationError("no vector view available (session-only graph)")


def _attributed(stages: HouseholdStages, spec: MethodSpec, run: Callable[[], _T]) -> _T:
    """run(), with each DegeneracyWarning it raises starting "household <id>, <label>: "."""
    context = contextvars.copy_context()
    context.run(_WARNING_PREFIX.set, f"household {stages.household_id}, {spec.label}: ")
    return context.run(run)


def _predictions(stages: HouseholdStages, specs: Sequence[MethodSpec]
                 ) -> Iterator[PredictionResult | SpeakerGraphError]:
    """evaluate_methods' per-group step: yield, spec by spec, the held-out
    predictions of specs that share one graph, or the SpeakerGraphError that
    stopped the spec. The graph and its SolveSchedule are built here and
    released with the generator; if building the graph fails, that error
    stops every spec."""
    try:
        schedule = None if specs[0].is_baseline else _attributed(stages, specs[0], lambda: (
            SolveSchedule(build_household_graph(stages, specs[0]),
                          [(spec.method, spec.propagation) for spec in specs], stages.spare,
                          own_graph=stages.spare is None)))
    except SpeakerGraphError as exc:
        yield from [exc] * len(specs)
        return
    for spec in specs:
        try:
            yield _attributed(stages, spec, lambda: _predict(stages, spec, schedule))
        except SpeakerGraphError as exc:
            yield exc


def _predict(stages: HouseholdStages, spec: MethodSpec,
             schedule: SolveSchedule | None) -> PredictionResult:
    if spec.is_baseline:
        emb = stages._matrix(spec.view)
        l, u = stages.labels.size, stages.n_unlabeled
        labeled, unlabeled, heldout = emb[:l], emb[l:l + u], emb[l + u:]
        runner = {"CS": run_cs, "CSEA": run_csea}.get(spec.method)
        if runner is not None:
            return runner(labeled, stages.labels, heldout, stages.class_count)
        runner = {"2CS": run_2cs, "2CSEA": run_2csea}[spec.method]
        return runner(labeled, stages.labels, unlabeled, heldout, stages.class_count)
    embeddings = stages._matrix(primary_view_name(spec)) if spec.method == "2LPEA" else None
    return schedule.predict(spec.method, spec.propagation, embeddings)


def run_method(hh: HouseholdDataset, spec: MethodSpec) -> tuple[PredictionResult, np.ndarray]:
    """Predictions of one spec for the household's held-out utterances, plus
    ground truth.

    Runs the stages evaluate_methods runs, on a schedule of one spec. With
    one graph to build it keeps no distances, each dropped as soon as its
    affinity is built, and owns the graph (see HouseholdStages).
    """
    stages = HouseholdStages(hh, [spec])
    pred, = _predictions(stages, [spec])
    if isinstance(pred, SpeakerGraphError):
        raise pred
    return pred, stages.truth


# ---------------------------------------------------------------------------
# SIER and reports
# ---------------------------------------------------------------------------

def sier(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Error fraction over aligned predictions; abstains always count wrong."""
    predictions = _class_indices(predictions, "predictions")
    truth = _class_indices(truth, "truth")
    if predictions.shape != truth.shape:
        raise StructuralError(
            f"misaligned prediction/truth sets: {predictions.shape} vs {truth.shape}")
    if predictions.size == 0:
        raise StructuralError("empty evaluation set")
    return float(np.mean(predictions != truth))


def micro_average(counts: Iterable[tuple[int, int]]) -> float:
    errors, total = 0, 0
    for e, t in counts:
        errors += e
        total += t
    if total == 0:
        raise StructuralError("micro-average over an empty pool")
    return errors / total


def relative_improvement(best_baseline: float, method_value: float) -> float:
    """(best_baseline - method) / best_baseline, as a fraction."""
    if best_baseline <= 0:
        raise ConfigurationError("relative improvement undefined for baseline <= 0")
    return (best_baseline - method_value) / best_baseline


@dataclass
class HouseholdResult:
    household_id: str
    group: str
    errors: int
    heldout: int
    ties: int
    abstains: int
    converged: bool
    seconds: float

    @property
    def sier(self) -> float:
        return self.errors / self.heldout


@dataclass
class MethodReport:
    spec: MethodSpec
    households: list[HouseholdResult]
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def counts(self, group: str | None = None) -> tuple[int, int]:
        rows = [h for h in self.households if group is None or h.group == group]
        return sum(h.errors for h in rows), sum(h.heldout for h in rows)

    def micro_sier(self, group: str | None = None) -> float:
        return micro_average([self.counts(group)])

    @property
    def groups(self) -> list[str]:
        return sorted({h.group for h in self.households})


@dataclass
class EvalReport:
    methods: list[MethodReport]

    @property
    def groups(self) -> list[str]:
        out: set[str] = set()
        for m in self.methods:
            out.update(m.groups)
        return sorted(out)

    def improvements(self) -> dict[str, dict[str, float | None]]:
        """Best-in-family improvement vs. the best baseline, per group column;
        None where the baselines or the family have no households in the group."""
        baselines = [m for m in self.methods if m.spec.is_baseline]
        others: dict[str, list[MethodReport]] = {}
        for m in self.methods:
            if not m.spec.is_baseline:
                others.setdefault(m.spec.family, []).append(m)
        if not baselines or not others:
            return {}
        table: dict[str, dict[str, float | None]] = {}
        for family, reports in sorted(others.items()):
            row: dict[str, float | None] = {}
            for group in self.groups:
                base = [m.micro_sier(group) for m in baselines if group in m.groups]
                best = [m.micro_sier(group) for m in reports if group in m.groups]
                row[group] = (None if not best or min(base, default=0) == 0
                              else 100.0 * relative_improvement(min(base), min(best)))
            table[family] = row
        return table


def evaluate(households: Sequence[HouseholdDataset], spec: MethodSpec,
             allow_skip: bool = False) -> MethodReport:
    """Run one method over every household; see evaluate_methods."""
    return evaluate_methods(households, [spec], allow_skip).methods[0]


def evaluate_methods(households: Sequence[HouseholdDataset],
                     specs: Sequence[MethodSpec],
                     allow_skip: bool = False) -> EvalReport:
    """Run every spec over every household and collect pooled counts per spec.

    The evaluation is household-major. Each household's ordered arrays, view
    matrices, distances and one neighbor sort (to the specs' widest local k)
    are computed once for all specs (see HouseholdStages). Specs that share a
    graph, that is differ only in method or propagation config, run back to
    back on one fused graph through one SolveSchedule, which shares their
    step-1 subgraph, step-1 results and factored systems; one such graph and
    what its schedule holds are alive at a time. A household's shared stage
    and graph time counts in the ``seconds`` of the first spec that uses it.

    Per-household failures (SpeakerGraphError, including a household with
    no held-out utterances) abort the evaluation unless allow_skip is set,
    in which case they are recorded and excluded from the pooled counts of
    each spec they stopped: a failed solve stops its own spec, a failed
    stage or shared graph every spec that needs it. Without allow_skip the
    first failure in household order is raised. Any other exception is a
    defect and always propagates.
    """
    if not households:
        raise StructuralError("no households to evaluate")
    if not specs:
        raise ConfigurationError("no methods to evaluate")
    groups = _graph_groups(specs)
    reports = [MethodReport(spec=spec, households=[]) for spec in specs]
    for hh in households:
        start = time.perf_counter()
        try:
            stages = HouseholdStages(hh, specs)
        except SpeakerGraphError as exc:
            outcomes = [(i, exc) for i in range(len(specs))]
        else:
            outcomes = ((i, pred) for group in groups
                        for i, pred in zip(group, _predictions(stages, [specs[i] for i in group])))
        for i, pred in outcomes:
            now = time.perf_counter()
            if isinstance(pred, SpeakerGraphError):
                if not allow_skip:
                    raise pred
                reports[i].skipped.append((hh.household_id, f"{type(pred).__name__}: {pred}"))
            else:
                reports[i].households.append(HouseholdResult(
                    household_id=hh.household_id, group=hh.group,
                    errors=int(np.sum(pred.labels != stages.truth)), heldout=stages.truth.size,
                    ties=len(pred.ties), abstains=len(pred.abstains),
                    converged=pred.converged, seconds=now - start))
            start = now
    failed = [report.spec.label for report in reports if not report.households]
    if failed:
        raise StructuralError(f"every household failed evaluation for {', '.join(failed)}")
    return EvalReport(methods=reports)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    best_spec: MethodSpec
    best_params: dict
    rows: list[dict]


def _grid_points(grid: Mapping[str, Sequence],
                 template: MethodSpec) -> list[tuple[dict, MethodSpec]]:
    """Each grid point's parameters and spec, in itertools.product order over
    the grid's key order; a bad grid value raises a ConfigurationError."""
    if not grid:
        raise ConfigurationError("sweep grid is empty")
    for name, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigurationError(f"{name}: expected a non-empty list of values")
    points = []
    for combo in itertools.product(*grid.values()):
        spec = template
        params = dict(zip(grid, combo))
        for name, value in params.items():
            spec = apply_param(spec, name, value)
        points.append((params, spec))
    return points


def sweep(dev_households: Sequence[HouseholdDataset],
          grid: Mapping[str, Sequence], template: MethodSpec) -> SweepResult:
    """Exhaustive grid evaluation on the dev split.

    Returns the argmin micro-SIER spec; ties keep the first point in grid
    order (itertools.product over the grid's key order). Every point's spec
    is built before any is evaluated, so a bad grid value fails at once.
    The points run together through evaluate_methods, household by household.
    """
    points = _grid_points(grid, template)
    report = evaluate_methods(dev_households, [spec for _, spec in points])
    rows = []
    for (params, _), method in zip(points, report.methods):
        errors, heldout = method.counts()
        rows.append({**params, "errors": errors, "heldout": heldout, "sier": errors / heldout})
    best = min(range(len(rows)), key=lambda i: rows[i]["sier"])  # the first of equal points
    return SweepResult(best_spec=points[best][1], best_params=points[best][0], rows=rows)


def tune_cohort_sigmas(dev_households: Sequence[HouseholdDataset],
                       sigmas: Sequence[float],
                       template: MethodSpec) -> CohortScaling:
    """Per-group universal-sigma sweep, packaged as a cohort scaling rule.

    The sigmas are checked as a sweep grid, with or without households."""
    grid = {"scaling.sigma": list(sigmas)}
    base = replace(template, scaling=UniversalScaling(1.0))  # each point replaces sigma
    _grid_points(grid, base)
    by_group: dict[str, list[HouseholdDataset]] = {}
    for hh in dev_households:
        by_group.setdefault(hh.group, []).append(hh)
    return CohortScaling({group: sweep(members, grid, base).best_params["scaling.sigma"]
                          for group, members in sorted(by_group.items())})
