"""SIER evaluation, per-group reporting, and grid sweeps.

SIER is 1 minus top-1 accuracy over held-out utterances; abstentions count
as errors. Aggregation is always the micro-average: pooled error count over
pooled held-out count, never a mean of per-household rates. Relative
improvement against the strongest baseline follows
(best_baseline - method) / best_baseline.
"""

import itertools
import time
import types
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping, Sequence, get_args, get_origin

import numpy as np

from .baselines import PredictionResult, run_2cs, run_2csea, run_cs, run_csea
from .errors import ConfigurationError, SpeakerGraphError, StructuralError
from .fusion import FusionRule, PowerMeanFusion, SingleView, fuse
from .graph import (
    AffinityMatrix,
    CohortScaling,
    EmbeddingView,
    LocalScaling,
    ScalingRule,
    UniversalScaling,
    affinity,
    session_affinity,
)
from .propagation import (
    HouseholdGraph,
    PropagationConfig,
    run_2lp,
    run_2lpea,
    run_lp,
)
from .records import ROLE_ENROLLED, ROLE_UNLABELED, HouseholdDataset, UtteranceRecord

SESSION_VIEW = "session"

BASELINE_METHODS = ("CS", "CSEA", "2CS", "2CSEA")
LP_METHODS = ("LP", "2LP", "2LPEA")
METHODS = BASELINE_METHODS + LP_METHODS


@dataclass(frozen=True)
class MethodSpec:
    """One scoring method plus everything needed to run it on a household."""

    method: str
    view: str = "voice"
    scaling: ScalingRule | None = None
    fusion: FusionRule | None = None
    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    # Bandwidth for the 0/1 session distance. Must stay well below 1 so the
    # cross-session kernel value is negligible; otherwise max-pool fusion
    # floods the graph with a constant floor that drowns the voice edges.
    session_sigma: float = 0.25
    # L2-normalize vector views before building graphs (distances become
    # chord distances on the unit sphere). Off by default.
    unit_normalize: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.is_baseline:
            if self.scaling is not None or self.fusion is not None:
                raise ConfigurationError(
                    f"{self.method} is a baseline; scaling/fusion must be absent")
        else:
            if self.scaling is None or self.fusion is None:
                raise ConfigurationError(
                    f"{self.method} requires both a scaling rule and a fusion rule")
        if not self.session_sigma > 0:
            raise ConfigurationError("session_sigma must be > 0")

    @property
    def is_baseline(self) -> bool:
        return self.method in BASELINE_METHODS

    @property
    def family(self) -> str:
        """Row group for Table-style reports: baseline, or the scaling kind."""
        if self.is_baseline:
            return "baseline"
        return {UniversalScaling: "universal", CohortScaling: "cohort",
                LocalScaling: "local"}[type(self.scaling)]

    @property
    def label(self) -> str:
        if self.is_baseline:
            return f"{self.method}/{self.view}"
        if isinstance(self.fusion, SingleView):
            views = self.fusion.view_name
        else:
            views = "+".join(self.fusion.view_names)
            if isinstance(self.fusion, PowerMeanFusion):
                views += f"(pmean p={self.fusion.p:g})"
        return f"{self.method}/{self.family}/{views}"


# ---------------------------------------------------------------------------
# Per-household execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderedHousehold:
    """A household's records in graph node order (enrolled, unlabeled,
    held-out), with class indices for the enrolled and held-out records."""

    group: str
    records: list[UtteranceRecord]
    labels: np.ndarray
    truth: np.ndarray
    class_count: int
    n_unlabeled: int


def _ordered_arrays(hh: HouseholdDataset) -> OrderedHousehold:
    records = hh.ordered()
    speakers = hh.speakers
    class_of = {spk: i for i, spk in enumerate(speakers)}
    roles = [r.role for r in records]
    l = roles.count(ROLE_ENROLLED)
    u = roles.count(ROLE_UNLABELED)
    labels = np.array([class_of[r.speaker] for r in records[:l]], dtype=int)
    truth = []
    for r in records[l + u:]:
        if r.speaker is None:
            raise StructuralError(f"{r.utt_id}: held-out utterance without ground truth")
        if r.speaker not in class_of:
            raise StructuralError(
                f"{r.utt_id}: speaker {r.speaker!r} has zero enrolled utterances")
        truth.append(class_of[r.speaker])
    return OrderedHousehold(group=hh.group, records=records, labels=labels,
                            truth=np.array(truth, dtype=int),
                            class_count=len(speakers), n_unlabeled=u)


def _view_matrix(records, name: str) -> np.ndarray:
    try:
        return np.vstack([r.views[name] for r in records])
    except KeyError as exc:
        raise ConfigurationError(f"view {name!r} missing from dataset") from exc


def _build_view(records, name: str, unit_normalize: bool = False) -> EmbeddingView:
    matrix = _view_matrix(records, name)
    if unit_normalize:
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        matrix = np.divide(matrix, norms, out=np.zeros_like(matrix),
                           where=norms > 0)
    return EmbeddingView(name, matrix)


def build_household_graph(ordered: OrderedHousehold, spec: MethodSpec) -> HouseholdGraph:
    """Per-view affinities under the spec's scaling, fused per the spec's rule.

    The session view always uses the fixed bandwidth spec.session_sigma;
    cohort scaling is keyed by the household's group tag.
    """
    if spec.fusion is None:
        raise ConfigurationError("graph construction needs a fusion rule")
    affinities: dict[str, AffinityMatrix] = {}
    for name in spec.fusion.view_names:
        if name == SESSION_VIEW:
            affinities[name] = session_affinity(
                [r.session_id for r in ordered.records], spec.session_sigma)
        else:
            view = _build_view(ordered.records, name, unit_normalize=spec.unit_normalize)
            affinities[name] = affinity(view, spec.scaling, cohort_id=ordered.group)
    fused = fuse(affinities, spec.fusion)
    return HouseholdGraph(fused=fused, labels=ordered.labels,
                          n_unlabeled=ordered.n_unlabeled,
                          n_heldout=ordered.truth.size, class_count=ordered.class_count)


def primary_view_name(spec: MethodSpec) -> str:
    if spec.is_baseline or spec.fusion is None:
        return spec.view
    for name in spec.fusion.view_names:
        if name != SESSION_VIEW:
            return name
    raise ConfigurationError("no vector view available (session-only graph)")


def run_method(hh: HouseholdDataset, spec: MethodSpec) -> tuple[PredictionResult, np.ndarray]:
    """Predictions for the household's held-out utterances, plus ground truth."""
    ordered = _ordered_arrays(hh)
    if spec.is_baseline:
        emb = _view_matrix(ordered.records, spec.view)
        l, u = ordered.labels.size, ordered.n_unlabeled
        labeled, unlabeled, heldout = emb[:l], emb[l:l + u], emb[l + u:]
        runner = {"CS": run_cs, "CSEA": run_csea}.get(spec.method)
        if runner is not None:
            out = runner(labeled, ordered.labels, heldout, ordered.class_count)
        else:
            runner = {"2CS": run_2cs, "2CSEA": run_2csea}[spec.method]
            out = runner(labeled, ordered.labels, unlabeled, heldout, ordered.class_count)
        return out, ordered.truth

    graph = build_household_graph(ordered, spec)
    if spec.method == "LP":
        return run_lp(graph, spec.propagation), ordered.truth
    if spec.method == "2LP":
        return run_2lp(graph, spec.propagation), ordered.truth
    emb = _view_matrix(ordered.records, primary_view_name(spec))
    return run_2lpea(graph, emb, spec.propagation), ordered.truth


# ---------------------------------------------------------------------------
# SIER and reports
# ---------------------------------------------------------------------------

def sier(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Error fraction over aligned predictions; abstains always count wrong."""
    predictions = np.asarray(predictions, dtype=int)
    truth = np.asarray(truth, dtype=int)
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
        """Best-in-family improvement vs. the best baseline, per group column."""
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
                base = min(m.micro_sier(group) for m in baselines)
                best = min(m.micro_sier(group) for m in reports)
                row[group] = (None if base == 0
                              else 100.0 * relative_improvement(base, best))
            table[family] = row
        return table


def evaluate(households: Sequence[HouseholdDataset], spec: MethodSpec,
             allow_skip: bool = False) -> MethodReport:
    """Run one method over every household and collect pooled counts.

    Per-household failures (SpeakerGraphError, including a household with
    no held-out utterances) abort the evaluation unless allow_skip is set,
    in which case they are recorded and excluded from the pooled counts.
    Any other exception is a defect and always propagates.
    """
    if not households:
        raise StructuralError("no households to evaluate")
    results: list[HouseholdResult] = []
    skipped: list[tuple[str, str]] = []
    for hh in households:
        start = time.perf_counter()
        try:
            pred, truth = run_method(hh, spec)
            if truth.size == 0:
                raise StructuralError(
                    f"household {hh.household_id}: no held-out utterances to score")
        except SpeakerGraphError as exc:
            if not allow_skip:
                raise
            skipped.append((hh.household_id, f"{type(exc).__name__}: {exc}"))
            continue
        elapsed = time.perf_counter() - start
        results.append(HouseholdResult(
            household_id=hh.household_id, group=hh.group,
            errors=int(np.sum(pred.labels != truth)), heldout=truth.size,
            ties=len(pred.ties), abstains=len(pred.abstains),
            converged=pred.converged, seconds=elapsed))
    if not results:
        raise StructuralError("every household failed evaluation")
    return MethodReport(spec=spec, households=results, skipped=skipped)


def evaluate_methods(households: Sequence[HouseholdDataset],
                     specs: Sequence[MethodSpec],
                     allow_skip: bool = False) -> EvalReport:
    return EvalReport(methods=[evaluate(households, s, allow_skip) for s in specs])


# ---------------------------------------------------------------------------
# Config values (run configs and sweep grids)
# ---------------------------------------------------------------------------

# Python values a declared field type accepts from a config, and their JSON name.
_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), bool: ((bool,), "a boolean"),
               tuple: ((list, tuple), "a list"), dict: ((dict,), "an object")}


def checked(key: str, value, kind):
    """Return value if it fits the declared field type ``kind``, else raise a
    ConfigurationError naming the dotted key.

    An int passes as a float and only a bool passes as a bool; None passes an
    optional type. A ``tuple[X, ...]`` or ``tuple[X, Y]`` is checked element
    by element (as ``key[i]``), and by length when fixed, and returned as a
    tuple. Types outside _JSON_KINDS are left to the constructors.
    """
    options = get_args(kind) if isinstance(kind, types.UnionType) else (kind,)
    if value is None and type(None) in options:
        return value
    accepted = _JSON_KINDS.get(get_origin(options[0]) or options[0])
    if accepted is not None and (not isinstance(value, accepted[0])
                                 or isinstance(value, bool) and bool not in accepted[0]):
        raise ConfigurationError(f"{key}: expected {accepted[1]}, got {value!r}")
    if get_origin(options[0]) is not tuple:
        return value
    items = get_args(options[0])
    if items[-1] is Ellipsis:
        items = items[:1] * len(value)
    elif len(value) != len(items):
        raise ConfigurationError(f"{key}: expected a list of {len(items)} values, got {value!r}")
    return tuple(checked(f"{key}[{i}]", v, k) for i, (v, k) in enumerate(zip(value, items)))


def reject_unknown(data: Mapping, allowed: set[str], path: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {sorted(unknown)}")


def checked_fields(data: Mapping, cls, path: str) -> dict:
    """data as keyword arguments of dataclass cls: each key a field of cls and
    each value of that field's declared type."""
    kinds = {f.name: f.type for f in fields(cls)}
    reject_unknown(data, set(kinds), path)
    return {k: checked(f"{path}.{k}", v, kinds[k]) for k, v in data.items()}


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def apply_param(spec: MethodSpec, name: str, value) -> MethodSpec:
    """Return a copy of the spec with one dotted parameter replaced."""
    if name in ("method", "view", "session_sigma"):
        kind = float if name == "session_sigma" else str
        return replace(spec, **{name: kind(checked(name, value, kind))})
    head, _, tail = name.partition(".")
    if head == "scaling" and spec.scaling is None:
        raise ConfigurationError(f"{name}: spec has no scaling rule")
    if head == "fusion" and not (isinstance(spec.fusion, PowerMeanFusion)
                                 and tail in ("p", "shift")):
        raise ConfigurationError(f"{name}: only power-mean p and shift are parameters")
    if head not in ("scaling", "fusion", "propagation"):
        raise ConfigurationError(f"unknown sweep parameter {name!r}")
    part = getattr(spec, head)
    return replace(spec, **{head: replace(part, **checked_fields({tail: value}, part, head))})


@dataclass
class SweepResult:
    best_spec: MethodSpec
    best_params: dict
    rows: list[dict]


def sweep(dev_households: Sequence[HouseholdDataset],
          grid: Mapping[str, Sequence], template: MethodSpec) -> SweepResult:
    """Exhaustive grid evaluation on the dev split.

    Returns the argmin micro-SIER spec; ties keep the first point in grid
    order (itertools.product over the grid's key order). Every point's spec
    is built before any is evaluated, so a bad grid value fails at once.
    """
    if not grid:
        raise ConfigurationError("sweep grid is empty")
    names = list(grid.keys())
    for name, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigurationError(f"{name}: expected a non-empty list of values")
    points = []
    for combo in itertools.product(*(grid[n] for n in names)):
        spec = template
        params = dict(zip(names, combo))
        for name, value in params.items():
            spec = apply_param(spec, name, value)
        points.append((params, spec))
    rows: list[dict] = []
    best: tuple[float, int] | None = None
    best_spec, best_params = template, {}
    for i, (params, spec) in enumerate(points):
        report = evaluate(dev_households, spec)
        errors, total = report.counts()
        value = errors / total
        rows.append({**params, "errors": errors, "heldout": total, "sier": value})
        if best is None or value < best[0]:
            best = (value, i)
            best_spec, best_params = spec, params
    return SweepResult(best_spec=best_spec, best_params=best_params, rows=rows)


def tune_cohort_sigmas(dev_households: Sequence[HouseholdDataset],
                       sigmas: Sequence[float],
                       template: MethodSpec) -> CohortScaling:
    """Per-group universal-sigma sweep, packaged as a cohort scaling rule."""
    by_group: dict[str, list[HouseholdDataset]] = {}
    for hh in dev_households:
        by_group.setdefault(hh.group, []).append(hh)
    chosen: dict[str, float] = {}
    base = replace(template, scaling=UniversalScaling(sigmas[0]))
    for group in sorted(by_group):
        result = sweep(by_group[group], {"scaling.sigma": list(sigmas)}, base)
        chosen[group] = result.best_params["scaling.sigma"]
    return CohortScaling(chosen)
