"""Label propagation with class normalization, plus the LP pipelines.

The scores are the fixed point (1 - alpha) * (I - alpha*S)^(-1) @ Y(0) of

    Y(t+1) = alpha * S @ Y(t) + (1 - alpha) * Y(0),

solved directly by FusedGraph.system(alpha), through a Cholesky factorization
of I - alpha*S, which is symmetric positive definite for every S the fusion
rules build, or, as the reference solver, by running that iteration to
convergence. On single-view and edge-pool graphs the direct solver forms
I - alpha*S from W and d = D^{-1/2} (see FusedGraph); only the iteration
reads S itself, which such a graph builds on the first request. A harmonic
power mean, where H = (I - S)^(-1) is the mean of the views'
(L_v + shift*I)^(-1), solves H (I - alpha*S) y = (1 - alpha) H Y(0)
instead: by conjugate gradients through each view's Cholesky factor for a
step count fixed by alpha and shift, or, when the step counts of the alphas
the graph is solved at sum to more than a cap, by factoring (1 - alpha) H +
alpha I with H built once; the system chooses its route once. The specs that
share a graph solve through one SolveSchedule, which does each solve once.

The iteration converges only when alpha*rho(S) < 1. The eigenvalues of S lie
in [-1, 1] for single-view and edge-pool graphs but in [-1 - shift, 1 - shift]
for a power mean, so a positive shift (the default when p < 0) can put one
below -1/alpha; the iteration then raises NumericalError as soon as its step
grows.

Columns of Y(0) are normalized to unit sum so imbalanced label (and
pseudo-label) counts cannot drown a class.
The fixed point with lam = alpha / (1 - alpha) minimizes
||f - Y0||^2 + lam * trace(f^T L f), the usual quadratic smoothness
objective on the graph.
"""

import functools
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .baselines import (ABSTAIN, PredictionResult, _class_indices, _two_step, _two_step_cosine,
                        predict, run_csea)
from .errors import ConfigurationError, NumericalError, StructuralError
from .fusion import FusedGraph, _check_y0, _System
from .graph import _background_pool, _is_integer, _joined, _lend

# Relative step size below which growth of the iteration's step is taken
# for round-off, not divergence.
_ROUNDOFF = 1e-10


@dataclass(frozen=True)
class PropagationConfig:
    alpha: float = 0.9
    tol: float = 1e-6
    max_iter: int = 1000
    # "auto" = "closed_form" (Cholesky) | "iterative" (reference; needs alpha*rho(S) < 1)
    solver: str = "auto"
    # Whether the first pass of the two-step pipelines propagates over the
    # full graph (held-out nodes included) or only labeled+unlabeled.
    step1_includes_heldout: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.tol > 0:
            raise ConfigurationError(f"tol must be > 0, got {self.tol}")
        if not _is_integer(self.max_iter) or self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.solver not in ("auto", "iterative", "closed_form"):
            raise ConfigurationError(f"unknown solver {self.solver!r}")


@dataclass(frozen=True)
class HouseholdGraph:
    """Fused graph plus the index partition labeled | unlabeled | held-out.

    Nodes 0..l-1 are labeled with class indices ``labels``; nodes l..l+u-1
    are unlabeled; held-out nodes occupy the tail. Every class must have at
    least one labeled node.
    """

    fused: FusedGraph
    labels: np.ndarray
    n_unlabeled: int
    n_heldout: int
    class_count: int

    def __post_init__(self):
        for name in ("n_unlabeled", "n_heldout", "class_count"):
            if not _is_integer(value := getattr(self, name)):
                raise StructuralError(f"{name} must be an integer, got {value!r}")
        labels = _class_indices(self.labels, "labels")
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size < 1:
            raise StructuralError("need at least one labeled node")
        if self.class_count < 2:
            raise StructuralError(f"class_count must be >= 2, got {self.class_count}")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise StructuralError("label out of range")
        if self.n_unlabeled < 0 or self.n_heldout < 0:
            raise StructuralError("negative partition size")
        n = labels.size + self.n_unlabeled + self.n_heldout
        if self.fused.node_count != n:
            raise StructuralError(
                f"partition sizes sum to {n} but graph has {self.fused.node_count} nodes")
        present = np.unique(labels)
        if present.size != self.class_count:
            missing = sorted(set(range(self.class_count)) - set(present.tolist()))
            raise StructuralError(f"classes without labeled nodes: {missing}")

    @property
    def n_labeled(self) -> int:
        return self.labels.size

    @property
    def n(self) -> int:
        return self.fused.node_count

    @property
    def unlabeled_slice(self) -> slice:
        return slice(self.n_labeled, self.n_labeled + self.n_unlabeled)

    @property
    def heldout_slice(self) -> slice:
        return slice(self.n_labeled + self.n_unlabeled, self.n)

    def without_heldout(self) -> "HouseholdGraph":
        """The labeled+unlabeled subgraph, re-fused from views of the weights."""
        return replace(self, fused=self.fused.subgraph(self.n_labeled + self.n_unlabeled),
                       n_heldout=0)


@dataclass(frozen=True)
class PropagationOutcome:
    y: np.ndarray
    converged: bool
    iterations: int


def class_normalize(y0: np.ndarray) -> np.ndarray:
    """Divide each class column by its sum; all-zero columns stay zero."""
    y0 = np.asarray(y0, dtype=float).copy()
    sums = y0.sum(axis=0)
    nonzero = sums > 0
    y0[:, nonzero] /= sums[nonzero]
    return y0


def init_label_matrix(graph: HouseholdGraph,
                      pseudo: np.ndarray | None = None) -> np.ndarray:
    """One-hot rows for labeled (and pseudo-labeled) nodes, column-normalized.

    ``pseudo`` covers exactly the unlabeled index range; entries of ABSTAIN
    leave the node unlabeled.
    """
    y0 = np.zeros((graph.n, graph.class_count))
    y0[np.arange(graph.n_labeled), graph.labels] = 1.0
    if pseudo is not None:
        pseudo = _class_indices(pseudo, "pseudo labels")
        if pseudo.shape != (graph.n_unlabeled,):
            raise StructuralError(
                f"pseudo labels must cover the unlabeled range "
                f"({graph.n_unlabeled} nodes), got shape {pseudo.shape}")
        if pseudo.size and (pseudo.min() < ABSTAIN or pseudo.max() >= graph.class_count):
            raise StructuralError("pseudo label index out of range")
        keep = pseudo != ABSTAIN
        rows = graph.n_labeled + np.flatnonzero(keep)
        y0[rows, pseudo[keep]] = 1.0
    return class_normalize(y0)


def propagate(graph: HouseholdGraph, y0: np.ndarray, cfg: PropagationConfig,
              system: _System | None = None) -> PropagationOutcome:
    """Run Y(t+1) = alpha*S@Y(t) + (1-alpha)*Y(0) to (or at) its fixed point.
    The direct solver solves ``system``, by default graph.fused.system(alpha);
    y0 needs to be 2-D with one row per node (else StructuralError)."""
    if cfg.solver != "iterative":
        system = system or graph.fused.system(cfg.alpha)
        return PropagationOutcome(system.solve(y0), converged=True, iterations=0)
    _check_y0(y0, graph.n)
    s = graph.fused.propagation_matrix()
    base = (1.0 - cfg.alpha) * y0
    y = y0.copy()
    prev_delta = np.inf
    for t in range(1, cfg.max_iter + 1):
        y_next = cfg.alpha * (s @ y) + base
        if not np.isfinite(y_next).all():
            raise NumericalError(f"non-finite values at iteration {t}")
        delta = np.linalg.norm(y_next - y)
        prev_norm = np.linalg.norm(y)
        y = y_next
        if delta < cfg.tol * max(1.0, prev_norm):
            return PropagationOutcome(y=y, converged=True, iterations=t)
        # The step obeys dY(t+1) = alpha*S @ dY(t) with S symmetric, so its
        # norm can grow, beyond round-off, only when alpha*rho(S) > 1.
        if delta > prev_delta and delta > _ROUNDOFF * max(1.0, prev_norm):
            raise NumericalError(
                f"iteration diverges at alpha={cfg.alpha}: the step grew at iteration "
                f"{t}, so alpha*rho(S) > 1; use the closed-form solver")
        prev_delta = delta
    return PropagationOutcome(y=y, converged=False, iterations=cfg.max_iter)


def run_lp(graph: HouseholdGraph, cfg: PropagationConfig,
           pseudo: np.ndarray | None = None) -> PredictionResult:
    """Single propagation over the full graph; read off the held-out rows.
    ``pseudo`` labels the unlabeled nodes as in init_label_matrix: 2LP's step 2."""
    return SolveSchedule(graph, [("LP", cfg)])._solve(graph, cfg, graph.heldout_slice, pseudo)


def run_2lp(graph: HouseholdGraph, cfg: PropagationConfig) -> PredictionResult:
    """Two-step propagation: LP with step 1's labels as pseudo-labels, which
    join the true labels in a re-normalized Y(0). Abstaining pseudo-labels
    leave their node unlabeled again. A schedule of one spec (see
    SolveSchedule), so step 2's system may be factored while step 1 runs."""
    return SolveSchedule(graph, [("2LP", cfg)]).predict("2LP", cfg)


def run_2lpea(graph: HouseholdGraph, embeddings: np.ndarray,
              cfg: PropagationConfig) -> PredictionResult:
    """2CSEA with propagation's step 1: CSEA over the labeled and
    pseudo-labeled embeddings scores the held-out utterances; abstaining
    pseudo-labels stay unlabeled.

    ``embeddings`` holds the primary view's finite raw vectors for all n
    nodes in graph order.
    """
    return SolveSchedule(graph, [("2LPEA", cfg)]).predict("2LPEA", cfg, embeddings)


class SolveSchedule:
    """The solves of the LP, 2LP and 2LPEA specs that share one graph, given as
    (method, PropagationConfig) pairs before any solve. The graph and its
    step-1 subgraph solve through FusedGraph.system on the specs' alphas; the
    full graph's system at each alpha is kept, so factored once, until the
    last spec at that alpha ends; each step 1 runs once per config.

    Where a 2LP's step 1 is still to run on the subgraph and its step-2 system
    still to factor, the row pool runs that system's factor() meanwhile, as a
    task of graph._joined where graph._background_pool allows, in an array
    allocated on the calling thread (on the worker it raised large-household's
    peak RSS by 17%); the system keeps the factor for the specs at that alpha,
    also where step 1 raised. The worker fills it by row blocks, inline on a
    pool thread, from the arrays the system read on the calling thread (W and
    d on a single-view or edge-pool graph), and calls no public function.

    Systems fill arrays of graph._lend, from ``spare`` where given, which go
    back when the system is dropped (the subgraph's after step 1), clearing
    ``factored``. predict runs each pair as often as given, else StructuralError.
    """

    def __init__(self, graph: HouseholdGraph, specs: Sequence[tuple[str, PropagationConfig]],
                 spare: list[np.ndarray] | None = None):
        self.graph, self._spare = graph, spare
        self._alphas = {cfg.alpha for _, cfg in specs}
        self._left = Counter(specs)  # predictions yet to run, by (method, cfg)
        self._systems: dict[float, _System] = {}
        self._step1: dict[PropagationConfig, PredictionResult] = {}

    def predict(self, method: str, cfg: PropagationConfig,
                embeddings: np.ndarray | None = None) -> PredictionResult:
        """One spec's held-out predictions, as run_lp, run_2lp or run_2lpea
        (which reads ``embeddings``) computes them."""
        if not self._left[method, cfg]:
            raise StructuralError(f"({method!r}, {cfg}) is not scheduled, or ran as often")
        self._left[method, cfg] -= 1
        graph, has_pool = self.graph, self.graph.n_unlabeled > 0
        lp = functools.partial(self._solve, graph, cfg, graph.heldout_slice)
        try:
            if method == "LP":
                return lp()
            if method == "2LP":
                return _two_step(has_pool, lambda: self._step_one(cfg, factor_ahead=True), lp)
            emb = np.asarray(embeddings, dtype=float)
            if emb.ndim != 2 or emb.shape[0] != graph.n:
                raise StructuralError(f"need one primary-view embedding per node ({graph.n}), "
                                      f"got shape {emb.shape}")
            return _two_step_cosine(run_csea, emb[:graph.n_labeled], graph.labels,
                                    emb[graph.unlabeled_slice], emb[graph.heldout_slice],
                                    graph.class_count, step1=lambda: self._step_one(cfg))
        finally:
            if not any(left for (_, c), left in self._left.items() if c.alpha == cfg.alpha):
                self._drop(self._systems.pop(cfg.alpha, None))

    def _solve(self, graph: HouseholdGraph, cfg: PropagationConfig, rows: slice,
               pseudo: np.ndarray | None = None) -> PredictionResult:
        """Propagate from init_label_matrix(graph, pseudo); read off ``rows``."""
        system = self._system_of(graph, cfg)
        if system is not None and not system.cg and not system.factored:
            system.factor(_lend(self._spare, self.graph.n, graph.n))
        outcome = propagate(graph, init_label_matrix(graph, pseudo), cfg, system)
        if graph is not self.graph:
            self._drop(system)
        return replace(predict(outcome.y, rows), converged=outcome.converged,
                       iterations=outcome.iterations)

    def _drop(self, system: _System | None) -> None:
        if self._spare is not None and system is not None and system.factored:
            self._spare.append(system.factored[0].base)
            system.factored = None

    def _system_of(self, graph: HouseholdGraph, cfg: PropagationConfig) -> _System | None:
        """The system that graph solves at cfg on the specs' alphas, None on
        the iterative solver; the full graph's is kept by alpha."""
        if cfg.solver == "iterative":
            return None
        kept = self._systems if graph is self.graph else {}
        if cfg.alpha not in kept:
            kept[cfg.alpha] = graph.fused.system(cfg.alpha, self._alphas)
        return kept[cfg.alpha]

    @functools.cached_property
    def _core(self) -> HouseholdGraph:
        return self.graph.without_heldout()

    def _step_one(self, cfg: PropagationConfig, factor_ahead: bool = False) -> PredictionResult:
        """Step 1 at cfg, run once; 2LP's beside its step-2 factorization (see the class)."""
        if cfg not in self._step1:
            graph, pool, tasks = self.graph, None, []
            if (factor_ahead and not cfg.step1_includes_heldout
                    and (pool := _background_pool()) is not None
                    and (system := self._system_of(graph, cfg)) and not system.cg
                    and not system.factored):
                tasks = [functools.partial(system.factor, _lend(self._spare, graph.n, graph.n))]
            self._step1[cfg] = _joined(pool, tasks, lambda: self._solve(
                graph if cfg.step1_includes_heldout else self._core, cfg,
                graph.unlabeled_slice))[0]
        return self._step1[cfg]
