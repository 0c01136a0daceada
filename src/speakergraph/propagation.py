"""Label propagation with class normalization, plus the LP pipelines.

The scores are the fixed point (1 - alpha) * (I - alpha*S)^(-1) @ Y(0) of

    Y(t+1) = alpha * S @ Y(t) + (1 - alpha) * Y(0),

solved directly by FusedGraph.solve, through a Cholesky factorization of
I - alpha*S, which is symmetric positive definite for every S the fusion
rules build, or, as the reference solver, by running that iteration to
convergence. A harmonic power mean, where H = (I - S)^(-1) is the mean of
the views' (L_v + shift*I)^(-1), solves H (I - alpha*S) y = (1 - alpha) H Y(0)
instead: by conjugate gradients through each view's Cholesky factor for a
step count fixed by alpha and shift, or, when the step counts of the alphas
the graph is solved at sum to more than a cap, by factoring (1 - alpha) H +
alpha I with H built once. The specs that share a graph solve through one
SolveSchedule, which does each solve they share once.

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

import contextvars
import functools
from collections import Counter
from concurrent.futures import Future, wait
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .baselines import (ABSTAIN, PredictionResult, _two_step, _two_step_cosine, predict,
                        run_csea)
from .errors import ConfigurationError, NumericalError, StructuralError
from .fusion import FusedGraph, _cg_route, _factor_system
from .graph import _background_pool

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
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 1):
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
        labels = np.asarray(self.labels, dtype=int)
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
        pseudo = np.asarray(pseudo, dtype=int)
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
              factor: tuple[np.ndarray, int] | None = None) -> PropagationOutcome:
    """Run Y(t+1) = alpha*S@Y(t) + (1-alpha)*Y(0) to (or at) its fixed point.
    The direct solver takes ``factor`` as FusedGraph.solve does."""
    if cfg.solver != "iterative":
        return PropagationOutcome(graph.fused.solve(cfg.alpha, y0, factor),
                                  converged=True, iterations=0)

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
    step-1 subgraph take the route of fusion._cg_route on the specs' alphas;
    the full graph's system at each alpha is factored once and dropped when
    the last spec at that alpha ends; each step 1 runs once per config.

    Where a 2LP's step 1 is still to run on the subgraph and its step-2 system
    still to factor, the row pool factors that system meanwhile, where
    graph._background_pool allows, in an array allocated on the calling thread
    (on the worker it raised large-household's peak RSS by 17%); the worker
    fills it by row blocks, which run inline on a pool thread. A spec whose
    step 1 raised waits for that factorization before it ends.
    """

    def __init__(self, graph: HouseholdGraph, specs: Sequence[tuple[str, PropagationConfig]]):
        self.graph = graph
        self._alphas = {cfg.alpha for _, cfg in specs}
        self._left = Counter(cfg.alpha for _, cfg in specs)  # specs yet to end, by alpha
        self._factors: dict[float, tuple[np.ndarray, int] | Future] = {}
        self._step1: dict[PropagationConfig, PredictionResult] = {}

    def predict(self, method: str, cfg: PropagationConfig,
                embeddings: np.ndarray | None = None) -> PredictionResult:
        """One spec's held-out predictions, as run_lp, run_2lp or run_2lpea
        (which reads ``embeddings``) computes them."""
        graph, has_pool = self.graph, self.graph.n_unlabeled > 0
        lp = functools.partial(self._solve, graph, cfg, graph.heldout_slice)
        try:
            if method == "LP":
                return lp()
            if method == "2LP":
                if (has_pool and not cfg.step1_includes_heldout and cfg not in self._step1
                        and cfg.alpha not in self._factors and cfg.solver != "iterative"
                        and not _cg_route(graph.fused, self._alphas)
                        and (pool := _background_pool()) is not None):
                    self._factors[cfg.alpha] = pool.submit(
                        contextvars.copy_context().run, _factor_system,
                        np.empty((graph.n, graph.n)), *graph.fused._system(cfg.alpha))
                return _two_step(has_pool, lambda: self._step_one(cfg), lp)
            emb = np.asarray(embeddings, dtype=float)
            if emb.ndim != 2 or emb.shape[0] != graph.n:
                raise StructuralError(f"need one primary-view embedding per node ({graph.n}), "
                                      f"got shape {emb.shape}")
            return _two_step_cosine(run_csea, emb[:graph.n_labeled], graph.labels,
                                    emb[graph.unlabeled_slice], emb[graph.heldout_slice],
                                    graph.class_count, step1=lambda: self._step_one(cfg))
        finally:
            wait([f for f in self._factors.values() if isinstance(f, Future)])
            self._left[cfg.alpha] -= 1
            if not self._left[cfg.alpha]:
                self._factors.pop(cfg.alpha, None)

    def _solve(self, graph: HouseholdGraph, cfg: PropagationConfig, rows: slice,
               pseudo: np.ndarray | None = None) -> PredictionResult:
        """Propagate from init_label_matrix(graph, pseudo); read off ``rows``."""
        factor = None
        if cfg.solver != "iterative" and not _cg_route(graph.fused, self._alphas):
            factor = self._factors.get(cfg.alpha) if graph is self.graph else None
            factor = factor.result() if isinstance(factor, Future) else factor
            factor = factor or graph.fused.factor(cfg.alpha)
            if graph is self.graph:
                self._factors[cfg.alpha] = factor
        outcome = propagate(graph, init_label_matrix(graph, pseudo), cfg, factor)
        return replace(predict(outcome.y, rows), converged=outcome.converged,
                       iterations=outcome.iterations)

    @functools.cached_property
    def _core(self) -> HouseholdGraph:
        return self.graph.without_heldout()

    def _step_one(self, cfg: PropagationConfig) -> PredictionResult:
        if cfg not in self._step1:
            step1 = self.graph if cfg.step1_includes_heldout else self._core
            self._step1[cfg] = self._solve(step1, cfg, step1.unlabeled_slice)
        return self._step1[cfg]
