"""Label propagation with class normalization, plus the LP pipelines.

The scores are the fixed point (1 - alpha) * (I - alpha*S)^(-1) @ Y(0) of

    Y(t+1) = alpha * S @ Y(t) + (1 - alpha) * Y(0),

solved directly through a Cholesky factorization of I - alpha*S, which is
symmetric positive definite for every S the fusion rules build, or, as the
reference solver, by running that iteration to convergence.

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
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .baselines import PredictionResult, _argmax_with_ties, _class_mean_scores, _two_step
from .errors import ConfigurationError, NumericalError, StructuralError
from .fusion import FusedGraph
from .graph import _by_row_blocks

ABSTAIN = -1

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
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")
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
        """The labeled+unlabeled subgraph, fused once per graph and shared by
        every propagation config run on it."""
        return self._core

    @functools.cached_property
    def _core(self) -> "HouseholdGraph":
        core = self.fused.subgraph(self.n_labeled + self.n_unlabeled)
        return HouseholdGraph(fused=core, labels=self.labels,
                              n_unlabeled=self.n_unlabeled, n_heldout=0,
                              class_count=self.class_count)


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


def propagate(graph: HouseholdGraph, y0: np.ndarray,
              cfg: PropagationConfig) -> PropagationOutcome:
    """Run Y(t+1) = alpha*S@Y(t) + (1-alpha)*Y(0) to (or at) its fixed point."""
    s = graph.fused.propagation_matrix()
    if cfg.solver != "iterative":
        # One n-by-n array, built by row blocks (see graph._by_row_blocks) and
        # factored in place as its (symmetric) F-ordered transpose.
        a = np.empty((graph.n, graph.n))
        _by_row_blocks(graph.n, lambda start, stop: np.multiply(
            s[start:stop], -cfg.alpha, out=a[start:stop]))
        a.flat[::graph.n + 1] += 1.0
        try:
            factor = cho_factor(a.T, overwrite_a=True, check_finite=False)
        except LinAlgError as exc:
            raise NumericalError(
                f"I - alpha*S is not positive definite at alpha={cfg.alpha}: {exc}") from exc
        y = cho_solve(factor, (1.0 - cfg.alpha) * y0, check_finite=False)
        if not np.isfinite(y).all():
            raise NumericalError("closed-form solution has non-finite values")
        return PropagationOutcome(y=y, converged=True, iterations=0)

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


def predict(y: np.ndarray, rows: slice | np.ndarray | None = None) -> PredictionResult:
    """The shared argmax/tie rule, except that all-zero rows abstain."""
    block = y if rows is None else y[rows]
    pred = _argmax_with_ties(block)
    abstain = np.all(block == 0.0, axis=1)
    return replace(pred, labels=np.where(abstain, ABSTAIN, pred.labels),
                   ties=tuple(i for i in pred.ties if not abstain[i]),
                   abstains=tuple(np.flatnonzero(abstain).tolist()))


def run_lp(graph: HouseholdGraph, cfg: PropagationConfig,
           pseudo: np.ndarray | None = None) -> PredictionResult:
    """Single propagation over the full graph; read off the held-out rows.
    ``pseudo`` labels the unlabeled nodes as in init_label_matrix: 2LP's step 2."""
    outcome = propagate(graph, init_label_matrix(graph, pseudo), cfg)
    return replace(predict(outcome.y, graph.heldout_slice), converged=outcome.converged,
                   iterations=outcome.iterations)


def _step1(graph: HouseholdGraph, cfg: PropagationConfig) -> PredictionResult:
    """Step 1 of 2LP and 2LPEA: propagation over the labeled+unlabeled subgraph
    (the full graph under step1_includes_heldout), read off the unlabeled rows."""
    step1 = graph if cfg.step1_includes_heldout else graph.without_heldout()
    outcome = propagate(step1, init_label_matrix(step1), cfg)
    return replace(predict(outcome.y, step1.unlabeled_slice), converged=outcome.converged,
                   iterations=outcome.iterations)


def run_2lp(graph: HouseholdGraph, cfg: PropagationConfig) -> PredictionResult:
    """Two-step propagation: LP with step 1's labels as pseudo-labels, which
    join the true labels in a re-normalized Y(0). Abstaining pseudo-labels
    leave their node unlabeled again."""
    return _two_step(graph.n_unlabeled > 0, lambda: _step1(graph, cfg),
                     lambda pseudo: run_lp(graph, cfg, pseudo))


def run_2lpea(graph: HouseholdGraph, embeddings: np.ndarray,
              cfg: PropagationConfig) -> PredictionResult:
    """Propagation for pseudo-labels, class-mean cosine scoring for held-out.

    ``embeddings`` holds the primary view's raw vectors for all n nodes in
    graph order. Step 2 averages labeled + pseudo-labeled embeddings per
    class and assigns each held-out utterance to the nearest class mean by
    cosine similarity.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    if embeddings.ndim != 2 or embeddings.shape[0] != graph.n:
        raise StructuralError(f"need one primary-view embedding per node ({graph.n}), "
                              f"got shape {embeddings.shape}")

    def step2(pseudo):
        classes = graph.labels if pseudo is None else np.concatenate([graph.labels, pseudo])
        return _argmax_with_ties(_class_mean_scores(
            embeddings[:classes.size], classes, embeddings[graph.heldout_slice],
            graph.class_count))

    return _two_step(graph.n_unlabeled > 0, lambda: _step1(graph, cfg), step2)
