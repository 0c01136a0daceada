"""Per-view affinity graphs over utterance embeddings.

One household induces one fully connected graph per view. Edge weights come
from a Gaussian kernel on pairwise distances (Euclidean for vector views, 0/1
for the session view),

    W[i, j] = exp(-dist(i, j)^2 / sigma[i, j]^2),

where the bandwidth sigma is a global constant (universal scaling), a
per-cohort constant, or locally adapted from the mean distance to the K
nearest neighbors of both endpoints. The module also derives the propagation
operator D^{-1/2} W D^{-1/2} and the symmetric normalized Laplacian
I - D^{-1/2} W D^{-1/2} that graph-level fusion combines.
"""

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import ConfigurationError, DegeneracyWarning, NumericalError, StructuralError

# Bandwidths below this are clamped to keep the kernel exponent finite when
# duplicate embeddings collapse a KNN mean to zero.
SIGMA_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingView:
    """One vector modality of a household's utterances: an (n, dim) float
    matrix, one row per utterance."""

    name: str
    vectors: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.vectors, dtype=float)
        except ValueError as exc:
            raise StructuralError(
                f"view {self.name!r}: vectors must share one dimension "
                f"({exc})") from exc
        if arr.ndim != 2:
            raise StructuralError(
                f"view {self.name!r}: vectors must share one dimension "
                f"(got array of ndim {arr.ndim})")
        if arr.shape[1] < 1:
            raise StructuralError(f"view {self.name!r}: zero-dimensional vectors")
        if not np.isfinite(arr).all():
            raise StructuralError(f"view {self.name!r}: non-finite vector entries")
        if arr.shape[0] < 2:
            raise StructuralError(f"view {self.name!r}: need at least 2 utterances")
        object.__setattr__(self, "vectors", arr)


# ---------------------------------------------------------------------------
# Scaling rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniversalScaling:
    """One global bandwidth for every edge."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigurationError(f"universal sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class CohortScaling:
    """One bandwidth per cohort of households, constant within the cohort."""

    sigma_by_cohort: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "sigma_by_cohort", dict(self.sigma_by_cohort))
        for cohort, sigma in self.sigma_by_cohort.items():
            if not sigma > 0:
                raise ConfigurationError(
                    f"cohort {cohort!r}: sigma must be > 0, got {sigma}")


@dataclass(frozen=True)
class LocalScaling:
    """Per-edge bandwidth from mean K-nearest-neighbor distances.

    sigma[i, j] = s * mean of the 2k distances formed by pooling the k
    nearest-neighbor distances of node i with those of node j (multiset
    concatenation, self excluded).
    """

    k: int
    s: float

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"local k must be >= 1, got {self.k}")
        if not self.s > 0:
            raise ConfigurationError(f"local s must be > 0, got {self.s}")


ScalingRule = Union[UniversalScaling, CohortScaling, LocalScaling]


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative edge-weight matrix with zero diagonal."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise StructuralError(f"affinity matrix must be square, got {w.shape}")
        if not np.isfinite(w).all():
            raise StructuralError("affinity matrix has non-finite entries")
        if not np.array_equal(w, w.T):
            raise StructuralError("affinity matrix is not exactly symmetric")
        if np.any(np.diagonal(w) != 0.0):
            raise StructuralError("affinity matrix diagonal must be zero")
        if w.min() < 0.0 or w.max() > 1.0:
            raise StructuralError("affinity entries must lie in [0, 1]")
        object.__setattr__(self, "w", w)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def pairwise_distances(view: EmbeddingView) -> np.ndarray:
    """Symmetric zero-diagonal Euclidean distance matrix for one view."""
    # squareform(pdist(...)) computes each pair once, so the result is
    # exactly symmetric by construction.
    return squareform(pdist(view.vectors, metric="euclidean"))


def _nearest_distances(dist: np.ndarray, width: int) -> np.ndarray:
    """Each node's ``width`` smallest distances to the other nodes, ascending."""
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    # the first `width` columns hold the row's `width` smallest values, so
    # sorting them gives exactly the first `width` columns of a full sort
    masked.partition(width - 1, axis=1)
    return np.sort(masked[:, :width], axis=1)


class ViewDistances:
    """One view's distance matrix and its sorted nearest-neighbor distances,
    each computed once, from which the affinity under any bandwidth is built.

    The sort keeps ``k_max`` columns, the widest local-scaling k that will be
    asked for; a wider k sorts again.
    """

    def __init__(self, view: EmbeddingView, k_max: int = 1):
        self.dist = pairwise_distances(view)
        self.k_max = k_max
        self._nearest: np.ndarray | None = None

    def knn_means(self, k: int) -> np.ndarray:
        """Vector of per-node mean k-nearest-neighbor distances, self excluded."""
        n = self.dist.shape[0]
        if not 1 <= k <= n - 1:
            raise ConfigurationError(f"k must be in [1, {n - 1}], got {k}")
        if self._nearest is None or self._nearest.shape[1] < k:
            self._nearest = _nearest_distances(self.dist, min(max(k, self.k_max), n - 1))
        return self._nearest[:, :k].mean(axis=1)

    def affinity(self, rule: ScalingRule, cohort_id: str | None = None) -> AffinityMatrix:
        """Gaussian-kernel affinity under a scaling rule."""
        if isinstance(rule, UniversalScaling):
            sigma = rule.sigma
        elif isinstance(rule, CohortScaling):
            if cohort_id is None:
                raise ConfigurationError("cohort scaling requires a cohort id")
            if cohort_id not in rule.sigma_by_cohort:
                raise ConfigurationError(f"no sigma configured for cohort {cohort_id!r}")
            sigma = rule.sigma_by_cohort[cohort_id]
        elif isinstance(rule, LocalScaling):
            means = self.knn_means(rule.k)
            # mean of the pooled 2k neighbor distances of i and j, built in one
            # buffer; m_i + m_j commutes, so sigma is exactly symmetric
            sigma = np.add.outer(means, means)
            sigma *= rule.s
            sigma /= 2.0
        else:
            raise ConfigurationError(f"unknown scaling rule {type(rule).__name__}")
        return _gaussian_kernel(self.dist, sigma)


def _gaussian_kernel(dist: np.ndarray, sigma: np.ndarray | float) -> AffinityMatrix:
    """exp(-(dist/sigma)^2) with the sigma floor and a zero diagonal, computed
    in one n x n buffer.

    ``dist`` and an array ``sigma`` must be exactly symmetric, as squareform
    distances and s * (m_i + m_j) / 2 are: every step is elementwise, so the
    kernel is then exactly symmetric too, and AffinityMatrix checks that it is.
    An array ``sigma`` is that buffer: it is overwritten with the kernel.
    """
    if np.min(sigma) < SIGMA_FLOOR:
        # stacklevel 3 names the caller of ViewDistances.affinity / session_affinity
        warnings.warn("bandwidth clamped to sigma floor (duplicate embeddings?)",
                      DegeneracyWarning, stacklevel=3)
        sigma = np.maximum(sigma, SIGMA_FLOOR)
    w = np.divide(dist, sigma, out=sigma if isinstance(sigma, np.ndarray) else None)
    np.square(w, out=w)
    np.negative(w, out=w)
    np.exp(w, out=w)
    np.fill_diagonal(w, 0.0)
    return AffinityMatrix(w)


def affinity(view: EmbeddingView, rule: ScalingRule,
             cohort_id: str | None = None) -> AffinityMatrix:
    """Gaussian-kernel affinity matrix of one view under a scaling rule."""
    k = rule.k if isinstance(rule, LocalScaling) else 1
    return ViewDistances(view, k).affinity(rule, cohort_id)


def session_affinity(sessions: Sequence[str | None], sigma: float) -> AffinityMatrix:
    """Session-constraint affinity: distance 0 within a session, 1 across, under
    one fixed bandwidth (local scaling has no meaning on 0/1 distances).

    Ids are compared by ``str()``: two ids are one session when their strings
    are equal, character for character.
    """
    if any(s is None for s in sessions):
        raise StructuralError("session view requested but session ids missing")
    if not sigma > 0:
        raise ConfigurationError(f"session sigma must be > 0, got {sigma}")
    # integer codes, one per distinct string; comparing them costs a fraction
    # of comparing the strings. np.unique would not do: its fixed-width str
    # dtype drops trailing NULs and so merges "a" with "a\x00".
    codes: dict[str, int] = {}
    ids = np.array([codes.setdefault(str(s), len(codes)) for s in sessions], dtype=np.intp)
    return _gaussian_kernel(np.not_equal.outer(ids, ids).astype(float), sigma)


def propagation_operator(w: np.ndarray) -> np.ndarray:
    """S = D^{-1/2} W D^{-1/2} with degree checks.

    ``w`` holds the weights of a valid affinity: an AffinityMatrix, or a
    principal submatrix or elementwise maximum of such matrices.
    """
    degrees = w.sum(axis=1)
    bad = np.flatnonzero(degrees <= 0.0)
    if bad.size:
        raise StructuralError(f"node {bad[0]} has zero degree (disconnected)")
    # A subnormal degree d makes 1/sqrt(d)^2 = 1/d overflow to inf, and the
    # zero diagonal of W then turns the diagonal of S into nan.
    bad = np.flatnonzero(degrees < np.finfo(float).tiny)
    if bad.size:
        raise NumericalError(
            f"node {bad[0]} has subnormal degree {degrees[bad[0]]:.3e} (kernel underflow)")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    s = np.outer(inv_sqrt, inv_sqrt)
    s *= w
    return s


def normalized_laplacian(w: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian L = I - D^{-1/2} W D^{-1/2} of valid weights w."""
    return np.eye(w.shape[0]) - propagation_operator(w)
