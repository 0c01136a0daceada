"""Per-view affinity graphs over utterance embeddings.

One household induces one fully connected graph per view. Edge weights come
from a Gaussian kernel on pairwise Euclidean distances,

    W[i, j] = exp(-dist(i, j)^2 / sigma[i, j]^2),

where the bandwidth sigma is a global constant (universal scaling), a
per-cohort constant, or locally adapted from the mean distance to the K
nearest neighbors of both endpoints. The module also derives the symmetric
normalized Laplacian I - D^{-1/2} W D^{-1/2} and provides regularized
symmetric matrix powers used by graph-level fusion.
"""

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import ConfigurationError, DegeneracyWarning, NumericalError, StructuralError

# Bandwidths below this are clamped to keep the kernel exponent finite when
# duplicate embeddings collapse a KNN mean to zero.
SIGMA_FLOOR = 1e-6

# Eigenvalue floor applied before negative matrix powers.
NEG_POWER_EIG_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingView:
    """One signal modality of a household's utterances.

    A vector view holds an (n, dim) float matrix, one row per utterance. A
    session view holds one session identifier per utterance instead; its
    pairwise distance is 0 for utterances sharing a session and 1 otherwise.
    """

    name: str
    vectors: np.ndarray | None = None
    session_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        if (self.vectors is None) == (self.session_ids is None):
            raise StructuralError(
                f"view {self.name!r}: exactly one of vectors/session_ids required")
        if self.vectors is not None:
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
            object.__setattr__(self, "vectors", arr)
        else:
            object.__setattr__(self, "session_ids", tuple(str(s) for s in self.session_ids))
        if self.n < 2:
            raise StructuralError(f"view {self.name!r}: need at least 2 utterances")

    @classmethod
    def from_vectors(cls, name: str, vectors) -> "EmbeddingView":
        return cls(name=name, vectors=vectors)

    @classmethod
    def from_sessions(cls, name: str, session_ids: Sequence[str]) -> "EmbeddingView":
        return cls(name=name, session_ids=tuple(session_ids))

    @property
    def is_session_view(self) -> bool:
        return self.session_ids is not None

    @property
    def n(self) -> int:
        if self.vectors is not None:
            return self.vectors.shape[0]
        return len(self.session_ids)

    @property
    def dim(self) -> int | None:
        return None if self.vectors is None else self.vectors.shape[1]

    def scaled(self, c: float) -> "EmbeddingView":
        """Return a copy with all vectors multiplied by c (session views reject)."""
        if self.is_session_view:
            raise ConfigurationError("cannot scale a session view")
        return EmbeddingView.from_vectors(self.name, self.vectors * float(c))


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

    @property
    def n(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class LaplacianMatrix:
    """Symmetric normalized Laplacian, single-view or fused.

    ``complement`` is the propagation operator S: for a single view it is
    D^{-1/2} W D^{-1/2}; for a fused Laplacian it is I - L.
    """

    l: np.ndarray
    complement: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        l = np.asarray(self.l, dtype=float)
        if l.ndim != 2 or l.shape[0] != l.shape[1]:
            raise StructuralError(f"laplacian must be square, got {l.shape}")
        if not np.isfinite(l).all():
            raise NumericalError("laplacian has non-finite entries")
        if np.abs(l - l.T).max() > 1e-12:
            raise StructuralError("laplacian not symmetric within 1e-12")
        object.__setattr__(self, "l", l)
        if self.complement is None:
            object.__setattr__(self, "complement", np.eye(l.shape[0]) - l)

    @property
    def n(self) -> int:
        return self.l.shape[0]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def pairwise_distances(view: EmbeddingView) -> np.ndarray:
    """Symmetric zero-diagonal distance matrix for one view.

    Euclidean distances for vector views; for a session view, 0 when two
    utterances share a session id and 1 otherwise.
    """
    if view.is_session_view:
        ids = np.asarray(view.session_ids, dtype=object)
        dist = (ids[:, None] != ids[None, :]).astype(float)
        np.fill_diagonal(dist, 0.0)
        return dist
    # squareform(pdist(...)) computes each pair once, so the result is
    # exactly symmetric by construction.
    return squareform(pdist(view.vectors, metric="euclidean"))


def _knn_row_means(dist: np.ndarray, k: int) -> np.ndarray:
    """Vector of per-node mean k-nearest-neighbor distances, self excluded."""
    n = dist.shape[0]
    if not 1 <= k <= n - 1:
        raise ConfigurationError(f"k must be in [1, {n - 1}], got {k}")
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    ordered = np.sort(masked, axis=1)[:, :k]
    return ordered.mean(axis=1)


def _resolve_sigma(view: EmbeddingView, dist: np.ndarray, rule: ScalingRule,
                   cohort_id: str | None) -> np.ndarray | float:
    if isinstance(rule, UniversalScaling):
        return rule.sigma
    if isinstance(rule, CohortScaling):
        if cohort_id is None:
            raise ConfigurationError("cohort scaling requires a cohort id")
        if cohort_id not in rule.sigma_by_cohort:
            raise ConfigurationError(f"no sigma configured for cohort {cohort_id!r}")
        return rule.sigma_by_cohort[cohort_id]
    if isinstance(rule, LocalScaling):
        if view.is_session_view:
            raise ConfigurationError(
                "local scaling is not applicable to session views "
                "(0/1 distances make KNN means degenerate)")
        n = dist.shape[0]
        if rule.k > n - 1:
            raise ConfigurationError(
                f"local k={rule.k} needs at least {rule.k + 1} nodes, have {n}")
        means = _knn_row_means(dist, rule.k)
        # mean of the pooled 2k neighbor distances of i and j
        return rule.s * (means[:, None] + means[None, :]) / 2.0
    raise ConfigurationError(f"unknown scaling rule {type(rule).__name__}")


def affinity(view: EmbeddingView, rule: ScalingRule,
             cohort_id: str | None = None) -> AffinityMatrix:
    """Gaussian-kernel affinity matrix of one view under a scaling rule."""
    dist = pairwise_distances(view)
    sigma = _resolve_sigma(view, dist, rule, cohort_id)
    if np.any(np.asarray(sigma) < SIGMA_FLOOR):
        warnings.warn("bandwidth clamped to sigma floor (duplicate embeddings?)",
                      DegeneracyWarning, stacklevel=2)
        sigma = np.maximum(sigma, SIGMA_FLOOR)
    w = np.exp(-(dist / sigma) ** 2)
    # mirror the upper triangle so symmetry never depends on float luck
    upper = np.triu(w, 1)
    return AffinityMatrix(upper + upper.T)


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
    return w * np.outer(inv_sqrt, inv_sqrt)


def normalized_laplacian(w: np.ndarray) -> LaplacianMatrix:
    """Symmetric normalized Laplacian L = I - D^{-1/2} W D^{-1/2} of valid weights w."""
    s = propagation_operator(w)
    l = np.eye(w.shape[0]) - s
    return LaplacianMatrix(l=l, complement=s)


def sym_matrix_power(m: np.ndarray, p: float, floor: float = 0.0) -> np.ndarray:
    """U max(lambda, floor)^p U^T for a symmetric matrix m = U diag(lambda) U^T.

    Raises NumericalError when a materially negative eigenvalue meets a
    non-integer power, or when a nonpositive eigenvalue survives the floor
    under a negative power.
    """
    m = np.asarray(m, dtype=float)
    if p == 0:
        raise ConfigurationError("matrix power p must be nonzero")
    if floor < 0:
        raise ConfigurationError(f"eigenvalue floor must be >= 0, got {floor}")
    if np.abs(m - m.T).max() > 1e-10:
        raise StructuralError("matrix power requires a symmetric input")
    try:
        vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if p != int(p) and vals.min() < -1e-8:
        raise NumericalError(
            f"eigenvalue {vals.min():.3e} < -1e-8 with non-integer power {p}")
    floored = np.maximum(vals, floor)
    if p < 0 and floored.min() <= 0.0:
        raise NumericalError(
            "nonpositive eigenvalue under negative power; raise the floor")
    powered = floored ** p
    out = (vecs * powered) @ vecs.T
    return (out + out.T) / 2.0
