"""Multi-view graph fusion.

Two fusion routes: edge-level max-pooling of per-view affinity matrices,
and graph-level fusion through the matrix power mean of per-view symmetric
normalized Laplacians,

    L = ((1/V) * sum_v (L_v + shift*I)^p)^(1/p),

where p interpolates between min-like (p << 0), harmonic (p = -1),
arithmetic (p = 1) and max-like (p >> 0) pooling of the view spectra.
"""

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigurationError, NumericalError, StructuralError
from .graph import (AffinityMatrix, _by_row_blocks, _identity_minus, _mirror_upper,
                    normalized_laplacian, propagation_operator)

# Eigenvalue floor applied before negative matrix powers.
NEG_POWER_EIG_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleView:
    view_name: str

    @property
    def view_names(self) -> tuple[str, ...]:
        return (self.view_name,)


@dataclass(frozen=True)
class EdgePoolFusion:
    """Elementwise maximum of per-view affinity matrices."""

    view_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "view_names", tuple(self.view_names))
        if not self.view_names:
            raise ConfigurationError("edge-pool fusion needs at least one view")


@dataclass(frozen=True)
class PowerMeanFusion:
    """Matrix power mean of per-view normalized Laplacians.

    ``shift`` regularizes the always-singular Laplacians before negative
    powers; None selects the default log(1 + |p|) for p < 0 and 0 otherwise.
    """

    view_names: tuple[str, ...]
    p: float
    shift: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "view_names", tuple(self.view_names))
        if not self.view_names:
            raise ConfigurationError("power-mean fusion needs at least one view")
        if not (math.isfinite(self.p) and self.p != 0):
            raise ConfigurationError(f"power-mean p must be finite and nonzero, got {self.p}")
        if self.shift is not None:
            if not 0 <= self.shift < math.inf:
                raise ConfigurationError(f"shift must be finite and >= 0, got {self.shift}")
            if self.p < 0 and self.shift == 0:
                raise ConfigurationError("shift must be > 0 when p < 0")

    @property
    def effective_shift(self) -> float:
        if self.shift is not None:
            return self.shift
        return math.log1p(abs(self.p)) if self.p < 0 else 0.0


FusionRule = Union[SingleView, EdgePoolFusion, PowerMeanFusion]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def edgepool_fuse(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise maximum across views' weights; keeps symmetry and the zero
    diagonal. A single matrix is returned as it is; with more, the inputs are
    left unchanged and the maximum is accumulated in one new array, by row
    blocks (see graph._by_row_blocks)."""
    if not matrices:
        raise ConfigurationError("edgepool_fuse needs at least one matrix")
    n = matrices[0].shape[0]
    for m in matrices:
        if m.shape[0] != n:
            raise StructuralError(f"affinity size mismatch: {m.shape[0]} != {n}")
    if len(matrices) == 1:
        return matrices[0]
    fused = np.empty_like(matrices[0])

    def rows(a, b):
        out = fused[a:b]
        np.maximum(matrices[0][a:b], matrices[1][a:b], out=out)
        for m in matrices[2:]:
            np.maximum(out, m[a:b], out=out)

    _by_row_blocks(n, rows)
    return fused


def _power_floor(p: float) -> float:
    return 0.0 if p > 0 else NEG_POWER_EIG_FLOOR


def _spd_inverse(m: np.ndarray) -> np.ndarray | None:
    """The Cholesky inverse of m in C order, or None when m is not numerically
    positive definite. dpotri fills the upper triangle of a Fortran-ordered
    array; mirrored, its transpose is the same matrix in C order, the order of
    every other S, so that S @ Y rounds as it does for them."""
    factor, info = lapack.dpotrf(m)
    if info != 0:
        return None
    inv, info = lapack.dpotri(factor, overwrite_c=True)
    return _mirror_upper(inv).T if info == 0 else None


def _inf_norm(m: np.ndarray) -> float:
    return np.abs(m).sum(axis=1).max()


def _mean_of_inverses(mats: Sequence[np.ndarray]) -> np.ndarray | None:
    """H = mean_v M_v^{-1} by Cholesky, or None when a floor could bind on an
    M_v or on H^{-1}, the harmonic mean.

    Each inverse's infinity norm bounds its largest eigenvalue, so within
    1/NEG_POWER_EIG_FLOOR every eigenvalue of its M_v is at least the floor.
    H is checked without inverting it: by Weyl's inequality its smallest
    eigenvalue is at least mean_v 1/||M_v||_inf, so when that bound is at
    least NEG_POWER_EIG_FLOOR, flooring H's eigenvalues would change nothing.
    """
    acc = np.zeros_like(mats[0])
    bound = 0.0
    for m in mats:
        inv = _spd_inverse(m)
        if inv is None or not _inf_norm(inv) <= 1.0 / NEG_POWER_EIG_FLOOR:
            return None
        acc += inv
        bound += 1.0 / _inf_norm(m)
    if not bound / len(mats) >= NEG_POWER_EIG_FLOOR:
        return None
    acc /= len(mats)
    return acc


def _harmonic_laplacian(h: np.ndarray) -> np.ndarray:
    """The Cholesky inverse of H from _mean_of_inverses, whose floor proof
    covers it; NumericalError when H is not numerically positive definite."""
    inv = _spd_inverse(h)
    if inv is None:
        raise NumericalError("harmonic mean of the Laplacians is not numerically "
                             "positive definite; use a larger shift")
    return _finite(inv)


def _finite(fused: np.ndarray) -> np.ndarray:
    if not np.isfinite(fused).all():
        raise NumericalError("fused laplacian has non-finite entries")
    return fused


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def _floored_eigh(m: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of an exactly symmetric input m, ascending and floored per
    _power_floor(q), and its eigenvectors; NumericalError when the
    decomposition fails or a materially negative eigenvalue meets a
    non-integer power q."""
    vals, vecs = _eigh(m)
    if q != int(q) and vals[0] < -1e-8:
        raise NumericalError(
            f"eigenvalue {vals[0]:.3e} < -1e-8 with non-integer power {q}")
    return np.maximum(vals, _power_floor(q)), vecs


def _floored_power_mean(mats: Sequence[np.ndarray], p: float) -> np.ndarray:
    """Power mean by floored eigendecompositions; NumericalError when
    round-off leaves the inputs' floored spectral range, which bounds the
    root's eigenvalues in exact arithmetic, or when a mean of several negative
    powers is too ill-conditioned for its root to be trusted."""
    decomposed = [_floored_eigh(m, p) for m in mats]
    low = min(vals[0] for vals, _ in decomposed)
    high = max(vals[-1] for vals, _ in decomposed)
    if len(decomposed) == 1:
        # The mean of one input is its own power, so its eigenbasis is the
        # input's; re-decomposing it would destroy the small eigenvalues
        # whenever the floor inflates the null space by many orders.
        vals, vecs = decomposed[0]
        means = vals ** p
    else:
        acc = np.zeros_like(mats[0])
        for vals, vecs in decomposed:
            out = (vecs * vals ** p) @ vecs.T
            acc += (out + out.T) / 2.0
        # Not an input: positive semidefinite in exact arithmetic and exactly
        # symmetric, so a negative eigenvalue is round-off for the checks below
        means, vecs = _eigh(acc / len(mats))
    # For p < 0 a floor on the mean's top eigenvalue, exact to about eps, floors
    # every power: the shift made them tiny. Below the top it floors round-off.
    floor = _power_floor(1.0 / p)
    hint = "" if p > 0 else f"; use a {'smaller' if means[-1] < floor else 'larger'} shift"
    means = np.maximum(means, floor)
    root = means ** (1.0 / p)
    # Tolerance 1e-6 of the range's top, about 100 * sqrt(eps): at p = 2 the
    # square root turns an eps-sized error in the mean into a sqrt(eps)-sized one.
    tolerance = 1e-6 * high
    if not (low - tolerance <= root.min() and root.max() <= high + tolerance):
        raise NumericalError(
            f"power mean with p={p} has eigenvalues in [{root.min():.6g}, "
            f"{root.max():.6g}], outside its inputs' range [{low:.6g}, {high:.6g}]{hint}")
    if p < 0 and len(decomposed) > 1:
        # eigh errs by about eps times the mean's top eigenvalue, so the root's
        # relative error is about cond(mean) * eps / |p|. Tolerance: 1e-6, as in the
        # range check. For normalized Laplacians at the default shift log(1 + |p|)
        # the estimate is below 1e-14 for |p| <= 10 and passes 1e-6 at p = -69.
        estimate = means[-1] / means[0] * np.finfo(float).eps / -p
        if estimate > 1e-6:
            raise NumericalError(f"power mean with p={p} is ill-conditioned (estimated "
                                 f"relative error {estimate:.3g}){hint}")
    out = (vecs * root) @ vecs.T
    return (out + out.T) / 2.0


def pml_fuse(laplacians: Sequence[np.ndarray], p: float,
             shift: float = 0.0) -> np.ndarray:
    """Matrix power mean of the given Laplacians with exponent p.

    Inputs must be symmetric to 1e-10 (else StructuralError, at every p) and
    positive semidefinite, as every normalized Laplacian is, so clamping
    eigenvalues at 0 for p > 0 only removes round-off. An inexactly symmetric
    input is replaced by (L + L^T)/2 here; every route keeps exact symmetry.

    p = 1 is the arithmetic mean plus shift*I and needs no decomposition.
    p = -1 is the Cholesky inverse of H, the mean of the Cholesky inverses of
    L_v + shift*I, taken whenever every factorization succeeds, every inverse
    proves that no eigenvalue of its L_v + shift*I lies below
    NEG_POWER_EIG_FLOOR, and a Weyl bound proves the same of H (see
    _mean_of_inverses); it raises NumericalError if H then fails to factor.
    Every other p, and p = -1 when a proof fails (for instance shift=0,
    where each L_v is singular), uses eigendecompositions with eigenvalues
    floored at NEG_POWER_EIG_FLOOR before negative powers; it raises
    NumericalError when round-off leaves the inputs' floored spectral range,
    and, for p < 0 and several inputs, when the mean's condition number puts
    the root's estimated relative error above 1e-6. For p < 0 these errors
    suggest a larger shift, or a smaller one where the floor binds on the
    top eigenvalue of the mean of powers.

    For p > 0 at shift 0, an eigenvalue that is 0 in exact arithmetic (on a
    null vector that every input shares) comes back as the p-th root of the
    round-off in the mean of powers, up to (n*eps)^(1/p) * lambda_max: for
    two copies of the 3-node complete graph's Laplacian, 6.1e-6 at p = 3 and
    9.8e-4 at p = 5. It is not snapped to 0, which would change p > 0 results.

    Raises StructuralError unless every input is a square matrix, and
    NumericalError when the fused Laplacian has non-finite entries.
    """
    if not laplacians:
        raise ConfigurationError("pml_fuse needs at least one Laplacian")
    if not (math.isfinite(p) and p != 0):
        raise ConfigurationError(f"power-mean p must be finite and nonzero, got {p}")
    if not 0 <= shift < math.inf:
        raise ConfigurationError(f"shift must be finite and >= 0, got {shift}")
    laplacians = [np.array(lap, dtype=float) for lap in laplacians]
    for lap in laplacians:
        if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
            raise StructuralError(f"laplacian must be a square matrix, got shape {lap.shape}")
    n = laplacians[0].shape[0]
    if n == 0:
        raise StructuralError("pml_fuse needs non-empty Laplacians")
    for i, lap in enumerate(laplacians):
        if lap.shape[0] != n:
            raise StructuralError(f"laplacian size mismatch: {lap.shape[0]} != {n}")
        # exact equality first: it is cheaper, and inf - inf would warn
        if not np.array_equal(lap, lap.T):
            if np.abs(lap - lap.T).max() > 1e-10:
                raise StructuralError("matrix power requires a symmetric input")
            laplacians[i] = (lap + lap.T) / 2.0
    fused, harmonic = _power_mean(laplacians, p, shift)
    return _harmonic_laplacian(fused) if harmonic else fused


def _power_mean(laplacians: list[np.ndarray], p: float,
                shift: float) -> tuple[np.ndarray, bool]:
    """The power mean of exactly symmetric Laplacians that the caller owns and
    that it shifts in place: (H, True), H = mean_v (L_v + shift*I)^{-1} being
    the inverse of the fused Laplacian, when p = -1 and its floor proofs hold
    (see _mean_of_inverses), else (the fused Laplacian, False)."""
    for lap in laplacians:
        lap.flat[::lap.shape[0] + 1] += shift
    if p == -1 and (h := _mean_of_inverses(laplacians)) is not None:
        return h, True
    fused = sum(laplacians) / len(laplacians) if p == 1 else _floored_power_mean(laplacians, p)
    return _finite(fused), False


# ---------------------------------------------------------------------------
# Fused graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusedGraph:
    """The operator of a fusion rule, plus the ``weights`` that re-fuse its
    subgraphs: the pooled matrix for single-view and edge-pool rules, whose
    blocks pool the views' blocks, and each view's matrix in the rule's order
    for a power mean, whose Laplacians need each view's degrees. A block of
    the operator is not a subgraph's operator, which must be re-normalized.

    ``operator`` is S, except for a ``harmonic`` graph (p = -1 whose floor
    proofs hold), where it is H = mean_v (L_v + shift*I)^{-1}, the inverse of
    the fused Laplacian; S = I - H^{-1} is then built only on request.
    """

    rule: FusionRule
    weights: tuple[np.ndarray, ...]
    operator: np.ndarray
    harmonic: bool = False

    @property
    def node_count(self) -> int:
        return self.operator.shape[0]

    def propagation_matrix(self) -> np.ndarray:
        """S for label propagation: D^{-1/2} W D^{-1/2}, or I - L when fused;
        a harmonic graph builds it on the first call, from H's inverse."""
        return self._harmonic_s if self.harmonic else self.operator

    @functools.cached_property
    def _harmonic_s(self) -> np.ndarray:
        return _identity_minus(_harmonic_laplacian(self.operator))

    def solve(self, alpha: float, y0: np.ndarray) -> np.ndarray:
        """The propagation fixed point y = (1 - alpha) (I - alpha*S)^{-1} Y0,
        by a Cholesky factorization of A = I - alpha*S, or for a harmonic
        graph of that system times H, A = (1 - alpha) H + alpha I, with
        right-hand side (1 - alpha) H Y0. A is built by row blocks (see
        graph._by_row_blocks) and factored in place; NumericalError when it
        is not positive definite or y is not finite."""
        if self.harmonic:
            m, scale, diagonal, b = self.operator, 1.0 - alpha, alpha, self.operator @ y0
        else:
            m, scale, diagonal, b = self.propagation_matrix(), -alpha, 1.0, y0
        n = self.node_count
        a = np.empty((n, n))
        _by_row_blocks(n, lambda i, j: np.multiply(m[i:j], scale, out=a[i:j]))
        a.flat[::n + 1] += diagonal
        # a is symmetric, so its F-ordered transpose is factored in place
        factor, info = lapack.dpotrf(a.T, overwrite_a=True, clean=False)
        if info != 0:
            raise NumericalError(
                f"I - alpha*S is not positive definite at alpha={alpha}: "
                f"{info}-th leading minor of the array is not positive definite")
        y, _ = lapack.dpotrs(factor, (1.0 - alpha) * b)
        if not np.isfinite(y).all():
            raise NumericalError("closed-form solution has non-finite values")
        return y

    def subgraph(self, size: int) -> "FusedGraph":
        """The rule applied to the leading size x size block of the weights,
        taken as views of this graph's weights rather than copies."""
        return _fuse_weights([w[:size, :size] for w in self.weights], self.rule)


def _fuse_weights(weights: list[np.ndarray], rule: FusionRule) -> FusedGraph:
    """The fused graph of a rule's weights, per view or pooled; the one builder
    of S and H. The weights are kernels, trusted as graph.propagation_operator
    says."""
    if not isinstance(rule, PowerMeanFusion):
        pooled = edgepool_fuse(weights)
        return FusedGraph(rule=rule, weights=(pooled,), operator=propagation_operator(pooled))
    fused, harmonic = _power_mean([normalized_laplacian(w) for w in weights], rule.p,
                                  rule.effective_shift)
    return FusedGraph(rule=rule, weights=tuple(weights), harmonic=harmonic,
                      operator=fused if harmonic else _identity_minus(fused))


def fuse(affinities: Mapping[str, AffinityMatrix], rule: FusionRule) -> FusedGraph:
    """Apply a fusion rule to named per-view affinity matrices."""
    if not isinstance(rule, (SingleView, EdgePoolFusion, PowerMeanFusion)):
        raise ConfigurationError(f"unknown fusion rule {type(rule).__name__}")
    for name in rule.view_names:
        if name not in affinities:
            raise ConfigurationError(f"fusion rule references unknown view {name!r}")
    return _fuse_weights([affinities[name].w for name in rule.view_names], rule)
