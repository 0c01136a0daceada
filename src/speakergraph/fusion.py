"""Multi-view graph fusion.

Two fusion routes: edge-level max-pooling of per-view affinity matrices,
and graph-level fusion through the matrix power mean of per-view symmetric
normalized Laplacians,

    L = ((1/V) * sum_v (L_v + shift*I)^p)^(1/p),

where p interpolates between min-like (p << 0), harmonic (p = -1),
arithmetic (p = 1) and max-like (p >> 0) pooling of the view spectra.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigurationError, NumericalError, StructuralError
from .graph import (AffinityMatrix, _by_row_blocks, _exactly_symmetric, normalized_laplacian,
                    propagation_operator)

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
        if self.p == 0:
            raise ConfigurationError("power-mean exponent p must be nonzero")
        if self.shift is not None:
            if self.shift < 0:
                raise ConfigurationError(f"shift must be >= 0, got {self.shift}")
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


def _floor_free_spd_inverse(m: np.ndarray) -> np.ndarray | None:
    """Cholesky inverse of m, or None when the eigenvalue floor could bind.

    None means m is not numerically positive definite, or the inverse's
    infinity norm exceeds 1/NEG_POWER_EIG_FLOOR. That norm bounds the
    inverse's largest eigenvalue, so within it every eigenvalue of m is at
    least the floor and flooring would have changed nothing.
    """
    factor, info = lapack.dpotrf(m)
    if info != 0:
        return None
    inv, info = lapack.dpotri(factor, overwrite_c=True)
    if info != 0:
        return None
    # dpotrf zeroed the strict lower triangle and dpotri fills only the upper
    inv += np.triu(inv, 1).T
    if not np.abs(inv).sum(axis=1).max() <= 1.0 / NEG_POWER_EIG_FLOOR:
        return None
    return inv


def _harmonic_mean(mats: Sequence[np.ndarray]) -> np.ndarray | None:
    """(mean_v M_v^{-1})^{-1} by Cholesky, or None when a floor could bind."""
    acc = np.zeros_like(mats[0])
    for m in mats:
        inv = _floor_free_spd_inverse(m)
        if inv is None:
            return None
        acc += inv
    acc /= len(mats)
    return _floor_free_spd_inverse(acc)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def _floored_eigh(m: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric input m, ascending and floored per
    _power_floor(q), and its eigenvectors; NumericalError when the
    decomposition fails or a materially negative eigenvalue meets a
    non-integer power q."""
    vals, vecs = _eigh((m + m.T) / 2.0)
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
    means = np.maximum(means, _power_floor(1.0 / p))
    root = means ** (1.0 / p)
    # Tolerance 1e-6 of the range's top, about 100 * sqrt(eps): at p = 2 the
    # square root turns an eps-sized error in the mean into a sqrt(eps)-sized one.
    tolerance = 1e-6 * high
    if not (low - tolerance <= root.min() and root.max() <= high + tolerance):
        raise NumericalError(
            f"power mean with p={p} has eigenvalues in [{root.min():.6g}, "
            f"{root.max():.6g}], outside its inputs' range [{low:.6g}, {high:.6g}]"
            + ("; use a larger shift" if p < 0 else ""))
    if p < 0 and len(decomposed) > 1:
        # eigh errs by about eps times the mean's top eigenvalue, so the root's
        # relative error is about cond(mean) * eps / |p|. Tolerance: 1e-6, as in the
        # range check. For normalized Laplacians at the default shift log(1 + |p|)
        # the estimate is below 1e-14 for |p| <= 10 and passes 1e-6 at p = -69.
        estimate = means[-1] / means[0] * np.finfo(float).eps / -p
        if estimate > 1e-6:
            raise NumericalError(f"power mean with p={p} is ill-conditioned (estimated "
                                 f"relative error {estimate:.3g}); use a larger shift")
    out = (vecs * root) @ vecs.T
    return (out + out.T) / 2.0


def pml_fuse(laplacians: Sequence[np.ndarray], p: float,
             shift: float = 0.0) -> np.ndarray:
    """Matrix power mean of the given Laplacians with exponent p.

    Inputs must be symmetric to 1e-10 (else StructuralError, at every p) and
    positive semidefinite, as every normalized Laplacian is, so clamping
    eigenvalues at 0 for p > 0 only removes round-off.

    p = 1 is the arithmetic mean plus shift*I and needs no decomposition.
    p = -1 is the Cholesky inverse of the mean of the Cholesky inverses of
    L_v + shift*I, taken whenever every factorization succeeds and every
    inverse proves that no eigenvalue lies below NEG_POWER_EIG_FLOOR.
    Every other p, and p = -1 when that proof fails (for instance shift=0,
    where each L_v is singular), uses eigendecompositions with eigenvalues
    floored at NEG_POWER_EIG_FLOOR before negative powers; it raises
    NumericalError when round-off leaves the inputs' floored spectral range,
    and, for p < 0 and several inputs, when the mean's condition number puts
    the root's estimated relative error above 1e-6. For p < 0 both errors
    suggest a larger shift.

    Raises NumericalError when the fused Laplacian has non-finite entries.
    """
    if not laplacians:
        raise ConfigurationError("pml_fuse needs at least one Laplacian")
    if p == 0:
        raise ConfigurationError("power-mean exponent p must be nonzero")
    if shift < 0:
        raise ConfigurationError(f"shift must be >= 0, got {shift}")
    n = laplacians[0].shape[0]
    if n == 0:
        raise StructuralError("pml_fuse needs non-empty Laplacians")
    for lap in laplacians:
        if lap.shape[0] != n:
            raise StructuralError(f"laplacian size mismatch: {lap.shape[0]} != {n}")
        if not _exactly_symmetric(lap) and np.abs(lap - lap.T).max() > 1e-10:
            raise StructuralError("matrix power requires a symmetric input")

    eye = np.eye(n)
    shifted = [lap + shift * eye for lap in laplacians]
    fused = None
    if p == 1:
        fused = sum(shifted) / len(shifted)
    elif p == -1:
        fused = _harmonic_mean(shifted)
    if fused is None:
        fused = _floored_power_mean(shifted, p)
    fused = (fused + fused.T) / 2.0
    if not np.isfinite(fused).all():
        raise NumericalError("fused laplacian has non-finite entries")
    return fused


# ---------------------------------------------------------------------------
# Fused graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusedGraph:
    """Propagation operator S of a fusion rule, plus the ``weights`` that
    re-fuse its subgraphs: the pooled matrix for single-view and edge-pool
    rules, whose blocks pool the views' blocks, and each view's matrix in the
    rule's order for a power mean, whose Laplacians need each view's degrees.
    A block of S is not a subgraph's operator, which must be re-normalized.
    """

    rule: FusionRule
    weights: tuple[np.ndarray, ...]
    operator: np.ndarray

    @property
    def node_count(self) -> int:
        return self.operator.shape[0]

    def propagation_matrix(self) -> np.ndarray:
        """S for label propagation: D^{-1/2} W D^{-1/2}, or I - L when fused."""
        return self.operator

    def subgraph(self, size: int) -> "FusedGraph":
        """The rule applied to the leading size x size block of the weights,
        taken as views of this graph's weights rather than copies."""
        return _fuse_weights([w[:size, :size] for w in self.weights], self.rule)


def _fuse_weights(weights: list[np.ndarray], rule: FusionRule) -> FusedGraph:
    """The fused graph of a rule's weights, per view or pooled; the one builder of S."""
    if isinstance(rule, PowerMeanFusion):
        laplacians = [normalized_laplacian(w) for w in weights]
        s = np.eye(len(weights[0])) - pml_fuse(laplacians, rule.p, rule.effective_shift)
    else:
        weights = [edgepool_fuse(weights)]
        s = propagation_operator(weights[0])
    return FusedGraph(rule=rule, weights=tuple(weights), operator=s)


def fuse(affinities: Mapping[str, AffinityMatrix], rule: FusionRule) -> FusedGraph:
    """Apply a fusion rule to named per-view affinity matrices."""
    if not isinstance(rule, (SingleView, EdgePoolFusion, PowerMeanFusion)):
        raise ConfigurationError(f"unknown fusion rule {type(rule).__name__}")
    for name in rule.view_names:
        if name not in affinities:
            raise ConfigurationError(f"fusion rule references unknown view {name!r}")
    return _fuse_weights([affinities[name].w for name in rule.view_names], rule)
