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

from .errors import ConfigurationError, StructuralError
from .graph import (
    NEG_POWER_EIG_FLOOR,
    AffinityMatrix,
    LaplacianMatrix,
    normalized_laplacian,
    propagation_operator,
    sym_matrix_power,
)


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
    diagonal. A single matrix is returned as it is."""
    if not matrices:
        raise ConfigurationError("edgepool_fuse needs at least one matrix")
    n = matrices[0].shape[0]
    for m in matrices:
        if m.shape[0] != n:
            raise StructuralError(f"affinity size mismatch: {m.shape[0]} != {n}")
    return functools.reduce(np.maximum, matrices)


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


def _floored_power_mean(mats: Sequence[np.ndarray], p: float) -> np.ndarray:
    """Power mean by eigendecomposition, eigenvalues floored per _power_floor."""
    if len(mats) == 1:
        m = mats[0]
        vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
        powered = np.maximum(vals, _power_floor(p)) ** p
        back = np.maximum(powered, _power_floor(1.0 / p)) ** (1.0 / p)
        return (vecs * back) @ vecs.T
    acc = np.zeros_like(mats[0])
    for m in mats:
        acc += sym_matrix_power(m, p, floor=_power_floor(p))
    return sym_matrix_power(acc / len(mats), 1.0 / p, floor=_power_floor(1.0 / p))


def pml_fuse(laplacians: Sequence[LaplacianMatrix], p: float,
             shift: float = 0.0) -> LaplacianMatrix:
    """Matrix power mean of the given Laplacians with exponent p.

    Inputs must be positive semidefinite, as every normalized Laplacian is,
    so clamping eigenvalues at 0 for p > 0 only removes round-off.

    p = 1 is the arithmetic mean plus shift*I and needs no decomposition.
    p = -1 is the Cholesky inverse of the mean of the Cholesky inverses of
    L_v + shift*I, taken whenever every factorization succeeds and every
    inverse proves that no eigenvalue lies below NEG_POWER_EIG_FLOOR.
    Every other p, and p = -1 when that proof fails (for instance shift=0,
    where each L_v is singular), uses eigendecompositions with eigenvalues
    floored at NEG_POWER_EIG_FLOOR before negative powers. A single input
    is then handled in one eigendecomposition; re-decomposing its own matrix
    power would destroy the small eigenvalues whenever the floor inflates
    the null space by many orders of magnitude.
    """
    if not laplacians:
        raise ConfigurationError("pml_fuse needs at least one Laplacian")
    if p == 0:
        raise ConfigurationError("power-mean exponent p must be nonzero")
    if shift < 0:
        raise ConfigurationError(f"shift must be >= 0, got {shift}")
    n = laplacians[0].n
    for lap in laplacians:
        if lap.n != n:
            raise StructuralError(f"laplacian size mismatch: {lap.n} != {n}")

    eye = np.eye(n)
    shifted = [lap.l + shift * eye for lap in laplacians]
    fused = None
    if p == 1:
        fused = sum(shifted) / len(shifted)
    elif p == -1:
        fused = _harmonic_mean(shifted)
    if fused is None:
        fused = _floored_power_mean(shifted, p)
    fused = (fused + fused.T) / 2.0
    return LaplacianMatrix(l=fused, complement=eye - fused)


# ---------------------------------------------------------------------------
# Fused graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusedGraph:
    """Propagation operator S of a fusion rule, plus the per-view weights.

    ``view_weights`` hold the weight matrices of the rule's views, in the
    rule's order, so that node subsets can be re-fused: a submatrix of S is
    not the operator of the subgraph, which must be re-normalized.
    """

    rule: FusionRule
    view_weights: tuple[np.ndarray, ...]
    operator: np.ndarray

    @property
    def node_count(self) -> int:
        return self.operator.shape[0]

    def propagation_matrix(self) -> np.ndarray:
        """S for label propagation: D^{-1/2} W D^{-1/2}, or I - L when fused."""
        return self.operator

    def subgraph(self, indices: np.ndarray) -> "FusedGraph":
        """The rule applied to the per-view principal submatrices on indices."""
        idx = np.ix_(indices, indices)
        return _fuse_weights([w[idx] for w in self.view_weights], self.rule)


def _fuse_weights(weights: list[np.ndarray], rule: FusionRule) -> FusedGraph:
    if isinstance(rule, PowerMeanFusion):
        laplacians = [normalized_laplacian(w) for w in weights]
        s = pml_fuse(laplacians, rule.p, rule.effective_shift).complement
    else:
        s = propagation_operator(edgepool_fuse(weights))
    return FusedGraph(rule=rule, view_weights=tuple(weights), operator=s)


def fuse(affinities: Mapping[str, AffinityMatrix], rule: FusionRule) -> FusedGraph:
    """Apply a fusion rule to named per-view affinity matrices."""
    if not isinstance(rule, (SingleView, EdgePoolFusion, PowerMeanFusion)):
        raise ConfigurationError(f"unknown fusion rule {type(rule).__name__}")
    for name in rule.view_names:
        if name not in affinities:
            raise ConfigurationError(f"fusion rule references unknown view {name!r}")
    return _fuse_weights([affinities[name].w for name in rule.view_names], rule)
