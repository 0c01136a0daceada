"""Multi-view graph fusion.

Two fusion routes: edge-level max-pooling of per-view affinity matrices,
and graph-level fusion through the matrix power mean of per-view symmetric
normalized Laplacians,

    L = ((1/V) * sum_v (L_v + shift*I)^p)^(1/p),

where p interpolates between min-like (p << 0), harmonic (p = -1),
arithmetic (p = 1) and max-like (p >> 0) pooling of the view spectra.
"""

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np
from scipy.linalg import cython_lapack, lapack

from .errors import ConfigurationError, NumericalError, StructuralError
from .graph import (AffinityMatrix, _by_row_blocks, _by_views, _check_square, _identity_minus,
                    _inv_sqrt_degrees, _laplacian, _mirror_upper, _operator, _operator_rows)

# Eigenvalue floor applied before negative matrix powers.
NEG_POWER_EIG_FLOOR = 1e-8

# Most conjugate-gradient steps, summed over the alphas a harmonic graph is
# solved at, that it takes (see _System); above it the graph builds H and
# factors each system instead. One-thread crossovers of a single
# solve: 20-25 steps at n = 368 and 38-51 at n = 1,608 (2-3 views); 32 keeps
# the slower route within 1.52x of the faster one at both sizes.
_CG_MAX_STEPS = 32


def _capsule_pointer(capsule) -> int:
    """The address a PyCapsule holds, read under the capsule's own name."""
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return pointer(capsule, name(capsule))


_INT_P = ctypes.POINTER(ctypes.c_int)
# LAPACK's dpotrf(uplo, n, a, lda, info), the routine scipy exports to Cython.
# A ctypes foreign call releases the GIL, which scipy's lapack.dpotrf holds.
_DPOTRF = ctypes.CFUNCTYPE(None, ctypes.c_char_p, _INT_P, ctypes.c_void_p, _INT_P, _INT_P)(
    _capsule_pointer(cython_lapack.__pyx_capi__["dpotrf"]))


def _potrf(a: np.ndarray) -> int:
    """Factor a C-ordered symmetric float array in place, without the GIL, as
    lapack.dpotrf(a.T, overwrite_a=True, clean=False) does: a.T holds the
    upper Cholesky factor, and its strict lower triangle is left as it was.
    Returns LAPACK's info: 0, or the order of the first leading minor that
    is not positive definite. The one Cholesky factorization in the package."""
    n = a.shape[0]
    if a.dtype != np.float64 or a.shape != (n, n) or not a.flags.c_contiguous:
        raise ValueError(f"_potrf needs a square C-ordered float64 array, got "
                         f"{a.dtype} {a.shape}")
    size, info = ctypes.c_int(n), ctypes.c_int()
    _DPOTRF(b"U", size, a.ctypes.data, size, info)
    return info.value


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def _view_tuple(names: Iterable[str], fusion: str) -> tuple[str, ...]:
    """A multi-view rule's view names as a tuple; ConfigurationError for none
    or for one string, whose letters are not view names."""
    if isinstance(names, str):
        raise ConfigurationError(f"{fusion} fusion needs a sequence of view names, got {names!r}")
    if not (names := tuple(names)):
        raise ConfigurationError(f"{fusion} fusion needs at least one view")
    return names


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
        object.__setattr__(self, "view_names", _view_tuple(self.view_names, "edge-pool"))


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
        object.__setattr__(self, "view_names", _view_tuple(self.view_names, "power-mean"))
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
    left unchanged and the maximum is accumulated in one new array (see
    _max_into). StructuralError unless every input is a square matrix of one size."""
    if not matrices:
        raise ConfigurationError("edgepool_fuse needs at least one matrix")
    _common_size(matrices)
    if len(matrices) == 1:
        return matrices[0]
    return _max_into(np.empty_like(matrices[0]), matrices)


def _max_into(out: np.ndarray, matrices: Sequence[np.ndarray]) -> np.ndarray:
    """The elementwise maximum of two or more n x n matrices, accumulated in
    ``out`` by row blocks (see graph._by_row_blocks); ``out`` may be the first."""

    def rows(a, b):
        block = out[a:b]
        np.maximum(matrices[0][a:b], matrices[1][a:b], out=block)
        for m in matrices[2:]:
            np.maximum(block, m[a:b], out=block)

    _by_row_blocks(out.shape[0], rows)
    return out


def _common_size(matrices: Sequence[np.ndarray]) -> int:
    """The node count of square matrices that share one; StructuralError otherwise."""
    for m in matrices:
        _check_square(m)
        if m.shape[0] != (n := matrices[0].shape[0]):
            raise StructuralError(f"affinity size mismatch: {m.shape[0]} != {n}")
    return n


def _power_floor(p: float) -> float:
    return 0.0 if p > 0 else NEG_POWER_EIG_FLOOR


def _factor_inverse(factor: np.ndarray, overwrite: bool = False) -> np.ndarray | None:
    """M^{-1} in C order from M's upper Cholesky factor, or None when dpotri
    fails. dpotri fills the upper triangle of a Fortran-ordered array;
    mirrored, its transpose is the same matrix in C order, the order of every
    other S, so that S @ Y rounds as it does for them."""
    inv, info = lapack.dpotri(factor, overwrite_c=overwrite)
    return _mirror_upper(inv).T if info == 0 else None


def _inf_norm(m: np.ndarray) -> float:
    """max_i sum_j |m_ij|, the row sums taken by row blocks: each row sums as in one pass."""
    sums = np.empty(m.shape[0])
    _by_row_blocks(m.shape[0], lambda a, b: np.abs(m[a:b]).sum(axis=1, out=sums[a:b]))
    return sums.max()


def _weyl_bound_holds(norms: Sequence[float]) -> bool:
    """Whether no eigenvalue of H = mean_v M_v^{-1} lies below
    NEG_POWER_EIG_FLOOR, checked without inverting H: by Weyl's inequality its
    smallest eigenvalue is at least mean_v 1/||M_v||_inf, the ``norms``, so when
    that bound is at least the floor, flooring H's eigenvalues changes nothing."""
    return sum(1.0 / norm for norm in norms) / len(norms) >= NEG_POWER_EIG_FLOOR


def _mean_inverse(factors: Sequence[np.ndarray], cap: float = math.inf) -> np.ndarray | None:
    """H = mean_v M_v^{-1} in C order from the views' upper Cholesky factors
    (in F order, left as they are), or None when dpotri fails on one or an
    inverse's infinity norm, which bounds its largest eigenvalue, exceeds
    ``cap``. The one builder of H."""
    acc = np.zeros(factors[0].shape)
    for factor in factors:
        inv = _factor_inverse(factor)
        if inv is None or not _inf_norm(inv) <= cap:
            return None
        acc += inv
    acc /= len(factors)
    return acc


def _mean_of_inverses(mats: Sequence[np.ndarray]) -> np.ndarray | None:
    """H = mean_v M_v^{-1} by Cholesky, each M_v factored in a copy of M_v.T
    (whose transpose is M_v in F order), or None when a floor could bind on
    an M_v or on H^{-1}, the harmonic mean: a factorization fails, an
    inverse's infinity norm exceeds 1/NEG_POWER_EIG_FLOOR, which would leave
    an eigenvalue of its M_v below the floor, or _weyl_bound_holds fails."""
    copies = [m.T.copy() for m in mats]
    if any(_potrf(a) != 0 for a in copies):
        return None
    h = _mean_inverse([a.T for a in copies], 1.0 / NEG_POWER_EIG_FLOOR)
    return h if h is not None and _weyl_bound_holds([_inf_norm(m) for m in mats]) else None


def _harmonic_laplacian(h: np.ndarray) -> np.ndarray:
    """The Cholesky inverse of H, factored in a copy of H.T; the floor proofs
    of H's builders (_mean_of_inverses, _harmonic_factors) cover it.
    NumericalError when H is not numerically positive definite."""
    a = h.T.copy()
    inv = _factor_inverse(a.T, overwrite=True) if _potrf(a) == 0 else None
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
    for lap in laplacians:
        lap.flat[::n + 1] += shift
    if p == -1 and (h := _mean_of_inverses(laplacians)) is not None:
        return _harmonic_laplacian(h)
    return _power_mean(laplacians, p)


def _power_mean(shifted: list[np.ndarray], p: float) -> np.ndarray:
    """The power mean of exactly symmetric shifted Laplacians: their mean at
    p = 1, accumulated in the first one's array (the caller's own), else by
    floored eigendecompositions (see _floored_power_mean). The mean starts
    from 0 + L_0, so a -0 entry becomes +0 as in sum(shifted)."""
    if p != 1:
        return _finite(_floored_power_mean(shifted, p))
    acc = np.add(shifted[0], 0.0, out=shifted[0])
    for m in shifted[1:]:
        acc += m
    return _finite(np.divide(acc, len(shifted), out=acc))


def _harmonic_factors(weights: Sequence[np.ndarray],
                      shift: float) -> tuple[np.ndarray, ...] | None:
    """Each view's upper Cholesky factor of M_v = L_v + shift*I, factored in
    M_v's own array (in F order), or None when a floor could bind on an M_v
    or on H = mean_v M_v^{-1}, or when a factorization fails; one task of
    graph._by_views per view builds, measures and factors M_v.

    No inverse is read. In exact arithmetic S_v = D^{-1/2} W D^{-1/2} has
    spectral radius at most 1, so no eigenvalue of M_v lies below shift.
    Computed (u = eps/2), each degree errs by at most (n - 1)u relative, its
    inverse square root by 2u more and each entry's two products by 2u, so
    ||S_v|| <= 1 + (n + 5)u to first order, and forming I - S_v + shift*I
    moves the diagonal by at most (2 + shift)u. delta = (n + 8)(1 + shift) eps
    bounds that eigenvalue shift more than twice over; the floor cannot bind
    when shift - delta >= NEG_POWER_EIG_FLOOR. H is checked by
    _weyl_bound_holds on the tasks' norms: a failing bound, which only a
    shift near the floor causes, throws their factorizations away.
    """
    n = weights[0].shape[0]
    if not shift - (n + 8) * (1.0 + shift) * np.finfo(float).eps >= NEG_POWER_EIG_FLOOR:
        return None

    def factored(w):
        m = _laplacian(w, shift)
        return m, _inf_norm(m), _potrf(m)

    mats, norms, infos = zip(*_by_views(n, weights, factored))
    return tuple(m.T for m in mats) if _weyl_bound_holds(norms) and not any(infos) else None


def _cg_steps(alpha: float, shift: float) -> int:
    """The conjugate-gradient steps that bring the a-priori bound on the
    A-norm error of a harmonic solve, 2 ((sqrt(k) - 1) / (sqrt(k) + 1))^steps
    times the first one (Saad, "Iterative Methods for Sparse Linear Systems",
    2003, 6.11.3), below eps.

    Each M_v = L_v + shift*I has its spectrum in [shift, 2 + shift], and so
    H = mean_v M_v^{-1} in [1/(2 + shift), 1/shift], and A = (1 - alpha) H +
    alpha I has k = cond(A) <= (alpha + (1 - alpha)/shift) / (alpha +
    (1 - alpha)/(2 + shift)): 1.12 at alpha = 0.9 and shift log 2, where
    11 steps do. The count depends on alpha and shift alone, never on n.
    """
    low = alpha + (1.0 - alpha) / (2.0 + shift)
    excess = 2.0 * (1.0 - alpha) / (shift * (2.0 + shift)) / low  # k - 1, uncancelled
    rate = excess / (math.sqrt(1.0 + excess) + 1.0) ** 2
    return math.ceil(math.log(np.finfo(float).eps / 2.0) / math.log(rate))


def _check_y0(y0: np.ndarray, n: int) -> None:
    """StructuralError unless y0 is 2-D with one row per node of n."""
    if np.ndim(y0) != 2 or len(y0) != n:
        raise StructuralError(f"y0 must be 2-D, one row per node ({n}), got shape {np.shape(y0)}")


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where num is 0: a column whose residual is 0 stops."""
    return np.divide(num, den, out=np.zeros_like(num), where=num != 0.0)


# ---------------------------------------------------------------------------
# Fused graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusedGraph:
    """The propagation operator S of a fusion rule, plus the ``weights`` that
    re-fuse its subgraphs: the pooled matrix W for single-view and edge-pool
    rules, whose blocks pool the views' blocks, and each view's matrix in the
    rule's order for a power mean, whose Laplacians need each view's degrees.
    A block of S is not a subgraph's S, which must be re-normalized.

    A single-view or edge-pool graph has no ``operator``: it holds
    ``inv_sqrt_degrees``, the vector d = D^{-1/2} of W, checked when the graph
    is built, and the direct solver forms each row block of I - alpha*S from W
    and d (see _System). A power mean's ``operator`` is S = I - L,
    except for a ``harmonic`` graph (p = -1 whose floor proofs hold, see
    _harmonic_factors), which has no operator and holds in ``factors`` each
    view's upper Cholesky factor of M_v = L_v + shift*I (the other triangle
    is M_v's): H = mean_v M_v^{-1}, the inverse of the fused Laplacian, is
    applied through them, and H itself is built only on request. An operator
    given explicitly is used as it is; a graph needs an operator, factors or
    d (else StructuralError). propagation_matrix() builds a missing S on its
    first call.
    """

    rule: FusionRule
    weights: tuple[np.ndarray, ...]
    operator: np.ndarray | None = None
    factors: tuple[np.ndarray, ...] = ()
    inv_sqrt_degrees: np.ndarray | None = None

    def __post_init__(self):
        if self.operator is None and not self.factors and self.inv_sqrt_degrees is None:
            raise StructuralError("a fused graph needs an operator, factors or "
                                  "inv_sqrt_degrees")

    @property
    def harmonic(self) -> bool:
        return bool(self.factors)

    @property
    def node_count(self) -> int:
        return self.weights[0].shape[0]

    def propagation_matrix(self) -> np.ndarray:
        """S for label propagation: D^{-1/2} W D^{-1/2}, or I - L when fused.
        Without an operator it is built on the first call: from W and d, or
        for a harmonic graph from H's inverse."""
        return self._built_s if self.operator is None else self.operator

    @functools.cached_property
    def _built_s(self) -> np.ndarray:
        if self.harmonic:
            return _identity_minus(_harmonic_laplacian(self._mean_inverse))
        return _operator(self.weights[0], self.inv_sqrt_degrees)

    @functools.cached_property
    def _mean_inverse(self) -> np.ndarray:
        """H from the views' factors, as pml_fuse builds it (see _mean_inverse)."""
        h = _mean_inverse(self.factors)
        if h is None:
            raise NumericalError("a view's Cholesky factor is singular")
        return h

    def system(self, alpha: float, alphas: Iterable[float] = ()) -> "_System":
        """The propagation system at alpha, routed for alpha and ``alphas`` (see _System)."""
        return _System(self, alpha, alphas)

    def _apply_h(self, x: np.ndarray) -> np.ndarray:
        """H x = mean_v M_v^{-1} x, one triangular solve pair per view."""
        hx = lapack.dpotrs(self.factors[0], x)[0]
        for factor in self.factors[1:]:
            hx += lapack.dpotrs(factor, x)[0]
        hx /= len(self.factors)
        return hx

    def _cg(self, alpha: float, y0: np.ndarray) -> np.ndarray:
        """_cg_steps steps of conjugate gradients on A y = b = (1 - alpha) H Y0
        (see _System) from y = b/alpha, a run per column with its own step and
        direction weights, vectorized across columns; only a zero residual stops one early."""
        b = self._apply_h(y0)
        b *= 1.0 - alpha
        y = b / alpha
        # r = b - A y, which is -(1 - alpha)/alpha H b, taken without cancellation
        r = self._apply_h(b)
        r *= -(1.0 - alpha) / alpha
        p = r.copy()
        rr = _column_dots(r, r)
        for _ in range(_cg_steps(alpha, self.rule.effective_shift)):
            if not rr.any():
                break
            ap = self._apply_h(p)
            ap *= 1.0 - alpha
            ap += alpha * p
            step = _ratios(rr, _column_dots(p, ap))
            y += step * p
            r -= step * ap
            rr_next = _column_dots(r, r)
            p *= _ratios(rr_next, rr)
            p += r
            rr = rr_next
        return y

    def subgraph(self, size: int) -> "FusedGraph":
        """The rule applied to the leading size x size block of the weights,
        taken as views of this graph's weights rather than copies."""
        return _fuse_weights([w[:size, :size] for w in self.weights], self.rule)


class _System:
    """A fused graph's propagation system at alpha, A y = (1 - alpha) b, with
    A = I - alpha*S and b = Y0, or on a harmonic graph A = (1 - alpha) H +
    alpha I and b = H Y0. Its route is chosen once: ``cg`` where the graph is
    harmonic and the _cg_steps of alpha and ``alphas``, each counted once, sum
    to at most _CG_MAX_STEPS; else a factor of A, filled from arrays read here
    on the calling thread. ConfigurationError unless each alpha is in (0, 1)."""

    def __init__(self, graph: FusedGraph, alpha: float, alphas: Iterable[float] = ()):
        alphas = {alpha, *alphas}
        for a in alphas:
            if not 0.0 < a < 1.0:
                raise ConfigurationError(f"alpha must be in (0, 1), got {a}")
        self.graph, self.alpha, self.factored = graph, alpha, None
        self.cg = graph.harmonic and sum(_cg_steps(a, graph.rule.effective_shift)
                                         for a in alphas) <= _CG_MAX_STEPS
        if self.cg:
            return
        # A = ((d_i d_j) m_ij) scale + diagonal I, with d = 1 (None) on graphs without d
        self._scale, self._diagonal = (1.0 - alpha, alpha) if graph.harmonic else (-alpha, 1.0)
        self._m, self._d = ((graph._mean_inverse, None) if graph.harmonic else
                            (graph.weights[0], graph.inv_sqrt_degrees) if graph.operator is None
                            else (graph.operator, None))

    def fill(self, out: np.ndarray | None = None) -> np.ndarray:
        """A in ``out`` (a new array by default), by row blocks of graph._operator_rows;
        ``out`` may be W or the explicit operator that A is filled from (not H, which
        solve reads). Calls no public function (pool task)."""
        m, d, n = self._m, self._d, self._m.shape[0]
        a = np.empty((n, n)) if out is None else out
        _by_row_blocks(n, lambda i, j: _operator_rows(a[i:j], m, d, i, j, self._scale))
        a.flat[::n + 1] += self._diagonal
        return a

    def factor(self, out: np.ndarray | None = None, filled: bool = False) -> tuple[np.ndarray, int]:
        """A, filled in ``out`` unless ``filled`` (see fill), factored in place by _potrf
        off the cg route; (a, LAPACK's info) is kept as ``factored`` and returned."""
        a = out if filled else self.fill(out)
        self.factored = a, _potrf(a)
        return self.factored

    def solve(self, y0: np.ndarray) -> np.ndarray:
        """y = (1 - alpha) (I - alpha*S)^{-1} Y0, the propagation fixed point, by
        conjugate gradients on the cg route, else through ``factored`` (factored
        on first use). StructuralError unless y0 is 2-D with one row per node;
        NumericalError when A is not positive definite or y is not finite."""
        _check_y0(y0, self.graph.node_count)
        if self.cg:
            y = self.graph._cg(self.alpha, y0)
        else:
            a, info = self.factored or self.factor()
            if info != 0:
                raise NumericalError(
                    f"I - alpha*S is not positive definite at alpha={self.alpha}: "
                    f"{info}-th leading minor of the array is not positive definite")
            b = self._m @ y0 if self.graph.harmonic else y0
            y = lapack.dpotrs(a.T, (1.0 - self.alpha) * b)[0]
        if not np.isfinite(y).all():
            raise NumericalError("closed-form solution has non-finite values")
        return y


def _fuse_weights(weights: list[np.ndarray], rule: FusionRule) -> FusedGraph:
    """The fused graph of a rule's weights, per view or pooled; the one builder
    of fused graphs. The weights are kernels, trusted as
    graph._inv_sqrt_degrees says; a pooled graph keeps W and its d."""
    if not isinstance(rule, PowerMeanFusion):
        pooled = edgepool_fuse(weights)
        return FusedGraph(rule=rule, weights=(pooled,), inv_sqrt_degrees=_inv_sqrt_degrees(pooled))
    shift = rule.effective_shift
    if rule.p == -1 and (factors := _harmonic_factors(weights, shift)) is not None:
        return FusedGraph(rule=rule, weights=tuple(weights), factors=factors)
    fused = _power_mean(_by_views(len(weights[0]), weights,
                                  lambda w: _laplacian(w, shift)), rule.p)
    return FusedGraph(rule=rule, weights=tuple(weights), operator=_identity_minus(fused))


def fuse(affinities: Mapping[str, AffinityMatrix], rule: FusionRule) -> FusedGraph:
    """Apply a fusion rule to named per-view affinity matrices, which must
    share one node count (else StructuralError, under every rule). Degree
    errors of the weights raise here, before any solve."""
    if not isinstance(rule, (SingleView, EdgePoolFusion, PowerMeanFusion)):
        raise ConfigurationError(f"unknown fusion rule {type(rule).__name__}")
    for name in rule.view_names:
        if name not in affinities:
            raise ConfigurationError(f"fusion rule references unknown view {name!r}")
    weights = [affinities[name].w for name in rule.view_names]
    _common_size(weights)
    return _fuse_weights(weights, rule)
