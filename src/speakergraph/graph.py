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

The n x n passes (distances, neighbor sorts, kernels and the operator) run as
the same row blocks at every size, on one thread per allowed CPU for a large
household (_by_row_blocks); a smaller one builds its views side by side
(_by_views). Kernels are valid by construction (see _gaussian_kernel): only
the public affinity and session_affinity check theirs, as an AffinityMatrix.
"""

import contextvars
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TypeVar, Union

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (_WARNING_SITE, ConfigurationError, NumericalError, StructuralError,
                     _warn_degeneracy)

# Matrices with fewer rows than this run the row blocks of each n x n pass on
# the calling thread. On 2 vCPUs, building voice, face and session
# kernels (local scaling, 16-dim vectors), their edge pool and two operators
# took a median 20.1 ms by row blocks on two threads against 14.5 ms inline
# at n = 368, 29.4 against 30.9 ms at n = 512 and 36.1 against 43.5 ms at
# n = 640; at 64 dimensions, 23.7/19.8, 31.0/36.4 and 40.5/53.2 ms.
_PARALLEL_MIN_ROWS = 512
# More blocks than threads, so that passes over a triangle, whose first rows
# cost the most, still keep every thread busy.
_BLOCKS_PER_WORKER = 4
# Fewest rows per block, so that a small household's block count does not grow
# with the host's CPUs: on the single-view benchmark (n = 368) with 64 CPUs
# patched in, blocks of 1.4, 16, 32 and 64 rows took 57.0, 28.0, 26.0 and
# 25.1 ms per household against 24.7 ms with the host's 2 CPUs (8 blocks).
_MIN_BLOCK_ROWS = 32


# ---------------------------------------------------------------------------
# Row-parallel passes
# ---------------------------------------------------------------------------

_T = TypeVar("_T")
_POOL_THREADS = "speakergraph-rows"  # the name prefix of the pool's threads
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _allowed_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset`` limits it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _row_pool(workers: int) -> ThreadPoolExecutor:
    """The thread pool, created on first use with ``workers`` threads."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(workers, thread_name_prefix=_POOL_THREADS)
        return _pool


def _background_pool() -> ThreadPoolExecutor | None:
    """The row pool, for tasks that run beside the calling thread's work (2LP's
    step-2 factorization, _by_views' views), or None unless at least two CPUs
    are allowed and BLAS runs one thread per call: OPENBLAS_NUM_THREADS, or
    failing it OMP_NUM_THREADS, reads "1". With two BLAS threads each, two
    concurrent factorizations at n = 1,608 took 52 ms a pair on 2 vCPUs,
    against 20.7 ms one after the other. A task keeps the rules of
    _by_row_blocks' ``rows``, but may call _by_row_blocks, inline there."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    workers = _allowed_cpus()
    return _row_pool(workers) if threads == "1" and workers > 1 else None


def _reset_pool_after_fork() -> None:
    # A forked child has only the forking thread: the parent's pool is dead.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool_after_fork)


def _by_row_blocks(n: int, rows: Callable[[int, int], _T]) -> list[_T]:
    """``rows(start, stop)`` over contiguous row ranges that cover range(n),
    with the results in row order: _BLOCKS_PER_WORKER per allowed CPU, fewer
    where a block would have under _MIN_BLOCK_ROWS rows, none at n = 0.

    From _PARALLEL_MIN_ROWS rows and with more than one allowed CPU the
    ranges run on the pool, each in a copy of the caller's context, so
    numpy's error state carries over; otherwise, and always on the pool's own
    threads (_by_views' tasks among them), which must not wait on their pool,
    they run in row order on the calling thread. Callers allocate the output
    and have each range write its own rows with elementwise ops and per-row
    reductions only, so the result is bitwise the same for any split.
    ``rows`` calls no public function or method, whose tracing wrappers assume
    one thread.
    """
    workers = _allowed_cpus()
    count = max(1, min(_BLOCKS_PER_WORKER * workers, n // _MIN_BLOCK_ROWS))
    bounds = sorted({n * i // count for i in range(count + 1)})
    spans = list(zip(bounds, bounds[1:]))
    if (n < _PARALLEL_MIN_ROWS or workers == 1
            or threading.current_thread().name.startswith(_POOL_THREADS)):
        return [rows(start, stop) for start, stop in spans]
    pool = _row_pool(workers)
    futures = [pool.submit(contextvars.copy_context().run, rows, start, stop)
               for start, stop in spans]
    wait(futures)
    return [f.result() for f in futures]


def _by_views(n: int, items: Sequence, task: Callable[..., _T]) -> list[_T]:
    """[task(x) for x in items] for an n-node graph's views: below
    _PARALLEL_MIN_ROWS, with two items or more, where _background_pool allows
    and off its threads, the pool runs all but the first, each in a copy of the
    caller's context giving _warn_degeneracy this frame. Waits for all, then
    raises the earliest item's error. ``task`` keeps _by_row_blocks' rules."""
    on_pool = threading.current_thread().name.startswith(_POOL_THREADS)
    pool = None if len(items) < 2 or n >= _PARALLEL_MIN_ROWS or on_pool else _background_pool()
    if pool is None:
        return [task(x) for x in items]
    token = _WARNING_SITE.set(sys._getframe())
    futures = [pool.submit(contextvars.copy_context().run, task, x) for x in items[1:]]
    _WARNING_SITE.reset(token)
    try:
        first = task(items[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


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
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ConfigurationError(f"local k must be an integer >= 1, got {self.k!r}")
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
        if w.size == 0:
            raise StructuralError("affinity matrix is empty")
        lo, hi = w.min(), w.max()
        in_range = 0.0 <= lo and hi <= 1.0
        if not in_range and not (np.isfinite(lo) and np.isfinite(hi)):
            raise StructuralError("affinity matrix has non-finite entries")
        if not np.array_equal(w, w.T):
            raise StructuralError("affinity matrix is not exactly symmetric")
        if np.any(np.diagonal(w) != 0.0):
            raise StructuralError("affinity matrix diagonal must be zero")
        if not in_range:
            raise StructuralError("affinity entries must lie in [0, 1]")
        object.__setattr__(self, "w", w)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def pairwise_distances(view: EmbeddingView) -> np.ndarray:
    """Symmetric zero-diagonal Euclidean distance matrix for one view."""
    return _pairwise_distances(view.vectors)


def _pairwise_distances(x: np.ndarray) -> np.ndarray:
    """pairwise_distances of the rows of x. Each row block takes cdist to the
    columns from its first row on, which fills its diagonal block whole,
    exactly symmetric with a zero diagonal (|x_i - x_j| and |x_j - x_i| square
    alike); _mirror_blocks_below then copies the rest of the upper part into
    the lower one, so each pair off those blocks is computed once and the
    matrix is exactly symmetric."""
    n = x.shape[0]
    dist = np.empty((n, n))

    def upper(a, b):
        dist[a:b, a:] = cdist(x[a:b], x[a:], metric="euclidean")

    _by_row_blocks(n, upper)
    _mirror_blocks_below(dist)
    return dist


def _mirror_blocks_below(m: np.ndarray) -> list[tuple[int, int]]:
    """Copy into each row block of m the columns left of it from the rows
    above, in place; the row blocks' spans."""

    def rows(a, b):
        m[a:b, :a] = m[:a, a:b].T
        return a, b

    return _by_row_blocks(m.shape[0], rows)


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """m with its strict upper triangle copied exactly into the lower one, in
    place: _mirror_blocks_below, then the calling thread mirrors each
    diagonal block through the leading part of one strict lower-triangle
    mask, built at the largest block size."""
    spans = _mirror_blocks_below(m)
    tri = np.tri(max((b - a for a, b in spans), default=0), k=-1, dtype=bool)
    for a, b in spans:
        block = m[a:b, a:b]
        np.copyto(block, block.T, where=tri[:b - a, :b - a])
    return m


def _nearest_distances(dist: np.ndarray, width: int) -> np.ndarray:
    """Each node's ``width`` smallest distances to the other nodes, ascending,
    found by row blocks, each partitioned in its own copy."""
    n = dist.shape[0]
    nearest = np.empty((n, width))

    def rows(a, b):
        masked = dist[a:b].copy()
        idx = np.arange(a, b)
        masked[idx - a, idx] = np.inf
        # the first `width` columns hold the row's `width` smallest values, so
        # sorting them gives exactly the first `width` columns of a full sort
        masked.partition(width - 1, axis=1)
        nearest[a:b] = np.sort(masked[:, :width], axis=1)

    _by_row_blocks(n, rows)
    return nearest


class ViewDistances:
    """One view's distance matrix and its sorted nearest-neighbor distances,
    each computed once, from which the affinity under any bandwidth is built.

    The sort keeps ``k_max`` columns, the widest local-scaling k that will be
    asked for; a wider k sorts again.
    """

    def __init__(self, view: EmbeddingView, k_max: int = 1):
        self.dist = _pairwise_distances(view.vectors)
        self.k_max = k_max
        self._nearest: np.ndarray | None = None

    def _knn_means(self, k: int) -> np.ndarray:
        """Vector of per-node mean k-nearest-neighbor distances, self excluded."""
        n = self.dist.shape[0]
        if not 1 <= k <= n - 1:
            raise ConfigurationError(f"k must be in [1, {n - 1}], got {k}")
        if self._nearest is None or self._nearest.shape[1] < k:
            self._nearest = _nearest_distances(self.dist, min(max(k, self.k_max), n - 1))
        return self._nearest[:, :k].mean(axis=1)

    def affinity(self, rule: ScalingRule, cohort_id: str | None = None) -> np.ndarray:
        """Gaussian-kernel weights under a scaling rule, built by row blocks
        in one n x n buffer: under local scaling each block writes its rows of
        sigma there and the kernel overwrites them."""
        return self._affinity(rule, cohort_id)

    def _affinity(self, rule: ScalingRule, cohort_id: str | None) -> np.ndarray:
        dist = self.dist
        if isinstance(rule, UniversalScaling):
            sigma = rule.sigma
        elif isinstance(rule, CohortScaling):
            if cohort_id is None:
                raise ConfigurationError("cohort scaling requires a cohort id")
            if cohort_id not in rule.sigma_by_cohort:
                raise ConfigurationError(f"no sigma configured for cohort {cohort_id!r}")
            sigma = rule.sigma_by_cohort[cohort_id]
        elif isinstance(rule, LocalScaling):
            means, s = self._knn_means(rule.k), rule.s
            # sigma[i, j] = s * (m_i + m_j) / 2, the mean of the pooled 2k
            # neighbor distances of i and j; m_i + m_j commutes, so sigma is
            # exactly symmetric. Each step rounds monotonically, so its least
            # entry is the one at the least mean, and sigma has a zero exactly
            # when that entry is one: where a node's k nearest neighbors all
            # duplicate it, or s times a tiny mean underflows.
            zero_sigma = (means.min() + means.min()) * s / 2.0 == 0.0
            if zero_sigma:
                _warn_degeneracy("zero bandwidth under local scaling (duplicate embeddings?)")

            def scaled(out, a, b):
                np.add(means[a:b, None], means, out=out)
                out *= s
                out /= 2.0
                np.divide(dist[a:b], out, out=out)
                if zero_sigma:  # d/0 = inf weighs 0; a duplicate pair's 0/0 weighs 1
                    np.copyto(out, 0.0, where=dist[a:b] == 0.0)

            return _gaussian_kernel(dist.shape[0], scaled)
        else:
            raise ConfigurationError(f"unknown scaling rule {type(rule).__name__}")
        return _gaussian_kernel(dist.shape[0],
                                lambda out, a, b: np.divide(dist[a:b], sigma, out=out))


def _gaussian_kernel(n: int, scaled: Callable[[np.ndarray, int, int], object]
                     ) -> np.ndarray:
    """exp(-(dist/sigma)^2) with a zero diagonal, computed by row blocks in
    one n x n buffer; ``scaled(out, start, stop)`` writes rows start:stop of
    dist/sigma into ``out``, those rows of the buffer.

    dist and sigma must be exactly symmetric, as pairwise_distances and
    s * (m_i + m_j) / 2 are; every step is elementwise, so the kernel is a
    valid affinity, except for NaNs where overflowing distances give inf/inf.
    Bandwidths are used as given: a d/sigma or a square that divides by zero
    or overflows to inf is the right limit, exp(-inf) = 0, and the blocks run
    in this call's error state (see _by_row_blocks), so none of it warns.
    """
    w = np.empty((n, n))

    def rows(a, b):
        out = w[a:b]
        scaled(out, a, b)
        np.square(out, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _by_row_blocks(n, rows)
    np.fill_diagonal(w, 0.0)
    return w


def affinity(view: EmbeddingView, rule: ScalingRule,
             cohort_id: str | None = None) -> AffinityMatrix:
    """Gaussian-kernel affinity matrix of one view under a scaling rule."""
    k = rule.k if isinstance(rule, LocalScaling) else 1
    return AffinityMatrix(ViewDistances(view, k).affinity(rule, cohort_id))


def session_affinity(sessions: Sequence[str | None], sigma: float) -> AffinityMatrix:
    """Session-constraint affinity: distance 0 within a session, 1 across, under
    one fixed bandwidth (local scaling has no meaning on 0/1 distances).

    Ids are compared by ``str()``: two ids are one session when their strings
    are equal, character for character.
    """
    return AffinityMatrix(_session_kernel(sessions, sigma))


def _session_kernel(sessions: Sequence[str | None], sigma: float) -> np.ndarray:
    """The weights of session_affinity, built by row blocks from one integer
    code per id (see _gaussian_kernel)."""
    if any(s is None for s in sessions):
        raise StructuralError("session view requested but session ids missing")
    if not sigma > 0:
        raise ConfigurationError(f"session sigma must be > 0, got {sigma}")
    # integer codes, one per distinct string; comparing them costs a fraction
    # of comparing the strings. np.unique would not do: its fixed-width str
    # dtype drops trailing NULs and so merges "a" with "a\x00".
    codes: dict[str, int] = {}
    ids = np.array([codes.setdefault(str(s), len(codes)) for s in sessions], dtype=np.intp)

    def scaled(out, a, b):
        np.not_equal(ids[a:b, None], ids, out=out)
        out /= sigma

    return _gaussian_kernel(ids.size, scaled)


def propagation_operator(w: np.ndarray) -> np.ndarray:
    """S = D^{-1/2} W D^{-1/2} with degree checks."""
    return _propagation_operator(w)


def _propagation_operator(w: np.ndarray) -> np.ndarray:
    """propagation_operator, the degrees and S each by row blocks. ``w``
    holds kernels of this module (or principal submatrices or elementwise
    maxima of them), valid but for _gaussian_kernel's NaNs, which raise here."""
    n = w.shape[0]
    degrees = np.empty(n)
    _by_row_blocks(n, lambda a, b: w[a:b].sum(axis=1, out=degrees[a:b]))
    if not np.isfinite(degrees).all():
        raise StructuralError("affinity matrix has non-finite entries")
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
    s = np.empty((n, n))

    def rows(a, b):
        out = s[a:b]
        np.multiply(inv_sqrt[a:b, None], inv_sqrt, out=out)
        out *= w[a:b]

    _by_row_blocks(n, rows)
    return s


def normalized_laplacian(w: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian L = I - D^{-1/2} W D^{-1/2} of valid weights w,
    built in S's array."""
    return _identity_minus(_propagation_operator(w))


def _identity_minus(m: np.ndarray) -> np.ndarray:
    """I - m in m's array, bitwise equal to an identity minus m: 0 - x keeps
    +0 entries +0 where np.negative would make them -0 (at shift 0 the sign
    of a zero can decide whether dpotrf succeeds), and -x + 1 rounds as 1 - x."""
    np.subtract(0.0, m, out=m)
    m.flat[::m.shape[0] + 1] += 1.0
    return m
