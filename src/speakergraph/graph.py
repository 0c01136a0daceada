"""Per-view affinity graphs over utterance embeddings.

One household induces one fully connected graph per view. Edge weights come
from a Gaussian kernel on pairwise distances (Euclidean for vector views, 0/1
for the session view),

    W[i, j] = exp(-dist(i, j)^2 / sigma[i, j]^2),

where the bandwidth sigma is a global constant (universal scaling), a
per-cohort constant, or locally adapted from the mean distance to the K
nearest neighbors of both endpoints. The module also derives the degree
vector d = D^{-1/2} (with the degree checks), the propagation operator
S = D^{-1/2} W D^{-1/2} and, in its array, L + shift*I (_laplacian) for the
symmetric normalized Laplacian L = I - S that graph-level fusion combines.
Single-view and edge-pool graphs keep W and d only: the direct solver forms
I - alpha*S from them by row blocks (_operator_rows); S is built on request.

The n x n passes (distances, neighbor sorts, kernels, degrees and S) run as
the same row blocks at every size, on one thread per allowed CPU for a large
household (_by_row_blocks); a smaller one builds its views side by side
(_by_views). Kernels are valid by construction (see _gaussian_kernel): only
the public affinity and session_affinity check theirs, as an AffinityMatrix.
"""

import contextvars
import functools
import os
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
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
    against 20.7 ms one after the other. Its tasks run through _joined, and
    the row blocks they ask for run inline on its threads."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    workers = _allowed_cpus()
    return _row_pool(workers) if threads == "1" and workers > 1 else None


def _reset_pool_after_fork() -> None:
    # A forked child has only the forking thread: the parent's pool is dead.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool_after_fork)


def _joined(pool: ThreadPoolExecutor | None, tasks: Sequence[Callable[[], object]],
            here: Callable[[], object] = lambda: None) -> list:
    """[here(), *(task() for task in tasks)], with ``pool`` running the tasks
    while the calling thread runs here(): the one join of work run beside it.
    Each task runs in a copy of the caller's context (numpy's error state
    carries over) that gives _warn_degeneracy the caller's frame. Waits for
    every task submitted, also where a submit or here() raises, then raises
    here()'s error or else the earliest task's. Without a pool, and on its own
    threads, which must not wait on it, runs here() and then the tasks in
    order. A task calls no public function or method, whose tracing wrappers
    assume one thread."""
    if pool is None or threading.current_thread().name.startswith(_POOL_THREADS):
        return [here(), *(task() for task in tasks)]
    context = contextvars.copy_context()
    context.run(_WARNING_SITE.set, sys._getframe(1))  # this frame would hold itself in it
    futures: list[Future] = []
    try:
        for task in tasks:
            futures.append(pool.submit(context.copy().run, task))
        first = here()
    finally:
        wait(futures)
    return [first, *(f.result() for f in futures)]


def _by_row_blocks(n: int, rows: Callable[[int, int], _T]) -> list[_T]:
    """``rows(start, stop)`` over contiguous row ranges that cover range(n),
    with the results in row order: _BLOCKS_PER_WORKER per allowed CPU, fewer
    where a block would have under _MIN_BLOCK_ROWS rows, none at n = 0.

    From _PARALLEL_MIN_ROWS rows and with more than one allowed CPU every
    range is a task of _joined on the pool while the caller waits; otherwise
    they run in row order on the calling thread. Callers allocate the output
    and have each range write its own rows with elementwise ops and per-row
    reductions only, so the result is bitwise the same for any split.
    """
    workers = _allowed_cpus()
    count = max(1, min(_BLOCKS_PER_WORKER * workers, n // _MIN_BLOCK_ROWS))
    bounds = sorted({n * i // count for i in range(count + 1)})
    pool = None if n < _PARALLEL_MIN_ROWS or workers == 1 else _row_pool(workers)
    return _joined(pool, [functools.partial(rows, a, b) for a, b in zip(bounds, bounds[1:])])[1:]


def _by_views(n: int, items: Sequence, task: Callable[..., _T],
              fold: Callable[[_T, _T], _T] | None = None) -> list[_T]:
    """[task(x) for x in items] for an n-node graph's views: below
    _PARALLEL_MIN_ROWS, with two items or more and where _background_pool
    allows, the first on the calling thread and the others on the pool. With
    ``fold``, [reduce(fold, results)]: one after another, each folds in as built."""
    pool = None if len(items) < 2 or n >= _PARALLEL_MIN_ROWS else _background_pool()
    if fold is not None and pool is None:  # each result is a temporary, dropped once folded
        return [functools.reduce(lambda first, x: fold(first, task(x)), items[1:], task(items[0]))]
    results = _joined(pool, [functools.partial(task, x) for x in items[1:]], lambda: task(items[0]))
    return results if fold is None else [functools.reduce(fold, results)]


def _lend(spare: list[np.ndarray] | None, n: int, m: int) -> np.ndarray:
    """A new m x m array without ``spare``; else one on the first m^2 elements
    of its last flat n^2 buffer, popped, or of a new one (m <= n). Lend and give
    back (spare.append(a.base)) on the calling thread, a pool task's array too."""
    flat = spare.pop() if spare else np.empty(m * m if spare is None else n * n)
    return flat[:m * m].reshape(m, m)


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

def _is_integer(value) -> bool:
    """Whether value is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not _is_integer(self.k) or self.k < 1:
            raise ConfigurationError(f"local k must be an integer >= 1, got {self.k!r}")
        if not self.s > 0:
            raise ConfigurationError(f"local s must be > 0, got {self.s}")


ScalingRule = Union[UniversalScaling, CohortScaling, LocalScaling]


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def _check_square(w: np.ndarray) -> None:
    """StructuralError unless w has the shape of a square matrix."""
    shape = np.shape(w)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise StructuralError(f"affinity matrix must be square, got {shape}")


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative edge-weight matrix with zero diagonal."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        _check_square(w)
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

    def _affinity(self, rule: ScalingRule, cohort_id: str | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Gaussian-kernel weights under a scaling rule, built by row blocks
        in one n x n buffer, ``out`` where given: under local scaling each
        block writes its rows of sigma there and the kernel overwrites them.
        ``out`` may be ``dist``, left holding the kernel: the neighbor sort
        reads dist first, and each block its zero mask (sigma in a scratch)."""
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

            def scaled(rows, a, b):
                sigma_rows = np.empty_like(rows) if out is dist else rows
                np.add(means[a:b, None], means, out=sigma_rows)
                sigma_rows *= s
                sigma_rows /= 2.0
                zero = dist[a:b] == 0.0 if zero_sigma else None
                np.divide(dist[a:b], sigma_rows, out=rows)
                if zero_sigma:  # d/0 = inf weighs 0; a duplicate pair's 0/0 weighs 1
                    np.copyto(rows, 0.0, where=zero)

            return _gaussian_kernel(dist.shape[0], scaled, out)
        else:
            raise ConfigurationError(f"unknown scaling rule {type(rule).__name__}")
        return _gaussian_kernel(dist.shape[0],
                                lambda rows, a, b: np.divide(dist[a:b], sigma, out=rows), out)


def _gaussian_kernel(n: int, scaled: Callable[[np.ndarray, int, int], object],
                     out: np.ndarray | None = None) -> np.ndarray:
    """exp(-(dist/sigma)^2) with a zero diagonal, computed by row blocks in
    one n x n buffer, ``out`` where given; ``scaled(out, start, stop)`` writes
    rows start:stop of dist/sigma into ``out``, those rows of the buffer,
    reading only those rows of dist, so the buffer may be dist's own.

    dist and sigma must be exactly symmetric, as pairwise_distances and
    s * (m_i + m_j) / 2 are; every step is elementwise, so the kernel is a
    valid affinity, except for NaNs where overflowing distances give inf/inf.
    Bandwidths are used as given: a d/sigma or a square that divides by zero
    or overflows to inf is the right limit, exp(-inf) = 0, and the blocks run
    in this call's error state (see _joined), so none of it warns.
    """
    w = np.empty((n, n)) if out is None else out

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
    return AffinityMatrix(ViewDistances(view, k)._affinity(rule, cohort_id))


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
    """S = D^{-1/2} W D^{-1/2} of valid weights w, with degree checks;
    StructuralError unless w is a square matrix."""
    _check_square(w)
    return _operator(w, _inv_sqrt_degrees(w))


def _inv_sqrt_degrees(w: np.ndarray) -> np.ndarray:
    """d = D^{-1/2} as a vector, the degrees summed by row blocks. ``w``
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
    return 1.0 / np.sqrt(degrees)


def _operator_rows(out: np.ndarray, w: np.ndarray, d: np.ndarray | None, a: int, b: int,
                   scale: float | None = None) -> None:
    """Rows a:b of S = D^{-1/2} W D^{-1/2} into ``out`` (w[a:b] too: d_i d_j goes to a
    scratch), as (d_i d_j) W_ij, times ``scale`` where given: the one formula of S's
    and fusion._System's entries. d = None, with a scale, is d = 1: that pass is skipped."""
    rows = w[a:b]
    if d is not None:
        scratch = None if np.may_share_memory(out, w) else out
        rows = np.multiply(np.multiply(d[a:b, None], d, out=scratch), rows, out=out)
    if scale is not None:
        np.multiply(rows, scale, out=out)


def _operator(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """S of weights w and their d = _inv_sqrt_degrees(w), by row blocks."""
    n = w.shape[0]
    s = np.empty((n, n))
    _by_row_blocks(n, lambda a, b: _operator_rows(s[a:b], w, d, a, b))
    return s


def normalized_laplacian(w: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian L = I - D^{-1/2} W D^{-1/2} of valid weights w,
    with degree checks; StructuralError unless w is a square matrix."""
    _check_square(w)
    return _laplacian(w)


def _laplacian(w: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """L + shift*I of valid weights w, built in S's array: the one Laplacian builder."""
    lap = _identity_minus(_operator(w, _inv_sqrt_degrees(w)))
    lap.flat[::lap.shape[0] + 1] += shift
    return lap


def _identity_minus(m: np.ndarray) -> np.ndarray:
    """I - m in m's array, bitwise equal to an identity minus m: 0 - x keeps
    +0 entries +0 where np.negative would make them -0 (at shift 0 the sign
    of a zero can decide whether dpotrf succeeds), and -x + 1 rounds as 1 - x."""
    np.subtract(0.0, m, out=m)
    m.flat[::m.shape[0] + 1] += 1.0
    return m
