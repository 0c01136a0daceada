"""Row-block passes and view tasks: the blocks of every household run on
the calling thread below the size threshold and on the pool above it, and
below it the views of a multi-view graph run side by side on the pool; the
threaded paths equal the inline one bit for bit, check the same invariants,
survive a fork and keep their threads away from the public API and from
warnings."""

import contextlib
import copy
import functools
import inspect
import os
import signal
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import pdist, squareform

from speakergraph import (
    AffinityMatrix,
    CohortScaling,
    DegeneracyWarning,
    EdgePoolFusion,
    EmbeddingView,
    LocalScaling,
    MethodSpec,
    NumericalError,
    PowerMeanFusion,
    PropagationConfig,
    SimulationConfig,
    SingleView,
    SpeakerGraphError,
    StructuralError,
    UniversalScaling,
    affinity,
    evaluate_methods,
    fuse,
    generate_dataset,
    pairwise_distances,
    run_method,
    session_affinity,
)
from speakergraph import fusion, graph
from speakergraph.evaluate import HouseholdStages, build_household_graph
from speakergraph.graph import ViewDistances
from speakergraph.propagation import (HouseholdGraph, SolveSchedule, init_label_matrix,
                                      propagate, run_2lp)


@contextlib.contextmanager
def row_blocks(workers=3, min_rows=2, block_rows=1):
    """``workers`` allowed CPUs, whatever the machine's, blocks of
    ``block_rows`` rows or more (by default one, so that small households
    split too), and passes of ``min_rows`` rows or more on a fresh pool; the
    pool is shut down on exit."""
    with mock.patch.multiple(graph, _PARALLEL_MIN_ROWS=min_rows, _MIN_BLOCK_ROWS=block_rows,
                             _pool=None, _allowed_cpus=lambda: workers):
        try:
            yield
        finally:
            if graph._pool is not None:
                graph._pool.shutdown()


@contextlib.contextmanager
def inline():
    """Every n x n pass by the blocks of two allowed CPUs, and every view, on
    the calling thread."""
    with row_blocks(workers=2, min_rows=sys.maxsize), \
            mock.patch.object(graph, "_background_pool", lambda: None):
        yield


def same(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    return a == b


def i_minus_alpha_s(household, alpha):
    """The matrix that FusedGraph.solve hands to its Cholesky factorization."""
    seen = []
    real = fusion._potrf

    def spy(a):
        seen.append(a.copy())
        return real(a)

    with mock.patch.object(fusion, "_potrf", spy), \
            contextlib.suppress(NumericalError):
        propagate(household, init_label_matrix(household), PropagationConfig(alpha=alpha))
    return seen[0]


def every_pass(vectors, sessions, k, s, sigma, alpha):
    """What each row-block pass builds, by name, along the evaluation path,
    which checks no kernel; a SpeakerGraphError's type and message where one
    stopped the pass."""
    view = EmbeddingView("voice", vectors)
    distances = ViewDistances(view, k)
    out = {"distances": pairwise_distances(view), "knn": distances._knn_means(k)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        kernels = {
            "universal": distances.affinity(UniversalScaling(sigma)),
            "cohort": distances.affinity(CohortScaling({"g": sigma}), cohort_id="g"),
            "local": distances.affinity(LocalScaling(k, s)),
            "session": graph._session_kernel(sessions, sigma)}
    for name, w in kernels.items():
        # what AffinityMatrix would check holds by construction
        assert np.array_equal(w, w.T), name
        assert not np.diagonal(w).any(), name
        assert ((0.0 <= w) & (w <= 1.0)).all(), name
    out.update(kernels)
    try:
        # p = -1 holds each view's Cholesky factor (its upper triangle; the
        # lower one is L_v + shift*I) and solves by conjugate gradients at
        # alpha = 0.9, without H; S then mirrors the views' inverses and H's
        harmonic = fusion._fuse_weights([kernels["universal"], kernels["local"]],
                                        PowerMeanFusion(("universal", "local"), p=-1.0))
        assert harmonic.harmonic and harmonic.operator is None and len(harmonic.factors) == 2
        for v, factor in enumerate(harmonic.factors):
            out[f"factor {v}"] = np.triu(factor)
        y0 = np.zeros((len(vectors), 2))
        y0[0, 0] = y0[1, 1] = 1.0
        out["CG y"] = harmonic.solve(0.9, y0)
        assert "_mean_inverse" not in vars(harmonic)
        out["power-mean S"] = harmonic.propagation_matrix()
    except SpeakerGraphError as exc:
        out["harmonic"] = type(exc), str(exc)
    pooled = ("universal", "local", "session")
    try:
        fused = fusion._fuse_weights([kernels[name] for name in pooled], EdgePoolFusion(pooled))
    except SpeakerGraphError as exc:
        out["S"] = type(exc), str(exc)
        return out
    out["pool"], out["S"] = fused.weights[0], fused.operator
    household = HouseholdGraph(fused, labels=[0, 1], n_unlabeled=len(vectors) - 2,
                               n_heldout=0, class_count=2)
    out["I - alpha S"] = i_minus_alpha_s(household, alpha)
    return out


@st.composite
def households(draw):
    """n in [2, 90] vectors drawn from a smaller pool, so rows repeat, with
    session ids, a local k and s, a bandwidth and an alpha."""
    n = draw(st.integers(2, 90))
    dim = draw(st.integers(1, 5))
    pool = draw(hnp.arrays(float, (draw(st.integers(1, n)), dim),
                           elements=st.floats(-5.0, 5.0)))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    sessions = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    return (pool[rows], sessions, draw(st.integers(1, n - 1)), draw(st.floats(0.1, 3.0)),
            draw(st.floats(1e-8, 10.0)), draw(st.floats(0.05, 0.99)))


class TestRowBlocksMatchInline:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(households(), st.integers(2, 4))
    def test_every_pass_bitwise(self, case, workers):
        with inline():
            expected = every_pass(*case)
        with row_blocks(workers):
            threaded = every_pass(*case)
            assert graph._pool is not None
        assert expected.keys() == threaded.keys()
        for name in expected:
            assert same(expected[name], threaded[name]), name

    def test_blocks_cover_the_rows_in_order(self):
        with row_blocks(2):
            spans = graph._by_row_blocks(21, lambda a, b: (a, b))
        assert len(spans) == 8
        assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
        assert spans[-1][1] == 21

    @pytest.mark.parametrize("workers, n", [(3, graph._PARALLEL_MIN_ROWS - 1), (1, 1000)])
    def test_inline_runs_the_same_blocks_in_row_order(self, workers, n):
        # below the threshold, or with one allowed CPU, on the calling thread
        def span(a, b):
            return a, b, threading.get_ident()

        with row_blocks(workers, min_rows=n):
            threaded = graph._by_row_blocks(n, span)
        with row_blocks(workers, min_rows=graph._PARALLEL_MIN_ROWS):
            calls = graph._by_row_blocks(n, span)
            assert graph._pool is None
        assert len(calls) == graph._BLOCKS_PER_WORKER * workers
        assert [c[:2] for c in calls] == [t[:2] for t in threaded]
        assert {c[2] for c in calls} == {threading.get_ident()}
        if workers > 1:
            assert threading.get_ident() not in {t[2] for t in threaded}

    def test_pool_threads_run_their_blocks_inline(self):
        # a task on the row pool once submitted its blocks to that pool, where
        # waiting on them can deadlock it; on a pool thread they run inline
        x = np.random.default_rng(5).normal(size=(40, 7))

        def task():
            return graph._by_row_blocks(40, lambda a, b: (a, b, np.sqrt(np.abs(x[a:b])),
                                                          threading.current_thread()))

        with row_blocks(workers=3, min_rows=sys.maxsize):
            expected = task()
        callers, real = [], ThreadPoolExecutor.submit

        def submit(pool, fn, *args, **kwargs):
            callers.append(threading.current_thread())
            return real(pool, fn, *args, **kwargs)

        with row_blocks(workers=3, min_rows=2), \
                mock.patch.object(ThreadPoolExecutor, "submit", submit):
            blocks = graph._row_pool(3).submit(task).result()
        assert callers == [threading.current_thread()]  # the task alone
        assert len(blocks) == len(expected) == 12
        assert len({b[3] for b in blocks}) == 1 and blocks[0][3] is not callers[0]
        for got, want in zip(blocks, expected):
            assert got[:2] == want[:2] and same(got[2], want[2])

    def test_no_rows_no_blocks(self):
        assert graph._by_row_blocks(0, lambda a, b: (a, b)) == []

    @pytest.mark.parametrize("n, blocks", [(1, 1), (63, 1), (64, 2), (368, 11), (511, 15)])
    def test_small_households_keep_whole_blocks_on_many_cpus(self, n, blocks):
        with mock.patch.multiple(graph, _pool=None, _allowed_cpus=lambda: 64):
            spans = graph._by_row_blocks(n, lambda a, b: (a, b))
            assert graph._pool is None
        assert len(spans) == blocks == max(1, n // graph._MIN_BLOCK_ROWS)
        assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
        assert spans[-1][1] == n
        assert min(b - a for a, b in spans) >= min(n, graph._MIN_BLOCK_ROWS)


class TestDistancesMatchPdist:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_bitwise_symmetric_zero_diagonal(self, data):
        n = data.draw(st.integers(2, 70))
        dim = data.draw(st.integers(1, 80))
        scale = data.draw(st.sampled_from([1e-8, 1.0, 1e8]))
        pool = data.draw(hnp.arrays(float, (data.draw(st.integers(1, min(n, 10))), dim),
                                    elements=st.floats(-5.0, 5.0)))
        rows = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        view = EmbeddingView("voice", pool[rows] * scale)
        expected = squareform(pdist(view.vectors))
        for path in (inline, row_blocks):
            with path():
                dist = pairwise_distances(view)
            assert same(dist, expected), path.__name__
            assert np.array_equal(dist, dist.T)
            assert not np.diagonal(dist).any()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [77, 368, 600])
    def test_diagonal_blocks_left_as_cdist_filled_them(self, n, scale):
        # only the blocks left of the diagonal are mirrored: each row block's
        # own cdist block is exactly symmetric with a zero diagonal
        view = EmbeddingView("voice", np.random.default_rng(n).normal(size=(n, 16)) * scale)
        expected = squareform(pdist(view.vectors))
        with mock.patch.object(graph, "_mirror_upper", side_effect=AssertionError):
            for workers in (1, 2, 3):
                with row_blocks(workers, block_rows=graph._MIN_BLOCK_ROWS):
                    assert same(pairwise_distances(view), expected), workers


class TestMirrorUpper:
    @pytest.mark.parametrize("min_rows", [sys.maxsize, 1], ids=["inline", "pool"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_triu_plus_its_transpose(self, min_rows, order):
        # n from 1 to past the fourth block boundary, as distances (C order) and
        # dpotri's inverses (F order) are mirrored
        rng = np.random.default_rng(3)
        with row_blocks(3, min_rows, block_rows=graph._MIN_BLOCK_ROWS):
            for n in range(1, 4 * graph._MIN_BLOCK_ROWS + 2):
                m = np.asarray(rng.normal(size=(n, n)), order=order)
                expected = np.triu(m) + np.triu(m, 1).T
                m[np.tril_indices(n, -1)] = np.nan
                assert graph._mirror_upper(m) is m
                assert same(m, expected), n


def valid_weights(n=300):
    rng = np.random.default_rng(0)
    upper = np.triu(rng.uniform(size=(n, n)), 1)
    return upper + upper.T


def with_pair(value, i=5, j=290):
    w = valid_weights()
    w[i, j] = w[j, i] = value
    return w


PATHS = {"inline": inline, "row blocks": row_blocks}


@pytest.mark.parametrize("path", PATHS)
class TestAffinityChecks:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, path, value):
        with PATHS[path](), pytest.raises(StructuralError, match="non-finite"):
            AffinityMatrix(with_pair(value))

    def test_asymmetric_pair_far_from_the_diagonal(self, path):
        w = valid_weights()
        w[5, 290] = np.nextafter(w[290, 5], 1.0)
        with PATHS[path](), pytest.raises(StructuralError, match="not exactly symmetric"):
            AffinityMatrix(w)

    @pytest.mark.parametrize("value", [-0.25, 1.5])
    def test_out_of_range(self, path, value):
        with PATHS[path](), pytest.raises(StructuralError, match=r"lie in \[0, 1\]"):
            AffinityMatrix(with_pair(value))

    def test_nonzero_diagonal(self, path):
        w = valid_weights()
        w[150, 150] = 0.5
        with PATHS[path](), pytest.raises(StructuralError, match="diagonal must be zero"):
            AffinityMatrix(w)

    def test_valid_weights_pass(self, path):
        w = valid_weights()
        with PATHS[path]():
            assert AffinityMatrix(w).w is w


@contextlib.contextmanager
def factor_threads():
    """The threads that ran each _potrf call in the block, in call order."""
    threads, real = [], fusion._potrf

    def spy(a):
        threads.append(threading.get_ident())
        return real(a)

    with mock.patch.object(fusion, "_potrf", spy), \
            mock.patch.dict(os.environ, {"OPENBLAS_NUM_THREADS": "1"}):
        yield threads


@contextlib.contextmanager
def pool_factorizations(delay=0.0):
    """The futures of the factorizations submitted to the row pool in the
    block, each started ``delay`` seconds late, so that a call that returned
    or raised before its factorization ended leaves it running."""
    futures, real = [], ThreadPoolExecutor.submit

    def late(*args):
        time.sleep(delay)
        return fusion._factor_system(*args)

    def submit(pool, fn, *args, **kwargs):
        if args and args[0] is fusion._factor_system:
            futures.append(real(pool, fn, late, *args[1:], **kwargs))
            return futures[-1]
        return real(pool, fn, *args, **kwargs)

    with mock.patch.object(ThreadPoolExecutor, "submit", submit):
        yield futures


def two_step_household(n, rule):
    """A 4-class household of n nodes, half of them unlabeled and a quarter
    held out, under a fusion rule of voice and face kernels."""
    rng = np.random.default_rng(n)
    centers = rng.normal(size=(4, 6)) * 3.0
    classes = np.arange(n) % 4
    weights = [ViewDistances(EmbeddingView(name, centers[classes] + rng.normal(size=(n, 6))),
                             8).affinity(LocalScaling(8, 1.0)) for name in ("voice", "face")]
    labeled, heldout = n // 4, n // 4
    return HouseholdGraph(fusion._fuse_weights(weights[:len(rule.view_names)], rule),
                          labels=classes[:labeled], n_unlabeled=n - labeled - heldout,
                          n_heldout=heldout, class_count=4)


def swept_2lp(household, cfg):
    """2LP at cfg, scheduled with 2LP at the other alphas of a sweep, whose CG
    steps pass the cap on a harmonic graph, so that it builds H and factors A."""
    specs = [("2LP", replace(cfg, alpha=alpha)) for alpha in (0.5, 0.9, 0.99)]
    return SolveSchedule(household, specs).predict("2LP", cfg)


FACTOR_RULES = {
    "single view": SingleView("voice"),
    "edge pool": EdgePoolFusion(("voice", "face")),
    "harmonic, H route": PowerMeanFusion(("voice", "face"), p=-1.0),
}


class TestStepTwoFactorsAhead:
    """2LP factors its step-2 system on the row pool while step 1 runs, where
    at least two CPUs are allowed and BLAS runs one thread; below and above
    _PARALLEL_MIN_ROWS, so that step 1's own row blocks run inline and on the
    pool beside it. Every factorization started on the pool is finished or
    cancelled by the time the call that started it returns or raises."""

    @pytest.mark.parametrize("rule", FACTOR_RULES)
    @pytest.mark.parametrize("n", [96, graph._PARALLEL_MIN_ROWS + 88])
    def test_labels_and_scores_bitwise_inline(self, n, rule):
        cfg = PropagationConfig(alpha=0.9)
        with row_blocks(workers=1, min_rows=graph._PARALLEL_MIN_ROWS), \
                factor_threads() as threads:
            expected = swept_2lp(two_step_household(n, FACTOR_RULES[rule]), cfg)
        assert set(threads) == {threading.get_ident()}
        with row_blocks(workers=2, min_rows=graph._PARALLEL_MIN_ROWS), \
                factor_threads() as threads, pool_factorizations() as futures:
            overlapped = swept_2lp(two_step_household(n, FACTOR_RULES[rule]), cfg)
            assert len(futures) == 1 and futures[0].done()
        # the full graph's system was factored on the pool, and so was the
        # second view's factor of each harmonic graph below _PARALLEL_MIN_ROWS
        # (the full graph and step 1's subgraph); all else on this thread
        views = 0 if rule != "harmonic, H route" else sum(
            size < graph._PARALLEL_MIN_ROWS for size in (n, n - n // 4))
        assert [t != threading.get_ident() for t in threads].count(True) == 1 + views
        assert same(overlapped.labels, expected.labels)
        assert same(overlapped.scores, expected.scores)
        assert (overlapped.ties, overlapped.abstains) == (expected.ties, expected.abstains)

    @pytest.mark.parametrize("n", [96, graph._PARALLEL_MIN_ROWS + 88])
    def test_indefinite_step_two_raises_as_inline(self, n):
        # S = 2 I puts I - alpha*S at (1 - 2 alpha) I, which fails at its first
        # minor; step 1 re-fuses the subgraph from the weights and succeeds
        household = two_step_household(n, SingleView("voice"))
        fused = fusion.FusedGraph(rule=household.fused.rule, weights=household.fused.weights,
                                  operator=2.0 * np.eye(n))
        household = replace(household, fused=fused)
        messages = []
        for workers in (1, 2):
            with row_blocks(workers=workers, min_rows=graph._PARALLEL_MIN_ROWS), \
                    factor_threads() as threads, pool_factorizations() as futures:
                with pytest.raises(NumericalError) as exc:
                    run_2lp(household, PropagationConfig(alpha=0.9))
                # before the pool shuts down, which would wait for it
                assert len(futures) == workers - 1 and all(f.done() for f in futures)
            assert [t != threading.get_ident() for t in threads].count(True) == workers - 1
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == (
            "I - alpha*S is not positive definite at alpha=0.9: 1-th leading minor of "
            "the array is not positive definite")

    def test_failed_step_one_drops_the_factor(self):
        household = two_step_household(96, SingleView("voice"))
        with row_blocks(workers=2), factor_threads(), pool_factorizations(0.2) as futures, \
                mock.patch.object(fusion.FusedGraph, "subgraph",
                                  side_effect=NumericalError("step 1")):
            with pytest.raises(NumericalError, match="step 1"):
                run_2lp(household, PropagationConfig())
            assert len(futures) == 1 and futures[0].done()

    def test_evaluate_methods_raises_with_no_factorization_running(self):
        # 2LP's step 1 raises while the pool factors the system that LP, the
        # next spec, would solve with; evaluate_methods raises that error
        _, val = generate_dataset(SimulationConfig(
            seed=3, households_per_group=2, speakers_per_household=3,
            utterances_per_speaker=24, labeled_per_speaker=2, unlabeled_per_household=12,
            heldout_per_speaker=4, groups=("random",)))
        specs = [MethodSpec(method=m, scaling=LocalScaling(4, 0.8), fusion=SingleView("voice"))
                 for m in ("2LP", "LP")]
        with row_blocks(workers=2), factor_threads(), pool_factorizations(0.2) as futures, \
                mock.patch.object(fusion.FusedGraph, "subgraph",
                                  side_effect=NumericalError("step 1")):
            with pytest.raises(NumericalError, match="step 1"):
                evaluate_methods(val, specs)
            assert len(futures) == 1 and futures[0].done()

    @pytest.mark.parametrize("env, workers, cfg", [
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, PropagationConfig()),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, PropagationConfig()),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, PropagationConfig(step1_includes_heldout=True)),
    ], ids=["two BLAS threads", "one CPU", "step 1 on the full graph"])
    def test_calling_thread_factors_elsewhere(self, env, workers, cfg):
        household = two_step_household(96, SingleView("voice"))
        with row_blocks(workers=workers), factor_threads() as threads, \
                mock.patch.dict(os.environ, env):
            run_2lp(household, cfg)
        assert set(threads) == {threading.get_ident()}

    @pytest.mark.parametrize("env, expected", [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
        ({}, False),
    ])
    def test_one_blas_thread_rule(self, env, expected):
        with row_blocks(workers=2), mock.patch.dict(os.environ, env):
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
                if name not in env:
                    os.environ.pop(name, None)
            assert (graph._background_pool() is not None) == expected


@contextlib.contextmanager
def view_tasks(on_pool=True, slow=lambda item: False, delay=0.2, workers=2):
    """``workers`` allowed CPUs, one BLAS thread and graphs below _PARALLEL_MIN_ROWS,
    whose row blocks run on the calling thread; with ``on_pool`` the view
    tasks of graph._by_views after each call's first run on a fresh row pool,
    else on the calling thread. Yields the futures of the view tasks
    submitted, each started ``delay`` seconds late where ``slow(item)``."""
    futures, real = [], ThreadPoolExecutor.submit

    def submit(pool, fn, *args, **kwargs):
        # called from _by_views or from a comprehension there
        if graph._by_views.__code__ not in (sys._getframe(1).f_code, sys._getframe(2).f_code):
            return real(pool, fn, *args, **kwargs)
        task, item = args

        def late():
            if slow(item):
                time.sleep(delay)
            return fn(task, item)

        futures.append(real(pool, late))
        return futures[-1]

    with row_blocks(workers=workers, min_rows=graph._PARALLEL_MIN_ROWS), \
            mock.patch.dict(os.environ, {"OPENBLAS_NUM_THREADS": "1"}), \
            mock.patch.object(ThreadPoolExecutor, "submit", submit), \
            mock.patch.object(graph, "_background_pool",
                              graph._background_pool if on_pool else lambda: None):
        yield futures


@functools.lru_cache(maxsize=None)
def _view_household():
    _, val = generate_dataset(SimulationConfig(
        seed=3, households_per_group=2, speakers_per_household=3,
        utterances_per_speaker=24, labeled_per_speaker=2, unlabeled_per_household=12,
        heldout_per_speaker=4, groups=("random",)))
    return val[0]


def view_household():
    """A fresh copy of one simulated household of 30 utterances with voice,
    face and session views."""
    return copy.deepcopy(_view_household())


def scheduled_2lp(hh, rule, alphas):
    """The fused graph of a 2LP spec's rule over the household's views, and
    its 2LP at alpha 0.9, scheduled with 2LP at ``alphas``."""
    spec = MethodSpec(method="2LP", scaling=LocalScaling(4, 0.8), fusion=rule)
    household = build_household_graph(HouseholdStages(hh, [spec]), spec)
    specs = [("2LP", PropagationConfig(alpha=alpha)) for alpha in alphas]
    return household.fused, SolveSchedule(household, specs).predict(
        "2LP", PropagationConfig(alpha=0.9))


VOICE_FACE = ("voice", "face")
VIEW_RULES = {
    "edge pool with session": (EdgePoolFusion(("voice", "face", "session")), (0.9,)),
    "p = 1": (PowerMeanFusion(VOICE_FACE, p=1.0), (0.9,)),
    "p = -1, CG route": (PowerMeanFusion(VOICE_FACE, p=-1.0), (0.9,)),
    "p = -1, H route": (PowerMeanFusion(VOICE_FACE, p=-1.0), (0.5, 0.9, 0.99)),
    "p = -1, floored": (PowerMeanFusion(VOICE_FACE, p=-1.0, shift=1e-9), (0.9,)),
    "p = 2": (PowerMeanFusion(VOICE_FACE, p=2.0), (0.9,)),
    "edge pool, voice twice": (EdgePoolFusion(("voice", "face", "voice")), (0.9,)),
    "p = -1, voice twice": (PowerMeanFusion(("voice", "face", "voice"), p=-1.0), (0.9,)),
}


class TestViewTasks:
    """Below _PARALLEL_MIN_ROWS the views of a multi-view graph (kernels,
    shifted Laplacians, harmonic factors) run side by side on the row pool;
    labels, scores and errors are those of the views run one after another."""

    @pytest.mark.parametrize("rule", VIEW_RULES)
    def test_labels_and_scores_bitwise_inline(self, rule):
        with view_tasks(on_pool=False) as none:
            fused, expected = scheduled_2lp(view_household(), *VIEW_RULES[rule])
        assert none == []
        with view_tasks() as futures:
            pooled, got = scheduled_2lp(view_household(), *VIEW_RULES[rule])
        assert futures and all(f.done() for f in futures)
        harmonic = rule.startswith("p = -1") and rule != "p = -1, floored"
        assert pooled.harmonic is fused.harmonic is harmonic
        for a, b in zip(pooled.factors or (pooled.operator,), fused.factors or (fused.operator,)):
            assert same(a, b)
        assert same(got.labels, expected.labels) and same(got.scores, expected.scores)
        assert (got.ties, got.abstains) == (expected.ties, expected.abstains)

    def test_cg_and_h_routes_are_taken(self):
        for rule, cg in (("p = -1, CG route", True), ("p = -1, H route", False)):
            fusion_rule, alphas = VIEW_RULES[rule]
            fused, _ = scheduled_2lp(view_household(), fusion_rule, alphas)
            assert fusion._cg_route(fused, alphas) is cg, rule

    @pytest.mark.parametrize("case", ["missing view", "zero degree"])
    def test_second_view_error_raises_as_inline(self, case):
        # the second view's task fails on the pool while a later one, started
        # late, still runs; the call raises the inline error once that ends
        hh = view_household()
        if case == "missing view":
            rule = EdgePoolFusion(("voice", "nope", "face"))

            def slow(item):
                return isinstance(item, str) and item == "face"
        else:
            # face distances near 1e153 square to inf: its weights are all 0
            for record in hh.utterances:
                record.views["face"] = record.views["face"] * 1e153
            rule = PowerMeanFusion(("voice", "face", "session"), p=1.0)

            def slow(item):
                return isinstance(item, np.ndarray) and item.any()
        spec = MethodSpec(method="LP", scaling=UniversalScaling(1.0), fusion=rule)
        with view_tasks(on_pool=False), pytest.raises(SpeakerGraphError) as expected:
            run_method(copy.deepcopy(hh), spec)
        with view_tasks(slow=slow) as futures:
            with pytest.raises(SpeakerGraphError) as raised:
                run_method(hh, spec)
            # before the pool shuts down, which would wait for them
            assert len(futures) >= 2 and all(f.done() for f in futures)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        assert ("missing from dataset" if case == "missing view" else "zero degree") \
            in str(expected.value)

    def test_shared_stages_under_a_short_switch_interval(self):
        # views of graphs that share distances (two ks, raw and unit-normalized
        # vectors) build on four pool threads with a 1 us switch interval: each
        # view's distances are still computed once per household and kept for
        # the graphs that share them, and every count is the inline one
        _, val = generate_dataset(SimulationConfig(
            seed=5, households_per_group=2, speakers_per_household=3,
            utterances_per_speaker=24, labeled_per_speaker=2, unlabeled_per_household=12,
            heldout_per_speaker=4, groups=("random", "hard")))
        specs = [MethodSpec(method="2LP", scaling=LocalScaling(k, 0.8), fusion=rule,
                            unit_normalize=unit)
                 for k in (3, 5) for unit in (False, True)
                 for rule in (EdgePoolFusion(("voice", "face", "session")),
                              PowerMeanFusion(VOICE_FACE, p=-1.0))]

        def counts(report):
            return [[(h.household_id, h.errors, h.ties, h.abstains, h.converged)
                     for h in m.households] for m in report.methods]

        with view_tasks(on_pool=False):
            expected = counts(evaluate_methods(val, specs))
        calls, real, outcome = [], graph._pairwise_distances, []

        def counting(x):
            calls.append(threading.current_thread())
            return real(x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with view_tasks(workers=4) as futures, \
                    mock.patch.object(graph, "_pairwise_distances", counting):
                runner = threading.Thread(
                    target=lambda: outcome.append(counts(evaluate_methods(val, specs))),
                    daemon=True)
                runner.start()
                runner.join(60.0)
                assert not runner.is_alive(), "evaluate_methods did not finish within 60 s"
        finally:
            sys.setswitchinterval(interval)
        assert outcome == [expected]
        assert futures and len(calls) == 4 * len(val)  # voice and face, raw and normalized
        assert any(thread is not runner for thread in calls)


def large_view(n=600):
    return EmbeddingView("voice", np.random.default_rng(1).normal(size=(n, 8)))


def public_code():
    """Code objects of every public function and public method in speakergraph."""
    codes = set()
    for name, module in list(sys.modules.items()):
        if name != "speakergraph" and not name.startswith("speakergraph."):
            continue
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != name:
                continue
            if inspect.isfunction(value):
                codes.add(value.__code__)
            elif inspect.isclass(value):
                for member_name, member in vars(value).items():
                    member = getattr(member, "fget", None) or getattr(member, "func", member)
                    if not member_name.startswith("_") and inspect.isfunction(member):
                        codes.add(member.__code__)
    return codes


class TestThreadsStayOutOfTheWay:
    def test_workers_call_no_public_function(self):
        public = public_code()
        ran, public_calls = [], []

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals.get("__name__", "").startswith("speakergraph"):
                ran.append(frame.f_code.co_name)
                if frame.f_code in public:
                    public_calls.append(frame.f_code.co_name)

        threading.setprofile(profile)
        try:
            with row_blocks(2):
                voice = AffinityMatrix(
                    ViewDistances(large_view(), 20).affinity(LocalScaling(20, 0.5)))
                affinities = {"voice": voice, "session": session_affinity(["a", "b"] * 300, 0.5)}
                household = HouseholdGraph(fuse(affinities, EdgePoolFusion(tuple(affinities))),
                                           labels=[0, 1], n_unlabeled=500, n_heldout=98,
                                           class_count=2)
                i_minus_alpha_s(household, 0.9)
                # step 2's factorization runs on the pool beside step 1
                with factor_threads() as threads:
                    run_2lp(household, PropagationConfig())
                assert [t != threading.get_ident() for t in threads].count(True) == 1
            # below _PARALLEL_MIN_ROWS the views' kernels, and a p = -1
            # graph's shifted Laplacians and factors, build on the pool
            with view_tasks() as futures:
                for rule in (EdgePoolFusion(("voice", "face", "session")),
                             PowerMeanFusion(VOICE_FACE, p=-1.0)):
                    run_method(view_household(), MethodSpec(
                        method="2LP", scaling=LocalScaling(4, 0.8), fusion=rule))
                assert futures
        finally:
            threading.setprofile(None)
        assert ran and {"_factor_system", "_affinity", "_session_kernel", "factored"} <= set(ran)
        assert public_calls == []

    @pytest.mark.parametrize("path", PATHS)
    def test_sigma_floor_warning_names_the_caller(self, path):
        view = EmbeddingView("voice", np.zeros((300, 2)))
        with PATHS[path](), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ViewDistances(view, 1).affinity(LocalScaling(1, 1.0))
            affinity(view, LocalScaling(1, 1.0))
            # a tiny configured bandwidth is used as given, without a warning
            session_affinity(["a"] * 300, 1e-7)
        assert [(w.category, w.filename) for w in caught] == [(DegeneracyWarning, __file__)] * 2

    def test_view_task_warning_names_the_caller(self):
        # face, the second view, has duplicate embeddings and so a zero
        # bandwidth; its kernel builds on a pool thread, whose stack does not
        # hold this file, yet the warning names this line as an inline run does
        hh = view_household()
        for record in hh.utterances:
            record.views["face"] = np.zeros_like(record.views["face"])
        spec = MethodSpec(method="LP", scaling=LocalScaling(1, 1.0),
                          fusion=EdgePoolFusion(VOICE_FACE))
        for on_pool in (False, True):
            with view_tasks(on_pool) as futures, \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = sys._getframe().f_lineno + 1
                evaluate_methods([hh], [spec])
            assert len(futures) == on_pool
            assert [(w.category, w.filename, w.lineno) for w in caught] == \
                [(DegeneracyWarning, __file__, line)]
            assert "zero bandwidth" in str(caught[0].message)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_a_large_graph(self):
        view = large_view()
        rule = LocalScaling(10, 0.5)
        with row_blocks(2):
            parent = ViewDistances(view, 10).affinity(rule)
            assert graph._pool is not None
            with warnings.catch_warnings():
                # forking a process with threads warns from Python 3.12 on
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    child = ViewDistances(view, 10).affinity(rule)
                    code = 0 if np.array_equal(child, parent) else 3
                finally:
                    os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish building within 60 s")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0
