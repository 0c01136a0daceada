"""Label propagation solvers and the LP / 2-LP / 2-LPEA pipelines."""

import math
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, lapack

from speakergraph import (
    ABSTAIN,
    AffinityMatrix,
    ConfigurationError,
    DegeneracyWarning,
    EdgePoolFusion,
    EmbeddingView,
    FusedGraph,
    HouseholdGraph,
    LocalScaling,
    NumericalError,
    PowerMeanFusion,
    PredictionResult,
    PropagationConfig,
    SingleView,
    StructuralError,
    UniversalScaling,
    affinity,
    class_normalize,
    cosine_matrix,
    fuse,
    init_label_matrix,
    normalized_laplacian,
    pml_fuse,
    predict,
    propagate,
    propagation_operator,
    run_2cs,
    run_2csea,
    run_2lp,
    run_2lpea,
    run_cs,
    run_csea,
    run_lp,
)
from speakergraph import fusion
from speakergraph.propagation import SolveSchedule


FUSION_RULES = [SingleView("voice"), EdgePoolFusion(("voice", "face"))] + [
    PowerMeanFusion(("voice", "face"), p=p) for p in (1.0, -1.0, 2.0)]


def graph_from_w(w, labels, n_unlabeled, n_heldout, class_count):
    fused = fuse({"w": AffinityMatrix(np.asarray(w, float))}, SingleView("w"))
    return HouseholdGraph(fused=fused, labels=np.asarray(labels), n_unlabeled=n_unlabeled,
                          n_heldout=n_heldout, class_count=class_count)


def cluster_household(rng, n_classes=3, labeled=2, unlabeled=5, heldout=3,
                      spread=60.0, noise=0.05, dim=3, sigma=None):
    """Well-separated clusters; returns (graph, embeddings, truth_all)."""
    centers = rng.normal(scale=spread, size=(n_classes, dim))
    rows, truth = [], []
    for role_count in (labeled, unlabeled, heldout):
        for c in range(n_classes):
            for _ in range(role_count):
                rows.append(centers[c] + rng.normal(scale=noise, size=dim))
                truth.append(c)
    emb = np.vstack(rows)
    truth = np.array(truth)
    l, u, h = labeled * n_classes, unlabeled * n_classes, heldout * n_classes
    view = EmbeddingView("voice", emb)
    # keep the kernel wide enough that within-cluster weights cannot underflow
    sigma = max(1.0, 4.0 * noise) if sigma is None else sigma
    fused = fuse({"voice": affinity(view, UniversalScaling(sigma))}, SingleView("voice"))
    graph = HouseholdGraph(fused=fused, labels=truth[:l], n_unlabeled=u,
                           n_heldout=h, class_count=n_classes)
    return graph, emb, truth


class TestHouseholdGraph:
    def test_partition_checks(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(StructuralError):
            graph_from_w(w, labels=[0, 1], n_unlabeled=1, n_heldout=0, class_count=2)
        with pytest.raises(StructuralError):
            graph_from_w(w, labels=[0, 0], n_unlabeled=0, n_heldout=0, class_count=2)
        with pytest.raises(StructuralError):
            graph_from_w(w, labels=[0, 2], n_unlabeled=0, n_heldout=0, class_count=2)

    @pytest.mark.parametrize("labels, n_unlabeled, n_heldout, class_count, message", [
        ([], 1, 1, 2, "need at least one labeled node"),
        ([0, 0], 0, 0, 1, "class_count must be >= 2, got 1"),
        ([0, 1], -1, 1, 2, "negative partition size"),
        ([0, 1], 1, -1, 2, "negative partition size"),
        # 4.0 unlabeled nodes ended in a TypeError from a slice, 4.0 held-out
        # nodes solved, True counted as 1 and 2.5 classes ended in a TypeError
        ([0, 1], 4.0, 0, 2, "n_unlabeled must be an integer, got 4.0"),
        ([0, 1], 0, 4.0, 2, "n_heldout must be an integer, got 4.0"),
        ([0, 1], True, 0, 2, "n_unlabeled must be an integer, got True"),
        ([0, 1], 0, 0, 2.5, "class_count must be an integer, got 2.5"),
    ])
    def test_constructor_rejects(self, labels, n_unlabeled, n_heldout, class_count, message):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(StructuralError, match=message):
            graph_from_w(w, labels, n_unlabeled, n_heldout, class_count)

    def test_numpy_integer_partition_sizes_are_accepted(self):
        w = random_affinity(np.random.default_rng(0), 10).w
        graph = graph_from_w(w, [0, 1], np.int64(4), np.int64(4), np.int64(2))
        assert run_lp(graph, PropagationConfig()).labels.shape == (4,)

    @pytest.mark.parametrize("labels", [[0.7, 1.9], [False, True]])
    def test_labels_that_are_not_integers_are_rejected(self, labels):
        # they were cast to int: [0.7, 1.9] held classes [0, 1]
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(StructuralError, match="labels must be integer class indices"):
            graph_from_w(w, labels, 0, 0, 2)

    @pytest.mark.parametrize("rule", FUSION_RULES)
    def test_step1_weights_are_views_of_the_graph(self, rule):
        rng = np.random.default_rng(3)
        views = {name: EmbeddingView(name, rng.normal(size=(12, 3))) for name in ("voice", "face")}
        fused = fuse({name: affinity(v, UniversalScaling(2.0)) for name, v in views.items()}, rule)
        graph = HouseholdGraph(fused=fused, labels=np.array([0, 1, 0, 1]), n_unlabeled=5,
                               n_heldout=3, class_count=2)
        step1 = graph.without_heldout().fused
        assert step1.node_count == 9
        for core, full in zip(step1.weights, fused.weights):
            assert np.shares_memory(core, full)
            assert np.array_equal(core, full[:9, :9])


class TestInitLabelMatrix:
    def test_one_label_per_class(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        graph = graph_from_w(w, [0, 1], 0, 0, 2)
        assert np.array_equal(init_label_matrix(graph), np.eye(2))

    def test_column_normalization(self):
        w = 0.5 - 0.5 * np.eye(3)
        graph = graph_from_w(w, [0, 0, 1], 0, 0, 2)
        expected = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 1.0]])
        assert np.array_equal(init_label_matrix(graph), expected)

    def test_zero_column_stays_zero(self):
        y0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = class_normalize(y0)
        assert np.array_equal(out[:, 1], [0.0, 0.0])
        assert np.isfinite(out).all()

    def test_pseudo_labels_and_abstain(self):
        w = 0.5 - 0.5 * np.eye(4)
        graph = graph_from_w(w, [0, 1], 2, 0, 2)
        y0 = init_label_matrix(graph, pseudo=np.array([1, ABSTAIN]))
        assert np.array_equal(y0[2], [0.0, 0.5])
        assert np.array_equal(y0[3], [0.0, 0.0])
        assert y0.sum(axis=0) == pytest.approx([1.0, 1.0])

    def test_pseudo_validation(self):
        w = 0.5 - 0.5 * np.eye(4)
        graph = graph_from_w(w, [0, 1], 2, 0, 2)
        with pytest.raises(StructuralError):
            init_label_matrix(graph, pseudo=np.array([0]))
        with pytest.raises(StructuralError):
            init_label_matrix(graph, pseudo=np.array([0, 2]))

    def test_pseudo_labels_that_are_not_integers_are_rejected(self):
        # [0.6, 1.4] was read as [0, 1]; run_lp passes pseudo labels through
        w = 0.5 - 0.5 * np.eye(4)
        graph = graph_from_w(w, [0, 1], 2, 0, 2)
        with pytest.raises(StructuralError, match="pseudo labels must be integer class indices"):
            init_label_matrix(graph, pseudo=[0.6, 1.4])
        with pytest.raises(StructuralError, match="pseudo labels must be integer class indices"):
            run_lp(graph, PropagationConfig(), pseudo=[0.6, 1.4])
        # an empty pool takes empty pseudo labels of any dtype
        empty = graph_from_w(0.5 - 0.5 * np.eye(2), [0, 1], 0, 0, 2)
        assert np.array_equal(init_label_matrix(empty, pseudo=[]), np.eye(2))


class TestPropagate:
    def test_equidistant_tie(self):
        w = 0.4 - 0.4 * np.eye(3)
        graph = graph_from_w(w, [0, 1], 1, 0, 2)
        out = propagate(graph, init_label_matrix(graph), PropagationConfig())
        assert out.y[2, 0] == pytest.approx(out.y[2, 1], rel=1e-12)

    def test_chain_argmax_matches_inverse_oracle(self):
        w = np.array([[0.0, 0.0, 0.9],
                      [0.0, 0.0, 0.1],
                      [0.9, 0.1, 0.0]])
        graph = graph_from_w(w, [0, 1], 1, 0, 2)
        alpha = 0.9
        y0 = init_label_matrix(graph)
        s = propagation_operator(w)
        oracle = (1 - alpha) * np.linalg.inv(np.eye(3) - alpha * s) @ y0
        for solver in ("closed_form", "iterative"):
            cfg = PropagationConfig(alpha=alpha, solver=solver, tol=1e-12,
                                    max_iter=20000)
            out = propagate(graph, y0, cfg)
            assert np.abs(out.y - oracle).max() < 1e-9
            assert np.argmax(out.y[2]) == 0

    def test_alpha_to_zero_keeps_labeled_argmax(self):
        rng = np.random.default_rng(0)
        graph, _, truth = cluster_household(rng, noise=20.0)
        cfg = PropagationConfig(alpha=1e-9)
        out = propagate(graph, init_label_matrix(graph), cfg)
        l = graph.n_labeled
        assert np.array_equal(np.argmax(out.y[:l], axis=1), graph.labels)

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(n=st.integers(8, 30), seed=st.integers(0, 2**32 - 1))
    def test_solvers_agree(self, n, seed, alpha):
        rng = np.random.default_rng(seed)
        affinities = {name: affinity(EmbeddingView(name, rng.normal(size=(n, 3))),
                                     UniversalScaling(1.0))
                      for name in ("voice", "face")}
        for rule in FUSION_RULES:
            graph = HouseholdGraph(fused=fuse(affinities, rule), labels=np.array([0, 1]),
                                   n_unlabeled=n - 4, n_heldout=2, class_count=2)
            y0 = init_label_matrix(graph)
            closed = propagate(graph, y0, PropagationConfig(alpha=alpha, solver="closed_form"))
            s = graph.fused.propagation_matrix()
            if alpha * np.abs(np.linalg.eigvalsh(s)).max() < 0.999:
                iterative = propagate(graph, y0, PropagationConfig(
                    alpha=alpha, solver="iterative", tol=1e-10, max_iter=50000))
                assert iterative.converged
                reference = iterative.y
            else:
                # A power mean with p < 0 can put an eigenvalue of S below
                # -1/alpha (S = I - L_p and L_p reaches 2 + shift), where the
                # iteration diverges; the dense inverse is the reference there.
                reference = (1 - alpha) * np.linalg.inv(np.eye(n) - alpha * s) @ y0
            assert np.abs(closed.y - reference).max() < 1e-6

    def test_indefinite_system_raises(self):
        # S = [[0, 2], [2, 0]] gives I - 0.9*S the eigenvalues 1 +- 1.8
        s = np.array([[0.0, 2.0], [2.0, 0.0]])
        fused = FusedGraph(rule=SingleView("w"), weights=(s,), operator=s)
        graph = HouseholdGraph(fused=fused, labels=np.array([0, 1]), n_unlabeled=0,
                               n_heldout=0, class_count=2)
        with pytest.raises(NumericalError, match=r"not positive definite at alpha=0\.9"):
            propagate(graph, init_label_matrix(graph), PropagationConfig(alpha=0.9))

    @pytest.mark.parametrize("solve", ("auto", "iterative", "system"))
    @pytest.mark.parametrize("p", (None, -1.0))
    @pytest.mark.parametrize("shape", ("fewer rows", "more rows", "1-D"))
    def test_y0_of_another_size_raises(self, solve, p, shape):
        # the direct solver ended in an f2py ValueError from dpotrs, the
        # iteration in a matmul one; a 1-D y0 ended in an einsum ValueError on
        # a p = -1 graph and came back as a 1-D y, which predict cannot read,
        # on the other routes
        rng = np.random.default_rng(0)
        if p is None:
            graph, _, _ = cluster_household(rng, labeled=1, unlabeled=0, heldout=0,
                                            n_classes=2, noise=1.0)
        else:
            graph = harmonic_graph([random_affinity(rng, 7).w for _ in range(2)], math.log(2.0))
            assert graph.fused.harmonic
        n = graph.n
        y0 = np.ones({"fewer rows": (n - 1, 2), "more rows": (n + 2, 2), "1-D": (n,)}[shape])
        with pytest.raises(StructuralError, match=re.escape(
                f"one row per node ({n}), got shape {y0.shape}")):
            if solve == "system":
                graph.fused.system(0.9).solve(y0)
            else:
                propagate(graph, y0, PropagationConfig(solver=solve))

    @pytest.mark.parametrize("p", (None, -1.0))
    @pytest.mark.parametrize("alpha", (1.0, 0.0, -0.5, math.nan))
    def test_system_rejects_alpha_outside_the_unit_interval(self, p, alpha):
        # on a p = -1 graph alpha = 1 ended in a math domain error and NaN in a
        # NaN-to-integer one; a single-view graph returned all zeros at alpha = 1,
        # so that every row abstained, and solved at alpha = -0.5
        rng = np.random.default_rng(0)
        if p is None:
            fused = cluster_household(rng, labeled=1, unlabeled=2, heldout=0, n_classes=2)[0].fused
        else:
            fused = harmonic_graph([random_affinity(rng, 7).w for _ in range(2)],
                                   math.log(2.0)).fused
        message = re.escape(f"alpha must be in (0, 1), got {alpha}")
        with pytest.raises(ConfigurationError, match=message):
            PropagationConfig(alpha=alpha)
        for args in ((alpha,), (0.9, [0.5, alpha])):
            with pytest.raises(ConfigurationError, match=message):
                fused.system(*args)

    def test_iterative_divergence_raises_before_any_warning(self):
        # two random weights fused by the p = -1 power mean give rho(S) = 1.187,
        # so at alpha = 0.9 the iteration grows instead of converging
        rng = np.random.default_rng(0)
        weights = {}
        for name in ("voice", "face"):
            upper = np.triu(rng.random((8, 8)) ** 4, 1)
            weights[name] = AffinityMatrix(upper + upper.T)
        fused = fuse(weights, PowerMeanFusion(("voice", "face"), p=-1.0))
        assert 0.9 * np.abs(np.linalg.eigvalsh(fused.propagation_matrix())).max() > 1.0
        graph = HouseholdGraph(fused=fused, labels=np.array([0, 1]), n_unlabeled=4,
                               n_heldout=2, class_count=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"diverges at alpha=0\.9"):
                propagate(graph, init_label_matrix(graph),
                          PropagationConfig(alpha=0.9, solver="iterative"))

    def test_iterative_roundoff_is_not_divergence(self):
        # a tolerance below round-off never converges, but must not read as
        # divergence: the step stalls at round-off level instead of growing
        rng = np.random.default_rng(2)
        graph, _, _ = cluster_household(rng, noise=1.0)
        y0 = init_label_matrix(graph)
        out = propagate(graph, y0, PropagationConfig(alpha=0.99, solver="iterative",
                                                     tol=1e-300, max_iter=20000))
        closed = propagate(graph, y0, PropagationConfig(alpha=0.99))
        assert np.abs(out.y - closed.y).max() < 1e-8

    def test_objective_gradient_vanishes(self):
        # the fixed point minimizes ||f - y0||^2 + lam * tr(f' L f), lam = a/(1-a)
        rng = np.random.default_rng(3)
        view = EmbeddingView("voice", rng.normal(size=(12, 3)))
        w = affinity(view, UniversalScaling(1.0))
        fused = fuse({"voice": w}, SingleView("voice"))
        graph = HouseholdGraph(fused=fused, labels=np.array([0, 1, 1]),
                               n_unlabeled=7, n_heldout=2, class_count=2)
        y0 = init_label_matrix(graph)
        for alpha in (0.5, 0.9):
            f = propagate(graph, y0, PropagationConfig(alpha=alpha,
                                                       solver="closed_form")).y
            lam = alpha / (1 - alpha)
            lap = np.eye(12) - propagation_operator(w.w)
            grad = 2 * (f - y0) + 2 * lam * (lap @ f)
            assert np.abs(grad).max() < 1e-8

    def test_scores_stay_nonnegative(self):
        rng = np.random.default_rng(8)
        graph, _, _ = cluster_household(rng)
        cfg = PropagationConfig(solver="iterative", max_iter=200, tol=1e-15)
        y = init_label_matrix(graph)
        s = graph.fused.propagation_matrix()
        for _ in range(50):
            y = cfg.alpha * (s @ y) + (1 - cfg.alpha) * init_label_matrix(graph)
            assert y.min() >= 0.0

    def test_config_validation(self):
        for kwargs in ({"alpha": 0.0}, {"alpha": 1.0}, {"tol": 0.0},
                       {"max_iter": 0}, {"solver": "magic"}):
            with pytest.raises(ConfigurationError):
                PropagationConfig(**kwargs)

    @pytest.mark.parametrize("max_iter", [1.5, 100.0, True, "10"])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # max_iter = 1.5 once ended the iterative solver in a TypeError from range()
        with pytest.raises(ConfigurationError, match="max_iter must be an integer >= 1"):
            PropagationConfig(max_iter=max_iter, solver="iterative")

    def test_max_iter_may_be_a_numpy_integer(self):
        assert PropagationConfig(max_iter=np.int64(5)).max_iter == 5


def random_affinity(rng, n, sigma=1.0):
    return affinity(EmbeddingView("v", rng.normal(size=(n, 3))), UniversalScaling(sigma))


def harmonic_reference(weights, shift, y0, alpha):
    """pml_fuse, S = I - L and one Cholesky solve of (I - alpha*S) y = (1 - alpha) Y0."""
    n = y0.shape[0]
    s = np.eye(n) - pml_fuse([normalized_laplacian(w) for w in weights], -1.0, shift)
    return cho_solve(cho_factor(np.eye(n) - alpha * s), (1.0 - alpha) * y0)


def mean_inverse_reference(weights, shift, y0, alpha):
    """One Cholesky solve of ((1 - alpha) H + alpha I) y = (1 - alpha) H Y0, with
    H = mean_v (L_v + shift*I)^{-1} from fusion._mean_of_inverses."""
    n = y0.shape[0]
    h = fusion._mean_of_inverses([normalized_laplacian(w) + shift * np.eye(n) for w in weights])
    return cho_solve(cho_factor((1.0 - alpha) * h + alpha * np.eye(n)), (1.0 - alpha) * h @ y0)


def harmonic_graph(weights, shift, n_heldout=2, class_count=3):
    rule = PowerMeanFusion(tuple(f"v{i}" for i in range(len(weights))), p=-1.0, shift=shift)
    fused = fuse({name: AffinityMatrix(w) for name, w in zip(rule.view_names, weights)}, rule)
    n = fused.node_count
    return HouseholdGraph(fused=fused, labels=np.arange(class_count),
                          n_unlabeled=n - class_count - n_heldout, n_heldout=n_heldout,
                          class_count=class_count)


class TestHarmonicGraph:
    """A p = -1 power mean holds H = mean_v (L_v + shift*I)^{-1} and solves
    ((1 - alpha) H + alpha I) y = (1 - alpha) H Y0, which is (I - alpha*S) y =
    (1 - alpha) Y0 multiplied by H."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(6, 30), views=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
           shift=st.sampled_from([math.log(2.0), 1e-2, 1e-3]))
    def test_solve_matches_fused_laplacian_solve(self, n, views, seed, shift):
        rng = np.random.default_rng(seed)
        weights = [random_affinity(rng, n, float(rng.uniform(0.5, 2.0))).w
                   for _ in range(views)]
        graph = harmonic_graph(weights, shift)
        assert graph.fused.harmonic
        y0 = init_label_matrix(graph)
        for alpha in (0.5, 0.9, 0.99, 0.999999):
            y = propagate(graph, y0, PropagationConfig(alpha=alpha)).y
            reference = harmonic_reference(weights, shift, y0, alpha)
            assert np.abs(y - reference).max() <= 1e-12 * np.abs(reference).max()
            assert np.array_equal(np.argmax(y, axis=1), np.argmax(reference, axis=1))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(6, 30), views=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
           shift=st.sampled_from([math.log(2.0), 1e-2, 1e-3]))
    def test_conjugate_gradients_match_within_1e13(self, n, views, seed, shift):
        # CG where the kappa bound's step count is within the cap; above it a
        # fresh graph builds H from its factors, one dpotri per view. Each
        # route errs by up to about eps * cond(L_v + shift*I), so at shift 1e-3
        # harmonic_reference itself can be 2e-13 off a 40-digit solution; CG
        # stays within 1e-14 of the H route at every shift.
        rng = np.random.default_rng(seed)
        weights = [random_affinity(rng, n, float(rng.uniform(0.5, 2.0))).w
                   for _ in range(views)]
        tolerance = max(1e-13, np.finfo(float).eps * (2.0 + shift) / shift)
        for alpha in (0.5, 0.9, 0.99, 0.999999):
            graph = harmonic_graph(weights, shift)
            y0 = init_label_matrix(graph)
            with mock.patch.object(lapack, "dpotri", wraps=lapack.dpotri) as dpotri:
                y = propagate(graph, y0, PropagationConfig(alpha=alpha)).y
            fallback = fusion._cg_steps(alpha, shift) > fusion._CG_MAX_STEPS
            assert dpotri.call_count == (views if fallback else 0)
            reference = harmonic_reference(weights, shift, y0, alpha)
            assert np.abs(y - reference).max() <= tolerance * np.abs(reference).max()
            assert np.array_equal(np.argmax(y, axis=1), np.argmax(reference, axis=1))
            h_route = mean_inverse_reference(weights, shift, y0, alpha)
            assert np.abs(y - h_route).max() <= 1e-14 * np.abs(h_route).max()

    def test_step_count_depends_on_alpha_and_shift(self):
        assert fusion._cg_steps(0.9, math.log(2.0)) == 11
        assert fusion._cg_steps(0.99, 1e-2) == 21
        assert fusion._cg_steps(0.999999, 1e-3) == 5
        assert fusion._cg_steps(0.5, 1e-3) == 475
        assert fusion._cg_steps(0.9, 1e-2) == 61

    def test_schedule_above_the_cap_builds_h_once(self):
        # 19 + 11 + 7 steps at shift log 2 pass the cap: a schedule of LP at
        # those alphas builds H from the factors (one dpotri per view) on its
        # first solve and every alpha reuses it. A schedule within the cap,
        # each alpha counted once, or a lone solve runs CG.
        rng = np.random.default_rng(8)
        weights = [random_affinity(rng, 12).w for _ in range(3)]
        shift, cfgs = math.log(2.0), [PropagationConfig(alpha=a) for a in (0.5, 0.9, 0.99)]
        assert sum(fusion._cg_steps(cfg.alpha, shift) for cfg in cfgs) > fusion._CG_MAX_STEPS
        graph = harmonic_graph(weights, shift)
        fresh = harmonic_graph(weights, shift)
        within = [PropagationConfig(alpha=a) for a in (0.9, 0.99, 0.99, 0.9)]
        with mock.patch.object(lapack, "dpotri", wraps=lapack.dpotri) as dpotri:
            schedule = SolveSchedule(graph, [("LP", cfg) for cfg in cfgs])
            scheduled = [schedule.predict("LP", cfg).scores for cfg in cfgs]
            assert dpotri.call_count == 3
            alone = [run_lp(fresh, cfg).scores for cfg in cfgs]
            schedule = SolveSchedule(fresh, [("LP", cfg) for cfg in within])
            schedule.predict("LP", within[0])
            assert dpotri.call_count == 3 and "_mean_inverse" not in vars(fresh.fused)
        y0 = init_label_matrix(graph)
        for cfg, y, cg in zip(cfgs, scheduled, alone):
            factored = fresh.fused.system(cfg.alpha, [c.alpha for c in cfgs]).solve(y0)
            assert np.array_equal(y, factored[graph.heldout_slice])
            assert np.abs(y - cg).max() <= 1e-14 * np.abs(y).max()

    def test_zero_residual_column_stops(self):
        # an all-zero column of Y0 has b = 0 and a zero residual from the start:
        # it stays 0, with no 0/0, and the other column solves as it would alone
        rng = np.random.default_rng(6)
        fused = harmonic_graph([random_affinity(rng, 10).w for _ in range(2)],
                               math.log(2.0)).fused
        y0 = np.zeros((10, 2))
        y0[:3, 0] = 1.0 / 3.0
        y = fused.system(0.9).solve(y0)
        assert not y[:, 1].any()
        alone = fused.system(0.9).solve(y0[:, :1])[:, 0]
        assert np.abs(y[:, 0] - alone).max() <= 1e-14 * np.abs(alone).max()
        assert not fused.system(0.9).solve(np.zeros((10, 2))).any()

    def test_s_is_built_on_request_from_h(self):
        rng = np.random.default_rng(4)
        weights = [random_affinity(rng, 9).w for _ in range(2)]
        fused = harmonic_graph(weights, math.log(2.0)).fused
        assert fused.harmonic and "_harmonic_s" not in vars(fused)
        s = fused.propagation_matrix()
        laplacians = [normalized_laplacian(w) for w in weights]
        assert np.array_equal(s, np.eye(9) - pml_fuse(laplacians, -1.0, math.log(2.0)))
        assert fused.propagation_matrix() is s

    def test_iterative_solver_matches_closed_form(self):
        # at alpha = 0.5 the iteration converges: rho(S) <= 1 + shift
        rng = np.random.default_rng(5)
        graph = harmonic_graph([random_affinity(rng, 14).w for _ in range(2)], math.log(2.0))
        assert graph.fused.harmonic
        y0 = init_label_matrix(graph)
        closed = propagate(graph, y0, PropagationConfig(alpha=0.5))
        iterative = propagate(graph, y0, PropagationConfig(alpha=0.5, solver="iterative",
                                                          tol=1e-12, max_iter=10000))
        assert iterative.converged
        assert np.abs(iterative.y - closed.y).max() < 1e-10
        for rows in (graph.unlabeled_slice, graph.heldout_slice):
            assert np.array_equal(predict(iterative.y, rows).labels,
                                  predict(closed.y, rows).labels)


class TestPredict:
    def test_argmax(self):
        out = predict(np.array([[0.2, 0.7]]))
        assert out.labels.tolist() == [1]

    def test_tie_breaks_low_and_flags(self):
        out = predict(np.array([[0.5, 0.5]]))
        assert out.labels.tolist() == [0]
        assert out.ties == (0,)

    def test_all_zero_abstains(self):
        out = predict(np.array([[0.0, 0.0]]))
        assert out.labels.tolist() == [ABSTAIN]
        assert out.abstains == (0,)


class TestPipelines:
    def test_lp_separable_clusters(self):
        rng = np.random.default_rng(1)
        graph, _, truth = cluster_household(rng)
        pred = run_lp(graph, PropagationConfig())
        assert np.array_equal(pred.labels, truth[graph.heldout_slice])

    def test_lp_no_unlabeled(self):
        rng = np.random.default_rng(2)
        graph, _, truth = cluster_household(rng, unlabeled=0)
        pred = run_lp(graph, PropagationConfig())
        assert np.array_equal(pred.labels, truth[graph.heldout_slice])

    def test_tie_symmetric_household_diagnostics(self):
        w = np.array([[0.0, 0.0, 0.5],
                      [0.0, 0.0, 0.5],
                      [0.5, 0.5, 0.0]])
        graph = graph_from_w(w, [0, 1], 0, 1, 2)
        pred = run_lp(graph, PropagationConfig())
        assert pred.ties == (0,)

    def test_2lp_separable_equals_lp(self):
        rng = np.random.default_rng(4)
        graph, _, truth = cluster_household(rng)
        cfg = PropagationConfig()
        assert np.array_equal(run_2lp(graph, cfg).labels, run_lp(graph, cfg).labels)

    def test_2lp_u_zero_equals_lp(self):
        rng = np.random.default_rng(5)
        graph, _, _ = cluster_household(rng, unlabeled=0)
        cfg = PropagationConfig()
        assert np.array_equal(run_2lp(graph, cfg).labels, run_lp(graph, cfg).labels)

    def test_2lp_step2_columns_normalized(self):
        rng = np.random.default_rng(6)
        graph, _, _ = cluster_household(rng, unlabeled=6)
        cfg = PropagationConfig()
        step1 = graph.without_heldout()
        out = propagate(step1, init_label_matrix(step1), cfg)
        pseudo = predict(out.y, step1.unlabeled_slice).labels
        y0 = init_label_matrix(graph, pseudo=pseudo)
        sums = y0.sum(axis=0)
        assert sums[sums > 0] == pytest.approx(np.ones((sums > 0).sum()))

    def test_step1_includes_heldout_switch(self):
        rng = np.random.default_rng(12)
        graph, _, _ = cluster_household(rng, noise=8.0, spread=20.0)
        base = PropagationConfig()
        wide = PropagationConfig(step1_includes_heldout=True)
        assert run_2lp(graph, base).labels.shape == run_2lp(graph, wide).labels.shape

    def test_permutation_equivariance_within_roles(self):
        rng = np.random.default_rng(7)
        graph, emb, truth = cluster_household(rng, noise=10.0, spread=25.0)
        cfg = PropagationConfig()
        base = run_2lp(graph, cfg).labels

        l, u, h = graph.n_labeled, graph.n_unlabeled, graph.n_heldout
        perm = np.concatenate([rng.permutation(l), l + rng.permutation(u),
                               l + u + rng.permutation(h)])
        w = graph.fused.weights[0][np.ix_(perm, perm)]
        permuted = graph_from_w(w, graph.labels[perm[:l]], u, h, graph.class_count)
        out = run_2lp(permuted, cfg).labels
        inverse = np.argsort(perm[l + u:] - (l + u))
        assert np.array_equal(out[inverse], base)

    def test_class_relabeling_permutes_columns(self):
        rng = np.random.default_rng(9)
        graph, _, _ = cluster_household(rng, n_classes=3, noise=10.0, spread=25.0)
        cfg = PropagationConfig()
        base = run_lp(graph, cfg).labels
        swap = np.array([2, 0, 1])   # class c becomes swap[c]
        relabeled = HouseholdGraph(fused=graph.fused, labels=swap[graph.labels],
                                   n_unlabeled=graph.n_unlabeled,
                                   n_heldout=graph.n_heldout, class_count=3)
        out = run_lp(relabeled, cfg).labels
        assert np.array_equal(out, swap[base])


class Test2LPEA:
    def test_u_zero_single_label_equals_csea(self):
        rng = np.random.default_rng(10)
        graph, emb, truth = cluster_household(rng, labeled=1, unlabeled=0,
                                              noise=5.0, spread=12.0)
        pred = run_2lpea(graph, emb, PropagationConfig())
        csea = run_csea(emb[:graph.n_labeled], graph.labels,
                        emb[graph.heldout_slice], graph.class_count)
        assert np.array_equal(pred.labels, csea.labels)

    def test_oracle_pseudo_matches_oracle_csea(self):
        rng = np.random.default_rng(11)
        graph, emb, truth = cluster_household(rng)
        pred = run_2lpea(graph, emb, PropagationConfig())
        l_u = graph.n_labeled + graph.n_unlabeled
        oracle = run_csea(emb[:l_u], truth[:l_u], emb[graph.heldout_slice],
                          graph.class_count)
        assert np.array_equal(pred.labels, oracle.labels)

    def test_step2_means_match_bruteforce(self):
        rng = np.random.default_rng(13)
        graph, emb, truth = cluster_household(rng)
        cfg = PropagationConfig()
        step1 = graph.without_heldout()
        pseudo = predict(propagate(step1, init_label_matrix(step1), cfg).y,
                         step1.unlabeled_slice).labels
        all_labels = np.concatenate([graph.labels, pseudo])
        core = emb[: graph.n_labeled + graph.n_unlabeled]
        for c in range(graph.class_count):
            members = [core[i] for i in range(len(all_labels)) if all_labels[i] == c]
            expected = np.mean(members, axis=0)
            got = core[all_labels == c].mean(axis=0)
            assert np.allclose(got, expected, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 4),
           labeled=st.integers(1, 2), unlabeled=st.integers(1, 5),
           heldout=st.integers(1, 3), noise=st.floats(0.5, 30.0))
    def test_step2_is_csea_on_step1_labels(self, seed, n_classes, labeled, unlabeled,
                                           heldout, noise):
        graph, emb, _ = cluster_household(
            np.random.default_rng(seed), n_classes=n_classes, labeled=labeled,
            unlabeled=unlabeled, heldout=heldout, spread=10.0, noise=noise)
        cfg = PropagationConfig()
        step1 = graph.without_heldout()
        pseudo = predict(propagate(step1, init_label_matrix(step1), cfg).y,
                         step1.unlabeled_slice).labels
        # every class keeps its labeled nodes, so step 2 has no empty class
        core_labels = np.concatenate([graph.labels, pseudo])
        keep = core_labels != ABSTAIN
        core = emb[: graph.n_labeled + graph.n_unlabeled]
        csea = run_csea(core[keep], core_labels[keep], emb[graph.heldout_slice],
                        graph.class_count)
        pred = run_2lpea(graph, emb, cfg)
        assert np.array_equal(pred.labels, csea.labels)
        assert pred.ties == csea.ties

    def test_embedding_shape_checked(self):
        rng = np.random.default_rng(14)
        graph, emb, _ = cluster_household(rng)
        with pytest.raises(StructuralError):
            run_2lpea(graph, emb[:-1], PropagationConfig())

    @pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
    def test_non_finite_embeddings_raise(self, bad):
        # step 2 once scored an inf held-out row [nan, nan] and returned
        # label 0 with no tie flag
        emb = np.array([[0.0, 0.0], [5.0, 5.0], [0.5, 0.0], [0.0, 0.5], [5.0, 4.5]])
        kernel = affinity(EmbeddingView("voice", emb), UniversalScaling(3.0))
        graph = HouseholdGraph(fused=fuse({"voice": kernel}, SingleView("voice")),
                               labels=[0, 1], n_unlabeled=1, n_heldout=2, class_count=2)
        emb[3, 0] = bad
        with pytest.raises(StructuralError, match="embeddings must be finite"):
            run_2lpea(graph, emb, PropagationConfig())

    def test_zero_norm_warning_names_the_caller(self):
        # it once named the line of propagation.py that scores step 2
        emb = np.array([[0.0, 1.0], [5.0, 5.0], [0.5, 1.0], [0.0, 0.5], [5.0, 4.5]])
        kernel = affinity(EmbeddingView("voice", emb), UniversalScaling(3.0))
        graph = HouseholdGraph(fused=fuse({"voice": kernel}, SingleView("voice")),
                               labels=[0, 1], n_unlabeled=1, n_heldout=2, class_count=2)
        emb[3] = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_2lpea(graph, emb, PropagationConfig())
        assert caught
        assert [(w.category, w.filename) for w in caught] == \
            [(DegeneracyWarning, __file__)] * len(caught)

    def test_step1_runs_for_zero_width_embeddings(self):
        # the pool has rows but no entries; step 1 must still run, and step 2
        # scores zero vectors (once numpy's ValueError) with a warning
        graph, emb, _ = cluster_household(np.random.default_rng(16))
        cfg = PropagationConfig(solver="iterative")
        step1 = graph.without_heldout()
        first = propagate(step1, init_label_matrix(step1), cfg)
        with pytest.warns(DegeneracyWarning, match="zero-norm"):
            pred = run_2lpea(graph, emb[:, :0], cfg)
        assert pred.iterations == first.iterations > 0

    def test_local_scaling_prediction_scale_invariance(self):
        rng = np.random.default_rng(15)
        _, emb, truth = cluster_household(rng, noise=8.0, spread=20.0)
        cfg = PropagationConfig()
        rule = LocalScaling(k=5, s=0.7)

        def predictions(vectors):
            view = EmbeddingView("voice", vectors)
            fused = fuse({"voice": affinity(view, rule)}, SingleView("voice"))
            l = 6
            graph = HouseholdGraph(fused=fused, labels=truth[:l],
                                   n_unlabeled=15, n_heldout=9, class_count=3)
            return run_2lp(graph, cfg).labels

        base = predictions(emb)
        for c in (0.1, 10.0):
            assert np.array_equal(predictions(emb * c), base)


# ---------------------------------------------------------------------------
# The two-step rule against the four methods' separate implementations
# ---------------------------------------------------------------------------

def separate_argmax(scores):
    labels = np.argmax(scores, axis=1)
    ties = tuple(np.flatnonzero(
        (scores == scores.max(axis=1)[:, None]).sum(axis=1) > 1).tolist())
    return PredictionResult(labels=labels, scores=scores, ties=ties)


def separate_two_step_cosine(scorer, labeled, classes, unlabeled, heldout, class_count):
    if unlabeled.size == 0:
        return scorer(labeled, classes, heldout, class_count)
    pseudo = scorer(labeled, classes, unlabeled, class_count).labels
    return scorer(np.vstack([labeled, unlabeled]), np.concatenate([classes, pseudo]),
                  heldout, class_count)


def separate_lp(graph, cfg, y0=None):
    outcome = propagate(graph, init_label_matrix(graph) if y0 is None else y0, cfg)
    return replace(predict(outcome.y, graph.heldout_slice), converged=outcome.converged,
                   iterations=outcome.iterations)


def separate_step1(graph, cfg):
    step1 = graph if cfg.step1_includes_heldout else graph.without_heldout()
    outcome = propagate(step1, init_label_matrix(step1), cfg)
    return predict(outcome.y, step1.unlabeled_slice).labels, outcome


def separate_2lp(graph, cfg):
    if graph.n_unlabeled == 0:
        return separate_lp(graph, cfg)
    pseudo, first = separate_step1(graph, cfg)
    second = separate_lp(graph, cfg, init_label_matrix(graph, pseudo=pseudo))
    return replace(second, converged=first.converged and second.converged,
                   iterations=first.iterations + second.iterations)


def separate_2lpea(graph, emb, cfg):
    if graph.n_unlabeled > 0:
        pseudo, first = separate_step1(graph, cfg)
        converged, iterations = first.converged, first.iterations
    else:
        pseudo = np.zeros(0, dtype=int)
        converged, iterations = True, 0
    core = emb[:graph.n_labeled + graph.n_unlabeled]
    classes = np.concatenate([graph.labels, pseudo])
    means = np.stack([core[classes == c].mean(axis=0) for c in range(graph.class_count)])
    pred = separate_argmax(cosine_matrix(emb[graph.heldout_slice], means))
    return replace(pred, converged=converged, iterations=iterations)


def blob_household(rng, n_classes, labeled, unlabeled, heldout, noise, orphans):
    """One blob per class, plus ``orphans`` unlabeled and as many held-out nodes
    in a far blob that no label reaches, so that propagation abstains there.
    Returns the graph and the embeddings in graph order."""
    centers = rng.normal(scale=10.0, size=(n_classes, 3))
    far = np.full(3, 1e4)
    rows, sizes = [], []
    for count, extra in ((labeled, 0), (unlabeled, orphans), (heldout, orphans)):
        block = [centers[c] + rng.normal(scale=noise, size=3)
                 for c in range(n_classes) for _ in range(count)]
        block += [far + rng.normal(scale=0.5, size=3) for _ in range(extra)]
        rows += block
        sizes.append(len(block))
    emb = np.vstack(rows)
    # wide enough that no node within a blob is isolated
    kernel = affinity(EmbeddingView("voice", emb), UniversalScaling(2.0 * noise + 2.0))
    graph = HouseholdGraph(fused=fuse({"voice": kernel}, SingleView("voice")),
                           labels=np.repeat(np.arange(n_classes), labeled),
                           n_unlabeled=sizes[1], n_heldout=sizes[2], class_count=n_classes)
    return graph, emb


class TestTwoStepRule:
    @staticmethod
    def assert_same(got, expected):
        assert got.labels.dtype == expected.labels.dtype
        assert np.array_equal(got.labels, expected.labels)
        assert np.array_equal(got.scores, expected.scores)
        assert got.ties == expected.ties
        assert got.abstains == expected.abstains
        assert got.converged == expected.converged
        assert got.iterations == expected.iterations

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 3),
           labeled=st.integers(1, 2), unlabeled=st.integers(0, 6),
           heldout=st.integers(1, 3), noise=st.floats(0.3, 6.0),
           orphans=st.sampled_from([0, 2]), solver=st.sampled_from(["auto", "iterative"]),
           step1_includes_heldout=st.booleans(), alpha=st.sampled_from([0.5, 0.9, 0.99]),
           max_iter=st.sampled_from([3, 1000]))
    def test_methods_match_their_separate_implementations(
            self, seed, n_classes, labeled, unlabeled, heldout, noise, orphans, solver,
            step1_includes_heldout, alpha, max_iter):
        graph, emb = blob_household(np.random.default_rng(seed), n_classes, labeled,
                                    unlabeled, heldout, noise, orphans)
        cfg = PropagationConfig(alpha=alpha, max_iter=max_iter, solver=solver,
                                step1_includes_heldout=step1_includes_heldout)
        l, u = graph.n_labeled, graph.n_unlabeled
        split = (emb[:l], graph.labels, emb[l:l + u], emb[graph.heldout_slice],
                 graph.class_count)
        self.assert_same(run_2cs(*split), separate_two_step_cosine(run_cs, *split))
        self.assert_same(run_2csea(*split), separate_two_step_cosine(run_csea, *split))
        self.assert_same(run_lp(graph, cfg), separate_lp(graph, cfg))
        self.assert_same(run_2lp(graph, cfg), separate_2lp(graph, cfg))
        self.assert_same(run_2lpea(graph, emb, cfg), separate_2lpea(graph, emb, cfg))
