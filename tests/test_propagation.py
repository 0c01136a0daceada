"""Label propagation solvers and the LP / 2-LP / 2-LPEA pipelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speakergraph import (
    ABSTAIN,
    AffinityMatrix,
    ConfigurationError,
    EdgePoolFusion,
    EmbeddingView,
    FusedGraph,
    HouseholdGraph,
    LocalScaling,
    NumericalError,
    PowerMeanFusion,
    PropagationConfig,
    SingleView,
    StructuralError,
    UniversalScaling,
    affinity,
    class_normalize,
    fuse,
    init_label_matrix,
    predict,
    propagate,
    propagation_operator,
    run_2lp,
    run_2lpea,
    run_csea,
    run_lp,
)


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
        fused = FusedGraph(rule=SingleView("w"), view_weights=(s,), operator=s)
        graph = HouseholdGraph(fused=fused, labels=np.array([0, 1]), n_unlabeled=0,
                               n_heldout=0, class_count=2)
        with pytest.raises(NumericalError, match=r"not positive definite at alpha=0\.9"):
            propagate(graph, init_label_matrix(graph), PropagationConfig(alpha=0.9))

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
        w = graph.fused.view_weights[0][np.ix_(perm, perm)]
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
