"""Affinity construction, scaling rules, Laplacians, matrix powers."""

import numpy as np
import pytest

from speakergraph import (
    AffinityMatrix,
    CohortScaling,
    ConfigurationError,
    DegeneracyWarning,
    EmbeddingView,
    LocalScaling,
    NumericalError,
    StructuralError,
    UniversalScaling,
    affinity,
    normalized_laplacian,
    pairwise_distances,
    propagation_operator,
    sym_matrix_power,
)
from speakergraph.graph import SIGMA_FLOOR, _knn_row_means


def line_view(points):
    return EmbeddingView.from_vectors("voice", np.asarray(points, float)[:, None])


def random_view(rng, n, dim=3):
    return EmbeddingView.from_vectors("voice", rng.normal(size=(n, dim)))


class TestPairwiseDistances:
    def test_three_four_five(self):
        view = EmbeddingView.from_vectors("voice", [[0.0, 0.0], [3.0, 4.0]])
        assert pairwise_distances(view)[0, 1] == 5.0

    def test_identical_vectors(self):
        view = EmbeddingView.from_vectors("voice", [[1.0, 2.0], [1.0, 2.0]])
        assert pairwise_distances(view)[0, 1] == 0.0

    def test_session_matrix(self):
        view = EmbeddingView.from_sessions("session", ["a", "a", "b"])
        expected = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)
        assert np.array_equal(pairwise_distances(view), expected)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        dist = pairwise_distances(random_view(rng, 12))
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diagonal(dist) == 0.0)

    def test_ragged_vectors_rejected(self):
        with pytest.raises(StructuralError):
            EmbeddingView.from_vectors("voice", [[1.0, 2.0], [1.0]])

    def test_single_node_rejected(self):
        with pytest.raises(StructuralError):
            EmbeddingView.from_vectors("voice", [[1.0, 2.0]])


class TestKnnMeanDistance:
    def test_line_examples(self):
        dist = pairwise_distances(line_view([0.0, 1.0, 3.0]))
        assert _knn_row_means(dist, 1).tolist() == [1.0, 1.0, 2.0]
        assert _knn_row_means(dist, 2)[2] == 2.5

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        dist = pairwise_distances(random_view(rng, 9))
        for k in (1, 3, 8):
            means = _knn_row_means(dist, k)
            for i in range(9):
                row = np.delete(dist[i], i)
                expected = np.sort(row)[:k].mean()
                assert means[i] == pytest.approx(expected)

    def test_k_out_of_range(self):
        dist = pairwise_distances(line_view([0.0, 1.0, 3.0]))
        for k in (0, 3):
            with pytest.raises(ConfigurationError):
                _knn_row_means(dist, k)

    def test_duplicate_point_floors(self):
        # k=1 means are (0, 0, 1e-7): the pair bandwidth 5e-8 is clamped
        with pytest.warns(DegeneracyWarning):
            w = affinity(line_view([0.0, 0.0, 1e-7]), LocalScaling(k=1, s=1.0))
        assert w.w[0, 2] == pytest.approx(np.exp(-(1e-7 / SIGMA_FLOOR) ** 2), rel=1e-12)


class TestAffinity:
    def test_universal_kernel_value(self):
        w = affinity(line_view([0.0, 1.0]), UniversalScaling(1.0))
        assert w.w[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_zero_distance_gives_one(self):
        with pytest.warns(DegeneracyWarning):
            w = affinity(line_view([2.0, 2.0, 9.0]), LocalScaling(k=1, s=1.0))
        assert w.w[0, 1] == 1.0

    def test_local_line_example(self):
        # knn means are {1, 1, 2}; pooled-pair means give sigma 1, 1.5, 1.5
        w = affinity(line_view([0.0, 1.0, 3.0]), LocalScaling(k=1, s=1.0))
        assert w.w[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert w.w[0, 2] == pytest.approx(np.exp(-4.0), rel=1e-12)
        assert w.w[1, 2] == pytest.approx(np.exp(-4.0 / 2.25), rel=1e-12)

    def test_local_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        view = random_view(rng, 10)
        k, s = 3, 0.7
        w = affinity(view, LocalScaling(k=k, s=s))
        dist = pairwise_distances(view)
        for i in range(10):
            for j in range(10):
                if i == j:
                    assert w.w[i, j] == 0.0
                    continue
                pooled = []
                for node in (i, j):
                    row = np.delete(dist[node], node)
                    pooled.extend(np.sort(row)[:k].tolist())
                sigma = s * np.mean(pooled)
                assert w.w[i, j] == pytest.approx(
                    np.exp(-(dist[i, j] / sigma) ** 2), rel=1e-12)

    def test_cohort_rule(self):
        rule = CohortScaling({"hard": 0.5, "random": 2.0})
        view = line_view([0.0, 1.0])
        w_hard = affinity(view, rule, cohort_id="hard")
        w_rand = affinity(view, rule, cohort_id="random")
        assert w_hard.w[0, 1] == pytest.approx(np.exp(-4.0))
        assert w_rand.w[0, 1] == pytest.approx(np.exp(-0.25))
        with pytest.raises(ConfigurationError):
            affinity(view, rule, cohort_id="unknown")
        with pytest.raises(ConfigurationError):
            affinity(view, rule)

    def test_local_rejects_session_view(self):
        view = EmbeddingView.from_sessions("session", ["a", "b", "b"])
        with pytest.raises(ConfigurationError):
            affinity(view, LocalScaling(k=1, s=1.0))

    def test_local_k_too_large(self):
        with pytest.raises(ConfigurationError):
            affinity(line_view([0.0, 1.0, 3.0]), LocalScaling(k=3, s=1.0))

    def test_invalid_rule_parameters(self):
        with pytest.raises(ConfigurationError):
            UniversalScaling(0.0)
        with pytest.raises(ConfigurationError):
            LocalScaling(k=0, s=1.0)
        with pytest.raises(ConfigurationError):
            LocalScaling(k=1, s=0.0)
        with pytest.raises(ConfigurationError):
            CohortScaling({"g": -1.0})

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_zero_diag_range_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        view = random_view(rng, n, dim=int(rng.integers(1, 6)))
        rules = [UniversalScaling(float(rng.uniform(0.2, 3.0))),
                 LocalScaling(k=int(rng.integers(1, n - 1)), s=float(rng.uniform(0.2, 2.0)))]
        for rule in rules:
            w = affinity(view, rule).w
            assert np.array_equal(w, w.T)
            assert np.all(np.diagonal(w) == 0.0)
            assert w.min() >= 0.0 and w.max() <= 1.0

    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_local_scale_invariance(self, c):
        rng = np.random.default_rng(7)
        view = random_view(rng, 15, dim=4)
        rule = LocalScaling(k=4, s=0.6)
        base = affinity(view, rule).w
        scaled = affinity(view.scaled(c), rule).w
        assert np.abs(base - scaled).max() < 1e-9
        # sanity: the universal-rule matrix must change, or this test has no power
        uni = UniversalScaling(1.0)
        assert np.abs(affinity(view, uni).w - affinity(view.scaled(c), uni).w).max() > 1e-3

    def test_monotone_in_distance(self):
        view = line_view([0.0, 1.0, 2.5, 4.0])
        w = affinity(view, UniversalScaling(1.7)).w
        dist = pairwise_distances(view)
        order = np.argsort(dist[0, 1:])
        weights = w[0, 1:][order]
        assert np.all(np.diff(weights) < 0.0)

    def test_affinity_matrix_invariants_enforced(self):
        with pytest.raises(StructuralError):
            AffinityMatrix(np.array([[0.0, 0.5], [0.4, 0.0]]))
        with pytest.raises(StructuralError):
            AffinityMatrix(np.array([[0.1, 0.5], [0.5, 0.0]]))
        with pytest.raises(StructuralError):
            AffinityMatrix(np.array([[0.0, 1.5], [1.5, 0.0]]))


class TestNormalizedLaplacian:
    def test_two_node_graph(self):
        for weight in (0.3, 0.9):
            lap = normalized_laplacian(np.array([[0.0, weight], [weight, 0.0]]))
            assert np.allclose(lap.complement, [[0, 1], [1, 0]], atol=1e-15)
            assert np.allclose(lap.l, [[1, -1], [-1, 1]], atol=1e-15)

    def test_equal_weights_eigenvalues(self):
        lap = normalized_laplacian(np.full((3, 3), 0.4) - np.diag([0.4] * 3))
        eigs = np.sort(np.linalg.eigvalsh(lap.l))
        assert np.allclose(eigs, [0.0, 1.5, 1.5], atol=1e-12)

    def test_null_vector(self):
        rng = np.random.default_rng(5)
        w = affinity(random_view(rng, 8), UniversalScaling(1.0)).w
        lap = normalized_laplacian(w)
        sqrt_degrees = np.sqrt(w.sum(axis=1))
        assert np.abs(lap.l @ sqrt_degrees).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_complement_and_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        w = affinity(random_view(rng, 12), UniversalScaling(1.3)).w
        lap = normalized_laplacian(w)
        s = propagation_operator(w)
        assert np.abs((np.eye(12) - lap.l) - s).max() < 1e-12
        eigs = np.linalg.eigvalsh(lap.l)
        assert eigs.min() > -1e-9 and eigs.max() < 2.0 + 1e-9

    def test_zero_degree_node(self):
        w = np.array([[0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.5],
                      [0.0, 0.5, 0.0]])
        with pytest.raises(StructuralError, match="node 0"):
            normalized_laplacian(w)

    def test_subnormal_degree_node(self):
        # node 0 hangs on one underflowed edge; 1/degree would overflow to inf
        w = AffinityMatrix(np.array([[0.0, 1e-320, 0.0, 0.0],
                                     [1e-320, 0.0, 1.0, 1.0],
                                     [0.0, 1.0, 0.0, 1.0],
                                     [0.0, 1.0, 1.0, 0.0]]))
        with pytest.raises(NumericalError, match="node 0"):
            propagation_operator(w.w)


class TestSymMatrixPower:
    def test_identity_any_power(self):
        eye = np.eye(4)
        for p in (-3.0, -0.5, 0.5, 2.0):
            assert np.allclose(sym_matrix_power(eye, p), eye, atol=1e-12)

    def test_scalar_square_roots(self):
        out = sym_matrix_power(np.diag([1.0, 4.0]), 0.5)
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-12)

    def test_floor_then_invert(self):
        out = sym_matrix_power(np.diag([0.0, 2.0]), -1.0, floor=0.5)
        assert np.allclose(out, np.diag([2.0, 0.5]), atol=1e-12)

    def test_zero_power_rejected(self):
        with pytest.raises(ConfigurationError):
            sym_matrix_power(np.eye(2), 0.0)

    def test_negative_eigenvalue_noninteger_power(self):
        with pytest.raises(NumericalError):
            sym_matrix_power(np.diag([-1.0, 2.0]), 0.5)

    def test_negative_power_needs_positive_floor(self):
        with pytest.raises(NumericalError):
            sym_matrix_power(np.diag([0.0, 2.0]), -1.0, floor=0.0)

    def test_p_one_is_identity_map(self):
        # floor=0 clamps negative eigenvalues, so the identity holds on PSD inputs
        rng = np.random.default_rng(9)
        base = rng.normal(size=(6, 6))
        m = base @ base.T
        assert np.abs(sym_matrix_power(m, 1.0) - m).max() < 1e-10
