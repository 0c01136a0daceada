"""Affinity construction, scaling rules, Laplacians."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    predict,
    propagation_operator,
    session_affinity,
)
from speakergraph.graph import ViewDistances, _identity_minus


def line_view(points):
    return EmbeddingView("voice", np.asarray(points, float)[:, None])


def random_view(rng, n, dim=3):
    return EmbeddingView("voice", rng.normal(size=(n, dim)))


class TestPairwiseDistances:
    def test_three_four_five(self):
        view = EmbeddingView("voice", [[0.0, 0.0], [3.0, 4.0]])
        assert pairwise_distances(view)[0, 1] == 5.0

    def test_identical_vectors(self):
        view = EmbeddingView("voice", [[1.0, 2.0], [1.0, 2.0]])
        assert pairwise_distances(view)[0, 1] == 0.0

    def test_session_matrix(self):
        sigma = 0.25
        w = session_affinity(["a", "a", "b"], sigma).w
        cross = np.exp(-1.0 / sigma ** 2)
        expected = np.array([[0, 1, cross], [1, 0, cross], [cross, cross, 0]])
        assert np.array_equal(w, expected)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        dist = pairwise_distances(random_view(rng, 12))
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diagonal(dist) == 0.0)

    def test_ragged_vectors_rejected(self):
        with pytest.raises(StructuralError):
            EmbeddingView("voice", [[1.0, 2.0], [1.0]])

    def test_single_node_rejected(self):
        with pytest.raises(StructuralError):
            EmbeddingView("voice", [[1.0, 2.0]])

    @pytest.mark.parametrize("vectors, message", [
        (np.zeros((3, 2, 2)), "vectors must share one dimension"),
        (np.zeros((3, 0)), "zero-dimensional vectors"),
        ([[1.0, np.inf], [0.0, 1.0]], "non-finite vector entries"),
        ([[np.nan, 0.0], [0.0, 1.0]], "non-finite vector entries"),
    ], ids=["3-d", "zero-width", "inf", "nan"])
    def test_malformed_vectors_rejected(self, vectors, message):
        with pytest.raises(StructuralError, match=f"view 'voice': {message}"):
            EmbeddingView("voice", vectors)


class TestKnnMeanDistance:
    def test_line_examples(self):
        distances = ViewDistances(line_view([0.0, 1.0, 3.0]))
        assert distances._knn_means(1).tolist() == [1.0, 1.0, 2.0]
        assert distances._knn_means(2)[2] == 2.5

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        distances = ViewDistances(random_view(rng, 9))
        dist = distances.dist
        for k in (1, 3, 8):
            means = distances._knn_means(k)
            for i in range(9):
                row = np.delete(dist[i], i)
                expected = np.sort(row)[:k].mean()
                assert means[i] == pytest.approx(expected)

    def test_k_out_of_range(self):
        distances = ViewDistances(line_view([0.0, 1.0, 3.0]), k_max=5)
        for k in (0, 3):
            with pytest.raises(ConfigurationError):
                distances._knn_means(k)

    def test_one_trimmed_sort_serves_every_k_bitwise(self):
        # each k's mean over the first k columns of one sort to the widest k
        # is bitwise the mean over a full sort of each row
        rng = np.random.default_rng(5)
        view = random_view(rng, 40)
        shared = ViewDistances(view, k_max=20)
        masked = pairwise_distances(view)
        np.fill_diagonal(masked, np.inf)
        full = np.sort(masked, axis=1)
        for k in (1, 2, 7, 13, 20):
            assert np.array_equal(shared._knn_means(k), full[:, :k].mean(axis=1))
        assert shared._nearest.shape == (40, 20)
        assert np.array_equal(shared._knn_means(39), full[:, :39].mean(axis=1))

    def test_duplicate_point_floors(self):
        # k=1 means are (0, 0, 1e-7): the pair bandwidth 5e-8 is used as given,
        # and the duplicate pair's zero bandwidth warns and weighs 1
        with pytest.warns(DegeneracyWarning, match="zero bandwidth"):
            w = affinity(line_view([0.0, 0.0, 1e-7]), LocalScaling(k=1, s=1.0))
        assert w.w[0, 2] == pytest.approx(np.exp(-(1e-7 / 5e-8) ** 2), rel=1e-12)
        assert w.w[0, 1] == 1.0


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

    def test_empty_matrices_rejected(self):
        with pytest.raises(StructuralError, match="empty"):
            AffinityMatrix(np.zeros((0, 0)))
        with pytest.raises(StructuralError, match="empty"):
            session_affinity([], 0.25)

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

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "3"])
    def test_local_k_must_be_an_integer(self, k):
        # k = 2.5 once ended evaluate_methods in a TypeError, even under allow_skip
        with pytest.raises(ConfigurationError, match="local k must be an integer >= 1"):
            LocalScaling(k=k, s=1.0)

    def test_local_k_may_be_a_numpy_integer(self):
        assert LocalScaling(k=np.int64(3), s=1.0).k == 3

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
        scaled_view = EmbeddingView(view.name, view.vectors * c)
        base = affinity(view, rule).w
        scaled = affinity(scaled_view, rule).w
        assert np.abs(base - scaled).max() < 1e-9
        # sanity: the universal-rule matrix must change, or this test has no power
        uni = UniversalScaling(1.0)
        assert np.abs(affinity(view, uni).w - affinity(scaled_view, uni).w).max() > 1e-3

    def test_overflowing_kernel_exponent_gives_zero_weights(self):
        # finite distances near 1e153 over sigma 0.01 square to inf, and
        # exp(-inf) = 0 is the right weight, reached without a warning
        view = EmbeddingView("voice", np.random.default_rng(3).normal(size=(6, 3)) * 1e153)
        assert np.isfinite(pairwise_distances(view)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = affinity(view, UniversalScaling(0.01)).w
        assert not w.any()

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


def reference_kernel(dist, sigma):
    """The kernel as first written: exp(-(d/sigma)^2) with the bandwidth as
    given (d/0 = inf weighs 0, a duplicate pair's 0/0 weighs 1), then the
    upper triangle mirrored into the lower one."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaled = np.where(dist == 0.0, 0.0, dist / sigma)
        w = np.exp(-scaled ** 2)
    upper = np.triu(w, 1)
    return upper + upper.T


@st.composite
def kernel_cases(draw):
    """A view of n in [2, 60] rows drawn from a smaller pool, so rows repeat,
    and a universal, cohort or local rule with its reference sigma."""
    n = draw(st.integers(2, 60))
    dim = draw(st.integers(1, 4))
    pool = draw(hnp.arrays(float, (draw(st.integers(1, n)), dim),
                           elements=st.floats(-5.0, 5.0)))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    view = EmbeddingView("voice", pool[rows])
    kind = draw(st.sampled_from(["universal", "cohort", "local"]))
    if kind == "local":
        rule = LocalScaling(k=draw(st.integers(1, n - 1)), s=draw(st.floats(0.1, 3.0)))
        means = ViewDistances(view, rule.k)._knn_means(rule.k)
        sigma = rule.s * (means[:, None] + means[None, :]) / 2.0
    else:
        sigma = draw(st.floats(1e-8, 10.0))
        rule = UniversalScaling(sigma) if kind == "universal" else CohortScaling({"g": sigma})
    return view, rule, sigma


SESSION_IDS = st.sampled_from(["a", "a\x00", "\x00", "", "b", "ab"]) | st.text(max_size=3)


class TestKernelMatchesReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kernel_cases())
    def test_kernel_bitwise_symmetric_zero_diagonal(self, case):
        view, rule, sigma = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            w = affinity(view, rule, cohort_id="g").w
        assert np.array_equal(w, reference_kernel(pairwise_distances(view), sigma))
        assert np.array_equal(w, w.T)
        assert np.all(np.diagonal(w) == 0.0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kernel_cases())
    def test_kernel_in_the_distance_buffer_is_bitwise_affinity(self, case):
        # rows repeat, so local scaling meets zero bandwidths: each block
        # takes its zero-distance mask before its kernel rows overwrite it
        view, rule, _ = case
        distances = ViewDistances(view, rule.k if isinstance(rule, LocalScaling) else 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            expected = affinity(view, rule, cohort_id="g").w
            w = distances._affinity(rule, "g", distances.dist)
        assert w is distances.dist
        assert w.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(SESSION_IDS, min_size=2, max_size=60), st.floats(0.05, 5.0))
    def test_session_matches_string_comparison(self, sessions, sigma):
        ids = np.asarray([str(s) for s in sessions], dtype=object)
        dist = (ids[:, None] != ids[None, :]).astype(float)
        assert np.array_equal(session_affinity(sessions, sigma).w,
                              reference_kernel(dist, sigma))

    def test_session_ids_differing_by_trailing_nul_stay_distinct(self):
        w = session_affinity(["a", "a\x00", "a"], 0.5).w
        assert w[0, 2] == 1.0
        assert w[0, 1] == w[1, 2] == np.exp(-4.0)


class TestNormalizedLaplacian:
    def test_two_node_graph(self):
        for weight in (0.3, 0.9):
            w = np.array([[0.0, weight], [weight, 0.0]])
            assert np.allclose(propagation_operator(w), [[0, 1], [1, 0]], atol=1e-15)
            assert np.allclose(normalized_laplacian(w), [[1, -1], [-1, 1]], atol=1e-15)

    def test_equal_weights_eigenvalues(self):
        lap = normalized_laplacian(np.full((3, 3), 0.4) - np.diag([0.4] * 3))
        eigs = np.sort(np.linalg.eigvalsh(lap))
        assert np.allclose(eigs, [0.0, 1.5, 1.5], atol=1e-12)

    def test_null_vector(self):
        rng = np.random.default_rng(5)
        w = affinity(random_view(rng, 8), UniversalScaling(1.0)).w
        lap = normalized_laplacian(w)
        sqrt_degrees = np.sqrt(w.sum(axis=1))
        assert np.abs(lap @ sqrt_degrees).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_complement_and_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        w = affinity(random_view(rng, 12), UniversalScaling(1.3)).w
        lap = normalized_laplacian(w)
        s = propagation_operator(w)
        assert np.abs((np.eye(12) - lap) - s).max() < 1e-12
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() > -1e-9 and eigs.max() < 2.0 + 1e-9

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(hnp.arrays(float, st.integers(1, 6).map(lambda n: (n, n)), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0]),
        st.floats(allow_nan=False))))
    @example(np.array([[1.0, -0.0], [0.0, -5e-324]]))
    def test_identity_minus_is_bitwise_eye_minus(self, m):
        expected = np.eye(m.shape[0]) - m
        out = _identity_minus(m)
        # compared as bits, so that -0 differs from +0
        assert out.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

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

    @pytest.mark.parametrize("function, array, message", [
        (predict, np.zeros(3), r"row of class scores per node, got shape \(3,\)"),
        (predict, np.zeros((2, 2, 2)), r"row of class scores per node, got shape \(2, 2, 2\)"),
        (predict, np.zeros((3, 0)), r"row of class scores per node, got shape \(3, 0\)"),
        (propagation_operator, np.ones((3, 4)), r"must be square, got \(3, 4\)"),
        (normalized_laplacian, np.ones(3), r"must be square, got \(3,\)"),
    ], ids=["predict-1d", "predict-3d", "predict-no-class", "operator-3x4", "laplacian-1d"])
    def test_public_array_functions_reject_a_wrong_shape(self, function, array, message):
        # each ended in a raw numpy error, or for 3-D scores in 2-D labels
        with pytest.raises(StructuralError, match=message):
            function(array)

    def test_non_finite_weights(self):
        # a NaN pair, as inf/inf gives a kernel where distances overflow
        w = np.ones((4, 4)) - np.eye(4)
        w[0, 2] = w[2, 0] = np.nan
        with pytest.raises(StructuralError, match="non-finite"):
            propagation_operator(w)
