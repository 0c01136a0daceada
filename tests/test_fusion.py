"""Edge-pool and power-mean fusion."""

import functools
import math
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import lapack

from speakergraph import (
    AffinityMatrix,
    ConfigurationError,
    EdgePoolFusion,
    EmbeddingView,
    NumericalError,
    PowerMeanFusion,
    SingleView,
    StructuralError,
    UniversalScaling,
    affinity,
    edgepool_fuse,
    fuse,
    normalized_laplacian,
    pml_fuse,
    propagation_operator,
)
from speakergraph import fusion, graph
from speakergraph.fusion import NEG_POWER_EIG_FLOOR

P_GRID = (-5.0, -2.0, -1.0, 1.0, 2.0, 5.0)


def random_affinity(rng, n):
    view = EmbeddingView("v", rng.normal(size=(n, 3)))
    return affinity(view, UniversalScaling(float(rng.uniform(0.5, 2.0))))


def same_bits(a, b):
    """Equal values and sign bits, so that +0 and -0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def scalar_power_mean(columns, p):
    """Entrywise power mean of stacked eigenvalue vectors."""
    stack = np.stack(columns)
    return (np.mean(stack ** p, axis=0)) ** (1.0 / p)


class TestEdgePool:
    def test_single_matrix_is_identity(self):
        rng = np.random.default_rng(0)
        w = random_affinity(rng, 6).w
        assert np.array_equal(edgepool_fuse([w]), w)

    def test_elementwise_max_example(self):
        w1 = np.array([[0.0, 0.2], [0.2, 0.0]])
        w2 = np.array([[0.0, 0.9], [0.9, 0.0]])
        assert np.array_equal(edgepool_fuse([w1, w2]),
                              np.array([[0.0, 0.9], [0.9, 0.0]]))

    def test_session_constraint_dominates(self):
        voice = np.array([[0.0, 0.03], [0.03, 0.0]])
        session = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert edgepool_fuse([voice, session])[0, 1] == 1.0

    def test_size_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(StructuralError):
            edgepool_fuse([random_affinity(rng, 4).w, random_affinity(rng, 5).w])

    def test_empty_list(self):
        with pytest.raises(ConfigurationError):
            edgepool_fuse([])

    @pytest.mark.parametrize("seed", range(5))
    def test_algebra(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_affinity(rng, 8).w, random_affinity(rng, 8).w
        fused = edgepool_fuse([a, b])
        assert np.array_equal(edgepool_fuse([a, a]), a)              # idempotent
        assert np.array_equal(fused, edgepool_fuse([b, a]))          # commutative
        assert np.all(fused >= a) and np.all(fused >= b)             # monotone
        expected = np.maximum(a, b)
        assert np.array_equal(fused, expected)                       # exact max

    @pytest.mark.parametrize("views", [3, 4])
    def test_many_views_leave_inputs_unchanged(self, views):
        rng = np.random.default_rng(views)
        mats = [random_affinity(rng, 9).w for _ in range(views)]
        before = [m.copy() for m in mats]
        fused = edgepool_fuse(mats)
        assert np.array_equal(fused, functools.reduce(np.maximum, before))
        for m, original in zip(mats, before):
            assert np.array_equal(m, original)
            assert not np.shares_memory(fused, m)

    @pytest.mark.parametrize("shapes", [[(3, 3), (3,)], [(3, 3), (3, 4)], [(3, 4)], [(3,)],
                                        [(3, 3), (3, 3, 3)], [(3, 3), ()], [(4, 4), (3, 3)]])
    def test_every_input_must_be_a_square_matrix_of_one_size(self, shapes):
        # a vector used to broadcast across the rows, and a 3 x 4 matrix
        # ended in numpy's broadcast error
        with pytest.raises(StructuralError, match="must be square|size mismatch"):
            edgepool_fuse([np.zeros(shape) for shape in shapes])


class TestPowerMean:
    def random_laplacians(self, seed, n=8, count=2):
        rng = np.random.default_rng(seed)
        return [normalized_laplacian(random_affinity(rng, n).w) for _ in range(count)]

    @pytest.mark.parametrize("p", P_GRID)
    def test_single_view_identity(self, p):
        lap = self.random_laplacians(2, count=1)[0]
        fused = pml_fuse([lap], p, shift=0.0)
        assert np.abs(fused - lap).max() < 1e-8

    @pytest.mark.parametrize("count", (1, 2))
    @pytest.mark.parametrize("p", (-3.0, -0.5, 0.5, 2.0))
    def test_identity_inputs_any_power(self, p, count):
        eye = np.eye(4)
        assert np.allclose(pml_fuse([eye] * count, p), eye, atol=1e-12)

    @pytest.mark.parametrize("count", (1, 2))
    def test_invalid_inputs_rejected(self, count):
        # every input is checked alike, at every p
        with pytest.raises(NumericalError, match="non-integer power 0.5"):
            pml_fuse([np.diag([-1.0, 2.0])] * count, 0.5)
        for p in (1.0, -1.0, 2.0, -2.0):
            with pytest.raises(StructuralError, match="symmetric"):
                pml_fuse([np.array([[1.0, 0.1], [0.0, 1.0]])] * count, p)
            with pytest.raises(StructuralError, match="non-empty"):
                pml_fuse([np.zeros((0, 0))] * count, p)

    @pytest.mark.parametrize("p", (1.0, -1.0, 2.0, -2.0))
    @pytest.mark.parametrize("shape", ((3,), (3, 4), (2, 2, 2), ()))
    def test_non_square_input_rejected(self, p, shape):
        for laps in ([np.ones(shape)], [np.eye(3), np.ones(shape)]):
            with pytest.raises(StructuralError, match="square matrix"):
                pml_fuse(laps, p)

    @pytest.mark.parametrize("count", (1, 2, 3))
    def test_arithmetic_mean_rounds_as_a_sum(self, count):
        # p = 1 accumulates in its first input's copy from 0 + L_0, so a -0
        # entry shared by every input comes back +0, as sum() gives it
        laps = self.random_laplacians(3, count=count)
        for lap in laps:
            lap[0, 1] = lap[1, 0] = -0.0
        before = [lap.copy() for lap in laps]
        fused = pml_fuse(laps, 1.0, shift=0.25)
        shifted = [lap + 0.25 * np.eye(8) for lap in before]
        assert same_bits(fused, sum(shifted) / count)
        assert not np.signbit(fused[0, 1])
        assert all(same_bits(lap, original) for lap, original in zip(laps, before))

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("n", (40, 600))
    @pytest.mark.parametrize("order", "CF")
    def test_inf_norm_by_row_blocks_is_bitwise_one_pass(self, order, n, workers):
        m = np.asarray(np.random.default_rng(n).normal(size=(n, n)), order=order)
        with mock.patch.multiple(graph, _pool=None, _allowed_cpus=lambda: workers):
            try:
                norm = fusion._inf_norm(m)
            finally:
                if graph._pool is not None:
                    graph._pool.shutdown()
        assert norm == np.abs(m).sum(axis=1).max()

    @pytest.mark.parametrize("p", (1.0, -1.0, 2.0, -2.0))
    def test_round_off_asymmetry_accepted_at_every_p(self, p):
        lap = self.random_laplacians(7, n=3, count=1)[0]
        lap[0, 2] = np.nextafter(lap[2, 0], 1.0)
        fused = pml_fuse([lap], p, shift=0.5)
        assert np.isfinite(fused).all()
        # symmetrized once, at the boundary; every route keeps exact symmetry
        assert np.array_equal(fused, fused.T)

    def test_p_one_is_arithmetic_mean(self):
        laps = self.random_laplacians(3, count=3)
        fused = pml_fuse(laps, 1.0, shift=0.0)
        mean = sum(laps) / 3
        assert np.abs(fused - mean).max() < 1e-10

    def test_harmonic_mean_of_commuting_inputs(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 2.0])
        fused = pml_fuse([a, b], -1.0, shift=0.0)
        assert np.allclose(fused, np.diag([1.5, 2.0]), atol=1e-10)

    @pytest.mark.parametrize("p", (*P_GRID, 0.5, -0.5))
    def test_diagonal_inputs_match_scalar_power_mean(self, p):
        d1 = np.array([0.3, 1.0, 2.0])
        d2 = np.array([0.8, 0.4, 1.7])
        fused = pml_fuse([np.diag(d1), np.diag(d2)], p, shift=0.0)
        expected = np.diag(scalar_power_mean([d1, d2], p))
        assert np.abs(fused - expected).max() < 1e-8

    @pytest.mark.parametrize("p", P_GRID)
    def test_symmetric_and_near_psd(self, p):
        laps = self.random_laplacians(4)
        shift = math.log1p(abs(p)) if p < 0 else 0.0
        fused = pml_fuse(laps, p, shift=shift)
        assert np.abs(fused - fused.T).max() < 1e-10
        assert np.linalg.eigvalsh(fused).min() >= -1e-8

    def test_power_ordering_on_diagonals(self):
        d1 = np.array([0.2, 1.1, 2.0])
        d2 = np.array([0.9, 0.5, 1.4])
        laps = [np.diag(d1), np.diag(d2)]
        spectra = []
        for p in (-5.0, -1.0, 1.0, 5.0):
            spectra.append(np.sort(np.diagonal(pml_fuse(laps, p, shift=0.0))))
        for low, high in zip(spectra, spectra[1:]):
            assert np.all(low <= high + 1e-10)

    def test_p_zero_rejected(self):
        laps = self.random_laplacians(5)
        with pytest.raises(ConfigurationError):
            pml_fuse(laps, 0.0)

    @pytest.mark.parametrize("p, shift, message", [
        (math.nan, 0.5, "p must be finite and nonzero"),
        (math.inf, 0.5, "p must be finite and nonzero"),
        (-math.inf, 0.5, "p must be finite and nonzero"),
        (-1.0, math.nan, "shift must be finite and >= 0"),
        (-1.0, math.inf, "shift must be finite and >= 0"),
    ])
    def test_non_finite_p_or_shift_rejected(self, p, shift, message):
        # p = nan once ended in a ValueError and p = +-inf in an OverflowError,
        # both from int(q) in the eigendecomposition route
        with pytest.raises(ConfigurationError, match=message):
            pml_fuse(self.random_laplacians(5), p, shift)
        with pytest.raises(ConfigurationError, match=message):
            PowerMeanFusion(("a",), p=p, shift=shift)

    def test_size_mismatch(self):
        a = self.random_laplacians(6, n=5, count=1)[0]
        b = self.random_laplacians(6, n=6, count=1)[0]
        with pytest.raises(StructuralError):
            pml_fuse([a, b], 1.0)

    def test_non_finite_result_rejected(self):
        with pytest.raises(NumericalError, match="non-finite"):
            pml_fuse([np.diag([np.inf, 1.0])], 1.0)

    def test_rule_validation(self):
        with pytest.raises(ConfigurationError):
            PowerMeanFusion(("a",), p=0.0)
        with pytest.raises(ConfigurationError):
            PowerMeanFusion(("a",), p=-1.0, shift=0.0)
        with pytest.raises(ConfigurationError):
            PowerMeanFusion((), p=1.0)
        assert PowerMeanFusion(("a",), p=-2.0).effective_shift == pytest.approx(math.log(3.0))
        assert PowerMeanFusion(("a",), p=2.0).effective_shift == 0.0
        assert PowerMeanFusion(("a",), p=-2.0, shift=0.7).effective_shift == 0.7


class TestFuseAndSubgraph:
    def build(self, rule, seed=0, n=10):
        rng = np.random.default_rng(seed)
        affs = {
            "voice": random_affinity(rng, n),
            "face": random_affinity(rng, n),
        }
        return affs, fuse(affs, rule)

    def test_single_view(self):
        affs, fused = self.build(SingleView("voice"))
        assert np.array_equal(fused.propagation_matrix(),
                              propagation_operator(affs["voice"].w))

    def test_edge_pool(self):
        affs, fused = self.build(EdgePoolFusion(("voice", "face")))
        pooled = np.maximum(affs["voice"].w, affs["face"].w)
        assert np.array_equal(fused.propagation_matrix(), propagation_operator(pooled))

    def test_power_mean_kind(self):
        affs, fused = self.build(PowerMeanFusion(("voice", "face"), p=1.0))
        lap = pml_fuse([normalized_laplacian(affs["voice"].w),
                        normalized_laplacian(affs["face"].w)], 1.0, 0.0)
        s = fused.propagation_matrix()
        assert np.abs(s - (np.eye(10) - lap)).max() == 0.0

    def test_unknown_view(self):
        with pytest.raises(ConfigurationError):
            self.build(SingleView("nope"))

    @pytest.mark.parametrize("rule", [
        SingleView("voice"), EdgePoolFusion(("voice", "face")),
        EdgePoolFusion(("face", "voice", "face")), PowerMeanFusion(("voice", "face"), p=1.0),
        PowerMeanFusion(("voice", "face"), p=-1.0), PowerMeanFusion(("voice", "face"), p=2.0)],
        ids=["single", "pool", "pool-3", "p=1", "p=-1", "p=2"])
    def test_inputs_are_left_unchanged(self, rule):
        affs, fused = self.build(rule, seed=4)
        fused.propagation_matrix()
        fused.subgraph(6).system(0.9).solve(np.eye(6, 2))
        fused.system(0.9).solve(np.eye(10, 2))
        fresh, _ = self.build(SingleView("voice"), seed=4)
        for name in affs:
            assert np.array_equal(affs[name].w, fresh[name].w)

    @pytest.mark.parametrize("rule", [EdgePoolFusion, lambda views: PowerMeanFusion(views, p=1.0)],
                             ids=["edge-pool", "power-mean"])
    def test_a_string_of_view_names_is_rejected(self, rule):
        # its letters were the view names: "voice" named views v, o, i, c and e
        with pytest.raises(ConfigurationError, match="a sequence of view names, got 'voice'"):
            rule("voice")
        assert rule(["voice"]).view_names == ("voice",)

    @staticmethod
    def fused_leading_blocks(affs, rule, m):
        """fuse of C-contiguous copies of every view's leading m x m block."""
        blocks = {name: AffinityMatrix(np.ascontiguousarray(a.w[:m, :m]))
                  for name, a in affs.items()}
        return fuse(blocks, rule)

    def test_subgraph_refuses_from_views(self):
        rule = PowerMeanFusion(("voice", "face"), p=2.0)
        affs, fused = self.build(rule, n=9)
        sub = fused.subgraph(6).propagation_matrix()
        assert np.array_equal(sub, self.fused_leading_blocks(affs, rule, 6).propagation_matrix())
        direct = pml_fuse(
            [normalized_laplacian(affs["voice"].w[:6, :6]),
             normalized_laplacian(affs["face"].w[:6, :6])], 2.0, 0.0)
        assert np.abs(sub - (np.eye(6) - direct)).max() < 1e-12

    @pytest.mark.parametrize("rule", [SingleView("voice"), EdgePoolFusion(("voice", "face")),
                                      PowerMeanFusion(("voice", "face"), p=2.0)])
    def test_core_slice_equals_fused_leading_blocks(self, rule):
        # m = 257 rows cross numpy's 128-element pairwise-summation block, so
        # degree sums over a strided view must add in a contiguous copy's order
        affs, fused = self.build(rule, n=300)
        core = fused.subgraph(257)
        copies = self.fused_leading_blocks(affs, rule, 257)
        assert np.array_equal(core.propagation_matrix(), copies.propagation_matrix())
        # pooling rules keep the pooled matrix; a power mean keeps every view's
        views = len(rule.view_names) if isinstance(rule, PowerMeanFusion) else 1
        assert len(core.weights) == len(copies.weights) == len(fused.weights) == views
        for view, copy, parent in zip(core.weights, copies.weights, fused.weights):
            assert np.array_equal(view, copy)
            assert np.shares_memory(view, parent)
            assert not np.shares_memory(copy, parent)

    def test_affinity_subgraph_is_submatrix(self):
        rule = EdgePoolFusion(("voice", "face"))
        affs, fused = self.build(rule, n=9)
        sub = fused.subgraph(4).propagation_matrix()
        assert np.array_equal(sub, self.fused_leading_blocks(affs, rule, 4).propagation_matrix())
        pooled = np.maximum(affs["voice"].w, affs["face"].w)[:4, :4]
        assert np.array_equal(sub, propagation_operator(pooled))

    def test_edge_pool_keeps_only_the_pooled_weights(self):
        rng = np.random.default_rng(1)
        affs = {name: random_affinity(rng, 12) for name in ("voice", "face", "session")}
        views = [weakref.ref(a.w) for a in affs.values()]
        pooled = np.maximum(np.maximum(affs["voice"].w, affs["face"].w), affs["session"].w)
        fused = fuse(affs, EdgePoolFusion(tuple(affs)))
        del affs
        assert all(view() is None for view in views)
        assert len(fused.weights) == 1
        assert np.array_equal(fused.weights[0], pooled)

    @pytest.mark.parametrize("rule", [
        EdgePoolFusion(("voice", "face")), PowerMeanFusion(("voice", "face"), p=1.0),
        PowerMeanFusion(("voice", "face"), p=-1.0), PowerMeanFusion(("voice", "face"), p=2.0)])
    def test_views_of_different_sizes_raise(self, rule):
        # a power mean ended in numpy's broadcast ValueError at p = 1 and 2,
        # and at p = -1 built a graph from factors of two sizes
        rng = np.random.default_rng(0)
        affs = {"voice": random_affinity(rng, 5), "face": random_affinity(rng, 6)}
        with pytest.raises(StructuralError, match=r"affinity size mismatch: 6 != 5"):
            fuse(affs, rule)


class TestOperatorFromWeights:
    """Single-view and edge-pool graphs keep W and d = D^{-1/2}, not S:
    propagation_matrix() builds S once, on request, and factor(alpha) forms
    I - alpha*S from W and d, bitwise as from S given as the operator."""

    RULES = [SingleView("voice"), EdgePoolFusion(("voice", "face"))]

    @staticmethod
    def build(rule, n=40):
        rng = np.random.default_rng(n)
        affs = {"voice": random_affinity(rng, n), "face": random_affinity(rng, n)}
        return edgepool_fuse([affs[name].w for name in rule.view_names]), fuse(affs, rule)

    @pytest.mark.parametrize("rule", RULES)
    def test_no_operator_until_asked(self, rule):
        pooled, fused = self.build(rule)
        assert fused.operator is None and not fused.harmonic
        assert np.array_equal(fused.inv_sqrt_degrees, 1.0 / np.sqrt(pooled.sum(axis=1)))
        s = fused.propagation_matrix()
        assert same_bits(s, propagation_operator(pooled))
        assert fused.propagation_matrix() is s

    def test_a_graph_without_operator_factors_or_degrees_is_rejected(self):
        # without either it would factor I - alpha*W, W taken for S
        pooled, _ = self.build(SingleView("voice"))
        with pytest.raises(StructuralError, match="needs an operator, factors or "
                                                  "inv_sqrt_degrees"):
            fusion.FusedGraph(rule=SingleView("voice"), weights=(pooled,))

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("size", [40, 29])
    def test_factor_equals_explicit_operator(self, rule, size):
        # size 29 is step 1's subgraph, with its own degrees
        _, fused = self.build(rule)
        fused = fused.subgraph(size) if size < fused.node_count else fused
        explicit = replace(fused, operator=propagation_operator(fused.weights[0]))
        for alpha in (0.5, 0.9, 0.99):
            (got, info), (expected, expected_info) = (fused.system(alpha).factor(),
                                                       explicit.system(alpha).factor())
            assert info == expected_info == 0
            assert same_bits(got, expected)
        assert "_built_s" not in vars(fused)

    @pytest.mark.parametrize("rule", RULES + [PowerMeanFusion(("voice", "face"), p=1.0)])
    def test_explicit_operator_fill_is_operator_times_minus_alpha_plus_identity(self, rule):
        # a graph without d fills A in one pass per block, bitwise (1 * 1) m = m
        _, fused = self.build(rule)
        if fused.operator is None:
            fused = replace(fused, operator=propagation_operator(fused.weights[0]),
                            inv_sqrt_degrees=None)
        operator = fused.operator.copy()
        for alpha in (0.5, 0.9, 0.99):
            expected = operator * -alpha
            expected.flat[::fused.node_count + 1] += 1.0
            assert same_bits(fused.system(alpha).fill(), expected)
            assert same_bits(fused.system(alpha).factor()[0],
                             fused.system(alpha).factor(expected, filled=True)[0])
        assert same_bits(fused.operator, operator)

    def test_h_route_fill_is_h_times_one_minus_alpha_plus_alpha(self):
        rng = np.random.default_rng(3)
        affs = {"voice": random_affinity(rng, 40), "face": random_affinity(rng, 40)}
        fused = fuse(affs, PowerMeanFusion(("voice", "face"), p=-1.0))
        system = fused.system(0.9, (0.5, 0.99))  # more CG steps than the cap
        assert fused.harmonic and not system.cg
        expected = fused._mean_inverse * (1.0 - 0.9)
        expected.flat[::41] += 0.9
        assert same_bits(system.fill(), expected)

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("value, error, message", [
        (0.0, StructuralError, "node 3 has zero degree"),
        (1e-320, NumericalError, "node 3 has subnormal degree"),
    ])
    def test_degree_errors_raise_when_fused(self, rule, value, error, message):
        w = 0.5 - 0.5 * np.eye(6)
        w[3, :] = w[:, 3] = 0.0
        w[3, 5] = w[5, 3] = value
        affs = {"voice": AffinityMatrix(w), "face": AffinityMatrix(w.copy())}
        with mock.patch.object(fusion, "_potrf", side_effect=AssertionError("factored")), \
                pytest.raises(error, match=message):
            fuse(affs, rule)



# ---------------------------------------------------------------------------
# Closed forms for p = +-1 against the floored eigendecomposition
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)
# Shifts near NEG_POWER_EIG_FLOOR are where the p = -1 closed form must
# hand over to the floored eigendecomposition.
SHIFTS = st.floats(0.0, 5.0) | st.floats(0.0, 1e-7)
# Absent edges plus weights far enough from underflow that degrees stay normal.
WEIGHTS = st.just(0.0) | st.floats(1e-3, 1.0)


@st.composite
def laplacian_sets(draw, min_n=3, max_n=20):
    """1-3 normalized Laplacians of one random graph size n in [min_n, max_n]."""
    n = draw(st.integers(min_n, max_n))
    laps = []
    for _ in range(draw(st.integers(1, 3))):
        upper = np.triu(draw(hnp.arrays(float, (n, n), elements=WEIGHTS)), 1)
        w = upper + upper.T
        # link each isolated node to its successor so every degree is positive
        lonely = np.flatnonzero(w.sum(axis=1) == 0.0)
        w[lonely, (lonely + 1) % n] = w[(lonely + 1) % n, lonely] = 1.0
        laps.append(normalized_laplacian(AffinityMatrix(w).w))
    return laps


# The normalized Laplacian of the 3-node path graph.
PATH_LAPLACIAN = normalized_laplacian(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))


def floored_reference(laps, p, shift):
    """The power mean through floored numpy eigendecompositions only."""
    def floor(q):
        return 0.0 if q > 0 else NEG_POWER_EIG_FLOOR

    def power(m, q):
        vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
        return vecs, np.maximum(vals, floor(q)) ** q

    shifted = [lap + shift * np.eye(lap.shape[0]) for lap in laps]
    if len(shifted) == 1:
        vecs, powered = power(shifted[0], p)
        fused = (vecs * np.maximum(powered, floor(1.0 / p)) ** (1.0 / p)) @ vecs.T
    else:
        acc = np.zeros_like(shifted[0])
        for m in shifted:
            vecs, powered = power(m, p)
            out = (vecs * powered) @ vecs.T
            acc += (out + out.T) / 2.0
        vecs, root = power(acc / len(shifted), 1.0 / p)
        fused = (vecs * root) @ vecs.T
    return (fused + fused.T) / 2.0


def floored_range(laps, p, shift):
    """Smallest floored and largest eigenvalue of the shifted inputs."""
    spectra = [np.linalg.eigvalsh(lap + shift * np.eye(lap.shape[0])) for lap in laps]
    floor = 0.0 if p > 0 else NEG_POWER_EIG_FLOOR
    return (max(min(vals.min() for vals in spectra), floor),
            max(vals.max() for vals in spectra))


def upper_triangle_mean_of_inverses(mats):
    """H = mean_v M_v^{-1} summed from the upper triangles that dpotri fills
    and mirrored once, with each inverse's infinity norm read from its upper
    triangle: the earlier route, which fusion._mean_of_inverses must equal bit
    for bit, or None where its floor proofs fail."""
    acc = np.zeros_like(mats[0])
    bound = 0.0
    for m in mats:
        factor, info = lapack.dpotrf(m)
        if info != 0:
            return None
        inv, info = lapack.dpotri(factor, overwrite_c=True)
        if info != 0:
            return None
        mags = np.abs(inv)
        if not (mags.sum(axis=1) + mags.sum(axis=0) - mags.diagonal()).max() \
                <= 1.0 / NEG_POWER_EIG_FLOOR:
            return None
        acc += inv
        bound += 1.0 / np.abs(m).sum(axis=1).max()
    if not bound / len(mats) >= NEG_POWER_EIG_FLOOR:
        return None
    acc += np.triu(acc, 1).T
    acc /= len(mats)
    return acc


def mpmath_power_mean(laps, p, shift):
    """The power mean of the shifted Laplacians by 50-digit mpmath
    eigendecompositions, rounded to floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        def power(m, q):
            vals, vecs = mpmath.eigsy(m)
            return vecs * mpmath.diag([v ** q for v in vals]) * vecs.T

        n = laps[0].shape[0]
        powers = [power(mpmath.matrix(lap.tolist()) + shift * mpmath.eye(n), p)
                  for lap in laps]
        mean = sum(powers[1:], powers[0]) / len(powers)
        return np.array(power(mean, 1 / mpmath.mpf(p)).tolist(), dtype=float)


def fuse_counting_eigh(laps, p, shift):
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        fused = pml_fuse(laps, p, shift)
    return fused, eigh.call_count


def routes_agree(err, shift):
    # Both routes carry a forward error of order eps * cond(L_v + shift*I),
    # and a normalized Laplacian's spectrum lies in [0, 2]: err must stay below
    # max(1e-10, 100 * eps * (2 + shift) / shift), the flat 1e-10 from shift
    # ~1e-3 up. Multiplied out, because that quotient overflows at a subnormal shift.
    if shift == 0.0:
        return err < 1e-10
    return err < 1e-10 or err * shift < 100 * np.finfo(float).eps * (2.0 + shift)


class TestClosedForms:
    @PROPERTY
    @given(laps=laplacian_sets(), shift=SHIFTS)
    def test_arithmetic_mean_needs_no_decomposition(self, laps, shift):
        fused, eigh_calls = fuse_counting_eigh(laps, 1.0, shift)
        assert eigh_calls == 0
        assert np.abs(fused - floored_reference(laps, 1.0, shift)).max() < 1e-10

    @PROPERTY
    @given(laps=laplacian_sets(), shift=SHIFTS)
    @example(laps=[PATH_LAPLACIAN], shift=5e-324)
    def test_harmonic_mean_matches_floored_reference(self, laps, shift):
        fused, eigh_calls = fuse_counting_eigh(laps, -1.0, shift)
        if shift >= 1e-6:
            # every eigenvalue of L_v + shift*I is >= shift, so the
            # Cholesky inverses' infinity norms stay below sqrt(n)/shift
            assert eigh_calls == 0
        reference = floored_reference(laps, -1.0, shift)
        assert routes_agree(np.abs(fused - reference).max(), shift)

    @PROPERTY
    @given(laps=laplacian_sets(),
           shift=st.just(0.0) | st.floats(0.0, NEG_POWER_EIG_FLOOR / 2))
    def test_binding_floor_keeps_floored_result(self, laps, shift):
        smallest = min(np.linalg.eigvalsh(lap + shift * np.eye(lap.shape[0])).min()
                       for lap in laps)
        assume(smallest < NEG_POWER_EIG_FLOOR / 2)
        fused, eigh_calls = fuse_counting_eigh(laps, -1.0, shift)
        assert eigh_calls > 0
        assert np.array_equal(fused, floored_reference(laps, -1.0, shift))

    def test_floor_binding_on_the_mean_hands_over(self):
        # at shift 1e9 every view's inverse passes its proof, but H = mean_v
        # (L_v + shift*I)^{-1} has eigenvalues near 1e-9, below the floor: the
        # eigendecomposition route floors them and rejects the root of 1e8
        # against inputs near 1e9
        rng = np.random.default_rng(9)
        affs = {"voice": random_affinity(rng, 8), "face": random_affinity(rng, 8)}
        laps = [normalized_laplacian(a.w) for a in affs.values()]
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                mock.patch.object(lapack, "dpotri", wraps=lapack.dpotri) as dpotri:
            with pytest.raises(NumericalError, match="outside its inputs' range"):
                pml_fuse(laps, -1.0, 1e9)
            assert dpotri.call_count == 2 and eigh.call_count > 0
            with pytest.raises(NumericalError, match="outside its inputs' range"):
                fuse(affs, PowerMeanFusion(("voice", "face"), p=-1.0, shift=1e9))

    def test_loose_weyl_bound_hands_over(self):
        # H = diag(0.5 + 5e-10, 0.5 + 5e-10) is far above the floor, but the
        # bound mean_v 1/||M_v||_inf = 1e-9 cannot prove it
        laps = [np.diag([1e9, 1.0]), np.diag([1.0, 1e9])]
        fused, eigh_calls = fuse_counting_eigh(laps, -1.0, 0.0)
        assert eigh_calls > 0
        assert np.array_equal(fused, floored_reference(laps, -1.0, 0.0))
        assert np.allclose(fused, np.diag([2.0, 2.0]) / (1.0 + 1e-9), rtol=1e-12, atol=0)

    @PROPERTY
    @given(laps=laplacian_sets(), shift=SHIFTS)
    def test_mean_of_inverses_equals_the_upper_triangle_route(self, laps, shift):
        shifted = [lap + shift * np.eye(lap.shape[0]) for lap in laps]
        expected = upper_triangle_mean_of_inverses([m.copy() for m in shifted])
        h = fusion._mean_of_inverses(shifted)
        assert (h is None) == (expected is None)
        if h is not None:
            assert h.flags.c_contiguous
            assert same_bits(h, expected)

    def test_indefinite_input_falls_back(self):
        # not PSD, so the Cholesky factorization fails and eigh floors the
        # negative eigenvalue instead
        lap = np.diag([-1.0, 2.0])
        fused, eigh_calls = fuse_counting_eigh([lap], -1.0, 0.5)
        assert eigh_calls == 1
        assert np.allclose(fused, np.diag([NEG_POWER_EIG_FLOOR, 2.5]))


class TestHarmonicFactors:
    """A fused p = -1 graph proves its floor without an inverse: shift minus
    a rounding bound on the computed Laplacian reaches NEG_POWER_EIG_FLOOR,
    and each view's dpotrf succeeds."""

    def test_floor_proof_boundary(self):
        rng = np.random.default_rng(11)
        weights = [random_affinity(rng, 12).w for _ in range(2)]
        laps = [normalized_laplacian(w) for w in weights]
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                mock.patch.object(fusion, "_potrf", wraps=fusion._potrf) as dpotrf:
            floored = fusion._fuse_weights(weights, PowerMeanFusion(("a", "b"), -1.0, 1e-9))
        # at shift 1e-9 the proof fails before any factorization, and the
        # floored eigendecomposition route runs, as in pml_fuse
        assert not floored.harmonic and eigh.call_count > 0 and dpotrf.call_count == 0
        assert same_bits(floored.operator, np.eye(12) - pml_fuse(laps, -1.0, 1e-9))
        harmonic = fusion._fuse_weights(weights, PowerMeanFusion(("a", "b"), -1.0, 1e-3))
        assert harmonic.harmonic and harmonic.operator is None
        for lap, factor in zip(laps, harmonic.factors):
            shifted = lap + 1e-3 * np.eye(12)
            upper = np.triu(factor)
            assert np.abs(upper.T @ upper - shifted).max() < 1e-14
            assert np.array_equal(np.tril(factor, -1), np.tril(shifted, -1))
        # the rounding bound (n + 8)(1 + shift) eps is 4.4e-15 at n = 12
        assert fusion._harmonic_factors(weights, NEG_POWER_EIG_FLOOR) is None
        assert fusion._harmonic_factors(weights, NEG_POWER_EIG_FLOOR + 5e-15) is not None

    def test_fused_graph_and_pml_fuse_split_inside_the_band(self):
        # Between 1e-8 + delta and the inverse-norm proof's threshold (1.34e-8
        # on these graphs) a fused graph is harmonic, while pml_fuse's proof
        # reads each inverse's norm, fails and takes the floored
        # eigendecomposition. The floor binds on neither, so the two agree to
        # their round-off, about eps * cond(L_v + shift*I) = 4e-8.
        rng = np.random.default_rng(11)
        weights = [random_affinity(rng, 12).w for _ in range(2)]
        laps = [normalized_laplacian(w) for w in weights]
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            graph = fusion._fuse_weights(weights, PowerMeanFusion(("a", "b"), -1.0, 1.2e-8))
            assert graph.harmonic and eigh.call_count == 0
            floored = pml_fuse(laps, -1.0, 1.2e-8)
            assert eigh.call_count > 0
        assert np.abs(graph.propagation_matrix() - (np.eye(12) - floored)).max() < 1e-7


class TestEigenRoute:
    @PROPERTY
    @given(laps=laplacian_sets(), shift=st.just(0.0) | SHIFTS)
    def test_matches_floored_reference(self, laps, shift):
        for p in P_GRID:
            if p == 1.0:
                continue
            try:
                fused, eigh_calls = fuse_counting_eigh(laps, p, shift)
            except NumericalError:
                continue  # TestSpectralBound checks that a raise is due
            if eigh_calls:
                assert np.array_equal(fused, floored_reference(laps, p, shift))

    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0, 5.0, 7.0))
    def test_null_eigenvalue_at_shift_0_is_rounded_off_to_the_power_1_over_p(self, p):
        # the null eigenvalue of the mean of powers is round-off of about
        # n*eps*lambda_max^p; its p-th root is left as it is, not snapped to 0
        lap = normalized_laplacian(np.ones((3, 3)) - np.eye(3))
        top = np.linalg.eigvalsh(lap).max()
        least = np.linalg.eigvalsh(pml_fuse([lap, lap], p)).min()
        assert abs(least) <= (3 * np.finfo(float).eps) ** (1.0 / p) * top


class TestMpmathReference:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(laps=laplacian_sets(2, 6), p=st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0)),
           shift=st.floats(0.1, 5.0))
    def test_agrees_to_a_relative_1e_10(self, laps, p, shift):
        reference = mpmath_power_mean(laps, p, shift)
        try:
            fused = pml_fuse(laps, p, shift)
        except NumericalError:
            return  # TestSpectralBound checks that a raise is due
        assert np.abs(fused - reference).max() <= 1e-10 * np.abs(reference).max()


class TestSpectralBound:
    @PROPERTY
    @given(laps=laplacian_sets(), shift=st.just(0.0) | SHIFTS)
    def test_power_mean_spectrum_within_shifted_inputs(self, laps, shift):
        # A matrix power mean stays inside its inputs' spectral bounds, and
        # each L_v + shift*I has its spectrum in [shift, 2 + shift], so
        # I - alpha*S = (1 - alpha)*I + alpha*L_p is positive definite. The
        # eigendecomposition route raises where round-off leaves the bounds,
        # as at p = -2 and tiny shifts, where the floored null space
        # dominates the mean; p in {1, -1, 2} stays inside on these inputs.
        for p in (1.0, -1.0, 2.0, -2.0, 5.0, -5.0):
            low, high = floored_range(laps, p, shift)
            try:
                fused = pml_fuse(laps, p, shift)
            except NumericalError:
                assert p not in (1.0, -1.0, 2.0)
                continue
            # pml_fuse allows 1e-6 * high and the final product adds round-off
            tolerance = 2e-6 * high
            eigenvalues = np.linalg.eigvalsh(fused)
            assert eigenvalues.min() >= low - tolerance
            assert eigenvalues.max() <= high + tolerance

    def test_round_off_past_the_range_raises(self):
        # at shift 1e-8 the inverse squares reach 1e16, and the eigenvalues
        # of their mean that the root maps to the top of the range drown in
        # round-off: unchecked, the root's top eigenvalue is 3.9 here, above
        # both inputs' 1.49
        rng = np.random.default_rng(0)
        laps = [normalized_laplacian(random_affinity(rng, 8).w) for _ in range(2)]
        with pytest.raises(NumericalError, match=r"p=-2\.0 .* outside its inputs' range"):
            pml_fuse(laps, -2.0, 1e-8)

    def test_round_off_below_zero_in_the_mean_is_not_blamed_on_the_power(self):
        # For [L, L] on the 3-node complete graph at shift 1e-8 the inverse
        # squares span 1.5^-2 to 1e16, and eigh returns -1.19 as an eigenvalue
        # of their mean, which is positive definite in exact arithmetic. The
        # mean's decomposition once rejected it as a negative eigenvalue "with
        # non-integer power -0.5"; the range check reports it instead.
        lap = normalized_laplacian(AffinityMatrix(np.ones((3, 3)) - np.eye(3)).w)
        with pytest.raises(NumericalError, match=r"p=-2\.0 .* outside its inputs' range "
                                                 r".*larger shift") as exc:
            pml_fuse([lap, lap], -2.0, 1e-8)
        assert "non-integer" not in str(exc.value)

    def test_shift_hint_points_the_right_way(self):
        rng = np.random.default_rng(0)
        laps = [normalized_laplacian(random_affinity(rng, 8).w) for _ in range(2)]
        # at shift 1e9 every power of the mean of the inverses is about 1e-9,
        # so the floor binds on all of them: the shift is too large
        with pytest.raises(NumericalError, match=r"p=-1\.0 .* outside its inputs' range "
                                                 r".*; use a smaller shift$"):
            pml_fuse(laps, -1.0, 1e9)
        # at shift 1e-8 round-off drowns the mean's small eigenvalues
        with pytest.raises(NumericalError, match=r"p=-2\.0 .* outside its inputs' range "
                                                 r".*; use a larger shift$"):
            pml_fuse(laps, -2.0, 1e-8)

    def test_ill_conditioned_mean_inside_the_range_raises(self):
        # The 3-node complete graph's Laplacian L has eigenvalues 0, 1.5, 1.5,
        # so the mean of [L, L] is L + shift*I. At p = -5 and shift 0.01 the
        # powers span 0.13 to 1e10, and the root's 1.51 came out as 1.50999752,
        # inside the range, with no error.
        lap = normalized_laplacian(AffinityMatrix(np.ones((3, 3)) - np.eye(3)).w)
        with pytest.raises(NumericalError, match=r"p=-5\.0 is ill-conditioned .*larger shift"):
            pml_fuse([lap, lap], -5.0, 0.01)
        # the default shift, log 6, leaves the mean well conditioned
        fused = pml_fuse([lap, lap], -5.0, math.log(6.0))
        assert np.abs(fused - (lap + math.log(6.0) * np.eye(3))).max() < 1e-12


class TestPotrf:
    """fusion._potrf, the package's one Cholesky factorization, calls LAPACK's
    dpotrf without the GIL and must leave exactly what scipy's wrapper leaves."""

    @staticmethod
    def wrapper(m):
        factor, info = lapack.dpotrf(m.copy().T, overwrite_a=True, clean=False)
        return factor, info

    @pytest.mark.parametrize("n", [1, 2, 37, 368])
    def test_positive_definite_bitwise(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, n))
        m = x @ x.T / n + 0.1 * np.eye(n)
        m = (m + m.T) / 2.0
        expected, expected_info = self.wrapper(m)
        a = m.copy()
        assert fusion._potrf(a) == expected_info == 0
        assert same_bits(a.T, expected)
        # the strict lower triangle of the factor is the input's, as with clean=False
        assert same_bits(np.tril(a.T, -1), np.tril(m, -1))

    @pytest.mark.parametrize("m, info", [
        (np.array([[-2.0]]), 1),
        (np.array([[0.0]]), 1),
        (np.diag([1.0, -1.0, 2.0]), 2),
        (np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 3.0], [0.0, 3.0, 5.0]]), 2),
        (np.eye(5) - 0.9 * (np.ones((5, 5)) - np.eye(5)) * 2.0, 2),
    ])
    def test_not_positive_definite_bitwise(self, m, info):
        expected, expected_info = self.wrapper(m)
        a = m.copy()
        assert fusion._potrf(a) == expected_info == info
        assert same_bits(a.T, expected)

    @pytest.mark.parametrize("a", [np.eye(3, dtype=np.float32), np.asfortranarray(
        np.eye(3) + np.tri(3, k=-1)), np.eye(3)[:, :2], np.eye(4)[::2, ::2]])
    def test_rejects_what_lapack_would_misread(self, a):
        with pytest.raises(ValueError, match="square C-ordered float64"):
            fusion._potrf(a)
