"""Edge-pool and power-mean fusion."""

import functools
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from speakergraph.fusion import NEG_POWER_EIG_FLOOR

P_GRID = (-5.0, -2.0, -1.0, 1.0, 2.0, 5.0)


def random_affinity(rng, n):
    view = EmbeddingView("v", rng.normal(size=(n, 3)))
    return affinity(view, UniversalScaling(float(rng.uniform(0.5, 2.0))))


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
    def test_round_off_asymmetry_accepted_at_every_p(self, p):
        lap = self.random_laplacians(7, n=3, count=1)[0]
        lap[0, 2] = np.nextafter(lap[2, 0], 1.0)
        assert np.isfinite(pml_fuse([lap], p, shift=0.5)).all()

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
def laplacian_sets(draw):
    """1-3 normalized Laplacians of one random graph size n in [3, 20]."""
    n = draw(st.integers(3, 20))
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

    def test_indefinite_input_falls_back(self):
        # not PSD, so the Cholesky factorization fails and eigh floors the
        # negative eigenvalue instead
        lap = np.diag([-1.0, 2.0])
        fused, eigh_calls = fuse_counting_eigh([lap], -1.0, 0.5)
        assert eigh_calls == 1
        assert np.allclose(fused, np.diag([NEG_POWER_EIG_FLOOR, 2.5]))


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
