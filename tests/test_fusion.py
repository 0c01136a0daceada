"""Edge-pool and power-mean fusion."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    sym_matrix_power,
)
from speakergraph.graph import NEG_POWER_EIG_FLOOR

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


class TestPowerMean:
    def random_laplacians(self, seed, n=8, count=2):
        rng = np.random.default_rng(seed)
        return [normalized_laplacian(random_affinity(rng, n).w) for _ in range(count)]

    @pytest.mark.parametrize("p", P_GRID)
    def test_single_view_identity(self, p):
        lap = self.random_laplacians(2, count=1)[0]
        fused = pml_fuse([lap], p, shift=0.0)
        assert np.abs(fused - lap).max() < 1e-8

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

    @pytest.mark.parametrize("p", P_GRID)
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
    def fused_submatrices(affs, rule, idx):
        subs = {name: AffinityMatrix(a.w[np.ix_(idx, idx)]) for name, a in affs.items()}
        return fuse(subs, rule).propagation_matrix()

    def test_subgraph_refuses_from_views(self):
        rule = PowerMeanFusion(("voice", "face"), p=2.0)
        affs, fused = self.build(rule, n=9)
        idx = np.arange(6)
        sub = fused.subgraph(idx).propagation_matrix()
        assert np.array_equal(sub, self.fused_submatrices(affs, rule, idx))
        direct = pml_fuse(
            [normalized_laplacian(affs["voice"].w[np.ix_(idx, idx)]),
             normalized_laplacian(affs["face"].w[np.ix_(idx, idx)])], 2.0, 0.0)
        assert np.abs(sub - (np.eye(6) - direct)).max() < 1e-12

    def test_affinity_subgraph_is_submatrix(self):
        rule = EdgePoolFusion(("voice", "face"))
        affs, fused = self.build(rule, n=9)
        idx = np.array([0, 2, 3, 7])
        sub = fused.subgraph(idx).propagation_matrix()
        assert np.array_equal(sub, self.fused_submatrices(affs, rule, idx))
        pooled = np.maximum(affs["voice"].w, affs["face"].w)[np.ix_(idx, idx)]
        assert np.array_equal(sub, propagation_operator(pooled))


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


def floored_reference(laps, p, shift):
    """The power mean through floored eigendecompositions only."""
    def floor(q):
        return 0.0 if q > 0 else NEG_POWER_EIG_FLOOR

    shifted = [lap + shift * np.eye(lap.shape[0]) for lap in laps]
    if len(shifted) == 1:
        m = shifted[0]
        vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
        back = np.maximum(np.maximum(vals, floor(p)) ** p, floor(1.0 / p)) ** (1.0 / p)
        fused = (vecs * back) @ vecs.T
    else:
        acc = np.zeros_like(shifted[0])
        for m in shifted:
            acc += sym_matrix_power(m, p, floor=floor(p))
        fused = sym_matrix_power(acc / len(shifted), 1.0 / p, floor=floor(1.0 / p))
    return (fused + fused.T) / 2.0


def fuse_counting_eigh(laps, p, shift):
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        fused = pml_fuse(laps, p, shift)
    return fused, eigh.call_count


def agreement_tolerance(shift):
    # Both routes carry a forward error of order eps * cond(L_v + shift*I),
    # and a normalized Laplacian's spectrum lies in [0, 2]. From shift ~1e-3
    # up this is the flat 1e-10.
    if shift == 0.0:
        return 1e-10
    return max(1e-10, 100 * np.finfo(float).eps * (2.0 + shift) / shift)


class TestClosedForms:
    @PROPERTY
    @given(laps=laplacian_sets(), shift=SHIFTS)
    def test_arithmetic_mean_needs_no_decomposition(self, laps, shift):
        fused, eigh_calls = fuse_counting_eigh(laps, 1.0, shift)
        assert eigh_calls == 0
        assert np.abs(fused - floored_reference(laps, 1.0, shift)).max() < 1e-10

    @PROPERTY
    @given(laps=laplacian_sets(), shift=SHIFTS)
    def test_harmonic_mean_matches_floored_reference(self, laps, shift):
        fused, eigh_calls = fuse_counting_eigh(laps, -1.0, shift)
        if shift >= 1e-6:
            # every eigenvalue of L_v + shift*I is >= shift, so the
            # Cholesky inverses' infinity norms stay below sqrt(n)/shift
            assert eigh_calls == 0
        reference = floored_reference(laps, -1.0, shift)
        assert np.abs(fused - reference).max() < agreement_tolerance(shift)

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


class TestSpectralBound:
    @PROPERTY
    @given(laps=laplacian_sets(), p=st.sampled_from([1.0, -1.0, 2.0]),
           shift=st.just(0.0) | SHIFTS)
    def test_power_mean_spectrum_within_shifted_inputs(self, laps, p, shift):
        # Each L_v + shift*I has its spectrum in [shift, 2 + shift] and a matrix
        # power mean stays inside its inputs' bounds, so I - alpha*S =
        # (1 - alpha)*I + alpha*L_p is positive definite. Round-off: the
        # floored eigendecompositions work at condition numbers up to
        # (2 + shift)/NEG_POWER_EIG_FLOOR, and at p = 2 the square root turns
        # an eps-sized error in an eigenvalue of M^2 into a sqrt(eps)-sized one.
        tolerance = 1e-6 * (2.0 + shift)
        eigenvalues = np.linalg.eigvalsh(pml_fuse(laps, p, shift))
        assert eigenvalues.min() >= shift - tolerance
        assert eigenvalues.max() <= 2.0 + shift + tolerance
