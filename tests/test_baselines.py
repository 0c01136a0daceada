"""Cosine-scoring baselines against brute-force oracles."""

import importlib
import warnings

import numpy as np
import pytest

from speakergraph import (
    ABSTAIN,
    DegeneracyWarning,
    StructuralError,
    predict,
    run_2cs,
    run_2csea,
    run_cs,
    run_csea,
)
from speakergraph import baselines


def cos(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def oracle_cs(labeled, classes, heldout, class_count):
    """Direct double loop over cosine terms."""
    preds, scores = [], []
    for h in heldout:
        row = []
        for c in range(class_count):
            members = [labeled[i] for i in range(len(classes)) if classes[i] == c]
            row.append(np.mean([cos(h, e) for e in members]))
        scores.append(row)
        preds.append(int(np.argmax(row)))
    return np.array(preds), np.array(scores)


def oracle_csea(labeled, classes, heldout, class_count):
    preds, scores = [], []
    means = []
    for c in range(class_count):
        members = [labeled[i] for i in range(len(classes)) if classes[i] == c]
        means.append(np.mean(members, axis=0))
    for h in heldout:
        row = [cos(h, m) for m in means]
        scores.append(row)
        preds.append(int(np.argmax(row)))
    return np.array(preds), np.array(scores)


def random_household(rng, n_classes=3, labeled=2, unlabeled=3, heldout=4, dim=4):
    labeled_emb = rng.normal(size=(n_classes * labeled, dim))
    classes = np.repeat(np.arange(n_classes), labeled)
    unlabeled_emb = rng.normal(size=(unlabeled, dim))
    heldout_emb = rng.normal(size=(heldout, dim))
    return labeled_emb, classes, unlabeled_emb, heldout_emb


class TestScores:
    def test_cs_identical_vector(self):
        out = run_cs(np.array([[1.0, 2.0]]), np.array([0]), np.array([[1.0, 2.0]]), 1)
        assert out.scores[0, 0] == pytest.approx(1.0)

    def test_cs_orthogonal_classes(self):
        labeled = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = run_cs(labeled, np.array([0, 1]), np.array([[0.0, 3.0]]), 2)
        assert out.scores[0] == pytest.approx([0.0, 1.0])
        assert out.labels.tolist() == [1]

    def test_cs_mean_of_cosines(self):
        labeled = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        out = run_cs(labeled, np.array([0, 0, 1]), np.array([[1.0, 0.0]]), 2)
        assert out.scores[0] == pytest.approx([0.5, -1.0])

    def test_csea_single_utterance_equals_cs(self):
        rng = np.random.default_rng(0)
        labeled = rng.normal(size=(3, 4))
        classes = np.array([0, 1, 2])
        heldout = rng.normal(size=(5, 4))
        a = run_cs(labeled, classes, heldout, 3)
        b = run_csea(labeled, classes, heldout, 3)
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.scores, b.scores, atol=1e-12)

    def test_csea_collinear_mean(self):
        labeled = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        heldout = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
        out = run_csea(labeled, np.array([0, 0, 1]), heldout, 2)
        assert out.scores[0, 0] == pytest.approx(1.0)

    def test_csea_zero_mean_profile_warns(self):
        labeled = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        classes = np.array([0, 0, 1])
        with pytest.warns(DegeneracyWarning):
            out = run_csea(labeled, classes, np.array([[1.0, 0.0]]), 2)
        assert out.scores[0, 0] == 0.0

    def test_zero_norm_heldout_warns(self):
        labeled = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.warns(DegeneracyWarning):
            out = run_cs(labeled, np.array([0, 1]), np.array([[0.0, 0.0]]), 2)
        assert np.all(out.scores == 0.0)

    @pytest.mark.parametrize("scorer", (run_cs, run_csea, run_2cs, run_2csea))
    def test_zero_norm_warning_names_the_caller(self, scorer):
        labeled, classes = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1])
        pool = (np.array([[1.0, 1.0]]),) if scorer in (run_2cs, run_2csea) else ()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scorer(labeled, classes, *pool, np.zeros((1, 2)), 2)
        assert caught
        assert [(w.category, w.filename) for w in caught] == \
            [(DegeneracyWarning, __file__)] * len(caught)

    def test_profiles(self):
        # class 0 averages to (0.5, 0.5), class 1 is its single member
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
        heldout = np.array([[3.0, 1.0]])
        out = run_csea(emb, np.array([0, 0, 1]), heldout, 2)
        assert out.scores[0] == pytest.approx(
            [cos(heldout[0], [0.5, 0.5]), cos(heldout[0], [2.0, -1.0])])


class TestLabelRule:
    """Every method reads its labels with the one rule, predict."""

    def test_one_rule_for_every_method(self):
        propagation = importlib.import_module("speakergraph.propagation")
        assert predict is baselines.predict is propagation.predict

    @pytest.mark.parametrize("scorer", (run_cs, run_csea))
    def test_zero_norm_heldout_abstains(self, scorer):
        # its all-zero scores were once read as class 0 by tie-break, with a tie flag
        labeled = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.warns(DegeneracyWarning):
            out = scorer(labeled, np.array([0, 1]), np.array([[1.0, 0.5], [0.0, 0.0]]), 2)
        assert out.labels.tolist() == [0, ABSTAIN]
        assert out.abstains == (1,)
        assert out.ties == ()

    @pytest.mark.parametrize("scorer", (run_2cs, run_2csea))
    def test_zero_norm_pool_row_stays_unlabeled_in_step_2(self, scorer):
        # as pseudo-label 0 it halved class 0's 2CS score, 0.697 -> 0.349
        labeled, classes = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1])
        pool, heldout = np.array([[1.0, 0.2], [0.0, 0.0]]), np.array([[1.0, 0.5]])
        with pytest.warns(DegeneracyWarning):
            with_zero = scorer(labeled, classes, pool, heldout, 2)
        without = scorer(labeled, classes, pool[:1], heldout, 2)
        assert np.array_equal(with_zero.scores, without.scores)
        assert np.array_equal(with_zero.labels, without.labels)


class TestInputs:
    @pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
    @pytest.mark.parametrize("where", ("labeled", "unlabeled", "heldout"))
    def test_non_finite_embeddings_rejected(self, where, bad):
        # an inf row once scored NaN against every class and came back as
        # label 0 with no tie flag, under only a numpy RuntimeWarning
        rows = {"labeled": np.array([[1.0, 0.0], [0.0, 1.0]]),
                "unlabeled": np.array([[1.0, 1.0]]), "heldout": np.array([[1.0, 2.0]])}
        rows[where][0, 0] = bad
        classes = np.array([0, 1])
        for one, two in ((run_cs, run_2cs), (run_csea, run_2csea)):
            if where != "unlabeled":
                with pytest.raises(StructuralError, match="embeddings must be finite"):
                    one(rows["labeled"], classes, rows["heldout"], 2)
            with pytest.raises(StructuralError, match="embeddings must be finite"):
                two(rows["labeled"], classes, rows["unlabeled"], rows["heldout"], 2)

    @pytest.mark.parametrize("classes", [[0.9, 0.2, 1.5, 1.99], [True, False, True, False]])
    def test_classes_that_are_not_integers_are_rejected(self, classes):
        # [0.9, 0.2, 1.5, 1.99] was scored as classes [0, 0, 1, 1]
        labeled = np.eye(4)[:, :3]
        heldout, unlabeled = np.ones((1, 3)), np.ones((2, 3))
        for one, two in ((run_cs, run_2cs), (run_csea, run_2csea)):
            with pytest.raises(StructuralError, match="classes must be integer class indices"):
                one(labeled, classes, heldout, 2)
            with pytest.raises(StructuralError, match="classes must be integer class indices"):
                two(labeled, classes, unlabeled, heldout, 2)

    @pytest.mark.parametrize("case", ["held-out dimension", "unlabeled dimension",
                                      "1-D labeled"])
    def test_embeddings_of_another_shape_are_rejected(self, case):
        # each ended in numpy's matmul ValueError
        labeled, classes = np.eye(3)[:2], np.array([0, 1])
        unlabeled, heldout = np.ones((2, 3)), np.ones((1, 3))
        if case == "held-out dimension":
            heldout = np.ones((1, 4))
        elif case == "unlabeled dimension":
            unlabeled = np.ones((2, 2))
        else:
            labeled = np.array([1.0, 2.0])
        for one, two in ((run_cs, run_2cs), (run_csea, run_2csea)):
            if case != "unlabeled dimension":
                with pytest.raises(StructuralError, match="embeddings"):
                    one(labeled, classes, heldout, 2)
            with pytest.raises(StructuralError, match="embeddings"):
                two(labeled, classes, unlabeled, heldout, 2)

class TestOracles:
    @pytest.mark.parametrize("seed", range(6))
    def test_cs_and_csea_match_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        labeled, classes, _, heldout = random_household(rng)
        for runner, oracle in ((run_cs, oracle_cs), (run_csea, oracle_csea)):
            out = runner(labeled, classes, heldout, 3)
            preds, scores = oracle(labeled, classes, heldout, 3)
            assert np.array_equal(out.labels, preds)
            assert np.abs(out.scores - scores).max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_two_step_match_bruteforce(self, seed):
        rng = np.random.default_rng(100 + seed)
        labeled, classes, unlabeled, heldout = random_household(rng)
        for runner, oracle in ((run_2cs, oracle_cs), (run_2csea, oracle_csea)):
            out = runner(labeled, classes, unlabeled, heldout, 3)
            pseudo, _ = oracle(labeled, classes, unlabeled, 3)
            ext = np.vstack([labeled, unlabeled])
            ext_cls = np.concatenate([classes, pseudo])
            preds, scores = oracle(ext, ext_cls, heldout, 3)
            assert np.array_equal(out.labels, preds)
            assert np.abs(out.scores - scores).max() < 1e-12

    def test_adversarial_midpoint_step2_profile(self):
        # an unlabeled point midway between classes flips a step-2 profile
        labeled = np.array([[1.0, 0.0], [0.0, 1.0]])
        classes = np.array([0, 1])
        unlabeled = np.array([[0.9, 1.0]])     # pseudo-labels to class 1
        heldout = np.array([[1.0, 0.2]])
        out = run_2csea(labeled, classes, unlabeled, heldout, 2)
        pseudo = oracle_csea(labeled, classes, unlabeled, 2)[0]
        assert pseudo.tolist() == [1]
        expected_profile = np.mean([[0.0, 1.0], [0.9, 1.0]], axis=0)
        _, scores = oracle_csea(np.vstack([labeled, unlabeled]),
                                np.array([0, 1, 1]), heldout, 2)
        assert out.scores[0, 1] == pytest.approx(cos(heldout[0], expected_profile))
        assert np.abs(out.scores - scores).max() < 1e-12


class TestInvariances:
    @pytest.mark.parametrize("c", [0.01, 100.0])
    def test_per_utterance_rescaling(self, c):
        rng = np.random.default_rng(5)
        labeled, classes, unlabeled, heldout = random_household(rng)
        scales_l = rng.uniform(0.5, 2.0, size=(labeled.shape[0], 1)) * c
        scales_h = rng.uniform(0.5, 2.0, size=(heldout.shape[0], 1)) * c
        base = run_cs(labeled, classes, heldout, 3)
        scaled = run_cs(labeled * scales_l, classes, heldout * scales_h, 3)
        assert np.array_equal(base.labels, scaled.labels)
        assert np.abs(base.scores - scaled.scores).max() < 1e-12

    @pytest.mark.parametrize("exponent", (520, -520, -600))
    def test_labels_survive_extreme_power_of_two_scales(self, exponent):
        # The squared norm overflows at 2^520 and is subnormal at 2^-520 and 0
        # at 2^-600; cosine is scale-invariant and power-of-two scaling is exact.
        # pytest turns any RuntimeWarning into an error.
        rng = np.random.default_rng(8)
        labeled, classes, _, heldout = random_household(rng, heldout=12)
        scale = 2.0 ** exponent
        for scorer in (run_cs, run_csea):
            base = scorer(labeled, classes, heldout, 3)
            scaled = scorer(labeled * scale, classes, heldout * scale, 3)
            assert np.array_equal(base.labels, scaled.labels)
            assert base.ties == scaled.ties == ()
            assert np.abs(base.scores - scaled.scores).max() < 1e-12

    def test_two_step_reduces_when_no_unlabeled(self):
        rng = np.random.default_rng(6)
        labeled, classes, _, heldout = random_household(rng)
        empty = np.zeros((0, labeled.shape[1]))
        for one, two in ((run_cs, run_2cs), (run_csea, run_2csea)):
            a = one(labeled, classes, heldout, 3)
            b = two(labeled, classes, empty, heldout, 3)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.scores, b.scores)

    def test_separable_two_step_equals_one_step(self):
        rng = np.random.default_rng(7)
        centers = rng.normal(scale=50.0, size=(3, 4))
        labeled = np.repeat(centers, 2, axis=0) + rng.normal(scale=0.01, size=(6, 4))
        classes = np.repeat(np.arange(3), 2)
        unlabeled = np.repeat(centers, 4, axis=0) + rng.normal(scale=0.01, size=(12, 4))
        heldout = centers + rng.normal(scale=0.01, size=(3, 4))
        truth = np.arange(3)
        for one, two in ((run_cs, run_2cs), (run_csea, run_2csea)):
            a = one(labeled, classes, heldout, 3)
            b = two(labeled, classes, unlabeled, heldout, 3)
            assert np.array_equal(a.labels, truth)
            assert np.array_equal(b.labels, truth)
