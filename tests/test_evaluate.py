"""SIER arithmetic, evaluation reports, and sweeps."""

import importlib
import re

import numpy as np
import pytest

from speakergraph import (
    ConfigurationError,
    LocalScaling,
    MethodSpec,
    NumericalError,
    PowerMeanFusion,
    SimulationConfig,
    SingleView,
    StructuralError,
    UniversalScaling,
    evaluate,
    evaluate_methods,
    generate_dataset,
    micro_average,
    relative_improvement,
    sier,
    sweep,
    tune_cohort_sigmas,
)
from speakergraph.evaluate import apply_param


def tiny_dataset(seed=0, groups=("random",), **overrides):
    defaults = dict(seed=seed, households_per_group=3, speakers_per_household=3,
                    utterances_per_speaker=24, voice_dim=6, face_dim=6,
                    labeled_per_speaker=2, unlabeled_per_household=12,
                    heldout_per_speaker=4, groups=groups)
    defaults.update(overrides)
    cfg = SimulationConfig(**defaults)
    dev, val = generate_dataset(cfg)
    return dev, val


LOCAL_2LP = MethodSpec(method="2LP", scaling=LocalScaling(k=5, s=0.8),
                       fusion=SingleView("voice"))


class TestSier:
    def test_all_correct(self):
        assert sier(np.array([0, 1, 2]), np.array([0, 1, 2])) == 0.0

    def test_one_wrong_of_forty(self):
        pred = np.zeros(40, dtype=int)
        truth = np.zeros(40, dtype=int)
        truth[0] = 1
        assert sier(pred, truth) == pytest.approx(0.025)

    def test_micro_average_pools_counts(self):
        assert micro_average([(1, 40), (3, 40)]) == pytest.approx(0.05)

    def test_micro_average_not_mean_of_rates(self):
        # rates 0.5 and 0.01 over very different sizes
        counts = [(1, 2), (1, 100)]
        assert micro_average(counts) == pytest.approx(2 / 102)
        assert micro_average(counts) != pytest.approx((0.5 + 0.01) / 2)

    def test_abstain_counts_as_error(self):
        assert sier(np.array([-1, 1]), np.array([0, 1])) == pytest.approx(0.5)

    def test_misaligned_sets(self):
        with pytest.raises(StructuralError):
            sier(np.array([0, 1]), np.array([0]))

    def test_improvement_matches_published_arithmetic(self):
        # a 1.44 -> 0.92 move is a 36.1% relative improvement
        assert 100 * relative_improvement(1.44, 0.92) == pytest.approx(36.1, abs=0.1)


class TestMethodSpec:
    def test_baseline_rejects_scaling(self):
        with pytest.raises(ConfigurationError):
            MethodSpec(method="CS", scaling=UniversalScaling(1.0))

    def test_lp_requires_rules(self):
        with pytest.raises(ConfigurationError):
            MethodSpec(method="2LP")

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            MethodSpec(method="PLDA")

    def test_family_labels(self):
        assert MethodSpec(method="CS").family == "baseline"
        assert LOCAL_2LP.family == "local"
        uni = MethodSpec(method="LP", scaling=UniversalScaling(1.0),
                         fusion=SingleView("voice"))
        assert uni.family == "universal"


class TestEvaluate:
    def test_single_household_equals_sier(self):
        _, val = tiny_dataset()
        report = evaluate(val[:1], MethodSpec(method="CS"))
        e, t = report.counts()
        assert report.micro_sier() == pytest.approx(e / t)
        assert t == 12   # 3 speakers x 4 held-out

    def test_oracle_predictions_give_zero(self):
        dev, val = tiny_dataset(between_speaker_spread=80.0,
                                within_speaker_sigma=0.05,
                                session_offset_sigma=0.0)
        report = evaluate(dev + val, MethodSpec(method="CSEA"))
        assert report.micro_sier() == 0.0

    def test_deterministic(self):
        _, val = tiny_dataset()
        a = evaluate(val, LOCAL_2LP)
        b = evaluate(val, LOCAL_2LP)
        assert [h.errors for h in a.households] == [h.errors for h in b.households]

    def test_improvements_best_in_family(self):
        dev, val = tiny_dataset(seed=3)
        report = evaluate_methods(dev + val, [MethodSpec(method="CS"), LOCAL_2LP])
        table = report.improvements()
        assert set(table) == {"local"}
        base = min(m.micro_sier("random") for m in report.methods
                   if m.spec.is_baseline)
        best = [m for m in report.methods if not m.spec.is_baseline][0]
        if base > 0:
            expected = 100 * relative_improvement(base, best.micro_sier("random"))
            assert table["local"]["random"] == pytest.approx(expected)
        else:
            assert table["local"]["random"] is None

    def test_allow_skip_records_failures(self):
        dev, val = tiny_dataset()
        broken = val[0]
        for u in broken.utterances:
            u.views.pop("face", None)
        spec = MethodSpec(method="2LP", scaling=LocalScaling(k=5, s=0.8),
                          fusion=SingleView("face"))
        with pytest.raises(ConfigurationError):
            evaluate(val, spec)
        report = evaluate(val, spec, allow_skip=True)
        assert len(report.skipped) == 1
        assert report.skipped[0][0] == broken.household_id

    def test_heldout_truth_required(self):
        _, val = tiny_dataset()
        for u in val[0].utterances:
            if u.role == "heldout":
                u.speaker = None
        with pytest.raises(StructuralError):
            evaluate(val[:1], MethodSpec(method="CS"))

    def test_household_without_heldout_is_structural_error(self):
        _, val = tiny_dataset()
        empty = val[1]
        empty.utterances = [u for u in empty.utterances if u.role != "heldout"]
        with pytest.raises(StructuralError, match=empty.household_id):
            evaluate(val, MethodSpec(method="CS"))
        report = evaluate(val, MethodSpec(method="CS"), allow_skip=True)
        assert [hid for hid, _ in report.skipped] == [empty.household_id]
        assert all(h.heldout > 0 for h in report.households)

    def test_allow_skip_lets_defects_propagate(self, monkeypatch):
        # the package re-exports the evaluate function under the module's name
        evaluate_module = importlib.import_module("speakergraph.evaluate")
        _, val = tiny_dataset()
        original = evaluate_module.run_method

        def fail_first_with(exc):
            def run_method(hh, spec):
                if hh is val[0]:
                    raise exc
                return original(hh, spec)
            monkeypatch.setattr(evaluate_module, "run_method", run_method)

        fail_first_with(TypeError("programming error"))
        with pytest.raises(TypeError):
            evaluate(val, MethodSpec(method="CS"), allow_skip=True)
        fail_first_with(NumericalError("ill-conditioned"))
        report = evaluate(val, MethodSpec(method="CS"), allow_skip=True)
        assert report.skipped == [(val[0].household_id,
                                   "NumericalError: ill-conditioned")]
        assert len(report.households) == len(val) - 1


class TestSweep:
    def test_single_point_grid(self):
        _, val = tiny_dataset()
        result = sweep(val, {"scaling.s": [0.8]}, LOCAL_2LP)
        assert result.best_params == {"scaling.s": 0.8}
        assert len(result.rows) == 1

    def test_row_count_is_grid_product(self):
        _, val = tiny_dataset()
        grid = {"scaling.s": [0.5, 0.8, 1.2], "propagation.alpha": [0.5, 0.9]}
        result = sweep(val[:1], grid, LOCAL_2LP)
        assert len(result.rows) == 6

    def test_planted_optimum_found(self):
        # a separable dataset reaches SIER 0 only with a sane bandwidth
        dev, val = tiny_dataset(between_speaker_spread=80.0,
                                within_speaker_sigma=0.05,
                                session_offset_sigma=0.0)
        template = MethodSpec(method="2LP", scaling=UniversalScaling(1.0),
                              fusion=SingleView("voice"))
        # 1e6 floods the graph with near-equal weights and fails badly
        grid = {"scaling.sigma": [1e6, 8.0]}
        result = sweep(dev + val, grid, template)
        assert result.best_params == {"scaling.sigma": 8.0}
        assert min(r["sier"] for r in result.rows) == 0.0
        assert max(r["sier"] for r in result.rows) > 0.0

    def test_empty_grid_rejected(self):
        _, val = tiny_dataset()
        with pytest.raises(ConfigurationError):
            sweep(val, {}, LOCAL_2LP)
        with pytest.raises(ConfigurationError):
            sweep(val, {"scaling.s": []}, LOCAL_2LP)

    def test_grid_checked_before_any_evaluation(self, monkeypatch):
        # the package re-exports the evaluate function under the module's name
        evaluate_module = importlib.import_module("speakergraph.evaluate")
        _, val = tiny_dataset()
        calls = []
        original = evaluate_module.evaluate
        monkeypatch.setattr(evaluate_module, "evaluate",
                            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        with pytest.raises(ConfigurationError, match=re.escape("scaling.s: expected a number")):
            sweep(val, {"scaling.s": [0.5, 0.8, 1.0, "x"]}, LOCAL_2LP)
        assert len(calls) == 0

    def test_apply_param_paths(self):
        spec = apply_param(LOCAL_2LP, "scaling.k", 9)
        assert spec.scaling.k == 9
        spec = apply_param(LOCAL_2LP, "propagation.alpha", 0.5)
        assert spec.propagation.alpha == 0.5
        pml = MethodSpec(method="LP", scaling=LocalScaling(k=3, s=1.0),
                         fusion=PowerMeanFusion(("voice", "face"), p=1.0))
        assert apply_param(pml, "fusion.p", 2.0).fusion.p == 2.0
        assert apply_param(LOCAL_2LP, "session_sigma", 0.4).session_sigma == 0.4
        with pytest.raises(ConfigurationError):
            apply_param(LOCAL_2LP, "scaling.sigma", 1.0)
        with pytest.raises(ConfigurationError):
            apply_param(LOCAL_2LP, "nonsense", 1.0)

    def test_unit_normalize_changes_graph_not_contract(self):
        _, val = tiny_dataset(seed=9)
        base = evaluate(val, LOCAL_2LP)
        from dataclasses import replace
        normalized = evaluate(val, replace(LOCAL_2LP, unit_normalize=True))
        assert len(base.households) == len(normalized.households)
        # normalized-view predictions remain the same shape and range
        for h in normalized.households:
            assert 0.0 <= h.sier <= 1.0

    def test_tune_cohort_sigmas_per_group(self):
        dev, val = tiny_dataset(groups=("random", "hard"))
        rule = tune_cohort_sigmas(dev + val, [0.8, 2.0, 5.0],
                                  MethodSpec(method="2LP",
                                             scaling=UniversalScaling(1.0),
                                             fusion=SingleView("voice")))
        assert set(rule.sigma_by_cohort) == {"random", "hard"}
        for sigma in rule.sigma_by_cohort.values():
            assert sigma in (0.8, 2.0, 5.0)
