"""SIER arithmetic, evaluation reports, and sweeps."""

import contextlib
import copy
import functools
import importlib
import itertools
import os
import re
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speakergraph import (
    CohortScaling,
    ConfigurationError,
    DegeneracyWarning,
    EdgePoolFusion,
    EmbeddingView,
    FusedGraph,
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
    edgepool_fuse,
    evaluate,
    evaluate_methods,
    generate_dataset,
    micro_average,
    pairwise_distances,
    relative_improvement,
    run_2lp,
    run_2lpea,
    run_lp,
    run_method,
    session_affinity,
    sier,
    sweep,
    tune_cohort_sigmas,
)
from speakergraph.config import BASELINE_METHODS, METHODS, apply_param
from speakergraph.graph import ViewDistances
from speakergraph.records import ROLE_HELDOUT, HouseholdDataset, UtteranceRecord

evaluate_module = importlib.import_module("speakergraph.evaluate")
fusion_module = importlib.import_module("speakergraph.fusion")
graph_module = importlib.import_module("speakergraph.graph")
propagation_module = importlib.import_module("speakergraph.propagation")


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

    @pytest.mark.parametrize("predictions, truth, name", [
        ([0.5, 1.5], [0, 1], "predictions"), ([True, False], [1, 0], "predictions"),
        ([0, 1], [0.0, 1.0], "truth"),
    ])
    def test_class_indices_that_are_not_integers_are_rejected(self, predictions, truth, name):
        # both first cases were cast to [0, 1] and scored 0.0
        with pytest.raises(StructuralError, match=f"{name} must be integer class indices"):
            sier(predictions, truth)

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

    @pytest.mark.parametrize("sigma", [0.0, -0.25])
    def test_session_sigma_must_be_positive(self, sigma):
        with pytest.raises(ConfigurationError, match="session_sigma must be > 0"):
            MethodSpec(method="CS", session_sigma=sigma)

    @pytest.mark.parametrize("scaling, fusion", [(LocalScaling(k=4, s=0.5), object()),
                                                 (object(), SingleView("voice"))])
    def test_lp_rules_must_be_known_rules(self, scaling, fusion):
        with pytest.raises(ConfigurationError, match="requires both a scaling rule and a fusion"):
            MethodSpec(method="LP", scaling=scaling, fusion=fusion)

    def test_family_labels(self):
        assert MethodSpec(method="CS").family == "baseline"
        assert LOCAL_2LP.family == "local"
        uni = MethodSpec(method="LP", scaling=UniversalScaling(1.0),
                         fusion=SingleView("voice"))
        assert uni.family == "universal"

    def test_labels_name_the_fused_views(self):
        # reports and perfbench metric names use these labels
        pool = MethodSpec(method="2LP", scaling=LocalScaling(k=4, s=0.8),
                          fusion=EdgePoolFusion(("voice", "face", "session")))
        assert pool.label == "2LP/local/voice+face+session"
        assert POWER_MEAN_LP.label == "LP/local/voice+face(pmean p=1)"
        harmonic = replace(POWER_MEAN_LP, scaling=UniversalScaling(1.0),
                           fusion=PowerMeanFusion(("voice", "face"), p=-0.5))
        assert harmonic.label == "LP/universal/voice+face(pmean p=-0.5)"


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

    def test_improvements_only_compare_reports_with_the_group(self):
        _, val = tiny_dataset(seed=3, groups=("random", "hard"))
        cohort = MethodSpec(method="2LP", scaling=CohortScaling({"random": 1.0}),
                            fusion=SingleView("voice"))
        report = evaluate_methods(val, [MethodSpec(method="CS"), cohort], allow_skip=True)
        assert report.methods[1].groups == ["random"]
        row = report.improvements()["cohort"]
        assert row["hard"] is None
        assert row["random"] == pytest.approx(100 * relative_improvement(
            report.methods[0].micro_sier("random"), report.methods[1].micro_sier("random")))

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

    def test_no_households_is_a_structural_error(self):
        with pytest.raises(StructuralError, match="no households to evaluate"):
            evaluate_methods([], [MethodSpec(method="CS")])

    def test_no_methods_is_a_configuration_error(self):
        # it once returned an empty report
        _, val = tiny_dataset()
        with pytest.raises(ConfigurationError, match="no methods to evaluate"):
            evaluate_methods(val, [])

    @pytest.mark.parametrize("spec", [MethodSpec(method="CS"), LOCAL_2LP], ids=["CS", "2LP"])
    def test_view_dimension_changed_after_validation_is_a_structural_error(self, spec):
        # numpy's ValueError once escaped even allow_skip
        _, val = tiny_dataset()
        val[0].validate()
        record = val[0].utterances[-1]
        record.views["voice"] = record.views["voice"][:-1]
        with pytest.raises(StructuralError, match="view 'voice': rows differ in dimension"):
            run_method(val[0], spec)
        report = evaluate(val, spec, allow_skip=True)
        assert [hid for hid, _ in report.skipped] == [val[0].household_id]
        assert len(report.households) == len(val) - 1

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
        _, val = tiny_dataset()
        original = evaluate_module._predict

        def fail_first_with(exc):
            def predict(stages, spec, graph):
                if stages.records[0].household_id == val[0].household_id:
                    raise exc
                return original(stages, spec, graph)
            monkeypatch.setattr(evaluate_module, "_predict", predict)

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
        # a sweep sets up each household's stages once, before evaluating it
        _, val = tiny_dataset()
        calls = []
        original = evaluate_module.HouseholdStages
        monkeypatch.setattr(evaluate_module, "HouseholdStages",
                            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        sweep(val, {"scaling.s": [0.5, 0.8]}, LOCAL_2LP)
        assert len(calls) == len(val)
        calls.clear()
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

    @pytest.mark.parametrize("sigmas, message", [
        ([], "scaling.sigma: expected a non-empty list of values"),
        (["a", 1.0], "scaling.sigma: expected a number, got 'a'"),
        ([1.0, None], "scaling.sigma: expected a number, got None"),
    ])
    def test_tune_cohort_sigmas_rejects_bad_sigmas(self, sigmas, message):
        dev, _ = tiny_dataset(groups=("random", "hard"))
        template = MethodSpec(method="2LP", scaling=UniversalScaling(1.0),
                              fusion=SingleView("voice"))
        for households in (dev, []):
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                tune_cohort_sigmas(households, sigmas, template)


def pointwise_counts(households, spec):
    """Pooled errors and held-out count of one spec, one run_method call per
    household."""
    errors, total = 0, 0
    for hh in households:
        pred, truth = run_method(hh, spec)
        errors += int(np.sum(pred.labels != truth))
        total += truth.size
    return errors, total


def pointwise_sweep(households, grid, template):
    """Rows and best params of a sweep, evaluated one grid point and one
    household at a time."""
    rows, best = [], None
    for combo in itertools.product(*grid.values()):
        params = dict(zip(grid, combo))
        spec = template
        for name, value in params.items():
            spec = apply_param(spec, name, value)
        errors, total = pointwise_counts(households, spec)
        rows.append({**params, "errors": errors, "heldout": total, "sier": errors / total})
        if best is None or errors / total < best[0]:
            best = (errors / total, params)
    return rows, best[1]


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return calls


POWER_MEAN_LP = MethodSpec(method="LP", scaling=LocalScaling(k=4, s=0.8),
                           fusion=PowerMeanFusion(("voice", "face"), p=1.0))

EQUIVALENCE_CASES = {
    "local-k-s-alpha": (LOCAL_2LP, {"propagation.alpha": [0.5, 0.99], "scaling.k": [3, 5],
                                    "scaling.s": [0.5, 1.0]}),
    "universal-sigma": (MethodSpec(method="2LP", scaling=UniversalScaling(1.0),
                                   fusion=SingleView("voice")),
                        {"scaling.sigma": [0.8, 2.0, 5.0], "propagation.alpha": [0.5, 0.9]}),
    "unit-normalize": (replace(LOCAL_2LP, unit_normalize=True),
                       {"method": ["LP", "2LP", "2LPEA"], "scaling.k": [3, 5]}),
    "edge-pool-session-sigma": (
        MethodSpec(method="2LP", scaling=LocalScaling(k=4, s=0.8),
                   fusion=EdgePoolFusion(("voice", "face", "session"))),
        {"session_sigma": [0.1, 0.25, 0.5], "propagation.alpha": [0.5, 0.9]}),
    "power-mean-p-shift": (POWER_MEAN_LP, {"fusion.p": [1.0, -1.0, 2.0],
                                           "fusion.shift": [0.1, 0.5]}),
    "step1-includes-heldout": (
        LOCAL_2LP, {"propagation.step1_includes_heldout": [True, False],
                    "scaling.k": [3, 5], "method": ["2LP", "2LPEA"]}),
}


class TestSweepStages:
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_rows_match_pointwise_evaluation(self, case):
        template, grid = EQUIVALENCE_CASES[case]
        dev, val = tiny_dataset(seed=4, groups=("random", "hard"))
        result = sweep(dev + val, grid, template)
        rows, best_params = pointwise_sweep(dev + val, grid, template)
        assert result.rows == rows
        assert result.best_params == best_params

    def test_tune_cohort_sigmas_matches_pointwise_choice(self):
        dev, val = tiny_dataset(seed=5, groups=("random", "hard"))
        sigmas = [0.5, 1.5, 4.0]
        template = MethodSpec(method="2LP", scaling=UniversalScaling(1.0),
                              fusion=SingleView("voice"))
        rule = tune_cohort_sigmas(dev + val, sigmas, template)
        for group in ("random", "hard"):
            members = [hh for hh in dev + val if hh.group == group]
            _, best = pointwise_sweep(members, {"scaling.sigma": sigmas}, template)
            assert rule.sigma_by_cohort[group] == best["scaling.sigma"]

    def test_each_stage_built_once_per_household(self, monkeypatch):
        dev, val = tiny_dataset()
        households = dev + val
        distances = count_calls(monkeypatch, graph_module, "_pairwise_distances")
        graphs = count_calls(monkeypatch, evaluate_module, "build_household_graph")
        subgraphs = count_calls(monkeypatch, FusedGraph, "subgraph")
        grid = {"scaling.k": [3, 5, 8], "scaling.s": [0.5, 1.0, 2.0],
                "propagation.alpha": [0.5, 0.9, 0.99]}
        assert len(sweep(households, grid, LOCAL_2LP).rows) == 27
        assert len(distances) == len(households)
        assert len(graphs) == 9 * len(households)
        assert len(subgraphs) == 9 * len(households)

        distances.clear()
        multi = MethodSpec(method="2LP", scaling=LocalScaling(k=4, s=0.8),
                           fusion=EdgePoolFusion(("voice", "face", "session")))
        sweep(households, {"session_sigma": [0.1, 0.5], "scaling.k": [3, 5]}, multi)
        assert len(distances) == 2 * len(households)   # voice and face, not session

        distances.clear()
        template = MethodSpec(method="2LP", scaling=UniversalScaling(1.0),
                              fusion=SingleView("voice"))
        tuning = tiny_dataset(groups=("random", "hard"))[0]
        tune_cohort_sigmas(tuning, [0.5, 1.5, 4.0], template)
        assert len(distances) == len(tuning)

    def test_one_fused_graph_held_at_a_time(self, monkeypatch):
        _, val = tiny_dataset()
        original = evaluate_module.build_household_graph
        built = []

        def tracking(stages, spec):
            assert all(ref() is None for ref in built), "an earlier graph is still alive"
            graph = original(stages, spec)
            built.append(weakref.ref(graph.fused))
            return graph
        monkeypatch.setattr(evaluate_module, "build_household_graph", tracking)
        sweep(val, {"scaling.k": [3, 5], "scaling.s": [0.5, 1.0],
                    "propagation.alpha": [0.5, 0.9]}, LOCAL_2LP)
        assert len(built) == 4 * len(val)


SINGLE_VIEW_SPECS = ([MethodSpec(method=m) for m in ("CS", "CSEA", "2CS", "2CSEA")]
                     + [replace(LOCAL_2LP, method=m) for m in ("LP", "2LP", "2LPEA")])

MULTI_VIEW_SPECS = [
    MethodSpec(method="2LP", scaling=LocalScaling(k=4, s=0.8),
               fusion=EdgePoolFusion(("voice", "face", "session"))),
    POWER_MEAN_LP,
    replace(POWER_MEAN_LP, method="2LP"),
    replace(POWER_MEAN_LP, fusion=PowerMeanFusion(("voice", "face"), p=-1.0)),
    replace(POWER_MEAN_LP, method="2LP", fusion=PowerMeanFusion(("voice", "face"), p=-1.0)),
]

MIXED_SPECS = SINGLE_VIEW_SPECS + [
    replace(LOCAL_2LP, method="LP", unit_normalize=True),
    replace(LOCAL_2LP, unit_normalize=True),
] + MULTI_VIEW_SPECS


def household_rows(report):
    return [(h.household_id, h.errors, h.heldout, h.ties, h.abstains, h.converged)
            for h in report.households]


class TestEvaluateMethods:
    def test_matches_one_run_method_per_household_and_spec(self):
        dev, val = tiny_dataset(seed=4, groups=("random", "hard"))
        households = dev + val
        report = evaluate_methods(households, MIXED_SPECS)
        assert [m.spec for m in report.methods] == MIXED_SPECS
        for spec, method in zip(MIXED_SPECS, report.methods):
            expected = []
            for hh in households:
                pred, truth = run_method(hh, spec)
                expected.append((hh.household_id, int(np.sum(pred.labels != truth)),
                                 truth.size, len(pred.ties), len(pred.abstains),
                                 pred.converged))
            assert household_rows(method) == expected, spec.label
            assert method.skipped == []

    def test_without_a_pool_each_two_step_method_is_its_step_2(self):
        dev, val = tiny_dataset(seed=5, groups=("random", "hard"), unlabeled_per_household=0)
        report = evaluate_methods(dev + val, SINGLE_VIEW_SPECS)
        rows = {m.spec.method: [(h.household_id, h.errors, h.ties, h.abstains, h.converged)
                                for h in m.households] for m in report.methods}
        assert len(rows["CS"]) == len(dev + val)
        for two_step, step2 in (("2CS", "CS"), ("2CSEA", "CSEA"), ("2LP", "LP"),
                                ("2LPEA", "CSEA")):
            assert rows[two_step] == rows[step2], two_step

    @pytest.mark.parametrize("spec", SINGLE_VIEW_SPECS, ids=lambda spec: spec.method)
    def test_a_household_without_heldout_utterances_is_rejected(self, spec):
        # run_method once returned empty labels and an empty truth for it,
        # where evaluate_methods raised; both raise, and allow_skip skips it
        _, val = tiny_dataset(seed=1)
        hh = replace(val[0], utterances=[r for r in val[0].utterances if r.role != ROLE_HELDOUT])
        message = f"household {hh.household_id}: no held-out utterances to score"
        with pytest.raises(StructuralError, match=message):
            run_method(hh, spec)
        with pytest.raises(StructuralError, match=message):
            evaluate_methods([hh, val[1]], [spec])
        report = evaluate_methods([hh, val[1]], [spec], allow_skip=True)
        assert report.methods[0].skipped == [(hh.household_id, f"StructuralError: {message}")]
        assert [h.household_id for h in report.methods[0].households] == [val[1].household_id]

    def test_a_view_named_twice_by_one_graph_is_not_kept(self):
        # one graph builds a view it names twice once (see
        # build_household_graph), so no other graph shares its distances
        _, val = tiny_dataset()
        spec = replace(LOCAL_2LP, fusion=EdgePoolFusion(("voice", "face", "voice")))
        assert evaluate_module.HouseholdStages(val[0], [spec])._shared == set()
        two = [spec, replace(spec, scaling=LocalScaling(k=3, s=0.8))]
        assert evaluate_module.HouseholdStages(val[0], two)._shared == {
            ("voice", False), ("face", False)}

    def test_single_view_specs_share_one_graph_per_household(self, monkeypatch):
        dev, val = tiny_dataset()
        households = dev + val
        distances = count_calls(monkeypatch, graph_module, "_pairwise_distances")
        graphs = count_calls(monkeypatch, evaluate_module, "build_household_graph")
        evaluate_methods(households, SINGLE_VIEW_SPECS)
        assert len(graphs) == len(households)
        assert len(distances) == len(households)

    def fail_on(self, monkeypatch, owner, name, household_id, failing):
        """Make owner.name raise NumericalError for the specs failing(spec)
        selects on one household; the stages are the first argument."""
        original = getattr(owner, name)

        def faulty(stages, spec, *args):
            if stages.records[0].household_id == household_id and failing(spec):
                raise NumericalError(f"injected into {name}")
            return original(stages, spec, *args)
        monkeypatch.setattr(owner, name, faulty)

    def test_failed_solve_skips_only_its_spec(self, monkeypatch):
        _, val = tiny_dataset()
        specs = SINGLE_VIEW_SPECS[4:]   # LP, 2LP and 2LPEA on one graph
        clean = evaluate_methods(val, specs)
        self.fail_on(monkeypatch, evaluate_module, "_predict", val[0].household_id,
                     lambda spec: spec.method == "2LP")
        report = evaluate_methods(val, specs, allow_skip=True)
        assert report.methods[1].skipped == [
            (val[0].household_id, "NumericalError: injected into _predict")]
        assert household_rows(report.methods[1]) == household_rows(clean.methods[1])[1:]
        for i in (0, 2):
            assert report.methods[i].skipped == []
            assert household_rows(report.methods[i]) == household_rows(clean.methods[i])

    def test_failed_graph_skips_the_specs_that_share_it(self, monkeypatch):
        _, val = tiny_dataset()
        specs = MIXED_SPECS
        clean = evaluate_methods(val, specs)
        self.fail_on(monkeypatch, evaluate_module, "build_household_graph",
                     val[1].household_id, lambda spec: spec.fusion == POWER_MEAN_LP.fusion)
        report = evaluate_methods(val, specs, allow_skip=True)
        for spec, method, clean_method in zip(specs, report.methods, clean.methods):
            if spec.fusion == POWER_MEAN_LP.fusion:   # LP and 2LP at p=1
                assert method.skipped == [(val[1].household_id,
                                           "NumericalError: injected into build_household_graph")]
                expected = [r for r in household_rows(clean_method) if r[0] != val[1].household_id]
            else:
                assert method.skipped == []
                expected = household_rows(clean_method)
            assert household_rows(method) == expected, spec.label

    def test_error_names_only_the_specs_that_lost_every_household(self, monkeypatch):
        _, val = tiny_dataset()
        specs = [MethodSpec(method="CS"), LOCAL_2LP]
        for household in val:
            self.fail_on(monkeypatch, evaluate_module, "_predict", household.household_id,
                         lambda spec: spec.method == "2LP")
        with pytest.raises(StructuralError) as raised:
            evaluate_methods(val, specs, allow_skip=True)
        assert str(raised.value) == f"every household failed evaluation for {LOCAL_2LP.label}"
        assert specs[0].label not in str(raised.value)

    def test_first_failure_in_household_order_is_raised(self, monkeypatch):
        _, val = tiny_dataset()
        specs = [MethodSpec(method="CS"), LOCAL_2LP]
        original = evaluate_module._predict

        def faulty(stages, spec, graph):
            household = stages.records[0].household_id
            if (spec.method, household) in (("CS", val[1].household_id),
                                            ("2LP", val[0].household_id)):
                raise NumericalError(f"{spec.method} on {household}")
            return original(stages, spec, graph)
        monkeypatch.setattr(evaluate_module, "_predict", faulty)
        with pytest.raises(NumericalError, match=f"2LP on {val[0].household_id}"):
            evaluate_methods(val, specs)


class TestTrustedPath:
    """The evaluation path checks its inputs where they come in and trusts
    the kernels and Laplacians it builds from them."""

    def test_no_public_checks_on_the_evaluation_path(self, monkeypatch):
        _, val = tiny_dataset()
        checked = count_calls(monkeypatch, graph_module.AffinityMatrix, "__post_init__")
        fused = count_calls(monkeypatch, fusion_module, "pml_fuse")
        report = evaluate_methods(val, MULTI_VIEW_SPECS)
        assert all(len(m.households) == len(val) for m in report.methods)
        assert checked == [] and fused == []

    @pytest.mark.parametrize("fusion", [
        SingleView("voice"), EdgePoolFusion(("voice", "face")),
        PowerMeanFusion(("voice", "face"), p=1.0), PowerMeanFusion(("voice", "face"), p=-1.0),
    ], ids=["single-view", "edge-pool", "power-mean-1", "power-mean-minus-1"])
    def test_overflowing_distances_end_in_a_structural_error(self, fusion):
        # distances overflow to inf, so local scaling divides inf by inf
        _, val = tiny_dataset()
        for hh in val:
            for record in hh.utterances:
                record.views["voice"] = record.views["voice"] * 1e160
        spec = MethodSpec(method="LP", scaling=LocalScaling(k=4, s=0.8), fusion=fusion)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(StructuralError, match="affinity matrix has non-finite entries"):
                evaluate_methods(val, [spec])

    @pytest.mark.parametrize("fusion", [
        SingleView("voice"), EdgePoolFusion(("voice", "face")),
        PowerMeanFusion(("voice", "face"), p=-1.0),
    ], ids=["single-view", "edge-pool", "power-mean-minus-1"])
    def test_overflow_at_a_power_of_two_scale_warns_nothing(self, fusion):
        # under the suite's error::RuntimeWarning filter, local scaling's
        # inf/inf must not surface as a numpy warning before the typed error
        _, val = tiny_dataset()
        for hh in val:
            for record in hh.utterances:
                record.views = {name: vec * 2.0 ** 530 for name, vec in record.views.items()}
        spec = MethodSpec(method="LP", scaling=LocalScaling(k=4, s=0.8), fusion=fusion)
        with pytest.raises(StructuralError, match="affinity matrix has non-finite entries"):
            evaluate_methods(val, [spec])

    @pytest.mark.parametrize("solver", ("auto", "iterative"))
    def test_no_identity_matrix_on_the_evaluation_path(self, monkeypatch, solver):
        # I - M is formed in M's array, never as np.eye(n) - M; 2LP at p = -1
        # diverges under the iteration, so the iterative run takes LP alone
        _, val = tiny_dataset()
        eyes = count_calls(monkeypatch, np, "eye")
        methods = ("LP", "2LP") if solver == "auto" else ("LP",)
        specs = [replace(POWER_MEAN_LP, method=method, fusion=PowerMeanFusion(("voice", "face"), p),
                         propagation=PropagationConfig(solver=solver))
                 for p in (1.0, -1.0, 2.0) for method in methods]
        report = evaluate_methods(val, specs)
        assert all(len(m.households) == len(val) for m in report.methods)
        assert eyes == []

    def test_overflowing_kernel_exponent_ends_in_zero_degree(self):
        # finite distances near 1e153 over sigma 0.01 square to inf: every
        # weight is exp(-inf) = 0, with no RuntimeWarning on the way
        _, val = tiny_dataset()
        for hh in val:
            for record in hh.utterances:
                record.views["voice"] = record.views["voice"] * 1e153
        spec = MethodSpec(method="LP", scaling=UniversalScaling(0.01), fusion=SingleView("voice"))
        with pytest.raises(StructuralError, match="zero degree"):
            evaluate_methods(val, [spec])

    @pytest.mark.parametrize("fusion", [SingleView("voice"),
                                        EdgePoolFusion(("voice", "face", "session"))],
                             ids=["single-view", "edge-pool"])
    def test_no_propagation_operator_on_the_direct_route(self, monkeypatch, fusion):
        # the direct solver forms I - alpha*S from W and d = D^{-1/2}: neither
        # the full graph nor step 1's subgraph builds S
        _, val = tiny_dataset()
        built = [count_calls(monkeypatch, module, name)
                 for module in (graph_module, fusion_module)
                 for name in ("_propagation_operator", "_operator") if hasattr(module, name)]
        specs = [replace(LOCAL_2LP, method=method, fusion=fusion)
                 for method in ("LP", "2LP", "2LPEA")]
        report = evaluate_methods(val, specs)
        assert all(len(m.households) == len(val) for m in report.methods)
        for spec in specs:
            run_method(val[0], spec)
        assert built and not any(built)

    @pytest.mark.parametrize("fusion", [SingleView("voice"), EdgePoolFusion(("voice", "face"))],
                             ids=["single-view", "edge-pool"])
    def test_zero_degree_raises_when_the_graph_is_built(self, monkeypatch, fusion):
        # every weight underflows to 0 (see the test above); the graph's
        # degree check raises it, not a factorization
        _, val = tiny_dataset()
        for record in val[0].utterances:
            record.views = {name: vec * 1e153 for name, vec in record.views.items()}
        spec = MethodSpec(method="LP", scaling=UniversalScaling(0.01), fusion=fusion)
        factored = count_calls(monkeypatch, fusion_module, "_potrf")
        stages = evaluate_module.HouseholdStages(val[0], [spec])
        with pytest.raises(StructuralError, match="zero degree"):
            evaluate_module.build_household_graph(stages, spec)
        assert factored == []

    @pytest.mark.parametrize("method, graphs", [("LP", 1), ("2LP", 2)])
    def test_harmonic_graph_factors_each_view_once(self, monkeypatch, method, graphs):
        # a p = -1 graph holds each view's Cholesky factor of L_v + shift*I and
        # solves by conjugate gradients at alpha = 0.9: one factorization per
        # view of each graph (2LP's step 1 fuses a second), no inverse, and no
        # factored system
        _, val = tiny_dataset()
        factorizations = count_calls(monkeypatch, fusion_module, "_potrf")
        inverses = count_calls(monkeypatch, fusion_module.lapack, "dpotri")
        spec = replace(POWER_MEAN_LP, method=method,
                       fusion=PowerMeanFusion(("voice", "face"), p=-1.0))
        evaluate_methods(val[:1], [spec])
        assert len(factorizations) == 2 * graphs
        assert inverses == []

    def test_harmonic_graph_counts_a_repeated_alpha_once(self, monkeypatch):
        # LP, 2LP and 2LPEA at alpha = 0.9 share one p = -1 graph and its
        # step-1 subgraph; each is solved at alpha = 0.9 alone, 11 steps, so
        # every solve runs CG and no H is built
        _, val = tiny_dataset()
        inverses = count_calls(monkeypatch, fusion_module.lapack, "dpotri")
        specs = [replace(POWER_MEAN_LP, method=method,
                         fusion=PowerMeanFusion(("voice", "face"), p=-1.0))
                 for method in ("LP", "2LP", "2LPEA")]
        evaluate_methods(val[:1], specs)
        assert inverses == []

    @pytest.mark.parametrize("alphas, inverses", [((0.9, 0.99), 0), ((0.5, 0.9, 0.99), 4)])
    def test_harmonic_sweep_builds_h_once_per_graph_above_the_cap(self, monkeypatch,
                                                                  alphas, inverses):
        # the points of a sweep over alpha share one p = -1 graph and its
        # step-1 subgraph, whose route the schedule decides from every point's
        # alpha. At shift log 2 CG takes 19, 11 and 7 steps at alpha = 0.5,
        # 0.9 and 0.99: 18 steps
        # stay within the cap and every solve runs CG; above it each graph
        # builds H once (one dpotri per view) and every alpha reuses it. The
        # labels are those of each point run alone, by CG.
        _, val = tiny_dataset()
        spec = replace(POWER_MEAN_LP, method="2LP",
                       fusion=PowerMeanFusion(("voice", "face"), p=-1.0))
        alone = [evaluate(val[:1], replace(spec, propagation=PropagationConfig(alpha=alpha)))
                 .households[0].errors for alpha in alphas]
        calls = count_calls(monkeypatch, fusion_module.lapack, "dpotri")
        rows = sweep(val[:1], {"propagation.alpha": list(alphas)}, spec).rows
        assert len(calls) == inverses
        assert [row["errors"] for row in rows] == alone

    def test_speaker_renamed_after_validation_is_a_structural_error(self):
        # a held-out speaker with no enrolled utterances once ended in a KeyError
        _, val = tiny_dataset()
        val[0].validate()
        val[0].by_role("heldout")[0].speaker = "ghost"
        with pytest.raises(StructuralError,
                           match="speaker 'ghost' has zero enrolled utterances"):
            run_method(val[0], MethodSpec(method="CS"))

    def test_run_method_raises_the_household_error(self):
        _, val = tiny_dataset()
        spec = MethodSpec(method="LP", scaling=CohortScaling({"elsewhere": 1.0}),
                          fusion=SingleView("voice"))
        with pytest.raises(ConfigurationError, match="no sigma configured for cohort"):
            run_method(val[0], spec)

    def test_unit_normalize_warns_on_a_zero_norm_row(self):
        _, val = tiny_dataset()
        zeroed = val[0].utterances[0]
        zeroed.views["voice"] = np.zeros_like(zeroed.views["voice"])
        stages = evaluate_module.HouseholdStages(val[0], [replace(LOCAL_2LP, unit_normalize=True)])
        with pytest.warns(DegeneracyWarning,
                          match="cannot be normalized; it is kept as the zero vector"):
            normalized = stages._matrix("voice", unit_normalize=True)
        row = stages.records.index(zeroed)
        assert not normalized[row].any()
        norms = np.linalg.norm(np.delete(normalized, row, axis=0), axis=1)
        assert np.allclose(norms, 1.0)

    @pytest.mark.parametrize("case", ["zero norm", "sigma floor"])
    def test_warnings_through_evaluate_methods_name_the_caller(self, case):
        # they once named lines of evaluate.py: the unit normalization and the kernel
        _, val = tiny_dataset()
        hh = val[0]
        if case == "zero norm":
            hh.utterances[0].views["voice"] = np.zeros_like(hh.utterances[0].views["voice"])
            spec = replace(LOCAL_2LP, unit_normalize=True)
        else:
            for record in hh.utterances:
                record.views["voice"] = np.ones_like(record.views["voice"])
            spec = LOCAL_2LP
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate_methods([hh], [spec])
        assert caught
        assert [(w.category, w.filename) for w in caught] == \
            [(DegeneracyWarning, __file__)] * len(caught)

    def test_warnings_through_evaluate_methods_name_household_and_spec(self):
        # a zero-norm voice row warns in CS's cosine scoring and, normalized
        # for the graph, in the LP spec's graph build; a constant face view
        # warns of a zero bandwidth in that build. Each message names the
        # household and the spec it ran for.
        _, val = tiny_dataset()
        hh = val[0]
        hh.utterances[0].views["voice"] = np.zeros_like(hh.utterances[0].views["voice"])
        for record in hh.utterances:
            record.views["face"] = np.ones_like(record.views["face"])
        lp = MethodSpec(method="LP", scaling=LocalScaling(k=4, s=0.8), unit_normalize=True,
                        fusion=EdgePoolFusion(("voice", "face")))
        specs = [MethodSpec(method="CS"), lp]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate_methods([hh], specs)
        # the voice and face views of LP's graph build side by side, so their
        # warnings come in either order
        said = sorted((prefix, text.split()[0]) for prefix, _, text in
                      (str(w.message).partition(": ") for w in caught))
        assert said == sorted([(f"household {hh.household_id}, {spec.label}", word)
                               for spec, word in ((specs[0], "zero-norm"), (lp, "zero-norm"),
                                                  (lp, "zero"))])
        # outside evaluate_methods the messages stand alone
        with pytest.warns(DegeneracyWarning) as direct:
            ViewDistances(EmbeddingView("face", np.ones((5, 2))), 1)._affinity(LocalScaling(1, 1.0))
        assert str(direct[0].message).startswith("zero bandwidth")

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_module_filters_apply_to_attributed_warnings(self, action):
        # warnings are issued once, at the caller's module and line, so a
        # user's filter on this module applies to them
        _, val = tiny_dataset()
        for record in val[0].utterances:
            record.views["voice"] = np.ones_like(record.views["voice"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings(action, category=DegeneracyWarning, module=__name__)
            if action == "error":
                with pytest.raises(DegeneracyWarning, match="^household .*zero bandwidth"):
                    evaluate_methods(val[:1], [LOCAL_2LP])
            else:
                evaluate_methods(val[:1], [LOCAL_2LP])
        assert caught == []


def rescaled(household, exponent):
    """A copy of the household with every vector view multiplied by 2**exponent."""
    household = copy.deepcopy(household)
    for record in household.utterances:
        record.views = {name: vec * 2.0 ** exponent for name, vec in record.views.items()}
    return household


@functools.cache
def first_seed7_val_household():
    return generate_dataset(SimulationConfig(seed=7))[1][0]


@functools.cache
def tiny_val(seed):
    return tiny_dataset(seed)[1]


SCALE_FREE_FUSIONS = (SingleView("voice"), SingleView("face"),
                      EdgePoolFusion(("voice", "face", "session")),
                      PowerMeanFusion(("voice", "face"), p=1.0),
                      PowerMeanFusion(("voice", "face"), p=-1.0))


PERFBENCH_LOCAL = LocalScaling(k=20, s=0.5)


def perfbench_lp(method, fusion):
    return MethodSpec(method=method, scaling=PERFBENCH_LOCAL, fusion=fusion)


class TestSolveSchedule:
    """The specs of one graph group share its solves: one factorization per
    distinct full-graph system and one step 1 per distinct config."""

    def count_solves(self, monkeypatch, run, *args, **kwargs):
        """The _potrf calls and the step-1 propagations (on a graph without
        held-out nodes) that run(*args, **kwargs) makes, and its result."""
        factorizations = count_calls(monkeypatch, fusion_module, "_potrf")
        steps, real = [], propagation_module.propagate

        def propagate(graph, *args):
            steps.append(graph.n_heldout == 0)
            return real(graph, *args)
        monkeypatch.setattr(propagation_module, "propagate", propagate)
        result = run(*args, **kwargs)
        return (len(factorizations), steps.count(True)), result

    @pytest.mark.parametrize("specs, expected", [
        ([perfbench_lp(m, SingleView("voice")) for m in ("LP", "2LP", "2LPEA")], (2, 1)),
        ([MethodSpec("CS"), perfbench_lp("LP", SingleView("voice")),
          perfbench_lp("2LP", SingleView("voice")),
          perfbench_lp("2LP", EdgePoolFusion(("voice", "face", "session")))], (4, 2)),
    ], ids=["single-view", "large-household"])
    def test_perfbench_specs_factor_each_system_once(self, monkeypatch, specs, expected):
        # LP and 2LP's step 2 share the full graph's factor, and 2LP and
        # 2LPEA share step 1; the errors are those of each spec run alone
        household = first_seed7_val_household()
        alone = [run_method(household, spec) for spec in specs]
        counts, report = self.count_solves(monkeypatch, evaluate_methods, [household], specs)
        assert counts == expected
        for (pred, truth), method in zip(alone, report.methods):
            assert method.households[0].errors == int(np.sum(pred.labels != truth))

    def test_sweep_household_factors_every_point(self, monkeypatch):
        # 27 points of k x s x alpha: each point's full graph and step-1
        # subgraph are factored at its own alpha, with nothing to share
        grid = {"scaling.k": [10, 20, 40], "scaling.s": [0.25, 0.5, 1.0],
                "propagation.alpha": [0.5, 0.9, 0.99]}
        counts, _ = self.count_solves(monkeypatch, sweep, [first_seed7_val_household()], grid,
                                      perfbench_lp("2LP", SingleView("voice")))
        assert counts == (54, 27)

    def test_each_factored_system_goes_with_the_last_spec_at_its_alpha(self, monkeypatch):
        # LP at 0.5, then 2LP and 2LPEA at 0.9: the full graph's system at 0.5
        # goes when LP ends, the subgraph's when its step 1 is solved, and the
        # full graph's at 0.9 when 2LPEA, the last spec at 0.9, ends
        _, val = tiny_dataset()
        factored, real = [], fusion_module._potrf

        def potrf(a):
            factored.append(weakref.ref(a))
            return real(a)
        monkeypatch.setattr(fusion_module, "_potrf", potrf)
        specs = [replace(LOCAL_2LP, method=method, propagation=PropagationConfig(alpha=alpha))
                 for method, alpha in (("LP", 0.5), ("2LP", 0.9), ("2LPEA", 0.9))]
        stages = evaluate_module.HouseholdStages(val[0], specs)
        schedule = propagation_module.SolveSchedule(
            evaluate_module.build_household_graph(stages, specs[0]),
            [(spec.method, spec.propagation) for spec in specs])
        alive = []
        for spec in specs:
            evaluate_module._predict(stages, spec, schedule)
            alive.append((len(factored), sum(ref() is not None for ref in factored)))
        assert alive == [(1, 0), (3, 1), (3, 0)]

    def test_failed_step_two_leaves_the_group_as_a_clean_run(self, monkeypatch):
        # on the first household S is scaled by 1.5, which keeps I - alpha*S
        # positive definite only for alpha < 2/3: LP at 0.5 succeeds, and
        # 2LP's step 2 at 0.9 and LP at 0.95 fail; step 1 re-fuses the
        # subgraph from the weights and succeeds, and 2LPEA reuses 2LP's
        _, val = tiny_dataset()
        original = evaluate_module.build_household_graph

        def steep(stages, spec):
            graph = original(stages, spec)
            if stages.records[0].household_id != val[0].household_id:
                return graph
            s = graph.fused.propagation_matrix()
            return replace(graph, fused=replace(graph.fused, operator=1.5 * s))
        monkeypatch.setattr(evaluate_module, "build_household_graph", steep)
        specs = [replace(LOCAL_2LP, method=method, propagation=PropagationConfig(alpha=alpha))
                 for method, alpha in (("LP", 0.5), ("2LP", 0.9), ("2LPEA", 0.9), ("LP", 0.95))]
        clean = evaluate_methods(val, [specs[0], specs[2]])
        counts, report = self.count_solves(monkeypatch, evaluate_methods, val, specs,
                                           allow_skip=True)
        # per household: the full graph at 0.5, 0.9 and 0.95 and the subgraph
        # at 0.9, failed or not, and one step 1
        assert counts == (4 * len(val), len(val))
        for i, clean_method in zip((0, 2), clean.methods):
            assert report.methods[i].skipped == []
            assert household_rows(report.methods[i]) == household_rows(clean_method)
        for i, alpha in ((1, 0.9), (3, 0.95)):
            [(household, message)] = report.methods[i].skipped
            assert household == val[0].household_id
            assert message.startswith(
                f"NumericalError: I - alpha*S is not positive definite at alpha={alpha}: ")
        with pytest.raises(NumericalError, match="at alpha=0.9:"):
            evaluate_methods(val, specs)


@functools.cache
def perfbench_harness():
    """perfbench's harness module, for its workloads' specs and TINY sizes."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        return importlib.import_module("harness")
    finally:
        sys.path.pop(0)


def workload_specs(workload):
    """A perfbench workload's spec list: its specs, or its sweep's grid points."""
    if workload.grid is None:
        return list(workload.specs)
    return [spec for _, spec in evaluate_module._grid_points(workload.grid, workload.specs[0])]


@functools.cache
def first_seed7_dev_household():
    return generate_dataset(SimulationConfig(seed=7))[0][0]


@contextlib.contextmanager
def allowed_cpus(workers):
    """``workers`` allowed CPUs and one BLAS thread, on a fresh row pool that
    is shut down on exit."""
    with mock.patch.multiple(graph_module, _pool=None, _allowed_cpus=lambda: workers), \
            mock.patch.dict(os.environ, {"OPENBLAS_NUM_THREADS": "1"}):
        try:
            yield
        finally:
            if graph_module._pool is not None:
                graph_module._pool.shutdown()


def no_spare_buffers(monkeypatch):
    """Every HouseholdStages without spare buffers, so its graphs build their
    kernels and its schedules their systems in new arrays, but for a graph's
    last system, which it fills in the graph's own W or operator."""
    init = evaluate_module.HouseholdStages.__init__

    def without(stages, *args):
        init(stages, *args)
        stages.spare = None
    monkeypatch.setattr(evaluate_module.HouseholdStages, "__init__", without)


class TestSpareBuffers:
    """Where a household's specs solve more than one (graph group, alpha)
    system, its single-view kernels and its system fills reuse a few n x n
    buffers; predictions are bitwise those of fresh arrays."""

    def swept(self, monkeypatch, workers, keep=True):
        """Labels and scores of each perfbench sweep point on one household,
        in run order, the buffer under each _potrf call (None unless
        ``keep``, which holds them all alive), and the ``out`` buffer (or
        None) that each kernel was given."""
        predictions, buffers, kernels = [], [], []
        real_predict, real_potrf = evaluate_module._predict, fusion_module._potrf
        real_kernel = graph_module._gaussian_kernel

        def kernel(n, scaled, out=None):
            kernels.append(None if out is None else out.base)
            return real_kernel(n, scaled, out)

        def predict(stages, spec, schedule):
            pred = real_predict(stages, spec, schedule)
            predictions.append((pred.labels, pred.scores))
            return pred

        def potrf(a):
            buffers.append(a.base if keep else None)
            return real_potrf(a)
        monkeypatch.setattr(evaluate_module, "_predict", predict)
        monkeypatch.setattr(fusion_module, "_potrf", potrf)
        monkeypatch.setattr(graph_module, "_gaussian_kernel", kernel)
        workload = perfbench_harness().WORKLOADS["sweep"]
        with allowed_cpus(workers):
            sweep([first_seed7_dev_household()], workload.grid, workload.specs[0])
        monkeypatch.undo()
        return predictions, buffers, kernels

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_bitwise_on_two_buffers(self, monkeypatch, workers):
        reused, buffers, kernels = self.swept(monkeypatch, workers)
        no_spare_buffers(monkeypatch)
        fresh, fresh_buffers, fresh_kernels = self.swept(monkeypatch, workers, keep=False)
        assert len(reused) == len(fresh) == 27
        for (labels, scores), (fresh_labels, fresh_scores) in zip(reused, fresh):
            assert labels.tobytes() == fresh_labels.tobytes()
            assert scores.tobytes() == fresh_scores.tobytes()
        # 9 graphs x 3 alphas, each a full graph and a step-1 subgraph
        assert len(buffers) == len(fresh_buffers) == 54
        assert len({id(b) for b in buffers}) <= 2
        # each graph's one kernel is lent too, and with the systems' takes
        # a third buffer at most
        assert len(kernels) == len(fresh_kernels) == 9
        assert all(k is not None for k in kernels) and fresh_kernels == [None] * 9
        assert len({id(b) for b in buffers + kernels}) <= 3
        n = len(first_seed7_dev_household().utterances)
        assert all(b.size == n * n for b in buffers + kernels)

    def test_a_returned_system_factors_again(self):
        # LP at 0.5 returns its system's buffer; LP at 0.9 fills its own
        # system in it, so a solve at 0.5 must factor again, not read it
        household = build_household_graph_for(tiny_val(0)[0], LOCAL_2LP)
        spare = []
        low, high = PropagationConfig(alpha=0.5), PropagationConfig(alpha=0.9)
        schedule = propagation_module.SolveSchedule(household, [("LP", low), ("LP", high)],
                                                    spare)
        system = schedule._system_of(household, low)
        schedule.predict("LP", low)
        assert system.factored is None and len(spare) == 1
        schedule.predict("LP", high)
        y0 = propagation_module.init_label_matrix(household)
        expected = household.fused.system(0.5).solve(y0)
        assert system.solve(y0).tobytes() == expected.tobytes()

    def test_predict_keeps_its_count(self):
        household = build_household_graph_for(tiny_val(0)[0], LOCAL_2LP)
        cfg = PropagationConfig(alpha=0.9)
        schedule = propagation_module.SolveSchedule(household, [("2LP", cfg), ("LP", cfg)])
        schedule.predict("2LP", cfg)
        for method, config in (("2LP", cfg), ("2LPEA", cfg), ("LP", replace(cfg, alpha=0.5))):
            with pytest.raises(StructuralError, match=re.escape(f"({method!r}, {config})")):
                schedule.predict(method, config)
        assert schedule._systems  # LP at 0.9 is still to run
        schedule.predict("LP", cfg)
        assert not schedule._systems
        with pytest.raises(StructuralError, match="is not scheduled"):
            schedule.predict("LP", cfg)

    @pytest.mark.parametrize("name", ["single-view", "multi-view", "sweep", "large-household"])
    def test_peak_memory_no_higher(self, monkeypatch, name):
        # The tracemalloc peak of one household through evaluate_methods on
        # the workload's spec list at TINY sizes (n = 76), with and without
        # spare buffers: the least of three runs after one untraced run, as
        # Python's own allocations add up to 3 KB to some runs. On one allowed
        # CPU: under the pool the peak moves with how the threads interleave
        # numpy's ufunc buffers, some 128 KB, or 2.8 n^2 at this size. The
        # bound, 0.25 n^2 or 11.6 KB, allows the list and its array views
        # (0.5 to 5.2 KB measured, whatever n is) but no n x n buffer, 46 KB.
        harness = perfbench_harness()
        workload = harness.WORKLOADS[name]
        specs = workload_specs(workload)
        dev, val = generate_dataset(SimulationConfig(
            seed=7, **{**workload.simulation, **harness.TINY}))
        household = (dev if workload.split == "dev" else val)[0]
        has_spare = name != "single-view"  # one graph at one alpha
        assert (evaluate_module.HouseholdStages(household, specs).spare is not None) == has_spare

        with allowed_cpus(1):
            reused = traced_peak(lambda: evaluate_methods([household], specs))
            no_spare_buffers(monkeypatch)
            fresh = traced_peak(lambda: evaluate_methods([household], specs))
        n2_bytes = 8 * len(household.utterances) ** 2
        assert reused <= fresh + 0.25 * n2_bytes

    def test_run_method_keeps_no_spare_buffers(self):
        household = tiny_val(0)[0]
        for spec in MULTI_VIEW_SPECS + [LOCAL_2LP]:
            assert evaluate_module.HouseholdStages(household, [spec]).spare is None


def traced_peak(run):
    """tracemalloc's peak bytes over run(): the least of three runs after one
    untraced run, as Python's own allocations add up to 3 KB to some runs."""
    run()
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


@functools.cache
def first_seed7_multi_view_household():
    harness = perfbench_harness()
    return generate_dataset(SimulationConfig(
        seed=7, **harness.WORKLOADS["multi-view"].simulation))[1][0]


@functools.cache
def household_of_size(unlabeled, duplicates=False):
    """The first val household of tiny_dataset with ``unlabeled`` unlabeled
    utterances (n = 18 + unlabeled), and with ``duplicates``, a fresh copy
    whose first eight nodes in graph order share one voice and one face vector."""
    household = tiny_dataset(unlabeled_per_household=unlabeled, utterances_per_speaker=200)[1][0]
    if duplicates:
        household = copy.deepcopy(household)
        first, *rest = household.ordered()[:8]
        for record in rest:
            record.views = {name: vector.copy() for name, vector in first.views.items()}
    return household


class TestPeakMemory:
    """Per-spec tracemalloc peaks through run_method on one allowed CPU, in
    n^2 doubles. Each kernel is built in its distances' buffer, edge pooling
    accumulates in the first view's kernel, and the power-mean routes build
    no n x n temporaries: the arithmetic mean accumulates in the first
    shifted Laplacian, infinity norms sum by row blocks. Each bound lies
    between the peak measured without those changes and with them, the two
    figures in each comment; numpy's ufunc buffers, some 128 KB, are 0.12 n^2
    at n = 368."""

    @pytest.mark.parametrize("index, bound", [
        (0, 3.65),  # 2LP, edge pool of voice, face and session: 4.10 -> 3.23
        (1, 4.7),   # LP, power mean at p = 1: 5.22 -> 4.22
        (2, 4.7),   # LP, harmonic (p = -1): 5.10 -> 4.35
        (3, 6.2),   # 2LP, harmonic (p = -1): 6.48 -> 5.89
    ], ids=["2LP-edge-pool", "LP-p1", "LP-p-1", "2LP-p-1"])
    def test_multi_view_specs(self, index, bound):
        household = first_seed7_multi_view_household()  # n = 368
        spec = perfbench_harness().WORKLOADS["multi-view"].specs[index]
        with allowed_cpus(1):
            peak = traced_peak(lambda: run_method(household, spec))
        assert peak <= bound * 8 * len(household.utterances) ** 2

    def test_edge_pool_above_the_parallel_threshold(self):
        household = household_of_size(530)  # n = 548, row blocks on the pool where allowed
        assert len(household.utterances) >= graph_module._PARALLEL_MIN_ROWS
        spec = perfbench_harness().WORKLOADS["multi-view"].specs[0]
        with allowed_cpus(1):
            peak = traced_peak(lambda: run_method(household, spec))
        assert peak <= 3.6 * 8 * len(household.utterances) ** 2  # 4.07 -> 3.12

    @pytest.mark.parametrize("index, workers, bound", [
        # the last system is filled in W itself
        (1, 1, 1.7),    # LP, voice: 2.07 -> 1.36
        (1, 2, 1.7),    # 2.08 -> 1.24 to 1.36
        # on one CPU step 1's m x m system beside W is the peak (m = n - 12);
        # on two, step 2's factor no longer takes a third n x n array
        (2, 1, 2.055),  # 2LP, voice: 2.078 -> 2.030
        (2, 2, 2.6),    # 3.04 -> 2.16
        # and the views of an edge pool fold into the first as each is built
        (3, 1, 2.75),   # 2LP, edge pool of voice, face and session: 3.09 -> 2.37
        (3, 2, 2.7),    # 3.09 -> 2.25
    ], ids=["LP-voice-1cpu", "LP-voice-2cpu", "2LP-voice-1cpu", "2LP-voice-2cpu",
            "2LP-edge-pool-1cpu", "2LP-edge-pool-2cpu"])
    def test_large_household_specs_own_their_graph(self, index, workers, bound):
        # n = 548: every n x n pass by row blocks on the pool where allowed,
        # views one after another, and on two CPUs 2LP's step 2 factored ahead
        household = household_of_size(530)
        spec = perfbench_harness().WORKLOADS["large-household"].specs[index]
        with allowed_cpus(workers):
            peak = traced_peak(lambda: run_method(household, spec))
        assert peak <= bound * 8 * len(household.utterances) ** 2


def graph_bytes(fused):
    """The bytes of everything a fused graph holds that a solve may read."""
    arrays = [*fused.weights, fused.operator, fused.inv_sqrt_degrees, *fused.factors]
    return [None if a is None else a.tobytes() for a in arrays]


# Under PERFBENCH_LOCAL: single view, an edge pool, a power mean that keeps an
# explicit operator, and a harmonic mean whose one alpha takes the H route
# (61 CG steps at shift 0.01 and alpha 0.9)
OWNED_RULES = {"single view": SingleView("voice"),
               "edge pool": EdgePoolFusion(("voice", "face", "session")),
               "p = 1": PowerMeanFusion(("voice", "face"), p=1.0),
               "harmonic, H route": PowerMeanFusion(("voice", "face"), p=-1.0, shift=0.01)}


class TestCallerGraphsStayIntact:
    """A graph that a caller built is the caller's: the public entry points
    read it and leave every byte as it was. Only the schedule that
    evaluate builds for a household owning its graphs fills its last system
    in the graph's own array, with the scores of a fresh one, bitwise."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("entry", ["run_lp", "run_2lp", "run_2lpea", "schedule", "factor"])
    @pytest.mark.parametrize("rule", OWNED_RULES)
    def test_public_entry_points_leave_the_graph_intact(self, rule, entry, workers):
        household = household_of_size(100)
        spec = perfbench_lp("2LP", OWNED_RULES[rule])
        cfg = spec.propagation
        graph = build_household_graph_for(household, spec)
        embeddings = evaluate_module.HouseholdStages(household, [spec])._matrix("voice")
        before = graph_bytes(graph.fused)
        run = {
            "run_lp": lambda: run_lp(graph, cfg),
            "run_2lp": lambda: run_2lp(graph, cfg),
            "run_2lpea": lambda: run_2lpea(graph, embeddings, cfg),
            "schedule": lambda: [propagation_module.SolveSchedule(
                graph, [("LP", cfg), ("2LP", cfg)]).predict(method, cfg)
                for method in ("LP", "2LP")],
            "factor": lambda: graph.fused.system(cfg.alpha).factor(),
        }[entry]
        with allowed_cpus(workers):
            first = run()
            second = run()  # on the graph as the first call left it
        assert graph_bytes(graph.fused) == before
        if entry.startswith("run_"):
            assert first.scores.tobytes() == second.scores.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("unlabeled", [350, 530], ids=["n=368", "n=548"])
    @pytest.mark.parametrize("rule", OWNED_RULES)
    def test_run_method_scores_equal_a_caller_graphs(self, rule, unlabeled, workers):
        household = household_of_size(unlabeled)
        with allowed_cpus(workers):
            for method, run in (("LP", run_lp), ("2LP", run_2lp)):
                spec = perfbench_lp(method, OWNED_RULES[rule])
                pred, _ = run_method(household, spec)
                expected = run(build_household_graph_for(household, spec), spec.propagation)
                assert pred.labels.tobytes() == expected.labels.tobytes()
                assert pred.scores.tobytes() == expected.scores.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["LP", "2LP"])
    @pytest.mark.parametrize("rule", OWNED_RULES)
    def test_run_method_fills_the_last_system_in_the_graph(self, monkeypatch, rule, method,
                                                           workers):
        # W, or the explicit operator, holds the full graph's factor; the H
        # route solves with H, so its factor takes an array of its own
        graphs, factored = [], []  # the arrays factored after the graph was built
        build, potrf = evaluate_module.build_household_graph, fusion_module._potrf

        def built(*args):
            graphs.append(build(*args))
            factored.clear()  # a harmonic graph's view factors
            return graphs[-1]
        monkeypatch.setattr(evaluate_module, "build_household_graph", built)
        monkeypatch.setattr(fusion_module, "_potrf", lambda a: factored.append(a) or potrf(a))
        household = household_of_size(100)
        with allowed_cpus(workers):
            run_method(household, perfbench_lp(method, OWNED_RULES[rule]))
        [graph] = graphs
        fused, n = graph.fused, graph.n
        full = [a for a in factored if a.shape == (n, n)]
        source = fused.weights[0] if fused.operator is None else fused.operator
        assert len(full) == 1 and (full[0] is source) == (not fused.harmonic)


def recorded_distances(monkeypatch):
    """Every ViewDistances that evaluate builds, in order."""
    made = []

    class Recorded(ViewDistances):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
    monkeypatch.setattr(evaluate_module, "ViewDistances", Recorded)
    return made


class TestKernelInDistanceBuffer:
    """Where a household keeps no distances for a view, its kernel is built
    in their buffer, bitwise the public affinity, and an edge pool
    accumulates in the first view's kernel; kept distances stay whole."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("unlabeled", [100, 530], ids=["n=118", "n=548"])
    @pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicates"])
    @pytest.mark.parametrize("unit_normalize", [False, True], ids=["raw", "unit"])
    @pytest.mark.parametrize("rule", [UniversalScaling(0.7), CohortScaling({"random": 1.3}),
                                      LocalScaling(k=5, s=0.8)],
                             ids=["universal", "cohort", "local"])
    def test_single_view(self, monkeypatch, rule, unit_normalize, duplicates, unlabeled,
                         workers):
        household = household_of_size(unlabeled, duplicates=duplicates)
        spec = MethodSpec("LP", scaling=rule, fusion=SingleView("voice"),
                          unit_normalize=unit_normalize)
        made = recorded_distances(monkeypatch)
        stages = evaluate_module.HouseholdStages(household, [spec])
        view = EmbeddingView("voice", stages._matrix("voice", unit_normalize))
        with allowed_cpus(workers), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegeneracyWarning)
            w = evaluate_module.build_household_graph(stages, spec).fused.weights[0]
            expected = affinity(view, rule, household.group).w
        assert len(made) == 1 and w is made[0].dist
        assert w.tobytes() == expected.tobytes()
        # the zero-bandwidth mask ran where eight nodes coincide
        zero_bandwidth = any("zero bandwidth" in str(c.message) for c in caught)
        assert zero_bandwidth == (duplicates and isinstance(rule, LocalScaling))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("unlabeled", [100, 530], ids=["n=118", "n=548"])
    @pytest.mark.parametrize("views", [("voice", "face", "session"), ("session", "face", "voice"),
                                       ("face", "voice", "face")])
    def test_edge_pool(self, monkeypatch, views, unlabeled, workers):
        household = household_of_size(unlabeled, duplicates=True)
        rule = LocalScaling(k=5, s=0.8)
        spec = MethodSpec("2LP", scaling=rule, fusion=EdgePoolFusion(views))
        made = recorded_distances(monkeypatch)
        stages = evaluate_module.HouseholdStages(household, [spec])
        kernels = {"session": session_affinity([r.session_id for r in stages.records],
                                               spec.session_sigma)}
        with allowed_cpus(workers), warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            for name in ("voice", "face"):
                kernels[name] = affinity(EmbeddingView(name, stages._matrix(name)), rule)
            fused = evaluate_module.build_household_graph(stages, spec).fused
        expected = edgepool_fuse([kernels[name].w for name in views])
        assert fused.weights[0].tobytes() == expected.tobytes()
        assert any(fused.weights[0] is d.dist for d in made) == (views[0] != "session")

    def test_kept_distances_stay_whole(self, monkeypatch):
        # two graph groups read voice: its kernels go to a lent buffer or a
        # new array, and the distances the second group reads are intact
        household = household_of_size(100)
        specs = [LOCAL_2LP, replace(LOCAL_2LP, scaling=LocalScaling(k=3, s=0.5),
                                    fusion=EdgePoolFusion(("voice", "face")))]
        made = recorded_distances(monkeypatch)
        stages = evaluate_module.HouseholdStages(household, specs)
        for spec in specs:
            w = evaluate_module.build_household_graph(stages, spec).fused.weights[0]
            assert not np.shares_memory(w, made[0].dist)
        voice = made[0]
        assert stages._distances[("voice", False)] is voice
        expected = pairwise_distances(EmbeddingView("voice", stages._matrix("voice")))
        assert voice.dist.tobytes() == expected.tobytes()


def build_household_graph_for(household, spec):
    return evaluate_module.build_household_graph(
        evaluate_module.HouseholdStages(household, [spec]), spec)


class TestPowerOfTwoInvariance:
    """Local scaling and cosine scoring are scale-free, and multiplying a view
    by a power of two is exact, so labels and scores must not move by a bit.
    The exponents stop at +-480: for data of unit scale, squared entries and
    distances then stay normal floats (2^+-960 lies inside [2^-1022, 2^1024)),
    and every row norm stays inside the range where _normalize_rows takes its
    plain path, so no step rounds differently from the unscaled run."""

    def assert_invariant(self, household, spec, exponent):
        base, _ = run_method(household, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, _ = run_method(rescaled(household, exponent), spec)
        assert np.array_equal(result.labels, base.labels)
        assert np.array_equal(result.scores, base.scores)

    @pytest.mark.parametrize("method, fusion", [
        ("LP", SingleView("voice")),
        ("2LP", EdgePoolFusion(("voice", "face", "session"))),
        ("LP", PowerMeanFusion(("voice", "face"), p=-1.0)),
    ], ids=["LP-voice", "2LP-edge-pool", "LP-power-mean-minus-1"])
    @pytest.mark.parametrize("exponent", [-480, -60, -25, -24, -20, 480])
    def test_seed7_labels_survive_small_and_large_scales(self, method, fusion, exponent):
        # an absolute bandwidth floor once changed up to 31 of the 40 labels
        # here from 2^-24 down, and one already at 2^-20
        spec = MethodSpec(method=method, scaling=LocalScaling(k=5, s=1.0), fusion=fusion)
        self.assert_invariant(first_seed7_val_household(), spec, exponent)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(method=st.sampled_from(METHODS), fusion=st.sampled_from(SCALE_FREE_FUSIONS),
           k=st.integers(1, 10), s=st.floats(0.1, 4.0), unit_normalize=st.booleans(),
           exponent=st.integers(-480, 480), seed=st.integers(0, 2))
    def test_every_method_is_bitwise_scale_free(self, method, fusion, k, s, unit_normalize,
                                                exponent, seed):
        if method in BASELINE_METHODS:
            spec = MethodSpec(method=method, view=fusion.view_names[0],
                              unit_normalize=unit_normalize)
        else:
            spec = MethodSpec(method=method, scaling=LocalScaling(k=k, s=s), fusion=fusion,
                              unit_normalize=unit_normalize)
        for household in tiny_val(seed):
            self.assert_invariant(household, spec, exponent)


@st.composite
def degenerate_datasets(draw):
    """One or two tiny households: one to three enrolled speakers, which can
    leave one class; an unlabeled pool that can be empty; held-out utterances
    that can be missing; and every embedding drawn from a pool of at most
    three vectors, so that duplicates abound."""
    values = st.sampled_from([0.0, 1.0, -1.0, 0.5])
    pools = {name: draw(st.lists(st.lists(values, min_size=2, max_size=2),
                                 min_size=1, max_size=3))
             for name in ("voice", "face")}
    households = []
    for h in range(draw(st.integers(1, 2))):
        speakers = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
        roles = [("enrolled", spk) for spk in speakers for _ in range(draw(st.integers(1, 2)))]
        roles += [("unlabeled", None)] * draw(st.integers(0, 3))
        roles += [("heldout", spk) for spk in speakers for _ in range(draw(st.integers(0, 2)))]
        households.append(HouseholdDataset(f"h{h}", "random", [
            UtteranceRecord(utt_id=f"h{h}u{i}", household_id=f"h{h}", role=role, speaker=spk,
                            session_id=f"h{h}u{i}",
                            views={name: draw(st.sampled_from(pool))
                                   for name, pool in pools.items()})
            for i, (role, spk) in enumerate(roles)]))
    return households


DEGENERATE_FUSIONS = (SingleView("voice"), EdgePoolFusion(("voice", "face")),
                      PowerMeanFusion(("voice", "face"), p=-1.0),
                      PowerMeanFusion(("voice", "face"), p=2.0))


class TestDegenerateHouseholds:
    @pytest.mark.parametrize("min_rows", [2, sys.maxsize], ids=["row blocks", "view tasks"])
    def test_every_method_ends_in_a_report_or_a_typed_error(self, min_rows):
        # Every outcome of all seven methods, in any order, on degenerate
        # households is a report or a SpeakerGraphError, with no RuntimeWarning
        # (the test filters raise it) and no hang, with allow_skip on and off
        # and with 2LP's step-2 factorization (where no LP before it factored
        # the same system) and every row block, or else every view task after
        # each graph's first, on a thread pool.
        background = []
        real = fusion_module._potrf

        def spy(a):
            if threading.current_thread() is not runner[-1]:
                background.append(a.shape[0])
            return real(a)

        runner = []

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(households=degenerate_datasets(), fusion=st.sampled_from(DEGENERATE_FUSIONS),
               scaling=st.sampled_from([LocalScaling(k=1, s=1.0), LocalScaling(k=2, s=0.5),
                                        UniversalScaling(0.5)]),
               alpha=st.sampled_from([0.5, 0.9, 0.99]),
               solver=st.sampled_from(["auto", "iterative"]), allow_skip=st.booleans(),
               methods=st.permutations(METHODS))
        def check(households, fusion, scaling, alpha, solver, allow_skip, methods):
            propagation = PropagationConfig(alpha=alpha, solver=solver)
            specs = [MethodSpec(method=m) if m in BASELINE_METHODS else
                     MethodSpec(method=m, scaling=scaling, fusion=fusion, propagation=propagation)
                     for m in methods]
            outcome = []

            def run():
                try:
                    outcome.append(evaluate_methods(households, specs, allow_skip=allow_skip))
                except SpeakerGraphError as exc:
                    outcome.append(exc)
                except BaseException as exc:  # re-raised below, on the test's thread
                    outcome.append(("defect", exc))

            runner.append(threading.Thread(target=run, daemon=True))
            runner[-1].start()
            runner[-1].join(60.0)
            assert outcome, "evaluate_methods did not finish within 60 s"
            if isinstance(outcome[0], tuple):
                raise outcome[0][1]

        with mock.patch.multiple(graph_module, _PARALLEL_MIN_ROWS=min_rows, _MIN_BLOCK_ROWS=1,
                                 _pool=None, _allowed_cpus=lambda: 2), \
                mock.patch.dict("os.environ", {"OPENBLAS_NUM_THREADS": "1"}), \
                mock.patch.object(fusion_module, "_potrf", spy), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            try:
                check()
            finally:
                if graph_module._pool is not None:
                    graph_module._pool.shutdown()
        assert background, "no step-2 factorization ran on the pool"
