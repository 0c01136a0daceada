"""Acceptance suite.

Each criterion computes its condition, prints one PASS/FAIL line (run with
-s to see them), then asserts. The directional criteria share one lazily
built collection of confusable-household datasets (20 seeds x 3 households,
L=2, U=320, 10 held-out per speaker) plus hyperparameters tuned on a
separate random-household dev set, mirroring the tune-on-random protocol.
"""

import json
import time

import numpy as np

from speakergraph import (
    AffinityMatrix,
    EdgePoolFusion,
    EmbeddingView,
    HouseholdGraph,
    LaplacianMatrix,
    LocalScaling,
    MethodSpec,
    PowerMeanFusion,
    PropagationConfig,
    SimulationConfig,
    SingleView,
    UniversalScaling,
    affinity,
    edgepool_fuse,
    evaluate,
    fuse,
    generate_dataset,
    normalized_laplacian,
    pml_fuse,
    propagate,
    propagation_operator,
    relative_improvement,
    run_2lp,
    run_cs,
    run_csea,
    run_2cs,
    run_2csea,
    init_label_matrix,
    sweep,
)
from speakergraph.cli import main

P_GRID = (-5.0, -2.0, -1.0, 1.0, 2.0, 5.0)
SEEDS = range(1, 21)          # 20 seeds x 3 households = 60 hard households


def check(num, name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert condition, f"criterion {num}: {name} ({detail})"


def random_household_graph(rng):
    n = int(rng.integers(8, 51))
    c = int(rng.integers(2, 5))
    labeled = max(c, int(rng.integers(c, max(c + 1, n // 4))))
    heldout = int(rng.integers(1, max(2, n // 5)))
    unlabeled = n - labeled - heldout
    labels = np.concatenate([np.arange(c), rng.integers(0, c, size=labeled - c)])
    view = EmbeddingView.from_vectors("voice", rng.normal(size=(n, 3)))
    w = affinity(view, UniversalScaling(float(rng.uniform(0.8, 2.0))))
    fused = fuse({"voice": w}, SingleView("voice"))
    return HouseholdGraph(fused=fused, labels=labels, n_unlabeled=unlabeled,
                          n_heldout=heldout, class_count=c), w


# ---------------------------------------------------------------------------
# Directional suite shared by criteria 7, 8, 9
# ---------------------------------------------------------------------------

def directional_config(seed):
    return SimulationConfig(seed=seed, households_per_group=3, groups=("hard",),
                            between_speaker_spread=1.2, face_outlier_rate=0.1,
                            face_within_sigma=0.4)


class DirectionalSuite:
    """Datasets and tuned hyperparameters for the comparative criteria."""

    def __init__(self):
        self._datasets = None
        self._tuned = None
        self._cache = {}

    @property
    def datasets(self):
        if self._datasets is None:
            households = []
            for seed in SEEDS:
                dev, val = generate_dataset(directional_config(seed))
                households.append(dev + val)
            self._datasets = households
        return self._datasets

    @property
    def tuned(self):
        """(sigma*, k*, s*) optimized on a random-household dev set."""
        if self._tuned is None:
            cfg = SimulationConfig(seed=1000, households_per_group=6,
                                   groups=("random",), between_speaker_spread=1.2)
            dev, val = generate_dataset(cfg)
            tuning = dev + val
            uni = MethodSpec(method="2LP", scaling=UniversalScaling(1.0),
                             fusion=SingleView("voice"))
            sigma = sweep(tuning, {"scaling.sigma": [1.0, 1.5, 2.0, 2.5,
                                                     3.0, 4.0, 5.0]},
                          uni).best_params["scaling.sigma"]
            loc = MethodSpec(method="2LP", scaling=LocalScaling(k=20, s=0.5),
                             fusion=SingleView("voice"))
            best = sweep(tuning, {"scaling.k": [10, 20, 40],
                                  "scaling.s": [0.3, 0.5, 1.0]}, loc).best_params
            self._tuned = (sigma, best["scaling.k"], best["scaling.s"])
        return self._tuned

    def micro(self, label, spec):
        """Pooled micro-SIER of one method over the whole suite."""
        if label not in self._cache:
            errors, total = 0, 0
            for households in self.datasets:
                report = evaluate(households, spec)
                e, t = report.counts()
                errors += e
                total += t
            self._cache[label] = (errors, total)
        e, t = self._cache[label]
        return e / t

    def local_rule(self):
        _, k, s = self.tuned
        return LocalScaling(k=k, s=s)


SUITE = DirectionalSuite()


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_solver_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap, worst_grad = 0.0, 0.0
    for _ in range(100):
        graph, w = random_household_graph(rng)
        y0 = init_label_matrix(graph)
        for alpha in (0.5, 0.9, 0.99):
            closed = propagate(graph, y0, PropagationConfig(
                alpha=alpha, solver="closed_form"))
            iterative = propagate(graph, y0, PropagationConfig(
                alpha=alpha, solver="iterative", tol=1e-9, max_iter=50000))
            assert iterative.converged
            worst_gap = max(worst_gap,
                            float(np.linalg.norm(closed.y - iterative.y)))
            lam = alpha / (1.0 - alpha)
            lap = np.eye(graph.n) - propagation_operator(w.w)
            grad = 2 * (closed.y - y0) + 2 * lam * (lap @ closed.y)
            worst_grad = max(worst_grad, float(np.abs(grad).max()))
    elapsed = time.perf_counter() - start
    check(1, "solver equivalence",
          worst_gap < 1e-6 and worst_grad < 1e-8 and elapsed < 10.0,
          f"max Frobenius gap {worst_gap:.2e}, max gradient {worst_grad:.2e}, "
          f"{elapsed:.1f}s over 100 households x 3 alphas")


def test_criterion_02_power_mean_identities():
    rng = np.random.default_rng(7)

    def rand_laplacian(n=9):
        view = EmbeddingView.from_vectors("v", rng.normal(size=(n, 3)))
        return normalized_laplacian(affinity(view, UniversalScaling(1.0)).w)

    laps = [rand_laplacian() for _ in range(3)]
    mean_gap = np.abs(pml_fuse(laps, 1.0, 0.0).l
                      - sum(l.l for l in laps) / 3).max()

    diag_gap = 0.0
    d1, d2 = np.array([0.3, 1.0, 2.0]), np.array([0.8, 0.4, 1.7])
    for p in P_GRID:
        fused = pml_fuse([LaplacianMatrix(np.diag(d1)),
                          LaplacianMatrix(np.diag(d2))], p, 0.0)
        scalar = ((d1 ** p + d2 ** p) / 2.0) ** (1.0 / p)
        diag_gap = max(diag_gap, float(np.abs(fused.l - np.diag(scalar)).max()))

    single_gap = 0.0
    lap = rand_laplacian()
    for p in P_GRID:
        single_gap = max(single_gap,
                         float(np.abs(pml_fuse([lap], p, 0.0).l - lap.l).max()))

    check(2, "power-mean identities",
          mean_gap < 1e-10 and diag_gap < 1e-8 and single_gap < 1e-8,
          f"p=1 mean gap {mean_gap:.2e}, diagonal gap {diag_gap:.2e}, "
          f"single-view gap {single_gap:.2e}")


def test_criterion_03_edgepool_algebra():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        def rand_w():
            upper = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
            return AffinityMatrix(upper + upper.T).w
        a, b = rand_w(), rand_w()
        fused = edgepool_fuse([a, b])
        ok &= np.array_equal(edgepool_fuse([a, a]), a)
        ok &= np.array_equal(fused, edgepool_fuse([b, a]))
        ok &= bool(np.all(fused >= a) and np.all(fused >= b))
        ok &= np.array_equal(fused, np.maximum(a, b))
        if not ok:
            break
    check(3, "edge-pool algebra", ok,
          "idempotent, commutative, monotone, exact max on 1000 random pairs")


def test_criterion_04_local_scaling_invariance():
    rng = np.random.default_rng(31)
    rule = LocalScaling(k=5, s=0.5)
    cfg = PropagationConfig()
    affinity_gap = 0.0
    prediction_mismatch = 0
    universal_changed = 0
    for _ in range(50):
        n_cls = 3
        centers = rng.normal(scale=2.0, size=(n_cls, 4))
        rows = np.vstack([centers[c] + rng.normal(scale=1.0, size=(10, 4))
                          for c in range(n_cls)])
        order = np.concatenate([np.arange(0, 30, 10), np.arange(30)])
        emb = np.vstack([rows[order[:3]], rows])
        labels = np.arange(3)

        def predictions(vectors, scaling):
            view = EmbeddingView.from_vectors("voice", vectors)
            fused = fuse({"voice": affinity(view, scaling)}, SingleView("voice"))
            graph = HouseholdGraph(fused=fused, labels=labels, n_unlabeled=24,
                                   n_heldout=6, class_count=3)
            return run_2lp(graph, cfg).labels

        base_w = affinity(EmbeddingView.from_vectors("voice", emb), rule).w
        base_pred = predictions(emb, rule)
        base_uni = predictions(emb, UniversalScaling(1.0))
        for c in (0.1, 10.0):
            scaled_w = affinity(EmbeddingView.from_vectors("voice", emb * c), rule).w
            affinity_gap = max(affinity_gap, float(np.abs(scaled_w - base_w).max()))
            if not np.array_equal(predictions(emb * c, rule), base_pred):
                prediction_mismatch += 1
        # shrinking (c=0.1) keeps the universal graph non-degenerate; growing
        # by 10 underflows exp(-(10 d)^2) and disconnects nodes
        if not np.array_equal(predictions(emb * 0.1, UniversalScaling(1.0)),
                              base_uni):
            universal_changed += 1
    check(4, "local-scaling invariance",
          affinity_gap < 1e-9 and prediction_mismatch == 0 and universal_changed >= 1,
          f"max affinity drift {affinity_gap:.2e}, prediction mismatches "
          f"{prediction_mismatch}, universal-rule predictions changed in "
          f"{universal_changed}/50 households")


def test_criterion_05_baseline_oracles():
    def cos(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        return 0.0 if na == 0.0 or nb == 0.0 else float(a @ b / (na * nb))

    def oracle_cs(labeled, classes, heldout, c_count):
        scores = np.array([[np.mean([cos(h, e)
                                     for e, cl in zip(labeled, classes) if cl == c])
                            for c in range(c_count)] for h in heldout])
        return scores.argmax(axis=1), scores

    def oracle_csea(labeled, classes, heldout, c_count):
        means = [np.mean([e for e, cl in zip(labeled, classes) if cl == c], axis=0)
                 for c in range(c_count)]
        scores = np.array([[cos(h, m) for m in means] for h in heldout])
        return scores.argmax(axis=1), scores

    rng = np.random.default_rng(17)
    score_gap = 0.0
    exact = True
    for _ in range(20):
        labeled = rng.normal(size=(4, 3))
        classes = np.array([0, 0, 1, 1])
        unlabeled = rng.normal(size=(4, 3))
        heldout = rng.normal(size=(4, 3))

        for runner, oracle, two_step in ((run_cs, oracle_cs, False),
                                         (run_csea, oracle_csea, False),
                                         (run_2cs, oracle_cs, True),
                                         (run_2csea, oracle_csea, True)):
            if two_step:
                out = runner(labeled, classes, unlabeled, heldout, 2)
                pseudo, _ = oracle(labeled, classes, unlabeled, 2)
                ext = np.vstack([labeled, unlabeled])
                ext_cls = np.concatenate([classes, pseudo])
                preds, scores = oracle(ext, ext_cls, heldout, 2)
            else:
                out = runner(labeled, classes, heldout, 2)
                preds, scores = oracle(labeled, classes, heldout, 2)
            exact &= np.array_equal(out.labels, preds)
            score_gap = max(score_gap, float(np.abs(out.scores - scores).max()))
    check(5, "baseline oracles", exact and score_gap < 1e-12,
          f"predictions exact on 20 tiny households, score gap {score_gap:.2e}")


def test_criterion_06_published_improvement_arithmetic():
    value = 100.0 * relative_improvement(1.44, 0.92)
    check(6, "relative-improvement arithmetic", abs(value - 36.1) < 0.1,
          f"(1.44 - 0.92) / 1.44 = {value:.2f}%, published 36.1%")


def test_criterion_07_local_scaling_beats_tuned_universal():
    start = time.perf_counter()
    sigma, k, s = SUITE.tuned
    local = SUITE.micro("2lp-local", MethodSpec(
        method="2LP", scaling=SUITE.local_rule(), fusion=SingleView("voice")))
    universal = SUITE.micro("2lp-universal", MethodSpec(
        method="2LP", scaling=UniversalScaling(sigma), fusion=SingleView("voice")))
    baselines = {name: SUITE.micro(f"baseline-{name}", MethodSpec(method=name))
                 for name in ("CS", "CSEA", "2CS", "2CSEA")}
    best_baseline = min(baselines.values())
    elapsed = time.perf_counter() - start
    check(7, "confusable households favor local scaling",
          local <= universal and local <= best_baseline and elapsed < 300.0,
          f"2LP local {100 * local:.2f}% <= universal(sigma={sigma}) "
          f"{100 * universal:.2f}% and <= best baseline {100 * best_baseline:.2f}% "
          f"(60 households, 20 seeds, {elapsed:.0f}s)")


def test_criterion_08_fusion_beats_single_views():
    start = time.perf_counter()
    rule = SUITE.local_rule()
    voice = SUITE.micro("2lp-local", MethodSpec(
        method="2LP", scaling=rule, fusion=SingleView("voice")))
    face = SUITE.micro("2lp-face", MethodSpec(
        method="2LP", scaling=rule, fusion=SingleView("face")))
    fused = SUITE.micro("2lp-vf-pml", MethodSpec(
        method="2LP", scaling=rule,
        fusion=PowerMeanFusion(("voice", "face"), p=1.0)))
    lpea_face = SUITE.micro("2lpea-face", MethodSpec(
        method="2LPEA", scaling=rule, fusion=SingleView("face")))
    elapsed = time.perf_counter() - start
    check(8, "power-mean fusion and averaging robustness",
          fused <= min(voice, face) and lpea_face <= face and elapsed < 300.0,
          f"V+F {100 * fused:.2f}% <= min(V {100 * voice:.2f}%, F "
          f"{100 * face:.2f}%); 2LPEA-F {100 * lpea_face:.2f}% <= 2LP-F "
          f"{100 * face:.2f}% ({elapsed:.0f}s)")


def test_criterion_09_session_view_never_hurts():
    start = time.perf_counter()
    rule = SUITE.local_rule()
    voice = SUITE.micro("2lp-local", MethodSpec(
        method="2LP", scaling=rule, fusion=SingleView("voice")))
    with_session = SUITE.micro("2lp-vs-pool", MethodSpec(
        method="2LP", scaling=rule,
        fusion=EdgePoolFusion(("voice", "session"))))
    elapsed = time.perf_counter() - start
    check(9, "session constraint adds no errors",
          with_session <= voice,
          f"V+session {100 * with_session:.2f}% <= V {100 * voice:.2f}% "
          f"(20-seed micro average, {elapsed:.0f}s)")


def test_criterion_10_determinism_round_trip(tmp_path):
    cfg = {"schema_version": 1, "seed": 5,
           "simulation": {"seed": 5, "households_per_group": 2,
                          "speakers_per_household": 3,
                          "utterances_per_speaker": 24, "voice_dim": 6,
                          "face_dim": 6, "labeled_per_speaker": 2,
                          "unlabeled_per_household": 12,
                          "heldout_per_speaker": 4,
                          "groups": ["random", "hard"]},
           "method": {"method": "2LP",
                      "scaling": {"kind": "local", "k": 4, "s": 0.8},
                      "fusion": {"kind": "single_view", "view": "voice"}}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        report = tmp_path / f"report_{tag}.json"
        assert main(["evaluate", "--data", str(out / "val.jsonl"),
                     "--config", str(cfg_path), "--method", "CS,2LP",
                     "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    identical = reports[0] == reports[1]
    check(10, "determinism and round-trip", identical,
          "simulate -> save -> load -> evaluate twice gave byte-identical reports")


def test_criterion_11_separable_sanity():
    cfg = SimulationConfig(seed=99, households_per_group=3,
                           speakers_per_household=3, utterances_per_speaker=24,
                           voice_dim=6, face_dim=6, labeled_per_speaker=2,
                           unlabeled_per_household=12, heldout_per_speaker=4,
                           groups=("random",), between_speaker_spread=80.0,
                           within_speaker_sigma=0.05, session_offset_sigma=0.0,
                           face_within_sigma=0.05)
    dev, val = generate_dataset(cfg)
    households = dev + val
    rule = LocalScaling(k=4, s=1.0)
    specs = [MethodSpec(method=name) for name in ("CS", "CSEA", "2CS", "2CSEA")]
    specs += [MethodSpec(method=name, scaling=rule, fusion=SingleView("voice"))
              for name in ("LP", "2LP", "2LPEA")]
    values = {spec.label: evaluate(households, spec).micro_sier()
              for spec in specs}
    check(11, "separable sanity", all(v == 0.0 for v in values.values()),
          "every method at SIER 0: " + ", ".join(
              f"{k}={100 * v:.1f}%" for k, v in values.items()))
