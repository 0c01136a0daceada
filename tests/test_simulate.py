"""Synthetic household generation: determinism, roles, groups, sessions."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from speakergraph import (
    ConfigurationError,
    SimulationConfig,
    StructuralError,
    assemble_cohort_households,
    assemble_hard_households,
    assemble_random_households,
    build_speaker_profiles,
    generate_dataset,
    generate_group,
    generate_speakers,
    mix64,
    split_dev_val,
)
from speakergraph.dataio import save_dataset
from speakergraph.simulate import SpeakerPool, SpeakerRecord, hard_threshold


def small_config(**overrides):
    defaults = dict(seed=0, households_per_group=2, speakers_per_household=3,
                    utterances_per_speaker=24, voice_dim=6, face_dim=6,
                    labeled_per_speaker=2, unlabeled_per_household=12,
                    heldout_per_speaker=4, groups=("random",))
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def pool_from_means(means, utterances=4, **overrides):
    """Hand-built pool with zero noise, one session per speaker."""
    cfg = replace(small_config(households_per_group=1, speakers_per_household=2,
                               utterances_per_speaker=utterances,
                               unlabeled_per_household=2, heldout_per_speaker=1,
                               labeled_per_speaker=1, voice_dim=len(means[0])),
                  **overrides)
    speakers = []
    for i, mean in enumerate(means):
        mean = np.asarray(mean, float)
        speakers.append(SpeakerRecord(
            speaker_id=f"s{i}", cohort="0",
            voice_mean=mean, face_mean=mean,
            voice=np.tile(mean, (utterances, 1)),
            face=np.tile(mean, (utterances, 1)),
            sessions=[f"s{i}-x"] * utterances,
            face_outlier=np.zeros(utterances, dtype=bool)))
    return SpeakerPool(config=cfg, speakers=speakers)


class TestDeterminism:
    def test_same_seed_same_pool(self):
        cfg = small_config(seed=7)
        a = generate_speakers(cfg, pool_size=5)
        b = generate_speakers(cfg, pool_size=5)
        for sa, sb in zip(a.speakers, b.speakers):
            assert np.array_equal(sa.voice, sb.voice)
            assert np.array_equal(sa.face, sb.face)
            assert sa.sessions == sb.sessions

    def test_different_seed_differs(self):
        cfg = small_config(seed=7)
        a = generate_speakers(cfg, pool_size=5)
        b = generate_speakers(replace(cfg, seed=8), pool_size=5)
        assert not np.array_equal(a.speakers[0].voice, b.speakers[0].voice)

    def test_dataset_is_pure_function_of_config(self):
        cfg = small_config(groups=("random", "hard"))
        dev_a, val_a = generate_dataset(cfg)
        dev_b, val_b = generate_dataset(cfg)
        for xs, ys in ((dev_a, dev_b), (val_a, val_b)):
            assert [h.household_id for h in xs] == [h.household_id for h in ys]
            for hx, hy in zip(xs, ys):
                for ux, uy in zip(hx.utterances, hy.utterances):
                    assert ux.utt_id == uy.utt_id
                    assert ux.role == uy.role
                    assert np.array_equal(ux.views["voice"], uy.views["voice"])

    def test_pinned_output_of_cohort_groups_with_face_outliers(self, tmp_path):
        # golden_val.jsonl reaches neither cohort groups, face outliers nor an
        # empty unlabeled pool; this pins the saved bytes of all three
        cfg = SimulationConfig(seed=3, households_per_group=2, speakers_per_household=3,
                               utterances_per_speaker=20, voice_dim=4, face_dim=4,
                               num_cohorts=3, face_outlier_rate=0.3,
                               unlabeled_per_household=0, labeled_per_speaker=2,
                               heldout_per_speaker=3,
                               groups=("cohort:0", "cohort:1", "cohort:2"))
        digest = hashlib.sha256()
        for name, part in zip(("dev", "val"), generate_dataset(cfg)):
            save_dataset(part, tmp_path / name)
            digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == (
            "4706387a82f530d04fc335233ccf1160e8e2b41dec9360b30ab5791a9be38764")

    def test_mix64_spreads(self):
        values = {mix64(0, i) for i in range(1000)}
        assert len(values) == 1000


class TestGeneration:
    def test_zero_noise_collapses_utterances(self):
        cfg = small_config(within_speaker_sigma=0.0, session_offset_sigma=0.0,
                           face_within_sigma=0.0, seed=1)
        pool = generate_speakers(cfg, pool_size=3)
        for spk in pool.speakers:
            assert np.ptp(spk.voice, axis=0).max() == 0.0
            assert np.ptp(spk.face, axis=0).max() == 0.0

    def test_outlier_count_binomial(self):
        cfg = small_config(face_outlier_rate=0.1, utterances_per_speaker=100,
                           unlabeled_per_household=10, heldout_per_speaker=4, seed=2)
        pool = generate_speakers(cfg, pool_size=10)   # 1000 utterances
        count = sum(int(s.face_outlier.sum()) for s in pool.speakers)
        assert 60 <= count <= 140   # ~4.2 sigma around the mean of 100

    def test_outliers_marked_and_changed(self):
        cfg = small_config(face_outlier_rate=0.3, seed=3)
        pool = generate_speakers(cfg, pool_size=4)
        clean = generate_speakers(replace(cfg, face_outlier_rate=0.0), pool_size=4)
        for spk, ref in zip(pool.speakers, clean.speakers):
            changed = np.any(spk.face != ref.face, axis=1)
            assert np.array_equal(changed, spk.face_outlier)

    def test_sessions_have_configured_mean_size(self):
        cfg = small_config(utterances_per_speaker=240, session_mean_size=4.0,
                           unlabeled_per_household=10, heldout_per_speaker=4, seed=4)
        pool = generate_speakers(cfg, pool_size=2)
        sizes = []
        for spk in pool.speakers:
            _, counts = np.unique(spk.sessions, return_counts=True)
            sizes.extend(counts.tolist())
        assert 2.5 < np.mean(sizes) < 6.0


class TestProfiles:
    def test_single_utterance_profile(self):
        pool = pool_from_means([[1.0, 2.0], [3.0, 4.0]], utterances=6)
        profiles = build_speaker_profiles(pool, cap=1)
        assert np.array_equal(profiles[0], [1.0, 2.0])

    def test_cap_uses_first_utterances(self):
        pool = pool_from_means([[1.0, 0.0]], utterances=6)
        pool.speakers[0].voice = np.arange(12, dtype=float).reshape(6, 2)
        profiles = build_speaker_profiles(pool, cap=3)
        assert np.array_equal(profiles[0], pool.speakers[0].voice[:3].mean(axis=0))

    def test_zero_noise_profile_equals_mean(self):
        cfg = small_config(within_speaker_sigma=0.0, session_offset_sigma=0.0, seed=5)
        pool = generate_speakers(cfg, pool_size=2)
        profiles = build_speaker_profiles(pool)
        assert np.allclose(profiles[0], pool.speakers[0].voice_mean)


class TestHardHouseholds:
    def test_threshold_matches_percentile_oracle(self):
        means = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 4.0]]
        pool = pool_from_means(means)
        dists = []
        for i in range(4):
            for j in range(i + 1, 4):
                dists.append(np.linalg.norm(np.subtract(means[i], means[j])))
        assert hard_threshold(build_speaker_profiles(pool)) == pytest.approx(
            np.percentile(dists, 25.0))

    def test_identical_profiles_any_grouping(self):
        pool = pool_from_means([[1.0, 1.0]] * 4, households_per_group=2, seed=3)
        households = assemble_hard_households(pool)
        assert len(households) == 2
        assert sorted(i for hh in households for i in hh) == [0, 1, 2, 3]

    def test_separated_cohorts_give_cohort_pure_households(self):
        cfg = small_config(cohort_offset_scale=50.0, between_speaker_spread=1.0,
                           num_cohorts=2, households_per_group=2,
                           speakers_per_household=3, groups=("hard",), seed=11)
        pool = generate_speakers(cfg, pool_size=12, tag="hard")
        households = assemble_hard_households(pool)
        for members in households:
            cohorts = {pool.speakers[i].cohort for i in members}
            assert len(cohorts) == 1

    def test_within_household_distances_below_threshold(self):
        cfg = small_config(groups=("hard",), households_per_group=2, seed=13)
        pool = generate_speakers(cfg, pool_size=18, tag="hard")
        profiles = build_speaker_profiles(pool)
        tau = hard_threshold(profiles)
        for members in assemble_hard_households(pool):
            for i in members:
                for j in members:
                    if i < j:
                        assert np.linalg.norm(profiles[i] - profiles[j]) <= tau

    def test_unsatisfiable_reports_achieved_count(self):
        cfg = small_config(households_per_group=40, groups=("hard",), seed=17)
        pool = generate_speakers(cfg, pool_size=12, tag="hard")
        with pytest.raises(StructuralError, match="assembled only"):
            assemble_hard_households(pool)


class TestCohortAndRandom:
    def test_cohort_membership(self):
        cfg = small_config(num_cohorts=3, seed=19)
        pool = generate_speakers(cfg, pool_size=18)
        households = assemble_cohort_households(pool, "1")
        for members in households:
            assert all(pool.speakers[i].cohort == "1" for i in members)

    def test_cohort_determinism(self):
        cfg = small_config(num_cohorts=2, seed=23)
        pool = generate_speakers(cfg, pool_size=12)
        assert (assemble_cohort_households(pool, "0")
                == assemble_cohort_households(pool, "0"))

    def test_cohort_insufficient(self):
        cfg = small_config(num_cohorts=2, households_per_group=5, seed=23)
        pool = generate_speakers(cfg, pool_size=8)
        with pytest.raises(StructuralError):
            assemble_cohort_households(pool, "0")

    def test_random_partition_without_replacement(self):
        cfg = small_config(seed=29)
        pool = generate_speakers(cfg, pool_size=6)
        households = assemble_random_households(pool)
        flat = [i for hh in households for i in hh]
        assert len(flat) == len(set(flat)) == 6


class TestSplitAndRoles:
    def test_ratio_one_to_two(self):
        cfg = small_config(households_per_group=3)
        households = generate_group(cfg, "random")
        dev, val = split_dev_val(households, cfg)
        assert len(dev) == 1 and len(val) == 2

    def test_same_seed_same_split(self):
        cfg = small_config(households_per_group=3)
        households = generate_group(cfg, "random")
        a = split_dev_val(households, replace(cfg, seed=5))
        b = split_dev_val(households, replace(cfg, seed=5))
        assert [h.household_id for h in a[0]] == [h.household_id for h in b[0]]

    def test_role_counts_and_conservation(self):
        cfg = small_config()
        for hh in generate_group(cfg, "random"):
            enrolled = hh.by_role("enrolled")
            unlabeled = hh.by_role("unlabeled")
            heldout = hh.by_role("heldout")
            assert len(enrolled) == cfg.labeled_per_speaker * cfg.speakers_per_household
            assert len(unlabeled) == cfg.unlabeled_per_household
            assert len(heldout) == cfg.heldout_per_speaker * cfg.speakers_per_household
            assert len(enrolled) + len(unlabeled) + len(heldout) == len(hh.utterances)
            per_speaker = {}
            for u in enrolled:
                per_speaker[u.speaker] = per_speaker.get(u.speaker, 0) + 1
            assert set(per_speaker.values()) == {cfg.labeled_per_speaker}

    def test_session_purity(self):
        cfg = small_config(groups=("random", "hard"))
        dev, val = generate_dataset(cfg)
        for hh in dev + val:
            owner = {}
            for u in hh.utterances:
                assert owner.setdefault(u.session_id, u.speaker) == u.speaker

    def test_insufficient_utterances_rejected(self):
        with pytest.raises(Exception):
            small_config(utterances_per_speaker=5)

    @pytest.mark.parametrize("overrides, message", [
        ({"speakers_per_household": 1}, "need at least 2 speakers per household"),
        ({"households_per_group": 0}, "need at least 1 household per group"),
        ({"face_outlier_rate": -0.1}, "face_outlier_rate must be in [0, 1]"),
        ({"face_outlier_rate": 1.5}, "face_outlier_rate must be in [0, 1]"),
        ({"num_cohorts": 0}, "need at least 1 cohort"),
        *[({name: -1.0}, f"{name} must be >= 0")
          for name in ("within_speaker_sigma", "between_speaker_spread", "cohort_offset_scale",
                       "session_mean_size", "face_within_sigma", "session_offset_sigma")],
        *[({name: low - 1}, f"{name} must be >= {low}")
          for name, low in (("voice_dim", 1), ("face_dim", 1), ("labeled_per_speaker", 1),
                            ("unlabeled_per_household", 0), ("heldout_per_speaker", 0))],
        ({"face_outlier_blend": (0.0, 1.0)}, "face_outlier_blend must satisfy"),
        ({"face_outlier_blend": (0.8, 0.5)}, "face_outlier_blend must satisfy"),
        ({"face_outlier_blend": (0.5, 1.5)}, "face_outlier_blend must satisfy"),
        ({"utterances_per_speaker": 9}, "utterances_per_speaker must be >= 10"),
        ({"dev_val_ratio": (0, 2)}, "dev_val_ratio parts must be >= 1"),
        ({"dev_val_ratio": (1, 0)}, "dev_val_ratio parts must be >= 1"),
        ({"groups": ()}, "groups must be nonempty and distinct"),
        ({"groups": ("random", "random")}, "groups must be nonempty and distinct"),
    ])
    def test_each_rejection(self, overrides, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            small_config(**overrides)

    def test_group_tags(self):
        cfg = small_config(groups=("random", "hard", "cohort:0"),
                           num_cohorts=2)
        dev, val = generate_dataset(cfg)
        tags = {h.group for h in dev + val}
        assert tags == {"random", "hard", "cohort:0"}
        for hh in dev + val:
            if hh.group == "cohort:0":
                assert all(u.cohort == "0" for u in hh.utterances)
