"""Synthetic multi-view household generator.

Speakers live in cohorts: a cohort center plus per-speaker offset gives each
speaker a mean voice embedding, and utterances scatter around it with
isotropic noise plus a shared per-session offset (recordings from one
session share conditions). The face view is generated analogously with
independent geometry but no cohort shift, matching the angular
discrimination of face-embedding pipelines; a configurable fraction of
utterances gets the face of a uniformly chosen other speaker, modeling
detection of the wrong face.

Household groups: "random" partitions the pool uniformly; "hard" greedily
groups speakers whose profile distances all fall below the 25th percentile
of pooled pairwise profile distances (the most confusable quartile);
"cohort:<id>" samples within one cohort. Everything is a pure function of
the config: every stage reads its seed from the config (a pool carries the
config it was drawn under), and per-stage generators derive from that seed
through a splitmix64 mix, so households can be generated independently.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StructuralError
from .records import (
    GROUP_HARD,
    GROUP_RANDOM,
    ROLE_ENROLLED,
    ROLE_HELDOUT,
    ROLE_UNLABELED,
    HouseholdDataset,
    UtteranceRecord,
    cohort_group,
)

VOICE_VIEW = "voice"
FACE_VIEW = "face"

_MASK64 = (1 << 64) - 1


def mix64(*words: int) -> int:
    """splitmix64 finalizer folded over the given words; seeds sub-generators."""
    x = 0x9E3779B97F4A7C15
    for w in words:
        x = (x + (w & _MASK64) * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 30
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 27
        x = (x * 0x9E3779B97F4A7C15) & _MASK64
        x ^= x >> 31
    return x


def _text_seed(text: str) -> int:
    return mix64(*text.encode("utf-8"))


@dataclass(frozen=True)
class SimulationConfig:
    seed: int = 0
    households_per_group: int = 3
    speakers_per_household: int = 4
    utterances_per_speaker: int = 100
    voice_dim: int = 16
    face_dim: int = 16
    within_speaker_sigma: float = 1.0
    between_speaker_spread: float = 1.2
    cohort_offset_scale: float = 4.0
    num_cohorts: int = 2
    face_outlier_rate: float = 0.0
    face_outlier_blend: tuple[float, float] = (0.3, 1.0)
    face_within_sigma: float = 0.4
    face_unit_norm: bool = True
    session_mean_size: float = 4.0
    session_offset_sigma: float = 0.6
    labeled_per_speaker: int = 2
    unlabeled_per_household: int = 320
    heldout_per_speaker: int = 10
    dev_val_ratio: tuple[int, int] = (1, 2)
    pool_speakers: int | None = None
    groups: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.speakers_per_household < 2:
            raise ConfigurationError("need at least 2 speakers per household")
        if self.households_per_group < 1:
            raise ConfigurationError("need at least 1 household per group")
        if not 0.0 <= self.face_outlier_rate <= 1.0:
            raise ConfigurationError("face_outlier_rate must be in [0, 1]")
        if self.num_cohorts < 1:
            raise ConfigurationError("need at least 1 cohort")
        for name in ("within_speaker_sigma", "between_speaker_spread",
                     "cohort_offset_scale", "session_mean_size", "face_within_sigma",
                     "session_offset_sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        for name, low in (("voice_dim", 1), ("face_dim", 1), ("labeled_per_speaker", 1),
                          ("unlabeled_per_household", 0), ("heldout_per_speaker", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}")
        object.__setattr__(self, "face_outlier_blend", tuple(self.face_outlier_blend))
        lo, hi = self.face_outlier_blend
        if not 0.0 < lo <= hi <= 1.0:
            raise ConfigurationError("face_outlier_blend must satisfy 0 < lo <= hi <= 1")
        # ceiling division in ints: a count may lie beyond the float range
        needed = (self.labeled_per_speaker + self.heldout_per_speaker
                  - (-self.unlabeled_per_household // self.speakers_per_household))
        if self.utterances_per_speaker < needed:
            raise ConfigurationError(
                f"utterances_per_speaker must be >= {needed} to cover "
                f"enrollment, held-out and the unlabeled pool")
        d, v = self.dev_val_ratio
        if d < 1 or v < 1:
            raise ConfigurationError("dev_val_ratio parts must be >= 1")
        if self.groups is None:
            groups = (GROUP_RANDOM, GROUP_HARD) + tuple(
                cohort_group(str(i)) for i in range(self.num_cohorts))
            object.__setattr__(self, "groups", groups)
        elif not self.groups or len(set(self.groups)) < len(self.groups):
            # a repeated group would repeat its household ids
            raise ConfigurationError(
                f"groups must be nonempty and distinct, got {list(self.groups)}")

    def default_pool_size(self, group: str) -> int:
        if self.pool_speakers is not None:
            return self.pool_speakers
        base = self.households_per_group * self.speakers_per_household
        if group == GROUP_HARD:
            return 3 * base  # greedy assembly needs slack beyond the quartile
        if group.startswith("cohort:"):
            return base * self.num_cohorts
        return base


@dataclass
class SpeakerRecord:
    speaker_id: str
    cohort: str
    voice_mean: np.ndarray
    face_mean: np.ndarray
    voice: np.ndarray           # (m, voice_dim)
    face: np.ndarray            # (m, face_dim)
    sessions: list[str]
    face_outlier: np.ndarray    # (m,) bool


@dataclass
class SpeakerPool:
    config: SimulationConfig
    speakers: list[SpeakerRecord] = field(default_factory=list)


def _stage_rng(cfg: SimulationConfig, stage: str) -> np.random.Generator:
    return np.random.default_rng(mix64(cfg.seed, _text_seed(stage)))


def _session_sizes(rng: np.random.Generator, total: int, mean_size: float) -> list[int]:
    """Geometric session sizes with the given mean, truncated to the total."""
    p = 1.0 / max(mean_size, 1.0)
    sizes = []
    left = total
    while left > 0:
        size = min(int(rng.geometric(p)), left)
        sizes.append(size)
        left -= size
    return sizes


def generate_speakers(cfg: SimulationConfig, pool_size: int,
                      tag: str = "pool") -> SpeakerPool:
    """Draw a pool of speakers with voice/face utterances and sessions.

    Cohorts are assigned round-robin; cohort centers are shared within the
    pool. Deterministic given (cfg, pool_size, tag).
    """
    rng = _stage_rng(cfg, tag)
    centers_v = rng.normal(scale=cfg.cohort_offset_scale,
                           size=(cfg.num_cohorts, cfg.voice_dim))
    pool = SpeakerPool(config=cfg)
    m = cfg.utterances_per_speaker
    for i in range(pool_size):
        cohort = i % cfg.num_cohorts
        srng = np.random.default_rng(mix64(cfg.seed, _text_seed(tag), i))
        voice_mean = centers_v[cohort] + srng.normal(
            scale=cfg.between_speaker_spread, size=cfg.voice_dim)
        face_mean = srng.normal(scale=cfg.between_speaker_spread, size=cfg.face_dim)
        sizes = _session_sizes(srng, m, cfg.session_mean_size)
        # one id (one shared string) and one offset per session, repeated over its utterances
        sessions = [sid for j, size in enumerate(sizes)
                    for sid in [f"{tag}-spk{i:04d}-s{j:03d}"] * size]
        session_offsets = np.repeat(srng.normal(scale=cfg.session_offset_sigma,
                                                size=(len(sizes), cfg.voice_dim)), sizes, axis=0)
        voice = (voice_mean + session_offsets
                 + srng.normal(scale=cfg.within_speaker_sigma, size=(m, cfg.voice_dim)))
        face = face_mean + srng.normal(scale=cfg.face_within_sigma,
                                       size=(m, cfg.face_dim))
        if cfg.face_unit_norm:
            face /= np.linalg.norm(face, axis=1, keepdims=True)
        pool.speakers.append(SpeakerRecord(
            speaker_id=f"{tag}-spk{i:04d}", cohort=str(cohort),
            voice_mean=voice_mean, face_mean=face_mean,
            voice=voice, face=face, sessions=sessions,
            face_outlier=np.zeros(m, dtype=bool)))
    _inject_face_outliers(pool, rng)
    return pool


def _inject_face_outliers(pool: SpeakerPool, rng: np.random.Generator) -> None:
    """Corrupt a fraction of face embeddings with another speaker's face.

    An utterance-level face embedding averages several sampled images, so a
    detection failure corrupts only the images where the wrong face won:
    the stored vector becomes a blend (1-b)*own + b*donor with the blend
    weight b drawn from cfg.face_outlier_blend. b = 1 is full replacement.
    """
    cfg = pool.config
    if cfg.face_outlier_rate == 0.0 or len(pool.speakers) < 2:
        return
    lo, hi = cfg.face_outlier_blend
    for idx, spk in enumerate(pool.speakers):
        hits = rng.random(cfg.utterances_per_speaker) < cfg.face_outlier_rate
        for j in np.flatnonzero(hits):
            other = int(rng.integers(len(pool.speakers) - 1))
            if other >= idx:
                other += 1
            donor = pool.speakers[other]
            beta = rng.uniform(lo, hi)
            dvec = donor.face_mean + rng.normal(
                scale=cfg.face_within_sigma, size=cfg.face_dim)
            if cfg.face_unit_norm:
                dvec /= np.linalg.norm(dvec)
            vec = (1.0 - beta) * spk.face[j] + beta * dvec
            if cfg.face_unit_norm:
                vec /= np.linalg.norm(vec)
            spk.face[j] = vec
            spk.face_outlier[j] = True


def build_speaker_profiles(pool: SpeakerPool, cap: int = 100) -> np.ndarray:
    """Per-speaker mean of the first min(cap, available) voice utterances."""
    if cap < 1:
        raise ConfigurationError(f"profile cap must be >= 1, got {cap}")
    return np.vstack([spk.voice[:min(cap, spk.voice.shape[0])].mean(axis=0)
                      for spk in pool.speakers])


def _profile_distances(profiles: np.ndarray) -> tuple[np.ndarray, float]:
    """Pairwise profile distances and the hard_threshold they give."""
    n = profiles.shape[0]
    if n < 2:
        raise StructuralError("need at least 2 profiles for a threshold")
    diffs = profiles[:, None, :] - profiles[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))
    return dist, float(np.percentile(dist[np.triu_indices(n, k=1)], 25.0))


def hard_threshold(profiles: np.ndarray) -> float:
    """25th percentile of all pairwise profile distances (linear interpolation)."""
    return _profile_distances(profiles)[1]


def _partition(candidates: list[int], cfg: SimulationConfig, stage: str,
               source: str) -> list[list[int]]:
    """Shuffle the candidate speakers and cut them into households."""
    k = cfg.speakers_per_household
    need = cfg.households_per_group * k
    if len(candidates) < need:
        raise StructuralError(f"{source} has {len(candidates)} speakers, need {need}")
    order = _stage_rng(cfg, stage).permutation(len(candidates))
    return [sorted(candidates[j] for j in order[i * k:(i + 1) * k])
            for i in range(cfg.households_per_group)]


def assemble_random_households(pool: SpeakerPool) -> list[list[int]]:
    """Partition a shuffled pool into households of the configured size."""
    return _partition(list(range(len(pool.speakers))), pool.config,
                      "assemble-random", "pool")


def assemble_hard_households(pool: SpeakerPool) -> list[list[int]]:
    """Greedily grow households whose profile distances all fall below the
    confusability threshold; speakers are used at most once."""
    cfg = pool.config
    order = _stage_rng(cfg, "assemble-hard").permutation(len(pool.speakers)).tolist()
    dist, tau = _profile_distances(build_speaker_profiles(pool))
    used: set[int] = set()
    households: list[list[int]] = []
    for anchor in order:
        if len(households) == cfg.households_per_group:
            break
        if anchor in used:
            continue
        members = [anchor]
        for cand in order:
            if len(members) == cfg.speakers_per_household:
                break
            if cand in used or cand in members:
                continue
            if all(dist[cand, m] <= tau for m in members):
                members.append(cand)
        if len(members) == cfg.speakers_per_household:
            households.append(sorted(members))
            used.update(members)
    if len(households) < cfg.households_per_group:
        raise StructuralError(
            f"assembled only {len(households)} of {cfg.households_per_group} "
            f"hard households (threshold {tau:.4g})")
    return households


def assemble_cohort_households(pool: SpeakerPool, cohort_id: str) -> list[list[int]]:
    """Uniformly sample households from one cohort's speakers."""
    candidates = [i for i, s in enumerate(pool.speakers) if s.cohort == cohort_id]
    return _partition(candidates, pool.config, f"assemble-cohort-{cohort_id}",
                      f"cohort {cohort_id!r}")


def _build_household(pool: SpeakerPool, member_idx: list[int], household_id: str,
                     group: str) -> HouseholdDataset:
    """Assign roles and materialize one household's utterance records."""
    cfg = pool.config
    rng = _stage_rng(cfg, household_id)
    members = [pool.speakers[i] for i in member_idx]

    # each role's utterance indices per member, in record order
    roles = {ROLE_ENROLLED: [], ROLE_UNLABELED: [[] for _ in members], ROLE_HELDOUT: []}
    leftovers: list[tuple[int, int]] = []
    # SimulationConfig guarantees enough utterances for every role and the pool
    held, need = cfg.heldout_per_speaker, cfg.labeled_per_speaker + cfg.heldout_per_speaker
    for si, spk in enumerate(members):
        perm = rng.permutation(spk.voice.shape[0])
        roles[ROLE_HELDOUT].append(np.sort(perm[:held]))
        roles[ROLE_ENROLLED].append(np.sort(perm[held:need]))
        leftovers.extend((si, int(j)) for j in np.sort(perm[need:]))

    pick = rng.choice(len(leftovers), size=cfg.unlabeled_per_household, replace=False)
    for si, j in sorted(leftovers[i] for i in pick):
        roles[ROLE_UNLABELED][si].append(j)

    records = [UtteranceRecord(utt_id=f"{household_id}-{spk.speaker_id}-u{j:03d}",
                               household_id=household_id, role=role,
                               speaker=spk.speaker_id, session_id=spk.sessions[j],
                               cohort=spk.cohort,
                               views={VOICE_VIEW: spk.voice[j], FACE_VIEW: spk.face[j]})
               for role, per_member in roles.items()
               for spk, indices in zip(members, per_member) for j in indices]
    household = HouseholdDataset(household_id=household_id, group=group,
                                 utterances=records)
    household.validate()
    return household


def generate_group(cfg: SimulationConfig, group: str) -> list[HouseholdDataset]:
    """All households of one group, from that group's own speaker pool."""
    pool = generate_speakers(cfg, cfg.default_pool_size(group), tag=group)
    if group == GROUP_RANDOM:
        assignments = assemble_random_households(pool)
    elif group == GROUP_HARD:
        assignments = assemble_hard_households(pool)
    elif group.startswith("cohort:"):
        assignments = assemble_cohort_households(pool, group.split(":", 1)[1])
    else:
        raise ConfigurationError(f"unknown household group {group!r}")
    safe = group.replace(":", "")
    return [_build_household(pool, members, f"{safe}-h{i:03d}", group)
            for i, members in enumerate(assignments)]


def split_dev_val(households: list[HouseholdDataset], cfg: SimulationConfig
                  ) -> tuple[list[HouseholdDataset], list[HouseholdDataset]]:
    """Per-group seeded shuffle, then split at the configured dev:val ratio.

    Each split needs at least one household of every group, so a group with
    fewer than two households is a configuration error.
    """
    dev: list[HouseholdDataset] = []
    val: list[HouseholdDataset] = []
    groups: dict[str, list[HouseholdDataset]] = {}
    for hh in households:
        groups.setdefault(hh.group, []).append(hh)
    d, v = cfg.dev_val_ratio
    for group in sorted(groups):
        items = groups[group]
        if len(items) < 2:
            raise ConfigurationError(
                f"group {group!r} has {len(items)} household(s); the dev/val "
                f"split needs at least 2")
        order = _stage_rng(cfg, f"split-{group}").permutation(len(items))
        n_dev = max(1, (len(items) * d) // (d + v))
        for rank, idx in enumerate(order):
            (dev if rank < n_dev else val).append(items[idx])
    dev.sort(key=lambda h: h.household_id)
    val.sort(key=lambda h: h.household_id)
    return dev, val


def generate_dataset(cfg: SimulationConfig
                     ) -> tuple[list[HouseholdDataset], list[HouseholdDataset]]:
    """Generate every configured group and split into dev/val."""
    households = [hh for group in cfg.groups for hh in generate_group(cfg, group)]
    return split_dev_val(households, cfg)
