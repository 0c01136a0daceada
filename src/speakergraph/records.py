"""Dataset records shared by the simulator, loader, and evaluator."""

from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError

ROLE_ENROLLED = "enrolled"
ROLE_UNLABELED = "unlabeled"
ROLE_HELDOUT = "heldout"
ROLES = (ROLE_ENROLLED, ROLE_UNLABELED, ROLE_HELDOUT)

GROUP_RANDOM = "random"
GROUP_HARD = "hard"


def cohort_group(cohort_id: str) -> str:
    return f"cohort:{cohort_id}"


@dataclass
class UtteranceRecord:
    """One utterance: vector views, session id, role, and ground truth."""

    utt_id: str
    household_id: str
    role: str
    speaker: str | None = None
    session_id: str | None = None
    cohort: str | None = None
    views: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.role not in ROLES:
            raise StructuralError(f"{self.utt_id}: unknown role {self.role!r}")
        if self.role == ROLE_ENROLLED and not self.speaker:
            raise StructuralError(f"{self.utt_id}: enrolled utterance without speaker")
        self.views = {name: np.asarray(vec, dtype=float)
                      for name, vec in self.views.items()}


@dataclass
class HouseholdDataset:
    """All utterances of one household, with its group tag."""

    household_id: str
    group: str
    utterances: list[UtteranceRecord]

    def by_role(self, role: str) -> list[UtteranceRecord]:
        return [u for u in self.utterances if u.role == role]

    @property
    def speakers(self) -> list[str]:
        """Class alphabet: enrolled speakers in sorted order."""
        return sorted({u.speaker for u in self.by_role(ROLE_ENROLLED)})

    def ordered(self) -> list[UtteranceRecord]:
        """Graph node order: enrolled, unlabeled, held-out (stable)."""
        rank = {role: i for i, role in enumerate(ROLES)}
        return sorted(self.utterances, key=lambda u: rank[u.role])

    def validate(self) -> None:
        seen = set()
        for u in self.utterances:
            if u.utt_id in seen:
                raise StructuralError(f"duplicate utt_id {u.utt_id!r}")
            seen.add(u.utt_id)
            if u.household_id != self.household_id:
                raise StructuralError(
                    f"{u.utt_id}: household {u.household_id!r} != {self.household_id!r}")
        speakers = self.speakers
        if not speakers:
            raise StructuralError(f"{self.household_id}: no enrolled utterances")
        known = set(speakers)
        dims: dict[str, int] = {}
        sessions: dict[str, str] = {}
        for u in self.utterances:
            if u.speaker is not None and u.speaker not in known:
                raise StructuralError(
                    f"{u.utt_id}: speaker {u.speaker!r} has zero enrolled utterances")
            for name, vec in u.views.items():
                if vec.ndim != 1:
                    raise StructuralError(f"{u.utt_id}: view {name!r} is not a vector")
                dims.setdefault(name, vec.shape[0])
                if vec.shape[0] != dims[name]:
                    raise StructuralError(
                        f"{u.utt_id}: view {name!r} has dimension {vec.shape[0]}, "
                        f"expected {dims[name]}")
            if u.session_id is not None and u.speaker is not None:
                owner = sessions.setdefault(u.session_id, u.speaker)
                if owner != u.speaker:
                    raise StructuralError(
                        f"session {u.session_id!r} mixes speakers "
                        f"{owner!r} and {u.speaker!r}")
