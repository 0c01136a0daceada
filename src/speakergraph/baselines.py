"""Cosine-scoring baselines on a single embedding view.

Four variants: score a held-out utterance against each speaker's labeled
utterances and average (CS), or against the per-speaker mean embedding
(CSEA); the 2-step variants first pseudo-label the unlabeled pool with the
same method and then re-score with labels and pseudo-labels together.
"""

import warnings
from dataclasses import dataclass
import numpy as np

from .errors import DegeneracyWarning, StructuralError


@dataclass(frozen=True)
class PredictionResult:
    """Hard labels from a score matrix, with tie/abstain diagnostics.

    ``scores`` holds the rows the labels were read from; label propagation
    marks abstaining rows with -1.
    """

    labels: np.ndarray
    scores: np.ndarray
    ties: tuple[int, ...] = ()
    abstains: tuple[int, ...] = ()
    converged: bool = True
    iterations: int = 0


def _normalize_rows(x: np.ndarray, warn: bool = True) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0.0
    if zero.any() and warn:
        warnings.warn("zero-norm embedding: its cosine similarities are 0",
                      DegeneracyWarning, stacklevel=3)
    out = np.zeros_like(x, dtype=float)
    nz = ~zero
    out[nz] = x[nz] / norms[nz, None]
    return out


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities; zero-norm rows contribute 0."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return _normalize_rows(a) @ _normalize_rows(b).T


def _argmax_with_ties(scores: np.ndarray) -> PredictionResult:
    """Per-row argmax with lowest-index tie-break; rows with a tied maximum
    are flagged."""
    labels = np.argmax(scores, axis=1)
    row_max = scores.max(axis=1)
    ties = tuple(np.flatnonzero(
        (scores == row_max[:, None]).sum(axis=1) > 1).tolist())
    return PredictionResult(labels=labels, scores=scores, ties=ties)


def _class_mean_scores(embeddings: np.ndarray, classes: np.ndarray,
                       queries: np.ndarray, class_count: int) -> np.ndarray:
    """Cosine of each query to each class's mean embedding.

    A class without members scores -inf for every query, with a warning.
    """
    means = np.zeros((class_count, embeddings.shape[1]))
    empty = []
    for c in range(class_count):
        members = embeddings[classes == c]
        if members.shape[0] == 0:
            empty.append(c)
        else:
            means[c] = members.mean(axis=0)
    if empty:
        warnings.warn(f"classes {empty} have no members; skipped in scoring",
                      DegeneracyWarning, stacklevel=3)
    scores = cosine_matrix(queries, means)
    scores[:, empty] = -np.inf
    return scores


def _check_inputs(labeled: np.ndarray, classes: np.ndarray, class_count: int):
    classes = np.asarray(classes, dtype=int)
    if labeled.shape[0] != classes.size:
        raise StructuralError("one class per labeled embedding required")
    present = np.unique(classes)
    if present.size != class_count or present.min() < 0 or present.max() >= class_count:
        raise StructuralError("every class needs at least one labeled embedding")


def run_cs(labeled: np.ndarray, classes: np.ndarray, heldout: np.ndarray,
           class_count: int) -> PredictionResult:
    """CS: average cosine against each class's labeled utterances."""
    labeled = np.asarray(labeled, dtype=float)
    classes = np.asarray(classes, dtype=int)
    _check_inputs(labeled, classes, class_count)
    sims = cosine_matrix(np.atleast_2d(heldout), labeled)
    scores = np.column_stack([sims[:, classes == c].mean(axis=1)
                              for c in range(class_count)])
    return _argmax_with_ties(scores)


def run_csea(labeled: np.ndarray, classes: np.ndarray, heldout: np.ndarray,
             class_count: int) -> PredictionResult:
    """CSEA: cosine against per-class mean embeddings."""
    labeled = np.asarray(labeled, dtype=float)
    classes = np.asarray(classes, dtype=int)
    _check_inputs(labeled, classes, class_count)
    return _argmax_with_ties(_class_mean_scores(labeled, classes, heldout, class_count))


def _two_step(scorer, labeled, classes, unlabeled, heldout, class_count):
    labeled = np.asarray(labeled, dtype=float)
    classes = np.asarray(classes, dtype=int)
    unlabeled = np.atleast_2d(np.asarray(unlabeled, dtype=float))
    if unlabeled.size == 0:
        return scorer(labeled, classes, heldout, class_count)
    pseudo = scorer(labeled, classes, unlabeled, class_count).labels
    ext_emb = np.vstack([labeled, unlabeled])
    ext_cls = np.concatenate([classes, pseudo])
    return scorer(ext_emb, ext_cls, heldout, class_count)


def run_2cs(labeled, classes, unlabeled, heldout, class_count) -> PredictionResult:
    """2-step CS: pseudo-label the unlabeled pool with CS, then re-score."""
    return _two_step(run_cs, labeled, classes, unlabeled, heldout, class_count)


def run_2csea(labeled, classes, unlabeled, heldout, class_count) -> PredictionResult:
    """2-step CSEA: pseudo-label with CSEA, then re-average the profiles."""
    return _two_step(run_csea, labeled, classes, unlabeled, heldout, class_count)
