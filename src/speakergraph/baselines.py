"""Cosine-scoring baselines on a single embedding view.

Four variants: score a held-out utterance against each speaker's labeled
utterances and average (CS), or against the per-speaker mean embedding
(CSEA); 2CS and 2CSEA pseudo-label the unlabeled pool with CS or CSEA and
re-score under _two_step, which 2LP shares; 2LPEA is 2CSEA with LP's step 1.
Every method, LP's included, reads its labels off its scores with predict.
"""

from dataclasses import dataclass, replace
import numpy as np

from .errors import StructuralError, _warn_degeneracy


@dataclass(frozen=True)
class PredictionResult:
    """Hard labels from a score matrix, with tie/abstain diagnostics.

    ``scores`` holds the rows the labels were read from; every method marks
    abstaining rows with -1 (ABSTAIN).
    """

    labels: np.ndarray
    scores: np.ndarray
    ties: tuple[int, ...] = ()
    abstains: tuple[int, ...] = ()
    converged: bool = True
    iterations: int = 0


# Below this norm the squares of a row's entries lose precision or vanish.
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm at any magnitude; zero rows stay zero."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    # Where the squares overflowed or underflowed, recompute the norm as
    # m * ||x / m|| with m the row's max-abs; every other row keeps its bits.
    redo = np.flatnonzero(np.isinf(norms) | (norms < _SQRT_TINY))
    if redo.size:
        peaks = np.abs(x[redo]).max(axis=1, initial=0.0)
        redo, peaks = redo[peaks > 0.0], peaks[peaks > 0.0]
        norms[redo] = peaks * np.linalg.norm(x[redo] / peaks[:, None], axis=1)
    zero = norms == 0.0
    if zero.any():
        _warn_degeneracy("zero-norm embedding cannot be normalized; it is kept as the "
                         "zero vector")
    out = np.zeros_like(x, dtype=float)
    nz = ~zero
    out[nz] = x[nz] / norms[nz, None]
    return out


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities; zero-norm rows contribute 0."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return _normalize_rows(a) @ _normalize_rows(b).T


ABSTAIN = -1  # the label of a row that no class reaches


def predict(scores: np.ndarray, rows: slice | np.ndarray | None = None) -> PredictionResult:
    """The one label rule, on ``scores[rows]``: per-row argmax with lowest-index
    tie-break, rows with a tied maximum flagged, and all-zero rows (no class
    reaches them) ABSTAIN, not counted as ties. StructuralError unless the
    scores are a matrix with a column per class, one class at least."""
    if np.ndim(scores) != 2 or not np.shape(scores)[1]:
        raise StructuralError(f"scores must be a row of class scores per node, got shape "
                              f"{np.shape(scores)}")
    block = scores if rows is None else scores[rows]
    abstain = np.all(block == 0.0, axis=1)
    tied = (block == block.max(axis=1, keepdims=True)).sum(axis=1) > 1
    return PredictionResult(labels=np.where(abstain, ABSTAIN, np.argmax(block, axis=1)),
                            scores=block, ties=tuple(np.flatnonzero(tied & ~abstain).tolist()),
                            abstains=tuple(np.flatnonzero(abstain).tolist()))


def _class_indices(values, name: str) -> np.ndarray:
    """values as an int array; StructuralError unless empty or of an integer dtype."""
    values = np.asarray(values)
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise StructuralError(f"{name} must be integer class indices, got dtype {values.dtype}")
    return values.astype(int, copy=False)


def _check_inputs(labeled, classes, heldout,
                  class_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    labeled = np.asarray(labeled, dtype=float)
    classes = _class_indices(classes, "classes")
    heldout = np.atleast_2d(np.asarray(heldout, dtype=float))
    if labeled.ndim != 2:
        raise StructuralError(f"labeled embeddings must be one row each, got shape "
                              f"{labeled.shape}")
    if heldout.ndim != 2 or heldout.shape[1] != labeled.shape[1]:
        raise StructuralError(f"embeddings to score must be rows of dimension "
                              f"{labeled.shape[1]}, got shape {heldout.shape}")
    if labeled.shape[0] != classes.size:
        raise StructuralError("one class per labeled embedding required")
    if not (np.isfinite(labeled).all() and np.isfinite(heldout).all()):
        raise StructuralError("embeddings must be finite")
    present = np.unique(classes)
    if present.size != class_count or present.min() < 0 or present.max() >= class_count:
        raise StructuralError("every class needs at least one labeled embedding")
    return labeled, classes, heldout


def run_cs(labeled: np.ndarray, classes: np.ndarray, heldout: np.ndarray,
           class_count: int) -> PredictionResult:
    """CS: average cosine against each class's labeled utterances."""
    labeled, classes, heldout = _check_inputs(labeled, classes, heldout, class_count)
    sims = cosine_matrix(heldout, labeled)
    scores = np.column_stack([sims[:, classes == c].mean(axis=1)
                              for c in range(class_count)])
    return predict(scores)


def run_csea(labeled: np.ndarray, classes: np.ndarray, heldout: np.ndarray,
             class_count: int) -> PredictionResult:
    """CSEA: cosine against per-class mean embeddings."""
    labeled, classes, heldout = _check_inputs(labeled, classes, heldout, class_count)
    means = np.stack([labeled[classes == c].mean(axis=0) for c in range(class_count)])
    return predict(cosine_matrix(heldout, means))


def _two_step(has_pool: bool, step1, step2) -> PredictionResult:
    """The two-step rule. ``step2(pseudo)`` scores the held-out utterances with
    ``step1()``'s labels for the unlabeled pool, or with the labels alone
    (pseudo=None) if there is no pool. Both steps must converge; iterations add up."""
    if not has_pool:
        return step2(None)
    first = step1()
    second = step2(first.labels)
    return replace(second, converged=first.converged and second.converged,
                   iterations=first.iterations + second.iterations)


def _two_step_cosine(scorer, labeled, classes, unlabeled, heldout, class_count,
                     step1=None) -> PredictionResult:
    """_two_step with ``scorer`` as step 2; ``step1`` (default: ``scorer``)
    pseudo-labels the pool, where ABSTAIN leaves an utterance unlabeled."""
    unlabeled = np.asarray(unlabeled, dtype=float)
    has_pool = len(unlabeled) > 0
    unlabeled = np.atleast_2d(unlabeled)

    def step2(pseudo):
        if pseudo is None:
            return scorer(labeled, classes, heldout, class_count)
        keep = pseudo != ABSTAIN
        return scorer(np.vstack([labeled, unlabeled[keep]]),
                      np.concatenate([classes, pseudo[keep]]), heldout, class_count)

    return _two_step(has_pool, step1 or (lambda: scorer(labeled, classes, unlabeled,
                                                        class_count)), step2)


def run_2cs(labeled, classes, unlabeled, heldout, class_count) -> PredictionResult:
    """2-step CS: pseudo-label the unlabeled pool with CS, then re-score."""
    return _two_step_cosine(run_cs, labeled, classes, unlabeled, heldout, class_count)


def run_2csea(labeled, classes, unlabeled, heldout, class_count) -> PredictionResult:
    """2-step CSEA: pseudo-label with CSEA, then re-average the profiles."""
    return _two_step_cosine(run_csea, labeled, classes, unlabeled, heldout, class_count)
