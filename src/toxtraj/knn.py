"""Cosine-similarity k-nearest-neighbor topic classifier.

Labels points of the reduced embedding space with discovered topic ids and
turns average trajectories into interpretable topic sequences with
run-length summaries.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .util import substream

DEFAULT_K = 15


@dataclass
class KnnModel:
    points: np.ndarray  # (m, k) training vectors
    labels: np.ndarray  # (m,) topic ids
    k: int
    unit: np.ndarray  # row-normalized copies of points


def fit_knn(points: np.ndarray, labels: Sequence[int], k: int = DEFAULT_K) -> KnnModel:
    """Store labeled training vectors; cosine needs every norm finite and nonzero."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if points.ndim != 2 or points.shape[0] != labels.shape[0]:
        raise ValueError("points must be (m, d) with one label per row")
    m = points.shape[0]
    if k < 1:
        raise ValueError("k must be positive")
    if m < k:
        raise ValueError(f"need at least k = {k} training points, got {m}")
    non_finite = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if non_finite.size:
        raise ValueError(f"training point {int(non_finite[0])} has non-finite values")
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms[:, 0] == 0.0)[0])
        raise ValueError(f"training point {bad} has zero norm; cosine undefined")
    return KnnModel(points=points, labels=labels, k=k, unit=points / norms)


def _vote(model: KnnModel, sims: np.ndarray) -> int:
    """Majority label among the k most similar training points.

    Neighbor ties at the k-boundary resolve by training index; vote ties by
    higher summed similarity, then smaller topic id.
    """
    k = model.k
    # Sort only the similarities at or above the k-th largest: the first k of
    # them in (-sim, index) order are the first k of all m in that order.
    kth = np.partition(sims, sims.size - k)[sims.size - k]
    top = np.flatnonzero(sims >= kth)
    order = top[np.lexsort((top, -sims[top]))][:k]
    top_labels = model.labels[order]
    top_sims = sims[order]
    best = None
    for label in np.unique(top_labels):
        mask = top_labels == label
        key = (int(mask.sum()), float(top_sims[mask].sum()), -int(label))
        if best is None or key > best[0]:
            best = (key, int(label))
    return best[1]


def predict_topic(model: KnnModel, point: np.ndarray) -> int:
    point = np.asarray(point, dtype=np.float64)
    if not np.isfinite(point).all():
        raise ValueError("query point has non-finite values; cosine undefined")
    norm = np.linalg.norm(point)
    if norm == 0.0:
        raise ValueError("query point has zero norm; cosine undefined")
    sims = model.unit @ (point / norm)
    return _vote(model, sims)


def predict_batch(model: KnnModel, points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    return np.array([predict_topic(model, p) for p in points], dtype=np.int64)


def stratified_split(
    labels: Sequence[int], test_fraction: float = 0.2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-topic split preserving small classes; at least one test point per
    class with >= 2 members."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = substream(seed, "knn-split")
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in np.unique(labels):
        rows = np.flatnonzero(labels == label)
        rows = rng.permutation(rows)
        n_test = int(round(test_fraction * rows.size))
        if rows.size >= 2:
            n_test = min(max(n_test, 1), rows.size - 1)
        else:
            n_test = 0
        test_idx.extend(rows[:n_test].tolist())
        train_idx.extend(rows[n_test:].tolist())
    return np.sort(np.asarray(train_idx)), np.sort(np.asarray(test_idx))


def evaluate_f1(model: KnnModel, points: np.ndarray, labels: Sequence[int]) -> dict[str, float]:
    """Macro and micro F1 (0-100 scale) on a labeled holdout."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("holdout must be non-empty")
    predictions = predict_batch(model, points)
    classes = np.union1d(labels, predictions)
    f1_scores = []
    tp_total = 0
    for cls in classes:
        tp = int(np.sum((predictions == cls) & (labels == cls)))
        fp = int(np.sum((predictions == cls) & (labels != cls)))
        fn = int(np.sum((predictions != cls) & (labels == cls)))
        tp_total += tp
        denom = 2 * tp + fp + fn
        f1_scores.append(2 * tp / denom if denom > 0 else 0.0)
    macro = 100.0 * float(np.mean(f1_scores))
    micro = 100.0 * tp_total / labels.size
    return {"macro_f1": macro, "micro_f1": micro}


@dataclass
class TrajectoryLabeling:
    sequence: list[Optional[int]]
    runs: list[tuple[Optional[int], int, int]]  # (topic, first step, last step)
    unlabeled_steps: list[int]

    def to_json(self) -> dict:
        return {
            "sequence": self.sequence,
            "runs": [list(r) for r in self.runs],
            "unlabeled_steps": self.unlabeled_steps,
        }


def label_trajectory(model: KnnModel, trajectory: np.ndarray) -> TrajectoryLabeling:
    """Per-timestep topic prediction with collapsed (topic, range) runs.

    All-zero rows cannot be scored; they are reported as unlabeled. A row
    predict_topic refuses raises ValueError naming its step."""
    trajectory = np.asarray(trajectory, dtype=np.float64)
    sequence: list[Optional[int]] = []
    unlabeled: list[int] = []
    for step, row in enumerate(trajectory):
        if not row.any():
            sequence.append(None)
            unlabeled.append(step)
            continue
        try:
            sequence.append(predict_topic(model, row))
        except ValueError as exc:
            raise ValueError(f"trajectory step {step}: {exc}") from exc
    runs: list[tuple[Optional[int], int, int]] = []
    for step, topic in enumerate(sequence):
        if runs and runs[-1][0] == topic:
            runs[-1] = (topic, runs[-1][1], step)
        else:
            runs.append((topic, step, step))
    return TrajectoryLabeling(sequence=sequence, runs=runs, unlabeled_steps=unlabeled)
