"""Cosine-similarity k-nearest-neighbor topic classifier.

Labels points of the reduced embedding space with discovered topic ids and
turns average trajectories into interpretable topic sequences with
run-length summaries.

A query's label is defined by the full scan: every training row's cosine
similarity ``unit @ q̂``, then ``_vote``. A training set of at least
``TREE_MIN_ROWS`` rows also gets a k-d tree over its unit rows, and a query
first tries to prove the full scan's answer from the tree's ``k +
TREE_SLACK`` nearest rows (the candidates). For unit rows ``‖x̂ − q̂‖² = 2 −
2·x̂·q̂``, so a row the tree did not return, being at least as far as the
last candidate (distance d_K), has similarity at most ``B = 1 − d_K²/2`` up
to rounding. With candidate similarities ``c`` (their rows sorted by index,
then ``unit[rows] @ q̂``) the answer is taken from the candidates only if

1. the k-th largest ``c`` exceeds ``B`` by more than E: no unseen row can
   enter the top k;
2. it exceeds the (k+1)-th largest ``c`` by more than 2E: the top-k set
   does not depend on the last bits of any product;
3. the winning label has strictly more votes than the runner-up, or their
   summed similarities differ by more than ``2k(E + 2k·u)``, which bounds
   how far two k-term sums of values each within E of the full scan's can
   move apart.

Otherwise the full scan runs. Ties at the boundary, such as duplicate
training rows, always fall back, and no comparison relies on the subset
product matching the full one bit for bit. With a slack of 0 comparison 1
always fails, since the k-th candidate is the last one; with a slack of 16,
comparison 2 also passes it, because every candidate lies within d_K.

E, with u = 2⁻⁵³ and d the dimension, adds up these bounds:

- norms: a unit row or ``q̂`` has norm within δ = (d/2 + 3)u of 1 (d
  squares summed, a square root, one division per component), so
  ``x̂·q̂ = (‖x̂‖² + ‖q̂‖² − ‖x̂ − q̂‖²)/2 ≤ 1 + (d + 7)u − ‖x̂ − q̂‖²/2``;
- dot product: a d-term dot product of such vectors is within (d + 1)u of
  its exact value in any summation order, with or without FMA, on any BLAS
  thread count. A candidate's ``c`` and the full scan's value for the same
  row are both that close to it, and the unseen row's value too: 3(d + 1)u;
- tree distance: the tree (scipy's exact search) excludes a row only when a
  squared distance it computed, the row's own or its node's rectangle
  distance, is at least the last candidate's. A node's rectangle holds one
  of its rows, so every value compared is below (2 + 2δ)² < 4.02. A row's
  squared distance is off by at most 4(d + 4)u, a rectangle distance by at
  most 32u per level of incremental update, and ``TREE_DEPTH`` levels bound
  the tree (about log₂(m/16) for its median splits: 14 for 130,000 rows).
  Rebuilding d_K² from the returned distance adds 13u. Half of this
  squared-distance error enters E, and forming B adds 2u.

For d = 5 that is E ≈ 1.2e-13. On ``drift-130k``'s queries each comparison
clears its bound by a factor of more than 10,000.

The size rule: on 5-dimensional rows with one BLAS thread, a certified query
costs 60–130 µs at any training-set size, while the full scan grows with it:
40–80 µs at 3,250 and 6,500 rows, 105–130 µs at 13,000 and 1.2–1.7 ms at
130,000. The tree takes about 1 µs per row to build, so at 16,384 rows it
pays for itself after a few hundred queries. Smaller training sets keep the
full scan alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .util import JsonRecord, check_range, substream

DEFAULT_K = 15
# Below this many training rows the full scan is about as fast as the tree
# query, or faster (module docstring).
TREE_MIN_ROWS = 16_384
# Candidates fetched past the k-th: with none, the certificate has no row
# past the k-th to compare with and always falls back.
TREE_SLACK = 16
# Levels of tree whose rounding E covers.
TREE_DEPTH = 64
_U = 2.0**-53


@dataclass
class KnnModel:
    points: np.ndarray  # (m, k) training vectors
    labels: np.ndarray  # (m,) topic ids
    k: int
    unit: np.ndarray  # row-normalized copies of points
    tree: Optional[cKDTree] = None  # over unit, when m >= TREE_MIN_ROWS


def fit_knn(points: np.ndarray, labels: Sequence[int], k: int = DEFAULT_K) -> KnnModel:
    """Store labeled training vectors; cosine needs every norm finite and nonzero."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if points.ndim != 2 or points.shape[0] != labels.shape[0]:
        raise ValueError("points must be (m, d) with one label per row")
    m = points.shape[0]
    check_range("k", k)
    if m < k:
        raise ValueError(f"need at least k = {k} training points, got {m}")
    non_finite = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if non_finite.size:
        raise ValueError(f"training point {int(non_finite[0])} has non-finite values")
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms[:, 0] == 0.0)[0])
        raise ValueError(f"training point {bad} has zero norm; cosine undefined")
    unit = points / norms
    return KnnModel(points=points, labels=labels, k=k, unit=unit, tree=cKDTree(unit) if m >= TREE_MIN_ROWS else None)


def _ballot(labels: np.ndarray, sims: np.ndarray) -> list[tuple[int, float, int]]:
    """Each label's (votes, summed similarity, -label) among the voters, best
    first: more votes win, then higher summed similarity, then smaller id."""
    keys = []
    for label in np.unique(labels):
        mask = labels == label
        keys.append((int(mask.sum()), float(sims[mask].sum()), -int(label)))
    return sorted(keys, reverse=True)


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
    return -_ballot(model.labels[order], sims[order])[0][2]


def _error_bound(d: int) -> float:
    """E of the module docstring for d-dimensional rows."""
    norms = d + 7  # (‖x̂‖² + ‖q̂‖²)/2 − 1
    dots = 3 * (d + 1)  # the unseen row's, the candidate's and the full scan's
    squared = 32 * TREE_DEPTH + 4 * (d + 4) + 13  # an excluded row's squared distance
    return (norms + dots + squared / 2 + 2) * _U  # 2: forming B


def _certified_vote(model: KnnModel, q: np.ndarray) -> Optional[int]:
    """The full scan's label decided from the tree's nearest rows, or None
    when the candidates cannot prove it (module docstring)."""
    k, m = model.k, model.unit.shape[0]
    n = min(k + TREE_SLACK, m)
    dist, rows = model.tree.query(q, n)
    rows = np.sort(np.atleast_1d(rows))
    sims = model.unit[rows] @ q
    ranked = np.argsort(-sims, kind="stable")
    kth = sims[ranked[k - 1]]
    e = _error_bound(q.size)
    if n < m and not kth - (1.0 - 0.5 * (dist[-1] * dist[-1])) > e:
        return None
    if n > k and not kth - sims[ranked[k]] > 2.0 * e:
        return None
    top = ranked[:k]
    ballot = _ballot(model.labels[rows[top]], sims[top])
    tied = len(ballot) > 1 and ballot[0][0] == ballot[1][0]
    if tied and not ballot[0][1] - ballot[1][1] > 2 * k * (e + 2 * k * _U):
        return None
    return -ballot[0][2]


def predict_topic(model: KnnModel, point: np.ndarray) -> int:
    """The label ``_vote`` gives over every training row's similarity to
    ``point``. With a tree, the answer comes from its nearest rows when the
    certificate (module docstring) proves it equal, else from the full scan."""
    point = np.asarray(point, dtype=np.float64)
    if not np.isfinite(point).all():
        raise ValueError("query point has non-finite values; cosine undefined")
    norm = np.linalg.norm(point)
    if norm == 0.0:
        raise ValueError("query point has zero norm; cosine undefined")
    q = point / norm
    if model.tree is not None and (label := _certified_vote(model, q)) is not None:
        return label
    return _vote(model, model.unit @ q)


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
class TrajectoryLabeling(JsonRecord):
    sequence: list[Optional[int]]
    runs: list[tuple[Optional[int], int, int]]  # (topic, first step, last step)
    unlabeled_steps: list[int]


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
