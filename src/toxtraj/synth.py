"""Seeded synthetic corpora with planted structure.

Three generator families back the test oracles: hierarchical Gaussian blobs
(with sparse bridges between sub-blobs, so a single clustering pass sees the
parent and a recursive pass reveals the children), per-user post streams with
planted toxicity trends and topic schedules, and null trajectory pairs for
permutation-test calibration. Every artifact is emitted together with its
ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .corpus import Corpus, EmbeddingMatrix, Posts, StudyWindow
from .util import JsonRecord, substream

EMBED_DIM = 5
SEPARABLE_MARGIN = 10.0  # minimum center separation, in units of sigma


@dataclass
class ParentBlobSpec(JsonRecord):
    """One level-1 blob made of Gaussian sub-blobs joined by a sparse bridge."""

    center: tuple
    child_offsets: list[tuple]
    sigma: float
    n_per_child: int
    bridge_points: int = 0
    bridge_jitter: float = 0.15

    def child_centers(self) -> np.ndarray:
        center = np.asarray(self.center, dtype=np.float64)
        return np.asarray([center + np.asarray(off, dtype=np.float64) for off in self.child_offsets])


@dataclass
class TrendMix(JsonRecord):
    """User-class fractions and the planted toxicity dynamics."""

    increasing: float = 0.2
    decreasing: float = 0.2
    flat: float = 0.6
    drift: float = 30.0  # toxicity units over the full window
    noise_sd: float = 5.0

    def __post_init__(self):
        total = self.increasing + self.decreasing + self.flat
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"trend fractions must sum to 1, got {total}")


@dataclass
class DivergenceSpec(JsonRecord):
    """Planted topic drift: one trend class switches centroid mid-window."""

    group: str  # "increasing" | "decreasing" | "flat"
    start_center: tuple
    target_center: tuple
    switch_tau: float = 0.5


@dataclass
class ScenarioConfig(JsonRecord):
    n_users: int = 100
    posts_per_user: tuple = (50, 80)
    window: StudyWindow = field(default_factory=StudyWindow)
    hierarchy: list[ParentBlobSpec] = field(default_factory=list)
    trend_mix: TrendMix = field(default_factory=TrendMix)
    divergence: Optional[DivergenceSpec] = None
    embedding_sigma: float = 0.5
    separable: bool = True
    seed: int = 0

    json_indent = 2


def _quantize(values: np.ndarray) -> np.ndarray:
    # Embeddings persist as float32; quantize at generation so file
    # round-trips are lossless.
    return values.astype(np.float32).astype(np.float64)


def _check_separable(specs: list[ParentBlobSpec]) -> None:
    centers = []
    sigma_max = 0.0
    for spec in specs:
        sigma_max = max(sigma_max, spec.sigma)
        centers.extend(spec.child_centers())
    centers = np.asarray(centers)
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            gap = float(np.linalg.norm(centers[i] - centers[j]))
            if gap < SEPARABLE_MARGIN * sigma_max:
                raise ValueError(
                    f"config marked separable but centers {i} and {j} are "
                    f"{gap:.2f} apart (< {SEPARABLE_MARGIN} * sigma = {SEPARABLE_MARGIN * sigma_max:.2f})"
                )


def generate_hierarchical_blobs(
    specs: list[ParentBlobSpec], seed: int = 0, separable: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample nested Gaussian blobs; returns (points, parent_truth, child_truth).

    Bridge points carry child_truth -1: they are structural glue between
    sub-blobs, not members of either child.
    """
    if not specs:
        raise ValueError("at least one parent blob is required")
    if separable:
        _check_separable(specs)
    points = []
    parent_truth = []
    child_truth = []
    child_id = 0
    for p_idx, spec in enumerate(specs):
        rng = substream(seed, "blobs", p_idx)
        centers = spec.child_centers()
        for c_local, center in enumerate(centers):
            pts = center + spec.sigma * rng.normal(size=(spec.n_per_child, EMBED_DIM))
            points.append(pts)
            parent_truth.extend([p_idx] * spec.n_per_child)
            child_truth.extend([child_id + c_local] * spec.n_per_child)
        if spec.bridge_points > 0 and len(centers) >= 2:
            # Chain of jittered points along each consecutive center pair.
            n_segments = len(centers) - 1
            per_segment = spec.bridge_points // n_segments
            for s in range(n_segments):
                a, b = centers[s], centers[s + 1]
                ts = (np.arange(per_segment) + 0.5) / per_segment
                base = a[None, :] + ts[:, None] * (b - a)[None, :]
                pts = base + spec.bridge_jitter * rng.normal(size=(per_segment, EMBED_DIM))
                points.append(pts)
                parent_truth.extend([p_idx] * per_segment)
                child_truth.extend([-1] * per_segment)
        child_id += len(centers)
    matrix = _quantize(np.vstack(points))
    return matrix, np.asarray(parent_truth, dtype=np.int64), np.asarray(child_truth, dtype=np.int64)


def three_by_two_scenario(
    n_per_child: int = 200, sigma: float = 1.0, child_gap: float = 20.0
) -> list[ParentBlobSpec]:
    """Three well-separated parents, each two sub-blobs bridged by sparse
    points so that a single clustering pass keeps the parent whole."""
    half = child_gap / 2.0
    parents = [(0.0, 0.0), (12.0, 0.0), (6.0, 10.392304845413264)]
    specs = []
    for p_idx, (cx, cy) in enumerate(parents):
        center = (cx, cy, 0.0, 0.0, 0.0)
        axis = 2 + p_idx  # children split along a different axis per parent
        off_pos = [0.0] * EMBED_DIM
        off_neg = [0.0] * EMBED_DIM
        off_pos[axis] = half
        off_neg[axis] = -half
        specs.append(
            ParentBlobSpec(
                center=center,
                child_offsets=[tuple(off_neg), tuple(off_pos)],
                sigma=sigma,
                n_per_child=n_per_child,
                bridge_points=56,
                bridge_jitter=0.15,
            )
        )
    return specs


def null_split_scenario(
    n_per_child: int = 200, sigma: float = 1.0, child_gap: float = 5.0
) -> list[ParentBlobSpec]:
    """Parents whose internal split carries no extra coherence: sub-blobs sit
    close together, so child and parent coherence distributions coincide."""
    specs = three_by_two_scenario(n_per_child=n_per_child, sigma=sigma, child_gap=child_gap)
    for spec in specs:
        spec.bridge_points = 0
    return specs


def make_blob_corpus(points: np.ndarray, window: StudyWindow | None = None) -> Corpus:
    """Wrap a raw point matrix as a minimal corpus (one post per row)."""
    window = window or StudyWindow()
    n = points.shape[0]
    post_ids = [f"p{i:06d}" for i in range(n)]
    posts = Posts(
        post_id=post_ids,
        user_id=[f"u{i:06d}" for i in range(n)],
        timestamp=window.t0 + (np.arange(n) * (window.t_end - window.t0)) // max(n, 1),
    )
    emb = EmbeddingMatrix(values=np.asarray(points, dtype=np.float64), row_ids=post_ids)
    return Corpus(posts=posts, window=window, embeddings=emb)


def _class_counts(mix: TrendMix, n_users: int) -> dict[str, int]:
    n_inc = int(round(mix.increasing * n_users))
    n_dec = int(round(mix.decreasing * n_users))
    n_inc = min(n_inc, n_users)
    n_dec = min(n_dec, n_users - n_inc)
    return {"increasing": n_inc, "decreasing": n_dec, "flat": n_users - n_inc - n_dec}


def generate_user_streams(config: ScenarioConfig) -> tuple[Corpus, dict[str, str]]:
    """Per-user post streams with planted toxicity trends and topic schedules.

    Returns the corpus (posts + 5-D embeddings) and the user -> trend-class
    ground truth. Toxicity is clamp(base + drift * tau + noise, 0, 100); the
    drift and bases are chosen so clamping is rare. A config marked separable
    whose leaf centers lie too close raises ValueError.
    """
    if config.separable and config.hierarchy:
        _check_separable(config.hierarchy)
    window = config.window
    counts = _class_counts(config.trend_mix, config.n_users)
    classes = (
        ["increasing"] * counts["increasing"]
        + ["decreasing"] * counts["decreasing"]
        + ["flat"] * counts["flat"]
    )
    leaf_centers = []
    for spec in config.hierarchy:
        leaf_centers.extend(spec.child_centers())
    if not leaf_centers:
        leaf_centers = [np.zeros(EMBED_DIM)]
    post_ids: list[str] = []
    user_ids: list[str] = []
    streams: list[tuple] = []  # per user: timestamps, toxicity, embeddings
    truth: dict[str, str] = {}
    lo, hi = config.posts_per_user
    span = window.t_end - window.t0
    for i in range(config.n_users):
        user_id = f"u{i:05d}"
        cls = classes[i]
        truth[user_id] = cls
        rng = substream(config.seed, "user", i)
        n_posts = int(rng.integers(lo, hi + 1))
        timestamps = np.sort(rng.integers(window.t0, window.t_end + 1, size=n_posts))
        tau = (timestamps - window.t0) / span
        drift = config.trend_mix.drift
        if cls == "increasing":
            base = rng.uniform(20.0, 40.0)
            tox = base + drift * tau
        elif cls == "decreasing":
            base = rng.uniform(60.0, 80.0)
            tox = base - drift * tau
        else:
            base = rng.uniform(30.0, 70.0)
            tox = np.full(n_posts, base)
        if config.trend_mix.noise_sd > 0:
            tox = tox + rng.normal(scale=config.trend_mix.noise_sd, size=n_posts)
        tox = np.clip(tox, 0.0, 100.0)
        home = np.asarray(leaf_centers[i % len(leaf_centers)], dtype=np.float64)
        div = config.divergence
        if div is not None and cls == div.group:
            start = np.asarray(div.start_center, dtype=np.float64)
            target = np.asarray(div.target_center, dtype=np.float64)
            centers_t = np.where(tau[:, None] < div.switch_tau, start[None, :], target[None, :])
        elif div is not None:
            centers_t = np.tile(np.asarray(div.start_center, dtype=np.float64), (n_posts, 1))
        else:
            centers_t = np.tile(home, (n_posts, 1))
        emb = centers_t + config.embedding_sigma * rng.normal(size=(n_posts, EMBED_DIM))
        post_ids += [f"{user_id}_{j:04d}" for j in range(n_posts)]
        user_ids += [user_id] * n_posts
        streams.append((timestamps, tox, emb))
    times, toxicities, embeddings = zip(*streams)
    posts = Posts(post_ids, user_ids, np.concatenate(times), np.concatenate(toxicities))
    matrix = EmbeddingMatrix(values=_quantize(np.vstack(embeddings)), row_ids=post_ids)
    return Corpus(posts=posts, window=window, embeddings=matrix), truth


def generate_null_pair(
    n_per_group: int, T: int, dim: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Two groups of flattened trajectories drawn from one distribution."""
    if n_per_group < 2:
        raise ValueError("n_per_group must be at least 2")
    rng_a = substream(seed, "null-pair", 0)
    rng_b = substream(seed, "null-pair", 1)
    a = rng_a.normal(size=(n_per_group, T * dim))
    b = rng_b.normal(size=(n_per_group, T * dim))
    return a, b
