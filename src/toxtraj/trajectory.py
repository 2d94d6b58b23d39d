"""User grouping by toxicity trend and trajectory interpolation.

Active users (>= 50 posts by default) are split into Increasing / Decreasing
/ NoTrend groups by a per-user OLS slope test on toxicity over post time;
matched reference groups are drawn from the no-trend pool by closest mean
toxicity. Each user's post embeddings are linearly interpolated onto the
window's daily grid (carry-back before the first post, carry-forward after
the last), and weekly trajectories average non-overlapping 7-day blocks.

One array kernel interpolates: ``build_trajectories`` runs it on blocks of
``USER_BLOCK`` users, ``interpolate_daily`` on one user. It repeats
``np.interp``'s arithmetic, so each path equals per-column ``np.interp``.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .corpus import Corpus, StudyWindow
from .stats import ols_trend
from .util import JsonRecord, check_range, parallel_map

DEFAULT_MIN_POSTS = 50
SIGNIFICANCE_ALPHA = 0.05

GROUP_INCREASING = "Increasing"
GROUP_DECREASING = "Decreasing"
GROUP_NO_TREND = "NoTrend"
REF_INCREASING = "IncreasingRef"
REF_DECREASING = "DecreasingRef"

TRAJ_MAGIC = b"TRJ1"

# Users per interpolation task; its (users, grid, d) temporaries stay near 1 MB.
USER_BLOCK = 128


def is_significant(p_value: float, alpha: float = SIGNIFICANCE_ALPHA) -> bool:
    """Strict threshold: p must be below alpha, not equal to it."""
    return p_value < alpha


@dataclass
class UserGroupAssignment(JsonRecord):
    user_id: str
    group: str
    slope: float
    p_value: float
    mean_toxicity: float
    matched_to: Optional[str] = None
    degenerate: bool = False


@dataclass
class GroupingResult(JsonRecord):
    """All active-user assignments plus the matched reference groups."""

    assignments: dict[str, UserGroupAssignment]
    mean_toxicity_increasing: Optional[float]
    mean_toxicity_decreasing: Optional[float]
    reference_increasing: list[str] = field(default_factory=list)
    reference_decreasing: list[str] = field(default_factory=list)

    def members(self, group: str) -> list[str]:
        if group == REF_INCREASING:
            return list(self.reference_increasing)
        if group == REF_DECREASING:
            return list(self.reference_decreasing)
        return sorted(u for u, a in self.assignments.items() if a.group == group)

    def group_sizes(self) -> dict[str, int]:
        sizes = {g: 0 for g in (GROUP_INCREASING, GROUP_DECREASING, GROUP_NO_TREND)}
        for a in self.assignments.values():
            sizes[a.group] += 1
        return sizes

    @property
    def reference_overlap(self) -> int:
        return len(set(self.reference_increasing) & set(self.reference_decreasing))

    def to_json(self) -> dict:
        return {
            "toxicity_scale": "0-100",
            "group_sizes": self.group_sizes(),
            "mean_toxicity_increasing": self.mean_toxicity_increasing,
            "mean_toxicity_decreasing": self.mean_toxicity_decreasing,
            "reference_increasing": self.reference_increasing,
            "reference_decreasing": self.reference_decreasing,
            "reference_overlap": self.reference_overlap,
            "assignments": [a.to_json() for a in sorted(self.assignments.values(), key=lambda a: a.user_id)],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GroupingResult":
        assignments = {
            a["user_id"]: UserGroupAssignment.from_json(a) for a in doc["assignments"]
        }
        return cls(
            assignments=assignments,
            mean_toxicity_increasing=doc.get("mean_toxicity_increasing"),
            mean_toxicity_decreasing=doc.get("mean_toxicity_decreasing"),
            reference_increasing=list(doc.get("reference_increasing", [])),
            reference_decreasing=list(doc.get("reference_decreasing", [])),
        )


def select_active_users(corpus: Corpus, min_posts: int = DEFAULT_MIN_POSTS) -> list[tuple[str, int]]:
    """Users with at least min_posts posts (boundary inclusive), by user_id."""
    return [(u, n) for u, n in zip(corpus.users, corpus.user_length.tolist()) if n >= min_posts]


def assign_groups(
    corpus: Corpus, user_ids: list[str], alpha: float = SIGNIFICANCE_ALPHA
) -> GroupingResult:
    """Per-user toxicity-over-time regression, split by strict p < alpha.

    Users with a degenerate regression (all posts in one second) fall into
    NoTrend, flagged. Mean toxicity is reported on the 0-100 scale.
    """
    assignments: dict[str, UserGroupAssignment] = {}
    for user_id in user_ids:
        segment = corpus.segment(user_id)
        scored = ~np.isnan(corpus.posts.toxicity[segment])
        x = corpus.posts.timestamp[segment][scored].astype(np.float64)
        y = corpus.posts.toxicity[segment][scored]
        if y.size < 3:
            raise ValueError(f"active user {user_id!r} has {y.size} post(s) with toxicity; needs >= 3")
        mean_tox = float(y.mean())
        if np.all(x == x[0]):
            assignments[user_id] = UserGroupAssignment(
                user_id, GROUP_NO_TREND, 0.0, 1.0, mean_tox, degenerate=True
            )
            continue
        fit = ols_trend(x, y)
        if is_significant(fit.p_value, alpha) and fit.slope > 0:
            group = GROUP_INCREASING
        elif is_significant(fit.p_value, alpha) and fit.slope < 0:
            group = GROUP_DECREASING
        else:
            group = GROUP_NO_TREND
        assignments[user_id] = UserGroupAssignment(
            user_id, group, fit.slope, fit.p_value, mean_tox
        )

    def group_mean(group: str) -> Optional[float]:
        means = [a.mean_toxicity for a in assignments.values() if a.group == group]
        return float(np.mean(means)) if means else None

    return GroupingResult(
        assignments=assignments,
        mean_toxicity_increasing=group_mean(GROUP_INCREASING),
        mean_toxicity_decreasing=group_mean(GROUP_DECREASING),
    )


def matched_reference(
    no_trend_users: list[tuple[str, float]],
    target_mean: float,
    n: int,
) -> list[str]:
    """The n users whose mean toxicity is closest to target_mean.

    Ties break by user_id; selection is without replacement within one call,
    but independent calls may overlap.
    """
    if len(no_trend_users) < n:
        raise ValueError(f"need {n} candidates, have {len(no_trend_users)}")
    ranked = sorted(no_trend_users, key=lambda item: (abs(item[1] - target_mean), item[0]))
    return [user_id for user_id, _ in ranked[:n]]


def build_groups(
    corpus: Corpus,
    min_posts: int = DEFAULT_MIN_POSTS,
    alpha: float = SIGNIFICANCE_ALPHA,
) -> GroupingResult:
    """Full grouping: active users, trend split, and matched references."""
    check_range("alpha", alpha)
    check_range("min_posts", min_posts)
    active = select_active_users(corpus, min_posts)
    result = assign_groups(corpus, [u for u, _ in active], alpha)
    pool = [(a.user_id, a.mean_toxicity) for a in result.assignments.values() if a.group == GROUP_NO_TREND]
    sizes = result.group_sizes()

    def reference(group: str, target: Optional[float], label: str) -> list[str]:
        # A user matched to both references keeps the first label.
        n = sizes[group]
        if n == 0 or len(pool) < n:
            return []
        members = matched_reference(pool, target, n)
        for user_id in members:
            if result.assignments[user_id].matched_to is None:
                result.assignments[user_id].matched_to = label
        return members

    result.reference_increasing = reference(GROUP_INCREASING, result.mean_toxicity_increasing, REF_INCREASING)
    result.reference_decreasing = reference(GROUP_DECREASING, result.mean_toxicity_decreasing, REF_DECREASING)
    return result


def interpolate_daily(
    timestamps: np.ndarray, embeddings: np.ndarray, window: StudyWindow
) -> np.ndarray:
    """Linear interpolation of post embeddings onto the daily grid.

    Posts sharing one timestamp are averaged coordinate-wise first. Before
    the first post the earliest embedding is carried backward; after the
    last, the final embedding is carried forward. A non-finite embedding row
    raises ValueError naming the row, and rows of one second whose sum
    overflows raise ValueError naming the second.
    """
    timestamps = np.asarray(timestamps, dtype=np.int64)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if timestamps.size == 0:
        raise ValueError("user has no embedded posts in the window")
    if embeddings.ndim != 2 or embeddings.shape[0] != timestamps.size:
        raise ValueError("embeddings must be one row per timestamp")
    finite = np.isfinite(embeddings).all(axis=1)
    if not finite.all():
        raise ValueError(f"embedding row {int(np.argmin(finite))} holds a non-finite value")
    order = np.argsort(timestamps, kind="mergesort")
    out = np.empty((1, window.n_daily_grid, embeddings.shape[1]))
    _interpolate_users(timestamps[order], embeddings[order], np.array([timestamps.size]), window, out)
    return out[0]


def _interpolate_users(timestamps, values, lengths, window: StudyWindow, out: np.ndarray) -> None:
    """Write the daily paths of consecutive users into ``out`` (n_users, G, d).

    User u owns the next ``lengths[u]`` (>= 1) posts, in time order, with
    finite rows. Its knots xp are its distinct seconds and fp their rows, or,
    if a second repeats, ``np.add.at`` of its rows into zeros divided by the
    counts. Grid point x takes knot j, the last with xp[j] <= x by exact
    comparisons: fp[first] before it, fp[last] from the last knot on, fp[j]
    where xp[j] == x, else (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]) * (x - xp[j])
    + fp[j], one rounding per operation. That is ``np.interp``'s arithmetic.
    Rows of one second that sum past the float range raise ValueError, so
    the knots are finite, ``np.interp``'s retry of a NaN result never runs,
    and each column equals ``np.interp(grid, xp, fp[:, col])`` bit for bit.
    """
    user = np.repeat(np.arange(lengths.size), lengths)
    new = np.r_[True, (user[1:] != user[:-1]) | (timestamps[1:] != timestamps[:-1])]
    first = np.flatnonzero(new)
    n_knots = np.bincount(user[first], minlength=lengths.size)
    repeats = (n_knots < lengths)[user]
    fp = values[first]
    fp[repeats[first]] = 0.0
    np.add.at(fp, (np.cumsum(new) - 1)[repeats], values[repeats])
    fp[repeats[first]] /= np.diff(first, append=new.size)[repeats[first], None]
    overflow = ~np.isfinite(fp).all(axis=1)
    if overflow.any():
        raise ValueError(f"the embeddings posted at second {timestamps[first[overflow.argmax()]]} sum past the float range")
    xp = window.normalized_time(timestamps[first])
    grid = window.tau_grid()
    # below[u, g]: how many of u's knots lie at or left of grid[g].
    at = np.bincount(user[first] * (grid.size + 1) + np.searchsorted(grid, xp), minlength=lengths.size * (grid.size + 1))
    below = np.cumsum(at.reshape(lengths.size, -1)[:, :-1], axis=1)
    head = np.cumsum(n_knots) - n_knots
    j = head[:, None] + np.maximum(below, 1) - 1
    offset = grid - xp[j]
    edge = (below == 0) | (below == n_knots[:, None]) | (offset == 0)
    # A step into the next user's knots, or past the last, is never used.
    step = np.diff(xp, append=xp[-1] + 1)
    step[head[1:] - 1] = 1.0
    np.take(np.diff(fp, axis=0, append=fp[-1:]) / step[:, None], j, axis=0, out=out)
    out *= offset[..., None]
    out += fp[j]
    out[edge] = fp[j[edge]]


def weekly_average(daily: np.ndarray, week_len_days: int = 7) -> np.ndarray:
    """Average non-overlapping week blocks of a (days, k) trajectory, or of a
    stack of them (leading axes); trailing partial days are unused."""
    daily = np.asarray(daily, dtype=np.float64)
    if daily.ndim < 2:
        raise ValueError("daily trajectory must be a 2-D array or a stack of them")
    *lead, n_days, k = daily.shape
    n_weeks = n_days // week_len_days
    if n_weeks == 0:
        raise ValueError("daily trajectory shorter than one week")
    used = daily[..., : n_weeks * week_len_days, :]
    return used.reshape(*lead, n_weeks, week_len_days, k).mean(axis=-2)


def build_trajectories(corpus: Corpus, workers: int = 1) -> tuple[list[str], np.ndarray, dict]:
    """Interpolate every user with at least one embedded in-window post onto
    the corpus window's daily grid.

    Returns (user ids in corpus order, their (n_users, T, d) daily paths,
    report) where the report counts users skipped for having no embedded
    posts. Blocks of ``USER_BLOCK`` users go through ``interpolate_daily``'s
    kernel into the paths, so each is that call's, byte for byte.
    """
    if corpus.embeddings is None:
        raise ValueError("corpus has no embeddings attached")
    embedded = corpus.row_of_post >= 0
    owner = np.repeat(np.arange(len(corpus.users)), corpus.user_length)[embedded]
    kept, lengths = np.unique(owner, return_counts=True)
    user_ids = [corpus.users[u] for u in kept.tolist()]
    bounds = np.append(0, np.cumsum(lengths))
    timestamps, rows = corpus.posts.timestamp[embedded], corpus.row_of_post[embedded]
    values = corpus.embeddings.values
    paths = np.empty((len(user_ids), corpus.window.n_daily_grid, corpus.embeddings.d))

    def fill(u0: int) -> None:
        users = slice(u0, min(u0 + USER_BLOCK, len(user_ids)))
        posts = slice(bounds[users.start], bounds[users.stop])
        _interpolate_users(timestamps[posts], values[rows[posts]], lengths[users], corpus.window, paths[users])

    parallel_map(fill, range(0, len(user_ids), USER_BLOCK), workers=workers)
    report = {"n_users": len(user_ids), "n_skipped_no_embeddings": len(corpus.users) - len(user_ids)}
    return user_ids, paths, report


def group_average_trajectory(trajectories) -> np.ndarray:
    """Coordinate-wise centroid of a list or stack of trajectories."""
    if len(trajectories) == 0:
        raise ValueError("group must be non-empty")
    return np.asarray(trajectories, dtype=np.float64).mean(axis=0)


def write_trajectories(path, user_ids: list[str], paths_array: np.ndarray) -> None:
    """Binary trajectory file: TRJ1, u32 count, u32 T, u32 k, then per user
    a u32 length-prefixed utf-8 id and T*k float64 little-endian values."""
    paths_array = np.asarray(paths_array, dtype=np.float64)
    if paths_array.ndim != 3 or paths_array.shape[0] != len(user_ids):
        raise ValueError("paths_array must be (n_users, T, k)")
    n, t_steps, k = paths_array.shape
    with open(path, "wb") as fh:
        fh.write(TRAJ_MAGIC)
        fh.write(struct.pack("<III", n, t_steps, k))
        for i, user_id in enumerate(user_ids):
            encoded = user_id.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(np.ascontiguousarray(paths_array[i], dtype="<f8").tobytes())


def read_trajectories(path) -> tuple[list[str], np.ndarray]:
    """Read a TRJ1 file; a file that is cut short or runs past its last user
    raises ValueError naming the file and the part that is wrong."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        # Lengths are checked against the file before anything is read or
        # allocated, so a corrupt length cannot ask for more memory than the
        # file could fill.
        def take(n_bytes: int, what: str) -> bytes:
            if n_bytes > size - fh.tell():
                raise ValueError(f"{path}: truncated {what}: {size - fh.tell()} of {n_bytes} bytes")
            return fh.read(n_bytes)

        magic = fh.read(4)
        if magic != TRAJ_MAGIC:
            raise ValueError(f"{path}: bad trajectory file magic: {magic!r}")
        n, t_steps, k = struct.unpack("<III", take(12, "header"))
        row_bytes = t_steps * k * 8
        if 16 + n * (4 + row_bytes) > size:
            raise ValueError(
                f"{path}: truncated: the header's {n} users of {t_steps}x{k} values "
                f"need more than the file's {size} bytes"
            )
        user_ids = []
        paths = np.empty((n, t_steps, k), dtype=np.float64)
        for i in range(n):
            (id_len,) = struct.unpack("<I", take(4, f"id length of user {i}"))
            user_ids.append(take(id_len, f"id of user {i}").decode("utf-8"))
            payload = take(row_bytes, f"values of user {i}")
            paths[i] = np.frombuffer(payload, dtype="<f8").reshape(t_steps, k)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last of {n} users")
    return user_ids, paths
