"""Two-group permutational MANOVA over flattened trajectory vectors.

The pseudo-F statistic SS_between / (SS_within / (N - 2)) is referred to a
null distribution built by reshuffling user-level group labels; the p-value
counts the identity arrangement, so p >= 1 / (n_permutations + 1). Each block
of PERMUTATION_BLOCK permutations is drawn from its own counter-based stream
keyed by (seed, block index), and its F values come from one float32 product;
an F that rounding could carry across F_obs is recomputed in float64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import JsonRecord, check_range, parallel_map, substream

DEFAULT_PERMUTATIONS = 4999
# Permutations drawn from one random stream, whose group sums one float32
# indicator-matrix product forms; each block is one worker task.
PERMUTATION_BLOCK = 64
# A batched F within this of F_obs, relative and on top of _block_f's band,
# or with SSW within this of zero relative to SST, is recomputed by
# _f_from_counts. It covers the last few roundings of F that the band omits.
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class PermanovaResult(JsonRecord):
    pseudo_f: float
    p_value: float
    exceed: int
    eta_squared: float
    ss_between: float
    ss_within: float
    n_permutations: int
    df: tuple[int, int]
    degenerate: bool = False


def _as_matrix(group, name: str) -> np.ndarray:
    arr = np.asarray(group, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("each group must be a non-empty 2-D array of vectors")
    non_finite = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if non_finite.size:
        raise ValueError(f"{name} row {int(non_finite[0])} has non-finite values")
    return arr


def ss_decomposition(group_a, group_b) -> tuple[float, float]:
    """Between- and within-group sums of squares about the group centroids."""
    a = _as_matrix(group_a, "group_a")
    b = _as_matrix(group_b, "group_b")
    if a.shape[1] != b.shape[1]:
        raise ValueError("groups must have equal vector dimension")
    n_a, n_b = a.shape[0], b.shape[0]
    mean_a = a.mean(axis=0)
    mean_b = b.mean(axis=0)
    grand = (n_a * mean_a + n_b * mean_b) / (n_a + n_b)
    ss_between = n_a * float(((mean_a - grand) ** 2).sum()) + n_b * float(
        ((mean_b - grand) ** 2).sum()
    )
    ss_within = float(((a - mean_a) ** 2).sum()) + float(((b - mean_b) ** 2).sum())
    return ss_between, ss_within


def pseudo_f(ss_between: float, ss_within: float, n_total: int) -> float:
    """SS_between / (SS_within / (N - 2)); +inf when within-SS vanishes."""
    if n_total < 3:
        raise ValueError("pseudo_f requires at least 3 observations")
    if ss_within == 0.0:
        return math.inf if ss_between > 0.0 else 0.0
    return ss_between / (ss_within / (n_total - 2))


def _canonical_order(x: np.ndarray) -> np.ndarray:
    """np.lexsort(x.T[::-1])'s order: rows by column 0, then 1, ..., then
    index. A stable argsort of column 0 places the rows; only the runs it
    leaves tied are sorted further, in one lexsort keyed first by the run."""
    order = np.argsort(x[:, 0], kind="stable")
    tie = x[order[1:], 0] == x[order[:-1], 0]
    if x.shape[1] > 1 and tie.any():
        run = np.cumsum(np.concatenate(([True], ~tie)))
        pos = np.flatnonzero(np.concatenate(([False], tie)) | np.concatenate((tie, [False])))
        tied = order[pos]
        order[pos] = tied[np.lexsort((*x[tied, :0:-1].T, run[pos]))]
    return order


def _f_from_counts(x: np.ndarray, idx_a: np.ndarray, total_sum: np.ndarray, sst: float) -> float:
    """F for one label arrangement, via the SST = SSB + SSW identity."""
    n = x.shape[0]
    n_a = idx_a.size
    n_b = n - n_a
    sum_a = x[idx_a].sum(axis=0)
    mean_a = sum_a / n_a
    mean_b = (total_sum - sum_a) / n_b
    grand = total_sum / n
    ssb = n_a * float(((mean_a - grand) ** 2).sum()) + n_b * float(((mean_b - grand) ** 2).sum())
    ssw = sst - ssb
    if ssw <= 0.0:
        return math.inf if ssb > 0.0 else 0.0
    return ssb / (ssw / (n - 2))


def _block_f(z32, idx, sst, z_half, x_abs, f_obs) -> tuple[np.ndarray, np.ndarray]:
    """F for each row of draws ``idx`` (B, k), and which rows are too close to
    call against ``f_obs``.

    ``z32`` is the canonical rows less their mean, centred in float64 and cast
    to float32; per column, ``z_half`` is the larger of its sums of positive
    and of negative parts, ``x_abs`` the sum of the uncentred |rows|. SSB is
    h·|S|², h = 1/k + 1/(n - k), S the drawn rows' exactly centred column
    sums, and c = ind @ z32, a float32 product with a 0/1 indicator, stands
    for S. Each partial sum of drawn terms lies within z_half of 0, so each
    column of c is within e = g·(1 + 2g)·z_half + 2n·eps·x_abs + k·tiny of S,
    g = (k + 2)·2^-24 / (1 - (k + 2)·2^-24), tiny float32's least subnormal:
    k - 1 of the k + 2 for float32 sums in any order (so a BLAS thread split
    cannot change a verdict), 2 for the cast, 1 for the centring; half the
    x_abs term for k times the mean's error, the rest, as n·h >= 4, for
    _f_from_counts's mean deviations (within 2·eps·x_abs of S/k, 4·eps·x_abs
    of -S/(n - k)); tiny for a cast that underflows. So the two SSBs differ by
    at most dssb = h·(2|c|·e + 3|e|²) + (d + 4)·eps·SSB, the last term for
    their float64 norms and products, and with SSW > 2·dssb their F values by
    at most 2·(n - 2)·SST·dssb / SSW². A row is unsure, and goes back to
    _f_from_counts, when that could put the two on either side of ``f_obs``,
    when SSW is not clearly positive (float32 overflow included), or when
    F_obs is not finite.
    """
    b, k = idx.shape
    if not math.isfinite(f_obs):
        return np.zeros(b), np.ones(b, dtype=bool)
    n, d = z32.shape
    ind = np.zeros((b, n), dtype=np.float32)
    ind[np.arange(b)[:, None], idx] = 1.0
    c = (ind @ z32).astype(np.float64)
    h = 1.0 / k + 1.0 / (n - k)
    ssb = h * (c * c).sum(axis=1)
    ssw = sst - ssb
    eps, g = np.finfo(np.float64).eps, (k + 2) * 2.0**-24 / (1.0 - (k + 2) * 2.0**-24)
    e = g * (1.0 + 2.0 * g) * z_half + 2.0 * n * eps * x_abs + k * np.finfo(np.float32).smallest_subnormal
    dssb = h * (2.0 * (np.abs(c) @ e) + 3.0 * float(e @ e)) + (d + 4) * eps * ssb
    f = np.zeros(b)
    unsure = ~(ssw > TIE_RTOL * sst + 2.0 * dssb)
    ok = ~unsure
    f[ok] = ssb[ok] / (ssw[ok] / (n - 2))
    df = (n - 2) * sst * dssb[ok] / ssw[ok] ** 2
    unsure[ok] = np.abs(f[ok] - f_obs) <= TIE_RTOL * f_obs + 2.0 * df
    return f, unsure


def permanova_test(
    group_a,
    group_b,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    workers: int = 1,
) -> PermanovaResult:
    """Permutation test of group separation in trajectory space.

    Labels are reshuffled preserving group sizes. Block b holds permutations
    [64b, 64b + 64): substream(seed, "permanova", "block", b) shuffles each
    of its rows of row indices, Fisher-Yates, and keeps the first k. Each
    block is one worker task, so results do not depend on worker count.
    exceed = #{F_perm >= F_obs}; p = (1 + exceed) / (1 + n_permutations).
    """
    check_range("n_permutations", n_permutations)
    a = _as_matrix(group_a, "group_a")
    b = _as_matrix(group_b, "group_b")
    if a.shape[1] != b.shape[1]:
        raise ValueError("groups must have equal vector dimension")
    n_a = a.shape[0]
    x = np.vstack([a, b])
    n = x.shape[0]
    if n < 3:
        raise ValueError("permanova requires at least 3 observations in total")
    ss_between, ss_within = ss_decomposition(a, b)
    f_obs = pseudo_f(ss_between, ss_within, n)
    # Permute over a canonically ordered copy with the smaller group size
    # drawn: the null distribution of F depends only on the pooled rows and
    # the unordered size split, which makes p exactly swap-invariant.
    xs = x[_canonical_order(x)]
    k = min(n_a, n - n_a)
    total_sum = xs.sum(axis=0)
    z = xs - total_sum / n
    sst = float((z**2).sum())
    z32 = z.astype(np.float32)
    z_half = (np.abs(z32).sum(axis=0, dtype=np.float64) + np.abs(z32.sum(axis=0, dtype=np.float64))) / 2
    x_abs = np.abs(xs).sum(axis=0)
    rows = np.tile(np.arange(n), (PERMUTATION_BLOCK, 1))

    def count_block(block: int) -> int:
        size = min(PERMUTATION_BLOCK, n_permutations - block * PERMUTATION_BLOCK)
        idx = substream(seed, "permanova", "block", block).permuted(rows[:size], axis=1)[:, :k]
        f, unsure = _block_f(z32, idx, sst, z_half, x_abs, f_obs)
        count = int(np.count_nonzero(f[~unsure] >= f_obs))
        return count + sum(_f_from_counts(xs, idx_a, total_sum, sst) >= f_obs for idx_a in idx[unsure])

    n_blocks = -(-n_permutations // PERMUTATION_BLOCK)
    exceed = sum(parallel_map(count_block, range(n_blocks), workers=workers))

    p_value = (1 + exceed) / (1 + n_permutations)
    denom = ss_between + ss_within
    eta_squared = ss_between / denom if denom > 0 else 0.0
    return PermanovaResult(
        pseudo_f=f_obs,
        p_value=p_value,
        exceed=exceed,
        eta_squared=eta_squared,
        ss_between=ss_between,
        ss_within=ss_within,
        n_permutations=n_permutations,
        df=(1, n - 2),
        degenerate=not math.isfinite(f_obs),
    )
