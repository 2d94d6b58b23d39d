"""Statistics kernel.

OLS trend test, Mann-Whitney U, Pearson r and Cohen's kappa. The t and
normal tails come from ``scipy.special`` (``stdtr``, ``ndtr``), which
``scipy.spatial`` loads anyway.
scipy's statistics package is never imported: it would cost the process
about 33 MB and 0.6 s. Everything here is a pure function; no global state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy.special import ndtr, stdtr

ALTERNATIVES = ("greater", "less", "two_sided")


def norm_cdf(z: float) -> float:
    return float(ndtr(z))


def t_cdf(t: float, df: float) -> float:
    return float(stdtr(df, t))


def _check_finite(name: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{name}: input has non-finite values")


@dataclass(frozen=True)
class TrendFit:
    """Simple linear regression fit with a two-sided slope test."""

    slope: float
    intercept: float
    stderr_slope: float
    t_stat: float
    p_value: float
    n: int


def ols_trend(x: Sequence[float], y: Sequence[float]) -> TrendFit:
    """Least-squares line y = intercept + slope * x with slope p-value.

    The p-value is two-sided from the t distribution with n - 2 degrees of
    freedom. Perfect fits use the convention: zero residual variance with a
    nonzero slope reports p = 0 and stderr = 0; a zero slope reports p = 1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D sequences of equal length")
    _check_finite("ols_trend", x, y)
    n = x.size
    if n < 3:
        raise ValueError("ols_trend requires at least 3 observations")
    x_mean = x.mean()
    y_mean = y.mean()
    dx = x - x_mean
    dy = y - y_mean
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("degenerate regressor: all x values are equal")
    sxy = float(dx @ dy)
    syy = float(dy @ dy)
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    sse = max(syy - slope * sxy, 0.0)
    if syy == 0.0 or sse <= 1e-12 * syy:
        if slope == 0.0:
            return TrendFit(slope, intercept, 0.0, 0.0, 1.0, n)
        t_stat = math.inf if slope > 0 else -math.inf
        return TrendFit(slope, intercept, 0.0, t_stat, 0.0, n)
    df = n - 2
    sigma2 = sse / df
    stderr = math.sqrt(sigma2 / sxx)
    t_stat = slope / stderr
    p_value = min(1.0, 2.0 * float(stdtr(df, -abs(t_stat))))
    return TrendFit(slope, intercept, stderr, t_stat, p_value, n)


@dataclass(frozen=True)
class UTestResult:
    u_statistic: float
    p_value: float
    alternative: str
    method: str


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fractional ranks (1-based), tied values sharing the mean rank, and
    the size of each tie group. A group's midrank is its last rank minus
    (count - 1) / 2, exact in halves."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse], counts


def _exact_u_pvalue(u: float, n1: int, n2: int, alternative: str) -> float:
    """Exact p by enumerating all C(n1+n2, n1) tie-free rank assignments."""
    total_ranks = range(1, n1 + n2 + 1)
    offset = n1 * (n1 + 1) / 2.0
    u_values = [sum(c) - offset for c in combinations(total_ranks, n1)]
    total = len(u_values)
    if alternative == "greater":
        count = sum(1 for v in u_values if v >= u)
    elif alternative == "less":
        count = sum(1 for v in u_values if v <= u)
    else:
        u_low = min(u, n1 * n2 - u)
        u_high = n1 * n2 - u_low
        count = sum(1 for v in u_values if v <= u_low or v >= u_high)
    return min(1.0, count / total)


def _normal_u_pvalue(u: float, n1: int, n2: int, tie_term: float, alternative: str) -> float:
    """Normal approximation with tie correction and continuity correction."""
    n = n1 + n2
    mu = n1 * n2 / 2.0
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma2 <= 0.0:
        return 1.0
    sigma = math.sqrt(sigma2)
    if alternative == "greater":
        return norm_cdf(-(u - mu - 0.5) / sigma)
    if alternative == "less":
        return norm_cdf((u - mu + 0.5) / sigma)
    if u > mu:
        z = (u - mu - 0.5) / sigma
    elif u < mu:
        z = (u - mu + 0.5) / sigma
    else:
        z = 0.0
    return min(1.0, 2.0 * norm_cdf(-abs(z)))


def mann_whitney_u(a: Sequence[float], b: Sequence[float], alternative: str = "two_sided") -> UTestResult:
    """Mann-Whitney U test; U is reported for the first sample.

    Exact enumeration when n1 + n2 <= 16 and there are no ties, the
    tie/continuity-corrected normal approximation otherwise.
    """
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    n1, n2 = a.size, b.size
    combined = np.concatenate([a, b])
    _check_finite("mann_whitney_u", combined)
    ranks, counts = _midranks(combined)
    u = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)
    tie_term = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    if n1 + n2 <= 16 and tie_term == 0.0:
        p = _exact_u_pvalue(u, n1, n2, alternative)
        return UTestResult(u, p, alternative, "exact")
    p = _normal_u_pvalue(u, n1, n2, tie_term, alternative)
    return UTestResult(u, p, alternative, "normal_approx")


def pearson_r(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Precondition: neither input is constant, i.e. ``np.ptp`` of each is
    nonzero; otherwise ``ValueError`` is raised. An exactly constant input is
    rejected even when rounding in its mean leaves tiny nonzero residuals.
    Each input is first multiplied by the power of two that brings its max-abs
    into [0.5, 1). That is exact, so results for normal-range inputs are
    unchanged, while a tiny or subnormal spread neither loses its mean to
    rounding nor underflows in the products.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D sequences of equal length")
    if a.size < 2:
        raise ValueError("pearson_r requires at least 2 observations")
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise ValueError("pearson_r requires nonzero variance in both inputs")
    a = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
    b = np.ldexp(b, -np.frexp(np.abs(b).max())[1])
    da = a - a.mean()
    db = b - b.mean()
    r = float(da @ db) / math.sqrt(float(da @ da) * float(db @ db))
    return max(-1.0, min(1.0, r))


def cohens_kappa(labels_a: Sequence, labels_b: Sequence) -> float:
    """Chance-corrected agreement between two label sequences."""
    labels_a = list(labels_a)
    labels_b = list(labels_b)
    if len(labels_a) != len(labels_b):
        raise ValueError("label sequences must have equal length")
    if not labels_a:
        raise ValueError("label sequences must be non-empty")
    n = len(labels_a)
    p_o = sum(1 for x, y in zip(labels_a, labels_b) if x == y) / n
    categories = set(labels_a) | set(labels_b)
    p_e = 0.0
    for cat in categories:
        p_e += (labels_a.count(cat) / n) * (labels_b.count(cat) / n)
    if p_e >= 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)

