"""Independent oracles shared across test modules.

These stay deliberately naive and separate from the package implementation:
enumeration, closed forms, and brute force only.
"""
from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np


def exact_u_distribution_multiset(values_a, values_b):
    """Exact permutation distribution of U over a tied value multiset.

    Enumerates compositions of the pooled value counts into group A rather
    than individual permutations, weighting each composition by the number
    of permutations realizing it. Returns [(u, weight)] with midrank U.
    """
    pooled = sorted(list(values_a) + list(values_b))
    distinct = sorted(set(pooled))
    counts = [pooled.count(v) for v in distinct]
    n1 = len(values_a)
    # Midranks per distinct value.
    midrank = {}
    start = 1
    for v, c in zip(distinct, counts):
        midrank[v] = start + (c - 1) / 2.0
        start += c
    dist = []

    def recurse(i, remaining, chosen, weight):
        if i == len(distinct):
            if remaining == 0:
                rank_sum = sum(midrank[distinct[j]] * chosen[j] for j in range(len(distinct)))
                u = rank_sum - n1 * (n1 + 1) / 2.0
                dist.append((u, weight))
            return
        max_take = min(counts[i], remaining)
        for take in range(max_take + 1):
            recurse(i + 1, remaining - take, chosen + [take], weight * math.comb(counts[i], take))

    recurse(0, n1, [], 1)
    return dist


def exact_u_pvalue_greater(values_a, values_b):
    """Exact one-sided (greater) midrank-U p-value via multiset enumeration."""
    a = list(values_a)
    b = list(values_b)
    pooled = sorted(a + b)
    ranks = {}
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[j + 1] == pooled[i]:
            j += 1
        ranks[pooled[i]] = (i + j) / 2.0 + 1.0
        i = j + 1
    u_obs = sum(ranks[v] for v in a) - len(a) * (len(a) + 1) / 2.0
    dist = exact_u_distribution_multiset(a, b)
    total = sum(w for _, w in dist)
    hits = sum(w for u, w in dist if u >= u_obs - 1e-9)
    return hits / total


def tiefree_u_pvalue(u_obs, n1, n2, alternative):
    """Exact tie-free U-test p by direct enumeration of rank subsets."""
    all_u = [sum(c) - n1 * (n1 + 1) / 2.0 for c in combinations(range(1, n1 + n2 + 1), n1)]
    total = len(all_u)
    if alternative == "greater":
        return sum(1 for u in all_u if u >= u_obs) / total
    if alternative == "less":
        return sum(1 for u in all_u if u <= u_obs) / total
    lo = min(u_obs, n1 * n2 - u_obs)
    hi = n1 * n2 - lo
    return min(1.0, sum(1 for u in all_u if u <= lo or u >= hi) / total)


def t_interval(samples, level=0.95):
    """Sample mean and the halfwidth of its two-sided t confidence interval."""
    from scipy import stats as sps

    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    t_crit = float(sps.t.ppf(0.5 + level / 2.0, n - 1))
    return float(samples.mean()), t_crit * float(samples.std(ddof=1)) / math.sqrt(n)


def closed_form_ols(x, y):
    """Textbook OLS slope/intercept/t/p with scipy's t distribution."""
    from scipy import stats as sps

    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = ((x - xm) ** 2).sum()
    sxy = ((x - xm) * (y - ym)).sum()
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - intercept - slope * x
    sigma2 = (resid**2).sum() / (n - 2)
    stderr = math.sqrt(sigma2 / sxx)
    t = slope / stderr
    p = 2 * sps.t.sf(abs(t), n - 2)
    return slope, intercept, stderr, t, p


def brute_force_knn_cosine(train, labels, k, query):
    """O(m) cosine scan with the documented tie rules."""
    train = np.asarray(train, float)
    query = np.asarray(query, float)
    sims = []
    qn = query / np.linalg.norm(query)
    for i, row in enumerate(train):
        sims.append((float(row @ qn / np.linalg.norm(row)), i))
    sims.sort(key=lambda t: (-t[0], t[1]))
    top = sims[:k]
    tally = {}
    for sim, i in top:
        lab = int(labels[i])
        cnt, tot = tally.get(lab, (0, 0.0))
        tally[lab] = (cnt + 1, tot + sim)
    best = max(tally.items(), key=lambda item: (item[1][0], item[1][1], -item[0]))
    return best[0]


def segment_interpolate(tau_points, values, tau_query):
    """Two-point linear interpolation by explicit segment search."""
    if tau_query <= tau_points[0]:
        return values[0]
    if tau_query >= tau_points[-1]:
        return values[-1]
    for i in range(len(tau_points) - 1):
        if tau_points[i] <= tau_query <= tau_points[i + 1]:
            t0, t1 = tau_points[i], tau_points[i + 1]
            w = (tau_query - t0) / (t1 - t0)
            return values[i] + w * (values[i + 1] - values[i])
    raise AssertionError("query outside scanned segments")


def np_interp_daily(timestamps, embeddings, window):
    """One user's daily path by numpy's own interpolation: posts put in time
    order by a stable sort, posts sharing a second averaged by ``np.add.at``
    into zeros (only when some second is shared), then ``np.interp`` per
    column on the window's grid g / (G - 1) in normalized time. ``window``
    needs ``t0``, ``t_end`` and ``n_daily_grid``."""
    timestamps = np.asarray(timestamps, dtype=np.int64)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    order = np.argsort(timestamps, kind="mergesort")
    timestamps, embeddings = timestamps[order], embeddings[order]
    uniq, inverse, counts = np.unique(timestamps, return_inverse=True, return_counts=True)
    if uniq.size != timestamps.size:
        merged = np.zeros((uniq.size, embeddings.shape[1]))
        np.add.at(merged, inverse, embeddings)
        merged /= counts[:, None]
        timestamps, embeddings = uniq, merged
    tau = (timestamps.astype(np.float64) - window.t0) / (window.t_end - window.t0)
    grid = np.arange(window.n_daily_grid, dtype=np.float64) / (window.n_daily_grid - 1)
    return np.stack([np.interp(grid, tau, embeddings[:, col]) for col in range(embeddings.shape[1])], axis=1)


def weekly_group_toxicity(posts_path, groups_path, window_path) -> dict[str, list[str]]:
    """The cells of a run report's "Weekly mean toxicity by group" table,
    from the run's files read with plain json.

    Per group, one cell per week: the mean toxicity of the members' scored
    posts in that week, to two decimals, or "" for none. The last week also
    takes the days past the last full week. Members are taken in group order
    (a trend group by user id, a reference group as listed, which is by
    closeness) and each member's posts in file order, and the sums add in
    that order.
    """
    with open(window_path, encoding="utf-8") as fh:
        window = json.load(fh)
    with open(groups_path, encoding="utf-8") as fh:
        groups = json.load(fh)
    posts_by_user: dict[str, list[dict]] = {}
    with open(posts_path, encoding="utf-8") as fh:
        for line in fh:
            post = json.loads(line)
            posts_by_user.setdefault(post["user_id"], []).append(post)
    n_weeks = window["n_daily_grid"] // window["week_len_days"]
    week_seconds = window["week_len_days"] * 86400

    def trend_group(name):
        return sorted(a["user_id"] for a in groups["assignments"] if a["group"] == name)

    members = {
        "Increasing": trend_group("Increasing"),
        "IncreasingRef": groups["reference_increasing"],
        "Decreasing": trend_group("Decreasing"),
        "DecreasingRef": groups["reference_decreasing"],
    }
    cells = {}
    for name, users in members.items():
        sums, counts = [0.0] * n_weeks, [0] * n_weeks
        for user in users:
            for post in posts_by_user.get(user, []):
                if "toxicity_raw" in post:
                    toxicity = (post["toxicity_raw"] - 1) * 25.0
                elif "toxicity" in post:
                    toxicity = post["toxicity"]
                else:
                    continue
                week = min((post["timestamp"] - window["t0"]) // week_seconds, n_weeks - 1)
                sums[week] += toxicity
                counts[week] += 1
        cells[name] = ["" if c == 0 else f"{s / c:.2f}" for s, c in zip(sums, counts)]
    return cells


POST_FIELDS = ("post_id", "user_id", "timestamp", "toxicity", "toxicity_raw", "text")


def read_posts_per_line(path):
    """A posts file read one line at a time with plain json and the format's
    rules: each non-blank stripped line is one object with string or integer
    ids, an int64 timestamp, optional string text, an optional toxicity in
    [0, 100] and an optional toxicity_raw in 1..5 that agrees with it. Ids
    and text must encode as UTF-8, so they hold no lone surrogate.

    Returns ``(columns, None)`` for a valid file, with one list per field in
    ``POST_FIELDS`` (toxicity NaN and toxicity_raw 0 where absent; a rating
    sets the toxicity), or ``(None, n)`` naming the first bad line ``n``.
    """
    columns = {field: [] for field in POST_FIELDS}
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                return None, n
            if not isinstance(doc, dict) or not {"post_id", "user_id", "timestamp"} <= doc.keys():
                return None, n
            ids = [doc["post_id"], doc["user_id"]]
            if any(isinstance(v, bool) or not isinstance(v, (str, int)) for v in ids):
                return None, n
            timestamp, text = doc["timestamp"], doc.get("text")
            if isinstance(timestamp, bool) or not isinstance(timestamp, int) or not -(2**63) <= timestamp < 2**63:
                return None, n
            if text is not None and not isinstance(text, str):
                return None, n
            try:
                for value in (*ids, text):
                    if isinstance(value, str):
                        value.encode("utf-8")
            except UnicodeEncodeError:
                return None, n
            score, raw = doc.get("toxicity"), doc.get("toxicity_raw")
            if score is not None:
                if isinstance(score, bool) or not isinstance(score, (int, float)) or not 0 <= score <= 100:
                    return None, n
                score = float(score)
            if raw is not None:
                if isinstance(raw, bool) or not isinstance(raw, int) or not 1 <= raw <= 5:
                    return None, n
                if score is not None and not math.isclose(score, (raw - 1) * 25.0, abs_tol=1e-9):
                    return None, n
                score = (raw - 1) * 25.0
            values = (str(ids[0]), str(ids[1]), timestamp, math.nan if score is None else score, raw or 0, text)
            for field, value in zip(POST_FIELDS, values):
                columns[field].append(value)
    return columns, None


def write_posts_json(path, post_id, user_id, timestamp, toxicity, toxicity_raw, text):
    """A posts file as ``json.dumps(doc, ensure_ascii=False)`` writes it, one
    line per post: the ids and timestamp, text if any, then toxicity_raw if
    non-zero, else toxicity unless NaN."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(post_id)):
            doc = {"post_id": post_id[i], "user_id": user_id[i], "timestamp": int(timestamp[i])}
            if text[i] is not None:
                doc["text"] = text[i]
            if toxicity_raw[i]:
                doc["toxicity_raw"] = int(toxicity_raw[i])
            elif not math.isnan(toxicity[i]):
                doc["toxicity"] = float(toxicity[i])
            fh.write(json.dumps(doc, ensure_ascii=False) + "\n")


def naive_single_linkage(endpoints, weights, n):
    """Single-linkage dendrogram of a spanning tree, by relabelling points.

    Edges merge in the order (weight, min endpoint, max endpoint). Merge i
    makes node n + i; its children are the nodes that held the components of
    the edge's first and second endpoint, in that order. Returns (children,
    dist, size), with size indexed by node id, points first.
    """
    edges = sorted(zip(np.asarray(weights).tolist(), np.asarray(endpoints).tolist()),
                   key=lambda edge: (edge[0], min(edge[1]), max(edge[1])))
    holder = list(range(n))  # the node that holds each point's component
    size = [1] * n
    children, dist = [], []
    for w, (u, v) in edges:
        a, b = holder[u], holder[v]
        node = n + len(children)
        children.append((a, b))
        dist.append(w)
        size.append(size[a] + size[b])
        holder = [node if x in (a, b) else x for x in holder]
    return (np.array(children, dtype=np.int64).reshape(-1, 2), np.array(dist, dtype=np.float64),
            np.array(size, dtype=np.int64))
