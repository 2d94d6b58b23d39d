"""Naive reference clustering used as the test oracle.

Deliberately simple and independent of the package implementation: dense
distance matrix, O(n^2) Prim with a per-vertex best-edge list, dict-based
dendrogram, recursive condense/selection. Plain Python lists throughout; only
suitable for small n.

``dense_prim_mst`` is the exception: numpy Prim over the implicit graph, which
computes each weight with the package's own expression and so gives the same
bits. It serves as the bit-exact MST oracle up to a few thousand points.
"""
from __future__ import annotations

import math

import numpy as np


def reference_core_distances(points, min_samples):
    n = len(points)
    cores = []
    for i in range(n):
        dists = sorted(math.dist(points[i], points[j]) for j in range(n))
        cores.append(dists[min_samples - 1])
    return cores


def reference_mutual_reachability(points, cores):
    n = len(points)
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i][j] = max(math.dist(points[i], points[j]), cores[i], cores[j])
    return m


def reference_prim(m):
    """Textbook O(n^2) Prim over the dense matrix ``m``, started at vertex 0.

    ``best[j]`` holds the cheapest candidate edge from the visited set to the
    unvisited vertex ``j`` under the key ``(weight, min(i, j), max(i, j), i)``.
    Each step adds the unvisited ``j`` with the smallest ``(best[j], j)`` and
    relaxes only the new vertex's row. This picks the same edge, in the same
    order, as a rescan of every visited x unvisited pair keyed by
    ``(weight, min(i, j), max(i, j), i, j)``. Returns ``(weight, i, j)``
    tuples with ``i`` visited and ``j`` the vertex it adds.
    """
    n = len(m)
    best = [(m[0][j], 0, j, 0) for j in range(n)]
    unvisited = list(range(1, n))
    edges = []
    while unvisited:
        j = min(unvisited, key=lambda v: (best[v], v))
        unvisited.remove(j)
        w, _, _, i = best[j]
        edges.append((w, i, j))
        row = m[j]
        for k in unvisited:
            cand = (row[k], min(j, k), max(j, k), j)
            if cand < best[k]:
                best[k] = cand
    return edges


def dense_prim_mst(
    points: np.ndarray, cores: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense numpy Prim: the package's MST before its Boruvka rewrite, kept
    verbatim as a bit-exact oracle. O(n^2) time, O(n) memory.

    Prim's algorithm over the implicit graph. Reachability weights tie
    frequently (shared core distances), so edge comparisons use the full key
    (w, min(u, v), max(u, v)); under that total order the minimum spanning
    tree is unique. Each edge is emitted as (tree vertex, vertex added).
    """
    points = np.asarray(points, dtype=np.float64)
    cores = np.asarray(cores, dtype=np.float64)
    if points.shape[0] != cores.shape[0]:
        raise ValueError("cores must be computed from the same points")
    if not np.all(np.isfinite(points)) or not np.all(np.isfinite(cores)):
        raise ValueError("non-finite coordinates or core distances")
    n = points.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.float64)
    idx = np.arange(n)
    in_tree = np.zeros(n, dtype=bool)
    best_weight = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=np.int64)
    endpoints = np.empty((n - 1, 2), dtype=np.int64)
    weights = np.empty(n - 1, dtype=np.float64)
    current = 0
    in_tree[0] = True
    for step in range(n - 1):
        dist = np.sqrt(((points - points[current]) ** 2).sum(axis=1))
        mreach = np.maximum(dist, np.maximum(cores, cores[current]))
        new_lo = np.minimum(current, idx)
        new_hi = np.maximum(current, idx)
        old_lo = np.minimum(best_from, idx)
        old_hi = np.maximum(best_from, idx)
        better = (mreach < best_weight) | (
            (mreach == best_weight)
            & ((new_lo < old_lo) | ((new_lo == old_lo) & (new_hi < old_hi)))
        )
        improved = (~in_tree) & better
        best_weight[improved] = mreach[improved]
        best_from[improved] = current
        outside = np.flatnonzero(~in_tree)
        min_w = best_weight[outside].min()
        ties = outside[best_weight[outside] == min_w]
        if ties.size == 1:
            nxt = int(ties[0])
        else:
            lo = np.minimum(best_from[ties], ties)
            hi = np.maximum(best_from[ties], ties)
            nxt = int(ties[np.lexsort((hi, lo))[0]])
        endpoints[step, 0] = best_from[nxt]
        endpoints[step, 1] = nxt
        weights[step] = best_weight[nxt]
        in_tree[nxt] = True
        current = nxt
    return endpoints, weights


def reference_single_linkage(edges, n):
    """Dict dendrogram: node -> (left, right, dist, member frozenset)."""
    edges = sorted(edges, key=lambda e: (e[0], min(e[1], e[2]), max(e[1], e[2])))
    comp = {i: i for i in range(n)}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    tree = {i: (None, None, 0.0, frozenset([i])) for i in range(n)}
    active = {i: i for i in range(n)}  # root of union -> dendrogram node
    next_node = n
    for w, u, v in edges:
        ru, rv = find(u), find(v)
        left, right = active[ru], active[rv]
        members = tree[left][3] | tree[right][3]
        tree[next_node] = (left, right, w, members)
        comp[rv] = ru
        active[find(ru)] = next_node
        next_node += 1
    return tree, next_node - 1


def reference_condense(tree, root, min_cluster_size):
    """Condensed tree as nested dicts with stability bookkeeping."""
    clusters = {}
    counter = {"next": 0}

    def lam_of(node):
        dist = tree[node][2]
        return math.inf if dist == 0.0 else 1.0 / dist

    def walk(node, cluster_id, birth):
        entry = clusters.setdefault(
            cluster_id,
            {"birth": birth, "rows": [], "children": [], "points": set()},
        )
        left, right, dist, members = tree[node]
        if left is None:
            raise AssertionError("leaf reached while cluster still active")
        lam = math.inf if dist == 0.0 else 1.0 / dist
        sizes = [len(tree[left][3]), len(tree[right][3])]
        if sizes[0] >= min_cluster_size and sizes[1] >= min_cluster_size:
            for child in (left, right):
                child_id = counter["next"]
                counter["next"] += 1
                entry["children"].append(child_id)
                entry["rows"].append((lam, len(tree[child][3])))
                clusters[child_id] = {
                    "birth": lam,
                    "rows": [],
                    "children": [],
                    "points": set(),
                }
                if tree[child][0] is None:
                    raise AssertionError("cluster child cannot be a leaf")
                walk(child, child_id, lam)
        else:
            for child, size in ((left, sizes[0]), (right, sizes[1])):
                if size >= min_cluster_size:
                    walk(child, cluster_id, birth)
                else:
                    entry["rows"].append((lam, size))
                    entry["points"].update(tree[child][3])

    root_id = counter["next"]
    counter["next"] += 1
    walk(root, root_id, 0.0)
    for cid, entry in clusters.items():
        entry["stability"] = sum((lam - entry["birth"]) * size for lam, size in entry["rows"])
    return clusters, root_id


def reference_select(clusters, root_id):
    """Excess-of-mass: maximize total stability; the root is never chosen."""

    def best_under(cid):
        entry = clusters[cid]
        if not entry["children"]:
            return {cid}, entry["stability"]
        sets, total = zip(*(best_under(c) for c in entry["children"]))
        child_total = sum(total)
        child_set = set().union(*sets)
        if entry["stability"] >= child_total:
            return {cid}, entry["stability"]
        return child_set, child_total

    if not clusters[root_id]["children"]:
        return set()
    chosen = set()
    for child in clusters[root_id]["children"]:
        chosen |= best_under(child)[0]
    return chosen


def reference_all_points(clusters, cid):
    entry = clusters[cid]
    points = set(entry["points"])
    for child in entry["children"]:
        points |= reference_all_points(clusters, child)
    return points


def reference_hdbscan(points, min_cluster_size, min_samples):
    """Full naive pipeline; returns per-point labels with -1 outliers."""
    points = [list(map(float, p)) for p in np.asarray(points)]
    n = len(points)
    if n < 2 or min_cluster_size > n or min_samples > n:
        return np.full(n, -1, dtype=int)
    cores = reference_core_distances(points, min_samples)
    m = reference_mutual_reachability(points, cores)
    edges = reference_prim(m)
    tree, root = reference_single_linkage(edges, n)
    clusters, root_id = reference_condense(tree, root, min_cluster_size)
    selected = reference_select(clusters, root_id)
    labels = np.full(n, -1, dtype=int)
    member_sets = []
    for cid in selected:
        member_sets.append(sorted(reference_all_points(clusters, cid)))
    member_sets.sort(key=lambda rows: rows[0])
    for label, rows in enumerate(member_sets):
        labels[rows] = label
    return labels
