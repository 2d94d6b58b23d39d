"""Density-based hierarchical clustering, built from scratch.

Pipeline: per-point core distances -> minimum spanning tree of the mutual
reachability graph -> condensed cluster tree -> excess-of-mass selection.
A recursive driver re-clusters every sufficiently large cluster on its own
members, producing a multi-level cluster tree.

Core distances come from one k-d tree query at every size. The MST is
built with Prim's scan over the implicit dense graph, O(n^2) time and O(n)
memory, at every size.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree


@dataclass(frozen=True)
class HdbscanParams:
    min_cluster_size: int
    min_samples: int
    metric: str = "euclidean"

    def __post_init__(self):
        if self.min_cluster_size < 2:
            raise ValueError("min_cluster_size must be at least 2")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if self.metric != "euclidean":
            raise ValueError("only the euclidean metric is supported")

    def to_json(self) -> dict:
        return {
            "min_cluster_size": self.min_cluster_size,
            "min_samples": self.min_samples,
            "metric": self.metric,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "HdbscanParams":
        return cls(**doc)


@dataclass
class ClusterLabeling:
    """Per-point labels (-1 = outlier) and per-cluster stabilities."""

    labels: np.ndarray
    stabilities: dict[int, float]

    @property
    def n_clusters(self) -> int:
        return len(self.stabilities)


@dataclass
class ClusterTreeNode:
    node_id: int
    level: int
    parent: Optional[int]
    member_rows: np.ndarray
    params_used: HdbscanParams

    @property
    def member_count(self) -> int:
        return int(self.member_rows.size)


@dataclass
class ClusterTree:
    """Multi-level cluster tree from recursive re-clustering."""

    nodes: dict[int, ClusterTreeNode]
    n_points: int
    params: HdbscanParams

    def roots(self) -> list[ClusterTreeNode]:
        return [n for n in self.nodes.values() if n.parent is None]

    def children(self, node_id: int) -> list[ClusterTreeNode]:
        return [n for n in self.nodes.values() if n.parent == node_id]

    def max_level(self) -> int:
        return max((n.level for n in self.nodes.values()), default=0)

    def outlier_rows(self) -> np.ndarray:
        covered = np.zeros(self.n_points, dtype=bool)
        for node in self.roots():
            covered[node.member_rows] = True
        return np.flatnonzero(~covered)

    def to_json(self) -> dict:
        return {
            "n_points": self.n_points,
            "params": self.params.to_json(),
            "nodes": [
                {
                    "node_id": n.node_id,
                    "level": n.level,
                    "parent": n.parent,
                    "member_count": n.member_count,
                    "member_rows": n.member_rows.tolist(),
                    "params": n.params_used.to_json(),
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.node_id)
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ClusterTree":
        params = HdbscanParams.from_json(doc["params"])
        nodes = {}
        for nd in doc["nodes"]:
            nodes[nd["node_id"]] = ClusterTreeNode(
                node_id=nd["node_id"],
                level=nd["level"],
                parent=nd["parent"],
                member_rows=np.asarray(nd["member_rows"], dtype=np.int64),
                params_used=HdbscanParams.from_json(nd["params"]),
            )
        return cls(nodes=nodes, n_points=doc["n_points"], params=params)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "ClusterTree":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def core_distances(points: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance to the min_samples-th nearest neighbor, self counted first."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if min_samples > n:
        raise ValueError(f"min_samples ({min_samples}) exceeds point count ({n})")
    if min_samples == 1:
        return np.zeros(n, dtype=np.float64)
    _, idx = cKDTree(points).query(points, k=min_samples)
    # cKDTree's own distances can differ from numpy's sum of squares by 1-2 ulp.
    return np.sqrt(((points - points[idx[:, -1]]) ** 2).sum(axis=1))


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def mutual_reachability_mst(
    points: np.ndarray, cores: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """MST (endpoints, weights) of the complete mutual-reachability graph.

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


def _single_linkage(endpoints: np.ndarray, weights: np.ndarray, n: int):
    """Merge MST edges in ascending order into a dendrogram.

    Returns (children, dist, size) arrays indexed by internal node id - n;
    internal node ids run n .. 2n-2 in merge order, so parents always carry
    larger ids than their children. Equal-weight edges merge in lexicographic
    endpoint order.
    """
    lo = np.minimum(endpoints[:, 0], endpoints[:, 1])
    hi = np.maximum(endpoints[:, 0], endpoints[:, 1])
    order = np.lexsort((hi, lo, weights))
    uf = _UnionFind(2 * n - 1)
    node_of_root = np.arange(n, dtype=np.int64)
    children = np.empty((n - 1, 2), dtype=np.int64)
    dist = np.empty(n - 1, dtype=np.float64)
    size = np.empty(2 * n - 1, dtype=np.int64)
    size[:n] = 1
    for i, e in enumerate(order):
        u, v = endpoints[e]
        ru, rv = uf.find(u), uf.find(v)
        new_id = n + i
        children[i, 0] = node_of_root[ru]
        children[i, 1] = node_of_root[rv]
        dist[i] = weights[e]
        size[new_id] = size[node_of_root[ru]] + size[node_of_root[rv]]
        uf.union(ru, rv)
        node_of_root[uf.find(ru)] = new_id
    return children, dist, size


def _leaves_under(node: int, children: np.ndarray, n: int) -> list[int]:
    out: list[int] = []
    stack = [node]
    while stack:
        t = stack.pop()
        if t < n:
            out.append(t)
        else:
            stack.extend(children[t - n])
    return out


def condense_and_extract(
    mst: tuple[np.ndarray, np.ndarray], min_cluster_size: int, n: int
) -> ClusterLabeling:
    """Condensed tree + excess-of-mass selection from an MST.

    Splits persist only when both sides reach min_cluster_size; smaller
    fragments fall out of their cluster at the split's density level
    lambda = 1 / weight. Cluster stability is the sum over member points of
    (lambda at exit - lambda at birth). Selected clusters maximize total
    stability without overlap; the root is never selected. Points not
    captured by any selected cluster are outliers (-1).
    """
    endpoints, weights = mst
    labels = np.full(n, -1, dtype=np.int64)
    if n < 2 or min_cluster_size > n:
        return ClusterLabeling(labels=labels, stabilities={})
    if endpoints.shape[0] != n - 1:
        raise ValueError(f"MST must have {n - 1} edges, got {endpoints.shape[0]}")
    children, dist, _size = _single_linkage(endpoints, weights, n)

    # Walk the dendrogram top-down (ids descend from the root), tracking for
    # every node either the condensed cluster it still belongs to or the
    # lambda at which its subtree fell out.
    with np.errstate(divide="ignore"):
        lam_split = np.where(dist > 0.0, 1.0 / dist, np.inf)
    subtree_size = np.empty(n - 1, dtype=np.int64)
    for i in range(n - 1):
        a, b = children[i]
        sa = 1 if a < n else subtree_size[a - n]
        sb = 1 if b < n else subtree_size[b - n]
        subtree_size[i] = sa + sb

    NONE = -1
    state_cluster = np.full(2 * n - 1, NONE, dtype=np.int64)
    root = 2 * n - 2
    state_cluster[root] = 0
    cluster_parent: list[int] = [NONE]
    birth: list[float] = [0.0]
    point_cluster = np.full(n, NONE, dtype=np.int64)
    stability_rows: list[list[tuple[float, int]]] = [[]]  # per cluster: (lambda, count)

    def new_cluster(parent: int, lam: float) -> int:
        cluster_parent.append(parent)
        birth.append(lam)
        stability_rows.append([])
        return len(cluster_parent) - 1

    def fall_out(subtree: int, cl: int, lam: float) -> None:
        # Every point under the detached subtree leaves cluster cl at lam.
        for leaf in _leaves_under(subtree, children, n):
            point_cluster[leaf] = cl

    for node in range(root, n - 1, -1):
        cl = state_cluster[node]
        if cl == NONE:
            continue  # subtree already detached and emitted
        i = node - n
        a, b = children[i]
        sa = 1 if a < n else subtree_size[a - n]
        sb = 1 if b < n else subtree_size[b - n]
        lam = lam_split[i]
        if sa >= min_cluster_size and sb >= min_cluster_size:
            for child, s_child in ((a, sa), (b, sb)):
                cid = new_cluster(cl, lam)
                stability_rows[cl].append((lam, s_child))
                state_cluster[child] = cid
        else:
            for child, s_child in ((a, sa), (b, sb)):
                if s_child >= min_cluster_size:
                    state_cluster[child] = cl
                else:
                    stability_rows[cl].append((lam, s_child))
                    if child < n:
                        point_cluster[child] = cl
                    else:
                        fall_out(child, cl, lam)

    n_clusters = len(cluster_parent)
    stability = np.zeros(n_clusters, dtype=np.float64)
    for cid in range(n_clusters):
        total = 0.0
        for lam, count in stability_rows[cid]:
            total += (lam - birth[cid]) * count
        stability[cid] = total

    # Excess-of-mass selection (children always carry larger ids).
    children_of: list[list[int]] = [[] for _ in range(n_clusters)]
    for cid in range(1, n_clusters):
        children_of[cluster_parent[cid]].append(cid)
    selected = np.zeros(n_clusters, dtype=bool)
    subtree_stability = stability.copy()
    for cid in range(n_clusters - 1, -1, -1):
        kids = children_of[cid]
        if not kids:
            selected[cid] = True
            continue
        child_sum = float(sum(subtree_stability[k] for k in kids))
        if stability[cid] >= child_sum:
            selected[cid] = True
            subtree_stability[cid] = stability[cid]
        else:
            selected[cid] = False
            subtree_stability[cid] = child_sum
    selected[0] = False
    # Keep only the shallowest selected cluster on each root path.
    covered = np.zeros(n_clusters, dtype=bool)
    for cid in range(n_clusters):
        parent = cluster_parent[cid]
        if parent != NONE and (covered[parent] or selected[parent]):
            covered[cid] = True
            selected[cid] = False

    # Label points by the selected ancestor (if any) of their exit cluster.
    owner = np.full(n_clusters, NONE, dtype=np.int64)
    for cid in range(n_clusters):
        if selected[cid]:
            owner[cid] = cid
        else:
            parent = cluster_parent[cid]
            if parent != NONE:
                owner[cid] = owner[parent]
    raw_labels = np.where(point_cluster >= 0, owner[point_cluster], NONE)

    # Canonical cluster ids: numbered by smallest member row.
    kept = [cid for cid in range(n_clusters) if selected[cid] and np.any(raw_labels == cid)]
    kept.sort(key=lambda cid: int(np.flatnonzero(raw_labels == cid)[0]))
    stabilities: dict[int, float] = {}
    for canonical, cid in enumerate(kept):
        labels[raw_labels == cid] = canonical
        stabilities[canonical] = float(stability[cid])
    return ClusterLabeling(labels=labels, stabilities=stabilities)


def run_hdbscan(points: np.ndarray, params: HdbscanParams) -> ClusterLabeling:
    """Full single-pass clustering: cores -> MST -> condense/extract."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n == 0:
        return ClusterLabeling(labels=np.empty(0, dtype=np.int64), stabilities={})
    if params.min_samples > n or n < 2:
        return ClusterLabeling(labels=np.full(n, -1, dtype=np.int64), stabilities={})
    cores = core_distances(points, params.min_samples)
    mst = mutual_reachability_mst(points, cores)
    return condense_and_extract(mst, params.min_cluster_size, n)


def recursive_cluster(
    points: np.ndarray, params: HdbscanParams, max_depth: int = 6
) -> ClusterTree:
    """Re-cluster every cluster larger than min_cluster_size on its own rows.

    Outliers at each level stay attached to that level's parent. Recursion
    stops when a pass yields no cluster strictly smaller than its input, when
    all clusters are at or below min_cluster_size, or at max_depth.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    nodes: dict[int, ClusterTreeNode] = {}
    next_id = [0]

    def cluster_members(rows: np.ndarray) -> list[np.ndarray]:
        if rows.size < 2 or params.min_samples > rows.size:
            return []
        labeling = run_hdbscan(points[rows], params)
        out = []
        for cid in sorted(labeling.stabilities):
            out.append(rows[labeling.labels == cid])
        return out

    def descend(rows: np.ndarray, level: int, parent: Optional[int]) -> None:
        clusters = cluster_members(rows)
        clusters = [c for c in clusters if c.size < rows.size]
        if not clusters:
            return
        for member_rows in clusters:
            node = ClusterTreeNode(
                node_id=next_id[0],
                level=level,
                parent=parent,
                member_rows=np.sort(member_rows),
                params_used=params,
            )
            next_id[0] += 1
            nodes[node.node_id] = node
            if level < max_depth and member_rows.size > params.min_cluster_size:
                descend(node.member_rows, level + 1, node.node_id)

    descend(np.arange(n, dtype=np.int64), 1, None)
    return ClusterTree(nodes=nodes, n_points=n, params=params)
