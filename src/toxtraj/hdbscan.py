"""Density-based hierarchical clustering, built from scratch.

Pipeline: per-point core distances -> minimum spanning tree of the mutual
reachability graph -> condensed cluster tree -> excess-of-mass selection.
A recursive driver re-clusters every sufficiently large cluster on its own
members, producing a multi-level cluster tree.

Core distances come from one k-d tree query. The MST comes from Boruvka
rounds over a k-d tree neighbour table (McInnes & Healy 2017,
arXiv:1705.07321; March, Ram & Gray 2010), at every size. Reachability
weights tie often, so edges are compared by the total order
(w, min(u, v), max(u, v)). Under it the MST is unique, and it is exactly the
tree, weights and edge orientation included, that Prim's scan from vertex 0
builds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from .util import JsonRecord, field_names

# Nearest neighbours listed per point before round 1, ties at the last one included.
_NEIGHBOURS = 64
# Pairs handled per numpy pass; it bounds the MST's transient arrays.
_CHUNK = 1 << 15
# cKDTree's distances differ from numpy's by a few ulp; they may bound, with
# this relative slack, but never decide.
_MARGIN = 1e-9
# An uncertified component's first upper bound: nearest-neighbour hops that
# alternate between it and the rest, from evenly spaced members.
_SEEDS = 32
_HOPS = 3


@dataclass(frozen=True)
class HdbscanParams(JsonRecord):
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
    """One cluster of the tree. A subclass's own fields are saved under their
    names after ``params``, and a missing one loads as its default."""

    node_id: int
    level: int
    parent: Optional[int]
    member_rows: np.ndarray
    params_used: HdbscanParams

    @property
    def member_count(self) -> int:
        return int(self.member_rows.size)

    def to_json(self) -> dict:
        return {
            "node_id": self.node_id,
            "level": self.level,
            "parent": self.parent,
            "member_count": self.member_count,
            "member_rows": self.member_rows.tolist(),
            "params": self.params_used.to_json(),
            **{name: getattr(self, name) for name in self._extra_fields()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ClusterTreeNode":
        return cls(
            node_id=doc["node_id"],
            level=doc["level"],
            parent=doc["parent"],
            member_rows=np.asarray(doc["member_rows"], dtype=np.int64),
            params_used=HdbscanParams.from_json(doc["params"]),
            **{name: doc[name] for name in cls._extra_fields() if name in doc},
        )

    @classmethod
    def _extra_fields(cls) -> tuple[str, ...]:
        return field_names(cls)[len(field_names(ClusterTreeNode)):]


@dataclass
class ClusterTree(JsonRecord):
    """Multi-level cluster tree from recursive re-clustering.

    A subclass names its node class in ``node_type`` and the extra fields it
    saves, written between ``n_points`` and ``params``, in ``json_fields``.
    """

    nodes: dict[int, ClusterTreeNode]
    n_points: int
    params: HdbscanParams

    node_type = ClusterTreeNode
    json_fields = ()

    def roots(self) -> list[ClusterTreeNode]:
        return [n for n in self.nodes.values() if n.parent is None]

    def children(self, node_id: int) -> list[ClusterTreeNode]:
        return [n for n in self.nodes.values() if n.parent == node_id]

    def outlier_rows(self) -> np.ndarray:
        covered = np.zeros(self.n_points, dtype=bool)
        for node in self.roots():
            covered[node.member_rows] = True
        return np.flatnonzero(~covered)

    def to_json(self) -> dict:
        return {
            "n_points": self.n_points,
            **{name: getattr(self, name) for name in self.json_fields},
            "params": self.params.to_json(),
            "nodes": [n.to_json() for n in sorted(self.nodes.values(), key=lambda n: n.node_id)],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ClusterTree":
        return cls(
            nodes={nd["node_id"]: cls.node_type.from_json(nd) for nd in doc["nodes"]},
            n_points=doc["n_points"],
            params=HdbscanParams.from_json(doc["params"]),
            **{name: doc[name] for name in cls.json_fields if name in doc},
        )


def _check_points(points: np.ndarray) -> None:
    non_finite = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if non_finite.size:
        raise ValueError(f"point {int(non_finite[0])} has non-finite values")


def core_distances(points: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance to the min_samples-th nearest neighbor, self counted first."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if min_samples > n:
        raise ValueError(f"min_samples ({min_samples}) exceeds point count ({n})")
    _check_points(points)
    if min_samples == 1:
        return np.zeros(n, dtype=np.float64)
    _, idx = cKDTree(points).query(points, k=min_samples)
    # cKDTree's own distances can differ from numpy's sum of squares by 1-2 ulp.
    return np.sqrt(((points - points[idx[:, -1]]) ** 2).sum(axis=1))


def mutual_reachability_mst(
    points: np.ndarray, cores: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """MST (endpoints, weights) of the complete mutual-reachability graph.

    The weight of (u, v) is max(|p_u - p_v|, core_u, core_v), always from
    the one numpy expression in ``_mr_weights``. Edges are compared by the
    key (w, min(u, v), max(u, v)), a total order, so the MST is unique.

    Boruvka rounds: every component takes its cheapest leaving edge, and
    all of them join the tree; under a total order they form a forest.

    - Before round 1, one k-d tree query lists each point's 64 nearest
      neighbours, and any further point within its bound
      R_u = max(d_64(u), core_u). Each list is sorted by (w, v), which for a
      fixed u is the key order, so a round reads a point's cheapest listed
      edge to another component at a pointer that only moves forward.
    - An unlisted neighbour v of u is farther than R_u, so w(u, v) > R_u.
      A component whose cheapest listed edge weighs at most every member's
      R_u is certified.
    - Any other component is searched exactly: nearest-neighbour hops give an
      upper bound UB, then a range join at UB pairs its members whose bound
      lies below UB with the outside points whose core is at most UB.

    Each edge is (parent, child) in the tree rooted at vertex 0: the vertex
    Prim's scan from vertex 0 had visited, then the vertex it added. Row
    order is unspecified.
    """
    points = np.asarray(points, dtype=np.float64)
    cores = np.asarray(cores, dtype=np.float64)
    if points.shape[0] != cores.shape[0]:
        raise ValueError("cores must be computed from the same points")
    _check_points(points)
    non_finite = np.flatnonzero(~np.isfinite(cores))
    if non_finite.size:
        raise ValueError(f"core distance {int(non_finite[0])} is not finite")
    n = points.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.float64)
    # Imported here: it adds about 3 MB to the resident set of runs that never cluster.
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    nbr, ptr, stop, bound = _neighbour_lists(points, cores)
    comp = np.arange(n)
    n_comp = n
    edges = np.empty((0, 2), dtype=np.int64)
    while n_comp > 1:
        # Move each pointer past the listed neighbours in the point's own component.
        rows = np.flatnonzero(ptr < stop)
        while rows.size:
            rows = rows[comp[nbr[ptr[rows]]] == comp[rows]]
            ptr[rows] += 1
            rows = rows[ptr[rows] < stop[rows]]
        u = np.flatnonzero(ptr < stop)
        v = nbr[ptr[u]].astype(np.int64)
        w = _mr_weights(points, cores, u, v)
        order = np.lexsort((np.maximum(u, v), np.minimum(u, v), w, comp[u]))
        first = order[np.diff(comp[u[order]], prepend=-1) != 0]
        best = np.full((n_comp, 2), -1, dtype=np.int64)
        best_w = np.full(n_comp, np.inf)
        best[comp[u[first]]] = np.stack([u[first], v[first]], axis=1)
        best_w[comp[u[first]]] = w[first]
        lowest = np.full(n_comp, np.inf)
        np.minimum.at(lowest, comp, bound)
        for c in np.flatnonzero(~(best_w <= lowest)):
            _, best[c, 0], best[c, 1] = _search(points, cores, comp, bound, c, (best_w[c], *sorted(best[c])))
        edges = np.concatenate([edges, best])
        graph = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)).tocsr()
        n_comp, comp = connected_components(graph, directed=False)
    order, pred = breadth_first_order(graph, 0, directed=False, return_predecessors=True)
    child = order[1:].astype(np.int64)
    parent = pred[child].astype(np.int64)
    return np.stack([parent, child], axis=1), _mr_weights(points, cores, parent, child)


def _mr_weights(points: np.ndarray, cores: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Weights of the edges (u, v), bit for bit as Prim's scan computes them:
    max(sqrt(sum((p_v - p_u) ** 2)), max(core_u, core_v)), summed per row."""
    out = np.empty(u.size, dtype=np.float64)
    for s in range(0, u.size, _CHUNK):
        a, b = u[s : s + _CHUNK], v[s : s + _CHUNK]
        diff = points[b]
        diff -= points[a]
        dist = np.sqrt(np.square(diff, out=diff).sum(axis=1))
        out[s : s + _CHUNK] = np.maximum(dist, np.maximum(cores[a], cores[b]))
    return out


def _neighbour_lists(points: np.ndarray, cores: np.ndarray):
    """Per-point neighbour lists sorted by (weight, index), and their bounds.

    Returns (nbr, start, stop, bound): point u lists nbr[start[u]:stop[u]],
    and every point it does not list is farther than bound[u] >= core_u.
    """
    n = points.shape[0]
    k = min(n, _NEIGHBOURS + 1)
    tree = cKDTree(points)
    bound = np.full(n, np.inf)
    start = np.empty(n, dtype=np.int64)
    stop = np.empty(n, dtype=np.int64)
    pieces: list[np.ndarray] = []

    def store(rows, lengths, nbr):
        filled = sum(p.size for p in pieces)
        start[rows] = filled + np.cumsum(lengths) - lengths
        stop[rows] = start[rows] + lengths
        pieces.append(nbr.astype(np.int32))

    step = max(1, _CHUNK // k)
    for s in range(0, n, step):
        rows = np.arange(s, min(n, s + step))
        dist, idx = tree.query(points[rows], k=k)
        if k == n:
            plain = np.ones(rows.size, dtype=bool)  # every point listed: no bound
        else:
            bound[rows] = np.maximum(dist[:, -2], cores[rows])
            # The extra neighbour lies beyond the bound, so the first 64 are all within it.
            plain = dist[:, -1] > bound[rows] * (1.0 + _MARGIN)
            idx = idx[:, :-1]
        if plain.any():
            nbr = idx[plain]
            w = _mr_weights(points, cores, np.repeat(rows[plain], nbr.shape[1]), nbr.ravel())
            order = np.lexsort((nbr, w.reshape(nbr.shape)), axis=1)
            store(rows[plain], np.full(nbr.shape[0], nbr.shape[1]), np.take_along_axis(nbr, order, 1).ravel())
        ties = rows[~plain]
        if ties.size:
            # Ties at the bound: list the whole ball, so that no tie is left out.
            for pos, nbr in _ball_pairs(tree, points[ties], bound[ties] * (1.0 + _MARGIN)):
                u = ties[pos]
                order = np.lexsort((nbr, _mr_weights(points, cores, u, nbr), u))
                listed, lengths = np.unique(u, return_counts=True)
                store(listed, lengths, nbr[order])
    return np.concatenate(pieces), start, stop, bound


def _ball_pairs(tree: cKDTree, queries: np.ndarray, radius: np.ndarray):
    """Yield (query position, tree index) arrays of the points within each
    query's radius, about _CHUNK pairs at a time."""
    lengths = tree.query_ball_point(queries, radius, return_length=True)
    ends = np.cumsum(lengths)
    s = 0
    while s < lengths.size:
        e = max(s + 1, int(np.searchsorted(ends, ends[s] - lengths[s] + _CHUNK, side="right")))
        lists = tree.query_ball_point(queries[s:e], radius[s:e])
        yield np.repeat(np.arange(s, e), lengths[s:e]), np.concatenate([np.asarray(x, dtype=np.int64) for x in lists])
        s = e


def _cheapest(points, cores, u, v, best):
    """The smaller of the key ``best`` and the cheapest key among the edges (u, v)."""
    if not u.size:
        return best
    w = _mr_weights(points, cores, u, v)
    low = w.min()
    if low > best[0]:
        return best
    tie = w == low
    lo = np.minimum(u[tie], v[tie])
    hi = np.maximum(u[tie], v[tie])
    first = lo.min()
    return min(best, (float(low), int(first), int(hi[lo == first].min())))


def _search(points, cores, comp, bound, c, best):
    """Exact cheapest key (w, lo, hi) of an edge leaving component ``c``.

    ``best`` is its cheapest listed edge, (inf, -1, -1) if it has none. Only
    a member whose bound lies below the best weight so far can have a cheaper
    unlisted edge, and only a point whose core is within it can end one.
    """
    inside = comp == c
    a = np.flatnonzero(inside & (bound < best[0]))
    b = np.flatnonzero(~inside & (cores <= best[0]))
    tree_a, tree_b = _join_tree(points[a]), _join_tree(points[b])
    x = np.unique(a[np.linspace(0, a.size - 1, min(a.size, _SEEDS)).astype(np.int64)])
    for hop in range(_HOPS):
        if hop % 2 == 0:
            y = b[tree_b.query(points[x], k=1)[1]]
        else:
            x = a[tree_a.query(points[y], k=1)[1]]
        best = _cheapest(points, cores, x, y, best)
    a = a[bound[a] < best[0]]
    if not a.size:
        return best
    radius = best[0] * (1.0 + _MARGIN)
    tree_a = _join_tree(points[a])
    parts = -(-tree_a.count_neighbors(tree_b, radius) // _CHUNK)
    for part in np.array_split(a, min(max(parts, 1), a.size)):
        tree = tree_a if part.size == a.size else _join_tree(points[part])
        pairs = tree.sparse_distance_matrix(tree_b, radius, output_type="ndarray")
        best = _cheapest(points, cores, part[pairs["i"]], b[pairs["j"]], best)
    return best


def _join_tree(x: np.ndarray) -> cKDTree:
    # Sliding-midpoint cells that keep their full extent prune a join between
    # separated clusters several times faster than compact median cells.
    return cKDTree(x, balanced_tree=False, compact_nodes=False)


def _single_linkage(endpoints: np.ndarray, weights: np.ndarray, n: int):
    """Merge MST edges in ascending order into a dendrogram.

    Returns (children, dist, size) arrays indexed by internal node id - n;
    internal node ids run n .. 2n-2 in merge order, so parents always carry
    larger ids than their children. Equal-weight edges merge in lexicographic
    endpoint order.
    """
    order = np.lexsort((endpoints.max(axis=1), endpoints.min(axis=1), weights))
    # A node is its own parent while it is the root of its component: the
    # dendrogram node that holds it. A merge points both roots at the new node.
    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    size = [1] * (2 * n - 1)
    children = []
    for node, (u, v) in enumerate(endpoints[order].tolist(), start=n):
        a, b = find(u), find(v)
        children.append((a, b))
        size[node] = size[a] + size[b]
        parent[a] = parent[b] = node
    children = np.array(children, dtype=np.int64).reshape(n - 1, 2)
    return children, np.asarray(weights, dtype=np.float64)[order], np.array(size, dtype=np.int64)


def condense_and_extract(
    mst: tuple[np.ndarray, np.ndarray], min_cluster_size: int, n: int
) -> ClusterLabeling:
    """Condensed tree + excess-of-mass selection from an MST.

    Splits persist only when both sides reach min_cluster_size; smaller
    fragments fall out of their cluster at the split's density level
    lambda = 1 / weight. Cluster stability is the sum over member points of
    (lambda at exit - lambda at birth). Selected clusters maximize total
    stability without overlap; the root is never selected. Points not
    captured by any selected cluster are outliers (-1). Clusters are
    numbered by their smallest member row.

    One top-down walk over the dendrogram condenses it; stabilities,
    selection and labels are then passes over the condensed clusters.
    """
    endpoints, weights = mst
    if n < 2 or min_cluster_size > n:
        return ClusterLabeling(labels=np.full(n, -1, dtype=np.int64), stabilities={})
    if endpoints.shape[0] != n - 1:
        raise ValueError(f"MST must have {n - 1} edges, got {endpoints.shape[0]}")
    children, dist, size = _single_linkage(endpoints, weights, n)
    with np.errstate(divide="ignore"):
        lam_split = np.where(dist > 0.0, 1.0 / dist, np.inf).tolist()
    size = size.tolist()

    # Top-down walk (ids descend from the root): in_cluster[x] is the cluster
    # node x still belongs to, exit_cluster[x] the one its subtree fell out
    # of. A split appends its two children's clusters together, after their
    # parent's. Each child that leaves a cluster adds one stability term.
    in_cluster = [-1] * (2 * n - 1)
    exit_cluster = [-1] * (2 * n - 1)
    in_cluster[-1] = 0
    parent, birth = [-1], [0.0]
    terms = []  # (cluster, lambda, size)
    for node, (a, b) in zip(range(2 * n - 2, n - 1, -1), children[::-1].tolist()):
        cl, lam = in_cluster[node], lam_split[node - n]
        if cl < 0:
            exit_cluster[a] = exit_cluster[b] = exit_cluster[node]
            continue
        split = size[a] >= min_cluster_size and size[b] >= min_cluster_size
        for child in (a, b):
            if size[child] < min_cluster_size:
                exit_cluster[child] = cl
            elif split:
                in_cluster[child] = len(parent)
                parent.append(cl)
                birth.append(lam)
            else:
                in_cluster[child] = cl
                continue
            terms.append((cl, lam, size[child]))

    term_cluster, term_lam, term_size = (np.array(column) for column in zip(*terms))
    stability = np.zeros(len(parent))
    np.add.at(stability, term_cluster, (term_lam - np.array(birth)[term_cluster]) * term_size)

    # Excess of mass, leaves up: a cluster is selected unless its children's
    # best total exceeds its own stability. Children ids pair up above their
    # parent's, so each pair's totals are final before its parent is decided.
    best = stability.copy()
    selected = np.ones(len(parent), dtype=bool)
    selected[0] = False
    for c in range(len(parent) - 2, 0, -2):
        kids = best[c] + best[c + 1]
        if not stability[parent[c]] >= kids:
            selected[parent[c]] = False
            best[parent[c]] = kids
    # Root down: each cluster takes its shallowest selected ancestor, itself included.
    owner = np.where(selected, np.arange(len(parent)), -1)
    for c in range(1, len(parent)):
        if owner[parent[c]] >= 0:
            owner[c] = owner[parent[c]]
    exited = np.array(exit_cluster[:n])
    raw = np.where(exited >= 0, owner[exited], -1)

    # Canonical ids: numbered by smallest member row; the extra last entry maps -1 to -1.
    ids, first = np.unique(raw, return_index=True)
    ids = ids[np.argsort(first)]
    ids = ids[ids >= 0]
    canonical = np.full(len(parent) + 1, -1, dtype=np.int64)
    canonical[ids] = np.arange(ids.size)
    stabilities = {label: float(stability[c]) for label, c in enumerate(ids.tolist())}
    return ClusterLabeling(labels=canonical[raw], stabilities=stabilities)


def run_hdbscan(points: np.ndarray, params: HdbscanParams) -> ClusterLabeling:
    """Full single-pass clustering: cores -> MST -> condense/extract."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if params.min_samples > n or n < 2:
        return ClusterLabeling(labels=np.full(n, -1, dtype=np.int64), stabilities={})
    cores = core_distances(points, params.min_samples)
    mst = mutual_reachability_mst(points, cores)
    return condense_and_extract(mst, params.min_cluster_size, n)


def recursive_cluster(
    points: np.ndarray, params: HdbscanParams, max_depth: int = 6
) -> ClusterTree:
    """Re-cluster every cluster larger than min_cluster_size on its own rows.

    Outliers at each level stay attached to that level's parent. A pass never
    selects its root, so each cluster is smaller than the rows it came from.
    Recursion stops when a pass yields no cluster, when all clusters are at or
    below min_cluster_size, or at max_depth.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    points = np.asarray(points, dtype=np.float64)
    nodes: dict[int, ClusterTreeNode] = {}

    def descend(rows: np.ndarray, level: int, parent: Optional[int]) -> None:
        labeling = run_hdbscan(points[rows], params)
        for cid in range(labeling.n_clusters):
            # rows ascend, so each cluster's member rows do too.
            node = ClusterTreeNode(len(nodes), level, parent, rows[labeling.labels == cid], params)
            nodes[node.node_id] = node
            if level < max_depth and node.member_count > params.min_cluster_size:
                descend(node.member_rows, level + 1, node.node_id)

    descend(np.arange(points.shape[0], dtype=np.int64), 1, None)
    return ClusterTree(nodes=nodes, n_points=points.shape[0], params=params)
