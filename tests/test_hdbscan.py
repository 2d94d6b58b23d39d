import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import cKDTree

from oracles import naive_single_linkage
from reference_hdbscan import (
    dense_prim_mst,
    reference_core_distances,
    reference_extract,
    reference_hdbscan,
    reference_mutual_reachability,
    reference_prim,
)
from toxtraj import hdbscan as hdbscan_module
from toxtraj.hdbscan import (
    ClusterTree,
    HdbscanParams,
    _neighbour_lists,
    _single_linkage,
    condense_and_extract,
    core_distances,
    mutual_reachability_mst,
    recursive_cluster,
    run_hdbscan,
)
from toxtraj.synth import generate_hierarchical_blobs, three_by_two_scenario
from toxtraj.util import adjusted_rand_index


def partition_signature(labels):
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(int(label), []).append(i)
    noise = frozenset(groups.pop(-1, []))
    return noise, frozenset(frozenset(g) for g in groups.values())


class TestCoreDistances:
    def test_collinear_hand_case(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        np.testing.assert_allclose(core_distances(pts, 2), [1.0, 1.0, 2.0])

    def test_min_samples_one_is_zero(self):
        pts = np.random.default_rng(0).normal(size=(20, 3))
        assert np.all(core_distances(pts, 1) == 0.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 4))
        for ms in (1, 2, 7, 50):
            mine = core_distances(pts, ms)
            ref = reference_core_distances([list(p) for p in pts], ms)
            np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_min_samples_exceeds_n(self):
        with pytest.raises(ValueError):
            core_distances(np.zeros((3, 2)), 4)

    def test_bit_exact_against_dense_numpy(self):
        def dense(points, min_samples):
            n, d = points.shape
            chunk = max(1, (1 << 22) // (n * d))
            cores = np.empty(n)
            for start in range(0, n, chunk):
                block = points[start : start + chunk]
                d2 = ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
                cores[start : start + chunk] = np.sqrt(np.partition(d2, min_samples - 1, axis=1)[:, min_samples - 1])
            return cores

        rng = np.random.default_rng(21)
        cases = []
        for d in (5, 16, 64):
            centers = rng.normal(scale=4.0, size=(4, d))
            blobs = centers[rng.integers(4, size=500)] + rng.normal(size=(500, d))
            grid = rng.integers(0, 8, size=(500, d)) / 2
            cases += [(pts, ms) for pts in (blobs, grid) for ms in (2, 10, 60)]
        # Here the k-d tree's own distances differ from numpy's by 1-2 ulp on about a quarter of the points.
        centers = rng.normal(scale=4.0, size=(6, 16))
        cases.append((centers[rng.integers(6, size=4200)] + rng.normal(size=(4200, 16)), 10))
        for pts, ms in cases:
            assert np.array_equal(core_distances(pts, ms), dense(pts, ms)), (pts.shape, ms)


@pytest.mark.parametrize("entry", [core_distances, mutual_reachability_mst])
@pytest.mark.parametrize(
    "ms, message",
    [(0, r"min_samples must be at least 1, got 0"), (-1, r"min_samples must be at least 1, got -1"),
     (11, r"min_samples \(11\) exceeds point count \(10\)")],
    ids=["zero", "negative", "above-n"],
)
def test_min_samples_outside_one_to_n_is_named(entry, ms, message):
    pts = np.random.default_rng(42).normal(size=(10, 3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(pts, ms)


class TestMst:
    def test_hand_case(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        endpoints, weights = mutual_reachability_mst(pts, 2)
        assert weights.sum() == pytest.approx(3.0)
        edges = {frozenset(e) for e in endpoints.tolist()}
        assert edges == {frozenset({0, 1}), frozenset({1, 2})}

    def test_identical_points(self):
        pts = np.zeros((6, 2))
        _, weights = mutual_reachability_mst(pts, 1)
        assert np.all(weights == 0.0)

    def test_dense_prim_oracle(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(150, 3))
        _, weights = mutual_reachability_mst(pts, 10)
        ref_m = reference_mutual_reachability(
            [list(p) for p in pts], reference_core_distances([list(p) for p in pts], 10)
        )
        ref_total = sum(e[0] for e in reference_prim(ref_m))
        assert weights.sum() == pytest.approx(ref_total, abs=1e-9)

    def test_reference_prim_matches_scipy(self):
        # min_samples >= 2 keeps every off-diagonal entry positive, so scipy's
        # sparse view of the dense matrix drops only the diagonal.
        for seed, n, ms in [(11, 40, 2), (12, 90, 5), (13, 160, 12)]:
            pts = [list(p) for p in np.random.default_rng(seed).normal(size=(n, 3))]
            m = reference_mutual_reachability(pts, reference_core_distances(pts, ms))
            edges = reference_prim(m)
            assert len(edges) == n - 1
            expected = minimum_spanning_tree(np.array(m)).sum()
            assert sum(e[0] for e in edges) == pytest.approx(expected, abs=1e-9)

    def test_mst_matches_reference_prim(self):
        rng = np.random.default_rng(3)
        blobs = []
        for n, ms in [(120, 5), (400, 20), (250, 1)]:
            centers = rng.uniform(-6, 6, size=(3, 4))
            blobs.append((np.vstack([centers[rng.integers(3)] + 0.4 * rng.normal(size=4) for _ in range(n)]), ms))
        # Tie-heavy: 25 grid positions, so many points coincide and weights repeat.
        grids = [(rng.integers(0, 5, size=(n, 2)).astype(float), ms) for n, ms in [(60, 1), (150, 4), (200, 12)]]
        for pts, ms in blobs + grids:
            endpoints, weights = mutual_reachability_mst(pts, ms)
            rows = [list(p) for p in pts]
            ref = reference_prim(reference_mutual_reachability(rows, reference_core_distances(rows, ms)))
            assert weights.sum() == pytest.approx(sum(e[0] for e in ref), abs=1e-9)
            mine = {(min(u, v), max(u, v)) for u, v in endpoints.tolist()}
            assert mine == {(min(u, v), max(u, v)) for _, u, v in ref}

    def test_mreach_dominates_euclidean(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(80, 3))
        endpoints, weights = mutual_reachability_mst(pts, 6)
        for (u, v), w in zip(endpoints.tolist(), weights.tolist()):
            assert w >= np.linalg.norm(pts[u] - pts[v]) - 1e-12


def reference_instances():
    """The blob and grid instances of TestMst.test_mst_matches_reference_prim."""
    rng = np.random.default_rng(3)
    blobs = []
    for n, ms in [(120, 5), (400, 20), (250, 1)]:
        centers = rng.uniform(-6, 6, size=(3, 4))
        blobs.append((np.vstack([centers[rng.integers(3)] + 0.4 * rng.normal(size=4) for _ in range(n)]), ms))
    grids = [(rng.integers(0, 5, size=(n, 2)).astype(float), ms) for n, ms in [(60, 1), (150, 4), (200, 12)]]
    return blobs + grids


def assert_same_mst(mine, ref):
    """Endpoints, orientation included, and weight bits are equal."""

    def canonical(endpoints, weights):
        order = np.lexsort((endpoints[:, 1], endpoints[:, 0]))
        return endpoints[order], weights[order].view(np.int64)

    (mine_edges, mine_bits), (ref_edges, ref_bits) = canonical(*mine), canonical(*ref)
    assert np.array_equal(mine_edges, ref_edges)
    assert np.array_equal(mine_bits, ref_bits)


def assert_matches_dense_prim(points, min_samples):
    cores = core_distances(points, min_samples)
    assert_same_mst(mutual_reachability_mst(points, min_samples), dense_prim_mst(points, cores))


@st.composite
def small_grids(draw):
    dim = draw(st.integers(1, 3))
    side = draw(st.integers(2, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(0, side - 1)] * dim), min_size=65, max_size=150))
    scale = draw(st.sampled_from([1.0, 0.5]))
    return np.array(rows, dtype=float) * scale, draw(st.integers(1, len(rows)))


class TestMstExact:
    """The Boruvka MST against dense Prim, bit for bit, on inputs with n > 64,
    where the 64-neighbour lists do not cover every edge."""

    def test_oriented_edges_match_reference_prim(self):
        for pts, ms in reference_instances():
            endpoints, _ = mutual_reachability_mst(pts, ms)
            rows = [list(p) for p in pts]
            ref = reference_prim(reference_mutual_reachability(rows, reference_core_distances(rows, ms)))
            assert set(map(tuple, endpoints.tolist())) == {(i, j) for _, i, j in ref}

    def test_separated_blobs(self):
        rng = np.random.default_rng(31)
        centers = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [0.0, 1000.0, 0.0]])
        blob = np.repeat(np.arange(3), [100, 150, 120])
        pts = centers[blob] + rng.normal(size=(blob.size, 3))
        # Every listed neighbour of a point lies in its own blob, so no blob
        # has a listed edge out of it once it is one component.
        _, idx = cKDTree(pts).query(pts, k=65)
        assert np.all(blob[idx] == blob[:, None])
        for ms in (1, 5, 40):
            assert_matches_dense_prim(pts, ms)

    def test_integer_grids(self):
        rng = np.random.default_rng(32)
        for n, dim, side, ms in [(300, 2, 6, 1), (300, 2, 6, 4), (250, 3, 3, 10), (400, 1, 20, 30), (200, 2, 12, 7)]:
            assert_matches_dense_prim(rng.integers(0, side, size=(n, dim)).astype(float), ms)
        assert_matches_dense_prim(rng.integers(0, 12, size=(300, 2)) / 2.0, 5)

    def test_min_samples_above_64(self):
        rng = np.random.default_rng(33)
        centers = rng.uniform(-8, 8, size=(3, 4))
        blobs = centers[rng.integers(3, size=350)] + rng.normal(size=(350, 4))
        for ms in (65, 70, 120, 350):
            assert_matches_dense_prim(blobs, ms)
        assert_matches_dense_prim(rng.integers(0, 4, size=(300, 2)).astype(float), 80)

    @given(case=small_grids())
    @settings(max_examples=60, deadline=None)
    def test_small_grids(self, case):
        pts, ms = case
        assert_matches_dense_prim(pts, ms)

    @pytest.mark.parametrize("ms", [4, 60])
    def test_duplicate_heavy_exact_and_small(self, ms):
        # 4,000 points on 9 positions: each point ties with hundreds at distance 0.
        pts = np.random.default_rng(34).integers(0, 3, size=(4000, 2)).astype(float)
        cores = core_distances(pts, ms)
        tracemalloc.start()
        try:
            mst = mutual_reachability_mst(pts, ms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        assert_same_mst(mst, dense_prim_mst(pts, cores))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_named(self, bad):
        pts = np.random.default_rng(35).normal(size=(80, 3))
        pts[17, 1] = bad
        with pytest.raises(ValueError, match=r"^point 17 has non-finite values$"):
            core_distances(pts, 5)
        with pytest.raises(ValueError, match=r"^point 17 has non-finite values$"):
            mutual_reachability_mst(pts, 5)


def neighbour_list_cases():
    rng = np.random.default_rng(37)
    lattice = np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0)), axis=-1).reshape(-1, 2)
    cases = [(lattice, 1), (lattice, 10), (rng.integers(0, 3, size=(600, 2)).astype(float), 4)]
    for n in (65, 66, 130, 131):
        cases += [(rng.normal(size=(n, 3)), 5), (rng.integers(0, 3, size=(n, 2)).astype(float), 2)]
    # min_samples above 64, with n just above it.
    cases += [(rng.normal(size=(70, 4)), 66), (rng.normal(size=(101, 4)), 100), (rng.integers(0, 2, size=(90, 2)) / 2, 80)]
    return cases


class TestNeighbourLists:
    """The listing contract the MST rests on, against brute-force numpy distances."""

    @pytest.mark.parametrize("case", range(len(neighbour_list_cases())))
    def test_lists_every_point_within_the_bound_in_key_order(self, case):
        pts, ms = neighbour_list_cases()[case]
        n = len(pts)
        cores, nbr, start, stop, bound = _neighbour_lists(pts, ms)
        assert nbr.dtype == np.int32
        assert np.all(bound >= cores)
        assert np.all(np.isinf(bound)) == (n <= hdbscan_module._NEIGHBOURS + 1)
        for u in range(n):
            listed = nbr[start[u] : stop[u]].astype(np.int64)
            dist = np.sqrt(((pts - pts[u]) ** 2).sum(axis=1))
            w = np.maximum(dist[listed], np.maximum(cores[u], cores[listed]))
            # Sorted by (w, v), each point once.
            assert np.array_equal(np.lexsort((listed, w)), np.arange(listed.size))
            assert np.unique(listed).size == listed.size
            left_off = np.ones(n, dtype=bool)
            left_off[listed] = False
            assert np.all(dist[left_off] > bound[u])
            assert listed.size >= min(n, hdbscan_module._NEIGHBOURS)


def random_tree(rng, n, n_weights):
    """A spanning tree on n points: random attachments, edge orientations
    and row order, with weights drawn from n_weights values so that many tie."""
    child = np.arange(1, n)
    parent = np.array([rng.integers(i) for i in child], dtype=np.int64)
    flip = rng.random(n - 1) < 0.5
    endpoints = np.stack([np.where(flip, child, parent), np.where(flip, parent, child)], axis=1)
    order = rng.permutation(n - 1)
    return endpoints[order], rng.integers(0, n_weights, size=n - 1).astype(float)[order] / 4


def single_linkage_cases():
    rng = np.random.default_rng(36)
    # A few hundred points on 9 grid positions: most weights tie, many at 0.
    grid = rng.integers(0, 3, size=(300, 2)).astype(float)
    blobs = np.vstack([c + 0.3 * rng.normal(size=(60, 3)) for c in rng.uniform(-4, 4, size=(3, 3))])
    cases = [(mutual_reachability_mst(pts, ms), len(pts))
             for pts, ms in [(grid, 1), (grid, 7), (blobs, 1), (blobs, 5), (grid[:2], 1)]]
    cases += [(random_tree(rng, n, k), n) for n, k in [(2, 1), (3, 1), (50, 3), (400, 2), (400, 1000)]]
    return cases


class TestSingleLinkage:
    def test_matches_naive_oracle_bit_for_bit(self):
        for case, ((endpoints, weights), n) in enumerate(single_linkage_cases()):
            mine = _single_linkage(endpoints, weights, n)
            for got, want in zip(mine, naive_single_linkage(endpoints, weights, n)):
                assert got.dtype == want.dtype and got.shape == want.shape, case
                assert got.tobytes() == want.tobytes(), case
            assert mine[2][-1] == n, case


class TestCondenseExtract:
    def test_two_blobs(self):
        pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
        labeling = run_hdbscan(pts, HdbscanParams(min_cluster_size=3, min_samples=1))
        assert sorted(labeling.stabilities) == [0, 1]
        assert np.all(labeling.labels >= 0)
        assert set(labeling.labels[:3]) == {0}
        assert set(labeling.labels[3:]) == {1}

    def test_min_cluster_size_exceeds_n(self):
        pts = np.random.default_rng(5).normal(size=(5, 2))
        labeling = run_hdbscan(pts, HdbscanParams(min_cluster_size=6, min_samples=1))
        assert np.all(labeling.labels == -1)
        assert labeling.stabilities == {}

    def test_planted_blobs_ari_one(self):
        rng = np.random.default_rng(6)
        centers = np.array([[0, 0, 0], [10, 0, 0], [0, 10, 0]], dtype=float)
        pts = np.vstack([c + 0.05 * rng.normal(size=(100, 3)) for c in centers])
        truth = np.repeat([0, 1, 2], 100)
        labeling = run_hdbscan(pts, HdbscanParams(min_cluster_size=50, min_samples=5))
        assert adjusted_rand_index(truth, labeling.labels) == pytest.approx(1.0)

    def test_stability_geq_selected_descendants(self):
        # Excess-of-mass optimality on seeded blobs with sub-structure.
        rng = np.random.default_rng(7)
        pts = np.vstack(
            [
                rng.normal(scale=0.3, size=(80, 2)),
                [4, 0] + rng.normal(scale=0.3, size=(80, 2)),
                [2, 5] + rng.normal(scale=1.2, size=(120, 2)),
            ]
        )
        labeling = run_hdbscan(pts, HdbscanParams(min_cluster_size=30, min_samples=5))
        assert all(s >= 0 for s in labeling.stabilities.values())


class TestRunHdbscan:
    def test_noise_cube_never_multiple_clusters(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(size=(500, 3))
        labeling = run_hdbscan(pts, HdbscanParams(min_cluster_size=400, min_samples=10))
        assert labeling.n_clusters <= 1

    def test_determinism(self):
        pts = np.random.default_rng(9).normal(size=(120, 4))
        params = HdbscanParams(min_cluster_size=10, min_samples=5)
        a = run_hdbscan(pts, params)
        b = run_hdbscan(pts, params)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.stabilities == b.stabilities

    def test_bridged_subblobs_yield_single_dominant_cluster(self):
        # Two sub-blobs joined by a sparse bridge: one pass keeps the parent.
        pts, parent_truth, _ = generate_hierarchical_blobs(
            three_by_two_scenario(), seed=0
        )
        rows = np.flatnonzero(parent_truth == 0)
        labeling = run_hdbscan(pts[rows], HdbscanParams(min_cluster_size=60, min_samples=15))
        sizes = [int(np.sum(labeling.labels == c)) for c in labeling.stabilities]
        assert len(sizes) == 2  # pass on the parent's own rows exposes children

    def test_single_pass_on_full_hierarchy_returns_parents(self):
        pts, parent_truth, _ = generate_hierarchical_blobs(three_by_two_scenario(), seed=1)
        labeling = run_hdbscan(pts, HdbscanParams(min_cluster_size=60, min_samples=15))
        assert labeling.n_clusters == 3
        mask = labeling.labels >= 0
        assert adjusted_rand_index(parent_truth[mask], labeling.labels[mask]) > 0.99

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        centers = np.array([[0, 0], [6, 0]], dtype=float)
        pts = np.vstack([c + 0.3 * rng.normal(size=(60, 2)) for c in centers])
        params = HdbscanParams(min_cluster_size=20, min_samples=5)
        base = run_hdbscan(pts, params)
        perm = rng.permutation(pts.shape[0])
        permuted = run_hdbscan(pts[perm], params)
        # Map labels of permuted input back to original point order.
        restored = permuted.labels[np.argsort(perm)]
        assert partition_signature(base.labels) == partition_signature(restored)


class TestOracleAgreement:
    def test_partitions_match_reference(self):
        rng_master = np.random.default_rng(99)
        for _ in range(15):
            seed = int(rng_master.integers(0, 10**6))
            rng = np.random.default_rng(seed)
            n = int(rng.integers(30, 180))
            dim = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            centers = rng.uniform(-8, 8, size=(k, dim))
            pts = np.vstack(
                [centers[rng.integers(k)] + rng.normal(scale=0.4, size=(1, dim)) for _ in range(n)]
            )
            mcs = int(rng.integers(2, max(3, n // 3)))
            ms = int(rng.integers(1, 20))
            mine = run_hdbscan(pts, HdbscanParams(min_cluster_size=mcs, min_samples=min(ms, n)))
            ref = reference_hdbscan(pts, mcs, min(ms, n))
            assert partition_signature(mine.labels) == partition_signature(ref), (
                f"seed={seed} n={n} dim={dim} mcs={mcs} ms={ms}"
            )

    @staticmethod
    def assert_same(mine, labels, stabilities, case):
        np.testing.assert_array_equal(mine.labels, labels, err_msg=case)
        assert list(mine.stabilities) == list(stabilities), case
        np.testing.assert_allclose(
            list(mine.stabilities.values()), list(stabilities.values()), rtol=1e-12, equal_nan=True, err_msg=case
        )

    def test_labels_and_stabilities_match_reference(self):
        # Blobs, and integer grids on which min_samples points coincide: their
        # cores are 0, so points fall out at lambda = inf.
        seen_inf = False
        for seed in range(16):
            rng = np.random.default_rng(seed)
            n, dim = int(rng.integers(30, 120)), int(rng.integers(1, 3))
            if seed % 2:
                pts = rng.integers(0, 4, size=(n, dim)).astype(float)
            else:
                centers = rng.uniform(-8, 8, size=(3, dim))
                pts = centers[rng.integers(3, size=n)] + rng.normal(scale=0.4, size=(n, dim))
            mcs, ms = int(rng.integers(2, n // 3)), int(rng.integers(1, 8))
            mine = run_hdbscan(pts, HdbscanParams(min_cluster_size=mcs, min_samples=ms))
            self.assert_same(mine, *reference_hdbscan(pts, mcs, ms, return_stabilities=True), f"seed={seed}")
            seen_inf |= bool(np.isinf(list(mine.stabilities.values())).any())
        assert seen_inf

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_condense_matches_reference_on_zero_weight_trees(self):
        # Points give no split at weight 0 with two sides of min_cluster_size:
        # identical points join the tree as a star. Random trees do, and the
        # clusters born there have stability inf - inf = NaN.
        seen_nan = False
        rng = np.random.default_rng(5)
        for case in range(40):
            n = int(rng.integers(4, 40))
            child = np.arange(1, n)
            parent = rng.integers(0, child)
            perm = rng.permutation(n)
            endpoints = np.stack([perm[parent], perm[child]], axis=1)
            weights = np.where(rng.random(n - 1) < 0.8, 0.0, rng.choice([0.5, 1.0], size=n - 1))
            edges = [(float(w), int(u), int(v)) for (u, v), w in zip(endpoints, weights)]
            for mcs in range(2, n + 2):
                mine = condense_and_extract((endpoints, weights), mcs, n)
                self.assert_same(mine, *reference_extract(edges, n, mcs), f"case={case} mcs={mcs}")
                seen_nan |= bool(np.isnan(list(mine.stabilities.values())).any())
        assert seen_nan


class TestRecursiveCluster:
    def test_planted_three_by_two(self):
        pts, _, child_truth = generate_hierarchical_blobs(three_by_two_scenario(), seed=2)
        tree = recursive_cluster(pts, HdbscanParams(min_cluster_size=60, min_samples=15))
        level1 = [n for n in tree.nodes.values() if n.level == 1]
        level2 = [n for n in tree.nodes.values() if n.level == 2]
        assert len(level1) == 3
        assert len(level2) == 6
        for node in level1:
            assert sum(n.parent == node.node_id for n in tree.nodes.values()) == 2
        assert max(n.level for n in tree.nodes.values()) == 2

    def test_structureless_blob_depth_one(self):
        rng = np.random.default_rng(11)
        pts = np.vstack(
            [
                rng.normal(scale=0.4, size=(150, 3)),
                [8, 0, 0] + rng.normal(scale=0.4, size=(150, 3)),
            ]
        )
        tree = recursive_cluster(pts, HdbscanParams(min_cluster_size=40, min_samples=10))
        assert max(n.level for n in tree.nodes.values()) == 1

    def test_child_members_subset_of_parent(self):
        pts, _, _ = generate_hierarchical_blobs(three_by_two_scenario(), seed=3)
        tree = recursive_cluster(pts, HdbscanParams(min_cluster_size=60, min_samples=15))
        for node in tree.nodes.values():
            if node.parent is not None:
                parent = tree.nodes[node.parent]
                assert set(node.member_rows) <= set(parent.member_rows)
                assert node.level == parent.level + 1

    def test_siblings_disjoint(self):
        pts, _, _ = generate_hierarchical_blobs(three_by_two_scenario(), seed=4)
        tree = recursive_cluster(pts, HdbscanParams(min_cluster_size=60, min_samples=15))
        by_parent = {}
        for node in tree.nodes.values():
            by_parent.setdefault(node.parent, []).append(node)
        for siblings in by_parent.values():
            seen = set()
            for node in siblings:
                rows = set(node.member_rows.tolist())
                assert not (rows & seen)
                seen |= rows

    def test_max_depth_limits_recursion(self):
        pts, _, _ = generate_hierarchical_blobs(three_by_two_scenario(), seed=5)
        tree = recursive_cluster(pts, HdbscanParams(min_cluster_size=60, min_samples=15), max_depth=1)
        assert max(n.level for n in tree.nodes.values()) == 1

    def test_tree_json_round_trip(self, tmp_path):
        pts, _, _ = generate_hierarchical_blobs(three_by_two_scenario(), seed=6)
        tree = recursive_cluster(pts, HdbscanParams(min_cluster_size=60, min_samples=15))
        path = tmp_path / "tree.json"
        tree.save(path)
        loaded = ClusterTree.load(path)
        assert set(loaded.nodes) == set(tree.nodes)
        for nid, node in tree.nodes.items():
            other = loaded.nodes[nid]
            assert (node.level, node.parent) == (other.level, other.parent)
            np.testing.assert_array_equal(node.member_rows, other.member_rows)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows, n: [-1] + rows[1:], "member row -1 is outside [0, {n})"),
            (lambda rows, n: rows[:-1] + [n], "member row {n} is outside [0, {n})"),
            (lambda rows, n: [rows[1], rows[0]] + rows[2:], "member rows must strictly ascend"),
            (lambda rows, n: [rows[0]] + rows[:-1], "member rows must strictly ascend"),
        ],
        ids=["negative", "past-the-end", "descending", "repeated"],
    )
    def test_tree_rows_out_of_range_or_unsorted_named(self, tmp_path, edit, message):
        # numpy would read row -1 as the last row, and a merge would go on with it.
        pts, _, _ = generate_hierarchical_blobs(three_by_two_scenario(), seed=6)
        tree = recursive_cluster(pts, HdbscanParams(min_cluster_size=60, min_samples=15))
        doc = tree.to_json()
        node = doc["nodes"][-1]
        node["member_rows"] = edit(node["member_rows"], doc["n_points"])
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        expected = f"{path}: node {node['node_id']}: {message.format(n=doc['n_points'])}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            ClusterTree.load(path)


class TestParams:
    def test_invalid_min_cluster_size(self):
        with pytest.raises(ValueError):
            HdbscanParams(min_cluster_size=1, min_samples=1)

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            HdbscanParams(min_cluster_size=5, min_samples=2, metric="manhattan")


def dense_cores(points, min_samples):
    """Core distances from blocks of the dense numpy distance matrix."""
    n, d = points.shape
    chunk = max(1, (1 << 22) // (n * d))
    cores = np.empty(n)
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        d2 = ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        cores[start : start + chunk] = np.sqrt(np.partition(d2, min_samples - 1, axis=1)[:, min_samples - 1])
    return cores


def shared_query_cases():
    """TestCoreDistances.test_bit_exact_against_dense_numpy's inputs, then
    inputs whose points tie at the min_samples-th distance while the query
    takes k = 65, and min_samples above 64."""
    rng = np.random.default_rng(21)
    cases = []
    for d in (5, 16, 64):
        centers = rng.normal(scale=4.0, size=(4, d))
        blobs = centers[rng.integers(4, size=500)] + rng.normal(size=(500, d))
        grid = rng.integers(0, 8, size=(500, d)) / 2
        cases += [(pts, ms) for pts in (blobs, grid) for ms in (2, 10, 60)]
    centers = rng.normal(scale=4.0, size=(6, 16))
    cases.append((centers[rng.integers(6, size=4200)] + rng.normal(size=(4200, 16)), 10))
    rng = np.random.default_rng(38)
    lattice = np.stack(np.meshgrid(np.arange(30.0), np.arange(30.0)), axis=-1).reshape(-1, 2)
    cases += [(rng.integers(0, 3, size=(600, 2)).astype(float), 4), (lattice, 10)]
    cases += [(rng.integers(0, 12, size=(n, d)) / 2, 30) for n, d in [(400, 2), (300, 3)]]
    for n, ms in [(70, 65), (120, 65), (70, 66), (400, 66), (101, 100), (400, 100)]:
        cases += [(rng.normal(size=(n, 4)), ms), (rng.integers(0, 3, size=(n, 2)) / 2, ms)]
    return cases


def blobs_6500():
    rng = np.random.default_rng(39)
    centers = rng.normal(scale=4.0, size=(6, 5))
    return centers[rng.integers(6, size=6500)] + rng.normal(size=(6500, 5))


class TestSharedQuery:
    """A run_hdbscan pass queries its points once, for the cores and the MST's lists."""

    def test_one_tree_and_one_first_query_per_point(self, monkeypatch):
        trees = []

        class CountingTree(cKDTree):
            def __init__(self, data, *args, **kwargs):
                super().__init__(data, *args, **kwargs)
                self.queries = []
                trees.append(self)

            def query(self, x, k=1, *args, **kwargs):
                self.queries.append((k, np.array(x)))
                return super().query(x, k, *args, **kwargs)

        passes = []
        run = hdbscan_module.run_hdbscan

        def counted_run(points, params):
            trees.clear()
            labeling = run(points, params)
            passes.append(points.shape[0])
            full = [t for t in trees if t.n == points.shape[0]]
            assert len(full) == 1
            first_k = min(k for k, _ in full[0].queries)
            queried = np.concatenate([x for k, x in full[0].queries if k == first_k])
            assert np.array_equal(queried[np.lexsort(queried.T)], points[np.lexsort(points.T)])
            return labeling

        monkeypatch.setattr(hdbscan_module, "cKDTree", CountingTree)
        monkeypatch.setattr(hdbscan_module, "run_hdbscan", counted_run)
        pts, _, _ = generate_hierarchical_blobs(three_by_two_scenario(), seed=2)
        recursive_cluster(pts, HdbscanParams(min_cluster_size=60, min_samples=15))
        assert len(passes) == 10
        # Tied points: many rows are queried again at a doubled k.
        grid = np.random.default_rng(40).integers(0, 3, size=(600, 2)).astype(float)
        hdbscan_module.run_hdbscan(grid, HdbscanParams(min_cluster_size=20, min_samples=4))
        assert any(k > 65 for k, _ in trees[0].queries)

    def test_cores_and_mst_bit_equal_to_dense(self, monkeypatch):
        seen = []
        mst = hdbscan_module.mutual_reachability_mst

        def captured(points, min_samples):
            result = mst(points, min_samples)
            seen.append((core_distances(points, min_samples), result))
            return result

        monkeypatch.setattr(hdbscan_module, "mutual_reachability_mst", captured)
        for pts, ms in shared_query_cases():
            seen.clear()
            run_hdbscan(pts, HdbscanParams(min_cluster_size=20, min_samples=ms))
            (cores, result), = seen
            want = dense_cores(pts, ms)
            assert np.array_equal(cores, want), (pts.shape, ms)
            assert_same_mst(result, dense_prim_mst(pts, want))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_is_named(self, bad):
        pts = np.random.default_rng(41).normal(size=(80, 3))
        pts[23, 2] = bad
        params = HdbscanParams(min_cluster_size=10, min_samples=5)
        with pytest.raises(ValueError, match=r"^point 23 has non-finite values$"):
            run_hdbscan(pts, params)
        with pytest.raises(ValueError, match=r"^point 23 has non-finite values$"):
            recursive_cluster(pts, params)

    def test_one_pass_memory(self):
        # The whole 6,500 x 65 query, held at once, peaks at about 12 MB.
        pts = blobs_6500()
        params = HdbscanParams(min_cluster_size=60, min_samples=60)
        tracemalloc.start()
        try:
            run_hdbscan(pts, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
