import json

import numpy as np
import pytest
from scipy import stats as sps

from toxtraj.corpus import load_corpus, read_embeddings, write_embeddings, write_posts
from toxtraj.permanova import permanova_test
from toxtraj.synth import (
    DivergenceSpec,
    ParentBlobSpec,
    ScenarioConfig,
    TrendMix,
    generate_hierarchical_blobs,
    generate_null_pair,
    generate_user_streams,
    make_blob_corpus,
    null_split_scenario,
    three_by_two_scenario,
)
from toxtraj.trajectory import build_groups, build_trajectories


class TestHierarchicalBlobs:
    def test_shapes_and_truth(self):
        pts, parent_truth, child_truth = generate_hierarchical_blobs(
            three_by_two_scenario(n_per_child=200), seed=0
        )
        n_bridge = np.sum(child_truth == -1)
        assert pts.shape == (3 * 2 * 200 + n_bridge, 5)
        assert set(parent_truth.tolist()) == {0, 1, 2}
        assert set(child_truth.tolist()) == {-1, 0, 1, 2, 3, 4, 5}

    def test_zero_sigma_points_equal_centers(self):
        spec = ParentBlobSpec(
            center=(0, 0, 0, 0, 0),
            child_offsets=[(0, 0, 5, 0, 0), (0, 0, -5, 0, 0)],
            sigma=1e-12,
            n_per_child=10,
        )
        pts, _, child_truth = generate_hierarchical_blobs([spec], seed=1, separable=False)
        centers = spec.child_centers()
        for child in (0, 1):
            rows = child_truth == child
            assert np.max(np.abs(pts[rows] - centers[child])) < 1e-6

    def test_inseparable_marked_separable_rejected(self):
        spec = ParentBlobSpec(
            center=(0, 0, 0, 0, 0),
            child_offsets=[(0, 0, 1.0, 0, 0), (0, 0, -1.0, 0, 0)],
            sigma=1.0,
            n_per_child=10,
        )
        with pytest.raises(ValueError, match="separable"):
            generate_hierarchical_blobs([spec], seed=0, separable=True)

    def test_deterministic(self):
        a, _, _ = generate_hierarchical_blobs(three_by_two_scenario(), seed=5)
        b, _, _ = generate_hierarchical_blobs(three_by_two_scenario(), seed=5)
        np.testing.assert_array_equal(a, b)

    def test_null_scenario_has_no_bridge(self):
        _, _, child_truth = generate_hierarchical_blobs(null_split_scenario(), seed=2, separable=False)
        assert np.sum(child_truth == -1) == 0

    def test_round_trip_through_embedding_file(self, tmp_path):
        pts, _, _ = generate_hierarchical_blobs(three_by_two_scenario(n_per_child=20), seed=3)
        path = tmp_path / "blobs.emb"
        write_embeddings(path, pts, [f"p{i}" for i in range(pts.shape[0])])
        loaded = read_embeddings(path)
        np.testing.assert_array_equal(loaded.values, pts)


class TestUserStreams:
    def config(self, **overrides):
        base = dict(
            n_users=40,
            posts_per_user=(50, 70),
            hierarchy=three_by_two_scenario(n_per_child=10),
            trend_mix=TrendMix(increasing=0.25, decreasing=0.25, flat=0.5, drift=30.0, noise_sd=3.0),
            seed=11,
        )
        base.update(overrides)
        return ScenarioConfig(**base)

    def test_all_increasing_noise_free_grouping(self):
        config = self.config(
            trend_mix=TrendMix(increasing=1.0, decreasing=0.0, flat=0.0, drift=30.0, noise_sd=0.0)
        )
        corpus, truth = generate_user_streams(config)
        assert set(truth.values()) == {"increasing"}
        grouping = build_groups(corpus, min_posts=50)
        assert grouping.group_sizes()["Increasing"] == 40

    def test_inseparable_marked_separable_rejected(self):
        spec = ParentBlobSpec(
            center=(0, 0, 0, 0, 0), child_offsets=[(0, 0, 1.0, 0, 0), (0, 0, -1.0, 0, 0)], sigma=1.0, n_per_child=10
        )
        with pytest.raises(ValueError, match="separable"):
            generate_user_streams(self.config(hierarchy=[spec]))
        corpus, _ = generate_user_streams(self.config(hierarchy=[spec], separable=False))
        assert len(corpus.posts) > 0

    def test_trend_mix_counts(self):
        corpus, truth = generate_user_streams(self.config())
        counts = {cls: sum(1 for v in truth.values() if v == cls) for cls in set(truth.values())}
        assert counts == {"increasing": 10, "decreasing": 10, "flat": 20}

    def test_toxicity_in_range_and_posts_in_window(self):
        corpus, _ = generate_user_streams(self.config())
        for toxicity, timestamp in zip(corpus.posts.toxicity, corpus.posts.timestamp):
            assert 0.0 <= toxicity <= 100.0
            assert corpus.window.contains(timestamp)

    def test_round_trip_through_corpus_files(self, tmp_path):
        corpus, _ = generate_user_streams(self.config(n_users=10))
        write_posts(tmp_path / "posts.ndjson", corpus.posts)
        write_embeddings(
            tmp_path / "emb.bin", corpus.embeddings.values, corpus.embeddings.row_ids
        )
        loaded = load_corpus(
            tmp_path / "posts.ndjson", embeddings_path=tmp_path / "emb.bin", window=corpus.window
        )
        assert len(loaded) == len(corpus)
        assert corpus.posts.post_id == loaded.posts.post_id
        assert corpus.posts.toxicity.tolist() == loaded.posts.toxicity.tolist()
        np.testing.assert_array_equal(loaded.embeddings.values, corpus.embeddings.values)

    def test_deterministic(self):
        c1, t1 = generate_user_streams(self.config())
        c2, t2 = generate_user_streams(self.config())
        assert t1 == t2
        p1, p2 = c1.posts, c2.posts
        assert (p1.post_id, p1.timestamp.tolist(), p1.toxicity.tolist()) == (
            p2.post_id, p2.timestamp.tolist(), p2.toxicity.tolist()
        )
        np.testing.assert_array_equal(c1.embeddings.values, c2.embeddings.values)

    def test_planted_divergence_reaches_p_floor(self):
        config = self.config(
            n_users=60,
            trend_mix=TrendMix(increasing=0.5, decreasing=0.0, flat=0.5, drift=30.0, noise_sd=3.0),
            divergence=DivergenceSpec(
                group="increasing",
                start_center=(0, 0, 0, 0, 0),
                target_center=(8, 0, 0, 0, 0),
                switch_tau=0.5,
            ),
            embedding_sigma=0.5,
            seed=13,
        )
        corpus, truth = generate_user_streams(config)
        user_ids, paths, _ = build_trajectories(corpus)
        trajectories = dict(zip(user_ids, paths))
        inc = [trajectories[u].reshape(-1) for u, cls in sorted(truth.items()) if cls == "increasing"]
        flat = [trajectories[u].reshape(-1) for u, cls in sorted(truth.items()) if cls == "flat"]
        result = permanova_test(np.asarray(inc), np.asarray(flat), n_permutations=499, seed=1)
        assert result.p_value == pytest.approx(1 / 500)


class TestNullPair:
    def test_shapes_and_determinism(self):
        a1, b1 = generate_null_pair(10, 27, 5, seed=3)
        a2, b2 = generate_null_pair(10, 27, 5, seed=3)
        assert a1.shape == (10, 135)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
        assert not np.array_equal(a1, b1)

    def test_p_values_uniform_under_null(self):
        # 300 calibration trials; KS uniformity at alpha = 0.01.
        p_values = []
        for i in range(300):
            a, b = generate_null_pair(8, 3, 3, seed=5000 + i)
            p_values.append(permanova_test(a, b, n_permutations=199, seed=i).p_value)
        stat = sps.kstest(p_values, "uniform")
        assert stat.pvalue > 0.01

    def test_min_group_size(self):
        with pytest.raises(ValueError):
            generate_null_pair(1, 5, 2, seed=0)


class TestScenarioConfig:
    def test_json_round_trip(self, tmp_path):
        config = ScenarioConfig(
            n_users=25,
            posts_per_user=(50, 60),
            hierarchy=three_by_two_scenario(n_per_child=30),
            trend_mix=TrendMix(increasing=0.2, decreasing=0.2, flat=0.6),
            divergence=DivergenceSpec(
                group="increasing", start_center=(0,) * 5, target_center=(1,) * 5
            ),
            seed=21,
        )
        path = tmp_path / "scenario.json"
        config.save(path)
        loaded = ScenarioConfig.load(path)
        assert loaded.to_json() == config.to_json()

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TrendMix(increasing=0.5, decreasing=0.5, flat=0.5)

    def test_blob_corpus_alignment(self):
        pts, _, _ = generate_hierarchical_blobs(three_by_two_scenario(n_per_child=15), seed=4)
        corpus = make_blob_corpus(pts)
        assert corpus.embeddings.n == pts.shape[0]
        for row in (0, 5, len(corpus) - 1):
            assert corpus.row_of_post[corpus.post_of_row[row]] == row
