from itertools import combinations

import numpy as np
import pytest

from oracles import segment_interpolate
from toxtraj.corpus import Corpus, Posts, StudyWindow
from toxtraj.synth import ScenarioConfig, TrendMix, generate_user_streams
from toxtraj.trajectory import (
    GROUP_DECREASING,
    GROUP_INCREASING,
    GROUP_NO_TREND,
    GroupingResult,
    assign_groups,
    build_groups,
    build_trajectories,
    group_average_trajectory,
    interpolate_daily,
    is_significant,
    matched_reference,
    read_trajectories,
    select_active_users,
    weekly_average,
    write_trajectories,
)

WINDOW = StudyWindow()


def corpus_of(rows) -> Corpus:
    """A corpus of (post_id, user_id, timestamp, toxicity) rows."""
    post_id, user_id, timestamp, toxicity = map(list, zip(*rows))
    return Corpus(posts=Posts(post_id, user_id, timestamp, toxicity), window=WINDOW)


def corpus_with_counts(counts: dict[str, int]) -> Corpus:
    return corpus_of(
        (f"{user}_{j}", user, WINDOW.t0 + j * 3600, 50.0) for user, n in counts.items() for j in range(n)
    )


class TestSelectActiveUsers:
    def test_boundary_inclusive_at_50(self):
        corpus = corpus_with_counts({"a": 50, "b": 49, "c": 51})
        active = select_active_users(corpus)
        assert [u for u, _ in active] == ["a", "c"]

    def test_counting_oracle(self):
        rng = np.random.default_rng(0)
        counts = {f"u{i:03d}": int(rng.integers(1, 120)) for i in range(60)}
        corpus = corpus_with_counts(counts)
        active = dict(select_active_users(corpus, min_posts=40))
        expected = {u: c for u, c in counts.items() if c >= 40}
        assert active == expected


def trend_user(user_id, slope_per_tau, base, n_posts=60, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    span = WINDOW.t_end - WINDOW.t0
    ts = np.sort(rng.integers(WINDOW.t0, WINDOW.t_end, size=n_posts))
    tau = (ts - WINDOW.t0) / span
    tox = np.clip(base + slope_per_tau * tau + (rng.normal(size=n_posts) * noise), 0, 100)
    return [(f"{user_id}_{j}", user_id, int(ts[j]), float(tox[j])) for j in range(n_posts)]


class TestAssignGroups:
    def test_noise_free_increasing_user(self):
        posts = trend_user("inc", 30.0, 20.0)
        corpus = corpus_of(posts)
        result = assign_groups(corpus, ["inc"])
        assert result.assignments["inc"].group == GROUP_INCREASING
        assert result.assignments["inc"].p_value == 0.0

    def test_constant_user_no_trend(self):
        posts = trend_user("flat", 0.0, 42.0)
        corpus = corpus_of(posts)
        result = assign_groups(corpus, ["flat"])
        assert result.assignments["flat"].group == GROUP_NO_TREND
        assert result.assignments["flat"].p_value == 1.0

    def test_noise_free_decreasing_user(self):
        posts = trend_user("dec", -25.0, 80.0)
        corpus = corpus_of(posts)
        result = assign_groups(corpus, ["dec"])
        assert result.assignments["dec"].group == GROUP_DECREASING

    def test_same_second_user_degenerate(self):
        posts = [(f"p{j}", "u", WINDOW.t0 + 5, float(10 + j)) for j in range(5)]
        corpus = corpus_of(posts)
        result = assign_groups(corpus, ["u"])
        assert result.assignments["u"].group == GROUP_NO_TREND
        assert result.assignments["u"].degenerate

    def test_group_sizes_partition_active_users(self):
        posts = []
        posts += trend_user("a", 40.0, 20.0, noise=2.0, seed=1)
        posts += trend_user("b", -40.0, 80.0, noise=2.0, seed=2)
        posts += trend_user("c", 0.0, 50.0, noise=2.0, seed=3)
        corpus = corpus_of(posts)
        result = assign_groups(corpus, ["a", "b", "c"])
        sizes = result.group_sizes()
        assert sum(sizes.values()) == 3

    def test_strict_significance_threshold(self):
        assert not is_significant(0.05)
        assert is_significant(0.049999)


class TestMatchedReference:
    def test_hand_case(self):
        candidates = [("u10", 10.0), ("u20", 20.0), ("u30", 30.0), ("u40", 40.0)]
        assert matched_reference(candidates, 19.0, 2) == ["u20", "u10"]

    def test_all_candidates(self):
        candidates = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert sorted(matched_reference(candidates, 99.0, 3)) == ["a", "b", "c"]

    def test_exact_match_first(self):
        candidates = [("a", 10.0), ("b", 25.0), ("c", 40.0)]
        assert matched_reference(candidates, 25.0, 1) == ["b"]

    def test_insufficient_candidates(self):
        with pytest.raises(ValueError):
            matched_reference([("a", 1.0)], 1.0, 2)

    def test_tie_broken_by_user_id(self):
        candidates = [("z", 21.0), ("a", 19.0)]
        assert matched_reference(candidates, 20.0, 1) == ["a"]

    def test_minimal_total_deviation_brute_force(self):
        rng = np.random.default_rng(4)
        candidates = [(f"u{i}", float(rng.uniform(0, 100))) for i in range(8)]
        target = 47.0
        chosen = matched_reference(candidates, target, 3)
        chosen_dev = sum(abs(dict(candidates)[u] - target) for u in chosen)
        best = min(
            sum(abs(m - target) for _, m in subset)
            for subset in combinations(candidates, 3)
        )
        assert chosen_dev == pytest.approx(best)


class TestInterpolateDaily:
    def test_single_post_constant(self):
        emb = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        daily = interpolate_daily(np.array([WINDOW.t0 + 1000]), emb, WINDOW)
        assert daily.shape == (194, 5)
        assert np.all(daily == emb[0])

    def test_two_posts_exact_linearity(self):
        e0 = np.zeros(5)
        e1 = np.ones(5)
        daily = interpolate_daily(
            np.array([WINDOW.t0, WINDOW.t_end]), np.vstack([e0, e1]), WINDOW
        )
        grid = np.arange(194) / 193.0
        np.testing.assert_allclose(daily, grid[:, None] * np.ones((1, 5)), atol=1e-15)

    def test_matches_segment_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 21))
            ts = np.sort(rng.choice(np.arange(WINDOW.t0, WINDOW.t_end), size=n, replace=False))
            emb = rng.normal(size=(n, 5))
            daily = interpolate_daily(ts, emb, WINDOW)
            tau = (ts - WINDOW.t0) / (WINDOW.t_end - WINDOW.t0)
            for g in (0, 1, 50, 96, 150, 193):
                expected = segment_interpolate(tau, emb, g / 193.0)
                np.testing.assert_allclose(daily[g], expected, atol=1e-12)

    def test_same_second_posts_averaged(self):
        ts = np.array([WINDOW.t0 + 100, WINDOW.t0 + 100])
        emb = np.array([[0.0] * 5, [2.0] * 5])
        daily = interpolate_daily(ts, emb, WINDOW)
        assert np.all(daily == 1.0)

    def test_rows_in_convex_hull(self):
        rng = np.random.default_rng(6)
        ts = np.sort(rng.integers(WINDOW.t0, WINDOW.t_end, size=9))
        emb = rng.normal(size=(9, 5))
        daily = interpolate_daily(ts, emb, WINDOW)
        assert np.all(daily.min(axis=0) >= emb.min(axis=0) - 1e-12)
        assert np.all(daily.max(axis=0) <= emb.max(axis=0) + 1e-12)

    def test_grid_point_on_post_tau_matches_embedding(self):
        # Window sized so grid points land on integer seconds; a post placed
        # exactly on grid point 97 must be reproduced there.
        window = StudyWindow(t0=0, t_end=193 * 86400)
        ts = np.array([0, 97 * 86400, 193 * 86400])
        emb = np.array([[0.0] * 5, [7.0] * 5, [1.0] * 5])
        daily = interpolate_daily(ts, emb, window)
        np.testing.assert_allclose(daily[97], emb[1], atol=1e-12)

    def test_no_posts_raises(self):
        with pytest.raises(ValueError):
            interpolate_daily(np.array([], dtype=np.int64), np.empty((0, 5)), WINDOW)


class TestWeeklyAverage:
    def test_constant(self):
        daily = np.full((194, 5), 3.5)
        weekly = weekly_average(daily)
        assert weekly.shape == (27, 5)
        assert np.all(weekly == 3.5)

    def test_day_index_mean(self):
        daily = np.tile(np.arange(194.0)[:, None], (1, 5))
        weekly = weekly_average(daily)
        np.testing.assert_allclose(weekly[:, 0], 7 * np.arange(27) + 3.0)

    def test_final_five_days_unused(self):
        daily = np.zeros((194, 5))
        daily[189:] = 1e9  # poisoned tail must not leak into any week
        weekly = weekly_average(daily)
        assert np.all(weekly == 0.0)
        assert 27 * 7 + 5 == 194

    def test_linearity_with_interpolation(self):
        rng = np.random.default_rng(7)
        ts = np.sort(rng.integers(WINDOW.t0, WINDOW.t_end, size=12))
        emb = rng.normal(size=(12, 5))
        base = weekly_average(interpolate_daily(ts, emb, WINDOW))
        scaled = weekly_average(interpolate_daily(ts, 2.5 * emb, WINDOW))
        np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-12)


    @pytest.mark.parametrize("shape, week_len", [((1, 194, 5), 7), ((6, 194, 5), 14), ((3, 2, 30, 2), 7), ((0, 194, 5), 7)])
    def test_stack_equals_each_row(self, shape, week_len):
        rng = np.random.default_rng(11)
        stack = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        weekly = weekly_average(stack, week_len)
        assert weekly.shape == (*shape[:-2], shape[-2] // week_len, shape[-1])
        rows = stack.reshape(-1, *shape[-2:])
        expected = np.array([weekly_average(row, week_len) for row in rows]).reshape(weekly.shape)
        assert weekly.tobytes() == expected.tobytes()

    def test_one_day_axis_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            weekly_average(np.zeros(194))


class TestGroupAverage:
    def test_single_user_identity(self):
        traj = np.random.default_rng(8).normal(size=(194, 5))
        np.testing.assert_array_equal(group_average_trajectory([traj]), traj)

    def test_symmetric_pair_cancels(self):
        traj = np.random.default_rng(9).normal(size=(27, 5))
        avg = group_average_trajectory([traj, -traj])
        assert np.max(np.abs(avg)) < 1e-15

    def test_transposed_summation_oracle(self):
        rng = np.random.default_rng(10)
        trajs = [rng.normal(size=(50, 5)) for _ in range(50)]
        avg = group_average_trajectory(trajs)
        # Oracle: accumulate user-by-user in transposed order.
        acc = np.zeros((5, 50))
        for t in trajs:
            acc += t.T
        np.testing.assert_allclose(avg, (acc / 50).T, atol=1e-12)

    def test_empty_group(self):
        with pytest.raises(ValueError):
            group_average_trajectory([])

    def test_stack_equals_list(self):
        stack = np.random.default_rng(12).normal(size=(9, 194, 5))
        assert group_average_trajectory(stack).tobytes() == group_average_trajectory(list(stack)).tobytes()
        with pytest.raises(ValueError):
            group_average_trajectory(stack[:0])


class TestTrajectoryFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        users = [f"user_{i}" for i in range(5)]
        paths = rng.normal(size=(5, 27, 5))
        out = tmp_path / "traj.bin"
        write_trajectories(out, users, paths)
        got_users, got_paths = read_trajectories(out)
        assert got_users == users
        np.testing.assert_array_equal(got_paths, paths)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "traj.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            read_trajectories(path)

    # Three users whose ids are long enough that a cut inside the last user
    # still leaves the file as long as the header's minimum size.
    TRJ_USERS = [f"user_{i}_" + "x" * 57 for i in range(3)]  # 64 bytes each

    @pytest.mark.parametrize(
        "cut, problem",
        [
            (lambda data: data[:10], "truncated header"),
            (lambda data: data[: 16 + 2 * 116 + 2], "truncated id length of user 2"),
            (lambda data: data[: 16 + 2 * 116 + 4 + 30], "truncated id of user 2"),
            (lambda data: data[:-5], "truncated values of user 2"),
            (lambda data: data[:4] + (10**6).to_bytes(4, "little") + data[8:], "truncated: the header's 1000000 users"),
            (lambda data: data + b"\x00", "trailing bytes"),
        ],
        ids=["header", "id-length", "id", "payload", "header-count", "trailing"],
    )
    def test_damaged_file_names_file_and_part(self, tmp_path, cut, problem):
        path = tmp_path / "traj.bin"
        values = np.arange(3 * 3 * 2, dtype=np.float64).reshape(3, 3, 2)
        write_trajectories(path, self.TRJ_USERS, values)
        assert len(path.read_bytes()) == 16 + 3 * 116
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(ValueError, match=f"traj.bin: {problem}"):
            read_trajectories(path)


class TestBuildPipelinePieces:
    def test_build_trajectories_and_groups(self):
        config = ScenarioConfig(
            n_users=30,
            posts_per_user=(50, 60),
            trend_mix=TrendMix(increasing=0.3, decreasing=0.3, flat=0.4, drift=35.0, noise_sd=3.0),
            seed=3,
        )
        corpus, truth = generate_user_streams(config)
        user_ids, paths, report = build_trajectories(corpus)
        assert report["n_users"] == 30
        assert user_ids == sorted(corpus.users) and paths.shape == (30, 194, 5)
        daily = paths[0]
        weekly = weekly_average(daily, 7)
        assert daily.shape == (194, 5)
        assert weekly.shape == (27, 5)
        assert daily.reshape(-1).shape == (970,)
        assert weekly.reshape(-1).shape == (135,)
        np.testing.assert_allclose(weekly[0], daily[:7].mean(axis=0), atol=1e-12)
        grouping = build_groups(corpus, min_posts=50)
        sizes = grouping.group_sizes()
        assert sum(sizes.values()) == len(grouping.assignments)
        # References drawn from the no-trend pool only.
        for user in grouping.reference_increasing + grouping.reference_decreasing:
            assert grouping.assignments[user].group == GROUP_NO_TREND

    def test_workers_equal_output(self):
        config = ScenarioConfig(n_users=12, posts_per_user=(50, 55), seed=4)
        corpus, _ = generate_user_streams(config)
        users1, t1, _ = build_trajectories(corpus, workers=1)
        users4, t4, _ = build_trajectories(corpus, workers=4)
        assert users1 == users4
        np.testing.assert_array_equal(t1, t4)

    def test_grouping_round_trip(self, tmp_path):
        config = ScenarioConfig(n_users=20, posts_per_user=(50, 55), seed=5)
        corpus, _ = generate_user_streams(config)
        grouping = build_groups(corpus)
        path = tmp_path / "groups.json"
        grouping.save(path)
        loaded = GroupingResult.load(path)
        assert loaded.group_sizes() == grouping.group_sizes()
        assert loaded.reference_increasing == grouping.reference_increasing
