import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_knn_cosine
from toxtraj import knn
from toxtraj.knn import (
    evaluate_f1,
    fit_knn,
    label_trajectory,
    predict_batch,
    predict_topic,
    stratified_split,
)


def planted_topics(n_topics=20, per_topic=100, seed=0, spread=0.05):
    """Well-separated unit-direction clusters (cosine-friendly geometry)."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n_topics, 5))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = []
    labels = []
    for topic, direction in enumerate(directions):
        pts = direction[None, :] + spread * rng.normal(size=(per_topic, 5))
        points.append(pts)
        labels.extend([topic] * per_topic)
    return np.vstack(points), np.asarray(labels)


def fit_both(points, labels, k):
    """The model as fitted, and one fitted with a k-d tree whatever its size."""
    plain = fit_knn(points, labels, k=k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "TREE_MIN_ROWS", 0)
        treed = fit_knn(points, labels, k=k)
    assert treed.tree is not None
    return plain, treed


@pytest.fixture
def fallbacks(monkeypatch):
    """One entry per full scan: predict_topic calls ``_vote`` only when there
    is no tree or the tree's candidates could not prove the answer."""
    calls = []
    vote = knn._vote

    def spy(model, sims):
        calls.append(model)
        return vote(model, sims)

    monkeypatch.setattr(knn, "_vote", spy)
    return calls


def far_side(n, seed):
    """Rows whose first two coordinates are at most -0.5: negative cosine
    with any query in the positive quadrant of those two."""
    rows = np.random.default_rng(seed).normal(size=(n, 5))
    rows[:, :2] = -np.abs(rows[:, :2]) - 0.5
    return rows


@st.composite
def tied_cases(draw):
    """Training points on signed axes scaled by 1, 2 or 4, with integer-grid
    queries: many similarities are equal, at the k-boundary and between votes.

    Power-of-two multiples of axis vectors keep every similarity exact in both
    the model and the oracle, so a tie is a tie in both. k <= 5 keeps every
    tied vote's summed similarity to at most two terms, which both add in the
    same order.
    """
    dim = draw(st.integers(2, 3))
    row = st.tuples(st.integers(0, dim - 1), st.sampled_from([-1.0, 1.0]), st.sampled_from([1.0, 2.0, 4.0]))
    rows = draw(st.lists(row, min_size=1, max_size=24))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    k = draw(st.integers(1, min(len(rows), 5)))
    query = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any))
    return rows, labels, k, query


class TestFitKnn:
    def test_planted_157_topics(self):
        points, labels = planted_topics(n_topics=157, per_topic=100, seed=1)
        model = fit_knn(points, labels, k=15)
        assert model.points.shape == (15700, 5)

    def test_k_larger_than_m(self):
        points, labels = planted_topics(n_topics=2, per_topic=3, seed=2)
        with pytest.raises(ValueError, match="training points"):
            fit_knn(points, labels, k=15)

    def test_duplicate_points_accepted(self):
        points = np.vstack([np.ones((10, 5)), np.ones((10, 5))])
        labels = [1] * 20
        model = fit_knn(points, labels, k=3)
        assert predict_topic(model, np.ones(5)) == 1

    def test_zero_norm_training_point_rejected(self):
        points = np.vstack([np.zeros((1, 5)), np.ones((20, 5))])
        with pytest.raises(ValueError, match="zero norm"):
            fit_knn(points, [0] * 21, k=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_point_rejected(self, bad):
        points = np.ones((20, 5))
        points[7, 3] = bad
        with pytest.raises(ValueError, match="training point 7 has non-finite"):
            fit_knn(points, [0] * 20, k=3)


class TestPredict:
    def test_training_point_in_pure_cluster(self):
        points, labels = planted_topics(seed=3)
        model = fit_knn(points, labels, k=15)
        assert predict_topic(model, points[250]) == labels[250]

    def test_bisector_tie_smaller_topic_id(self):
        # Two mirrored training points; the query on the bisector sees equal
        # counts and bitwise-equal summed similarity.
        points = np.array(
            [
                [1.0, 1.0, 0.0, 0.0, 0.0],
                [1.0, -1.0, 0.0, 0.0, 0.0],
            ]
        )
        model = fit_knn(points, [7, 3], k=2)
        assert predict_topic(model, np.array([1.0, 0.0, 0.0, 0.0, 0.0])) == 3

    def test_matches_brute_force_oracle(self):
        points, labels = planted_topics(n_topics=12, per_topic=40, seed=4, spread=0.3)
        models = fit_both(points, labels, 15)
        assert models[0].tree is None
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(1000, 5))
        for q in queries:
            expected = brute_force_knn_cosine(points, labels, 15, q)
            assert [predict_topic(m, q) for m in models] == [expected, expected]

    def test_positive_scaling_invariance(self):
        points, labels = planted_topics(seed=6)
        model = fit_knn(points, labels, k=15)
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = rng.normal(size=5)
            scale = float(rng.uniform(0.01, 100.0))
            assert predict_topic(model, q) == predict_topic(model, scale * q)

    def test_zero_query_rejected(self):
        points, labels = planted_topics(seed=8)
        model = fit_knn(points, labels, k=15)
        with pytest.raises(ValueError, match="zero norm"):
            predict_topic(model, np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        points, labels = planted_topics(seed=8)
        model = fit_knn(points, labels, k=15)
        query = np.ones(5)
        query[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            predict_topic(model, query)

    @given(case=tied_cases())
    @example(
        # Four copies of one direction, k = 3: the boundary falls inside the
        # tie, and only the two smallest indices (labels 5, 5) may vote.
        case=([(0, 1.0, 1.0), (0, 1.0, 2.0), (0, 1.0, 4.0), (0, 1.0, 1.0), (1, 1.0, 1.0)],
              [5, 5, 2, 2, 2], 3, [1, 0])
    )
    @settings(max_examples=300, deadline=None)
    def test_ties_match_brute_force_oracle(self, case):
        rows, labels, k, query = case
        dim = len(query)
        points = np.zeros((len(rows), dim))
        for i, (axis, sign, scale) in enumerate(rows):
            points[i, axis] = sign * scale
        query = np.asarray(query, dtype=np.float64)
        expected = brute_force_knn_cosine(points, labels, k, query)
        assert [predict_topic(m, query) for m in fit_both(points, labels, k)] == [expected, expected]

    def test_k1_self_prediction(self):
        points, labels = planted_topics(n_topics=5, per_topic=30, seed=9, spread=0.4)
        model = fit_knn(points, labels, k=1)
        predictions = predict_batch(model, points)
        np.testing.assert_array_equal(predictions, labels)


class TestCertificate:
    """The tree's candidates answer only when they prove the full scan's
    label; otherwise the full scan runs."""

    def test_duplicates_straddling_kth_fall_back(self, fallbacks, monkeypatch):
        # Five copies of one row, k = 3: the full scan takes the three
        # smallest indices (labels 5, 5, 2), while another three copies
        # would vote 2. The k-th and (k+1)-th similarities are equal.
        monkeypatch.setattr(knn, "TREE_MIN_ROWS", 0)
        copy = np.array([1.0, 0.5, 0.0, 0.0, 0.0])
        points = np.vstack([far_side(100, 19), np.tile(copy, (5, 1)), far_side(100, 20)])
        labels = [0] * 100 + [5, 5, 2, 2, 2] + [1] * 100
        model = fit_knn(points, labels, k=3)
        assert predict_topic(model, copy) == brute_force_knn_cosine(points, labels, 3, copy) == 5
        assert len(fallbacks) == 1

    def test_vote_tie_within_bound_falls_back(self, fallbacks, monkeypatch):
        # k = 2: labels 7 and 3 get one vote each, and their similarities to
        # e1 differ by about 1e-14, less than E. The full scan picks 7.
        monkeypatch.setattr(knn, "TREE_MIN_ROWS", 0)
        pair = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [1.0, -(1.0 + 3e-14), 0.0, 0.0, 0.0]])
        points = np.vstack([far_side(200, 21), pair])
        labels = [0] * 200 + [7, 3]
        model = fit_knn(points, labels, k=2)
        query = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        sims = model.unit[-2:] @ query
        assert 0.0 < sims[0] - sims[1] < knn._error_bound(5)
        assert predict_topic(model, query) == brute_force_knn_cosine(points, labels, 2, query) == 7
        assert len(fallbacks) == 1

    def test_no_slack_always_falls_back(self, fallbacks, monkeypatch):
        # With only k candidates, the k-th is the last one fetched, so it
        # cannot clear the bound on the rows the tree did not return.
        monkeypatch.setattr(knn, "TREE_MIN_ROWS", 0)
        monkeypatch.setattr(knn, "TREE_SLACK", 0)
        points, labels = planted_topics(n_topics=6, per_topic=40, seed=22, spread=0.3)
        model = fit_knn(points, labels, k=15)
        queries = np.random.default_rng(23).normal(size=(50, 5))
        for q in queries:
            assert predict_topic(model, q) == brute_force_knn_cosine(points, labels, 15, q)
        assert len(fallbacks) == 50

    def test_tree_above_size_rule_matches_full_scan(self, fallbacks):
        points, labels = planted_topics(n_topics=20, per_topic=1000, seed=24)
        model = fit_knn(points, labels, k=15)
        assert model.tree is not None and points.shape[0] >= knn.TREE_MIN_ROWS
        queries = np.random.default_rng(25).normal(size=(200, 5))
        answers = [predict_topic(model, q) for q in queries]
        # A certificate that always fell back would pass the equality below.
        assert len(fallbacks) <= 10
        for q, answer in zip(queries, answers):
            assert answer == knn._vote(model, model.unit @ (q / np.linalg.norm(q)))


class TestEvaluateF1:
    def test_perfect_prediction(self):
        points, labels = planted_topics(n_topics=6, per_topic=50, seed=10)
        model = fit_knn(points, labels, k=15)
        scores = evaluate_f1(model, points, labels)
        assert scores["macro_f1"] == pytest.approx(100.0)
        assert scores["micro_f1"] == pytest.approx(100.0)

    def test_half_misclassified_hand_case(self):
        # Training set forces class 1 queries to be labelled 0: class 0 has
        # overwhelming mass at both directions.
        train = np.vstack([np.tile([1.0, 0, 0, 0, 0], (30, 1)), np.tile([0, 1.0, 0, 0, 0], (3, 1))])
        train_labels = [0] * 30 + [1] * 3
        model = fit_knn(train, train_labels, k=15)
        holdout = np.vstack([np.tile([1.0, 0, 0, 0, 0], (20, 1)), np.tile([0, 1.0, 0, 0, 0], (20, 1))])
        truth = np.array([0] * 20 + [1] * 20)
        scores = evaluate_f1(model, holdout, truth)
        # All class-1 points predicted 0: per-class F1 = (2*20/(2*20+20), 0).
        assert scores["micro_f1"] == pytest.approx(50.0)
        expected_macro = 100.0 * ((2 * 20 / (2 * 20 + 20)) + 0.0) / 2
        assert scores["macro_f1"] == pytest.approx(expected_macro)

    def test_micro_equals_accuracy(self):
        points, labels = planted_topics(n_topics=8, per_topic=40, seed=11, spread=0.6)
        train_idx, test_idx = stratified_split(labels, seed=0)
        model = fit_knn(points[train_idx], labels[train_idx], k=15)
        scores = evaluate_f1(model, points[test_idx], labels[test_idx])
        predictions = predict_batch(model, points[test_idx])
        accuracy = 100.0 * np.mean(predictions == labels[test_idx])
        assert scores["micro_f1"] == pytest.approx(accuracy)

    def test_empty_holdout(self):
        points, labels = planted_topics(seed=12)
        model = fit_knn(points, labels, k=15)
        with pytest.raises(ValueError):
            evaluate_f1(model, np.empty((0, 5)), [])


class TestStratifiedSplit:
    def test_partition_and_stratification(self):
        _, labels = planted_topics(n_topics=10, per_topic=25, seed=13)
        train_idx, test_idx = stratified_split(labels, test_fraction=0.2, seed=3)
        assert np.intersect1d(train_idx, test_idx).size == 0
        assert train_idx.size + test_idx.size == labels.size
        for topic in range(10):
            n_test = np.sum(labels[test_idx] == topic)
            assert n_test == 5  # 20% of 25

    def test_small_class_preserved(self):
        labels = np.array([0] * 50 + [1] * 2)
        train_idx, test_idx = stratified_split(labels, test_fraction=0.2, seed=4)
        assert np.sum(labels[train_idx] == 1) >= 1
        assert np.sum(labels[test_idx] == 1) == 1


class TestLabelTrajectory:
    def test_constant_trajectory_single_run(self):
        points, labels = planted_topics(n_topics=4, per_topic=50, seed=14)
        model = fit_knn(points, labels, k=15)
        centroid = points[labels == 2].mean(axis=0)
        result = label_trajectory(model, np.tile(centroid, (194, 1)))
        assert len(result.sequence) == 194
        assert result.runs == [(2, 0, 193)]

    def test_step_between_centroids_two_runs(self):
        points, labels = planted_topics(n_topics=4, per_topic=50, seed=15)
        model = fit_knn(points, labels, k=15)
        c0 = points[labels == 0].mean(axis=0)
        c1 = points[labels == 1].mean(axis=0)
        traj = np.vstack([np.tile(c0, (10, 1)), np.tile(c1, (17, 1))])
        result = label_trajectory(model, traj)
        assert result.runs == [(0, 0, 9), (1, 10, 26)]

    def test_weekly_shape(self):
        points, labels = planted_topics(n_topics=3, per_topic=40, seed=16)
        model = fit_knn(points, labels, k=15)
        rng = np.random.default_rng(17)
        traj = rng.normal(size=(27, 5))
        result = label_trajectory(model, traj)
        assert len(result.sequence) == 27
        assert result.runs[0][1] == 0
        assert result.runs[-1][2] == 26

    def test_non_finite_row_names_its_step(self):
        points, labels = planted_topics(n_topics=3, per_topic=40, seed=18)
        model = fit_knn(points, labels, k=15)
        traj = np.ones((5, 5))
        traj[3, 0] = np.nan
        with pytest.raises(ValueError, match="trajectory step 3: .*non-finite"):
            label_trajectory(model, traj)

    def test_zero_rows_flagged_unlabeled(self):
        points, labels = planted_topics(n_topics=3, per_topic=40, seed=18)
        model = fit_knn(points, labels, k=15)
        traj = np.ones((5, 5))
        traj[2] = 0.0
        result = label_trajectory(model, traj)
        assert result.unlabeled_steps == [2]
        assert result.sequence[2] is None
