import json
import re

import numpy as np
import pytest

from oracles import exact_u_pvalue_greater, t_interval
from toxtraj.coherence import (
    KEEP,
    MERGE,
    CoherenceRequest,
    ConstantCoherenceScorer,
    ExternalCoherenceScorer,
    PendingExternalScores,
    ReferenceCoherenceScorer,
    TopicTree,
    build_request,
    level_counts,
    merge_pass,
    reference_coherence_score,
)
from toxtraj.coherence import test_subcluster as subcluster_decision
from toxtraj.hdbscan import ClusterTree, ClusterTreeNode, HdbscanParams, recursive_cluster
from toxtraj.synth import (
    generate_hierarchical_blobs,
    make_blob_corpus,
    null_split_scenario,
    three_by_two_scenario,
)

PARAMS = HdbscanParams(min_cluster_size=60, min_samples=15)


def sampled_scores(node, corpus, scorer, seed):
    """30 coherence scores for one node, sampled as the merge pass samples them."""
    return [int(scorer.score(build_request(node, corpus, rep, 30, 30, seed))) for rep in range(30)]


def planted_tree(seed=0, scenario=None, separable=True):
    specs = scenario or three_by_two_scenario()
    pts, parent_truth, child_truth = generate_hierarchical_blobs(specs, seed=seed, separable=separable)
    corpus = make_blob_corpus(pts)
    tree = recursive_cluster(pts, PARAMS)
    return pts, corpus, tree


class TestReferenceScore:
    def test_tight_in_far_out_scores_five(self):
        rng = np.random.default_rng(0)
        inside = 0.1 * rng.normal(size=(30, 5))
        outside = np.array([50.0, 0, 0, 0, 0]) + rng.normal(size=(30, 5))
        assert reference_coherence_score(inside, outside) == 5

    def test_identical_sets_score_one(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(30, 5))
        assert reference_coherence_score(points, points.copy()) == 1

    def test_exchangeable_distribution_scores_low(self):
        rng = np.random.default_rng(2)
        low = 0
        for _ in range(200):
            inside = rng.normal(size=(30, 5))
            outside = rng.normal(size=(30, 5))
            if reference_coherence_score(inside, outside) <= 2:
                low += 1
        assert low >= 190  # >= 95% of draws

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            reference_coherence_score(np.empty((0, 5)), np.zeros((3, 5)))


class TestCoherenceDistribution:
    def test_length_and_range(self):
        _, corpus, tree = planted_tree(seed=3)
        node = next(n for n in tree.nodes.values() if n.level == 2)
        scores = sampled_scores(node, corpus, ReferenceCoherenceScorer(), seed=3)
        assert len(scores) == 30
        assert all(s in (1, 2, 3, 4, 5) for s in scores)

    def test_constant_scorer_zero_halfwidth(self):
        _, corpus, tree = planted_tree(seed=4)
        node = next(n for n in tree.nodes.values() if n.level == 1)
        scores = sampled_scores(node, corpus, ConstantCoherenceScorer(3), seed=0)
        assert scores == [3] * 30
        _, halfwidth = t_interval(scores)
        assert halfwidth == 0.0

    def test_planted_node_high_mean_tight_ci(self):
        _, corpus, tree = planted_tree(seed=5)
        node = next(n for n in tree.nodes.values() if n.level == 2)
        scores = sampled_scores(node, corpus, ReferenceCoherenceScorer(), seed=5)
        mean, halfwidth = t_interval(scores)
        assert mean >= 4.5
        assert halfwidth <= 0.3

    def test_deterministic_given_seed(self):
        _, corpus, tree = planted_tree(seed=6)
        node = next(n for n in tree.nodes.values() if n.level == 2)
        a = sampled_scores(node, corpus, ReferenceCoherenceScorer(), seed=42)
        b = sampled_scores(node, corpus, ReferenceCoherenceScorer(), seed=42)
        assert a == b

    def test_node_too_small(self):
        _, corpus, tree = planted_tree(seed=7)
        node = next(n for n in tree.nodes.values() if n.level == 2)
        small = type(node)(
            node_id=999,
            level=2,
            parent=node.parent,
            member_rows=node.member_rows[:10],
            params=node.params,
        )
        with pytest.raises(ValueError, match="member"):
            sampled_scores(small, corpus, ReferenceCoherenceScorer(), seed=0)


class TestMergeGate:
    def test_maximal_dominance_keeps(self):
        assert subcluster_decision([5] * 30, [2] * 30) == KEEP

    def test_identical_scores_merge(self):
        scores = [3, 4, 5] * 10
        assert subcluster_decision(scores, list(scores)) == MERGE

    def test_matches_exact_enumeration_oracle(self):
        child = [4] * 15 + [5] * 15
        parent = [3] * 15 + [4] * 15
        decision = subcluster_decision(child, parent, alpha=0.05)
        p_exact = exact_u_pvalue_greater(child, parent)
        assert decision == (KEEP if p_exact < 0.05 else MERGE)
        assert decision == KEEP

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            child = rng.integers(1, 6, size=30)
            parent = rng.integers(1, 6, size=30)
            low = subcluster_decision(child, parent, alpha=0.01)
            high = subcluster_decision(child, parent, alpha=0.20)
            if low == KEEP:
                assert high == KEEP


class TestMergePass:
    def test_planted_hierarchy_keeps_children(self):
        _, corpus, tree = planted_tree(seed=9)
        topics = merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=9)
        assert level_counts(topics) == {1: 3, 2: 6}

    def test_null_hierarchy_merges_children(self):
        _, corpus, tree = planted_tree(seed=10, scenario=null_split_scenario(), separable=False)
        assert any(n.level == 2 for n in tree.nodes.values())
        topics = merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=10)
        counts = level_counts(topics)
        assert counts.get(1) == 3
        assert counts.get(2, 0) == 0

    def test_constant_scorer_merges_everything(self):
        _, corpus, tree = planted_tree(seed=11)
        topics = merge_pass(tree, corpus, ConstantCoherenceScorer(4), seed=11)
        assert all(n.merged for n in topics.nodes.values() if n.level >= 2)

    def test_idempotent(self):
        _, corpus, tree = planted_tree(seed=12)
        first = merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=12)
        second = merge_pass(first, corpus, ReferenceCoherenceScorer(), seed=12)
        assert level_counts(first) == level_counts(second)
        surviving_first = {n.node_id for n in first.surviving()}
        surviving_second = {n.node_id for n in second.surviving()}
        assert surviving_first == surviving_second

    def test_membership_conservation(self):
        pts, corpus, tree = planted_tree(seed=13)
        topics = merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=13)
        for parent in topics.surviving():
            kids = [n for n in topics.surviving() if n.parent == parent.node_id]
            if not kids:
                continue
            child_rows = np.concatenate([k.member_rows for k in kids])
            assert np.unique(child_rows).size == child_rows.size
            reverted = np.setdiff1d(parent.member_rows, child_rows)
            assert child_rows.size + reverted.size == parent.member_rows.size

    def test_counts_nodes_too_small_to_sample(self):
        _, corpus, tree = planted_tree(seed=9)
        assert merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=9).n_auto_merged == 0
        parent = tree.nodes[0]
        tiny = ClusterTreeNode(
            node_id=max(tree.nodes) + 1, level=parent.level + 1, parent=parent.node_id,
            member_rows=parent.member_rows[:10], params=PARAMS,
        )
        tree.nodes[tiny.node_id] = tiny
        topics = merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=9)
        assert topics.n_auto_merged == 1
        assert topics.nodes[tiny.node_id].merged
        assert topics.nodes[tiny.node_id].coherence_scores is None
        assert level_counts(topics) == {1: 3, 2: 6}
        # A count of the pass, not part of topics.json.
        assert "n_auto_merged" not in json.dumps(topics.to_json())

    def test_alpha_out_of_range_named_before_any_sample(self):
        _, corpus, tree = planted_tree(seed=9)

        class Unreachable:
            def score(self, request):
                raise AssertionError("scored a request")

        for alpha in (0, -1, 5, 1.5, float("nan")):
            with pytest.raises(ValueError, match=rf"^alpha must be in \(0, 1\], got {alpha}$"):
                merge_pass(tree, corpus, Unreachable(), alpha=alpha, seed=9)

    def test_remerge_starts_unscored(self):
        # Scores carried over from an earlier pass would let nodes too small
        # for this pass's samples through the gate unrescored.
        _, corpus, tree = planted_tree(seed=3)
        scorer = ReferenceCoherenceScorer()
        fresh = merge_pass(tree, corpus, scorer, seed=3, n_in=457)
        second = merge_pass(merge_pass(tree, corpus, scorer, seed=3, n_in=10), corpus, scorer, seed=3, n_in=457)
        level2 = [nid for nid, n in tree.nodes.items() if n.level == 2]
        assert len(level2) == 6
        assert fresh.n_auto_merged == 6
        assert second.n_auto_merged == fresh.n_auto_merged
        assert json.dumps(second.to_json()) == json.dumps(fresh.to_json())

    def test_workers_do_not_change_result(self):
        _, corpus, tree = planted_tree(seed=14)
        one = merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=14, workers=1)
        four = merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=14, workers=4)
        assert json.dumps(one.to_json(), sort_keys=True) == json.dumps(four.to_json(), sort_keys=True)

    def test_mean_toxicity_populated(self):
        pts, _, tree = planted_tree(seed=15)
        corpus = make_blob_corpus(pts)
        corpus.posts.toxicity[:] = np.arange(len(corpus)) % 101
        topics = merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=15)
        for node in topics.surviving():
            assert node.mean_toxicity is not None
            assert 0.0 <= node.mean_toxicity <= 100.0

    def test_topic_tree_round_trip(self, tmp_path):
        _, corpus, tree = planted_tree(seed=16)
        topics = merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=16)
        path = tmp_path / "topics.json"
        topics.save(path)
        loaded = TopicTree.load(path)
        assert level_counts(loaded) == level_counts(topics)
        assert loaded.nodes[0].coherence_scores == topics.nodes[0].coherence_scores


class TestLevelCounts:
    def test_flat_tree(self):
        _, corpus, tree = planted_tree(seed=17)
        topics = merge_pass(tree, corpus, ConstantCoherenceScorer(2), seed=17)
        counts = level_counts(topics)
        assert counts == {1: 3}

    def test_empty_tree_reports_outliers(self):
        rng = np.random.default_rng(18)
        pts = rng.uniform(size=(120, 5))
        corpus = make_blob_corpus(pts)
        tree = recursive_cluster(pts, HdbscanParams(min_cluster_size=100, min_samples=10))
        if tree.nodes:
            pytest.skip("noise produced a cluster on this seed")
        topics = merge_pass(tree, corpus, ReferenceCoherenceScorer(), seed=18)
        assert level_counts(topics) == {}
        assert topics.n_outliers == 120


class TestExternalExchange:
    def test_round_trip_matches_reference(self, tmp_path):
        _, corpus, tree = planted_tree(seed=19)
        req_path = tmp_path / "requests.ndjson"
        resp_path = tmp_path / "responses.ndjson"
        scorer = ExternalCoherenceScorer(req_path, resp_path)
        with pytest.raises(PendingExternalScores):
            merge_pass(tree, corpus, scorer, seed=19)
        # Answer every request with a constant rating.
        with open(resp_path, "w") as fh:
            for line in req_path.read_text().splitlines():
                doc = json.loads(line)
                assert doc["prompt"].startswith("Task Description:")
                assert len(doc["in_texts"]) == 30
                fh.write(json.dumps({"task_id": doc["task_id"], "coherence": 3}) + "\n")
        # Rescore externally with constant 3 -> everything merges.
        scorer = ExternalCoherenceScorer(req_path, resp_path)
        topics = merge_pass(tree, corpus, scorer, seed=19)
        assert all(n.merged for n in topics.nodes.values() if n.level >= 2)

    def test_missing_response_rejected(self, tmp_path):
        _, corpus, tree = planted_tree(seed=20)
        req_path = tmp_path / "requests.ndjson"
        resp_path = tmp_path / "responses.ndjson"
        scorer = ExternalCoherenceScorer(req_path, resp_path)
        with pytest.raises(PendingExternalScores):
            merge_pass(tree, corpus, scorer, seed=20)
        lines = req_path.read_text().splitlines()
        with open(resp_path, "w") as fh:
            for line in lines[:-1]:  # drop one response
                doc = json.loads(line)
                fh.write(json.dumps({"task_id": doc["task_id"], "coherence": 2}) + "\n")
        scorer = ExternalCoherenceScorer(req_path, resp_path)
        with pytest.raises(ValueError, match="lack responses"):
            merge_pass(tree, corpus, scorer, seed=20)

    def test_ratings_of_other_texts_refused(self, tmp_path):
        _, corpus, tree = planted_tree(seed=21)
        corpus.posts.text = [f"post {i}" for i in range(len(corpus))]
        req_path = tmp_path / "requests.ndjson"
        resp_path = tmp_path / "responses.ndjson"
        with pytest.raises(PendingExternalScores):
            merge_pass(tree, corpus, ExternalCoherenceScorer(req_path, resp_path), seed=21)
        requests = [json.loads(line) for line in req_path.read_text().splitlines()]
        with open(resp_path, "w") as fh:
            for doc in requests:
                fh.write(json.dumps({"task_id": doc["task_id"], "coherence": 3}) + "\n")
        # The same corpus asks the same questions under the same ids.
        merge_pass(tree, corpus, ExternalCoherenceScorer(req_path, resp_path), seed=21)
        assert [json.loads(line) for line in req_path.read_text().splitlines()] == requests
        # One sampled post's text changes; its rows and the seed do not.
        edited = requests[0]["in_texts"][0]
        corpus.posts.text[corpus.posts.text.index(edited)] = edited + " (edited)"
        with pytest.raises(ValueError, match="lack responses"):
            merge_pass(tree, corpus, ExternalCoherenceScorer(req_path, resp_path), seed=21)

    def test_nothing_to_score_asks_for_no_ratings(self, tmp_path):
        # One level-1 node holding every row leaves no complement to sample,
        # so no request is built and no rater is asked for one.
        corpus = make_blob_corpus(np.random.default_rng(22).normal(size=(40, 2)))
        node = ClusterTreeNode(0, 1, None, np.arange(40, dtype=np.int64), PARAMS)
        tree = ClusterTree(nodes={0: node}, n_points=40, params=PARAMS)
        req_path = tmp_path / "requests.ndjson"
        topics = merge_pass(tree, corpus, ExternalCoherenceScorer(req_path, tmp_path / "responses.ndjson"))
        assert level_counts(topics) == {1: 1}
        assert topics.nodes[0].coherence_scores is None
        assert not req_path.exists()


# The rater's prompt at the default 30 in / 30 out samples, written out.
DEFAULT_PROMPT = """Task Description:
You are a computational social scientist evaluating the coherence of a specific topic ("Topic A") discovered in a collection of tweets.

Evaluation Process:
1. Examine two sets of tweets:
   - In-topic examples: 30 randomly selected tweets classified as belonging to Topic A.
     {}
   - Out-topic examples: 30 randomly selected tweets classified as NOT belonging to Topic A.
     {}

2. Rate the coherence of Topic A on a 5-point Likert scale:
   - 5: Highly coherent.
   - 4: Moderately coherent.
   - 3: Neutral.
   - 2: Somewhat incoherent.
   - 1: Highly incoherent.

Note:
Relevance to U.S. immigration alone does not imply coherence. Evaluate distinctness of subtopics.

Output Format:
Coherence: {{coherence rate}}
"""


def request(n_in, n_out):
    in_texts = [f"in {i}" for i in range(n_in)]
    out_texts = [None if i == 4 else f"out {i}" for i in range(n_out)]
    return CoherenceRequest(3, 1, np.zeros((n_in, 2)), np.zeros((n_out, 2)), in_texts, out_texts)


class TestRequestLine:
    def test_prompt_states_each_sample_size(self):
        prompt = request(5, 7).document["prompt"]
        assert "In-topic examples: 5 randomly selected tweets" in prompt
        assert "Out-topic examples: 7 randomly selected tweets" in prompt
        assert "30" not in prompt

    def test_default_request_line_unchanged(self):
        doc = request(30, 30).document
        in_lines = "\n     ".join(f"in {i}" for i in range(30))
        out_lines = "\n     ".join("" if i == 4 else f"out {i}" for i in range(30))
        assert doc["prompt"] == DEFAULT_PROMPT.format(in_lines, out_lines)
        # A rater's responses to an earlier request file keep matching their tasks.
        assert doc["task_id"] == "6c333b1ef990b298"


class TestResponseFile:
    @pytest.mark.parametrize(
        "line",
        [
            '{"task_id": "t1", "coherence": 3.7}',
            '{"task_id": "t1", "coherence": true}',
            '{"task_id": "t1", "coherence": "4"}',
            '{"task_id": "t0", "coherence": 4}',
            "not json",
            "[1, 2]",
            '{"task_id": "t1"}',
            '{"coherence": 3}',
        ],
        ids=["fraction", "bool", "string", "repeated-task", "bad-json", "not-object", "no-coherence", "no-task-id"],
    )
    def test_bad_line_named(self, tmp_path, line):
        responses = tmp_path / "responses.ndjson"
        responses.write_text('{"task_id": "t0", "coherence": 2}\n' + line + "\n")
        scorer = ExternalCoherenceScorer(tmp_path / "requests.ndjson", responses)
        with pytest.raises(ValueError, match=r"^response line 2: "):
            scorer.resolve([])

    def test_bytes_not_utf8_named_with_file_and_line(self, tmp_path):
        responses = tmp_path / "responses.ndjson"
        responses.write_bytes(b'{"task_id": "t0", "coherence": 2}\r\n{"task_id": "t\xff1", "coherence": 3}\n')
        scorer = ExternalCoherenceScorer(tmp_path / "requests.ndjson", responses)
        with pytest.raises(ValueError, match=f"^{re.escape(str(responses))}: response line 2: not valid UTF-8"):
            scorer.resolve([])
