"""Every persisted record writes its fields in declaration order and reads
back equal."""
import dataclasses
import json

import numpy as np
import pytest

from toxtraj.coherence import TopicNode, TopicTree
from toxtraj.corpus import StudyWindow
from toxtraj.hdbscan import ClusterTree, ClusterTreeNode, HdbscanParams
from toxtraj.knn import TrajectoryLabeling
from toxtraj.permanova import PermanovaResult
from toxtraj.synth import DivergenceSpec, ParentBlobSpec, ScenarioConfig, TrendMix
from toxtraj.trajectory import UserGroupAssignment
from toxtraj.util import _plain

WINDOW = StudyWindow(t0=1_000, t_end=2_000_000, n_daily_grid=21, week_len_days=7)
BLOB = ParentBlobSpec(
    center=(1.0, 2.0), child_offsets=[(0.5, 0.0), (-0.5, 0.0)], sigma=0.3, n_per_child=10, bridge_points=2
)
DIVERGENCE = DivergenceSpec(group="flat", start_center=(0.0, 0.0), target_center=(8.0, 0.0), switch_tau=0.4)

PERMANOVA = PermanovaResult(
    pseudo_f=2.5, p_value=0.01, exceed=0, eta_squared=0.2, ss_between=3.0, ss_within=12.0,
    n_permutations=99, df=(1, 18), degenerate=False,
)
LABELING = TrajectoryLabeling(
    sequence=[3, None, 3, 5], runs=[(3, 0, 0), (None, 1, 1), (3, 2, 2), (5, 3, 3)], unlabeled_steps=[1]
)
SCENARIO = ScenarioConfig(
    n_users=9, posts_per_user=(3, 4), window=WINDOW, hierarchy=[BLOB, BLOB],
    trend_mix=TrendMix(), divergence=DIVERGENCE, embedding_sigma=0.7, separable=False, seed=5,
)

RECORDS = [
    HdbscanParams(min_cluster_size=12, min_samples=4),
    WINDOW,
    PERMANOVA,
    LABELING,
    UserGroupAssignment("u7", "Increasing", 0.25, 0.003, 41.5, matched_to="IncreasingRef", degenerate=True),
    TrendMix(increasing=0.5, decreasing=0.25, flat=0.25, drift=12.0, noise_sd=2.0),
    BLOB,
    DIVERGENCE,
    SCENARIO,
    ScenarioConfig(),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_in_order_and_save_load_round_trip(record, tmp_path):
    names = [f.name for f in dataclasses.fields(record)]
    doc = record.to_json()
    assert list(doc) == names
    assert json.loads(json.dumps(doc)) == doc  # plain JSON types only: no records, no tuples
    path = tmp_path / "record.json"
    record.save(path)
    assert type(record).load(path) == record


NODE_KEYS = ["node_id", "level", "parent", "member_count", "member_rows", "params"]
PARAMS = HdbscanParams(min_cluster_size=12, min_samples=4)


def test_record_fields_read_by_type():
    labeling = TrajectoryLabeling.from_json(json.loads(json.dumps(LABELING.to_json())))
    assert all(isinstance(run, tuple) for run in labeling.runs)
    assert isinstance(PermanovaResult.from_json(PERMANOVA.to_json()).df, tuple)
    config = ScenarioConfig.from_json(json.loads(json.dumps(SCENARIO.to_json())))
    assert isinstance(config.hierarchy[1], ParentBlobSpec)
    assert all(isinstance(off, tuple) for off in config.hierarchy[0].child_offsets)
    assert isinstance(config.divergence.target_center, tuple)


def test_omitted_fields_take_defaults_and_unknown_keys_raise():
    assert ScenarioConfig.from_json({"n_users": 7, "seed": 2}) == ScenarioConfig(n_users=7, seed=2)
    with pytest.raises(TypeError):
        ScenarioConfig.from_json({"n_users": 7, "n_user": 8})


def test_plain_record_decoded_as_is():
    # Every field of an assignment reads as it is, so its document goes to
    # the constructor whole; a node's init=False member_count and a
    # labeling's tuples still take the per-key readers.
    assert _plain(UserGroupAssignment) and not _plain(ClusterTreeNode) and not _plain(TrajectoryLabeling)
    assignment = UserGroupAssignment("u7", "Increasing", 0.25, 0.003, 41.5, matched_to="IncreasingRef")
    doc = json.loads(json.dumps(assignment.to_json()))
    assert UserGroupAssignment.from_json(doc) == assignment
    assert UserGroupAssignment.from_json({"user_id": "u1", "group": "Flat", "slope": 0.0, "p_value": 1.0,
                                          "mean_toxicity": 3.0}).matched_to is None
    with pytest.raises(TypeError):
        UserGroupAssignment.from_json({**doc, "slop": 1.0})


def test_node_member_count_written_not_read():
    node = ClusterTreeNode(3, 2, 1, np.array([4, 9, 11], dtype=np.int64), PARAMS)
    doc = node.to_json()
    assert list(doc) == NODE_KEYS and doc["member_count"] == 3
    loaded = ClusterTreeNode.from_json({**doc, "member_count": 99})
    assert loaded.member_count == 3
    np.testing.assert_array_equal(loaded.member_rows, node.member_rows)
    empty = ClusterTreeNode.from_json({**doc, "member_rows": []})
    assert empty.member_rows.dtype == np.int64 and empty.member_count == 0


def test_node_without_topic_fields_loads_their_defaults():
    doc = ClusterTreeNode(0, 1, None, np.arange(5, dtype=np.int64), PARAMS).to_json()
    node = TopicNode.from_json(doc)
    assert (node.coherence_scores, node.merged, node.mean_toxicity) == (None, False, None)
    assert list(node.to_json()) == NODE_KEYS + ["coherence_scores", "merged", "mean_toxicity"]


def test_topic_tree_loads_as_cluster_tree(tmp_path):
    nodes = {
        0: TopicNode(0, 1, None, np.arange(6, dtype=np.int64), PARAMS, [5, 4], False, 12.5),
        1: TopicNode(1, 2, 0, np.array([1, 2, 4], dtype=np.int64), PARAMS, [3, 3], True, None),
    }
    topics = TopicTree(nodes=nodes, n_points=8, params=PARAMS, n_outliers=2, alpha=0.05, seed=3)
    path = tmp_path / "topics.json"
    topics.save(path)
    assert TopicTree.load(path).nodes[0].coherence_scores == [5, 4]
    tree = ClusterTree.load(path)
    assert (tree.n_points, tree.params) == (8, PARAMS)
    for nid, node in tree.nodes.items():
        assert type(node) is ClusterTreeNode
        assert (node.node_id, node.level, node.parent, node.params) == (nid, nodes[nid].level, nodes[nid].parent, PARAMS)
        assert node.member_rows.dtype == np.int64
        np.testing.assert_array_equal(node.member_rows, nodes[nid].member_rows)
