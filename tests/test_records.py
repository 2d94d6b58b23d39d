"""Every persisted record writes its fields in declaration order and reads
back equal."""
import dataclasses
import json

import pytest

from toxtraj.corpus import StudyWindow
from toxtraj.hdbscan import HdbscanParams
from toxtraj.knn import TrajectoryLabeling
from toxtraj.permanova import PermanovaResult
from toxtraj.synth import DivergenceSpec, ParentBlobSpec, ScenarioConfig, TrendMix
from toxtraj.trajectory import UserGroupAssignment

WINDOW = StudyWindow(t0=1_000, t_end=2_000_000, n_daily_grid=21, week_len_days=7)
BLOB = ParentBlobSpec(
    center=(1.0, 2.0), child_offsets=[(0.5, 0.0), (-0.5, 0.0)], sigma=0.3, n_per_child=10, bridge_points=2
)
DIVERGENCE = DivergenceSpec(group="flat", start_center=(0.0, 0.0), target_center=(8.0, 0.0), switch_tau=0.4)

RECORDS = [
    HdbscanParams(min_cluster_size=12, min_samples=4),
    WINDOW,
    PermanovaResult(
        pseudo_f=2.5, p_value=0.01, exceed=0, eta_squared=0.2, ss_between=3.0, ss_within=12.0,
        n_permutations=99, df=(1, 18), degenerate=False,
    ),
    TrajectoryLabeling(
        sequence=[3, None, 3, 5], runs=[(3, 0, 0), (None, 1, 1), (3, 2, 2), (5, 3, 3)], unlabeled_steps=[1]
    ),
    UserGroupAssignment("u7", "Increasing", 0.25, 0.003, 41.5, matched_to="IncreasingRef", degenerate=True),
    TrendMix(increasing=0.5, decreasing=0.25, flat=0.25, drift=12.0, noise_sd=2.0),
    BLOB,
    DIVERGENCE,
    ScenarioConfig(
        n_users=9, posts_per_user=(3, 4), window=WINDOW, hierarchy=[BLOB, BLOB],
        trend_mix=TrendMix(), divergence=DIVERGENCE, embedding_sigma=0.7, separable=False, seed=5,
    ),
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
