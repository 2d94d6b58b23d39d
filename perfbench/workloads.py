"""The three benchmark workloads: how each builds its inputs and what it runs.

A workload's inputs come from ``toxtraj.synth`` with the benchmark's seed.
``setup`` writes them to an input directory together with ``facts.json``,
the planted truth the output checks compare against. ``operations`` lists
the CLI calls of one timed round; the child process runs them in order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from toxtraj import corpus as corpus_mod
from toxtraj.synth import (
    DivergenceSpec,
    ParentBlobSpec,
    ScenarioConfig,
    TrendMix,
    generate_user_streams,
    three_by_two_scenario,
)

ALPHA = 0.05
MIN_POSTS = 50
N_PERMUTATIONS = 4999
KNN_K = 15
COHERENCE_REPS = 30
COHERENCE_N = 30
LIFT_WIDTH = 64
LIFT_SEED = 20250728  # fixed: the lift is part of the workload, not of the seed
# Every user posts the same number of times, so each seed gives the same
# number of posts and the same topic sizes, and hence the same amount of work.
POSTS_PER_USER = 65
# With the default gap of 20, each leaf of three_by_two_scenario has four
# other leaves at one equal distance, and the k-d Boruvka MST then needs one
# or two full rounds depending on noise (17 s or 30 s on one seed or the
# next). At a gap of 12, siblings are each other's nearest leaves, and every
# seed takes the same rounds.
TOPICS_CHILD_GAP = 12.0
# With min_samples 15 the first Boruvka round leaves 19-30 components and
# 0-2 whole topics, which varies the MST time by 25 % from seed to seed.
# With 60, the first round joins each topic into one component (on 18 seeds
# of 20; on the other two a few points of one topic stay apart).
TOPICS_MIN_SAMPLES = 60
TREND_MIX = dict(increasing=0.25, decreasing=0.25, flat=0.5, drift=30.0, noise_sd=4.0)

CLUSTER_STAGES = ["ingest", "reduce", "cluster", "merge", "groups", "trajectories", "permanova", "assign"]
DRIFT_STAGES = ["ingest", "groups", "trajectories", "permanova"]

# Drift topics sit away from the origin: cosine kNN sees only directions, and
# the posts of a topic centred at the origin point every way, so a drift to
# or from it does not show in the labels.
DRIFT_START = (8.0, 2.0, 0.0, 0.0, 0.0)
DRIFT_TARGET = (2.0, 8.0, 0.0, 0.0, 0.0)
DRIFT_SWITCH_TAU = 0.5


def subtopic_hierarchy(spread: float = 2.0) -> list[ParentBlobSpec]:
    """Eight parents far apart, each with three subtopics ``spread`` from it
    along three different axes, so the subtopics are close to one another."""
    specs = []
    for p in range(8):
        centre = np.zeros(5)
        centre[p % 5] = 30.0 * (1 + p // 5)
        centre[(p + 1) % 5] += 10.0
        offsets = []
        for j in range(3):
            off = np.zeros(5)
            off[(p + 2 + j) % 5] = spread
            offsets.append(tuple(off))
        specs.append(
            ParentBlobSpec(center=tuple(centre), child_offsets=offsets, sigma=0.5, n_per_child=100)
        )
    return specs


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int
    workers: int
    hierarchy: list = field(default_factory=list)
    min_cluster_size: int = 0
    min_samples: int = 0
    # Level 1 of the tree holds the parents (True) or, when the leaves are
    # as far apart as the parents, the leaves themselves (False).
    parents_at_level1: bool = False
    drift: bool = False

    def scenario(self, seed: int) -> ScenarioConfig:
        divergence = None
        if self.drift:
            divergence = DivergenceSpec(
                group="increasing",
                start_center=DRIFT_START,
                target_center=DRIFT_TARGET,
                switch_tau=DRIFT_SWITCH_TAU,
            )
        return ScenarioConfig(
            n_users=self.n_users,
            posts_per_user=(POSTS_PER_USER, POSTS_PER_USER),
            hierarchy=self.hierarchy,
            trend_mix=TrendMix(**TREND_MIX),
            divergence=divergence,
            separable=False,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "topics-6k", n_users=100, workers=1,
            hierarchy=three_by_two_scenario(n_per_child=100, child_gap=TOPICS_CHILD_GAP),
            min_cluster_size=60, min_samples=TOPICS_MIN_SAMPLES,
        ),
        Workload(
            "subtopics-3k", n_users=50, workers=1,
            hierarchy=subtopic_hierarchy(),
            min_cluster_size=40, min_samples=10, parents_at_level1=True,
        ),
        Workload("drift-130k", n_users=2000, workers=2, drift=True),
    )
}


def lift_matrix(width: int = LIFT_WIDTH) -> np.ndarray:
    """A fixed (width, 5) matrix with orthonormal columns."""
    rng = np.random.default_rng(LIFT_SEED)
    q, _ = np.linalg.qr(rng.normal(size=(width, 5)))
    return q


def setup(workload: Workload, seed: int, in_dir: Path) -> None:
    """Write the workload's inputs and planted truth to ``in_dir``."""
    in_dir.mkdir(parents=True, exist_ok=True)
    config = workload.scenario(seed)
    corpus, _truth = generate_user_streams(config)
    values = corpus.embeddings.values
    row_ids = corpus.embeddings.row_ids
    facts = {
        "workload": workload.name,
        "seed": seed,
        "alpha": ALPHA,
        "min_posts": MIN_POSTS,
        "n_permutations": N_PERMUTATIONS,
        "k": KNN_K,
        "reps": COHERENCE_REPS,
        "n_in": COHERENCE_N,
        "n_out": COHERENCE_N,
        "window": corpus.window.to_json(),
    }
    if workload.drift:
        corpus_mod.write_embeddings(in_dir / "embeddings.emb", values, row_ids)
        start = np.asarray(DRIFT_START)
        target = np.asarray(DRIFT_TARGET)
        near_target = np.linalg.norm(values - target, axis=1) < np.linalg.norm(values - start, axis=1)
        params = {"min_cluster_size": 60, "min_samples": 15, "metric": "euclidean"}
        nodes = [
            {
                "node_id": node_id,
                "level": 1,
                "parent": None,
                "member_count": int(rows.size),
                "member_rows": rows.tolist(),
                "params": params,
            }
            for node_id, rows in enumerate((np.flatnonzero(~near_target), np.flatnonzero(near_target)))
        ]
        doc = {"n_points": int(values.shape[0]), "params": params, "nodes": nodes}
        (in_dir / "tree.json").write_text(json.dumps(doc))
        n_weeks = corpus.window.n_weeks
        facts.update(
            embeddings="corpus/embeddings.emb",
            start_node=0,
            target_node=1,
            switch_week=DRIFT_SWITCH_TAU * n_weeks,
        )
    else:
        lift = lift_matrix()
        corpus_mod.write_embeddings(in_dir / "embeddings.emb", values @ lift.T, row_ids)
        centres, topic = [], []
        for parent, spec in enumerate(workload.hierarchy):
            for centre in spec.child_centers():
                centres.append((lift @ centre).tolist())
                topic.append(parent if workload.parents_at_level1 else len(topic))
        facts.update(embeddings="reduced.emb", centres=centres, centre_topic=topic)
    corpus_mod.write_posts(in_dir / "posts.ndjson", corpus.posts)
    (in_dir / "facts.json").write_text(json.dumps(facts, indent=2))


def operations(workload: Workload, in_dir: Path, out_dir: Path, seed: int) -> list[dict]:
    """The CLI calls of one timed round, each with the stages it runs."""
    window = json.loads((in_dir / "facts.json").read_text())["window"]
    stages = {
        "ingest": {
            "posts": str(in_dir / "posts.ndjson"),
            "embeddings": str(in_dir / "embeddings.emb"),
            "t0": window["t0"],
            "t_end": window["t_end"],
        },
        "groups": {"min_posts": MIN_POSTS, "alpha": ALPHA},
        "permanova": {"n_permutations": N_PERMUTATIONS},
    }
    if workload.drift:
        for name in ("reduce", "cluster", "merge", "assign"):
            stages[name] = {"enabled": False}
    else:
        stages["reduce"] = {"dim": 5}
        stages["cluster"] = {
            "min_cluster_size": workload.min_cluster_size,
            "min_samples": workload.min_samples,
        }
        stages["merge"] = {"scorer": "reference", "alpha": ALPHA}
        stages["assign"] = {"k": KNN_K}
    config = {"seed": seed, "out_dir": str(out_dir), "workers": workload.workers, "stages": stages}
    config_path = out_dir.parent / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    ops = [
        {
            "name": "run",
            "argv": ["run", "--config", str(config_path)],
            "stages": DRIFT_STAGES if workload.drift else CLUSTER_STAGES,
        }
    ]
    if workload.drift:
        ops.append(
            {
                "name": "merge",
                "argv": [
                    "merge", "--tree", str(in_dir / "tree.json"), "--corpus", str(out_dir / "corpus"),
                    "--alpha", str(ALPHA), "--seed", str(seed), "--workers", str(workload.workers),
                    "--out", str(out_dir / "topics.json"),
                ],
            }
        )
        ops.append(
            {
                "name": "assign",
                "argv": [
                    "assign", "--topics", str(out_dir / "topics.json"),
                    "--embeddings", str(out_dir / "corpus" / "embeddings.emb"),
                    "--traj", str(out_dir / "traj.bin"), "--groups", str(out_dir / "groups.json"),
                    "--k", str(KNN_K), "--out", str(out_dir / "labeled.json"),
                ],
            }
        )
    return ops
