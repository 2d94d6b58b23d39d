"""Command-line pipeline: ingest -> reduce -> cluster -> merge -> groups ->
trajectories -> permanova -> assign, plus synthetic-scenario generation and
report rendering. A single root seed (config or TOXTRAJ_SEED) feeds every
stage through named substreams, so any stage can be replayed in isolation.

``STAGES`` declares each stage once: the files it reads and writes and its
parameters with their defaults; ``run_<stage>`` does its work and returns
its summary. ``toxtraj run`` and the subcommands come from that table.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, corpus as corpus_mod, reduce as reduce_mod
from .coherence import (
    DEFAULT_ALPHA,
    DEFAULT_N_IN,
    DEFAULT_N_OUT,
    DEFAULT_REPS,
    ConstantCoherenceScorer,
    ExternalCoherenceScorer,
    ReferenceCoherenceScorer,
    TopicTree,
    level_counts,
    merge_pass,
)
from .corpus import StudyWindow, load_corpus, load_corpus_bundle, save_corpus
from .hdbscan import ClusterTree, HdbscanParams, recursive_cluster
from .knn import DEFAULT_K, fit_knn, label_trajectory
from .permanova import DEFAULT_PERMUTATIONS, permanova_test
from .synth import ScenarioConfig, generate_user_streams
from .trajectory import (
    DEFAULT_MIN_POSTS,
    PAIRS,
    GroupingResult,
    build_groups,
    build_trajectories,
    group_average_trajectory,
    read_trajectories,
    weekly_average,
    write_trajectories,
)
from .util import RANGES, check_range, range_error, seed_for, sha256_file

SEED_ENV_VAR = "TOXTRAJ_SEED"

# Default configuration constants, in one place for snapshot checks.
PIPELINE_DEFAULTS = {
    "min_posts": DEFAULT_MIN_POSTS,
    "n_daily_grid": corpus_mod.DEFAULT_DAILY_GRID,
    "week_len_days": corpus_mod.DEFAULT_WEEK_LEN_DAYS,
    "n_weekly_grid": corpus_mod.DEFAULT_DAILY_GRID // corpus_mod.DEFAULT_WEEK_LEN_DAYS,
    "coherence_reps": DEFAULT_REPS,
    "coherence_n_in": DEFAULT_N_IN,
    "coherence_n_out": DEFAULT_N_OUT,
    "alpha": DEFAULT_ALPHA,
    "n_permutations": DEFAULT_PERMUTATIONS,
    "knn_k": DEFAULT_K,
    "reduce_fraction": reduce_mod.DEFAULT_SAMPLE_FRACTION,
    "reduce_dim": reduce_mod.DEFAULT_OUTPUT_DIM,
    "max_depth": 6,
    "t0": corpus_mod.DEFAULT_T0,
    "t_end": corpus_mod.DEFAULT_T_END,
}


def _root_seed(config_seed: int) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    try:
        seed = int(env) if env else config_seed
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, not {env!r}") from None
    if seed < RANGES["seed"]:
        raise ValueError(f"{SEED_ENV_VAR} must be a non-negative integer, not {env!r}")
    return seed


def stage_seed(root_seed: int, stage: str) -> int:
    """Per-stage seed derived from the root seed and the stage name."""
    return int(seed_for(root_seed, "stage", stage).generate_state(1, np.uint64)[0] >> 1)


# ---------------------------------------------------------------------------
# Stage implementations (shared by subcommands and the pipeline runner)


def _read_window(path) -> StudyWindow:
    """The window stored at ``path`` (a window.json), or the default one."""
    return StudyWindow.load(path) if path else StudyWindow()


def run_ingest(posts, embeddings, window, out, t0, t_end) -> dict:
    # ``window`` (synth's window.json) sets the grids; t0/t_end override its span.
    base = _read_window(window)
    window = dataclasses.replace(
        base,
        t0=base.t0 if t0 is None else corpus_mod.window_time(t0),
        t_end=base.t_end if t_end is None else corpus_mod.window_time(t_end),
    )
    corpus = load_corpus(posts, embeddings_path=embeddings, window=window)
    paths = save_corpus(corpus, out)
    return {
        "outputs": paths,
        "n_posts": len(corpus),
        "n_dropped_outside_window": corpus.n_dropped_outside_window,
        "corpus": corpus,
    }


def run_reduce(embeddings, out, dim, fraction, seed) -> dict:
    matrix = corpus_mod.read_embeddings(embeddings)
    model = reduce_mod.fit_on_sample(matrix.values, fraction=fraction, output_dim=dim, seed=seed)
    corpus_mod.write_embeddings(out, reduce_mod.transform(model, matrix.values), matrix.row_ids)
    return {"dim": dim}


def run_cluster(embeddings, out, min_cluster_size, min_samples, max_depth) -> dict:
    matrix = corpus_mod.read_embeddings(embeddings)
    if min_samples is None:
        min_samples = min_cluster_size
    params = HdbscanParams(min_cluster_size=min_cluster_size, min_samples=min_samples)
    tree = recursive_cluster(matrix.values, params, max_depth=max_depth)
    tree.save(out)
    per_level = Counter(node.level for node in tree.nodes.values())
    return {
        "nodes_per_level": dict(sorted(per_level.items())),
        "n_outliers": int(tree.outlier_rows().size),
    }


def _make_scorer(kind: str, out_dir: Path):
    if kind == "reference":
        return ReferenceCoherenceScorer()
    if kind == "external":
        return ExternalCoherenceScorer(
            out_dir / "coherence_requests.ndjson", out_dir / "coherence_responses.ndjson"
        )
    if kind.startswith("constant:"):
        return ConstantCoherenceScorer(int(kind.split(":", 1)[1]))
    raise ValueError(f"unknown scorer kind: {kind!r}")


def scorer_kind(kind: str) -> str:
    """``kind``, once ``_make_scorer`` has built a scorer of it."""
    _make_scorer(kind, Path())
    return kind


def _check_rows(tree_path, tree: ClusterTree, n_rows: int, rows_name: str) -> None:
    """Refuse ``tree``, read from ``tree_path``, unless it clusters the ``n_rows`` rows of ``rows_name``."""
    if n_rows != tree.n_points:
        raise ValueError(f"{tree_path} clusters {tree.n_points} rows, not the {n_rows} of {rows_name}")


def run_merge(tree, corpus, out, scorer, alpha, seed, reps, n_in, n_out, workers) -> dict:
    scorer_obj = _make_scorer(scorer, Path(out).parent)
    clusters = ClusterTree.load(tree)
    _check_rows(tree, clusters, 0 if corpus.embeddings is None else corpus.embeddings.n, "the corpus embeddings")
    topics = merge_pass(
        clusters, corpus, scorer_obj, alpha=alpha, seed=seed,
        reps=reps, n_in=n_in, n_out=n_out, workers=workers,
    )
    topics.save(out)
    return {
        "level_counts": level_counts(topics),
        "n_outliers": topics.n_outliers,
        "n_auto_merged": topics.n_auto_merged,
    }


def run_groups(corpus, out, min_posts, alpha) -> dict:
    grouping = build_groups(corpus, min_posts=min_posts, alpha=alpha)
    grouping.save(out)
    return {
        "group_sizes": grouping.group_sizes(),
        "reference_overlap": grouping.reference_overlap,
    }


def run_trajectories(corpus, out, workers) -> dict:
    user_ids, paths, report = build_trajectories(corpus, workers=workers)
    write_trajectories(out, user_ids, paths)
    return report


def _group_paths(trajectories, groups, corpus) -> tuple[int, dict[str, np.ndarray]]:
    """The week length of bundle ``corpus``'s window, and each group of ``PAIRS`` by name, trend
    groups first: the daily paths of its members in ``trajectories``, in member order."""
    week_len = _read_window(corpus and Path(corpus) / "window.json").week_len_days
    user_ids, paths = read_trajectories(trajectories)
    index = {u: i for i, u in enumerate(user_ids)}
    grouping = GroupingResult.load(groups)
    return week_len, {
        group: paths[[index[u] for u in grouping.members(group) if u in index]]
        for side in zip(*PAIRS.values()) for group in side
    }


def run_permanova(trajectories, groups, corpus, out, pairs, freqs, n_permutations, seed, workers) -> dict:
    # ``trajectories`` must hold the daily grid, whose weeks the weekly vectors average.
    week_len, paths = _group_paths(trajectories, groups, corpus)
    rows = []
    for pair in pairs:
        for freq in freqs:
            a, b = (paths[group] if freq == "daily" else weekly_average(paths[group], week_len) for group in PAIRS[pair])
            if len(a) == 0 or len(b) == 0:
                rows.append({"pair": pair, "freq": freq, "skipped": "empty group"})
                continue
            # One vector per user: its grid, flattened.
            result = permanova_test(
                a.reshape(len(a), -1), b.reshape(len(b), -1), n_permutations=n_permutations,
                seed=stage_seed(seed, f"permanova-{pair}-{freq}"), workers=workers,
            )
            rows.append({"pair": pair, "freq": freq, **result.to_json()})
    text = json.dumps({"rows": rows}, indent=2)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
    return {"n_rows": len(rows)}


def run_assign(topics, embeddings, trajectories, groups, corpus, out, k) -> dict:
    tree = TopicTree.load(topics)
    matrix = corpus_mod.read_embeddings(embeddings)
    _check_rows(topics, tree, matrix.n, embeddings)
    week_len, paths = _group_paths(trajectories, groups, corpus)
    assignment = tree.topic_of_rows()
    leaf_ids = {n.node_id for n in tree.surviving_leaves()}
    labeled_rows = np.flatnonzero(np.isin(assignment, sorted(leaf_ids)))
    if labeled_rows.size == 0:
        raise ValueError("no rows are assigned to surviving topics")
    model = fit_knn(matrix.values[labeled_rows], assignment[labeled_rows], k=k)
    topic_toxicity = {
        n.node_id: n.mean_toxicity for n in tree.surviving()
    }
    groups_doc = {}
    for name, members in paths.items():
        if len(members) == 0:
            continue
        avg_daily = group_average_trajectory(members)
        avg_weekly = weekly_average(avg_daily, week_len)
        daily_lab = label_trajectory(model, avg_daily)
        weekly_lab = label_trajectory(model, avg_weekly)
        groups_doc[name] = {
            "n_users": len(members),
            "daily": daily_lab.to_json(),
            "weekly": weekly_lab.to_json(),
            "weekly_table": [
                {
                    "topic": topic,
                    "week_start": start,
                    "week_end": end,
                    "mean_toxicity": topic_toxicity.get(topic),
                }
                for topic, start, end in weekly_lab.runs
            ],
        }
    doc = {"k": k, "topics": sorted(leaf_ids), "groups": groups_doc}
    Path(out).write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return {"n_training_rows": int(labeled_rows.size)}


def run_synth(scenario, out, seed) -> dict:
    config = ScenarioConfig.load(scenario)
    if seed is not None:
        config.seed = seed
    check_range("seed", config.seed)
    corpus, truth = generate_user_streams(config)
    paths = save_corpus(corpus, out)
    paths["truth"] = str(Path(out) / "truth.json")
    Path(paths["truth"]).write_text(json.dumps(truth, indent=2, sort_keys=True))
    return {
        "outputs": paths,
        "n_posts": len(corpus),
        "n_users": config.n_users,
    }


# ---------------------------------------------------------------------------
# The stage table


class Port(NamedTuple):
    """A path a stage reads or writes: the artifact ``name`` within a run, the
    subcommand option ``flag`` (None: a run alone sets it). An output's
    ``path`` is where a run writes it, under out_dir. An input is read from
    what an earlier stage of the run made, unless it is a ``source``, from
    outside the run: the path the stage's config names (if it has a flag),
    else the file synth made."""

    name: str
    flag: str | None
    required: bool = True
    source: bool = False
    path: str | None = None
    help: str | None = None


class Param(NamedTuple):
    """A key of the stage's run config, and its subcommand option --key (with
    ``-`` for ``_``), of ``type`` (default: that of ``default``), ``required``
    as an option only. A tuple ``default`` lists the names the value may
    take: the option takes one or more of them, a config a non-empty list."""

    key: str
    default: object = None
    type: Callable | None = None
    required: bool = False
    help: str | None = None


# Top-level config keys. A stage listing SEED or WORKERS gets its value from the run.
SEED = Param("seed", 0)
WORKERS = Param("workers", 1)
OUT_DIR = Param("out_dir", "toxtraj_run")


class Stage(NamedTuple):
    name: str
    help: str
    inputs: tuple
    outputs: Port
    params: tuple

    def fn(self, **kwargs) -> dict:
        """Call ``run_<name>`` with the inputs, ``out`` and the params. It is
        looked up at each call, so a wrapper installed on this module after
        import is the one that runs."""
        return globals()[f"run_{self.name}"](**kwargs)


BUNDLE_WINDOW = "corpus bundle whose window sets the week (default: 7 days)"

STAGES = (
    Stage("synth", "generate a synthetic scenario corpus",
          inputs=(Port("scenario", "--scenario", source=True),),
          outputs=Port("synth", "--out-dir", path="synth"),
          params=(Param("seed", type=int),)),
    Stage("ingest", "load, validate, and canonicalize a corpus",
          inputs=(Port("posts", "--posts", source=True),
                  Port("embeddings", "--embeddings", required=False, source=True),
                  Port("window", None, required=False, source=True)),
          outputs=Port("corpus", "--out", path="corpus"),
          params=(Param("t0", type=corpus_mod.window_time), Param("t_end", type=corpus_mod.window_time))),
    Stage("reduce", "fit-on-sample PCA to k dimensions (pre-reduced vectors skip this stage)",
          inputs=(Port("embeddings", "--in"),),
          outputs=Port("embeddings", "--out", path="reduced.emb"),
          params=(Param("dim", PIPELINE_DEFAULTS["reduce_dim"]),
                  Param("fraction", PIPELINE_DEFAULTS["reduce_fraction"]),
                  SEED)),
    Stage("cluster", "recursive density-based clustering",
          inputs=(Port("embeddings", "--in"),),
          outputs=Port("tree", "--out", path="tree.json"),
          params=(Param("min_cluster_size", 100, required=True),
                  Param("min_samples", type=int, help="default: min cluster size"),
                  Param("max_depth", PIPELINE_DEFAULTS["max_depth"]))),
    Stage("merge", "coherence-gated subcluster merging",
          inputs=(Port("tree", "--tree"),
                  Port("corpus", "--corpus", help="corpus bundle directory"),
                  Port("embeddings", "--embeddings", required=False,
                     help="reduced embeddings (default: bundle embeddings)")),
          outputs=Port("topics", "--out", path="topics.json"),
          params=(Param("scorer", "reference", type=scorer_kind, help="reference | external | constant:N"),
                  Param("alpha", PIPELINE_DEFAULTS["alpha"]),
                  SEED,
                  Param("reps", PIPELINE_DEFAULTS["coherence_reps"]),
                  Param("n_in", PIPELINE_DEFAULTS["coherence_n_in"]),
                  Param("n_out", PIPELINE_DEFAULTS["coherence_n_out"]),
                  WORKERS)),
    Stage("groups", "toxicity-trend user grouping",
          inputs=(Port("corpus", "--corpus"),),
          outputs=Port("groups", "--out", path="groups.json"),
          params=(Param("min_posts", PIPELINE_DEFAULTS["min_posts"]), Param("alpha", PIPELINE_DEFAULTS["alpha"]))),
    Stage("trajectories", "interpolate user trajectories",
          inputs=(Port("corpus", "--corpus"), Port("embeddings", "--embeddings")),
          outputs=Port("trajectories", "--out", path="traj.bin"),
          params=(WORKERS,)),
    Stage("permanova", "trajectory-pair permutation tests",
          inputs=(Port("trajectories", "--traj", help="daily-grid trajectory file"),
                  Port("groups", "--groups"),
                  Port("corpus", "--corpus", required=False, help=BUNDLE_WINDOW)),
          outputs=Port("permanova", "--out", path="permanova.json", required=False, help="result JSON path (default: stdout)"),
          params=(Param("pairs", tuple(PAIRS)),
                  Param("freqs", ("daily", "weekly")),
                  Param("n_permutations", PIPELINE_DEFAULTS["n_permutations"]),
                  SEED,
                  WORKERS)),
    Stage("assign", "label average trajectories with topics",
          inputs=(Port("topics", "--topics"),
                  Port("embeddings", "--embeddings"),
                  Port("trajectories", "--traj"),
                  Port("groups", "--groups"),
                  Port("corpus", "--corpus", required=False, help=BUNDLE_WINDOW)),
          outputs=Port("labeled", "--out", path="labeled.json"),
          params=(Param("k", PIPELINE_DEFAULTS["knn_k"]),)),
)

# Stages that work on the loaded corpus. A run hands it from one to the next
# in memory and drops it before any other stage, so it is not held through
# clustering or the permutation tests.
READS_CORPUS = ("merge", "groups", "trajectories")


def _execute(stage: Stage, kwargs: dict, held=None):
    """Call ``stage.fn`` with ``kwargs``: its input paths, ``out`` and params.

    A corpus-reading stage gets the loaded corpus in place of its ``corpus``
    path: from ``held``, the (corpus, embeddings path) pair the previous stage
    left, else from disk by ``load_corpus_bundle`` with its ``embeddings``
    input. Returns the stage's result, whose ``outputs`` maps the output's
    name to ``out`` (empty if None) unless the stage maps its own files, and
    the pair it leaves for the next stage."""
    if stage.name in READS_CORPUS:
        bundle = Path(kwargs["corpus"])
        wanted = Path(kwargs.pop("embeddings", None) or (held[1] if held else bundle / "embeddings.emb"))
        if not held or held[1] != wanted:
            held = load_corpus_bundle(bundle, wanted), wanted
        kwargs["corpus"] = held[0]
    result = {"outputs": {} if kwargs["out"] is None else {stage.outputs.name: str(kwargs["out"])}, **stage.fn(**kwargs)}
    if "corpus" in result:
        held = result.pop("corpus"), Path(kwargs["out"]) / "embeddings.emb"
    return result, held


# ---------------------------------------------------------------------------
# Pipeline runner


def _param_error(param: Param, value) -> str | None:
    """What is wrong with ``value`` as ``param``'s, or None. A tuple default
    lists the names that a non-empty list may hold, none twice. An int,
    float, str or dict default, or else an int ``type``, takes a value of its
    JSON type: a bool is no number, and an int is a float. With no default,
    null is taken too. Any other ``type`` (``window_time``, ``scorer_kind``)
    must then accept the value, and a key of ``RANGES`` a value in its range."""
    default = param.default
    if isinstance(default, tuple):
        if not (isinstance(value, (list, tuple)) and value and all(v in default for v in value)):
            return f"must be a non-empty list of {', '.join(default)}"
        repeated = [v for i, v in enumerate(value) if v in value[:i]]
        return f"names {repeated[0]!r} twice" if repeated else None
    if default is None and value is None:
        return None
    kinds = {int: (int, "integer"), float: ((int, float), "number"), str: (str, "string"), dict: (dict, "object")}
    types, kind = kinds.get(param.type if default is None else type(default), (object, None))
    if kind and (isinstance(value, bool) or not isinstance(value, types)):
        return f"must be a JSON {kind}"
    if param.type not in (None, *kinds):
        try:
            param.type(value)
        except ValueError as exc:
            return f"is not valid ({exc})"
    return range_error(param.key, value) if param.key in RANGES else None


def _check_config(config: dict) -> None:
    """Raise ValueError naming the first part of ``config`` that a run would
    not read: an unknown key, stage or stage key, a value ``_param_error``
    refuses or an ``enabled`` that is no bool. A stage reads ``enabled``, its
    params but the seed and workers that a run sets, and its source inputs
    that have a flag."""
    if not isinstance(config, dict):
        raise ValueError("the config must be a JSON object")
    top = {param.key: param for param in (SEED, WORKERS, OUT_DIR, Param("stages", {}))}
    for key, value in config.items():
        if key not in top:
            raise ValueError(f"unknown config key {key!r}")
        error = _param_error(top[key], value)
        if error:
            raise ValueError(f"config key {key!r} {error}")
    stages = {stage.name: stage for stage in STAGES}
    for name, cfg in config.get("stages", {}).items():
        if name not in stages:
            raise ValueError(f"unknown stage {name!r}")
        if not isinstance(cfg, dict):
            raise ValueError(f"stage {name!r}: config must be a JSON object")
        params = {p.key: p for p in stages[name].params if p not in (SEED, WORKERS)}
        sources = [port.name for port in stages[name].inputs if port.source and port.flag]
        for key, value in cfg.items():
            if key not in ("enabled", *params, *sources):
                raise ValueError(f"stage {name!r}: unknown config key {key!r}")
            if key == "enabled" and not isinstance(value, bool):
                raise ValueError(f"stage {name!r}: config key 'enabled' must be a JSON boolean")
            error = key in params and _param_error(params[key], value)
            if error:
                raise ValueError(f"stage {name!r}: config key {key!r} {error}")


def run_pipeline(config: dict, config_dir: Path | None = None) -> dict:
    """Execute enabled stages in order; returns the run manifest.

    A stage reads only what earlier stages of this run made, apart from its
    ``source`` inputs (see ``Port``); a required input with no path is an error
    that names it. A key the run would not read is an error before any stage
    runs. ``config`` is left unchanged.
    """
    _check_config(config)
    root_seed = _root_seed(config.get("seed", SEED.default))
    out_dir = Path(config.get("out_dir", OUT_DIR.default))
    out_dir.mkdir(parents=True, exist_ok=True)
    stages_cfg = config.get("stages", {})
    workers = config.get("workers", WORKERS.default)
    manifest = {
        "version": __version__,
        "root_seed": root_seed,
        "out_dir": str(out_dir),
        "stages": [],
    }

    def resolve(path):
        p = Path(path)
        if not p.is_absolute() and config_dir is not None:
            candidate = config_dir / p
            if candidate.exists():
                return candidate
        return p

    plan = [
        stage for stage in STAGES
        if stages_cfg.get(stage.name, {}).get("enabled", True)
        and (stage.name != "synth" or "synth" in stages_cfg)
    ]
    artifacts: dict[str, str] = {}
    sources: dict[str, str] = {}  # synth's files, read by ingest alone
    held = None
    name = None
    try:
        for i, stage in enumerate(plan):
            name = stage.name
            cfg = stages_cfg.get(name, {})
            started = time.perf_counter()
            paths = {}
            for port in stage.inputs:
                path = (sources if port.source else artifacts).get(port.name)
                if port.source and port.flag and cfg.get(port.name):
                    path = str(resolve(cfg[port.name]))
                if path is None and port.required:
                    raise ValueError(f"input {port.name!r} is named in no config and made by no earlier enabled stage")
                paths[port.name] = path
            run_values = {SEED: stage_seed(root_seed, name), WORKERS: workers}
            params = {p.key: run_values[p] if p in run_values else cfg.get(p.key, p.default) for p in stage.params}
            out = out_dir / stage.outputs.path
            result, held = _execute(stage, dict(paths, out=out, **params), held)
            if i + 1 == len(plan) or plan[i + 1].name not in READS_CORPUS:
                held = None
            outputs = result["outputs"]
            manifest["stages"].append(
                {
                    "name": name,
                    "seed": stage_seed(root_seed, name),
                    "wall_time_s": round(time.perf_counter() - started, 3),
                    # The process's peak so far, so it never falls: a stage that raises it set the peak.
                    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                    "inputs": {k: v for k, v in paths.items() if v is not None},
                    "outputs": outputs,
                    "output_hashes": {k: sha256_file(v) for k, v in outputs.items() if Path(v).is_file()},
                    "summary": {k: v for k, v in result.items() if k != "outputs"},
                }
            )
            (sources if name == "synth" else artifacts).update(outputs)
            artifacts[stage.outputs.name] = str(out)
    except Exception as exc:
        manifest["failed_stage"] = name
        manifest["error"] = str(exc)
        raise RuntimeError(f"stage {name!r} failed: {exc}") from exc
    finally:
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


# ---------------------------------------------------------------------------
# Report rendering


def _tsv_block(header: list[str], rows: list[list]) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join("" if v is None else str(v) for v in row))
    return "```\n" + "\n".join(lines) + "\n```"


def render_report(manifest: dict) -> str:
    """Markdown summary of what the manifest's stages wrote, and of the stage
    that failed, if one did. Files the manifest does not list, such as an
    earlier run's, are not read."""
    stages = {stage["name"]: stage for stage in manifest["stages"]}

    def listed(stage, name):
        return stages.get(stage, {}).get("outputs", {}).get(name)

    sections = [f"# toxtraj run report\n\nroot seed: {manifest['root_seed']}\n"]
    if "failed_stage" in manifest:
        sections[0] += f"failed at stage {manifest['failed_stage']!r}: {manifest['error']}\n"
    sections.append("## Stages\n")
    rows = [[s["name"], s.get("peak_rss_mb")] for s in manifest["stages"]]
    sections.append(_tsv_block(["stage", "peak_rss_mb"], rows))

    if "merge" in stages:
        summary = stages["merge"]["summary"]
        sections.append("## Surviving cluster counts by level\n")
        sections.append(_tsv_block(["level", "clusters"], [list(item) for item in summary["level_counts"].items()]))
        sections.append(f"\noutliers: {summary['n_outliers']}\n")
        if "n_auto_merged" in summary:  # absent from manifests of earlier versions
            sections.append(f"auto-merged, too small to sample: {summary['n_auto_merged']}\n")

    if listed("permanova", "permanova"):
        doc = json.loads(Path(listed("permanova", "permanova")).read_text())
        sections.append("## Trajectory-pair comparisons\n")
        # exceed is absent from the files of earlier versions.
        stats = {"pseudo_f": ".4g", "p_value": ".4g", "exceed": "d", "eta_squared": ".4g"}
        rows = [
            [row["freq"], row["pair"], *(["skipped", "", "", ""] if "skipped" in row else
                                         (format(row[k], spec) if k in row else None for k, spec in stats.items()))]
            for row in doc["rows"]
        ]
        sections.append(_tsv_block(["freq", "pair", "pseudo_f", "p", "exceed", "eta_sq"], rows))

    if listed("assign", "labeled"):
        doc = json.loads(Path(listed("assign", "labeled")).read_text())
        for group, payload in doc["groups"].items():
            sections.append(f"## Weekly topic runs: {group}\n")
            rows = [
                [
                    r["week_start"],
                    r["week_end"],
                    r["topic"],
                    None if r["mean_toxicity"] is None else f"{r['mean_toxicity']:.2f}",
                ]
                for r in payload["weekly_table"]
            ]
            sections.append(_tsv_block(["week_from", "week_to", "topic", "mean_toxicity"], rows))

    if listed("groups", "groups") and listed("ingest", "posts"):
        grouping = GroupingResult.load(listed("groups", "groups"))
        window = _read_window(listed("ingest", "window"))
        corpus = load_corpus(listed("ingest", "posts"), window=window)
        week_seconds = window.week_len_days * 86400
        sections.append("## Weekly mean toxicity by group\n")
        names = [group for pair in PAIRS.values() for group in pair]
        columns = []
        for name in names:
            # Members in member order, each one's posts in canonical order.
            segments = map(corpus.segment, grouping.members(name))
            at = np.array([i for s in segments for i in range(s.start, s.stop)], dtype=np.int64)
            tox = corpus.posts.toxicity[at]
            scored = ~np.isnan(tox)
            weeks = np.minimum((corpus.posts.timestamp[at][scored] - window.t0) // week_seconds, window.n_weeks - 1)
            sums = np.bincount(weeks, tox[scored], window.n_weeks)
            counts = np.bincount(weeks, minlength=window.n_weeks)
            columns.append(["" if c == 0 else f"{s / c:.2f}" for s, c in zip(sums, counts)])
        rows = [[week, *cells] for week, cells in enumerate(zip(*columns))]
        sections.append(_tsv_block(["week"] + names, rows))

    return "\n".join(sections) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toxtraj", description=__doc__)
    parser.add_argument("--version", action="version", version=f"toxtraj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGES:
        # No abbreviations, so that a flag's one spelling is its only one.
        p = sub.add_parser(stage.name, help=stage.help, allow_abbrev=False)
        for port in stage.inputs:
            if port.flag:
                p.add_argument(port.flag, dest=port.name, required=port.required, help=port.help)
        out = stage.outputs
        p.add_argument(out.flag, dest="out", required=out.required, help=out.help)
        for param in stage.params:
            names = {"nargs": "+", "choices": param.default} if isinstance(param.default, tuple) else {}
            p.add_argument("--" + param.key.replace("_", "-"), dest=param.key, default=param.default,
                           type=str if names else param.type or type(param.default),
                           required=param.required, help=param.help, **names)

    p = sub.add_parser("run", help="run the configured pipeline end to end")
    p.add_argument("--config", required=True)

    p = sub.add_parser("report", help="render a run manifest as markdown")
    p.add_argument("--manifest", required=True)

    return parser


def _require(doc, keys, where: str) -> None:
    """Raise ValueError starting with ``where`` unless ``doc`` is an object holding ``keys``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{where}: missing key {missing[0]!r}")


def _read_json(path, *keys):
    """The JSON document at ``path``, which must be an object holding ``keys``
    if any are given. An error the file causes starts with its path."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if keys:
        _require(doc, keys, str(path))
    return doc


def _read_manifest(path) -> dict:
    """The run manifest at ``path``, refused unless it holds every key that
    ``render_report`` reads of it; the error names the file, and the stage by
    its index if a stage entry is at fault."""
    manifest = _read_json(path, "root_seed", "stages")
    if "failed_stage" in manifest:
        _require(manifest, ["error"], str(path))
    if not isinstance(manifest["stages"], list):
        raise ValueError(f"{path}: stages must be a list")
    for i, stage in enumerate(manifest["stages"]):
        _require(stage, ["name"], f"{path}: stage {i}")
        if stage["name"] == "merge":
            _require(stage, ["summary"], f"{path}: stage {i}")
            _require(stage["summary"], ["level_counts", "n_outliers"], f"{path}: stage {i}: summary")
    return manifest


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config_path = Path(args.config)
            config = _read_json(config_path)
            manifest = run_pipeline(config, config_dir=config_path.parent)
            print(json.dumps({"stages": [s["name"] for s in manifest["stages"]]}, indent=2))
            return 0
        if args.command == "report":
            print(render_report(_read_manifest(args.manifest)))
            return 0
        stage = next(s for s in STAGES if s.name == args.command)
        values = vars(args)
        for param in stage.params:
            error = _param_error(param, values[param.key])
            if error:
                raise ValueError(f"--{param.key.replace('_', '-')} {error}")
        kwargs = {port.name: values.get(port.name) for port in stage.inputs}
        kwargs.update({param.key: values[param.key] for param in stage.params}, out=args.out)
        result, _ = _execute(stage, kwargs)
    except Exception as exc:
        print(f"toxtraj {args.command}: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
