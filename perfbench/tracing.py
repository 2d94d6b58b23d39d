"""Outside-in tracing: timing wrappers around toxtraj's public functions.

Each wrapper is installed at the module attribute the program calls the
function through, so the program itself is unchanged. Every call records a
span (name, start, end, parent); a span opened on a pool thread takes as
parent the span open on the main thread. Self time is a span's duration
minus the union of its children's intervals.
"""
from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

# (module, attribute, span name). ``Class.method`` attributes are patched on
# the class.
HOOKS = [
    ("toxtraj.cli", "run_ingest", "cli.ingest"),
    ("toxtraj.cli", "run_reduce", "cli.reduce"),
    ("toxtraj.cli", "run_cluster", "cli.cluster"),
    ("toxtraj.cli", "run_merge", "cli.merge"),
    ("toxtraj.cli", "run_groups", "cli.groups"),
    ("toxtraj.cli", "run_trajectories", "cli.trajectories"),
    ("toxtraj.cli", "run_permanova", "cli.permanova"),
    ("toxtraj.cli", "run_assign", "cli.assign"),
    ("toxtraj.corpus", "read_posts", "corpus.read_posts"),
    ("toxtraj.corpus", "read_embeddings", "corpus.read_embeddings"),
    ("toxtraj.corpus", "write_posts", "corpus.write_posts"),
    ("toxtraj.corpus", "write_embeddings", "corpus.write_embeddings"),
    ("toxtraj.reduce", "fit_on_sample", "reduce.fit_on_sample"),
    ("toxtraj.reduce", "transform", "reduce.transform"),
    ("toxtraj.hdbscan", "core_distances", "hdbscan.core_distances"),
    ("toxtraj.hdbscan", "mutual_reachability_mst", "hdbscan.mst"),
    ("toxtraj.hdbscan", "condense_and_extract", "hdbscan.condense"),
    ("toxtraj.hdbscan", "run_hdbscan", "hdbscan.run"),
    ("toxtraj.cli", "recursive_cluster", "hdbscan.recursive_cluster"),
    ("toxtraj.cli", "merge_pass", "coherence.merge_pass"),
    ("toxtraj.coherence", "build_request", "coherence.build_request"),
    ("toxtraj.coherence", "ReferenceCoherenceScorer.score", "coherence.score"),
    ("toxtraj.coherence", "mann_whitney_u", "stats.mann_whitney_u"),
    ("toxtraj.trajectory", "ols_trend", "stats.ols_trend"),
    ("toxtraj.cli", "build_groups", "trajectory.build_groups"),
    ("toxtraj.cli", "build_trajectories", "trajectory.build_trajectories"),
    ("toxtraj.trajectory", "interpolate_daily", "trajectory.interpolate_daily"),
    ("toxtraj.cli", "write_trajectories", "trajectory.write_trajectories"),
    ("toxtraj.cli", "read_trajectories", "trajectory.read_trajectories"),
    ("toxtraj.cli", "permanova_test", "permanova.test"),
    ("toxtraj.cli", "fit_knn", "knn.fit"),
    ("toxtraj.cli", "label_trajectory", "knn.label_trajectory"),
    ("toxtraj.knn", "predict_topic", "knn.predict_topic"),
    ("toxtraj.cli", "sha256_file", "util.sha256_file"),
    ("toxtraj.coherence", "parallel_map", "util.parallel_map"),
    ("toxtraj.trajectory", "parallel_map", "util.parallel_map"),
    ("toxtraj.permanova", "parallel_map", "util.parallel_map"),
]

STAGES = ["ingest", "reduce", "cluster", "merge", "groups", "trajectories", "permanova", "assign"]

# Per-layer metrics reported by a traced run, with their units. "X.s" is
# the summed inclusive time of span X, "X.calls" its call count.
LAYER_METRICS = (
    [(f"cli.{stage}.s", "s") for stage in STAGES]
    + [("cli.output_bytes", "bytes")]
    + [
        ("corpus.read_posts.s", "s"),
        ("corpus.read_posts.calls", "count"),
        ("corpus.read_embeddings.s", "s"),
        ("corpus.read_embeddings.calls", "count"),
        ("corpus.write_posts.s", "s"),
        ("corpus.write_embeddings.s", "s"),
        ("reduce.fit_on_sample.s", "s"),
        ("reduce.transform.s", "s"),
        ("hdbscan.core_distances.s", "s"),
        ("hdbscan.mst.s", "s"),
        ("hdbscan.condense.s", "s"),
        ("hdbscan.recursive_cluster.s", "s"),
        ("hdbscan.run.calls", "count"),
        ("hdbscan.mst.points", "count"),
        ("hdbscan.mst.max_points", "count"),
        ("hdbscan.tree_nodes", "count"),
        ("coherence.merge_pass.s", "s"),
        ("coherence.build_request.s", "s"),
        ("coherence.requests", "count"),
        ("coherence.score.s", "s"),
        ("coherence.nodes_scored", "count"),
        ("coherence.nodes_kept", "count"),
        ("coherence.nodes_merged", "count"),
        ("stats.ols_trend.s", "s"),
        ("stats.ols_trend.calls", "count"),
        ("stats.mann_whitney_u.s", "s"),
        ("stats.mann_whitney_u.calls", "count"),
        ("trajectory.build_groups.s", "s"),
        ("trajectory.build_trajectories.s", "s"),
        ("trajectory.interpolate_daily.calls", "count"),
        ("trajectory.write_trajectories.s", "s"),
        ("trajectory.read_trajectories.s", "s"),
        ("permanova.test.s", "s"),
        ("permanova.tests", "count"),
        ("permanova.permutations", "count"),
        ("permanova.perms_per_s", "1/s"),
        ("knn.fit.s", "s"),
        ("knn.label_trajectory.s", "s"),
        ("knn.queries", "count"),
        ("knn.train_rows", "count"),
        ("knn.query_us", "us"),
        ("util.sha256_file.s", "s"),
        ("util.parallel_map.s", "s"),
    ]
)


class Recorder:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            fn = getattr(target, leaf, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(target, leaf, self.wrap(fn, name, OBSERVERS.get(name)))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed inclusive time, self time and calls."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(i)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, start, end, _parent) in enumerate(self.spans):
            covered = _union_length(
                [(max(start, self.spans[c][1]), min(end, self.spans[c][2])) for c in children[i]]
            )
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - covered
            row["calls"] += 1
        return dict(out)

    def layer_metrics(self, output_bytes: int) -> dict[str, float]:
        totals = self.totals()

        def total(name, key="s"):
            return float(totals.get(name, {}).get(key, 0.0))

        c = self.counters
        values: dict[str, float] = {}
        for metric, _unit in LAYER_METRICS:
            if metric.endswith(".s"):
                span = metric[:-2]
                values[metric] = total(span)
            elif metric.endswith(".calls"):
                values[metric] = total(metric[: -len(".calls")], "calls")
        values["cli.output_bytes"] = float(output_bytes)
        values["hdbscan.mst.points"] = c["hdbscan.mst.points"]
        values["hdbscan.mst.max_points"] = c["hdbscan.mst.max_points"]
        values["hdbscan.tree_nodes"] = c["hdbscan.tree_nodes"]
        values["coherence.requests"] = total("coherence.build_request", "calls")
        for key in ("nodes_scored", "nodes_kept", "nodes_merged"):
            values[f"coherence.{key}"] = c[f"coherence.{key}"]
        values["permanova.tests"] = total("permanova.test", "calls")
        values["permanova.permutations"] = c["permanova.permutations"]
        test_s = total("permanova.test")
        values["permanova.perms_per_s"] = c["permanova.permutations"] / test_s if test_s > 0 else 0.0
        queries = total("knn.predict_topic", "calls")
        values["knn.queries"] = queries
        values["knn.train_rows"] = c["knn.train_rows"]
        values["knn.query_us"] = 1e6 * total("knn.predict_topic") / queries if queries else 0.0
        return {metric: values[metric] for metric, _unit in LAYER_METRICS}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    length = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        length += end - max(start, reach)
        reach = end
    return length


def _observe_mst(counters, args, kwargs, result):
    n = len(args[0])
    counters["hdbscan.mst.points"] += n
    counters["hdbscan.mst.max_points"] = max(counters["hdbscan.mst.max_points"], n)


def _observe_tree(counters, args, kwargs, result):
    counters["hdbscan.tree_nodes"] += len(result.nodes)


def _observe_merge(counters, args, kwargs, result):
    for node in result.nodes.values():
        if node.coherence_scores is not None:
            counters["coherence.nodes_scored"] += 1
        if node.level >= 2:
            counters["coherence.nodes_merged" if node.merged else "coherence.nodes_kept"] += 1


def _observe_permanova(counters, args, kwargs, result):
    counters["permanova.permutations"] += result.n_permutations


def _observe_knn_fit(counters, args, kwargs, result):
    counters["knn.train_rows"] += result.points.shape[0]


OBSERVERS = {
    "hdbscan.mst": _observe_mst,
    "hdbscan.recursive_cluster": _observe_tree,
    "coherence.merge_pass": _observe_merge,
    "permanova.test": _observe_permanova,
    "knn.fit": _observe_knn_fit,
}
