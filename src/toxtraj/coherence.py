"""Coherence-gated topic merging.

Every subcluster's coherence (1..5) is sampled repeatedly against the rest
of the corpus; a subcluster survives only when its coherence distribution is
significantly higher than its parent's under a one-sided Mann-Whitney test.
Scoring is pluggable: a deterministic geometric reference scorer, a constant
scorer, or a batch file exchange with an outside rater.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Protocol

import numpy as np

from .corpus import Corpus
from .hdbscan import ClusterTree, ClusterTreeNode
from .stats import mann_whitney_u
from .util import check_range, parallel_map, substream


DEFAULT_REPS = 30
DEFAULT_N_IN = 30
DEFAULT_N_OUT = 30
DEFAULT_ALPHA = 0.05

KEEP = "keep"
MERGE = "merge"

COHERENCE_PROMPT_TEMPLATE = """Task Description:
You are a computational social scientist evaluating the coherence of a specific topic ("Topic A") discovered in a collection of tweets.

Evaluation Process:
1. Examine two sets of tweets:
   - In-topic examples: {n_in} randomly selected tweets classified as belonging to Topic A.
     {in_topic_examples}
   - Out-topic examples: {n_out} randomly selected tweets classified as NOT belonging to Topic A.
     {out_topic_examples}

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


@dataclass
class CoherenceRequest:
    """One scoring task: in-node and out-of-node samples for a tree node."""

    node_id: int
    rep: int
    in_points: np.ndarray
    out_points: np.ndarray
    in_texts: list
    out_texts: list

    @cached_property
    def document(self) -> dict:
        """The request line a rater reads: task_id, node_id, rep, in_texts,
        out_texts (an absent text as "") and the prompt, which states each
        list's size. The task id is the first 16 hex digits of the sha256 of
        the JSON of the other five keys."""
        in_texts = [t if t is not None else "" for t in self.in_texts]
        out_texts = [t if t is not None else "" for t in self.out_texts]
        doc = {
            "node_id": self.node_id,
            "rep": self.rep,
            "in_texts": in_texts,
            "out_texts": out_texts,
            "prompt": COHERENCE_PROMPT_TEMPLATE.format(
                n_in=len(in_texts),
                n_out=len(out_texts),
                in_topic_examples="\n     ".join(in_texts),
                out_topic_examples="\n     ".join(out_texts),
            ),
        }
        digest = hashlib.sha256(json.dumps(doc).encode("ascii")).hexdigest()
        return {"task_id": digest[:16], **doc}


class CoherenceScorer(Protocol):
    def score(self, request: CoherenceRequest) -> int: ...


_MARGIN_THRESHOLDS = ((0.0, 1), (0.10, 2), (0.25, 3), (0.45, 4))
_MARGIN_EPS = 1e-12


def reference_coherence_score(in_samples: np.ndarray, out_samples: np.ndarray) -> int:
    """Deterministic geometric coherence proxy.

    margin = (mean inter-set distance - mean intra-in-set distance)
             / (mean inter-set distance + eps),
    mapped onto 1..5 by fixed thresholds (<0, <0.1, <0.25, <0.45, else 5).
    """
    in_samples = np.asarray(in_samples, dtype=np.float64)
    out_samples = np.asarray(out_samples, dtype=np.float64)
    if in_samples.size == 0 or out_samples.size == 0:
        raise ValueError("both sample sets must be non-empty")
    inter = np.sqrt(((in_samples[:, None, :] - out_samples[None, :, :]) ** 2).sum(axis=2))
    mean_inter = float(inter.mean())
    n_in = in_samples.shape[0]
    intra = np.sqrt(((in_samples[:, None, :] - in_samples[None, :, :]) ** 2).sum(axis=2))
    mean_intra = float(intra.sum() / max(n_in * (n_in - 1), 1))  # one sample: 0
    margin = (mean_inter - mean_intra) / (mean_inter + _MARGIN_EPS)
    for threshold, score in _MARGIN_THRESHOLDS:
        if margin < threshold:
            return score
    return 5


class ReferenceCoherenceScorer:
    """Scores requests with the geometric margin proxy."""

    def score(self, request: CoherenceRequest) -> int:
        return reference_coherence_score(request.in_points, request.out_points)


class ConstantCoherenceScorer:
    """Returns a fixed score; useful as a degenerate control."""

    def __init__(self, value: int = 3):
        if value not in (1, 2, 3, 4, 5):
            raise ValueError("constant score must be in 1..5")
        self.value = value

    def score(self, request: CoherenceRequest) -> int:
        return self.value


class PendingExternalScores(RuntimeError):
    """Raised when requests were written and responses are not yet present."""


class ExternalCoherenceScorer:
    """Batch file exchange with an outside rater.

    Requests are newline-delimited JSON, one ``CoherenceRequest.document`` a
    line; responses are {task_id, coherence}. A task id hashes the rest of its
    request line, so a responses file rated on other texts or another prompt
    lacks the current ids and is refused.
    """

    def __init__(self, requests_path, responses_path):
        self.requests_path = requests_path
        self.responses_path = responses_path
        self._responses: Optional[dict[str, int]] = None

    def _load_responses(self) -> dict[str, int]:
        """task_id -> score; a bad line raises ValueError naming its number."""
        responses: dict[str, int] = {}
        for line_no, raw in enumerate(Path(self.responses_path).read_bytes().splitlines(), start=1):
            where = f"response line {line_no}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{self.responses_path}: {where}: not valid UTF-8 ({exc.reason})") from None
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON ({exc.msg})") from None
            if not isinstance(doc, dict):
                raise ValueError(f"{where}: expected a JSON object")
            task_id, score = doc.get("task_id"), doc.get("coherence")
            if not isinstance(task_id, str):
                raise ValueError(f"{where}: task_id must be a string, got {task_id!r}")
            if isinstance(score, bool) or score not in (1, 2, 3, 4, 5):
                raise ValueError(f"{where}: coherence must be an integer in 1..5, got {score!r}")
            if task_id in responses:
                raise ValueError(f"{where}: task_id {task_id!r} repeats an earlier line")
            responses[task_id] = int(score)
        return responses

    def write_requests(self, requests: list[CoherenceRequest]) -> None:
        with open(self.requests_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(req.document, ensure_ascii=False) + "\n" for req in requests)

    def resolve(self, requests: list[CoherenceRequest]) -> None:
        """Write requests, then load and hash-check responses if present."""
        self.write_requests(requests)
        if not Path(self.responses_path).exists():
            raise PendingExternalScores(
                f"wrote {len(requests)} coherence request(s) to {self.requests_path}; "
                f"place rater responses at {self.responses_path} and rerun"
            )
        responses = self._load_responses()
        missing = [r.document["task_id"] for r in requests if r.document["task_id"] not in responses]
        if missing:
            raise ValueError(
                f"{len(missing)} request(s) lack responses in {self.responses_path} (first missing task_id: "
                f"{missing[0]}); a task id changes when its request's texts or prompt change"
            )
        self._responses = responses

    def score(self, request: CoherenceRequest) -> int:
        if self._responses is None:
            raise RuntimeError("call resolve(requests) before scoring")
        return self._responses[request.document["task_id"]]


@dataclass
class TopicNode(ClusterTreeNode):
    """Cluster tree node annotated with coherence and merge status."""

    coherence_scores: Optional[list[int]] = None
    merged: bool = False
    mean_toxicity: Optional[float] = None


@dataclass
class TopicTree(ClusterTree):
    nodes: dict[int, TopicNode]
    n_outliers: int = 0
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    # Nodes the merge pass merged unscored, too small (or under a too-small
    # parent) to sample coherence. A count of that pass, not saved.
    n_auto_merged: int = 0

    node_type = TopicNode
    json_fields = ("n_outliers", "alpha", "seed")

    def surviving(self) -> list[TopicNode]:
        return [n for n in self.nodes.values() if not n.merged]

    def surviving_leaves(self) -> list[TopicNode]:
        survivors = self.surviving()
        parents_with_kids = {n.parent for n in survivors if n.parent is not None}
        return [n for n in survivors if n.node_id not in parents_with_kids]

    def topic_of_rows(self) -> np.ndarray:
        """Per-row id of the deepest surviving node containing the row (-1: outlier)."""
        assignment = np.full(self.n_points, -1, dtype=np.int64)
        for node in sorted(self.surviving(), key=lambda n: (n.level, n.node_id)):
            assignment[node.member_rows] = node.node_id
        return assignment


def build_request(
    node: ClusterTreeNode,
    corpus: Corpus,
    rep: int,
    n_in: int,
    n_out: int,
    seed: int,
) -> CoherenceRequest:
    """Sample one rep: n_in rows from the node, n_out from its complement."""
    if corpus.embeddings is None:
        raise ValueError("corpus must carry embeddings for coherence scoring")
    n_total = corpus.embeddings.n
    members = node.member_rows
    if members.size < n_in:
        raise ValueError(
            f"node {node.node_id} has {members.size} member(s), needs at least {n_in}"
        )
    if n_total - members.size < n_out:
        raise ValueError(
            f"complement of node {node.node_id} has {n_total - members.size} row(s), "
            f"needs at least {n_out}"
        )
    rng = substream(seed, "coherence", node.node_id, rep)
    in_rows = np.sort(rng.choice(members, size=n_in, replace=False))
    mask = np.ones(n_total, dtype=bool)
    mask[members] = False
    complement = np.flatnonzero(mask)
    out_rows = np.sort(rng.choice(complement, size=n_out, replace=False))
    values = corpus.embeddings.values
    text = corpus.posts.text
    return CoherenceRequest(
        node_id=node.node_id,
        rep=rep,
        in_points=values[in_rows],
        out_points=values[out_rows],
        in_texts=[text[i] for i in corpus.post_of_row[in_rows].tolist()],
        out_texts=[text[i] for i in corpus.post_of_row[out_rows].tolist()],
    )


def test_subcluster(child_scores, parent_scores, alpha: float = DEFAULT_ALPHA) -> str:
    """Keep the subcluster iff its coherence is significantly higher than
    the parent's (one-sided Mann-Whitney, strict p < alpha)."""
    if len(child_scores) == 0 or len(parent_scores) == 0:
        raise ValueError("score sequences must be non-empty")
    result = mann_whitney_u(child_scores, parent_scores, alternative="greater")
    return KEEP if result.p_value < alpha else MERGE


def merge_pass(
    tree: ClusterTree,
    corpus: Corpus,
    scorer: CoherenceScorer,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    reps: int = DEFAULT_REPS,
    n_in: int = DEFAULT_N_IN,
    n_out: int = DEFAULT_N_OUT,
    workers: int = 1,
) -> TopicTree:
    """Score every node, then merge subclusters that fail the coherence gate.

    Every node of ``tree`` starts unscored and unmerged, so a TopicTree from
    an earlier pass is rescored from scratch. Bottom-up: each node at level
    >= 2 is tested against its direct parent; a merged node's members revert
    to the parent and its subtree is discarded (flagged merged). Nodes too
    small to sample, or whose parent is, are auto-merged and counted in
    ``n_auto_merged``.
    """
    for name, value in (("alpha", alpha), ("reps", reps), ("n_in", n_in), ("n_out", n_out)):
        check_range(name, value)
    n_points = tree.n_points
    params = tree.params
    if corpus.embeddings is None or corpus.embeddings.n != n_points:
        raise ValueError("corpus embeddings must cover exactly the clustered rows")

    topic_nodes = {
        nid: TopicNode(node.node_id, node.level, node.parent, node.member_rows, node.params)
        for nid, node in tree.nodes.items()
    }

    # Score every node that is large enough; external scorers resolve the
    # whole batch up front so runs are replayable.
    scoreable = sorted(
        (n for n in topic_nodes.values() if n.member_rows.size >= n_in and n_points - n.member_rows.size >= n_out),
        key=lambda n: n.node_id,
    )
    requests = {n.node_id: [build_request(n, corpus, rep, n_in, n_out, seed) for rep in range(reps)] for n in scoreable}
    if requests and isinstance(scorer, ExternalCoherenceScorer):
        scorer.resolve([req for node_requests in requests.values() for req in node_requests])

    def score_node(node: TopicNode) -> list[int]:
        return [int(scorer.score(req)) for req in requests[node.node_id]]

    scores = parallel_map(score_node, scoreable, workers=workers)
    for node, node_scores in zip(scoreable, scores):
        node.coherence_scores = node_scores

    # Decide bottom-up (deepest first), then discard subtrees of merged nodes.
    n_auto_merged = 0
    for node in sorted(topic_nodes.values(), key=lambda n: -n.level):
        if node.level < 2 or node.parent not in topic_nodes:
            continue
        parent = topic_nodes[node.parent]
        if node.coherence_scores is None or parent.coherence_scores is None:
            n_auto_merged += 1
            node.merged = True
            continue
        node.merged = test_subcluster(node.coherence_scores, parent.coherence_scores, alpha) == MERGE
    for node in sorted(topic_nodes.values(), key=lambda n: n.level):
        if node.parent in topic_nodes and topic_nodes[node.parent].merged:
            node.merged = True

    for node in topic_nodes.values():
        tox = corpus.posts.toxicity[corpus.post_of_row[node.member_rows]]
        tox = tox[~np.isnan(tox)]
        node.mean_toxicity = float(tox.mean()) if tox.size else None

    return TopicTree(
        nodes=topic_nodes,
        n_points=n_points,
        params=params,
        n_outliers=int(tree.outlier_rows().size),
        alpha=alpha,
        seed=seed,
        n_auto_merged=n_auto_merged,
    )


def level_counts(tree: TopicTree) -> dict[int, int]:
    """Surviving (unmerged) node count per level."""
    return dict(sorted(Counter(node.level for node in tree.surviving()).items()))
