"""Coherence-gated topic merging.

Every subcluster's coherence (1..5) is sampled repeatedly against the rest
of the corpus; a subcluster survives only when its coherence distribution is
significantly higher than its parent's under a one-sided Mann-Whitney test.
Scoring is pluggable: a deterministic geometric reference scorer, a constant
scorer, or a batch file exchange with an outside rater. A merge pass calls its
scorer once, with all of the pass's requests, for one score each, in order.
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
    def score(self, requests: list[CoherenceRequest]) -> list[int]:
        """One score in 1..5 for each request of a merge pass, which passes them all at once."""
        ...


_MARGIN_THRESHOLDS = ((0.0, 1), (0.10, 2), (0.25, 3), (0.45, 4))
_MARGIN_EPS = 1e-12
# Distances held by one (reps, n, n) array of the batched scorer. 960 requests of 30 + 30 5-d
# samples took 0.022 s of CPU at 2^14 (18 a batch), 0.034 s at 2^15 or 2^16 (2-core Xeon).
_PAIRS = 1 << 14


def _margin_score(margin: float) -> int:
    """A margin's score: 1 below 0, 2 below 0.10, 3 below 0.25, 4 below 0.45, else 5."""
    return next((score for threshold, score in _MARGIN_THRESHOLDS if margin < threshold), 5)


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
    return _margin_score((mean_inter - mean_intra) / (mean_inter + _MARGIN_EPS))


def _distance_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per rep, the sum of the distances between the rows of a (d, reps, n_a)
    and b (d, reps, n_b), whose squares are summed column by column."""
    squares = np.zeros(a.shape[1:] + b.shape[2:])
    for a_c, b_c in zip(a, b):
        diff = a_c[:, :, None] - b_c[:, None, :]
        squares += np.square(diff, out=diff)
    return np.sqrt(squares, out=squares).reshape(squares.shape[0], -1).sum(axis=1)


class ReferenceCoherenceScorer:
    """Scores requests with the geometric margin proxy, in batches that may span nodes.

    The reps' distances are formed in a (d, reps, n, n) layout, so their sums
    over d and over pairs run in another order than in
    ``reference_coherence_score``, which stays the definition: a rep whose
    margin lies within ``band`` of a threshold is rescored by it.

    The band. Let u = 2^-53, gamma_k = k·u / (1 - k·u), tau = sqrt(d·2^-1074)
    and eps = _MARGIN_EPS. Both ways form the same squared differences (one
    subtraction, one square) and differ only in the order of their sums. A sum
    of k non-negative terms, in any order, lies within gamma_(k-1) of its exact
    value, relative; a square that underflows adds at most 2^-1075, which the
    square root turns into at most tau. So a distance lies within gamma_(d+3)
    of the exact one, relative, plus tau, and a mean of N of them, summed in any
    order and divided by N, within gamma_(N+d+3), plus 2·tau. Let g = gamma_K,
    K = max(n_in·n_out, n_in²) + d + 8, which covers both means, and E and A the
    computed inter- and intra-set means. The numerator's subtraction, the
    denominator's addition and the division add three roundings, so a margin
    lies within (2g + 3u)·(E + A) / (E + eps) + 4·tau / (E + eps) of the exact
    margin to first order. 3·(g + 2u) in place of 2g + 3u covers the second
    order and E, A in place of the exact means; tau moves the denominator by
    under 2·tau/eps relative, far below u. Two margins so placed differ by at
    most band = (8·(g + 2u)·(E + A) + 8·tau) / (E + eps). A rep whose margin
    lies farther than band from every threshold gets the score the reference
    gives; a NaN margin, from overflow or an empty sample, is rescored.
    """

    def score(self, requests: list[CoherenceRequest]) -> list[int]:
        if not requests:
            return []
        if len({(r.in_points.shape, r.out_points.shape) for r in requests}) > 1:
            raise ValueError("requests must share their sample shapes")
        n_in, d = requests[0].in_points.shape
        n_out = requests[0].out_points.shape[0]
        u, k = 2.0**-53, max(n_in * n_out, n_in * n_in) + d + 8
        g = k * u / (1.0 - k * u)
        tau = np.sqrt(d * np.finfo(np.float64).smallest_subnormal)
        step = max(1, _PAIRS // max(n_in * max(n_in, n_out), 1))
        scores = []
        for s in range(0, len(requests), step):
            batch = requests[s : s + step]
            a = np.stack([np.asarray(r.in_points, dtype=np.float64) for r in batch]).transpose(2, 0, 1)
            b = np.stack([np.asarray(r.out_points, dtype=np.float64) for r in batch]).transpose(2, 0, 1)
            with np.errstate(all="ignore"):
                inter = _distance_sums(a, b) / (n_in * n_out)
                intra = _distance_sums(a, a) / max(n_in * (n_in - 1), 1)
                margin = (inter - intra) / (inter + _MARGIN_EPS)
                band = (8.0 * (g + 2.0 * u) * (inter + intra) + 8.0 * tau) / (inter + _MARGIN_EPS)
                certain = np.all([np.abs(margin - t) > band for t, _ in _MARGIN_THRESHOLDS], axis=0)
            for req, m, ok in zip(batch, margin.tolist(), certain.tolist()):
                scores.append(_margin_score(m) if ok else reference_coherence_score(req.in_points, req.out_points))
        return scores


class ConstantCoherenceScorer:
    """Returns a fixed score; useful as a degenerate control."""

    def __init__(self, value: int = 3):
        if value not in (1, 2, 3, 4, 5):
            raise ValueError("constant score must be in 1..5")
        self.value = value

    def score(self, requests: list[CoherenceRequest]) -> list[int]:
        return [self.value] * len(requests)


class PendingExternalScores(RuntimeError):
    """Raised when requests were written and responses are not yet present."""


class ExternalCoherenceScorer:
    """Batch file exchange with an outside rater.

    ``score`` writes a pass's requests, one ``CoherenceRequest.document`` a
    line, the same bytes on every rerun of the same inputs. It then raises
    ``PendingExternalScores`` or reads the responses, {task_id, coherence} a
    line. A task id hashes the rest of its request line, so a responses file
    rated on other texts or another prompt lacks the current ids and is refused.
    """

    def __init__(self, requests_path, responses_path):
        self.requests_path = requests_path
        self.responses_path = responses_path

    def _load_responses(self) -> dict[str, int]:
        """task_id -> score; a bad line raises ValueError naming the file and the line's number."""
        responses: dict[str, int] = {}
        for line_no, raw in enumerate(Path(self.responses_path).read_bytes().splitlines(), start=1):
            where = f"{self.responses_path}: response line {line_no}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{where}: not valid UTF-8 ({exc.reason})") from None
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

    def score(self, requests: list[CoherenceRequest]) -> list[int]:
        with open(self.requests_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(req.document, ensure_ascii=False) + "\n" for req in requests)
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
        return [responses[r.document["task_id"]] for r in requests]


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
    """Sample one rep: n_in rows from the node, n_out from its complement.

    The node's member rows must strictly ascend within [0, n_points), as
    ``ClusterTree.from_json`` and ``recursive_cluster`` ensure. The complement
    draw picks complement positions j, as a draw over the complement's array
    would, and maps them to rows: the j-th non-member row is j plus the count
    of members m_i with m_i - i <= j."""
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
    j = np.sort(rng.choice(n_total - members.size, size=n_out, replace=False))
    out_rows = j + np.searchsorted(members - np.arange(members.size), j, side="right")
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
    an earlier pass is rescored from scratch. Each node with at least n_in
    members and n_out rows outside gets ``reps`` requests, sampled on
    ``workers`` threads; one ``scorer.score`` call takes them all (none if
    there are none), and each node keeps its slice of ``reps`` scores. One
    walk down the levels then tests each node at level >= 2 against its
    direct parent: it merges if it fails or its parent merged, and its
    members revert to the parent. Nodes too small to sample, or whose
    parent is, are auto-merged and counted in ``n_auto_merged``.
    """
    for name, value in (("alpha", alpha), ("reps", reps), ("n_in", n_in), ("n_out", n_out)):
        check_range(name, value)
    n_points = tree.n_points
    if corpus.embeddings is None or corpus.embeddings.n != n_points:
        raise ValueError("corpus embeddings must cover exactly the clustered rows")

    topic_nodes = {
        nid: TopicNode(node.node_id, node.level, node.parent, node.member_rows, node.params)
        for nid, node in tree.nodes.items()
    }

    scoreable = [
        node for _, node in sorted(topic_nodes.items())
        if node.member_rows.size >= n_in and n_points - node.member_rows.size >= n_out
    ]

    def sample(node: TopicNode) -> list[CoherenceRequest]:
        return [build_request(node, corpus, rep, n_in, n_out, seed) for rep in range(reps)]

    requests = [req for node_requests in parallel_map(sample, scoreable, workers=workers) for req in node_requests]
    scores = [int(score) for score in scorer.score(requests)] if requests else []
    if len(scores) != len(requests):
        raise ValueError(f"the scorer returned {len(scores)} score(s) for {len(requests)} request(s)")
    for i, node in enumerate(scoreable):
        node.coherence_scores = scores[i * reps : (i + 1) * reps]

    n_auto_merged = 0
    for node in sorted(topic_nodes.values(), key=lambda n: n.level):
        parent = topic_nodes.get(node.parent)
        if parent is None:
            continue
        if node.level < 2:
            node.merged = parent.merged
        elif node.coherence_scores is None or parent.coherence_scores is None:
            n_auto_merged += 1
            node.merged = True
        else:
            fails = test_subcluster(node.coherence_scores, parent.coherence_scores, alpha) == MERGE
            node.merged = fails or parent.merged

    for node in topic_nodes.values():
        tox = corpus.posts.toxicity[corpus.post_of_row[node.member_rows]]
        tox = tox[~np.isnan(tox)]
        node.mean_toxicity = float(tox.mean()) if tox.size else None

    return TopicTree(
        nodes=topic_nodes,
        n_points=n_points,
        params=tree.params,
        n_outliers=int(tree.outlier_rows().size),
        alpha=alpha,
        seed=seed,
        n_auto_merged=n_auto_merged,
    )


def level_counts(tree: TopicTree) -> dict[int, int]:
    """Surviving (unmerged) node count per level."""
    return dict(sorted(Counter(node.level for node in tree.surviving()).items()))
