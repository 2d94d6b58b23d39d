"""Output checks, computed apart from toxtraj.

Every check reads the pipeline's outputs with this file's own parsers of
NDJSON, EMB1 and TRJ1 and recomputes what the output must be with numpy and
scipy, or tests a property the method must have. None compares against a
stored copy of earlier outputs. Each check returns a list of problems; an
empty list means it passed.
"""
from __future__ import annotations

import hashlib
import json
import struct
from collections import defaultdict
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.spatial.distance import pdist, squareform

NEAR = 1e-9  # p-values this close to alpha are reported, not judged
TIE = 1e-12  # similarity gaps this small leave a kNN vote ambiguous
PAIRS = {"increasing": ("Increasing", "IncreasingRef"), "decreasing": ("Decreasing", "DecreasingRef")}


def read_emb(path) -> tuple[list[str], np.ndarray]:
    """EMB1: magic, u32 n, u32 d, n*d float32 LE; ids in a ``.ids`` sidecar."""
    data = Path(path).read_bytes()
    if data[:4] != b"EMB1":
        raise ValueError(f"{path}: bad magic")
    n, d = struct.unpack_from("<II", data, 4)
    values = np.frombuffer(data, dtype="<f4", count=n * d, offset=12).reshape(n, d).astype(np.float64)
    ids = Path(str(path) + ".ids").read_text(encoding="utf-8").splitlines()
    if len(ids) != n or len(data) != 12 + 4 * n * d:
        raise ValueError(f"{path}: size does not match header")
    return ids, values


def read_traj(path) -> tuple[list[str], np.ndarray]:
    """TRJ1: magic, u32 n, T, k; per user a u32-prefixed id and T*k float64 LE."""
    data = Path(path).read_bytes()
    if data[:4] != b"TRJ1":
        raise ValueError(f"{path}: bad magic")
    n, t_steps, k = struct.unpack_from("<III", data, 4)
    pos = 16
    ids = []
    paths = np.empty((n, t_steps, k))
    for i in range(n):
        (length,) = struct.unpack_from("<I", data, pos)
        ids.append(data[pos + 4 : pos + 4 + length].decode("utf-8"))
        pos += 4 + length
        paths[i] = np.frombuffer(data, dtype="<f8", count=t_steps * k, offset=pos).reshape(t_steps, k)
        pos += 8 * t_steps * k
    if pos != len(data):
        raise ValueError(f"{path}: size does not match header")
    return ids, paths


def read_posts(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Outputs:
    """Lazily parsed inputs, planted facts and outputs of one round."""

    def __init__(self, in_dir, out_dir):
        self.in_dir = Path(in_dir)
        self.out_dir = Path(out_dir)
        self.facts = json.loads((self.in_dir / "facts.json").read_text())
        self.report: dict[str, float] = {}  # counts the checks report, not judge

    def load(self, name):
        return json.loads((self.out_dir / name).read_text())

    @cached_property
    def posts_by_user(self) -> dict[str, list[dict]]:
        users = defaultdict(list)
        for post in read_posts(self.out_dir / "corpus" / "posts.ndjson"):
            users[post["user_id"]].append(post)
        return dict(users)

    @cached_property
    def embeddings(self) -> tuple[dict[str, int], np.ndarray]:
        """The vectors the trajectories and kNN were built on, by post id."""
        ids, values = read_emb(self.out_dir / self.facts["embeddings"])
        return {pid: row for row, pid in enumerate(ids)}, values

    @cached_property
    def traj(self) -> tuple[list[str], np.ndarray]:
        return read_traj(self.out_dir / "traj.bin")

    @cached_property
    def groups(self) -> dict:
        return self.load("groups.json")

    def members(self, group: str) -> list[str]:
        doc = self.groups
        if group == "IncreasingRef":
            return list(doc["reference_increasing"])
        if group == "DecreasingRef":
            return list(doc["reference_decreasing"])
        return sorted(a["user_id"] for a in doc["assignments"] if a["group"] == group)

    def group_vectors(self, group: str, week_len: int | None) -> np.ndarray:
        ids, paths = self.traj
        index = {u: i for i, u in enumerate(ids)}
        rows = [paths[index[u]] for u in self.members(group) if u in index]
        if week_len:
            rows = [weekly(r, week_len) for r in rows]
        return np.asarray([r.reshape(-1) for r in rows])


def weekly(daily: np.ndarray, week_len: int) -> np.ndarray:
    n_weeks = daily.shape[0] // week_len
    return daily[: n_weeks * week_len].reshape(n_weeks, week_len, daily.shape[1]).mean(axis=1)


def adjusted_rand(a: np.ndarray, b: np.ndarray) -> float:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)
    pairs = lambda x: (x * (x - 1) / 2).sum()  # noqa: E731
    cells, rows, cols, total = pairs(table), pairs(table.sum(1)), pairs(table.sum(0)), pairs(np.array([a.size]))
    expected = rows * cols / total
    top = (rows + cols) / 2
    return 1.0 if top == expected else float((cells - expected) / (top - expected))


# ---------------------------------------------------------------------------
# Checks


def check_tree_nesting(o: Outputs) -> list[str]:
    """Children lie inside their parent; siblings are disjoint."""
    problems = []
    nodes = {n["node_id"]: n for n in o.load("tree.json")["nodes"]}
    rows = {nid: np.asarray(n["member_rows"], dtype=np.int64) for nid, n in nodes.items()}
    siblings = defaultdict(list)
    for nid, node in nodes.items():
        r = rows[nid]
        if r.size != node["member_count"] or np.unique(r).size != r.size:
            problems.append(f"node {nid}: member rows are not a set of member_count rows")
        parent = node["parent"]
        siblings[parent].append(nid)
        if parent is None:
            if node["level"] != 1:
                problems.append(f"root node {nid} is at level {node['level']}")
            continue
        if parent not in nodes or node["level"] != nodes[parent]["level"] + 1:
            problems.append(f"node {nid}: parent {parent} missing or not one level up")
        elif not np.isin(r, rows[parent]).all():
            problems.append(f"node {nid} is not inside its parent {parent}")
    for parent, kids in siblings.items():
        joined = np.concatenate([rows[k] for k in kids])
        if np.unique(joined).size != joined.size:
            problems.append(f"children of {parent} overlap")
    return problems


def check_level1_partition(o: Outputs) -> list[str]:
    """Level 1 matches the planted topics, each post labelled by its nearest
    planted centre."""
    in_ids, values = read_emb(o.in_dir / "embeddings.emb")
    centres = np.asarray(o.facts["centres"])
    nearest = ((values[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    truth = np.asarray(o.facts["centre_topic"])[nearest]
    tree = o.load("tree.json")
    cluster_ids, _ = read_emb(o.out_dir / "reduced.emb")
    labels_by_id = {}
    for node in tree["nodes"]:
        if node["parent"] is None:
            for r in node["member_rows"]:
                labels_by_id[cluster_ids[r]] = node["node_id"]
    labels = np.asarray([labels_by_id.get(pid, -1) for pid in in_ids])
    ari = adjusted_rand(truth, labels)
    o.report["level1_ari"] = ari
    if ari < 0.99:
        return [f"level-1 partition has ARI {ari:.4f} against the planted topics (< 0.99)"]
    return []


def check_coherence_gate(o: Outputs) -> list[str]:
    """Each keep/merge decision is scipy's one-sided asymptotic Mann-Whitney
    p < alpha on the persisted scores; merged nodes take their subtree along."""
    f = o.facts
    doc = o.load("topics.json")
    nodes = {n["node_id"]: n for n in doc["nodes"]}
    problems = []
    for nid, node in nodes.items():
        sampleable = node["member_count"] >= f["n_in"] and doc["n_points"] - node["member_count"] >= f["n_out"]
        scores = node["coherence_scores"]
        if sampleable != (scores is not None):
            problems.append(f"node {nid}: scored={scores is not None}, sampleable={sampleable}")
        elif scores is not None and (len(scores) != f["reps"] or not set(scores) <= {1, 2, 3, 4, 5}):
            problems.append(f"node {nid}: scores are not {f['reps']} values in 1..5")
    expected: dict[int, bool | None] = {}  # None: decided by a p within NEAR of alpha

    def merged(nid):
        if nid not in expected:
            node = nodes[nid]
            if node["parent"] is None:
                expected[nid] = False
            else:
                up = merged(node["parent"])
                child, parent = node["coherence_scores"], nodes[node["parent"]]["coherence_scores"]
                if child is None or parent is None:
                    keep = False
                else:
                    with np.errstate(all="ignore"):
                        p = stats.mannwhitneyu(child, parent, alternative="greater", method="asymptotic").pvalue
                    keep = None if abs(p - f["alpha"]) < NEAR else bool(p < f["alpha"])
                if up is True or keep is False:
                    expected[nid] = True
                elif up is None or keep is None:
                    expected[nid] = None
                else:
                    expected[nid] = False
        return expected[nid]

    near = 0
    for nid, node in nodes.items():
        want = merged(nid)
        if want is None:
            near += 1
        elif want != node["merged"]:
            problems.append(f"node {nid}: merged={node['merged']}, expected {want}")
    o.report["coherence_near_alpha"] = near
    return problems


def check_groups(o: Outputs) -> list[str]:
    """Groups follow scipy's linregress with strict p < alpha; references are
    the NoTrend users with the nearest mean toxicity."""
    f = o.facts
    alpha = f["alpha"]
    doc = o.groups
    assigned = {a["user_id"]: a["group"] for a in doc["assignments"]}
    problems = []
    active = sorted(u for u, posts in o.posts_by_user.items() if len(posts) >= f["min_posts"])
    if sorted(assigned) != active:
        problems.append(f"{len(assigned)} users grouped, {len(active)} active")
    near = 0
    means = {}
    for user in active:
        posts = o.posts_by_user[user]
        x = np.array([p["timestamp"] for p in posts], dtype=np.float64)
        y = np.array([p["toxicity"] for p in posts], dtype=np.float64)
        means[user] = float(y.mean())
        fit = stats.linregress(x, y)
        if abs(fit.pvalue - alpha) < NEAR:
            near += 1
            continue
        want = "NoTrend"
        if fit.pvalue < alpha:
            want = "Increasing" if fit.slope > 0 else "Decreasing"
        if assigned.get(user) != want:
            problems.append(f"user {user}: group {assigned.get(user)}, expected {want} (p={fit.pvalue:.3g})")
    o.report["groups_near_alpha"] = near
    if near or problems:
        return problems
    pool = [u for u in active if assigned[u] == "NoTrend"]
    for group, key in (("Increasing", "reference_increasing"), ("Decreasing", "reference_decreasing")):
        trend = [u for u in active if assigned[u] == group]
        if not trend or len(pool) < len(trend):
            continue
        target = float(np.mean([means[u] for u in trend]))
        want = sorted(pool, key=lambda u: (abs(means[u] - target), u))[: len(trend)]
        if doc[key] != want:
            problems.append(f"{key} is not the {len(trend)} NoTrend users nearest mean {target:.3f}")
    return problems


def check_trajectories(o: Outputs) -> list[str]:
    """traj.bin is np.interp of each user's posts onto the daily grid."""
    window = o.load("corpus/window.json")
    row_of, values = o.embeddings
    ids, paths = o.traj
    problems = []
    if ids != sorted(o.posts_by_user):
        problems.append("traj.bin users are not the corpus users in order")
    grid = np.arange(window["n_daily_grid"]) / (window["n_daily_grid"] - 1)
    worst = 0.0
    for i, user in enumerate(ids):
        posts = o.posts_by_user.get(user, [])
        ts = np.array([p["timestamp"] for p in posts], dtype=np.int64)
        emb = values[[row_of[p["post_id"]] for p in posts]]
        uniq, inverse = np.unique(ts, return_inverse=True)
        sums = np.zeros((uniq.size, emb.shape[1]))
        np.add.at(sums, inverse, emb)
        points = sums / np.bincount(inverse)[:, None]
        tau = (uniq - window["t0"]) / (window["t_end"] - window["t0"])
        want = np.column_stack([np.interp(grid, tau, points[:, c]) for c in range(points.shape[1])])
        if want.shape != paths[i].shape:
            problems.append(f"user {user}: trajectory shape {paths[i].shape}, expected {want.shape}")
            continue
        worst = max(worst, float(np.abs(want - paths[i]).max()))
    if worst > 1e-12:
        problems.append(f"trajectories differ from np.interp by up to {worst:.3g}")
    return problems


def anderson_f(a: np.ndarray, b: np.ndarray) -> float:
    """Pseudo-F from the squared-distance matrix (Anderson 2001), two groups."""
    d2 = squareform(pdist(np.vstack([a, b]), "sqeuclidean"))
    n_a, n = a.shape[0], a.shape[0] + b.shape[0]
    ss_total = d2.sum() / 2 / n
    ss_within = d2[:n_a, :n_a].sum() / 2 / n_a + d2[n_a:, n_a:].sum() / 2 / (n - n_a)
    return (ss_total - ss_within) / (ss_within / (n - 2))


def check_permanova(o: Outputs) -> list[str]:
    """Pseudo-F equals Anderson's formula; p * (n_perm + 1) is an integer."""
    week_len = o.load("corpus/window.json")["week_len_days"]
    rows = o.load("permanova.json")["rows"]
    problems = []
    if len(rows) != 4:
        problems.append(f"{len(rows)} PERMANOVA rows, expected 4")
    for row in rows:
        label = f"{row['pair']}/{row['freq']}"
        if "skipped" in row:
            problems.append(f"{label}: skipped ({row['skipped']})")
            continue
        trend, ref = PAIRS[row["pair"]]
        wl = week_len if row["freq"] == "weekly" else None
        f_want = anderson_f(o.group_vectors(trend, wl), o.group_vectors(ref, wl))
        if not abs(row["pseudo_f"] - f_want) <= 1e-9 * abs(f_want):
            problems.append(f"{label}: pseudo-F {row['pseudo_f']!r}, Anderson's formula gives {f_want!r}")
        n_perm = row["n_permutations"]
        count = row["p_value"] * (n_perm + 1)
        if n_perm != o.facts["n_permutations"] or abs(count - round(count)) > 1e-6 or round(count) < 1:
            problems.append(f"{label}: p={row['p_value']!r} is not a count over {n_perm} + 1")
    return problems


def knn_vote(unit: np.ndarray, labels: np.ndarray, query: np.ndarray, k: int):
    """Brute-force cosine vote: top k by (similarity desc, index asc), then
    most votes, higher summed similarity, smaller topic id. Returns None
    when a similarity gap below TIE decides the outcome."""
    sims = unit @ (query / np.linalg.norm(query))
    kth = np.partition(-sims, k)[: k + 1]
    kth.sort()
    if 0 < kth[k] - kth[k - 1] <= TIE:
        return None
    top = np.flatnonzero(-sims <= kth[k - 1])
    top = top[np.lexsort((top, -sims[top]))][:k]
    keys = []
    for label in np.unique(labels[top]):
        mask = labels[top] == label
        keys.append((int(mask.sum()), float(sims[top][mask].sum()), -int(label)))
    keys.sort(reverse=True)
    if len(keys) > 1 and keys[0][0] == keys[1][0] and 0 < keys[0][1] - keys[1][1] <= TIE:
        return None
    return -keys[0][2]


def check_knn_labels(o: Outputs) -> list[str]:
    """Every labelled step equals a brute-force cosine kNN vote, trained on
    the rows whose deepest surviving topic is a leaf."""
    topics = o.load("topics.json")
    labeled = o.load("labeled.json")
    k = o.facts["k"]
    surviving = [n for n in topics["nodes"] if not n["merged"]]
    parents = {n["parent"] for n in surviving}
    leaves = sorted(n["node_id"] for n in surviving if n["node_id"] not in parents)
    deepest = np.full(topics["n_points"], -1)
    depth = np.zeros(topics["n_points"], dtype=np.int64)
    for node in surviving:
        rows = np.asarray(node["member_rows"], dtype=np.int64)
        deeper = rows[depth[rows] < node["level"]]
        deepest[deeper] = node["node_id"]
        depth[deeper] = node["level"]
    train = np.flatnonzero(np.isin(deepest, leaves))
    _, values = o.embeddings
    points = values[train]
    unit = points / np.linalg.norm(points, axis=1, keepdims=True)
    labels = deepest[train]
    problems = []
    if labeled["topics"] != leaves or labeled["k"] != k:
        problems.append("labeled.json topics or k differ from the surviving leaves and k")
    week_len = o.load("corpus/window.json")["week_len_days"]
    ids, paths = o.traj
    index = {u: i for i, u in enumerate(ids)}
    ambiguous = 0
    for group, doc in labeled["groups"].items():
        members = [u for u in o.members(group) if u in index]
        if doc["n_users"] != len(members):
            problems.append(f"{group}: n_users {doc['n_users']}, expected {len(members)}")
        daily = np.stack([paths[index[u]] for u in members]).mean(axis=0)
        for freq, traj in (("daily", daily), ("weekly", weekly(daily, week_len))):
            seq = doc[freq]["sequence"]
            if len(seq) != traj.shape[0]:
                problems.append(f"{group}/{freq}: {len(seq)} steps, expected {traj.shape[0]}")
                continue
            for step, (row, got) in enumerate(zip(traj, seq)):
                want = None if np.linalg.norm(row) == 0 else knn_vote(unit, labels, row, k)
                if want is None and np.linalg.norm(row) != 0:
                    ambiguous += 1
                elif want != got:
                    problems.append(f"{group}/{freq} step {step}: label {got}, brute force gives {want}")
            runs = []
            for step, topic in enumerate(seq):
                if runs and runs[-1][0] == topic:
                    runs[-1][2] = step
                else:
                    runs.append([topic, step, step])
            if doc[freq]["runs"] != runs:
                problems.append(f"{group}/{freq}: runs do not collapse the sequence")
    o.report["knn_ambiguous"] = ambiguous
    return problems


def check_drift_switch(o: Outputs) -> list[str]:
    """Increasing's weekly runs switch once, start topic to target topic, near
    the planted week; the reference groups stay on the start topic; the
    Increasing pair's p sits at its floor 1/(n_perm + 1)."""
    f = o.facts
    labeled = o.load("labeled.json")["groups"]
    problems = []
    runs = [r[0] for r in labeled["Increasing"]["weekly"]["runs"]]
    if runs != [f["start_node"], f["target_node"]]:
        problems.append(f"Increasing weekly topics run {runs}, expected [start, target]")
    else:
        switch = labeled["Increasing"]["weekly"]["runs"][1][1]
        if abs(switch - f["switch_week"]) > 3:
            problems.append(f"Increasing switches at week {switch}, planted {f['switch_week']}")
    for group in ("IncreasingRef", "DecreasingRef"):
        if set(labeled[group]["weekly"]["sequence"]) != {f["start_node"]}:
            problems.append(f"{group} leaves the start topic")
    for row in o.load("permanova.json")["rows"]:
        if row["pair"] == "increasing" and row.get("p_value") != 1 / (row.get("n_permutations", 0) + 1):
            problems.append(f"increasing/{row['freq']}: p={row.get('p_value')} is not at its floor")
    return problems


CLUSTER_CHECKS = [
    check_tree_nesting,
    check_level1_partition,
    check_coherence_gate,
    check_groups,
    check_trajectories,
    check_permanova,
    check_knn_labels,
]
DRIFT_CHECKS = [
    check_coherence_gate,
    check_groups,
    check_trajectories,
    check_permanova,
    check_knn_labels,
    check_drift_switch,
]


def run_checks(in_dir, out_dir) -> tuple[dict[str, list[str]], dict]:
    """Every check of the workload; returns problems by check and the facts
    the checks report: near-alpha and ambiguous counts, and the ARI."""
    o = Outputs(in_dir, out_dir)
    checks = DRIFT_CHECKS if "start_node" in o.facts else CLUSTER_CHECKS
    results = {}
    for check in checks:
        try:
            results[check.__name__] = check(o)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            results[check.__name__] = [f"could not check: {type(exc).__name__}: {exc}"]
    return results, o.report


def hash_tree(out_dir) -> dict[str, str]:
    """sha256 of every output file except the manifest, which holds timings."""
    out = Path(out_dir)
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
