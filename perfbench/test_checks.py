"""Each output check passes on real outputs and fails on a corrupted copy.

    python3 -m pytest -q perfbench/test_checks.py

The outputs come from one timed round of ``subtopics-3k`` and one of a
200-user ``drift-130k``, run exactly as the benchmark runs them.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import struct
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _round(tmp_path_factory, workload, seed=3):
    base = tmp_path_factory.mktemp(workload.name)
    in_dir = base / "inputs"
    workloads.setup(workload, seed, in_dir)
    result = run.run_round(
        lambda out_dir: workloads.operations(workload, in_dir, out_dir, seed), base / "round0", False
    )
    assert all(op["ok"] for op in result["ops"]), result["stderr"]
    return in_dir, result["out_dir"]


@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    return _round(tmp_path_factory, workloads.WORKLOADS["subtopics-3k"])


@pytest.fixture(scope="module")
def drifted(tmp_path_factory):
    small = dataclasses.replace(workloads.WORKLOADS["drift-130k"], n_users=200)
    return _round(tmp_path_factory, small)


def corrupted(run_dirs, tmp_path, name, edit):
    """A copy of the outputs with ``edit`` applied to one file."""
    in_dir, out_dir = run_dirs
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    path = copy / name
    if name.endswith(".json"):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    else:
        data = bytearray(path.read_bytes())
        edit(data)
        path.write_bytes(bytes(data))
    return checks.Outputs(in_dir, copy)


def test_clean_outputs_pass(clustered, drifted):
    for in_dir, out_dir in (clustered, drifted):
        results, _ = checks.run_checks(in_dir, out_dir)
        assert results and all(not found for found in results.values()), results


def test_tree_nesting_bites(clustered, tmp_path):
    def edit(doc):
        child = next(n for n in doc["nodes"] if n["parent"] is not None)
        stranger = next(n for n in doc["nodes"] if n["parent"] is None and n["node_id"] != child["parent"])
        child["member_rows"] = sorted(child["member_rows"] + stranger["member_rows"][:1])
        child["member_count"] += 1

    assert checks.check_tree_nesting(corrupted(clustered, tmp_path, "tree.json", edit))


def test_level1_partition_bites(clustered, tmp_path):
    def edit(doc):
        a, b = [n for n in doc["nodes"] if n["parent"] is None][:2]
        moved = a["member_rows"][: len(a["member_rows"]) // 2]
        a["member_rows"] = a["member_rows"][len(moved):]
        b["member_rows"] = sorted(b["member_rows"] + moved)

    assert checks.check_level1_partition(corrupted(clustered, tmp_path, "tree.json", edit))


def test_coherence_gate_bites(clustered, tmp_path):
    def edit(doc):
        node = next(n for n in doc["nodes"] if n["level"] == 2)
        node["merged"] = not node["merged"]

    assert checks.check_coherence_gate(corrupted(clustered, tmp_path, "topics.json", edit))


def test_groups_bites(clustered, tmp_path):
    def edit(doc):
        user = next(a for a in doc["assignments"] if a["group"] == "NoTrend")
        user["group"] = "Increasing"

    assert checks.check_groups(corrupted(clustered, tmp_path, "groups.json", edit))


def test_trajectories_bites(clustered, tmp_path):
    def edit(data):
        (id_len,) = struct.unpack_from("<I", data, 16)
        offset = 20 + id_len + 8 * 100  # one coordinate of the first user
        (value,) = struct.unpack_from("<d", data, offset)
        struct.pack_into("<d", data, offset, value + 1e-9)

    assert checks.check_trajectories(corrupted(clustered, tmp_path, "traj.bin", edit))


def test_permanova_f_bites(clustered, tmp_path):
    def edit(doc):
        doc["rows"][0]["pseudo_f"] *= 1 + 1e-8

    assert checks.check_permanova(corrupted(clustered, tmp_path, "permanova.json", edit))


def test_permanova_p_bites(clustered, tmp_path):
    def edit(doc):
        doc["rows"][1]["p_value"] += 1e-5

    assert checks.check_permanova(corrupted(clustered, tmp_path, "permanova.json", edit))


def test_knn_labels_bite(clustered, tmp_path):
    def edit(doc):
        seq = doc["groups"]["Increasing"]["daily"]["sequence"]
        seq[50] = next(t for t in doc["topics"] if t != seq[50])

    assert checks.check_knn_labels(corrupted(clustered, tmp_path, "labeled.json", edit))


def test_drift_switch_bites_on_reference(drifted, tmp_path):
    def edit(doc):
        doc["groups"]["IncreasingRef"]["weekly"]["sequence"][20] = 1

    assert checks.check_drift_switch(corrupted(drifted, tmp_path, "labeled.json", edit))


def test_drift_switch_bites_on_increasing(drifted, tmp_path):
    def edit(doc):
        weekly = doc["groups"]["Increasing"]["weekly"]
        weekly["runs"] = [[0, 0, len(weekly["sequence"]) - 1]]

    assert checks.check_drift_switch(corrupted(drifted, tmp_path, "labeled.json", edit))


def test_drift_p_floor_bites(drifted, tmp_path):
    def edit(doc):
        row = next(r for r in doc["rows"] if r["pair"] == "increasing")
        row["p_value"] = 2 / (row["n_permutations"] + 1)

    assert checks.check_drift_switch(corrupted(drifted, tmp_path, "permanova.json", edit))


def test_hashes_see_one_changed_byte(clustered, tmp_path):
    def edit(data):
        data[-1] ^= 1

    o = corrupted(clustered, tmp_path, "reduced.emb", edit)
    assert checks.hash_tree(o.out_dir) != checks.hash_tree(clustered[1])
