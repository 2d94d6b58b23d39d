import copy
import json
import os
import re
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import weekly_group_toxicity
from toxtraj.cli import (
    PIPELINE_DEFAULTS,
    main,
    render_report,
    run_pipeline,
    stage_seed,
)
import toxtraj.cli as cli_mod
import toxtraj.corpus as corpus_mod
from toxtraj.corpus import DEFAULT_T0, DEFAULT_T_END, write_embeddings, write_posts
from toxtraj.corpus import StudyWindow, read_embeddings
from toxtraj.coherence import merge_pass
from toxtraj.hdbscan import HdbscanParams, recursive_cluster
from toxtraj.knn import fit_knn
from toxtraj.permanova import permanova_test
from toxtraj.reduce import fit_on_sample
from toxtraj.synth import (
    ScenarioConfig,
    TrendMix,
    generate_user_streams,
    three_by_two_scenario,
)
from toxtraj.trajectory import build_groups, group_average_trajectory, read_trajectories, write_trajectories
from toxtraj.util import sha256_file


def small_scenario(tmp_path, seed=7, n_users=40):
    scenario = ScenarioConfig(
        n_users=n_users,
        posts_per_user=(50, 65),
        hierarchy=three_by_two_scenario(n_per_child=120),
        trend_mix=TrendMix(increasing=0.25, decreasing=0.25, flat=0.5, drift=30.0, noise_sd=4.0),
        seed=seed,
    )
    path = tmp_path / "scenario.json"
    scenario.save(path)
    return path


def pipeline_config(tmp_path, out_name="run", workers=1, perms=99):
    return {
        "seed": 17,
        "out_dir": str(tmp_path / out_name),
        "workers": workers,
        "stages": {
            "synth": {"scenario": str(tmp_path / "scenario.json")},
            "reduce": {"dim": 5},
            "cluster": {"min_cluster_size": 60, "min_samples": 15},
            "merge": {"scorer": "reference"},
            "groups": {"min_posts": 50},
            "permanova": {"n_permutations": perms},
        },
    }


OUTPUT_FILES = [
    "corpus/posts.ndjson",
    "corpus/embeddings.emb",
    "reduced.emb",
    "tree.json",
    "topics.json",
    "groups.json",
    "traj.bin",
    "permanova.json",
    "labeled.json",
]


class TestPipeline:
    def test_full_synthetic_run_all_stages_green(self, tmp_path):
        small_scenario(tmp_path)
        manifest = run_pipeline(pipeline_config(tmp_path))
        names = [s["name"] for s in manifest["stages"]]
        assert names == [
            "synth",
            "ingest",
            "reduce",
            "cluster",
            "merge",
            "groups",
            "trajectories",
            "permanova",
            "assign",
        ]
        out_dir = Path(manifest["out_dir"])
        for rel in OUTPUT_FILES:
            assert (out_dir / rel).exists(), rel
        assert (out_dir / "manifest.json").exists()
        for stage in manifest["stages"]:
            assert stage["output_hashes"], stage["name"]

    def test_rerun_byte_identical(self, tmp_path):
        small_scenario(tmp_path)
        run_pipeline(pipeline_config(tmp_path, out_name="run1"))
        run_pipeline(pipeline_config(tmp_path, out_name="run2"))
        for rel in OUTPUT_FILES:
            h1 = sha256_file(tmp_path / "run1" / rel)
            h2 = sha256_file(tmp_path / "run2" / rel)
            assert h1 == h2, rel

    def test_worker_counts_byte_identical(self, tmp_path):
        small_scenario(tmp_path)
        hashes = {}
        for workers in (1, 2, 8):
            manifest = run_pipeline(
                pipeline_config(tmp_path, out_name=f"run_w{workers}", workers=workers)
            )
            out_dir = Path(manifest["out_dir"])
            hashes[workers] = [sha256_file(out_dir / rel) for rel in OUTPUT_FILES]
        assert hashes[1] == hashes[2] == hashes[8]

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            (None, "worker", 2, "unknown config key 'worker'"),
            ("stages", "permanvoa", {"n_permutations": 9}, "unknown stage 'permanvoa'"),
            ("groups", "min_post", 500, "stage 'groups': unknown config key 'min_post'"),
            ("reduce", "external", True, "stage 'reduce': unknown config key 'external'"),
            ("permanova", "seed", 3, "stage 'permanova': unknown config key 'seed'"),
            ("merge", "workers", 2, "stage 'merge': unknown config key 'workers'"),
            ("merge", "embeddings", "x.emb", "stage 'merge': unknown config key 'embeddings'"),
        ],
    )
    def test_unknown_config_key_named_before_any_stage(self, tmp_path, section, key, value, named):
        config = pipeline_config(tmp_path, out_name="typo")
        if section is None:
            config[key] = value
        elif section == "stages":
            config["stages"][key] = value
        else:
            config["stages"].setdefault(section, {})[key] = value
        with pytest.raises(ValueError, match=f"^{named}$"):
            run_pipeline(config)
        assert not (tmp_path / "typo").exists()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1

    @pytest.mark.parametrize(
        "config, named",
        [
            ([], "the config must be a JSON object"),
            ({"stages": []}, "config key 'stages' must be a JSON object"),
            ({"stages": {"reduce": False}}, "stage 'reduce': config must be a JSON object"),
            ({"stages": {"groups": ["min_posts"]}}, "stage 'groups': config must be a JSON object"),
            ({"seed": "abc", "out_dir": "r"}, "config key 'seed' must be a JSON integer"),
            ({"seed": True}, "config key 'seed' must be a JSON integer"),
            ({"workers": "two"}, "config key 'workers' must be a JSON integer"),
            ({"workers": 2.0}, "config key 'workers' must be a JSON integer"),
            ({"out_dir": 3}, "config key 'out_dir' must be a JSON string"),
            ({"seed": -1}, "config key 'seed' must be at least 0, got -1"),
            ({"workers": 0}, "config key 'workers' must be at least 1, got 0"),
            ({"workers": -4}, "config key 'workers' must be at least 1, got -4"),
            ({"stages": {"cluster": {"enabled": "false"}}}, "stage 'cluster': config key 'enabled' must be a JSON boolean"),
            ({"stages": {"cluster": {"enabled": 0}}}, "stage 'cluster': config key 'enabled' must be a JSON boolean"),
            ({"stages": {"cluster": {"enabled": None}}}, "stage 'cluster': config key 'enabled' must be a JSON boolean"),
            ({"stages": {"permanova": {"freqs": "daily"}}},
             "stage 'permanova': config key 'freqs' must be a non-empty list of daily, weekly"),
            ({"stages": {"permanova": {"pairs": []}}},
             "stage 'permanova': config key 'pairs' must be a non-empty list of increasing, decreasing"),
            ({"stages": {"permanova": {"freqs": ["monthly"]}}},
             "stage 'permanova': config key 'freqs' must be a non-empty list of daily, weekly"),
            ({"stages": {"permanova": {"pairs": "both"}}},
             "stage 'permanova': config key 'pairs' must be a non-empty list of increasing, decreasing"),
        ],
        ids=["config-list", "stages-list", "stage-false", "stage-list", "seed-string", "seed-bool",
             "workers-string", "workers-float", "out-dir-number", "seed-negative", "workers-zero",
             "workers-negative", "enabled-string",
             "enabled-zero", "enabled-null", "freqs-string", "pairs-empty", "freqs-unknown", "pairs-both"],
    )
    def test_config_not_an_object_named_before_any_file(self, tmp_path, monkeypatch, capsys, config, named):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=f"^{named}$"):
            run_pipeline(config)
        Path("config.json").write_text(json.dumps(config))
        assert main(["run", "--config", "config.json"]) == 1
        assert capsys.readouterr().err == f"toxtraj run: error: {named}\n"
        assert os.listdir(tmp_path) == ["config.json"]

    def test_env_seed_not_an_integer_named_before_any_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOXTRAJ_SEED", "abc")
        with pytest.raises(ValueError, match="^TOXTRAJ_SEED must be an integer, not 'abc'$"):
            run_pipeline({"seed": 1, "out_dir": str(tmp_path / "r")})
        assert not (tmp_path / "r").exists()

    def test_env_seed_negative_named_before_any_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOXTRAJ_SEED", "-3")
        with pytest.raises(ValueError, match="^TOXTRAJ_SEED must be a non-negative integer, not '-3'$"):
            run_pipeline({"seed": 1, "out_dir": str(tmp_path / "r")})
        assert not (tmp_path / "r").exists()

    def test_permanova_names_listed(self, tmp_path):
        # A config lists the names it runs; the subcommand takes them as
        # words, and naming every one is the same as naming none.
        small_scenario(tmp_path)
        config = pipeline_config(tmp_path, out_name="lists", perms=19)
        config["stages"].update({name: {"enabled": False} for name in ("reduce", "cluster", "merge", "assign")})
        config["stages"]["permanova"]["freqs"] = ["weekly"]
        out_dir = Path(run_pipeline(config)["out_dir"])
        rows = json.loads((out_dir / "permanova.json").read_text())["rows"]
        assert [(row["pair"], row["freq"]) for row in rows] == [("increasing", "weekly"), ("decreasing", "weekly")]
        assert all("pseudo_f" in row for row in rows)
        argv = ["permanova", "--traj", str(out_dir / "traj.bin"), "--groups", str(out_dir / "groups.json"),
                "--corpus", str(out_dir / "corpus"), "--n-permutations", "19", "--seed", "3"]
        assert main([*argv, "--out", str(tmp_path / "all.json")]) == 0
        assert main([*argv, "--pairs", "increasing", "decreasing", "--out", str(tmp_path / "listed.json")]) == 0
        assert (tmp_path / "listed.json").read_bytes() == (tmp_path / "all.json").read_bytes()

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--pairs", "both"], "argument --pairs: invalid choice: 'both'"),
            (["--freqs", "monthly"], "argument --freqs: invalid choice: 'monthly'"),
            (["--pair", "increasing"], "unrecognized arguments: --pair increasing"),
            (["--freq", "weekly"], "unrecognized arguments: --freq weekly"),
            (["--perms", "19"], "unrecognized arguments: --perms 19"),
        ],
    )
    def test_permanova_flag_has_one_spelling(self, capsys, extra, named):
        with pytest.raises(SystemExit) as exit_info:
            main(["permanova", "--traj", "t.bin", "--groups", "g.json", *extra])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, key, value, named",
        [
            ("groups", "min_posts", "50", "must be a JSON integer"),
            ("groups", "alpha", "0.05", "must be a JSON number"),
            ("merge", "alpha", False, "must be a JSON number"),
            ("cluster", "max_depth", True, "must be a JSON integer"),
            ("permanova", "n_permutations", 99.5, "must be a JSON integer"),
            ("merge", "scorer", 3, "must be a JSON string"),
            ("permanova", "pairs", ["increasing", "increasing"], "names 'increasing' twice"),
            ("permanova", "freqs", ["weekly", "daily", "weekly"], "names 'weekly' twice"),
            ("cluster", "min_samples", "15", "must be a JSON integer"),
            ("cluster", "min_samples", True, "must be a JSON integer"),
            ("synth", "seed", 7.0, "must be a JSON integer"),
            ("ingest", "t0", [1], "is not valid (a time is an integer or a string, not [1])"),
            ("ingest", "t_end", False, "is not valid (a time is an integer or a string, not False)"),
            ("ingest", "t0", "bogus", "is not valid (Invalid isoformat string: 'bogus')"),
            ("merge", "scorer", "bogus", "is not valid (unknown scorer kind: 'bogus')"),
            ("merge", "scorer", "constant:9", "is not valid (constant score must be in 1..5)"),
            ("synth", "seed", -1, "must be at least 0, got -1"),
            ("reduce", "dim", -2, "must be at least 1, got -2"),
            ("reduce", "dim", 0, "must be at least 1, got 0"),
            ("reduce", "fraction", 2.0, "must be in (0, 1], got 2.0"),
            ("cluster", "min_cluster_size", 1, "must be at least 2, got 1"),
            ("cluster", "min_samples", 0, "must be at least 1, got 0"),
            ("cluster", "max_depth", 0, "must be at least 1, got 0"),
            ("merge", "reps", 0, "must be at least 1, got 0"),
            ("merge", "n_in", 0, "must be at least 1, got 0"),
            ("merge", "n_out", 0, "must be at least 1, got 0"),
            ("merge", "alpha", -1, "must be in (0, 1], got -1"),
            ("groups", "alpha", 5, "must be in (0, 1], got 5"),
            ("groups", "alpha", 0, "must be in (0, 1], got 0"),
            ("groups", "min_posts", -1, "must be at least 0, got -1"),
            ("permanova", "n_permutations", 0, "must be at least 1, got 0"),
            ("assign", "k", 0, "must be at least 1, got 0"),
        ],
    )
    def test_stage_value_named_before_any_file(self, tmp_path, monkeypatch, capsys, stage, key, value, named):
        # Synth and ingest run first, so a check inside the stage would come
        # after synth/, corpus/ and manifest.json were written.
        monkeypatch.chdir(tmp_path)
        small_scenario(tmp_path, n_users=6)
        config = pipeline_config(tmp_path, out_name="bad")
        config["stages"].setdefault(stage, {})[key] = value
        message = f"stage {stage!r}: config key {key!r} {named}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_pipeline(config)
        Path("config.json").write_text(json.dumps(config))
        assert main(["run", "--config", "config.json"]) == 1
        assert capsys.readouterr().err == f"toxtraj run: error: {message}\n"
        assert sorted(os.listdir(tmp_path)) == ["config.json", "scenario.json"]

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda: fit_on_sample(np.ones((10, 3)), output_dim=0), "dim must be at least 1, got 0"),
            (lambda: fit_on_sample(np.ones((10, 3)), fraction=2.0), "fraction must be in (0, 1], got 2.0"),
            (lambda: HdbscanParams(min_cluster_size=1, min_samples=1), "min_cluster_size must be at least 2, got 1"),
            (lambda: HdbscanParams(min_cluster_size=2, min_samples=0), "min_samples must be at least 1, got 0"),
            (lambda: recursive_cluster(np.ones((5, 2)), HdbscanParams(2, 1), max_depth=0), "max_depth must be at least 1, got 0"),
            (lambda: merge_pass(None, None, None, alpha=5), "alpha must be in (0, 1], got 5"),
            (lambda: merge_pass(None, None, None, reps=0), "reps must be at least 1, got 0"),
            (lambda: merge_pass(None, None, None, n_in=0), "n_in must be at least 1, got 0"),
            (lambda: merge_pass(None, None, None, n_out=0), "n_out must be at least 1, got 0"),
            (lambda: build_groups(None, alpha=0), "alpha must be in (0, 1], got 0"),
            (lambda: build_groups(None, min_posts=-1), "min_posts must be at least 0, got -1"),
            (lambda: permanova_test(np.ones((3, 2)), np.ones((3, 2)), n_permutations=0), "n_permutations must be at least 1, got 0"),
            (lambda: fit_knn(np.ones((3, 2)), [0, 0, 0], k=0), "k must be at least 1, got 0"),
        ],
        ids=["reduce-dim", "reduce-fraction", "cluster-min-cluster-size", "cluster-min-samples", "cluster-max-depth",
             "merge-alpha", "merge-reps", "merge-n-in", "merge-n-out", "groups-alpha", "groups-min-posts",
             "permanova-n-permutations", "assign-k"],
    )
    def test_library_entry_refuses_what_a_run_refuses(self, call, named):
        # Direct callers of the library meet the same table as a run, before any input is read.
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            call()

    def test_integer_taken_for_a_float_param(self, tmp_path):
        small_scenario(tmp_path, n_users=6)
        stages = {
            "synth": {"scenario": str(tmp_path / "scenario.json")},
            "groups": {"min_posts": 50, "alpha": 1},
        }
        for name in ("reduce", "cluster", "merge", "trajectories", "permanova", "assign"):
            stages[name] = {"enabled": False}
        manifest = run_pipeline({"seed": 1, "out_dir": str(tmp_path / "alpha"), "stages": stages})
        assert [s["name"] for s in manifest["stages"]] == ["synth", "ingest", "groups"]

    @pytest.mark.parametrize("flag, names", [("--pairs", ["decreasing", "decreasing"]), ("--freqs", ["daily", "weekly", "daily"])])
    def test_permanova_flag_repeat_named_before_any_test(self, tmp_path, capsys, flag, names):
        # Neither input file exists: the repeat is named before either is read.
        argv = ["permanova", "--traj", str(tmp_path / "t.bin"), "--groups", str(tmp_path / "g.json"), flag, *names]
        assert main([*argv, "--out", str(tmp_path / "p.json")]) == 1
        assert capsys.readouterr().err == f"toxtraj permanova: error: {flag} names {names[0]!r} twice\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["merge", "--tree", "t.json", "--corpus", "c", "--out", "o.json"],
            ["trajectories", "--corpus", "c", "--embeddings", "e.emb", "--out", "t.bin"],
            ["permanova", "--traj", "t.bin", "--groups", "g.json", "--out", "p.json"],
        ],
        ids=["merge", "trajectories", "permanova"],
    )
    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_flag_below_one_named_before_any_file(self, tmp_path, monkeypatch, capsys, argv, workers):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--workers", workers]) == 1
        assert capsys.readouterr().err == f"toxtraj {argv[0]}: error: --workers must be at least 1, got {workers}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["synth", "--scenario", "s.json", "--out-dir", "s", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["reduce", "--in", "e.emb", "--out", "r.emb", "--dim", "0"], "--dim must be at least 1, got 0"),
            (["reduce", "--in", "e.emb", "--out", "r.emb", "--fraction", "2.0"], "--fraction must be in (0, 1], got 2.0"),
            (["reduce", "--in", "e.emb", "--out", "r.emb", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["cluster", "--in", "e.emb", "--out", "t.json", "--min-cluster-size", "1"],
             "--min-cluster-size must be at least 2, got 1"),
            (["cluster", "--in", "e.emb", "--out", "t.json", "--min-cluster-size", "60", "--min-samples", "0"],
             "--min-samples must be at least 1, got 0"),
            (["cluster", "--in", "e.emb", "--out", "t.json", "--min-cluster-size", "60", "--max-depth", "0"],
             "--max-depth must be at least 1, got 0"),
            (["merge", "--tree", "t.json", "--corpus", "c", "--out", "o.json", "--reps", "0"], "--reps must be at least 1, got 0"),
            (["merge", "--tree", "t.json", "--corpus", "c", "--out", "o.json", "--n-in", "0"], "--n-in must be at least 1, got 0"),
            (["merge", "--tree", "t.json", "--corpus", "c", "--out", "o.json", "--n-out", "0"], "--n-out must be at least 1, got 0"),
            (["merge", "--tree", "t.json", "--corpus", "c", "--out", "o.json", "--alpha", "5"], "--alpha must be in (0, 1], got 5.0"),
            (["groups", "--corpus", "c", "--out", "g.json", "--min-posts", "-1"], "--min-posts must be at least 0, got -1"),
            (["groups", "--corpus", "c", "--out", "g.json", "--alpha", "0"], "--alpha must be in (0, 1], got 0.0"),
            (["permanova", "--traj", "t.bin", "--groups", "g.json", "--out", "p.json", "--n-permutations", "0"],
             "--n-permutations must be at least 1, got 0"),
            (["assign", "--topics", "t.json", "--embeddings", "e.emb", "--traj", "t.bin", "--groups", "g.json",
              "--out", "l.json", "--k", "0"], "--k must be at least 1, got 0"),
        ],
        ids=["synth-seed", "reduce-dim", "reduce-fraction", "reduce-seed", "cluster-min-cluster-size",
             "cluster-min-samples", "cluster-max-depth", "merge-reps", "merge-n-in", "merge-n-out", "merge-alpha",
             "groups-min-posts", "groups-alpha", "permanova-n-permutations", "assign-k"],
    )
    def test_stage_flag_out_of_range_named_before_any_file(self, tmp_path, monkeypatch, capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"toxtraj {argv[0]}: error: {named}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["merge", "--tree", "t.json", "--corpus", "c", "--out", "o.json", "--scorer", "constant:9"],
             "argument --scorer: invalid scorer_kind value: 'constant:9'"),
            (["ingest", "--posts", "p.ndjson", "--out", "c", "--t0", "bogus"],
             "argument --t0: invalid window_time value: 'bogus'"),
            (["cluster", "--in", "e.emb", "--out", "t.json", "--min-cluster-size", "10", "--min-samples", "1.5"],
             "argument --min-samples: invalid int value: '1.5'"),
        ],
    )
    def test_stage_flag_value_named_before_any_file(self, tmp_path, monkeypatch, capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_config_keys_a_run_reads_accepted(self, tmp_path):
        small_scenario(tmp_path, n_users=6)
        stages = {
            "synth": {"scenario": str(tmp_path / "scenario.json"), "seed": 4, "enabled": True},
            "ingest": {"t0": "2023-04-17T00:00:00Z", "t_end": "1698451140"},
            "groups": {"min_posts": 50, "alpha": 0.05},
        }
        for name in ("reduce", "cluster", "merge", "trajectories", "permanova", "assign"):
            stages[name] = {"enabled": False}
        manifest = run_pipeline({"seed": 1, "out_dir": str(tmp_path / "keys"), "workers": 1, "stages": stages})
        assert [s["name"] for s in manifest["stages"]] == ["synth", "ingest", "groups"]

    def test_relative_source_paths_tried_against_config_dir_then_working_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("cfg").mkdir()
        small_scenario(tmp_path / "cfg", n_users=6)
        Path("scenario.json").write_text("not a scenario")  # shadowed by cfg/scenario.json
        assert main(["synth", "--scenario", "cfg/scenario.json", "--out-dir", "data"]) == 0
        stages = {stage.name: {"enabled": False} for stage in cli_mod.STAGES}
        stages["synth"] = {"scenario": "scenario.json"}
        stages["ingest"] = {"posts": "data/posts.ndjson"}  # no cfg/data/ exists
        Path("cfg/config.json").write_text(json.dumps({"out_dir": "run", "stages": stages}))
        assert main(["run", "--config", "cfg/config.json"]) == 0
        manifest = json.loads(Path("run/manifest.json").read_text())
        synth, ingest = manifest["stages"]
        assert synth["inputs"] == {"scenario": str(Path("cfg/scenario.json"))}
        assert ingest["inputs"]["posts"] == str(Path("data/posts.ndjson"))
        assert ingest["summary"]["n_posts"] == synth["summary"]["n_posts"]

    def test_failing_stage_named_and_partial_outputs_kept(self, tmp_path):
        small_scenario(tmp_path)
        config = pipeline_config(tmp_path, out_name="fail")
        config["stages"]["reduce"]["dim"] = 6  # above the embeddings' 5 dimensions, which only the data shows
        with pytest.raises(RuntimeError, match="reduce"):
            run_pipeline(config)
        manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
        assert manifest["failed_stage"] == "reduce"
        failed = "failed at stage 'reduce': output_dim cannot exceed the input dimension"
        assert f"root seed: {manifest['root_seed']}\n{failed}\n" in render_report(manifest)
        assert (tmp_path / "fail" / "corpus" / "posts.ndjson").exists()

    def test_scenario_seed_out_of_range_named(self, tmp_path, monkeypatch, capsys):
        # The scenario file's own seed, read only when the stage's config or flag sets none.
        monkeypatch.chdir(tmp_path)
        small_scenario(tmp_path, seed=-1, n_users=6)
        assert main(["synth", "--scenario", "scenario.json", "--out-dir", "s"]) == 1
        assert capsys.readouterr().err == "toxtraj synth: error: seed must be at least 0, got -1\n"
        assert os.listdir(tmp_path) == ["scenario.json"]
        stages = {stage.name: {"enabled": False} for stage in cli_mod.STAGES}
        stages["synth"] = {"scenario": "scenario.json"}
        with pytest.raises(RuntimeError, match=r"^stage 'synth' failed: seed must be at least 0, got -1$"):
            run_pipeline({"out_dir": "bad", "stages": stages})
        assert json.loads(Path("bad/manifest.json").read_text())["failed_stage"] == "synth"
        stages["synth"]["seed"] = 4
        manifest = run_pipeline({"out_dir": "good", "stages": stages})
        assert [s["name"] for s in manifest["stages"]] == ["synth"]
        assert manifest["stages"][0]["summary"]["n_users"] == 6

    def test_env_seed_override(self, tmp_path, monkeypatch):
        small_scenario(tmp_path)
        config = pipeline_config(tmp_path, out_name="env_run")
        monkeypatch.setenv("TOXTRAJ_SEED", "12345")
        manifest = run_pipeline(config)
        assert manifest["root_seed"] == 12345

    def test_report_renders_expected_sections(self, tmp_path):
        small_scenario(tmp_path)
        manifest = run_pipeline(pipeline_config(tmp_path, out_name="report_run"))
        report = render_report(manifest)
        assert "Surviving cluster counts by level" in report
        assert "Trajectory-pair comparisons" in report
        assert "Weekly topic runs" in report
        assert "Weekly mean toxicity by group" in report
        # Stable under re-rendering.
        assert render_report(manifest) == report

    def test_report_weekly_toxicity_matches_oracle(self, tmp_path):
        small_scenario(tmp_path)
        config = pipeline_config(tmp_path, out_name="weekly")
        for name in ("reduce", "cluster", "merge", "trajectories", "permanova", "assign"):
            config["stages"][name] = {"enabled": False}
        manifest = run_pipeline(config)
        run_dir = tmp_path / "weekly"
        groups = json.loads((run_dir / "groups.json").read_text())
        # A reference group lists its members by closeness, not by id.
        assert any(groups[k] != sorted(groups[k]) for k in ("reference_increasing", "reference_decreasing"))
        expected = weekly_group_toxicity(
            run_dir / "corpus" / "posts.ndjson", run_dir / "groups.json", run_dir / "corpus" / "window.json"
        )
        report = render_report(manifest)
        block = report.split("## Weekly mean toxicity by group\n")[1].split("```")[1]
        header, *rows = block.strip("\n").split("\n")
        assert header.split("\t") == ["week", *expected]
        assert [row.split("\t") for row in rows] == [
            [str(week), *cells] for week, cells in enumerate(zip(*expected.values()))
        ]
        assert any(cell for cells in expected.values() for cell in cells)

    def test_report_prints_auto_merged_count(self, tmp_path):
        small_scenario(tmp_path, n_users=24)
        manifest = run_pipeline(pipeline_config(tmp_path, out_name="auto", perms=19))
        merge = next(stage for stage in manifest["stages"] if stage["name"] == "merge")
        n_auto = merge["summary"]["n_auto_merged"]
        assert isinstance(n_auto, int) and n_auto >= 0
        assert f"auto-merged, too small to sample: {n_auto}\n" in render_report(manifest)

    def test_report_prints_permanova_exceed(self, tmp_path):
        small_scenario(tmp_path, n_users=24)
        manifest = run_pipeline(pipeline_config(tmp_path, out_name="exceed", perms=19))
        rows = [row for row in json.loads((tmp_path / "exceed" / "permanova.json").read_text())["rows"]
                if "skipped" not in row]
        report = render_report(manifest)
        assert "freq\tpair\tpseudo_f\tp\texceed\teta_sq\n" in report
        assert rows
        for row in rows:
            assert row["p_value"] == (1 + row["exceed"]) / 20
            assert f"\t{row['p_value']:.4g}\t{row['exceed']}\t{row['eta_squared']:.4g}\n" in report
        # A permanova.json written before exceed existed leaves its cell empty.
        path = tmp_path / "exceed" / "permanova.json"
        path.write_text(json.dumps({"rows": [{k: v for k, v in row.items() if k != "exceed"} for row in rows]}))
        assert f"\t{rows[0]['p_value']:.4g}\t\t{rows[0]['eta_squared']:.4g}\n" in render_report(manifest)

    def test_topics_json_nodes_carry_no_label(self, tmp_path):
        small_scenario(tmp_path, n_users=24)
        manifest = run_pipeline(pipeline_config(tmp_path, out_name="nolabel", perms=19))
        nodes = json.loads((Path(manifest["out_dir"]) / "topics.json").read_text())["nodes"]
        assert nodes
        assert not [n["node_id"] for n in nodes if "label" in n]

    def test_rerun_without_reduce_ignores_stale_reduced(self, tmp_path):
        small_scenario(tmp_path, n_users=24)
        out_dir = tmp_path / "stale"
        config = pipeline_config(tmp_path, out_name="stale", perms=19)
        config["stages"]["reduce"] = {"dim": 2}
        run_pipeline(config)
        assert read_trajectories(out_dir / "traj.bin")[1].shape[2] == 2
        config["stages"]["reduce"] = {"enabled": False}
        manifest = run_pipeline(config)
        assert (out_dir / "reduced.emb").exists()
        corpus_embeddings = out_dir / "corpus" / "embeddings.emb"
        width = read_embeddings(corpus_embeddings).d
        assert read_trajectories(out_dir / "traj.bin")[1].shape[2] == width == 5
        inputs = {s["name"]: s["inputs"] for s in manifest["stages"]}
        for name in ("cluster", "merge", "trajectories", "assign"):
            assert inputs[name]["embeddings"] == str(corpus_embeddings), name
        # Without ingest, the corpus an earlier run left is not picked up.
        config["stages"]["ingest"] = {"enabled": False}
        with pytest.raises(RuntimeError, match="stage 'cluster' failed: input 'embeddings'"):
            run_pipeline(config)

    def test_config_not_mutated_and_synth_read_from_this_run(self, tmp_path):
        small_scenario(tmp_path, n_users=6)
        stages = {"synth": {"scenario": str(tmp_path / "scenario.json")}}
        for name in ("reduce", "cluster", "merge", "groups", "trajectories", "permanova", "assign"):
            stages[name] = {"enabled": False}
        config = {"seed": 3, "out_dir": str(tmp_path / "first"), "stages": stages}
        snapshot = copy.deepcopy(config)
        run_pipeline(config)
        assert config == snapshot
        shutil.rmtree(tmp_path / "first" / "synth")
        config["out_dir"] = str(tmp_path / "second")
        manifest = run_pipeline(config)
        assert config["stages"] == snapshot["stages"]
        ingest = next(s for s in manifest["stages"] if s["name"] == "ingest")
        assert set(ingest["inputs"]) == {"posts", "embeddings", "window"}
        for path in ingest["inputs"].values():
            assert Path(path).parent == tmp_path / "second" / "synth"

    def test_synth_window_carried_to_permanova_and_assign(self, tmp_path, monkeypatch):
        scenario = ScenarioConfig(
            n_users=24,
            posts_per_user=(50, 65),
            window=StudyWindow(week_len_days=14),
            hierarchy=three_by_two_scenario(n_per_child=120),
            trend_mix=TrendMix(increasing=0.25, decreasing=0.25, flat=0.5, drift=30.0, noise_sd=4.0),
            seed=7,
        )
        scenario.save(tmp_path / "scenario.json")
        widths = []
        permanova_test = cli_mod.permanova_test

        def recording(a, b, **kwargs):
            widths.append(a.shape[1])
            return permanova_test(a, b, **kwargs)

        monkeypatch.setattr(cli_mod, "permanova_test", recording)
        parses = []
        read_posts = corpus_mod.read_posts
        monkeypatch.setattr(corpus_mod, "read_posts", lambda path: parses.append(path) or read_posts(path))
        manifest = run_pipeline(pipeline_config(tmp_path, out_name="fortnight", perms=19))
        # The corpus is parsed by ingest and by merge, then handed on in memory.
        assert len(parses) == 2
        out_dir = Path(manifest["out_dir"])
        assert json.loads((out_dir / "corpus" / "window.json").read_text())["week_len_days"] == 14
        labeled = json.loads((out_dir / "labeled.json").read_text())
        assert labeled["groups"]
        for payload in labeled["groups"].values():
            assert len(payload["weekly"]["sequence"]) == 13
            assert len(payload["daily"]["sequence"]) == 194
        rows = json.loads((out_dir / "permanova.json").read_text())["rows"]
        freqs = [row["freq"] for row in rows if "skipped" not in row]
        assert "weekly" in freqs
        assert widths == [194 * 5 if freq == "daily" else 13 * 5 for freq in freqs]

        # The subcommands take the window from --corpus, else the default one.
        common = [
            "--topics", str(out_dir / "topics.json"), "--embeddings", str(out_dir / "reduced.emb"),
            "--traj", str(out_dir / "traj.bin"), "--groups", str(out_dir / "groups.json"),
        ]
        for extra, n_weeks in (["--corpus", str(out_dir / "corpus")], 13), ([], 27):
            labeled_path = tmp_path / f"labeled_{n_weeks}.json"
            assert main(["assign", *common, *extra, "--out", str(labeled_path)]) == 0
            for payload in json.loads(labeled_path.read_text())["groups"].values():
                assert len(payload["weekly"]["sequence"]) == n_weeks
        widths.clear()
        argv = ["permanova", "--traj", str(out_dir / "traj.bin"), "--groups", str(out_dir / "groups.json"),
                "--freqs", "weekly", "--pairs", "increasing", "--n-permutations", "19",
                "--corpus", str(out_dir / "corpus"), "--out", str(tmp_path / "perm.json")]
        assert main(argv) == 0
        assert widths == [13 * 5]

    def test_report_lists_only_this_runs_artifacts(self, tmp_path):
        small_scenario(tmp_path, n_users=24)
        config = pipeline_config(tmp_path, out_name="reused", perms=19)
        run_pipeline(config)
        config["stages"]["merge"] = {"enabled": False}
        config["stages"]["assign"] = {"enabled": False}
        manifest = run_pipeline(config)
        assert (tmp_path / "reused" / "topics.json").exists()
        report = render_report(manifest)
        assert "Surviving cluster counts by level" not in report
        assert "Weekly topic runs" not in report
        assert "Trajectory-pair comparisons" in report
        assert "Weekly mean toxicity by group" in report

    def test_merge_reads_only_the_reduced_embeddings(self, tmp_path, monkeypatch):
        small_scenario(tmp_path, n_users=24)
        execute, read = cli_mod._execute, corpus_mod.read_embeddings
        stage, calls = [None], Counter()

        def tracked_execute(s, kwargs, held=None):
            stage[0] = s.name
            return execute(s, kwargs, held)

        def counted_read(path):
            calls[stage[0], Path(path).name] += 1
            return read(path)

        monkeypatch.setattr(cli_mod, "_execute", tracked_execute)
        monkeypatch.setattr(corpus_mod, "read_embeddings", counted_read)
        run_pipeline(pipeline_config(tmp_path, out_name="reads", perms=19))
        assert [key for key in calls if key[0] == "merge"] == [("merge", "reduced.emb")]
        assert calls["merge", "reduced.emb"] == 1

    def test_manifest_records_peak_rss_per_stage(self, tmp_path):
        small_scenario(tmp_path, n_users=24)
        manifest = run_pipeline(pipeline_config(tmp_path, out_name="rss", perms=19))
        peaks = [stage["peak_rss_mb"] for stage in manifest["stages"]]
        assert len(peaks) == 9 and all(peak > 0 for peak in peaks)
        assert peaks == sorted(peaks)
        report = render_report(manifest)
        for stage in manifest["stages"]:
            assert f"{stage['name']}\t{stage['peak_rss_mb']}" in report


class TestConfigSnapshot:
    def test_paper_parameter_defaults(self):
        # Default configuration carries the published constants verbatim.
        assert PIPELINE_DEFAULTS["min_posts"] == 50
        assert PIPELINE_DEFAULTS["n_daily_grid"] == 194
        assert PIPELINE_DEFAULTS["n_weekly_grid"] == 27
        assert PIPELINE_DEFAULTS["coherence_reps"] == 30
        assert PIPELINE_DEFAULTS["coherence_n_in"] == 30
        assert PIPELINE_DEFAULTS["coherence_n_out"] == 30
        assert PIPELINE_DEFAULTS["alpha"] == 0.05
        assert PIPELINE_DEFAULTS["n_permutations"] == 4999
        assert PIPELINE_DEFAULTS["knn_k"] == 15
        assert PIPELINE_DEFAULTS["reduce_fraction"] == 0.1
        assert PIPELINE_DEFAULTS["reduce_dim"] == 5
        assert PIPELINE_DEFAULTS["t0"] == DEFAULT_T0
        assert PIPELINE_DEFAULTS["t_end"] == DEFAULT_T_END

    def test_stage_seed_stable(self):
        assert stage_seed(0, "merge") == stage_seed(0, "merge")
        assert stage_seed(0, "merge") != stage_seed(0, "permanova")
        assert stage_seed(0, "merge") != stage_seed(1, "merge")


class TestCliCommands:
    def test_ingest_command(self, tmp_path, capsys):
        config = ScenarioConfig(n_users=5, posts_per_user=(50, 52), seed=1)
        corpus, _ = generate_user_streams(config)
        write_posts(tmp_path / "posts.ndjson", corpus.posts)
        write_embeddings(tmp_path / "emb.bin", corpus.embeddings.values, corpus.embeddings.row_ids)
        code = main(
            [
                "ingest",
                "--posts",
                str(tmp_path / "posts.ndjson"),
                "--embeddings",
                str(tmp_path / "emb.bin"),
                "--out",
                str(tmp_path / "bundle"),
                "--t0",
                "2023-04-17T00:00:00Z",
                "--t-end",
                "2023-10-27T23:59:00Z",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_posts"] == len(corpus)

    def test_reduce_command_pca(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(120, 12)).astype(np.float32).astype(np.float64)
        write_embeddings(tmp_path / "high.emb", values, [f"p{i}" for i in range(120)])
        code = main(
            [
                "reduce",
                "--in",
                str(tmp_path / "high.emb"),
                "--out",
                str(tmp_path / "low.emb"),
                "--dim",
                "5",
                "--fraction",
                "0.5",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        from toxtraj.corpus import read_embeddings

        reduced = read_embeddings(tmp_path / "low.emb")
        assert reduced.d == 5
        assert reduced.n == 120
        assert reduced.row_ids == [f"p{i}" for i in range(120)]
        assert json.loads(capsys.readouterr().out) == {"outputs": {"embeddings": str(tmp_path / "low.emb")}, "dim": 5}

    def test_ingest_names_line_with_lone_surrogate(self, tmp_path, capsys):
        lines = [json.dumps({"post_id": f"p{i}", "user_id": "u", "timestamp": DEFAULT_T0 + i}) for i in range(3)]
        lines[1] = lines[1][:-1] + ', "text": "x\\ud800y"}'
        (tmp_path / "posts.ndjson").write_text("".join(line + "\n" for line in lines))
        code = main(["ingest", "--posts", str(tmp_path / "posts.ndjson"), "--out", str(tmp_path / "bundle")])
        assert code == 1
        assert "line 2: text holds a lone surrogate" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["ingest", "--posts", str(tmp_path / "missing.ndjson"), "--out", str(tmp_path / "b")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_ingest_t0_as_unix_seconds(self, tmp_path, capsys):
        config = ScenarioConfig(n_users=5, posts_per_user=(50, 52), seed=1)
        corpus, _ = generate_user_streams(config)
        write_posts(tmp_path / "posts.ndjson", corpus.posts)
        for name, t0, t_end in (
            ("iso", "2023-04-17T00:00:00Z", "2023-10-27T23:59:00Z"),
            ("unix", "1681689600", "1698451140"),
        ):
            argv = ["ingest", "--posts", str(tmp_path / "posts.ndjson"), "--out", str(tmp_path / name),
                    "--t0", t0, "--t-end", t_end]
            assert main(argv) == 0, capsys.readouterr().err
        assert (tmp_path / "unix" / "window.json").read_text() == (tmp_path / "iso" / "window.json").read_text()

    def test_ingest_window_narrower_than_posts_drops_their_rows(self, tmp_path, capsys):
        config = ScenarioConfig(n_users=5, posts_per_user=(50, 52), seed=1)
        corpus, _ = generate_user_streams(config)
        write_posts(tmp_path / "posts.ndjson", corpus.posts)
        write_embeddings(tmp_path / "emb.bin", corpus.embeddings.values, corpus.embeddings.row_ids)
        bundle = tmp_path / "bundle"
        argv = ["ingest", "--posts", str(tmp_path / "posts.ndjson"), "--embeddings", str(tmp_path / "emb.bin"),
                "--out", str(bundle), "--t0", "2023-06-01T00:00:00Z"]
        assert main(argv) == 0, capsys.readouterr().err
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_dropped_outside_window"] > 0
        assert summary["n_posts"] + summary["n_dropped_outside_window"] == len(corpus)
        kept = corpus_mod.load_corpus_bundle(bundle).posts.post_id
        row_ids = read_embeddings(bundle / "embeddings.emb").row_ids
        assert row_ids == [rid for rid in corpus.embeddings.row_ids if rid in set(kept)]
        argv = ["trajectories", "--corpus", str(bundle), "--embeddings", str(bundle / "embeddings.emb"),
                "--out", str(tmp_path / "traj.bin")]
        assert main(argv) == 0, capsys.readouterr().err

    def test_ids_with_line_separators_reach_every_reader(self, tmp_path, capsys):
        config = ScenarioConfig(n_users=5, posts_per_user=(50, 52), seed=1)
        corpus, _ = generate_user_streams(config)
        posts, rename = corpus.posts, (lambda pid: pid + "\u2028\x85\x1e")
        posts.post_id = [rename(pid) for pid in posts.post_id]
        row_ids = [rename(rid) for rid in corpus.embeddings.row_ids]
        write_posts(tmp_path / "posts.ndjson", posts)
        write_embeddings(tmp_path / "emb.bin", corpus.embeddings.values, row_ids)
        write_embeddings(tmp_path / "copy.emb", corpus.embeddings.values, row_ids)
        bundle = tmp_path / "bundle"
        ingest = ["ingest", "--posts", str(tmp_path / "posts.ndjson"), "--embeddings", str(tmp_path / "emb.bin"),
                  "--out", str(bundle)]
        assert main(ingest) == 0, capsys.readouterr().err
        argv = ["trajectories", "--corpus", str(bundle), "--embeddings", str(tmp_path / "copy.emb"),
                "--out", str(tmp_path / "traj.bin")]
        assert main(argv) == 0, capsys.readouterr().err

    def test_embeddings_of_other_rows_rejected(self, tmp_path, capsys):
        config = ScenarioConfig(n_users=5, posts_per_user=(50, 52), seed=1)
        corpus, _ = generate_user_streams(config)
        write_posts(tmp_path / "posts.ndjson", corpus.posts)
        write_embeddings(tmp_path / "emb.bin", corpus.embeddings.values, corpus.embeddings.row_ids)
        write_embeddings(tmp_path / "reversed.emb", corpus.embeddings.values[::-1], corpus.embeddings.row_ids[::-1])
        bundle = tmp_path / "bundle"
        ingest = ["ingest", "--posts", str(tmp_path / "posts.ndjson"), "--embeddings", str(tmp_path / "emb.bin"),
                  "--out", str(bundle)]
        assert main(ingest) == 0
        capsys.readouterr()
        argv = ["trajectories", "--corpus", str(bundle), "--embeddings", str(tmp_path / "reversed.emb"),
                "--out", str(tmp_path / "traj.bin")]
        assert main(argv) == 1
        assert "reversed.emb: row ids differ" in capsys.readouterr().err
        assert not (tmp_path / "traj.bin").exists()

    def test_rows_other_than_the_trees_refused_naming_both(self, tmp_path, capsys):
        small_scenario(tmp_path, n_users=20)
        run_pipeline(pipeline_config(tmp_path, out_name="rows", perms=19))
        out_dir = tmp_path / "rows"
        topics = out_dir / "topics.json"
        reduced = read_embeddings(out_dir / "reduced.emb")
        n = reduced.n
        more, fewer = tmp_path / "more.emb", tmp_path / "fewer.emb"
        write_embeddings(more, np.vstack([reduced.values, reduced.values[:10]]),
                         reduced.row_ids + [f"extra{i}" for i in range(10)])
        write_embeddings(fewer, reduced.values[:-1], reduced.row_ids[:-1])
        labeled = tmp_path / "labeled.json"
        for emb, n_rows in ((more, n + 10), (fewer, n - 1)):
            argv = ["assign", "--topics", str(topics), "--embeddings", str(emb), "--traj", str(out_dir / "traj.bin"),
                    "--groups", str(out_dir / "groups.json"), "--corpus", str(out_dir / "corpus"), "--out", str(labeled)]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"toxtraj assign: error: {topics} clusters {n} rows, not the {n_rows} of {emb}\n"
            assert not labeled.exists()
        # A tree of other rows: n_points grows, every member row stays valid.
        tree = json.loads((out_dir / "tree.json").read_text())
        tree["n_points"] = n + 3
        other = tmp_path / "other-tree.json"
        other.write_text(json.dumps(tree))
        merged = tmp_path / "topics.json"
        argv = ["merge", "--tree", str(other), "--corpus", str(out_dir / "corpus"), "--out", str(merged)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"toxtraj merge: error: {other} clusters {n + 3} rows, not the {n} of the corpus embeddings\n"
        assert not merged.exists()

    def test_cluster_tree_refused_as_topics(self, tmp_path, capsys):
        # The ungated tree has none of the merge pass's keys; taken as topics
        # it labelled every trajectory, with every mean toxicity null.
        small_scenario(tmp_path, n_users=20)
        run_pipeline(pipeline_config(tmp_path, out_name="run", perms=19))
        out_dir = tmp_path / "run"
        labeled = tmp_path / "labeled.json"
        argv = ["assign", "--topics", str(out_dir / "tree.json"), "--embeddings", str(out_dir / "reduced.emb"),
                "--traj", str(out_dir / "traj.bin"), "--groups", str(out_dir / "groups.json"),
                "--corpus", str(out_dir / "corpus"), "--out", str(labeled)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"toxtraj assign: error: {out_dir / 'tree.json'}: missing key 'n_outliers'\n"
        assert not labeled.exists()

    @pytest.mark.parametrize(
        "manifest, named",
        [
            ({"root_seed": 1, "stages": [{}]}, "stage 0: missing key 'name'"),
            ({"root_seed": 1, "stages": [{"name": "ingest"}, {"name": "merge"}]}, "stage 1: missing key 'summary'"),
            ({"root_seed": 1, "stages": [{"name": "merge", "summary": {"level_counts": {}}}]},
             "stage 0: summary: missing key 'n_outliers'"),
            ({"root_seed": 1, "stages": ["ingest"]}, "stage 0: expected a JSON object"),
            ({"root_seed": 1, "stages": {}}, "stages must be a list"),
            ({"root_seed": 1, "stages": [], "failed_stage": "ingest"}, "missing key 'error'"),
        ],
        ids=["no-name", "merge-without-summary", "summary-without-outliers", "stage-not-object", "stages-not-list",
             "failed-without-error"],
    )
    def test_malformed_stage_entry_named(self, tmp_path, capsys, manifest, named):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert main(["report", "--manifest", str(path)]) == 1
        assert capsys.readouterr() == ("", f"toxtraj report: error: {path}: {named}\n")

    def test_config_and_manifest_errors_name_their_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_text('{"seed": 1, }')
        assert main(["run", "--config", "bad.json"]) == 1
        assert capsys.readouterr().err == (
            "toxtraj run: error: bad.json: Expecting property name enclosed in double quotes: line 1 column 13 (char 12)\n"
        )
        assert os.listdir(tmp_path) == ["bad.json"]
        for doc, named in [
            ('{"root_seed": ', "Expecting value: line 1 column 15 (char 14)"),
            ("[]", "expected a JSON object"),
            ('{"stages": []}', "missing key 'root_seed'"),
            ('{"root_seed": 3}', "missing key 'stages'"),
        ]:
            Path("manifest.json").write_text(doc)
            assert main(["report", "--manifest", "manifest.json"]) == 1
            assert capsys.readouterr().err == f"toxtraj report: error: manifest.json: {named}\n"

    def test_trajectories_of_no_embedded_post_keep_embedding_width(self, tmp_path, capsys):
        config = ScenarioConfig(n_users=5, posts_per_user=(50, 52), seed=1)
        corpus, _ = generate_user_streams(config)
        write_posts(tmp_path / "posts.ndjson", corpus.posts)
        write_embeddings(tmp_path / "empty.emb", np.empty((0, 8)), [])
        bundle = tmp_path / "bundle"
        ingest = ["ingest", "--posts", str(tmp_path / "posts.ndjson"), "--embeddings", str(tmp_path / "empty.emb"),
                  "--out", str(bundle)]
        assert main(ingest) == 0, capsys.readouterr().err
        argv = ["trajectories", "--corpus", str(bundle), "--embeddings", str(bundle / "embeddings.emb"),
                "--out", str(tmp_path / "traj.bin")]
        assert main(argv) == 0, capsys.readouterr().err
        user_ids, paths = read_trajectories(tmp_path / "traj.bin")
        assert user_ids == [] and paths.shape == (0, 194, 8)

    def test_permanova_stdout_and_merge_default_embeddings(self, tmp_path, capsys):
        small_scenario(tmp_path, n_users=20)
        config = pipeline_config(tmp_path, out_name="artifacts", perms=49)
        run_pipeline(config)
        out_dir = tmp_path / "artifacts"
        code = main(
            [
                "merge",
                "--tree",
                str(out_dir / "tree.json"),
                "--corpus",
                str(out_dir / "corpus"),
                "--scorer",
                "constant:3",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "topics2.json"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "permanova",
                "--traj",
                str(out_dir / "traj.bin"),
                "--groups",
                str(out_dir / "groups.json"),
                "--pairs",
                "increasing",
                "--freqs",
                "weekly",
                "--n-permutations",
                "49",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        doc, _ = json.JSONDecoder().raw_decode(printed)
        assert doc["rows"][0]["pair"] == "increasing"
        assert "pseudo_f" in doc["rows"][0]

    def group_run(self, tmp_path):
        """A run's outputs, and each group's members as groups.json lists them."""
        small_scenario(tmp_path, n_users=24)
        run_pipeline(pipeline_config(tmp_path, out_name="groups_run", perms=19))
        out_dir = tmp_path / "groups_run"
        doc = json.loads((out_dir / "groups.json").read_text())
        members = {
            name: sorted(a["user_id"] for a in doc["assignments"] if a["group"] == name)
            for name in ("Increasing", "Decreasing")
        }
        members.update(IncreasingRef=doc["reference_increasing"], DecreasingRef=doc["reference_decreasing"])
        assert all(members.values())
        return out_dir, doc, members

    @staticmethod
    def weekly(daily):
        """Each user's mean over every whole week: 27 weeks of 7 days in 194."""
        return daily[:, : 27 * 7].reshape(len(daily), 27, 7, -1).mean(axis=2)

    def stage_argv(self, out_dir, traj, groups, dest):
        """permanova and assign on the run's outputs, writing p.json and l.json to ``dest``."""
        common = ["--traj", str(traj), "--groups", str(groups), "--corpus", str(out_dir / "corpus")]
        permanova = ["permanova", *common, "--n-permutations", "19", "--seed", "3", "--out", str(dest / "p.json")]
        assign = ["assign", *common, "--topics", str(out_dir / "topics.json"), "--embeddings",
                  str(out_dir / "reduced.emb"), "--out", str(dest / "l.json")]
        return permanova, assign

    def test_empty_reference_group_skipped_and_not_labeled(self, tmp_path, capsys):
        out_dir, doc, members = self.group_run(tmp_path)
        doc["reference_decreasing"] = []
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps(doc))
        user_ids, paths = read_trajectories(out_dir / "traj.bin")
        row = {u: i for i, u in enumerate(user_ids)}
        daily = {name: paths[[row[u] for u in ids if u in row]] for name, ids in members.items()}
        permanova, assign = self.stage_argv(out_dir, out_dir / "traj.bin", groups, tmp_path)
        assert main(permanova) == 0 and main(assign) == 0, capsys.readouterr().err
        expected = []
        for freq in ("daily", "weekly"):
            a, b = daily["Increasing"], daily["IncreasingRef"]
            if freq == "weekly":
                a, b = self.weekly(a), self.weekly(b)
            result = permanova_test(a.reshape(len(a), -1), b.reshape(len(b), -1), n_permutations=19,
                                    seed=stage_seed(3, f"permanova-increasing-{freq}"))
            expected.append({"pair": "increasing", "freq": freq, **result.to_json()})
        expected += [{"pair": "decreasing", "freq": freq, "skipped": "empty group"} for freq in ("daily", "weekly")]
        assert json.loads((tmp_path / "p.json").read_text())["rows"] == json.loads(json.dumps(expected))
        labeled = json.loads((tmp_path / "l.json").read_text())["groups"]
        assert list(labeled) == ["Increasing", "Decreasing", "IncreasingRef"]
        assert {name: g["n_users"] for name, g in labeled.items()} == {name: len(daily[name]) for name in labeled}

    def test_member_without_trajectory_left_out_in_member_order(self, tmp_path, monkeypatch, capsys):
        out_dir, _, members = self.group_run(tmp_path)
        user_ids, paths = read_trajectories(out_dir / "traj.bin")
        dropped = {members["Increasing"][0], members["DecreasingRef"][-1]}
        # The kept users go into the file in reverse, so file order is not member order.
        kept = [i for i, u in enumerate(user_ids) if u not in dropped][::-1]
        traj = tmp_path / "traj.bin"
        write_trajectories(traj, [user_ids[i] for i in kept], paths[kept])
        row = {u: i for i, u in enumerate(user_ids)}
        daily = {name: paths[[row[u] for u in ids if u not in dropped]] for name, ids in members.items()}
        tested, averaged = [], []
        monkeypatch.setattr(cli_mod, "permanova_test", lambda a, b, **kw: tested.append((a, b)) or permanova_test(a, b, **kw))
        monkeypatch.setattr(cli_mod, "group_average_trajectory", lambda m: averaged.append(m) or group_average_trajectory(m))
        permanova, assign = self.stage_argv(out_dir, traj, out_dir / "groups.json", tmp_path)
        assert main(permanova) == 0 and main(assign) == 0, capsys.readouterr().err
        pairs = [("Increasing", "IncreasingRef")] * 2 + [("Decreasing", "DecreasingRef")] * 2
        for (a, b), names, freq in zip(tested, pairs, ["daily", "weekly"] * 2, strict=True):
            for got, name in zip((a, b), names):
                want = daily[name] if freq == "daily" else self.weekly(daily[name])
                np.testing.assert_array_equal(got, want.reshape(len(want), -1))
        order = ["Increasing", "Decreasing", "IncreasingRef", "DecreasingRef"]
        for got, name in zip(averaged, order, strict=True):
            np.testing.assert_array_equal(got, daily[name])
        labeled = json.loads((tmp_path / "l.json").read_text())["groups"]
        assert {name: g["n_users"] for name, g in labeled.items()} == {name: len(daily[name]) for name in order}

    def test_run_and_report_commands(self, tmp_path, capsys):
        small_scenario(tmp_path, n_users=24)
        config = pipeline_config(tmp_path, out_name="cli_run", perms=49)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert (
            main(["report", "--manifest", str(tmp_path / "cli_run" / "manifest.json")]) == 0
        )
        assert "toxtraj run report" in capsys.readouterr().out
