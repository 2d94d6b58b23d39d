import copy
import json
import os
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
from toxtraj.synth import (
    ScenarioConfig,
    TrendMix,
    generate_user_streams,
    three_by_two_scenario,
)
from toxtraj.trajectory import read_trajectories
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
        ],
        ids=["config-list", "stages-list", "stage-false", "stage-list"],
    )
    def test_config_not_an_object_named_before_any_file(self, tmp_path, monkeypatch, capsys, config, named):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=f"^{named}$"):
            run_pipeline(config)
        Path("config.json").write_text(json.dumps(config))
        assert main(["run", "--config", "config.json"]) == 1
        assert capsys.readouterr().err == f"toxtraj run: error: {named}\n"
        assert os.listdir(tmp_path) == ["config.json"]

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

    def test_failing_stage_named_and_partial_outputs_kept(self, tmp_path):
        small_scenario(tmp_path)
        config = pipeline_config(tmp_path, out_name="fail")
        config["stages"]["cluster"]["min_cluster_size"] = 1  # invalid
        with pytest.raises(RuntimeError, match="cluster"):
            run_pipeline(config)
        manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
        assert manifest["failed_stage"] == "cluster"
        assert (tmp_path / "fail" / "corpus" / "posts.ndjson").exists()

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
                "--freq", "weekly", "--pair", "increasing", "--perms", "19",
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
                "--pair",
                "increasing",
                "--freq",
                "weekly",
                "--perms",
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
