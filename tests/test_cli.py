"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scenario == "pretrain"
        assert args.scale == "smoke"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scenario", "bogus"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--version"])
        assert exit_info.value.code == 0


class TestNewParser:
    def test_registered_scenarios_accepted(self):
        args = build_parser().parse_args(["simulate", "--scenario", "bursty_cross"])
        assert args.scenario == "bursty_cross"

    def test_unknown_scale_exits_with_code_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["simulate", "--scale", "enormous"])
        assert exit_info.value.code == 2
        # argparse lists the valid choices in the error message.
        assert "smoke" in capsys.readouterr().err

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.table == "2"
        assert not args.no_cache


class TestApiCommands:
    def test_run_table2_cached_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "run", "--table", "2", "--scale", "smoke", "--epochs", "1",
            "--cache-dir", cache,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "pretrained_full" in out
        # The second invocation is served from the artifact store.
        assert main(argv) == 0
        assert "Table 2" in capsys.readouterr().out
        from repro.api import ArtifactStore

        summary = ArtifactStore(cache).summary()
        assert summary["bundles"]["count"] >= 1
        assert summary["checkpoints"]["count"] >= 1

    def test_predict_serves_batches(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main([
            "predict", "--scale", "smoke", "--scenario", "pretrain",
            "--cache-dir", cache, "--limit", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out
        assert "test MSE" in out

    def test_predict_from_checkpoint(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        checkpoint = tmp_path / "model.npz"
        assert main([
            "pretrain", "--scale", "smoke", "--epochs", "1",
            "--cache-dir", cache, "--output", str(checkpoint),
        ]) == 0
        assert main([
            "predict", "--scale", "smoke", "--scenario", "pretrain",
            "--checkpoint", str(checkpoint), "--cache-dir", cache,
        ]) == 0
        assert "test MSE" in capsys.readouterr().out

    def test_predict_missing_checkpoint_is_clean_error(self, tmp_path, capsys):
        assert main([
            "predict", "--scale", "smoke", "--checkpoint",
            str(tmp_path / "nope.npz"), "--no-cache",
        ]) == 2
        assert "repro: error" in capsys.readouterr().err

    def test_predict_metadata_less_checkpoint_exits_2(self, tmp_path, capsys):
        # A checkpoint without config metadata used to escape as a raw
        # KeyError traceback; it must exit 2 with a clean message.
        import numpy as np

        bare = tmp_path / "bare.npz"
        np.savez(bare, weight=np.zeros((2, 2)))
        assert main([
            "predict", "--scale", "smoke", "--checkpoint", str(bare), "--no-cache",
        ]) == 2
        err = capsys.readouterr().err
        assert "repro: error" in err
        assert "metadata" in err
        assert "Traceback" not in err

    def test_predict_resolves_store_refs(self, tmp_path, capsys):
        import shutil

        cache = tmp_path / "cache"
        checkpoint = tmp_path / "model.npz"
        assert main([
            "pretrain", "--scale", "smoke", "--epochs", "1",
            "--cache-dir", str(cache), "--output", str(checkpoint),
        ]) == 0
        capsys.readouterr()
        from repro.api import ArtifactStore

        target = ArtifactStore(cache).path("checkpoints", "warmkey")
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(checkpoint, target)
        assert main([
            "predict", "--scale", "smoke", "--scenario", "pretrain",
            "--checkpoint", "store:warmkey", "--cache-dir", str(cache),
        ]) == 0
        assert "test MSE" in capsys.readouterr().out

    def test_cache_list_and_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["cache", "--cache-dir", cache]) == 0
        assert "artifact store" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_scenarios_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("pretrain", "case1", "case2", "bursty_cross"):
            assert name in out

    def test_stages_lists_registry(self, capsys):
        assert main(["stages"]) == 0
        out = capsys.readouterr().out
        for name in ("traces", "pretrain", "evaluate", "federated_pretrain",
                     "drift_monitor", "trace_stats"):
            assert name in out
        # The tables' stages are listed like every other stage.
        assert "scratch" in out and "baselines" in out


class TestSweep:
    def test_dry_run_prints_deduplicated_plan(self, tmp_path, capsys):
        assert main([
            "sweep", "--scenarios", "pretrain,case1", "--seeds", "0",
            "--cache-dir", str(tmp_path / "cache"), "--dry-run",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 spec(s)" in out
        # The shared pre-training environment plans exactly one task.
        pretrain_tasks = [
            line for line in out.splitlines() if line.strip().startswith("pretrain:")
        ]
        assert len(pretrain_tasks) == 1
        assert "finetune:" in out

    def test_sweep_runs_and_rerun_hits_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "sweep", "--scenarios", "pretrain,case1", "--seeds", "0",
            "--epochs", "1", "--cache-dir", cache,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 failed" in first
        assert "manifest:" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        # Every task of the re-run is served from the artifact store.
        assert "8/8 task(s) done, 8 cache hit(s)" in second

    def test_sweep_spec_file(self, tmp_path, capsys):
        import json as json_module

        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json_module.dumps({
            "specs": [{
                "scenario": "pretrain", "scale": "smoke",
                "pretrain": {"epochs": 1, "batch_size": 32, "patience": None},
            }],
        }))
        assert main([
            "sweep", "--spec-file", str(spec_file), "--stages", "traces,bundle",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        assert "2/2 task(s) done" in capsys.readouterr().out

    def test_sweep_unknown_scenario_is_clean_error(self, tmp_path, capsys):
        assert main([
            "sweep", "--scenarios", "bogus", "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_unknown_stage_is_clean_error(self, tmp_path, capsys):
        assert main([
            "sweep", "--stages", "simulate", "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown stages" in err
        # The message lists the registered sweep stages, extensions included.
        for name in ("traces", "pretrain", "federated_pretrain", "drift_monitor"):
            assert name in err

    def test_sweep_registered_extension_stage_runs_and_hits_cache(
        self, tmp_path, capsys
    ):
        argv = [
            "sweep", "--scenarios", "pretrain", "--stages", "federated_pretrain",
            "--epochs", "1", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "1/1 task(s) done, 0 cache hit(s)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "1/1 task(s) done, 1 cache hit(s)" in capsys.readouterr().out

    def test_parallel_no_cache_rejected(self, capsys):
        assert main(["sweep", "--no-cache", "--workers", "2"]) == 2
        assert "artifact store" in capsys.readouterr().err


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "model.npz"])
        assert args.checkpoints == ["model.npz"]
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.precision == "float64"
        assert args.lru_size == 4
        assert args.max_batch_windows == 64
        assert args.max_wait_us == 2000.0

    def test_parser_accepts_multiple_models(self):
        args = build_parser().parse_args(["serve", "a.npz", "b.npz", "--port", "0"])
        assert args.checkpoints == ["a.npz", "b.npz"]

    def test_requires_at_least_one_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_missing_checkpoint_exits_2_before_binding(self, tmp_path, capsys):
        assert main([
            "serve", str(tmp_path / "nope.npz"), "--no-cache", "--port", "0",
        ]) == 2
        assert "repro: error" in capsys.readouterr().err

    def test_metadata_less_checkpoint_exits_2_before_binding(self, tmp_path, capsys):
        import numpy as np

        bare = tmp_path / "bare.npz"
        np.savez(bare, weight=np.zeros((2, 2)))
        assert main(["serve", str(bare), "--no-cache", "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "repro: error" in err
        assert "metadata" in err


class TestCommands:
    def test_simulate_prints_report(self, capsys):
        assert main(["simulate", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "delays (ms)" in out

    def test_simulate_saves_trace(self, tmp_path, capsys):
        output = tmp_path / "trace.npz"
        assert main(["simulate", "--scale", "smoke", "--output", str(output)]) == 0
        assert output.exists()
        from repro.netsim.trace import Trace

        assert len(Trace.load(output)) > 0

    def test_report_prints_dataset(self, capsys):
        assert main(["report", "--scale", "smoke"]) == 0
        assert "windows" in capsys.readouterr().out

    def test_pretrain_then_evaluate_roundtrip(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.npz"
        assert main([
            "pretrain", "--scale", "smoke", "--epochs", "1", "--output", str(checkpoint),
        ]) == 0
        assert checkpoint.exists()
        assert main([
            "evaluate", str(checkpoint), "--scale", "smoke", "--scenario", "case1",
        ]) == 0
        out = capsys.readouterr().out
        assert "checkpoint delay MSE" in out
        assert "baseline last_observed" in out


class TestTrace:
    def _manifest(self, tmp_path):
        """A minimal manifest carrying one campaign span tree."""
        manifest = {
            "campaign_id": "deadbeef",
            "observability": {
                "spans": [
                    {
                        "name": "campaign:deadbeef",
                        "start_us": 1_000.0,
                        "dur_us": 5_000.0,
                        "attrs": {},
                        "children": [
                            {
                                "name": "task:abc",
                                "start_us": 1_500.0,
                                "dur_us": 2_000.0,
                                "attrs": {"worker": 3},
                                "children": [],
                                "events": [],
                            }
                        ],
                        "events": [],
                    }
                ],
                "metrics": {},
            },
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_trace_exports_chrome_json(self, tmp_path, capsys):
        path = self._manifest(tmp_path)
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        output = tmp_path / "manifest.trace.json"
        assert str(output) in out
        trace = json.loads(output.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert names == {"campaign:deadbeef", "task:abc"}

    def test_trace_jsonl_sidecar(self, tmp_path):
        path = self._manifest(tmp_path)
        output = tmp_path / "out.trace.json"
        assert main(["trace", str(path), "--output", str(output), "--jsonl"]) == 0
        lines = [
            json.loads(line)
            for line in (tmp_path / "out.trace.spans.jsonl").read_text().splitlines()
        ]
        assert [(row["name"], row["depth"]) for row in lines] == [
            ("campaign:deadbeef", 0),
            ("task:abc", 1),
        ]

    def test_trace_without_spans_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"campaign_id": "x"}))
        assert main(["trace", str(path)]) == 2
        assert "no observability spans" in capsys.readouterr().err

    def test_trace_missing_manifest_is_clean_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err


class TestTop:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.url == "http://127.0.0.1:8080"
        assert args.interval == 2.0
        assert not args.once

    def test_unreachable_server_is_clean_error(self, capsys):
        assert main(["top", "--url", "http://127.0.0.1:1", "--once"]) == 2
        assert "cannot read" in capsys.readouterr().err
