"""Chaos tests: fault injection, retry policy, timeouts, journals, resume.

The fault harness (:mod:`repro.testing.faults`) is armed through the
``REPRO_FAULT_SPEC`` environment variable, which pool workers inherit —
so these tests exercise the *real* recovery paths: transient errors
retried on fresh attempts, hung workers reaped at their wall-clock
timeout, killed workers recovered through a pool respawn, and a
SIGKILLed engine resumed from its journal with bit-identical results.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import ArtifactStore, TrainSettings
from repro.runtime import (
    CampaignEngine,
    RetryPolicy,
    expand_grid,
    plan_campaign,
    read_journal,
    run_campaign,
)
from repro.testing import (
    FAULT_SPEC_ENV,
    FaultInjected,
    FaultRule,
    maybe_inject,
    parse_fault_spec,
)

FAST = TrainSettings(epochs=1, batch_size=32, patience=None)

REPO_ROOT = Path(__file__).resolve().parents[2]


def fast_specs(scenarios=("pretrain",), seeds=(0,), **common):
    return expand_grid(
        scenarios=scenarios, scales=["smoke"], seeds=seeds,
        pretrain=FAST, finetune=FAST, **common,
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture(autouse=True)
def unarmed(monkeypatch):
    """No test inherits a fault spec from the environment by accident."""
    monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)


class TestFaultSpecParsing:
    def test_single_rule(self):
        (rule,) = parse_fault_spec("pretrain@0:raise")
        assert rule == FaultRule(stage="pretrain", action="raise", attempt=0)

    def test_full_grammar(self):
        rules = parse_fault_spec("pretrain@0:raise, traces:hang:30 ,bundle@1:exit:9")
        assert rules == (
            FaultRule(stage="pretrain", action="raise", attempt=0),
            FaultRule(stage="traces", action="hang", arg=30.0),
            FaultRule(stage="bundle", action="exit", attempt=1, arg=9.0),
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "pretrain",                # no action
            "pretrain:explode",        # unknown action
            "pretrain@x:raise",        # non-integer attempt
            "pretrain@-1:raise",       # negative attempt
            "@0:raise",                # empty stage
            "pretrain:hang:soon",      # non-numeric arg
            "a:b:c:d",                 # too many fields
        ],
    )
    def test_bad_grammar_rejected(self, bad):
        with pytest.raises(ValueError, match="bad fault rule"):
            parse_fault_spec(bad)

    def test_unarmed_injection_is_a_noop(self):
        maybe_inject("traces", 0)  # must not raise

    def test_raise_fires_on_match(self, monkeypatch):
        monkeypatch.setenv(FAULT_SPEC_ENV, "traces@0:raise")
        with pytest.raises(FaultInjected):
            maybe_inject("traces", 0)
        maybe_inject("traces", 1)   # attempt filter
        maybe_inject("bundle", 0)   # stage filter

    def test_rule_without_attempt_fires_every_attempt(self, monkeypatch):
        monkeypatch.setenv(FAULT_SPEC_ENV, "traces:raise")
        for attempt in (0, 1, 5):
            with pytest.raises(FaultInjected):
                maybe_inject("traces", attempt)

    def test_hang_sleeps_then_raises(self, monkeypatch):
        monkeypatch.setenv(FAULT_SPEC_ENV, "traces@0:hang:0.01")
        with pytest.raises(FaultInjected, match="hang"):
            maybe_inject("traces", 0)


class TestRetryPolicy:
    def test_fatal_types_classified_fatal(self):
        policy = RetryPolicy()
        for name in ("ValueError", "TypeError", "KeyError", "AssertionError"):
            assert policy.classify(name) == "fatal"

    def test_runtime_errors_are_transient(self):
        policy = RetryPolicy()
        assert policy.classify("RuntimeError") == "transient"
        assert policy.classify("FaultInjected") == "transient"
        assert policy.classify(None) == "transient"

    def test_engine_classes_pass_through(self):
        policy = RetryPolicy()
        assert policy.classify("timeout") == "timeout"
        assert policy.classify("worker-lost") == "worker-lost"

    def test_should_retry_respects_class_and_budget(self):
        policy = RetryPolicy(retries=2)
        assert policy.should_retry("transient", 1)
        assert policy.should_retry("timeout", 2)
        assert not policy.should_retry("transient", 3)
        assert not policy.should_retry("fatal", 1)

    def test_default_backoff_matches_historical_formula(self):
        policy = RetryPolicy()
        entropy, spawn_key = 123, (4,)
        for attempt in (1, 2, 3, 4, 5):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
            )
            expected = min(0.25 * 2 ** (attempt - 1), 2.0) + float(
                rng.uniform(0.0, 0.25, size=attempt)[-1]
            )
            assert policy.backoff_s(entropy, spawn_key, attempt) == expected

    def test_backoff_is_deterministic_in_attempt(self):
        policy = RetryPolicy()
        first = policy.backoff_s(7, (1,), 2)
        again = policy.backoff_s(7, (1,), 2)
        assert first == again
        assert policy.backoff_s(7, (2,), 2) != first  # task-keyed

    def test_payload_roundtrip(self):
        policy = RetryPolicy(retries=3, backoff_base_s=0.1, backoff_cap_s=1.0,
                             jitter_cap_s=0.05)
        assert RetryPolicy.from_payload(policy.to_payload()) == policy

    def test_missing_payload_gives_default(self):
        assert RetryPolicy.from_payload(None) == RetryPolicy()

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)


class TestJournal:
    def test_journal_path_lives_under_manifests(self, store):
        path = store.journal_path("abc123")
        assert path.name == "abc123.journal.jsonl"
        assert path.parent == store.root / "manifests"

    def test_scratch_dir_created(self, store):
        scratch = store.scratch_dir("heartbeats", "abc123")
        assert scratch.is_dir()
        assert scratch == store.root / "scratch" / "heartbeats" / "abc123"

    def test_completed_run_writes_valid_journal(self, store):
        result = run_campaign(fast_specs(), store=store)
        path = store.journal_path(result.manifest["campaign_id"])
        assert path.exists()
        lines = path.read_text().splitlines()
        entries = [json.loads(line) for line in lines]  # every line valid JSON
        assert entries[0]["type"] == "campaign"
        assert entries[-1]["type"] == "complete"
        state = read_journal(path)
        assert not state.torn_tail
        assert state.header["campaign_id"] == result.manifest["campaign_id"]
        assert state.header["stages"]  # resumable plan records its stages
        assert set(state.done_records()) == set(result.results)
        assert state.completed["summary"] == result.summary

    def test_journal_strips_telemetry(self, store):
        result = run_campaign(fast_specs(), store=store, stages=("trace_stats",))
        state = read_journal(store.journal_path(result.manifest["campaign_id"]))
        for record in state.records.values():
            assert "spans" not in record
            assert "metrics" not in record

    def test_torn_tail_tolerated(self, store):
        result = run_campaign(fast_specs(), store=store)
        path = store.journal_path(result.manifest["campaign_id"])
        whole = read_journal(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "task", "id": "tru')  # crash mid-write
        state = read_journal(path)
        assert state.torn_tail
        assert state.done_records() == whole.done_records()


class TestChaosPool:
    """Injected faults against a real 2-worker pool."""

    def test_transient_fault_retried_to_success(self, store, monkeypatch):
        monkeypatch.setenv(FAULT_SPEC_ENV, "trace_stats@0:raise")
        engine = CampaignEngine(store=store, workers=2, retries=1)
        result = engine.run(plan_campaign(fast_specs(seeds=(0, 1)), stages=("trace_stats",)))
        assert result.ok
        for row in result.manifest["tasks"]:
            assert row["attempts"] == 2
            assert row["failures"] == [
                {"attempt": 0, "error_class": "transient", "error_type": "FaultInjected"}
            ]

    def test_exhausted_retries_settle_as_error(self, store, monkeypatch):
        monkeypatch.setenv(FAULT_SPEC_ENV, "trace_stats:raise")  # every attempt
        engine = CampaignEngine(store=store, workers=2, retries=1)
        result = engine.run(plan_campaign(fast_specs(seeds=(0, 1)), stages=("trace_stats",)))
        assert not result.ok
        for row in result.manifest["tasks"]:
            assert row["status"] == "error"
            assert row["attempts"] == 2
            assert row["error_class"] == "transient"

    def test_fatal_error_not_retried(self, monkeypatch):
        from repro.api.stages import STAGE_REGISTRY

        def broken(experiment, inputs, params):
            raise ValueError("contract violation: fails identically every attempt")

        monkeypatch.setattr(STAGE_REGISTRY.get("trace_stats"), "run", broken)
        result = run_campaign(fast_specs(), stages=("trace_stats",), store=None, retries=3)
        assert not result.ok
        (row,) = result.manifest["tasks"]
        assert row["attempts"] == 1  # fatal: the retry budget is not spent
        assert row["error_class"] == "fatal"

    def test_killed_worker_recovered_by_pool_respawn(self, store, monkeypatch):
        monkeypatch.setenv(FAULT_SPEC_ENV, "trace_stats@0:exit")
        engine = CampaignEngine(store=store, workers=2, retries=1)
        result = engine.run(plan_campaign(fast_specs(seeds=(0, 1)), stages=("trace_stats",)))
        assert result.ok
        names = [event["event"] for event in result.manifest["events"]]
        assert "runtime.worker_lost" in names
        assert "runtime.pool_respawned" in names
        for row in result.manifest["tasks"]:
            assert row["status"] == "done"
            assert any(f["error_class"] == "worker-lost" for f in row["failures"])

    def test_hung_task_reaped_and_retried(self, store, monkeypatch):
        monkeypatch.setenv(FAULT_SPEC_ENV, "trace_stats@0:hang:60")
        engine = CampaignEngine(
            store=store, workers=2, retries=1,
            task_timeout_s=2.0, heartbeat_interval_s=0.2,
        )
        result = engine.run(plan_campaign(fast_specs(seeds=(0, 1)), stages=("trace_stats",)))
        assert result.ok
        names = [event["event"] for event in result.manifest["events"]]
        assert "runtime.task_timeout" in names
        for row in result.manifest["tasks"]:
            assert row["status"] == "done"
            assert any(f["error_class"] == "timeout" for f in row["failures"])

    def test_timeout_knob_resolution(self, store):
        specs = fast_specs(stage_params={"trace_stats": {"timeout_s": 1.5}})
        plan = plan_campaign(specs, stages=("trace_stats",))
        (task,) = plan.ordered()
        assert CampaignEngine(store=store)._task_timeout(task) == 1.5
        # The stage knob overrides the engine default; unknobbed stages
        # fall back to it.
        engine = CampaignEngine(store=store, task_timeout_s=7.0)
        assert engine._task_timeout(task) == 1.5
        (plain,) = plan_campaign(fast_specs(), stages=("trace_stats",)).ordered()
        assert engine._task_timeout(plain) == 7.0
        assert CampaignEngine(store=store)._task_timeout(plain) is None

    def test_engine_timeout_never_enters_task_payloads(self, store):
        # The engine default is resolved at execution time, so tuning it
        # can never change a task id, cache key or worker payload.
        plan = plan_campaign(fast_specs(), stages=("trace_stats",))
        (task,) = plan.ordered()
        engine = CampaignEngine(store=store, task_timeout_s=7.0)
        payload = engine._payload(plan, task, str(store.root), 0, {})
        assert "timeout_s" not in payload["params"]


class TestCrashAndResume:
    def _engine_killed_mid_campaign(self, store_path):
        """Run a serial campaign in a subprocess whose evaluate stage
        ``os._exit``\\ s the engine process — the hardest crash there is."""
        script = (
            "from repro.api import ArtifactStore, TrainSettings\n"
            "from repro.runtime import expand_grid, run_campaign\n"
            "fast = TrainSettings(epochs=1, batch_size=32, patience=None)\n"
            "specs = expand_grid(scenarios=['pretrain'], scales=['smoke'],\n"
            "                    seeds=[0], pretrain=fast, finetune=fast)\n"
            f"run_campaign(specs, store=ArtifactStore({str(store_path)!r}))\n"
        )
        env = {
            **os.environ,
            FAULT_SPEC_ENV: "evaluate@0:exit:17",
            "PYTHONPATH": str(REPO_ROOT / "src"),
        }
        return subprocess.run(
            [sys.executable, "-c", script],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
        )

    def test_sigkilled_engine_leaves_valid_journal_and_resumes(self, tmp_path):
        store_path = tmp_path / "cache"
        proc = self._engine_killed_mid_campaign(store_path)
        assert proc.returncode == 17, proc.stderr

        store = ArtifactStore(store_path)
        (path,) = (store.root / "manifests").glob("*.journal.jsonl")
        for line in path.read_text().splitlines():
            json.loads(line)  # valid JSONL all the way down
        state = read_journal(path)
        assert not state.torn_tail
        assert state.header is not None
        assert state.completed is None  # the run never closed
        done = state.done_records()
        assert set(record["stage"] for record in done.values()) == {
            "traces", "bundle", "pretrain",
        }

        # Resume re-executes only the evaluate task...
        engine = CampaignEngine(store=store)
        result = engine.resume(state.header["campaign_id"])
        assert result.ok
        assert result.summary["total"] == 4
        assert result.summary["executed"] == 1
        assert sorted(result.manifest["resumed_tasks"]) == sorted(done)

        # ...and lands bit-identical to a fault-free serial run.
        fresh = run_campaign(fast_specs(), store=ArtifactStore(tmp_path / "fresh"))
        assert set(result.results) == set(fresh.results)
        for task_id, payload in fresh.results.items():
            if task_id.startswith("evaluate:"):
                assert result.results[task_id] == payload

    def test_resume_of_completed_campaign_replays_everything(self, store):
        first = run_campaign(fast_specs(), store=store)
        result = CampaignEngine(store=store).resume(first.manifest["campaign_id"])
        assert result.ok
        assert result.summary["executed"] == 0
        assert len(result.manifest["resumed_tasks"]) == first.summary["total"]
        assert result.results == first.results

    def test_resume_without_journal_raises(self, store):
        with pytest.raises(ValueError, match="no journal"):
            CampaignEngine(store=store).resume("deadbeef")

    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            CampaignEngine(store=None).resume("deadbeef")

    def test_engine_crash_writes_crashed_manifest(self, store, monkeypatch):
        def boom(payload, experiment=None):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.runtime.engine.run_task", boom)
        plan = plan_campaign(fast_specs())
        with pytest.raises(KeyboardInterrupt):
            CampaignEngine(store=store).run(plan)
        manifest = store.get_manifest(plan.campaign_id)
        assert manifest["status"] == "crashed"
        assert manifest["summary"]["pending"] == len(plan)
        state = read_journal(store.journal_path(plan.campaign_id))
        assert state.completed["status"] == "crashed"


class TestResumeCLI:
    def test_missing_journal_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["resume", "deadbeef", "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "no journal" in capsys.readouterr().err

    def test_cli_resume_completes_campaign(self, store, capsys):
        first = run_campaign(fast_specs(), store=store, stages=("trace_stats",))
        from repro.cli import main

        code = main([
            "resume", first.manifest["campaign_id"],
            "--cache-dir", str(store.root),
        ])
        assert code == 0
        assert "resumed" in capsys.readouterr().out


#: Fields that record how long something took, not what it computed.
_TIMING_FIELDS = ("training_time_s", "wall_time", "training_time")


def _without_timing(value):
    if isinstance(value, dict):
        return {
            key: _without_timing(item)
            for key, item in value.items()
            if key not in _TIMING_FIELDS
        }
    if isinstance(value, list):
        return [_without_timing(item) for item in value]
    return value


def _artifact_contents(root: Path) -> dict:
    """Every stored artifact (campaign records excluded), its npz arrays
    as raw bytes and its JSON minus timing fields."""
    contents = {}
    for path in sorted(root.rglob("*")):
        relative = path.relative_to(root)
        if not path.is_file() or relative.parts[0] == "manifests":
            continue
        if path.suffix == ".npz":
            with np.load(path) as data:
                contents[str(relative)] = {
                    name: _without_timing(json.loads(data[name].tobytes()))
                    if name == "__meta__"
                    else (data[name].dtype.str, data[name].shape, data[name].tobytes())
                    for name in data.files
                }
        else:
            contents[str(relative)] = _without_timing(json.loads(path.read_text()))
    return contents


class TestTableResume:
    def test_interrupted_table_resumes_bit_identically(self, tmp_path, monkeypatch):
        from repro.api import ExperimentSpec
        from repro.core.pipeline import (
            ExperimentContext,
            run_table2,
            table_rows,
            table_specs,
        )
        from repro.runtime import spec_for_scale

        scale = ExperimentSpec(scale="smoke", pretrain=FAST, finetune=FAST).to_scale()
        spec = spec_for_scale(scale)
        store = ArtifactStore(tmp_path / "faulted")
        engine = CampaignEngine(store=store, retries=0)
        monkeypatch.setenv(FAULT_SPEC_ENV, "scratch@0:raise")
        with pytest.raises(RuntimeError, match="scratch"):
            run_table2(scale, ExperimentContext(scale, store=store), engine=engine)
        monkeypatch.delenv(FAULT_SPEC_ENV)

        campaign_id = plan_campaign(table_specs(2, spec)).campaign_id
        state = read_journal(store.journal_path(campaign_id))
        assert state.header["stages"] is not None
        assert {record["stage"] for record in state.records.values()
                if record["status"] == "error"} == {"scratch"}
        resumed = engine.resume(campaign_id)
        assert resumed.ok
        assert resumed.manifest["resumed_tasks"]

        fresh_store = ArtifactStore(tmp_path / "fresh")
        fresh_rows = run_table2(scale, ExperimentContext(scale, store=fresh_store))
        rows = table_rows(2, spec, resumed)
        assert _without_timing(rows) == _without_timing(fresh_rows)
        artifacts = _artifact_contents(store.root)
        assert sum(name.startswith("checkpoints") for name in artifacts) == 5
        assert artifacts == _artifact_contents(fresh_store.root)
