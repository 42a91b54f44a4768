"""Tests for the campaign engine: execution, retries, skips, manifest."""

import pytest

from repro.api import ArtifactStore, ExperimentSpec, TrainSettings
from repro.api.stages import STAGE_REGISTRY
from repro.runtime import CampaignEngine, expand_grid, plan_campaign, run_campaign

FAST = TrainSettings(epochs=1, batch_size=32, patience=None)


def fast_specs(scenarios=("pretrain",), seeds=(0,)):
    return expand_grid(
        scenarios=scenarios, scales=["smoke"], seeds=seeds, pretrain=FAST, finetune=FAST
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestSerialExecution:
    def test_full_chain_without_store(self):
        result = run_campaign(fast_specs(["case1"]), store=None)
        assert result.ok
        assert result.summary == {
            "total": 7, "done": 7, "failed": 0, "skipped": 0,
            "cache_hits": 0, "executed": 7,
        }
        assert result.manifest_path is None

    def test_manifest_written_through_store(self, store):
        result = run_campaign(fast_specs(), store=store)
        assert result.manifest_path is not None
        stored = store.get_manifest(result.manifest["campaign_id"])
        assert stored["summary"] == result.summary
        assert {row["stage"] for row in stored["tasks"]} == {
            "traces", "bundle", "pretrain", "evaluate",
        }

    def test_rerun_serves_everything_from_store(self, store):
        first = run_campaign(fast_specs(["case1"]), store=store)
        assert first.summary["cache_hits"] == 0
        second = run_campaign(fast_specs(["case1"]), store=store)
        assert second.summary["cache_hits"] == second.summary["total"]
        assert second.summary["executed"] == 0
        # Cached metrics match the freshly computed ones exactly.
        for task_id, payload in first.results.items():
            if "test_mse" in payload:
                assert second.results[task_id]["test_mse"] == payload["test_mse"]

    def test_evaluate_results_include_baselines(self, store):
        result = run_campaign(fast_specs(["case1"]), store=store)
        evaluations = [
            payload for task_id, payload in result.results.items()
            if task_id.startswith("evaluate:")
        ]
        assert evaluations
        for row in evaluations:
            assert row["model_mse"] >= 0
            assert "ewma" in row["baselines"]


class TestFailureHandling:
    @pytest.fixture
    def flaky_stage(self, monkeypatch, tmp_path):
        """A trace_stats stage that fails on its first N calls."""
        marker = tmp_path / "failures-left"

        def install(failures: int):
            marker.write_text(str(failures))
            entry = STAGE_REGISTRY.get("trace_stats")
            original = entry.run

            def stage(experiment, inputs, params):
                remaining = int(marker.read_text())
                if remaining > 0:
                    marker.write_text(str(remaining - 1))
                    raise RuntimeError("synthetic stage failure")
                return original(experiment, inputs, params)

            monkeypatch.setattr(entry, "run", stage)

        return install

    def test_retry_recovers(self, flaky_stage):
        flaky_stage(1)
        result = run_campaign(fast_specs(), stages=("trace_stats",), store=None, retries=1)
        assert result.ok
        (row,) = result.manifest["tasks"]
        assert row["attempts"] == 2

    def test_exhausted_retries_fail(self, flaky_stage):
        flaky_stage(5)
        result = run_campaign(fast_specs(), stages=("trace_stats",), store=None, retries=1)
        assert not result.ok
        (row,) = result.manifest["tasks"]
        assert row["status"] == "error"
        assert "synthetic stage failure" in row["error"]
        assert row["attempts"] == 2

    def test_failed_dependency_skips_downstream(self, monkeypatch, store):
        def broken(experiment, inputs, params):
            raise RuntimeError("simulator exploded")

        monkeypatch.setattr(STAGE_REGISTRY.get("traces"), "run", broken)
        result = run_campaign(fast_specs(), store=store, retries=0)
        statuses = {row["id"]: row["status"] for row in result.manifest["tasks"]}
        assert sorted(statuses.values()) == ["error", "skipped", "skipped", "skipped"]
        skipped = [row for row in result.manifest["tasks"] if row["status"] == "skipped"]
        assert all("skipped_because" in row for row in skipped)
        assert not result.ok

    def test_failed_table_campaign_raises(self, monkeypatch, store):
        from repro.core.pipeline import ExperimentContext, get_scale, run_table2

        def broken(experiment, inputs, params):
            raise RuntimeError("simulator exploded")

        monkeypatch.setattr(STAGE_REGISTRY.get("traces"), "run", broken)
        context = ExperimentContext(get_scale("smoke"), store=store)
        with pytest.raises(RuntimeError, match="campaign failed"):
            run_table2(get_scale("smoke"), context)


class TestEngineConfiguration:
    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            CampaignEngine(store=None, workers=0)

    def test_invalid_retries_rejected(self):
        with pytest.raises(ValueError):
            CampaignEngine(store=None, retries=-1)

    def test_storeless_pool_downgrades_to_serial(self):
        engine = CampaignEngine(store=None, workers=4)
        plan = plan_campaign(fast_specs(["case1"]))
        assert engine.effective_workers(plan.ordered()) == 1

    def test_storeless_downgrade_warns_and_lands_in_manifest(self):
        engine = CampaignEngine(store=None, workers=4)
        plan = plan_campaign(fast_specs(["case1"]))
        with pytest.warns(RuntimeWarning, match="runs serially"):
            result = engine.run(plan)
        assert result.ok
        assert result.manifest["downgraded_to_serial"] is True
        assert result.manifest["workers"] == 1

    def test_no_downgrade_flag_when_store_present(self, store):
        result = run_campaign(fast_specs(), store=store)
        assert result.manifest["downgraded_to_serial"] is False

    def test_storeless_trace_stats_pool_does_not_warn(self, recwarn):
        engine = CampaignEngine(store=None, workers=2)
        plan = plan_campaign(fast_specs(["pretrain", "case1"]), stages=("trace_stats",))
        result = engine.run(plan)
        assert result.ok
        assert result.manifest["downgraded_to_serial"] is False
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_storeless_independent_tasks_keep_pool(self):
        engine = CampaignEngine(store=None, workers=2)
        plan = plan_campaign(fast_specs(["pretrain", "case1"]), stages=("trace_stats",))
        assert engine.effective_workers(plan.ordered()) == 2

    def test_workers_capped_by_plan_size(self, store):
        engine = CampaignEngine(store=store, workers=32)
        plan = plan_campaign(fast_specs())
        assert engine.effective_workers(plan.ordered()) == len(plan)

    def test_shared_context_rejected_for_multi_spec_plans(self):
        # The second spec of the plan disagrees with the context's seed.
        from repro.core.pipeline import ExperimentContext

        plan = plan_campaign(fast_specs(seeds=(0, 1)))
        context = ExperimentContext(plan.specs[0].to_scale(), seed=0)
        with pytest.raises(ValueError, match="seed"):
            CampaignEngine(store=None).run(plan, context=context)

    def test_shared_context_accepts_agreeing_multi_spec_plans(self, store):
        # A context binds one seed and scale; specs that differ only in
        # scenario or stage selection (a table's family) share it.
        from repro.core.pipeline import ExperimentContext

        specs = fast_specs(["pretrain", "case1"])
        plan = plan_campaign(specs, stages=("traces",))
        context = ExperimentContext(specs[0].to_scale(), store=store)
        result = CampaignEngine(store=store).run(plan, context=context)
        assert result.ok
        assert result.summary["done"] == 2

    def test_shared_context_seed_mismatch_rejected(self):
        from repro.core.pipeline import ExperimentContext, get_scale

        plan = plan_campaign(fast_specs(seeds=(1,)))
        context = ExperimentContext(get_scale("smoke"), seed=0)
        with pytest.raises(ValueError, match="seed"):
            CampaignEngine(store=None).run(plan, context=context)

    def test_shared_context_scale_mismatch_rejected(self, store):
        # A smoke-trained context bound to a small-scale plan would
        # persist smoke artifacts under small-scale cache keys.
        from repro.core.pipeline import ExperimentContext, get_scale, table_specs
        from repro.runtime import spec_for_scale

        plan = plan_campaign(table_specs(2, spec_for_scale(get_scale("small"))))
        context = ExperimentContext(get_scale("smoke"), store=store)
        with pytest.raises(ValueError, match="scale"):
            CampaignEngine(store=store).run(plan, context=context)
