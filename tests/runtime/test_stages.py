"""Tests for the first-class Stage API: registry semantics, golden key
stability across the redesign, and custom stages riding the engine."""

import pytest

from repro.api import ArtifactStore, ExperimentSpec, TrainSettings
from repro.api.hashing import stable_hash
from repro.api.stages import STAGE_REGISTRY, StageRegistry, inputs_by_stage
from repro.runtime import CampaignEngine, plan_campaign, run_campaign

FAST = TrainSettings(epochs=1, batch_size=32, patience=None)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture
def custom_stage():
    """Register a throwaway stage for the duration of one test."""

    registered = []

    def install(name, run, **options):
        STAGE_REGISTRY.register(name, **options)(run)
        registered.append(name)
        return STAGE_REGISTRY.get(name)

    yield install
    for name in registered:
        STAGE_REGISTRY._entries.pop(name, None)


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("traces", "bundle", "pretrain", "finetune", "evaluate",
                     "scratch", "baselines", "trace_stats"):
            assert name in STAGE_REGISTRY

    def test_extension_stages_registered(self):
        assert "federated_pretrain" in STAGE_REGISTRY
        assert "drift_monitor" in STAGE_REGISTRY
        assert "federated_pretrain" in STAGE_REGISTRY.sweep_stages()

    def test_default_pipeline_matches_legacy_tuple(self):
        assert STAGE_REGISTRY.default_pipeline() == (
            "traces", "bundle", "pretrain", "finetune", "evaluate",
        )

    def test_stage_sets_nest(self):
        default = STAGE_REGISTRY.default_pipeline()
        sweep = STAGE_REGISTRY.sweep_stages()
        every = STAGE_REGISTRY.all_stages()
        assert set(default) <= set(sweep) <= set(every)
        # The tables' stages are ordinary, sweepable stages.
        assert "scratch" in every and "scratch" in sweep

    def test_duplicate_registration_rejected(self):
        fresh = StageRegistry()
        fresh.register("x")(lambda e, i, p: (False, {}))
        with pytest.raises(ValueError, match="already registered"):
            fresh.register("x")(lambda e, i, p: (False, {}))
        fresh.register("x", replace_existing=True)(lambda e, i, p: (True, {}))

    def test_unknown_stage_error_lists_registered_names(self):
        with pytest.raises(ValueError, match="registered stages") as excinfo:
            STAGE_REGISTRY.get("bogus")
        assert "traces" in str(excinfo.value)

    def test_version_zero_is_key_identity(self):
        assert STAGE_REGISTRY.get("traces").versioned_key("abc123") == "abc123"

    def test_nonzero_version_mixes_into_key(self, custom_stage):
        entry = custom_stage("vtest", lambda e, i, p: (False, {}), version=3)
        versioned = entry.versioned_key("abc123")
        assert versioned != "abc123"
        assert versioned == stable_hash(
            {"stage": "vtest", "stage_version": 3, "base": "abc123"}
        )
        # Bumping the version moves the key again (per-stage invalidation).
        entry.version = 4
        assert entry.versioned_key("abc123") != versioned

    def test_registry_complete_after_api_import(self):
        # `import repro.api` must register built-ins AND extensions:
        # STAGE_REGISTRY is re-exported as the public plugin surface.
        import repro.api as api

        assert api.STAGE_REGISTRY.default_pipeline() == (
            "traces", "bundle", "pretrain", "finetune", "evaluate",
        )

    def test_bundle_version_bump_moves_hit_accounting_with_storage(
        self, monkeypatch, store
    ):
        # The bundle stage's manifest hit-detection recomputes its key
        # inline; after a version bump it must track the storage path
        # (a stale unversioned artifact may not read as a cache hit).
        spec = ExperimentSpec(scenario="pretrain", scale="smoke", pretrain=FAST)
        first = run_campaign([spec], stages=("traces", "bundle"), store=store)
        assert first.ok
        entry = STAGE_REGISTRY.get("bundle")
        monkeypatch.setattr(entry, "version", 1)
        second = run_campaign([spec], stages=("traces", "bundle"), store=store)
        rows = {row["stage"]: row for row in second.manifest["tasks"]}
        assert rows["traces"]["cache_hit"] is True  # untouched stage still hits
        assert rows["bundle"]["cache_hit"] is False  # invalidated by the bump
        third = run_campaign([spec], stages=("traces", "bundle"), store=store)
        assert third.summary["cache_hits"] == third.summary["total"]

    def test_inputs_by_stage_groups_task_ids(self):
        grouped = inputs_by_stage({
            "traces:aaa": {"n": 1},
            "bundle:bbb": {"m": 2},
            "bundle:ccc": {"m": 3},
        })
        assert grouped["traces"] == {"n": 1}
        assert sorted(row["m"] for row in grouped["bundle"]) == [2, 3]


class TestGoldenKeyStability:
    """The redesign must not invalidate any existing artifact: planning
    the built-in pipeline produces byte-identical store keys to the
    pre-Stage-API planner (captured from the last pre-redesign commit).
    """

    GOLDEN = {
        ("case1", "smoke"): [
            ("traces:8d9892dc3ea5", "traces", "8d9892dc3ea52469"),
            ("bundle:f60fde6a70c6", "bundles", "f60fde6a70c602f7"),
            ("pretrain:c9ab0628125d", "checkpoints", "c9ab0628125d7278"),
            ("traces:bc9889e364a3", "traces", "bc9889e364a31f73"),
            ("bundle:d987a0e30227", "bundles", "d987a0e30227fc23"),
            ("finetune:dd4463924697", "checkpoints", "dd44639246973b24"),
            ("evaluate:084946ccc135", "evaluations", "084946ccc1352f1a"),
        ],
        ("pretrain", "small"): [
            ("traces:982437d1bef7", "traces", "982437d1bef7f194"),
            ("bundle:54d60887c6eb", "bundles", "54d60887c6eba5a4"),
            ("pretrain:ff4ba8fdb16d", "checkpoints", "ff4ba8fdb16d2e22"),
            ("evaluate:75ce60998ab3", "evaluations", "75ce60998ab39767"),
        ],
        ("case2", "smoke"): [
            ("traces:8d9892dc3ea5", "traces", "8d9892dc3ea52469"),
            ("bundle:f60fde6a70c6", "bundles", "f60fde6a70c602f7"),
            ("pretrain:c9ab0628125d", "checkpoints", "c9ab0628125d7278"),
            ("traces:cdc439674535", "traces", "cdc4396745350d9c"),
            ("bundle:0de5c536e010", "bundles", "0de5c536e01027bc"),
            ("finetune:2ff081a2039c", "checkpoints", "2ff081a2039c327f"),
            ("evaluate:d3a534e02a51", "evaluations", "d3a534e02a518384"),
        ],
    }

    SPEC_HASHES = {
        ("case1", "smoke"): "c5aeb216d8cdf1b9",
        ("pretrain", "small"): "0ea78f1590f66fc4",
        ("case2", "smoke"): "5ef79c9d663a6011",
    }

    @pytest.mark.parametrize("scenario,scale", sorted(GOLDEN))
    def test_default_pipeline_keys_unchanged(self, scenario, scale):
        plan = plan_campaign([ExperimentSpec(scenario=scenario, scale=scale, seed=0)])
        got = [(task.id, task.kind, task.key) for task in plan.ordered()]
        assert got == self.GOLDEN[(scenario, scale)]

    @pytest.mark.parametrize("scenario,scale", sorted(SPEC_HASHES))
    def test_spec_hashes_unchanged(self, scenario, scale):
        spec = ExperimentSpec(scenario=scenario, scale=scale, seed=0)
        assert spec.spec_hash == self.SPEC_HASHES[(scenario, scale)]


def _digest_key(spec, params):
    return stable_hash(
        {
            "artifact": "trace_digest",
            "scenario": spec.scenario_config(),
            "n_runs": spec.to_scale().n_runs,
            "quantile": float(params.get("quantile", 0.99)),
        }
    )


def _run_digest(experiment, inputs, params):
    store, key = experiment.store, params.get("key")
    if store is not None and key is not None:
        cached = store.get_json("evaluations", key)
        if cached is not None:
            return True, cached
    import numpy as np

    traces = experiment.traces()
    delays = np.concatenate([trace.delay for trace in traces])
    payload = {
        "packets": int(sum(len(trace) for trace in traces)),
        "quantile": float(params.get("quantile", 0.99)),
        "delay_quantile_ms": float(
            np.quantile(delays, float(params.get("quantile", 0.99))) * 1e3
        ),
        "upstream": inputs_by_stage(inputs).get("traces"),
    }
    if store is not None and key is not None:
        store.put_json("evaluations", key, payload)
    return False, payload


class TestCustomStageThroughEngine:
    def _spec(self, **kwargs):
        return ExperimentSpec(
            scenario="pretrain", scale="smoke", pretrain=FAST, finetune=FAST, **kwargs
        )

    def test_plans_with_declared_deps_and_versioned_key(self, custom_stage):
        custom_stage(
            "trace_digest", _run_digest, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        spec = self._spec()
        plan = plan_campaign([spec], stages=("trace_digest",))
        stages = {task.stage for task in plan.ordered()}
        assert stages == {"traces", "trace_digest"}
        (digest,) = [t for t in plan.ordered() if t.stage == "trace_digest"]
        assert digest.deps and digest.deps[0].startswith("traces:")
        # The planned key is the versioned form of the stage's key_fn.
        entry = STAGE_REGISTRY.get("trace_digest")
        assert digest.key == entry.versioned_key(_digest_key(spec, {}))

    def test_caches_and_receives_inputs(self, custom_stage, store):
        custom_stage(
            "trace_digest", _run_digest, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        first = run_campaign([self._spec()], stages=("trace_digest",), store=store)
        assert first.ok and first.summary["cache_hits"] == 0
        (digest_id,) = [t for t in first.results if t.startswith("trace_digest:")]
        # Dependency results flowed in through the stage's inputs.
        assert first.results[digest_id]["upstream"]["n_runs"] == 1
        assert first.results[digest_id]["delay_quantile_ms"] > 0
        second = run_campaign([self._spec()], stages=("trace_digest",), store=store)
        assert second.summary["cache_hits"] == second.summary["total"]
        assert second.results[digest_id]["packets"] == first.results[digest_id]["packets"]

    def test_dedupes_across_specs_sharing_a_key(self, custom_stage, store):
        custom_stage(
            "trace_digest", _run_digest, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        # Same scenario, different fine_fraction: spec hashes differ but
        # the digest key (scenario + n_runs + params) is shared.
        specs = [self._spec(), self._spec(fine_fraction=0.5)]
        assert specs[0].spec_hash != specs[1].spec_hash
        plan = plan_campaign(specs, stages=("trace_digest",))
        digests = [t for t in plan.ordered() if t.stage == "trace_digest"]
        assert len(digests) == 1
        assert len(digests[0].spec_hashes) == 2

    def test_stage_params_split_tasks_and_flow_through(self, custom_stage, store):
        custom_stage(
            "trace_digest", _run_digest, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        specs = [
            self._spec(stage_params={"trace_digest": {"quantile": 0.5}}),
            self._spec(stage_params={"trace_digest": {"quantile": 0.999}}),
        ]
        plan = plan_campaign(specs, stages=("trace_digest",))
        digests = [t for t in plan.ordered() if t.stage == "trace_digest"]
        assert len(digests) == 2  # distinct params → distinct keys
        result = run_campaign(specs, stages=("trace_digest",), store=store)
        assert result.ok
        quantiles = sorted(
            row["quantile"] for tid, row in result.results.items()
            if tid.startswith("trace_digest:")
        )
        assert quantiles == [0.5, 0.999]

    def test_retries_through_engine(self, custom_stage, tmp_path, store):
        marker = tmp_path / "failures-left"
        marker.write_text("1")

        def flaky(experiment, inputs, params):
            remaining = int(marker.read_text())
            if remaining > 0:
                marker.write_text(str(remaining - 1))
                raise RuntimeError("synthetic custom-stage failure")
            return _run_digest(experiment, inputs, params)

        custom_stage(
            "trace_digest", flaky, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        result = run_campaign(
            [self._spec()], stages=("trace_digest",), store=store, retries=1
        )
        assert result.ok
        (row,) = [r for r in result.manifest["tasks"] if r["stage"] == "trace_digest"]
        assert row["attempts"] == 2

    def test_spec_pipeline_overrides_campaign_stages(self, custom_stage):
        custom_stage(
            "trace_digest", _run_digest, deps=("traces",), version=2,
            kind="evaluations", key_fn=_digest_key,
        )
        spec = self._spec(pipeline=("trace_digest",))
        plan = plan_campaign([spec])  # default stages ignored for this spec
        assert {task.stage for task in plan.ordered()} == {"traces", "trace_digest"}

    def test_unknown_pipeline_stage_rejected_with_registered_names(self):
        spec = self._spec(pipeline=("not_a_stage",))
        with pytest.raises(ValueError, match="unknown stages") as excinfo:
            plan_campaign([spec])
        assert "traces" in str(excinfo.value)

    def test_table_stage_sweeps_with_its_dependencies(self):
        plan = plan_campaign([self._spec()], stages=("scratch",))
        assert [task.stage for task in plan.ordered()] == [
            "traces", "bundle", "pretrain", "scratch",
        ]


class TestExecuteStageErrors:
    def test_unknown_stage_lists_registered_names(self):
        from repro.api import Experiment
        from repro.runtime import execute_stage

        experiment = Experiment.uncached(
            ExperimentSpec(scenario="pretrain", scale="smoke")
        )
        with pytest.raises(ValueError, match="registered stages") as excinfo:
            execute_stage("warp_drive", experiment, {})
        assert "pretrain" in str(excinfo.value)
