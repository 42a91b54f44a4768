"""Tests for campaign planning: dedup, dependencies, seeds, tables."""

import pytest

from repro.api import ExperimentSpec
from repro.runtime import expand_grid, plan_campaign, spec_for_scale
from repro.core.pipeline import TABLE1_VARIANTS, get_scale, table_specs


def stages_of(plan):
    from collections import Counter

    return Counter(task.stage for task in plan.ordered())


class TestPlanCampaign:
    def test_single_pretrain_spec_chain(self):
        plan = plan_campaign([ExperimentSpec(scenario="pretrain", scale="smoke")])
        assert stages_of(plan) == {"traces": 1, "bundle": 1, "pretrain": 1, "evaluate": 1}

    def test_finetune_scenario_adds_both_chains(self):
        plan = plan_campaign([ExperimentSpec(scenario="case1", scale="smoke")])
        assert stages_of(plan) == {
            "traces": 2, "bundle": 2, "pretrain": 1, "finetune": 1, "evaluate": 1,
        }

    def test_shared_pretrain_deduplicates(self):
        specs = expand_grid(scenarios=["pretrain", "case1"], scales=["smoke"], seeds=[0])
        plan = plan_campaign(specs)
        counts = stages_of(plan)
        assert counts["pretrain"] == 1  # shared environment plans once
        (pretrain,) = [t for t in plan.ordered() if t.stage == "pretrain"]
        assert len(pretrain.spec_hashes) == 2

    def test_different_seeds_do_not_share(self):
        specs = expand_grid(scenarios=["pretrain"], scales=["smoke"], seeds=[0, 1])
        assert stages_of(plan_campaign(specs))["pretrain"] == 2

    def test_dependencies_precede_dependents(self):
        specs = expand_grid(scenarios=["case1", "case2"], scales=["smoke"], seeds=[0, 1])
        plan = plan_campaign(specs)
        seen = set()
        for task in plan.ordered():
            assert all(dep in seen for dep in task.deps), task.id
            seen.add(task.id)

    def test_spawn_keys_distinct_and_deterministic(self):
        specs = expand_grid(scenarios=["pretrain", "case1"], scales=["smoke"], seeds=[0])
        plan = plan_campaign(specs, seed=42)
        keys = [task.spawn_key for task in plan.ordered()]
        assert len(set(keys)) == len(keys)
        again = plan_campaign(specs, seed=42)
        assert [t.spawn_key for t in again.ordered()] == keys

    def test_stage_filter(self):
        specs = expand_grid(scenarios=["pretrain", "case1"], scales=["smoke"], seeds=[0])
        plan = plan_campaign(specs, stages=("trace_stats",))
        assert stages_of(plan) == {"trace_stats": 2}

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stages"):
            plan_campaign([ExperimentSpec(scale="smoke")], stages=("simulate",))

    def test_table_stages_plan_in_sweeps(self):
        # The tables' stages are ordinary stages: a sweep selecting one
        # plans it with its dependencies.
        plan = plan_campaign([ExperimentSpec(scale="smoke")], stages=("baselines",))
        assert stages_of(plan) == {"traces": 1, "bundle": 1, "baselines": 1}

    def test_unproductive_stage_subset_rejected(self):
        # 'finetune' does not apply to the pre-training scenario, so
        # this selection would plan an empty campaign that "succeeds"
        # doing nothing.
        with pytest.raises(ValueError, match="plan no work"):
            plan_campaign(
                [ExperimentSpec(scenario="pretrain", scale="smoke")],
                stages=("finetune",),
            )

    def test_selection_plans_its_dependencies(self):
        # 'evaluate' alone plans the whole chain it depends on.
        spec = ExperimentSpec(scenario="case1", scale="smoke")
        alone = plan_campaign([spec], stages=("evaluate",))
        assert [t.id for t in alone.ordered()] == [t.id for t in plan_campaign([spec]).ordered()]

    def test_evaluate_names_the_model_it_evaluates(self):
        # Without 'finetune' selected, a case1 evaluation still scores
        # (and is keyed by) the fine-tuned model, as in the default sweep.
        spec = ExperimentSpec(scenario="case1", scale="smoke")
        plan = plan_campaign([spec], stages=("traces", "bundle", "pretrain", "evaluate"))
        assert stages_of(plan)["finetune"] == 1
        (evaluate,) = [t for t in plan.ordered() if t.stage == "evaluate"]
        (default,) = [t for t in plan_campaign([spec]).ordered() if t.stage == "evaluate"]
        assert evaluate.key == default.key
        (model,) = evaluate.deps
        assert model.startswith("finetune:")

    def test_campaign_id_stable(self):
        specs = expand_grid(scenarios=["case1"], scales=["smoke"], seeds=[0])
        assert plan_campaign(specs).campaign_id == plan_campaign(specs).campaign_id

    def test_describe_lists_every_task(self):
        plan = plan_campaign([ExperimentSpec(scenario="case1", scale="smoke")])
        text = plan.describe()
        for task in plan.ordered():
            assert task.id in text


class TestSpecForScale:
    def test_matches_plain_spec_hash(self):
        scale = get_scale("smoke")
        assert (
            spec_for_scale(scale).spec_hash
            == ExperimentSpec(scenario="pretrain", scale="smoke").spec_hash
        )

    def test_captures_modified_settings(self):
        from dataclasses import replace

        from repro.core.pretrain import TrainSettings

        scale = replace(get_scale("smoke"), pretrain_settings=TrainSettings(epochs=1))
        spec = spec_for_scale(scale, seed=3)
        assert spec.pretrain.epochs == 1
        assert spec.seed == 3


def _table_plan(table):
    return plan_campaign(table_specs(table, spec_for_scale(get_scale("smoke"))))


class TestPlanTable:
    def test_table1_layout_covers_all_rows(self):
        assert set(TABLE1_VARIANTS) == {
            "no_aggregation",
            "fixed_aggregation",
            "without_packet_size",
            "without_delay",
        }
        counts = stages_of(_table_plan(1))
        assert counts["pretrain"] == 5  # base + four ablations
        assert counts["finetune"] == 10  # delay+mct for base and each variant
        assert counts["scratch"] == 2
        assert counts["baselines"] == 2

    def test_table2_layout(self):
        specs = table_specs(2, spec_for_scale(get_scale("smoke")))
        assert sorted(spec.pipeline for spec in specs) == [
            ("finetune",), ("finetune",), ("scratch",), ("scratch",),
        ]
        assert stages_of(plan_campaign(specs))["pretrain"] == 1

    def test_table3_includes_receiver_ablation(self):
        specs = table_specs(3, spec_for_scale(get_scale("smoke")))
        assert any(
            spec.params_for("finetune").get("features") == "without_receiver"
            for spec in specs
        )
        assert stages_of(plan_campaign(specs))["pretrain"] == 2  # base + without_receiver

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="unknown table"):
            table_specs(9, spec_for_scale(get_scale("smoke")))

    def test_tables_journal_their_stage_selection(self):
        # A table plans through plan_campaign, so resume can re-plan it.
        for table in (1, 2, 3):
            plan = _table_plan(table)
            assert plan.stages is not None
            specs = [ExperimentSpec.from_dict(spec.to_dict()) for spec in plan.specs]
            again = plan_campaign(specs, stages=plan.stages)
            assert again.campaign_id == plan.campaign_id
