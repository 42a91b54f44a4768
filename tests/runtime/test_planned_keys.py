"""Stages store their artifacts under the keys they were planned under.

The planner keys every task through its stage's own key function; the
stage body must write under exactly that key, and the ``Experiment``
facade must resolve an artifact to the same task the planner would
schedule for it.  Nothing else may land in the store.
"""

import pytest

from repro.api import ArtifactStore, Experiment, ExperimentSpec, TrainSettings
from repro.runtime import CampaignEngine, plan_campaign, plan_table

FAST = TrainSettings(epochs=1, batch_size=32, patience=None)


def _spec(scenario: str) -> ExperimentSpec:
    return ExperimentSpec(scenario=scenario, scale="smoke", pretrain=FAST, finetune=FAST)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


def _assert_stored_under_planned_keys(plan, store):
    planned = {"checkpoints": set(), "evaluations": set()}
    for task in plan.ordered():
        # Bundles plan on a surrogate key (their store key covers the
        # data-dependent pre-training receiver index).
        if task.key is None or task.kind == "bundles":
            continue
        assert store.is_current(task.kind, task.key), task.id
        planned.setdefault(task.kind, set()).add(task.key)
    for kind in ("checkpoints", "evaluations"):
        assert set(store.keys(kind)) == planned[kind], kind


class TestStagesStoreUnderPlannedKeys:
    def test_default_sweep(self, store):
        plan = plan_campaign([_spec("case1")])
        assert CampaignEngine(store=store).run(plan).ok
        _assert_stored_under_planned_keys(plan, store)

    def test_table2(self, store):
        plan, _layout = plan_table(2, _spec("pretrain"))
        assert CampaignEngine(store=store).run(plan).ok
        _assert_stored_under_planned_keys(plan, store)

    def test_facade_stores_exactly_the_planned_models(self, store):
        spec = _spec("case1")
        Experiment(spec, store=store).finetuned()
        planned = {
            task.key
            for task in plan_campaign([spec]).ordered()
            if task.stage in ("pretrain", "finetune")
        }
        assert set(store.keys("checkpoints")) == planned
        assert store.keys("evaluations") == []
