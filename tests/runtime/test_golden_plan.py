"""Golden campaign plans: the planner's task graphs, pinned task by task.

For every registered scenario at smoke scale, under each stage
selection below, and for the paper's Tables 1–3, the ordered
``(task id, key, deps)`` list must match ``golden_plans.json``.  Order
matters as much as content: spawn keys are assigned in plan order.

Tables are captured through their public runners with an engine that
records the plan instead of running it, so the fixture does not depend
on how a table is planned.

Regenerate only for a deliberate plan change, from the repository root::

    PYTHONPATH=src python tests/runtime/test_golden_plan.py
"""

import json
from pathlib import Path

import pytest

from repro.core.pipeline import (
    ExperimentContext,
    get_scale,
    run_table1,
    run_table2,
    run_table3,
)
from repro.runtime import expand_grid, plan_campaign

GOLDEN_PATH = Path(__file__).with_name("golden_plans.json")

SCENARIOS = (
    "asymmetric_bottleneck", "bursty_cross", "case1", "case2", "pretrain", "pretrain_red",
)

DEFAULT = ("traces", "bundle", "pretrain", "finetune", "evaluate")

#: Campaign name → stage selection (``None``: the default pipeline).
SELECTIONS = {
    "default": None,
    "traces": ("traces",),
    "traces,bundle": ("traces", "bundle"),
    "traces,bundle,pretrain": ("traces", "bundle", "pretrain"),
    "trace_stats": ("trace_stats",),
    "federated_pretrain": ("federated_pretrain",),
    "drift_monitor": ("drift_monitor",),
    "default,drift_monitor": DEFAULT + ("drift_monitor",),
}

TABLES = {"table1": run_table1, "table2": run_table2, "table3": run_table3}


class _Captured(Exception):
    def __init__(self, plan):
        super().__init__("plan captured")
        self.plan = plan


class _CapturingEngine:
    """Stands in for a CampaignEngine: hands the plan back unexecuted."""

    def run(self, plan, context=None, **_options):
        raise _Captured(plan)


def _rows(plan) -> list:
    return [[task.id, task.key, list(task.deps)] for task in plan.ordered()]


def _sweep_plan(selection):
    specs = expand_grid(scenarios=SCENARIOS, scales=["smoke"], seeds=[0])
    return plan_campaign(specs, stages=selection)


def _table_plan(runner):
    scale = get_scale("smoke")
    try:
        runner(scale, ExperimentContext(scale), engine=_CapturingEngine())
    except _Captured as captured:
        return captured.plan
    raise AssertionError("the table runner never submitted a plan")


def capture() -> dict:
    plans = {name: _rows(_sweep_plan(selection)) for name, selection in SELECTIONS.items()}
    plans.update({name: _rows(_table_plan(runner)) for name, runner in TABLES.items()})
    return plans


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_campaign(golden):
    assert sorted(golden) == sorted([*SELECTIONS, *TABLES])


@pytest.mark.parametrize("name", sorted(SELECTIONS))
def test_sweep_plan_unchanged(golden, name):
    assert _rows(_sweep_plan(SELECTIONS[name])) == golden[name]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_plan_unchanged(golden, name):
    assert _rows(_table_plan(TABLES[name])) == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
