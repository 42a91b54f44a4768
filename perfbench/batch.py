"""The batch workloads (``campaign``, ``dataset_build``) in one process.

Run as ``python -m perfbench.batch <mode> --workload W --seed S --store DIR``
with ``src`` on ``PYTHONPATH``; the last stdout line is a JSON report.
Modes:

* ``probe``: start-up only.  Imports the program, plans the workload's
  full campaign, then runs the plan of its first task and reports when
  that task started.
* ``run``: the cold campaign through ``plan_campaign`` +
  ``CampaignEngine.run`` on a fresh store, with the workload's worker
  count unless ``--workers`` overrides it.
* ``traced``: the same plan in-process (one worker) with every layer's
  public calls wrapped in spans, which are written to ``--spans``.

Times are ``time.perf_counter()`` readings, which on Linux share one
monotonic clock across processes, so the caller can subtract its own
process-start stamp.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time

#: Scenario pair of the cold campaign and its training epochs.
CAMPAIGN_SCENARIOS = ("case1", "case2")
CAMPAIGN_EPOCHS = 2
#: Seeds per scenario of the dataset build.
BUILD_SEEDS = 3
#: Pre-training epochs of the checkpoint the ``serve`` workload serves.
SERVE_EPOCHS = 1
SCALE = "small"

#: ``serve_model`` builds the served checkpoint; it is not a workload.
WORKERS = {"campaign": 2, "dataset_build": 1, "serve_model": 1}


def workload_plan_args(workload: str, seed: int):
    """``(specs, stages)`` of a batch workload at one workload seed."""
    from repro.api import SCENARIOS
    from repro.runtime import expand_grid

    if workload == "campaign":
        specs = expand_grid(scenarios=list(CAMPAIGN_SCENARIOS), scales=[SCALE], seeds=[seed])
        specs = [
            spec.with_overrides(
                pretrain=spec.to_scale().pretrain_settings.scaled(CAMPAIGN_EPOCHS),
                finetune=spec.to_scale().finetune_settings.scaled(CAMPAIGN_EPOCHS),
            )
            for spec in specs
        ]
        return specs, None
    if workload == "dataset_build":
        seeds = [BUILD_SEEDS * seed + offset for offset in range(BUILD_SEEDS)]
        specs = expand_grid(scenarios=SCENARIOS.names(), scales=[SCALE], seeds=seeds)
        return specs, ("traces", "bundle")
    if workload == "serve_model":
        spec = expand_grid(scenarios=["pretrain"], scales=[SCALE], seeds=[seed])[0]
        spec = spec.with_overrides(pretrain=spec.to_scale().pretrain_settings.scaled(SERVE_EPOCHS))
        return [spec], ("traces", "bundle", "pretrain")
    raise ValueError(f"unknown batch workload {workload!r}")


def runtime_metrics(plan, manifest: dict) -> dict[str, float]:
    """Scheduling numbers from a manifest's per-task offsets.

    ``task_wait_s`` sums, over tasks, the time from the last dependency
    ending to the task starting.  A task starts when its run began in
    the worker: ``ended_offset_s - wall_time_s`` (the worker measures
    ``wall_time_s``).  On a pool ``started_offset_s`` is the engine's
    submit time instead, which hides the wait for a free worker.
    """
    rows = {row["id"]: row for row in manifest["tasks"]}
    deps = {task.id: task.deps for task in plan.ordered()}
    wait = 0.0
    finish: dict[str, float] = {}
    for task_id in deps:  # insertion order is topological
        row = rows[task_id]
        ready = max((rows[dep]["ended_offset_s"] for dep in deps[task_id]), default=0.0)
        wait += max(0.0, row["ended_offset_s"] - row["wall_time_s"] - ready)
        finish[task_id] = row["wall_time_s"] + max(
            (finish[dep] for dep in deps[task_id]), default=0.0
        )
    busy = sum(row["wall_time_s"] for row in rows.values())
    return {
        "runtime.task_wait_s": wait,
        "runtime.busy_ratio": busy / (manifest["workers"] * manifest["wall_time_s"]),
        "runtime.critical_path_s": max(finish.values(), default=0.0),
        "runtime.retries": sum(max(0, row["attempts"] - 1) for row in rows.values()),
    }


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped children, in MB."""
    deadline = time.monotonic() + 30.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)  # the engine shuts its pool down without waiting
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.batch")
    parser.add_argument("mode", choices=("probe", "run", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    recorder = uninstall = None
    if args.mode == "traced":
        from perfbench.spans import SpanRecorder, install

        recorder = SpanRecorder()
        uninstall = install(recorder)
        root = recorder.open(f"bench.{args.workload}")
    from repro.api import ArtifactStore
    from repro.runtime import CampaignEngine, plan_campaign

    specs, stages = workload_plan_args(args.workload, args.seed)
    plan = plan_campaign(specs, stages=stages)
    workers = args.workers or WORKERS[args.workload]
    if args.mode == "probe":
        # Set-up includes planning the full campaign; the probe then runs
        # one traces task, only so that the engine starts a first task.
        plan = plan_campaign(specs[:1], stages=("traces",))
    elif args.mode == "traced":
        workers = 1
    engine = CampaignEngine(store=ArtifactStore(args.store), workers=workers)
    engine_started = time.perf_counter()
    result = engine.run(plan)
    ended = time.perf_counter()
    if recorder is not None:
        recorder.close(root)
        uninstall()
        recorder.write(args.spans)
    manifest = result.manifest
    report = {
        "first_task_started": engine_started
        + min(row["started_offset_s"] for row in manifest["tasks"]),
        "engine_started": engine_started,
        "ended": ended,
        "workers": manifest["workers"],
        "campaign_id": plan.campaign_id,
        "tasks": len(manifest["tasks"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.mode != "probe":
        report.update(runtime_metrics(plan, manifest))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
