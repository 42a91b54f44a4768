"""The campaign engine: execute a task graph serially or on a pool.

:class:`CampaignEngine` takes a :class:`~repro.runtime.plan.CampaignPlan`
and runs its tasks in dependency order — in-process when ``workers <= 1``
(or when there is no artifact store to share artifacts through), on a
``ProcessPoolExecutor`` otherwise.  Both paths execute the *same* stage
implementations (:mod:`repro.runtime.worker`), so interactive runs,
sweeps and benchmarks cannot drift apart.

Failures are handled by a :class:`~repro.runtime.policy.RetryPolicy`:
transient errors retry with seeded jittered backoff, fatal (contract)
errors fail fast, and the pool path additionally recovers from hung and
killed workers — per-stage wall-clock timeouts (``stage_params``
``timeout_s`` knob, engine-level default) reap wedged tasks via worker
heartbeat files under the store's scratch area, and a broken process
pool is respawned with its in-flight tasks re-enqueued.  Dependents of
exhausted tasks are skipped.

Every run is *journaled*: each settled task appends one fsynced line to
``manifests/<campaign_id>.journal.jsonl`` through the store, so even a
SIGKILLed campaign leaves a durable record, and
:meth:`CampaignEngine.resume` re-plans from the journal header and
re-executes only what never finished — bit-identical to an
uninterrupted run, because per-task seeds and retry backoff are keyed
by (task spawn key, attempt), never by execution order.  A JSON
campaign manifest — per-task status, timings and cache hit/miss — is
written under ``manifests/<campaign_id>`` on completion, and a partial
``status: "crashed"`` manifest on the way out of any engine-level
failure.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import repro.obs as obs
from repro.api.spec import ExperimentSpec
from repro.api.store import ArtifactStore
from repro.runtime.journal import CampaignJournal, read_journal
from repro.runtime.plan import CampaignPlan, StageTask, plan_campaign
from repro.runtime.policy import RetryPolicy
from repro.runtime.worker import heartbeat_path, run_task
from repro.utils.clock import utc_now_iso, wall_time_unix

__all__ = ["CampaignEngine", "CampaignResult", "run_campaign"]

#: Sentinel: "no store argument given" (``None`` means "no store").
_DEFAULT_STORE = object()


@dataclass
class CampaignResult:
    """Outcome of one engine run."""

    manifest: dict
    results: dict = field(default_factory=dict)
    manifest_path: Path | None = None

    @property
    def summary(self) -> dict:
        return self.manifest["summary"]

    @property
    def ok(self) -> bool:
        return self.summary["failed"] == 0 and self.summary["skipped"] == 0

    @property
    def cache_hits(self) -> int:
        return self.summary["cache_hits"]

    def failed_tasks(self) -> list[dict]:
        return [task for task in self.manifest["tasks"] if task["status"] == "error"]

    def __getitem__(self, task_id: str) -> dict:
        """Result payload of one completed task."""
        return self.results[task_id]

    def result_for(self, spec, stage: str) -> dict:
        """Result payload of the one ``stage`` task ``spec`` planned,
        found through each task's record of the specs it serves."""
        spec_hash = spec.spec_hash
        (task_id,) = [
            row["id"]
            for row in self.manifest["tasks"]
            if row["stage"] == stage and spec_hash in row["specs"]
        ]
        return self.results[task_id]

    def format_summary(self) -> str:
        summary = self.summary
        lines = [
            f"campaign {self.manifest['campaign_id']}: "
            f"{summary['done']}/{summary['total']} task(s) done, "
            f"{summary['cache_hits']} cache hit(s), "
            f"{summary['failed']} failed, {summary['skipped']} skipped "
            f"in {self.manifest['wall_time_s']:.1f}s "
            f"({self.manifest['workers']} worker(s))"
        ]
        resumed = self.manifest.get("resumed_tasks")
        if resumed:
            lines.append(f"  resumed {len(resumed)} task(s) from the journal")
        for task in self.failed_tasks():
            last_line = task["error"].strip().splitlines()[-1]
            lines.append(f"  FAILED {task['id']}: {last_line}")
        if self.manifest_path is not None:
            lines.append(f"manifest: {self.manifest_path}")
        return "\n".join(lines)


class CampaignEngine:
    """Plans' executor: worker pool, retry policy, journal, manifest.

    Args:
        store: artifact store shared by all tasks; defaults to the
            environment store.  ``store=None`` disables persistence
            (and with it journaling, resume and timeout reaping) and
            forces in-process execution for dependent plans.
        workers: worker processes; ``<= 1`` runs in-process.
        retries: how many times a failed task is re-attempted
            (shorthand for ``policy=RetryPolicy(retries=...)``).
        policy: full retry policy; overrides ``retries`` when given.
        task_timeout_s: default per-task wall-clock timeout enforced on
            the pool path (``None`` disables; a spec's per-stage
            ``timeout_s`` in ``stage_params`` overrides per task).
            Serial runs cannot preempt an in-process stage, so
            timeouts only apply to pool execution.
        heartbeat_interval_s: how often pool workers refresh their
            heartbeat files.
    """

    def __init__(
        self,
        store=_DEFAULT_STORE,
        workers: int = 1,
        retries: int = 1,
        *,
        policy: RetryPolicy | None = None,
        task_timeout_s: float | None = None,
        heartbeat_interval_s: float = 1.0,
    ):
        self.store = ArtifactStore.from_env() if store is _DEFAULT_STORE else store
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.policy = policy if policy is not None else RetryPolicy(retries=retries)
        self.retries = self.policy.retries
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be > 0 (or None to disable)")
        self.task_timeout_s = task_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s

    def effective_workers(self, tasks: list[StageTask]) -> int:
        """The worker count this plan can actually use.

        Without a store, processes have no way to exchange artifacts, so
        any plan with dependencies or cacheable stages runs in-process;
        an embarrassingly parallel, uncacheable plan (e.g. a
        ``trace_stats`` fan-out) may still use the pool.
        """
        if self.store is None and any(task.deps or task.kind for task in tasks):
            return 1
        return max(1, min(self.workers, len(tasks)))

    def run(
        self,
        plan: CampaignPlan,
        context=None,
        resume_records: dict | None = None,
    ) -> CampaignResult:
        """Execute every task; returns results plus the manifest.

        ``context`` (serial path only) shares one
        :class:`~repro.core.pipeline.ExperimentContext`'s in-memory
        caches across tasks — the table runners pass theirs so
        interactive runs keep working without a store.  A context binds
        one seed and scale, so every spec of the plan must agree with it
        on both (a table's spec family does).

        ``resume_records`` (normally supplied by :meth:`resume`) maps
        task ids to previously settled ``done`` records; those tasks
        are replayed instead of re-executed.
        """
        if context is not None:
            for spec in plan.specs:
                if spec.seed != context.seed:
                    raise ValueError(
                        f"context seed {context.seed} does not match the plan's "
                        f"spec seed {spec.seed}"
                    )
                if not _scales_agree(spec.to_scale(), context.scale):
                    raise ValueError(
                        f"context scale {context.scale.name!r} does not resolve to the "
                        f"plan's spec scale {spec.scale!r}; a mismatch would "
                        "store artifacts under the wrong cache keys"
                    )
        # One wall-clock stamp for "when" (ISO-8601 UTC) and one
        # monotonic origin for every duration and per-task offset —
        # wall-clock steps (NTP, DST) can never corrupt timings.
        started_unix = wall_time_unix()
        started_at = utc_now_iso()
        clock = time.perf_counter()
        tasks = plan.ordered()
        workers = self.effective_workers(tasks)
        # Derived from the actual decision (not a restatement of the
        # effective_workers policy): serial despite a multi-task plan
        # that a pool could otherwise have used.
        downgraded = workers == 1 and self.workers > 1 and len(tasks) > 1
        engine_events: list[dict] = []
        records: dict[str, dict] = {}
        resumed_ids: list[str] = []
        if resume_records:
            for task in tasks:
                record = resume_records.get(task.id)
                if record is None or record.get("status") != "done":
                    continue
                replay = {
                    key: value
                    for key, value in record.items()
                    if key not in ("type", "time_unix")
                }
                replay["resumed"] = True
                records[task.id] = replay
                resumed_ids.append(task.id)
        journal = None
        if self.store is not None:
            journal = CampaignJournal(self.store.journal_path(plan.campaign_id))
            journal.header(plan, workers, self.retries, resumed=resumed_ids)
        if resumed_ids:
            self._event(
                engine_events,
                journal,
                "runtime.campaign_resumed",
                campaign_id=plan.campaign_id,
                resumed=len(resumed_ids),
                remaining=len(tasks) - len(resumed_ids),
            )
        if downgraded:
            self._event(
                engine_events,
                journal,
                "runtime.downgraded_to_serial",
                campaign_id=plan.campaign_id,
                requested_workers=self.workers,
                reason="no artifact store shares artifacts across processes",
            )
            warnings.warn(
                f"campaign requested {self.workers} workers but runs serially: "
                "without an artifact store, processes cannot exchange artifacts "
                "for plans with dependencies or cacheable stages; pass a store "
                "(or ArtifactStore.from_env()) to parallelise",
                RuntimeWarning,
                stacklevel=2,
            )
        store_root = None if self.store is None else str(self.store.root)
        try:
            if workers <= 1:
                self._run_serial(plan, tasks, store_root, context, clock, records, journal)
            else:
                self._run_pool(
                    plan, tasks, store_root, workers, clock, records, journal, engine_events
                )
        except BaseException:
            # Crash path (engine bug, KeyboardInterrupt, store failure):
            # persist everything that settled before re-raising, so the
            # run stays inspectable and resumable.
            crashed = None
            with contextlib.suppress(Exception):
                crashed = self._finish_manifest(
                    plan, tasks, records, workers, started_unix, started_at,
                    downgraded, engine_events, clock, status="crashed",
                )
                if self.store is not None:
                    self.store.put_manifest(plan.campaign_id, crashed)
            if journal is not None:
                with contextlib.suppress(Exception):
                    summary = crashed["summary"] if crashed else {"total": len(tasks)}
                    journal.complete(summary, "crashed")
                journal.close()
            raise
        manifest = self._finish_manifest(
            plan, tasks, records, workers, started_unix, started_at,
            downgraded, engine_events, clock, status="complete",
        )
        path = None
        if self.store is not None:
            path = self.store.put_manifest(plan.campaign_id, manifest)
        if journal is not None:
            journal.complete(manifest["summary"], "complete")
            journal.close()
        results = {
            record["id"]: record["result"]
            for record in (records[task.id] for task in tasks)
            if record["status"] == "done"
        }
        return CampaignResult(manifest=manifest, results=results, manifest_path=path)

    def resume(self, campaign_id: str, context=None) -> CampaignResult:
        """Resume a crashed or partially failed campaign from its journal.

        Re-plans the identical task graph from the journal header
        (specs + stage selection + seed), verifies the plan still hashes
        to the same campaign id, replays every journalled ``done`` task
        and re-executes only the rest.  Because per-task seeds and
        retry backoff are keyed by (spawn key, attempt) — not execution
        order — the final results are bit-identical to an uninterrupted
        run.
        """
        if self.store is None:
            raise ValueError("resume requires an artifact store (journals live in it)")
        path = self.store.journal_path(campaign_id)
        if not path.exists():
            raise ValueError(
                f"no journal for campaign {campaign_id!r} under {path.parent}"
            )
        state = read_journal(path)
        if state.header is None:
            raise ValueError(f"journal {path} has no campaign header")
        stages = state.header.get("stages")
        if not stages:
            raise ValueError(
                f"campaign {campaign_id!r} was planned outside plan_campaign "
                "(a hand-built graph); its journal records progress but "
                "cannot be resumed"
            )
        specs = [ExperimentSpec.from_dict(entry) for entry in state.header["specs"]]
        plan = plan_campaign(
            specs, stages=tuple(stages), seed=int(state.header.get("seed", 0))
        )
        if plan.campaign_id != campaign_id:
            raise ValueError(
                f"re-planned campaign hashes to {plan.campaign_id}, not "
                f"{campaign_id}: the stage registry or stage versions changed "
                "since the original run; start a fresh campaign instead"
            )
        return self.run(plan, context=context, resume_records=state.done_records())

    # -- execution paths ----------------------------------------------------------

    @staticmethod
    def _dep_inputs(task: StageTask, records: dict) -> dict:
        """Completed dependency results, keyed by dependency task id
        (the ``inputs`` argument of the stage contract)."""
        inputs = {}
        for dep in task.deps:
            record = records.get(dep)
            if record is not None and record["status"] == "done":
                inputs[dep] = record["result"]
        return inputs

    def _event(self, events: list, journal, name: str, **fields) -> dict:
        """One structured engine event: registry (when enabled), the
        manifest's event list, and the journal."""
        event = obs.record_event(name, **fields)
        if not event:
            event = {"event": name, "time_unix": wall_time_unix(), **fields}
        events.append(event)
        if journal is not None:
            journal.event(event)
        return event

    def _payload(self, plan, task, store_root, attempt, inputs, heartbeat_dir=None) -> dict:
        payload = task.payload(store_root, plan.seed, attempt, inputs=inputs)
        payload["retry_policy"] = self.policy.to_payload()
        if heartbeat_dir is not None:
            payload["heartbeat_dir"] = str(heartbeat_dir)
            payload["heartbeat_interval_s"] = self.heartbeat_interval_s
        return payload

    def _task_timeout(self, task: StageTask) -> float | None:
        """This task's wall-clock budget: the spec's per-stage
        ``timeout_s`` knob, else the engine default, else none.

        Read at execution time — deliberately *not* part of the planned
        params, so tuning a timeout can never change a task id or cache
        key.
        """
        timeout = task.spec.params_for(task.stage).get("timeout_s", self.task_timeout_s)
        if timeout is None:
            return None
        timeout = float(timeout)
        return timeout if timeout > 0 else None

    def _execute_with_retry(self, plan, task, store_root, experiment, inputs) -> dict:
        record = None
        history: list[dict] = []
        for attempt in range(self.policy.retries + 1):
            record = run_task(
                self._payload(plan, task, store_root, attempt, inputs),
                experiment=experiment,
            )
            record["attempts"] = attempt + 1
            if record["status"] == "done":
                break
            error_class = self.policy.classify(record.get("error_type"))
            record["error_class"] = error_class
            history.append(
                {
                    "attempt": attempt,
                    "error_class": error_class,
                    "error_type": record.get("error_type"),
                }
            )
            if not self.policy.should_retry(error_class, attempt + 1):
                break
            obs.metrics().counter("runtime.task_retries_total").inc()
        if history:
            record["failures"] = history
        return record

    def _run_serial(self, plan, tasks, store_root, context, clock, records, journal):
        experiments: dict[str, object] = {}
        for task in self._topological(tasks):
            if task.id in records:
                continue  # replayed from the journal
            blocker = self._blocking_dep(task, records)
            if blocker is not None:
                record = _skip_record(task, blocker, time.perf_counter() - clock)
                records[task.id] = record
                if journal is not None:
                    journal.task(record)
                continue
            spec_hash = task.spec.spec_hash
            if spec_hash not in experiments:
                from repro.api.experiment import Experiment

                if context is not None:
                    experiments[spec_hash] = Experiment(task.spec, context=context)
                else:
                    experiments[spec_hash] = Experiment(task.spec, store=self.store)
            started_offset = time.perf_counter() - clock
            record = self._execute_with_retry(
                plan, task, store_root, experiments[spec_hash],
                self._dep_inputs(task, records),
            )
            record["started_offset_s"] = started_offset
            record["ended_offset_s"] = time.perf_counter() - clock
            records[task.id] = record
            if journal is not None:
                journal.task(record)
        return records

    def _run_pool(self, plan, tasks, store_root, workers, clock, records, journal, events):
        attempts: dict[str, int] = {}
        failures: dict[str, list] = {}
        by_id = {task.id: task for task in tasks}
        waiting = {
            task.id: {dep for dep in task.deps if dep not in records}
            for task in tasks
            if task.id not in records
        }
        dependents: dict[str, list[str]] = {task.id: [] for task in tasks}
        for task in tasks:
            for dep in task.deps:
                dependents[dep].append(task.id)

        ready = [task_id for task_id, deps in waiting.items() if not deps]
        in_flight: dict = {}  # future -> task_id
        deadlines: dict = {}  # future -> campaign-clock offset of the deadline
        reaped: set[str] = set()  # task ids whose hung worker *we* killed
        # Offsets observed on the engine's campaign clock (worker
        # perf_counters are not comparable across processes): first
        # submit → started, final settle → ended.
        submit_offsets: dict[str, float] = {}
        heartbeat_dir = None
        if self.store is not None:
            heartbeat_dir = self.store.scratch_dir("heartbeats", plan.campaign_id)

        def settle(task_id: str, record: dict) -> list[str]:
            """Record a final status; returns newly ready tasks."""
            now_offset = time.perf_counter() - clock
            record.setdefault("started_offset_s", submit_offsets.get(task_id, now_offset))
            record.setdefault("ended_offset_s", now_offset)
            if failures.get(task_id):
                record.setdefault("failures", failures[task_id])
            records[task_id] = record
            if journal is not None:
                journal.task(record)
            newly_ready = []
            for child in dependents[task_id]:
                if child in records:
                    continue
                if record["status"] == "done":
                    waiting[child].discard(task_id)
                    if not waiting[child]:
                        newly_ready.append(child)
                else:
                    # Cascade the skip through the whole subtree.
                    newly_ready.extend(
                        settle(child, _skip_record(by_id[child], task_id, now_offset))
                    )
            return newly_ready

        def record_failure(task_id: str, error_class: str, error_type: str | None):
            failures.setdefault(task_id, []).append(
                {
                    "attempt": attempts[task_id] - 1,
                    "error_class": error_class,
                    "error_type": error_type,
                }
            )

        def failed(task_id: str, record: dict) -> list[str]:
            """A worker-reported error: classify, retry or settle."""
            error_class = self.policy.classify(record.get("error_type"))
            record["error_class"] = error_class
            record_failure(task_id, error_class, record.get("error_type"))
            if self.policy.should_retry(error_class, attempts[task_id]):
                obs.metrics().counter("runtime.task_retries_total").inc()
                return [task_id]
            return settle(task_id, record)

        def lost(task_id: str, error_class: str, detail: str) -> list[str]:
            """An engine-detected loss (timeout reap / dead worker):
            the attempt is spent; retry or settle a synthetic error."""
            record_failure(task_id, error_class, None)
            if self.policy.should_retry(error_class, attempts[task_id]):
                obs.metrics().counter("runtime.task_retries_total").inc()
                return [task_id]
            now_offset = time.perf_counter() - clock
            return settle(
                task_id,
                {
                    "id": task_id,
                    "stage": by_id[task_id].stage,
                    "status": "error",
                    "cache_hit": False,
                    "error": detail,
                    "error_type": error_class,
                    "error_class": error_class,
                    "attempts": attempts[task_id],
                    "wall_time_s": now_offset - submit_offsets.get(task_id, now_offset),
                },
            )

        def recover_pool(pool) -> tuple[ProcessPoolExecutor, list[str]]:
            """The pool broke (worker SIGKILL/OOM, or our own reap):
            charge every in-flight task its spent attempt, respawn the
            pool, re-enqueue what the policy allows."""
            newly_ready: list[str] = []
            for future, task_id in list(in_flight.items()):
                if task_id in reaped:
                    error_class, detail = "timeout", (
                        f"task exceeded its {self._task_timeout(by_id[task_id])}s "
                        "wall-clock timeout; the hung worker was killed"
                    )
                else:
                    error_class, detail = "worker-lost", (
                        "worker process died mid-task (process pool broke); "
                        "the pool was respawned"
                    )
                    self._event(
                        events, journal, "runtime.worker_lost",
                        campaign_id=plan.campaign_id, task_id=task_id,
                        attempt=attempts[task_id] - 1,
                    )
                if heartbeat_dir is not None:
                    with contextlib.suppress(OSError):
                        heartbeat_path(heartbeat_dir, task_id).unlink()
                newly_ready.extend(lost(task_id, error_class, detail))
            in_flight.clear()
            deadlines.clear()
            reaped.clear()
            obs.metrics().counter("runtime.workers_lost_total").inc()
            pool.shutdown(wait=False, cancel_futures=True)
            self._event(
                events, journal, "runtime.pool_respawned",
                campaign_id=plan.campaign_id, workers=workers,
            )
            return ProcessPoolExecutor(max_workers=workers), newly_ready

        def reap_overdue() -> None:
            """SIGKILL workers whose task blew its wall-clock budget.

            A missing or stale heartbeat means the task is still queued
            (or its worker just started), so its deadline re-arms
            instead; killing is reserved for tasks *observed* running
            past their budget.  The kill breaks the pool — the next
            ``wait`` surfaces it and ``recover_pool`` settles everyone.
            """
            now_offset = time.perf_counter() - clock
            for future, task_id in list(in_flight.items()):
                deadline = deadlines.get(future)
                if deadline is None or now_offset < deadline:
                    continue
                timeout_s = self._task_timeout(by_id[task_id])
                beat = self._read_heartbeat(heartbeat_dir, task_id)
                if beat is None or beat.get("attempt") != attempts[task_id] - 1:
                    deadlines[future] = now_offset + timeout_s
                    continue
                elapsed = wall_time_unix() - float(beat.get("started_unix", 0.0))
                if elapsed < timeout_s:
                    deadlines[future] = now_offset + (timeout_s - elapsed)
                    continue
                reaped.add(task_id)
                obs.metrics().counter("runtime.tasks_reaped_total").inc()
                self._event(
                    events, journal, "runtime.task_timeout",
                    campaign_id=plan.campaign_id, task_id=task_id,
                    attempt=attempts[task_id] - 1, timeout_s=timeout_s,
                    pid=beat.get("pid"),
                )
                pid = beat.get("pid")
                if isinstance(pid, int) and pid > 0:
                    with contextlib.suppress(OSError):
                        os.kill(pid, signal.SIGKILL)

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while ready or in_flight:
                for task_id in ready:
                    if task_id in records:
                        continue
                    attempt = attempts.get(task_id, 0)
                    attempts[task_id] = attempt + 1
                    task = by_id[task_id]
                    submit_offsets.setdefault(task_id, time.perf_counter() - clock)
                    future = pool.submit(
                        run_task,
                        self._payload(
                            plan, task, store_root, attempt,
                            self._dep_inputs(task, records), heartbeat_dir,
                        ),
                    )
                    in_flight[future] = task_id
                    timeout_s = self._task_timeout(task)
                    # Reaping needs a heartbeat (to find the pid and to
                    # tell hung from queued), so timeouts are enforced
                    # only when the store provides a scratch area.
                    if timeout_s is not None and heartbeat_dir is not None:
                        deadlines[future] = time.perf_counter() - clock + timeout_s
                ready = []
                if not in_flight:
                    continue
                done, _pending = wait(
                    in_flight,
                    timeout=self._wait_timeout(deadlines, clock),
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    task_id = in_flight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        record = future.result()
                    except BrokenProcessPool:
                        # Put it back: recover_pool settles *all*
                        # in-flight tasks of the broken pool at once.
                        in_flight[future] = task_id
                        broken = True
                        break
                    record["attempts"] = attempts[task_id]
                    if record["status"] == "done":
                        ready.extend(settle(task_id, record))
                    else:
                        ready.extend(failed(task_id, record))
                if broken:
                    pool, newly_ready = recover_pool(pool)
                    ready.extend(newly_ready)
                elif not done:
                    reap_overdue()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            if heartbeat_dir is not None:
                shutil.rmtree(heartbeat_dir, ignore_errors=True)
        return records

    @staticmethod
    def _wait_timeout(deadlines: dict, clock: float) -> float | None:
        """How long the next ``wait`` may block: until the earliest
        in-flight deadline (None → until something completes)."""
        if not deadlines:
            return None
        now_offset = time.perf_counter() - clock
        return max(0.05, min(deadlines.values()) - now_offset)

    @staticmethod
    def _read_heartbeat(heartbeat_dir, task_id: str) -> dict | None:
        if heartbeat_dir is None:
            return None
        try:
            with open(heartbeat_path(heartbeat_dir, task_id), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError, ValueError):
            return None

    @staticmethod
    def _topological(tasks: list[StageTask]) -> list[StageTask]:
        """Dependency-respecting order (plan order is already close)."""
        placed: set[str] = set()
        remaining = list(tasks)
        ordered = []
        while remaining:
            progressed = False
            deferred = []
            for task in remaining:
                if all(dep in placed for dep in task.deps):
                    ordered.append(task)
                    placed.add(task.id)
                    progressed = True
                else:
                    deferred.append(task)
            if not progressed:
                cycle = ", ".join(task.id for task in deferred)
                raise ValueError(f"dependency cycle in campaign plan: {cycle}")
            remaining = deferred
        return ordered

    @staticmethod
    def _blocking_dep(task: StageTask, records: dict) -> str | None:
        for dep in task.deps:
            record = records.get(dep)
            if record is not None and record["status"] != "done":
                return dep
        return None

    # -- manifest -----------------------------------------------------------------

    def _finish_manifest(
        self, plan, tasks, records, workers, started_unix, started_at,
        downgraded, events, clock, status: str,
    ) -> dict:
        """Assemble the final (or crash-partial) manifest."""
        ordered_records = [
            records.get(task.id) or _pending_record(task) for task in tasks
        ]
        manifest = self._manifest(plan, ordered_records, workers, started_unix, started_at)
        manifest["status"] = status
        manifest["downgraded_to_serial"] = downgraded
        manifest["events"] = events
        manifest["wall_time_s"] = time.perf_counter() - clock
        resumed = [record["id"] for record in ordered_records if record.get("resumed")]
        if resumed:
            manifest["resumed_tasks"] = resumed
        pending = sum(1 for record in ordered_records if record["status"] == "pending")
        if pending:
            manifest["summary"]["pending"] = pending
        if status == "complete" and obs.enabled():
            manifest["observability"] = self._observability(
                plan, ordered_records, workers, started_unix, manifest["wall_time_s"]
            )
        return manifest

    def _manifest(self, plan, records, workers, started_unix, started_at) -> dict:
        done = sum(1 for record in records if record["status"] == "done")
        failed = sum(1 for record in records if record["status"] == "error")
        skipped = sum(1 for record in records if record["status"] == "skipped")
        hits = sum(1 for record in records if record.get("cache_hit"))
        executed = sum(
            1
            for record in records
            if record["status"] == "done"
            and not record.get("cache_hit")
            and not record.get("resumed")
        )
        task_rows = []
        by_id = {task.id: task for task in plan.ordered()}
        for record in records:
            task = by_id[record["id"]]
            row = {
                "id": record["id"],
                "stage": record["stage"],
                "key": task.key,
                "kind": task.kind,
                "specs": list(task.spec_hashes),
                "status": record["status"],
                "attempts": record.get("attempts", 0),
                "cache_hit": bool(record.get("cache_hit")),
                "wall_time_s": record.get("wall_time_s", 0.0),
                "started_offset_s": record.get("started_offset_s", 0.0),
                "ended_offset_s": record.get("ended_offset_s", 0.0),
            }
            for optional in ("resumed", "error_class", "failures"):
                if optional in record:
                    row[optional] = record[optional]
            if record["status"] == "done":
                row["result"] = record["result"]
            elif record["status"] == "error":
                row["error"] = record["error"]
            elif record["status"] == "skipped":
                row["skipped_because"] = record["skipped_because"]
            task_rows.append(row)
        return {
            "campaign_id": plan.campaign_id,
            "created_unix": started_unix,
            "started_at": started_at,
            "workers": workers,
            "retries": self.retries,
            "seed": plan.seed,
            "specs": [
                {"hash": spec.spec_hash, "spec": spec.to_dict()} for spec in plan.specs
            ],
            "tasks": task_rows,
            "summary": {
                "total": len(records),
                "done": done,
                "failed": failed,
                "skipped": skipped,
                "cache_hits": hits,
                "executed": executed,
            },
        }

    def _observability(self, plan, records, workers, started_unix, wall_s) -> dict:
        """The manifest's telemetry block: one campaign root span over
        every task's span tree, plus the merged worker metrics.

        Task records carry ``spans``/``metrics`` produced inside
        whichever process executed them (:func:`~repro.runtime.worker.run_task`);
        merging the per-task registry deltas yields the same counter
        totals whether the campaign ran serially or on a pool.  Pool
        deltas are additionally folded into this process's live
        registry so a long-lived host sees campaign totals too (serial
        tasks already recorded into it directly).
        """
        merged = obs.merge_snapshots(
            *(record.pop("metrics", None) or {} for record in records)
        )
        if workers > 1:
            obs.get_registry().merge(merged)
        children = []
        for record in records:
            children.extend(record.pop("spans", None) or ())
        root = {
            "name": f"campaign:{plan.campaign_id}",
            "start_us": started_unix * 1e6,
            "dur_us": wall_s * 1e6,
            "attrs": {
                "campaign_id": plan.campaign_id,
                "workers": workers,
                "tasks": len(records),
            },
            "children": children,
        }
        return {"metrics": merged, "spans": [root]}


def _scales_agree(spec_scale, context_scale) -> bool:
    """Whether two scales produce the same cache keys.

    Compares exactly the fields the artifact-store keys depend on, so a
    context trained at one scale can never persist artifacts under
    another scale's keys.
    """
    return (
        spec_scale.window == context_scale.window
        and spec_scale.n_runs == context_scale.n_runs
        and spec_scale.model_config() == context_scale.model_config()
        and spec_scale.pretrain_settings == context_scale.pretrain_settings
        and spec_scale.finetune_settings == context_scale.finetune_settings
        and spec_scale.fine_fraction == context_scale.fine_fraction
    )


def _skip_record(task: StageTask, blocker: str, offset_s: float = 0.0) -> dict:
    return {
        "id": task.id,
        "stage": task.stage,
        "status": "skipped",
        "skipped_because": blocker,
        "cache_hit": False,
        "attempts": 0,
        "wall_time_s": 0.0,
        "started_offset_s": offset_s,
        "ended_offset_s": offset_s,
    }


def _pending_record(task: StageTask) -> dict:
    """Placeholder row for a task a crashed run never settled."""
    return {
        "id": task.id,
        "stage": task.stage,
        "status": "pending",
        "cache_hit": False,
        "attempts": 0,
        "wall_time_s": 0.0,
        "started_offset_s": 0.0,
        "ended_offset_s": 0.0,
    }


def run_campaign(
    specs,
    stages=None,
    store=_DEFAULT_STORE,
    workers: int = 1,
    retries: int = 1,
    seed: int = 0,
    context=None,
    policy: RetryPolicy | None = None,
    task_timeout_s: float | None = None,
) -> CampaignResult:
    """Plan and run the standard pipeline over ``specs`` in one call."""
    plan = plan_campaign(specs, stages=None if stages is None else tuple(stages), seed=seed)
    engine = CampaignEngine(
        store=store,
        workers=workers,
        retries=retries,
        policy=policy,
        task_timeout_s=task_timeout_s,
    )
    return engine.run(plan, context=context)
