"""Append-only campaign journals: the crash-safe record of a run.

The campaign manifest is written once, after every task settles — a
SIGKILLed engine therefore used to leave *nothing* behind.  The journal
closes that gap: the engine appends one JSON line through the store as
each task reaches a final status (``done`` / ``error`` / ``skipped``),
fsyncing every line, so the on-disk record is never more than one task
behind reality no matter how the process dies.

Layout (``<store>/manifests/<campaign_id>.journal.jsonl``)::

    {"type": "campaign", "campaign_id": ..., "seed": ..., "stages": [...],
     "specs": [...], "tasks": [...], ...}          # header, always first
    {"type": "task", "id": ..., "status": ..., ...}  # one per settle
    {"type": "event", "event": ..., ...}             # engine events
    {"type": "complete", "status": ..., "summary": ...}  # normal end

Readers must tolerate a torn final line (the crash may land mid-write);
:func:`read_journal` stops at the first undecodable line and reports it
via :attr:`JournalState.torn_tail` instead of raising.  The header
records the campaign's specs, stage selection and seed, which is enough
for :meth:`~repro.runtime.engine.CampaignEngine.resume` to re-plan the
identical task graph and re-execute only what never finished.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.clock import wall_time_unix

__all__ = ["CampaignJournal", "JournalState", "read_journal"]

#: Task-record keys that stay out of the journal: span trees and metric
#: snapshots are bulky telemetry, not recovery state (the final manifest
#: carries them for completed runs).
_TELEMETRY_KEYS = ("spans", "metrics")


class CampaignJournal:
    """Append-only writer for one campaign's journal file.

    Every line is flushed and fsynced before :meth:`append` returns, so
    a settled task survives any subsequent crash of the engine process.
    The file opens in append mode: resuming a campaign extends the same
    journal (a second ``campaign`` header line marks the new run).
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, entry: dict) -> None:
        """Write one journal line durably (flush + fsync)."""
        if self._handle is None:
            raise ValueError(f"journal {self.path} is closed")
        self._handle.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def header(
        self,
        plan,
        workers: int,
        retries: int,
        resumed: tuple[str, ...] | list[str] = (),
    ) -> None:
        """The run's opening line: everything resume needs to re-plan.

        ``plan.stages`` is recorded when the plan came from
        :func:`~repro.runtime.plan.plan_campaign` (sweeps and the
        paper's tables); hand-built graphs journal ``stages: null`` and
        are not resumable — their records still survive crashes.
        """
        self.append(
            {
                "type": "campaign",
                "campaign_id": plan.campaign_id,
                "time_unix": wall_time_unix(),
                "seed": plan.seed,
                "workers": workers,
                "retries": retries,
                "stages": list(plan.stages) if getattr(plan, "stages", None) else None,
                "specs": [spec.to_dict() for spec in plan.specs],
                "tasks": [task.id for task in plan.ordered()],
                "resumed": list(resumed),
            }
        )

    def task(self, record: dict) -> None:
        """Journal one settled task (telemetry stripped)."""
        entry = {key: value for key, value in record.items() if key not in _TELEMETRY_KEYS}
        entry["type"] = "task"
        entry["time_unix"] = wall_time_unix()
        self.append(entry)

    def event(self, event: dict) -> None:
        """Journal one engine event (already a structured dict)."""
        self.append({**event, "type": "event"})

    def complete(self, summary: dict, status: str) -> None:
        """The run's closing line (``status``: ``complete`` / ``crashed``)."""
        self.append(
            {
                "type": "complete",
                "time_unix": wall_time_unix(),
                "status": status,
                "summary": summary,
            }
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class JournalState:
    """What a journal file says happened (possibly mid-crash)."""

    #: the *latest* ``campaign`` header (resumed runs append another).
    header: dict | None = None
    #: last journalled record per task id (a retry's settle supersedes).
    records: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    #: the closing line of the latest run, ``None`` if it crashed.
    completed: dict | None = None
    #: whether the file ends in a torn (undecodable) line.
    torn_tail: bool = False

    def done_records(self) -> dict:
        """Task records that settled as ``done`` (resume replays these)."""
        return {
            task_id: record
            for task_id, record in self.records.items()
            if record.get("status") == "done"
        }


def read_journal(path: str | os.PathLike) -> JournalState:
    """Parse a journal file, tolerating a torn tail.

    A crash can land mid-``write``; everything up to the first
    undecodable line is trusted, the rest ignored.  Raises ``OSError``
    only when the file itself cannot be opened — callers distinguish
    "no journal" from "journal of a crashed run" that way.
    """
    state = JournalState()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                entry = json.loads(stripped)
            except json.JSONDecodeError:
                state.torn_tail = True
                break
            kind = entry.get("type")
            if kind == "campaign":
                state.header = entry
                state.completed = None  # a new run supersedes old closure
            elif kind == "task":
                state.records[entry["id"]] = entry
            elif kind == "event":
                state.events.append(entry)
            elif kind == "complete":
                state.completed = entry
    return state
