"""Campaign planning: specs → a deduplicated stage-task graph.

A campaign turns a set of :class:`~repro.api.spec.ExperimentSpec`\\ s
into :class:`StageTask`\\ s along the experiment pipeline.  The standard
pipeline::

    traces → bundle → pretrain → finetune → evaluate

is not hard-coded: every stage — built-in, extension or user-registered
— lives in the :data:`~repro.api.stages.STAGE_REGISTRY` and declares
its own parameters, dependencies, cache kind, key and version there.
One recursive function, :func:`plan_task`, plans any stage task after
the tasks it depends on; sweeps, the paper's tables (spec families, see
:mod:`repro.core.pipeline`) and the
:class:`~repro.api.experiment.Experiment` facade all plan through it.
A spec may carry its own ``pipeline`` (any registered stages) plus
per-stage ``stage_params``; both participate in the spec's content hash.

Tasks are deduplicated by the same content-addressed keys the
:class:`~repro.api.store.ArtifactStore` uses, so two specs sharing a
pre-training environment plan *one* pretrain task, not two.  The plan
is purely declarative — executing it (serially or on a worker pool) is
the :class:`~repro.runtime.engine.CampaignEngine`'s job, and the actual
caching still happens inside the store, so a slightly conservative plan
can never cause recomputation.

Every task is assigned an independent :class:`numpy.random.SeedSequence`
via ``spawn`` at planning time (deterministic in the plan, independent
of execution order), covering engine-level randomness such as retry
backoff.  Stage-level randomness always comes from the spec itself —
that is what keys the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Importing the module registers the built-in stages.
import repro.runtime.stages  # noqa: F401
from repro.api.hashing import stable_hash
from repro.api.spec import ExperimentSpec
from repro.api.stages import STAGE_REGISTRY

__all__ = [
    "StageTask",
    "CampaignPlan",
    "plan_campaign",
    "plan_task",
    "spec_for_scale",
]


def spec_for_scale(scale, seed: int = 0, scenario: str = "pretrain") -> ExperimentSpec:
    """A fully spelled-out spec equivalent to an :class:`ExperimentScale`.

    The table runners receive ``(scale, context)``; campaign planning
    needs a spec, so the scale's resolved settings become explicit
    overrides (hashing identically to the short form when the scale is
    an unmodified preset).
    """
    return ExperimentSpec(
        scenario=scenario,
        scale=scale.name,
        seed=seed,
        n_runs=scale.n_runs,
        window=scale.window,
        model=scale.model,
        pretrain=scale.pretrain_settings,
        finetune=scale.finetune_settings,
        fine_fraction=scale.fine_fraction,
    )


@dataclass
class StageTask:
    """One schedulable unit of campaign work."""

    id: str
    stage: str
    spec: ExperimentSpec
    params: dict = field(default_factory=dict)
    #: store kind + key backing this task (``None`` → not cacheable).
    kind: str | None = None
    key: str | None = None
    deps: tuple[str, ...] = ()
    #: hashes of every spec that contributed this task (dedup record).
    spec_hashes: tuple[str, ...] = ()
    #: ``SeedSequence`` spawn key assigned at planning time.
    spawn_key: tuple[int, ...] = ()
    #: module defining the stage's ``run`` (worker-process provenance).
    module: str = ""

    def payload(
        self,
        store_root: str | None,
        seed: int,
        attempt: int = 0,
        inputs: dict | None = None,
    ) -> dict:
        """The picklable/JSON form handed to workers.

        ``attempt`` counts prior failures; workers apply a jittered
        backoff (derived from the task's spawned seed sequence, so it is
        reproducible) before a retry executes.  ``inputs`` maps this
        task's dependency ids to their result dictionaries.
        """
        return {
            "id": self.id,
            "stage": self.stage,
            "spec": self.spec.to_dict(),
            "params": self.params,
            "key": self.key,
            "kind": self.kind,
            "store_root": store_root,
            "seed_entropy": seed,
            "spawn_key": list(self.spawn_key),
            "attempt": attempt,
            "inputs": dict(inputs or {}),
            "stage_module": self.module,
        }


class CampaignPlan:
    """An ordered, deduplicated task graph for one campaign."""

    def __init__(self, specs: list[ExperimentSpec], seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self.tasks: dict[str, StageTask] = {}
        #: the campaign-level stage selection, recorded by
        #: :func:`plan_campaign` so journals can re-plan the identical
        #: graph on resume; ``None`` for hand-built plans, which
        #: journal records but are not resumable.
        self.stages: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self.tasks

    @property
    def campaign_id(self) -> str:
        """Content hash of the whole plan (used to key the manifest)."""
        return stable_hash({"campaign": sorted(self.tasks)})

    def add(
        self,
        stage: str,
        spec: ExperimentSpec,
        params: dict | None = None,
        kind: str | None = None,
        key: str | None = None,
        deps: tuple[str, ...] = (),
    ) -> str:
        """Add (or merge into) a task; returns its id.

        ``stage`` must be registered.  Tasks are identified by ``stage``
        + cache key — the same key planned from two specs collapses into
        one task whose ``spec_hashes`` records both.
        """
        entry = STAGE_REGISTRY.get(stage)  # raises with registered names
        params = dict(params or {})
        digest = key if key is not None else stable_hash(
            {"spec": spec.spec_hash, "params": params}
        )
        task_id = f"{stage}:{digest[:12]}"
        spec_hash = spec.spec_hash
        existing = self.tasks.get(task_id)
        if existing is not None:
            if spec_hash not in existing.spec_hashes:
                existing.spec_hashes += (spec_hash,)
            existing.deps = tuple(dict.fromkeys(existing.deps + tuple(deps)))
            return task_id
        params["key"] = key
        self.tasks[task_id] = StageTask(
            id=task_id,
            stage=stage,
            spec=spec,
            params=params,
            kind=kind,
            key=key,
            deps=tuple(dict.fromkeys(deps)),
            spec_hashes=(spec_hash,),
            module=entry.module,
        )
        return task_id

    def finalise(self) -> "CampaignPlan":
        """Assign each task an independent spawned seed sequence."""
        children = np.random.SeedSequence(self.seed).spawn(len(self.tasks))
        for task, child in zip(self.tasks.values(), children):
            task.spawn_key = tuple(int(part) for part in child.spawn_key)
        return self

    def ordered(self) -> list[StageTask]:
        """Tasks in execution order (insertion order is topological:
        dependencies are always added before their dependents)."""
        return list(self.tasks.values())

    def describe(self, store=None) -> str:
        """Human-readable plan listing (the ``--dry-run`` output)."""
        lines = [
            f"campaign {self.campaign_id}: "
            f"{len(self.specs)} spec(s) -> {len(self.tasks)} task(s)"
        ]
        for task in self.ordered():
            cached = ""
            # Bundles are deduplicated on a planning surrogate (the real
            # key embeds the data-dependent receiver index), so their
            # cache state is only knowable at execution time.
            if (
                store is not None
                and task.kind is not None
                and task.key is not None
                and task.kind != "bundles"
            ):
                cached = "  [cached]" if store.is_current(task.kind, task.key) else ""
            shared = f"  (shared by {len(task.spec_hashes)} specs)" if len(task.spec_hashes) > 1 else ""
            deps = f"  <- {', '.join(task.deps)}" if task.deps else ""
            lines.append(f"  {task.id:26s}{deps}{shared}{cached}")
        return "\n".join(lines)


# -- planning ---------------------------------------------------------------------


def plan_campaign(
    specs: list[ExperimentSpec],
    stages: tuple[str, ...] | None = None,
    seed: int = 0,
) -> CampaignPlan:
    """Plan every spec's stage selection, deduplicated by key.

    ``stages`` selects registered stages (e.g. ``("traces",)`` plans a
    simulation-only sweep, ``("trace_stats",)`` a statistics fan-out,
    ``("federated_pretrain",)`` a registered extension stage); the
    default is the registry's standard pipeline.  A spec carrying its
    own ``pipeline`` overrides the campaign-level selection for that
    spec.  Each spec plans the selected stages that apply to it and
    that no other selected stage depends on, each together with
    everything it depends on (:func:`plan_task`).
    """
    if stages is None:
        stages = STAGE_REGISTRY.default_pipeline()
    _validate_stages(tuple(stages))
    plan = CampaignPlan(specs, seed=seed)
    plan.stages = tuple(stages)
    for spec in specs:
        selection = tuple(spec.pipeline) if spec.pipeline is not None else tuple(stages)
        if spec.pipeline is not None:
            _validate_stages(selection)
        targets = _targets(spec, selection)
        if not targets:
            # e.g. stages=("finetune",) for the pre-training scenario:
            # refuse to "succeed" with an empty campaign.
            raise ValueError(
                f"stages {selection} plan no work for spec {spec.scenario!r} "
                f"(try the default {STAGE_REGISTRY.default_pipeline()})"
            )
        for name, params in targets:
            plan_task(plan, spec, name, params)
    return plan.finalise()


def plan_task(plan: CampaignPlan, spec: ExperimentSpec, stage: str, params: dict) -> str:
    """Add one ``stage`` task for ``spec``, after every task it depends
    on (recursively); returns its id.

    The task is keyed by the stage's own key function
    (:meth:`~repro.api.stages.Stage.task_key`), so planning a task that
    already exists merges into it.
    """
    entry = STAGE_REGISTRY.get(stage)
    deps = tuple(
        plan_task(plan, spec, name, dep_params)
        for name, dep_params in entry.dependencies(spec, params)
    )
    return plan.add(
        stage, spec, params, kind=entry.kind, key=entry.task_key(spec, params), deps=deps
    )


def _validate_stages(stages: tuple[str, ...]) -> None:
    """Reject unregistered stage names, listing the registered ones."""
    unknown = sorted(name for name in set(stages) if name not in STAGE_REGISTRY)
    if unknown:
        raise ValueError(
            f"unknown stages {unknown}; choose from the registered "
            f"stages {STAGE_REGISTRY.sweep_stages()}"
        )


def _targets(spec: ExperimentSpec, selection: tuple[str, ...]) -> list:
    """The ``(stage, params)`` tasks a spec plans for its selection.

    A selected stage that does not apply to the spec is dropped, and one
    that another selected stage depends on is planned as that
    dependency; the rest follow the registry's ``sweep_stages`` order
    (the standard pipeline first).
    """
    chosen = {}
    for name in STAGE_REGISTRY.sweep_stages():
        if name in selection:
            params = STAGE_REGISTRY.get(name).params_for(spec)
            if params is not None:
                chosen[name] = params
    upstream = {name: _upstream(spec, name, params) for name, params in chosen.items()}
    return [
        (name, params)
        for name, params in chosen.items()
        if not any(name in upstream[other] for other in chosen if other != name)
    ]


def _upstream(spec: ExperimentSpec, stage: str, params: dict) -> set:
    """Names of every stage one task depends on, transitively."""
    names = set()
    for name, dep_params in STAGE_REGISTRY.get(stage).dependencies(spec, params):
        names.add(name)
        names |= _upstream(spec, name, dep_params)
    return names
