"""The experiment facade: one object from spec to results.

:class:`Experiment` ties a declarative
:class:`~repro.api.spec.ExperimentSpec` to an
:class:`~repro.api.store.ArtifactStore` and exposes the whole workflow —
traces, dataset bundles, the shared pre-trained NTT, fine-tuned models,
a serving :class:`~repro.api.predictor.Predictor` and the paper's table
runners — behind a handful of methods.  Every expensive step is
content-addressed, so re-running the same spec is served from disk.

    >>> from repro.api import Experiment, ExperimentSpec
    >>> exp = Experiment(ExperimentSpec(scenario="case1", scale="smoke"))
    >>> pre = exp.pretrained()          # trains once, then cache hits
    >>> predictor = exp.predictor()     # batched serving facade
"""

from __future__ import annotations

from repro.core.finetune import FinetuneMode, FinetuneResult
from repro.core.pipeline import ExperimentContext, run_table
from repro.core.pretrain import PretrainResult
from repro.datasets.generation import DatasetBundle
from repro.netsim.scenarios import ScenarioKind, generate_traces
from repro.netsim.trace import Trace

from repro.api.predictor import Predictor
from repro.api.spec import ExperimentSpec
from repro.api.stages import STAGE_REGISTRY
from repro.api.store import ArtifactStore

__all__ = ["Experiment"]

#: Sentinel: "no store argument given" (``None`` means "no store").
_DEFAULT_STORE = object()


class Experiment:
    """Spec-driven, store-backed experiment runner.

    Args:
        spec: the declarative experiment description; keyword arguments
            are accepted as a shorthand (``Experiment(scale="smoke")``).
        store: artifact store; when omitted the shared on-disk store
            (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) is used.  Pass
            ``store=None`` to disable persistence entirely.
    """

    def __init__(
        self,
        spec: ExperimentSpec | None = None,
        store=_DEFAULT_STORE,
        context: ExperimentContext | None = None,
        **spec_kwargs,
    ):
        if spec is None:
            spec = ExperimentSpec(**spec_kwargs)
        elif spec_kwargs:
            raise TypeError("pass either a spec or keyword fields, not both")
        self.spec = spec
        self.scale = spec.to_scale()
        if context is not None:
            # Bind to an existing context (the campaign engine's serial
            # path shares one context's in-memory caches across tasks).
            self.store = context.store if store is _DEFAULT_STORE else store
            self.context = context
        else:
            self.store = ArtifactStore.from_env() if store is _DEFAULT_STORE else store
            self.context = ExperimentContext(self.scale, store=self.store, seed=spec.seed)

    @classmethod
    def uncached(cls, spec: ExperimentSpec | None = None, **spec_kwargs) -> "Experiment":
        """An experiment that never touches the on-disk store."""
        return cls(spec, store=None, **spec_kwargs)

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash

    def __repr__(self) -> str:
        return (
            f"Experiment(scenario={self.spec.scenario!r}, scale={self.spec.scale!r}, "
            f"seed={self.spec.seed}, hash={self.spec_hash})"
        )

    # -- artifact resolution ------------------------------------------------------

    def artifact(self, stage: str, params: dict):
        """The artifact one ``stage`` task with ``params`` stores (traces,
        a bundle or a trained model).

        The campaign planner plans the task's sub-graph for this spec;
        the task's planned key finds the artifact in the context memo or
        the store, so a stage body asking for a planned dependency gets
        a hit.  On a miss the sub-graph's stages run in order,
        in-process on this experiment, through the engine's stage
        dispatch: each serves its own cache hit or stores under its
        planned key.  No journal, manifest or retry wraps them — the
        first failure raises as the stage's own exception, and
        telemetry nests under the caller's span.
        """
        from repro.runtime.plan import CampaignPlan, plan_task
        from repro.runtime.stages import load_artifact
        from repro.runtime.worker import execute_stage

        plan = CampaignPlan([self.spec])
        task = plan.tasks[plan_task(plan, self.spec, stage, params)]
        artifact = load_artifact(self, task)
        if artifact is None:
            for step in plan.ordered():
                # Without a store there is nowhere to keep traces, so
                # bundles simulate their runs inline instead.
                if self.store is not None or step.stage != "traces":
                    execute_stage(step.stage, self, step.params)
            artifact = load_artifact(self, task)
        return artifact

    # -- simulation ---------------------------------------------------------------

    def traces(self, scenario: str | None = None) -> list[Trace]:
        """Raw simulation traces for a scenario (store-backed)."""
        scenario = scenario or self.spec.scenario
        if self.store is None:
            return generate_traces(
                self.spec.scenario_config(scenario), n_runs=self.scale.n_runs
            )
        return self.artifact("traces", {"scenario": scenario})

    # -- datasets -----------------------------------------------------------------

    def bundle(self, scenario: str | None = None) -> DatasetBundle:
        """The windowed dataset for this spec's (or a named) scenario."""
        return self.artifact("bundle", {"scenario": scenario or self.spec.scenario})

    # -- models -------------------------------------------------------------------

    def pretrained(self, precision: str | None = None) -> PretrainResult:
        """The shared pre-trained NTT (store-backed).

        ``precision`` defaults to the spec's ``stage_params`` knob
        (``{"pretrain": {"precision": "float32"}}``); float64 keeps the
        pre-policy behaviour and cache keys exactly.
        """
        params = STAGE_REGISTRY.get("pretrain").params_for(self.spec)
        if precision is not None:
            params["precision"] = precision
        return self.artifact("pretrain", params)

    def pretrain_variant(self, features=None, aggregation=None) -> PretrainResult:
        """An ablated pre-training variant (store-backed; each Table 1 row
        keys its own checkpoint).

        ``features`` / ``aggregation`` are a :class:`FeatureSpec` ablation
        and an entry of ``scale.aggregation_variants`` (or their symbolic
        token names); with neither, this is :meth:`pretrained`.
        """
        from repro.runtime.stages import base_params, variant_tokens

        features, aggregation = variant_tokens(self.scale, features, aggregation)
        tokens = {"features": features, "aggregation": aggregation}
        return self.artifact("pretrain", base_params(self.spec, tokens))

    def finetuned(
        self,
        scenario: str | None = None,
        task: str = "delay",
        mode: str = FinetuneMode.DECODER_ONLY,
        fraction: float | None = None,
        features=None,
        aggregation=None,
        precision: str | None = None,
    ) -> FinetuneResult:
        """Fine-tune the shared pre-trained model (store-backed).

        Args:
            scenario: target environment (default: the spec's scenario).
            task: ``delay`` or ``mct``.
            mode: which parameters train (``decoder_only`` / ``full``).
            fraction: subsample the fine-tuning data (the paper's 10%
                datasets); ``None`` uses the full bundle.
            features: :class:`FeatureSpec` ablation override — the base
                model becomes the corresponding pre-training variant.
            aggregation: :class:`AggregationSpec` ablation override.
            precision: compute dtype for the fine-tune (defaults to the
                spec's ``stage_params["finetune"]["precision"]`` knob,
                then float64).  Non-default precisions key their own
                cached checkpoints; float64 keys are untouched.
        """
        result, _pipeline = self._finetuned(
            scenario, task, mode, fraction, features, aggregation, precision
        )
        return result

    def _finetuned(
        self, scenario, task, mode, fraction, features=None, aggregation=None,
        precision=None,
    ):
        """A fine-tuned model plus the pipeline that feeds it."""
        from repro.runtime.stages import finetune_params, variant_tokens

        features, aggregation = variant_tokens(self.scale, features, aggregation)
        params = finetune_params(
            self.spec, scenario=scenario or self.spec.scenario, task=task, mode=mode,
            fraction=fraction, features=features, aggregation=aggregation,
        )
        if precision is not None:
            params["precision"] = precision
        return self.artifact("finetune", params)

    # -- serving ------------------------------------------------------------------

    def predictor(
        self,
        scenario: str | None = None,
        task: str = "delay",
        mode: str | None = None,
        fraction: float | None = None,
        batch_size: int = 256,
    ) -> Predictor:
        """A batched :class:`Predictor` over the fine-tuned model for
        this spec's scenario.

        When the scenario *is* the pre-training environment and the
        fine-tune options are left at their defaults, the pre-trained
        model is served directly; passing ``mode`` (even the
        ``decoder_only`` default) or ``fraction`` explicitly always
        triggers a real fine-tune.
        """
        scenario = scenario or self.spec.scenario
        is_default_finetune = mode is None and fraction is None
        mode = FinetuneMode.DECODER_ONLY if mode is None else mode
        if scenario == ScenarioKind.PRETRAIN and task == "delay" and is_default_finetune:
            pre = self.pretrained()
            return Predictor(pre.model, pre.pipeline, task="delay", batch_size=batch_size)
        result, pipeline = self._finetuned(scenario, task, mode, fraction)
        return Predictor(result.model, pipeline, task=task, batch_size=batch_size)

    def save_checkpoint(self, path, task: str = "delay", **finetune_kwargs) -> None:
        """Export a self-describing checkpoint loadable by
        :meth:`Predictor.from_checkpoint` (and ``repro predict``)."""
        self.predictor(task=task, **finetune_kwargs).save(path)

    # -- the paper's evaluation ---------------------------------------------------

    def run_table(self, table: int) -> dict:
        """Run one of the paper's tables (1, 2 or 3) on this context."""
        return run_table(table, self.scale, self.context)
