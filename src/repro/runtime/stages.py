"""Built-in stage implementations, registered in the stage registry.

The built-in stages are ordinary :class:`~repro.api.stages.Stage`
plugins: the planner (:mod:`repro.runtime.plan`) reads their params,
dependencies, kind, key and version from the registry, the worker
dispatches through it, and custom stages registered with
:func:`~repro.api.stages.register_stage` ride the exact same rails.

Every stage body has the signature ``run(experiment, inputs, params)``
and returns ``(cache_hit, result)`` where ``result`` is a flat JSON-able
dictionary (it crosses process boundaries and lands in the campaign
manifest).  ``inputs`` maps dependency task ids to their result
dictionaries; the built-in stages ignore it — heavy artifacts flow
through the content-addressed store, not the task graph — but custom
stages are free to consume it (see
:func:`~repro.api.stages.inputs_by_stage`).

All built-in stages carry ``version=0``: the seed version, which leaves
their cache keys exactly as before the stage API existed.  Bump a
stage's version after editing its code to invalidate that stage's
artifacts (and everything keyed off them) without touching the rest of
the cache.

Stages own their keys.  Each built-in declares a ``key_fn`` like any
plugin; the planner keys every task through
:meth:`~repro.api.stages.Stage.task_key`, and the stage body reads and
writes its artifact under exactly that ``params["key"]`` — through the
context's key → artifact memo, then the store.  Upstream artifacts come
from the :class:`~repro.api.experiment.Experiment` facade, which plans
the same sub-graph with the same planner and derives no key of its own.
The one key a planner cannot know is a fine-tuning bundle's store key
(it covers the pre-training receiver index), so only the ``bundle``
stage derives it (:func:`_bundle_store_key`).

The training stages accept a ``precision`` stage parameter
(``ExperimentSpec(stage_params={"pretrain": {"precision": "float32"}})``
and likewise for ``finetune``): the model trains in float32 for half
the matmul memory bandwidth, and the resulting checkpoints are cached
under precision-derived keys (:func:`repro.api.store.precision_key`) —
the float64 default leaves every key byte-identical.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.api.hashing import stable_hash
from repro.api.predictor import Predictor
from repro.api.stages import STAGE_REGISTRY, register_stage
from repro.api.store import (
    bundle_key,
    evaluation_key,
    finetuned_key,
    precision_key,
    pretrained_key,
    scratch_key,
    traces_key,
)
from repro.core.baselines import evaluate_baselines
from repro.core.features import FeaturePipeline, FeatureSpec
from repro.core.finetune import (
    FinetuneMode,
    finetune_delay,
    finetune_mct,
    train_delay_from_scratch,
    train_mct_from_scratch,
)
from repro.core.pretrain import pretrain
from repro.datasets.generation import generate_dataset
from repro.netsim.scenarios import (
    ScenarioKind,
    build_scenario,
    generate_traces,
    run_scenario,
)
from repro.utils.stats import percentile_summary

__all__ = [
    "resolve_variant",
    "variant_tokens",
    "base_params",
    "finetune_params",
    "load_artifact",
]

#: Feature-ablation tokens (kept symbolic so task parameters stay JSON).
_FEATURE_VARIANTS = {
    "without_size": FeatureSpec.without_size,
    "without_delay": FeatureSpec.without_delay,
    "without_receiver": FeatureSpec.without_receiver,
}


def resolve_variant(scale, features: str | None, aggregation: str | None):
    """Symbolic ablation tokens → the concrete config objects.

    ``features`` names a :class:`FeatureSpec` ablation constructor;
    ``aggregation`` names an entry of ``scale.aggregation_variants``.
    """
    feature_spec = None
    if features is not None:
        try:
            feature_spec = _FEATURE_VARIANTS[features]()
        except KeyError:
            raise ValueError(
                f"unknown feature variant {features!r}; "
                f"choose from {sorted(_FEATURE_VARIANTS)}"
            ) from None
    aggregation_spec = None
    if aggregation is not None:
        try:
            aggregation_spec = scale.aggregation_variants[aggregation]
        except KeyError:
            raise ValueError(
                f"unknown aggregation variant {aggregation!r}; "
                f"choose from {sorted(scale.aggregation_variants)}"
            ) from None
    return feature_spec, aggregation_spec


def variant_tokens(scale, features=None, aggregation=None):
    """Ablation config objects → their symbolic tokens (the inverse of
    :func:`resolve_variant`); tokens and ``None`` pass through."""
    if features is not None and not isinstance(features, str):
        choices = {name: make() for name, make in _FEATURE_VARIANTS.items()}
        features = _token_for("feature", features, choices)
    if aggregation is not None and not isinstance(aggregation, str):
        aggregation = _token_for("aggregation", aggregation, scale.aggregation_variants)
    return features, aggregation


def _token_for(what: str, value, choices: dict) -> str:
    for name, candidate in choices.items():
        if candidate == value:
            return name
    raise ValueError(
        f"{what} variant {value!r} is not a registered ablation; "
        f"choose from {sorted(choices)}"
    )


# -- parameters and dependencies -------------------------------------------------
#
# A task's parameters are its stage's defaults (params_fn) overlaid with
# the spec's stage_params; each stage derives its dependencies, as
# (stage, params) pairs, from its own parameters.


def _scenario_defaults(spec) -> dict:
    return {"scenario": spec.scenario}


#: Fine-tuning parameters besides the target scenario.
_FINETUNE_DEFAULTS = {
    "task": "delay",
    "mode": FinetuneMode.DECODER_ONLY,
    "fraction": None,
    "features": None,
    "aggregation": None,
}


def _finetune_defaults(spec) -> dict | None:
    # The pre-training environment has nothing to fine-tune for.
    return None if spec.scenario == ScenarioKind.PRETRAIN else finetune_params(spec)


def _scratch_defaults(spec) -> dict:
    return {"scenario": spec.scenario, "task": "delay", "fraction": None}


def _evaluate_defaults(spec) -> dict:
    return {"scenario": spec.scenario, "task": "delay"}


def finetune_params(spec, **overrides) -> dict:
    """The ``finetune`` task parameters for one spec with ``overrides``
    applied — on any scenario, the pre-training one included."""
    return {
        "scenario": spec.scenario,
        **_FINETUNE_DEFAULTS,
        **spec.params_for("finetune"),
        **overrides,
    }


def base_params(spec, params: dict) -> dict:
    """The ``pretrain`` parameters of the model a fine-tune starts from.

    Without ablation tokens that is the spec's own pre-trained model
    (its precision knob included); an ablation variant always trains at
    the default precision.
    """
    features, aggregation = params.get("features"), params.get("aggregation")
    if features is None and aggregation is None:
        return STAGE_REGISTRY.get("pretrain").params_for(spec)
    return {"features": features, "aggregation": aggregation}


def _bundle_deps(spec, params: dict):
    # A fine-tuning bundle inherits the pre-training receiver index.
    yield "traces", {"scenario": params["scenario"]}
    if params["scenario"] != ScenarioKind.PRETRAIN:
        yield "bundle", {"scenario": ScenarioKind.PRETRAIN}


def _pretrain_deps(spec, params: dict):
    yield "bundle", {"scenario": ScenarioKind.PRETRAIN}


def _finetune_deps(spec, params: dict):
    yield "pretrain", base_params(spec, params)
    yield "bundle", {"scenario": params["scenario"]}


def _scratch_deps(spec, params: dict):
    # The pre-trained model donates the fitted feature pipeline.
    yield "pretrain", base_params(spec, {})
    yield "bundle", {"scenario": params["scenario"]}


def _baselines_deps(spec, params: dict):
    yield "bundle", {"scenario": params["scenario"]}


def _evaluate_deps(spec, params: dict):
    """The model an evaluation scores: the pre-trained model on its own
    environment's delay task, the spec's fine-tune everywhere else."""
    scenario, task = params["scenario"], params["task"]
    if scenario == ScenarioKind.PRETRAIN and task == "delay":
        yield "pretrain", STAGE_REGISTRY.get("pretrain").params_for(spec)
    else:
        yield "finetune", finetune_params(spec, scenario=scenario, task=task)


# -- key functions ----------------------------------------------------------------
#
# One function per stage derives its artifact's content address; the
# planner applies the stage version through Stage.task_key, and a key
# that builds on another stage's artifact (a fine-tune on its base
# model) calls that stage's task_key rather than re-deriving it.


def _traces_key(spec, params: dict) -> str:
    return traces_key(spec.scenario_config(params["scenario"]), spec.to_scale().n_runs)


def _bundle_plan_key(spec, params: dict) -> str:
    """The bundle's planning key: a surrogate over the inputs of its
    store key (see :func:`_bundle_store_key`), which for fine-tuning
    bundles also covers the data-dependent pre-training receiver index."""
    scenario = params["scenario"]
    scale = spec.to_scale()
    return stable_hash(
        {
            "plan": "bundle",
            "scenario": spec.scenario_config(scenario),
            "window": scale.window,
            "n_runs": scale.n_runs,
            "pretrain": None
            if scenario == ScenarioKind.PRETRAIN
            else spec.scenario_config(ScenarioKind.PRETRAIN),
        }
    )


def _pretrain_key(spec, params: dict) -> str:
    scale = spec.to_scale()
    features, aggregation = resolve_variant(
        scale, params.get("features"), params.get("aggregation")
    )
    return precision_key(
        pretrained_key(
            spec.scenario_config(ScenarioKind.PRETRAIN),
            scale.window,
            scale.n_runs,
            scale.model_config(features=features, aggregation=aggregation),
            scale.pretrain_settings,
        ),
        params.get("precision"),
    )


def _base_key(spec, params: dict) -> str:
    """The ``pretrain`` task key of the model a fine-tune starts from."""
    return STAGE_REGISTRY.get("pretrain").task_key(spec, base_params(spec, params))


def _finetune_key(spec, params: dict) -> str:
    if params["task"] not in ("delay", "mct"):
        raise ValueError(f"unknown task {params['task']!r}; choose 'delay' or 'mct'")
    return precision_key(
        finetuned_key(
            _base_key(spec, params),
            spec.scenario_config(params["scenario"]),
            params["task"],
            params["mode"],
            params["fraction"],
            spec.to_scale().finetune_settings,
        ),
        params.get("precision"),
    )


def _scratch_key(spec, params: dict) -> str:
    scale = spec.to_scale()
    return scratch_key(
        _base_key(spec, {}),  # donates the fitted feature pipeline
        spec.scenario_config(params["scenario"]),
        params["task"],
        params["fraction"],
        scale.model_config(),
        scale.finetune_settings,
    )


def _baselines_key(spec, params: dict) -> str:
    scale = spec.to_scale()
    return evaluation_key(
        "baselines",
        {
            "scenario": spec.scenario_config(params["scenario"]),
            "window": scale.window,
            "n_runs": scale.n_runs,
        },
        "baselines",
    )


def _evaluate_key(spec, params: dict) -> str:
    ((stage, model_params),) = _evaluate_deps(spec, params)
    return evaluation_key(
        STAGE_REGISTRY.get(stage).task_key(spec, model_params),
        spec.scenario_config(params["scenario"]),
        params["task"],
    )


# -- artifact access --------------------------------------------------------------


def _bundle_store_key(experiment, scenario: str):
    """A bundle's store key plus the receiver index it is built with.

    Fine-tuning bundles inherit the pre-training receiver identities, so
    their store key is known only once the pre-training bundle exists.
    Versioned like the planning key, so a stage-version bump moves both.
    """
    receiver_index = None
    if scenario != ScenarioKind.PRETRAIN:
        receiver_index = experiment.bundle(ScenarioKind.PRETRAIN).receiver_index
    scale = experiment.scale
    key = STAGE_REGISTRY.get("bundle").versioned_key(
        bundle_key(
            experiment.spec.scenario_config(scenario),
            scale.window,
            scale.n_runs,
            receiver_index,
        )
    )
    return key, receiver_index


def _load_bundle(experiment, params: dict):
    """A planned bundle from the memo (planning key) or the store."""
    context, store = experiment.context, experiment.store
    bundle = context.recall(params["key"])
    if bundle is None and store is not None:
        store_key, _ = _bundle_store_key(experiment, params["scenario"])
        bundle = store.get_bundle(store_key)
        if bundle is not None:
            context.remember(params["key"], bundle)
    return bundle


#: Store readers of the model stages' checkpoints.
_CHECKPOINT_GETTERS = {
    "pretrain": "get_pretrained",
    "finetune": "get_finetuned",
    "scratch": "get_finetuned",
}


def load_artifact(experiment, task):
    """The artifact a planned task stores, or ``None`` when neither the
    context memo nor the store holds it yet.

    Traces come straight from the store (they are never held in memory);
    bundles and trained models come from the memo, then the store.
    """
    if task.stage == "traces":
        store = experiment.store
        return None if store is None else store.get_traces(task.key, experiment.scale.n_runs)
    if task.stage == "bundle":
        return _load_bundle(experiment, task.params)
    return experiment.context.recall(task.key, _CHECKPOINT_GETTERS[task.stage])


def _remember_finetuned(experiment, key: str, result, pipeline) -> None:
    """Store a fine-tuned (or from-scratch) model under its planned key
    and memoise it in the store's ``get_finetuned`` form."""
    if experiment.store is not None:
        experiment.store.put_finetuned(key, result, pipeline)
    experiment.context.remember(key, (result, pipeline))


def _mct_pipeline(pre) -> FeaturePipeline:
    """The pre-trained pipeline with a fresh, isolated MCT scaler.

    ``finetune_mct`` / ``train_mct_from_scratch`` fit the MCT scaler on
    the first dataset they see, so sharing the pre-trained pipeline would
    make a stored artifact depend on in-process call order rather than
    on its key alone.
    """
    pipeline = FeaturePipeline()
    pipeline.feature_scaler = pre.pipeline.feature_scaler
    pipeline.message_size_scaler = pre.pipeline.message_size_scaler
    return pipeline


# -- the stages -------------------------------------------------------------------


@register_stage(
    "traces",
    kind="traces",
    key_fn=_traces_key,
    params_fn=_scenario_defaults,
    default=True,
    description="raw simulation traces for one scenario",
)
def _stage_traces(experiment, inputs, params):
    store, key = experiment.store, params["key"]
    n_runs = experiment.scale.n_runs
    config = experiment.spec.scenario_config(params["scenario"])
    if store is None:
        traces = generate_traces(config, n_runs=n_runs)
        return False, {
            "n_runs": len(traces),
            "total_packets": int(sum(len(trace) for trace in traces)),
        }
    if store.has_traces(key, n_runs):
        # Cache hit: report run-set statistics straight from the
        # sidecar — no npz is loaded just for manifest bookkeeping.
        meta = store.trace_run_meta(key) or {}
        if "total_packets" in meta:
            return True, {
                "n_runs": n_runs,
                "total_packets": int(meta["total_packets"]),
            }
        traces = store.get_traces(key, n_runs)
        return True, {
            "n_runs": len(traces),
            "total_packets": int(sum(len(trace) for trace in traces)),
        }
    # Cache miss: stream each run's columns straight to disk as it is
    # generated, instead of materialising the whole run set in memory
    # first.  The sidecar published last keeps partial writes invisible
    # to readers.
    total_packets = 0
    for run_index in range(n_runs):
        trace = run_scenario(config, run_index)
        store.put_trace_run(key, run_index, trace)
        total_packets += len(trace)
    store.finalize_trace_runs(key, n_runs, total_packets=total_packets)
    return False, {"n_runs": n_runs, "total_packets": total_packets}


@register_stage(
    "bundle",
    deps=_bundle_deps,
    kind="bundles",
    key_fn=_bundle_plan_key,
    params_fn=_scenario_defaults,
    default=True,
    description="windowed dataset bundle for one scenario",
)
def _stage_bundle(experiment, inputs, params):
    bundle = _load_bundle(experiment, params)
    hit = bundle is not None
    if not hit:
        scenario, store = params["scenario"], experiment.store
        store_key, receiver_index = _bundle_store_key(experiment, scenario)
        scale = experiment.scale
        bundle = generate_dataset(
            experiment.spec.scenario_config(scenario),
            window_config=scale.window,
            n_runs=scale.n_runs,
            name=scenario,
            receiver_index=receiver_index,
            # Without a store there are no stored runs: simulate inline.
            traces=experiment.traces(scenario) if store is not None else None,
        )
        if store is not None:
            store.put_bundle(store_key, bundle)
        experiment.context.remember(params["key"], bundle)
    return hit, {
        "n_windows": bundle.n_windows,
        "n_packets": bundle.n_packets,
        "n_receivers": len(bundle.receiver_index),
    }


@register_stage(
    "pretrain",
    deps=_pretrain_deps,
    kind="checkpoints",
    key_fn=_pretrain_key,
    default=True,
    description="pre-train the shared NTT (or an ablated variant)",
)
def _stage_pretrain(experiment, inputs, params):
    key = params["key"]
    result = experiment.context.recall(key, "get_pretrained")
    hit = result is not None
    if not hit:
        scale = experiment.scale
        features, aggregation = resolve_variant(
            scale, params.get("features"), params.get("aggregation")
        )
        result = pretrain(
            scale.model_config(features=features, aggregation=aggregation),
            experiment.bundle(ScenarioKind.PRETRAIN),
            settings=scale.pretrain_settings,
            precision=params.get("precision", "float64"),
        )
        if experiment.store is not None:
            experiment.store.put_pretrained(key, result)
        experiment.context.remember(key, result)
    return hit, {
        "test_mse_seconds2": result.test_mse_seconds2,
        "epochs_run": result.history.epochs_run,
        "train_wall_time_s": result.history.wall_time,
    }


def _summarise_finetune(result) -> dict:
    return {
        "test_mse": result.test_mse,
        "training_time_s": result.training_time,
        "mode": result.mode,
        "task": result.task,
    }


def _finetune_data(experiment, params: dict):
    """The (optionally subsampled) bundle a fine-tune trains on."""
    bundle = experiment.bundle(params["scenario"])
    fraction = params["fraction"]
    return bundle if fraction is None else bundle.small_fraction(fraction)


@register_stage(
    "finetune",
    deps=_finetune_deps,
    kind="checkpoints",
    key_fn=_finetune_key,
    params_fn=_finetune_defaults,
    default=True,
    description="fine-tune the pre-trained NTT on a target scenario",
)
def _stage_finetune(experiment, inputs, params):
    key = params["key"]
    cached = experiment.context.recall(key, "get_finetuned")
    if cached is not None:
        return True, _summarise_finetune(cached[0])
    task, mode = params["task"], params["mode"]
    pre = experiment.pretrain_variant(
        features=params.get("features"), aggregation=params.get("aggregation")
    )
    bundle = _finetune_data(experiment, params)
    settings = experiment.scale.finetune_settings
    precision = params.get("precision", "float64")
    model = copy.deepcopy(pre.model)
    if task == "delay":
        pipeline = pre.pipeline
        result = finetune_delay(
            model, pipeline, bundle, settings=settings, mode=mode, precision=precision
        )
    else:
        pipeline = _mct_pipeline(pre)
        result = finetune_mct(
            model, pre.model.config, pipeline, bundle,
            settings=settings, mode=mode, precision=precision,
        )
    _remember_finetuned(experiment, key, result, pipeline)
    return False, _summarise_finetune(result)


@register_stage(
    "scratch",
    deps=_scratch_deps,
    kind="checkpoints",
    key_fn=_scratch_key,
    params_fn=_scratch_defaults,
    description="train the NTT from scratch on a target scenario (Tables 1-3)",
)
def _stage_scratch(experiment, inputs, params):
    """The paper's from-scratch rows: full training, no pre-trained
    weights, but normalised by the pre-training pipeline."""
    key = params["key"]
    cached = experiment.context.recall(key, "get_finetuned")
    if cached is not None:
        return True, _summarise_finetune(cached[0])
    pre = experiment.pretrained()
    bundle = _finetune_data(experiment, params)
    config = experiment.scale.model_config()
    settings = experiment.scale.finetune_settings
    if params["task"] == "delay":
        pipeline = pre.pipeline
        result = train_delay_from_scratch(config, pipeline, bundle, settings=settings)
    else:
        pipeline = _mct_pipeline(pre)
        result = train_mct_from_scratch(config, pipeline, bundle, settings=settings)
    _remember_finetuned(experiment, key, result, pipeline)
    return False, _summarise_finetune(result)


@register_stage(
    "baselines",
    deps=_baselines_deps,
    kind="evaluations",
    key_fn=_baselines_key,
    params_fn=_scenario_defaults,
    description="naive baseline evaluations on a scenario's test set",
)
def _stage_baselines(experiment, inputs, params):
    store, key = experiment.store, params["key"]
    if store is not None:
        cached = store.get_json("evaluations", key)
        if cached is not None:
            return True, cached
    rows = evaluate_baselines(experiment.bundle(params["scenario"]).test)
    payload = {"scenario": params["scenario"], "rows": rows}
    if store is not None:
        store.put_json("evaluations", key, payload)
    return False, payload


@register_stage(
    "evaluate",
    deps=_evaluate_deps,
    kind="evaluations",
    key_fn=_evaluate_key,
    params_fn=_evaluate_defaults,
    default=True,
    description="the spec's model vs. the naive baselines on its test set",
)
def _stage_evaluate(experiment, inputs, params):
    """Terminal sweep stage: the model this task's key names (its
    declared dependency) vs. the naive baselines on its scenario's
    held-out test set (cached as a JSON evaluation)."""
    store, key = experiment.store, params["key"]
    if store is not None:
        cached = store.get_json("evaluations", key)
        if cached is not None:
            return True, cached
    scenario = params["scenario"]
    task = params["task"]
    ((stage, model_params),) = _evaluate_deps(experiment.spec, params)
    model = experiment.artifact(stage, model_params)
    result, pipeline = (model, model.pipeline) if stage == "pretrain" else model
    predictor = Predictor(result.model, pipeline, task=task)
    test = experiment.bundle(scenario).test
    if task == "mct":
        test = test.with_completed_messages_only()
    predictions = predictor.predict_dataset(test)
    actual = np.log(test.mct_target) if task == "mct" else test.delay_target
    payload = {
        "scenario": scenario,
        "task": task,
        "n_test_windows": int(len(test)),
        "model_mse": float(np.mean((predictions - actual) ** 2)),
        "baselines": evaluate_baselines(test),
    }
    if store is not None:
        store.put_json("evaluations", key, payload)
    return False, payload


@register_stage(
    "trace_stats",
    params_fn=_scenario_defaults,
    description="Fig. 4-style per-scenario trace statistics",
)
def _stage_trace_stats(experiment, inputs, params):
    """Fig. 4-style per-scenario trace statistics (always recomputed —
    this stage exists to measure the simulator itself)."""
    config = experiment.spec.scenario_config(params["scenario"])
    handle = build_scenario(config)
    trace = handle.run()
    delays = trace.delay
    summary = percentile_summary(delays * 1e3)
    per_receiver = {
        str(receiver): float(delays[trace.receiver_id == receiver].mean() * 1e3)
        for receiver in sorted(set(trace.receiver_id.tolist()))
    }
    return False, {
        "packets": len(trace),
        "messages": int(trace.is_message_end.sum()),
        "delay_mean_ms": summary.mean,
        "delay_p50_ms": summary.p50,
        "delay_p99_ms": summary.p99,
        "delay_p999_ms": summary.p999,
        # SimStats aggregates drops as they happen (threaded through
        # every queue), so no topology walk is needed here.
        "queue_drops": handle.sim.stats.packets_dropped,
        "per_receiver_mean_delay_ms": per_receiver,
        "events_processed": handle.sim.events_processed,
    }
