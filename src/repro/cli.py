"""Command-line interface: ``python -m repro <command>``.

Commands mirror the ``repro.api`` workflow:

* ``run`` — run the paper's evaluation tables through the cached
  experiment facade.
* ``sweep`` — run a campaign of specs (a scenario × scale × seed grid,
  or a JSON sweep file) through the ``repro.runtime`` engine, optionally
  on a worker pool (``--workers N``); ``--stages`` selects any
  registered pipeline stages (see ``repro stages``) and ``--dry-run``
  prints the planned, deduplicated task graph.
* ``predict`` — serve batched predictions from a checkpoint (or the
  cached pre-trained/fine-tuned model); checkpoints load through the
  serving runtime's ``ModelManager``, so paths and ``store:<key>`` refs
  both work.
* ``serve`` — run the ``repro.serve`` prediction service: warm-model
  LRU, micro-batched fused forwards, asyncio HTTP front
  (``/predict``, ``/models``, ``/healthz``, ``/metrics``).
* ``cache`` — inspect or clear the on-disk artifact store.
* ``scenarios`` — list every registered scenario.
* ``stages`` — list every registered pipeline stage.
* ``simulate`` — run one scenario and print a trace report (or save
  the trace as ``.npz``); ``--profile`` attaches the event-loop
  profiler and prints per-handler accounting.
* ``pretrain`` — pre-train an NTT and save a self-describing checkpoint.
* ``evaluate`` — evaluate a checkpoint against the naive baselines.
* ``report`` — dataset statistics for any scenario/scale.
* ``trace`` — export a campaign manifest's span tree as Chrome
  trace-event JSON (loadable in Perfetto / ``chrome://tracing``).
* ``top`` — tail a live ``repro serve`` instance's ``/metrics``.

Unknown scales or scenario names exit with code 2 and a message listing
the valid choices (instead of a ``ValueError`` traceback from deep in
the call stack).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.version import __version__

__all__ = ["main", "build_parser", "CLIError"]

_SCALES = ["smoke", "small", "paper"]


class CLIError(Exception):
    """A user-facing CLI error: printed cleanly, exit code 2."""


def _scenario_arg(value: str) -> str:
    """Parse-time scenario validation.

    A ``type`` callable instead of argparse ``choices`` keeps the heavy
    ``repro.api`` import off the startup path (``--help``/``--version``
    and commands using the default never pay it)."""
    from repro.api.registry import SCENARIOS

    if value not in SCENARIOS:
        raise argparse.ArgumentTypeError(
            f"unknown scenario {value!r}; choose from {SCENARIOS.names()}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Network Traffic Transformer reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the paper's tables (cached via repro.api)")
    # No --scenario: the table runners prescribe their own scenarios.
    _add_common(run, scenario=False)
    run.add_argument(
        "--table", default="2", choices=["1", "2", "3", "all"],
        help="which evaluation table to reproduce",
    )
    run.add_argument("--epochs", type=int, default=None, help="override training epochs")
    _add_cache_options(run)

    sweep = sub.add_parser(
        "sweep", help="run a spec campaign through the repro.runtime engine"
    )
    sweep.add_argument(
        "--scenarios", default="pretrain",
        help="comma-separated registered scenarios (see `repro scenarios`)",
    )
    sweep.add_argument(
        "--scales", default="smoke", help="comma-separated scales (smoke/small/paper)"
    )
    sweep.add_argument("--seeds", default="0", help="comma-separated base seeds")
    sweep.add_argument(
        "--spec-file", default=None,
        help="JSON sweep file with a grid and/or an explicit 'specs' list "
             "(replaces the grid flags)",
    )
    sweep.add_argument(
        "--stages", default=None,
        help="comma-separated registered stages (see `repro stages`; "
             "default: the standard traces,bundle,pretrain,finetune,evaluate "
             "pipeline)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = in-process)"
    )
    sweep.add_argument(
        "--retries", type=int, default=1, help="re-attempts per failed task"
    )
    sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock timeout on pool runs (hung workers are "
             "reaped and the task retried); a spec's per-stage 'timeout_s' "
             "in stage_params overrides it per task",
    )
    sweep.add_argument("--epochs", type=int, default=None, help="override training epochs")
    sweep.add_argument(
        "--dry-run", action="store_true",
        help="print the planned task graph and exit without executing",
    )
    _add_cache_options(sweep)

    resume = sub.add_parser(
        "resume",
        help="resume a crashed or failed sweep campaign from its journal",
    )
    resume.add_argument(
        "campaign_id",
        help="the campaign id `repro sweep` printed (its journal lives at "
             "<store>/manifests/<id>.journal.jsonl)",
    )
    resume.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = in-process)"
    )
    resume.add_argument(
        "--retries", type=int, default=1, help="re-attempts per failed task"
    )
    resume.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock timeout on pool runs",
    )
    resume.add_argument(
        "--cache-dir", default=None,
        help="artifact store root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )

    predict = sub.add_parser("predict", help="serve batched predictions")
    _add_common(predict)
    predict.add_argument(
        "--checkpoint", default=None,
        help="predictor checkpoint (a file path or store:<key>); "
             "defaults to the cached experiment model",
    )
    predict.add_argument("--task", default="delay", choices=["delay", "mct"])
    predict.add_argument("--limit", type=int, default=5, help="sample rows to print")
    predict.add_argument(
        "--precision", default="float64", choices=["float64", "float32"],
        help="compute dtype checkpoints are loaded and served in",
    )
    _add_cache_options(predict)

    serve = sub.add_parser(
        "serve", help="run the repro.serve prediction service"
    )
    serve.add_argument(
        "checkpoints", nargs="+", metavar="MODEL",
        help="model refs to serve: checkpoint paths or store:<key> refs "
             "(the first is the default model)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    serve.add_argument(
        "--precision", default="float64", choices=["float64", "float32"],
        help="compute dtype models are loaded and served in",
    )
    serve.add_argument(
        "--lru-size", type=int, default=4, help="warm models kept in the LRU"
    )
    serve.add_argument(
        "--max-batch-windows", type=int, default=64,
        help="micro-batch flush size (windows per fused forward)",
    )
    serve.add_argument(
        "--max-wait-us", type=float, default=2000.0,
        help="micro-batch flush age (max microseconds a request waits)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=1024,
        help="forward chunk size of each warm predictor",
    )
    serve.add_argument(
        "--max-pending-windows", type=int, default=4096,
        help="saturation cap: windows queued per model before requests "
             "are shed with HTTP 503 + Retry-After",
    )
    _add_cache_options(serve)

    cache = sub.add_parser("cache", help="inspect or clear the artifact store")
    cache.add_argument("action", nargs="?", default="list", choices=["list", "clear"])
    cache.add_argument(
        "--kind", default=None, choices=["traces", "bundles", "checkpoints"],
        help="restrict `clear` to one artifact kind",
    )
    cache.add_argument("--cache-dir", default=None, help="artifact store root")

    sub.add_parser("scenarios", help="list registered scenarios")

    sub.add_parser("stages", help="list registered pipeline stages")

    simulate = sub.add_parser("simulate", help="run a scenario simulation")
    _add_common(simulate)
    simulate.add_argument("--output", help="save the trace to this .npz path")
    simulate.add_argument("--runs", type=int, default=1, help="number of runs")
    simulate.add_argument(
        "--profile", action="store_true",
        help="attach the event-loop profiler and print per-handler accounting",
    )

    pretrain = sub.add_parser("pretrain", help="pre-train an NTT and save a checkpoint")
    _add_common(pretrain)
    pretrain.add_argument("--output", default="ntt_checkpoint.npz", help="checkpoint path")
    pretrain.add_argument("--epochs", type=int, default=None, help="override epochs")
    _add_cache_options(pretrain)

    evaluate = sub.add_parser("evaluate", help="evaluate a checkpoint vs baselines")
    _add_common(evaluate)
    evaluate.add_argument("checkpoint", help="checkpoint produced by `repro pretrain`")

    report = sub.add_parser("report", help="dataset statistics for a scenario")
    _add_common(report)

    trace = sub.add_parser(
        "trace", help="export a campaign manifest's spans as Chrome trace JSON"
    )
    trace.add_argument(
        "manifest",
        help="campaign manifest JSON (the path `repro sweep` prints)",
    )
    trace.add_argument(
        "--output", default=None,
        help="trace file path (default: <manifest>.trace.json alongside the input)",
    )
    trace.add_argument(
        "--jsonl", action="store_true",
        help="also write the flattened spans as <output>.spans.jsonl",
    )

    top = sub.add_parser("top", help="tail a live repro serve /metrics endpoint")
    top.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="base URL of the running server",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between samples"
    )
    top.add_argument("--once", action="store_true", help="print one sample and exit")
    top.add_argument(
        "--count", type=int, default=None, help="stop after N samples (default: forever)"
    )

    lint = sub.add_parser(
        "lint",
        help="run the repro.lint static invariant checks (exit 0 clean, 1 findings)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--rule", action="append", default=None, metavar="NAME[,NAME...]",
        help="restrict to specific rules (repeatable or comma-separated)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file (default: nearest lint-baseline.json above the lint root)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    lint.add_argument(
        "--baseline-update", action="store_true",
        help="rewrite the baseline from this run (adds new, expires fixed)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    lint.add_argument(
        "--changed", action="store_true",
        help="lint only files differing from the git merge base "
        "(fingerprints still check the whole tree)",
    )
    lint.add_argument(
        "--fingerprints", action="store_true",
        help="check every registered stage's normalized-AST fingerprint "
        "against stage-fingerprints.json (exit 1 on drift)",
    )
    lint.add_argument(
        "--fingerprints-update", action="store_true",
        help="re-pin stage-fingerprints.json from the current tree",
    )
    return parser


def _add_common(parser: argparse.ArgumentParser, scenario: bool = True) -> None:
    if scenario:
        parser.add_argument(
            "--scenario", default="pretrain", type=_scenario_arg,
            help="a registered scenario (see `repro scenarios`)",
        )
    parser.add_argument("--scale", default="smoke", choices=_SCALES)
    parser.add_argument("--seed", type=int, default=0)


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact store root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="bypass the artifact store"
    )


def _resolve_scale(name: str):
    from repro.core.pipeline import get_scale

    try:
        return get_scale(name)
    except ValueError as error:
        raise CLIError(str(error)) from None


def _load_predictor(ref, store=None, precision: str = "float64"):
    """Load a checkpoint through the serving runtime's ``ModelManager``.

    ``repro predict`` and ``repro serve`` share this path, so both
    accept file paths and ``store:<key>`` refs, and both turn loader
    failures (missing file, unknown task metadata, missing pipeline
    metadata) into a clean exit-code-2 message instead of a traceback.
    """
    from repro.serve import ModelManager, ModelNotFound

    manager = ModelManager(store=store, capacity=1, precision=precision)
    try:
        return manager.get(ref)
    except (ModelNotFound, FileNotFoundError, ValueError) as error:
        raise CLIError(str(error)) from None


def _build_experiment(args, scenario: str | None = None, cached: bool = True):
    """An :class:`Experiment` honouring the shared CLI options.

    ``cached=False`` (read-only commands like ``report``) skips the
    artifact store entirely.
    """
    from repro.api import ArtifactStore, Experiment, ExperimentSpec

    scale = _resolve_scale(args.scale)
    overrides = {}
    epochs = getattr(args, "epochs", None)
    if epochs is not None:
        overrides["pretrain"] = scale.pretrain_settings.scaled(epochs)
        overrides["finetune"] = scale.finetune_settings.scaled(epochs)
    try:
        spec = ExperimentSpec(
            scenario=scenario if scenario is not None else getattr(args, "scenario", "pretrain"),
            scale=scale.name,
            seed=args.seed,
            **overrides,
        )
    except ValueError as error:
        raise CLIError(str(error)) from None
    if not cached or getattr(args, "no_cache", False):
        store = None
    else:
        store = ArtifactStore(getattr(args, "cache_dir", None))
    return Experiment(spec, store=store)


# -- commands ---------------------------------------------------------------------


def _cmd_run(args) -> int:
    from repro.core.pipeline import format_rows

    experiment = _build_experiment(args)
    if experiment.store is not None:
        print(f"artifact store: {experiment.store.root}")
    tables = [1, 2, 3] if args.table == "all" else [int(args.table)]
    for table in tables:
        rows = experiment.run_table(table)
        print(f"\n== Table {table} ({experiment.spec.scale} scale)")
        print(format_rows(rows))
    return 0


def _sweep_specs(args):
    """The sweep's spec list from the flags or the spec file."""
    from repro.runtime import expand_grid, specs_from_file

    try:
        if args.spec_file is not None:
            return specs_from_file(args.spec_file)
        specs = expand_grid(
            scenarios=[name.strip() for name in args.scenarios.split(",") if name.strip()],
            scales=[name.strip() for name in args.scales.split(",") if name.strip()],
            seeds=[int(seed) for seed in args.seeds.split(",") if seed.strip()],
        )
    except (ValueError, OSError, json.JSONDecodeError) as error:
        raise CLIError(str(error)) from None
    if not specs:
        raise CLIError("the sweep grid is empty; provide scenarios, scales and seeds")
    return specs


def _cmd_sweep(args) -> int:
    from repro.api import ArtifactStore
    from repro.runtime import CampaignEngine, plan_campaign

    specs = _sweep_specs(args)
    if args.epochs is not None:
        specs = [
            spec.with_overrides(
                pretrain=spec.to_scale().pretrain_settings.scaled(args.epochs),
                finetune=spec.to_scale().finetune_settings.scaled(args.epochs),
            )
            for spec in specs
        ]
    # None → the registry's standard pipeline; anything else is
    # validated against the registered sweep stages by plan_campaign,
    # whose error message lists them.
    stages = None
    if args.stages is not None:
        stages = tuple(name.strip() for name in args.stages.split(",") if name.strip())
    if args.no_cache:
        if args.workers > 1:
            raise CLIError(
                "parallel sweeps need the artifact store; drop --no-cache or use --workers 1"
            )
        store = None
    else:
        store = ArtifactStore(args.cache_dir)
    try:
        plan = plan_campaign(specs, stages=stages)
    except ValueError as error:
        raise CLIError(str(error)) from None
    if args.dry_run:
        print(plan.describe(store))
        return 0
    if store is not None:
        print(f"artifact store: {store.root}")
    engine = CampaignEngine(
        store=store,
        workers=args.workers,
        retries=args.retries,
        task_timeout_s=args.timeout,
    )
    result = engine.run(plan)
    print(result.format_summary())
    return 0 if result.ok else 1


def _cmd_resume(args) -> int:
    from repro.api import ArtifactStore
    from repro.runtime import CampaignEngine

    store = ArtifactStore(args.cache_dir)
    engine = CampaignEngine(
        store=store,
        workers=args.workers,
        retries=args.retries,
        task_timeout_s=args.timeout,
    )
    try:
        result = engine.resume(args.campaign_id)
    except ValueError as error:
        raise CLIError(str(error)) from None
    print(result.format_summary())
    return 0 if result.ok else 1


def _cmd_predict(args) -> int:
    import numpy as np

    experiment = _build_experiment(args)
    if args.checkpoint is not None:
        predictor = _load_predictor(
            args.checkpoint, store=experiment.store, precision=args.precision
        )
        if predictor.task != args.task:
            raise CLIError(
                f"checkpoint serves task {predictor.task!r}, requested {args.task!r}"
            )
    else:
        predictor = experiment.predictor(task=args.task)
    test = experiment.bundle().test
    if args.task == "mct":
        test = test.with_completed_messages_only()
    if len(test) == 0:
        raise CLIError(f"scenario {args.scenario!r} produced no test windows")
    predictions = predictor.predict_dataset(test)
    actual = np.log(test.mct_target) if args.task == "mct" else test.delay_target
    mse = float(np.mean((predictions - actual) ** 2))
    unit = "log-s" if args.task == "mct" else "s"
    print(f"{predictor!r} on {args.scenario} ({len(test)} windows)")
    for index in range(min(args.limit, len(test))):
        print(
            f"  window {index}: predicted {predictions[index]:.6f} {unit}, "
            f"actual {actual[index]:.6f} {unit}"
        )
    print(f"test MSE: {mse:.6e} {unit}^2")
    return 0


def _cmd_cache(args) -> int:
    from repro.api import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear(args.kind)
        print(f"removed {removed} artifact(s) from {store.root}")
        return 0
    summary = store.summary()
    print(f"artifact store: {store.root}")
    total = 0
    for kind, row in summary.items():
        total += row["bytes"]
        print(f"  {kind:12s} {row['count']:5d} file(s)  {row['bytes'] / 1e6:8.2f} MB")
    print(f"  {'total':12s} {'':5s}         {total / 1e6:8.2f} MB")
    return 0


def _cmd_scenarios(args) -> int:
    from repro.api.registry import SCENARIOS

    for entry in SCENARIOS.entries():
        print(f"{entry.name:24s} {entry.description}")
    return 0


def _cmd_stages(args) -> int:
    import repro.runtime  # noqa: F401 — registers the built-in stages
    from repro.api import ExperimentSpec
    from repro.api.stages import STAGE_REGISTRY

    # Dependencies may vary with a task's parameters; list them as a
    # fine-tuning spec plans them.
    spec = ExperimentSpec(scenario="case1", scale="smoke")
    for name in STAGE_REGISTRY.sweep_stages():
        stage = STAGE_REGISTRY.get(name)
        marker = "*" if stage.default else " "
        pairs = stage.dependencies(spec, stage.params_for(spec))
        deps = ",".join(dict.fromkeys(dep for dep, _ in pairs)) or "-"
        print(
            f"{marker} {stage.name:20s} v{stage.version}  "
            f"kind={stage.kind or '-':12s} deps={deps:16s} {stage.description}"
        )
    print("(* = standard pipeline; deps as planned for a case1 spec)")
    return 0


def _cmd_simulate(args) -> int:
    from repro.analysis.reports import trace_report
    from repro.netsim.scenarios import build_scenario, generate_traces

    scale = _resolve_scale(args.scale)
    config = scale.scenario(args.scenario, seed=args.seed)
    profiler = None
    if args.profile:
        from repro.netsim.profiler import EventLoopProfiler

        profiler = EventLoopProfiler()
        traces = []
        for run_index in range(args.runs):
            handle = build_scenario(config, run_index)
            if not hasattr(handle.sim, "attach_profiler"):
                raise CLIError(
                    "profiling needs the fast simulator; unset the reference-path env"
                )
            handle.sim.attach_profiler(profiler)
            traces.append(handle.run())
    else:
        traces = generate_traces(config, n_runs=args.runs)
    for index, trace in enumerate(traces):
        print(trace_report(trace, name=f"{args.scenario} run {index}"))
    if profiler is not None:
        print(profiler.format_report())
    if args.output:
        traces[0].save(args.output)
        print(f"saved first run to {args.output}")
    return 0


def _cmd_pretrain(args) -> int:
    experiment = _build_experiment(args, scenario="pretrain")
    result = experiment.pretrained()
    print(
        f"pre-trained in {result.history.wall_time:.0f}s; "
        f"test delay MSE {result.test_mse_scaled:.4f} x1e-3 s^2"
    )
    from repro.api import Predictor

    Predictor(result.model, result.pipeline).save(args.output)
    print(f"checkpoint written to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    import numpy as np

    from repro.core.baselines import evaluate_baselines

    experiment = _build_experiment(args, cached=False)
    bundle = experiment.bundle()

    predictor = _load_predictor(args.checkpoint)
    predictions = predictor.predict_dataset(bundle.test)
    mse = float(np.mean((predictions - bundle.test.delay_target) ** 2))
    print(f"checkpoint delay MSE on {args.scenario}: {mse * 1e3:.4f} x1e-3 s^2")
    for name, row in evaluate_baselines(bundle.test).items():
        print(f"baseline {name:14s}: {row['delay_mse'] * 1e3:.4f} x1e-3 s^2")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.api import ArtifactStore
    from repro.serve import (
        ModelManager,
        ModelNotFound,
        PredictionServer,
        ServerConfig,
    )

    store = None if args.no_cache else ArtifactStore(args.cache_dir)
    try:
        config = ServerConfig(
            models=tuple(args.checkpoints),
            host=args.host,
            port=args.port,
            precision=args.precision,
            lru_capacity=args.lru_size,
            max_batch_windows=args.max_batch_windows,
            max_wait_us=args.max_wait_us,
            batch_size=args.batch_size,
            max_pending_windows=args.max_pending_windows,
        )
        manager = ModelManager(
            store=store,
            capacity=args.lru_size,
            precision=args.precision,
            batch_size=args.batch_size,
        )
        # Warm the default model up front: a bad ref or a metadata-less
        # checkpoint should exit 2 now, not 500 on the first request.
        manager.get(config.models[0])
    except (ModelNotFound, FileNotFoundError, ValueError) as error:
        raise CLIError(str(error)) from None

    server = PredictionServer(config, manager=manager)

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                # Explicit handlers (not KeyboardInterrupt): background
                # jobs inherit SIGINT ignored from non-interactive
                # shells, and these override that so `kill -INT` still
                # shuts the service down cleanly (the CI serving job
                # relies on it).
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, OSError):  # pragma: no cover
                pass
        await server.start()
        print(
            f"serving {len(config.models)} model(s) on "
            f"http://{config.host}:{server.port} "
            f"(precision={config.precision}, lru={config.lru_capacity})",
            flush=True,
        )
        for ref in config.models:
            print(f"  model: {ref}", flush=True)
        # start() already accepts connections; wait for a signal, then
        # drain in-flight micro-batches and release the prediction lane.
        await stop.wait()
        await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - ctrl-C fallback
        pass
    snapshot = server.metrics.snapshot()
    print(
        f"shutdown: served {snapshot['requests_total']} request(s), "
        f"{snapshot['predictions_total']} prediction(s) in "
        f"{snapshot['batches_total']} batch(es)"
    )
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.reports import dataset_report

    experiment = _build_experiment(args, cached=False)
    print(dataset_report(experiment.bundle()))
    return 0


def _cmd_trace(args) -> int:
    from pathlib import Path

    from repro.obs import chrome_trace, spans_to_jsonl

    path = Path(args.manifest)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise CLIError(f"cannot read manifest {path}: {error}") from None
    observability = manifest.get("observability") or {}
    spans = observability.get("spans")
    if not spans:
        raise CLIError(
            f"manifest {path} has no observability spans; "
            "re-run the sweep with REPRO_OBS unset or =1"
        )
    campaign_id = manifest.get("campaign_id", "campaign")
    trace = chrome_trace(spans, process_name=f"repro {campaign_id}")
    output = Path(args.output) if args.output else path.with_suffix(".trace.json")
    output.write_text(json.dumps(trace))
    print(f"wrote {len(trace['traceEvents'])} trace event(s) to {output}")
    if args.jsonl:
        jsonl_path = output.with_suffix(".spans.jsonl")
        jsonl_path.write_text(spans_to_jsonl(spans))
        print(f"wrote flattened spans to {jsonl_path}")
    return 0


def _cmd_top(args) -> int:
    import time
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/metrics"
    limit = 1 if args.once else args.count
    samples = 0
    try:
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    snapshot = json.loads(response.read().decode("utf-8"))
            except (urllib.error.URLError, OSError, json.JSONDecodeError) as error:
                raise CLIError(f"cannot read {url}: {error}") from None
            latency = snapshot.get("latency_ms", {})
            if latency.get("window"):
                tail = (
                    f"p50 {latency['p50']:.2f}ms p99 {latency['p99']:.2f}ms "
                    f"(window {latency['window']})"
                )
            else:
                tail = "no latency samples yet"
            print(
                f"up {snapshot['uptime_s']:7.1f}s  "
                f"req {snapshot['requests_total']} ({snapshot['requests_per_s']:.1f}/s)  "
                f"pred {snapshot['predictions_total']} "
                f"({snapshot['predictions_per_s']:.1f}/s)  "
                f"err {snapshot['errors_total']}  "
                f"batch {snapshot['mean_batch_windows']:.1f}w  " + tail,
                flush=True,
            )
            samples += 1
            if limit is not None and samples >= limit:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _lint_fingerprints(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.lint import LintReport, check_fingerprints, default_root
    from repro.lint.fingerprint import FINGERPRINT_FILENAME, save_fingerprints

    paths = [Path(p) for p in args.paths] or [default_root()]
    try:
        findings, pin_path, current = check_fingerprints(paths)
    except (FileNotFoundError, ValueError) as error:
        raise CLIError(str(error)) from None

    if args.fingerprints_update:
        if pin_path is None:
            pin_path = Path.cwd() / FINGERPRINT_FILENAME
        save_fingerprints(pin_path, current)
        print(f"fingerprints written: {pin_path} ({len(current)} stages)")
        return 0

    report = LintReport(
        roots=[str(p) for p in paths],
        findings=findings,
        baseline_path=None,
    )
    if args.format == "json":
        payload = report.to_dict()
        payload["fingerprints"] = str(pin_path) if pin_path else None
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.format_text())
        if pin_path is not None:
            print(f"fingerprints: {pin_path} ({len(current)} stages checked)")
    return report.exit_code


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.lint import LINT_RULES, run_lint

    if args.list_rules:
        for rule in LINT_RULES.entries():
            scopes = ", ".join(rule.scopes) if rule.scopes else "all files"
            print(f"{rule.name} [{rule.severity}] ({scopes})")
            print(f"    {rule.description}")
        return 0

    if args.fingerprints or args.fingerprints_update:
        return _lint_fingerprints(args)

    rule_names = None
    if args.rule:
        rule_names = [
            name.strip()
            for chunk in args.rule
            for name in chunk.split(",")
            if name.strip()
        ]
    try:
        report = run_lint(
            [Path(p) for p in args.paths] or None,
            rule_names=rule_names,
            baseline_path=Path(args.baseline) if args.baseline else None,
            use_baseline=not args.no_baseline,
            update_baseline=args.baseline_update,
            changed_only=args.changed,
        )
    except (FileNotFoundError, ValueError) as error:
        raise CLIError(str(error)) from None

    if args.format == "json":
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
        if args.baseline_update and report.baseline_path:
            print(f"baseline written: {report.baseline_path}")
    return report.exit_code


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "resume": _cmd_resume,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
    "scenarios": _cmd_scenarios,
    "stages": _cmd_stages,
    "simulate": _cmd_simulate,
    "pretrain": _cmd_pretrain,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CLIError as error:
        # User-facing errors only — genuine bugs keep their traceback.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
