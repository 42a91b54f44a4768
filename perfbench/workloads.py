"""The three workloads: run the program from outside, check, measure.

Each ``run_*`` function returns an :class:`Outcome`.  Output checks run
before any number is derived; a failed check raises :class:`CheckFailed`.
End-to-end metrics come from untraced runs only; ``trace=True`` adds a
separate traced run whose spans give the per-layer numbers.
"""

from __future__ import annotations

import bisect
import http.client
import json
import math
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import loadgen, spans as spanlib
from perfbench.batch import WORKERS, workload_plan_args

#: Set-up samples per run (``setup_s`` is their median): batch probes
#: take seconds each, a server start about half a second.
SETUP_SAMPLES = 5
SERVE_SETUP_SAMPLES = 15
#: Seconds a ``repro serve`` start may take to print its address and
#: answer ``/healthz``.
SERVER_START_TIMEOUT_S = 120.0
#: Stage whose records are a batch workload's results.
RESULT_STAGE = {"campaign": "evaluate", "dataset_build": "bundle"}
EXPECTED_TASKS = {"campaign": 11, "dataset_build": 36}
#: Distinct test windows the requests draw from.
SERVE_WINDOWS = 256
WINDOW_LEN = 512
RTOL = 1e-12
CHILD_TIMEOUT_S = 170.0

#: Units of the reported numbers that are not ``BENCHMARK.json`` metrics.
REPORT_UNITS = {
    "failed_ratio": "ratio", "delay_mse": "s^2", "cold_runs": "count",
    "goodput_rps": "1/s",
    **{f"p{q}_ms.{rung}": "ms" for q in (50, 90, 99) for rung in ("light", "heavy")},
}


class CheckFailed(Exception):
    """An output check failed; the run reports ``correct: false``."""


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    #: Every end-to-end number the workload defines, for the printed report.
    report: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    table: dict | None = None
    rungs: list | None = None


class RunDir:
    """Scratch space of one benchmark run inside the checkout."""

    def __init__(self, root: Path, path: Path):
        self.root = root
        self.path = path
        self._count = 0
        path.mkdir(parents=True, exist_ok=True)

    def fresh(self, name: str) -> Path:
        self._count += 1
        return self.path / f"{name}{self._count}"

    def drop(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)


def store_bytes(store_dir: Path) -> int:
    """Artifact bytes in a store, without manifests, journals or scratch."""
    return sum(
        path.stat().st_size
        for kind in ("traces", "bundles", "checkpoints", "evaluations")
        for path in (store_dir / kind).rglob("*")
        if path.is_file()
    )


# -- batch workloads ---------------------------------------------------------------


def _batch_child(run: RunDir, mode: str, workload: str, seed: int, store: Path, *extra):
    """Run ``perfbench.batch`` in a fresh process; ``(start stamp, report)``."""
    argv = [
        sys.executable, "-m", "perfbench.batch", mode, "--workload", workload,
        "--seed", str(seed), "--store", str(store), *extra,
    ]
    started = time.perf_counter()
    done = subprocess.run(
        argv, cwd=run.root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[2:5])} failed:\n{done.stderr[-3000:]}")
    return started, json.loads(done.stdout.strip().splitlines()[-1])


def check_batch(workload: str, seed: int, store_dir: Path, campaign_id: str) -> dict:
    """Output checks of a batch run; returns the quality numbers it read."""
    import numpy as np

    from repro.api import ArtifactStore

    store = ArtifactStore(store_dir)
    manifest = store.get_manifest(campaign_id)
    check(manifest is not None, f"no manifest for campaign {campaign_id}")
    rows = manifest["tasks"]
    check(len(rows) == EXPECTED_TASKS[workload],
          f"{len(rows)} tasks, expected {EXPECTED_TASKS[workload]}")
    bad = [row["id"] for row in rows if row["status"] != "done" or row["attempts"] != 1]
    check(not bad, f"tasks not done on their first attempt: {bad}")
    if workload == "campaign":
        return _check_campaign(seed, store, rows)
    keys = store.keys("bundles")
    check(len(keys) == EXPECTED_TASKS[workload] // 2, f"{len(keys)} bundles stored")
    for key in keys:
        bundle = store.get_bundle(key)
        check(bundle is not None, f"bundle {key} does not load")
        for split in ("train", "val", "test"):
            features = getattr(bundle, split).features
            check(len(features) > 0, f"bundle {key}: empty {split} split")
            check(features.shape[1] == WINDOW_LEN, f"bundle {key}: windows of {features.shape[1]}")
            check(np.isfinite(features).all(), f"bundle {key}: non-finite {split} features")
    return {}


def _check_campaign(seed, store, rows) -> dict:
    import numpy as np

    from repro.api import Experiment, Predictor
    from repro.runtime import plan_campaign

    evaluations = [row for row in rows if row["stage"] == "evaluate"]
    check(len(evaluations) == 2, f"{len(evaluations)} evaluate records")
    for row in evaluations:
        result = row["result"]
        check(math.isfinite(result["model_mse"]), f"{row['id']}: model_mse not finite")
        baselines = result["baselines"]
        for name in ("ewma", "last_observed"):
            check(name in baselines and math.isfinite(baselines[name]["delay_mse"]),
                  f"{row['id']}: baseline {name} missing")
    # Re-derive one evaluation from the stored checkpoint and test bundle.
    tasks = {task.id: task for task in plan_campaign(*workload_plan_args("campaign", seed)).ordered()}
    row = evaluations[0]
    finetune = next(tasks[dep] for dep in tasks[row["id"]].deps if tasks[dep].stage == "finetune")
    stored = store.get_finetuned(finetune.key)
    check(stored is not None, f"finetuned checkpoint {finetune.key} does not load")
    model, pipeline = stored[0].model, stored[1]
    test = Experiment(finetune.spec, store=store).bundle(row["result"]["scenario"]).test
    predictions = Predictor(model, pipeline).predict_dataset(test)
    mse = float(np.mean((predictions - test.delay_target) ** 2))
    expected = row["result"]["model_mse"]
    check(abs(mse - expected) <= RTOL * abs(expected),
          f"re-derived delay MSE {mse!r} != recorded {expected!r}")
    return {"delay_mse": statistics.fmean(r["result"]["model_mse"] for r in evaluations)}


def _result_latencies_ms(store_dir: Path, report: dict, started: float, stage: str):
    from repro.api import ArtifactStore

    manifest = ArtifactStore(store_dir).get_manifest(report["campaign_id"])
    origin = report["engine_started"] - started
    return [
        (origin + row["ended_offset_s"]) * 1e3
        for row in manifest["tasks"] if row["stage"] == stage
    ]


def run_batch(run: RunDir, workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        return _trace_batch(run, workload, seed, outcome)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        store = run.fresh("probe")
        started, report = _batch_child(run, "probe", workload, seed, store)
        setups.append(report["first_task_started"] - started)
        run.drop(store)
    walls, p50s, peaks, quality = [], [], [], {}
    # As many cold runs as fit in ``seconds``, and at least one.
    while not walls or sum(walls) + statistics.fmean(walls) <= seconds:
        store = run.fresh("store")
        started, report = _batch_child(run, "run", workload, seed, store)
        outcome.attempted += report["tasks"]
        quality = check_batch(workload, seed, store, report["campaign_id"])
        setups.append(report["first_task_started"] - started)
        walls.append(report["ended"] - started)
        latencies = _result_latencies_ms(store, report, started, RESULT_STAGE[workload])
        p50s.append(spanlib.percentile(latencies, 50))
        peaks.append(report["peak_rss_mb"])
        outcome.e2e["store_bytes"] = store_bytes(store)
        run.drop(store)
    outcome.e2e.update({
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "p50_ms": statistics.median(p50s),
        "peak_rss_mb": max(peaks),
    })
    outcome.report = {
        **outcome.e2e, **quality, "cold_runs": len(walls),
        "failed_ratio": outcome.failed / outcome.attempted,
    }
    return outcome


def _trace_batch(run: RunDir, workload: str, seed: int, outcome: Outcome) -> Outcome:
    """Untraced pool run (``runtime.*``), untraced and traced in-process
    runs at one worker (tracing overhead), spans from the traced one."""
    reports = {}
    modes = [("pool", "run", ())]
    if WORKERS[workload] > 1:
        modes.append(("serial", "run", ("--workers", "1")))
    spans_path = run.path / "spans.jsonl"
    modes.append(("traced", "traced", ("--spans", str(spans_path))))
    for name, mode, extra in modes:
        store = run.fresh(name)
        _, report = _batch_child(run, mode, workload, seed, store, *extra)
        outcome.attempted += report["tasks"]
        check_batch(workload, seed, store, report["campaign_id"])
        reports[name] = report
        if name == "traced":
            spans = spanlib.read_spans(spans_path)
            layer = spanlib.layer_metrics(spans)  # reads the written files
        run.drop(store)
    serial = reports.get("serial", reports["pool"])
    traced = reports["traced"]
    overhead = (traced["ended"] - traced["engine_started"]) / (
        serial["ended"] - serial["engine_started"]
    )
    runtime = {k: v for k, v in reports["pool"].items() if k.startswith("runtime.")}
    outcome.table = spanlib.self_time_table(spans)
    outcome.per_layer = {
        **runtime, **layer, **_self_metrics(outcome.table), "trace.overhead_ratio": overhead,
    }
    return outcome


def _self_metrics(table: dict) -> dict:
    return {f"self_s.{layer}": seconds for layer, seconds in table.items()}


# -- serving -----------------------------------------------------------------------


class Server:
    """One ``repro serve`` process, from start to its first ready ``/healthz``."""

    def __init__(self, argv: list[str], cwd: Path, log: Path):
        self.started = time.perf_counter()
        self._log = open(log, "ab")
        self.process = subprocess.Popen(
            argv, cwd=cwd, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        try:
            self.host, self.port = self._banner()
            self.ready = self._healthy()
        except BaseException:
            self.stop()
            raise

    @property
    def setup_s(self) -> float:
        return self.ready - self.started

    def _banner(self):
        lines: queue.Queue = queue.Queue()

        def pump():
            for line in self.process.stdout:
                lines.put(line)
            lines.put(None)

        threading.Thread(target=pump, daemon=True).start()
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while True:
            line = lines.get(timeout=max(0.001, deadline - time.perf_counter()))
            if line is None:
                raise RuntimeError("repro serve exited before serving")
            found = re.search(r"http://([\d.]+):(\d+)", line)
            if found:
                return found.group(1), int(found.group(2))

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _healthy(self) -> float:
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return time.perf_counter()
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("repro serve never answered /healthz")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the server drains and exits), then wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _serve_inputs(run: RunDir, store_dir: Path, seed: int):
    """Build the served checkpoint (untimed, in its own process), then
    pick the request windows, serialize the requests and predict them
    directly for the output check."""
    import numpy as np

    from repro.api import ArtifactStore, Experiment, Predictor
    from repro.runtime import plan_campaign

    _, report = _batch_child(run, "run", "serve_model", seed, store_dir)
    store = ArtifactStore(store_dir)
    manifest = store.get_manifest(report["campaign_id"])
    check(all(row["status"] == "done" for row in manifest["tasks"]),
          "building the served checkpoint failed")
    specs, stages = workload_plan_args("serve_model", seed)
    key = next(t.key for t in plan_campaign(specs, stages=stages).ordered() if t.stage == "pretrain")
    test = Experiment(specs[0], store=store).bundle("pretrain").test
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(len(test), size=min(SERVE_WINDOWS, len(test)), replace=False))
    features, receiver = test.features[chosen], test.receiver[chosen]
    check(features.shape[1] == WINDOW_LEN, f"test windows of {features.shape[1]} packets")
    payloads = [
        loadgen.request_bytes("127.0.0.1", json.dumps({
            "features": features[index:index + 1].tolist(),
            "receiver": receiver[index:index + 1].tolist(),
        }).encode("utf-8"))
        for index in range(len(chosen))
    ]
    direct = Predictor.from_checkpoint(store.path("checkpoints", key))
    expected = direct.predict(features, receiver)
    # Served and direct forwards group windows differently, so BLAS may
    # move the last ulp of the model output; after the affine inverse
    # transform a prediction near 0 s carries that ulp at a far larger
    # relative size (seed 101: 5.6e-17 s on 5.2e-5 s).  The tolerance is
    # therefore 1e-12 relative to the larger of the value and the
    # model's delay scale.
    tolerance = RTOL * np.maximum(np.abs(expected), direct.pipeline.delay_std)
    return key, payloads, (expected, tolerance), test.delay_target[chosen]


def _serve_argv(key: str, store_dir: Path, spans_path: Path | None = None) -> list[str]:
    args = ["--port", "0", "--cache-dir", str(store_dir), f"store:{key}"]
    if spans_path is None:
        return [sys.executable, "-m", "repro", "serve", *args]
    return [sys.executable, "-m", "perfbench.serve_launcher", str(spans_path), *args]


def _load(server: Server, payloads, schedule, expected) -> tuple[list, dict]:
    requests = loadgen.run_load(server.host, server.port, payloads, schedule)
    status, body = server.get("/metrics")
    check(status == 200, f"/metrics answered {status}")
    want, tolerance = expected
    for request in requests:
        if request.status == 200:
            index = request.window
            request.wrong = not abs(request.prediction - want[index]) <= tolerance[index]
    return requests, json.loads(body)


def run_serve(run: RunDir, seed: int, seconds: float, trace: bool) -> Outcome:
    store_dir = run.fresh("store")
    key, payloads, expected, targets = _serve_inputs(run, store_dir, seed)
    schedule = loadgen.arrival_schedule(seed, seconds, len(payloads))
    outcome = Outcome()
    log = run.path / "serve.log"
    if trace:
        return _trace_serve(run, key, store_dir, payloads, schedule, expected, log, outcome)
    setups = []
    for _ in range(SERVE_SETUP_SAMPLES - 1):
        server = Server(_serve_argv(key, store_dir), run.root, log)
        setups.append(server.setup_s)
        server.stop()
    server = Server(_serve_argv(key, store_dir), run.root, log)
    try:
        setups.append(server.setup_s)
        requests, _ = _load(server, payloads, schedule, expected)
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    steps, rungs = loadgen.ladder_report(requests)
    outcome.rungs = steps
    outcome.attempted = len(requests)
    outcome.failed = sum(not request.ok for request in requests)
    wrong = sum(request.wrong for request in requests)
    check(not wrong, f"{wrong} served predictions differ from a direct Predictor.predict")
    heavy, light = rungs["heavy"], rungs["light"]
    served = [(request.prediction, targets[request.window]) for request in requests if request.ok]
    outcome.e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(loadgen.burst_seconds(requests)),
        "p50_ms": heavy["p50_ms"],
        "peak_rss_mb": peak,
        "store_bytes": store_bytes(store_dir),
    }
    outcome.report = {
        **outcome.e2e,
        "failed_ratio": outcome.failed / outcome.attempted,
        "p50_ms.light": light["p50_ms"],
        "p90_ms.light": light["p90_ms"],
        "p99_ms.light": light["p99_ms"],
        "p50_ms.heavy": heavy["p50_ms"],
        "p90_ms.heavy": heavy["p90_ms"],
        "p99_ms.heavy": heavy["p99_ms"],
        "goodput_rps": max(
            (rung["rate_rps"] for rung in rungs.values() if rung["within_limit"]), default=0.0
        ),
        "delay_mse": statistics.fmean((p - t) ** 2 for p, t in served) if served else math.nan,
    }
    run.drop(store_dir)
    return outcome


def _trace_serve(run, key, store_dir, payloads, schedule, expected, log, outcome) -> Outcome:
    """The ladder untraced, then through the span-recording launcher.

    The self-time table and the tracing overhead use the ``heavy`` rung,
    the one whose latency is gated; the overloaded rungs above it would
    otherwise fill the table with client-side queueing.
    """
    heavy = {i for i, rung in enumerate(loadgen.LADDER) if rung.name == "heavy"}
    latencies = {}
    spans_path = run.path / "server_spans.jsonl"
    for name, path in (("untraced", None), ("traced", spans_path)):
        server = Server(_serve_argv(key, store_dir, path), run.root, log)
        try:
            requests, metrics = _load(server, payloads, schedule, expected)
        finally:
            server.stop()
        outcome.attempted += len(requests)
        outcome.failed += sum(not request.ok for request in requests)
        wrong = sum(request.wrong for request in requests)
        check(not wrong, f"{wrong} served predictions differ from a direct Predictor.predict")
        latencies[name] = statistics.median(
            r.latency_ms for r in requests if r.ok and r.step in heavy
        )
    server_spans = spanlib.read_spans(spans_path)
    tree = request_spans([r for r in requests if r.step in heavy], server_spans)
    outcome.table = spanlib.self_time_table(tree)
    predicts = {span["id"]: span for span in server_spans if span["name"] == "predictor.predict"}
    matched = [
        (span["attrs"]["served_ms"], predicts[span["attrs"]["predict"]])
        for span in tree if span["name"] == "serve.batcher"
    ]
    ok = [request for request in requests if request.ok and loadgen.in_ladder(request)]
    outcome.per_layer = {
        **spanlib.layer_metrics(server_spans),
        **_self_metrics(outcome.table),
        "serve.batch_wait_ms": spanlib.percentile(
            [served - (p["end"] - p["start"]) * 1e3 for served, p in matched], 50
        ),
        "serve.http_ms": spanlib.percentile(
            [(r.received - r.sent) * 1e3 - r.served_ms for r in ok], 50
        ),
        "serve.windows_per_batch": metrics["mean_batch_windows"],
        "serve.rejected": metrics["rejected_total"],
        "loadgen.lag_ms.p99": spanlib.percentile(
            [(r.dispatched - r.due) * 1e3 for r in requests if loadgen.in_ladder(r)], 99
        ),
        "trace.overhead_ratio": latencies["traced"] / latencies["untraced"],
    }
    run.drop(store_dir)
    return outcome


def request_spans(requests, server_spans) -> list[dict]:
    """One span tree per answered request, on the shared monotonic clock.

    ``bench.request`` (due → answer) holds ``loadgen.wait`` (due → sent)
    and ``serve.http`` (sent → answer); inside it ``serve.batcher`` is
    the server-side time the response reports (``served_ms``, ending
    when its batch's forward ends), which holds that batch's
    ``predictor.predict`` span and its ``nn`` children, copied from the
    server.  A batch shared by two requests appears under both: the
    table attributes each request's latency, not CPU time.
    """
    recorder = spanlib.SpanRecorder()
    predicts = sorted(
        (span for span in server_spans if span["name"] == "predictor.predict"),
        key=lambda span: span["end"],
    )
    children: dict[int, list] = {}
    for span in server_spans:
        children.setdefault(span["parent"], []).append(span)
    ends = [span["end"] for span in predicts]
    for index, request in enumerate(requests):
        if not request.ok:
            continue
        # The request's own batch is the last forward that ended before
        # the answer and started after the request was sent.
        position = bisect.bisect_right(ends, request.received) - 1
        if position < 0 or predicts[position]["start"] < request.sent:
            continue
        predict = predicts[position]
        root = recorder.add("bench.request", request.due, request.received, ref=index)
        recorder.add("loadgen.wait", request.due, request.sent, root, index)
        http_id = recorder.add("serve.http", request.sent, request.received, root, index)
        batch_start = max(request.sent, predict["end"] - request.served_ms / 1e3)
        batcher = recorder.add(
            "serve.batcher", batch_start, predict["end"], http_id, index,
            served_ms=request.served_ms, predict=predict["id"],
        )
        _copy(recorder, predict, batcher, index, children)
    return recorder.spans


def _copy(recorder, span, parent, ref, children) -> None:
    new = recorder.add(span["name"], span["start"], span["end"], parent, ref, **span["attrs"])
    for child in children.get(span["id"], ()):
        _copy(recorder, child, new, ref, children)
