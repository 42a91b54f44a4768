"""In-memory span recording, self-time attribution and the layer wrappers.

A span is ``(id, name, start, end, parent, ref, attrs)``: ``name`` is
``<layer>.<call>``, times are ``time.perf_counter()`` seconds (the
system-wide monotonic clock on Linux, so spans from different processes
on one machine line up), ``parent`` is the enclosing span's id on the
same thread and ``ref`` ties spans to a task or request id.

:func:`install` wraps the public entry points of each layer of
``repro`` so that every call records one span.  Nothing under ``src/``
is edited: module attributes and class attributes are replaced at run
time and :func:`install` returns the function that puts them back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
import zipfile

#: Layers in table order; a span's layer is its name up to the first dot.
LAYERS = (
    "runtime", "netsim", "datasets", "core", "nn", "store", "predictor",
    "serve", "loadgen",
)

#: Row for the time no layer span covers (self time of root spans).
UNATTRIBUTED = "unattributed"


class SpanRecorder:
    """Collects spans in memory; each thread keeps its own parent stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start, end, parent=None, ref=None, **attrs) -> int:
        """Record a finished span; returns its id."""
        with self._lock:
            span_id = next(self._ids)
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "ref": ref, "attrs": attrs,
            })
        return span_id

    def open(self, name: str, ref=None) -> dict:
        """Start a span on this thread; close it with :meth:`close`."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1]["id"] if stack else None
        if ref is None and stack:
            ref = stack[-1]["ref"]
        span = {"id": span_id, "name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "ref": ref, "attrs": {}}
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def write(self, path) -> None:
        """Write the spans as JSON lines, ordered by start time."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda span: span["start"]):
                handle.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# -- self time -------------------------------------------------------------------


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → duration minus the time its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else UNATTRIBUTED


def self_time_table(spans: list[dict]) -> dict[str, float]:
    """Layer → summed self seconds; root spans' self time is unattributed.

    The rows add up to the summed duration of the root spans.
    """
    table = {layer: 0.0 for layer in LAYERS}
    table[UNATTRIBUTED] = 0.0
    own = self_times(spans)
    for span in spans:
        row = UNATTRIBUTED if span["parent"] is None else layer_of(span["name"])
        table[row] += own[span["id"]]
    return table


def format_table(table: dict[str, float], overhead: float | None = None) -> str:
    total = sum(table.values()) or 1.0
    lines = [f"{'layer':14s}{'self_s':>12s}{'share':>9s}"]
    for layer, seconds in table.items():
        lines.append(f"{layer:14s}{seconds:12.4f}{seconds / total:9.1%}")
    lines.append(f"{'total':14s}{total:12.4f}")
    if overhead is not None:
        lines.append(f"tracing overhead (traced / untraced): {overhead:.4f}x")
    return "\n".join(lines)


def outermost(spans: list[dict], prefix: str) -> list[dict]:
    """Spans whose name starts with ``prefix`` and that have no ancestor
    of the same prefix (so nested calls are not counted twice)."""
    by_id = {span["id"]: span for span in spans}

    def nested(span):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"].startswith(prefix):
                return True
            parent = by_id.get(parent["parent"])
        return False

    return [s for s in spans if s["name"].startswith(prefix) and not nested(s)]


def inclusive_s(spans: list[dict], prefix: str) -> float:
    return sum(s["end"] - s["start"] for s in outermost(spans, prefix))


def attr_sum(spans: list[dict], name: str, attr: str) -> float:
    return sum(s["attrs"].get(attr, 0) for s in spans if s["name"] == name)


# -- wrappers --------------------------------------------------------------------


def _span_function(recorder, name, function, after=None, ref=None):
    """``function`` recording one span per call; ``after(args, kwargs,
    result)`` adds attributes, ``ref(args, kwargs)`` sets the span's id
    (spans opened inside inherit it)."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, None if ref is None else ref(args, kwargs))
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            span["attrs"].update(after(args, kwargs, result))
        return result

    return wrapper


def _span_iter(recorder, name, function):
    """Wrap ``__iter__`` so each ``next()`` (the loader's batch work) is a
    span, while the consumer's time between batches is not."""

    @functools.wraps(function)
    def wrapper(self):
        iterator = function(self)
        while True:
            span = recorder.open(name)
            try:
                batch = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.close(span)
            yield batch

    return wrapper


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(path) for path in paths if os.path.exists(path))


#: ``ArtifactStore.get_<x>`` → the artifact kind it reads.
_GET_KINDS = {
    "get_bundle": "bundles", "get_pretrained": "checkpoints",
    "get_finetuned": "checkpoints",
}


def _after_get(method, signature, args, kwargs, result):
    """Hit flag and bytes read for one ``ArtifactStore.get_*`` call."""
    if result is None:
        return {"hit": 0}
    call = signature.bind(*args, **kwargs).arguments
    store = call["self"]
    if method == "get_traces":
        paths = store.trace_paths(call["key"], call["n_runs"])
    elif method == "get_json":
        paths = [store.path(call["kind"], call["key"])]
    elif method == "get_manifest":
        paths = [store.path("manifests", call["name"])]
    else:
        paths = [store.path(_GET_KINDS[method], call["key"])]
    return {"hit": 1, "bytes": _file_bytes(paths)}


_MISSING = object()


def install(recorder: SpanRecorder):
    """Wrap every layer's public calls; returns a function that undoes it."""
    import repro.api  # noqa: F401  (binds every name the scan below patches)
    import repro.cli  # noqa: F401
    from repro.api.predictor import Predictor
    from repro.api.store import ArtifactStore
    from repro.core.features import FeaturePipeline
    from repro.core.model import NTTForDelay, NTTForMCT
    from repro.netsim.scenarios import ScenarioHandle
    from repro.nn.data import DataLoader
    from repro.nn.module import Module
    from repro.nn.optim import Optimizer
    from repro.nn.tensor import Tensor
    from repro.runtime.engine import CampaignEngine

    undo = []

    def patch_attr(owner, attr, value):
        undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch_function(module_name, attr, name, after=None, ref=None):
        """Replace a function in its module and in every ``repro`` module
        that imported it by name."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = _span_function(recorder, name, original, after, ref)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                module.__dict__.get(attr) is original
            ):
                patch_attr(module, attr, wrapped)

    def patch_method(cls, attr, name, after=None):
        patch_attr(cls, attr, _span_function(recorder, name, getattr(cls, attr), after))

    # runtime
    patch_function("repro.runtime.plan", "plan_campaign", "runtime.plan")
    patch_method(CampaignEngine, "run", "runtime.run")
    patch_function(
        "repro.runtime.worker", "run_task", "runtime.task",
        ref=lambda args, kwargs: args[0]["id"],
    )
    # netsim: run_scenario() is build_scenario(...).run(); wrapping the
    # handle's run also sees the simulator's event count.
    patch_method(
        ScenarioHandle, "run", "netsim.run",
        lambda args, kwargs, trace: {
            "packets": len(trace), "events": args[0].sim.events_processed,
        },
    )
    # datasets
    patch_function("repro.datasets.generation", "generate_dataset", "datasets.generate")
    patch_function(
        "repro.datasets.windows", "windows_from_trace", "datasets.window",
        lambda args, kwargs, windows: {"windows": len(windows)},
    )
    # core
    for attr in ("transform_features", "transform_delay_target",
                 "transform_mct_target", "transform_message_size"):
        patch_method(FeaturePipeline, attr, "core.features")
    patch_function("repro.core.pretrain", "pretrain", "core.pretrain")
    for attr in ("finetune_delay", "finetune_mct",
                 "train_delay_from_scratch", "train_mct_from_scratch"):
        patch_function("repro.core.finetune", attr, "core.finetune")
    patch_function("repro.core.evaluation", "evaluate_delay", "core.evaluate")
    patch_function("repro.core.evaluation", "evaluate_mct", "core.evaluate")
    patch_function("repro.core.baselines", "evaluate_baselines", "core.evaluate")
    # nn: the model call is wrapped on the task heads only, so the
    # layers nested inside one forward are not spans of their own.
    for head in (NTTForDelay, NTTForMCT):
        patch_attr(head, "__call__", _span_function(
            recorder, "nn.forward", Module.__call__,
            lambda args, kwargs, out: {"samples": len(args[1])},
        ))
    patch_method(Tensor, "backward", "nn.backward")
    patch_method(Optimizer, "step", "nn.optimizer.step")
    patch_function("repro.nn.optim", "clip_grad_norm", "nn.optimizer.clip")
    patch_attr(DataLoader, "__iter__", _span_iter(recorder, "nn.loader", DataLoader.__iter__))
    # api: the artifact store and the predictor
    for attr in sorted(vars(ArtifactStore)):
        if attr.startswith("put_"):
            patch_method(
                ArtifactStore, attr, f"store.{attr}",
                lambda args, kwargs, path: {
                    "path": str(path), "bytes": _file_bytes([path]),
                } if path is not None else {},
            )
        elif attr.startswith("get_"):
            patch_method(
                ArtifactStore, attr, f"store.{attr}",
                functools.partial(
                    _after_get, attr, inspect.signature(getattr(ArtifactStore, attr))
                ),
            )
    patch_method(
        Predictor, "predict", "predictor.predict",
        lambda args, kwargs, out: {"windows": len(out)},
    )

    def uninstall():
        for owner, attr, previous in reversed(undo):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        undo.clear()

    return uninstall



# -- layer metrics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` %
    of the samples at or below it (0.0 for no samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def npz_raw_bytes(path) -> int:
    """Uncompressed member bytes of an ``.npz`` (its arrays' raw size)."""
    with zipfile.ZipFile(path) as archive:
        return sum(info.file_size for info in archive.infolist())


def store_metrics(spans: list[dict]) -> dict[str, float]:
    writes = outermost(spans, "store.put_")
    reads = outermost(spans, "store.get_")
    # Bytes come from the innermost writer that returned a path
    # (put_traces delegates to put_trace_run), so none is counted twice.
    written = [s for s in spans if s["name"].startswith("store.put_") and "path" in s["attrs"]]
    disk = raw = 0
    for span in written:
        path = span["attrs"]["path"]
        if path.endswith(".npz") and os.path.exists(path):
            disk += os.path.getsize(path)
            raw += npz_raw_bytes(path)
    hits = sum(span["attrs"].get("hit", 0) for span in reads)
    return {
        "store.write_s": sum(s["end"] - s["start"] for s in writes),
        "store.write_bytes": sum(s["attrs"]["bytes"] for s in written),
        "store.read_s": sum(s["end"] - s["start"] for s in reads),
        "store.read_bytes": sum(s["attrs"].get("bytes", 0) for s in reads),
        "store.disk_ratio": disk / raw if raw else 0.0,
        "store.hit_ratio": hits / len(reads) if reads else 0.0,
    }


def nn_metrics(spans: list[dict]) -> dict[str, float]:
    steps = sorted(s["end"] for s in spans if s["name"] == "nn.optimizer.step")
    gaps = [(b - a) * 1e3 for a, b in zip(steps, steps[1:])]
    forwards = outermost(spans, "nn.forward")
    return {
        "nn.steps": len(steps),
        "nn.samples": sum(s["attrs"].get("samples", 0) for s in forwards),
        "nn.forward_s": sum(s["end"] - s["start"] for s in forwards),
        "nn.backward_s": inclusive_s(spans, "nn.backward"),
        "nn.optimizer_s": inclusive_s(spans, "nn.optimizer"),
        "nn.loader_s": inclusive_s(spans, "nn.loader"),
        # Consecutive optimizer steps bracket one training step; the
        # median ignores the few gaps that span an epoch boundary.
        "nn.step_ms.p50": percentile(gaps, 50),
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers derived from one traced run's spans."""
    run_s = inclusive_s(spans, "netsim.run")
    packets = attr_sum(spans, "netsim.run", "packets")
    predicts = outermost(spans, "predictor.predict")
    windows = sum(s["attrs"].get("windows", 0) for s in predicts)
    return {
        "netsim.run_s": run_s,
        "netsim.packets": packets,
        "netsim.events": attr_sum(spans, "netsim.run", "events"),
        "netsim.packets_per_s": packets / run_s if run_s else 0.0,
        "datasets.window_s": inclusive_s(spans, "datasets.window"),
        "datasets.windows": attr_sum(spans, "datasets.window", "windows"),
        **store_metrics(spans),
        "core.pretrain_s": inclusive_s(spans, "core.pretrain"),
        "core.finetune_s": inclusive_s(spans, "core.finetune"),
        "core.evaluate_s": inclusive_s(spans, "core.evaluate"),
        "core.features_s": inclusive_s(spans, "core.features"),
        **nn_metrics(spans),
        "predictor.calls": len(predicts),
        "predictor.forward_ms": percentile(
            [(s["end"] - s["start"]) * 1e3 for s in predicts], 50
        ),
        "predictor.windows_per_call": windows / len(predicts) if predicts else 0.0,
    }
