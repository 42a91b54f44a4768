"""Tests of the benchmark's own arithmetic (no program run needed)."""

from __future__ import annotations

import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import loadgen, spans
from perfbench.batch import runtime_metrics
from perfbench.workloads import REPORT_UNITS, request_spans

DEFINITION = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "ref": None, "attrs": {}}


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, "bench.run", 0.0, 10.0),
        _span(2, "core.pretrain", 1.0, 4.0, parent=1),
        _span(3, "nn.forward", 2.0, 3.0, parent=2),
        _span(4, "store.put_bundle", 5.0, 8.0, parent=1),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 4.0, 2: 2.0, 3: 1.0, 4: 3.0})
    table = spans.self_time_table(tree)
    assert table["unattributed"] == pytest.approx(4.0)
    assert table["core"] == pytest.approx(2.0)
    assert table["nn"] == pytest.approx(1.0)
    assert table["store"] == pytest.approx(3.0)
    assert sum(table.values()) == pytest.approx(10.0)
    # Overlapping children cover their union, [1, 8] here, not their sum.
    overlapping = tree[:3] + [_span(4, "store.put_bundle", 3.0, 8.0, parent=1)]
    assert spans.self_times(overlapping)[1] == pytest.approx(3.0)


def test_recorder_nests_spans_and_counts_outermost_once():
    recorder = spans.SpanRecorder()
    outer = recorder.open("core.pretrain", ref="pretrain:abc")
    inner = recorder.open("core.pretrain")
    recorder.close(inner)
    recorder.close(outer)
    assert inner["parent"] == outer["id"]
    assert inner["ref"] == "pretrain:abc"  # a task's spans share its id
    assert spans.outermost(recorder.spans, "core.pretrain") == [outer]


def test_arrival_schedule_is_fixed_by_the_seed():
    first = loadgen.arrival_schedule(7, 20, 256)
    assert first == loadgen.arrival_schedule(7, 20, 256)
    assert first != loadgen.arrival_schedule(8, 20, 256)
    assert len(first) == len(loadgen.LADDER)
    for rung, requests in zip(loadgen.LADDER, first):
        offsets = [offset for offset, _ in requests]
        assert offsets == sorted(offsets)
        assert offsets[-1] < rung.share * 20
        assert all(0 <= window < 256 for _, window in requests)


def _answered(index, latency_s, **fields):
    request = loadgen.Request(step=0, window=0, due=float(index),
                              sent=float(index), received=index + latency_s,
                              status=200, prediction=1.0)
    for name, value in fields.items():
        setattr(request, name, value)
    return request


@pytest.mark.parametrize("failure", [{"status": 503}, {"wrong": True}])
def test_refused_or_wrong_answer_fails_and_misses_the_limit(failure):
    good = [_answered(index, 0.005) for index in range(20)]
    assert loadgen.summarise(good)["within_limit"]
    bad = _answered(20, 0.005, **failure)
    assert not bad.ok
    assert bad.latency_ms > loadgen.LATENCY_LIMIT_MS
    summary = loadgen.summarise(good + [bad])
    assert summary["failed"] == 1 and summary["succeeded"] == 20
    assert summary["p99_ms"] > loadgen.LATENCY_LIMIT_MS
    assert not summary["within_limit"]


def test_request_tree_attributes_latency_to_layers():
    request = _answered(0, 0.010, served_ms=6.0)
    request.due, request.sent = -0.002, 0.0
    server = [
        _span(1, "predictor.predict", 0.003, 0.007),
        _span(2, "nn.forward", 0.004, 0.006, parent=1),
    ]
    table = spans.self_time_table(request_spans([request], server))
    assert table["loadgen"] == pytest.approx(0.002)  # waited for a connection
    assert table["serve"] == pytest.approx(0.006)  # http 4 ms + batch wait 2 ms
    assert table["predictor"] == pytest.approx(0.002)
    assert table["nn"] == pytest.approx(0.002)
    assert sum(table.values()) == pytest.approx(0.012)


def test_metric_names_are_well_formed_and_match_the_code():
    declared = {
        section: [metric["name"] for metric in DEFINITION[section]]
        for section in ("end_to_end", "per_layer")
    }
    names = [*declared["end_to_end"], *declared["per_layer"], *REPORT_UNITS]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(declared["end_to_end"] + declared["per_layer"])) == (
        len(declared["end_to_end"]) + len(declared["per_layer"])
    )
    produced = set(spans.layer_metrics([])) | {
        f"self_s.{layer}" for layer in spans.self_time_table([])
    }
    assert produced <= set(declared["per_layer"])


def test_task_wait_counts_the_wait_for_a_free_worker():
    # Two independent tasks submitted together to one worker: the second
    # is submitted at 0 s but only runs once the first has finished.
    plan = SimpleNamespace(ordered=lambda: [
        SimpleNamespace(id="a", deps=()), SimpleNamespace(id="b", deps=()),
    ])
    manifest = {"workers": 1, "wall_time_s": 4.0, "tasks": [
        {"id": "a", "started_offset_s": 0.0, "ended_offset_s": 2.0,
         "wall_time_s": 2.0, "attempts": 1},
        {"id": "b", "started_offset_s": 0.0, "ended_offset_s": 4.0,
         "wall_time_s": 2.0, "attempts": 1},
    ]}
    metrics = runtime_metrics(plan, manifest)
    assert metrics["runtime.task_wait_s"] == pytest.approx(2.0)
    assert metrics["runtime.busy_ratio"] == pytest.approx(1.0)
    assert metrics["runtime.critical_path_s"] == pytest.approx(2.0)


def test_burst_seconds_spans_first_send_to_last_answer():
    first = len(loadgen.LADDER)
    requests = [loadgen.Request(step=0, window=0, sent=0.0, received=50.0)]
    for burst in range(loadgen.BURSTS):
        requests += [
            loadgen.Request(step=first + burst, window=0, sent=10.0 * burst + 0.1 * i,
                            received=10.0 * burst + 0.1 * i + 0.5)
            for i in range(5)
        ]
    assert loadgen.burst_seconds(requests) == pytest.approx([0.9] * loadgen.BURSTS)
    assert [loadgen.in_ladder(r) for r in requests[:2]] == [True, False]
