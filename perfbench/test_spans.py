"""Checks of the span arithmetic and the trace checks the benchmark relies on.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import types

import pytest

import run
import spans


def _spans(*rows):
    return [spans.Span(layer, parent, start, end) for layer, parent, start, end in rows]


def test_self_time_is_span_time_minus_children():
    trace = _spans(("cli", -1, 0.0, 10.0), ("integrate", 0, 1.0, 5.0),
                   ("kernel", 1, 2.0, 4.0), ("diagnostics", 0, 6.0, 9.0))
    assert spans.self_times(trace) == [3.0, 2.0, 2.0, 3.0]
    assert spans.layer_totals(trace)["cli.self_s"] == 3.0
    assert spans.check(trace, 10.5, ("cli", "kernel")) == []


@pytest.mark.parametrize("rows, wall, required, message", [
    ([("cli", -1, 0.0, 1.0)], 2.0, ("cli", "kernel"), "layer kernel was never called"),
    ([("kernel", -1, 0.0, 1.0)], 2.0, (), "kernel ran outside cli"),
    ([("cli", -1, 0.0, 2.0), ("kernel", 0, 0.5, 1.5), ("kernel", 1, 0.6, 1.4)], 3.0, (),
     "kernel nests inside itself and would count twice"),
    ([("cli", -1, 0.0, 2.0), ("kernel", 0, 1.0, 3.0)], 4.0, (), "kernel does not nest inside cli"),
    ([("cli", -1, 0.0, 2.0)], 1.0, (), "more than the wall"),
    ([("cli", -1, 0.0, None)], 1.0, (), "a span was never closed"),
])
def test_check_reports_a_broken_trace(rows, wall, required, message):
    errors = spans.check(_spans(*rows), wall, required)
    assert any(message in error for error in errors), errors


def test_install_counts_calls_and_restores_the_originals():
    module = types.SimpleNamespace(f=lambda n: n * 2)
    original = module.f
    point = spans.EntryPoint("f", module, "f", lambda args, result, before: {"items": args[0]})
    tracer = spans.Tracer()
    uninstall = spans.install(tracer, [point])
    assert module.f(3) == 6
    uninstall()
    assert module.f is original
    assert tracer.counts == {"f.calls": 1, "f.items": 3}
    assert [span.layer for span in tracer.spans] == ["f"]


def test_install_refuses_to_wrap_twice():
    module = types.SimpleNamespace(f=lambda: None)
    point = spans.EntryPoint("f", module, "f")
    uninstall = spans.install(spans.Tracer(), [point])
    with pytest.raises(RuntimeError, match="already traced"):
        spans.install(spans.Tracer(), [point])
    uninstall()


def test_benchmark_json_names_every_reported_metric():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
    with open(path) as fh:
        declared = json.load(fh)
    for kind, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[kind]} == reported
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
