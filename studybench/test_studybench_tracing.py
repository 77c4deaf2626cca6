"""Self-test of the span recorder: nesting, self times and absent layers."""

import types

import pytest

import tracing
from tracing import ROOT, Tracer, layer_metrics


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def simulate():
        return types.SimpleNamespace(states=[[0.0] * 11])

    def pieces():
        tracer.call("fom.simulate", simulate, count=lambda a, k, r: {"steps": 10})
        return []

    def study():
        tracer.call("cli.project_pieces", pieces)
        tracer.call("fom.simulate", simulate, count=lambda a, k, r: {"steps": 5})
        return 0

    assert tracer.call(ROOT, study) == 0
    tracer.absent.append("rom.interpolate")
    metrics = layer_metrics(tracer.dump())

    spans = {span["name"]: span for span in tracer.spans}
    assert spans["cli.project_pieces"]["parent"] == 0
    assert metrics["fom.simulate.steps"] == 15
    assert metrics["trace.absent_layers"] == 1
    assert metrics["rom.interpolate.busy_s"] == 0.0
    parts = (
        metrics["fom.simulate.busy_s"]
        + metrics["cli.project_pieces.self_s"]
        + metrics["cli.self_s"]
    )
    assert parts == pytest.approx(metrics["trace.study_s"], rel=1e-9)


def test_spans_that_do_not_nest_are_refused():
    trace = {
        "spans": [
            {"name": ROOT, "parent": None, "start": 0.0, "end": 1.0, "counts": {}},
            {"name": "fom.simulate", "parent": 0, "start": 0.5, "end": 1.5, "counts": {}},
        ],
        "absent": [],
    }
    with pytest.raises(ValueError, match="not inside"):
        layer_metrics(trace)


def test_missing_layers_are_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", (
        ("gone.function", "types", "NoSuchFunction", None),
        ("gone.method", "types", "NoSuchClass.write", None),
        ("gone.module", "studybench_no_such_module", "simulate", None),
    ))
    tracer = Tracer()
    tracer.install()
    assert tracer.absent == ["gone.function", "gone.method", "gone.module"]
