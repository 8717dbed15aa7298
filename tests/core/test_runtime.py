"""Unit tests for the ObjectContext runtime facade."""

import pytest

from repro.aggregation import (AggregateStore, AggregateVarSpec,
                               default_registry)
from repro.core import AppReport
from repro.core.runtime import ObjectContext
from repro.telemetry import MetricsRegistry


def make_ctx(specs=None, now=5.0):
    specs = specs or [AggregateVarSpec("location", "avg", "position",
                                       confidence=2, freshness=1.0)]
    store = AggregateStore(specs, default_registry(), MetricsRegistry())
    sent = []
    invoked = []
    state = {"value": None}
    records = []
    ctx = ObjectContext(
        context_type="tracker", label="tracker#4.2", node_id=4,
        clock=lambda: now, store=store,
        send_fn=sent.append,
        invoke_fn=lambda label, port, args: invoked.append(
            (label, port, args)),
        set_state_fn=lambda s: state.update(value=s),
        get_state_fn=lambda: state["value"],
        record_fn=lambda category, **detail: records.append(
            (category, detail)),
        position=(1.0, 2.0))
    return ctx, store, sent, invoked, state, records


def test_label_and_identity():
    ctx, *_ = make_ctx()
    assert ctx.label == "tracker#4.2"
    assert ctx.context_type == "tracker"
    assert ctx.node_id == 4
    assert ctx.now == 5.0
    assert ctx.position == (1.0, 2.0)


def test_read_null_and_valid():
    ctx, store, *_ = make_ctx()
    assert not ctx.valid("location")
    assert ctx.value("location", default="none") == "none"
    store.add_report(1, {"location": (0.0, 0.0)}, 4.5)
    store.add_report(2, {"location": (2.0, 2.0)}, 4.6)
    assert ctx.valid("location")
    assert ctx.value("location") == pytest.approx((1.0, 1.0))
    result = ctx.read("location")
    assert result.contributors == 2


def test_my_send_attaches_label_and_type():
    ctx, _, sent, *_ = make_ctx()
    ctx.my_send({"location": (1.0, 1.0), "speed": 3})
    assert sent == [AppReport(label="tracker#4.2", context_type="tracker",
                              reporter=4, reported_at=5.0,
                              values={"location": (1.0, 1.0), "speed": 3})]


def test_invoke_passthrough():
    ctx, _, _, invoked, _, _ = make_ctx()
    ctx.invoke("fire#1.1", 3, {"x": 1})
    ctx.invoke("fire#1.1", 4)
    assert invoked == [("fire#1.1", 3, {"x": 1}), ("fire#1.1", 4, {})]


def test_persistent_state_round_trip():
    ctx, _, _, _, state, _ = make_ctx()
    assert ctx.state is None
    ctx.set_state({"count": 7})
    assert state["value"] == {"count": 7}
    assert ctx.state == {"count": 7}


def test_locals_scratchpad():
    ctx, *_ = make_ctx()
    ctx.locals["x"] = 42
    assert ctx.locals["x"] == 42


def test_log_prefixes_app_and_label():
    ctx, *_, records = make_ctx()
    ctx.log("alarm", level=3)
    assert records == [("app.alarm", {"label": "tracker#4.2", "level": 3})]


def test_aggregate_names():
    ctx, *_ = make_ctx()
    assert ctx.aggregate_names() == ["location"]
