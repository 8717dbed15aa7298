"""Unit tests for the DSL compiler and body interpreter."""

import pytest

from repro.core import (ContextTypeDef, PortInvocation, TimerInvocation,
                        WhenInvocation)
from repro.core.runtime import ObjectContext
from repro.aggregation import AggregateStore, AggregateVarSpec, \
    default_registry
from repro.lang import CompileError, compile_source, default_library
from repro.node import Mote
from repro.radio import Medium
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry

FIGURE2 = """
begin context tracker
    activation: magnetic_sensor_reading()
    location : avg(position) confidence=2, freshness=1s
    begin object reporter
        invocation: TIMER(5s)
        report_function() {
            MySend(pursuer, self:label, location);
        }
    end
end context
"""


def make_mote(**sensors):
    sim = Simulator()
    medium = Medium(sim, communication_radius=1.0)
    mote = Mote(sim, 0, (0.0, 0.0), medium)
    for name, value in sensors.items():
        mote.install_sensor(name, (value if callable(value)
                                   else (lambda v=value: v)))
    return mote


def make_ctx(specs=None, reports=None):
    """An ObjectContext wired to in-memory sinks for testing bodies."""
    specs = specs or [AggregateVarSpec("location", "avg", "position",
                                       confidence=1, freshness=10.0)]
    store = AggregateStore(specs, default_registry(), MetricsRegistry())
    sent = []
    invoked = []
    state_box = {"state": None}
    records = []
    ctx = ObjectContext(
        context_type="tracker", label="tracker#1.1", node_id=1,
        clock=lambda: 1.0, store=store,
        send_fn=sent.append,
        invoke_fn=lambda *args: invoked.append(args),
        set_state_fn=lambda s: state_box.__setitem__("state", s),
        get_state_fn=lambda: state_box["state"],
        record_fn=lambda *a, **k: records.append((a, k)))
    return ctx, store, sent, invoked, state_box


class TestCompile:
    def test_figure2_compiles_to_context_def(self):
        (definition,) = compile_source(FIGURE2)
        assert isinstance(definition, ContextTypeDef)
        assert definition.name == "tracker"
        spec = definition.aggregate("location")
        assert spec.confidence == 2
        assert spec.freshness == pytest.approx(1.0)
        method = definition.objects[0].methods[0]
        assert isinstance(method.invocation, TimerInvocation)
        assert method.invocation.period == pytest.approx(5.0)

    def test_activation_reads_sense_library(self):
        (definition,) = compile_source(FIGURE2)
        sensing = make_mote(magnetic_detect=True)
        silent = make_mote(magnetic_detect=False)
        assert definition.activation(sensing) is True
        assert definition.activation(silent) is False

    def test_activation_missing_sensor_is_false(self):
        (definition,) = compile_source(FIGURE2)
        bare = make_mote()
        assert definition.activation(bare) is False

    def test_threshold_activation(self):
        source = """
        begin context fire
            activation: temperature() > 180 and light()
        end context
        """
        (definition,) = compile_source(source)
        hot_lit = make_mote(temperature=200.0, light=True)
        hot_dark = make_mote(temperature=200.0, light=False)
        cold_lit = make_mote(temperature=20.0, light=True)
        assert definition.activation(hot_lit) is True
        assert definition.activation(hot_dark) is False
        assert definition.activation(cold_lit) is False

    def test_multiple_sensors_per_aggregate_rejected(self):
        source = """
        begin context c
            activation: light()
            v : avg(a, b) confidence=1, freshness=1s
        end context
        """
        with pytest.raises(CompileError):
            compile_source(source)

    def test_unknown_attribute_rejected(self):
        source = """
        begin context c
            activation: light()
            v : avg(a) wibble=3
        end context
        """
        with pytest.raises(CompileError):
            compile_source(source)

    def test_when_and_port_invocations_compile(self):
        source = """
        begin context c
            activation: light()
            v : avg(light) confidence=1, freshness=1s
            begin object o
                invocation: v > 10
                alarm() { log(v); }
                invocation: PORT(3)
                on_msg() { log(args); }
            end
        end context
        """
        (definition,) = compile_source(source)
        alarm, on_msg = definition.objects[0].methods
        assert isinstance(alarm.invocation, WhenInvocation)
        assert isinstance(on_msg.invocation, PortInvocation)

    def test_custom_sense_library(self):
        library = default_library()
        library.register("always", lambda mote: True)
        source = """
        begin context c
            activation: always()
        end context
        """
        (definition,) = compile_source(source, library=library)
        assert definition.activation(make_mote()) is True


class TestBodies:
    def test_my_send_includes_named_values(self):
        (definition,) = compile_source(FIGURE2)
        ctx, store, sent, _, _ = make_ctx()
        store.add_report(1, {"location": (2.0, 3.0)}, 0.5)
        method = definition.objects[0].methods[0]
        method.body(ctx)
        assert len(sent) == 1
        assert sent[0].values["location"] == (2.0, 3.0)

    def test_if_statement_and_assignment(self):
        source = """
        begin context c
            activation: light()
            v : avg(light) confidence=1, freshness=10s
            begin object o
                invocation: TIMER(1s)
                f() {
                    if (v > 10) { hits = 1; } else { hits = 0; }
                }
            end
        end context
        """
        (definition,) = compile_source(source)
        specs = [AggregateVarSpec("v", "avg", "light", confidence=1,
                                  freshness=10.0)]
        ctx, store, _, _, _ = make_ctx(specs)
        store.add_report(1, {"v": 20.0}, 0.5)
        definition.objects[0].methods[0].body(ctx)
        assert ctx.locals["hits"] == 1

    def test_invalid_aggregate_makes_condition_false(self):
        source = """
        begin context c
            activation: light()
            v : avg(light) confidence=5, freshness=1s
            begin object o
                invocation: v > 10
                f() { log(v); }
            end
        end context
        """
        (definition,) = compile_source(source)
        specs = [AggregateVarSpec("v", "avg", "light", confidence=5,
                                  freshness=1.0)]
        ctx, store, _, _, _ = make_ctx(specs)
        store.add_report(1, {"v": 100.0}, 0.9)  # below critical mass
        method = definition.objects[0].methods[0]
        assert method.invocation.predicate(ctx) is False

    def test_set_state_builtin(self):
        source = """
        begin context c
            activation: light()
            begin object o
                invocation: TIMER(1s)
                f() { setState(count, 3); }
            end
        end context
        """
        (definition,) = compile_source(source)
        ctx, _, _, _, state_box = make_ctx()
        definition.objects[0].methods[0].body(ctx)
        assert state_box["state"] == {"count": 3}

    def test_invoke_builtin(self):
        source = """
        begin context c
            activation: light()
            begin object o
                invocation: TIMER(1s)
                f() { invoke('fire#1.1', 2, level, 9); }
            end
        end context
        """
        (definition,) = compile_source(source)
        ctx, _, _, invoked, _ = make_ctx()
        definition.objects[0].methods[0].body(ctx)
        assert invoked == [("fire#1.1", 2, {"level": 9})]

    def test_valid_and_read_builtins(self):
        source = """
        begin context c
            activation: light()
            v : avg(light) confidence=1, freshness=10s
            begin object o
                invocation: TIMER(1s)
                f() {
                    ok = valid(v);
                    value = read(v);
                }
            end
        end context
        """
        (definition,) = compile_source(source)
        specs = [AggregateVarSpec("v", "avg", "light", confidence=1,
                                  freshness=10.0)]
        ctx, store, _, _, _ = make_ctx(specs)
        store.add_report(1, {"v": 7.0}, 0.5)
        definition.objects[0].methods[0].body(ctx)
        assert ctx.locals["ok"] is True
        assert ctx.locals["value"] == pytest.approx(7.0)
