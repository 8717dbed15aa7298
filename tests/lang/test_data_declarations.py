"""Tests for Appendix A object data declarations."""

import pytest

from repro.core import EnviroTrackApp
from repro.lang import ParseError, compile_source, parse_source
from repro.sensing import StaticPoint, Target

PROGRAM = """
begin context watcher
    activation: thing_detector()
    count_seen : count(position) confidence=1, freshness=2s
    begin object counter
        ticks = 0;
        threshold = 3;
        invocation: TIMER(1s)
        tick() {
            ticks = ticks + 1;
            if (ticks > threshold) {
                MySend(pursuer, self:label, ticks);
            }
        }
    end
end context
"""


def test_data_declarations_parse():
    program = parse_source(PROGRAM)
    obj = program.context("watcher").objects[0]
    assert obj.data == (("ticks", 0.0), ("threshold", 3.0))


def test_literal_values_only():
    bad = """
    begin context c
        activation: light()
        begin object o
            x = light();
            invocation: TIMER(1s)
            f() { log(x); }
        end
    end context
    """
    with pytest.raises(ParseError):
        parse_source(bad)


def test_data_seeds_locals_and_counts_across_invocations():
    from repro.lang import default_library
    library = default_library()
    library.register("thing_detector",
                     lambda mote: (mote.read_sensor("thing_seen")
                                   if mote.has_sensor("thing_seen")
                                   else False))
    app = EnviroTrackApp(seed=3, enable_transport=False)
    app.field.deploy_grid(4, 2)
    app.field.add_target(Target("thing", "thing", StaticPoint((1.0, 0.5)),
                                signature_radius=1.0))
    app.field.install_detection_sensors("thing_seen", kinds=["thing"])
    for definition in compile_source(PROGRAM, library=library):
        app.add_context_type(definition)
    base = app.place_base_station((0.0, -2.0))
    app.run(until=12.0)
    # The counter passes its threshold of 3 and starts reporting tick
    # counts > 3 that keep increasing.
    values = [record.values.get("ticks") for record in base.reports]
    assert values, "threshold never crossed"
    assert all(v > 3 for v in values)
    assert values == sorted(values)
