"""Property: every callback runs under the span current at its scheduling,
and ``run()`` hands the caller's span back however it ends.

``Simulator.run`` sets each entry's span without restoring it after the
callback; only the caller's span is restored, once, when ``run``
returns.  The plans below nest ``schedule`` and ``timers.arm`` calls
(re-arms included) under random current spans, leave whatever span they
like current when they return, and end runs by ``stop()``, by an
exception, by ``max_events`` or by a horizon.
"""

from typing import NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class Boom(Exception):
    pass


class Plan(NamedTuple):
    """One callback: how it is scheduled and what it does when it runs."""

    how: str            # "schedule", "arm" or "rearm"
    delay: float
    span: Optional[int]         # current span while scheduling
    rearm_span: Optional[int]   # current span at the re-arm ("rearm")
    children: Tuple["Plan", ...]
    ending: str         # "return", "stop" or "raise"
    leaves_span: Optional[int]  # current span the callback returns with


span_ids = st.one_of(st.none(), st.integers(min_value=1, max_value=5))
delays = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0))


def plans(children):
    return st.builds(
        Plan, st.sampled_from(("schedule", "arm", "rearm")), delays,
        span_ids, span_ids, children,
        st.sampled_from(("return", "return", "stop", "raise")), span_ids)


plan_trees = st.recursive(
    plans(st.just(())),
    lambda inner: plans(st.lists(inner, max_size=3).map(tuple)),
    max_leaves=16)


def plant(sim, plan, seen):
    """Schedule ``plan`` under its span; its callback logs the span it
    runs under next to the one it was scheduled under."""
    spans = sim.spans
    spans.current = plan.span

    def callback():
        seen.append((spans.current, expected[0]))
        for child in plan.children:
            plant(sim, child, seen)
        spans.current = plan.leaves_span
        if plan.ending == "stop":
            sim.stop()
        elif plan.ending == "raise":
            raise Boom()

    expected = [plan.span]
    if plan.how == "schedule":
        sim.schedule(plan.delay, callback)
        return
    handle = sim.timers.create(callback)
    sim.timers.arm(handle, plan.delay)
    if plan.how == "rearm":
        # The re-arm's span wins, whether the entry moves or catches up.
        spans.current = plan.rearm_span
        expected[0] = plan.rearm_span
        sim.timers.arm(handle, plan.delay / 2 + 0.125)


runs = st.lists(st.one_of(
    st.just(("run", None)),
    st.tuples(st.just("until"), st.sampled_from((0.25, 0.5, 1.0))),
    st.tuples(st.just("max_events"), st.integers(min_value=1,
                                                 max_value=4))),
    min_size=1, max_size=6)


@given(st.lists(plan_trees, min_size=1, max_size=4), runs, span_ids,
       st.booleans())
@settings(max_examples=120)
def test_callbacks_see_their_span_and_run_restores_the_caller(
        roots, run_modes, caller_span, profiled):
    sim = Simulator(seed=0)
    if profiled:
        sim.enable_profiler()
    seen = []
    for root in roots:
        plant(sim, root, seen)
    sim.spans.current = caller_span
    turn = 0
    while sim.pending():
        mode, value = run_modes[turn % len(run_modes)]
        turn += 1
        try:
            if mode == "until":
                sim.run(until=sim.now + value)
            elif mode == "max_events":
                sim.run(max_events=value)
            else:
                sim.run()
        except Boom:
            pass
        assert sim.spans.current == caller_span
    assert seen
    assert all(ran == scheduled for ran, scheduled in seen)


@pytest.mark.parametrize("ending", ["return", "stop", "raise"])
def test_run_restores_the_caller_span(ending):
    sim = Simulator()
    sim.spans.current = 7
    inner = Plan("schedule", 0.0, 3, None, (), ending, 4)
    seen = []
    plant(sim, inner, seen)
    sim.spans.current = 7
    if ending == "raise":
        with pytest.raises(Boom):
            sim.run()
    else:
        sim.run()
    assert seen == [(3, 3)]
    assert sim.spans.current == 7
