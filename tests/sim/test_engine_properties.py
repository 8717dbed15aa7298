"""Property-based tests for the simulation engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

delays = st.lists(st.floats(min_value=0.0, max_value=1e6,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=60)


@given(delays)
@settings(max_examples=80)
def test_dispatch_order_is_total_and_stable(times):
    """Events fire in nondecreasing time order; equal times preserve
    scheduling order."""
    sim = Simulator()
    fired = []
    for index, delay in enumerate(times):
        sim.schedule(delay, lambda i=index, d=delay: fired.append((d, i)))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(delays, st.integers(min_value=0, max_value=59))
@settings(max_examples=50)
def test_cancellation_removes_exactly_that_event(times, cancel_index):
    sim = Simulator()
    fired = []
    handles = []
    for index, delay in enumerate(times):
        handles.append(sim.timers.create(lambda i=index: fired.append(i)))
        sim.timers.arm(handles[-1], delay)
    victim = cancel_index % len(handles)
    sim.timers.cancel(handles[victim])
    sim.run()
    assert victim not in fired
    assert len(fired) == len(times) - 1


@given(delays, st.floats(min_value=0.0, max_value=1e6,
                         allow_nan=False, allow_infinity=False))
@settings(max_examples=60)
def test_run_until_horizon_splits_cleanly(times, horizon):
    """Events ≤ horizon fire; the rest stay pending; clock lands on the
    horizon (or later if already past)."""
    sim = Simulator()
    fired = []
    for delay in times:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run(until=horizon)
    assert all(d <= horizon for d in fired)
    assert sim.pending() == sum(1 for d in times if d > horizon)
    sim.run()
    assert len(fired) == len(times)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30)
def test_same_seed_same_trace(seed):
    def run():
        sim = Simulator(seed=seed)
        rng = sim.rng.stream("s")
        out = []
        for i in range(10):
            sim.schedule(rng.random() * 10, lambda: out.append(sim.now))
        sim.run()
        return out

    assert run() == run()
