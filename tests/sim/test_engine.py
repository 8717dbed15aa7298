"""Unit tests for the discrete-event engine."""

import inspect

import pytest

import repro.sim.engine as engine_module
from repro.sim import SimulationError, Simulator, WatchdogTimer


def compact_early(monkeypatch, minimum, ratio):
    """Lower the compaction trigger so a small test heap reaches it."""
    monkeypatch.setattr(engine_module, "COMPACT_MIN", minimum)
    monkeypatch.setattr(engine_module, "COMPACT_RATIO", ratio)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0  # clock advances to the horizon
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_schedule_in_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.pending() == 0


def test_events_scheduled_during_run_fire_in_order():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, fired.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(3.0, fired.append, "last")
    sim.run()
    assert fired == ["first", "nested", "last"]


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(2.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [(1, None)] or fired[0] is not None
    assert sim.pending() == 1


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is not None
    assert fired == ["a"]


def test_step_on_empty_queue_returns_none():
    assert Simulator().step() is None


def test_peek_time_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.peek_time() == 2.0


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_trace_records_filterable():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.record("cat.a", node=1, x=1))
    sim.schedule(2.0, lambda: sim.record("cat.b", node=2, x=2))
    sim.run()
    assert len(list(sim.trace_records("cat.a"))) == 1
    assert len(list(sim.trace_records(node=2))) == 1
    assert len(list(sim.trace_records())) == 2


def test_trace_capacity_drops_oldest():
    sim = Simulator(trace_capacity=2)
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: sim.record("c", idx=i))
    sim.run()
    assert [r.detail["idx"] for r in sim.trace] == [3, 4]


def test_events_fired_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_fired == 5


# ----------------------------------------------------------------------
# Cancellation-aware scheduler
# ----------------------------------------------------------------------
def test_peek_time_does_not_sort_the_heap():
    # Regression guard for the original O(n log n) implementation:
    # peeking must lazily discard cancelled heads, never sort.
    source = inspect.getsource(engine_module.Simulator.peek_time)
    assert "sorted(" not in source
    assert "sorted(" not in inspect.getsource(engine_module.Simulator.pending)


def test_pending_counter_exact_under_cancel_churn():
    sim = Simulator(seed=5)
    rng = sim.rng.stream("test.churn")
    events = []
    expected = 0
    for i in range(400):
        if events and rng.random() < 0.45:
            event = events.pop(rng.randrange(len(events)))
            event.cancel()
            event.cancel()  # idempotent: must not double-count
            expected -= 1
        else:
            events.append(sim.schedule(rng.uniform(0.0, 10.0), lambda: None))
            expected += 1
        assert sim.pending() == expected
    fired = []
    sim.schedule(11.0, fired.append, "end")
    sim.run()
    assert fired == ["end"]
    assert sim.pending() == 0
    assert sim.cancelled_pending() == 0


def test_peek_time_exact_under_cancel_churn():
    sim = Simulator(seed=6)
    rng = sim.rng.stream("test.churn")
    events = {}
    for i in range(300):
        events[i] = sim.schedule(rng.uniform(0.0, 10.0), lambda: None)
    for i in sorted(events):
        if rng.random() < 0.7:
            events[i].cancel()
            del events[i]
        expected = min((e.time for e in events.values()), default=None)
        assert sim.peek_time() == expected


def test_step_is_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.step()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1

    sim2 = Simulator()
    sim2.schedule(1.0, lambda: errors.append(None))

    def nested_step():
        try:
            sim2.step()
        except SimulationError as exc:
            errors.append(exc)

    sim2.schedule(0.5, nested_step)
    sim2.step()
    assert isinstance(errors[-1], SimulationError)


def test_step_clears_stale_stop_flag():
    # Aligns step() with run(): a stop() from a previous run must not
    # leak into later single-stepping.
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.stop())
    sim.schedule(2.0, fired.append, "later")
    sim.run()
    assert fired == []
    assert sim.step() is not None
    assert fired == ["later"]


def test_step_skips_cancelled_and_reports_none_when_drained():
    sim = Simulator()
    fired = []
    cancelled = sim.schedule(1.0, fired.append, "dead")
    sim.schedule(2.0, fired.append, "live")
    cancelled.cancel()
    event = sim.step()
    assert event is not None and fired == ["live"]
    assert sim.step() is None


def test_compaction_reclaims_garbage_and_keeps_order(monkeypatch):
    compact_early(monkeypatch, 8, 0.25)
    sim = Simulator(seed=1)
    fired = []
    doomed = [sim.schedule(5.0 + i * 0.01, fired.append, f"dead{i}")
              for i in range(40)]
    survivors = [sim.schedule(1.0 + i, fired.append, f"live{i}")
                 for i in range(3)]
    assert survivors
    for event in doomed:
        event.cancel()
    assert sim.compactions > 0
    # Residual garbage stays below the compaction trigger floor, and the
    # heap holds exactly live + residual-garbage entries.
    assert sim.cancelled_pending() < engine_module.COMPACT_MIN
    assert sim.pending() == 3
    assert sim.heap_size() == sim.pending() + sim.cancelled_pending()
    sim.run()
    assert fired == ["live0", "live1", "live2"]


def test_compaction_normalizes_rearmed_timer_entries(monkeypatch):
    # A deferred (in-place re-armed) watchdog entry must survive
    # compaction at its *true* deadline, not the stale heap key.
    compact_early(monkeypatch, 4, 0.1)
    sim = Simulator(seed=2)
    fired = []
    dog = WatchdogTimer(sim, timeout=1.0, callback=lambda: fired.append(
        sim.now), label="dog")
    dog.kick()
    sim.schedule(0.5, dog.kick)  # defer the pending entry in place
    sim.run(until=0.6)
    for i in range(20):  # force a compaction while the entry is deferred
        sim.schedule(2.0, lambda: None).cancel()
    assert sim.compactions > 0
    sim.run()
    assert fired == [1.5]


def test_engine_gauges_published_after_run(monkeypatch):
    compact_early(monkeypatch, 4, 0.1)
    sim = Simulator(seed=3)
    for i in range(10):
        sim.schedule(1.0, lambda: None).cancel()
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.metrics.gauge("repro_sim_heap_size",
                             "").value() == 0.0
    assert sim.metrics.gauge("repro_sim_cancelled_pending",
                             "").value() == 0.0
    assert sim.metrics.counter("repro_sim_compactions_total",
                               "").value() == float(sim.compactions)
    assert sim.compactions > 0


def test_engine_gauges_published_after_step():
    sim = Simulator(seed=3)
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.step()
    assert sim.heap_size() == 2
    assert sim.metrics.gauge("repro_sim_heap_size", "").value() == 2.0
    assert sim.metrics.gauge("repro_sim_cancelled_pending",
                             "").value() == 0.0


def test_heap_size_and_cancelled_pending_track_garbage():
    sim = Simulator()
    live = sim.schedule(1.0, lambda: None)
    dead = sim.schedule(2.0, lambda: None)
    dead.cancel()
    assert sim.heap_size() == 2
    assert sim.pending() == 1
    assert sim.cancelled_pending() == 1
    assert live.active
