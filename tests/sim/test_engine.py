"""Unit tests for the discrete-event engine."""

import inspect

import pytest

import repro.sim.engine as engine_module
from repro.sim import SimulationError, Simulator, WatchdogTimer


def compact_early(monkeypatch, minimum, ratio):
    """Lower the compaction trigger so a small test heap reaches it."""
    monkeypatch.setattr(engine_module, "COMPACT_MIN", minimum)
    monkeypatch.setattr(engine_module, "COMPACT_RATIO", ratio)


def armed(sim, delay, callback=lambda: None):
    """A cancellable event: a timer handle armed ``delay`` from now."""
    handle = sim.timers.create(callback)
    sim.timers.arm(handle, delay)
    return handle


def step(sim):
    """Single-step: dispatch one event with ``run(max_events=1)`` and
    return whether one was dispatched."""
    before = sim.events_dispatched
    sim.run(max_events=1)
    return sim.events_dispatched > before


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


def test_nan_time_rejected_and_inf_kept():
    # NaN fails every comparison, so a `delay < 0` guard let it in and it
    # then corrupted the heap order of the events around it.
    nan = float("nan")
    sim = Simulator()
    handle = sim.timers.create(lambda: None)
    for bad in (lambda: sim.schedule(nan, lambda: None),
                lambda: sim.schedule_at(nan, lambda: None),
                lambda: sim.timers.arm(handle, nan),
                lambda: sim.timers.arm_at(handle, nan)):
        with pytest.raises(SimulationError):
            bad()
    assert not handle.armed
    fired = []
    for delay in (3.0, 1.0, float("inf"), 2.0):
        sim.schedule(delay, fired.append, delay)
    sim.run()
    assert fired == [1.0, 2.0, 3.0, float("inf")]


def test_arm_at_fires_at_the_exact_deadline():
    # In floats 1.1 + (5.8 - 1.1) is 5.799999999999999: a caller that
    # summed a deadline itself needs arm_at, not arm.
    sim = Simulator()
    sim.schedule(1.1, lambda: None)
    sim.run()
    fired = []
    handle = sim.timers.create(lambda: fired.append(sim.now))
    sim.timers.arm_at(handle, 5.8)
    assert sim.now + (5.8 - sim.now) != 5.8
    with pytest.raises(SimulationError):
        sim.timers.arm_at(sim.timers.create(lambda: None), 1.0)
    sim.run()
    assert fired == [5.8]


def test_keyword_arguments_are_not_forwarded():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.schedule(1.0, lambda x: None, x=1)


def test_schedule_returns_nothing():
    # A plain event is fire-only: there is nothing to hold on to.
    sim = Simulator()
    assert sim.schedule(1.0, lambda: None) is None
    assert sim.schedule_at(2.0, lambda: None) is None
    assert sim.pending() == 2


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = armed(sim, 1.0, lambda: fired.append("x"))
    sim.timers.cancel(handle)
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


def test_max_events_stop_keeps_the_clock_at_the_last_event():
    """A run cut by its event budget, with events up to ``until`` still
    pending, must not move the clock to ``until``: the next run would
    then fire those events with time running backwards."""
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.schedule_at(t, lambda: seen.append(sim.now))
    sim.run(until=10.0, max_events=2)
    assert sim.now == 2.0 and sim.pending() == 2
    sim.run(until=10.0)
    assert seen == [1.0, 2.0, 3.0, 4.0]
    assert sim.now == 10.0


def test_max_events_stop_at_the_last_event_before_until_advances():
    """A budget that runs out exactly as the events before ``until`` do
    leaves the run at the horizon, as if the budget were larger."""
    sim = Simulator()
    for t in (1.0, 2.0, 12.0):
        sim.schedule_at(t, lambda: None)
    sim.run(until=10.0, max_events=2)
    assert sim.now == 10.0 and sim.pending() == 1


def batch(sim, when, count, log, label="rx.m"):
    """``count`` consecutive batched events at ``when``, logging
    ``(index, now)`` as each is served."""
    for index in range(count):
        sim.schedule_batched(when, lambda i: log.append((i, sim.now)),
                             index, label, None)


def test_consecutive_batched_events_share_one_entry():
    sim = Simulator()
    log = []
    batch(sim, 1.0, 4, log)
    assert sim.heap_size() == 1 and sim.pending() == 4
    sim.run()
    assert log == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]
    assert sim.events_fired == sim.events_dispatched == 4
    assert sim.pending() == 0


def test_a_foreign_seq_draw_starts_a_new_entry():
    sim = Simulator()
    log = []
    batch(sim, 1.0, 2, log)
    sim.schedule_at(1.0, log.append, "plain")
    batch(sim, 1.0, 2, log)
    assert sim.heap_size() == 3
    sim.run()
    assert log == [(0, 1.0), (1, 1.0), "plain", (0, 1.0), (1, 1.0)]


def test_stop_inside_a_batch_leaves_the_rest_pending():
    sim = Simulator()
    log = []
    for index in range(4):
        sim.schedule_batched(
            1.0, lambda i: (log.append(i), i == 1 and sim.stop()), index,
            "rx.m", None)
    sim.schedule_at(1.0, log.append, "after")
    sim.run()
    assert log == [0, 1] and sim.pending() == 3
    assert sim.events_fired == 2
    assert step(sim) is True
    assert log == [0, 1, 2] and sim.pending() == 2
    sim.run(max_events=1)
    assert log == [0, 1, 2, 3]
    sim.run()
    assert log == [0, 1, 2, 3, "after"]
    assert sim.events_fired == 5


def test_a_raising_member_leaves_the_rest_pending():
    sim = Simulator()
    log = []

    def serve(index):
        if index == 1:
            raise RuntimeError("boom")
        log.append(index)

    for index in range(3):
        sim.schedule_batched(1.0, serve, index, "rx.m", None)
    with pytest.raises(RuntimeError):
        sim.run()
    assert log == [0] and sim.pending() == 1
    sim.run()
    assert log == [0, 2]


def test_profiler_notes_each_batch_member_under_its_label():
    sim = Simulator()
    profiler = sim.enable_profiler()
    log = []
    batch(sim, 1.0, 3, log, label="rx.a")
    sim.schedule_batched(1.0, log.append, "b", "rx.b", None)
    sim.run()
    counts = {p.label: p.count for p in profiler.profiles()}
    assert counts == {"rx.a": 3, "rx.b": 1}


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert step(sim) is True
    assert fired == ["a"]
    # The clock stops at the event, not at a horizon.
    assert sim.now == 1.0 and sim.pending() == 1


def test_step_on_empty_queue_returns_none():
    # Nothing is dispatched at quiescence, and the clock stays put.
    sim = Simulator()
    assert step(sim) is False
    assert sim.now == 0.0 and sim.events_fired == 0


def test_step_serves_one_batch_member_and_puts_the_rest_back():
    sim = Simulator()
    log = []
    batch(sim, 1.0, 3, log)
    sim.schedule_at(1.0, log.append, "plain")
    ((_, first_seq, *_),) = [e for e in sim._heap if e[4] is None]
    assert step(sim) is True
    assert log == [(0, 1.0)]
    # The unserved members are one entry at the next member's own key,
    # so they still fire before the plain event scheduled after them.
    (rest,) = [e for e in sim._heap if e[4] is None]
    assert rest[:2] == (1.0, first_seq + 1)
    assert sim.pending() == 3 and sim.entries_dispatched == 1
    sim.run()
    assert log == [(0, 1.0), (1, 1.0), (2, 1.0), "plain"]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    handle = armed(sim, 1.0)
    sim.schedule(2.0, lambda: None)
    sim.timers.cancel(handle)
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
    handles = []
    expected = 0
    for i in range(400):
        if handles and rng.random() < 0.45:
            handle = handles.pop(rng.randrange(len(handles)))
            sim.timers.cancel(handle)
            sim.timers.cancel(handle)  # idempotent: must not double-count
            expected -= 1
        else:
            handles.append(armed(sim, rng.uniform(0.0, 10.0)))
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
    handles = {}
    for i in range(300):
        handles[i] = armed(sim, rng.uniform(0.0, 10.0))
    for i in sorted(handles):
        if rng.random() < 0.7:
            sim.timers.cancel(handles.pop(i))
        expected = min((handle.deadline for handle in handles.values()),
                       default=None)
        assert sim.peek_time() == expected


def test_step_is_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            step(sim)
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1

    sim2 = Simulator()
    sim2.schedule(1.0, lambda: errors.append(None))

    def nested_step():
        try:
            step(sim2)
        except SimulationError as exc:
            errors.append(exc)

    sim2.schedule(0.5, nested_step)
    step(sim2)
    assert isinstance(errors[-1], SimulationError)


def test_step_clears_stale_stop_flag():
    # A stop() from a previous run must not leak into later
    # single-stepping.
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.stop())
    sim.schedule(2.0, fired.append, "later")
    sim.run()
    assert fired == []
    assert step(sim) is True
    assert fired == ["later"]


def test_step_skips_cancelled_and_reports_none_when_drained():
    sim = Simulator()
    fired = []
    cancelled = armed(sim, 1.0, lambda: fired.append("dead"))
    sim.schedule(2.0, fired.append, "live")
    sim.timers.cancel(cancelled)
    assert step(sim) is True
    assert fired == ["live"]
    assert sim.cancelled_pending() == 0
    assert step(sim) is False


def test_compaction_reclaims_garbage_and_keeps_order(monkeypatch):
    compact_early(monkeypatch, 8, 0.25)
    sim = Simulator(seed=1)
    fired = []
    doomed = [armed(sim, 5.0 + i * 0.01,
                    lambda i=i: fired.append(f"dead{i}"))
              for i in range(40)]
    for i in range(3):
        sim.schedule(1.0 + i, fired.append, f"live{i}")
    for handle in doomed:
        sim.timers.cancel(handle)
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
        sim.timers.cancel(armed(sim, 2.0))
    assert sim.compactions > 0
    sim.run()
    assert fired == [1.5]


def test_engine_gauges_published_after_run(monkeypatch):
    compact_early(monkeypatch, 4, 0.1)
    sim = Simulator(seed=3)
    for i in range(10):
        sim.timers.cancel(armed(sim, 1.0))
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.metrics.get("repro_sim_heap_size").value() == 0.0
    assert sim.metrics.get("repro_sim_cancelled_pending").value() == 0.0
    assert sim.metrics.get("repro_sim_compactions_total").value() == \
        float(sim.compactions)
    assert sim.compactions > 0


def test_engine_gauges_published_after_step():
    sim = Simulator(seed=3)
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    step(sim)
    assert sim.heap_size() == 2
    assert sim.metrics.get("repro_sim_heap_size").value() == 2.0
    assert sim.metrics.get("repro_sim_cancelled_pending").value() == 0.0


def test_heap_size_and_cancelled_pending_track_garbage():
    sim = Simulator()
    live = armed(sim, 1.0)
    dead = armed(sim, 2.0)
    sim.timers.cancel(dead)
    assert sim.heap_size() == 2
    assert sim.pending() == 1
    assert sim.cancelled_pending() == 1
    assert live.armed and not dead.armed
