"""In-place timer re-arms must be trace-equivalent to cancel-and-reschedule.

Random programs of schedules, cancellations, watchdog kicks and periodic
stop/starts are run twice: once on the engine's :class:`TimerService`,
once on :class:`RescheduleTimers`, a reference model kept here that
cancels the pending event and schedules a fresh one on every arm.  Fire
order, trace digest and the events-fired count must match exactly.  A
separate property pins why the engine re-arms in place: the heap stays
bounded by the number of *live* timers under sustained watchdog churn,
instead of growing with the kick count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_module
from repro.sim import (OneShotTimer, PeriodicTimer, Simulator,
                       TimerService, WatchdogTimer, trace_digest)


class RescheduleTimers(TimerService):
    """Reference model: every arm is a cancel plus a plain ``schedule``."""

    def arm(self, handle, delay):
        self.cancel(handle)
        handle.event = self._sim.schedule(delay, self._fire, handle,
                                          label=handle.label)

    def cancel(self, handle):
        if handle.event is not None:
            handle.event.cancel()
            handle.event = None

    @staticmethod
    def _fire(handle):
        handle.event = None
        handle.callback()


@pytest.fixture
def early_compaction(monkeypatch):
    """Compact small heaps too, so compaction runs inside the programs."""
    monkeypatch.setattr(engine_module, "COMPACT_MIN", 4)
    monkeypatch.setattr(engine_module, "COMPACT_RATIO", 0.25)


def ticks(low, high):
    """Multiples of 1/16 s: exact in binary floating point, so deadlines
    often tie and the ``(time, seq)`` tie-break decides the fire order."""
    return st.integers(min_value=low, max_value=high).map(
        lambda k: k / 16.0)


# One program step: advance a little, then apply one action to one of the
# program's timers/events.  Both runs consume the identical step list.
steps = st.lists(
    st.tuples(
        ticks(1, 6),                                       # dt
        st.integers(min_value=0, max_value=5),             # action
        st.integers(min_value=0, max_value=7),             # target index
        ticks(1, 24),                                      # delay param
    ),
    min_size=1, max_size=40)

timeouts = st.lists(ticks(2, 16), min_size=3, max_size=3)


def _run_program(reference, program, dog_timeouts, seed):
    """Execute one generated program; return (fire log, digest, fired)."""
    sim = Simulator(seed=seed)
    if reference:
        sim.timers = RescheduleTimers(sim)
    log = []

    def note(kind, idx):
        log.append((kind, idx, sim.now))
        sim.record("fire", kind=kind, idx=idx)

    dogs = [WatchdogTimer(sim, timeout=timeout,
                          callback=lambda i=i: note("dog", i),
                          label=f"dog{i}")
            for i, timeout in enumerate(dog_timeouts)]
    ticker = PeriodicTimer(sim, 0.25, lambda: note("tick", 0),
                           label="tick")
    shot = OneShotTimer(sim, lambda: note("shot", 0), label="shot")
    plain = []

    def apply(step):
        _, action, idx, param = program[step]
        # Each step schedules the next, so step events draw sequence
        # numbers between timer arms, and records itself, so the digest
        # sees which of two simultaneous events ran first.
        if step + 1 < len(program):
            sim.schedule(program[step + 1][0], apply, step + 1,
                         label="step")
        sim.record("step", action=action, idx=idx)
        if action == 0:
            plain.append(sim.schedule(param, note, "plain", len(plain),
                                      label="plain"))
        elif action == 1 and plain:
            plain[idx % len(plain)].cancel()
        elif action == 2:
            dogs[idx % len(dogs)].kick()
        elif action == 3:
            dogs[idx % len(dogs)].cancel()
        elif action == 4:
            if ticker.running and idx % 2:
                ticker.stop()
            else:
                ticker.start()
        else:
            shot.start(param)

    sim.schedule(program[0][0], apply, 0, label="step")
    sim.run(until=sum(step[0] for step in program) + 3.0)
    return log, trace_digest(sim), sim.events_fired


@pytest.mark.usefixtures("early_compaction")
@given(steps, timeouts, st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=120, deadline=None)
def test_random_programs_fire_identically(program, dog_timeouts, seed):
    rearmed = _run_program(False, program, dog_timeouts, seed)
    rescheduled = _run_program(True, program, dog_timeouts, seed)
    assert rearmed == rescheduled


@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=0.01, max_value=0.1,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=25, deadline=None)
def test_heap_bounded_under_sustained_watchdog_churn(dog_count, period):
    """Kicking N watchdogs forever keeps the heap O(N), not O(kicks)."""
    sim = Simulator(seed=7)
    dogs = [WatchdogTimer(sim, timeout=5.0, callback=lambda: None,
                          label=f"dog{i}")
            for i in range(dog_count)]
    peak = [0]

    def kick_all():
        for dog in dogs:
            dog.kick()
        peak[0] = max(peak[0], sim.heap_size())

    PeriodicTimer(sim, period, kick_all, label="kicker").start()
    sim.run(until=20.0)
    kicks = 20.0 / period  # ≥ 200 kick rounds
    # One entry per watchdog + the kicker itself + a little slack; in
    # particular nowhere near one entry per kick.
    bound = dog_count + 2
    assert peak[0] <= bound
    assert sim.heap_size() <= bound
    assert kicks * dog_count > 10 * bound  # the bound actually bites


def test_compaction_bounds_plain_cancel_churn(monkeypatch):
    """Cancel-heavy plain-event load stays bounded via compaction."""
    monkeypatch.setattr(engine_module, "COMPACT_MIN", 32)
    sim = Simulator(seed=8)
    peak = [0]

    def churn(round_no):
        for _ in range(10):
            sim.schedule(1.0, lambda: None).cancel()
        peak[0] = max(peak[0], sim.heap_size())
        if round_no < 200:
            sim.schedule(0.01, churn, round_no + 1)

    sim.schedule(0.0, churn, 0)
    sim.run()
    assert sim.compactions > 0
    # 2000 cancelled schedules total, but the heap never held more than
    # a small multiple of the compaction floor.
    assert peak[0] <= 8 * 32
