"""The discrete-event simulation engine.

A single :class:`Simulator` owns the virtual clock, the event heap, the
per-subsystem random streams and the trace log.  Everything in the
reproduction — radios, motes, protocol timers, moving targets — schedules
work through this object, which makes whole-system runs deterministic for a
given seed.

Scheduler
---------
The engine is *cancellation-aware*: EnviroTrack's group management is
timer-dominated (every heartbeat kicks receive/wait watchdogs), so at
scale most heap entries are lazily-cancelled garbage.  The scheduler
stays fast under that churn:

* a live-event counter makes :meth:`pending` O(1);
* :meth:`peek_time` lazily discards cancelled heap heads instead of
  scanning (let alone sorting) the heap;
* the heap is compacted when cancelled entries exceed
  :data:`COMPACT_RATIO` of it;
* :class:`TimerHandle` re-arms watchdog/periodic timers by mutating one
  heap entry's deadline instead of cancel-and-reschedule, yet fires
  them exactly when cancel-and-reschedule would (see ``docs/ENGINE.md``).

Telemetry
---------
Every simulator owns a metrics registry (``.metrics``) and a causal span
tracker (``.spans``); there is no off switch.  Each scheduled event
captures the current span and the dispatcher restores it around the
callback.  Neither touches the RNG streams or the trace.

Example
-------
>>> sim = Simulator(seed=7)
>>> fired = []
>>> _ = sim.schedule(2.0, fired.append, 'b')
>>> _ = sim.schedule(1.0, fired.append, 'a')
>>> sim.run(until=10.0)
>>> fired
['a', 'b']
"""

from __future__ import annotations

import heapq
import time as _time
from collections import deque
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Tuple)

from ..telemetry.profiler import EventLoopProfiler
from ..telemetry.registry import MetricsRegistry
from ..telemetry.spans import SpanTracker
from .events import Event, EventSequencer, TraceRecord
from .rng import RandomStreams

#: Compact once cancelled entries exceed this fraction of the heap…
COMPACT_RATIO = 0.5
#: …but never bother below this many cancelled entries.
COMPACT_MIN = 64


def _catch_up(event: Event, handle: TimerHandle) -> Tuple[float, int, Event]:
    """Move a re-armed timer's entry to its handle's true key.

    Every re-arm draws a fresh ``seq``, so an entry whose ``seq`` equals
    its handle's is current; any other live entry lags behind.
    """
    event.time = handle.deadline
    event.seq = handle.seq
    event.span = handle.span
    return (event.time, event.seq, event)


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class TimerHandle:
    """One re-armable timer slot owned by :class:`TimerService`.

    A handle owns **at most one** heap entry at a time (``event``).  Its
    authoritative firing point is ``(deadline, seq)``; the heap entry's
    ``(time, seq)`` may lag behind after in-place re-arms.  The engine
    reconciles on pop: an entry that is no longer ``handle.event`` is
    stale garbage; an entry whose ``seq`` trails the handle's is
    re-pushed at the true deadline; a matching entry fires.

    Every re-arm consumes one sequence number — exactly like the
    cancel-and-reschedule it replaces — so tie-breaking, and therefore
    the whole trace, is what cancel-and-reschedule would produce.
    """

    __slots__ = ("callback", "label", "deadline", "seq", "span", "event")

    def __init__(self, callback: Callable[[], Any], label: str) -> None:
        self.callback = callback
        self.label = label
        self.deadline = 0.0
        self.seq = -1
        self.span: Optional[int] = None
        self.event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self.event is not None


class TimerService:
    """Arms, re-arms and cancels :class:`TimerHandle` slots.

    A re-arm of an already-armed handle whose heap entry pops no later
    than the new deadline is three attribute writes and a sequence-number
    bump — no allocation, no heap operation.
    """

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim

    def create(self, callback: Callable[[], Any],
               label: str = "timer") -> TimerHandle:
        """Allocate an unarmed handle for ``callback``."""
        return TimerHandle(callback, label)

    def arm(self, handle: TimerHandle, delay: float) -> None:
        """(Re)arm ``handle`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(
                f"cannot arm timer {delay!r}s from now "
                f"(now={self._sim._now})")
        self.arm_at(handle, self._sim._now + delay)

    def arm_at(self, handle: TimerHandle, deadline: float) -> None:
        """(Re)arm ``handle`` to fire at absolute sim time ``deadline``.

        For callers that computed the deadline themselves: in floats,
        ``now + (deadline - now)`` need not equal ``deadline``.
        """
        sim = self._sim
        if not deadline >= sim._now:  # also rejects NaN
            raise SimulationError(
                f"cannot arm timer at {deadline!r}: now={sim._now}")
        handle.deadline = deadline
        handle.seq = sim._seq.next()
        handle.span = sim.spans.current
        entry = handle.event
        if entry is not None and entry.time <= deadline:
            # Fast path: the pending entry pops no later than the new
            # deadline, so it can catch up lazily at pop time.
            return
        if entry is not None:
            # Shortened deadline: the entry sits too late in the heap to
            # ever catch up — abandon it and push a fresh one.
            handle.event = None
            sim._note_cancelled()
        seq = handle.seq
        event = Event(deadline, seq, handle.callback, label=handle.label,
                      span=handle.span, handle=handle)
        handle.event = event
        heapq.heappush(sim._heap, (deadline, seq, event))
        sim._live += 1

    def cancel(self, handle: TimerHandle) -> None:
        """Disarm ``handle``; its heap entry becomes lazy garbage."""
        entry = handle.event
        if entry is None:
            return
        handle.event = None
        self._sim._note_cancelled()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  Each named random stream derives deterministically
        from it (see :class:`repro.sim.rng.RandomStreams`).
    trace_capacity:
        Maximum number of retained trace records (oldest dropped first);
        ``None`` retains everything.

    Every simulator owns a
    :class:`~repro.telemetry.registry.MetricsRegistry` (``.metrics``) and
    a :class:`~repro.telemetry.spans.SpanTracker` (``.spans``).  Both are
    pure side-state: they never touch the event order, the RNG streams or
    the trace, so they do not affect ``trace_digest``.

    The heap holds ``(time, seq, event)`` tuples.  ``seq`` is unique per
    entry, so heap compares run in C and never reach the event.  The heap
    is rebuilt without garbage once cancelled entries exceed
    :data:`COMPACT_RATIO` of it *and* number at least :data:`COMPACT_MIN`.
    """

    def __init__(self, seed: int = 0,
                 trace_capacity: Optional[int] = None) -> None:
        self.seed = seed
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = EventSequencer()
        self._running = False
        self._stopped = False
        #: Scheduled, non-cancelled events (kept exact on every push,
        #: pop, cancel and re-arm, so ``pending()`` is O(1)).
        self._live = 0
        #: Cancelled/stale entries still sitting in the heap.
        self._cancelled = 0
        self.compactions = 0
        self.rng = RandomStreams(seed)
        self.trace_capacity = trace_capacity
        self.trace: Deque[TraceRecord] = deque(maxlen=trace_capacity)
        self._events_fired = 0
        #: Of those, the ones charged by a quiet run, not dispatched.
        self._events_implicit = 0
        self.metrics = MetricsRegistry()
        self.spans = SpanTracker(clock=lambda: self._now)
        self._trace_counter = self.metrics.counter(
            "repro_trace_records_total",
            "Trace records written, by category.", ("category",))
        self._heap_gauge = self.metrics.gauge(
            "repro_sim_heap_size",
            "Event-heap entries, including lazily-cancelled garbage.")
        self._cancelled_gauge = self.metrics.gauge(
            "repro_sim_cancelled_pending",
            "Cancelled/stale entries awaiting lazy discard or compaction.")
        self._compactions_counter = self.metrics.counter(
            "repro_sim_compactions_total",
            "Heap compactions (garbage-triggered rebuilds).")
        self.timers = TimerService(self)
        self._profiler: Optional[EventLoopProfiler] = None
        #: Objects that charge fired events lazily (a quiet sense-poll
        #: run, see :class:`repro.node.cpu.QuietPollTimer`): each has a
        #: ``settle()`` that adds the events at or before ``now`` to
        #: ``_events_fired``.  A dict, so iteration order is insertion
        #: order.
        self._quiet_runs: Dict[Any, None] = {}

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Events fired so far: every dispatched event, plus the timer and
        CPU-service events of quiet sense polls, which are charged
        without being dispatched (``docs/ENGINE.md`` §7).  Exact at any
        read, mid-run or after ``run(until=)``."""
        for run in self._quiet_runs:
            run.settle()
        return self._events_fired

    def end_quiet_runs(self) -> None:
        """Turn every quiet sense-poll run back into real events; called
        when the sensed environment changes."""
        for run in list(self._quiet_runs):
            run.fall_back()

    @property
    def events_dispatched(self) -> int:
        """Events actually popped and dispatched: :attr:`events_fired`
        without the ones quiet sense-poll runs charged."""
        return self._events_fired - self._events_implicit

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    @property
    def profiler(self) -> Optional[EventLoopProfiler]:
        """The attached event-loop profiler, or None."""
        return self._profiler

    def enable_profiler(self) -> EventLoopProfiler:
        """Attach (or return the already attached) event-loop profiler.

        Profiling measures host wall time only; it never touches
        simulated time, RNG or the trace.
        """
        if self._profiler is None:
            self._profiler = EventLoopProfiler()
        return self._profiler

    def disable_profiler(self) -> None:
        """Detach the profiler (its accumulated data is discarded)."""
        self._profiler = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, label: str = "") -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        Returns the :class:`Event`, which may be cancelled.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule {delay!r}s from now (now={self._now})")
        return self.schedule_at(self._now + delay, callback, *args,
                                label=label)

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any, label: str = "") -> Event:
        """Schedule ``callback(*args)`` at absolute sim time ``when``."""
        if not when >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {when!r}: now={self._now}")
        seq = self._seq.next()
        event = Event(when, seq, callback, args, label, self.spans.current,
                      self)
        heapq.heappush(self._heap, (when, seq, event))
        self._live += 1
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any,
                  label: str = "") -> Event:
        """Schedule ``callback(*args)`` at the current time (after pending
        events at this time that were scheduled earlier)."""
        return self.schedule(0.0, callback, *args, label=label)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping & compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """One live heap entry just became garbage (cancel or stale re-arm)."""
        self._live -= 1
        self._cancelled += 1
        if (self._cancelled >= COMPACT_MIN
                and self._cancelled > COMPACT_RATIO * len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without garbage entries.

        Trace-neutral: the surviving entries' ``(time, seq)`` keys are
        unchanged (deferred timer entries are normalized to their true
        deadline, where they would have ended up anyway), so pop order —
        and therefore the trace — is identical with or without
        compaction.
        """
        live: List[Tuple[float, int, Event]] = []
        for entry in self._heap:
            event = entry[2]
            handle = event.handle
            if handle is not None:
                if event is handle.event:
                    if entry[1] != handle.seq:
                        entry = _catch_up(event, handle)
                    live.append(entry)
            elif not event.cancelled:
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self._cancelled = 0
        self.compactions += 1
        self._compactions_counter.inc()
        self._publish_engine_metrics()

    def _publish_engine_metrics(self) -> None:
        """Refresh the heap gauges (on compaction and run/step exit)."""
        self._heap_gauge.set(len(self._heap))
        self._cancelled_gauge.set(self._cancelled)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop_next(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the next fireable event, reconciling lazy heap entries.

        Discards cancelled/stale heads, re-pushes timer entries whose
        handle's deadline moved later, and returns None at quiescence or
        when the next firing lies strictly after ``until``.
        """
        heap = self._heap
        while heap:
            when, seq, event = heap[0]
            if until is not None and when > until:
                # A deferred timer entry's stale time only *understates*
                # its true deadline, so crossing the horizon here is
                # definitive for every entry kind.
                return None
            heapq.heappop(heap)
            handle = event.handle
            if handle is not None:
                if event is not handle.event:
                    self._cancelled -= 1  # stale slot: lazily discarded
                    continue
                if seq != handle.seq:
                    # Re-armed in place: catch up to the true deadline.
                    heapq.heappush(heap, _catch_up(event, handle))
                    continue
                handle.event = None  # fires now; callback may re-arm
            elif event.cancelled:
                self._cancelled -= 1
                continue
            else:
                event.owner = None
            self._live -= 1
            return event
        return None

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Dispatch events until the horizon, the event budget, or quiescence.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            the clock is advanced to ``until``.  ``None`` runs to quiescence.
        max_events:
            Safety valve for runaway schedules.  It counts dispatched
            events only; the implicit events of quiet sense polls that
            :attr:`events_fired` includes do not use up the budget.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                event = self._pop_next(until)
                if event is None:
                    break
                self._now = event.time
                self._dispatch(event)
                self._events_fired += 1
                fired += 1
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
            self._publish_engine_metrics()

    def step(self) -> Optional[Event]:
        """Dispatch exactly one (non-cancelled) event; return it or None.

        Shares :meth:`run`'s semantics: calling it from inside an event
        handler raises :class:`SimulationError` instead of corrupting the
        in-progress dispatch, and it clears a pending :meth:`stop` flag
        the way a fresh ``run()`` would.
        """
        if self._running:
            raise SimulationError("step() is not reentrant")
        self._running = True
        self._stopped = False
        try:
            event = self._pop_next()
            if event is None:
                return None
            self._now = event.time
            self._dispatch(event)
            self._events_fired += 1
            return event
        finally:
            self._running = False
            self._publish_engine_metrics()

    def _dispatch(self, event: Event) -> None:
        """Fire one event inside its causal span, optionally profiled."""
        spans = self.spans
        profiler = self._profiler
        previous = spans.current
        spans.current = event.span
        if profiler is None:
            try:
                event.callback(*event.args)
            finally:
                spans.current = previous
            return
        started = _time.perf_counter()
        try:
            event.callback(*event.args)
        finally:
            profiler.note(event.label, _time.perf_counter() - started)
            spans.current = previous

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of scheduled, non-cancelled events — O(1)."""
        return self._live

    def cancelled_pending(self) -> int:
        """Cancelled/stale entries still occupying the heap — O(1)."""
        return self._cancelled

    def heap_size(self) -> int:
        """Total heap entries, garbage included — O(1)."""
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None when quiescent.

        Lazily discards cancelled heads and normalizes re-armed timer
        entries while peeking, so repeated peeks under cancellation
        churn amortize to O(log n) instead of the O(n log n) a
        sort-based scan would cost.
        """
        heap = self._heap
        while heap:
            when, seq, event = heap[0]
            handle = event.handle
            if handle is not None:
                if event is not handle.event:
                    heapq.heappop(heap)
                    self._cancelled -= 1
                    continue
                if seq != handle.seq:
                    heapq.heapreplace(heap, _catch_up(event, handle))
                    continue
            elif event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return when
        return None

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def record(self, category: str, node: Optional[int] = None,
               **detail: Any) -> None:
        """Append a structured record to the trace log.

        The trace is a bounded deque when ``trace_capacity`` is set, so
        eviction of the oldest record is O(1) rather than the O(n) a
        list-head delete would cost.
        """
        self.trace.append(TraceRecord(time=self._now, category=category,
                                      node=node, detail=detail))
        self._trace_counter.inc(1.0, category)

    def trace_records(self, category: Optional[str] = None,
                      node: Optional[int] = None) -> Iterable[TraceRecord]:
        """Iterate trace records matching the filters."""
        return (r for r in self.trace if r.matches(category, node))
