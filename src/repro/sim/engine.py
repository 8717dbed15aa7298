"""The discrete-event simulation engine.

A single :class:`Simulator` owns the virtual clock, the event heap, the
per-subsystem random streams and the trace log.  Everything in the
reproduction — radios, motes, protocol timers, moving targets — schedules
work through this object, which makes whole-system runs deterministic for a
given seed.

Scheduler
---------
An event is its heap entry, the tuple
``(time, seq, callback, args, label, span, handle)``; no other object is
made per event.  A plain event (``handle`` None) is fire-only, the way a
posted task runs to completion on a mote.  Events scheduled through
:meth:`Simulator.schedule_batched` (a mote's CPU services) share one
entry while they hold the same time and consecutive ``seq`` numbers, so
a broadcast's idle receivers cost one heap entry, not one each.
Everything that may be withdrawn is a :class:`TimerHandle`, armed and
cancelled through :attr:`Simulator.timers`.  EnviroTrack's group
management is timer-dominated (every heartbeat kicks receive/wait
watchdogs), and the scheduler stays fast under that churn:

* a live-event counter makes :meth:`pending` O(1);
* a cancelled handle's entry is lazy garbage, which :meth:`peek_time`
  discards at the heap head instead of scanning (let alone sorting) the
  heap;
* the heap is compacted when garbage entries exceed
  :data:`COMPACT_RATIO` of it;
* :class:`TimerHandle` re-arms watchdog/periodic timers by moving one
  heap entry's deadline instead of cancel-and-reschedule, yet fires
  them exactly when cancel-and-reschedule would (see ``docs/ENGINE.md``).

Telemetry
---------
Every simulator owns a metrics registry (``.metrics``) and a causal span
tracker (``.spans``); there is no off switch.  Each heap entry carries
the span current when it was scheduled, and that span is current while
the entry's callback runs; :meth:`Simulator.run` restores the caller's
span once, when it returns.  Neither touches the RNG streams or the
trace.  The engine's own families are views: records by category are
counted from the trace, the heap gauges read the heap, and compactions
read :attr:`compactions`.

Example
-------
>>> sim = Simulator(seed=7)
>>> fired = []
>>> sim.schedule(2.0, fired.append, 'b')
>>> sim.schedule(1.0, fired.append, 'a')
>>> sim.run(until=10.0)
>>> fired
['a', 'b']
"""

from __future__ import annotations

import collections
import itertools
import math
import time as _time
from collections import deque
from heapq import heapify, heappop, heappush, heapreplace
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Tuple)

from ..telemetry.profiler import EventLoopProfiler
from ..telemetry.registry import (Counter, Gauge, MetricsRegistry,
                                  RecordFamily, merged, summed)
from ..telemetry.spans import SpanTracker
from .events import TraceRecord
from .rng import RandomStreams

#: A heap entry: ``(time, seq, callback, args, label, span, handle)``.
#: ``seq`` is unique, so heap compares stop at it; ``handle`` is the
#: owning :class:`TimerHandle`, or None for a fire-only plain event.  A
#: batch entry's label is None: its members carry their own.
Entry = Tuple[float, int, Callable[..., Any], tuple, Optional[str],
              Optional[int], Optional["TimerHandle"]]

#: A member of a batch entry: ``(callback, arg, label, span)``, fired as
#: ``callback(arg)`` under ``span``.
Member = Tuple[Callable[[Any], Any], Any, str, Optional[int]]

#: Compact once garbage entries exceed this fraction of the heap…
COMPACT_RATIO = 0.5
#: …but never bother below this many garbage entries.
COMPACT_MIN = 64


#: The engine's families tallied by trace records.
TRACE_FAMILIES: Tuple[RecordFamily, ...] = (
    (Counter, "repro_trace_records_total",
     "Trace records written, by category.", ("category",),
     merged(lambda records: collections.Counter(
         record.category for record in records))),
)


def _handle_entry(handle: TimerHandle) -> Entry:
    """Make ``handle``'s heap entry at its true key and make it current.

    Every re-arm draws a fresh ``seq``, so an entry whose ``seq`` equals
    its handle's is up to date; a current entry with an older ``seq``
    lags behind and catches up through this.
    """
    entry = (handle.deadline, handle.seq, handle.callback, (), handle.label,
             handle.span, handle)
    handle.entry = entry
    return entry


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class TimerHandle:
    """One re-armable, cancellable timer slot owned by :class:`TimerService`.

    A handle owns **at most one** heap entry at a time (``entry``).  Its
    authoritative firing point is ``(deadline, seq)``; the heap entry's
    ``(time, seq)`` may lag behind after in-place re-arms.  The engine
    reconciles on pop: an entry that is no longer ``handle.entry`` is
    garbage; an entry whose ``seq`` trails the handle's is re-pushed at
    the true deadline; a matching entry fires.

    Every re-arm consumes one sequence number — exactly like the
    cancel-and-reschedule it replaces — so tie-breaking, and therefore
    the whole trace, is what cancel-and-reschedule would produce.
    """

    __slots__ = ("callback", "label", "deadline", "seq", "span", "entry")

    def __init__(self, callback: Callable[[], Any], label: str) -> None:
        self.callback = callback
        self.label = label
        self.deadline = 0.0
        self.seq = -1
        self.span: Optional[int] = None
        self.entry: Optional[Entry] = None

    @property
    def armed(self) -> bool:
        return self.entry is not None


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
        handle.seq = sim._seq()
        handle.span = sim.spans.current
        entry = handle.entry
        if entry is not None:
            if entry[0] <= deadline:
                # Fast path: the pending entry pops no later than the new
                # deadline, so it can catch up lazily at pop time.
                return
            # Shortened deadline: the entry sits too late in the heap to
            # ever catch up — abandon it and push a fresh one.
            handle.entry = None
            sim._note_cancelled()
        heappush(sim._heap, _handle_entry(handle))
        sim._live += 1

    def cancel(self, handle: TimerHandle) -> None:
        """Disarm ``handle``; its heap entry becomes lazy garbage."""
        if handle.entry is None:
            return
        handle.entry = None
        self._sim._note_cancelled()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  Each named random stream derives deterministically
        from it (see :class:`repro.sim.rng.RandomStreams`).

    The trace (``.trace``) retains every record of the run.

    Every simulator owns a
    :class:`~repro.telemetry.registry.MetricsRegistry` (``.metrics``) and
    a :class:`~repro.telemetry.spans.SpanTracker` (``.spans``).  Both are
    pure side-state: they never touch the event order, the RNG streams or
    the trace, so they do not affect ``trace_digest``.

    The heap holds :data:`Entry` tuples.  ``seq`` is unique per entry, so
    heap compares run in C and never reach the callback.  The heap is
    rebuilt without garbage once garbage entries exceed
    :data:`COMPACT_RATIO` of it *and* number at least :data:`COMPACT_MIN`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._now = 0.0
        self._heap: List[Entry] = []
        #: Draws the tie-breaking ``seq`` of every entry: 0, 1, 2, …
        self._seq: Callable[[], int] = itertools.count().__next__
        self._running = False
        self._stopped = False
        #: Events that will fire (kept exact on every push, pop, cancel
        #: and re-arm, so ``pending()`` is O(1)).
        self._live = 0
        #: Garbage entries (cancelled or superseded timers) still in the
        #: heap.
        self._cancelled = 0
        self.compactions = 0
        self.rng = RandomStreams(seed)
        #: A deque grows in fixed blocks and never copies what it holds.
        self.trace: Deque[TraceRecord] = deque()
        #: Events dispatched: a batch entry counts each member it served.
        self._dispatched = 0
        #: Of those, the batch members served after their entry's first.
        self._joined = 0
        #: Events charged by a quiet run, not dispatched.
        self._events_implicit = 0
        #: ``_dispatched`` at which the current ``run`` stops.
        self._limit = math.inf
        #: The members list of the batch entry that the next
        #: :meth:`schedule_batched` may join, the time it fires at and
        #: the ``seq`` the joining member must draw.
        self._batch: Optional[List[Member]] = None
        self._batch_time = 0.0
        self._batch_next = -1
        #: Sense polls whose CPU service a quiet run charged.
        self._polls_implicit = 0
        self.metrics = MetricsRegistry()
        self.spans = SpanTracker()
        metrics = self.metrics
        metrics.record_views(TRACE_FAMILIES, self.trace)
        metrics.view(Gauge, "repro_sim_heap_size",
                     "Event-heap entries, including lazily-cancelled "
                     "garbage.", (),
                     summed(Simulator.heap_size), self)
        metrics.view(Gauge, "repro_sim_cancelled_pending",
                     "Cancelled/stale entries awaiting lazy discard or "
                     "compaction.", (),
                     summed(Simulator.cancelled_pending), self)
        metrics.view(Counter, "repro_sim_compactions_total",
                     "Heap compactions (garbage-triggered rebuilds).", (),
                     summed(lambda sim: sim.compactions), self)
        self.timers = TimerService(self)
        self._profiler: Optional[EventLoopProfiler] = None
        #: Objects that charge fired events lazily (a quiet sense-poll
        #: run, see :class:`repro.node.cpu.QuietPollTimer`): each has a
        #: ``settle()`` that adds the events at or before ``now`` to
        #: ``_events_implicit``.  A dict, so iteration order is insertion
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
        return self._dispatched + self._events_implicit

    def end_quiet_runs(self) -> None:
        """Turn every quiet sense-poll run back into real events; called
        when the sensed environment changes."""
        for run in list(self._quiet_runs):
            run.fall_back()

    @property
    def implicit_polls(self) -> int:
        """Sense polls whose CPU service a quiet run charged without
        events (``docs/ENGINE.md`` §7); exact at any read."""
        for run in self._quiet_runs:
            run.settle()
        return self._polls_implicit

    @property
    def events_dispatched(self) -> int:
        """Events actually dispatched (each member of a batch entry
        counts): :attr:`events_fired` without the ones quiet sense-poll
        runs charged."""
        return self._dispatched

    @property
    def entries_dispatched(self) -> int:
        """Heap entries dispatched: :attr:`events_dispatched` without the
        batch members served after their entry's first."""
        return self._dispatched - self._joined

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
                 *args: Any, label: str = "") -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        The event is fire-only; a wait that may be withdrawn is a
        :class:`TimerHandle` (:attr:`timers`).
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule {delay!r}s from now (now={self._now})")
        self.schedule_at(self._now + delay, callback, *args, label=label)

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any, label: str = "") -> None:
        """Schedule ``callback(*args)`` at absolute sim time ``when``."""
        if not when >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {when!r}: now={self._now}")
        heappush(self._heap, (when, self._seq(), callback, args, label,
                              self.spans.current, None))
        self._live += 1

    def schedule_batched(self, when: float, callback: Callable[[Any], Any],
                         arg: Any, label: str, span: Optional[int]) -> None:
        """Schedule ``callback(arg)`` at ``when``, run under ``span``.

        The event joins the previous batched event's heap entry when it
        fires at the same time and its ``seq`` directly follows that
        event's, with no other draw in between: then nothing can sort
        between them, so the entry serves its members in order exactly
        as separate entries would fire.  A popped entry takes no more
        members.  Every member counts as an event of its own
        (``docs/ENGINE.md`` §1, §6).
        """
        seq = self._seq()
        members = self._batch
        if (members is not None and seq == self._batch_next
                and when == self._batch_time):
            members.append((callback, arg, label, span))
        else:
            if not when >= self._now:  # also rejects NaN
                raise SimulationError(
                    f"cannot schedule at {when!r}: now={self._now}")
            members = self._batch = [(callback, arg, label, span)]
            self._batch_time = when
            heappush(self._heap, (when, seq, self._serve_batch,
                                  (members, seq), None, None, None))
        self._batch_next = seq + 1
        self._live += 1

    # ------------------------------------------------------------------
    # Garbage bookkeeping & compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """One live heap entry just became garbage (a cancelled timer, or
        one re-armed to an earlier deadline)."""
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
        heap = self._heap
        live: List[Entry] = []
        for entry in heap:
            _, seq, _, _, _, _, handle = entry
            if handle is None:
                live.append(entry)
            elif entry is handle.entry:
                live.append(entry if seq == handle.seq
                            else _handle_entry(handle))
        # In place: a running loop holds the list.
        heap[:] = live
        heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
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
            events only (each member of a batch entry); the implicit
            events of quiet sense polls that :attr:`events_fired`
            includes do not use up the budget.  A run that stops on it
            leaves the clock at the last event it dispatched while
            events up to ``until`` are still pending.

        Each callback runs with its entry's span current.  ``run`` is
        not reentrant, so it restores the caller's span once, however it
        returns, rather than around every event.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        spans = self.spans
        caller_span = spans.current
        horizon = math.inf if until is None else until
        limit = self._limit = (math.inf if max_events is None
                               else self._dispatched + max_events)
        try:
            while heap and not self._stopped and self._dispatched < limit:
                entry = heap[0]
                when, seq, callback, args, _, span, handle = entry
                if when > horizon:
                    # A deferred timer entry's stale time only
                    # *understates* its true deadline, so crossing the
                    # horizon here is definitive for every entry kind.
                    break
                heappop(heap)
                if handle is not None:
                    if entry is not handle.entry:
                        self._cancelled -= 1  # garbage: lazily discarded
                        continue
                    if seq != handle.seq:
                        # Re-armed in place: catch up to the true deadline.
                        heappush(heap, _handle_entry(handle))
                        continue
                    handle.entry = None  # fires now; callback may re-arm
                self._live -= 1
                self._now = when
                if self._profiler is None:
                    spans.current = span
                    callback(*args)
                else:
                    self._dispatch(entry)
                self._dispatched += 1
            if until is not None and not self._stopped and self._now < until:
                # Unless the budget ended the run with events up to
                # ``until`` still pending, the horizon or quiescence did.
                if self._dispatched >= limit:
                    next_time = self.peek_time()
                    if next_time is not None and next_time <= until:
                        return
                self._now = until
        finally:
            spans.current = caller_span
            self._running = False

    def _dispatch(self, entry: Entry) -> None:
        """Fire one entry of a profiled run inside its causal span, timed
        under its label.  A batch entry (label None) times each member
        itself."""
        _, _, callback, args, label, span, _ = entry
        profiler = self._profiler
        self.spans.current = span
        started = _time.perf_counter()
        try:
            callback(*args)
        finally:
            if label is not None:
                profiler.note(label, _time.perf_counter() - started)

    def _serve_batch(self, members: List[Member], seq: int) -> None:
        """Run a batch entry's members in order, each under its own span
        and, with a profiler attached, timed under its own label.

        The loop that popped the entry counts the last member served;
        this counts the ones before it.  After a :meth:`stop`, at the
        event budget or when a member raises, the members not yet served
        go back on the heap as one entry at the next member's own
        ``(time, seq)``.
        """
        if members is self._batch:
            self._batch = None  # popped: it takes no more members
        spans = self.spans
        profiler = self._profiler
        if profiler is None and len(members) == 1:
            # A lone event: nothing to count, stop or put back.
            callback, arg, _, spans.current = members[0]
            callback(arg)
            return
        # Members the budget allows: nothing else dispatches meanwhile.
        allowed = self._limit - self._dispatched
        served = 0
        try:
            for callback, arg, label, span in members:
                if served:
                    if self._stopped or served >= allowed:
                        break
                    self._dispatched += 1
                    self._live -= 1
                served += 1
                spans.current = span
                if profiler is None:
                    callback(arg)
                else:
                    started = _time.perf_counter()
                    try:
                        callback(arg)
                    finally:
                        profiler.note(label, _time.perf_counter() - started)
        finally:
            self._joined += served - 1
            if served < len(members):
                seq += served
                heappush(self._heap, (self._now, seq, self._serve_batch,
                                      (members[served:], seq), None, None,
                                      None))

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event (one
        member of a batch entry) returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of events that will fire — O(1)."""
        return self._live

    def cancelled_pending(self) -> int:
        """Garbage entries still occupying the heap — O(1)."""
        return self._cancelled

    def heap_size(self) -> int:
        """Total heap entries, garbage included — O(1)."""
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Time of the next event that will fire, or None when quiescent.

        Lazily discards garbage heads and normalizes re-armed timer
        entries while peeking, so repeated peeks under cancellation
        churn amortize to O(log n) instead of the O(n log n) a
        sort-based scan would cost.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            when, seq, _, _, _, _, handle = entry
            if handle is not None:
                if entry is not handle.entry:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                if seq != handle.seq:
                    heapreplace(heap, _handle_entry(handle))
                    continue
            return when
        return None

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def record(self, category: str, node: Optional[int] = None,
               **detail: Any) -> None:
        """Append a structured record to the trace log."""
        self.trace.append(TraceRecord(time=self._now, category=category,
                                      node=node, detail=detail))

    def trace_records(self, category: Optional[str] = None,
                      node: Optional[int] = None) -> Iterable[TraceRecord]:
        """Iterate trace records matching the filters."""
        return (r for r in self.trace if r.matches(category, node))
