"""Bounded-rate CPU model for a mote.

The paper's stress tests conclude that at very small heartbeat periods "the
bottleneck appears to lie in CPU processing", not bandwidth — the maximum
trackable speed *declines* once heartbeat processing saturates the motes
(Figure 5).  To reproduce that shape, every handler on a mote runs through
this CPU: a FIFO served one task at a time, each task occupying the
processor for its ``cost`` seconds.  When heartbeat floods arrive faster
than the service rate, the queue backs up, timer handlers (takeover,
relinquish) run late, and tracking breaks exactly as in the paper.

A sense poll that provably cannot change its reading while the CPU is
idle is charged to the CPU without events: see :class:`QuietPollTimer`.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Optional, Tuple

from ..sim import PeriodicTimer, Simulator

#: Default per-task service time (seconds).  A MICA mote's 4 MHz ATmega103
#: spends on the order of a millisecond of handler work per message.
DEFAULT_TASK_COST = 0.001

#: Default task queue capacity (TinyOS task queues were tiny).
DEFAULT_QUEUE_LIMIT = 64


#: A posted task: ``(fn, args, cost, label, posted_at, span, boot)``,
#: with the span current and the CPU's boot at the post.  A plain tuple,
#: so a post allocates nothing beyond it and the ``args`` tuple.
_Task = Tuple[Callable[..., Any], tuple, float, str, float, Optional[int],
              int]


class Cpu:
    """A single-server FIFO processor.

    Parameters
    ----------
    sim:
        Owning simulator.
    node_id:
        For trace records only.
    task_cost:
        Default service time per task, seconds.
    queue_limit:
        Maximum number of *waiting* tasks; overflow tasks are dropped and
        counted in :attr:`dropped`.

    A task runs only under the :attr:`boot` it was posted in, so a task
    that outlives a crash never runs, even after a reboot.
    """

    def __init__(self, sim: Simulator, node_id: int,
                 task_cost: float = DEFAULT_TASK_COST,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT) -> None:
        if not task_cost >= 0:
            raise ValueError(f"task cost must be >= 0: {task_cost}")
        if not queue_limit >= 1:  # also rejects NaN
            raise ValueError(f"queue limit must be >= 1: {queue_limit}")
        self.sim = sim
        self.node_id = node_id
        self.task_cost = task_cost
        self.queue_limit = queue_limit
        #: The mote's boot count while it is up; None while it is down.
        self.boot: Optional[int] = 0
        self._spans = sim.spans
        self._queue: Deque[_Task] = deque()
        self._busy = False
        self._executed = 0
        self.dropped = 0
        self._busy_time = 0.0
        self.max_backlog = 0
        self._total_latency = 0.0
        #: Completion time of the task in service.
        self._done_at = 0.0
        #: The quiet poll run charged to this CPU, if any (at most one).
        self._poller: Optional[QuietPollTimer] = None

    # ------------------------------------------------------------------
    # Counters: a quiet poll run is settled first, so they are exact at
    # any read.
    @property
    def executed(self) -> int:
        """Tasks run to completion."""
        self._settle()
        return self._executed

    @property
    def busy_time(self) -> float:
        """Seconds spent serving tasks."""
        self._settle()
        return self._busy_time

    @property
    def total_latency(self) -> float:
        """Summed post-to-completion delay of the executed tasks."""
        self._settle()
        return self._total_latency

    @property
    def backlog(self) -> int:
        """Waiting tasks (excluding the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a task is in service."""
        self._settle()
        return self._busy or (self._poller is not None
                              and self._poller._service is not None)

    def utilization(self) -> float:
        """Fraction of elapsed simulated time spent serving tasks."""
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def mean_latency(self) -> float:
        """Mean queueing+service delay per executed task."""
        executed = self.executed
        if executed == 0:
            return 0.0
        return self._total_latency / executed

    def _settle(self) -> None:
        if self._poller is not None:
            self._poller.settle()

    def fall_back(self) -> None:
        """Turn this CPU's quiet poll run, if any, back into real events.

        Called on every interaction with this mote that could make a
        skipped poll matter: a shutdown, a clock skew, a sensor install
        and a sensing node's role becoming IDLE (``docs/ENGINE.md`` §7).
        A post falls back only when it keeps the CPU busy into the run's
        next poll.
        """
        if self._poller is not None:
            self._poller.fall_back()

    # ------------------------------------------------------------------
    def post(self, fn: Callable[..., Any], *args: Any,
             cost: Optional[float] = None, label: str = "task") -> bool:
        """Enqueue ``fn(*args)``; returns False when the task was dropped.

        The task runs when the CPU reaches it, *after* its service time —
        so a backlogged CPU delays protocol reactions, which is the effect
        the Figure 5 stress test measures.  An idle CPU's service event
        is batched (:meth:`~repro.sim.Simulator.schedule_batched`), so
        the idle receivers of one frame share a heap entry.  (A
        periodic task's fire admits its poll to an idle CPU itself, as
        one plain entry: see :class:`PeriodicTask`.)
        """
        if cost is None:
            cost = self.task_cost
        elif not cost >= 0:  # also rejects NaN
            raise ValueError(f"task cost must be >= 0: {cost}")
        boot = self.boot
        if boot is None:
            return False
        sim = self.sim
        now = sim._now
        poller = self._poller
        # The quiet run has work only with a poll in service or due.
        if poller is not None and (poller._service is not None
                                   or poller._next <= now):
            poller.give_way()
        span = self._spans.current
        task = (fn, args, cost, label, now, span, boot)
        if self._busy:
            queue = self._queue
            if len(queue) >= self.queue_limit:
                self.dropped += 1
                sim.record("cpu.drop", node=self.node_id, label=label)
                return False
            queue.append(task)
            if len(queue) > self.max_backlog:
                self.max_backlog = len(queue)
            idle_at = self._idle_at()
        else:
            self._busy = True
            # The service event carries the task's own label
            # (``rx.<kind>``, ``timer.<label>`` …) for the profiler.
            idle_at = self._done_at = now + cost
            sim.schedule_batched(idle_at, self._finish, task, label, span)
        if poller is not None and idle_at >= poller._next:
            # Busy into the run's next poll: that poll must be real.
            poller.fall_back()
        return True

    def shutdown(self) -> None:
        """The mote crashed: drop the queue and abandon the task in
        service; nothing is accepted until :meth:`power_on`."""
        self.fall_back()
        self.boot = None
        self._queue.clear()
        self._busy = False

    def power_on(self, boot: int) -> None:
        """The mote rebooted into ``boot``: serve tasks again."""
        self.boot = boot

    # ------------------------------------------------------------------
    def _idle_at(self) -> float:
        """When the busy CPU goes idle if nothing more is posted."""
        idle_at = self._done_at
        for task in self._queue:
            idle_at = idle_at + task[2]
        return idle_at

    def _finish(self, task: _Task) -> None:
        """The service event of ``task``: every task, lone or a member
        of a batch entry, ends here."""
        sim = self.sim
        poller = self._poller
        if poller is not None and (poller._service is not None
                                   or poller._next <= sim._now):
            # Keep ``busy_time`` summed in time order.
            poller.settle()
        fn, args, cost, _, posted_at, _, boot = task
        self._busy_time += cost
        if boot != self.boot:
            return  # posted before a crash, which abandoned it
        self._executed += 1
        self._total_latency += sim._now - posted_at
        try:
            fn(*args)
        finally:
            queue = self._queue
            if queue:
                # The next task is served under the span it was posted
                # in, not under the one that just finished.
                task = queue.popleft()
                self._done_at = done = sim._now + task[2]
                sim.schedule_batched(done, self._finish, task, task[3],
                                     task[5])
            else:
                self._busy = False


class PeriodicTask(PeriodicTimer):
    """A periodic timer whose every fire posts ``callback`` to ``cpu`` as
    one task of ``cost`` seconds (None: the CPU's task cost at the post)
    labelled ``task_label``.

    A fire that finds the CPU up, idle and holding no quiet run admits
    the task itself, as one plain heap entry with the key, span and
    label :meth:`Cpu.post` would give it.  There, it could only start a
    batch of one: the fire's re-arm draws the ``seq`` just before it,
    so it can join no earlier entry (``docs/ENGINE.md`` §1).  Any other
    fire goes through :meth:`Cpu.post`.
    """

    __slots__ = ("_cpu", "_cost", "_task_label")

    def __init__(self, sim: Simulator, cpu: Cpu, period: float,
                 callback: Callable[[], Any], cost: Optional[float],
                 task_label: str, label: str = "periodic",
                 initial_delay: Optional[float] = None,
                 scale: float = 1.0) -> None:
        if cost is not None and not cost >= 0:  # also rejects NaN
            raise ValueError(f"task cost must be >= 0: {cost}")
        super().__init__(sim, period, callback, label=label,
                         initial_delay=initial_delay, scale=scale)
        self._cpu = cpu
        self._cost = cost
        self._task_label = task_label

    def _fire(self) -> None:
        self.fire_count += 1
        # Re-arm one period on before posting, as PeriodicTimer does, but
        # without the ``timers.arm`` calls: the handle just fired, so it
        # owns no entry to reconcile, and its fresh entry (the layout of
        # ``repro.sim.engine._handle_entry``) draws one seq.
        sim = self._sim
        now = sim._now
        handle = self._handle
        handle.deadline = deadline = now + self.period
        handle.seq = seq = sim._seq()
        handle.span = span = sim.spans.current
        handle.entry = entry = (deadline, seq, handle.callback, (),
                                handle.label, span, handle)
        heap = sim._heap
        heappush(heap, entry)
        cpu = self._cpu
        boot = cpu.boot
        if cpu._busy or cpu._poller is not None or boot is None:
            sim._live += 1
            cpu.post(self._callback, cost=self._cost,
                     label=self._task_label)
            return
        # What ``Cpu.post`` does on an idle CPU, inline: one call per
        # poll fewer, and no batch of one.
        cost = self._cost
        if cost is None:
            cost = cpu.task_cost
        label = self._task_label
        cpu._busy = True
        cpu._done_at = done = now + cost
        heappush(heap, (done, sim._seq(), cpu._finish,
                        ((self._callback, (), cost, label, now, span,
                          boot),),
                        label, span, None))
        sim._live += 2


#: A quiet run looks at most this many polls ahead; a longer quiet
#: stretch ends in a real poll that starts the next run.
QUIET_RUN_MAX_POLLS = 1024


class QuietPollTimer(PeriodicTask):
    """A periodic CPU task whose provably quiet runs are charged, not run.

    At every real firing, with the CPU idle, the timer asks
    ``quiet_until(now)`` for the earliest time at which ``poll`` could do
    anything.  Every poll whose service would end before then — this
    one included — joins a quiet *run*: no fire event, no CPU task, no
    service event.  Its effects (``fire_count``, the CPU's
    ``busy_time``, ``executed`` and ``total_latency``, and two
    :attr:`~repro.sim.Simulator.events_fired`) are charged in time
    order by :meth:`settle`, which every reader of those counters calls
    first; each charged service also counts in
    :attr:`~repro.sim.Simulator.implicit_polls`.  The handle is armed at
    the first poll that could read something (or left unarmed when none
    can), so that poll fires for real.

    Poll times are summed exactly as the plain timer sums them
    (``t = t + period``), and a poll at ``t`` completes at ``t + cost``,
    so every count equals the plain poll loop's.

    Tasks posted during a run are served as usual; a poll in service
    becomes a real service event first, so the task queues behind it
    (:meth:`give_way`).  The run goes on as long as the CPU is idle
    again before its next poll, and otherwise falls back to real
    events (:meth:`fall_back`), as a clock skew, a shutdown, a sensor
    install or a target change does at once.  :meth:`Cpu.post` and
    :meth:`Cpu._finish` call into the run only when it has a poll in
    service or due, or the post keeps the CPU busy into its next poll.

    The plain path posts ``callback`` to the CPU like
    :class:`PeriodicTask`, with ``cost`` resolved at construction.
    """

    __slots__ = ("_quiet_until", "_fires", "_service", "_next", "_end")

    def __init__(self, sim: Simulator, cpu: Cpu, period: float,
                 callback: Callable[[], Any], cost: Optional[float],
                 task_label: str, quiet_until: Callable[[float], float],
                 label: str = "periodic",
                 initial_delay: Optional[float] = None,
                 scale: float = 1.0) -> None:
        super().__init__(sim, cpu, period, callback,
                         cpu.task_cost if cost is None else cost,
                         task_label, label=label,
                         initial_delay=initial_delay, scale=scale)
        self._quiet_until = quiet_until
        #: Start of the charged poll whose service is not yet charged.
        self._service: Optional[float] = None
        #: Next poll of the run not yet charged; None outside a run.
        self._next: Optional[float] = None
        #: The poll that ends the run by firing for real (inf: none).
        self._end = math.inf

    @property
    def fire_count(self) -> int:  # type: ignore[override]
        self.settle()
        return self._fires

    @fire_count.setter
    def fire_count(self, value: int) -> None:
        self._fires = value

    @property
    def running(self) -> bool:
        return self._handle.armed or self._next is not None

    def start(self, initial_delay: Optional[float] = None) -> None:
        if self._next is not None:
            self._leave(rearm=False)
        super().start(initial_delay)

    def stop(self) -> None:
        if self._next is not None:
            self._leave(rearm=False)
        super().stop()

    # ------------------------------------------------------------------
    def _fire(self) -> None:
        if self._next is not None:
            # The run's end poll: every earlier poll is charged by now.
            self._leave(rearm=False)
        cpu = self._cpu
        cost = self._cost
        period = self.period
        # ``cost < period``: a poll's service ends before the next poll
        # fires, so the run never finds its own CPU busy.
        if (cpu._poller is None and not cpu._busy and cpu.boot is not None
                and cost < period):
            now = self._sim._now
            wake = self._quiet_until(now)
            if now + cost < wake:
                self._begin(now, wake, cost, period)
                return
        super()._fire()

    def _begin(self, now: float, wake: float, cost: float,
               period: float) -> None:
        self._fires += 1
        self._service = now
        self._next = now + period
        end = math.inf
        if wake != math.inf:
            end = self._next
            for _ in range(QUIET_RUN_MAX_POLLS):
                if end + cost >= wake:
                    break
                end = end + period
        self._end = end
        self._cpu._poller = self
        sim = self._sim
        sim._quiet_runs[self] = None
        if end != math.inf:
            sim.timers.arm_at(self._handle, end)

    def settle(self) -> None:
        """Charge the run's timer and service events at or before now."""
        next_poll = self._next
        if next_poll is None:
            return
        start = self._service
        now = self._sim._now
        cost = self._cost
        if start is not None and start + cost > now:
            return  # still in service, and the next poll is later still
        period = self.period
        end = self._end
        cpu = self._cpu
        # Summed in locals, in the same order as the CPU's own counters.
        busy_time = cpu._busy_time
        latency = cpu._total_latency
        services = fires = 0
        if start is not None:
            busy_time += cost
            latency += (start + cost) - start
            services = 1
            start = None
        while next_poll <= now and next_poll < end:
            fires += 1
            done = next_poll + cost
            if done > now:
                start = next_poll  # in service at now
                next_poll = next_poll + period
                break
            busy_time += cost
            latency += done - next_poll
            services += 1
            next_poll = next_poll + period
        if services or fires:
            cpu._busy_time = busy_time
            cpu._executed += services
            cpu._total_latency = latency
            self._service = start
            self._next = next_poll
            self._fires += fires
            sim = self._sim
            sim._events_implicit += services + fires
            sim._polls_implicit += services

    def give_way(self) -> None:
        """A task is about to be posted: charge the run up to now, and
        turn a poll in service into a real service event, so that the
        task queues behind it."""
        self.settle()
        start = self._service
        if start is not None:
            self._service = None
            self._serve(start)

    def fall_back(self) -> None:
        """Leave the run: charge it up to now, then turn the poll in
        service (if any) and the next poll back into real events."""
        if self._next is not None:
            self._leave(rearm=True)

    def _leave(self, rearm: bool) -> None:
        self.give_way()
        sim = self._sim
        next_poll, end = self._next, self._end
        self._next = None
        self._end = math.inf
        self._cpu._poller = None
        del sim._quiet_runs[self]
        if rearm and next_poll < end:
            spans = sim.spans
            previous = spans.current
            spans.current = self._handle.span
            try:
                sim.timers.arm_at(self._handle, next_poll)
            finally:
                spans.current = previous

    def _serve(self, start: float) -> None:
        """Schedule the service event of the poll that fired at
        ``start``, under the span the plain loop gives it."""
        cpu = self._cpu
        cost = self._cost
        span = self._handle.span
        label = self._task_label
        cpu._busy = True
        done = cpu._done_at = start + cost
        self._sim.schedule_batched(
            done, cpu._finish,
            (self._callback, (), cost, label, start, span, cpu.boot),
            label, span)
