"""Bounded-rate CPU model for a mote.

The paper's stress tests conclude that at very small heartbeat periods "the
bottleneck appears to lie in CPU processing", not bandwidth — the maximum
trackable speed *declines* once heartbeat processing saturates the motes
(Figure 5).  To reproduce that shape, every handler on a mote runs through
this CPU: a FIFO served one task at a time, each task occupying the
processor for its ``cost`` seconds.  When heartbeat floods arrive faster
than the service rate, the queue backs up, timer handlers (takeover,
relinquish) run late, and tracking breaks exactly as in the paper.

A sense poll that provably reads nothing while the CPU is idle is charged
to the CPU without events: see :class:`QuietPollTimer`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..sim import PeriodicTimer, Simulator

#: Default per-task service time (seconds).  A MICA mote's 4 MHz ATmega103
#: spends on the order of a millisecond of handler work per message.
DEFAULT_TASK_COST = 0.001

#: Default task queue capacity (TinyOS task queues were tiny).
DEFAULT_QUEUE_LIMIT = 64


#: A posted task: ``(fn, args, cost, label, posted_at)``.  A plain tuple,
#: so a post allocates nothing beyond it and the ``args`` tuple.
_Task = Tuple[Callable[..., Any], tuple, float, str, float]


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
    """

    def __init__(self, sim: Simulator, node_id: int,
                 task_cost: float = DEFAULT_TASK_COST,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT) -> None:
        if not task_cost >= 0:
            raise ValueError(f"task cost must be >= 0: {task_cost}")
        if queue_limit < 1:
            raise ValueError(f"queue limit must be >= 1: {queue_limit}")
        self.sim = sim
        self.node_id = node_id
        self.task_cost = task_cost
        self.queue_limit = queue_limit
        self.enabled = True
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
        skipped poll matter: a shutdown, a clock skew and a sensor
        install (``docs/ENGINE.md`` §7).  A post falls back only when it
        keeps the CPU busy into the run's next poll.
        """
        if self._poller is not None:
            self._poller.fall_back()

    # ------------------------------------------------------------------
    def post(self, fn: Callable[..., Any], *args: Any,
             cost: Optional[float] = None, label: str = "task") -> bool:
        """Enqueue ``fn(*args)``; returns False when the task was dropped.

        The task runs when the CPU reaches it, *after* its service time —
        so a backlogged CPU delays protocol reactions, which is the effect
        the Figure 5 stress test measures.
        """
        if not self.enabled:
            return False
        poller = self._poller
        if poller is not None:
            poller.give_way()
        task = (fn, args, self.task_cost if cost is None else cost, label,
                self.sim._now)
        if self._busy:
            if len(self._queue) >= self.queue_limit:
                self.dropped += 1
                self.sim.record("cpu.drop", node=self.node_id, label=label)
                return False
            self._queue.append(task)
            self.max_backlog = max(self.max_backlog, len(self._queue))
        else:
            self._begin(task)
        if poller is not None:
            poller.check_idle_before_next()
        return True

    def shutdown(self) -> None:
        """Stop accepting and executing tasks (node failure)."""
        self.fall_back()
        self.enabled = False
        self._queue.clear()

    # ------------------------------------------------------------------
    def _begin(self, task: _Task) -> None:
        self._busy = True
        # The service event carries the task's own label (``rx.<kind>``,
        # ``timer.<label>`` …) so the profiler files handler work under it.
        sim = self.sim
        done = sim._now + task[2]
        sim.schedule_at(done, self._finish, task, label=task[3])
        self._done_at = done

    def _idle_at(self) -> float:
        """When the CPU goes idle if nothing more is posted."""
        if not self._busy:
            return self.sim.now
        idle_at = self._done_at
        for task in self._queue:
            idle_at = idle_at + task[2]
        return idle_at

    def _finish(self, task: _Task) -> None:
        if self._poller is not None:
            # Keep ``busy_time`` summed in time order.
            self._poller.settle()
        fn, args, cost, _, posted_at = task
        self._busy_time += cost
        if not self.enabled:
            self._busy = False
            return
        self._executed += 1
        self._total_latency += self.sim._now - posted_at
        try:
            fn(*args)
        finally:
            if self._queue and self.enabled:
                self._begin(self._queue.popleft())
            else:
                self._busy = False


#: A quiet run looks at most this many polls ahead; a longer quiet
#: stretch ends in a real poll that starts the next run.
QUIET_RUN_MAX_POLLS = 1024


class QuietPollTimer(PeriodicTimer):
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
    events (:meth:`check_idle_before_next`).  A clock skew, a shutdown,
    a sensor install or a target change falls back at once
    (:meth:`fall_back`).

    The timer's ``callback`` is the plain path (post ``poll`` to the
    CPU); ``poll``, ``cost`` and ``task_label`` describe that task.
    """

    __slots__ = ("_cpu", "_poll", "_cost", "_task_label", "_quiet_until",
                 "_fires", "_service", "_next", "_end")

    def __init__(self, sim: Simulator, cpu: Cpu, period: float,
                 callback: Callable[[], Any], poll: Callable[[], Any],
                 cost: Optional[float], task_label: str,
                 quiet_until: Callable[[float], float],
                 label: str = "periodic",
                 initial_delay: Optional[float] = None) -> None:
        super().__init__(sim, period, callback, label=label,
                         initial_delay=initial_delay)
        self._cpu = cpu
        self._poll = poll
        self._cost = cpu.task_cost if cost is None else cost
        self._task_label = task_label
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

    def start(self) -> None:
        if self._next is not None:
            self._leave(rearm=False)
        super().start()

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
        if (cpu._poller is None and not cpu._busy and cpu.enabled
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
        period = self.period
        end = self._end
        cpu = self._cpu
        services = fires = 0
        while True:
            if start is not None:
                done = start + cost
                if done > now:
                    break
                cpu._busy_time += cost
                cpu._executed += 1
                cpu._total_latency += done - start
                services += 1
                start = None
            if next_poll < end and next_poll <= now:
                fires += 1
                start = next_poll
                next_poll = next_poll + period
            else:
                break
        if services or fires:
            self._service = start
            self._next = next_poll
            self._fires += fires
            sim = self._sim
            sim._events_fired += services + fires
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

    def check_idle_before_next(self) -> None:
        """After a post: fall back unless the CPU is idle again before
        the run's next poll (a poll on a busy CPU queues, so it must be
        real)."""
        if self._cpu._idle_at() >= self._next:
            self._leave(rearm=True)

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
        sim = self._sim
        spans = sim.spans
        previous = spans.current
        spans.current = self._handle.span
        try:
            cpu._busy = True
            cpu._done_at = start + cost
            sim.schedule_at(start + cost, cpu._finish,
                            (self._poll, (), cost, self._task_label, start),
                            label=self._task_label)
        finally:
            spans.current = previous
