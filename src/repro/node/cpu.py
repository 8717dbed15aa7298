"""Bounded-rate CPU model for a mote.

The paper's stress tests conclude that at very small heartbeat periods "the
bottleneck appears to lie in CPU processing", not bandwidth — the maximum
trackable speed *declines* once heartbeat processing saturates the motes
(Figure 5).  To reproduce that shape, every handler on a mote runs through
this CPU: a FIFO served one task at a time, each task occupying the
processor for its ``cost`` seconds.  When heartbeat floods arrive faster
than the service rate, the queue backs up, timer handlers (takeover,
relinquish) run late, and tracking breaks exactly as in the paper.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..sim import Simulator

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
        if task_cost < 0:
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
        self.executed = 0
        self.dropped = 0
        self.busy_time = 0.0
        self.max_backlog = 0
        self.total_latency = 0.0

    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Waiting tasks (excluding the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a task is in service."""
        return self._busy

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of elapsed simulated time spent serving tasks."""
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def mean_latency(self) -> float:
        """Mean queueing+service delay per executed task."""
        if self.executed == 0:
            return 0.0
        return self.total_latency / self.executed

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
        task = (fn, args, self.task_cost if cost is None else cost, label,
                self.sim.now)
        if self._busy:
            if len(self._queue) >= self.queue_limit:
                self.dropped += 1
                self.sim.record("cpu.drop", node=self.node_id, label=label)
                return False
            self._queue.append(task)
            self.max_backlog = max(self.max_backlog, len(self._queue))
            return True
        self._begin(task)
        return True

    def shutdown(self) -> None:
        """Stop accepting and executing tasks (node failure)."""
        self.enabled = False
        self._queue.clear()

    # ------------------------------------------------------------------
    def _begin(self, task: _Task) -> None:
        self._busy = True
        # The service event carries the task's own label (``rx.<kind>``,
        # ``timer.<label>`` …) so the profiler files handler work under it.
        self.sim.schedule(task[2], self._finish, task, label=task[3])

    def _finish(self, task: _Task) -> None:
        fn, args, cost, _, posted_at = task
        self.busy_time += cost
        if not self.enabled:
            self._busy = False
            return
        self.executed += 1
        self.total_latency += self.sim.now - posted_at
        try:
            fn(*args)
        finally:
            if self._queue and self.enabled:
                self._begin(self._queue.popleft())
            else:
                self._busy = False
