"""Restartable one-shot and periodic timers on top of the event engine.

These mirror the timers EnviroTrack's group management uses: the *receive
timer* and *wait timer* of Section 5.2 are :class:`WatchdogTimer`s (restart
on every heartbeat, fire on silence), and leader heartbeats / member report
schedules are :class:`PeriodicTimer`s.

All three ride on the engine's :class:`~repro.sim.engine.TimerService`, so
a restart (``kick``) mutates the timer's single heap entry instead of
cancelling it and pushing a new one — the dominant cost at scale, since
group management kicks a watchdog per heartbeat per node.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import Simulator


class OneShotTimer:
    """A single-firing timer that can be cancelled or restarted.

    ``start`` replaces any pending firing, so the timer fires at most once
    per start.
    """

    __slots__ = ("_sim", "_callback", "_handle", "fire_count")

    def __init__(self, sim: Simulator, callback: Callable[[], Any],
                 label: str = "oneshot") -> None:
        self._sim = sim
        self._callback = callback
        self._handle = sim.timers.create(self._fire, label)
        self.fire_count = 0

    @property
    def armed(self) -> bool:
        return self._handle.armed

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        self._sim.timers.arm(self._handle, delay)

    def cancel(self) -> None:
        self._sim.timers.cancel(self._handle)

    def _fire(self) -> None:
        self.fire_count += 1
        self._callback()


class WatchdogTimer(OneShotTimer):
    """A one-shot timer intended to be *kicked* on each keep-alive.

    Kicking restarts the countdown with the configured timeout; the callback
    fires only after ``timeout`` seconds of silence.
    """

    __slots__ = ("timeout",)

    def __init__(self, sim: Simulator, timeout: float,
                 callback: Callable[[], Any], label: str = "watchdog") -> None:
        super().__init__(sim, callback, label=label)
        if not timeout > 0:
            raise ValueError(f"watchdog timeout must be positive: {timeout}")
        self.timeout = timeout

    def kick(self) -> None:
        """Restart the silence countdown."""
        self.start(self.timeout)


class PeriodicTimer:
    """Fires ``callback`` every ``period`` seconds until stopped.

    The first firing happens after ``initial_delay`` (defaults to one full
    period).  Changing :attr:`period` takes effect after the next firing.

    ``scale`` is the rate of the clock that measures initial delays: a
    mote's timer takes its delays in the mote's own (possibly skewed)
    seconds, while ``period`` is kept in simulated seconds.
    """

    __slots__ = ("_sim", "period", "_callback", "_initial_delay", "_handle",
                 "fire_count", "scale")

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], Any], label: str = "periodic",
                 initial_delay: Optional[float] = None,
                 scale: float = 1.0) -> None:
        if not period > 0:
            raise ValueError(f"period must be positive: {period}")
        self._sim = sim
        self.period = period
        self._callback = callback
        self._initial_delay = initial_delay
        self.scale = scale
        self._handle = sim.timers.create(self._fire, label)
        self.fire_count = 0

    @property
    def running(self) -> bool:
        return self._handle.armed

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Start (or restart) the periodic schedule; the first firing
        comes after ``initial_delay``, or after the construction-time
        initial delay when it is None (both scaled), or one period."""
        if initial_delay is None:
            initial_delay = self._initial_delay
        self._sim.timers.arm(self._handle, self.period
                             if initial_delay is None
                             else initial_delay * self.scale)

    def stop(self) -> None:
        self._sim.timers.cancel(self._handle)

    def _fire(self) -> None:
        self.fire_count += 1
        # Re-arm before the callback so the callback may call stop().
        self._sim.timers.arm(self._handle, self.period)
        self._callback()
