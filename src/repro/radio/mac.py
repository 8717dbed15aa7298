"""Medium access control.

Every mote runs :class:`CsmaMac` — carrier-sense with random backoff,
approximating the simple CSMA in the MICA TinyOS stack.  It is
*unreliable* by design: no acknowledgements and no retransmissions,
matching the paper's note that "no reliability is implemented in the MAC
layer of the MICA motes".

:class:`NullMac` transmits immediately, with no carrier sensing; tests
use it as a stand-in transmitter.  Both expose ``send(frame)`` and report
queue statistics.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..sim import Event, Simulator
from .frames import Frame
from .medium import Medium, Position


class MacBase:
    """Common interface for MAC implementations."""

    def __init__(self, sim: Simulator, medium: Medium,
                 position: Position) -> None:
        self.sim = sim
        self.medium = medium
        #: Field position carrier sense listens at (motes are static).
        self.position = position
        self.sent = 0
        self.dropped = 0

    def send(self, frame: Frame) -> None:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Abort any in-flight MAC activity (node crash/power-off).

        A dead node must not keep transmitting: without this, pending
        backoff/turnaround events outlive the mote and push its queued
        frames onto the air after ``fail()``.
        """

    @property
    def backlog(self) -> int:
        return 0


class NullMac(MacBase):
    """Fire-and-forget: every ``send`` transmits immediately."""

    def send(self, frame: Frame) -> None:
        self.sent += 1
        self.medium.transmit(frame)


class CsmaMac(MacBase):
    """Carrier-sense multiple access with bounded random backoff.

    Parameters
    ----------
    max_attempts:
        Carrier-sense attempts before the frame is dropped (congestion
        drop — counted in :attr:`dropped`).
    backoff:
        ``(lo, hi)`` uniform backoff window in seconds between attempts.
    queue_limit:
        Frames waiting behind an in-progress backoff; overflow is dropped.
    """

    def __init__(self, sim: Simulator, medium: Medium,
                 position: Position,
                 max_attempts: int = 8,
                 backoff: Tuple[float, float] = (0.001, 0.008),
                 queue_limit: int = 32) -> None:
        super().__init__(sim, medium, position)
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.queue_limit = queue_limit
        self._queue: Deque[Frame] = deque()
        self._busy = False
        self._rng = sim.rng.stream("radio.mac")
        #: The single in-flight backoff/turnaround event (the MAC is
        #: serial: at most one frame is between attempts at a time).
        self._pending_event: Optional[Event] = None

    @property
    def backlog(self) -> int:
        return len(self._queue)

    def shutdown(self) -> None:
        """Cancel the in-flight attempt and drop the backlog.

        Called when the owning mote fails: its ``mac.backoff`` /
        ``mac.next`` events must not fire (and transmit) from a dead —
        or later rebooted — node.  Leaves the MAC idle so a rebooted
        mote starts from a clean state.
        """
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        self._queue.clear()
        self._busy = False

    def send(self, frame: Frame) -> None:
        if self._busy:
            if len(self._queue) >= self.queue_limit:
                self.dropped += 1
                self.sim.record("mac.drop", node=frame.src,
                                kind=frame.kind, cause="queue_overflow")
                return
            self._queue.append(frame)
            return
        self._busy = True
        self._attempt(frame, attempt=1)

    # ------------------------------------------------------------------
    def _attempt(self, frame: Frame, attempt: int) -> None:
        self._pending_event = None
        if not self.medium.channel_busy(self.position):
            self.sent += 1
            self.medium.transmit(frame)
            self._finish()
            return
        if attempt >= self.max_attempts:
            self.dropped += 1
            self.sim.record("mac.drop", node=frame.src, kind=frame.kind,
                            cause="max_attempts")
            self._finish()
            return
        lo, hi = self.backoff
        delay = self._rng.uniform(lo, hi) * attempt
        self._pending_event = self.sim.schedule(
            delay, self._attempt, frame, attempt + 1, label="mac.backoff")

    def _finish(self) -> None:
        if self._queue:
            nxt = self._queue.popleft()
            # Small turnaround gap before the next frame's first attempt.
            self._pending_event = self.sim.schedule(
                self.backoff[0], self._attempt, nxt, 1, label="mac.next")
        else:
            self._busy = False

