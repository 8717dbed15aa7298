"""Medium access control.

Every mote runs :class:`CsmaMac` — carrier-sense with random backoff,
approximating the simple CSMA in the MICA TinyOS stack.  It is
*unreliable* by design: no acknowledgements and no retransmissions,
matching the paper's note that "no reliability is implemented in the MAC
layer of the MICA motes".

A frame that finds the channel busy backs off and retries; one that
exhausts its attempts, or overflows the backlog queue, is dropped with a
``mac.drop`` record.  A frame that goes on the air is a ``radio.tx``
record of the medium, so the trace is the only tally of sends.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..sim import Simulator
from .frames import Frame
from .medium import Medium, Position


#: Carrier-sense attempts before a frame is dropped (a congestion drop,
#: recorded as ``mac.drop``).
MAX_ATTEMPTS = 8
#: ``(lo, hi)`` uniform backoff window in seconds between attempts; the
#: turnaround gap before a queued frame's first attempt is ``lo``.
BACKOFF = (0.001, 0.008)
#: Frames waiting behind an in-progress backoff; overflow is dropped.
QUEUE_LIMIT = 32


class CsmaMac:
    """Carrier-sense multiple access with bounded random backoff
    (:data:`MAX_ATTEMPTS`, :data:`BACKOFF`, :data:`QUEUE_LIMIT`)."""

    def __init__(self, sim: Simulator, medium: Medium,
                 position: Position) -> None:
        self.sim = sim
        self.medium = medium
        #: Field position carrier sense listens at (motes are static).
        self.position = position
        self._queue: Deque[Frame] = deque()
        self._busy = False
        self._rng = sim.rng.stream("radio.mac")
        #: The MAC is serial — at most one frame is between attempts at a
        #: time — so one timer carries every backoff and turnaround: the
        #: frame and the attempt it makes next.
        self._timer = sim.timers.create(self._on_timer, "mac.backoff")
        self._frame: Optional[Frame] = None
        self._next_attempt = 1

    @property
    def backlog(self) -> int:
        return len(self._queue)

    def shutdown(self) -> None:
        """Cancel the in-flight attempt and drop the backlog.

        Called when the owning mote fails: its ``mac.backoff`` /
        ``mac.next`` timer must not fire (and transmit) from a dead —
        or later rebooted — node.  Leaves the MAC idle so a rebooted
        mote starts from a clean state.
        """
        self.sim.timers.cancel(self._timer)
        self._queue.clear()
        self._busy = False

    def send(self, frame: Frame) -> None:
        if self._busy:
            if len(self._queue) >= QUEUE_LIMIT:
                self.sim.record("mac.drop", node=frame.src,
                                kind=frame.kind, cause="queue_overflow")
                return
            self._queue.append(frame)
            return
        self._busy = True
        self._attempt(frame, attempt=1)

    # ------------------------------------------------------------------
    def _attempt(self, frame: Frame, attempt: int) -> None:
        if not self.medium.channel_busy(self.position):
            self.medium.transmit(frame)
            self._finish()
            return
        if attempt >= MAX_ATTEMPTS:
            self.sim.record("mac.drop", node=frame.src, kind=frame.kind,
                            cause="max_attempts")
            self._finish()
            return
        lo, hi = BACKOFF
        self._retry(frame, attempt + 1,
                    self._rng.uniform(lo, hi) * attempt, "mac.backoff")

    def _finish(self) -> None:
        if self._queue:
            # Small turnaround gap before the next frame's first attempt.
            self._retry(self._queue.popleft(), 1, BACKOFF[0], "mac.next")
        else:
            self._busy = False

    def _retry(self, frame: Frame, attempt: int, delay: float,
               label: str) -> None:
        self._frame = frame
        self._next_attempt = attempt
        self._timer.label = label
        self.sim.timers.arm(self._timer, delay)

    def _on_timer(self) -> None:
        self._attempt(self._frame, self._next_attempt)
