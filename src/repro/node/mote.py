"""The mote: a sensor node with radio, CPU, sensors and protocol handlers.

A :class:`Mote` glues the substrates together the way a TinyOS image does:

* the radio delivers frames → a CPU task dispatches them to the handler
  registered for the frame's ``kind``;
* components register timers whose handlers also run as CPU tasks (so an
  overloaded CPU delays them — the Figure 5 effect);
* sensors are sampled locally and synchronously (reading the ADC is cheap
  next to messaging).

Failure injection (``fail()``) silences the node completely: radio off, CPU
drained, timers dead — the "current leader fails" worst case of §6.2.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..radio import CsmaMac, Frame, Medium, TransceiverPort
from ..sim import OneShotTimer, PeriodicTimer, Simulator, WatchdogTimer
from .cpu import DEFAULT_QUEUE_LIMIT, DEFAULT_TASK_COST, Cpu, QuietPollTimer

Position = Tuple[float, float]
FrameHandler = Callable[[Frame], None]


class Mote:
    """One simulated sensor node.

    Parameters
    ----------
    sim:
        Owning simulator.
    node_id:
        Unique id in the field.
    position:
        Field coordinates in grid units.
    medium:
        The shared radio channel to attach to; the mote transmits on it
        through a :class:`~repro.radio.CsmaMac`.
    task_cost / queue_limit:
        CPU model parameters (see :class:`repro.node.cpu.Cpu`); every
        received and every transmitted frame costs one ``task_cost``.
    """

    def __init__(self, sim: Simulator, node_id: int, position: Position,
                 medium: Medium, task_cost: float = DEFAULT_TASK_COST,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT) -> None:
        self.sim = sim
        self.node_id = node_id
        #: Field coordinates; motes are static (the paper's §6.1 grid), so
        #: the medium precomputes links from this once.
        self.position = position
        self.medium = medium
        self.alive = True
        self.cpu = Cpu(sim, node_id, task_cost=task_cost,
                       queue_limit=queue_limit)
        self._handlers: Dict[str, List[FrameHandler]] = {}
        #: CPU task labels ``tx.<kind>`` / ``rx.<kind>`` and span names
        #: ``frame.<kind>`` / ``handle.<kind>``, built once per frame kind
        #: rather than once per frame.
        self._tx_labels: Dict[str, str] = {}
        self._rx_labels: Dict[str, str] = {}
        self._frame_names: Dict[str, str] = {}
        self._handle_names: Dict[str, str] = {}
        self._sensors: Dict[str, Callable[[], Any]] = {}
        self._timers: List[Any] = []
        self._fail_hooks: List[Callable[[], None]] = []
        self._reboot_hooks: List[Callable[[], None]] = []
        #: Oscillator skew: multiplies the nominal delay of every timer
        #: created on this mote (1.0 = perfect clock).
        self.clock_scale = 1.0
        self.port = TransceiverPort(node_id, position,
                                    self._on_physical_receive)
        medium.attach(self.port)
        self.mac = CsmaMac(sim, medium, position)
        self.frames_delivered = 0

    # ------------------------------------------------------------------
    # Sensors
    # ------------------------------------------------------------------
    def install_sensor(self, name: str, read_fn: Callable[[], Any]) -> None:
        """Install a named sensor whose value is produced by ``read_fn``."""
        self.cpu.fall_back()
        self._sensors[name] = read_fn

    def read_sensor(self, name: str) -> Any:
        """Sample a sensor; raises KeyError for unknown sensors."""
        return self._sensors[name]()

    def sensor_quiet_until(self, name: str, t: float) -> float:
        """Earliest time ``>= t`` at which sensor ``name`` could read true.

        A sensor's read function may carry a ``quiet_until(t)``
        attribute (the binary detection sensor does); without one the
        answer is ``t`` itself.  Raises KeyError for unknown sensors.
        """
        quiet_until = getattr(self._sensors[name], "quiet_until", None)
        return t if quiet_until is None else quiet_until(t)

    def has_sensor(self, name: str) -> bool:
        return name in self._sensors

    def sensor_names(self) -> List[str]:
        return sorted(self._sensors)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def register_handler(self, kind: str, handler: FrameHandler) -> None:
        """Register ``handler`` for frames of ``kind`` addressed to us."""
        self._handlers.setdefault(kind, []).append(handler)

    def send(self, frame: Frame) -> None:
        """Queue a frame for transmission (charges CPU tx cost first)."""
        if not self.alive:
            return
        kind = frame.kind
        label = self._tx_labels.get(kind)
        if label is None:
            label = self._tx_labels[kind] = "tx." + kind
        self.cpu.post(self._do_send, frame, label=label)

    def _do_send(self, frame: Frame) -> None:
        if not self.alive:
            return
        # Causal tracing: the frame gets its own span under whatever
        # context queued the send (a handler, a timer, a takeover); MAC
        # backoff and the medium's delivery events inherit it through the
        # engine's span capture, so receptions chain to this send.
        kind = frame.kind
        name = self._frame_names.get(kind)
        if name is None:
            name = self._frame_names[kind] = "frame." + kind
        spans = self.sim.spans
        span_id = spans.start(name, self.node_id)
        frame.span_id = span_id
        spans.note_frame(span_id, frame.frame_id)
        previous = spans.current
        spans.current = span_id
        try:
            self.mac.send(frame)
        finally:
            spans.current = previous
        spans.finish(span_id)

    def _on_physical_receive(self, frame: Frame) -> None:
        if not self.alive:
            return
        # Address filter happens *after* the radio heard the frame: the
        # medium's stats count physical receptions (paper's loss metric),
        # the mote only processes frames addressed to it or broadcast.
        if not frame.addressed_to(self.node_id):
            return
        kind = frame.kind
        label = self._rx_labels.get(kind)
        if label is None:
            label = self._rx_labels[kind] = "rx." + kind
        self.cpu.post(self._dispatch, frame, label=label)

    def _dispatch(self, frame: Frame) -> None:
        if not self.alive:
            return
        self.frames_delivered += 1
        kind = frame.kind
        handlers = self._handlers.get(kind)
        if not handlers:
            return
        name = self._handle_names.get(kind)
        if name is None:
            name = self._handle_names[kind] = "handle." + kind
        spans = self.sim.spans
        for handler in handlers:
            # Each handler runs in its own span under the frame that
            # triggered it, so replies sent inside become grandchildren
            # of the original send.
            span_id = spans.start(name, self.node_id, frame.span_id)
            previous = spans.current
            spans.current = span_id
            try:
                handler(frame)
            finally:
                spans.current = previous
                spans.finish(span_id)

    # ------------------------------------------------------------------
    # Timers (handlers run as CPU tasks)
    # ------------------------------------------------------------------
    def periodic(self, period: float, callback: Callable[[], None],
                 label: str = "periodic",
                 initial_delay: Optional[float] = None,
                 cost: Optional[float] = None,
                 quiet_until: Optional[Callable[[float], float]] = None
                 ) -> PeriodicTimer:
        """A periodic timer whose callback is executed on this mote's CPU.

        With ``quiet_until`` — the earliest time ``>= t`` at which the
        callback could have any effect — the timer is a
        :class:`~repro.node.cpu.QuietPollTimer`: polls before that time
        are charged to the CPU without events, and counted in the
        simulator's :attr:`~repro.sim.Simulator.implicit_polls`.
        """
        task_label = "timer." + label

        def fire() -> None:
            self._timer_fire(callback, cost, task_label)

        scaled_delay = (None if initial_delay is None
                        else initial_delay * self.clock_scale)
        if quiet_until is None:
            timer = PeriodicTimer(self.sim, period * self.clock_scale, fire,
                                  label=f"{label}@{self.node_id}",
                                  initial_delay=scaled_delay)
        else:
            timer = QuietPollTimer(
                self.sim, self.cpu, period * self.clock_scale, fire,
                callback, cost, task_label, quiet_until,
                label=f"{label}@{self.node_id}", initial_delay=scaled_delay)
        self._timers.append(timer)
        return timer

    def watchdog(self, timeout: float, callback: Callable[[], None],
                 label: str = "watchdog",
                 cost: Optional[float] = None) -> WatchdogTimer:
        """A watchdog whose expiry handler runs on this mote's CPU."""
        task_label = "timer." + label
        timer = WatchdogTimer(
            self.sim, timeout * self.clock_scale,
            lambda: self._timer_fire(callback, cost, task_label),
            label=f"{label}@{self.node_id}")
        self._timers.append(timer)
        return timer

    def oneshot(self, callback: Callable[[], None],
                label: str = "oneshot",
                cost: Optional[float] = None) -> OneShotTimer:
        """An unarmed one-shot timer; arm with ``start(delay)``.  The
        callback runs on this mote's CPU."""
        task_label = "timer." + label
        timer = OneShotTimer(
            self.sim,
            lambda: self._timer_fire(callback, cost, task_label),
            label=f"{label}@{self.node_id}")
        self._timers.append(timer)
        return timer

    def _timer_fire(self, callback: Callable[[], None],
                    cost: Optional[float], task_label: str) -> None:
        if not self.alive:
            return
        self.cpu.post(callback, cost=cost, label=task_label)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Kill the node: radio silent, CPU drained, timers stopped, then
        the fail hooks run."""
        if not self.alive:
            return
        self.alive = False
        self.port.enabled = False
        self.cpu.shutdown()
        self.mac.shutdown()
        for timer in self._timers:
            stop = getattr(timer, "stop", None) or getattr(timer, "cancel")
            stop()
        self.sim.record("node.fail", node=self.node_id)
        for hook in self._fail_hooks:
            hook()

    def recover(self) -> None:
        """Bring a failed node back (fresh CPU state; timers stay stopped
        until a component restarts them, and what the fail hooks dropped
        stays dropped — :meth:`reboot` runs the reboot hooks)."""
        if self.alive:
            return
        self.alive = True
        self.port.enabled = True
        self.cpu.enabled = True
        self.sim.record("node.recover", node=self.node_id)

    def add_fail_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback run when this mote fails.

        Components use it to drop the roles a crash ends — a dead node
        leads nothing.  A hook must not send, schedule or record.
        """
        self._fail_hooks.append(hook)

    def add_reboot_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback run when this mote reboots.

        Components use it to rebuild their volatile state — a reboot is a
        power cycle, not a resume: protocol layers come back with empty
        RAM and must rejoin groups from scratch.
        """
        self._reboot_hooks.append(hook)

    def reboot(self) -> None:
        """Power-cycle a failed node: recover, then reinitialize components
        via their reboot hooks.  No-op on a live node."""
        if self.alive:
            return
        self.recover()
        self.sim.record("node.reboot", node=self.node_id)
        for hook in self._reboot_hooks:
            hook()

    def skew_clock(self, factor: float) -> None:
        """Stretch (>1) or compress (<1) this mote's oscillator.

        Applies to every existing periodic/watchdog timer's nominal delay
        and to timers created later.  Periodic changes take effect after
        the next firing (matching :class:`PeriodicTimer` semantics); a
        watchdog's new timeout applies from its next kick.
        """
        if not factor > 0:
            raise ValueError(f"clock skew factor must be positive: {factor}")
        # A quiet poll run was laid out with the old period.
        self.cpu.fall_back()
        self.clock_scale *= factor
        for timer in self._timers:
            if isinstance(timer, PeriodicTimer):
                timer.period *= factor
            elif isinstance(timer, WatchdogTimer):
                timer.timeout *= factor
        self.sim.record("node.clock_skew", node=self.node_id,
                        factor=factor, scale=self.clock_scale)
