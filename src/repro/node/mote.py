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
``reboot()`` is the only way back (``docs/PROTOCOL.md`` §6.1).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..radio import BROADCAST, CsmaMac, Frame, Medium, TransceiverPort
from ..sim import OneShotTimer, PeriodicTimer, Simulator, WatchdogTimer
from .cpu import DEFAULT_TASK_COST, Cpu, PeriodicTask, QuietPollTimer

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
    task_cost:
        CPU cost per task (see :class:`repro.node.cpu.Cpu`, whose queue
        holds :data:`~repro.node.cpu.DEFAULT_QUEUE_LIMIT` tasks); every
        received and every transmitted frame costs one ``task_cost``.
    """

    def __init__(self, sim: Simulator, node_id: int, position: Position,
                 medium: Medium, task_cost: float = DEFAULT_TASK_COST
                 ) -> None:
        self.sim = sim
        self.node_id = node_id
        #: Field coordinates; motes are static (the paper's §6.1 grid), so
        #: the medium precomputes links from this once.
        self.position = position
        self.medium = medium
        #: Power cycles so far, kept across a crash the way a mote's
        #: EEPROM keeps it; :meth:`reboot` increments it.
        self.boot = 0
        self.cpu = Cpu(sim, node_id, task_cost=task_cost)
        self._handlers: Dict[str, List[FrameHandler]] = {}
        #: CPU task labels ``tx.<kind>`` / ``rx.<kind>`` and span names
        #: ``frame.<kind>``, built once per frame kind rather than once
        #: per frame.
        self._tx_labels: Dict[str, str] = {}
        self._rx_labels: Dict[str, str] = {}
        self._frame_names: Dict[str, str] = {}
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

    @property
    def alive(self) -> bool:
        """True while the mote is up (its CPU serves a boot)."""
        return self.cpu.boot is not None

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

    def sensor_quiet_until(self, name: str, t: float,
                           reading: Any) -> float:
        """Earliest time ``>= t`` at which sensor ``name`` could read
        something other than ``reading``.

        A sensor's read function may carry a ``quiet_until(t, reading)``
        attribute (the binary detection sensor does); without one the
        answer is ``t`` itself.  Raises KeyError for unknown sensors.
        """
        quiet_until = getattr(self._sensors[name], "quiet_until", None)
        return t if quiet_until is None else quiet_until(t, reading)

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
        """Stamp the frame with the simulator's next frame id and queue
        it for transmission (charges CPU tx cost first)."""
        frame.frame_id = self.sim.next_frame_id()
        kind = frame.kind
        label = self._tx_labels.get(kind)
        if label is None:
            label = self._tx_labels[kind] = "tx." + kind
        self.cpu.post(self._do_send, frame, label=label)

    def _do_send(self, frame: Frame) -> None:
        # Causal tracing: the frame gets its own span under whatever
        # context queued the send (a handler, a timer, a takeover); MAC
        # backoff and the medium's delivery events inherit it through the
        # engine's span capture, so receptions chain to this send.
        kind = frame.kind
        name = self._frame_names.get(kind)
        if name is None:
            name = self._frame_names[kind] = "frame." + kind
        spans = self.sim.spans
        span_id = spans.start(name, self.node_id, frame.frame_id)
        frame.span_id = span_id
        previous = spans.current
        spans.current = span_id
        try:
            self.mac.send(frame)
        finally:
            spans.current = previous

    def _on_physical_receive(self, frame: Frame) -> None:
        # Address filter happens *after* the radio heard the frame: the
        # medium's stats count physical receptions (paper's loss metric),
        # the mote only processes frames addressed to it or broadcast.
        # A frame that reaches a crashed mote is refused by its CPU.
        dst = frame.dst
        if dst != BROADCAST and dst != self.node_id:
            return
        kind = frame.kind
        label = self._rx_labels.get(kind)
        if label is None:
            label = self._rx_labels[kind] = "rx." + kind
        self.cpu.post(self._dispatch, frame, label=label)

    def _dispatch(self, frame: Frame) -> None:
        handlers = self._handlers.get(frame.kind)
        if not handlers:
            return
        # The handlers run under the frame's own span, so a reply sent
        # inside, or by work they schedule, becomes a child of the frame
        # that triggered it.
        spans = self.sim.spans
        previous = spans.current
        spans.current = frame.span_id
        try:
            for handler in handlers:
                handler(frame)
        finally:
            spans.current = previous

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
        scale = self.clock_scale
        if quiet_until is None:
            timer = PeriodicTask(self.sim, self.cpu, period * scale,
                                 callback, cost, task_label,
                                 label=f"{label}@{self.node_id}",
                                 initial_delay=initial_delay, scale=scale)
        else:
            timer = QuietPollTimer(
                self.sim, self.cpu, period * scale, callback, cost,
                task_label, quiet_until, label=f"{label}@{self.node_id}",
                initial_delay=initial_delay, scale=scale)
        self._timers.append(timer)
        return timer

    def watchdog(self, timeout: float, callback: Callable[[], None],
                 label: str = "watchdog") -> WatchdogTimer:
        """A watchdog whose expiry handler runs on this mote's CPU."""
        timer = WatchdogTimer(
            self.sim, timeout * self.clock_scale,
            self._on_cpu(callback, "timer." + label),
            label=f"{label}@{self.node_id}")
        self._timers.append(timer)
        return timer

    def oneshot(self, callback: Callable[[], None],
                label: str = "oneshot") -> OneShotTimer:
        """An unarmed one-shot timer; arm with ``start(delay)``.  The
        callback runs on this mote's CPU."""
        timer = OneShotTimer(
            self.sim, self._on_cpu(callback, "timer." + label),
            label=f"{label}@{self.node_id}")
        self._timers.append(timer)
        return timer

    def _on_cpu(self, callback: Callable[[], None],
                task_label: str) -> Callable[[], None]:
        """A timer's fire function: post ``callback`` to the CPU at the
        CPU's task cost (a crash stops every timer, and a down CPU
        refuses posts)."""
        return partial(self.cpu.post, callback, label=task_label)

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any, label: str = "") -> None:
        """Run ``callback(*args)`` on this mote after ``delay`` seconds,
        outside the CPU queue.  Dropped if the mote crashes first, even
        when it has rebooted by then."""
        self.sim.schedule(delay, self._if_current, self.boot, callback,
                          args, label=label)

    def _if_current(self, boot: int, callback: Callable[..., None],
                    args: tuple) -> None:
        # The CPU's task service makes the same check on each task.
        if boot == self.cpu.boot:
            callback(*args)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Kill the node: radio silent, CPU drained, timers stopped, then
        the fail hooks run.  Work scheduled before the crash never runs."""
        if not self.alive:
            return
        self.port.enabled = False
        self.cpu.shutdown()
        self.mac.shutdown()
        for timer in self._timers:
            stop = getattr(timer, "stop", None) or getattr(timer, "cancel")
            stop()
        self.sim.record("node.fail", node=self.node_id)
        for hook in self._fail_hooks:
            hook()

    def add_fail_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback run when this mote fails.

        Components use it to empty their RAM — a dead node leads
        nothing and remembers nothing.  A hook must not send, schedule
        or record.
        """
        self._fail_hooks.append(hook)

    def add_reboot_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback run when this mote reboots.

        Components use it to restart their periodic work — a reboot is a
        power cycle, not a resume: protocol layers come back with the
        empty RAM their fail hooks left and must rejoin groups from
        scratch.
        """
        self._reboot_hooks.append(hook)

    def reboot(self) -> None:
        """Power-cycle a failed node under the next boot count, then run
        the reboot hooks.  No-op on a live node."""
        if self.alive:
            return
        self.boot += 1
        self.port.enabled = True
        self.cpu.power_on(self.boot)
        self.sim.record("node.reboot", node=self.node_id, boot=self.boot)
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
                timer.scale = self.clock_scale
            elif isinstance(timer, WatchdogTimer):
                timer.timeout *= factor
        self.sim.record("node.clock_skew", node=self.node_id,
                        factor=factor, scale=self.clock_scale)
