"""Per-mote energy accounting.

The paper's motivation is battery-powered disposable motes, and its design
choices (heartbeat rate, relinquish vs takeover, flooding) trade tracking
responsiveness against communication — i.e., against energy.  This
extension meters each mote's radio and CPU energy so those trade-offs can
be quantified (see ``benchmarks/bench_ablation_energy.py``).

The cost model follows the MICA mote's published current draws (ATmega103
+ TR1000 at 3 V, rounded):

=============  ==========  =============================
activity       power       note
=============  ==========  =============================
radio transmit ~36 mW      12 mA at 3 V
radio receive  ~14.4 mW    4.8 mA at 3 V (also idle listen)
CPU active     ~16.5 mW    5.5 mA at 3 V
sleep          ~30 µW      leakage
=============  ==========  =============================

Energy is attributed per event (a transmission's airtime × tx power, a
reception's airtime × rx power, a CPU task's service time × CPU power)
plus a baseline idle-listening drain, which is what actually dominates on
un-duty-cycled motes — reproducing the classic observation that the radio
*listening*, not talking, empties the battery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..sim import Simulator


@dataclass(frozen=True)
class EnergyModel:
    """Power levels in watts."""

    tx_power: float = 0.036
    rx_power: float = 0.0144
    cpu_power: float = 0.0165
    idle_listen_power: float = 0.0144
    sleep_power: float = 0.00003


@dataclass
class EnergyLedger:
    """Accumulated energy of one mote, by activity, in joules."""

    model: EnergyModel
    tx_joules: float = 0.0
    rx_joules: float = 0.0
    cpu_joules: float = 0.0
    #: Externally injected drain (fault injection: battery leakage,
    #: short-circuit, parasitic load).
    drain_joules: float = 0.0
    started_at: float = 0.0

    def on_transmit(self, airtime: float) -> None:
        """Charge transmit energy for one frame's airtime."""
        self.tx_joules += airtime * self.model.tx_power

    def on_receive(self, airtime: float) -> None:
        """Charge receive energy for one frame's airtime."""
        self.rx_joules += airtime * self.model.rx_power

    def on_cpu(self, busy_time: float) -> None:
        """Charge CPU energy for ``busy_time`` seconds of service."""
        self.cpu_joules += busy_time * self.model.cpu_power

    def on_drain(self, joules: float) -> None:
        """Charge an externally injected energy drain."""
        if joules < 0:
            raise ValueError(f"drain must be >= 0: {joules}")
        self.drain_joules += joules

    def idle_joules(self, now: float) -> float:
        """Baseline idle-listening drain over the whole elapsed time.

        Conservative: active radio time is not subtracted from the idle
        baseline (it is negligible at the evaluation's <5% utilization).
        """
        elapsed = max(0.0, now - self.started_at)
        return elapsed * self.model.idle_listen_power

    def total_joules(self, now: float, include_idle: bool = True) -> float:
        active = (self.tx_joules + self.rx_joules + self.cpu_joules
                  + self.drain_joules)
        if include_idle:
            active += self.idle_joules(now)
        return active


class EnergyMeter:
    """Meters every mote in a field.

    Attach after deployment::

        meter = EnergyMeter(sim)
        for mote in field.mote_list():
            meter.attach(mote)
        ...
        meter.total_joules(sim.now)

    Metering wraps the mote's MAC send and physical-receive paths and
    samples CPU busy time on read, so it adds no events to the simulation.
    """

    def __init__(self, sim: Simulator,
                 model: EnergyModel = EnergyModel()) -> None:
        self.sim = sim
        self.model = model
        self.ledgers: Dict[int, EnergyLedger] = {}
        self._cpu_seen: Dict[int, float] = {}
        self._motes: Dict[int, object] = {}
        # Telemetry (side-state only):
        # tx/rx counters accrue as frames move; the by-activity gauge is
        # refreshed whenever a readout computes the breakdown.
        metrics = sim.metrics
        self._tx_metric = metrics.counter(
            "repro_energy_tx_joules_total",
            "Radio transmit energy spent, fleet-wide.")
        self._rx_metric = metrics.counter(
            "repro_energy_rx_joules_total",
            "Radio receive energy spent, fleet-wide.")
        self._energy_gauge = metrics.gauge(
            "repro_energy_joules",
            "Accumulated fleet energy by activity "
            "(refreshed on breakdown()).", ("activity",))

    def attach(self, mote) -> None:
        """Start metering ``mote``."""
        if mote.node_id in self.ledgers:
            raise ValueError(f"mote {mote.node_id} already metered")
        ledger = EnergyLedger(model=self.model, started_at=self.sim.now)
        self.ledgers[mote.node_id] = ledger
        self._cpu_seen[mote.node_id] = mote.cpu.busy_time
        self._motes[mote.node_id] = mote
        medium = mote.medium

        original_send = mote.mac.send

        def metered_send(frame, _original=original_send,
                         _ledger=ledger, _medium=medium,
                         _metric=self._tx_metric):
            airtime = _medium.airtime(frame)
            _ledger.on_transmit(airtime)
            _metric.inc(airtime * _ledger.model.tx_power)
            _original(frame)

        mote.mac.send = metered_send

        original_deliver = mote.port.deliver

        def metered_deliver(frame, _original=original_deliver,
                            _ledger=ledger, _medium=medium,
                            _metric=self._rx_metric):
            airtime = _medium.airtime(frame)
            _ledger.on_receive(airtime)
            _metric.inc(airtime * _ledger.model.rx_power)
            _original(frame)

        mote.port.deliver = metered_deliver

    def _sync_cpu(self) -> None:
        for node_id, ledger in self.ledgers.items():
            mote = self._motes[node_id]
            seen = self._cpu_seen[node_id]
            busy = mote.cpu.busy_time
            if busy > seen:
                ledger.on_cpu(busy - seen)
                self._cpu_seen[node_id] = busy

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def ledger(self, node_id: int) -> EnergyLedger:
        self._sync_cpu()
        return self.ledgers[node_id]

    def total_joules(self, now: float, include_idle: bool = True) -> float:
        self._sync_cpu()
        return sum(ledger.total_joules(now, include_idle=include_idle)
                   for ledger in self.ledgers.values())

    def active_joules(self, now: float) -> float:
        """Radio+CPU energy only — the part protocol design controls."""
        return self.total_joules(now, include_idle=False)

    def max_node_joules(self, now: float,
                        include_idle: bool = True) -> float:
        """Hottest mote — the network's lifetime bound."""
        self._sync_cpu()
        return max(ledger.total_joules(now, include_idle=include_idle)
                   for ledger in self.ledgers.values())

    def breakdown(self, now: float) -> Dict[str, float]:
        """Fleet-wide energy by activity (joules)."""
        self._sync_cpu()
        out = {
            "tx": sum(l.tx_joules for l in self.ledgers.values()),
            "rx": sum(l.rx_joules for l in self.ledgers.values()),
            "cpu": sum(l.cpu_joules for l in self.ledgers.values()),
            "drain": sum(l.drain_joules for l in self.ledgers.values()),
            "idle": sum(l.idle_joules(now)
                        for l in self.ledgers.values()),
        }
        for activity, joules in out.items():
            self._energy_gauge.set(joules, activity)
        return out

    def drain(self, node_id: int, joules: float) -> None:
        """Inject an external drain on one mote's battery."""
        self.ledgers[node_id].on_drain(joules)
