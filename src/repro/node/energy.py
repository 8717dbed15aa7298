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
=============  ==========  =============================

Motes never sleep here (nothing duty-cycles the radio), so sleep power
is not modelled.

Energy is attributed per activity (airtime on the air × tx power,
airtime received × rx power, CPU service time × CPU power) plus a
baseline idle-listening drain, which is what actually dominates on
un-duty-cycled motes — reproducing the classic observation that the radio
*listening*, not talking, empties the battery.

The meter keeps no tally of its own for the radio or the CPU: it reads
the medium's bits sent per node, each port's bits delivered and each
CPU's busy time, counting from the moment a mote is attached.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..radio import DEFAULT_BITRATE
from ..sim import Simulator
from ..telemetry.registry import Counter, Gauge, merged, summed


#: Power levels in watts (the table above).
TX_POWER = 0.036
RX_POWER = 0.0144
CPU_POWER = 0.0165
IDLE_LISTEN_POWER = 0.0144


class EnergyLedger:
    """Energy of one metered mote, by activity, in joules.

    Radio and CPU energy are computed when read, from the mote's own
    tallies (bits sent on the air, bits delivered to its port, CPU busy
    time) since the ledger was opened at ``started_at``.
    """

    def __init__(self, mote, started_at: float) -> None:
        self.mote = mote
        self.started_at = started_at
        #: Externally injected drain (fault injection: battery leakage,
        #: short-circuit, parasitic load).
        self.drain_joules = 0.0
        self._at_start = self._tallies()

    def _tallies(self) -> Tuple[int, int, float]:
        """Bits sent on the air, bits delivered to the port and CPU busy
        time, so far."""
        mote = self.mote
        return (mote.medium.stats.bits_sent_by_node.get(mote.node_id, 0),
                mote.port.bits_delivered, mote.cpu.busy_time)

    def _since_start(self, index: int) -> float:
        return self._tallies()[index] - self._at_start[index]

    @property
    def tx_joules(self) -> float:
        return self._since_start(0) / DEFAULT_BITRATE * TX_POWER

    @property
    def rx_joules(self) -> float:
        return self._since_start(1) / DEFAULT_BITRATE * RX_POWER

    @property
    def cpu_joules(self) -> float:
        return self._since_start(2) * CPU_POWER

    def idle_joules(self, now: float) -> float:
        """Baseline idle-listening drain over the whole elapsed time.

        Conservative: active radio time is not subtracted from the idle
        baseline (it is negligible at the evaluation's <5% utilization).
        """
        elapsed = max(0.0, now - self.started_at)
        return elapsed * IDLE_LISTEN_POWER

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

    Metering adds no events and wraps nothing: every readout computes
    the ledgers from the radio's and the CPU's own tallies, so frames
    sent and received and CPU time spent before :meth:`attach` are not
    charged.  A frame the MAC accepts but never puts on the air costs
    no transmit energy.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.ledgers: Dict[int, EnergyLedger] = {}
        metrics = sim.metrics
        metrics.view(Counter, "repro_energy_tx_joules_total",
                     "Radio transmit energy spent, fleet-wide.", (),
                     summed(lambda meter: meter.breakdown(
                         meter.sim.now)["tx"]), self)
        metrics.view(Counter, "repro_energy_rx_joules_total",
                     "Radio receive energy spent, fleet-wide.", (),
                     summed(lambda meter: meter.breakdown(
                         meter.sim.now)["rx"]), self)
        metrics.view(Gauge, "repro_energy_joules",
                     "Accumulated fleet energy by activity "
                     "(refreshed on breakdown()).", ("activity",),
                     merged(lambda meter: meter.breakdown(meter.sim.now)),
                     self)

    def attach(self, mote) -> None:
        """Start metering ``mote``."""
        if mote.node_id in self.ledgers:
            raise ValueError(f"mote {mote.node_id} already metered")
        self.ledgers[mote.node_id] = EnergyLedger(mote, self.sim.now)

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def total_joules(self, now: float, include_idle: bool = True) -> float:
        return sum(ledger.total_joules(now, include_idle=include_idle)
                   for ledger in self.ledgers.values())

    def active_joules(self, now: float) -> float:
        """Radio+CPU energy only — the part protocol design controls."""
        return self.total_joules(now, include_idle=False)

    def max_node_joules(self, now: float,
                        include_idle: bool = True) -> float:
        """Hottest mote — the network's lifetime bound."""
        return max(ledger.total_joules(now, include_idle=include_idle)
                   for ledger in self.ledgers.values())

    def breakdown(self, now: float) -> Dict[str, float]:
        """Fleet-wide energy by activity (joules)."""
        return {
            "tx": sum(l.tx_joules for l in self.ledgers.values()),
            "rx": sum(l.rx_joules for l in self.ledgers.values()),
            "cpu": sum(l.cpu_joules for l in self.ledgers.values()),
            "drain": sum(l.drain_joules for l in self.ledgers.values()),
            "idle": sum(l.idle_joules(now)
                        for l in self.ledgers.values()),
        }

    def drain(self, node_id: int, joules: float) -> None:
        """Inject an external drain on one mote's battery."""
        if joules < 0:
            raise ValueError(f"drain must be >= 0: {joules}")
        self.ledgers[node_id].drain_joules += joules
