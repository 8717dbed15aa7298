"""The ``chaos --profile transport`` experiment: reliable vs raw MTP.

The reliability layer (:mod:`repro.transport.reliability`) claims that
acks + deterministic retransmission + escalation turn the paper's
fire-and-forget MTP into a transport that survives leader crashes and
loss spikes.  This experiment puts a number on that claim.

One fixed application endpoint (node 0, the grid's near corner) invokes
a port on a tracked context whose sensing members sit in the far column,
so every invocation crosses the field by geographic routing.  While the
sender streams invocations, a :class:`~repro.faults.FaultPlan`
repeatedly kills the destination label's current leader (power-cycling
the victim) and a field-wide :class:`~repro.faults.LossSpike` degrades
the channel.  The same seeds run twice — ``raw`` (fire-and-forget, the
paper's scheme) and ``reliable`` (acks + retransmit + escalation) — and
the result reports per-seed delivery ratio, retransmit/ack/dead-letter
counts, and end-to-end duplicates (which at-most-once dedup must keep at
zero).

Everything the workload does (sender ticks, directory re-registration,
fault firing) goes through ``sim.schedule``, so a run's trace digest
depends only on (mode, seed, spec) — the digest-equality test pins
serial == ``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..faults import FaultInjector, FaultPlan, LossSpike, \
    leader_crash_schedule
from ..groups import GroupConfig, GroupManager, Role
from ..naming import DirectoryService, FieldBounds
from ..sensing import SensorField
from ..sim import Simulator, dump_trace, trace_digest
from ..transport import GeoRouter, MtpAgent, ReliabilityConfig
from .chaos import MemberReporter
from .runner import check_repetitions, parallel_map

#: Context type whose leader receives the invocations (and gets killed).
CONTEXT_DST = "txdst"

#: Member-report frame kind for the destination group's weight feeder.
REPORT_KIND = "txchaos.report"

#: The fixed sender's source label (node 0 is its "leader" throughout —
#: the experiment measures transport reliability, not source elections).
SRC_LABEL = "txapp#0.1"

#: Destination port the workload invokes.
APP_PORT = 7

MODES = ("raw", "reliable")

#: The grid (columns × rows, unit spacing) and its radio radius.
COLUMNS = 8
ROWS = 3
COMMUNICATION_RADIUS = 2.5

#: The destination group's heartbeat period.
HEARTBEAT_PERIOD = 0.5

#: Mean seconds between the sender's invocations and between the
#: destination leader's directory registrations (each jittered ±10%).
SEND_PERIOD = 0.4
REGISTER_PERIOD = 1.0

#: Seconds before the destination group's leader is first looked for.
WARMUP = 8.0

#: Seconds between leader crashes, and from a crash to its reboot.
CRASH_PERIOD = 6.0
REBOOT_AFTER = 3.0

#: When the loss spike starts (seconds after the sender's first tick)
#: and how long it lasts.
SPIKE_OFFSET = 3.0
SPIKE_DURATION = 2.0

#: Seconds the run continues after the last send.
DRAIN = 8.0

#: The reliable mode's delivery discipline.
RELIABILITY = ReliabilityConfig(ack_timeout=0.5, jitter=0.25,
                                max_retries=2, max_escalations=4)

#: Every mote's per-attempt directory lookup timeout.
LOOKUP_TIMEOUT = 1.0


@dataclass(frozen=True)
class TransportChaosSpec:
    """One run's complete parameterization (picklable worker input)."""

    mode: str
    seed: int
    base_loss_rate: float = 0.02
    crashes: int = 2
    spike_extra_loss: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}: {self.mode!r}")

    def reliability(self) -> Optional[ReliabilityConfig]:
        return None if self.mode == "raw" else RELIABILITY


@dataclass(frozen=True)
class TransportOutcome:
    """One run's counters (picklable worker output)."""

    mode: str
    seed: int
    sent: int
    delivered: int
    duplicates: int
    retransmits: int
    acks: int
    dead_letters: int
    suppressed: int
    lookup_timeouts: int
    frames: int
    trace_digest: str

    @property
    def delivery_ratio(self) -> Optional[float]:
        if self.sent == 0:
            return None
        return self.delivered / self.sent


@dataclass(frozen=True)
class TransportChaosResult:
    """Paired raw/reliable outcomes across repetitions."""

    outcomes: Tuple[TransportOutcome, ...]

    def outcomes_for(self, mode: str) -> List[TransportOutcome]:
        return [o for o in self.outcomes if o.mode == mode]

    def seeds(self) -> List[int]:
        return sorted({o.seed for o in self.outcomes})

    def delivery_ratio(self, mode: str) -> Optional[float]:
        sent = sum(o.sent for o in self.outcomes_for(mode))
        delivered = sum(o.delivered for o in self.outcomes_for(mode))
        return delivered / sent if sent else None

    def duplicates(self, mode: str) -> int:
        return sum(o.duplicates for o in self.outcomes_for(mode))

    def format_table(self) -> str:
        lines = ["Transport chaos — reliable vs fire-and-forget MTP "
                 "under leader crashes + loss spikes",
                 f"{'mode':>9} {'seed':>6} {'sent':>5} {'deliv':>6} "
                 f"{'ratio':>7} {'dup':>4} {'rexmit':>7} {'acks':>5} "
                 f"{'dead':>5} {'supp':>5} {'dir t/o':>8}"]
        for outcome in sorted(self.outcomes,
                              key=lambda o: (o.seed, o.mode)):
            ratio = outcome.delivery_ratio
            lines.append(
                f"{outcome.mode:>9} {outcome.seed:6d} {outcome.sent:5d} "
                f"{outcome.delivered:6d} "
                f"{(f'{100 * ratio:6.1f}%' if ratio is not None else '    n/a')} "
                f"{outcome.duplicates:4d} {outcome.retransmits:7d} "
                f"{outcome.acks:5d} {outcome.dead_letters:5d} "
                f"{outcome.suppressed:5d} {outcome.lookup_timeouts:8d}")
        for mode in MODES:
            ratio = self.delivery_ratio(mode)
            if ratio is None:
                continue
            lines.append(f"{mode:>9} {'all':>6} aggregate delivery "
                         f"{100 * ratio:5.1f}%  duplicates "
                         f"{self.duplicates(mode)}")
        return "\n".join(lines)


def _transport_run(spec: TransportChaosSpec,
                   trace_out: Optional[str] = None) -> TransportOutcome:
    """One run: build the grid, stream invocations, inject faults;
    ``trace_out`` also writes the run's trace as JSONL."""
    sim = Simulator(seed=spec.seed)
    field = SensorField(sim, communication_radius=COMMUNICATION_RADIUS,
                        base_loss_rate=spec.base_loss_rate)
    motes = field.deploy_grid(COLUMNS, ROWS)
    bounds = FieldBounds(0.0, 0.0, float(COLUMNS - 1), float(ROWS - 1))
    # Sensing members fill the far column, so a crashed leader always has
    # live same-group successors in radio range (takeover material).
    dst_members = {row * COLUMNS + (COLUMNS - 1) for row in range(ROWS)}
    managers: Dict[int, GroupManager] = {}
    agents: Dict[int, MtpAgent] = {}
    directories: Dict[int, DirectoryService] = {}
    received: Dict[int, int] = {}

    def handler(args, src_label, src_port, src_leader) -> None:
        n = args.get("n")
        if isinstance(n, int):
            received[n] = received.get(n, 0) + 1

    for mote in motes:
        router = GeoRouter(mote)
        router.start()
        directory = DirectoryService(mote, router, bounds, hash_margin=1.0,
                                     lookup_timeout=LOOKUP_TIMEOUT)
        directory.start()
        manager = GroupManager(mote)
        manager.track(CONTEXT_DST,
                      lambda m: m.node_id in dst_members,
                      GroupConfig(heartbeat_period=HEARTBEAT_PERIOD,
                                  suppression_range=None))
        manager.start()
        MemberReporter(mote, manager,
                       period=2.0 * HEARTBEAT_PERIOD,
                       context_type=CONTEXT_DST, kind=REPORT_KIND).start()
        agent = MtpAgent(mote, router, manager, directory=directory,
                         reliability=spec.reliability())
        agent.register_port(CONTEXT_DST, APP_PORT, handler)
        agent.start()
        managers[mote.node_id] = manager
        agents[mote.node_id] = agent
        directories[mote.node_id] = directory

    def dst_leader() -> Tuple[Optional[int], Optional[str]]:
        for node_id in sorted(managers):
            manager = managers[node_id]
            if manager.role(CONTEXT_DST) is Role.LEADER:
                return node_id, manager.label(CONTEXT_DST)
        return None, None

    # Warm up until the destination group has an elected leader (bounded,
    # deterministic: extension depends only on this run's event stream).
    sim.run(until=WARMUP)
    for _ in range(20):
        node, label = dst_leader()
        if node is not None and label:
            break
        sim.run(until=sim.now + 1.0)
    else:
        raise RuntimeError(
            f"no {CONTEXT_DST} leader elected by t={sim.now:.1f}")
    target_label = label
    state = {"sent": 0}
    # Deadlines hang off the *actual* clock (warmup may have extended).
    send_end = sim.now + 2.0 + spec.crashes * CRASH_PERIOD
    end = send_end + DRAIN
    # ±10% seeded jitter on the workload periods.  Without it the sender,
    # the registrar and the directory's retry timer phase-lock on common
    # divisors and the same hidden-terminal collision then kills *every*
    # lookup at the same hop — a synthetic artifact, not transport loss.
    jitter = sim.rng.stream("txchaos.jitter")

    def register_tick() -> None:
        node_id, current = dst_leader()
        if node_id is not None and current:
            directories[node_id].register(
                CONTEXT_DST, current, motes[node_id].position, node_id)
        if sim.now + REGISTER_PERIOD <= end:
            sim.schedule(jitter.uniform(0.9, 1.1) * REGISTER_PERIOD,
                         register_tick, label="txchaos.register")

    def send_tick() -> None:
        state["sent"] += 1
        agents[0].invoke(SRC_LABEL, target_label, APP_PORT,
                         {"n": state["sent"]})
        if sim.now + SEND_PERIOD <= send_end:
            sim.schedule(jitter.uniform(0.9, 1.1) * SEND_PERIOD,
                         send_tick, label="txchaos.send")

    # Let the first registration replicate before the first lookup races
    # it (a directory answering "no such type yet" is a legitimate miss,
    # not a failure this experiment means to measure).
    register_tick()
    sim.run(until=sim.now + 2.0)
    injector = FaultInjector(sim, field, managers=managers)
    injector.arm(leader_crash_schedule(
        CONTEXT_DST, start=sim.now + 1.5, period=CRASH_PERIOD,
        count=spec.crashes, reboot_after=REBOOT_AFTER))
    injector.arm(FaultPlan(events=(LossSpike(
        time=sim.now + SPIKE_OFFSET, duration=SPIKE_DURATION,
        extra_loss=spec.spike_extra_loss),)))
    sim.schedule(0.0, send_tick, label="txchaos.send")
    sim.run(until=end)

    if trace_out:
        dump_trace(sim, trace_out)
    timeouts = sim.metrics.get("repro_dir_lookup_timeouts_total")
    return TransportOutcome(
        mode=spec.mode,
        seed=spec.seed,
        sent=state["sent"],
        delivered=sum(1 for count in received.values() if count >= 1),
        duplicates=sum(count - 1 for count in received.values()
                       if count > 1),
        retransmits=sum(a.retransmitted for a in agents.values()),
        acks=sum(a.acked for a in agents.values()),
        dead_letters=sum(a.dead_lettered for a in agents.values()),
        suppressed=sum(1 for _ in sim.trace_records("mtp.duplicate")),
        lookup_timeouts=int(timeouts.value()) if timeouts is not None
        else 0,
        frames=field.medium.stats.frames_sent,
        trace_digest=trace_digest(sim),
    )


def transport_chaos(repetitions: int = 3, seed_base: int = 91,
                    quick: bool = False, jobs: int = 1,
                    trace_out: Optional[str] = None) -> TransportChaosResult:
    """Run raw and reliable MTP over the same seeds; aggregate outcomes.

    ``jobs`` fans the runs out worker-per-(mode, seed); specs are pure
    data, so parallel results equal serial ones.  ``trace_out`` writes
    the first run's trace as JSONL (deterministic serial rerun).
    ``quick`` runs one repetition.
    """
    check_repetitions(repetitions)
    if quick:
        repetitions = 1
    specs = [TransportChaosSpec(mode=mode, seed=seed_base + rep)
             for rep in range(repetitions)
             for mode in MODES]
    outcomes = parallel_map(_transport_run, specs, jobs=jobs)
    if trace_out:
        _transport_run(specs[0], trace_out)
    return TransportChaosResult(outcomes=tuple(outcomes))
