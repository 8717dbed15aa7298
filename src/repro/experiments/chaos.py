"""The ``chaos`` experiment: recovery latency under injected leader crashes.

The paper's robustness story (§5.2/§6.2) is qualitative: receive timers
at 2.1× the heartbeat period recover leadership after "the current
leader fails".  This experiment makes it quantitative.  A line of motes
tracks one stationary stimulus; a :class:`~repro.faults.FaultPlan`
repeatedly kills whichever mote currently leads (power-cycling the
victim after half a crash period so the population does not shrink), and
:func:`~repro.metrics.recovery.analyze_recovery` measures, per crash:

* takeover latency (crash → stable unique live leader on the same label),
* label continuity (the crashed label still served at window end),
* duplicate-leader time (two live leaders of one label).

The sweep crosses heartbeat period × crash period; the §5.2 design bound
``2.1 × heartbeat_period + takeover slack`` is reported next to the
observed latencies, so any protocol regression shows up as a bound
violation rather than a vague slowdown.

Members send lightweight periodic report frames (the role the EnviroTrack
middleware's member reports play) so established labels gain weight and
out-compete labels minted by rebooted creators — without reports every
weight tie would resolve lexicographically, which no deployed system
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import FaultInjector, leader_crash_schedule
from ..groups import GroupConfig, GroupManager, Role
from ..metrics import RecoveryReport, analyze_recovery
from ..metrics.recovery import CrashRecovery
from ..node import Component
from ..radio import reset_frame_ids
from ..sensing import SensorField
from ..sim import Simulator, dump_trace
from .runner import parallel_map

CONTEXT_TYPE = "chaos"
REPORT_KIND = "chaos.report"

#: Scheduling slack on top of the receive timeout: takeover probe rounds
#: (≤ 2 × CLAIM_WINDOW), duplicate resolution by defence/yield, CPU task
#: service.  Keep in sync with the groups.config constants and defaults.
TAKEOVER_SLACK = 0.5


class MemberReporter(Component):
    """Minimal member→leader reporting loop (weight feeder).

    Each mote periodically broadcasts a report naming its current label
    while it is a member; the leader that hears a matching report bumps
    the label's weight via ``note_member_report`` — exactly the paper's
    "number of messages received by the leader from members to date".
    """

    name = "chaosapp"

    def __init__(self, mote, manager: GroupManager, period: float,
                 context_type: str = CONTEXT_TYPE,
                 kind: str = REPORT_KIND) -> None:
        super().__init__(mote)
        self.manager = manager
        self.period = period
        self.context_type = context_type
        self.kind = kind
        self._timer = mote.periodic(period, self._tick,
                                    label="chaos.report")

    def on_start(self) -> None:
        self.handle(self.kind, self._on_report)
        self.mote.add_reboot_hook(self._start_reporting)
        self._start_reporting()

    def _start_reporting(self) -> None:
        self._timer.start(self.sim.rng.stream("chaos.report").uniform(
            0, self.period))

    def _tick(self) -> None:
        label = self.manager.label(self.context_type)
        if label is None \
                or self.manager.role(self.context_type) is not Role.MEMBER:
            return
        self.broadcast(self.kind, label)

    def _on_report(self, frame) -> None:
        label = frame.payload
        if isinstance(label, str):
            self.manager.note_member_report(self.context_type, label)


@dataclass(frozen=True)
class ChaosPoint:
    """One (heartbeat period, crash period) cell of the sweep."""

    heartbeat_period: float
    crash_period: float
    runs: int
    report: RecoveryReport

    @property
    def latency_bound(self) -> float:
        """§5.2 design bound: receive timeout + takeover slack."""
        return 2.1 * self.heartbeat_period + TAKEOVER_SLACK

    @property
    def within_bound_rate(self) -> Optional[float]:
        latencies = self.report.latencies()
        if not latencies:
            return None
        bound = self.latency_bound
        return sum(1 for value in latencies if value <= bound) \
            / len(latencies)


@dataclass(frozen=True)
class ChaosResult:
    """Recovery-latency sweep over heartbeat period × crash period."""

    points: List[ChaosPoint]

    def point(self, heartbeat_period: float,
              crash_period: float) -> ChaosPoint:
        for candidate in self.points:
            if (candidate.heartbeat_period == heartbeat_period
                    and candidate.crash_period == crash_period):
                return candidate
        raise KeyError((heartbeat_period, crash_period))

    def series(self, crash_period: float) -> List[Tuple[float, float]]:
        """(heartbeat period, mean takeover latency) for one crash rate."""
        pairs = [(p.heartbeat_period, p.report.mean_latency)
                 for p in self.points if p.crash_period == crash_period
                 and p.report.mean_latency is not None]
        return sorted(pairs)

    def crash_periods(self) -> List[float]:
        return sorted({p.crash_period for p in self.points})

    def heartbeat_periods(self) -> List[float]:
        return sorted({p.heartbeat_period for p in self.points})

    def format_table(self) -> str:
        lines = ["Chaos — leader-crash recovery latency "
                 "(bound = 2.1 x HB period + takeover slack)",
                 f"{'HB (s)':>7} {'crash every':>12} {'crashes':>8} "
                 f"{'recovered':>10} {'mean lat':>9} {'p95 lat':>8} "
                 f"{'bound':>6} {'<bound':>7} {'continuity':>11} "
                 f"{'dup time':>9}"]
        for point in sorted(self.points,
                            key=lambda p: (p.heartbeat_period,
                                           p.crash_period)):
            report = point.report
            mean = report.mean_latency
            p95 = report.p95_latency
            within = point.within_bound_rate
            continuity = report.continuity_rate
            lines.append(
                f"{point.heartbeat_period:7.2f} "
                f"{point.crash_period:10.1f}s "
                f"{report.crash_count:8d} "
                f"{report.recovered_count:10d} "
                f"{(f'{mean:8.3f}s' if mean is not None else '     n/a')} "
                f"{(f'{p95:7.3f}s' if p95 is not None else '    n/a')} "
                f"{point.latency_bound:5.2f}s "
                f"{(f'{100 * within:5.0f}%' if within is not None else '   n/a'):>7} "
                f"{(f'{100 * continuity:9.0f}%' if continuity is not None else '      n/a'):>11} "
                f"{report.total_duplicate_time:8.3f}s")
        return "\n".join(lines)


def _chaos_run(seed: int, heartbeat_period: float, crash_period: float,
               crashes: int, base_loss_rate: float,
               mote_count: int, sensing_count: int,
               trace_out: Optional[str] = None) -> RecoveryReport:
    """One chaos run: build the line deployment, arm the plan, measure."""
    # Frame ids restart per run so traces depend only on this run's
    # parameters — not on prior runs or on which sweep worker ran it.
    reset_frame_ids()
    sim = Simulator(seed=seed)
    field = SensorField(sim, communication_radius=10.0,
                        base_loss_rate=base_loss_rate)
    sensing_ids = set(range(sensing_count))
    managers: Dict[int, GroupManager] = {}
    for i in range(mote_count):
        mote = field.add_mote((float(i), 0.0))
        manager = GroupManager(mote)
        manager.track(CONTEXT_TYPE,
                      lambda m: m.node_id in sensing_ids,
                      GroupConfig(heartbeat_period=heartbeat_period,
                                  suppression_range=None))
        manager.start()
        reporter = MemberReporter(mote, manager,
                                  period=2.0 * heartbeat_period)
        reporter.start()
        managers[i] = manager
    # Warm up long enough for a leader to be elected and gain weight.
    start = 2.0 + 4.0 * heartbeat_period
    injector = FaultInjector(sim, field, managers=managers)
    injector.arm(leader_crash_schedule(
        CONTEXT_TYPE, start=start, period=crash_period, count=crashes,
        reboot_after=crash_period / 2.0))
    sim.run(until=start + crashes * crash_period)
    if trace_out:
        dump_trace(sim, trace_out)
    return analyze_recovery(sim, CONTEXT_TYPE,
                            stability=0.5 * heartbeat_period)


def _chaos_task(task: Tuple[int, float, float, int, float, int, int]
                ) -> RecoveryReport:
    """Worker entry point: one (seed, cell-parameters) chaos run."""
    (seed, heartbeat_period, crash_period, crashes, base_loss_rate,
     mote_count, sensing_count) = task
    return _chaos_run(seed, heartbeat_period, crash_period, crashes,
                      base_loss_rate, mote_count, sensing_count)


def chaos(heartbeat_periods: Optional[Sequence[float]] = None,
          crash_periods: Optional[Sequence[float]] = None,
          repetitions: int = 3, crashes_per_run: int = 4,
          base_loss_rate: float = 0.1, mote_count: int = 10,
          sensing_count: int = 4, seed_base: int = 70,
          quick: bool = False, jobs: int = 1,
          trace_out: Optional[str] = None) -> ChaosResult:
    """Sweep crash rate × heartbeat period; aggregate recovery stats.

    Each sweep cell merges the per-crash measurements of ``repetitions``
    independent runs into one :class:`RecoveryReport`.  ``jobs`` fans the
    individual runs out worker-per-seed; seeds depend only on the cell
    index and repetition, so parallel results equal serial ones.
    ``trace_out`` writes the first run's trace as JSONL (deterministic
    serial rerun; frame ids reset per run, so it matches the sweep's).
    """
    if heartbeat_periods is None:
        heartbeat_periods = (0.25, 0.5) if quick else (0.25, 0.5, 1.0)
    if crash_periods is None:
        crash_periods = (4.0,) if quick else (4.0, 8.0)
    if quick:
        repetitions = 1
        crashes_per_run = min(crashes_per_run, 3)
    cells = [(heartbeat_period, crash_period)
             for heartbeat_period in heartbeat_periods
             for crash_period in crash_periods]
    tasks = [(seed_base + 1000 * cell_index + rep, heartbeat_period,
              crash_period, crashes_per_run, base_loss_rate, mote_count,
              sensing_count)
             for cell_index, (heartbeat_period, crash_period)
             in enumerate(cells)
             for rep in range(repetitions)]
    reports = parallel_map(_chaos_task, tasks, jobs=jobs)
    if trace_out:
        _chaos_run(*tasks[0], trace_out=trace_out)
    points: List[ChaosPoint] = []
    for cell_index, (heartbeat_period, crash_period) in enumerate(cells):
        merged: List[CrashRecovery] = []
        for report in reports[cell_index * repetitions:
                              (cell_index + 1) * repetitions]:
            merged.extend(report.crashes)
        points.append(ChaosPoint(
            heartbeat_period=heartbeat_period,
            crash_period=crash_period, runs=repetitions,
            report=RecoveryReport(context_type=CONTEXT_TYPE,
                                  crashes=tuple(merged))))
    return ChaosResult(points=points)
