"""Canonical evaluation scenarios.

The paper's testbed (§6.1): a rectangular grid of motes at integer
coordinates (1 grid unit ≙ 140 m at the case study's 1000:1 scale), a
tank-like target crossing on the horizontal line ``y = 0.5``, a single
``tracker`` context type declared exactly as in Figure 2 (average position,
confidence 2, freshness 1 s, 5 s report timer), and a base station logging
reports.  The stress tests (§6.2) reuse the same rig with varying speed,
heartbeat period, sensing radius and communication radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..aggregation import AggregateVarSpec
from ..core import (ContextTypeDef, EnviroTrackApp, MethodDef,
                    TimerInvocation, TrackingObjectDef)
from ..groups import GroupConfig
from ..metrics import (CommunicationMetrics, HandoverStats,
                       TrajectoryComparison, analyze_handovers,
                       communication_metrics, compare_track,
                       tracking_coverage)
from ..radio import reset_frame_ids
from ..sensing import LineTrajectory, Target

#: The paper's emulated T-72 speeds: 10 s/hop (50 km/hr) and 15 s/hop
#: (33 km/hr) at the 1000:1 scale with 140 m grid spacing.
SPEED_50_KMH = 1.0 / 10.0
SPEED_33_KMH = 1.0 / 15.0


@dataclass(frozen=True)
class TankScenario:
    """Parameters of one tank-tracking run.

    Defaults reproduce the §6.1 case study; the stress benches override
    speed, heartbeat period, radii and the relinquish/takeover mode.
    """

    columns: int = 12
    rows: int = 2
    speed: float = SPEED_50_KMH           # hops/second
    sensing_radius: float = 1.0           # grid units
    communication_radius: float = 6.0     # grid units
    heartbeat_period: float = 0.5
    heartbeat_tx_range: Optional[float] = None
    relinquish: bool = True
    member_rebroadcast: bool = True
    flood_hops: int = 0
    base_loss_rate: float = 0.05
    #: Soft reception edge (see repro.radio.Medium); 1.0/0.0 = sharp disk.
    soft_edge_start: float = 1.0
    soft_edge_loss: float = 0.0
    task_cost: float = 0.001
    cpu_queue_limit: int = 64
    confidence: int = 2
    freshness: float = 1.0
    report_timer: float = 5.0
    start_margin: float = 1.5             # hops outside the grid
    #: Uniform per-axis placement error (grid units).  0 = perfect grid.
    #: The Figure 4 experiment uses a jittered deployment so that
    #: heartbeat reach relative to the sensing perimeter varies
    #: continuously, as on the physical testbed.
    deployment_jitter: float = 0.0
    with_base_station: bool = True
    enable_transport: bool = False
    leader_kill_times: Tuple[float, ...] = field(default_factory=tuple)
    seed: int = 0

    @property
    def track_y(self) -> float:
        """The Figure 3 run crosses between the two mote rows at y=0.5."""
        return (self.rows - 1) / 2.0

    @property
    def entry_time(self) -> float:
        """When the target's signature first reaches the grid (x ≥ 0)."""
        return max(0.0,
                   (self.start_margin - self.sensing_radius) / self.speed)

    @property
    def exit_time(self) -> float:
        """When the signature clears the far edge of the grid."""
        return (self.start_margin + (self.columns - 1)
                + self.sensing_radius) / self.speed

    @property
    def duration(self) -> float:
        return self.exit_time + 2.0

    def with_speed(self, speed: float) -> "TankScenario":
        return replace(self, speed=speed)

    def with_seed(self, seed: int) -> "TankScenario":
        return replace(self, seed=seed)


@dataclass
class TankRunResult:
    """Everything the figure/table analyses need from one run."""

    scenario: TankScenario
    app: EnviroTrackApp
    handovers: HandoverStats
    communication: CommunicationMetrics
    comparison: Optional[TrajectoryComparison]
    coverage: float

    @property
    def coherent(self) -> bool:
        """Single-group abstraction maintained AND the target was actually
        tracked across its traversal (an escaped target that is never
        rediscovered also breaks tracking)."""
        return (self.handovers.coherent
                and len(self.handovers.effective_labels()) == 1
                and self.coverage >= 0.9)


def build_tracker_definition(scenario: TankScenario) -> ContextTypeDef:
    """The Figure 2 context declaration, parameterized by the scenario."""

    def report(ctx) -> None:
        result = ctx.read("location")
        if result.valid:
            ctx.my_send({"location": result.value})

    group = GroupConfig(
        heartbeat_period=scenario.heartbeat_period,
        heartbeat_tx_range=scenario.heartbeat_tx_range,
        relinquish=scenario.relinquish,
        member_rebroadcast=scenario.member_rebroadcast,
        flood_hops=scenario.flood_hops,
        suppression_range=2.0 * scenario.sensing_radius + 0.5,
    )
    return ContextTypeDef(
        name="tracker",
        activation="tank_detect",
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=scenario.confidence,
                                     freshness=scenario.freshness)],
        objects=[TrackingObjectDef("reporter", [
            MethodDef("report_function",
                      TimerInvocation(scenario.report_timer), report)])],
        group=group,
        delay_estimate=0.1,
    )


def build_app(scenario: TankScenario) -> EnviroTrackApp:
    """Assemble (but do not run) the scenario's deployment."""
    app = EnviroTrackApp(
        seed=scenario.seed,
        communication_radius=scenario.communication_radius,
        base_loss_rate=scenario.base_loss_rate,
        soft_edge_start=scenario.soft_edge_start,
        soft_edge_loss=scenario.soft_edge_loss,
        task_cost=scenario.task_cost,
        cpu_queue_limit=scenario.cpu_queue_limit,
        enable_transport=scenario.enable_transport,
    )
    if scenario.deployment_jitter > 0:
        app.field.deploy_jittered_grid(scenario.columns, scenario.rows,
                                       jitter=scenario.deployment_jitter)
    else:
        app.field.deploy_grid(scenario.columns, scenario.rows)
    start = (-scenario.start_margin, scenario.track_y)
    app.field.add_target(Target(
        name="tank", kind="vehicle",
        trajectory=LineTrajectory(start, scenario.speed),
        signature_radius=scenario.sensing_radius))
    app.field.install_detection_sensors("tank_detect", kinds=["vehicle"])
    app.add_context_type(build_tracker_definition(scenario))
    if scenario.with_base_station:
        app.place_base_station((-1.0, -2.0))
    return app


def run_tank_scenario(scenario: TankScenario) -> TankRunResult:
    """Run the scenario to completion and analyze the trace."""
    # Frame ids restart per run so the trace depends only on the scenario
    # and seed — not on prior runs in this process or on which worker of
    # a parallel sweep executed it.
    reset_frame_ids()
    app = build_app(scenario)
    app.install()
    target = app.field.target("tank")
    if scenario.leader_kill_times:
        for kill_time in scenario.leader_kill_times:
            app.sim.schedule_at(kill_time, _kill_current_leader, app)
    app.run(until=scenario.duration)
    # Grace for effective labels: a few heartbeat periods (suppression of
    # an entry race completes within about one), clamped so very short
    # fast-target runs can still produce an effective label at all.
    traversal = scenario.exit_time - scenario.entry_time
    grace = min(max(3.0 * scenario.heartbeat_period, 1.0),
                max(0.5, 0.3 * traversal))
    handovers = analyze_handovers(app.sim, "tracker", grace=grace)
    comm = communication_metrics(app.field.medium, app.sim.now)
    comparison = None
    if app.base_station is not None:
        labels = app.base_station.labels_seen()
        if labels:
            # Merge all labels' reports into one track (Figure 3 plots the
            # reported trajectory regardless of label identity).
            merged = []
            for label in labels:
                merged.extend(app.base_station.track(label))
            merged.sort()
            comparison = compare_track(merged, target.position)
    # Judge coverage over the middle of the traversal, skipping the
    # formation transient at entry and the teardown at exit.  For fast
    # targets the traversal is short, so the margins scale down with it.
    span = scenario.exit_time - scenario.entry_time
    cov_start = scenario.entry_time + min(2.0, 0.25 * span)
    cov_end = scenario.exit_time - min(1.0, 0.1 * span)
    coverage = tracking_coverage(
        app.sim, "tracker", start=cov_start, end=cov_end,
        max_gap=max(1.0, 3.0 * scenario.heartbeat_period))
    return TankRunResult(scenario=scenario, app=app, handovers=handovers,
                         communication=comm, comparison=comparison,
                         coverage=coverage)


def _kill_current_leader(app: EnviroTrackApp) -> None:
    """Failure injection: crash whichever node currently leads the tank's
    label (the Figure 5 'current leader fails' worst case)."""
    for node_id, agent in app.agents.items():
        if agent.groups.is_leading("tracker"):
            app.field.fail_node(node_id)
            return
