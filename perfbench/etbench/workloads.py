"""The benchmark's workloads, built only from the library's public API.

Every workload is a class whose :meth:`unit` builds one deployment from
the workload seed, runs it to the end, analyses it and checks the result.
A unit returns a :class:`Unit`: host times (``setup_s``, ``run_s``),
identity fields that a pure speed-up must leave unchanged
(``trace_digest``, the simulated event count, ``frames_sent``), simulated
metrics that repeat exactly for a seed, and the correctness checks that
failed.  ``size="small"`` shrinks each workload for the self-tests.

* ``border-strip`` — one large multi-tank tracking run (§6.1 border slice).
* ``transport-storm`` — concurrent reliable MTP streams under leader
  crashes and a loss spike.
* ``seed-sweep`` — about a hundred distinct §6.1 case-study runs through
  :func:`repro.experiments.runner.run_scenarios` on two worker processes.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from unittest import mock

from repro import (AggregateVarSpec, ContextTypeDef, DirectoryService,
                   EnviroTrackApp, FieldBounds, GeoRouter, GroupConfig,
                   GroupManager, LineTrajectory, MethodDef, MtpAgent, Role,
                   SensorField, Simulator, Target, TimerInvocation,
                   TrackingObjectDef)
from repro import metrics as repro_metrics
from repro import sim as repro_sim
from repro.experiments import runner, scenarios
from repro.experiments.chaos import MemberReporter
from repro.experiments.runner import ScenarioOutcome, derive_run_seed
from repro.experiments.scenarios import SPEED_33_KMH, SPEED_50_KMH, \
    TankScenario
from repro.faults import FaultInjector, FaultPlan, LossSpike, \
    leader_crash_schedule
from repro.radio import reset_frame_ids
from repro.transport import ReliabilityConfig

from .tracing import LayerTracer, merge_raw

#: Workers for ``seed-sweep``: the reference machine has two cores.
SWEEP_JOBS = 2


def percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or None unless at least ten samples
    lie beyond it (the benchmark's reporting rule for tail latencies)."""
    n = len(values)
    rank = max(1, math.ceil(round(q * n, 9)))  # 1-based nearest rank
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def latency_summary(prefix: str, values: List[float]) -> Dict[str, Any]:
    """``<prefix>_p50_s``, ``<prefix>_p90_s`` and the sample count."""
    return {f"{prefix}_p50_s": (statistics.median(values) if values
                                else None),
            f"{prefix}_p90_s": percentile(values, 0.9),
            f"{prefix}_samples": len(values)}


@dataclass
class Unit:
    """One measured build-and-run of a workload."""

    setup_s: float
    run_s: float
    identity: Dict[str, Any]
    sim: Dict[str, Any]
    failures: List[str]
    #: seed-sweep only: per-task host seconds, and the largest peak RSS
    #: (MiB) of the worker processes.
    task_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Per-layer raw quantities when the unit ran traced.
    layers: Optional[Dict[str, float]] = None


def _check(failures: List[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


class Workload:
    """Common workload surface: ``unit()`` for an untraced measurement,
    ``traced_unit()`` for the same inputs under a :class:`LayerTracer`."""

    name = ""

    def unit(self) -> Unit:
        raise NotImplementedError

    def build(self) -> Any:
        raise NotImplementedError

    def setup_only(self) -> float:
        """Time one extra build-and-install; the deployment is discarded."""
        started = time.perf_counter()
        self.build()
        return time.perf_counter() - started

    def verify(self) -> List[str]:
        """Checks that need more than one unit; failures as messages."""
        return []

    def traced_unit(self) -> Tuple[Unit, Dict[str, float],
                                   Optional[LayerTracer]]:
        with LayerTracer() as tracer:
            unit = self.unit()
        return unit, tracer.raw(), tracer


# ----------------------------------------------------------------------
# border-strip
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TankPath:
    """A tank crossing the strip: straight from ``start`` to ``end``."""

    name: str
    start: Tuple[float, float]
    end: Tuple[float, float]
    speed: float
    active_from: float

    @property
    def duration(self) -> float:
        return math.dist(self.start, self.end) / self.speed

    def target(self) -> Target:
        heading = math.atan2(self.end[1] - self.start[1],
                             self.end[0] - self.start[0])
        # LineTrajectory is anchored at t=0; back-date the origin so the
        # tank stands at ``start`` exactly when it becomes active.
        lead = self.speed * self.active_from
        origin = (self.start[0] - lead * math.cos(heading),
                  self.start[1] - lead * math.sin(heading))
        return Target(self.name, "vehicle",
                      LineTrajectory(origin, self.speed, heading=heading),
                      signature_radius=1.0,
                      active_from=self.active_from,
                      active_until=self.active_from + self.duration)


class BorderStrip(Workload):
    """Tanks crossing the short side of a jittered border strip.

    Figure 2's ``tracker`` context (avg position, confidence 2, freshness
    1 s) with the suppression and join ranges a multi-target deployment
    needs; directory and MTP on; a base station off the long edge.  Tanks
    run at the paper's 50 and 33 km/h, staggered in column and start
    time, and two of the paths cross.
    """

    name = "border-strip"
    #: Leader report timer; shorter than §6.1's 5 s so a run yields the
    #: hundred-plus report latencies a p90 needs.
    report_period = 1.0

    def __init__(self, seed: int, size: str = "full",
                 out_dir: Optional[str] = None) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.columns, self.rows = (40, 4) if size == "full" else (16, 3)
        low, high = -1.2, self.rows - 1 + 1.2
        if size == "full":
            self.tanks = (
                TankPath("tank1", (4.0, low), (4.0, high), SPEED_50_KMH, 0.0),
                TankPath("tank2", (13.0, high), (13.0, low), SPEED_33_KMH,
                         0.0),
                # The crossing pair: the paths meet mid-strip, 12 s apart.
                TankPath("tank3", (20.0, low), (24.0, high), SPEED_50_KMH,
                         0.0),
                TankPath("tank4", (24.0, low), (20.0, high), SPEED_50_KMH,
                         12.0),
                TankPath("tank5", (33.0, low), (33.0, high), SPEED_33_KMH,
                         2.0),
            )
        else:
            self.tanks = (
                TankPath("tank1", (3.0, low), (6.0, high), SPEED_50_KMH, 0.0),
                TankPath("tank2", (6.0, low), (3.0, high), SPEED_50_KMH,
                         12.0),
                TankPath("tank3", (12.0, high), (12.0, low), SPEED_33_KMH,
                         2.0),
            )
        self.duration = max(t.active_from + t.duration
                            for t in self.tanks) + 2.0

    def build(self) -> Tuple[EnviroTrackApp, List[Tuple[int, float, str]]]:
        """The deployment, installed; plus the list the report method
        appends each ``my_send`` attempt to."""
        reset_frame_ids()
        attempts: List[Tuple[int, float, str]] = []

        def report(ctx) -> None:
            result = ctx.read("location")
            if result.valid:
                attempts.append((ctx.node_id, ctx.now, ctx.label))
                ctx.my_send({"location": result.value})

        app = EnviroTrackApp(seed=self.seed, communication_radius=6.0,
                             base_loss_rate=0.05)
        app.field.deploy_jittered_grid(self.columns, self.rows, jitter=0.2)
        for tank in self.tanks:
            app.field.add_target(tank.target())
        app.field.install_detection_sensors("tank_detect",
                                            kinds=["vehicle"])
        app.add_context_type(ContextTypeDef(
            name="tracker", activation="tank_detect",
            aggregates=[AggregateVarSpec("location", "avg", "position",
                                         confidence=2, freshness=1.0)],
            objects=[TrackingObjectDef("reporter", [
                MethodDef("report_function",
                          TimerInvocation(self.report_period),
                          report)])],
            group=GroupConfig(heartbeat_period=0.5, suppression_range=2.5,
                              join_range=2.0),
            delay_estimate=0.1))
        app.place_base_station(((self.columns - 1) / 2.0, -2.0))
        app.install()
        return app, attempts

    def unit(self) -> Unit:
        started = time.perf_counter()
        app, attempts = self.build()
        built = time.perf_counter()
        app.run(until=self.duration)
        sim_metrics, failures = self._analyse(app, attempts)
        digest = repro_sim.trace_digest(app.sim)
        if self.out_dir is not None:
            path = os.path.join(self.out_dir, "border-strip.trace.jsonl")
            written = repro_sim.dump_trace(app.sim, path)
            _check(failures, written == len(app.sim.trace),
                   "trace dump wrote a different record count")
        finished = time.perf_counter()
        return Unit(setup_s=built - started, run_s=finished - built,
                    identity={"trace_digest": digest,
                              "events": app.sim.events_fired,
                              "frames_sent":
                                  app.field.medium.stats.frames_sent},
                    sim=sim_metrics, failures=failures)

    def _analyse(self, app: EnviroTrackApp,
                 attempts: List[Tuple[int, float, str]]
                 ) -> Tuple[Dict[str, Any], List[str]]:
        failures: List[str] = []
        sim = app.sim
        handovers = repro_metrics.analyze_handovers(sim, "tracker",
                                                    grace=1.5)
        table1 = repro_metrics.communication_metrics(app.field.medium,
                                                     sim.now)
        reports = app.base_station.reports
        sent = {(node, when): label for node, when, label in attempts}
        received = [(r.reporter, r.reported_at) for r in reports]
        _check(failures, len(set(received)) == len(received),
               "a report reached the base station twice")
        _check(failures, all(key in sent and sent[key] == r.label
                             for key, r in zip(received, reports)),
               "the base station holds a report no leader sent")
        latencies = [r.received_at - r.reported_at for r in reports]
        _check(failures, all(lat >= 0 for lat in latencies),
               "a report arrived before it was sent")
        # Match each label to the tank nearest its reported positions.
        tanks = {tank.name: app.field.target(tank.name)
                 for tank in self.tanks}
        owner: Dict[str, str] = {}
        for label in app.base_station.labels_seen():
            track = app.base_station.track(label)
            if not track:
                continue
            owner[label] = min(tanks, key=lambda name: sum(
                math.dist(point, tanks[name].position(when))
                for when, point in track))
        effective = set(handovers.effective_labels())
        integrity, errors = 0, []
        for name, target in tanks.items():
            labels = [label for label, tank in owner.items()
                      if tank == name]
            if len([label for label in labels if label in effective]) == 1:
                integrity += 1
            merged = sorted(point for label in labels
                            for point in app.base_station.track(label))
            if merged:  # a tank whose label another tank took has none
                errors.append(repro_metrics.compare_track(
                    merged, target.position).mean_error)
        sim_metrics: Dict[str, Any] = {
            "error_rate": (1.0 - len(reports) / len(attempts)
                           if attempts else None),
            "operations": len(attempts),
            "targets": len(tanks),
            "label_integrity": integrity / len(tanks),
            "track_error": (statistics.fmean(errors) if errors else None),
            "labels_created": handovers.labels_created,
            "heartbeat_loss_pct": table1.heartbeat_loss_pct,
        }
        sim_metrics.update(latency_summary("report_latency", latencies))
        _check(failures, bool(attempts), "no leader ever reported")
        return sim_metrics, failures


# ----------------------------------------------------------------------
# transport-storm
# ----------------------------------------------------------------------
class TransportStorm(Workload):
    """Concurrent reliable MTP invocation streams across a grid.

    Each stream has its own source node in the near column and its own
    stationary destination group in the far columns.  Scripted leader
    crashes hit the destination groups and a field-wide loss spike runs
    while the streams send.  Built from public classes so the benchmark
    can timestamp every invocation's send and first handler delivery.
    """

    name = "transport-storm"
    send_period = 0.4
    register_period = 1.0

    def __init__(self, seed: int, size: str = "full",
                 out_dir: Optional[str] = None) -> None:
        self.seed = seed
        if size == "full":
            self.columns, self.rows, self.streams = 10, 6, 3
            self.send_window = 20.0
        else:
            self.columns, self.rows, self.streams = 8, 4, 2
            self.send_window = 6.0

    def _dst_members(self, stream: int) -> set:
        rows = [row % self.rows for row in (2 * stream, 2 * stream + 1)]
        return {row * self.columns + col for row in rows
                for col in (self.columns - 2, self.columns - 1)}

    def _source(self, stream: int) -> int:
        return ((2 * stream) % self.rows) * self.columns

    def build(self) -> Dict[str, Any]:
        reset_frame_ids()
        sim = Simulator(seed=self.seed)
        field_ = SensorField(sim, communication_radius=2.5,
                             base_loss_rate=0.02)
        motes = field_.deploy_grid(self.columns, self.rows)
        bounds = FieldBounds(0.0, 0.0, float(self.columns - 1),
                             float(self.rows - 1))
        reliability = ReliabilityConfig(ack_timeout=0.5, jitter=0.25,
                                        max_retries=2, max_escalations=4)
        state: Dict[str, Any] = {
            "sim": sim, "field": field_, "motes": motes, "managers": {},
            "agents": {}, "directories": {}, "sent": {}, "delivered": {},
            "deliveries": 0}
        members = [self._dst_members(i) for i in range(self.streams)]

        def handler_for(stream: int):
            def handler(args, src_label, src_port, src_leader) -> None:
                key = (stream, args.get("n"))
                state["deliveries"] += 1
                state["delivered"].setdefault(key, sim.now)
            return handler

        for mote in motes:
            router = GeoRouter(mote)
            router.start()
            directory = DirectoryService(mote, router, bounds,
                                         hash_margin=1.0, lookup_timeout=1.0)
            directory.start()
            manager = GroupManager(mote)
            for i in range(self.streams):
                manager.track(f"dst{i}",
                              lambda m, group=members[i]:
                              m.node_id in group,
                              GroupConfig(heartbeat_period=0.5,
                                          suppression_range=None))
            manager.start()
            for i in range(self.streams):
                MemberReporter(mote, manager, period=1.0,
                               context_type=f"dst{i}",
                               kind=f"bench.report.dst{i}").start()
            agent = MtpAgent(mote, router, manager, directory=directory,
                             reliability=reliability)
            for i in range(self.streams):
                agent.register_port(f"dst{i}", 7, handler_for(i))
            agent.start()
            state["managers"][mote.node_id] = manager
            state["agents"][mote.node_id] = agent
            state["directories"][mote.node_id] = directory
        return state

    def _leader(self, state: Dict[str, Any],
                context_type: str) -> Tuple[Optional[int], Optional[str]]:
        for node_id in sorted(state["managers"]):
            manager = state["managers"][node_id]
            if state["motes"][node_id].alive \
                    and manager.role(context_type) is Role.LEADER:
                return node_id, manager.label(context_type)
        return None, None

    def unit(self) -> Unit:
        started = time.perf_counter()
        state = self.build()
        built = time.perf_counter()
        sim: Simulator = state["sim"]
        types = [f"dst{i}" for i in range(self.streams)]
        sim.run(until=8.0)
        labels: Dict[str, str] = {}
        for _ in range(20):
            for context_type in types:
                node, label = self._leader(state, context_type)
                if node is not None and label:
                    labels.setdefault(context_type, label)
            if len(labels) == len(types):
                break
            sim.run(until=sim.now + 1.0)
        else:
            raise RuntimeError(f"destination leaders missing at "
                               f"t={sim.now:.1f}: {sorted(labels)}")
        send_end = sim.now + 2.0 + self.send_window
        end = send_end + 8.0
        jitter = sim.rng.stream("bench.jitter")

        def register_tick() -> None:
            for context_type in types:
                node_id, current = self._leader(state, context_type)
                if node_id is not None and current:
                    state["directories"][node_id].register(
                        context_type, current,
                        state["motes"][node_id].position, node_id)
            if sim.now + self.register_period <= end:
                sim.schedule(jitter.uniform(0.9, 1.1) * self.register_period,
                             register_tick, label="bench.register")

        def send_tick(stream: int, n: int) -> None:
            state["sent"][(stream, n)] = sim.now
            state["agents"][self._source(stream)].invoke(
                f"src{stream}#0.1", labels[f"dst{stream}"], 7, {"n": n})
            if sim.now + self.send_period <= send_end:
                sim.schedule(jitter.uniform(0.9, 1.1) * self.send_period,
                             send_tick, stream, n + 1, label="bench.send")

        register_tick()
        sim.run(until=sim.now + 2.0)
        injector = FaultInjector(sim, state["field"],
                                 managers=state["managers"])
        crash_period = self.send_window / 2.0
        for i, context_type in enumerate(types[:2]):
            injector.arm(leader_crash_schedule(
                context_type, start=sim.now + 1.5 + i * 2.0,
                period=crash_period, count=2, reboot_after=3.0))
        injector.arm(FaultPlan(events=(LossSpike(
            time=sim.now + 3.0, duration=2.0, extra_loss=0.5),)))
        for stream in range(self.streams):
            sim.schedule(0.1 * stream, send_tick, stream, 1,
                         label="bench.send")
        sim.run(until=end)
        sim_metrics, failures = self._analyse(state)
        digest = repro_sim.trace_digest(sim)
        finished = time.perf_counter()
        return Unit(setup_s=built - started, run_s=finished - built,
                    identity={"trace_digest": digest,
                              "events": sim.events_fired,
                              "frames_sent":
                                  state["field"].medium.stats.frames_sent},
                    sim=sim_metrics, failures=failures)

    def _analyse(self, state: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], List[str]]:
        failures: List[str] = []
        sent, delivered = state["sent"], state["delivered"]
        agents = state["agents"].values()
        # The benchmark's tally of handler runs must match what the MTP
        # agents report delivering.  A second run of one invocation's
        # handler (possible when a crash wipes a leader's dedup memory)
        # is reported as ``duplicates``, not treated as a tally error.
        _check(failures,
               state["deliveries"] == sum(a.delivered for a in agents),
               "the handler-run tally disagrees with the MTP agents' "
               "delivery counters")
        _check(failures, set(delivered) <= set(sent),
               "a handler ran for an invocation nobody sent")
        latencies = [delivered[key] - sent[key] for key in delivered
                     if key in sent]
        _check(failures, all(lat >= 0 for lat in latencies),
               "an invocation was handled before it was sent")
        _check(failures, bool(sent), "no invocation was sent")
        sim_metrics: Dict[str, Any] = {
            "error_rate": (1.0 - len(delivered) / len(sent) if sent
                           else None),
            "operations": len(sent),
            "duplicates": state["deliveries"] - len(delivered),
            "retransmits": sum(a.retransmitted for a in agents),
            "dead_letters": sum(a.dead_lettered for a in agents),
        }
        sim_metrics.update(latency_summary("invoke_latency", latencies))
        return sim_metrics, failures


# ----------------------------------------------------------------------
# seed-sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TimedOutcome(ScenarioOutcome):
    """A scenario outcome plus its event count and the worker-side host
    timing of its task."""

    events: int = 0
    started: float = 0.0
    host_s: float = 0.0
    peak_rss_kb: int = 0
    layers: Optional[Dict[str, float]] = None


def timed_task(scenario: TankScenario, traced: bool) -> TimedOutcome:
    """Worker entry point: run and reduce one scenario, as
    ``run_scenario_outcome`` does, timing it on the worker.

    ``time.monotonic`` is one system-wide clock on the platforms the
    benchmark runs on, so the parent can compare ``started`` with its
    own clock to measure pool start-up.
    """
    started = time.monotonic()
    layers = None
    if traced:
        with LayerTracer() as tracer:
            run = scenarios.run_tank_scenario(scenario)
            outcome = runner.reduce_run(run)
        layers = tracer.raw()
    else:
        run = scenarios.run_tank_scenario(scenario)
        outcome = runner.reduce_run(run)
    host_s = time.monotonic() - started
    values = {name: getattr(outcome, name)
              for name in ScenarioOutcome.__dataclass_fields__}
    return TimedOutcome(
        **values, events=run.app.sim.events_fired, started=started,
        host_s=host_s, layers=layers,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def check_sweep(specs: List[TankScenario], outcomes: List[TimedOutcome]
                ) -> Tuple[List[str], int]:
    """Correctness of one sweep: outcomes in spec order, and every run
    tracked its tank.  Returns the failures and the failed-run count."""
    failures: List[str] = []
    _check(failures, [o.scenario for o in outcomes] == specs,
           "sweep outcomes are out of order or missing")
    failed = 0
    for outcome in outcomes:
        tracked = (outcome.labels_created >= 1
                   and outcome.effective_labels >= 1
                   and 0.0 <= outcome.coverage <= 1.0)
        failed += not tracked
        _check(failures, tracked, f"scenario seed {outcome.scenario.seed}: "
                                  f"the tank was not tracked")
    return failures, failed


class SeedSweep(Workload):
    """Distinct §6.1 case-study runs (TankScenario defaults: a 12×2 grid
    and one tank) through ``run_scenarios(jobs=2)``.

    A unit is one sweep over speed × heartbeat period × seeds; the seeds
    derive from the workload seed and the unit's index, so no scenario
    repeats within a benchmark run.  Set-up is the worker pool's
    start-up: from the ``run_scenarios`` call to the first task starting
    on a worker.
    """

    name = "seed-sweep"

    def __init__(self, seed: int, size: str = "full",
                 out_dir: Optional[str] = None) -> None:
        self.seed = seed
        self._index = 0
        self._first_digest: Optional[str] = None
        if size == "full":
            self.speeds = (0.3, 0.5)
            self.heartbeats = (0.25, 0.5, 1.0)
            self.seeds_per_cell = 4
        else:
            self.speeds = (0.5,)
            self.heartbeats = (0.5,)
            self.seeds_per_cell = 2

    def scenarios(self, index: int) -> List[TankScenario]:
        return [TankScenario(speed=speed, heartbeat_period=heartbeat,
                             seed=derive_run_seed(self.seed, index, speed,
                                                  heartbeat, k))
                for speed in self.speeds for heartbeat in self.heartbeats
                for k in range(self.seeds_per_cell)]

    def setup_only(self) -> float:
        """One extra pool start-up, probed with two tiny scenarios."""
        probe = TankScenario(columns=2, rows=1, speed=2.0,
                             with_base_station=False, seed=self.seed)
        task = functools.partial(timed_task, traced=False)
        with mock.patch.object(runner, "run_scenario_outcome", task):
            called = time.monotonic()
            outcomes = runner.run_scenarios([probe, probe], jobs=SWEEP_JOBS)
        return min(o.started for o in outcomes) - called

    def verify(self) -> List[str]:
        """A worker's run must equal the same scenario run serially."""
        if self._first_digest is None:
            return []
        serial = runner.run_scenario_outcome(self.scenarios(0)[0])
        if serial.trace_digest != self._first_digest:
            return ["a worker's trace differs from the same scenario run "
                    "serially"]
        return []

    def traced_unit(self) -> Tuple[Unit, Dict[str, float], None]:
        """Re-run the previous unit's scenarios with a tracer in every
        worker task; only the per-layer totals come back."""
        self._index = max(0, self._index - 1)
        unit = self.unit(traced=True)
        return unit, unit.layers, None

    def unit(self, traced: bool = False) -> Unit:
        specs = self.scenarios(self._index)
        self._index += 1
        task = functools.partial(timed_task, traced=traced)
        with mock.patch.object(runner, "run_scenario_outcome", task):
            called = time.monotonic()
            outcomes = runner.run_scenarios(specs, jobs=SWEEP_JOBS)
            finished = time.monotonic()
        failures, failed = check_sweep(specs, outcomes)
        if self._index == 1 and not traced:
            self._first_digest = outcomes[0].trace_digest
        task_s = [o.host_s for o in outcomes]
        layers = None
        if traced:
            layers = merge_raw([o.layers for o in outcomes])
            layers.update({"runner.busy_s": sum(task_s),
                           "runner.wall_s": finished - called,
                           "runner.tasks": len(outcomes)})
        digest = hashlib.sha256("\n".join(
            o.trace_digest for o in outcomes).encode()).hexdigest()
        return Unit(setup_s=min(o.started for o in outcomes) - called,
                    run_s=finished - called,
                    identity={"trace_digest": digest,
                              "events": sum(o.events for o in outcomes),
                              "frames_sent": sum(
                                  o.communication.frames_sent
                                  for o in outcomes)},
                    sim={"error_rate": failed / len(outcomes),
                         "runs": len(outcomes),
                         "coherent_frac": sum(o.coherent for o in outcomes)
                         / len(outcomes)},
                    failures=failures, task_s=task_s, layers=layers,
                    peak_rss_mb=max(o.peak_rss_kb for o in outcomes) / 1024)


WORKLOADS = {cls.name: cls for cls in (BorderStrip, TransportStorm,
                                       SeedSweep)}
