"""The EnviroTrack middleware agent — one per mote.

This component is the run-time system of §5: it owns the mote's group
manager, turns context type declarations into live protocol behaviour, and
hosts tracking-object execution when the mote leads a label.

Responsibilities per context type:

* evaluate the activation (and optional deactivation) condition via the
  group manager's sensing checks;
* as a **member**: sample the declared sensors every ``P_e = L_e − d``
  seconds and report to the current leader (the data collection protocol
  of §3.2.3);
* as a **leader**: maintain the label's :class:`AggregateStore`, bump the
  label weight per member report, execute attached object methods on their
  timer / condition / port invocations, refresh the directory entry, and
  carry committed object state on heartbeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..aggregation import (AggregationRegistry, DEFAULT_REGISTRY,
                           REPORT_KIND, AggregateStore, MemberReport,
                           report_period, sample_readings)
from ..groups import GroupConfig, GroupListener, GroupManager, Role
from ..node import Component, Mote
from ..radio import distance
from ..transport import GeoRouter, MtpAgent
from ..naming import DirectoryService
from .base_station import APP_REPORT_KIND, AppReport
from .context import (ContextTypeDef, MethodDef, PortInvocation,
                      TimerInvocation, WhenInvocation)
from .runtime import ObjectContext


@dataclass
class _TypeRuntime:
    """Live state of one context type on one mote; the timers are built
    on first use and restarted from then on."""

    definition: ContextTypeDef
    report_timer: Any = None
    #: The object method timers, then the leader's self-report timer;
    #: None until the mote first leads a label of the type.
    leader_timers: Optional[List[Any]] = None
    directory_timer: Any = None
    store: Optional[AggregateStore] = None
    octx: Optional[ObjectContext] = None
    when_latch: Dict[str, bool] = field(default_factory=dict)


class EnviroTrackAgent(Component, GroupListener):
    """Per-mote middleware run-time.

    Parameters
    ----------
    mote:
        Host mote.
    context_types:
        Declarations to run on this node (normally identical fleet-wide —
        "an application program is thus distributed among the sensor
        nodes").
    registry:
        Aggregation function registry.
    router / directory / mtp:
        Optional substrates; without a router, MySend falls back to direct
        single-hop unicast to the base station.
    base_station:
        Node id of the pursuer-facing mote, if any.
    """

    name = "etrack"

    def __init__(self, mote: Mote, context_types: List[ContextTypeDef],
                 registry: AggregationRegistry = DEFAULT_REGISTRY,
                 router: Optional[GeoRouter] = None,
                 directory: Optional[DirectoryService] = None,
                 mtp: Optional[MtpAgent] = None,
                 base_station: Optional[int] = None) -> None:
        super().__init__(mote)
        self.registry = registry
        self.router = router
        self.directory = directory
        self.mtp = mtp
        self.base_station = base_station
        self.groups = GroupManager(mote)
        self.groups.add_listener(self)
        self._runtimes: Dict[str, _TypeRuntime] = {}
        self._hysteresis: Dict[str, bool] = {}
        mote.add_fail_hook(self._on_fail)
        for definition in context_types:
            if definition.name in self._runtimes:
                raise ValueError(
                    f"duplicate context type {definition.name!r}")
            self._runtimes[definition.name] = _TypeRuntime(
                definition=definition)
        self._rng = self.sim.rng.stream("etrack.jitter")

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.handle(REPORT_KIND, self._on_report_frame)
        if self.router is not None:
            # Multihop report relay: "All members of a sensor group can
            # communicate with each other possibly using multiple hops
            # through other members" (§3.2.1) — reports for an
            # out-of-radio-range leader travel by geographic routing.
            self.router.register_delivery(REPORT_KIND,
                                          self._on_routed_report)
        for runtime in self._runtimes.values():
            definition = runtime.definition
            self.groups.track(definition.name,
                              self._build_sense_fn(definition),
                              definition.group)
            if self.mtp is not None:
                for port, method in definition.ports().items():
                    self.mtp.register_port(
                        definition.name, port,
                        self._make_port_handler(definition.name, method))
        self.groups.start()

    def _on_fail(self) -> None:
        """Crash: the leader runtimes and the hysteresis latches are RAM,
        so a rebooted mote leads nothing and comes back unlatched."""
        self._hysteresis.clear()
        for runtime in self._runtimes.values():
            runtime.store = runtime.octx = None
            runtime.when_latch = {}

    # ------------------------------------------------------------------
    # Sensing conditions
    # ------------------------------------------------------------------
    def _condition_fn(self, condition) -> Callable[[Mote], bool]:
        if callable(condition):
            def evaluate(mote: Mote) -> bool:
                # Heterogeneous deployments: a mote without the sensors a
                # condition reads (e.g. the base station) never senses.
                try:
                    return bool(condition(mote))
                except (KeyError, LookupError):
                    return False

            return evaluate
        sensor_name = str(condition)

        def read(mote: Mote) -> bool:
            if not mote.has_sensor(sensor_name):
                return False
            return bool(mote.read_sensor(sensor_name))

        def quiet_until(mote: Mote, t: float) -> float:
            if not mote.has_sensor(sensor_name):
                return math.inf
            return mote.sensor_quiet_until(sensor_name, t)

        # A named sensor can say how long it will stay False; the group
        # manager then skips the polls in between (QuietPollTimer).
        read.quiet_until = quiet_until  # type: ignore[attr-defined]
        return read

    def _build_sense_fn(self, definition: ContextTypeDef
                        ) -> Callable[[Mote], bool]:
        activation = self._condition_fn(definition.activation)
        if definition.deactivation is None:
            # Footnote 1: deactivation defaults to ¬activation — the sense
            # condition is simply the activation predicate.
            return activation
        deactivation = self._condition_fn(definition.deactivation)
        key = definition.name

        def sense(mote: Mote) -> bool:
            active = self._hysteresis.get(key, False)
            if active:
                if deactivation(mote):
                    active = False
            elif activation(mote):
                active = True
            self._hysteresis[key] = active
            return active

        return sense

    # ------------------------------------------------------------------
    # GroupListener: membership → data collection
    # ------------------------------------------------------------------
    def on_member_join(self, context_type: str, label: str,
                       leader: int) -> None:
        runtime = self._runtimes[context_type]
        definition = runtime.definition
        if not definition.aggregates:
            return
        period = report_period(definition.aggregates,
                               definition.delay_estimate)
        if runtime.report_timer is None:
            runtime.report_timer = self.mote.periodic(
                period, lambda: self._send_member_report(context_type),
                label=f"etrack.report.{context_type}")
        runtime.report_timer.start(self._rng.uniform(0, min(period, 0.2)))

    def on_member_leave(self, context_type: str, label: str) -> None:
        runtime = self._runtimes[context_type]
        if runtime.report_timer is not None:
            runtime.report_timer.stop()

    def _send_member_report(self, context_type: str) -> None:
        runtime = self._runtimes[context_type]
        if self.groups.role(context_type) is not Role.MEMBER:
            return
        leader = self.groups.leader_of(context_type)
        label = self.groups.label(context_type)
        if leader is None or label is None:
            return
        readings = sample_readings(self.mote, runtime.definition.aggregates)
        if not readings:
            return
        report = MemberReport(context_type, label, self.node_id, self.now,
                              readings)
        leader_pos = self.groups.leader_position(context_type)
        if (self.router is not None and leader_pos is not None
                and distance(self.mote.position, leader_pos)
                > self.mote.medium.communication_radius):
            # Leader beyond single-hop range: relay through the group.
            self.router.route_to_node(leader, REPORT_KIND, report)
            return
        self.unicast(leader, REPORT_KIND, report,
                     size_bits=runtime.definition.report_size_bits)

    # ------------------------------------------------------------------
    # GroupListener: leadership → object execution
    # ------------------------------------------------------------------
    def on_leader_start(self, context_type: str, label: str,
                        inherited_state: Optional[dict],
                        inherited_weight: int, via: str) -> None:
        runtime = self._runtimes[context_type]
        definition = runtime.definition
        runtime.store = AggregateStore(definition.aggregates, self.registry,
                                       metrics=self.sim.metrics)
        runtime.octx = ObjectContext(
            context_type=context_type, label=label, node_id=self.node_id,
            clock=lambda: self.sim.now, store=runtime.store,
            send_fn=self._send_to_base,
            invoke_fn=self._make_invoker(label),
            set_state_fn=lambda state: self.groups.set_persistent_state(
                context_type, state),
            get_state_fn=lambda: self.groups.persistent_state(context_type),
            record_fn=self.record, position=self.mote.position,
            lookup_fn=(self.directory.lookup
                       if self.directory is not None else None))
        runtime.when_latch = {}
        # Seed declared object data (Appendix A data declarations) into
        # this leader incarnation's locals.
        for obj in definition.objects:
            runtime.octx.locals.update(obj.initial_data())
        if runtime.leader_timers is None:
            runtime.leader_timers = self._build_leader_timers(runtime)
        for timer in runtime.leader_timers:
            timer.start()
        if (self.directory is not None
                and definition.directory_update_period is not None):
            self._register_directory(context_type)
            if runtime.directory_timer is None:
                runtime.directory_timer = self.mote.periodic(
                    definition.directory_update_period,
                    lambda: self._register_directory(context_type),
                    label=f"etrack.dir.{context_type}")
            runtime.directory_timer.start()

    def on_leader_stop(self, context_type: str, label: str,
                       reason: str) -> None:
        runtime = self._runtimes[context_type]
        for timer in runtime.leader_timers:
            timer.stop()
        if runtime.directory_timer is not None:
            runtime.directory_timer.stop()
        runtime.store = runtime.octx = None
        runtime.when_latch = {}

    def _build_leader_timers(self, runtime: _TypeRuntime) -> List[Any]:
        """The periodic work of a leader: object method schedules, then
        the self-report."""
        definition = runtime.definition
        timers = []
        for obj in definition.objects:
            for method in obj.methods:
                invocation = method.invocation
                if isinstance(invocation, TimerInvocation):
                    timers.append(self.mote.periodic(
                        invocation.period,
                        self._make_timer_body(runtime, method),
                        label=f"etrack.obj.{obj.name}.{method.name}"))
                elif isinstance(invocation, WhenInvocation):
                    timers.append(self.mote.periodic(
                        invocation.poll_period,
                        self._make_when_body(runtime, method, invocation),
                        label=f"etrack.when.{obj.name}.{method.name}"))
                # PortInvocation methods fire on MTP delivery only.
        if definition.aggregates:
            # The leader is itself a group member; contribute local
            # readings on the same report period (no radio needed).
            context_type = definition.name
            timers.append(self.mote.periodic(
                report_period(definition.aggregates,
                              definition.delay_estimate),
                lambda: self._leader_self_report(context_type),
                label=f"etrack.selfreport.{context_type}",
                initial_delay=0.0))
        return timers

    def _make_timer_body(self, runtime: _TypeRuntime,
                         method: MethodDef) -> Callable[[], None]:
        def run() -> None:
            if runtime.octx is not None:
                self._run_method(runtime, method, (runtime.octx,))

        return run

    def _make_when_body(self, runtime: _TypeRuntime, method: MethodDef,
                        invocation: WhenInvocation) -> Callable[[], None]:
        def poll() -> None:
            octx = runtime.octx
            if octx is None:
                return
            try:
                holds = bool(invocation.predicate(octx))
            except Exception as exc:  # app predicate bug: log, don't crash
                self.record("app_error", method=method.name,
                            phase="predicate", error=repr(exc))
                return
            previous = runtime.when_latch.get(method.name, False)
            runtime.when_latch[method.name] = holds
            if holds and (not invocation.edge_triggered or not previous):
                self._run_method(runtime, method, (octx,))

        return poll

    def _make_port_handler(self, context_type: str, method: MethodDef):
        def handler(args: Dict[str, Any], src_label: str, src_port: int,
                    src_leader: int) -> None:
            runtime = self._runtimes[context_type]
            if runtime.octx is None:
                return
            self._run_method(runtime, method,
                             (runtime.octx, args, src_label, src_port))

        return handler

    def _run_method(self, runtime: _TypeRuntime, method: MethodDef,
                    args: tuple) -> None:
        try:
            method.body(*args)
        except Exception as exc:  # never let app bugs kill the middleware
            self.record("app_error", method=method.name, phase="body",
                        error=repr(exc))

    # ------------------------------------------------------------------
    # Leader-side data paths
    # ------------------------------------------------------------------
    def _leader_self_report(self, context_type: str) -> None:
        runtime = self._runtimes[context_type]
        if runtime.store is None:
            return
        readings = sample_readings(self.mote, runtime.definition.aggregates)
        if readings:
            runtime.store.add_report(self.node_id, readings, self.now)

    def _on_routed_report(self, report: Any, origin: int) -> None:
        self._accept_report(report)

    def _on_report_frame(self, frame) -> None:
        self._accept_report(frame.payload)

    def _accept_report(self, report: Any) -> None:
        if not isinstance(report, MemberReport):
            return
        context_type = report.context_type
        runtime = self._runtimes.get(context_type)
        if runtime is None or runtime.store is None:
            return
        if self.groups.label(context_type) != report.label:
            return
        runtime.store.add_report(report.sender, report.readings,
                                 report.time)
        self.groups.note_member_report(context_type, report.label)

    # ------------------------------------------------------------------
    # Outbound paths
    # ------------------------------------------------------------------
    def _send_to_base(self, report: AppReport) -> None:
        if self.base_station is None:
            self.record("mysend_dropped", reason="no_base_station")
            return
        if self.router is not None:
            self.router.route_to_node(self.base_station, APP_REPORT_KIND,
                                      report)
        else:
            self.unicast(self.base_station, APP_REPORT_KIND, report)

    def _make_invoker(self, src_label: str):
        def invoke(dest_label: str, port: int,
                   args: Dict[str, Any]) -> None:
            if self.mtp is None:
                self.record("invoke_dropped", reason="no_mtp",
                            dest=dest_label)
                return
            self.mtp.invoke(src_label, dest_label, port, args)

        return invoke

    def _register_directory(self, context_type: str) -> None:
        label = self.groups.label(context_type)
        if label is None or self.directory is None:
            return
        self.directory.register(context_type, label, self.mote.position,
                                self.node_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def runtime_of(self, context_type: str) -> _TypeRuntime:
        return self._runtimes[context_type]

    def context_types(self) -> List[str]:
        return sorted(self._runtimes)
