"""The fault injector: schedules a :class:`FaultPlan` into a simulation.

``FaultInjector.arm(plan)`` turns each plan event into one simulator
event at its fire time; firing applies the fault through the substrate
hooks (``Mote.fail``/``reboot``/``skew_clock``, ``Medium.
add_disturbance``, ``EnergyMeter.drain``) and emits a ``fault.*`` trace
record.  The recovery metrics (:mod:`repro.metrics.recovery`) correlate
those records with the group-management trace to measure takeover
latency and label continuity.

Determinism: the injector draws no randomness of its own, and dynamic
victim resolution (``LeaderCrash``) is a pure function of simulation
state, so the same seed + plan reproduces the same trace event for
event.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..groups import GroupManager
from ..node.energy import EnergyMeter
from ..sensing import SensorField
from ..sim import Simulator
from .plan import (ClockSkew, EnergyDrain, FaultEvent, FaultPlan,
                   LeaderCrash, LossSpike, NodeCrash, NodeReboot, RegionJam)


class FaultInjector:
    """Applies scripted faults to a deployed :class:`SensorField`.

    Parameters
    ----------
    sim:
        The owning simulator.
    field:
        Deployment to disturb (motes + medium).
    managers:
        ``node_id -> GroupManager`` map, required to resolve
        :class:`LeaderCrash` victims.  Optional otherwise.
    meter:
        Energy meter, required for :class:`EnergyDrain` events.
    """

    def __init__(self, sim: Simulator, field: SensorField,
                 managers: Optional[Dict[int, GroupManager]] = None,
                 meter: Optional[EnergyMeter] = None) -> None:
        self.sim = sim
        self.field = field
        self.managers = managers or {}
        self.meter = meter
        self.injected: List[FaultEvent] = []

    # ------------------------------------------------------------------
    def arm(self, plan: FaultPlan) -> None:
        """Schedule every plan event relative to *absolute* sim time.

        Events whose time is already past fire immediately (delay 0).
        """
        for event in plan:
            delay = max(0.0, event.time - self.sim.now)
            self.sim.schedule(delay, self._fire, event,
                              label=f"fault.{type(event).__name__}")

    # ------------------------------------------------------------------
    def _fire(self, event: FaultEvent) -> None:
        self.injected.append(event)
        if isinstance(event, NodeCrash):
            self._crash(event)
        elif isinstance(event, NodeReboot):
            self._reboot(event)
        elif isinstance(event, LeaderCrash):
            self._leader_crash(event)
        elif isinstance(event, RegionJam):
            self._jam(event)
        elif isinstance(event, LossSpike):
            self._spike(event)
        elif isinstance(event, EnergyDrain):
            self._drain(event)
        elif isinstance(event, ClockSkew):
            self._skew(event)
        else:  # pragma: no cover - plan validation forbids this
            raise TypeError(f"unknown fault event {event!r}")

    # ------------------------------------------------------------------
    def _crash(self, event: NodeCrash) -> None:
        mote = self.field.motes.get(event.node)
        if mote is None or not mote.alive:
            self.sim.record("fault.crash_skipped", node=event.node)
            return
        self.sim.record("fault.crash", node=event.node)
        mote.fail()

    def _reboot(self, event: NodeReboot) -> None:
        mote = self.field.motes.get(event.node)
        if mote is None or mote.alive:
            self.sim.record("fault.reboot_skipped", node=event.node)
            return
        self.sim.record("fault.reboot", node=event.node)
        mote.reboot()

    def _leader_crash(self, event: LeaderCrash) -> None:
        victim = self._resolve_leader(event.context_type)
        if victim is None:
            self.sim.record("fault.leader_crash_skipped",
                            type=event.context_type)
            return
        label = self.managers[victim].label(event.context_type)
        self.sim.record("fault.leader_crash", node=victim,
                        type=event.context_type, label=label,
                        reboot_after=event.reboot_after)
        self.field.motes[victim].fail()
        if event.reboot_after is not None:
            self.sim.schedule(event.reboot_after, self._reboot,
                              NodeReboot(time=self.sim.now
                                         + event.reboot_after,
                                         node=victim),
                              label="fault.NodeReboot")

    def _resolve_leader(self, context_type: str) -> Optional[int]:
        """Lowest-id leader of any ``context_type`` label (a crash ends a
        leadership, so every leader is live)."""
        for node_id in sorted(self.managers):
            manager = self.managers[node_id]
            if context_type not in manager.tracked_types():
                continue
            if manager.is_leading(context_type):
                return node_id
        return None

    def _jam(self, event: RegionJam) -> None:
        self.sim.record("fault.jam", center=list(event.center),
                        radius=event.radius, extra_loss=event.extra_loss,
                        duration=event.duration)
        self.field.medium.add_disturbance(
            event.extra_loss, self.sim.now, self.sim.now + event.duration,
            center=event.center, radius=event.radius)

    def _spike(self, event: LossSpike) -> None:
        self.sim.record("fault.loss_spike", extra_loss=event.extra_loss,
                        duration=event.duration)
        self.field.medium.add_disturbance(
            event.extra_loss, self.sim.now, self.sim.now + event.duration)

    def _drain(self, event: EnergyDrain) -> None:
        if self.meter is None or event.node not in self.meter.ledgers:
            self.sim.record("fault.drain_skipped", node=event.node)
            return
        self.sim.record("fault.drain", node=event.node,
                        joules=event.joules)
        self.meter.drain(event.node, event.joules)

    def _skew(self, event: ClockSkew) -> None:
        mote = self.field.motes.get(event.node)
        if mote is None:
            self.sim.record("fault.skew_skipped", node=event.node)
            return
        # Mote.skew_clock records node.clock_skew with the new scale.
        self.sim.record("fault.clock_skew", node=event.node,
                        factor=event.factor)
        mote.skew_clock(event.factor)
