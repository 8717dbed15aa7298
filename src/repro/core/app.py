"""EnviroTrackApp — the top-level public API.

Assembles a full deployment: a simulator, a sensor field, the per-mote
protocol stack (geographic router, directory, MTP, group management,
middleware agent) and an optional base station, from declarative context
type definitions.

Example
-------
>>> from repro import (EnviroTrackApp, ContextTypeDef, AggregateVarSpec,
...                    TrackingObjectDef, MethodDef, TimerInvocation,
...                    Target, LineTrajectory)
>>> app = EnviroTrackApp(seed=1, communication_radius=6.0)
>>> app.field.deploy_grid(10, 2)
[...]
>>> _ = app.field.add_target(Target("car", "vehicle",
...     LineTrajectory((0.0, 0.5), 0.1), signature_radius=1.0))
>>> app.field.install_detection_sensors("vehicle_seen", kinds=["vehicle"])
>>> def report(ctx):
...     result = ctx.read("location")
...     if result.valid:
...         ctx.my_send({"location": result.value})
>>> app.add_context_type(ContextTypeDef(
...     name="tracker", activation="vehicle_seen",
...     aggregates=[AggregateVarSpec("location", "avg", "position",
...                                  confidence=2, freshness=1.0)],
...     objects=[TrackingObjectDef("reporter", [
...         MethodDef("report", TimerInvocation(5.0), report)])]))
>>> base = app.place_base_station((0.0, -3.0))
>>> app.run(until=30.0)
>>> len(base.reports) > 0
True
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..aggregation import AggregationRegistry, default_registry
from ..naming import DirectoryService, FieldBounds
from ..node import Mote
from ..sensing import SensorField
from ..sim import Simulator
from ..transport import GeoRouter, MtpAgent
from .base_station import BaseStation
from .context import ContextTypeDef
from .middleware import EnviroTrackAgent

Position = Tuple[float, float]


class EnviroTrackApp:
    """A complete EnviroTrack deployment.

    Parameters
    ----------
    seed:
        Master determinism seed.
    communication_radius / base_loss_rate / task_cost / cpu_queue_limit /
    soft_edge_start / soft_edge_loss:
        Field and radio configuration (see :class:`SensorField`).
    enable_transport:
        Install the §5.3 directory and §5.4 MTP on every mote, as one
        pair: MTP falls back to the directory on first contact (on by
        default; the tracking core works without them).
    registry:
        Custom aggregation registry; defaults to a fresh stock registry.

    The simulator's metrics registry and span tracker are always live
    (``app.sim.metrics``, ``app.sim.spans``); neither changes the trace.
    """

    def __init__(self, seed: int = 0, communication_radius: float = 6.0,
                 base_loss_rate: float = 0.0, task_cost: float = 0.001,
                 cpu_queue_limit: int = 64,
                 soft_edge_start: float = 1.0, soft_edge_loss: float = 0.0,
                 enable_transport: bool = True,
                 registry: Optional[AggregationRegistry] = None) -> None:
        self.sim = Simulator(seed=seed)
        self.field = SensorField(
            self.sim, communication_radius=communication_radius,
            base_loss_rate=base_loss_rate,
            task_cost=task_cost, cpu_queue_limit=cpu_queue_limit,
            soft_edge_start=soft_edge_start, soft_edge_loss=soft_edge_loss)
        self.registry = registry or default_registry()
        self.enable_transport = enable_transport
        self.context_types: List[ContextTypeDef] = []
        self.base_station: Optional[BaseStation] = None
        self.routers: Dict[int, GeoRouter] = {}
        self.agents: Dict[int, EnviroTrackAgent] = {}
        self.directories: Dict[int, DirectoryService] = {}
        self.mtp_agents: Dict[int, MtpAgent] = {}
        self._installed = False
        self._base_position: Optional[Position] = None

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def add_context_type(self, definition: ContextTypeDef) -> None:
        if self._installed:
            raise RuntimeError("cannot add context types after install()")
        if any(d.name == definition.name for d in self.context_types):
            raise ValueError(
                f"duplicate context type {definition.name!r}")
        self.context_types.append(definition)

    def place_base_station(self, position: Position) -> BaseStation:
        """Add the pursuer-facing mote.  Its id becomes the MySend target."""
        if self._installed:
            raise RuntimeError("cannot place base station after install()")
        mote = self.field.add_mote(position)
        self._base_position = position
        self.base_station = BaseStation(mote)  # router added at install
        return self.base_station

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def field_bounds(self, margin: float = 0.0) -> FieldBounds:
        """Bounding box of the deployment (hash domain for directories)."""
        if not self.field.motes:
            raise RuntimeError("no motes deployed")
        xs = [mote.position[0] for mote in self.field.motes.values()]
        ys = [mote.position[1] for mote in self.field.motes.values()]
        return FieldBounds(min(xs) - margin, min(ys) - margin,
                           max(xs) + margin + 1e-9, max(ys) + margin + 1e-9)

    def install(self) -> None:
        """Wire the protocol stack onto every mote.  Idempotent."""
        if self._installed:
            return
        self._installed = True
        bounds = self.field_bounds()
        base_id = (self.base_station.node_id
                   if self.base_station is not None else None)
        for mote in self.field.mote_list():
            router = GeoRouter(mote)
            self.routers[mote.node_id] = router
            directory = None
            if self.enable_transport:
                directory = DirectoryService(mote, router, bounds)
                self.directories[mote.node_id] = directory
            agent = EnviroTrackAgent(
                mote, list(self.context_types), registry=self.registry,
                router=router, directory=directory, base_station=base_id)
            if directory is not None:
                agent.mtp = MtpAgent(mote, router, agent.groups,
                                     directory=directory)
                self.mtp_agents[mote.node_id] = agent.mtp
            self.agents[mote.node_id] = agent
            router.start()
            if directory is not None:
                directory.start()
                agent.mtp.start()
            agent.start()
        if self.base_station is not None:
            # Re-bind the base station to its router for multi-hop reports.
            router = self.routers[self.base_station.node_id]
            router.register_delivery("app.report",
                                     self.base_station._on_routed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Install (if needed) and advance the simulation to ``until``."""
        self.install()
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def agent(self, node_id: int) -> EnviroTrackAgent:
        return self.agents[node_id]

    def leaders(self, context_type: str) -> Dict[int, str]:
        """node id → led label, across the deployment."""
        result = {}
        for node_id, agent in self.agents.items():
            if context_type in agent.context_types():
                label = agent.groups.label(context_type)
                if label is not None and agent.groups.is_leading(
                        context_type):
                    result[node_id] = label
        return result

    def mote(self, node_id: int) -> Mote:
        return self.field.motes[node_id]
