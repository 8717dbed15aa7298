"""EnviroTrackApp — the top-level public API.

Assembles a full deployment: a simulator, a sensor field, one
:class:`EnviroTrackAgent` per mote (which builds and starts that mote's
stack: geographic router, group management and, with transport, the
directory and MTP) and an optional base station, from declarative context
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

from ..aggregation import default_registry
from ..naming import FieldBounds
from ..sensing import SensorField
from ..sim import Simulator
from .base_station import APP_REPORT_KIND, BaseStation
from .context import ContextTypeDef
from .middleware import EnviroTrackAgent

Position = Tuple[float, float]


class EnviroTrackApp:
    """A complete EnviroTrack deployment.

    Parameters
    ----------
    seed:
        Master determinism seed.
    communication_radius / base_loss_rate / task_cost / soft_edge_start /
    soft_edge_loss:
        Field and radio configuration (see :class:`SensorField`).
    enable_transport:
        Have every mote's agent build the §5.3 directory and §5.4 MTP, as
        one pair: MTP falls back to the directory on first contact (on by
        default; the tracking core works without them).

    ``app.agents`` maps each node id to its agent, which holds the mote's
    ``router``, ``groups``, ``directory`` and ``mtp`` (the last two None
    without transport).  The simulator's metrics registry and span tracker
    are always live (``app.sim.metrics``, ``app.sim.spans``); neither
    changes the trace.
    """

    def __init__(self, seed: int = 0, communication_radius: float = 6.0,
                 base_loss_rate: float = 0.0, task_cost: float = 0.001,
                 soft_edge_start: float = 1.0, soft_edge_loss: float = 0.0,
                 enable_transport: bool = True) -> None:
        self.sim = Simulator(seed=seed)
        self.field = SensorField(
            self.sim, communication_radius=communication_radius,
            base_loss_rate=base_loss_rate,
            task_cost=task_cost,
            soft_edge_start=soft_edge_start, soft_edge_loss=soft_edge_loss)
        self.registry = default_registry()
        self.enable_transport = enable_transport
        self.context_types: List[ContextTypeDef] = []
        self.base_station: Optional[BaseStation] = None
        self.agents: Dict[int, EnviroTrackAgent] = {}
        self._installed = False

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
        self.base_station = BaseStation(self.field.add_mote(position))
        return self.base_station

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def field_bounds(self) -> FieldBounds:
        """Bounding box of the deployment (the directory's hash domain)."""
        if not self.field.motes:
            raise RuntimeError("no motes deployed")
        xs = [mote.position[0] for mote in self.field.motes.values()]
        ys = [mote.position[1] for mote in self.field.motes.values()]
        return FieldBounds(min(xs), min(ys), max(xs) + 1e-9, max(ys) + 1e-9)

    def install(self) -> None:
        """Build and start one agent per mote, then register the base
        station for routed ``MySend`` reports.  Idempotent."""
        if self._installed:
            return
        self._installed = True
        bounds = self.field_bounds() if self.enable_transport else None
        base = self.base_station
        base_id = base.node_id if base is not None else None
        for mote in self.field.mote_list():
            agent = EnviroTrackAgent(mote, self.context_types, self.registry,
                                     bounds, base_id)
            self.agents[mote.node_id] = agent
            agent.start()
        if base is not None:
            self.agents[base.node_id].router.register_delivery(
                APP_REPORT_KIND, base.receive)

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
