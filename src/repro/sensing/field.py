"""The sensor field: deployment of motes plus the physical environment.

A :class:`SensorField` owns the medium, the motes and the target list, and
offers the deployment patterns the paper uses:

* **grid** — the evaluation's rectangular grid ("motes were put at integer
  (x, y) coordinates"), 1 grid unit = 140 m in the T-72 case study;
* **random** — uniform ad hoc scattering ("dropped randomly over an area");
* **jittered grid** — grid with bounded placement error, a realistic
  air-drop approximation.

The field also installs the standard sensors every scenario needs
(``position``, per-kind binary detectors, optional magnetometers) so
scenario code stays declarative.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..node import Mote
from ..radio import Medium
from ..sim import Simulator
from .sensors import (ambient_scalar_sensor, binary_detection_sensor,
                      magnetic_sensor, position_sensor, threshold_detector)
from .target import Target

Position = Tuple[float, float]


class SensorField:
    """A deployed sensor network embedded in a physical environment.

    Parameters
    ----------
    sim:
        Owning simulator.
    communication_radius:
        Radio range in grid units (the stress tests use 6).
    base_loss_rate / interference_radius / bitrate:
        Forwarded to :class:`repro.radio.Medium`.
    mac:
        MAC installed on every mote (``"csma"`` or ``"null"``).
    task_cost / cpu_queue_limit:
        CPU model for every mote.
    """

    def __init__(self, sim: Simulator, communication_radius: float = 6.0,
                 base_loss_rate: float = 0.0,
                 interference_radius: Optional[float] = None,
                 bitrate: float = 50_000.0, mac: str = "csma",
                 task_cost: float = 0.001,
                 cpu_queue_limit: int = 64,
                 propagation_delay: float = 0.0,
                 soft_edge_start: float = 1.0,
                 soft_edge_loss: float = 0.0) -> None:
        self.sim = sim
        self.medium = Medium(sim, communication_radius=communication_radius,
                             interference_radius=interference_radius,
                             base_loss_rate=base_loss_rate, bitrate=bitrate,
                             propagation_delay=propagation_delay,
                             soft_edge_start=soft_edge_start,
                             soft_edge_loss=soft_edge_loss)
        self.mac = mac
        self.task_cost = task_cost
        self.cpu_queue_limit = cpu_queue_limit
        self.motes: Dict[int, Mote] = {}
        self.targets: List[Target] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def add_mote(self, position: Position,
                 node_id: Optional[int] = None) -> Mote:
        """Place a single mote; installs the ``position`` sensor."""
        if node_id is None:
            node_id = self._next_id
        if node_id in self.motes:
            raise ValueError(f"duplicate node id {node_id}")
        self._next_id = max(self._next_id, node_id + 1)
        mote = Mote(self.sim, node_id, position, self.medium, mac=self.mac,
                    task_cost=self.task_cost,
                    queue_limit=self.cpu_queue_limit)
        mote.install_sensor("position", position_sensor(position))
        self.motes[node_id] = mote
        return mote

    def deploy_grid(self, columns: int, rows: int,
                    spacing: float = 1.0,
                    origin: Position = (0.0, 0.0)) -> List[Mote]:
        """Rectangular grid, row-major ids — the paper's testbed layout."""
        if columns < 1 or rows < 1:
            raise ValueError(f"grid must be >= 1x1: {columns}x{rows}")
        placed = []
        for row in range(rows):
            for col in range(columns):
                placed.append(self.add_mote(
                    (origin[0] + col * spacing, origin[1] + row * spacing)))
        return placed

    def deploy_random(self, count: int,
                      bounds: Tuple[float, float, float, float],
                      stream: str = "deploy") -> List[Mote]:
        """Uniform random scattering inside ``(x_lo, y_lo, x_hi, y_hi)``."""
        if count < 1:
            raise ValueError(f"count must be >= 1: {count}")
        x_lo, y_lo, x_hi, y_hi = bounds
        if x_lo >= x_hi or y_lo >= y_hi:
            raise ValueError(f"degenerate bounds: {bounds}")
        rng = self.sim.rng.stream(f"field.{stream}")
        return [self.add_mote((rng.uniform(x_lo, x_hi),
                               rng.uniform(y_lo, y_hi)))
                for _ in range(count)]

    def deploy_jittered_grid(self, columns: int, rows: int,
                             spacing: float = 1.0, jitter: float = 0.2,
                             origin: Position = (0.0, 0.0),
                             stream: str = "jitter") -> List[Mote]:
        """Grid with uniform placement error up to ``jitter`` per axis."""
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0: {jitter}")
        rng = self.sim.rng.stream(f"field.{stream}")
        placed = []
        for row in range(rows):
            for col in range(columns):
                placed.append(self.add_mote((
                    origin[0] + col * spacing + rng.uniform(-jitter, jitter),
                    origin[1] + row * spacing + rng.uniform(-jitter, jitter),
                )))
        return placed

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def add_target(self, target: Target) -> Target:
        if any(existing.name == target.name for existing in self.targets):
            raise ValueError(f"duplicate target name {target.name!r}")
        self.targets.append(target)
        return target

    def remove_target(self, name: str) -> None:
        self.targets = [t for t in self.targets if t.name != name]

    def target(self, name: str) -> Target:
        for candidate in self.targets:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no target named {name!r}")

    def _target_source(self) -> Sequence[Target]:
        return self.targets

    # ------------------------------------------------------------------
    # Standard sensor kits
    # ------------------------------------------------------------------
    def install_detection_sensors(self, sensor_name: str,
                                  kinds: Optional[Iterable[str]] = None,
                                  motes: Optional[Iterable[Mote]] = None
                                  ) -> None:
        """Binary detectors (the light-sensor emulation) on every mote."""
        kind_tuple = None if kinds is None else tuple(kinds)
        for mote in (motes if motes is not None else self.motes.values()):
            mote.install_sensor(sensor_name, binary_detection_sensor(
                lambda: self.sim.now, mote.position, self._target_source,
                kinds=kind_tuple))

    def install_magnetometers(self, sensor_name: str = "magnetic",
                              detector_name: str = "magnetic_detect",
                              threshold: float = 1.0,
                              noise_std: float = 0.0) -> None:
        """Raw + thresholded magnetometers on every mote."""
        for mote in self.motes.values():
            raw = magnetic_sensor(lambda: self.sim.now, mote.position,
                                  self._target_source, noise_std=noise_std,
                                  rng=self.sim.rng.stream(
                                      f"sensor.mag.{mote.node_id}"))
            mote.install_sensor(sensor_name, raw)
            mote.install_sensor(detector_name,
                                threshold_detector(raw, threshold))

    def install_ambient_sensors(self, sensor_name: str, attribute: str,
                                ambient: float = 0.0,
                                noise_std: float = 0.0) -> None:
        """Scalar ambient sensors (temperature, light, acoustic …)."""
        for mote in self.motes.values():
            mote.install_sensor(sensor_name, ambient_scalar_sensor(
                lambda: self.sim.now, mote.position, self._target_source,
                attribute, ambient=ambient, noise_std=noise_std,
                rng=self.sim.rng.stream(
                    f"sensor.{attribute}.{mote.node_id}")))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def motes_sensing(self, target_name: str) -> List[int]:
        """Ground truth S_e(t): ids of motes inside the target's signature."""
        target = self.target(target_name)
        now = self.sim.now
        return sorted(node_id for node_id, mote in self.motes.items()
                      if target.detectable_from(mote.position, now))

    def mote_list(self) -> List[Mote]:
        return [self.motes[node_id] for node_id in sorted(self.motes)]

    def fail_node(self, node_id: int) -> None:
        self.motes[node_id].fail()

    def remove_mote(self, node_id: int) -> Mote:
        """Physically remove a mote: silence it and detach its radio.

        Unlike :meth:`fail_node` (which leaves a dead-but-present radio),
        removal takes the node off the medium entirely — neighbor lists,
        carrier sense and pending deliveries all forget it.
        """
        mote = self.motes.pop(node_id)
        mote.fail()
        self.medium.detach(node_id)
        return mote
