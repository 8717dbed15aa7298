"""Shared wireless broadcast medium.

Models the MICA mote radio at the fidelity the evaluation needs:

* **Range** — a frame physically reaches every registered transceiver
  within ``communication_radius`` of the sender (distances in grid units,
  matching the paper's "communication radius of 6 grids").
* **Airtime** — a transmission occupies the channel for
  ``size_bits /`` :data:`DEFAULT_BITRATE` seconds (50 kbps).
* **Collisions** — a reception is corrupted when a *different* transmission
  whose sender is within ``communication_radius`` of the receiver overlaps
  the reception's airtime.  This is what makes loss grow with target speed
  in Table 1: faster targets mean more concurrent handover traffic.
* **Channel loss** — independent Bernoulli loss per reception models the
  MAC-less unreliability of the motes ("no reliability is implemented in
  the MAC layer of the MICA motes").

The medium never inspects payloads; addressing (unicast vs broadcast) is a
filter applied by the receiving mote, exactly like a radio that hears
everything in range but only delivers frames addressed to it.

Static links
------------
Motes do not move (the paper's §6.1 grid), so everything the medium
derives from geometry is computed once per topology, not once per
frame.  Ports sit in a uniform-grid bucket (cell size =
``communication_radius``) that bounds each geometric query to nearby
cells.  One radius serves reception, carrier sense and collisions, so
the medium keeps one *disk* per position: the ports within
``communication_radius`` of it.  Carrier sense, collision marking and
:meth:`neighbors_of` read the disk, and per (source, reach) a link table
lists the disk's receivers in attach order with their loss probability.
Both tables are built on first use and cleared on every :meth:`attach`.
``port.enabled`` and disturbances are still checked per frame, and loss
randomness is drawn in attach order, exactly as a full scan would draw
it (see ``docs/PROTOCOL.md`` §7 for the invariants).
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..sim import Simulator
from ..telemetry.registry import Counter, RecordFamily, merged, summed
from .frames import BROADCAST, Frame
from .stats import RadioStats

Position = Tuple[float, float]

#: MICA mote channel capacity used throughout the paper's Table 1.
DEFAULT_BITRATE = 50_000.0



def _kinds_of(category: str):
    """A fill counting a trace's ``category`` records by frame kind."""
    return merged(lambda records: collections.Counter(
        record.detail.get("kind") for record in records
        if record.category == category))


#: The radio's families tallied by trace records.
RECORD_FAMILIES: Tuple[RecordFamily, ...] = (
    (Counter, "repro_radio_frames_sent_total",
     "Frames put on the air, by protocol kind.", ("kind",),
     _kinds_of("radio.tx")),
    (Counter, "repro_radio_frames_lost_total",
     "Frames received by no mote at all, by kind.", ("kind",),
     _kinds_of("radio.lost")),
)


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two field positions."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass
class Disturbance:
    """A timed channel impairment (jamming, weather, interference burst).

    While active, every reception whose *receiver* sits inside the region
    (``center``/``radius``; a ``None`` center means field-wide) is lost
    with additional probability ``extra_loss`` on top of the base channel
    loss.  ``extra_loss=1.0`` is a blackout.
    """

    extra_loss: float
    start: float
    end: float
    center: Optional[Position] = None
    radius: Optional[float] = None

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def covers(self, position: Position) -> bool:
        if self.center is None or self.radius is None:
            return True
        return distance(self.center, position) <= self.radius


class _Transmission:
    """An in-flight frame occupying airtime on the channel.

    ``receivers`` are the ports it reaches, in attach order; ``drops``
    maps the index of each corrupted reception to its first drop cause
    (``"channel"``, ``"jam"`` or ``"collision"``).
    """

    __slots__ = ("frame", "start", "end", "src_port", "receivers", "drops")

    def __init__(self, frame: Frame, start: float, end: float,
                 src_port: "TransceiverPort") -> None:
        self.frame = frame
        self.start = start
        self.end = end
        self.src_port = src_port
        self.receivers: List[TransceiverPort] = []
        self.drops: Dict[int, str] = {}

    def overlaps(self, other: "_Transmission") -> bool:
        return self.start < other.end and other.start < self.end


def _outcomes(delivered: int, drops: Dict[int, str]) -> Dict[str, int]:
    """A frame's reception outcomes (``"delivered"`` or a drop cause)
    counted in first-seen order over its receivers, from the count of
    delivered receptions and the drop causes by receiver index."""
    counts: Dict[str, int] = {}
    first: Dict[str, int] = {}  # an outcome's first receiver index
    for index in sorted(drops):
        cause = drops[index]
        counts[cause] = counts.get(cause, 0) + 1
        first.setdefault(cause, index)
    if delivered:
        index = 0
        while index in drops:
            index += 1
        counts["delivered"] = delivered
        first["delivered"] = index
    return {outcome: counts[outcome]
            for outcome in sorted(counts, key=first.__getitem__)}


def _mark_collisions(tx: _Transmission,
                     interferers: Set["TransceiverPort"]) -> None:
    """Corrupt each of ``tx``'s receptions at a port in ``interferers``
    that no earlier cause corrupted."""
    drops = tx.drops
    for index, receiver in enumerate(tx.receivers):
        if receiver in interferers and index not in drops:
            drops[index] = "collision"


class TransceiverPort:
    """The medium-facing half of a mote's radio.

    Holds the (fixed) field position, the delivery callback invoked
    when a frame survives the channel, and the bits delivered to it.
    """

    __slots__ = ("node_id", "position", "deliver", "enabled",
                 "bits_delivered")

    def __init__(self, node_id: int, position: Position,
                 deliver: Callable[[Frame], None]) -> None:
        self.node_id = node_id
        self.position = position
        self.deliver = deliver
        self.enabled = True
        self.bits_delivered = 0


class _GridIndex:
    """Uniform-grid spatial hash of attached transceivers.

    Buckets are keyed by integer cell coordinates (cell size = the
    medium's communication radius), so a disk of that radius lies inside
    the 3×3 neighborhood of its center's cell.  Buckets hold ports in
    attach order.
    """

    def __init__(self, cell_size: float) -> None:
        if not cell_size > 0:
            raise ValueError(f"cell size must be positive: {cell_size}")
        self.cell_size = cell_size
        self._buckets: Dict[Tuple[int, int], List[TransceiverPort]] = {}

    def cell_of(self, position: Position) -> Tuple[int, int]:
        return (math.floor(position[0] / self.cell_size),
                math.floor(position[1] / self.cell_size))

    def add(self, port: TransceiverPort) -> None:
        key = self.cell_of(port.position)
        self._buckets.setdefault(key, []).append(port)

    def near(self, position: Position) -> Iterator[TransceiverPort]:
        """All ports in the 3×3 cells around ``position`` (a superset of
        the ports within one cell size of it)."""
        cx, cy = self.cell_of(position)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = self._buckets.get((cx + dx, cy + dy))
                if bucket:
                    yield from bucket


class Medium:
    """The single shared channel all motes transmit on.

    Parameters
    ----------
    sim:
        The owning simulator (for the clock, scheduling and RNG).
    communication_radius:
        Reception range in grid units; also the range of carrier sense
        and within which a concurrent transmitter corrupts a reception.
    base_loss_rate:
        Independent per-reception Bernoulli loss probability.

    A frame is delivered when its airtime ends; signal flight time over
    a few hundred metres is negligible next to airtime and not modelled.
    """

    def __init__(self, sim: Simulator, communication_radius: float,
                 base_loss_rate: float = 0.0,
                 soft_edge_start: float = 1.0,
                 soft_edge_loss: float = 0.0) -> None:
        if not communication_radius > 0:
            raise ValueError(
                f"communication radius must be positive: "
                f"{communication_radius}")
        if not 0.0 <= base_loss_rate < 1.0:
            raise ValueError(
                f"base loss rate must be in [0, 1): {base_loss_rate}")
        if not 0.0 < soft_edge_start <= 1.0:
            raise ValueError(
                f"soft edge start must be in (0, 1]: {soft_edge_start}")
        if not 0.0 <= soft_edge_loss <= 1.0:
            raise ValueError(
                f"soft edge loss must be in [0, 1]: {soft_edge_loss}")
        self.sim = sim
        self.communication_radius = communication_radius
        self.base_loss_rate = base_loss_rate
        # Soft reception edge (shadowing-like): receptions beyond
        # ``soft_edge_start × reach`` suffer extra loss ramping linearly up
        # to ``soft_edge_loss`` at the reach boundary.  Real radios degrade
        # toward their range limit; this makes "marginal" links flaky
        # rather than binary (the Figure 4 speed effect depends on it).
        self.soft_edge_start = soft_edge_start
        self.soft_edge_loss = soft_edge_loss
        self.stats = RadioStats(started_at=sim.now)
        # Telemetry: views of the trace and of RadioStats.
        metrics = sim.metrics
        metrics.record_views(RECORD_FAMILIES, sim.trace)
        metrics.view(Counter, "repro_radio_bits_sent_total",
                     "On-air bits transmitted, by protocol kind.",
                     ("kind",), merged(lambda m: m.stats.bits_by_kind),
                     self)
        metrics.view(Counter, "repro_radio_receptions_total",
                     "Physical reception attempts, by kind and outcome.",
                     ("kind", "outcome"),
                     merged(lambda m: m.stats.receptions), self)
        metrics.view(Counter, "repro_radio_airtime_seconds_total",
                     "Channel airtime occupied by transmissions.", (),
                     summed(lambda m: m.stats.bits_sent / DEFAULT_BITRATE),
                     self)
        self._ports: Dict[int, TransceiverPort] = {}
        self._active: List[_Transmission] = []
        self._rng = sim.rng.stream("radio.loss")
        self._disturbances: List[Disturbance] = []
        # Separate stream so adding a disturbance never perturbs the
        # baseline loss draws of an otherwise identical run.
        self._jam_rng = sim.rng.stream("radio.jam")
        # Attach order per node id: candidate sets are sorted by it so
        # loss randomness is drawn in the same order as a full scan of
        # ``_ports`` — the determinism the equivalence suite locks down.
        self._attach_order: Dict[int, int] = {}
        self._attach_counter = 0
        self._index = _GridIndex(communication_radius)
        #: Bumped on every attach; callers that cache routes over the
        #: topology (``GeoRouter``) compare it to drop stale entries.
        self.topology_version = 0
        # Link tables (see the module docstring), keyed by port object.
        self._links: Dict[Tuple[TransceiverPort, float],
                          List[Tuple[TransceiverPort, float]]] = {}
        self._disks: Dict[Position, Set[TransceiverPort]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def attach(self, port: TransceiverPort) -> None:
        """Register a transceiver on the channel."""
        if port.node_id in self._ports:
            raise ValueError(f"node {port.node_id} already attached")
        self._ports[port.node_id] = port
        self._attach_order[port.node_id] = self._attach_counter
        self._attach_counter += 1
        self._index.add(port)
        self.topology_version += 1
        self._links.clear()
        self._disks.clear()

    def port(self, node_id: int) -> TransceiverPort:
        """The registered transceiver of ``node_id``."""
        return self._ports[node_id]

    def node_ids(self) -> List[int]:
        """Sorted ids of all attached transceivers."""
        return sorted(self._ports)

    # ------------------------------------------------------------------
    # Link tables (built on first use, cleared on attach)
    # ------------------------------------------------------------------
    def _disk(self, position: Position) -> Set[TransceiverPort]:
        """Ports within ``communication_radius`` of ``position``: those
        audible there, and those a transmission from there reaches or
        corrupts."""
        disk = self._disks.get(position)
        if disk is None:
            limit = self.communication_radius
            disk = self._disks[position] = {
                port for port in self._index.near(position)
                if distance(position, port.position) <= limit}
        return disk

    def _links_of(self, src_port: TransceiverPort,
                  reach: float) -> List[Tuple[TransceiverPort, float]]:
        """Receivers of ``src_port`` at ``reach`` (at most the
        communication radius), in attach order, each with its
        per-reception loss probability."""
        key = (src_port, reach)
        links = self._links.get(key)
        if links is None:
            origin = src_port.position
            order = self._attach_order
            links = []
            # The disk sorted into attach order, so the in-range subset
            # comes out in the order a full scan would give.
            for port in sorted(self._disk(origin),
                               key=lambda port: order[port.node_id]):
                if port is src_port:
                    continue
                d = distance(origin, port.position)
                if d <= reach:
                    links.append((port, self._loss_probability(d, reach)))
            self._links[key] = links
        return links

    # ------------------------------------------------------------------
    # Channel state
    # ------------------------------------------------------------------
    def channel_busy(self, pos: Position) -> bool:
        """Carrier sense: is any in-flight transmitter audible at ``pos``?"""
        self._prune()
        if not self._active:
            return False
        audible = self._disk(pos)
        return any(tx.src_port in audible for tx in self._active)

    def airtime(self, frame: Frame) -> float:
        """Seconds this frame occupies the channel."""
        return frame.size_bits / DEFAULT_BITRATE

    def neighbors_of(self, node_id: int) -> List[int]:
        """Sorted ids of the other nodes within the communication radius.

        Failed-but-attached motes are included: only the topology, not
        liveness, decides.
        """
        port = self._ports[node_id]
        return sorted(other.node_id for other in self._disk(port.position)
                      if other is not port)

    # ------------------------------------------------------------------
    # Disturbances (fault injection)
    # ------------------------------------------------------------------
    def add_disturbance(self, extra_loss: float, start: float, end: float,
                        center: Optional[Position] = None,
                        radius: Optional[float] = None) -> Disturbance:
        """Register a timed (optionally regional) extra-loss window."""
        if not 0.0 <= extra_loss <= 1.0:
            raise ValueError(f"extra loss must be in [0, 1]: {extra_loss}")
        if not end > start:  # also rejects NaN
            raise ValueError(f"empty disturbance window: [{start}, {end})")
        if (center is None) != (radius is None):
            raise ValueError("center and radius must be given together")
        if radius is not None and not radius > 0:
            raise ValueError(f"disturbance radius must be positive: {radius}")
        disturbance = Disturbance(extra_loss=extra_loss, start=start,
                                  end=end, center=center, radius=radius)
        self._disturbances.append(disturbance)
        return disturbance

    def active_disturbances(self) -> List[Disturbance]:
        """Disturbances covering the current instant."""
        if not self._disturbances:
            return []
        now = self.sim.now
        self._disturbances = [d for d in self._disturbances if d.end > now]
        return [d for d in self._disturbances if d.active(now)]

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> None:
        """Put ``frame`` on the air from its source's position.

        Delivery (or silent loss) happens after the frame's airtime plus
        propagation delay.
        """
        src_port = self._ports.get(frame.src)
        if src_port is None:
            raise KeyError(f"unknown source node {frame.src}")
        now = self.sim.now
        frame.sent_at = now
        airtime = self.airtime(frame)
        tx = _Transmission(frame, now, now + airtime, src_port)
        self._prune()
        disturbances = self.active_disturbances()
        reach = self.communication_radius
        if frame.tx_range is not None and frame.tx_range < reach:
            reach = frame.tx_range
        # Build the reception set: every enabled in-range port, in attach
        # order (the loss draws' order).
        receivers = tx.receivers
        drops = tx.drops
        draw = self._rng.random
        for port, loss in self._links_of(src_port, reach):
            if not port.enabled:
                continue
            if draw() < loss:
                drops[len(receivers)] = "channel"
            elif disturbances:
                for disturbance in disturbances:
                    if disturbance.covers(port.position) and \
                            self._jam_rng.random() < disturbance.extra_loss:
                        drops[len(receivers)] = "jam"
                        break
            receivers.append(port)
        # Mutual collision marking against concurrently active airtime: a
        # reception is corrupted by any overlapping transmission whose
        # source is within communication_radius of the receiver.
        if self._active:
            near = self._disk(src_port.position)
            for other in self._active:
                if not tx.overlaps(other):
                    continue
                _mark_collisions(tx, self._disk(other.src_port.position))
                _mark_collisions(other, near)
        self._active.append(tx)
        self.stats.on_send(frame.kind, frame.size_bits, frame.src)
        self.sim.record("radio.tx", node=frame.src, kind=frame.kind,
                        frame_id=frame.frame_id, dst=frame.dst)
        self.sim.schedule(airtime, self._complete, tx,
                          label="radio.delivery")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _loss_probability(self, d: float, reach: float) -> float:
        """Per-reception loss at distance ``d`` for a given reach."""
        probability = self.base_loss_rate
        threshold = self.soft_edge_start * reach
        if self.soft_edge_loss > 0 and d > threshold and reach > threshold:
            ramp = (d - threshold) / (reach - threshold)
            probability = probability + (1 - probability) \
                * self.soft_edge_loss * min(1.0, ramp)
        return probability

    def _complete(self, tx: _Transmission) -> None:
        """Deliver ``tx`` to its uncorrupted receivers in attach order,
        and account its receptions once per outcome, in first-seen
        order (``docs/PROTOCOL.md`` §7)."""
        frame = tx.frame
        kind = frame.kind
        dst = frame.dst
        size_bits = frame.size_bits
        receivers = tx.receivers
        drops = tx.drops
        if drops:
            receivers = [receiver for index, receiver in enumerate(receivers)
                         if index not in drops]
        for receiver in receivers:
            receiver.bits_delivered += size_bits
            receiver.deliver(frame)
        delivered = len(receivers)
        self.stats.on_receptions(kind, _outcomes(delivered, drops))
        if dst != BROADCAST:
            self.stats.on_addressed_outcome(kind, any(
                receiver.node_id == dst for receiver in receivers))
        if not delivered:
            # The paper's loss metric: sent but never received on any mote.
            self.stats.on_frame_lost(kind)
            self.sim.record("radio.lost", node=frame.src, kind=kind,
                            frame_id=frame.frame_id)

    def _prune(self) -> None:
        now = self.sim.now
        if all(tx.end > now for tx in self._active):
            return
        self._active = [tx for tx in self._active if tx.end > now]
