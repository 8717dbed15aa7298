"""Shared wireless broadcast medium.

Models the MICA mote radio at the fidelity the evaluation needs:

* **Range** — a frame physically reaches every registered transceiver
  within ``communication_radius`` of the sender (distances in grid units,
  matching the paper's "communication radius of 6 grids").
* **Airtime** — a transmission occupies the channel for
  ``size_bits / bitrate`` seconds (50 kbps by default).
* **Collisions** — a reception is corrupted when a *different* transmission
  whose sender is within ``interference_radius`` of the receiver overlaps
  the reception's airtime.  This is what makes loss grow with target speed
  in Table 1: faster targets mean more concurrent handover traffic.
* **Channel loss** — independent Bernoulli loss per reception models the
  MAC-less unreliability of the motes ("no reliability is implemented in
  the MAC layer of the MICA motes").

The medium never inspects payloads; addressing (unicast vs broadcast) is a
filter applied by the receiving mote, exactly like a radio that hears
everything in range but only delivers frames addressed to it.

Spatial index
-------------
With thousands of motes a full scan is O(N) per delivery and
O(N·active) per collision check.  The medium keeps every port in a
uniform-grid bucket (cell size = ``communication_radius``) so
:meth:`transmit`, :meth:`channel_busy` and :meth:`neighbors_of` only
examine the cells that can possibly contain an in-range node.  Candidates
are visited in attach order, so the loss RNG streams are drawn exactly as
a full scan would draw them (see ``docs/PROTOCOL.md`` §7 for the
invariants — in particular, a node that moves must notify the medium via
:meth:`refresh_position`, which :meth:`repro.node.Mote.move_to` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from ..sim import Simulator
from .frames import Frame
from .stats import RadioStats

Position = Tuple[float, float]

#: MICA mote channel capacity used throughout the paper's Table 1.
DEFAULT_BITRATE = 50_000.0


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two field positions."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass
class _Reception:
    """A pending physical reception of one frame at one transceiver."""

    receiver: "TransceiverPort"
    corrupted: bool = False
    drop_cause: Optional[str] = None

    def corrupt(self, cause: str) -> None:
        if not self.corrupted:
            self.corrupted = True
            self.drop_cause = cause


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


@dataclass
class _Transmission:
    """An in-flight frame occupying airtime on the channel."""

    frame: Frame
    src_pos: Position
    start: float
    end: float
    cell: Tuple[int, int]
    src_port: Optional["TransceiverPort"] = None
    receptions: List[_Reception] = field(default_factory=list)

    def overlaps(self, other: "_Transmission") -> bool:
        return self.start < other.end and other.start < self.end


class TransceiverPort:
    """The medium-facing half of a mote's radio.

    Holds the position callback (positions may change for mobile nodes) and
    the delivery callback invoked when a frame survives the channel.
    """

    def __init__(self, node_id: int, position_fn: Callable[[], Position],
                 deliver_fn: Callable[[Frame], None]) -> None:
        self.node_id = node_id
        self._position_fn = position_fn
        self._deliver_fn = deliver_fn
        self.enabled = True

    @property
    def position(self) -> Position:
        return self._position_fn()

    def deliver(self, frame: Frame) -> None:
        self._deliver_fn(frame)


class _GridIndex:
    """Uniform-grid spatial hash of attached transceivers.

    Buckets are keyed by integer cell coordinates (cell size = the
    medium's communication radius), so every disk query of radius ≤ one
    cell touches at most the 3×3 neighborhood of the query cell.  Buckets
    hold ports in attach order; bucket membership tracks the *last
    notified* position of each port (updated on attach/detach/refresh).
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell size must be positive: {cell_size}")
        self.cell_size = cell_size
        self._buckets: Dict[Tuple[int, int],
                            Dict[int, TransceiverPort]] = {}
        self._cells: Dict[int, Tuple[int, int]] = {}

    def cell_of(self, position: Position) -> Tuple[int, int]:
        return (math.floor(position[0] / self.cell_size),
                math.floor(position[1] / self.cell_size))

    def add(self, port: TransceiverPort) -> None:
        key = self.cell_of(port.position)
        self._buckets.setdefault(key, {})[port.node_id] = port
        self._cells[port.node_id] = key

    def remove(self, node_id: int) -> None:
        key = self._cells.pop(node_id, None)
        if key is None:
            return
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.pop(node_id, None)
            if not bucket:
                del self._buckets[key]

    def refresh(self, port: TransceiverPort) -> None:
        """Re-bucket one port after its position changed."""
        new_key = self.cell_of(port.position)
        if self._cells.get(port.node_id) == new_key:
            return
        self.remove(port.node_id)
        self._buckets.setdefault(new_key, {})[port.node_id] = port
        self._cells[port.node_id] = new_key

    def cells_covering(self, position: Position,
                       radius: float) -> Iterator[Tuple[int, int]]:
        """Keys of every cell intersecting the disk (superset)."""
        span = max(1, math.ceil(radius / self.cell_size))
        cx, cy = self.cell_of(position)
        for dx in range(-span, span + 1):
            for dy in range(-span, span + 1):
                yield (cx + dx, cy + dy)

    def near(self, position: Position,
             radius: float) -> Iterator[TransceiverPort]:
        """All ports bucketed within ``radius``-covering cells (a superset
        of the ports actually inside the disk)."""
        for key in self.cells_covering(position, radius):
            bucket = self._buckets.get(key)
            if bucket:
                yield from bucket.values()


class Medium:
    """The single shared channel all motes transmit on.

    Parameters
    ----------
    sim:
        The owning simulator (for the clock, scheduling and RNG).
    communication_radius:
        Reception range in grid units.
    interference_radius:
        Range within which a concurrent transmitter corrupts a reception;
        defaults to the communication radius.
    base_loss_rate:
        Independent per-reception Bernoulli loss probability.
    bitrate:
        Channel capacity in bits/second.
    propagation_delay:
        Fixed additional delivery latency (signal flight time), usually
        negligible next to airtime.
    """

    def __init__(self, sim: Simulator, communication_radius: float,
                 interference_radius: Optional[float] = None,
                 base_loss_rate: float = 0.0,
                 bitrate: float = DEFAULT_BITRATE,
                 propagation_delay: float = 0.0,
                 soft_edge_start: float = 1.0,
                 soft_edge_loss: float = 0.0) -> None:
        if communication_radius <= 0:
            raise ValueError("communication radius must be positive")
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
        self.interference_radius = (communication_radius
                                    if interference_radius is None
                                    else interference_radius)
        self.base_loss_rate = base_loss_rate
        self.bitrate = bitrate
        self.propagation_delay = propagation_delay
        # Soft reception edge (shadowing-like): receptions beyond
        # ``soft_edge_start × reach`` suffer extra loss ramping linearly up
        # to ``soft_edge_loss`` at the reach boundary.  Real radios degrade
        # toward their range limit; this makes "marginal" links flaky
        # rather than binary (the Figure 4 speed effect depends on it).
        self.soft_edge_start = soft_edge_start
        self.soft_edge_loss = soft_edge_loss
        self.stats = RadioStats(started_at=sim.now)
        # Telemetry: the same accounting RadioStats keeps, republished as
        # registry instruments for dashboards and the Prometheus export.
        # RadioStats stays canonical (collectors and tests read it); the
        # registry is side-state.
        metrics = sim.metrics
        self._frames_sent = metrics.counter(
            "repro_radio_frames_sent_total",
            "Frames put on the air, by protocol kind.", ("kind",))
        self._bits_sent = metrics.counter(
            "repro_radio_bits_sent_total",
            "On-air bits transmitted, by protocol kind.", ("kind",))
        self._receptions = metrics.counter(
            "repro_radio_receptions_total",
            "Physical reception attempts, by kind and outcome.",
            ("kind", "outcome"))
        self._frames_lost = metrics.counter(
            "repro_radio_frames_lost_total",
            "Frames received by no mote at all, by kind.", ("kind",))
        self._airtime_seconds = metrics.counter(
            "repro_radio_airtime_seconds_total",
            "Channel airtime occupied by transmissions.")
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
        self._active_cells: Dict[Tuple[int, int], List[_Transmission]] = {}

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

    def detach(self, node_id: int) -> None:
        """Remove a transceiver from the channel.

        In-flight transmissions snapshot their sender; once the sender is
        detached it no longer registers on carrier sense and pending
        receptions at the detached node are discarded instead of
        delivered (see :meth:`channel_busy` / :meth:`_complete`).
        """
        self._ports.pop(node_id, None)
        self._attach_order.pop(node_id, None)
        self._index.remove(node_id)

    def refresh_position(self, node_id: int) -> None:
        """Re-bucket a node after it moved (no-op for unknown nodes).

        Positions are sampled through each port's callback, so the medium
        cannot observe movement on its own; anything that relocates a
        node (``Mote.move_to``) must call this for the grid index to stay
        consistent.  Positions must not change while a transmission is in
        flight (airtime is milliseconds; field motes are static).
        """
        port = self._ports.get(node_id)
        if port is not None:
            self._index.refresh(port)

    def port(self, node_id: int) -> TransceiverPort:
        """The registered transceiver of ``node_id``."""
        return self._ports[node_id]

    def node_ids(self) -> List[int]:
        """Sorted ids of all attached transceivers."""
        return sorted(self._ports)

    def _attached(self, port: Optional[TransceiverPort]) -> bool:
        """Is this exact port object still registered?"""
        return (port is not None
                and self._ports.get(port.node_id) is port)

    # ------------------------------------------------------------------
    # Candidate enumeration (the spatial-index seam)
    # ------------------------------------------------------------------
    def _ports_near(self, position: Position,
                    radius: float) -> Iterable[TransceiverPort]:
        """Ports that *may* be within ``radius`` of ``position``, in
        attach order.  Callers still apply the exact distance test, so the
        in-range subset comes out in the order a full scan would give.
        """
        order = self._attach_order
        return sorted(self._index.near(position, radius),
                      key=lambda port: order[port.node_id])

    def _active_near(self, position: Position,
                     radius: float) -> Iterable[_Transmission]:
        """In-flight transmissions whose (snapshotted) source may be
        within ``radius`` of ``position``."""
        candidates: List[_Transmission] = []
        for key in self._index.cells_covering(position, radius):
            candidates.extend(self._active_cells.get(key, ()))
        return candidates

    # ------------------------------------------------------------------
    # Channel state
    # ------------------------------------------------------------------
    def channel_busy(self, pos: Position) -> bool:
        """Carrier sense: is any in-flight transmitter audible at ``pos``?

        Transmissions whose sender has since been detached are ignored:
        a removed node's stale position must not keep the channel busy.
        """
        self._prune()
        return any(
            distance(tx.src_pos, pos) <= self.communication_radius
            for tx in self._active_near(pos, self.communication_radius)
            if self._attached(tx.src_port))

    def airtime(self, frame: Frame) -> float:
        """Seconds this frame occupies the channel."""
        return frame.size_bits / self.bitrate

    def neighbors_of(self, node_id: int,
                     radius: Optional[float] = None) -> List[int]:
        """Node ids within ``radius`` (default: communication radius)."""
        port = self._ports[node_id]
        limit = self.communication_radius if radius is None else radius
        origin = port.position
        return sorted(
            other.node_id for other in self._ports_near(origin, limit)
            if other.node_id != node_id
            and distance(origin, other.position) <= limit)

    # ------------------------------------------------------------------
    # Disturbances (fault injection)
    # ------------------------------------------------------------------
    def add_disturbance(self, extra_loss: float, start: float, end: float,
                        center: Optional[Position] = None,
                        radius: Optional[float] = None) -> Disturbance:
        """Register a timed (optionally regional) extra-loss window."""
        if not 0.0 <= extra_loss <= 1.0:
            raise ValueError(f"extra loss must be in [0, 1]: {extra_loss}")
        if end <= start:
            raise ValueError(f"empty disturbance window: [{start}, {end})")
        if (center is None) != (radius is None):
            raise ValueError("center and radius must be given together")
        if radius is not None and radius <= 0:
            raise ValueError(f"disturbance radius must be positive: {radius}")
        disturbance = Disturbance(extra_loss=extra_loss, start=start,
                                  end=end, center=center, radius=radius)
        self._disturbances.append(disturbance)
        return disturbance

    def active_disturbances(self) -> List[Disturbance]:
        """Disturbances covering the current instant."""
        now = self.sim.now
        self._disturbances = [d for d in self._disturbances if d.end > now]
        return [d for d in self._disturbances if d.active(now)]

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> None:
        """Put ``frame`` on the air from its source's current position.

        Delivery (or silent loss) happens after the frame's airtime plus
        propagation delay.
        """
        src_port = self._ports.get(frame.src)
        if src_port is None:
            raise KeyError(f"unknown source node {frame.src}")
        now = self.sim.now
        frame.sent_at = now
        src_pos = src_port.position
        tx = _Transmission(frame=frame, src_pos=src_pos, start=now,
                           end=now + self.airtime(frame),
                           cell=self._index.cell_of(src_pos),
                           src_port=src_port)
        self._prune()
        disturbances = self.active_disturbances()
        reach = (self.communication_radius if frame.tx_range is None
                 else min(frame.tx_range, self.communication_radius))
        # Build the reception set: everyone in range except the sender.
        for port in self._ports_near(src_pos, reach):
            if port.node_id == frame.src or not port.enabled:
                continue
            d = distance(src_pos, port.position)
            if d > reach:
                continue
            reception = _Reception(receiver=port)
            if self._rng.random() < self._loss_probability(d, reach):
                reception.corrupt("channel")
            for disturbance in disturbances:
                if reception.corrupted:
                    break
                if disturbance.covers(port.position) and \
                        self._jam_rng.random() < disturbance.extra_loss:
                    reception.corrupt("jam")
            tx.receptions.append(reception)
        # Mutual collision marking against concurrently active airtime.
        # Any transmission that can corrupt one of our receptions — or
        # whose receptions we can corrupt — has its source within
        # interference_radius + communication_radius of ours, so the
        # indexed candidate set is a superset of the relevant ones.
        interference_reach = (self.interference_radius
                              + self.communication_radius)
        for other in self._active_near(src_pos, interference_reach):
            if not tx.overlaps(other):
                continue
            for reception in tx.receptions:
                if distance(other.src_pos,
                            reception.receiver.position) \
                        <= self.interference_radius:
                    reception.corrupt("collision")
            for reception in other.receptions:
                if distance(src_pos, reception.receiver.position) \
                        <= self.interference_radius:
                    reception.corrupt("collision")
        self._active.append(tx)
        self._active_cells.setdefault(tx.cell, []).append(tx)
        self.stats.on_send(frame.kind, frame.size_bits, frame.src, now)
        airtime = self.airtime(frame)
        self._frames_sent.inc(1.0, frame.kind)
        self._bits_sent.inc(float(frame.size_bits), frame.kind)
        self._airtime_seconds.inc(airtime)
        self.sim.record("radio.tx", node=frame.src, kind=frame.kind,
                        frame_id=frame.frame_id, dst=frame.dst)
        self.sim.schedule(airtime + self.propagation_delay,
                          self._complete, tx, label="radio.delivery")

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
        delivered = 0
        dst_received = False
        for reception in tx.receptions:
            if not self._attached(reception.receiver):
                # Receiver detached while the frame was in flight: the
                # radio is gone, so the reception never happened — it is
                # neither an attempt nor a delivery.
                continue
            self.stats.on_reception_attempt(tx.frame.kind,
                                            reception.corrupted)
            if reception.corrupted:
                self.stats.on_reception_dropped(reception.drop_cause
                                                or "unknown")
                self._receptions.inc(1.0, tx.frame.kind,
                                     reception.drop_cause or "unknown")
                continue
            delivered += 1
            if reception.receiver.node_id == tx.frame.dst:
                dst_received = True
            self.stats.on_receive(tx.frame.kind, self.sim.now)
            self._receptions.inc(1.0, tx.frame.kind, "delivered")
            reception.receiver.deliver(tx.frame)
        if not tx.frame.is_broadcast:
            self.stats.on_addressed_outcome(tx.frame.kind, dst_received)
        if delivered == 0:
            # The paper's loss metric: sent but never received on any mote.
            self.stats.on_frame_lost(tx.frame.kind)
            self._frames_lost.inc(1.0, tx.frame.kind)
            self.sim.record("radio.lost", node=tx.frame.src,
                            kind=tx.frame.kind, frame_id=tx.frame.frame_id)

    def _prune(self) -> None:
        now = self.sim.now
        if all(tx.end > now for tx in self._active):
            return
        kept: List[_Transmission] = []
        for tx in self._active:
            if tx.end > now:
                kept.append(tx)
                continue
            bucket = self._active_cells[tx.cell]
            bucket.remove(tx)
            if not bucket:
                del self._active_cells[tx.cell]
        self._active = kept
