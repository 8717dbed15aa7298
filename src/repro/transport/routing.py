"""Location-aware routing substrate.

The paper assumes "network nodes and routing are location-aware" and cites
LAR/DREAM/RAP-style geographic routing as the complementary network layer.
We implement greedy geographic forwarding: each hop hands the packet to the
neighbor strictly closest to the destination point; the node with no closer
neighbor *is* the destination area and delivers locally.

Greedy forwarding is loop-free and, on the evaluation's grid deployments
(connectivity radius ≥ grid spacing), always reaches the node nearest the
target coordinate.  Voids in sparse random deployments surface as recorded
``geo.dead_end`` drops rather than silent loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from ..node import Component, Mote
from ..radio import distance

Position = Tuple[float, float]
DeliveryHandler = Callable[[Any, int], None]

GEO_KIND = "geo.data"

#: Safety valve against forwarding loops from stale position data.
DEFAULT_TTL = 64


@dataclass(frozen=True, slots=True)
class Packet:
    """The ``geo.data`` message: an upper-layer message on its way to
    ``dest`` (or to the node ``dest_node``, located at ``dest``).

    Each hop forwards a copy with one less ``ttl``; ``inner`` is shared
    by every hop and handed to the delivery handler as is.
    """

    dest: Position
    origin: int
    inner_kind: str
    inner: Any
    ttl: int
    dest_node: Optional[int] = None


class GeoRouter(Component):
    """Greedy geographic forwarding on one mote.

    Upper layers register delivery handlers per inner message kind and
    route payloads to field coordinates; the router handles hop-by-hop
    forwarding and local delivery.
    """

    name = "geo"

    def __init__(self, mote: Mote) -> None:
        super().__init__(mote)
        self._handlers: Dict[str, DeliveryHandler] = {}
        self.forwarded = 0
        self.delivered = 0
        self.dead_ends = 0
        self._next_hops: Dict[Position, Optional[int]] = {}
        self._hops_version = -1

    def on_start(self) -> None:
        self.handle(GEO_KIND, self._on_frame)

    # ------------------------------------------------------------------
    def register_delivery(self, inner_kind: str,
                          handler: DeliveryHandler) -> None:
        """Register the upper-layer handler for ``inner_kind`` payloads.

        The handler receives ``(inner_payload, origin_node_id)``: the
        message object the origin routed, which it must type-check.
        """
        if inner_kind in self._handlers:
            raise ValueError(f"delivery handler for {inner_kind!r} exists")
        self._handlers[inner_kind] = handler

    def route_to_point(self, dest: Position, inner_kind: str,
                       inner_payload: Any) -> None:
        """Send a payload toward a field coordinate, with a hop budget of
        :data:`DEFAULT_TTL`.

        Delivery happens at the node closest to ``dest`` (the "directory
        object" semantics of §5.3: nodes near the hashed coordinate).
        """
        self._step(Packet(dest, self.node_id, inner_kind, inner_payload,
                          DEFAULT_TTL))

    def route_to_node(self, dest_node: int, inner_kind: str,
                      inner_payload: Any) -> None:
        """Send a payload to a specific node, routing by its position,
        with a hop budget of :data:`DEFAULT_TTL`.

        Location-awareness assumption: the sender can resolve the node's
        coordinates (the paper's location services, e.g. GLS [24]).
        """
        try:
            dest = self.mote.medium.port(dest_node).position
        except KeyError:
            self.dead_ends += 1
            self.record("dead_end", reason="unknown_node", dest=dest_node)
            return
        self._step(Packet(dest, self.node_id, inner_kind, inner_payload,
                          DEFAULT_TTL, dest_node))

    # ------------------------------------------------------------------
    def _on_frame(self, frame) -> None:
        packet = frame.payload
        if isinstance(packet, Packet):
            self._step(packet)

    def _step(self, packet: Packet) -> None:
        dest_node = packet.dest_node
        if dest_node == self.node_id:
            self._deliver(packet)
            return
        if packet.ttl <= 0:
            self.dead_ends += 1
            self.record("dead_end", reason="ttl")
            return
        next_hop = self._closest_neighbor(packet.dest)
        if next_hop is None:
            if dest_node is not None:
                # The addressed node is unreachable/gone; point delivery
                # semantics do not apply to explicit unicast.
                self.dead_ends += 1
                self.record("dead_end", reason="unreachable_node",
                            dest=dest_node)
                return
            self._deliver(packet)
            return
        self.forwarded += 1
        self.unicast(next_hop, GEO_KIND, replace(packet, ttl=packet.ttl - 1))

    def _closest_neighbor(self, dest: Position) -> Optional[int]:
        """The neighbor strictly closer to ``dest`` than this node and
        closest of all (None: this node is the destination area).

        Motes are static, so the answer is cached per destination until
        the medium's topology changes (a late attach).
        """
        medium = self.mote.medium
        if self._hops_version != medium.topology_version:
            self._next_hops.clear()
            self._hops_version = medium.topology_version
        try:
            return self._next_hops[dest]
        except KeyError:
            pass
        best_id, best_distance = None, distance(self.mote.position, dest)
        for neighbor_id in medium.neighbors_of(self.node_id):
            d = distance(medium.port(neighbor_id).position, dest)
            if d < best_distance:
                best_id, best_distance = neighbor_id, d
        if not math.isnan(best_distance):
            self._next_hops[dest] = best_id
        return best_id

    def _deliver(self, packet: Packet) -> None:
        handler = self._handlers.get(packet.inner_kind)
        if handler is None:
            self.record("undeliverable", kind=packet.inner_kind)
            return
        self.delivered += 1
        handler(packet.inner, packet.origin)
