"""Differential suite: link-table medium ≡ uncached full-scan reference.

Two media built from identically seeded simulators — the real
:class:`Medium`, which precomputes its static links, and
:class:`FullScanMedium`, an uncached reference model kept here that
recomputes distances, loss, carrier sense, collisions and neighbours on
every call by scanning every port and every in-flight transmission —
are driven through the same randomized program.  The program mixes
broadcasts, unicasts and back-to-back sends (overlapping airtime, so
frames collide), quiesce steps, attaches of new nodes mid-program,
failed ports (``enabled = False``) and geographic next-hop probes,
under random layouts, loss rates and disturbances.  Everything
observable must match **exactly**: delivery logs, carrier sense,
neighbour queries, next hops, radio statistics and the whole-trace
digest.  Any divergence means a link table changed physics (or RNG
draw order), or outlived the topology it was built for.

Frames are created with explicit ``frame_id``s so both media transmit
literally identical frames regardless of module-global counter state.
"""

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import BROADCAST, Frame, Medium, TransceiverPort, distance
from repro.radio.medium import _Transmission
from repro.sim import Simulator, trace_digest
from repro.transport import GeoRouter

FIELD = 40.0


class FullScanMedium(Medium):
    """Reference model: no link tables, every query a full scan of the
    attached ports (in attach order) and of the in-flight airtime, and
    receptions accounted one at a time."""

    def transmit(self, frame):
        src_port = self._ports.get(frame.src)
        if src_port is None:
            raise KeyError(f"unknown source node {frame.src}")
        now = self.sim.now
        frame.sent_at = now
        src_pos = src_port.position
        airtime = self.airtime(frame)
        tx = _Transmission(frame, now, now + airtime, src_port)
        self._prune()
        disturbances = self.active_disturbances()
        reach = (self.communication_radius if frame.tx_range is None
                 else min(frame.tx_range, self.communication_radius))
        for port in list(self._ports.values()):
            if port.node_id == frame.src or not port.enabled:
                continue
            d = distance(src_pos, port.position)
            if d > reach:
                continue
            index = len(tx.receivers)
            tx.receivers.append(port)
            if self._rng.random() < self._loss_probability(d, reach):
                tx.drops[index] = "channel"
            for disturbance in disturbances:
                if index in tx.drops:
                    break
                if disturbance.covers(port.position) and \
                        self._jam_rng.random() < disturbance.extra_loss:
                    tx.drops[index] = "jam"
        for other in self._active:
            if not tx.overlaps(other):
                continue
            for index, receiver in enumerate(tx.receivers):
                if distance(other.src_port.position, receiver.position) \
                        <= self.communication_radius:
                    tx.drops.setdefault(index, "collision")
            for index, receiver in enumerate(other.receivers):
                if distance(src_pos, receiver.position) \
                        <= self.communication_radius:
                    other.drops.setdefault(index, "collision")
        self._active.append(tx)
        self.stats.on_send(frame.kind, frame.size_bits, frame.src)
        self.sim.record("radio.tx", node=frame.src, kind=frame.kind,
                        frame_id=frame.frame_id, dst=frame.dst)
        self.sim.schedule(airtime, self._complete, tx,
                          label="radio.delivery")

    def _complete(self, tx):
        # Per-reception accounting, in reception order.
        stats = self.stats
        frame = tx.frame
        kind = frame.kind
        delivered = 0
        dst_received = False
        for index, receiver in enumerate(tx.receivers):
            cause = tx.drops.get(index)
            if cause is not None:
                stats.receptions[kind, cause] += 1
                continue
            delivered += 1
            if receiver.node_id == frame.dst:
                dst_received = True
            stats.receptions[kind, "delivered"] += 1
            receiver.bits_delivered += frame.size_bits
            receiver.deliver(frame)
        if frame.dst != BROADCAST:
            stats.on_addressed_outcome(kind, dst_received)
        if delivered == 0:
            stats.on_frame_lost(kind)
            self.sim.record("radio.lost", node=frame.src, kind=kind,
                            frame_id=frame.frame_id)

    def channel_busy(self, pos):
        self._prune()
        return any(
            distance(tx.src_port.position, pos) <= self.communication_radius
            for tx in self._active)

    def neighbors_of(self, node_id):
        origin = self._ports[node_id].position
        return sorted(
            other.node_id for other in self._ports.values()
            if other.node_id != node_id
            and distance(origin, other.position)
            <= self.communication_radius)


def scan_next_hop(medium, node_id, dest):
    """Greedy next hop toward ``dest`` by an uncached neighbour scan."""
    best_id = None
    best = distance(medium.port(node_id).position, dest)
    for other in medium.neighbors_of(node_id):
        d = distance(medium.port(other).position, dest)
        if d < best:
            best_id, best = other, d
    return best_id


def coordinates():
    return st.floats(min_value=-FIELD, max_value=FIELD, allow_nan=False,
                     allow_infinity=False)


def positions_strategy():
    return st.lists(st.tuples(coordinates(), coordinates()),
                    min_size=2, max_size=25)


def ops_strategy(node_count: int):
    """A program of medium operations over (at first) ``node_count``
    motes; ``attach`` adds new node ids past the initial range."""
    node = st.integers(min_value=0, max_value=node_count + 3)
    # The gap after a send: 0 puts the next send on the air at the same
    # instant, 1 ms (< the 5.76 ms airtime) still overlaps it.
    send = st.tuples(st.just("send"), node,
                     st.one_of(st.just(BROADCAST), node),
                     st.one_of(st.none(),
                               st.floats(min_value=0.5, max_value=12.0,
                                         allow_nan=False)),
                     st.sampled_from([0.0, 0.001, 0.01]))
    quiesce = st.tuples(st.just("quiesce"), st.just(0), st.just(0),
                        st.none(), st.just(0.0))
    # A new node lands within radio range of an existing one.
    offset = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
    attach = st.tuples(st.just("attach"), node, st.just(0), offset, offset)
    toggle = st.tuples(st.just("toggle"), node, st.just(0), st.none(),
                       st.just(0.0))
    route = st.tuples(st.just("route"), node, st.just(0), coordinates(),
                      coordinates())
    return st.lists(st.one_of(send, quiesce, attach, toggle, route),
                    min_size=1, max_size=40)


class _Rig:
    """One medium plus the mutable state the op program manipulates."""

    def __init__(self, medium_class, seed, positions, loss, soft_start,
                 soft_loss, disturbances):
        self.sim = Simulator(seed=seed)
        self.medium = medium_class(self.sim, communication_radius=6.0,
                                   base_loss_rate=loss,
                                   soft_edge_start=soft_start,
                                   soft_edge_loss=soft_loss)
        for extra, start, end in disturbances:
            self.medium.add_disturbance(extra, start, end)
        self.inbox = []
        self.ports = {}
        self.routers = {}
        for position in positions:
            self.attach(position)

    def attach(self, position):
        node_id = len(self.ports)
        port = TransceiverPort(
            node_id, position,
            lambda frame, i=node_id: self.inbox.append(
                (i, frame.frame_id, frame.src, frame.kind)))
        self.ports[node_id] = port
        self.medium.attach(port)

    def attached(self, node_id):
        return node_id in self.ports

    def next_hop(self, node_id, dest):
        if type(self.medium) is FullScanMedium:
            return scan_next_hop(self.medium, node_id, dest)
        router = self.routers.get(node_id)
        if router is None:
            # The router only reads its host's id, position and medium;
            # it is kept across the program so its cache sees topology
            # changes.
            host = SimpleNamespace(sim=self.sim, node_id=node_id,
                                   position=self.ports[node_id].position,
                                   medium=self.medium)
            router = self.routers[node_id] = GeoRouter(host)
        return router._closest_neighbor(dest)

    def run(self, ops):
        frame_id = 0
        probes = []
        for op, a, b, c, d in ops:
            if op == "send" and self.attached(a):
                frame_id += 1
                self.medium.transmit(Frame(
                    src=a, dst=b if self.attached(b) or b == BROADCAST
                    else BROADCAST,
                    kind="eq", frame_id=frame_id, tx_range=c))
                probes.append(("busy", self.medium.channel_busy(
                    self.ports[a].position)))
                self.sim.run(until=self.sim.now + d)
            elif op == "quiesce":
                self.sim.run()
            elif op == "attach":
                near = self.ports.get(a, self.ports[0]).position
                self.attach((near[0] + c, near[1] + d))
            elif op == "toggle" and self.attached(a):
                port = self.ports[a]
                port.enabled = not port.enabled
            elif op == "route" and self.attached(a):
                probes.append(("hop", self.next_hop(a, (c, d))))
            if self.attached(a):
                probes.append(("nbr", tuple(self.medium.neighbors_of(a))))
                probes.append(("busy", self.medium.channel_busy(
                    self.ports[a].position)))
        self.sim.run()
        return probes

    def observations(self, probes):
        return (self.inbox, probes, repr(self.medium.stats),
                trace_digest(self.sim),
                self.medium.sim.metrics.render_prometheus(),
                [port.bits_delivered for port in self.ports.values()])


@settings(max_examples=200, deadline=None)
@given(positions=positions_strategy(),
       loss=st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
       soft=st.tuples(st.floats(min_value=0.5, max_value=1.0,
                                allow_nan=False),
                      st.floats(min_value=0.0, max_value=0.8,
                                allow_nan=False)),
       disturbances=st.lists(
           st.tuples(st.floats(min_value=0.0, max_value=1.0,
                               allow_nan=False),
                     st.floats(min_value=0.0, max_value=0.05,
                               allow_nan=False),
                     st.floats(min_value=0.06, max_value=0.3,
                               allow_nan=False)),
           max_size=2),
       seed=st.integers(min_value=0, max_value=2**31),
       data=st.data())
def test_grid_equals_full_scan(positions, loss, soft, disturbances, seed,
                               data):
    ops = data.draw(ops_strategy(len(positions)))
    soft_start, soft_loss = soft
    results = []
    for medium_class in (Medium, FullScanMedium):
        rig = _Rig(medium_class, seed, positions, loss, soft_start,
                   soft_loss, disturbances)
        probes = rig.run(ops)
        results.append(rig.observations(probes))
    grid, scan = results
    assert grid[0] == scan[0], "delivery logs diverged"
    assert grid[1] == scan[1], "busy/neighbor/next-hop probes diverged"
    assert grid[2] == scan[2], "radio stats diverged"
    assert grid[3] == scan[3], "trace digests diverged"
    assert grid[4] == scan[4], "metric exports diverged"
    assert grid[5] == scan[5], "delivered bits diverged"


@settings(max_examples=50, deadline=None)
@given(positions=positions_strategy(),
       radius=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
       origin=st.tuples(
           st.floats(min_value=-FIELD, max_value=FIELD, allow_nan=False),
           st.floats(min_value=-FIELD, max_value=FIELD, allow_nan=False)))
def test_neighbor_queries_match_any_radius(positions, radius, origin):
    """neighbors_of at any communication radius returns exactly the
    closed-disk membership (boundary inclusive)."""
    medium = Medium(Simulator(seed=1), communication_radius=radius)
    for i, pos in enumerate(positions):
        medium.attach(TransceiverPort(i, pos, lambda frame: None))
    medium.attach(TransceiverPort(999, origin, lambda frame: None))
    expected = sorted(
        i for i, pos in enumerate(positions)
        if math.hypot(pos[0] - origin[0], pos[1] - origin[1]) <= radius)
    assert medium.neighbors_of(999) == expected
