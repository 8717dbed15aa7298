"""Differential suite: grid-indexed medium ≡ full-scan reference model.

Two media built from identically seeded simulators — the real,
grid-indexed :class:`Medium` and :class:`FullScanMedium`, a reference
model kept here whose candidate queries scan every port and every
in-flight transmission — are driven through the same randomized program
of broadcasts, unicasts, quiesce steps, detaches and (quiescent) moves,
under random layouts, loss rates and disturbances.  Everything
observable must match **exactly**: delivery logs, carrier sense,
neighbor queries, radio statistics and the whole-trace digest.  Any
divergence means the index changed physics (or RNG draw order), not
just speed.

Frames are created with explicit ``frame_id``s so both media transmit
literally identical frames regardless of module-global counter state.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import BROADCAST, Frame, Medium, TransceiverPort
from repro.sim import Simulator, trace_digest

FIELD = 40.0


class FullScanMedium(Medium):
    """Reference model: no spatial index, every query is a full scan in
    attach order."""

    def _ports_near(self, position, radius):
        return list(self._ports.values())

    def _active_near(self, position, radius):
        return list(self._active)


def positions_strategy():
    coordinate = st.floats(min_value=-FIELD, max_value=FIELD,
                           allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(coordinate, coordinate),
                    min_size=2, max_size=25)


def ops_strategy(node_count: int):
    """A program of medium operations over ``node_count`` motes."""
    node = st.integers(min_value=0, max_value=node_count - 1)
    send = st.tuples(st.just("send"), node,
                     st.one_of(st.just(BROADCAST), node),
                     st.one_of(st.none(),
                               st.floats(min_value=0.5, max_value=12.0,
                                         allow_nan=False)))
    quiesce = st.tuples(st.just("quiesce"), st.just(0), st.just(0),
                        st.none())
    detach = st.tuples(st.just("detach"), node, st.just(0), st.none())
    # Moves happen only at quiescence (positions must not change while a
    # transmission is in flight — docs/PROTOCOL.md §7), so the op first
    # drains the channel, then relocates, then notifies both media.
    move = st.tuples(st.just("move"), node,
                     st.integers(min_value=-3, max_value=3),
                     st.floats(min_value=-FIELD, max_value=FIELD,
                               allow_nan=False))
    return st.lists(st.one_of(send, quiesce, detach, move),
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
        self.positions = {i: pos for i, pos in enumerate(positions)}
        self.inbox = []
        self.attached = set()
        for i in range(len(positions)):
            self.medium.attach(TransceiverPort(
                i, (lambda i=i: self.positions[i]),
                (lambda frame, i=i: self.inbox.append(
                    (i, frame.frame_id, frame.src, frame.kind)))))
            self.attached.add(i)

    def run(self, ops):
        frame_id = 0
        probes = []
        for op, a, b, c in ops:
            if op == "send" and a in self.attached:
                frame_id += 1
                self.medium.transmit(Frame(
                    src=a, dst=b if b in self.attached or b == BROADCAST
                    else BROADCAST,
                    kind="eq", frame_id=frame_id, tx_range=c))
                probes.append(("busy", self.medium.channel_busy(
                    self.positions[a])))
                self.sim.run(until=self.sim.now + 0.001)
            elif op == "quiesce":
                self.sim.run()
            elif op == "detach" and a in self.attached:
                self.medium.detach(a)
                self.attached.discard(a)
            elif op == "move" and a in self.attached:
                self.sim.run()  # drain: no moves during airtime
                old = self.positions[a]
                self.positions[a] = (old[0] + 2.5 * b, c)
                self.medium.refresh_position(a)
            if a in self.attached:
                probes.append(("nbr", tuple(self.medium.neighbors_of(a))))
        self.sim.run()
        return probes

    def observations(self, probes):
        return (self.inbox, probes, repr(self.medium.stats),
                trace_digest(self.sim))


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
def test_grid_equals_full_scan(positions, loss, soft, disturbances,
                               seed, data):
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
    assert grid[1] == scan[1], "busy/neighbor probes diverged"
    assert grid[2] == scan[2], "radio stats diverged"
    assert grid[3] == scan[3], "trace digests diverged"


@settings(max_examples=50, deadline=None)
@given(positions=positions_strategy(),
       radius=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
       origin=st.tuples(
           st.floats(min_value=-FIELD, max_value=FIELD, allow_nan=False),
           st.floats(min_value=-FIELD, max_value=FIELD, allow_nan=False)))
def test_neighbor_queries_match_any_radius(positions, radius, origin):
    """neighbors_of with an explicit radius — larger or smaller than the
    cell size — returns exactly the closed-disk membership (boundary
    inclusive)."""
    medium = Medium(Simulator(seed=1), communication_radius=6.0)
    for i, pos in enumerate(positions):
        medium.attach(TransceiverPort(i, (lambda p=pos: p),
                                      lambda frame: None))
    medium.attach(TransceiverPort(999, (lambda: origin),
                                  lambda frame: None))
    expected = sorted(
        i for i, pos in enumerate(positions)
        if math.hypot(pos[0] - origin[0], pos[1] - origin[1]) <= radius)
    assert medium.neighbors_of(999, radius=radius) == expected
