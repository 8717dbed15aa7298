"""Batch entries must be indistinguishable from one heap entry per event.

A frame's idle receivers are served from one heap entry
(:meth:`repro.sim.Simulator.schedule_batched`).  The reference is the
unbatched path, kept here: every batched event pushed as its own plain
entry, as ``schedule_at`` would push it.  Random broadcast programs on
six motes are run both ways: overlapping frames from several senders
(some relayed by their receivers, each of which also schedules a plain
event at the time its relay's service ends), busy receivers (CPU work
posted under a span), motes whose CPU holds a quiet sense-poll run,
crashes with the reboot before the service of a frame already
delivered, plain periodic tasks, and ``stop()`` calls from inside
handlers.  The driver cuts the run with ``run(until=)``,
``run(until=, max_events=)`` and one event at a time
(``run(max_events=1)``), so cuts land inside batches.  The per-event
log (time, label, node, span), the trace, and at every cut the clock, ``events_fired``,
``events_dispatched``, ``pending()`` and each CPU's counters must match
exactly; with a profiler attached, so must its count per label.
"""

import math
from heapq import heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import BROADCAST, Frame, reset_frame_ids
from repro.sensing import SensorField
from repro.sim import SimulationError, Simulator

HORIZON = 1.2
MOTES = 6


def unbatched(sim, when, callback, arg, label, span):
    """The reference: each batched event is a plain entry of its own."""
    if not when >= sim._now:
        raise SimulationError(f"cannot schedule at {when!r}: now={sim._now}")
    heappush(sim._heap, (when, sim._seq(), callback, (arg,), label,
                         span, None))
    sim._live += 1


class Program:
    """Six motes on a 3x2 grid; corner motes hear three others, middle
    ones five."""

    def __init__(self, sim, costs, quiet, stops):
        self.sim = sim
        self.log = []
        self.stops = stops
        self.field = SensorField(sim, communication_radius=1.5)
        self.field.deploy_grid(3, 2)
        self.timers = []
        for mote, cost, holds_run in zip(self.field.mote_list(), costs,
                                         quiet):
            mote.cpu.task_cost = cost
            mote.register_handler(
                "m", lambda frame, m=mote: self.on_frame(m, frame))
            mote.add_reboot_hook(
                lambda m=mote, q=holds_run: self.start_timers(m, q))
            self.start_timers(mote, holds_run)

    def note(self, label, node):
        sim = self.sim
        self.log.append((sim.now, label, node, sim.spans.current))
        if len(self.log) in self.stops:
            sim.stop()

    def start_timers(self, mote, holds_run):
        node = mote.node_id
        if holds_run:
            # Never reads anything: the CPU holds a quiet run throughout.
            timer = mote.periodic(0.05, lambda: self.note("sense", node),
                                  label="sense", cost=0.0004,
                                  initial_delay=0.003 + 0.007 * node,
                                  quiet_until=lambda t: math.inf)
        else:
            timer = mote.periodic(0.3, lambda: self.note("tick", node),
                                  label="tick",
                                  initial_delay=0.011 * (node + 1))
        timer.start()
        self.timers.append(timer)

    def on_frame(self, mote, frame):
        node = mote.node_id
        self.note("rx.m", node)
        if frame.payload:
            # A plain event at the time the relay's tx service ends,
            # drawn between two receivers' relays: the second relay must
            # not join the first one's entry across it.
            self.sim.schedule(mote.cpu.task_cost, self.note, "echo", node)
            mote.send(Frame(src=node, dst=BROADCAST, kind="m",
                            payload=frame.payload - 1))

    def apply(self, kind, node, value):
        sim, mote = self.sim, self.field.motes[node]
        if kind == "send":
            mote.send(Frame(src=node, dst=BROADCAST, kind="m",
                            payload=value))
        elif kind == "post":
            span = sim.spans.start("work", node)
            sim.spans.current = span
            mote.cpu.post(self.note, "work", node, cost=value / 100,
                          label="work")
        elif kind == "bounce":
            mote.fail()
            sim.schedule(value / 10000, mote.reboot)

    def snapshot(self):
        sim = self.sim
        out = [sim.now, sim.events_fired, sim.events_dispatched,
               sim.pending()]
        for mote in self.field.mote_list():
            cpu = mote.cpu
            out += [cpu.executed, cpu.busy_time, cpu.total_latency,
                    cpu.dropped, cpu.backlog, cpu.max_backlog, cpu.busy]
        out += [timer.fire_count for timer in self.timers]
        return out


def run_program(batched, costs, quiet, actions, cuts, stops, profile):
    reset_frame_ids()
    sim = Simulator(seed=5)
    if not batched:
        sim.schedule_batched = unbatched.__get__(sim)
    profiler = sim.enable_profiler() if profile else None
    program = Program(sim, costs, quiet, stops)
    for when, kind, node, value in actions:
        sim.schedule_at(when, program.apply, kind, node, value)
    snapshots = []
    for kind, value in cuts:
        if kind == "until":
            sim.run(until=value)
        elif kind == "max":
            sim.run(until=HORIZON, max_events=value)
        else:
            for _ in range(value):
                sim.run(max_events=1)
        snapshots.append(program.snapshot())
    sim.run(until=HORIZON)
    snapshots.append(program.snapshot())
    trace = [(r.time, r.category, r.node, sorted(r.detail.items()))
             for r in sim.trace]
    labels = None if profiler is None else sorted(
        (p.label, p.count) for p in profiler.profiles())
    return program.log, trace, snapshots, labels


#: Send times on a 2 ms grid: frames (5.76 ms of airtime) from several
#: senders overlap, and their receivers' services share times.
times = st.integers(min_value=0, max_value=500).map(lambda k: k * 0.002)
nodes = st.integers(min_value=0, max_value=MOTES - 1)
action = st.one_of(
    st.tuples(times, st.just("send"), nodes,
              st.integers(min_value=0, max_value=2)),
    st.tuples(times, st.just("post"), nodes,
              st.integers(min_value=1, max_value=60)),
    st.tuples(times, st.just("bounce"), nodes,
              st.integers(min_value=2, max_value=15)),
)
cut = st.one_of(
    st.tuples(st.just("until"),
              st.floats(min_value=0.0, max_value=HORIZON)),
    st.tuples(st.just("max"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("step"), st.integers(min_value=1, max_value=12)),
)


@settings(max_examples=150, deadline=None)
@given(costs=st.lists(st.sampled_from([0.001, 0.002]), min_size=MOTES,
                      max_size=MOTES),
       quiet=st.lists(st.booleans(), min_size=MOTES, max_size=MOTES),
       actions=st.lists(action, min_size=1, max_size=30),
       cuts=st.lists(cut, max_size=8),
       stops=st.sets(st.integers(min_value=1, max_value=120), max_size=3),
       profile=st.booleans())
def test_batched_receptions_match_unbatched_entries(costs, quiet, actions,
                                                     cuts, stops, profile):
    reference = run_program(False, costs, quiet, actions, cuts, stops,
                            profile)
    batched = run_program(True, costs, quiet, actions, cuts, stops,
                          profile)
    assert batched[0] == reference[0]  # per-event log
    assert batched[1] == reference[1]  # trace
    assert batched[2] == reference[2]  # counters at every cut
    assert batched[3] == reference[3]  # profiler counts per label


def test_a_broadcast_shares_one_entry_among_its_idle_receivers():
    """One frame to five idle receivers: one heap entry serves them."""
    reset_frame_ids()
    sim = Simulator(seed=5)
    program = Program(sim, [0.001] * MOTES, [False] * MOTES, set())
    popped = []
    original = sim._serve_batch

    def serve(members, seq):
        popped.append(len(members))
        original(members, seq)

    sim._serve_batch = serve
    sim.schedule_at(0.5, program.apply, "send", 1, 0)
    sim.run(until=0.6)
    received = [entry for entry in program.log if entry[1] == "rx.m"]
    assert [entry[2] for entry in received] == [0, 2, 3, 4, 5]
    # tx service (1), then the five receivers' services in one entry.
    assert 5 in popped
