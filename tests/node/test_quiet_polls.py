"""Quiet sense-poll runs must be indistinguishable from the plain poll loop.

A poll timer created with ``quiet_until`` charges the polls it can prove
quiet to the CPU without events (:class:`repro.node.cpu.QuietPollTimer`).
The oracle is the plain poll loop: the same program with
:meth:`Mote.periodic` stripped of ``quiet_until``, so every poll is a
timer event plus a CPU task, as before quiet runs existed.  Random
programs of CPU posts (many landing inside a poll's service time),
broadcast frames, frames delivered to every mote at once (some landing
inside one receiver's poll service, so the idle receivers' services
share a batch entry on CPUs that hold quiet runs), targets added and
removed, clock skews, failures, reboots, mid-run counter reads and
``run(until=)`` boundaries (some inside a service time), on one or two
pollers per mote, are run both ways.  The trace, ``events_fired``,
every CPU counter, every ``fire_count`` and the metered CPU energy must
match exactly, at every read.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.node import EnergyMeter, Mote
from repro.radio import (BROADCAST, DEFAULT_BITRATE, DEFAULT_FRAME_BITS,
                         Frame, TransceiverPort, reset_frame_ids)
from repro.sensing import LineTrajectory, SensorField, Target
from repro.sim import Simulator

PERIOD = 0.1
COST = 0.0002
MOTES = 3
HORIZON = 6.0
#: A bare transceiver in range of every mote, without a CPU: its frames
#: reach all the motes at once, exactly one airtime after the send.
BEACON = 99
AIRTIME = DEFAULT_FRAME_BITS / DEFAULT_BITRATE

_quiet_periodic = Mote.periodic


def _plain_periodic(self, period, callback, label="periodic",
                    initial_delay=None, cost=None, quiet_until=None):
    """The reference: the plain poll loop, whatever the caller asks."""
    return _quiet_periodic(self, period, callback, label=label,
                           initial_delay=initial_delay, cost=cost)


def poll_grid(first, count):
    """The first ``count`` poll times of a timer, summed like the timer."""
    times, t = [], first
    for _ in range(count):
        t = t + PERIOD
        times.append(t)
    return times


def tank(index, start_x, speed, active_from):
    return Target(f"tank{index}", "vehicle",
                  LineTrajectory((start_x, 0.3), speed),
                  signature_radius=0.6, active_from=active_from)


class Program:
    """One scenario on three motes, built identically for both runs."""

    def __init__(self, sim, initial_tanks, second_poller=False):
        self.sim = sim
        self.field = SensorField(sim, communication_radius=5.0)
        self.field.deploy_grid(MOTES, 1)
        for spec in initial_tanks:
            self.field.add_target(tank(*spec))
        self.field.install_detection_sensors("detect", kinds=["vehicle"])
        self.field.medium.attach(
            TransceiverPort(BEACON, (1.0, 0.5), lambda frame: None))
        self.meter = EnergyMeter(sim)
        self.timers = []
        for mote in self.field.mote_list():
            self.meter.attach(mote)
            mote.register_handler("ping", lambda frame, m=mote: sim.record(
                "ping.rx", node=m.node_id, src=frame.src))
            mote.add_reboot_hook(
                lambda m=mote: self.start_pollers(m, 0.047, second_poller))
            self.start_pollers(mote, 0.011 + 0.023 * mote.node_id,
                               second_poller)
        self.reads = []
        self.added = 0

    def start_pollers(self, mote, delay, second_poller):
        self.start_poller(mote, delay, PERIOD, COST, "sense")
        if second_poller:
            # A second context type: the two share the mote's CPU, and
            # only one of them may hold it in a quiet run.
            self.start_poller(mote, delay + 0.031, 0.13, 0.0005, "sense2")

    def start_poller(self, mote, delay, period, cost, label):
        """A group-manager-like sense check: quiet while not sensing."""
        state = {"sensing": False}
        sim = self.sim

        def check():
            value = bool(mote.read_sensor("detect"))
            if value != state["sensing"]:
                state["sensing"] = value
                sim.record("sense.edge", node=mote.node_id, value=value,
                           poller=label)

        def quiet_until(t):
            if state["sensing"]:
                return t
            return mote.sensor_quiet_until("detect", t)

        timer = mote.periodic(period, check, label=label,
                              initial_delay=delay, cost=cost,
                              quiet_until=quiet_until)
        timer.start()
        self.timers.append(timer)

    def snapshot(self):
        sim = self.sim
        out = [sim.now, sim.events_fired]
        for mote in self.field.mote_list():
            cpu = mote.cpu
            out += [cpu.executed, cpu.busy_time, cpu.total_latency,
                    cpu.utilization(), cpu.mean_latency(), cpu.busy,
                    cpu.dropped, cpu.max_backlog, cpu.backlog,
                    self.meter.ledger(mote.node_id).cpu_joules]
        out += [timer.fire_count for timer in self.timers]
        return out

    def apply(self, kind, node, value):
        sim, mote = self.sim, self.field.motes[node]
        if kind == "post":
            mote.cpu.post(sim.record, "task", cost=value, label="task")
        elif kind == "send":
            mote.send(Frame(src=node, dst=BROADCAST, kind="ping"))
        elif kind == "flood":
            self.field.medium.transmit(
                Frame(src=BEACON, dst=BROADCAST, kind="ping"))
        elif kind == "add":
            self.added += 1
            self.field.add_target(tank(10 + self.added, -value, 1.5,
                                       sim.now))
        elif kind == "remove":
            if self.field.targets:
                self.field.remove_target(self.field.targets[0].name)
        elif kind == "skew":
            mote.skew_clock(value)
        elif kind == "fail":
            mote.fail()
        elif kind == "reboot":
            mote.reboot()
        elif kind == "read":
            self.reads.append(self.snapshot())


def run_program(initial_tanks, actions, boundaries, quiet, monkeypatch,
                second_poller=False):
    if not quiet:
        monkeypatch.setattr(Mote, "periodic", _plain_periodic)
    reset_frame_ids()
    sim = Simulator(seed=3)
    program = Program(sim, initial_tanks, second_poller)
    for when, kind, node, value in actions:
        sim.schedule_at(when, program.apply, kind, node, value)
    snapshots = []
    for until in sorted(boundaries) + [HORIZON]:
        sim.run(until=until)
        snapshots.append(program.snapshot())
    monkeypatch.undo()
    trace = [(r.time, r.category, r.node, sorted(r.detail.items()))
             for r in sim.trace]
    return (trace, snapshots, program.reads,
            sim.events_fired - sim.events_dispatched)


def inside_service(node, k, fraction):
    """A time inside the service of mote ``node``'s ``k``-th poll (before
    any skew or reboot moves its grid)."""
    first = 0.011 + 0.023 * node
    return poll_grid(first, k + 1)[-1] + fraction * COST


fractions = st.sampled_from([0.13, 0.5, 0.87])
nodes = st.integers(min_value=0, max_value=MOTES - 1)
polls = st.integers(min_value=0, max_value=50)
off_grid = st.floats(min_value=0.001, max_value=HORIZON - 0.01).map(
    lambda t: t + 0.0000137)

in_service_post = st.tuples(
    nodes, polls, fractions,
    st.sampled_from([0.0005, 0.002, 0.04, 0.15])).map(
    lambda a: (inside_service(a[0], a[1], a[2]), "post", a[0], a[3]))
in_service_flood = st.tuples(nodes, polls, fractions).map(
    lambda a: (inside_service(*a) - AIRTIME, "flood", a[0], 0.0))
action = st.one_of(
    in_service_post,
    in_service_flood,
    st.tuples(off_grid, st.just("flood"), nodes, st.just(0.0)),
    st.tuples(off_grid, st.just("post"), nodes,
              st.floats(min_value=0.0001, max_value=0.3)),
    st.tuples(off_grid, st.just("send"), nodes, st.just(0.0)),
    st.tuples(off_grid, st.just("add"), nodes,
              st.floats(min_value=0.5, max_value=6.0)),
    st.tuples(off_grid, st.just("remove"), nodes, st.just(0.0)),
    st.tuples(off_grid, st.just("skew"), nodes,
              st.floats(min_value=0.8, max_value=1.25)),
    st.tuples(off_grid, st.just("fail"), nodes, st.just(0.0)),
    st.tuples(off_grid, st.just("reboot"), nodes, st.just(0.0)),
    st.tuples(off_grid, st.just("read"), nodes, st.just(0.0)),
    st.tuples(nodes, polls, fractions).map(
        lambda a: (inside_service(a[0], a[1], a[2]), "read", a[0], 0.0)),
)
boundary = st.one_of(
    off_grid,
    st.tuples(nodes, polls, fractions).map(
        lambda a: inside_service(*a)))
tank_spec = st.tuples(st.floats(min_value=-8.0, max_value=-0.5),
                      st.floats(min_value=0.5, max_value=3.0),
                      st.floats(min_value=0.0, max_value=3.0))


@settings(max_examples=300)
@given(tanks=st.lists(tank_spec, max_size=2),
       actions=st.lists(action, max_size=25),
       boundaries=st.lists(boundary, max_size=4),
       second_poller=st.booleans())
def test_quiet_runs_match_the_plain_poll_loop(tanks, actions, boundaries,
                                              second_poller):
    initial = [(i, x, speed, start)
               for i, (x, speed, start) in enumerate(tanks)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        plain = run_program(initial, actions, boundaries, False,
                            monkeypatch, second_poller)
    with pytest.MonkeyPatch.context() as monkeypatch:
        quiet = run_program(initial, actions, boundaries, True,
                            monkeypatch, second_poller)
    assert plain[3] == 0
    assert quiet[0] == plain[0]  # trace
    assert quiet[1] == plain[1]  # counters at each run(until=) boundary
    assert quiet[2] == plain[2]  # counters read inside event handlers


def test_quiet_runs_skip_most_events(monkeypatch):
    """One far-off tank: nearly every event is charged, not dispatched."""
    plain = run_program([(0, -60.0, 1.0, 0.0)], [], [], False, monkeypatch)
    quiet = run_program([(0, -60.0, 1.0, 0.0)], [], [], True, monkeypatch)
    assert quiet[:3] == plain[:3]
    events = plain[1][-1][1]
    assert quiet[3] > 0.9 * events


def test_end_poll_fires_for_real_when_the_target_arrives(monkeypatch):
    """A tank arriving mid-run ends the quiet run at the first poll that
    could see it: the sense edge is recorded at the same instant."""
    spec = [(0, -4.0, 2.0, 0.0)]
    plain = run_program(spec, [], [], False, monkeypatch)
    quiet = run_program(spec, [], [], True, monkeypatch)
    edges = [record for record in quiet[0] if record[1] == "sense.edge"]
    assert edges and quiet[0] == plain[0]
    assert quiet[3] > 0


def test_quiet_counter_counts_charged_services():
    sim = Simulator()
    field = SensorField(sim)
    mote = field.add_mote((0.0, 0.0))
    field.install_detection_sensors("detect")
    timer = mote.periodic(PERIOD, lambda: None, label="sense",
                          initial_delay=0.05, cost=COST,
                          quiet_until=lambda t: math.inf)
    timer.start()
    sim.run(until=1.0)
    # Polls at 0.05, 0.15, …, 0.95: the first fires for real, all ten
    # are served without a CPU task.
    assert timer.fire_count == 10
    assert sim.implicit_polls == 10
    assert mote.cpu.executed == 10
    assert sim.events_fired == 20
    assert sim.events_dispatched == 1
    assert timer.running
    timer.stop()
    assert not timer.running
