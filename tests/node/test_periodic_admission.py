"""A periodic fire's own admission must match posting it to the CPU.

A :class:`repro.node.cpu.PeriodicTask` fire that finds its CPU up, idle
and holding no quiet run admits its task itself, as one plain heap
entry; every other fire posts it through :meth:`repro.node.Cpu.post`.
The reference is the fire without the direct path, kept here: re-arm
through the timer service, then post, whatever the CPU is doing.
Random programs on one to three motes are run both ways: periodic tasks
whose cost is below, equal to or above their period (or the CPU's task
cost), CPUs kept busy by frame tasks and posted work, queue overflow,
crashes and reboots, clock skews, ``stop()``/``start()`` from inside a
task, a quiet sense-poll run on the same CPU, and ``run(until=,
max_events=)`` cuts, with and without a profiler.  The trace digest,
``events_fired``, ``events_dispatched``, every CPU's counters, every
timer's ``fire_count`` and the profiler's count per label must match.

The work-count pin below keeps a static-membership deployment's polls
out of batch entries, so a change that routes them back through
one-member batches fails here, not only in a benchmark run.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.groups import GroupConfig, GroupManager
from repro.node.cpu import PeriodicTask
from repro.radio import BROADCAST, Frame
from repro.sensing import SensorField
from repro.sim import Simulator, trace_digest

HORIZON = 1.5
#: A quiet poll run's window: nothing to read before each multiple.
QUIET_WINDOW = 0.4


def posted_fire(self):
    """The reference: re-arm, then post the task, on any CPU."""
    self.fire_count += 1
    self._sim.timers.arm(self._handle, self.period)
    self._cpu.post(self._callback, cost=self._cost, label=self._task_label)


class Program:
    """Motes on a line, all in range of each other."""

    def __init__(self, sim, motes, stops):
        self.sim = sim
        self.log = []
        self.stops = stops
        self.timers = []
        self.field = SensorField(sim, communication_radius=5.0)
        self.field.deploy_grid(len(motes), 1)
        for mote, spec in zip(self.field.mote_list(), motes):
            task_cost, queue_limit, tasks, quiet = spec
            mote.cpu.task_cost = task_cost
            mote.cpu.queue_limit = queue_limit
            mote.register_handler(
                "m", lambda frame, m=mote: self.note("rx.m", m.node_id))
            mote.add_reboot_hook(
                lambda m=mote, t=tasks, q=quiet: self.start_timers(m, t, q))
            self.start_timers(mote, tasks, quiet)

    def note(self, label, node):
        sim = self.sim
        self.log.append((sim.now, label, node, sim.spans.current))
        if len(self.log) in self.stops:
            sim.stop()

    def start_timers(self, mote, tasks, quiet):
        node = mote.node_id
        for index, (period, share, delay, restarts) in enumerate(tasks):
            cost = None if share is None else share * period
            label = f"tick{index}"
            # The task may stop or restart its own timer.
            state = {"runs": 0, "restarts": restarts}
            timer = state["timer"] = mote.periodic(
                period, lambda s=state, l=label: self.tick(s, l, node),
                label=label, initial_delay=delay, cost=cost)
            timer.start()
            self.timers.append(timer)
        if quiet is not None:
            if quiet:
                until = lambda t: math.inf  # noqa: E731
            else:
                until = lambda t: (  # noqa: E731
                    math.floor(t / QUIET_WINDOW) + 1) * QUIET_WINDOW
            timer = mote.periodic(0.05, lambda: self.note("sense", node),
                                  label="sense", cost=0.0004,
                                  initial_delay=0.003 + 0.007 * node,
                                  quiet_until=until)
            timer.start()
            self.timers.append(timer)

    def tick(self, state, label, node):
        self.note(label, node)
        state["runs"] += 1
        action = state["restarts"].get(state["runs"])
        if action == "stop":
            state["timer"].stop()
        elif action is not None:
            state["timer"].start(action)

    def apply(self, kind, node, value):
        sim, mote = self.sim, self.field.motes[node]
        if kind == "send":
            mote.send(Frame(src=node, dst=BROADCAST, kind="m"))
        elif kind == "post":
            span = sim.spans.start("work", node)
            sim.spans.current = span
            mote.cpu.post(self.note, "work", node, cost=value,
                          label="work")
        elif kind == "bounce":
            mote.fail()
            sim.schedule(value, mote.reboot)
        elif kind == "skew":
            mote.skew_clock(value)

    def snapshot(self):
        sim = self.sim
        out = [sim.now, sim.events_fired, sim.events_dispatched,
               sim.pending()]
        for mote in self.field.mote_list():
            cpu = mote.cpu
            out += [cpu.executed, cpu.busy_time, cpu.total_latency,
                    cpu.max_backlog, cpu.dropped, cpu.backlog, cpu.busy]
        out += [timer.fire_count for timer in self.timers]
        return out


def run_program(direct, motes, actions, cuts, stops, profile, monkeypatch):
    if not direct:
        monkeypatch.setattr(PeriodicTask, "_fire", posted_fire)
    sim = Simulator(seed=11)
    profiler = sim.enable_profiler() if profile else None
    program = Program(sim, motes, stops)
    for when, kind, node, value in actions:
        if node < len(motes):
            sim.schedule_at(when, program.apply, kind, node, value)
    snapshots = []
    for until, budget in cuts:
        sim.run(until=until, max_events=budget)
        snapshots.append(program.snapshot())
    sim.run(until=HORIZON)
    snapshots.append(program.snapshot())
    monkeypatch.undo()
    labels = None if profiler is None else sorted(
        (p.label, p.count) for p in profiler.hot(100))
    return program.log, trace_digest(sim), snapshots, labels


#: A task's (period, cost as a share of it, initial delay, restarts):
#: the cost below, equal to or above the period, or the CPU's task cost;
#: at its k-th run the task stops its timer or restarts it after a delay.
periodic_task = st.tuples(
    st.sampled_from([0.01, 0.023, 0.05]),
    st.sampled_from([None, 0.3, 1.0, 1.7]),
    st.sampled_from([None, 0.0, 0.004, 0.017]),
    st.dictionaries(st.integers(min_value=1, max_value=12),
                    st.sampled_from(["stop", 0.0, 0.005, 0.031]),
                    max_size=2))
#: A mote's (task cost, queue limit, periodic tasks, quiet run): None,
#: a run quiet throughout, or runs broken every QUIET_WINDOW seconds.
mote_spec = st.tuples(
    st.sampled_from([0.001, 0.004]),
    st.integers(min_value=1, max_value=4),
    st.lists(periodic_task, min_size=1, max_size=2),
    st.sampled_from([None, True, False]))
times = st.integers(min_value=0, max_value=700).map(lambda k: k * 0.002)
nodes = st.integers(min_value=0, max_value=2)
action = st.one_of(
    st.tuples(times, st.just("send"), nodes, st.just(0.0)),
    st.tuples(times, st.just("post"), nodes,
              st.sampled_from([0.0005, 0.003, 0.02, 0.08])),
    st.tuples(times, st.just("bounce"), nodes,
              st.sampled_from([0.0, 0.0013, 0.05])),
    st.tuples(times, st.just("skew"), nodes,
              st.sampled_from([0.8, 1.1, 1.25])),
)
cut = st.tuples(st.floats(min_value=0.0, max_value=HORIZON),
                st.one_of(st.none(), st.integers(min_value=1,
                                                 max_value=40)))


@settings(max_examples=150, deadline=None)
@given(motes=st.lists(mote_spec, min_size=1, max_size=3),
       actions=st.lists(action, max_size=25),
       cuts=st.lists(cut, max_size=6),
       stops=st.sets(st.integers(min_value=1, max_value=150), max_size=3),
       profile=st.booleans())
def test_direct_admission_matches_posting(motes, actions, cuts, stops,
                                          profile):
    with pytest.MonkeyPatch.context() as monkeypatch:
        reference = run_program(False, motes, actions, cuts, stops,
                                profile, monkeypatch)
    with pytest.MonkeyPatch.context() as monkeypatch:
        direct = run_program(True, motes, actions, cuts, stops, profile,
                             monkeypatch)
    assert direct[0] == reference[0]  # per-task log
    assert direct[1] == reference[1]  # trace digest
    assert direct[2] == reference[2]  # counters at every cut
    assert direct[3] == reference[3]  # profiler counts per label


def test_static_membership_polls_skip_batch_entries(monkeypatch):
    """A 4x2 grid tracking a fixed member set, as ``transport-storm``
    does: no poll or heartbeat fire that finds its CPU idle is served by
    ``_serve_batch``, and only a few ``timer.*`` tasks are (ones that
    queued behind another, and one-shot expiries)."""
    admitted = set()
    batched = []
    fire = PeriodicTask._fire
    serve_batch = Simulator._serve_batch

    def noting_fire(self):
        cpu = self._cpu
        if not cpu._busy and cpu._poller is None and cpu.boot is not None:
            admitted.add((cpu, self._sim.now, self._task_label))
        fire(self)

    def noting_serve_batch(self, members, seq):
        for finish, task, label, _ in members:
            if label.startswith("timer."):
                batched.append((finish.__self__, task[4], label))
        serve_batch(self, members, seq)

    monkeypatch.setattr(PeriodicTask, "_fire", noting_fire)
    monkeypatch.setattr(Simulator, "_serve_batch", noting_serve_batch)
    sim = Simulator(seed=1)
    field = SensorField(sim, communication_radius=2.5, base_loss_rate=0.02)
    motes = field.deploy_grid(4, 2)
    group = {2, 3, 6, 7}
    for mote in motes:
        manager = GroupManager(mote)
        manager.track("dst", lambda m: m.node_id in group,
                      GroupConfig(heartbeat_period=0.5,
                                  suppression_range=None))
        manager.start()
    sim.run(until=30.0)
    assert len(admitted) > 2000  # sense polls and heartbeats
    assert len(admitted.intersection(batched)) == 0
    assert len(batched) < 50
