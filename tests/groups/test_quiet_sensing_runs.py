"""Quiet sense-poll runs leave every tank-tracking run unchanged.

The group manager charges a sense check without events whenever its
reading provably cannot change: before a target can come into range,
and, on a sensing member or leader, while the target is surely still in
range (:meth:`repro.groups.protocol.GroupManager._quiet_until`).  The
oracle is the plain poll loop (:meth:`Mote.periodic` stripped of
``quiet_until``, as in ``tests/node/test_quiet_polls.py``): random small
:class:`TankScenario` runs must give the same trace and the same
``events_fired`` both ways.  A direct test pins the one premise a quiet
sensing run takes from the protocol: the node stays MEMBER or LEADER.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import TankScenario, run_tank_scenario
from repro.groups import GroupConfig, GroupManager, Role
from repro.groups.config import FORMATION_WINDOW, SENSE_PERIOD
from repro.node import Mote
from repro.sensing import LineTrajectory, SensorField, Target
from repro.sim import Simulator, trace_digest

from ..node.test_quiet_polls import _plain_periodic


def run(scenario, quiet):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if not quiet:
            monkeypatch.setattr(Mote, "periodic", _plain_periodic)
        sim = run_tank_scenario(scenario).app.sim
        return trace_digest(sim), sim.events_fired, sim.implicit_polls


scenarios = st.builds(
    TankScenario,
    columns=st.integers(min_value=3, max_value=8),
    rows=st.integers(min_value=1, max_value=3),
    speed=st.sampled_from([0.3, 0.6, 1.2, 2.0]),
    sensing_radius=st.sampled_from([0.7, 1.0, 1.6]),
    heartbeat_period=st.sampled_from([0.2, 0.5, 1.0]),
    relinquish=st.booleans(),
    deployment_jitter=st.sampled_from([0.0, 0.2]),
    enable_transport=st.booleans(),
    leader_kill_times=st.lists(
        st.floats(min_value=1.0, max_value=8.0), max_size=2).map(tuple),
    seed=st.integers(min_value=0, max_value=10_000))


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios)
def test_quiet_runs_match_the_plain_poll_loop(scenario):
    plain = run(scenario, quiet=False)
    quiet = run(scenario, quiet=True)
    assert plain[2] == 0
    assert quiet[:2] == plain[:2]


def test_sensing_members_poll_quietly():
    """A slow tank over a short line: each mote senses it for about a
    third of the run, yet nearly every sense check is charged, not
    dispatched (about 73% when only non-sensing checks were)."""
    scenario = TankScenario(columns=4, rows=1, speed=0.3, seed=5)
    plain = run(scenario, quiet=False)
    quiet = run(scenario, quiet=True)
    assert quiet[:2] == plain[:2]
    # Four motes and the base station.
    polls = 5 * scenario.duration / SENSE_PERIOD
    assert quiet[2] > 0.95 * polls


def test_a_sensing_node_made_idle_polls_for_real():
    """A sensing leader forced to IDLE inside a handler ends its quiet
    sensing run, so its next sense check is real and acts on the IDLE
    role: the node forms a new label within a formation window.  (Left
    in the run, it would stay IDLE for good: the tank never leaves.)"""
    sim = Simulator(seed=2)
    field = SensorField(sim)
    mote = field.add_mote((0.0, 0.0))
    field.add_target(Target("tank", "vehicle",
                            LineTrajectory((0.0, 0.0), 0.0)))
    field.install_detection_sensors("detect")
    manager = GroupManager(mote)

    def sense(m):
        return bool(m.read_sensor("detect"))

    sense.quiet_until = lambda m, t, reading: m.sensor_quiet_until(
        "detect", t, reading)
    manager.track("tank", sense, GroupConfig(heartbeat_period=100.0))
    manager.start()
    sim.run(until=3.0)
    assert manager.role("tank") is Role.LEADER
    charged = sim.implicit_polls
    sim.run(until=4.0)
    assert sim.implicit_polls > charged + 5  # sensing, yet quiet

    state = manager._types["tank"]
    mote.cpu.post(manager._stop_leading, state, "test", label="test")
    sim.run(until=4.0 + SENSE_PERIOD + FORMATION_WINDOW + 0.01)
    created = [r for r in sim.trace if r.category == "gm.label_created"]
    assert len(created) == 2
    assert manager.role("tank") is Role.LEADER
