"""Regression: duplicate leaders after a leader crash under loss.

Hypothesis originally falsified ``test_leader_failure_always_recovers_
same_label`` at seed=292 (and, scanning the seed space, at the other
seeds below): a surviving member lost two consecutive heartbeats to the
10% channel loss, its receive timer expired, and it usurped leadership
while the real successor was alive — two leaders for label ``t``.  The
fix (takeover liveness probes + member vouches + leader defence
heartbeats) must keep these exact seeds green forever.
"""

import pytest

from repro.groups import GroupConfig, GroupManager, Role
from repro.sensing import SensorField
from repro.sim import Simulator

#: Seeds where the pre-fix protocol produced two surviving leaders
#: (found by exhaustively scanning seeds 0..400 of the property test).
FALSIFYING_SEEDS = [119, 123, 127, 183, 198, 234, 274, 292, 368, 382]


def _build(seed, loss, sensing_ids):
    sim = Simulator(seed=seed)
    field = SensorField(sim, communication_radius=10.0,
                        base_loss_rate=loss)
    managers = {}
    for i in range(6):
        mote = field.add_mote((float(i), 0.0))
        manager = GroupManager(mote)
        manager.track("t", lambda m: m.node_id in sensing_ids,
                      GroupConfig(heartbeat_period=0.5,
                                  suppression_range=None))
        manager.start()
        managers[i] = manager
    return sim, managers


@pytest.mark.parametrize("seed", FALSIFYING_SEEDS)
def test_leader_crash_recovers_unique_leader(seed):
    sensing_ids = {1, 2, 3}
    sim, managers = _build(seed, 0.1, sensing_ids)
    sim.run(until=6.0)
    leaders = [n for n, m in managers.items()
               if m.role("t") is Role.LEADER]
    assert len(leaders) == 1
    label = managers[leaders[0]].label("t")
    victim = leaders[0]
    managers[victim].mote.fail()
    survivors = sensing_ids - {victim}
    sim.run(until=20.0)
    new_leaders = [n for n, m in managers.items()
                   if m.role("t") is Role.LEADER and m.mote.alive]
    assert len(new_leaders) == 1
    assert new_leaders[0] in survivors
    assert managers[new_leaders[0]].label("t") == label


def test_probe_cycle_aborts_spurious_takeover():
    """A member that merely *missed* heartbeats (leader alive) must not
    usurp: either the leader's defence beat or a peer vouch cancels the
    probe cycle — no duplicate leader, and a trace record explains why."""
    sim = Simulator(seed=292)
    field = SensorField(sim, communication_radius=10.0, base_loss_rate=0.0)
    sensing_ids = {1, 2, 3}
    managers = {}
    for i in range(6):
        mote = field.add_mote((float(i), 0.0))
        manager = GroupManager(mote)
        manager.track("t", lambda m: m.node_id in sensing_ids,
                      GroupConfig(heartbeat_period=0.5,
                                  suppression_range=None))
        manager.start()
        managers[i] = manager
    sim.run(until=6.0)
    leaders = [n for n, m in managers.items()
               if m.role("t") is Role.LEADER]
    assert len(leaders) == 1
    # Force one member's receive timer to expire while the leader lives.
    member = next(n for n, m in managers.items()
                  if m.role("t") is Role.MEMBER)
    state = managers[member]._types["t"]
    state.receive_timer.start(0.0)
    sim.run(until=8.0)
    assert [n for n, m in managers.items()
            if m.role("t") is Role.LEADER] == leaders
    assert list(sim.trace_records("gm.probe"))
    assert list(sim.trace_records("gm.takeover_aborted"))
    assert not list(sim.trace_records("gm.takeover"))

