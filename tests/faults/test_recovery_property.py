"""Property: leadership survives any single-node crash, within bound.

The §5.2 design argument says a crashed leader is replaced after the
receive timeout (2.1 × heartbeat period).  End to end, recovery also
pays for takeover liveness probes (≤ ``takeover_probes × CLAIM_WINDOW``)
and, when two members usurp near-simultaneously, one round of
weight-based duplicate resolution (the loser yields on hearing the
winner's heartbeat, ≤ ~2 heartbeat periods under loss).  The property
pins the whole pipeline: injected crash → ``analyze_recovery`` reports a
stable unique live leader of the *same* label inside that bound.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, LeaderCrash, NodeCrash
from repro.groups import GroupConfig, GroupManager, Role
from repro.groups.config import CLAIM_WINDOW
from repro.metrics import analyze_recovery
from repro.sensing import SensorField
from repro.sim import Simulator

SENSING_IDS = frozenset({1, 2, 3})


def recovery_bound(config: GroupConfig) -> float:
    """Detection + probing + duplicate resolution + scheduling slack."""
    return (config.receive_timeout
            + config.takeover_probes * CLAIM_WINDOW
            + 2.0 * config.heartbeat_period + 0.5)


def build(seed, loss, heartbeat_period, count=6):
    sim = Simulator(seed=seed)
    field = SensorField(sim, communication_radius=10.0,
                        base_loss_rate=loss)
    config = GroupConfig(heartbeat_period=heartbeat_period,
                         suppression_range=None)
    managers = {}
    for i in range(count):
        mote = field.add_mote((float(i), 0.0))
        manager = GroupManager(mote)
        manager.track("t", lambda m: m.node_id in SENSING_IDS, config)
        manager.start()
        managers[i] = manager
    return sim, field, managers, config


def live_leaders(managers):
    return [n for n, m in managers.items()
            if m.role("t") is Role.LEADER and m.mote.alive]


@given(seed=st.integers(min_value=0, max_value=10_000),
       loss=st.floats(min_value=0.0, max_value=0.2),
       heartbeat_period=st.floats(min_value=0.2, max_value=1.0))
@settings(max_examples=15)
def test_leader_crash_recovers_within_bound(seed, loss, heartbeat_period):
    sim, field, managers, config = build(seed, loss, heartbeat_period)
    crash_at = 2.0 + 6.0 * heartbeat_period
    injector = FaultInjector(sim, field, managers=managers)
    injector.arm(FaultPlan.of(LeaderCrash(time=crash_at,
                                          context_type="t")))
    bound = recovery_bound(config)
    sim.run(until=crash_at + bound + 4.0 * heartbeat_period + 2.0)

    report = analyze_recovery(sim, "t",
                              stability=0.5 * heartbeat_period)
    assert report.crash_count == 1
    crash = report.crashes[0]
    assert crash.recovered
    assert crash.continuity
    assert crash.takeover_latency <= bound
    # The takeover re-serves the original label on a surviving mote.
    leaders = live_leaders(managers)
    assert len(leaders) == 1
    assert leaders[0] in SENSING_IDS - {crash.victim}
    assert managers[leaders[0]].label("t") == crash.label


@given(seed=st.integers(min_value=0, max_value=10_000),
       victim=st.integers(min_value=0, max_value=5),
       heartbeat_period=st.floats(min_value=0.2, max_value=1.0))
@settings(max_examples=15)
def test_any_single_node_crash_leaves_unique_live_leader(
        seed, victim, heartbeat_period):
    sim, field, managers, config = build(seed, 0.1, heartbeat_period)
    crash_at = 2.0 + 6.0 * heartbeat_period
    injector = FaultInjector(sim, field, managers=managers)
    injector.arm(FaultPlan.of(NodeCrash(time=crash_at, node=victim)))
    sim.run(until=crash_at + recovery_bound(config)
            + 4.0 * heartbeat_period + 2.0)

    survivors = SENSING_IDS - {victim}
    leaders = live_leaders(managers)
    assert len(leaders) == 1
    assert leaders[0] in survivors
