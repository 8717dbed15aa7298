"""Tests for handoff-latency analysis."""

import pytest

from repro.experiments import TankScenario, run_tank_scenario
from repro.metrics import handoff_latencies
from repro.sim import Simulator


def test_synthetic_latencies():
    sim = Simulator()
    events = [
        (5.0, "gm.leader_start", 0, "L1"),
        (10.0, "gm.leader_stop", 0, "L1"),
        (10.4, "gm.leader_start", 1, "L1"),
        (20.0, "gm.leader_stop", 1, "L1"),
        (21.2, "gm.leader_start", 2, "L1"),
        (30.0, "gm.leader_stop", 2, "L2"),  # different label: unmatched
    ]
    for t, category, node, label in events:
        sim.schedule_at(t, lambda c=category, n=node, l=label:
                        sim.record(c, node=n, type="tracker", label=l))
    sim.run()
    latencies = handoff_latencies(sim, "tracker")
    assert latencies == pytest.approx([0.4, 1.2])


def test_relinquish_handoffs_faster_than_takeover():
    """The §6.2 asymmetry: explicit relinquish hands off within the claim
    window; takeover waits out the receive timeout (2.1 × heartbeat)."""

    def median_latency(relinquish):
        scenario = TankScenario(columns=14, rows=2, speed=0.2,
                                heartbeat_period=0.5,
                                relinquish=relinquish,
                                base_loss_rate=0.0,
                                with_base_station=False, seed=5)
        result = run_tank_scenario(scenario)
        latencies = handoff_latencies(result.app.sim, "tracker")
        assert latencies, "no handovers observed"
        latencies.sort()
        return latencies[len(latencies) // 2]

    relinquish = median_latency(True)
    takeover = median_latency(False)
    assert relinquish < takeover
    # Takeover latency is bounded by the receive timeout (1.05 s here);
    # silence is counted from the last heartbeat heard, so observed gaps
    # land between ~half the timeout and the full timeout.
    assert 0.4 <= takeover <= 1.1
    # Relinquish handoffs complete within the claim window most runs.
    assert relinquish < 0.3


def test_a_leader_crash_opens_a_takeover_sized_gap():
    """The crash ends node 13's tenure, so the takeover that carries the
    label on counts as a handoff, and so does every handoff after it."""
    scenario = TankScenario(seed=12, leader_kill_times=(30.0,))
    result = run_tank_scenario(scenario)
    sim = result.app.sim
    latencies = handoff_latencies(sim, "tracker")
    # Relinquish handoffs before the crash: 2; the takeover and the
    # relinquish handoffs after it: 12 more.
    assert len(latencies) == 14
    receive_timeout = 2.1 * scenario.heartbeat_period
    takeovers = [gap for gap in latencies if gap > 0.5 * receive_timeout]
    assert len(takeovers) == 1 and takeovers[0] < 1.1 * receive_timeout
    led = result.handovers.label_led_time
    assert led and max(led.values()) <= sim.now
