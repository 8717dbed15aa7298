"""Leader tenures read from the trace, and the analyses built on them.

The ``reference_*`` functions below are the handover, coverage and
recovery analyses as they were before tenures had one ledger; each kept
its own open-tenure loop and only recovery ended a tenure at its holder's
``node.fail``.  On crash-free runs the tenure-based analyses must return
exactly their values.
"""

import functools
import importlib
from typing import Dict, List, Optional, Tuple

import pytest

from repro.experiments import TankScenario, run_tank_scenario
from repro.metrics import (Tenure, analyze_handovers, analyze_recovery,
                           handoff_latencies, leader_tenures,
                           tracking_coverage)
from repro.metrics.handover import HandoverStats
from repro.metrics.recovery import CrashRecovery, RecoveryReport
from repro.sim import Simulator

chaos = importlib.import_module("repro.experiments.chaos")


# ----------------------------------------------------------------------
# The analyses before a crash ended every tenure, kept verbatim
# ----------------------------------------------------------------------
def reference_analyze_handovers(sim: Simulator, context_type: str,
                                grace: float = 2.0) -> HandoverStats:
    labels_created = 0
    takeovers = 0
    claims = 0
    yields = 0
    suppressions = 0
    leader_starts: List[Tuple[float, str, str]] = []
    open_tenures: Dict[Tuple[Optional[int], str], float] = {}
    led_time: Dict[str, float] = {}
    for rec in sim.trace:
        detail_type = rec.detail.get("type")
        if detail_type != context_type:
            continue
        label = rec.detail.get("label", "")
        if rec.category == "gm.label_created":
            labels_created += 1
            led_time.setdefault(label, 0.0)
        elif rec.category == "gm.takeover":
            takeovers += 1
        elif rec.category == "gm.claim":
            claims += 1
        elif rec.category == "gm.yield":
            yields += 1
        elif rec.category == "gm.label_deleted":
            suppressions += 1
        elif rec.category == "gm.leader_start":
            leader_starts.append((rec.time, label,
                                  rec.detail.get("via", "")))
            open_tenures[(rec.node, label)] = rec.time
        elif rec.category == "gm.leader_stop":
            begin = open_tenures.pop((rec.node, label), None)
            if begin is not None:
                led_time[label] = led_time.get(label, 0.0) \
                    + (rec.time - begin)
    for (_, label), begin in open_tenures.items():
        led_time[label] = led_time.get(label, 0.0) + (sim.now - begin)
    return HandoverStats(labels_created=labels_created,
                         takeovers=takeovers, claims=claims, yields=yields,
                         suppressions=suppressions,
                         leader_starts=leader_starts,
                         label_led_time=led_time, grace=grace)


def reference_handoff_latencies(sim: Simulator, context_type: str
                                ) -> List[float]:
    active: Dict[str, int] = {}
    vacant_since: Dict[str, float] = {}
    latencies: List[float] = []
    for rec in sim.trace:
        if rec.detail.get("type") != context_type:
            continue
        label = rec.detail.get("label", "")
        if rec.category == "gm.leader_start":
            if label in vacant_since:
                latencies.append(rec.time - vacant_since.pop(label))
            active[label] = active.get(label, 0) + 1
        elif rec.category == "gm.leader_stop":
            count = active.get(label, 0) - 1
            active[label] = max(0, count)
            if count <= 0:
                # The label is now leaderless: the handoff gap starts.
                vacant_since[label] = rec.time
    return latencies


def reference_tracking_coverage(sim: Simulator, context_type: str,
                                start: float, end: float,
                                max_gap: float) -> float:
    if end <= start:
        raise ValueError(f"empty interval [{start}, {end}]")
    intervals: List[Tuple[float, float]] = []
    open_starts: dict = {}
    for rec in sim.trace:
        if rec.detail.get("type") != context_type:
            continue
        key = (rec.node, rec.detail.get("label"))
        if rec.category == "gm.leader_start":
            open_starts[key] = rec.time
        elif rec.category == "gm.leader_stop" and key in open_starts:
            intervals.append((open_starts.pop(key), rec.time))
    for begin in open_starts.values():
        intervals.append((begin, end))
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in intervals
               if min(hi, end) > max(lo, start)]
    if not clipped:
        return 0.0
    clipped.sort()
    # Merge tenures, bridging micro-gaps up to max_gap (handover churn).
    merged = [list(clipped[0])]
    for lo, hi in clipped[1:]:
        if lo <= merged[-1][1] + max_gap:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    covered = sum(hi - lo for lo, hi in merged)
    return min(1.0, covered / (end - start))


def _reference_leadership_intervals(sim: Simulator, context_type: str
                                    ) -> List[Tuple[float, float, int, str]]:
    open_tenures: Dict[Tuple[int, str], float] = {}
    intervals: List[Tuple[float, float, int, str]] = []

    def close(key: Tuple[int, str], when: float) -> None:
        begin = open_tenures.pop(key, None)
        if begin is not None and when > begin:
            intervals.append((begin, when, key[0], key[1]))

    for rec in sim.trace:
        if rec.category == "node.fail":
            for key in [k for k in open_tenures if k[0] == rec.node]:
                close(key, rec.time)
            continue
        if rec.detail.get("type") != context_type:
            continue
        label = rec.detail.get("label")
        if label is None or rec.node is None:
            continue
        key = (rec.node, label)
        if rec.category == "gm.leader_start":
            open_tenures[key] = rec.time
        elif rec.category == "gm.leader_stop":
            close(key, rec.time)
    for key in list(open_tenures):
        close(key, sim.now)
    return intervals


def _reference_count_steps(intervals: List[Tuple[float, float, int, str]],
                           label: str, start: float, end: float
                           ) -> List[Tuple[float, int]]:
    deltas: List[Tuple[float, int]] = []
    base = 0
    for lo, hi, _node, tenure_label in intervals:
        if tenure_label != label:
            continue
        lo_clip, hi_clip = max(lo, start), min(hi, end)
        if hi_clip <= lo_clip:
            continue
        if lo_clip == start and lo < start:
            base += 1
            if hi_clip < end:
                deltas.append((hi_clip, -1))
            continue
        deltas.append((lo_clip, +1))
        if hi_clip < end:
            deltas.append((hi_clip, -1))
    # Tenures covering all of [start, end] contribute to base only.
    steps: List[Tuple[float, int]] = [(start, base)]
    count = base
    for time, delta in sorted(deltas):
        count += delta
        if time == steps[-1][0]:
            steps[-1] = (time, count)
        else:
            steps.append((time, count))
    return steps


def reference_analyze_recovery(sim: Simulator, context_type: str,
                               stability: float = 0.25) -> RecoveryReport:
    crashes = [rec for rec in sim.trace
               if rec.category == "fault.leader_crash"
               and rec.detail.get("type") == context_type]
    intervals = _reference_leadership_intervals(sim, context_type)
    results: List[CrashRecovery] = []
    for index, crash in enumerate(crashes):
        window_end = (crashes[index + 1].time
                      if index + 1 < len(crashes) else sim.now)
        label = crash.detail.get("label")
        if label is None or window_end <= crash.time:
            continue
        steps = _reference_count_steps(intervals, label, crash.time,
                                       window_end)
        recovery_at: Optional[float] = None
        duplicate_time = 0.0
        final_count = 0
        for position, (time, count) in enumerate(steps):
            next_time = (steps[position + 1][0]
                         if position + 1 < len(steps) else window_end)
            final_count = count
            if count >= 2:
                duplicate_time += next_time - time
            stable = (next_time - time >= stability
                      or next_time >= window_end)
            if count == 1 and stable and recovery_at is None:
                recovery_at = time
        recovered = recovery_at is not None
        latency = (max(0.0, recovery_at - crash.time)
                   if recovered else None)
        results.append(CrashRecovery(
            crash_time=crash.time, victim=crash.node or -1, label=label,
            window_end=window_end, takeover_latency=latency,
            recovered=recovered,
            continuity=recovered and final_count >= 1,
            duplicate_time=duplicate_time))
    return RecoveryReport(context_type=context_type,
                          crashes=tuple(results))


# ----------------------------------------------------------------------
# Crash-free runs: the same numbers, exactly
# ----------------------------------------------------------------------
def emit(sim, time, category, node=None, **detail):
    sim.schedule_at(time, functools.partial(sim.record, category,
                                            node=node, **detail))


#: The golden table's crash-free tank rows, then seed-sweep-style runs
#: (the default 12x2 case study over speed x heartbeat period x seed).
CRASH_FREE = [
    TankScenario(columns=6, rows=2, seed=11),
    TankScenario(columns=6, rows=2, seed=11, enable_transport=True),
] + [TankScenario(speed=speed, heartbeat_period=heartbeat, seed=seed)
     for seed, (speed, heartbeat) in enumerate(
         [(0.3, 0.25), (0.3, 0.5), (0.3, 1.0), (0.5, 0.25), (0.5, 0.5),
          (0.5, 1.0), (0.3, 0.25), (0.5, 0.5), (0.3, 1.0), (0.5, 0.25)],
         start=101)]


@pytest.mark.parametrize("scenario", CRASH_FREE,
                         ids=lambda s: f"seed{s.seed}-hb{s.heartbeat_period}"
                         f"-v{s.speed}-{s.columns}x{s.rows}")
def test_crash_free_runs_match_the_reference(scenario):
    sim = run_tank_scenario(scenario).app.sim
    assert not list(sim.trace_records("node.fail"))
    tenures = leader_tenures(sim.trace, sim.now, "tracker")
    assert tenures and all(t.reason != "crash" for t in tenures)

    assert analyze_handovers(sim, "tracker", grace=1.5) \
        == reference_analyze_handovers(sim, "tracker", grace=1.5)
    assert handoff_latencies(sim, "tracker") \
        == reference_handoff_latencies(sim, "tracker")
    lo = scenario.entry_time + 2.0
    for hi, max_gap in ((scenario.exit_time - 1.0, 1.0),
                        (sim.now, 0.0), (lo + 3.0, 0.25)):
        assert tracking_coverage(sim, "tracker", lo, hi, max_gap) \
            == reference_tracking_coverage(sim, "tracker", lo, hi, max_gap)


def test_zero_length_and_open_tenures_match_the_reference():
    sim = Simulator(seed=0)
    for time, category, node, label, extra in [
            (1.0, "gm.label_created", 0, "L", {}),
            (1.0, "gm.leader_start", 0, "L", {"via": "created"}),
            (2.5, "gm.leader_start", 1, "L", {"via": "takeover"}),
            (2.5, "gm.leader_stop", 1, "L", {"reason": "yield"}),
            (4.0, "gm.leader_stop", 0, "L", {"reason": "relinquish"}),
            (4.1, "gm.leader_start", 2, "L", {"via": "claim"}),
            (5.0, "gm.label_created", 3, "M", {}),
            (5.0, "gm.leader_start", 3, "M", {"via": "created"}),
            (6.0, "gm.leader_start", 4, "N", {"via": "created"})]:
        emit(sim, time, category, node=node,
             type="u" if label == "N" else "t", label=label, **extra)
    sim.run(until=9.0)
    assert [(t.label, t.start, t.end, t.reason)
            for t in leader_tenures(sim.trace, sim.now, "t")] == [
        ("L", 2.5, 2.5, "yield"), ("L", 1.0, 4.0, "relinquish"),
        ("L", 4.1, 9.0, None), ("M", 5.0, 9.0, None)]
    assert analyze_handovers(sim, "t") == reference_analyze_handovers(
        sim, "t")
    assert handoff_latencies(sim, "t") == reference_handoff_latencies(
        sim, "t")
    for max_gap in (0.0, 0.5, 5.0):
        assert tracking_coverage(sim, "t", 0.0, 9.0, max_gap) \
            == reference_tracking_coverage(sim, "t", 0.0, 9.0, max_gap)


def test_a_run_cut_mid_track_matches_the_reference():
    """Leaders still leading when the run stops: open tenures."""
    from repro.experiments.scenarios import build_app

    scenario = TankScenario(speed=0.5, heartbeat_period=0.5, seed=121)
    app = build_app(scenario)
    app.install()
    app.run(until=scenario.entry_time + 9.0)
    sim = app.sim
    assert any(t.reason is None
               for t in leader_tenures(sim.trace, sim.now, "tracker"))
    assert analyze_handovers(sim, "tracker") \
        == reference_analyze_handovers(sim, "tracker")
    assert handoff_latencies(sim, "tracker") \
        == reference_handoff_latencies(sim, "tracker")
    lo = scenario.entry_time + 1.0
    assert tracking_coverage(sim, "tracker", lo, sim.now, 1.0) \
        == reference_tracking_coverage(sim, "tracker", lo, sim.now, 1.0)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_recovery_matches_the_reference_on_chaos_runs(seed, monkeypatch):
    pairs = []

    def both(sim, context_type, stability):
        new = analyze_recovery(sim, context_type, stability=stability)
        pairs.append((new, reference_analyze_recovery(
            sim, context_type, stability=stability)))
        return new

    monkeypatch.setattr(chaos, "analyze_recovery", both)
    chaos._chaos_run(chaos.ChaosRun(
        seed=seed, heartbeat_period=0.25, crash_period=2.0, crashes=4,
        base_loss_rate=0.05, mote_count=8, sensing_count=3))
    (new, old), = pairs
    assert new.crash_count == old.crash_count == 4
    for fresh, kept in zip(new.crashes, old.crashes):
        # The reference reads a crash of node 0 as victim -1.
        assert fresh.victim == (0 if kept.victim == -1 else kept.victim)
        assert fresh == CrashRecovery(**{**kept.__dict__,
                                         "victim": fresh.victim})


# ----------------------------------------------------------------------
# A crash ends its holder's tenure, in every reader
# ----------------------------------------------------------------------
def test_leader_tenures_end_at_stop_crash_or_run_end():
    sim = Simulator(seed=0)
    emit(sim, 1.0, "gm.leader_start", node=3, type="t", label="L",
         via="created")
    emit(sim, 2.0, "gm.leader_start", node=4, type="u", label="M",
         via="created")
    emit(sim, 3.0, "gm.leader_stop", node=3, type="t", label="L",
         reason="relinquish")
    emit(sim, 3.5, "gm.leader_start", node=5, type="t", label="L",
         via="claim")
    emit(sim, 4.0, "node.fail", node=4)
    sim.run(until=9.0)
    assert leader_tenures(sim.trace, sim.now) == [
        Tenure(3, "t", "L", 1.0, 3.0, "created", "relinquish"),
        Tenure(4, "u", "M", 2.0, 4.0, "created", "crash"),
        Tenure(5, "t", "L", 3.5, 9.0, "claim", None),
    ]
    assert [t.node for t in leader_tenures(sim.trace, sim.now, "u")] == [4]


def test_a_crash_ends_the_tenure_in_all_four_analyses():
    # Node 0 leads L from 1 s and crashes at 10 s; node 1 takes L over
    # at 11 s and leads to the end of the run at 20 s.
    sim = Simulator(seed=0)
    emit(sim, 1.0, "gm.leader_start", node=0, type="t", label="L",
         via="created")
    emit(sim, 10.0, "fault.leader_crash", node=0, type="t", label="L")
    emit(sim, 10.0, "node.fail", node=0)
    emit(sim, 11.0, "gm.leader_start", node=1, type="t", label="L",
         via="takeover")
    sim.run(until=20.0)
    stats = analyze_handovers(sim, "t")
    assert stats.label_led_time == {"L": 9.0 + 9.0}
    assert handoff_latencies(sim, "t") == [1.0]
    assert tracking_coverage(sim, "t", 0.0, 20.0, max_gap=0.5) \
        == pytest.approx(18.0 / 20.0)
    crash, = analyze_recovery(sim, "t").crashes
    assert crash.takeover_latency == 1.0
    assert crash.duplicate_time == 0.0
    # Before, only recovery saw the crash end node 0's tenure.
    assert reference_analyze_handovers(sim, "t").label_led_time \
        == {"L": 19.0 + 9.0}
    assert reference_handoff_latencies(sim, "t") == []
    assert reference_tracking_coverage(sim, "t", 0.0, 20.0, 0.5) == 0.95
