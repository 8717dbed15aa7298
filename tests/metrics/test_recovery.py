"""analyze_recovery on hand-built traces: each metric in isolation."""

import functools

import pytest

from repro.metrics import analyze_recovery
from repro.metrics.recovery import _quantile
from repro.sim import Simulator


def emit(sim, time, category, node=None, **detail):
    sim.schedule(time, functools.partial(sim.record, category,
                                         node=node, **detail))


def crash(sim, time, node, label):
    emit(sim, time, "fault.leader_crash", node=node, type="t",
         label=label)
    emit(sim, time, "node.fail", node=node)


def lead(sim, start, node, label, stop=None):
    emit(sim, start, "gm.leader_start", node=node, type="t", label=label)
    if stop is not None:
        emit(sim, stop, "gm.leader_stop", node=node, type="t",
             label=label)


def test_clean_takeover_measures_latency():
    sim = Simulator(seed=0)
    lead(sim, 1.0, 0, "t#1")          # victim's tenure, closed by fail
    crash(sim, 10.0, 0, "t#1")
    lead(sim, 11.5, 1, "t#1")         # successor serves to end of run
    sim.run(until=20.0)

    report = analyze_recovery(sim, "t")
    assert report.crash_count == 1
    rec = report.crashes[0]
    assert rec.recovered and rec.continuity
    assert rec.takeover_latency == pytest.approx(1.5)
    assert rec.duplicate_time == 0.0
    assert report.recovery_rate == 1.0


def test_duplicate_window_is_accumulated():
    sim = Simulator(seed=0)
    lead(sim, 1.0, 0, "t#1")
    crash(sim, 10.0, 0, "t#1")
    lead(sim, 11.0, 1, "t#1")         # winner
    lead(sim, 11.2, 2, "t#1", stop=12.2)  # loser yields after 1s
    sim.run(until=20.0)

    rec = analyze_recovery(sim, "t").crashes[0]
    assert rec.duplicate_time == pytest.approx(1.0)
    # count==1 from 11.0 lasts only 0.2s < stability, so recovery is
    # only stable once the duplicate resolves at 12.2.
    assert rec.takeover_latency == pytest.approx(2.2)


def test_transient_unique_leader_below_stability_does_not_count():
    sim = Simulator(seed=0)
    crash(sim, 10.0, 0, "t#1")
    lead(sim, 10.5, 1, "t#1", stop=10.6)  # 0.1s blip
    lead(sim, 12.0, 2, "t#1")
    sim.run(until=20.0)

    rec = analyze_recovery(sim, "t", stability=0.25).crashes[0]
    assert rec.takeover_latency == pytest.approx(2.0)


def test_never_recovered_reports_none_latency():
    sim = Simulator(seed=0)
    lead(sim, 1.0, 0, "t#1")
    crash(sim, 10.0, 0, "t#1")
    sim.run(until=20.0)

    report = analyze_recovery(sim, "t")
    rec = report.crashes[0]
    assert not rec.recovered and not rec.continuity
    assert rec.takeover_latency is None
    assert report.recovery_rate == 0.0
    assert report.mean_latency is None


def test_recovery_without_continuity():
    sim = Simulator(seed=0)
    crash(sim, 10.0, 0, "t#1")
    # Stable takeover... which later dies out (label displaced).
    lead(sim, 11.0, 1, "t#1", stop=15.0)
    sim.run(until=20.0)

    rec = analyze_recovery(sim, "t").crashes[0]
    assert rec.recovered
    assert not rec.continuity


def test_windows_split_at_next_crash():
    sim = Simulator(seed=0)
    lead(sim, 1.0, 0, "t#1")
    crash(sim, 10.0, 0, "t#1")
    lead(sim, 11.0, 1, "t#1")
    crash(sim, 14.0, 1, "t#1")
    lead(sim, 15.2, 2, "t#1")
    sim.run(until=20.0)

    report = analyze_recovery(sim, "t")
    assert report.crash_count == 2
    first, second = report.crashes
    assert first.window_end == pytest.approx(14.0)
    assert first.takeover_latency == pytest.approx(1.0)
    assert second.takeover_latency == pytest.approx(1.2)


def test_other_context_types_are_ignored():
    sim = Simulator(seed=0)
    crash(sim, 10.0, 0, "t#1")
    lead(sim, 11.0, 1, "t#1")
    emit(sim, 10.5, "gm.leader_start", node=2, type="other",
         label="other#1")
    emit(sim, 10.5, "fault.leader_crash", node=2, type="other",
         label="other#1")
    sim.run(until=20.0)

    report = analyze_recovery(sim, "t")
    assert report.crash_count == 1
    assert report.crashes[0].duplicate_time == 0.0


def test_quantile_and_aggregates():
    assert _quantile([], 0.5) is None
    assert _quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert _quantile([1.0], 0.95) == 1.0

    sim = Simulator(seed=0)
    lead(sim, 1.0, 0, "t#1")
    crash(sim, 10.0, 0, "t#1")
    lead(sim, 11.0, 1, "t#1")
    sim.run(until=20.0)
    report = analyze_recovery(sim, "t")
    assert report.median_latency == report.p95_latency \
        == report.max_latency == pytest.approx(1.0)
    assert report.total_duplicate_time == 0.0


def test_crash_of_node_zero_names_node_zero():
    sim = Simulator(seed=0)
    lead(sim, 1.0, 0, "t#1")
    crash(sim, 10.0, 0, "t#1")
    lead(sim, 11.0, 1, "t#1")
    sim.run(until=20.0)
    assert analyze_recovery(sim, "t").crashes[0].victim == 0
