"""The chaos experiment: sweep structure, chart, CLI entry point."""

import xml.dom.minidom

import pytest

from repro.analysis.render import chaos_chart
from repro.cli import main
from repro.experiments.chaos import (REPORT_KIND, TAKEOVER_SLACK,
                                     ChaosPoint, ChaosResult, MemberReporter,
                                     chaos)
from repro.groups import GroupConfig, GroupManager, Role
from repro.metrics import RecoveryReport
from repro.metrics.recovery import CrashRecovery
from repro.sensing import SensorField
from repro.sim import Simulator


@pytest.fixture(scope="module")
def quick_result():
    return chaos(quick=True)


def test_quick_sweep_structure(quick_result):
    assert {p.heartbeat_period for p in quick_result.points} \
        == {0.25, 0.5}
    assert quick_result.crash_periods() == [4.0]
    for point in quick_result.points:
        assert point.runs == 1
        assert point.report.crash_count == 3


def test_quick_sweep_recovers(quick_result):
    for point in quick_result.points:
        report = point.report
        assert report.recovery_rate == 1.0
        assert report.continuity_rate == 1.0
        assert report.mean_latency is not None
        assert report.mean_latency <= point.latency_bound


def test_point_lookup_and_series(quick_result):
    point = quick_result.point(0.25, 4.0)
    assert point.heartbeat_period == 0.25
    with pytest.raises(KeyError):
        quick_result.point(9.9, 4.0)
    series = quick_result.series(4.0)
    assert [hb for hb, _ in series] == [0.25, 0.5]


def test_quick_sweep_is_deterministic(quick_result):
    again = chaos(quick=True)
    assert again == quick_result


def test_seed_base_changes_measurements(quick_result):
    other = chaos(quick=True, seed_base=12345)
    assert other != quick_result


def test_format_table_lists_every_point(quick_result):
    table = quick_result.format_table()
    assert "recovered" in table and "continuity" in table
    # Title + header + two sweep rows.
    assert len(table.splitlines()) == 4


def test_latency_bound_and_within_rate():
    crashes = (
        CrashRecovery(crash_time=0.0, victim=0, label="t#1",
                      window_end=4.0, takeover_latency=0.5,
                      recovered=True, continuity=True,
                      duplicate_time=0.0),
        CrashRecovery(crash_time=4.0, victim=1, label="t#1",
                      window_end=8.0, takeover_latency=9.0,
                      recovered=True, continuity=True,
                      duplicate_time=0.0),
    )
    point = ChaosPoint(heartbeat_period=0.5, crash_period=4.0, runs=1,
                       report=RecoveryReport(context_type="t",
                                             crashes=crashes))
    assert point.latency_bound == pytest.approx(1.05 + TAKEOVER_SLACK)
    assert point.within_bound_rate == pytest.approx(0.5)

    empty = ChaosPoint(heartbeat_period=0.5, crash_period=4.0, runs=1,
                       report=RecoveryReport(context_type="t",
                                             crashes=()))
    assert empty.within_bound_rate is None
    assert ChaosResult(points=[empty]).series(4.0) == []


def test_chaos_chart_has_bound_reference(quick_result):
    svg = chaos_chart(quick_result).to_svg()
    document = xml.dom.minidom.parseString(svg)
    assert document.documentElement.tagName == "svg"
    assert "bound" in svg
    assert "crash every 4s" in svg


def test_cli_chaos_quick_writes_svg(tmp_path):
    svg_path = tmp_path / "chaos.svg"
    lines = []
    code = main(["chaos", "--quick", "--svg", str(svg_path)],
                out=lines.append)
    assert code == 0
    output = "\n".join(lines)
    assert "recovery latency" in output
    assert svg_path.exists()
    document = xml.dom.minidom.parseString(svg_path.read_text())
    assert document.documentElement.tagName == "svg"


def test_cli_seed_applies_to_chaos(capsys):
    lines_a, lines_b, lines_c = [], [], []
    main(["chaos", "--quick", "--seed", "7"], out=lines_a.append)
    main(["chaos", "--quick", "--seed", "7"], out=lines_b.append)
    main(["chaos", "--quick", "--seed", "8"], out=lines_c.append)
    # Ignore the trailing "[chaos completed in Xs]" timing line.
    assert lines_a[:-1] == lines_b[:-1]
    assert lines_a[:-1] != lines_c[:-1]


def test_rebooted_member_reports_again():
    # Node 0 of a 3x1 grid is a member that reports once a second.  After
    # a crash at t=10 and a reboot at t=12 it rejoins as a member, so it
    # should go on reporting.
    sim = Simulator(seed=3)
    field = SensorField(sim)
    motes = field.deploy_grid(3, 1)
    managers = {}
    for mote in motes:
        manager = GroupManager(mote)
        manager.track("chaos", lambda m: True,
                      GroupConfig(heartbeat_period=0.5,
                                  suppression_range=None))
        manager.start()
        MemberReporter(mote, manager, period=1.0).start()
        managers[mote.node_id] = manager

    def reports(start, end):
        return sum(1 for record in sim.trace_records("radio.tx", 0)
                   if record.detail["kind"] == REPORT_KIND
                   and start <= record.time < end)

    sim.run(until=10.0)
    assert managers[0].role("chaos") is Role.MEMBER
    assert reports(0.0, 10.0) == 10
    motes[0].fail()
    sim.run(until=12.0)
    motes[0].reboot()
    sim.run(until=40.0)
    assert managers[0].role("chaos") is Role.MEMBER
    assert reports(12.0, 40.0) > 0
