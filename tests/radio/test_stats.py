"""Unit tests for radio statistics accounting."""

import pytest

from repro.radio import RadioStats


def test_send_receive_counters():
    stats = RadioStats()
    stats.on_send("hb", 288, node=1)
    stats.on_send("hb", 288, node=2)
    stats.on_receptions("hb", {"delivered": 1})
    assert stats.frames_sent == 2
    assert stats.bits_sent == 576
    assert stats.sent_by_kind["hb"] == 2
    assert stats.received_by_kind["hb"] == 1
    assert stats.bits_sent_by_node[1] == 288


def test_loss_fraction_by_kind():
    stats = RadioStats()
    for _ in range(4):
        stats.on_send("hb", 288, node=1)
    stats.on_frame_lost("hb")
    stats.on_send("report", 288, node=2)
    assert stats.loss_fraction("hb") == pytest.approx(0.25)
    assert stats.loss_fraction("report") == 0.0
    assert stats.loss_fraction() == pytest.approx(0.2)


def test_loss_fraction_empty_is_zero():
    assert RadioStats().loss_fraction() == 0.0
    assert RadioStats().loss_fraction("hb") == 0.0


def test_reception_loss_fraction():
    stats = RadioStats()
    stats.on_receptions("hb", {"delivered": 3, "channel": 1})
    assert stats.reception_loss_fraction("hb") == pytest.approx(0.25)
    assert stats.reception_loss_fraction("other") == 0.0


def test_addressed_loss_fraction():
    stats = RadioStats()
    stats.on_addressed_outcome("report", delivered=True)
    stats.on_addressed_outcome("report", delivered=False)
    stats.on_addressed_outcome("report", delivered=True)
    assert stats.addressed_loss_fraction("report") == pytest.approx(1 / 3)
    assert stats.addressed_loss_fraction("none") == 0.0


def test_link_utilization():
    stats = RadioStats(started_at=0.0)
    stats.on_send("x", 5000, node=0)
    # 5000 bits over 10 s on a 50 kbps link = 1%.
    assert stats.link_utilization(50_000.0, now=10.0) == pytest.approx(
        0.01)


def test_link_utilization_zero_elapsed():
    stats = RadioStats(started_at=5.0)
    assert stats.link_utilization(50_000.0, now=5.0) == 0.0


def test_receptions_accounted_per_frame_and_outcome():
    stats = RadioStats()
    stats.on_receptions("hb", {"collision": 2, "delivered": 5,
                               "channel": 1})
    stats.on_receptions("hb", {"delivered": 2})
    assert stats.reception_attempts_by_kind["hb"] == 10
    assert stats.reception_drops_by_kind["hb"] == 3
    assert stats.frames_received == 7
    assert stats.received_by_kind["hb"] == 7
    assert list(stats.receptions_dropped.items()) == [("collision", 2),
                                                      ("channel", 1)]
