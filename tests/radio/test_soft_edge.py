"""Tests for the soft reception edge (marginal-link model)."""

import pytest

from repro.radio import BROADCAST, Frame, Medium, TransceiverPort
from repro.sim import Simulator


def reception_rate(distance, soft_edge_start=0.5, soft_edge_loss=0.9,
                   radius=2.0, trials=400, tx_range=None):
    sim = Simulator(seed=17)
    medium = Medium(sim, communication_radius=radius,
                    soft_edge_start=soft_edge_start,
                    soft_edge_loss=soft_edge_loss)
    received = []
    medium.attach(TransceiverPort(0, (0.0, 0.0), lambda f: None))
    medium.attach(TransceiverPort(1, (distance, 0.0),
                                  lambda f: received.append(f)))
    for _ in range(trials):
        medium.transmit(Frame(src=0, dst=BROADCAST, kind="x",
                              tx_range=tx_range))
        sim.run()
    return len(received) / trials


def test_inner_zone_unaffected():
    assert reception_rate(0.9) == pytest.approx(1.0)


def test_loss_ramps_toward_range_limit():
    mid = reception_rate(1.5)   # halfway through the soft band
    edge = reception_rate(1.98)  # at the limit
    assert 1.0 > mid > edge
    assert edge == pytest.approx(0.1, abs=0.08)  # ~1 - soft_edge_loss


def test_edge_applies_relative_to_tx_range():
    # Power-controlled frame: reach 1.0, so 0.9 is now in the soft band.
    rate_full_power = reception_rate(0.9)
    rate_low_power = reception_rate(0.9, tx_range=1.0)
    assert rate_full_power == pytest.approx(1.0)
    assert rate_low_power < 0.7


def test_disabled_by_default():
    sim = Simulator(seed=3)
    medium = Medium(sim, communication_radius=2.0)
    assert medium.soft_edge_loss == 0.0
    assert medium._loss_probability(1.99, 2.0) == 0.0


def test_combines_with_base_loss():
    sim = Simulator(seed=3)
    medium = Medium(sim, communication_radius=2.0, base_loss_rate=0.5,
                    soft_edge_start=0.5, soft_edge_loss=1.0)
    # At the limit: base 0.5 plus the whole remaining mass → certainty.
    assert medium._loss_probability(2.0, 2.0) == pytest.approx(1.0)
    # Inside the hard zone: base loss only.
    assert medium._loss_probability(0.5, 2.0) == pytest.approx(0.5)


def test_parameter_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Medium(sim, communication_radius=1.0, soft_edge_start=0.0)
    with pytest.raises(ValueError):
        Medium(sim, communication_radius=1.0, soft_edge_loss=1.5)
