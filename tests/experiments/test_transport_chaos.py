"""Tests for the transport-chaos experiment and MTP's frame overhead."""

import pytest

from repro.analysis import transport_chaos_chart
from repro.experiments import TransportChaosSpec, transport_chaos
from repro.experiments.transport_chaos import _transport_run


def test_reliable_beats_raw_and_stays_duplicate_free():
    # The acceptance claim: under seeded chaos (leader crashes + a loss
    # spike) reliable MTP delivers >= 95% where raw measurably loses,
    # with zero end-to-end duplicate handler deliveries.
    result = transport_chaos(quick=True)
    raw = result.delivery_ratio("raw")
    reliable = result.delivery_ratio("reliable")
    assert raw is not None and raw < 0.90
    assert reliable is not None and reliable >= 0.95
    assert result.duplicates("reliable") == 0
    # Reliability actually worked for its wins, not luck: the machinery
    # visibly ran.
    outcome = result.outcomes_for("reliable")[0]
    assert outcome.retransmits > 0
    assert outcome.acks > 0
    raw_outcome = result.outcomes_for("raw")[0]
    assert raw_outcome.retransmits == 0 and raw_outcome.acks == 0


def test_parallel_sweep_matches_serial_byte_for_byte():
    serial = transport_chaos(quick=True)
    parallel = transport_chaos(quick=True, jobs=2)
    assert serial.outcomes == parallel.outcomes  # digests included


def test_spec_rejects_unknown_mode():
    with pytest.raises(ValueError):
        TransportChaosSpec(mode="bogus", seed=1)


def test_chart_renders_per_seed_delivery(tmp_path):
    result = transport_chaos(quick=True)
    chart = transport_chaos_chart(result)
    path = tmp_path / "transport.svg"
    chart.save(str(path))
    text = path.read_text()
    assert text.startswith("<svg") or "<svg" in text
    assert "Fire-and-forget" in text and "Reliable" in text


def test_clean_channel_pair_matches_golden_counts():
    # One scripted leader crash on an otherwise loss-free channel: the
    # counts are a pure function of the spec, so any change to MTP's
    # frame overhead or delivery shows up here as an exact diff.
    clean = dict(seed=2004, base_loss_rate=0.0, spike_extra_loss=0.0,
                 crashes=1)
    raw = _transport_run(TransportChaosSpec(mode="raw", **clean))
    reliable = _transport_run(TransportChaosSpec(mode="reliable", **clean))
    assert (raw.sent, raw.frames, raw.delivered) == (16, 256, 6)
    assert (reliable.sent, reliable.frames, reliable.delivered) == \
        (16, 597, 16)
    assert (reliable.retransmits, reliable.acks, reliable.dead_letters,
            reliable.duplicates) == (37, 16, 0, 0)
