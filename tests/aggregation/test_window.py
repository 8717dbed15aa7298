"""Unit tests for sliding windows — the §3.2.3 QoS semantics."""

import pytest

from repro.aggregation import (AggregateStore, AggregateVarSpec,
                               default_registry)
from repro.aggregation.window import SlidingWindow
from repro.telemetry import MetricsRegistry


def make_window(confidence=2, freshness=1.0, function="avg"):
    spec = AggregateVarSpec("v", function, "sensor",
                            confidence=confidence, freshness=freshness)
    return SlidingWindow(spec, default_registry().get(function))


class TestValiditySemantics:
    def test_null_until_critical_mass(self):
        window = make_window(confidence=2)
        window.add(sender=1, value=10.0, time=0.0)
        result = window.evaluate(now=0.5)
        assert not result.valid
        assert result.value is None
        assert result.contributors == 1

    def test_valid_at_critical_mass(self):
        window = make_window(confidence=2)
        window.add(1, 10.0, 0.0)
        window.add(2, 20.0, 0.1)
        result = window.evaluate(now=0.5)
        assert result.valid
        assert result.value == pytest.approx(15.0)
        assert result.contributors == 2

    def test_stale_readings_do_not_count(self):
        window = make_window(confidence=2, freshness=1.0)
        window.add(1, 10.0, 0.0)
        window.add(2, 20.0, 2.0)
        result = window.evaluate(now=2.5)  # reading 1 is 2.5s old
        assert not result.valid
        assert result.contributors == 1

    def test_critical_mass_counts_devices_not_messages(self):
        window = make_window(confidence=2)
        for t in (0.0, 0.2, 0.4):
            window.add(1, 10.0, t)  # same sender, many messages
        assert not window.evaluate(now=0.5).valid

    def test_latest_reading_per_sender_wins(self):
        window = make_window(confidence=1)
        window.add(1, 10.0, 0.0)
        window.add(1, 30.0, 0.5)
        assert window.evaluate(now=0.6).value == pytest.approx(30.0)

    def test_reordered_older_reading_ignored(self):
        window = make_window(confidence=1)
        window.add(1, 30.0, 0.5)
        window.add(1, 10.0, 0.2)  # late arrival of an older measurement
        assert window.evaluate(now=0.6).value == pytest.approx(30.0)

    def test_oldest_reading_age_within_freshness(self):
        window = make_window(confidence=2, freshness=1.0)
        window.add(1, 10.0, 0.0)
        window.add(2, 20.0, 0.5)
        result = window.evaluate(now=0.9)
        assert result.valid
        assert result.oldest_reading_age == pytest.approx(0.9)
        assert result.oldest_reading_age <= 1.0

    def test_prune_removes_stale(self):
        window = make_window(confidence=1, freshness=1.0)
        window.add(1, 10.0, 0.0)
        window.add(2, 20.0, 5.0)
        window.prune(now=5.5)
        assert len(window) == 1

    def test_boolean_result_protocol(self):
        window = make_window(confidence=1)
        assert not window.evaluate(now=0.0)
        window.add(1, 1.0, 0.0)
        assert window.evaluate(now=0.1)


class TestSpecValidation:
    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            AggregateVarSpec("v", "avg", "s", confidence=0)

    def test_rejects_bad_freshness(self):
        with pytest.raises(ValueError):
            AggregateVarSpec("v", "avg", "s", freshness=0.0)


class TestAggregateStore:
    def build(self):
        specs = [
            AggregateVarSpec("location", "avg", "position",
                             confidence=2, freshness=1.0),
            AggregateVarSpec("heat", "max", "temperature",
                             confidence=1, freshness=2.0),
        ]
        return AggregateStore(specs, default_registry(), MetricsRegistry())

    def test_report_fans_out_to_windows(self):
        store = self.build()
        store.add_report(1, {"location": (0.0, 0.0), "heat": 50.0}, 0.0)
        store.add_report(2, {"location": (2.0, 2.0)}, 0.1)
        location = store.read("location", 0.5)
        assert location.valid
        assert location.value == pytest.approx((1.0, 1.0))
        heat = store.read("heat", 0.5)
        assert heat.valid and heat.value == pytest.approx(50.0)

    def test_unknown_variables_in_report_ignored(self):
        store = self.build()
        store.add_report(1, {"bogus": 1.0}, 0.0)
        assert store.read("heat", 0.1).valid is False

    def test_read_all(self):
        store = self.build()
        store.add_report(1, {"heat": 10.0}, 0.0)
        results = store.read_all(0.1)
        assert set(results) == {"location", "heat"}
        assert results["heat"].valid

    def test_duplicate_spec_rejected(self):
        specs = [AggregateVarSpec("x", "avg", "s"),
                 AggregateVarSpec("x", "sum", "s")]
        with pytest.raises(ValueError):
            AggregateStore(specs, default_registry(), MetricsRegistry())

    def test_max_freshness(self):
        assert self.build().max_freshness() == pytest.approx(2.0)

    def test_clear(self):
        store = self.build()
        store.add_report(1, {"heat": 10.0}, 0.0)
        store.clear()
        assert not store.read("heat", 0.1).valid
