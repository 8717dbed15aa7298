"""Unit tests for the data collection protocol helpers."""

import pytest

from repro.aggregation import AggregateVarSpec, report_period, sample_readings
from repro.node import Mote
from repro.radio import Medium
from repro.sim import Simulator


def spec(name="v", freshness=1.0):
    return AggregateVarSpec(name, "avg", name, freshness=freshness)


class TestReportPeriod:
    def test_period_is_freshness_minus_delay(self):
        assert report_period([spec(freshness=1.0)], 0.1) == \
            pytest.approx(0.9)

    def test_tightest_freshness_drives_period(self):
        specs = [spec("a", freshness=5.0), spec("b", freshness=1.0)]
        assert report_period(specs, 0.1) == pytest.approx(0.9)

    def test_degenerate_freshness_falls_back_to_half(self):
        assert report_period([spec(freshness=0.1)], 0.2) == \
            pytest.approx(0.05)

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            report_period([], 0.1)


class TestSampleReadings:
    def test_samples_only_installed_sensors(self):
        sim = Simulator()
        medium = Medium(sim, communication_radius=1.0)
        mote = Mote(sim, 0, (0.0, 0.0), medium)
        mote.install_sensor("temperature", lambda: 42.0)
        specs = [AggregateVarSpec("heat", "avg", "temperature"),
                 AggregateVarSpec("noise", "avg", "acoustic")]
        readings = sample_readings(mote, specs)
        assert readings == {"heat": 42.0}
