"""Unit tests for the metric instruments and registry."""

import pytest

from repro.telemetry.registry import (Counter, Gauge, Histogram,
                                      MetricsRegistry)


class TestCounter:
    def test_unlabelled_inc_and_total(self):
        c = Counter("frames_total", "Frames.")
        c.inc()
        c.inc(2.5)
        assert c.value() == pytest.approx(3.5)
        assert c.total() == pytest.approx(3.5)

    def test_labelled_series_are_independent(self):
        c = Counter("frames_total", "Frames.", ("kind",))
        c.inc(1.0, "heartbeat")
        c.inc(1.0, "heartbeat")
        c.inc(5.0, "claim")
        assert c.value("heartbeat") == pytest.approx(2.0)
        assert c.value("claim") == pytest.approx(5.0)
        assert c.total() == pytest.approx(7.0)
        assert c.series() == {("heartbeat",): 2.0, ("claim",): 5.0}

    def test_negative_increment_rejected(self):
        c = Counter("n", "")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1.0)

    def test_wrong_label_arity_rejected(self):
        c = Counter("n", "", ("kind",))
        with pytest.raises(ValueError, match="label"):
            c.inc(1.0)
        with pytest.raises(ValueError, match="label"):
            c.inc(1.0, "a", "b")

    def test_fast_path_still_validates_new_keys(self):
        # The seen-key fast path must not let a bad arity slip in after
        # a good series exists.
        c = Counter("n", "", ("kind",))
        c.inc(1.0, "hb")
        with pytest.raises(ValueError, match="label"):
            c.inc(1.0, "hb", "extra")
        assert c.value("hb") == pytest.approx(1.0)

    def test_bound_counter(self):
        c = Counter("n", "", ("kind",))
        bound = c.labels("hb")
        bound.inc()
        bound.inc(2.0)
        assert c.value("hb") == pytest.approx(3.0)

    def test_render_prometheus_lines(self):
        c = Counter("frames_total", "Frames sent.", ("kind",))
        c.inc(2.0, "hb")
        lines = c.render()
        assert "# HELP frames_total Frames sent." in lines
        assert "# TYPE frames_total counter" in lines
        assert 'frames_total{kind="hb"} 2' in lines

    def test_render_untouched_counter_emits_zero_sample(self):
        assert Counter("n", "").render()[-1] == "n 0"


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth", "")
        g.set(4.0)
        g.inc(2.0)
        g.dec(5.0)
        assert g.value() == pytest.approx(1.0)

    def test_labelled(self):
        g = Gauge("joules", "", ("node",))
        g.set(1.5, "3")
        g.inc(0.5, "3")
        assert g.value("3") == pytest.approx(2.0)
        assert g.value("4") == 0.0


class TestHistogram:
    def test_observe_count_sum_mean(self):
        h = Histogram("lat", "", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(5.55)
        assert h.mean() == pytest.approx(5.55 / 3)

    def test_render_cumulative_buckets(self):
        h = Histogram("lat", "Latency.", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = "\n".join(h.render())
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_quantile_interpolates(self):
        h = Histogram("lat", "", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 3.5):
            h.observe(v)
        assert 0.0 <= h.quantile(0.5) <= 2.0
        assert h.quantile(1.0) <= 4.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", "", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("n", "help", ("kind",))
        b = reg.counter("n", "other help", ("kind",))
        assert a is b

    def test_conflicting_kind_rejected(self):
        reg = MetricsRegistry()
        reg.counter("n", "")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("n", "")

    def test_conflicting_labels_rejected(self):
        reg = MetricsRegistry()
        reg.counter("n", "", ("kind",))
        with pytest.raises(ValueError, match="labels"):
            reg.counter("n", "", ("node",))

    def test_names_contains_iter(self):
        reg = MetricsRegistry()
        reg.counter("b", "")
        reg.gauge("a", "")
        assert reg.names() == ["a", "b"]
        assert "a" in reg
        assert list(reg) == ["a", "b"]
        assert reg.get("missing") is None

    def test_render_prometheus_covers_all_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "C.").inc(1.0)
        reg.gauge("g", "G.").set(2.0)
        reg.histogram("h", "H.", buckets=(1.0,)).observe(0.5)
        text = reg.render_prometheus()
        for fragment in ("c_total 1", "g 2", 'h_bucket{le="1"} 1',
                         "# TYPE h histogram"):
            assert fragment in text
        assert text.endswith("\n")

    def test_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "", ("kind",)).inc(2.0, "hb")
        snap = reg.snapshot()
        assert snap["c_total"]["kind"] == "counter"
        assert snap["c_total"]["series"] == {("hb",): 2.0}
