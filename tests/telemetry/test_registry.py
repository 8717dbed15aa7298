"""Unit tests for the metric instruments and registry."""

import collections

import pytest

from repro.telemetry.registry import (Counter, Gauge, Histogram,
                                      MetricsRegistry, merged, summed)


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
        # A bad arity must not slip in after a good series exists.
        c = Counter("n", "", ("kind",))
        c.inc(1.0, "hb")
        with pytest.raises(ValueError, match="label"):
            c.inc(1.0, "hb", "extra")
        assert c.value("hb") == pytest.approx(1.0)

    def test_render_prometheus_lines(self):
        c = Counter("frames_total", "Frames sent.", ("kind",))
        c.inc(2.0, "hb")
        lines = c.render()
        assert "# HELP frames_total Frames sent." in lines
        assert "# TYPE frames_total counter" in lines
        assert 'frames_total{kind="hb"} 2' in lines

    def test_render_untouched_counter_emits_zero_sample(self):
        assert Counter("n", "").render()[-1] == "n 0"

    def test_render_escapes_label_values(self):
        c = Counter("records_total", "", ("category",))
        c.inc(1.0, 'app.x"y')
        c.inc(2.0, "app.a\\b")
        c.inc(3.0, "app.one\ntwo")
        assert c.render()[2:] == [
            'records_total{category="app.a\\\\b"} 2',
            'records_total{category="app.one\\ntwo"} 3',
            'records_total{category="app.x\\"y"} 1',
        ]


class TestGauge:
    def test_inc_may_go_down(self):
        g = Gauge("depth", "")
        g.inc(4.0)
        g.inc(-5.0)
        assert g.value() == pytest.approx(-1.0)

    def test_labelled(self):
        g = Gauge("joules", "", ("node",))
        g.inc(1.5, "3")
        g.inc(0.5, "3")
        assert g.value("3") == pytest.approx(2.0)
        assert g.value("4") == 0.0
        with pytest.raises(ValueError, match="label"):
            g.inc(1.0)


class TestHistogram:
    def test_observe_count_sum_mean(self):
        # The count and sum of each series are read from its render.
        h = Histogram("lat", "", ("reason",))
        for v in (0.05, 0.5, 5.0):
            h.observe(v, "crash")
        h.observe(2.0, "yield")
        assert h.series() == {("crash",): 3, ("yield",): 1}
        lines = h.render()
        assert 'lat_count{reason="crash"} 3' in lines
        assert 'lat_sum{reason="crash"} 5.55' in lines
        assert 'lat_sum{reason="yield"} 2' in lines
        with pytest.raises(ValueError, match="label"):
            h.observe(1.0)

    def test_render_cumulative_buckets(self):
        h = Histogram("lat", "Latency.")
        assert h.render() == ["# HELP lat Latency.",
                              "# TYPE lat histogram"]
        for v in (0.05, 0.5, 5.0, 100.0):
            h.observe(v)
        text = "\n".join(h.render())
        assert 'lat_bucket{le="0.005"} 0' in text
        assert 'lat_bucket{le="0.05"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="60"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text


def tally(value=1.0):
    """An unlabelled fill reading ``value`` from its source."""
    return summed(lambda source: value)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        # A family is registered once: a second registration (another
        # help string, another source) joins the first family.
        reg = MetricsRegistry()
        reg.view(Counter, "n", "help", ("kind",),
                 merged(lambda source: source), {"hb": 1})
        reg.view(Counter, "n", "other help", ("kind",),
                 merged(lambda source: source), {"hb": 2})
        assert reg.names() == ["n"]
        assert reg.get("n").help == "help"
        assert reg.get("n").value("hb") == 3.0

    def test_conflicting_kind_rejected(self):
        reg = MetricsRegistry()
        reg.view(Counter, "n", "", (), tally(), None)
        with pytest.raises(ValueError, match="already registered"):
            reg.view(Gauge, "n", "", (), tally(), None)

    def test_conflicting_labels_rejected(self):
        reg = MetricsRegistry()
        reg.view(Counter, "n", "", ("kind",), merged(dict), {})
        with pytest.raises(ValueError, match="labels"):
            reg.view(Counter, "n", "", ("node",), merged(dict), {})

    def test_names_and_contains(self):
        reg = MetricsRegistry()
        reg.view(Counter, "b", "", (), tally(), None)
        reg.view(Gauge, "a", "", (), tally(), None)
        assert reg.names() == ["a", "b"]
        assert "a" in reg
        assert reg.get("missing") is None

    def test_render_prometheus_covers_all_metrics(self):
        reg = MetricsRegistry()
        reg.view(Counter, "c_total", "C.", (), tally(1.0), None)
        reg.view(Gauge, "g", "G.", (), tally(2.0), None)
        reg.view(Histogram, "h", "H.", (),
                 lambda histogram, sources: histogram.observe(0.5), None)
        text = reg.render_prometheus()
        for fragment in ("c_total 1", "g 2", 'h_bucket{le="0.5"} 1',
                         "# TYPE h histogram"):
            assert fragment in text
        assert text.endswith("\n")

    def test_snapshot(self):
        # A read builds the family's instrument as it is now.
        reg = MetricsRegistry()
        reg.view(Counter, "c_total", "", ("kind",),
                 merged(lambda source: source), {"hb": 2})
        metric = reg.get("c_total")
        assert metric.kind == "counter"
        assert metric.series() == {("hb",): 2.0}


class TestViews:
    def test_view_is_computed_on_every_read(self):
        reg = MetricsRegistry()
        counts = {"hb": 1}
        reg.view(Counter, "frames_total", "Frames.", ("kind",),
                 merged(lambda source: source), counts)
        assert reg.get("frames_total").value("hb") == 1.0
        counts["hb"] = 3
        assert reg.get("frames_total").series() == {("hb",): 3.0}
        assert 'frames_total{kind="hb"} 3' in reg.render_prometheus()

    def test_each_source_is_summed_once(self):
        reg = MetricsRegistry()
        first, second = [2.0], [5.0]
        for source in (first, second, first):
            reg.view(Gauge, "depth", "", (),
                     summed(lambda source: source[0]), source)
        assert reg.get("depth").value() == 7.0

    def test_record_views_read_the_records_when_read(self):
        from repro.sim import TraceRecord

        records = [TraceRecord(0.0, "radio.tx", 1, {"kind": "hb"}),
                   TraceRecord(0.2, "radio.lost", 2, {"kind": "hb"})]
        reg = MetricsRegistry()
        reg.record_views([
            (Counter, "sent_total", "", ("kind",),
             merged(lambda records: collections.Counter(
                 record.detail["kind"] for record in records
                 if record.category == "radio.tx")))], records)
        assert reg.get("sent_total").series() == {("hb",): 1.0}
        records.append(TraceRecord(0.3, "radio.tx", 1, {"kind": "report"}))
        assert reg.get("sent_total").series() == {("hb",): 1.0,
                                                  ("report",): 1.0}

    def test_copy_shares_views_but_not_new_families(self):
        reg = MetricsRegistry()
        value = [1.0]
        reg.view(Counter, "n_total", "", (),
                 summed(lambda source: source[0]), value)
        copy = reg.copy()
        copy.view(Gauge, "extra", "", (), summed(len), value)
        value[0] = 4.0
        assert copy.get("n_total").value() == 4.0
        assert "extra" in copy and "extra" not in reg
