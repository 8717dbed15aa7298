"""Unit and integration tests for the event-loop profiler."""

import pytest

from repro.sim import Simulator, trace_digest
from repro.telemetry.profiler import (EventLoopProfiler, UNLABELED,
                                      normalize_label)


class TestNormalizeLabel:
    def test_strips_node_suffix(self):
        assert normalize_label("gm.heartbeat@12") == "gm.heartbeat"

    def test_plain_label_unchanged(self):
        assert normalize_label("radio.delivery") == "radio.delivery"

    def test_empty_label_sentinel(self):
        assert normalize_label("") == UNLABELED

    def test_leading_at_not_treated_as_suffix(self):
        assert normalize_label("@weird") == "@weird"


class TestProfiler:
    def test_note_accumulates(self):
        p = EventLoopProfiler()
        p.note("gm.heartbeat@1", 0.002)
        p.note("gm.heartbeat@2", 0.004)
        p.note("radio.delivery", 0.001)
        profile = p.get("gm.heartbeat")
        assert profile.count == 2
        assert profile.total_seconds == pytest.approx(0.006)
        assert profile.max_seconds == pytest.approx(0.004)
        assert profile.mean_seconds == pytest.approx(0.003)
        assert p.events_profiled == 3
        assert p.total_seconds == pytest.approx(0.007)
        assert "gm.heartbeat@99" in p
        assert "never" not in p

    def test_profiles_sorted_hottest_first(self):
        p = EventLoopProfiler()
        p.note("cold", 0.001)
        p.note("hot", 0.010)
        assert [x.label for x in p.profiles()] == ["hot", "cold"]
        assert [x.label for x in p.hot(1)] == ["hot"]

    def test_by_category_rollup(self):
        p = EventLoopProfiler()
        p.note("gm.heartbeat", 0.002)
        p.note("gm.defend", 0.001)
        p.note("radio.delivery", 0.004)
        rollup = p.by_category()
        assert rollup["gm"].count == 2
        assert rollup["gm"].total_seconds == pytest.approx(0.003)
        assert rollup["radio"].max_seconds == pytest.approx(0.004)

    def test_format_table(self):
        p = EventLoopProfiler()
        p.note("gm.heartbeat", 0.002)
        table = p.format_table()
        assert "gm.heartbeat" in table
        assert "events" in table


class TestEngineIntegration:
    def run_sim(self, profiler_on):
        sim = Simulator(seed=5)
        if profiler_on:
            sim.enable_profiler()

        def tick(n):
            sim.record("app.tick", node=n)
            if n:
                sim.schedule(1.0, tick, n - 1, label=f"app.tick@{n}")

        sim.schedule(1.0, tick, 3, label="app.tick@3")
        sim.run()
        return sim

    def test_profiler_counts_events_by_label(self):
        sim = self.run_sim(profiler_on=True)
        assert sim.profiler.get("app.tick").count == 4
        assert sim.profiler.events_profiled == 4

    def test_profiler_does_not_perturb_the_trace(self):
        plain = self.run_sim(profiler_on=False)
        profiled = self.run_sim(profiler_on=True)
        assert trace_digest(plain) == trace_digest(profiled)
        # Profiler output stays outside the trace entirely.
        assert all(not r.category.startswith("profiler")
                   for r in profiled.trace)

    def test_enable_is_idempotent_disable_discards(self):
        sim = Simulator()
        p = sim.enable_profiler()
        assert sim.enable_profiler() is p
        sim.disable_profiler()
        assert sim.profiler is None
