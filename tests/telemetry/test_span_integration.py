"""End-to-end span propagation: send → receive → handler → reply."""

from dataclasses import replace

import pytest

from repro.experiments import TankScenario, run_tank_scenario
from repro.sim import TraceQuery, dump_trace, load_trace, query


def run_quick(**overrides):
    scenario = replace(TankScenario(columns=6, rows=2, seed=11),
                       **overrides)
    return run_tank_scenario(scenario).app.sim


class TestFrameSpans:
    def test_every_sent_frame_has_a_span(self):
        sim = run_quick()
        spans = sim.spans
        for record in sim.trace_records("radio.tx"):
            sid = spans.span_of_frame(record.detail["frame_id"])
            assert sid is not None
            assert spans.get(sid).name == \
                f"frame.{record.detail['kind']}"

    def test_handlers_are_children_of_the_triggering_frame(self):
        sim = run_quick()
        handled = sim.spans.find("handle.")
        assert handled, "no handler spans recorded"
        for record in handled:
            assert record.parent_id is not None
            parent = sim.spans.get(record.parent_id)
            assert parent.name == "frame." + record.name[len("handle."):]

    def test_replies_chain_to_their_cause(self):
        # A heartbeat's receive handlers sometimes reply (defend,
        # rebroadcast).  Any frame span with a handler parent proves the
        # send→receive→handler→reply chain survived both the radio hop
        # and the CPU queue hop.
        sim = run_quick()
        chained = [record for record in sim.spans.find("frame.")
                   if record.parent_id is not None and
                   sim.spans.get(record.parent_id).name
                   .startswith("handle.")]
        assert chained, "no reply frame chained under a handler span"
        for record in chained[:20]:
            path = sim.spans.ancestors(record.span_id)
            names = [sim.spans.get(sid).name for sid in path]
            assert any(name.startswith("frame.") for name in names[:-1])

    def test_scheduled_continuations_inherit_spans(self):
        # MAC backoff / delivery events run later on the engine heap but
        # must still execute inside the sending frame's span; receptions
        # recorded under them therefore resolve to that frame via
        # TraceQuery.span().
        sim = run_quick()
        roots = [record for record in sim.spans.roots()
                 if record.frame_ids]
        assert roots
        root = roots[0]
        story = query(sim).span(root.span_id)
        assert story.count() > 0
        frame_ids = sim.spans.subtree_frames(root.span_id)
        assert all(r.detail.get("frame_id") in frame_ids for r in story)


class TestDirectoryLookupStory:
    def test_lookup_span_collects_the_routing_story(self):
        sim = run_quick(enable_directory=True, enable_mtp=True)
        lookups = sim.spans.find("dir.lookup")
        if not lookups:  # tiny runs may never issue a lookup
            return
        lookup = lookups[0]
        subtree = sim.spans.subtree(lookup.span_id)
        assert subtree[0] == lookup.span_id
        story = query(sim).span(lookup.span_id)
        causes = query(sim).causes(lookup.span_id)
        # causes ⊆ full ancestry frames; both must be well-formed lists.
        assert story.count() >= 0
        assert causes.count() >= 0


class TestLiveTelemetry:
    def test_trace_counter_and_spans_populate(self):
        sim = run_quick()
        assert sim.metrics.get("repro_trace_records_total").total() == \
            len(sim.trace)
        assert len(sim.spans) > 0


class TestQueryGuards:
    def test_span_query_requires_live_tracker(self, tmp_path):
        # A loaded trace file carries no spans, so its query has no
        # tracker and the causal filters must refuse to run.
        path = str(tmp_path / "run.jsonl")
        dump_trace(run_quick(), path)
        loaded = TraceQuery(load_trace(path))
        with pytest.raises(ValueError, match="span tracker"):
            loaded.span(1)
        with pytest.raises(ValueError, match="span tracker"):
            loaded.causes(1)
