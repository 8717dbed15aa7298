"""End-to-end span propagation: send → receive → reply, frame to frame."""

from dataclasses import replace

import pytest

from repro.experiments import TankScenario, run_tank_scenario
from repro.groups import HEARTBEAT_KIND
from repro.groups.messages import Heartbeat
from repro.node import Mote
from repro.sim import TraceQuery, dump_trace, load_trace, query


def run_quick(**overrides):
    scenario = replace(TankScenario(columns=6, rows=2, seed=11),
                       **overrides)
    return run_tank_scenario(scenario).app.sim


def run_recording_frames(monkeypatch):
    """``run_quick()``, plus every frame sent, by frame id."""
    frames = {}
    do_send = Mote._do_send

    def recording(mote, frame):
        frames[frame.frame_id] = frame
        do_send(mote, frame)

    monkeypatch.setattr(Mote, "_do_send", recording)
    return run_quick(), frames


class TestFrameSpans:
    def test_every_sent_frame_has_a_span(self):
        sim = run_quick()
        spans = sim.spans
        for record in sim.trace_records("radio.tx"):
            sid = spans.span_of_frame(record.detail["frame_id"])
            assert sid is not None
            assert spans.get(sid).name == \
                f"frame.{record.detail['kind']}"

    def test_handlers_are_children_of_the_triggering_frame(self,
                                                           monkeypatch):
        # A frame's handlers run under the frame's own span and open
        # none of their own, so what a handler sends is a child of the
        # frame that triggered it: a heartbeat a member rebroadcasts is a
        # child of the heartbeat it forwards, and its span names the
        # forwarding node.
        sim, frames = run_recording_frames(monkeypatch)
        spans = sim.spans
        assert not spans.find("handle.")
        forwarded = [frame for frame in frames.values()
                     if isinstance(frame.payload, Heartbeat)
                     and frame.src != frame.payload.leader]
        # A send that queues behind other CPU work keeps the span it was
        # posted under, so every rebroadcast chains.
        assert forwarded
        for frame in forwarded:
            span = spans.get(frame.span_id)
            assert span.parent_id is not None
            assert span.node == frame.src
            (cause_id,) = spans.get(span.parent_id).frame_ids
            cause = frames[cause_id]
            assert cause.kind == HEARTBEAT_KIND
            assert cause.src != frame.src
            assert (cause.payload.label, cause.payload.seq) == \
                (frame.payload.label, frame.payload.seq)

    def test_replies_chain_to_their_cause(self):
        # Every reply chains to the frame that caused it, across the
        # radio hop and the CPU queue hop: its parent is a frame span
        # whose frame went on the air no later than the reply, and the
        # causal query walks the frames from the root to the reply.
        sim = run_quick()
        spans = sim.spans
        sent_at = {record.detail["frame_id"]: record.time
                   for record in sim.trace_records("radio.tx")}
        replies = [record for record in spans.find("frame.")
                   if record.parent_id is not None]
        assert replies, "no frame chained under another frame"
        for record in replies:
            parent = spans.get(record.parent_id)
            assert parent.name.startswith(("frame.", "dir."))
            (frame_id,) = record.frame_ids
            for cause in parent.frame_ids:
                assert sent_at[cause] <= sent_at[frame_id]
            causes = query(sim).causes(record.span_id).category("radio.tx")
            assert {r.detail["frame_id"] for r in causes} == \
                spans.ancestor_frames(record.span_id)

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
