"""Unit tests for the causal span tracker."""

import pytest

from repro.telemetry.spans import SpanTracker


class TestLifecycle:
    def test_start_records_name_node_and_parent(self):
        tracker = SpanTracker()
        root = tracker.start("frame.heartbeat", node=3)
        child = tracker.start("frame.vouch", node=4, parent=root)
        record = tracker.get(root)
        assert record.name == "frame.heartbeat"
        assert record.node == 3
        assert record.parent_id is None
        assert record.frame_ids == []
        assert tracker.get(child).parent_id == root

    def test_ids_are_deterministic(self):
        a = SpanTracker()
        b = SpanTracker()
        assert [a.start("x") for _ in range(3)] == \
            [b.start("x") for _ in range(3)]


class TestContext:
    def test_parent_defaults_to_current(self):
        tracker = SpanTracker()
        root = tracker.start("root")
        tracker.current = root
        child = tracker.start("child")
        assert tracker.get(child).parent_id == root
        assert [r.span_id for r in tracker.children(root)] == [child]

    def test_root_flag_forces_tree_root(self):
        tracker = SpanTracker()
        tracker.current = tracker.start("outer")
        forced = tracker.start("forced", root=True)
        assert tracker.get(forced).parent_id is None

    def test_span_context_manager_nests_and_restores(self):
        tracker = SpanTracker()
        with tracker.span("outer") as outer:
            assert tracker.current == outer
            with tracker.span("inner") as inner:
                assert tracker.current == inner
            assert tracker.current == outer
        assert tracker.current is None
        assert tracker.get(inner).parent_id == outer

    def test_swap_returns_previous(self):
        tracker = SpanTracker()
        sid = tracker.start("a")
        assert tracker.swap(sid) is None
        assert tracker.swap(None) == sid


class TestTreeQueries:
    def build(self, tracker):
        #      r
        #     / \
        #    a   b
        #    |
        #    c
        r = tracker.start("r", root=True)
        a = tracker.start("a", parent=r)
        b = tracker.start("b", parent=r)
        c = tracker.start("c", parent=a)
        return r, a, b, c

    def test_subtree_preorder(self):
        tracker = SpanTracker()
        r, a, b, c = self.build(tracker)
        assert tracker.subtree(r) == [r, a, c, b]
        assert tracker.subtree(a) == [a, c]

    def test_ancestors_root_to_leaf(self):
        tracker = SpanTracker()
        r, a, b, c = self.build(tracker)
        assert tracker.ancestors(c) == [r, a, c]
        assert tracker.ancestors(r) == [r]

    def test_unknown_span_raises(self):
        tracker = SpanTracker()
        with pytest.raises(KeyError):
            tracker.subtree(99)
        with pytest.raises(KeyError):
            tracker.ancestors(99)

    def test_roots_find_len_contains(self):
        tracker = SpanTracker()
        r, a, b, c = self.build(tracker)
        assert [rec.span_id for rec in tracker.roots()] == [r]
        assert [rec.span_id for rec in tracker.find("a")] == [a]
        assert len(tracker) == 4
        assert r in tracker
        assert 99 not in tracker

    def test_frame_association(self):
        tracker = SpanTracker()
        r, a, b, c = self.build(tracker)
        tracker.note_frame(a, 10)
        tracker.note_frame(c, 11)
        tracker.note_frame(b, 12)
        assert tracker.span_of_frame(11) == c
        assert tracker.span_of_frame(77) is None
        assert tracker.subtree_frames(a) == {10, 11}
        assert tracker.ancestor_frames(c) == {10, 11}
        assert tracker.subtree_frames(r) == {10, 11, 12}

    def test_note_frame_on_unknown_span_is_noop(self):
        tracker = SpanTracker()
        tracker.note_frame(99, 1)
        assert tracker.span_of_frame(1) is None

    def test_format_tree(self):
        tracker = SpanTracker()
        r, a, b, c = self.build(tracker)
        tracker.note_frame(c, 5)
        assert tracker.format_tree(r).splitlines() == [
            "r [span 1, node -]",
            "  a [span 2, node -]",
            "    c [span 4, node -] frames=[5]",
            "  b [span 3, node -]",
        ]
