"""Unit tests for trace export/query tooling."""

import pytest

from repro.sim import Simulator, dump_trace, load_trace, query


def make_traced_sim():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.record("gm.takeover", node=1,
                                         label="L1", type="tracker"))
    sim.schedule(2.0, lambda: sim.record("gm.claim", node=2, label="L1"))
    sim.schedule(3.0, lambda: sim.record("radio.tx", node=1, kind="hb"))
    sim.schedule(4.0, lambda: sim.record("gm.takeover", node=3,
                                         label="L2", type="tracker"))
    sim.run()
    return sim


class TestDumpLoad:
    def test_round_trip(self, tmp_path):
        sim = make_traced_sim()
        path = tmp_path / "trace.jsonl"
        count = dump_trace(sim, str(path))
        assert count == 4
        records = load_trace(str(path))
        assert len(records) == 4
        assert records[0].category == "gm.takeover"
        assert records[0].node == 1
        assert records[0].detail["label"] == "L1"
        assert records[0].time == pytest.approx(1.0)

    def test_category_filter(self, tmp_path):
        sim = make_traced_sim()
        path = tmp_path / "trace.jsonl"
        count = dump_trace(sim, str(path), categories=["gm.takeover"])
        assert count == 2
        assert all(r.category == "gm.takeover"
                   for r in load_trace(str(path)))

    def test_non_serializable_details_stringified(self, tmp_path):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.record("odd", node=0,
                                             value=(1.5, 2.5)))
        sim.run()
        path = tmp_path / "trace.jsonl"
        dump_trace(sim, str(path))
        (record,) = load_trace(str(path))
        assert record.detail["value"] == [1.5, 2.5]

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1.0, "category": "x"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2|:2:"):
            load_trace(str(path))


class TestQuery:
    def test_chained_filters(self):
        sim = make_traced_sim()
        takeovers = query(sim).category("gm.takeover")
        assert takeovers.count() == 2
        assert takeovers.node(3).count() == 1
        assert takeovers.between(0.0, 2.0).count() == 1
        assert takeovers.detail("label", "L2").count() == 1
        assert query(sim).category_prefix("gm.").count() == 3

    def test_terminals(self):
        sim = make_traced_sim()
        q = query(sim).category_prefix("gm.")
        assert q.first().time == pytest.approx(1.0)
        assert q.last().time == pytest.approx(4.0)
        assert q.times() == pytest.approx([1.0, 2.0, 4.0])
        assert len(list(q)) == 3

    def test_where_predicate(self):
        sim = make_traced_sim()
        odd_nodes = query(sim).where(lambda r: (r.node or 0) % 2 == 1)
        assert odd_nodes.count() == 3

    def test_empty_query(self):
        sim = Simulator()
        assert query(sim).category("none").first() is None


class TestEnvelopeCollisions:
    """Regression: detail keys named like envelope fields must survive.

    The old flattened JSONL form wrote detail beside ``t``/``category``/
    ``node``, so a detail field with one of those names silently
    corrupted the record on roundtrip.  Detail now nests under its own
    key.
    """

    def test_detail_keys_shadowing_envelope_roundtrip(self, tmp_path):
        sim = Simulator()
        sim.schedule(1.5, lambda: sim.record(
            "app.sample", node=7, t=99.0, detail="nested"))
        sim.run()
        path = tmp_path / "trace.jsonl"
        dump_trace(sim, str(path))
        (record,) = load_trace(str(path))
        assert record.time == pytest.approx(1.5)
        assert record.category == "app.sample"
        assert record.node == 7
        assert record.detail == {"t": 99.0, "detail": "nested"}

    def test_all_envelope_names_as_detail_keys_roundtrip(self):
        from repro.sim.events import TraceRecord
        from repro.sim.tracefile import dict_to_record, record_to_dict

        record = TraceRecord(time=1.0, category="x", node=7,
                             detail={"node": 3, "t": 0.5,
                                     "category": "shadow"})
        rebuilt = dict_to_record(record_to_dict(record))
        assert rebuilt == record

    def test_digest_distinguishes_envelope_from_detail(self):
        from repro.sim import trace_digest

        a = Simulator()
        a.schedule(1.0, lambda: a.record("x", node=1, t=2.0))
        a.run()
        b = Simulator()
        b.schedule(2.0, lambda: b.record("x", node=1, t=1.0))
        b.run()
        assert trace_digest(a) != trace_digest(b)

    def test_flattened_form_rejected(self, tmp_path):
        path = tmp_path / "flattened.jsonl"
        path.write_text(
            '{"t": 3.0, "category": "gm.claim", "node": 4, '
            '"label": "L1", "hops": 2}\n')
        with pytest.raises(ValueError, match="flattened.jsonl:1"):
            load_trace(str(path))
