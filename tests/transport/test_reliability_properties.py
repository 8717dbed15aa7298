"""Property-based tests for the reliable-delivery primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport import DedupTable
from repro.transport.reliability import DEDUP_CONNECTIONS, DEDUP_WINDOW

#: 48 streams: fewer than the DEDUP_CONNECTIONS the table remembers.
connections = st.tuples(
    st.sampled_from(["a#1.1", "b#2.1", "c#3.1"]),
    st.integers(min_value=0, max_value=1),
    st.sampled_from(["x#7.1", "y#8.1"]),
    st.integers(min_value=0, max_value=3),
)

#: An arrival schedule: each (connection, seq) may appear many times, in
#: any interleaving — the shape of retransmission storms.
arrivals = st.lists(
    st.tuples(connections, st.integers(min_value=1, max_value=30)),
    min_size=1, max_size=200,
)


@given(arrivals)
@settings(max_examples=150)
def test_at_most_once_per_pair_while_remembered(schedule):
    """However arrivals interleave, ``mark`` passes a pair at most once
    while it stays within the dedup windows (which hold all 48 streams
    and 30 sequence numbers of a schedule, so "remembered" means
    "always")."""
    table = DedupTable()
    passed = set()
    suppressed = 0
    for conn, seq in schedule:
        if table.mark(conn, seq):
            assert (conn, seq) not in passed, \
                f"{(conn, seq)} delivered twice"
            passed.add((conn, seq))
        else:
            suppressed += 1
    # Every distinct pair got through exactly once in total.
    assert passed == set(schedule)
    assert suppressed == len(schedule) - len(passed)


@given(arrivals)
@settings(max_examples=100)
def test_mark_then_arrival_never_delivers(schedule):
    """Pre-warming via mark() (the dedup-share path) must suppress every
    later direct arrival of the same pair."""
    table = DedupTable()
    for conn, seq in schedule:
        table.mark(conn, seq)
    for conn, seq in schedule:
        assert not table.mark(conn, seq)


#: Schedules that overflow both bounds: up to 100 streams, and runs of
#: consecutive sequence numbers long enough to pass the window.
wide_arrivals = st.lists(
    st.tuples(st.integers(min_value=0, max_value=99),
              st.integers(min_value=1, max_value=DEDUP_WINDOW + 40),
              st.integers(min_value=1, max_value=DEDUP_WINDOW + 40)),
    min_size=1, max_size=120,
)


@given(wide_arrivals)
@settings(max_examples=100)
def test_dedup_bounds_hold_under_any_schedule(runs):
    table = DedupTable()
    for source, first, length in runs:
        stream = ((f"a#{source}.1", 0, "x#7.1", 0), source, 0)
        for seq in range(first, first + length):
            table.mark(stream, seq)
        assert len(table) <= DEDUP_CONNECTIONS
        assert all(len(seqs) <= DEDUP_WINDOW
                   for seqs in table._seen.values())
