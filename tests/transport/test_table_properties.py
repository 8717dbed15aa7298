"""Property-based tests for the last-known-leader LRU table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport import LEADER_TABLE_CAPACITY, LastKnownLeaderTable


def operations(labels):
    """Update/get/forget sequences over ``labels`` distinct labels."""
    index = st.integers(min_value=0, max_value=labels - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("update"), index,
                      st.integers(min_value=0, max_value=99),   # leader
                      st.floats(min_value=0, max_value=1e4)),   # time
            st.tuples(st.just("get"), index),
            st.tuples(st.just("forget"), index),
        ),
        max_size=100,
    )


@given(operations(2 * LEADER_TABLE_CAPACITY))
@settings(max_examples=120)
def test_capacity_never_exceeded(ops):
    table = LastKnownLeaderTable()
    for op in ops:
        if op[0] == "update":
            _, idx, leader, now = op
            table.update(f"label-{idx}", leader, now)
        elif op[0] == "get":
            table.get(f"label-{op[1]}")
        else:
            table.forget(f"label-{op[1]}")
        assert len(table) <= LEADER_TABLE_CAPACITY


@given(operations(LEADER_TABLE_CAPACITY))  # no evictions
@settings(max_examples=100)
def test_pointer_timestamps_never_regress(ops):
    """Whatever the operation order, a stored pointer's timestamp is the
    max update time seen for that label since it was last resident."""
    table = LastKnownLeaderTable()
    max_seen = {}
    for op in ops:
        if op[0] == "update":
            _, idx, leader, now = op
            label = f"label-{idx}"
            table.update(label, leader, now)
            max_seen[label] = max(max_seen.get(label, -1.0), now)
        elif op[0] == "forget":
            label = f"label-{op[1]}"
            table.forget(label)
            max_seen.pop(label, None)
    for label, expected_time in max_seen.items():
        pointer = table.get(label)
        assert pointer is not None
        assert pointer.updated == expected_time


@given(st.lists(st.integers(min_value=0, max_value=29), min_size=1,
                max_size=80))
@settings(max_examples=80)
def test_most_recent_labels_survive(sequence):
    """After any update sequence, the most recently touched distinct
    labels are exactly the residents."""
    capacity = LEADER_TABLE_CAPACITY
    table = LastKnownLeaderTable()
    for t, idx in enumerate(sequence):
        table.update(f"l{idx}", idx, float(t))
    expected = []
    for idx in reversed(sequence):
        label = f"l{idx}"
        if label not in expected:
            expected.append(label)
        if len(expected) == capacity:
            break
    assert {f"l{idx}" for idx in range(30) if f"l{idx}" in table} == \
        set(expected)
