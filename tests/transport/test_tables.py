"""Unit tests for the last-known-leader LRU table (§5.4)."""

from repro.transport import LEADER_TABLE_CAPACITY, LastKnownLeaderTable


def fill(table, count):
    """Update labels ``l0`` .. ``l<count-1>`` in that order."""
    for i in range(count):
        table.update(f"l{i}", i, now=float(i))


def test_update_and_get():
    table = LastKnownLeaderTable()
    table.update("a", leader=1, now=0.0)
    pointer = table.get("a")
    assert pointer is not None
    assert pointer.leader == 1


def test_newer_update_wins():
    table = LastKnownLeaderTable()
    table.update("a", 1, now=0.0)
    table.update("a", 2, now=1.0)
    assert table.get("a").leader == 2


def test_stale_update_ignored():
    """Reordered messages must not roll leadership information back."""
    table = LastKnownLeaderTable()
    table.update("a", 2, now=5.0)
    table.update("a", 1, now=3.0)
    assert table.get("a").leader == 2


def test_lru_eviction_order():
    assert LEADER_TABLE_CAPACITY == 16
    table = LastKnownLeaderTable()
    fill(table, 16)
    table.get("l0")  # refresh l0's recency
    table.update("new", 99, now=20.0)  # the 17th label evicts l1
    assert "l0" in table
    assert "l1" not in table
    assert "new" in table
    assert len(table) == 16


def test_forget():
    table = LastKnownLeaderTable()
    table.update("a", 1, now=0.0)
    table.forget("a")
    assert table.get("a") is None
    table.forget("missing")  # idempotent


def test_labels_in_lru_order():
    # Reads and writes both refresh recency; labels leave in LRU order.
    table = LastKnownLeaderTable()
    fill(table, 16)
    table.get("l0")
    table.update("l1", 1, now=0.5)  # an older time still refreshes
    for extra in range(3):
        table.update(f"x{extra}", extra, now=30.0)
    assert [f"l{i}" in table for i in range(6)] == \
        [True, True, False, False, False, True]


def test_len_and_bounds():
    table = LastKnownLeaderTable()
    fill(table, 40)
    assert len(table) == LEADER_TABLE_CAPACITY
    assert all(f"l{i}" in table for i in range(24, 40))
