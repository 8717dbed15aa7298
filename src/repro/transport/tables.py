"""Bounded LRU tables for transport state.

§5.4: "Leadership information is retained for as long as possible, given
limited table sizes.  Replacement is done on a least-recently-used basis."
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass
class LeaderPointer:
    """Last-known leader of a context label."""

    leader: int
    updated: float


class LastKnownLeaderTable:
    """LRU map: context label → last-known leader.

    Both reads and writes refresh recency, so labels in active conversations
    stay resident while idle ones age out.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, LeaderPointer]" = OrderedDict()
        self.evictions = 0

    def update(self, label: str, leader: int, now: float) -> None:
        """Record ``leader`` as the freshest known leader of ``label``.

        An older timestamp never overwrites a newer pointer (reordered
        messages must not roll leadership information back).
        """
        existing = self._entries.get(label)
        if existing is not None:
            if now >= existing.updated:
                existing.leader = leader
                existing.updated = now
            self._entries.move_to_end(label)
            return
        self._entries[label] = LeaderPointer(leader=leader, updated=now)
        self._entries.move_to_end(label)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get(self, label: str) -> Optional[LeaderPointer]:
        entry = self._entries.get(label)
        if entry is not None:
            self._entries.move_to_end(label)
        return entry

    def peek(self, label: str) -> Optional[LeaderPointer]:
        """Read without refreshing recency (for tests/metrics)."""
        return self._entries.get(label)

    def forget(self, label: str) -> None:
        self._entries.pop(label, None)

    def clear(self) -> None:
        """Drop every pointer (a reboot wipes transport RAM)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, label: str) -> bool:
        return label in self._entries

    def labels(self) -> Iterator[str]:
        """Labels from least- to most-recently used."""
        return iter(self._entries)


class NegativeCache:
    """Bounded TTL memory of labels the directory recently did not know.

    A lookup that comes back without the requested label parks the label
    here; until the entry expires, repeated sends to it fail locally
    instead of storming the directory point with queries that will fail
    again (§5.3's directory object is a small neighborhood of nodes — a
    hot unknown label would otherwise monopolize it).
    """

    def __init__(self, ttl: float = 5.0, capacity: int = 32) -> None:
        if not ttl > 0:  # also rejects NaN
            raise ValueError(f"ttl must be positive: {ttl}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.ttl = ttl
        self.capacity = capacity
        self._expiry: "OrderedDict[str, float]" = OrderedDict()

    def store(self, label: str, now: float) -> None:
        """Remember ``label`` as unknown until ``now + ttl``."""
        self._expiry[label] = now + self.ttl
        self._expiry.move_to_end(label)
        while len(self._expiry) > self.capacity:
            self._expiry.popitem(last=False)

    def fresh(self, label: str, now: float) -> bool:
        """True while the negative entry is unexpired (expired entries
        are evicted on the way out)."""
        expiry = self._expiry.get(label)
        if expiry is None:
            return False
        if now >= expiry:
            del self._expiry[label]
            return False
        return True

    def forget(self, label: str) -> None:
        self._expiry.pop(label, None)

    def clear(self) -> None:
        self._expiry.clear()

    def __len__(self) -> int:
        return len(self._expiry)
