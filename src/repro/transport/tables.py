"""Bounded LRU tables for transport state.

§5.4: "Leadership information is retained for as long as possible, given
limited table sizes.  Replacement is done on a least-recently-used basis."
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

#: Labels a last-known-leader table holds before the least recently
#: used one is evicted.
LEADER_TABLE_CAPACITY = 16

#: Seconds an "unknown label" verdict is cached before the directory is
#: asked again.
NEGATIVE_TTL = 5.0

#: Labels a negative cache holds before the oldest stored one is evicted.
NEGATIVE_CAPACITY = 32


@dataclass
class LeaderPointer:
    """Last-known leader of a context label."""

    leader: int
    updated: float


class LastKnownLeaderTable:
    """LRU map of at most :data:`LEADER_TABLE_CAPACITY` entries: context
    label → last-known leader.

    Both reads and writes refresh recency, so labels in active conversations
    stay resident while idle ones age out.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, LeaderPointer]" = OrderedDict()

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
        while len(self._entries) > LEADER_TABLE_CAPACITY:
            self._entries.popitem(last=False)

    def get(self, label: str) -> Optional[LeaderPointer]:
        entry = self._entries.get(label)
        if entry is not None:
            self._entries.move_to_end(label)
        return entry

    def forget(self, label: str) -> None:
        self._entries.pop(label, None)

    def clear(self) -> None:
        """Drop every pointer (a reboot wipes transport RAM)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, label: str) -> bool:
        return label in self._entries


class NegativeCache:
    """Bounded TTL memory of labels the directory recently did not know:
    at most :data:`NEGATIVE_CAPACITY` labels, each for
    :data:`NEGATIVE_TTL` seconds.

    A lookup that comes back without the requested label parks the label
    here; until the entry expires, repeated sends to it fail locally
    instead of storming the directory point with queries that will fail
    again (§5.3's directory object is a small neighborhood of nodes — a
    hot unknown label would otherwise monopolize it).
    """

    def __init__(self) -> None:
        self._expiry: "OrderedDict[str, float]" = OrderedDict()

    def store(self, label: str, now: float) -> None:
        """Remember ``label`` as unknown until ``now + NEGATIVE_TTL``."""
        self._expiry[label] = now + NEGATIVE_TTL
        self._expiry.move_to_end(label)
        while len(self._expiry) > NEGATIVE_CAPACITY:
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
