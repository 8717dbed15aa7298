"""Geographic hashing of context type names (§5.3).

"We use a hashing function that hashes a type name to some (x, y)
coordinate in the sensor network field.  The nodes within one hop of that
coordinate are responsible for maintaining references to active objects of
this type."

The hash must be (a) deterministic across nodes with no coordination and
(b) stable across processes, so it is built on SHA-256 of the type name,
mapped into the field bounds every node is configured with at deployment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

Position = Tuple[float, float]


@dataclass(frozen=True)
class FieldBounds:
    """The rectangle all nodes agree the field occupies."""

    x_lo: float
    y_lo: float
    x_hi: float
    y_hi: float

    def __post_init__(self) -> None:
        # ``not lo < hi`` (never ``lo >= hi``) so that NaN is rejected too.
        if not self.x_lo < self.x_hi or not self.y_lo < self.y_hi:
            raise ValueError(f"degenerate field bounds: {self}")

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> float:
        return self.y_hi - self.y_lo

    def contains(self, point: Position) -> bool:
        return (self.x_lo <= point[0] <= self.x_hi
                and self.y_lo <= point[1] <= self.y_hi)

    def shrunk(self, margin: float) -> "FieldBounds":
        """Bounds pulled in by ``margin`` on every side (keeps hashed
        coordinates away from the field edge where node density halves)."""
        if not margin >= 0:
            raise ValueError(f"margin must be >= 0: {margin}")
        if 2 * margin >= min(self.width, self.height):
            return self
        return FieldBounds(self.x_lo + margin, self.y_lo + margin,
                           self.x_hi - margin, self.y_hi - margin)


def hash_to_coordinate(name: str, bounds: FieldBounds) -> Position:
    """Map a type name to a deterministic coordinate inside ``bounds``."""
    digest = hashlib.sha256(f":{name}".encode("utf-8")).digest()
    x_frac = int.from_bytes(digest[0:8], "big") / float(1 << 64)
    y_frac = int.from_bytes(digest[8:16], "big") / float(1 << 64)
    return (bounds.x_lo + x_frac * bounds.width,
            bounds.y_lo + y_frac * bounds.height)
