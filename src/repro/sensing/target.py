"""Tracked entities in the physical environment.

A :class:`Target` is what EnviroTrack attaches a context label to: a
vehicle, a fire, an intruder.  Targets have a *sensory signature* — the
radius within which sensors detect them — plus free-form attributes used by
specific sensor models (ferrous mass for magnetometers, temperature for
fire sensing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .trajectory import StaticPoint, Trajectory

Position = Tuple[float, float]


@dataclass
class Target:
    """One physical entity moving (or sitting) in the field.

    Parameters
    ----------
    name:
        Unique identifier for analysis (never visible to the protocol —
        EnviroTrack must *discover* targets through sensing).
    kind:
        Entity type, matched against sense functions (``"vehicle"``,
        ``"fire"``, …).
    trajectory:
        Position as a function of time.
    signature_radius:
        Detection radius in grid units (the paper's tank: 100 m detection
        on a 140 m grid ⇒ ≈0.7 grid; stress tests use 1–2 grids).
    attributes:
        Sensor-model inputs, e.g. ``{"ferrous_mass": 44000.0}``.
    active_from / active_until:
        Lifetime window; outside it the target is not sensible at all.
    """

    name: str
    kind: str
    trajectory: Trajectory
    signature_radius: float = 1.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    active_from: float = 0.0
    active_until: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.signature_radius > 0:
            raise ValueError(
                f"signature radius must be positive: {self.signature_radius}")

    def active_at(self, t: float) -> bool:
        if t < self.active_from:
            return False
        if self.active_until is not None and t > self.active_until:
            return False
        return True

    def position(self, t: float) -> Position:
        return self.trajectory.position(t)

    def distance_to(self, point: Position, t: float) -> float:
        x, y = self.position(t)
        return math.hypot(x - point[0], y - point[1])

    def detectable_from(self, point: Position, t: float) -> bool:
        """Is this target within its signature radius of ``point``?"""
        return (self.active_at(t)
                and self.distance_to(point, t) <= self.signature_radius)

    def detection_window(self, point: Position) -> Tuple[float, float]:
        """A closed interval ``(lo, hi)`` outside which
        :meth:`detectable_from` is False for ``point``.

        Exactness contract: a filter, not an approximation.  The interval
        is the trajectory's :meth:`~Trajectory.times_within` window for
        the signature radius, cut to the active window; it may be wider
        than the true detection window but never narrower.  ``lo > hi``
        means the target is never detectable from ``point``.
        """
        lo, hi = self.trajectory.times_within(point, self.signature_radius)
        until = math.inf if self.active_until is None else self.active_until
        return (max(lo, self.active_from), min(hi, until))

    def sure_detection_window(self, point: Position) -> Tuple[float, float]:
        """A closed interval ``(lo, hi)`` inside which
        :meth:`detectable_from` is True for ``point``.

        The mirror of :meth:`detection_window`: the trajectory's
        :meth:`~Trajectory.times_surely_within` window for the signature
        radius, cut to the active window; it may be narrower than the
        true detection window but never wider.  ``lo > hi`` means no
        time is sure.
        """
        lo, hi = self.trajectory.times_surely_within(point,
                                                     self.signature_radius)
        until = math.inf if self.active_until is None else self.active_until
        return (max(lo, self.active_from), min(hi, until))


def fire_target(name: str, point: Position, radius: float = 1.0,
                temperature: float = 400.0,
                ignition_time: float = 0.0,
                growth_rate: float = 0.0) -> "GrowingTarget":
    """Convenience constructor for a stationary (optionally growing) fire."""
    return GrowingTarget(
        name=name, kind="fire", trajectory=StaticPoint(point),
        signature_radius=radius,
        attributes={"temperature": temperature, "light": True},
        active_from=ignition_time, growth_rate=growth_rate)


@dataclass
class GrowingTarget(Target):
    """A target whose sensory signature grows over time (fire spread)."""

    growth_rate: float = 0.0
    max_radius: Optional[float] = None

    def radius_at(self, t: float) -> float:
        if not self.active_at(t):
            return 0.0
        grown = self.signature_radius + self.growth_rate * (
            t - self.active_from)
        if self.max_radius is not None:
            grown = min(grown, self.max_radius)
        return grown

    def detectable_from(self, point: Position, t: float) -> bool:
        return (self.active_at(t)
                and self.distance_to(point, t) <= self.radius_at(t))

    def detection_window(self, point: Position) -> Tuple[float, float]:
        """The active window: the radius grows, so the trajectory's
        fixed-radius window would be too narrow."""
        until = math.inf if self.active_until is None else self.active_until
        return (self.active_from, until)

    def sure_detection_window(self, point: Position) -> Tuple[float, float]:
        """Never sure: the radius changes with time, which only the
        exact test follows."""
        return (math.inf, -math.inf)
