"""Target trajectories.

All trajectories are pure functions of simulation time, so positions are
reproducible and targets never need their own events: whoever samples a
sensor evaluates the trajectory at the current clock.

Distances are in grid units (1 unit = the paper's 140 m inter-mote hop) and
speeds in grid hops per second — the paper's T-72 case study moves at
0.1 hop/s (10 s/hop ≙ 50 km/hr at the 1000:1 scale).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

Position = Tuple[float, float]

#: Relative and absolute widening of the radius in
#: :meth:`LineTrajectory.times_within`, and of the roots it returns (and
#: the same shrinking in :meth:`LineTrajectory.times_surely_within`).
#: Far above float rounding in positions and distances, far below
#: anything a sensor read could resolve.
WINDOW_RTOL = 1e-9
WINDOW_ATOL = 1e-9

#: Length of one :class:`RandomWalkTrajectory` step (grid units).
WALK_STEP = 2.0


class Trajectory:
    """Base: a position-valued function of time."""

    def position(self, t: float) -> Position:
        raise NotImplementedError

    def times_within(self, point: Position,
                     radius: float) -> Tuple[float, float]:
        """A closed interval ``(lo, hi)`` of times holding every ``t`` at
        which ``position(t)`` may lie within ``radius`` of ``point``.

        Exactness contract: this is a filter, not an approximation.  The
        interval may be wider than the true one but never narrower, so a
        caller may skip any distance test outside it and run the exact
        test inside it.  ``lo > hi`` means "never".  The base class knows
        nothing about the path and returns the whole time line.
        """
        return (-math.inf, math.inf)

    def times_surely_within(self, point: Position,
                            radius: float) -> Tuple[float, float]:
        """A closed interval ``(lo, hi)`` of times at every one of which
        ``position(t)`` lies within ``radius`` of ``point``.

        The mirror of :meth:`times_within`: the interval may be narrower
        than the true one but never wider, so a caller may take the
        distance test as passed anywhere inside it.  ``lo > hi`` means
        "never", which is what the base class returns.
        """
        return (math.inf, -math.inf)

    def speed_at(self, t: float, dt: float = 1e-3) -> float:
        """Numerical instantaneous speed (grid units / second)."""
        x0, y0 = self.position(max(0.0, t - dt))
        x1, y1 = self.position(t + dt)
        span = (t + dt) - max(0.0, t - dt)
        if span <= 0:
            return 0.0
        return math.hypot(x1 - x0, y1 - y0) / span


class StaticPoint(Trajectory):
    """A non-moving target (e.g. a fire's ignition point)."""

    def __init__(self, point: Position) -> None:
        self.point = point

    def position(self, t: float) -> Position:
        return self.point

    def times_surely_within(self, point: Position,
                            radius: float) -> Tuple[float, float]:
        """Always or never: the distance test a target makes, made once
        (:meth:`~repro.sensing.target.Target.distance_to`)."""
        x, y = self.point
        if math.hypot(x - point[0], y - point[1]) <= radius:
            return (-math.inf, math.inf)
        return (math.inf, -math.inf)


class LineTrajectory(Trajectory):
    """Constant-velocity straight line — the Figure 3 tank run.

    Parameters
    ----------
    start:
        Position at ``t = 0``.
    speed:
        Grid hops per second.
    heading:
        Radians; 0 points along +x (the paper's run crosses the grid at
        constant ``y = 0.5``).
    """

    def __init__(self, start: Position, speed: float,
                 heading: float = 0.0) -> None:
        if not speed >= 0:
            raise ValueError(f"speed must be >= 0: {speed}")
        self.start = start
        self.speed = speed
        self.heading = heading

    def position(self, t: float) -> Position:
        return (self.start[0] + self.speed * t * math.cos(self.heading),
                self.start[1] + self.speed * t * math.sin(self.heading))

    def times_within(self, point: Position,
                     radius: float) -> Tuple[float, float]:
        """Solve ``|start - point + v t| = radius`` for ``t``.

        The radius is widened by :data:`WINDOW_RTOL` and
        :data:`WINDOW_ATOL` before solving and the roots are padded by
        the same tolerances, so rounding in :meth:`position` and in the
        caller's distance test can only make the interval too wide (see
        :meth:`Trajectory.times_within` for the contract).
        """
        return self._solve(point, radius, 1.0)

    def times_surely_within(self, point: Position,
                            radius: float) -> Tuple[float, float]:
        """:meth:`times_within` turned inward: the radius is shrunk by
        the same tolerances before solving and the roots are pulled in
        by them, so rounding can only make the interval too narrow (see
        :meth:`Trajectory.times_surely_within` for the contract)."""
        return self._solve(point, radius, -1.0)

    def _solve(self, point: Position, radius: float,
               pad: float) -> Tuple[float, float]:
        """The window for ``radius`` widened (``pad = 1``) or shrunk
        (``pad = -1``) by the tolerances, roots padded the same way."""
        vx = self.speed * math.cos(self.heading)
        vy = self.speed * math.sin(self.heading)
        dx = self.start[0] - point[0]
        dy = self.start[1] - point[1]
        reach = radius * (1.0 + pad * WINDOW_RTOL) + pad * WINDOW_ATOL
        if reach < 0.0:
            return (math.inf, -math.inf)
        v_sq = vx * vx + vy * vy
        if v_sq == 0.0:
            # Standing still: within reach always or never.
            if dx * dx + dy * dy <= reach * reach:
                return (-math.inf, math.inf)
            return (math.inf, -math.inf)
        # Closest approach at t_mid, at distance |cross| / |v|; solving
        # around it avoids the cancellation of the textbook quadratic.
        t_mid = -(dx * vx + dy * vy) / v_sq
        cross = dx * vy - dy * vx
        half_sq = (reach * reach - cross * cross / v_sq) / v_sq
        if half_sq < 0.0:
            return (math.inf, -math.inf)
        half = math.sqrt(half_sq)
        lo, hi = t_mid - half, t_mid + half
        return (lo - pad * WINDOW_ATOL - pad * WINDOW_RTOL * abs(lo),
                hi + pad * WINDOW_ATOL + pad * WINDOW_RTOL * abs(hi))


class WaypointTrajectory(Trajectory):
    """Piecewise-linear motion through waypoints at constant speed.

    The target stops at the final waypoint.
    """

    def __init__(self, waypoints: Sequence[Position], speed: float) -> None:
        if len(waypoints) < 1:
            raise ValueError("need at least one waypoint")
        if not speed > 0:  # also rejects NaN
            raise ValueError(f"speed must be > 0: {speed}")
        self.waypoints: List[Position] = list(waypoints)
        self.speed = speed
        self._arrivals = [0.0]
        for prev, cur in zip(self.waypoints, self.waypoints[1:]):
            leg = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
            self._arrivals.append(self._arrivals[-1] + leg / speed)

    @property
    def total_time(self) -> float:
        """Time at which the final waypoint is reached."""
        return self._arrivals[-1]

    def position(self, t: float) -> Position:
        if t <= 0:
            return self.waypoints[0]
        if t >= self._arrivals[-1]:
            return self.waypoints[-1]
        for i in range(1, len(self._arrivals)):
            if t <= self._arrivals[i]:
                t0, t1 = self._arrivals[i - 1], self._arrivals[i]
                frac = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
                x0, y0 = self.waypoints[i - 1]
                x1, y1 = self.waypoints[i]
                return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))
        return self.waypoints[-1]


class RandomWalkTrajectory(Trajectory):
    """A seeded random walk inside a bounding box.

    Precomputes ``steps`` waypoints, :data:`WALK_STEP` apart before
    clamping to the box, so the trajectory stays a pure function of time.
    """

    def __init__(self, start: Position, speed: float,
                 bounds: Tuple[float, float, float, float],
                 steps: int = 256, seed: int = 0) -> None:
        import random as _random
        rng = _random.Random(seed)
        x_lo, y_lo, x_hi, y_hi = bounds
        if x_lo >= x_hi or y_lo >= y_hi:
            raise ValueError(f"degenerate bounds: {bounds}")
        points: List[Position] = [start]
        x, y = start
        for _ in range(steps):
            angle = rng.uniform(0, 2 * math.pi)
            x = min(max(x + WALK_STEP * math.cos(angle), x_lo), x_hi)
            y = min(max(y + WALK_STEP * math.sin(angle), y_lo), y_hi)
            points.append((x, y))
        self._inner = WaypointTrajectory(points, speed)

    def position(self, t: float) -> Position:
        return self._inner.position(t)

    @property
    def total_time(self) -> float:
        return self._inner.total_time
