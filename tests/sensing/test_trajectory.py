"""Unit tests for target trajectories."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sensing import (LineTrajectory, RandomWalkTrajectory, StaticPoint,
                           Target, WaypointTrajectory)


class TestStaticPoint:
    def test_never_moves(self):
        trajectory = StaticPoint((3.0, 4.0))
        assert trajectory.position(0.0) == (3.0, 4.0)
        assert trajectory.position(1e6) == (3.0, 4.0)
        assert trajectory.speed_at(5.0) == pytest.approx(0.0)


class TestLine:
    def test_constant_velocity_along_x(self):
        trajectory = LineTrajectory((0.0, 0.5), speed=0.1)
        assert trajectory.position(0.0) == pytest.approx((0.0, 0.5))
        assert trajectory.position(10.0) == pytest.approx((1.0, 0.5))

    def test_heading(self):
        trajectory = LineTrajectory((0.0, 0.0), speed=1.0,
                                    heading=math.pi / 2)
        x, y = trajectory.position(2.0)
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(2.0)

    def test_speed_at_matches_configured_speed(self):
        trajectory = LineTrajectory((0.0, 0.0), speed=2.5)
        assert trajectory.speed_at(3.0) == pytest.approx(2.5, rel=1e-3)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            LineTrajectory((0.0, 0.0), speed=-1.0)


class TestWaypoints:
    def test_piecewise_linear_interpolation(self):
        trajectory = WaypointTrajectory([(0, 0), (10, 0), (10, 5)],
                                        speed=1.0)
        assert trajectory.position(5.0) == pytest.approx((5.0, 0.0))
        assert trajectory.position(10.0) == pytest.approx((10.0, 0.0))
        assert trajectory.position(12.5) == pytest.approx((10.0, 2.5))

    def test_stops_at_final_waypoint(self):
        trajectory = WaypointTrajectory([(0, 0), (4, 0)], speed=2.0)
        assert trajectory.total_time == pytest.approx(2.0)
        assert trajectory.position(100.0) == pytest.approx((4.0, 0.0))

    def test_before_start_clamps(self):
        trajectory = WaypointTrajectory([(1, 1), (2, 2)], speed=1.0)
        assert trajectory.position(-5.0) == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            WaypointTrajectory([], speed=1.0)
        with pytest.raises(ValueError):
            WaypointTrajectory([(0, 0)], speed=0.0)


class TestRandomWalk:
    def test_deterministic_per_seed(self):
        a = RandomWalkTrajectory((5, 5), 1.0, (0, 0, 10, 10), seed=3)
        b = RandomWalkTrajectory((5, 5), 1.0, (0, 0, 10, 10), seed=3)
        assert a.position(17.3) == b.position(17.3)

    def test_stays_in_bounds(self):
        trajectory = RandomWalkTrajectory((5, 5), 1.0, (0, 0, 10, 10),
                                          seed=9, steps=64)
        for t in range(0, 200, 7):
            x, y = trajectory.position(float(t))
            assert 0 <= x <= 10
            assert 0 <= y <= 10

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            RandomWalkTrajectory((0, 0), 1.0, (5, 5, 5, 5))


coords = st.floats(min_value=-20.0, max_value=20.0)
speeds = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=3.0))
headings = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]),
    st.floats(min_value=-2 * math.pi, max_value=2 * math.pi))


@st.composite
def sure_cases(draw):
    """A line (possibly standing) or static target with an active window,
    and a point inside, on or just off its signature radius at some
    time; a heading of +-90 degrees from the path makes it a tangent."""
    start = (draw(coords), draw(coords))
    heading = draw(headings)
    trajectory = draw(st.one_of(
        st.builds(LineTrajectory, st.just(start), speeds, st.just(heading)),
        st.just(StaticPoint(start))))
    radius = draw(st.floats(min_value=0.1, max_value=3.0))
    active_from = draw(st.one_of(st.just(0.0),
                                 st.floats(min_value=-5.0, max_value=40.0)))
    active_until = draw(st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=40.0).map(
            lambda span: active_from + span)))
    target = Target("t", "vehicle", trajectory, signature_radius=radius,
                    active_from=active_from, active_until=active_until)
    t0 = draw(st.floats(min_value=-5.0, max_value=60.0))
    angle = draw(st.one_of(
        st.sampled_from([heading + math.pi / 2, heading - math.pi / 2,
                         heading, heading + math.pi]),
        st.floats(min_value=-math.pi, max_value=math.pi)))
    reach = radius * draw(st.one_of(
        st.just(1.0), st.floats(min_value=0.0, max_value=1.01)))
    x, y = target.position(t0)
    return target, (x + reach * math.cos(angle), y + reach * math.sin(angle))


@given(case=sure_cases(), fractions=st.lists(
    st.floats(min_value=0.0, max_value=1.0), max_size=5))
def test_sure_window_holds_only_detectable_times(case, fractions):
    """``Target.sure_detection_window`` may be narrower than the truth,
    never wider: the target is detectable at its edges, one float step
    inside them and anywhere between, and the window lies inside
    ``detection_window``."""
    target, point = case
    lo, hi = target.sure_detection_window(point)
    if lo > hi:
        return
    outer_lo, outer_hi = target.detection_window(point)
    assert outer_lo <= lo and hi <= outer_hi
    edges = [edge for edge in (lo, hi) if math.isfinite(edge)]
    times = edges + [math.nextafter(lo, math.inf),
                     math.nextafter(hi, -math.inf)]
    first = lo if math.isfinite(lo) else min(edges + [0.0]) - 100.0
    last = hi if math.isfinite(hi) else max(edges + [0.0]) + 100.0
    times += [first + f * (last - first) for f in fractions]
    for t in times:
        if lo <= t <= hi:
            assert target.detectable_from(point, t), (t, lo, hi)
