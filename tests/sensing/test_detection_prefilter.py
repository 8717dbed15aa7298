"""The binary sensor's time-window prefilter is exact.

``binary_detection_sensor`` skips a target outside its cached
``detection_window``.  The property below compares every prefiltered read
with :func:`full_scan_read`, a reference kept here that tests every
target, over straight-line tanks (standing, axis-aligned and randomly
headed), motes placed exactly at the signature radius, read times at and
just beyond the computed window edges, open and closed active windows,
targets added and removed between reads, and a growing fire.  It also
checks the sensor's ``quiet_until(t, reading)``: from ``t`` up to
(excluding) the time it returns, every tested read returns ``reading``.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.sensing import GrowingTarget, LineTrajectory, StaticPoint, Target
from repro.sensing.sensors import binary_detection_sensor


def full_scan_read(point, targets, t):
    """Reference: the read without a prefilter."""
    return any(target.detectable_from(point, t) for target in targets)


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


coords = st.floats(min_value=-20.0, max_value=20.0)
headings = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2,
                     3 * math.pi / 2]),
    st.floats(min_value=-2 * math.pi, max_value=2 * math.pi))
speeds = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=3.0))


@st.composite
def tanks(draw, name):
    trajectory = LineTrajectory((draw(coords), draw(coords)), draw(speeds),
                                heading=draw(headings))
    active_from = draw(st.one_of(st.just(0.0),
                                 st.floats(min_value=-5.0, max_value=40.0)))
    active_until = draw(st.one_of(
        st.none(),
        st.floats(min_value=0.0, max_value=40.0).map(
            lambda span: active_from + span)))
    return Target(name, "vehicle", trajectory,
                  signature_radius=draw(st.floats(min_value=0.1,
                                                  max_value=3.0)),
                  active_from=active_from, active_until=active_until)


@st.composite
def fires(draw, name):
    return GrowingTarget(name, "vehicle", StaticPoint((draw(coords),
                                                       draw(coords))),
                         signature_radius=draw(st.floats(min_value=0.1,
                                                         max_value=2.0)),
                         active_from=draw(st.floats(min_value=0.0,
                                                    max_value=30.0)),
                         growth_rate=draw(st.floats(min_value=0.0,
                                                    max_value=0.5)))


@st.composite
def rim_point(draw, target):
    """A point exactly at the signature radius of ``target``'s position at
    some time; a heading of +-90 degrees makes the path a tangent."""
    t0 = draw(st.floats(min_value=-5.0, max_value=60.0))
    heading = target.trajectory.heading
    angle = draw(st.one_of(
        st.sampled_from([heading + math.pi / 2, heading - math.pi / 2,
                         heading, heading + math.pi]),
        st.floats(min_value=-math.pi, max_value=math.pi)))
    x, y = target.position(t0)
    radius = target.signature_radius
    return (x + radius * math.cos(angle), y + radius * math.sin(angle)), t0


def edge_times(window):
    """Times at and one float step beyond each finite window edge."""
    lo, hi = window
    times = []
    for edge, outward in ((lo, -math.inf), (hi, math.inf)):
        if math.isfinite(edge):
            times += [edge, math.nextafter(edge, outward),
                      math.nextafter(edge, -outward)]
    return times


@given(data=st.data())
def test_prefiltered_read_equals_full_scan(data):
    first = data.draw(tanks("t0"))
    pool = [first] + data.draw(st.lists(
        st.one_of(tanks("t1"), tanks("t2"), fires("f")), max_size=3))
    point, t0 = data.draw(st.one_of(
        rim_point(first),
        st.tuples(st.tuples(coords, coords), st.just(0.0))))

    times = [t0]
    for target in pool:
        times += edge_times(target.detection_window(point))
        times += edge_times(target.sure_detection_window(point))
        lo, hi = target.trajectory.times_within(point,
                                                target.signature_radius)
        times += edge_times((lo, hi))
        times += [target.active_from]
        if target.active_until is not None:
            times.append(target.active_until)
    times += data.draw(st.lists(st.floats(min_value=-10.0, max_value=80.0),
                                max_size=5))
    times.sort()

    live = [first]
    clock = Clock()
    read = binary_detection_sensor(clock, point, lambda: live)
    for t in times:
        # Add or remove targets between reads: the cache is keyed by
        # identity and must follow the list it is handed.
        change = data.draw(st.integers(min_value=0, max_value=3))
        if change == 1 and len(live) < len(pool):
            live = live + [next(x for x in pool
                                if all(x is not y for y in live))]
        elif change == 2 and live:
            live = live[1:]
        clock.t = t
        assert read() == full_scan_read(point, live, t), (t, live)
        wake = read.quiet_until(t, False)
        assert wake >= t
        assert not any(full_scan_read(point, live, s)
                       for s in times if t <= s < wake), (t, wake, live)
        sure = read.quiet_until(t, True)
        assert sure >= t
        assert all(full_scan_read(point, live, s)
                   for s in times if t <= s < sure), (t, sure, live)
