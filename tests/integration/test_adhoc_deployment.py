"""Ad hoc (random) deployments: the paper's actual deployment story.

"We consider ad hoc sensor networks, where a large number of miniature
sensor nodes are dropped randomly over an area for monitoring purposes."
The grid testbed was a lab convenience; the middleware must track over a
random scattering too.
"""

import pytest

from repro.aggregation import AggregateVarSpec
from repro.core import (ContextTypeDef, EnviroTrackApp, MethodDef,
                        TimerInvocation, TrackingObjectDef)
from repro.sensing import LineTrajectory, Target


def build_random_app(seed=51, count=90):
    app = EnviroTrackApp(seed=seed, base_loss_rate=0.05,
                         communication_radius=6.0, enable_transport=False)
    # Density ~1.5 motes per unit square keeps the sensing disk populated
    # everywhere with high probability.
    app.field.deploy_random(count, (0.0, 0.0, 12.0, 5.0))
    app.field.add_target(Target(
        "intruder", "vehicle", LineTrajectory((0.0, 2.5), 0.1),
        signature_radius=1.2))
    app.field.install_detection_sensors("seen", kinds=["vehicle"])

    def report(ctx):
        location = ctx.read("location")
        if location.valid:
            ctx.my_send({"location": location.value})

    app.add_context_type(ContextTypeDef(
        name="tracker", activation="seen",
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=2, freshness=1.0)],
        objects=[TrackingObjectDef("r", [
            MethodDef("report", TimerInvocation(4.0), report)])]))
    base = app.place_base_station((-1.0, -2.0))
    return app, base


def test_tracking_over_random_scattering():
    app, base = build_random_app()
    app.run(until=120.0)
    assert base.reports, "no reports from the ad hoc deployment"
    labels = base.labels_seen()
    # Random density can cause a brief duplicate; the dominant label must
    # carry the bulk of the track.
    dominant = max(labels, key=lambda l: len(base.track(l)))
    track = base.track(dominant)
    assert len(track) >= 8
    xs = [pos[0] for _, pos in track]
    assert xs[-1] - xs[0] > 6.0
    for t, (x, y) in track:
        assert abs(y - 2.5) < 1.5
        assert abs(x - 0.1 * t) < 1.5


def test_pursuer_velocity_estimate():
    app, base = build_random_app(seed=52)
    app.run(until=120.0)
    dominant = max(base.labels_seen(),
                   key=lambda label: len(base.track(label)))
    velocity = base.estimate_velocity(dominant, window=8)
    assert velocity is not None
    vx, vy = velocity
    # True velocity is (0.1, 0.0) grid/s.
    assert vx == pytest.approx(0.1, abs=0.05)
    assert vy == pytest.approx(0.0, abs=0.05)


def test_velocity_estimate_needs_two_fixes():
    app, base = build_random_app(seed=53)
    assert base.estimate_velocity("never-seen") is None
