"""Tracking objects resolving other labels via ctx.lookup (§5.3 + §5.4)."""

from repro.aggregation import AggregateVarSpec
from repro.core import (ContextTypeDef, EnviroTrackApp, MethodDef,
                        PortInvocation, TimerInvocation, TrackingObjectDef)
from repro.sensing import LineTrajectory, StaticPoint, Target


def test_object_discovers_and_invokes_peer_via_directory():
    """A tracker looks up 'gate' labels through the directory at run time
    and invokes a method on the one it finds — no label plumbing in the
    application at all."""
    received = []

    def on_warning(ctx, args, src_label, src_port):
        received.append((ctx.label, src_label, args))

    gate = ContextTypeDef(
        name="gate", activation="gate_seen",
        aggregates=[AggregateVarSpec("pos", "avg", "position",
                                     confidence=1, freshness=5.0)],
        objects=[TrackingObjectDef("ctrl", [
            MethodDef("on_warning", PortInvocation(2), on_warning)])],
        directory_update_period=5.0)

    def warn(ctx):
        location = ctx.read("location")
        if not location.valid:
            return

        def got_entries(entries, _location=location.value):
            for entry in entries:
                ctx.invoke(entry.label, 2, {"x": _location[0]})

        ctx.lookup("gate", got_entries)

    tracker = ContextTypeDef(
        name="tracker", activation="vehicle_seen",
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=2, freshness=1.0)],
        objects=[TrackingObjectDef("warner", [
            MethodDef("warn", TimerInvocation(4.0), warn)])],
        directory_update_period=5.0)

    app = EnviroTrackApp(seed=81, base_loss_rate=0.02)
    app.field.deploy_grid(10, 5)
    app.field.add_target(Target("gate-1", "gatekind",
                                StaticPoint((8.0, 2.0)),
                                signature_radius=1.2))
    app.field.add_target(Target("car", "vehicle",
                                LineTrajectory((0.0, 2.0), 0.1),
                                signature_radius=1.0))
    app.field.install_detection_sensors("gate_seen", kinds=["gatekind"])
    app.field.install_detection_sensors("vehicle_seen", kinds=["vehicle"])
    app.add_context_type(gate)
    app.add_context_type(tracker)
    app.run(until=60.0)

    assert received, "no warnings delivered"
    gate_labels = {gate_label for gate_label, _, _ in received}
    src_labels = {src for _, src, _ in received}
    assert all(label.startswith("gate#") for label in gate_labels)
    assert all(label.startswith("tracker#") for label in src_labels)
    xs = [args["x"] for _, _, args in received]
    assert xs == sorted(xs)  # warnings track the advancing vehicle


def run_without_transport(probe):
    """Run ``probe`` every 2 s on the leader of a static target's label,
    with no directory and no MTP on any mote."""
    definition = ContextTypeDef(
        name="t", activation="seen",
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=1, freshness=1.0)],
        objects=[TrackingObjectDef("o", [
            MethodDef("probe", TimerInvocation(2.0), probe)])])
    app = EnviroTrackApp(seed=82, enable_transport=False)
    app.field.deploy_grid(4, 2)
    app.field.add_target(Target("thing", "thing", StaticPoint((1.0, 0.5)),
                                signature_radius=1.0))
    app.field.install_detection_sensors("seen", kinds=["thing"])
    app.add_context_type(definition)
    app.run(until=10.0)
    return app


def test_lookup_without_directory_records_drop():
    app = run_without_transport(
        lambda ctx: ctx.lookup("anything", lambda entries: None))
    drops = [r for r in app.sim.trace
             if r.category == "etrack.lookup_dropped"]
    assert drops
    assert all(r.detail["reason"] == "no_directory"
               and r.detail["context_type"] == "anything" for r in drops)


def test_lookup_drop_is_not_application_output():
    # ctx.log writes under app.*; a dropped lookup is the middleware's
    # record, so an object logging the same word stays apart from it.
    def probe(ctx):
        ctx.log("lookup_dropped")
        ctx.lookup("anything", lambda entries: None)

    app = run_without_transport(probe)
    logged = {r.category for r in app.sim.trace
              if r.category.endswith("lookup_dropped")}
    assert logged == {"etrack.app.lookup_dropped", "etrack.lookup_dropped"}


def test_invoke_without_mtp_records_drop():
    app = run_without_transport(
        lambda ctx: ctx.invoke("gate#1.1", 2, {"x": 1.0}))
    drops = [r for r in app.sim.trace
             if r.category == "etrack.invoke_dropped"]
    assert drops
    assert all(r.detail == {"reason": "no_mtp", "dest": "gate#1.1"}
               for r in drops)
    assert not any(r.category.startswith("mtp.") for r in app.sim.trace)
