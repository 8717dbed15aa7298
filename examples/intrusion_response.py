#!/usr/bin/env python
"""Intrusion response: tracking objects talking to each other over MTP.

Two context types cooperate, discovering each other entirely at run time:

* ``intruder`` — attached to anything moving through the field; when its
  position is confirmed, it asks the directory service "where are all the
  gates?" (§5.3) and *invokes a method on each* over MTP (§5.4 remote
  method invocation): "intruder at (x, y), close up".
* ``gate`` — a stationary asset (its activation condition is a beacon
  sensor on the gate motes).  Its port-invoked method runs on the gate's
  group leader and records the warning.

This is the paper's object-to-object communication path end to end:
directory lookup on first contact, geographic routing, last-known-leader
tables, port dispatch on the destination leader — with zero label
plumbing in the application.

Run:
    python examples/intrusion_response.py
"""

from repro import (AggregateVarSpec, ContextTypeDef, EnviroTrackApp,
                   LineTrajectory, MethodDef, PortInvocation, StaticPoint,
                   Target, TimerInvocation, TrackingObjectDef)

WARN_PORT = 4


def make_intruder_context():
    def warn_gates(ctx):
        location = ctx.read("position_avg")
        if not location.valid:
            return

        def found_gates(entries, _at=location.value):
            for entry in entries:
                ctx.invoke(entry.label, WARN_PORT,
                           {"x": _at[0], "y": _at[1]})
            if entries:
                ctx.log("warned_gates", count=len(entries), at=_at)

        ctx.lookup("gate", found_gates)

    return ContextTypeDef(
        name="intruder",
        activation="intruder_seen",
        aggregates=[AggregateVarSpec("position_avg", "avg", "position",
                                     confidence=2, freshness=1.0)],
        objects=[TrackingObjectDef("warner", [
            MethodDef("warn", TimerInvocation(4.0), warn_gates)])],
        directory_update_period=5.0)


def make_gate_context(warnings):
    def on_warning(ctx, args, src_label, src_port):
        warnings.append((ctx.now, ctx.label, src_label,
                         (args.get("x"), args.get("y"))))
        ctx.log("gate_warned", intruder=src_label)

    return ContextTypeDef(
        name="gate",
        activation="gate_beacon",
        aggregates=[AggregateVarSpec("gate_pos", "avg", "position",
                                     confidence=1, freshness=5.0)],
        objects=[TrackingObjectDef("controller", [
            MethodDef("on_warning", PortInvocation(WARN_PORT),
                      on_warning)])],
        directory_update_period=5.0)


def main() -> None:
    app = EnviroTrackApp(seed=5, base_loss_rate=0.03)
    app.field.deploy_grid(12, 8)

    # The gate: a stationary beacon near the east edge.
    app.field.add_target(Target(
        "gate-1", "gate", StaticPoint((10.0, 4.0)),
        signature_radius=1.2))
    # The intruder: crossing the field toward the gate.
    app.field.add_target(Target(
        "walker", "intruder", LineTrajectory((0.0, 3.5), speed=0.12),
        signature_radius=1.0))
    app.field.install_detection_sensors("intruder_seen",
                                        kinds=["intruder"])
    app.field.install_detection_sensors("gate_beacon", kinds=["gate"])

    warnings = []
    app.add_context_type(make_intruder_context())
    app.add_context_type(make_gate_context(warnings))
    app.run(until=100.0)

    print(f"gate received {len(warnings)} intruder warnings:")
    for t, gate_label, intruder_label, (x, y) in warnings[:10]:
        print(f"  t={t:5.1f}s  {intruder_label} reported at "
              f"({x:5.2f}, {y:5.2f})")
    if warnings:
        mtp_delivered = sum(agent.mtp.delivered
                            for agent in app.agents.values())
        mtp_forwarded = sum(1 for _ in app.sim.trace_records("mtp.forward"))
        print(f"\nMTP stats: {mtp_delivered} delivered, "
              f"{mtp_forwarded} forwarded along past-leader chains")


if __name__ == "__main__":
    main()
