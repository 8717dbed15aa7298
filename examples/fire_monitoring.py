#!/usr/bin/env python
"""Fire monitoring: condition-invoked objects, growing phenomena, and the
directory service.

The paper's motivating second context type (Figure 1's `FIRE`): sensors
whose temperature exceeds a threshold form a group per fire; the attached
object raises an alarm once the *confirmed* average temperature (critical
mass of 3 fresh readings) crosses 300 degrees, and reports fire status
periodically.  A separate observer node asks the directory object "where
are all the fires?" — the §5.3 query.

Run:
    python examples/fire_monitoring.py
"""

from repro import (AggregateVarSpec, ContextTypeDef, EnviroTrackApp,
                   MethodDef, TimerInvocation, TrackingObjectDef,
                   WhenInvocation, fire_target)


def make_fire_context() -> ContextTypeDef:
    def hot(mote) -> bool:
        return mote.read_sensor("temperature") > 180.0

    def alarm(ctx) -> None:
        temp = ctx.read("avg_temp")
        ctx.log("alarm", temperature=temp.value,
                confirmed_by=temp.contributors)
        ctx.my_send({"alarm": True, "avg_temp": temp.value})

    def status(ctx) -> None:
        temp = ctx.read("avg_temp")
        extent = ctx.read("extent")
        if temp.valid:
            ctx.my_send({"avg_temp": temp.value,
                         "extent": extent.value if extent.valid else None})

    return ContextTypeDef(
        name="fire",
        activation=hot,
        aggregates=[
            AggregateVarSpec("avg_temp", "avg", "temperature",
                             confidence=3, freshness=2.0),
            AggregateVarSpec("extent", "centroid", "position",
                             confidence=3, freshness=2.0),
        ],
        objects=[TrackingObjectDef("fire_object", [
            MethodDef("alarm",
                      WhenInvocation(lambda ctx: ctx.value("avg_temp", 0.0)
                                     > 300.0, poll_period=1.0),
                      alarm),
            MethodDef("status", TimerInvocation(5.0), status),
        ])])


def main() -> None:
    app = EnviroTrackApp(seed=3, base_loss_rate=0.05)
    app.field.deploy_grid(12, 12)

    # Two fires igniting at different times; the first one grows.
    app.field.add_target(fire_target("fire-east", (9.0, 3.0), radius=1.2,
                                     temperature=400.0, ignition_time=5.0,
                                     growth_rate=0.01))
    app.field.add_target(fire_target("fire-west", (2.0, 8.0), radius=1.0,
                                     temperature=350.0,
                                     ignition_time=20.0))
    app.field.install_ambient_sensors("temperature", "temperature",
                                      ambient=25.0, noise_std=2.0)

    app.add_context_type(make_fire_context())
    base = app.place_base_station((-1.0, -1.0))
    app.run(until=60.0)

    print(f"base station received {len(base.reports)} fire reports")
    for label in base.labels_seen():
        alarms = [r for r in base.reports_for(label)
                  if r.values.get("alarm")]
        print(f"  {label}: {len(base.reports_for(label))} reports, "
              f"{len(alarms)} alarms")

    # Directory query from an arbitrary mote: "where are all the fires?"
    observer = app.agents[0].directory
    answers = []
    observer.lookup("fire", answers.extend)
    app.sim.run(until=app.sim.now + 5.0)
    print("\ndirectory answer to 'where are all the fires?':")
    for entry in answers:
        print(f"  {entry.label} near ({entry.location[0]:.1f}, "
              f"{entry.location[1]:.1f}), leader node {entry.leader}")


if __name__ == "__main__":
    main()
