#!/usr/bin/env python
"""Scale probe: how run time grows with the number of motes.

Builds the geometry of the benchmark's ``border-strip`` workload — a
jittered strip four motes deep, five tanks crossing its short side (two
of them on crossing paths), the Figure 2 tracker with suppression and
join ranges, directory and MTP, a base station off the long edge — and
stretches the strip to ``--motes`` motes.  The tanks stay where they
are, so target activity is fixed and the extra motes mostly watch an
empty border, as the paper's 18,000-mote deployment would.

Prints the simulated events, the events actually dispatched, the heap
entries they were dispatched from, the sense polls charged without
events next to the sense checks that ran for real (and how many of
those a sensing member or leader made), frames sent, the trace digest
and the host run time.  Exits with status 1 when no sense poll ran
implicitly, which means something hid the detection sensor's
``quiet_until`` from the group manager; when sensing members and
leaders still poll for real more than :data:`MAX_SENSING_CHECKS` times,
which means their polls no longer run quietly while the tank is surely
in range (``docs/ENGINE.md`` §7); or when every event had a heap entry
of its own, which means no frame's idle receivers shared one
(``docs/ENGINE.md`` §1).

Run:
    PYTHONPATH=src python examples/scale_probe.py --motes 640 --seconds 20
"""

import argparse
import math
import sys
import time

from repro import (AggregateVarSpec, ContextTypeDef, EnviroTrackApp,
                   GroupConfig, LineTrajectory, MethodDef, Target,
                   TimerInvocation, TrackingObjectDef)
from repro.experiments.scenarios import SPEED_33_KMH, SPEED_50_KMH
from repro.groups import GroupManager, Role
from repro.sim import trace_digest

ROWS = 4
#: Sense checks a sensing member or leader may still run for real (a
#: busy CPU, a role change).  At 640 motes and 20 s they run 11 of them
#: with quiet sensing runs, 1,296 without.
MAX_SENSING_CHECKS = 200
LOW, HIGH = -1.2, ROWS - 1 + 1.2
#: name, start, end, speed, active from (s).
TANKS = (
    ("tank1", (4.0, LOW), (4.0, HIGH), SPEED_50_KMH, 0.0),
    ("tank2", (13.0, HIGH), (13.0, LOW), SPEED_33_KMH, 0.0),
    # The crossing pair: the paths meet mid-strip, 12 s apart.
    ("tank3", (20.0, LOW), (24.0, HIGH), SPEED_50_KMH, 0.0),
    ("tank4", (24.0, LOW), (20.0, HIGH), SPEED_50_KMH, 12.0),
    ("tank5", (33.0, LOW), (33.0, HIGH), SPEED_33_KMH, 2.0),
)


def tank(name, start, end, speed, active_from):
    """A tank standing at ``start`` at ``active_from``, driving to ``end``."""
    heading = math.atan2(end[1] - start[1], end[0] - start[0])
    lead = speed * active_from
    origin = (start[0] - lead * math.cos(heading),
              start[1] - lead * math.sin(heading))
    return Target(name, "vehicle", LineTrajectory(origin, speed, heading),
                  signature_radius=1.0, active_from=active_from,
                  active_until=active_from + math.dist(start, end) / speed)


def build(motes, seed):
    columns = max(40, motes // ROWS)
    app = EnviroTrackApp(seed=seed, communication_radius=6.0,
                         base_loss_rate=0.05)
    app.field.deploy_jittered_grid(columns, ROWS, jitter=0.2)
    for spec in TANKS:
        app.field.add_target(tank(*spec))
    app.field.install_detection_sensors("tank_detect", kinds=["vehicle"])

    def report(ctx):
        result = ctx.read("location")
        if result.valid:
            ctx.my_send({"location": result.value})

    app.add_context_type(ContextTypeDef(
        name="tracker", activation="tank_detect",
        aggregates=[AggregateVarSpec("location", "avg", "position",
                                     confidence=2, freshness=1.0)],
        objects=[TrackingObjectDef("reporter", [
            MethodDef("report_function", TimerInvocation(1.0), report)])],
        group=GroupConfig(heartbeat_period=0.5, suppression_range=2.5,
                          join_range=2.0),
        delay_estimate=0.1))
    app.place_base_station(((columns - 1) / 2.0, -2.0))
    app.install()
    return app


def count_sense_checks():
    """Count the sense checks that run for real from now on: all, and
    those a sensing member or leader runs."""
    counts = {"all": 0, "sensing": 0}
    check = GroupManager._sense_check

    def counted(manager, state):
        counts["all"] += 1
        counts["sensing"] += state.sensing and state.role is not Role.IDLE
        check(manager, state)

    GroupManager._sense_check = counted
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--motes", type=int, default=160)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    checks = count_sense_checks()
    app = build(args.motes, args.seed)
    started = time.perf_counter()
    app.run(until=args.seconds)
    run_s = time.perf_counter() - started
    sim = app.sim
    events = sim.events_fired  # settles every quiet poll run
    implicit = sim.metrics.get("repro_gm_sense_polls_implicit_total")
    polls = 0 if implicit is None else int(implicit.value())
    rows = (("motes", len(app.field.motes)),
            ("simulated_s", args.seconds),
            ("events", events),
            ("events_dispatched", sim.events_dispatched),
            ("entries_dispatched", sim.entries_dispatched),
            ("polls_implicit", polls),
            ("sense_checks", checks["all"]),
            ("sensing_checks", checks["sensing"]),
            ("frames_sent", app.field.medium.stats.frames_sent),
            ("trace_digest", trace_digest(sim)),
            ("run_s", f"{run_s:.3f}"))
    for name, value in rows:
        print(f"{name:>18} {value}")
    status = 0
    if polls == 0:
        print("no sense poll ran implicitly", file=sys.stderr)
        status = 1
    if checks["sensing"] > MAX_SENSING_CHECKS:
        print("sensing members and leaders poll for real",
              file=sys.stderr)
        status = 1
    if sim.entries_dispatched == sim.events_dispatched:
        print("no frame's receivers shared a heap entry", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
