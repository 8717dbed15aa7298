"""The crash promises, checked over the runs that crash motes.

A crashed mote stays off the air until it reboots: no frame of its own
goes out between its ``node.fail`` and its next ``node.reboot`` record,
whatever it had scheduled before the crash (MAC backoff, a paced MTP
burst, a CPU task in service).  The sweep covers ``repro chaos --quick``,
a busy-channel chaos configuration whose 50 ms heartbeats keep crashes
landing mid-backoff, transport-chaos raw and reliable at seed 5, and
``perfbench`` ``transport-storm --size small`` at seeds 1-20.

Reliable MTP also promises to run each handler at most once; one seed
of ``transport-storm`` still breaks that and is pinned below.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

from repro.experiments import TransportChaosSpec
from repro.sim import Simulator, load_trace

chaos = importlib.import_module("repro.experiments.chaos")
transport_chaos = importlib.import_module("repro.experiments.transport_chaos")

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "perfbench")


def transmissions_while_dead(records):
    """Every ``radio.tx`` record of a node between its ``node.fail`` and
    its next ``node.reboot``."""
    dead_since = {}
    violations = []
    for record in records:
        if record.category == "node.fail":
            dead_since[record.node] = record.time
        elif record.category == "node.reboot":
            dead_since.pop(record.node, None)
        elif record.category == "radio.tx" and record.node in dead_since:
            violations.append(record)
    return violations


def chaos_quick_tasks():
    """The runs of ``repro chaos --quick``: one per sweep cell."""
    return [(70 + 1000 * cell, heartbeat_period, 4.0, 3, 0.1, 10, 4)
            for cell, heartbeat_period in enumerate((0.25, 0.5))]


def chaos_records(tmp_path, task):
    path = tmp_path / "chaos.jsonl"
    chaos._chaos_run(*task, trace_out=str(path))
    return load_trace(str(path))


def transport_records(tmp_path, mode):
    path = tmp_path / "transport.jsonl"
    transport_chaos._transport_run(
        TransportChaosSpec(mode=mode, seed=5, crashes=1),
        trace_out=str(path))
    return load_trace(str(path))


def storm_unit(monkeypatch, seed):
    """Run one small ``transport-storm`` unit; return it and its
    simulator."""
    made = {}
    init = Simulator.__init__

    def recording_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        made["sim"] = sim

    monkeypatch.setattr(Simulator, "__init__", recording_init)
    monkeypatch.syspath_prepend(PERFBENCH)
    from etbench import harness
    unit = harness.make_workload("transport-storm", seed,
                                 size="small").unit()
    return unit, made["sim"]


RUNS = {}
for _task in chaos_quick_tasks():
    RUNS[f"chaos-quick-{_task[0]}"] = \
        lambda tmp_path, mp, task=_task: chaos_records(tmp_path, task)
for _seed in (3, 29):
    RUNS[f"chaos-busy-{_seed}"] = \
        lambda tmp_path, mp, seed=_seed: chaos_records(
            tmp_path, (seed, 0.05, 1.5, 6, 0.3, 16, 8))
for _mode in ("raw", "reliable"):
    RUNS[f"transport-chaos-{_mode}-5"] = \
        lambda tmp_path, mp, mode=_mode: transport_records(tmp_path, mode)
for _seed in range(1, 21):
    RUNS[f"transport-storm-small-{_seed}"] = \
        lambda tmp_path, mp, seed=_seed: storm_unit(mp, seed)[1].trace


@pytest.mark.parametrize("run", sorted(RUNS))
def test_dead_motes_stay_off_the_air(run, tmp_path, monkeypatch):
    records = list(RUNS[run](tmp_path, monkeypatch))
    assert any(record.category == "node.fail" for record in records)
    assert transmissions_while_dead(records) == []


@pytest.mark.xfail(strict=True, reason=(
    "a leader crash between a delivery and its ack hands the "
    "retransmission to a successor whose dedup memory never saw it "
    "(ROADMAP item 5)"))
def test_reliable_mtp_runs_each_handler_at_most_once(monkeypatch):
    # Seed 8 is the smallest small transport-storm seed that runs a
    # handler twice.
    unit, _ = storm_unit(monkeypatch, 8)
    assert unit.sim["duplicates"] == 0
