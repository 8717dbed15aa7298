"""Measure one workload and build the benchmark's result.

``measure`` runs untraced units for the time budget and reports the
end-to-end metrics; ``measure_traced`` runs one untraced and one traced
unit on the same inputs and reports the per-layer metrics.  Both return
``(report, result)``: ``report`` is the full human-facing catalogue
(every end-to-end metric with unit, direction, host/sim kind and sample
count, plus identity fields); ``result`` is the one-line JSON object the
benchmark prints last.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from . import calibrate as calibration
from .tracing import derive
from .workloads import SWEEP_JOBS, WORKLOADS, Unit, Workload, \
    latency_summary

#: name → (unit, better, kind).  ``kind`` is "host" for wall-clock or
#: memory figures and "sim" for simulated values, which repeat exactly for
#: a fixed seed.
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "setup_s": ("s", "lower", "host"),
    "run_s": ("s", "lower", "host"),
    "peak_rss_mb": ("MB", "lower", "host"),
    "runs_per_s": ("1/s", "higher", "host"),
    "task_s_p50": ("s", "lower", "host"),
    "task_s_p90": ("s", "lower", "host"),
    "error_rate": ("ratio", "lower", "sim"),
    "report_latency_p50_s": ("s", "lower", "sim"),
    "report_latency_p90_s": ("s", "lower", "sim"),
    "invoke_latency_p50_s": ("s", "lower", "sim"),
    "invoke_latency_p90_s": ("s", "lower", "sim"),
    "label_integrity": ("ratio", "higher", "sim"),
    "track_error": ("grid", "lower", "sim"),
}

#: The end-to-end metrics every workload reports on its last output line
#: (the ones BENCHMARK.json bounds).  The rest appear in the report only:
#: they are workload-specific, and the simulated ones repeat exactly per
#: seed, so they identify behaviour rather than measure speed.
GATED = ("setup_s", "run_s", "peak_rss_mb")

#: Extra untimed set-ups per run, so ``setup_s`` is a median of several.
SETUP_SAMPLES = 5

#: Minimum measured units per run, whatever the time budget.
MIN_UNITS = 2

#: Per-layer metric units (the ones not in seconds or counts).
_LAYER_UNITS = {
    "sim.events_per_s": "1/s", "node.cpu_util_max": "ratio",
    "radio.receptions_per_tx": "count", "radio.drop_frac": "ratio",
    "radio.collision_frac": "ratio", "sensing.hit_frac": "ratio",
    "aggregation.read_valid_frac": "ratio",
    "transport.hops_per_delivery": "count",
    "runner.worker_busy_frac": "ratio", "runner.task_setup_frac": "ratio",
    "trace.overhead": "ratio",
}


def layer_unit(name: str) -> str:
    if name in _LAYER_UNITS:
        return _LAYER_UNITS[name]
    return "s" if name.endswith("_s") or name == "aggregation.s" \
        else "count"


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (``ru_maxrss`` is
    KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(name: str, seed: int, size: str = "full",
                  out_dir: Optional[str] = None) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, size=size, out_dir=out_dir)


def _entry(name: str, value: Any, samples: int) -> Dict[str, Any]:
    unit, better, kind = END_TO_END[name]
    return {"value": value, "unit": unit, "better": better, "kind": kind,
            "samples": samples}


def _samples(sim: Dict[str, Any], name: str) -> int:
    """How many simulated samples a sim metric summarises."""
    if name.endswith(("_p50_s", "_p90_s")):
        return sim[name[:-len("_p50_s")] + "_samples"]
    if name == "error_rate":
        return sim["operations"]
    return sim.get("targets", 1)


def _consistency(units: List[Unit], workload: Workload) -> List[str]:
    """Same seed, same inputs: every unit must simulate identically."""
    failures = [f"unit {i}: {message}" for i, unit in enumerate(units)
                for message in unit.failures]
    if workload.name != "seed-sweep":
        first = units[0]
        for i, unit in enumerate(units[1:], 1):
            if unit.identity != first.identity or unit.sim != first.sim:
                failures.append(f"unit {i} simulated differently from "
                                f"unit 0 with the same seed")
    return failures


def measure(workload: Workload, seconds: float,
            calibrator: calibration.Calibrator
            ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Untraced measurement: units until ``seconds`` have passed.

    ``calibrator`` times the host-speed loop (see :mod:`.calibrate`)
    before the first unit and after every unit; each unit's time is
    scaled by the loop times on either side of it.
    """
    calibrate = calibrator.measure
    deadline = time.perf_counter() + seconds
    setups: List[float] = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        setups.append(workload.setup_only())
    loops = [calibrate()]
    units: List[Unit] = []
    scaled_runs: List[float] = []
    while len(units) < MIN_UNITS or time.perf_counter() < deadline:
        gc.collect()
        unit = workload.unit()
        loops.append(calibrate())
        units.append(unit)
        scaled_runs.append(unit.run_s * calibration.factor(loops[-2:]))
    setups.extend(unit.setup_s for unit in units)
    scale = calibration.factor(loops)
    failures = _consistency(units, workload)
    failures.extend(workload.verify())
    peak = max([peak_rss_mb()] + [unit.peak_rss_mb for unit in units]) \
        - calibrator.pool_mb
    metrics = {
        "setup_s": _entry("setup_s", statistics.median(setups) * scale,
                          len(setups)),
        "run_s": _entry("run_s", statistics.median(scaled_runs),
                        len(units)),
        "peak_rss_mb": _entry("peak_rss_mb", peak, 1),
    }
    first = units[0]
    if workload.name == "seed-sweep":
        tasks = [t for unit in units for t in unit.task_s]
        runs = sum(unit.sim["runs"] for unit in units)
        failed = sum(round(unit.sim["error_rate"] * unit.sim["runs"])
                     for unit in units)
        summary = latency_summary("task_s", tasks)
        metrics.update({
            "runs_per_s": _entry("runs_per_s",
                                 runs / sum(u.run_s for u in units), runs),
            "task_s_p50": _entry("task_s_p50", summary["task_s_p50_s"],
                                 len(tasks)),
            "task_s_p90": _entry("task_s_p90", summary["task_s_p90_s"],
                                 len(tasks)),
            "error_rate": _entry("error_rate", failed / runs, runs),
        })
        attempted = runs
    else:
        for name in END_TO_END:
            if name in first.sim:
                metrics[name] = _entry(name, first.sim[name],
                                       _samples(first.sim, name))
        attempted = len(units)
        failed = sum(1 for unit in units if unit.failures)
    report = {"workload": workload.name, "seed": workload.seed,
              "units": len(units), "metrics": metrics,
              "host": {"scale": scale, "calibration_s": loops,
                       "unit_wall_s": [unit.run_s for unit in units],
                       "setup_wall_s": setups},
              "identity": first.identity,
              "sim": first.sim, "failures": failures}
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name]["value"],
                                 "unit": metrics[name]["unit"]}
                          for name in GATED}}
    return report, result


def measure_traced(workload: Workload,
                   calibrator: calibration.Calibrator,
                   out_dir: Optional[str] = None
                   ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One untraced and one traced unit on the same inputs."""
    calibrate = calibrator.measure
    loops = [calibrate()]
    gc.collect()
    plain = workload.unit()
    loops.append(calibrate())
    gc.collect()
    traced, raw, tracer = workload.traced_unit()
    loops.append(calibrate())
    failures = _consistency([plain, traced], workload)
    if traced.identity != plain.identity:
        failures.append("the traced run's trace_digest differs from the "
                        "untraced run's")
    layers = derive(raw)
    busy = raw.get("runner.busy_s", 0.0)
    wall = raw.get("runner.wall_s", 0.0)
    layers.update({
        "runner.worker_busy_frac": (busy / (SWEEP_JOBS * wall)
                                    if wall else 0.0),
        "runner.pool_overhead_s": (wall - busy / SWEEP_JOBS
                                   if wall else 0.0),
        "runner.task_setup_frac": ((raw.get("core.build_s", 0.0)
                                    + raw.get("core.install_s", 0.0)) / busy
                                   if busy else 0.0),
        "trace.overhead": (traced.run_s * calibration.factor(loops[1:])
                           / (plain.run_s * calibration.factor(loops[:2]))),
    })
    spans_written = None
    if tracer is not None and out_dir is not None:
        spans_written = tracer.write_spans(
            os.path.join(out_dir, f"{workload.name}.spans.jsonl"))
    report = {"workload": workload.name, "seed": workload.seed,
              "identity": plain.identity,
              "traced_identity": traced.identity,
              "untraced_run_s": plain.run_s, "traced_run_s": traced.run_s,
              "calibration_s": loops,
              "spans_written": spans_written, "failures": failures}
    attempted = 2 if workload.name != "seed-sweep" else \
        plain.sim["runs"] + traced.sim["runs"]
    result = {"correct": not failures, "attempted": attempted,
              "failed": sum(1 for unit in (plain, traced) if unit.failures),
              "metrics": {name: {"value": value, "unit": layer_unit(name)}
                          for name, value in sorted(layers.items())}}
    return report, result


__all__ = ["END_TO_END", "GATED", "make_workload", "measure",
           "measure_traced"]
