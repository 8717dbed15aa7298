"""Parallel multi-seed sweep driver.

Every figure/table/chaos experiment is a sweep of independent simulation
runs, each fully determined by a frozen, picklable task description (a
:class:`~repro.experiments.scenarios.TankScenario`, a speed-search cell,
a chaos cell).  This module fans those runs out over a ``multiprocessing``
worker pool — one worker per task, ordered result merge — so wall-clock
time divides by the core count while results stay **byte-identical** to a
serial sweep:

* each run builds its own :class:`~repro.sim.Simulator` seeded from the
  task, so no randomness crosses process boundaries, and the simulator
  numbers the run's frames itself, so a run's trace does not depend on
  which process executed it or what ran before;
* ``pool.map`` preserves task order, so folds over outcomes see the same
  sequence a serial loop would.

Live runs cannot cross a process boundary either, so a sweep honours
``--trace-out`` by rerunning its first task serially through the same
per-run function, given the path: the rerun's trace is byte-identical to
the one the sweep's worker produced.

Workers return :class:`ScenarioOutcome` — a reduced, picklable summary of
a run (a live ``TankRunResult`` holds the whole app object graph and
cannot cross a process boundary).  The outcome includes the run's
:func:`~repro.sim.trace_digest`, which the determinism suite uses to
assert serial == parallel == repeated execution.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from ..metrics import CommunicationMetrics
from ..sim import derive_seed, trace_digest
from .scenarios import TankRunResult, TankScenario, run_tank_scenario

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ScenarioOutcome:
    """Everything the sweep analyses need from one tank-scenario run,
    reduced to plain picklable data plus a whole-trace digest."""

    scenario: TankScenario
    successful_handovers: int
    failed_handovers: int
    labels_created: int
    effective_labels: int
    coherent: bool
    coverage: float
    communication: CommunicationMetrics
    trace_digest: str


def reduce_run(run: TankRunResult) -> ScenarioOutcome:
    """Collapse a live run result into its picklable outcome."""
    return ScenarioOutcome(
        scenario=run.scenario,
        successful_handovers=run.handovers.successful_handovers,
        failed_handovers=run.handovers.failed_handovers,
        labels_created=run.handovers.labels_created,
        effective_labels=len(run.handovers.effective_labels()),
        coherent=run.coherent,
        coverage=run.coverage,
        communication=run.communication,
        trace_digest=trace_digest(run.app.sim),
    )


def run_scenario_outcome(scenario: TankScenario) -> ScenarioOutcome:
    """Worker entry point: run one scenario, return its outcome."""
    return reduce_run(run_tank_scenario(scenario))


def check_repetitions(repetitions: int) -> None:
    """Reject a sweep of fewer than one run per parameter point."""
    if not repetitions >= 1:
        raise ValueError(f"repetitions must be >= 1: {repetitions}")


def derive_run_seed(base: int, *parts: object) -> int:
    """Deterministic per-run seed from a sweep base and task coordinates.

    Stable across interpreter runs and PYTHONHASHSEED settings (SHA-256
    underneath), and independent of sweep enumeration order — the same
    (base, coordinates) always names the same universe.
    """
    return derive_seed(base, ":".join(str(part) for part in parts)) \
        % (2 ** 63)


def default_jobs() -> int:
    """Worker count for ``--jobs 0``: every available core."""
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], tasks: Iterable[T],
                 jobs: Optional[int] = 1) -> List[R]:
    """Ordered map over picklable tasks.

    ``jobs <= 1`` (or a single task) runs inline in this process — the
    serial reference path.  Otherwise a worker pool of ``min(jobs,
    len(tasks))`` processes maps with chunksize 1 (worker-per-task) and
    the results come back in task order.  ``jobs=None``/``0`` means one
    worker per core.
    """
    task_list = list(tasks)
    if not jobs:
        jobs = default_jobs()
    if jobs <= 1 or len(task_list) <= 1:
        return [fn(task) for task in task_list]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    with context.Pool(processes=min(jobs, len(task_list))) as pool:
        return pool.map(fn, task_list, chunksize=1)


def run_scenarios(scenarios: Sequence[TankScenario],
                  jobs: Optional[int] = 1) -> List[ScenarioOutcome]:
    """Run a batch of scenarios (worker-per-seed), outcomes in order."""
    return parallel_map(run_scenario_outcome, scenarios, jobs=jobs)
