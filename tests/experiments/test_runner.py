"""Determinism and parity tests for the parallel sweep runner.

The contract under test: a sweep's results are a pure function of its
scenario descriptions — repeating a run or moving it to a worker process
must never change a single trace record.
"""

import pickle

from repro.experiments import (TankScenario, chaos, derive_run_seed,
                               parallel_map, run_scenario_outcome,
                               run_scenarios, table1)
from repro.experiments.figures import (_SpeedSearchTask,
                                       _speed_search_worker)

#: Small canned scenario: short corridor, fast run, full stack.
CANNED = TankScenario(columns=6, rows=2, seed=123)


def test_outcome_digest_stable_across_repeats():
    # Golden-trace determinism: the same scenario twice in one process
    # yields identical outcomes, down to the whole-trace digest.
    first = run_scenario_outcome(CANNED)
    second = run_scenario_outcome(CANNED)
    assert first.trace_digest == second.trace_digest
    assert first == second


def test_run_scenarios_parallel_equals_serial():
    scenarios = [CANNED.with_seed(seed) for seed in (1, 2, 3, 4)]
    serial = run_scenarios(scenarios, jobs=1)
    parallel = run_scenarios(scenarios, jobs=2)
    assert [outcome.trace_digest for outcome in serial] == \
        [outcome.trace_digest for outcome in parallel]
    assert serial == parallel


def test_parallel_map_inline_and_pooled():
    tasks = [-3, 1, -4, 1, -5]
    assert parallel_map(abs, tasks, jobs=1) == [3, 1, 4, 1, 5]
    assert parallel_map(abs, tasks, jobs=2) == [3, 1, 4, 1, 5]
    assert parallel_map(abs, [], jobs=4) == []


def test_derive_run_seed_properties():
    assert derive_run_seed(7, "a", 1) == derive_run_seed(7, "a", 1)
    assert derive_run_seed(7, "a", 1) != derive_run_seed(7, "a", 2)
    assert derive_run_seed(7, "a") != derive_run_seed(8, "a")
    assert 0 <= derive_run_seed(7, "x", 3.5) < 2 ** 63


def test_speed_search_task_picklable():
    # Figure 5/6 fan their cells out to worker processes; the task and
    # the worker function must survive pickling.
    task = _SpeedSearchTask(mode="takeover", sensing_radius=1.0,
                            speeds=(0.5, 1.0), repetitions=1, seed_base=1)
    assert pickle.loads(pickle.dumps(task)) == task
    pickle.dumps(_speed_search_worker)


def test_chaos_jobs_parity():
    serial = chaos(quick=True, jobs=1)
    parallel = chaos(quick=True, jobs=2)
    assert serial.format_table() == parallel.format_table()


def test_table1_jobs_parity():
    serial = table1(quick=True, jobs=1)
    parallel = table1(quick=True, jobs=2)
    assert serial.format_table() == parallel.format_table()
