"""Unit tests for the bounded-rate CPU model."""

import pytest

from repro.node import Cpu
from repro.sim import Simulator


def test_task_runs_after_service_time():
    sim = Simulator()
    cpu = Cpu(sim, 0, task_cost=0.01)
    done = []
    cpu.post(lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.01)]


def test_fifo_order_and_serialized_service():
    sim = Simulator()
    cpu = Cpu(sim, 0, task_cost=0.01)
    done = []
    for i in range(3):
        cpu.post(lambda i=i: done.append((i, sim.now)))
    sim.run()
    assert [i for i, _ in done] == [0, 1, 2]
    assert done[2][1] == pytest.approx(0.03)


def test_backlog_counts_waiting_tasks():
    sim = Simulator()
    cpu = Cpu(sim, 0, task_cost=0.01)
    for _ in range(4):
        cpu.post(lambda: None)
    assert cpu.backlog == 3  # one in service
    assert cpu.busy
    sim.run()
    assert cpu.backlog == 0
    assert not cpu.busy


def test_queue_overflow_drops_new_tasks():
    sim = Simulator()
    cpu = Cpu(sim, 0, task_cost=0.01, queue_limit=2)
    results = [cpu.post(lambda: None) for _ in range(5)]
    assert results == [True, True, True, False, False]
    assert cpu.dropped == 2
    sim.run()
    assert cpu.executed == 3


def test_per_task_cost_override():
    sim = Simulator()
    cpu = Cpu(sim, 0, task_cost=0.01)
    done = []
    cpu.post(lambda: done.append(sim.now), cost=0.5)
    sim.run()
    assert done == [pytest.approx(0.5)]


def test_overload_delays_later_tasks():
    """The Figure 5 mechanism: a flood of cheap tasks delays the one that
    matters (a protocol timer handler) by the whole backlog."""
    sim = Simulator()
    cpu = Cpu(sim, 0, task_cost=0.01)
    for _ in range(50):
        cpu.post(lambda: None)
    done = []
    cpu.post(lambda: done.append(sim.now))
    sim.run()
    assert done[0] == pytest.approx(0.51)


def test_utilization_and_latency_accounting():
    sim = Simulator()
    cpu = Cpu(sim, 0, task_cost=0.1)
    for _ in range(5):
        cpu.post(lambda: None)
    sim.run(until=1.0)
    assert cpu.utilization() == pytest.approx(0.5)
    assert cpu.mean_latency() > 0
    assert cpu.max_backlog == 4


def test_shutdown_stops_execution():
    sim = Simulator()
    cpu = Cpu(sim, 0, task_cost=0.01)
    done = []
    cpu.post(done.append, 1)
    cpu.post(done.append, 2)
    cpu.shutdown()
    sim.run()
    assert done == []
    assert not cpu.post(done.append, 3)


def test_task_exception_does_not_wedge_cpu():
    sim = Simulator()
    cpu = Cpu(sim, 0, task_cost=0.01)
    done = []

    def boom():
        raise RuntimeError("app bug")

    cpu.post(boom)
    cpu.post(lambda: done.append(sim.now))
    with pytest.raises(RuntimeError):
        sim.run()
    sim.run()  # resumable; next task still runs
    assert done


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Cpu(sim, 0, task_cost=-1.0)
    with pytest.raises(ValueError):
        Cpu(sim, 0, queue_limit=0)


def test_profiler_files_service_under_the_task_label():
    sim = Simulator()
    profiler = sim.enable_profiler()
    cpu = Cpu(sim, 0, task_cost=0.01)
    cpu.post(lambda: None, label="x.y")
    sim.run()
    assert [profile.label for profile in profiler.hot()] == ["x.y"]
