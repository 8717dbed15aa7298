"""Property-based tests for the radio and CPU substrates."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.node import Cpu
from repro.radio import BROADCAST, Frame, Medium, TransceiverPort
from repro.sim import Simulator

positions = st.lists(
    st.tuples(st.floats(min_value=0, max_value=20),
              st.floats(min_value=0, max_value=20)),
    min_size=2, max_size=10, unique=True)


@given(positions,
       st.floats(min_value=0.5, max_value=25.0),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=60)
def test_broadcast_reaches_exactly_in_range_receivers(points, radius,
                                                      seed):
    """With no loss and no contention, a broadcast is delivered to every
    port within range and none beyond."""
    sim = Simulator(seed=seed)
    medium = Medium(sim, communication_radius=radius)
    received = []
    for node_id, pos in enumerate(points):
        medium.attach(TransceiverPort(
            node_id, pos,
            lambda frame, n=node_id: received.append(n)))
    medium.transmit(Frame(src=0, dst=BROADCAST, kind="x"))
    sim.run()
    src = points[0]
    expected = {n for n, pos in enumerate(points) if n != 0
                and ((pos[0] - src[0]) ** 2
                     + (pos[1] - src[1]) ** 2) ** 0.5 <= radius}
    assert set(received) == expected


@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=30)
def test_medium_is_deterministic_per_seed(seed, loss):
    def run():
        sim = Simulator(seed=seed)
        medium = Medium(sim, communication_radius=5.0,
                        base_loss_rate=loss)
        log = []
        for node_id, pos in enumerate([(0.0, 0.0), (1.0, 0.0),
                                       (2.0, 0.0)]):
            medium.attach(TransceiverPort(
                node_id, pos,
                lambda frame, n=node_id: log.append((n, frame.kind))))
        for i in range(20):
            sim.schedule(i * 0.1, medium.transmit,
                         Frame(src=i % 3, dst=BROADCAST, kind=f"k{i}"))
        sim.run()
        return log

    assert run() == run()


@given(st.lists(st.floats(min_value=0.0001, max_value=0.05),
                min_size=1, max_size=30))
@settings(max_examples=60)
def test_cpu_preserves_fifo_order_and_total_service(costs):
    sim = Simulator()
    cpu = Cpu(sim, 0, queue_limit=100)
    done = []
    for index, cost in enumerate(costs):
        cpu.post(lambda i=index: done.append(i), cost=cost)
    sim.run()
    assert done == list(range(len(costs)))
    assert cpu.executed == len(costs)
    assert cpu.busy_time == sum(costs)
    assert sim.now >= sum(costs) - 1e-9
