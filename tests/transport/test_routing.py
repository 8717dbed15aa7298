"""Unit tests for greedy geographic routing."""

from repro.sensing import SensorField
from repro.sim import Simulator
from repro.transport import GEO_KIND, GeoRouter, Packet


def build(columns=8, rows=3, communication_radius=1.5, loss=0.0):
    sim = Simulator(seed=5)
    field = SensorField(sim, communication_radius=communication_radius,
                        base_loss_rate=loss)
    field.deploy_grid(columns, rows)
    routers = {}
    for mote in field.mote_list():
        router = GeoRouter(mote)
        router.start()
        routers[mote.node_id] = router
    return sim, field, routers


def test_route_to_point_delivers_at_closest_node():
    sim, field, routers = build()
    received = []
    for router in routers.values():
        router.register_delivery(
            "probe", lambda payload, origin, r=router: received.append(
                (r.node_id, payload, origin)))
    routers[0].route_to_point((6.2, 1.1), "probe", {"x": 1})
    sim.run(until=5.0)
    assert len(received) == 1
    node, payload, origin = received[0]
    # Node at (6, 1) is the closest grid point to (6.2, 1.1).
    assert field.motes[node].position == (6.0, 1.0)
    assert payload == {"x": 1}
    assert origin == 0


def test_route_to_node_unicast():
    sim, field, routers = build()
    received = []
    routers[15].register_delivery(
        "msg", lambda payload, origin: received.append(payload))
    routers[0].route_to_node(15, "msg", {"hello": True})
    sim.run(until=5.0)
    assert received == [{"hello": True}]


def test_multi_hop_forwarding_counts():
    sim, field, routers = build()
    routers[7].register_delivery("m", lambda p, o: None)
    routers[0].route_to_node(7, "m", {})
    sim.run(until=5.0)
    total_forwarded = sum(r.forwarded for r in routers.values())
    # 0 → 7 is seven grid units with radio range 1.5: several hops.
    assert total_forwarded >= 4
    assert routers[7].delivered == 1


def test_local_delivery_without_radio():
    sim, field, routers = build()
    received = []
    routers[0].register_delivery("self", lambda p, o: received.append(p))
    routers[0].route_to_node(0, "self", {"n": 1})
    assert received == [{"n": 1}]


def test_unknown_destination_node_recorded_as_dead_end():
    sim, field, routers = build()
    routers[0].route_to_node(999, "m", {})
    assert routers[0].dead_ends == 1


def test_undeliverable_kind_recorded():
    sim, field, routers = build()
    routers[0].route_to_node(1, "nobody-listens", {})
    sim.run(until=5.0)
    records = list(sim.trace_records("geo.undeliverable"))
    assert len(records) == 1


def test_ttl_exhaustion_drops():
    # A packet with two hops left, sent on the air towards node 7, seven
    # hops away: the hop that finds its budget spent drops it.
    sim, field, routers = build()
    routers[7].register_delivery("m", lambda p, o: None)
    packet = Packet(dest=field.motes[7].position, origin=0, inner_kind="m",
                    inner={}, ttl=2, dest_node=7)
    routers[0].unicast(1, GEO_KIND, packet)
    sim.run(until=5.0)
    assert routers[7].delivered == 0
    assert sum(r.dead_ends for r in routers.values()) == 1
    (dead_end,) = sim.trace_records("geo.dead_end")
    assert dead_end.detail == {"reason": "ttl"}


def test_duplicate_delivery_registration_rejected():
    sim, field, routers = build()
    routers[0].register_delivery("k", lambda p, o: None)
    try:
        routers[0].register_delivery("k", lambda p, o: None)
    except ValueError:
        return
    raise AssertionError("expected ValueError")
