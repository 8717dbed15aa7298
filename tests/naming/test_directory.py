"""Unit tests for the directory service (§5.3)."""

import pytest

from repro.naming import (ENTRY_TTL, LOOKUP_RETRIES, DirectoryEntry,
                          DirectoryService, FieldBounds)
from repro.naming.directory import REPLICATE_KIND
from repro.radio import distance
from repro.sensing import SensorField
from repro.sim import Simulator
from repro.transport import GeoRouter


def build(columns=8, rows=8, communication_radius=2.0, **service_kwargs):
    sim = Simulator(seed=9)
    field = SensorField(sim, communication_radius=communication_radius)
    field.deploy_grid(columns, rows)
    bounds = FieldBounds(0.0, 0.0, float(columns - 1), float(rows - 1))
    services = {}
    for mote in field.mote_list():
        router = GeoRouter(mote)
        router.start()
        service = DirectoryService(mote, router, bounds, hash_margin=1.0,
                                   **service_kwargs)
        service.start()
        services[mote.node_id] = service
    return sim, field, services


def lookup(sim, services, node_id, context_type, timeout=5.0):
    answers = []
    services[node_id].lookup(context_type, answers.extend)
    sim.run(until=sim.now + timeout)
    return answers


def test_register_then_query():
    sim, field, services = build()
    services[0].register("fire", "fire#3.1", location=(2.0, 2.0), leader=3)
    sim.run(until=2.0)
    answers = lookup(sim, services, 63, "fire")
    assert [e.label for e in answers] == ["fire#3.1"]
    assert answers[0].leader == 3
    assert answers[0].location == (2.0, 2.0)


def test_query_for_unknown_type_returns_empty():
    sim, field, services = build()
    answers = lookup(sim, services, 5, "ghost")
    assert answers == []


def test_multiple_labels_of_one_type():
    sim, field, services = build()
    # Staggered like real periodic refreshes (simultaneous fire-and-forget
    # registrations can collide on the air; refresh repairs that in
    # production use).
    services[0].register("fire", "fire#1.1", (1.0, 1.0), leader=1)
    sim.schedule(1.0, services[10].register, "fire", "fire#2.2",
                 (5.0, 5.0), 2)
    sim.run(until=3.0)
    answers = lookup(sim, services, 30, "fire")
    assert sorted(e.label for e in answers) == ["fire#1.1", "fire#2.2"]


def test_update_refreshes_location():
    sim, field, services = build()
    services[0].register("car", "car#1.1", (0.0, 0.0), leader=1)
    sim.run(until=2.0)
    services[7].register("car", "car#1.1", (6.0, 0.0), leader=9)
    sim.run(until=sim.now + 2.0)
    answers = lookup(sim, services, 20, "car")
    assert len(answers) == 1
    assert answers[0].leader == 9
    assert answers[0].location == (6.0, 0.0)


def test_entries_expire_without_updates():
    # Registered at t=0, the entry lives ENTRY_TTL = 30 s.
    assert ENTRY_TTL == 30.0
    sim, field, services = build()
    services[0].register("car", "car#1.1", (0.0, 0.0), leader=1)
    sim.run(until=2.0)
    holders = [service for service in services.values()
               if service.entries_for("car")]
    assert holders
    assert lookup(sim, services, 20, "car")
    sim.run(until=29.9)
    assert all(service.entries_for("car") for service in holders)
    assert lookup(sim, services, 20, "car")
    sim.run(until=30.1)
    assert not any(service.entries_for("car") for service in holders)
    assert lookup(sim, services, 20, "car") == []


def test_replication_survives_directory_node_failure():
    sim, field, services = build()
    services[0].register("car", "car#1.1", (0.0, 0.0), leader=1)
    sim.run(until=2.0)
    # Find and kill the node holding the entry nearest the hash point.
    holders = [node for node, service in services.items()
               if service.entries_for("car")]
    assert holders, "registration never stored"
    primary = min(holders, key=lambda n: n)
    field.fail_node(primary)
    sim.run(until=sim.now + 1.0)
    answers = lookup(sim, services, 40, "car", timeout=8.0)
    assert [e.label for e in answers] == ["car#1.1"]


def test_directory_point_is_shared_knowledge():
    sim, field, services = build()
    points = {service.directory_point("fire")
              for service in services.values()}
    assert len(points) == 1


def test_lookup_survives_leader_handoff():
    # The label migrates to a new leader (handover); a later registration
    # must win, and the directory must keep answering with one entry.
    sim, field, services = build()
    services[0].register("car", "car#1.1", (0.0, 0.0), leader=1)
    sim.run(until=2.0)
    services[9].register("car", "car#1.1", (2.0, 1.0), leader=9)
    sim.run(until=sim.now + 2.0)
    answers = lookup(sim, services, 42, "car")
    assert [(e.label, e.leader) for e in answers] == [("car#1.1", 9)]
    assert answers[0].location == (2.0, 1.0)


def test_stale_registration_rejected():
    # A delayed replica of the *old* leader's registration must not
    # overwrite the newer entry (the `updated` timestamp arbitrates).
    sim, field, services = build()
    service = services[0]
    fresh = DirectoryEntry(label="car#1.1", context_type="car",
                           location=(2.0, 1.0), leader=9, updated=10.0)
    stale = DirectoryEntry(label="car#1.1", context_type="car",
                           location=(0.0, 0.0), leader=1, updated=4.0)
    status, entry = service._store(fresh)
    assert status == "stored" and entry.leader == 9
    status, kept = service._store(stale)
    assert status == "stale"
    assert kept.leader == 9  # the stored (newer) entry wins
    assert [e.leader for e in service.entries_for("car")] == [9]


def directory_region(field, services, context_type):
    """Node ids within radio range of the type's hashed coordinate."""
    point = services[0].directory_point(context_type)
    radius = field.medium.communication_radius
    return [node for node, service in services.items()
            if distance(field.motes[node].position, point) <= radius]


def test_lookup_times_out_with_empty_answer_and_no_leak():
    # Kill the whole directory neighborhood: queries route into a dead
    # end, no response ever comes back, and only the client-side timeout
    # stands between the caller and a stranded callback.
    sim, field, services = build(lookup_timeout=1.0)
    for node in directory_region(field, services, "fire"):
        field.fail_node(node)
    client = services[63]
    answers = []
    called = []
    start = sim.now
    client.lookup("fire", lambda entries: (answers.extend(entries),
                                           called.append(sim.now)))
    assert len(client._pending_queries) == 1
    sim.run(until=sim.now + 10.0)
    # Exactly one retry: the callback fires once, with [], when the
    # second attempt times out.
    assert LOOKUP_RETRIES == 1
    assert called == [pytest.approx(start + 2.0)]
    assert answers == []
    assert client._pending_queries == {}  # GC'd, no leak
    (retry,) = sim.trace_records("dir.lookup_retry")
    assert retry.detail["attempt"] == 1
    assert len(list(sim.trace_records("dir.lookup_timeout"))) == 1
    assert sim.metrics.get(
        "repro_dir_lookup_timeouts_total").value() == 2.0  # both attempts


def test_lookup_retry_recovers_after_transient_outage():
    sim, field, services = build(lookup_timeout=2.0)
    services[0].register("fire", "fire#3.1", (2.0, 2.0), leader=3)
    sim.run(until=2.0)
    # A regional blackout: for 1.5 s no mote around the directory point
    # hears anything, so the first attempt dies against it; the region
    # is back when the one retry goes out 2 s later.
    field.medium.add_disturbance(
        extra_loss=1.0, start=sim.now, end=sim.now + 1.5,
        center=services[0].directory_point("fire"),
        radius=field.medium.communication_radius)
    answers = []
    services[63].lookup("fire", answers.extend)
    sim.run(until=sim.now + 10.0)
    assert [e.label for e in answers] == ["fire#3.1"]
    assert sim.metrics.get(
        "repro_directory_ops_total").value("lookup_retry") >= 1.0


def test_reboot_drops_directory_replicas():
    # A power cycle empties RAM, replicas included.
    sim, field, services = build()
    services[0].register("fire", "fire#1.1", (2.0, 2.0), leader=1)
    sim.run(until=2.0)
    holders = [node for node, service in services.items()
               if service.entries_for("fire")]
    assert 35 in holders
    field.fail_node(35)
    field.motes[35].reboot()
    assert services[35].entries_for("fire") == []
    assert all(services[node].entries_for("fire")
               for node in holders if node != 35)


def test_rebooted_directory_node_hands_queries_to_a_replica():
    # Regression: the rebooted node nearest the hash point answered
    # from the replicas its crash emptied, so every lookup of the type
    # came back empty until a registration refilled it.  For one entry
    # TTL it hands each query on to the replica holder nearest the point.
    sim, field, services = build()
    services[0].register("fire", "fire#1.1", (2.0, 2.0), leader=1)
    sim.run(until=2.0)
    (stored,) = sim.trace_records("dir.stored")
    home = stored.node
    field.fail_node(home)
    field.motes[home].reboot()
    answers = lookup(sim, services, 63, "fire")
    assert [entry.label for entry in answers] == ["fire#1.1"]
    assert services[home].ops["query_handed_on"] == 1
    assert services[home].ops["query_answered"] == 0
    sim.run(until=sim.now + 30.0)  # the entry TTL since the reboot
    services[0].register("fire", "fire#1.1", (2.0, 2.0), leader=1)
    sim.run(until=sim.now + 2.0)
    answers = lookup(sim, services, 63, "fire")
    assert [entry.label for entry in answers] == ["fire#1.1"]
    assert services[home].ops["query_handed_on"] == 1
    assert services[home].ops["query_answered"] == 1


def test_dead_client_lookup_collected_without_callback():
    sim, field, services = build(lookup_timeout=1.0)
    client = services[63]
    called = []
    client.lookup("ghost", lambda entries: called.append(entries))
    field.fail_node(63)
    assert client._pending_queries == {}  # collected by the crash
    sim.run(until=sim.now + 5.0)
    assert called == []  # nobody home: no callback either
    # The timeout was stopped too.
    assert sim.metrics.get("repro_dir_lookup_timeouts_total").value() == 0


def test_lookup_timeout_validation():
    sim, field, services = build(columns=2, rows=2)
    mote = field.motes[0]
    router = GeoRouter(mote)
    bounds = FieldBounds(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DirectoryService(mote, router, bounds, lookup_timeout=0.0)


@pytest.mark.parametrize("setting,value", [
    ("lookup_timeout", float("nan"))])
def test_settings_validated(setting, value):
    # Regression: a NaN lookup_timeout slipped past the ``<= 0`` check.
    sim, field, services = build(columns=2, rows=2)
    mote = field.motes[0]
    bounds = FieldBounds(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=setting):
        DirectoryService(mote, GeoRouter(mote), bounds, **{setting: value})


def test_stale_register_not_rebroadcast():
    # A stale registration must be rejected *silently*: replicating it
    # would overwrite the one-hop neighbors' newer replicas.
    sim, field, services = build()
    service = services[0]
    replicated = []
    service.broadcast = lambda kind, payload: replicated.append(kind)
    fresh = DirectoryEntry(label="car#1.1", context_type="car",
                           location=(2.0, 1.0), leader=9, updated=10.0)
    stale = DirectoryEntry(label="car#1.1", context_type="car",
                           location=(0.0, 0.0), leader=1, updated=4.0)
    service._on_register(fresh, origin=9)
    service._on_register(stale, origin=1)
    assert replicated == [REPLICATE_KIND]  # only the fresh one went out
    assert [e.leader for e in service.entries_for("car")] == [9]
    assert sim.metrics.get("repro_directory_ops_total").value(
        "stale_register") == 1.0
