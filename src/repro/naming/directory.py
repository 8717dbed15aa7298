"""Object naming and directory services (§5.3).

Every context type hashes to a coordinate; the nodes around that point form
the *directory object* for the type.  A context label registers itself when
it "first comes alive", sends occasional location updates, and the
directory answers queries like "where are all the fires?" with the list of
active labels and their last known coordinates.

Implementation notes:

* registrations/queries travel over greedy geographic routing
  (:mod:`repro.transport.routing`);
* the node nearest the hashed point stores the entry and replicates it to
  its one-hop neighborhood ("the nodes within one hop of that coordinate
  are responsible"), so the directory survives single-node failures;
* entries expire after :data:`ENTRY_TTL` without updates — departed labels
  vanish without explicit deregistration, matching the protocol's
  soft-state philosophy.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..node import Component, Mote
from ..radio import distance
from ..sim import TimerHandle
from ..telemetry.registry import Counter, RecordFamily, summed
from ..transport.routing import GeoRouter
from .geohash import FieldBounds, hash_to_coordinate

Position = Tuple[float, float]

REGISTER_KIND = "dir.register"
REPLICATE_KIND = "dir.replicate"
QUERY_KIND = "dir.query"
RESPONSE_KIND = "dir.response"

#: Soft-state lifetime of a directory entry (seconds).
ENTRY_TTL = 30.0

#: Default per-attempt lookup timeout (seconds): the query + response
#: round trip over greedy routing at paper-scale deployments is well
#: under a second; 3 s absorbs CPU backlog and MAC backoff tails.
DEFAULT_LOOKUP_TIMEOUT = 3.0

#: Extra query attempts after the first lookup attempt times out; once
#: they are spent the lookup answers ``[]``.
LOOKUP_RETRIES = 1


@dataclass
class _PendingLookup:
    """Client-side state of one outstanding lookup."""

    context_type: str
    callback: Callable[[List["DirectoryEntry"]], None]
    #: The per-attempt timeout, armed on each query attempt.
    timer: TimerHandle
    attempts: int = 0


@dataclass(frozen=True, slots=True)
class DirectoryEntry:
    """One active context label known to a directory object.

    Also the ``dir.register`` and ``dir.replicate`` message: the entry a
    leader registers is the one every replica stores.
    """

    label: str
    context_type: str
    location: Position
    leader: int
    updated: float


@dataclass(frozen=True, slots=True)
class DirectoryQuery:
    """The ``dir.query`` message: "where are all the <type>s?"."""

    context_type: str
    query_id: int
    reply_to: int
    #: Set by a rebooted directory node passing it to a replica holder.
    handed_on: bool = False


@dataclass(frozen=True, slots=True)
class DirectoryResponse:
    """The ``dir.response`` message: a directory node's fresh entries
    of the queried type."""

    query_id: int
    entries: Tuple[DirectoryEntry, ...]


#: The operations that write a trace record, by record category.
_RECORDED_OPS = {"dir.lookup_retry": "lookup_retry",
                 "dir.stale_register": "stale_register",
                 "dir.stored": "stored"}


#: The directory's families tallied by trace records: each timed-out
#: lookup attempt writes one ``dir.lookup_retry`` or, on the last
#: attempt, one ``dir.lookup_timeout``.
RECORD_FAMILIES: Tuple[RecordFamily, ...] = (
    (Counter, "repro_dir_lookup_timeouts_total",
     "Directory lookup attempts that timed out.", (),
     summed(lambda records: sum(
         record.category in ("dir.lookup_retry", "dir.lookup_timeout")
         for record in records))),
)


def _fill_ops(counter: Counter,
              services: List["DirectoryService"]) -> None:
    """Directory operations: those that write a trace record are counted
    from the trace, the others from each service's ``ops``."""
    ops = collections.Counter(
        _RECORDED_OPS[record.category] for record in services[0].sim.trace
        if record.category in _RECORDED_OPS)
    for service in services:
        ops.update(service.ops)
    for op, count in ops.items():
        counter.inc(count, op)


class DirectoryService(Component):
    """Directory participant running on every mote.

    Parameters
    ----------
    mote, router:
        Host mote and its geographic router.
    bounds:
        Field bounds every node agrees on (hash domain).
    hash_margin:
        Keep hashed coordinates this far from the field edge.
    lookup_timeout:
        Seconds to wait per lookup attempt before retrying or giving up.

    An entry lives :data:`ENTRY_TTL` seconds without updates.  A lookup
    retries :data:`LOOKUP_RETRIES` times; then the callback fires with
    ``[]`` and the pending entry is collected.

    A crash drops the mote's replicas and its pending lookups, with
    their timeouts and without calling back: nobody is left waiting for
    the answers.  Only the query counter survives, so a late answer to a
    query from before the crash never matches a new one.  Until every
    entry it could hold has been refreshed or has expired, :data:`ENTRY_TTL`
    after the reboot, the node hands each query it would answer on to
    the replica holder nearest the point, once.
    """

    name = "dir"

    def __init__(self, mote: Mote, router: GeoRouter, bounds: FieldBounds,
                 hash_margin: float = 1.0,
                 lookup_timeout: float = DEFAULT_LOOKUP_TIMEOUT) -> None:
        super().__init__(mote)
        self.router = router
        self.bounds = bounds.shrunk(hash_margin)
        # ``not x > 0`` (never ``x <= 0``) so that NaN is rejected too.
        if not lookup_timeout > 0:
            raise ValueError(
                f"lookup_timeout must be positive: {lookup_timeout}")
        self.lookup_timeout = lookup_timeout
        self._entries: Dict[str, DirectoryEntry] = {}
        self._pending_queries: Dict[int, _PendingLookup] = {}
        self._query_seq = 0
        #: Until then the replicas may lack entries a crash emptied.
        self._partial_until = 0.0
        #: Operations that write no trace record, by kind: ``register``,
        #: ``lookup``, ``query_answered``, ``query_handed_on`` and
        #: ``response``.
        self.ops: "collections.Counter[str]" = collections.Counter()
        metrics = self.sim.metrics
        metrics.view(Counter, "repro_directory_ops_total",
                     "Directory operations by kind.", ("op",), _fill_ops,
                     self)
        metrics.record_views(RECORD_FAMILIES, self.sim.trace)

    def on_start(self) -> None:
        self.router.register_delivery(REGISTER_KIND, self._on_register)
        self.router.register_delivery(QUERY_KIND, self._on_query)
        self.router.register_delivery(RESPONSE_KIND, self._on_response)
        self.handle(REPLICATE_KIND, self._on_replicate_frame)
        self.mote.add_fail_hook(self._on_fail)
        self.mote.add_reboot_hook(self._on_reboot)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def directory_point(self, context_type: str) -> Position:
        """Where this type's directory object lives."""
        return hash_to_coordinate(context_type, self.bounds)

    def register(self, context_type: str, label: str,
                 location: Position, leader: int) -> None:
        """Announce (or refresh) an active context label.

        Called by a label's leader when the label first comes alive and
        periodically thereafter ("occasional updates ... keep the location
        information up to date").
        """
        self.ops["register"] += 1
        with self.sim.spans.span(f"dir.register.{context_type}",
                                 node=self.node_id):
            self.router.route_to_point(
                self.directory_point(context_type), REGISTER_KIND,
                DirectoryEntry(label, context_type, location, leader,
                               self.now))

    def lookup(self, context_type: str,
               callback: Callable[[List[DirectoryEntry]], None]) -> None:
        """Ask "where are all the <type>s?"; the callback receives the
        entries when the response returns — or ``[]`` once the timeout
        and retry budget are spent, so callers never leak."""
        self._query_seq += 1
        query_id = self._query_seq
        pending = _PendingLookup(
            context_type=context_type, callback=callback,
            timer=self.sim.timers.create(
                partial(self._on_lookup_timeout, query_id),
                label=f"dir.lookup_timeout@{self.node_id}"))
        self._pending_queries[query_id] = pending
        self.ops["lookup"] += 1
        self._send_query(query_id, pending)

    def _send_query(self, query_id: int, pending: _PendingLookup) -> None:
        """Route one query attempt and arm its timeout."""
        context_type = pending.context_type
        self.sim.timers.arm(pending.timer, self.lookup_timeout)
        # Named span: the query frame, its routed hops, the directory
        # node's handler and the response all become children, so
        # ``spans.find("dir.lookup")`` + ``TraceQuery.span()`` reads a
        # lookup end-to-end.
        with self.sim.spans.span(f"dir.lookup.{context_type}",
                                 node=self.node_id):
            self.router.route_to_point(
                self.directory_point(context_type), QUERY_KIND,
                DirectoryQuery(context_type, query_id, self.node_id))

    def _on_lookup_timeout(self, query_id: int) -> None:
        # A response or a crash cancels the timeout, so the lookup is
        # still pending.
        pending = self._pending_queries[query_id]
        if pending.attempts < LOOKUP_RETRIES:
            pending.attempts += 1
            self.record("lookup_retry", type=pending.context_type,
                        query=query_id, attempt=pending.attempts)
            self._send_query(query_id, pending)
            return
        del self._pending_queries[query_id]
        self.record("lookup_timeout", type=pending.context_type,
                    query=query_id)
        pending.callback([])

    def _on_fail(self) -> None:
        """Crash: drop the replicas and the pending lookups, and stop the
        lookups' timeouts."""
        for pending in self._pending_queries.values():
            self.sim.timers.cancel(pending.timer)
        self._pending_queries.clear()
        self._entries.clear()

    def _on_reboot(self) -> None:
        self._partial_until = self.now + ENTRY_TTL

    # ------------------------------------------------------------------
    # Directory-object side
    # ------------------------------------------------------------------
    def entries_for(self, context_type: str) -> List[DirectoryEntry]:
        """Fresh locally stored entries of a type (directory nodes only)."""
        self._expire()
        return sorted((entry for entry in self._entries.values()
                       if entry.context_type == context_type),
                      key=lambda entry: entry.label)

    def _store(self, entry: DirectoryEntry) -> Tuple[str, DirectoryEntry]:
        """Try to store a registration.

        Returns ``(status, entry)`` with status ``"stored"`` (accepted;
        entry is the stored record) or ``"stale"`` (older than the entry
        already held; entry is the kept newer record).
        """
        existing = self._entries.get(entry.label)
        if existing is not None and existing.updated > entry.updated:
            return "stale", existing
        self._entries[entry.label] = entry
        return "stored", entry

    def _on_register(self, entry: Any, origin: int) -> None:
        if not isinstance(entry, DirectoryEntry):
            return
        status, kept = self._store(entry)
        if status == "stale":
            # A stale registration must not be replicated either: the
            # one-hop neighbors would overwrite their newer replicas
            # with the stale leader pointer.
            self.record("stale_register", label=kept.label,
                        type=kept.context_type)
            return
        self.record("stored", label=entry.label, type=entry.context_type)
        # Replicate to the one-hop neighborhood around the hash point.
        self.broadcast(REPLICATE_KIND, entry)

    def _on_replicate_frame(self, frame) -> None:
        entry = frame.payload
        if not isinstance(entry, DirectoryEntry):
            return
        # Only nodes near the hashed coordinate keep replicas.
        point = self.directory_point(entry.context_type)
        if distance(self.mote.position, point) \
                <= self.mote.medium.communication_radius:
            self._store(entry)

    def _on_query(self, query: Any, origin: int) -> None:
        if not isinstance(query, DirectoryQuery):
            return
        if self.now < self._partial_until and not query.handed_on:
            holder = self._replica_holder(query.context_type)
            if holder is not None:
                self.ops["query_handed_on"] += 1
                self.router.route_to_node(holder, QUERY_KIND,
                                          replace(query, handed_on=True))
                return
        self.ops["query_answered"] += 1
        self.router.route_to_node(
            query.reply_to, RESPONSE_KIND,
            DirectoryResponse(query.query_id,
                              tuple(self.entries_for(query.context_type))))

    def _replica_holder(self, context_type: str) -> Optional[int]:
        """The neighbor nearest the type's point, if it is near enough to
        keep replicas of the type."""
        point = self.directory_point(context_type)
        medium = self.mote.medium
        holder = min(medium.neighbors_of(self.node_id), default=None,
                     key=lambda node: (distance(
                         medium.port(node).position, point), node))
        if holder is None or distance(medium.port(holder).position, point) \
                > medium.communication_radius:
            return None
        return holder

    def _on_response(self, response: Any, origin: int) -> None:
        if not isinstance(response, DirectoryResponse):
            return
        pending = self._pending_queries.pop(response.query_id, None)
        if pending is None:
            return  # already timed out (late response) or duplicate
        self.sim.timers.cancel(pending.timer)
        self.ops["response"] += 1
        pending.callback(list(response.entries))

    def _expire(self) -> None:
        horizon = self.now - ENTRY_TTL
        stale = [label for label, entry in self._entries.items()
                 if entry.updated < horizon]
        for label in stale:
            del self._entries[label]
