"""Tracking-object runtime: what attached code sees while it runs.

Object code executes on the current group leader and interacts with the
system exclusively through an :class:`ObjectContext` — the reproduction of
the implicit environment EnviroTrack's preprocessor wires into NesC method
bodies: aggregate state variable reads (with valid/null semantics),
``MySend`` to the pursuer/base station, ``self:label``, remote method
invocation, and ``setState`` persistent state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..aggregation import AggregateStore, ReadResult
from .base_station import AppReport


class ObjectContext:
    """Facade handed to every tracking-object method invocation.

    Lives exactly as long as this node leads the label; a successor leader
    gets a fresh context (continuing from any persistent state carried on
    heartbeats).
    """

    def __init__(self, context_type: str, label: str, node_id: int,
                 clock: Callable[[], float], store: AggregateStore,
                 send_fn: Callable[[AppReport], None],
                 invoke_fn: Callable[[str, int, Dict[str, Any]], None],
                 set_state_fn: Callable[[Optional[dict]], None],
                 get_state_fn: Callable[[], Optional[dict]],
                 record_fn: Callable[..., None],
                 position: Any = None,
                 lookup_fn: Optional[Callable[
                     [str, Callable[[list], None]], None]] = None) -> None:
        self.context_type = context_type
        self._label = label
        self.node_id = node_id
        self._clock = clock
        self._store = store
        self._send_fn = send_fn
        self._invoke_fn = invoke_fn
        self._set_state_fn = set_state_fn
        self._get_state_fn = get_state_fn
        self._record_fn = record_fn
        self._lookup_fn = lookup_fn
        self.position = position
        #: Scratch space private to this leader incarnation (NOT persistent
        #: across handovers — use set_state for that).
        self.locals: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """``self:label`` — the handle of the enclosing context label."""
        return self._label

    @property
    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # Aggregate state
    # ------------------------------------------------------------------
    def read(self, name: str) -> ReadResult:
        """Read an aggregate state variable with full QoS semantics.

        The result's ``valid`` flag is False (the paper's *null flag*) when
        fewer than the critical mass of fresh readings are available —
        "when the 'siting' of the phenomenon is not positively confirmed".
        """
        return self._store.read(name, self.now)

    def value(self, name: str, default: Any = None) -> Any:
        """The variable's value, or ``default`` when the read is null."""
        result = self.read(name)
        return result.value if result.valid else default

    def valid(self, name: str) -> bool:
        return self.read(name).valid

    def aggregate_names(self):
        return self._store.names()

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def my_send(self, values: Dict[str, Any]) -> None:
        """``MySend(pursuer, self:label, …)`` — report to the base station.

        The label handle is attached automatically, as in Figure 2 where
        the pursuer identifies vehicles "by their respective context
        labels".
        """
        self._send_fn(AppReport(self._label, self.context_type,
                                self.node_id, self.now, dict(values)))

    def invoke(self, dest_label: str, port: int,
               args: Optional[Dict[str, Any]] = None) -> None:
        """Remote method invocation on another context label via MTP."""
        self._invoke_fn(dest_label, port, args or {})

    def lookup(self, context_type: str,
               callback: Callable[[list], None]) -> None:
        """Ask the directory "where are all the <type>s?" (§5.3).

        The callback receives a list of
        :class:`repro.naming.DirectoryEntry` (possibly empty) when the
        response arrives — asynchronously, like everything on a mote.
        Without a directory service the callback never fires and a
        ``lookup_dropped`` record (reason ``no_directory``) notes the
        dropped query.
        """
        if self._lookup_fn is None:
            self._record_fn("lookup_dropped", reason="no_directory",
                            label=self._label, context_type=context_type)
            return
        self._lookup_fn(context_type, callback)

    # ------------------------------------------------------------------
    # Persistent state (the setState mechanism)
    # ------------------------------------------------------------------
    def set_state(self, state: Optional[dict]) -> None:
        """Commit state to be carried on heartbeats, so a successor leader
        "continues computations of failed leaders from the last committed
        state received"."""
        self._set_state_fn(state)

    @property
    def state(self) -> Optional[dict]:
        """The last committed persistent state (inherited or own)."""
        return self._get_state_fn()

    # ------------------------------------------------------------------
    def log(self, event: str, **detail: Any) -> None:
        """Structured application logging into the simulation trace."""
        self._record_fn(f"app.{event}", label=self._label, **detail)
