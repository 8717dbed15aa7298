"""Group management protocol (§5.2).

Maintains *context label coherence*: a group of sensors identifying the
same physical entity should produce a single label that persists and stays
unique as membership churns.  Design constraints straight from the paper:

* very lightweight and dynamic — **no** consistent membership views, no
  consensus; "no single entity has to know the current group membership";
* a single *majority* leader per tracked entity; spurious (minority)
  leaders may emerge but are unlikely to gather critical mass;
* leader heartbeats flood the group (and optionally ``h`` hops past the
  perimeter) carrying leader identity, label weight and optional
  persistent state;
* a **receive timer** (≈2.1 × heartbeat period) on each member triggers
  leadership takeover on leader silence;
* a **wait timer** (≈4.2 × heartbeat period) on nearby non-members
  suppresses spurious label creation: a node that recently heard a leader
  joins that label instead of minting a new one when it starts sensing;
* **leader weights** (count of member reports received) resolve duplicate
  labels: the lighter label's leader deletes its label and joins the
  heavier group;
* a leader hearing another leader of the *same* label immediately yields;
* the **relinquish** mechanism hands leadership off explicitly when the
  leader stops sensing the entity (the optimization in Figures 5/6).

State machine roles per (node, context type): IDLE → MEMBER ⇄ LEADER.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from ..node import Component, Mote
from ..radio import distance
from ..sim import OneShotTimer, WatchdogTimer
from ..telemetry.registry import Counter, summed
from .config import (ANNOUNCE_JITTER, CLAIM_WINDOW, FORMATION_WINDOW,
                     REBROADCAST_JITTER, SENSE_COST, SENSE_PERIOD,
                     GroupConfig)
from .messages import (HEARTBEAT_KIND, QUERY_KIND, RELINQUISH_KIND,
                       VOUCH_KIND, Heartbeat, LeaderQuery, LeaderVouch,
                       Relinquish, mint_label)

SenseFn = Callable[[Mote], bool]


class Role(enum.Enum):
    """A node's role with respect to one context type."""

    IDLE = "idle"
    MEMBER = "member"
    LEADER = "leader"


#: For the heartbeat handler, which runs once per receiver of every
#: heartbeat: reading an enum member through its class is a descriptor
#: call.
_LEADER, _MEMBER = Role.LEADER, Role.MEMBER


class GroupListener:
    """Callbacks the middleware layers on top of group management.

    All methods are optional no-ops; subclass what you need.
    ``via`` on leader starts is one of ``"created"``, ``"takeover"``,
    ``"claim"`` — metrics use it to classify handovers.
    """

    def on_leader_start(self, context_type: str, label: str,
                        inherited_state: Optional[dict],
                        inherited_weight: int, via: str) -> None:
        """This node just became the leader of ``label``."""

    def on_leader_stop(self, context_type: str, label: str,
                       reason: str) -> None:
        """This node stopped leading ``label`` (yield/relinquish/...)."""

    def on_member_join(self, context_type: str, label: str,
                       leader: int) -> None:
        """This node joined ``label``'s sensor group."""

    def on_member_leave(self, context_type: str, label: str) -> None:
        """This node left ``label``'s group (stopped sensing/switched)."""

    def on_leader_update(self, context_type: str, label: str,
                         leader: int) -> None:
        """The group's leader identity changed (new heartbeat source)."""

    def on_state_update(self, context_type: str, label: str,
                        state: Optional[dict]) -> None:
        """Fresh persistent state arrived on a heartbeat."""


@dataclass
class _WaitMemory:
    """What a non-member remembers about a nearby context label."""

    label: str
    leader: int
    weight: int
    state: Optional[dict] = None


class _Unbuilt:
    """Stands in for a wait timer before its first start: never armed,
    and cancelling it does nothing."""

    armed = False

    def cancel(self) -> None:
        pass


#: Most nodes never arm most of their wait timers, so each is built on
#: its first start or kick (see :meth:`GroupManager._receive_timer`).
_UNBUILT = _Unbuilt()


@dataclass
class _TypeState:
    """Per-context-type protocol state on one node."""

    type_name: str
    sense_fn: SenseFn
    config: GroupConfig
    role: Role = Role.IDLE
    label: Optional[str] = None
    leader_id: Optional[int] = None
    #: Last known position of the current leader (from heartbeats).
    leader_position: Optional[tuple] = None
    #: Known weight of our label (own count when leading, last heard
    #: heartbeat's when member — inherited on takeover).
    weight: int = 0
    cached_state: Optional[dict] = None
    wait_memory: Optional[_WaitMemory] = None
    sensing: bool = False
    hb_seq: int = 0
    #: Per-node label mint counter (deterministic label identity).
    labels_minted: int = 0
    last_hb_time: float = -1.0
    relinquish_time: float = -1.0
    #: Last time we heard a heartbeat for *our own* label directly — the
    #: only observations we may vouch for to a probing neighbor.
    last_label_hb_time: float = -1.0
    #: Absolute deadline the receive timer is currently armed for;
    #: vouches only ever *extend* it, never shrink it.
    receive_deadline: float = -1.0
    #: What the armed claim timer means: "claim" (relinquish contention)
    #: or "takeover" (probe cycle after receive-timer expiry).
    pending_via: Optional[str] = None
    #: Probe rounds already sent in the current takeover cycle.
    probe_round: int = 0
    #: When the current probe cycle started (for takeover tracing).
    probe_time: float = -1.0
    #: Rate limit for defence heartbeats answering probes/duplicates.
    last_defence_time: float = -1e9
    #: Flood forwarding dedup: last forwarded heartbeat seq per label.
    forwarded_seq: Dict[str, int] = field(default_factory=dict)
    # The manager builds the sense timer at start(); the heartbeat and
    # wait timers are built on first use.  Each is built once and
    # restarted from then on.
    sense_timer: Any = None
    heartbeat_timer: Any = None
    receive_timer: Any = _UNBUILT
    wait_timer: Any = _UNBUILT
    claim_timer: Any = _UNBUILT
    formation_timer: Any = _UNBUILT


#: What a crash leaves of a :class:`_TypeState`: what the node tracks,
#: the label mint counter (conceptually a counter in flash, so a
#: rebooted creator never re-mints a label id it already used), and the
#: timers, which are static allocations the crash stopped.
_SURVIVES_CRASH = frozenset({
    "type_name", "sense_fn", "config", "labels_minted", "sense_timer",
    "heartbeat_timer", "receive_timer", "wait_timer", "claim_timer",
    "formation_timer"})


class GroupManager(Component):
    """The group-management component of one mote.

    One manager tracks any number of context types; per §3.2.1 "a sensor
    node can be part of multiple groups at one time" and groups of
    different types are independent.
    """

    name = "gm"

    def __init__(self, mote: Mote) -> None:
        super().__init__(mote)
        self._types: Dict[str, _TypeState] = {}
        self._listeners: List[GroupListener] = []
        self._rng = self.sim.rng.stream("gm.jitter")
        mote.add_fail_hook(self._on_fail)
        mote.add_reboot_hook(self._on_reboot)
        self.sim.metrics.view(
            Counter, "repro_gm_sense_polls_implicit_total",
            "Sense checks charged to the CPU without events, because the "
            "sensor could not read true yet.", (),
            summed(lambda sim: sim.implicit_polls), self.sim)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_listener(self, listener: GroupListener) -> None:
        self._listeners.append(listener)

    def track(self, type_name: str, sense_fn: SenseFn,
              config: Optional[GroupConfig] = None) -> None:
        """Start managing groups for a context type on this node.

        When ``sense_fn`` carries a ``quiet_until(mote, t)`` attribute —
        the earliest time ``>= t`` at which it could return True — sense
        checks before that time are charged without events while the
        node is not sensing (see :meth:`_quiet_until`).
        """
        if type_name in self._types:
            raise ValueError(f"already tracking type {type_name!r}")
        state = _TypeState(type_name=type_name, sense_fn=sense_fn,
                           config=config or GroupConfig())
        self._types[type_name] = state
        if self._started:
            self._activate(state)

    def on_start(self) -> None:
        self.handle(HEARTBEAT_KIND, self._on_heartbeat_frame)
        self.handle(RELINQUISH_KIND, self._on_relinquish_frame)
        self.handle(QUERY_KIND, self._on_query_frame)
        self.handle(VOUCH_KIND, self._on_vouch_frame)
        for state in self._types.values():
            self._activate(state)

    def _on_fail(self) -> None:
        """Host mote crashed: every role it held ends here, silently.

        Protocol RAM is lost, so every tracked type drops back to a
        fresh IDLE state (the crash stopped its timers);
        :meth:`_on_reboot` re-activates it.
        """
        for state in self._types.values():
            fresh = _TypeState(type_name=state.type_name,
                               sense_fn=state.sense_fn, config=state.config)
            for name, value in vars(fresh).items():
                if name not in _SURVIVES_CRASH:
                    setattr(state, name, value)

    def _on_reboot(self) -> None:
        """Host mote power-cycled: restart every tracked type from the
        fresh state the crash left.  A rebooted node rejoins groups by
        hearing heartbeats like any newcomer."""
        if self._started:
            for state in self._types.values():
                self._activate(state)

    def _activate(self, state: _TypeState) -> None:
        if state.sense_timer is None:
            state.sense_timer = self.mote.periodic(
                SENSE_PERIOD, partial(self._sense_check, state),
                label=f"gm.sense.{state.type_name}", cost=SENSE_COST,
                quiet_until=self._quiet_until(state))
        state.sense_timer.start(self._rng.uniform(0, SENSE_PERIOD))

    def _receive_timer(self, state: _TypeState) -> WatchdogTimer:
        """The receive watchdog, built on first use; a timer built after
        a clock skew takes the mote's skewed timeout."""
        if state.receive_timer is _UNBUILT:
            state.receive_timer = self.mote.watchdog(
                state.config.receive_timeout,
                lambda: self._receive_expired(state),
                label=f"gm.receive.{state.type_name}")
        return state.receive_timer

    def _wait_timer(self, state: _TypeState) -> WatchdogTimer:
        if state.wait_timer is _UNBUILT:
            state.wait_timer = self.mote.watchdog(
                state.config.wait_timeout,
                lambda: self._wait_expired(state),
                label=f"gm.wait.{state.type_name}")
        return state.wait_timer

    def _claim_timer(self, state: _TypeState) -> OneShotTimer:
        if state.claim_timer is _UNBUILT:
            state.claim_timer = self.mote.oneshot(
                lambda: self._claim_fired(state),
                label=f"gm.claim.{state.type_name}")
        return state.claim_timer

    def _formation_timer(self, state: _TypeState) -> OneShotTimer:
        if state.formation_timer is _UNBUILT:
            state.formation_timer = self.mote.oneshot(
                lambda: self._formation_fired(state),
                label=f"gm.formation.{state.type_name}")
        return state.formation_timer

    def _quiet_until(self, state: _TypeState
                     ) -> Optional[Callable[[float], float]]:
        """How long a sense check provably does nothing, if the sense
        function can tell (its ``quiet_until(mote, t)`` attribute).

        A check that reads False while not sensing changes no state, so
        it is quiet until the condition could read True.  While sensing,
        a False read is a transition, so every check is real.
        """
        quiet = getattr(state.sense_fn, "quiet_until", None)
        if quiet is None:
            return None
        mote = self.mote

        def quiet_until(t: float) -> float:
            return t if state.sensing else quiet(mote, t)

        return quiet_until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def role(self, type_name: str) -> Role:
        return self._types[type_name].role

    def label(self, type_name: str) -> Optional[str]:
        return self._types[type_name].label

    def leader_of(self, type_name: str) -> Optional[int]:
        return self._types[type_name].leader_id

    def leader_position(self, type_name: str) -> Optional[tuple]:
        """Last heard position of the current leader (None if unknown).

        Members use it to decide whether the leader is beyond single-hop
        radio range, in which case reports travel by multihop relay
        ("possibly using multiple hops through other members", §3.2.1).
        """
        return self._types[type_name].leader_position

    def weight(self, type_name: str) -> int:
        return self._types[type_name].weight

    def is_leading(self, type_name: str) -> bool:
        return self._types[type_name].role is Role.LEADER

    def tracked_types(self) -> List[str]:
        return sorted(self._types)

    def labels_led(self) -> List[str]:
        """Labels this node currently leads (MTP delivery check)."""
        return sorted(state.label for state in self._types.values()
                      if state.role is Role.LEADER
                      and state.label is not None)

    def persistent_state(self, type_name: str) -> Optional[dict]:
        return self._types[type_name].cached_state

    # ------------------------------------------------------------------
    # Middleware hooks
    # ------------------------------------------------------------------
    def note_member_report(self, type_name: str, label: str) -> None:
        """A member report reached us as leader: bump the label weight.

        The weight is "the number of messages received by the leader from
        members to date" — it is what makes established labels out-compete
        spurious ones.
        """
        state = self._types.get(type_name)
        if state is None or state.role is not Role.LEADER:
            return
        if state.label == label:
            state.weight += 1

    def set_persistent_state(self, type_name: str,
                             app_state: Optional[dict]) -> None:
        """EnviroTrack's ``setState``: attach state to future heartbeats so
        a successor leader resumes from the last committed snapshot."""
        state = self._types.get(type_name)
        if state is not None and state.role is Role.LEADER:
            state.cached_state = app_state

    # ------------------------------------------------------------------
    # Sensing checks
    # ------------------------------------------------------------------
    def _sense_check(self, state: _TypeState) -> None:
        sensing = bool(state.sense_fn(self.mote))
        was_sensing, state.sensing = state.sensing, sensing
        if sensing and state.role is Role.IDLE:
            self._idle_starts_sensing(state)
        elif not sensing and was_sensing:
            if state.role is Role.LEADER:
                self._leader_stops_sensing(state)
            elif state.role is Role.MEMBER:
                self._member_stops_sensing(state)

    def _idle_starts_sensing(self, state: _TypeState) -> None:
        memory = state.wait_memory
        if memory is not None and state.wait_timer.armed:
            # §5.2: recently heard a nearby leader — join that label
            # instead of forming a new context label.
            state.formation_timer.cancel()
            self._become_member(state, memory.label, memory.leader,
                                memory.weight, memory.state)
            return
        # "If a node that senses the activation condition ... has no
        # neighbors detecting the same condition, the node creates a new
        # context label": listen for a randomized formation window first so
        # concurrent first detectors collapse onto the fastest creator.
        if not state.formation_timer.armed:
            self._formation_timer(state).start(
                self._rng.uniform(0, FORMATION_WINDOW))

    def _formation_fired(self, state: _TypeState) -> None:
        if state.role is not Role.IDLE or not state.sensing:
            return
        if state.wait_memory is not None and state.wait_timer.armed:
            self._become_member(state, state.wait_memory.label,
                                state.wait_memory.leader,
                                state.wait_memory.weight,
                                state.wait_memory.state)
            return
        self._create_label(state)

    def _create_label(self, state: _TypeState) -> None:
        state.labels_minted += 1
        new_label = mint_label(state.type_name, self.node_id,
                               state.labels_minted)
        self.record("label_created", type=state.type_name, label=new_label)
        self._become_leader(state, new_label, weight=0,
                            inherited_state=None, via="created")

    def _leader_stops_sensing(self, state: _TypeState) -> None:
        label = state.label
        assert label is not None
        if state.config.relinquish:
            # Explicitly request election of a new leader, handing over the
            # label's weight and persistent state.
            message = Relinquish(context_type=state.type_name, label=label,
                                 leader=self.node_id, weight=state.weight,
                                 state=state.cached_state)
            self.broadcast(RELINQUISH_KIND, message,
                           tx_range=state.config.heartbeat_tx_range)
            self.record("relinquish", type=state.type_name, label=label,
                        weight=state.weight)
            self._stop_leading(state, reason="relinquish")
        else:
            # Takeover-only mode: step down silently; members discover the
            # silence via their receive timers (the Fig. 5 worst case).
            self.record("silent_stepdown", type=state.type_name, label=label)
            self._stop_leading(state, reason="stopped_sensing")
        self._remember(state, label, self.node_id, state.weight,
                       state.cached_state)
        self._clear_group(state)

    def _member_stops_sensing(self, state: _TypeState) -> None:
        label = state.label
        assert label is not None
        self.record("member_leave", type=state.type_name, label=label)
        state.receive_timer.cancel()
        self._notify("on_member_leave", state.type_name, label)
        leader = -1 if state.leader_id is None else state.leader_id
        self._remember(state, label, leader, state.weight,
                       state.cached_state)
        self._clear_group(state)

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _send_heartbeat(self, state: _TypeState) -> None:
        if state.role is not Role.LEADER or state.label is None:
            return
        state.hb_seq += 1
        beat = Heartbeat(context_type=state.type_name, label=state.label,
                         leader=self.node_id, weight=state.weight,
                         seq=state.hb_seq, state=state.cached_state,
                         hops=state.config.flood_hops,
                         leader_pos=self.mote.position)
        self.broadcast(HEARTBEAT_KIND, beat,
                       tx_range=state.config.heartbeat_tx_range)

    def _on_heartbeat_frame(self, frame) -> None:
        beat = frame.payload
        if not isinstance(beat, Heartbeat):
            return
        state = self._types.get(beat.context_type)
        if state is None or beat.leader == self.mote.node_id:
            return
        state.last_hb_time = self.sim._now
        role = state.role
        if role is _LEADER:
            self._leader_hears_heartbeat(state, beat)
        elif role is _MEMBER:
            self._member_hears_heartbeat(state, beat)
        else:
            # An idle node joins or remembers a label only within the
            # join range of its leader.
            limit = state.config.join_range
            leader_pos = beat.leader_pos
            if limit is not None and leader_pos is not None:
                position = self.mote.position
                if not math.hypot(position[0] - leader_pos[0],
                                  position[1] - leader_pos[1]) <= limit:
                    return
            self._idle_hears_heartbeat(state, beat)

    def _leader_hears_heartbeat(self, state: _TypeState,
                                beat: Heartbeat) -> None:
        assert state.label is not None
        if beat.label == state.label:
            # Duplicate leader inside our own label: yield immediately to
            # prevent confusion and redundant behavior.  Deterministic
            # tie-break avoids mutual-yield livelock when both heartbeats
            # cross mid-air: the heavier (then lower-id) leader survives.
            if (beat.weight, -beat.leader) >= (state.weight, -self.node_id):
                self.record("yield", type=state.type_name, label=state.label,
                            to=beat.leader)
                self._stop_leading(state, reason="yield")
                self._adopt_group(state, beat)
            else:
                # We win the tie-break: answer immediately so the loser
                # yields now instead of a heartbeat period from now.
                self._defend(state)
            return
        # Different label, same type: the lighter label is spurious —
        # but only when both labels plausibly track the same stimulus
        # (distant same-type entities keep distinct labels).
        if not self._same_stimulus(state, beat):
            return
        if (beat.weight, beat.label) > (state.weight, state.label):
            self.record("label_deleted", type=state.type_name,
                        label=state.label, adopted=beat.label)
            self._stop_leading(state, reason="suppressed")
            self._adopt_group(state, beat)
        else:
            self._defend(state)

    def _member_hears_heartbeat(self, state: _TypeState,
                                beat: Heartbeat) -> None:
        assert state.label is not None
        if beat.label == state.label:
            previous_leader = state.leader_id
            state.leader_id = beat.leader
            if beat.leader_pos is not None:
                state.leader_position = beat.leader_pos
            state.weight = max(state.weight, beat.weight)
            if beat.state is not None:
                state.cached_state = beat.state
                self._notify("on_state_update", state.type_name,
                             state.label, beat.state)
            now = self.sim._now
            state.last_label_hb_time = now
            self._receive_timer(state).kick()
            state.receive_deadline = now + state.config.receive_timeout
            if state.pending_via == "takeover":
                self.record("takeover_aborted", type=state.type_name,
                            label=state.label, leader=beat.leader)
            state.claim_timer.cancel()
            state.pending_via = None
            state.probe_round = 0
            if previous_leader != beat.leader:
                self._notify("on_leader_update", state.type_name,
                             state.label, beat.leader)
            self._maybe_forward(state, beat)
            return
        # A heavier label of the same type: ours is the spurious one
        # (same-stimulus groups only — see suppression_range).
        if not self._same_stimulus(state, beat):
            return
        if (beat.weight, beat.label) > (state.weight, state.label):
            self.record("switch_label", type=state.type_name,
                        old=state.label, new=beat.label)
            self._notify("on_member_leave", state.type_name, state.label)
            state.receive_timer.cancel()
            self._clear_group(state)
            self._adopt_group(state, beat)

    def _idle_hears_heartbeat(self, state: _TypeState,
                              beat: Heartbeat) -> None:
        if state.sensing:
            # We detect the condition and a group already exists: join it.
            self._become_member(state, beat.label, beat.leader, beat.weight,
                                beat.state)
            return
        # Not sensing: remember the nearby label so that if the entity
        # reaches us before the wait timer expires we extend its group
        # instead of minting a duplicate.
        self._remember(state, beat.label, beat.leader, beat.weight,
                       beat.state)
        self._maybe_forward_past_perimeter(state, beat)

    def _maybe_forward(self, state: _TypeState, beat: Heartbeat) -> None:
        """Intra-group flooding: each member rebroadcasts each new
        heartbeat once — "they flood the group to inform current members
        that a leader is alive".  The hop budget is preserved so the flood
        can continue ``h`` hops past the perimeter via non-members."""
        if not state.config.member_rebroadcast:
            return
        if not self._mark_forwarded(state, beat):
            return
        self._rebroadcast(state, beat, hops=beat.hops)

    def _maybe_forward_past_perimeter(self, state: _TypeState,
                                      beat: Heartbeat) -> None:
        """h-hop flooding past the group perimeter by non-members (§5.2;
        the paper defers evaluating it to future work — Ablation A)."""
        if beat.hops <= 0:
            return
        if not self._mark_forwarded(state, beat):
            return
        self._rebroadcast(state, beat, hops=beat.hops - 1)

    def _mark_forwarded(self, state: _TypeState, beat: Heartbeat) -> bool:
        last = state.forwarded_seq.get(beat.label, 0)
        if beat.seq <= last:
            return False
        state.forwarded_seq[beat.label] = beat.seq
        return True

    def _rebroadcast(self, state: _TypeState, beat: Heartbeat,
                     hops: int) -> None:
        forwarded = replace(beat, hops=hops, forwarded_by=self.node_id)
        delay = self._rng.uniform(0, REBROADCAST_JITTER)
        self.mote.schedule(
            delay, partial(self.broadcast,
                           tx_range=state.config.heartbeat_tx_range),
            HEARTBEAT_KIND, forwarded, label="gm.rebroadcast")

    # ------------------------------------------------------------------
    # Relinquish / claim
    # ------------------------------------------------------------------
    def _on_relinquish_frame(self, frame) -> None:
        message = frame.payload
        if not isinstance(message, Relinquish):
            return
        state = self._types.get(message.context_type)
        if state is None or message.leader == self.node_id:
            return
        if state.role is Role.MEMBER and state.label == message.label:
            state.weight = max(state.weight, message.weight)
            if message.state is not None:
                state.cached_state = message.state
            if state.sensing:
                # Contend to inherit leadership after a random delay; the
                # first claimant's heartbeat cancels the others.
                state.relinquish_time = self.now
                state.pending_via = "claim"
                delay = self._rng.uniform(0, CLAIM_WINDOW)
                self._claim_timer(state).start(delay)

    def _claim_fired(self, state: _TypeState) -> None:
        via = state.pending_via
        state.pending_via = None
        if state.role is not Role.MEMBER or state.label is None:
            return
        if not state.sensing:
            return
        if via == "takeover":
            self._takeover_step(state)
            return
        if state.last_hb_time > state.relinquish_time:
            return  # someone already claimed (their heartbeat reached us)
        label = state.label
        self.record("claim", type=state.type_name, label=label)
        state.receive_timer.cancel()
        self._notify("on_member_leave", state.type_name, label)
        self._become_leader(state, label, weight=state.weight,
                            inherited_state=state.cached_state, via="claim")

    # ------------------------------------------------------------------
    # Timer expiries
    # ------------------------------------------------------------------
    def _receive_expired(self, state: _TypeState) -> None:
        """Leader silence: take over leadership of the *same* label.

        With ``takeover_probes > 0`` the takeover is preceded by a short
        probe cycle: broadcast a LeaderQuery, wait a jittered fraction of
        the claim window, and usurp only if neither a defence heartbeat
        nor a fresh member vouch arrives.  Losing two consecutive
        heartbeats to channel noise is rare but not negligible; usurping
        on the spot made every such streak a duplicate-leader window.
        """
        if state.role is not Role.MEMBER or state.label is None:
            return
        if not state.sensing:
            # We should have left already (sensing check races the timer);
            # leave instead of taking over a label we cannot serve.
            self._member_stops_sensing(state)
            return
        if state.config.takeover_probes <= 0:
            self._takeover(state)
            return
        state.probe_round = 0
        state.probe_time = self.now
        self._takeover_step(state)

    def _takeover_step(self, state: _TypeState) -> None:
        """One probe round, or the takeover itself once rounds run out."""
        if state.probe_round >= state.config.takeover_probes:
            self._takeover(state)
            return
        state.probe_round += 1
        self._send_query(state)
        state.pending_via = "takeover"
        # Jittered so concurrent probers interleave; bounded well below
        # the claim window ceiling to keep the post-death takeover latency
        # within the relinquish-vs-takeover gap the tests assert.
        delay = self._rng.uniform(0.35, 1.0) * CLAIM_WINDOW
        self._claim_timer(state).start(delay)

    def _takeover(self, state: _TypeState) -> None:
        label = state.label
        assert label is not None
        self.record("takeover", type=state.type_name, label=label,
                    inherited_weight=state.weight)
        self._notify("on_member_leave", state.type_name, label)
        self._become_leader(state, label, weight=state.weight,
                            inherited_state=state.cached_state,
                            via="takeover")

    # ------------------------------------------------------------------
    # Liveness probes (takeover hardening)
    # ------------------------------------------------------------------
    def _send_query(self, state: _TypeState) -> None:
        assert state.label is not None
        query = LeaderQuery(context_type=state.type_name, label=state.label,
                            sender=self.node_id)
        self.record("probe", type=state.type_name, label=state.label,
                    round=state.probe_round)
        self.broadcast(QUERY_KIND, query,
                       tx_range=state.config.heartbeat_tx_range)

    def _on_query_frame(self, frame) -> None:
        query = frame.payload
        if not isinstance(query, LeaderQuery) or query.sender == self.node_id:
            return
        state = self._types.get(query.context_type)
        if state is None or state.label != query.label:
            return
        if state.role is Role.LEADER:
            # Alive after all: a defence heartbeat cancels the takeover
            # (and every other member's pending probe in one broadcast).
            self._defend(state)
            return
        if state.role is not Role.MEMBER:
            return
        # Vouch only for *direct*, reasonably fresh observations; stale
        # vouches would chain between simultaneously-expiring members and
        # stretch the takeover latency after a real death.
        cfg = state.config
        if state.last_label_hb_time < 0:
            return
        remaining = cfg.receive_timeout - (self.now - state.last_label_hb_time)
        if remaining < 0.25 * cfg.receive_timeout:
            return
        delay = self._rng.uniform(0, REBROADCAST_JITTER)
        self.mote.schedule(delay, self._send_vouch, state, state.label,
                           label="gm.vouch_reply")

    def _send_vouch(self, state: _TypeState, label: str) -> None:
        # Re-check at send time: our own state may have moved on during
        # the jitter delay.
        if (state.role is not Role.MEMBER or state.label != label
                or state.leader_id is None
                or state.last_label_hb_time < 0):
            return
        vouch = LeaderVouch(context_type=state.type_name, label=label,
                            leader=state.leader_id, weight=state.weight,
                            age=self.now - state.last_label_hb_time,
                            sender=self.node_id)
        self.broadcast(VOUCH_KIND, vouch,
                       tx_range=state.config.heartbeat_tx_range)

    def _on_vouch_frame(self, frame) -> None:
        vouch = frame.payload
        if not isinstance(vouch, LeaderVouch) or vouch.sender == self.node_id:
            return
        state = self._types.get(vouch.context_type)
        if state is None or state.role is not Role.MEMBER:
            return
        if state.label != vouch.label:
            return
        cfg = state.config
        # Age-discounted restart: trust the voucher's observation as if it
        # were our own, so the receive deadline never extends past
        # (last heartbeat anyone heard) + receive_timeout.  Only *extend*;
        # a stale vouch must not shrink a healthier deadline.
        candidate = (self.now - vouch.age) + cfg.receive_timeout
        extends = candidate > max(state.receive_deadline, self.now)
        if not extends:
            return
        if state.pending_via == "takeover":
            self.record("takeover_aborted", type=state.type_name,
                        label=state.label, voucher=vouch.sender)
        state.claim_timer.cancel()
        state.pending_via = None
        state.probe_round = 0
        self._receive_timer(state).start(candidate - self.now)
        state.receive_deadline = candidate
        state.weight = max(state.weight, vouch.weight)

    def _defend(self, state: _TypeState) -> None:
        """Immediate (rate-limited) heartbeat answering a liveness doubt."""
        if state.role is not Role.LEADER:
            return
        cfg = state.config
        if self.now - state.last_defence_time < 0.25 * cfg.heartbeat_period:
            return
        state.last_defence_time = self.now
        self.record("defend", type=state.type_name, label=state.label)
        self._send_heartbeat(state)

    def _wait_expired(self, state: _TypeState) -> None:
        """Memory of the nearby label fades; future stimuli mint new
        labels.  'The choice of the wait timer depends on how far to
        maintain memory of nearby events.'"""
        state.wait_memory = None

    # ------------------------------------------------------------------
    # Role transitions
    # ------------------------------------------------------------------
    def _become_leader(self, state: _TypeState, label: str, weight: int,
                       inherited_state: Optional[dict], via: str) -> None:
        state.role = Role.LEADER
        state.label = label
        state.leader_id = self.node_id
        state.weight = weight
        state.cached_state = inherited_state
        state.receive_timer.cancel()
        state.claim_timer.cancel()
        state.formation_timer.cancel()
        state.pending_via = None
        state.probe_round = 0
        if state.heartbeat_timer is None:
            state.heartbeat_timer = self.mote.periodic(
                state.config.heartbeat_period,
                partial(self._send_heartbeat, state),
                label=f"gm.heartbeat.{state.type_name}")
        state.heartbeat_timer.start(self._rng.uniform(0, ANNOUNCE_JITTER))
        self.record("leader_start", type=state.type_name, label=label,
                    via=via, weight=weight)
        self._notify("on_leader_start", state.type_name, label,
                     inherited_state, weight, via)

    def _stop_leading(self, state: _TypeState, reason: str) -> None:
        label = state.label
        assert label is not None
        state.heartbeat_timer.stop()
        state.role = Role.IDLE
        self.record("leader_stop", type=state.type_name, label=label,
                    reason=reason)
        self._notify("on_leader_stop", state.type_name, label, reason)

    def _become_member(self, state: _TypeState, label: str, leader: int,
                       weight: int, cached_state: Optional[dict]) -> None:
        state.formation_timer.cancel()
        state.role = Role.MEMBER
        state.label = label
        state.leader_id = leader
        state.leader_position = None
        state.weight = weight
        state.cached_state = cached_state
        self._receive_timer(state).kick()
        state.receive_deadline = self.now + state.config.receive_timeout
        state.last_label_hb_time = self.now
        state.pending_via = None
        state.probe_round = 0
        self.record("member_join", type=state.type_name, label=label,
                    leader=leader)
        self._notify("on_member_join", state.type_name, label, leader)

    def _adopt_group(self, state: _TypeState, beat: Heartbeat) -> None:
        """After yielding/suppression: join the surviving group if we still
        sense the entity, otherwise just remember it."""
        if state.sensing:
            self._become_member(state, beat.label, beat.leader, beat.weight,
                                beat.state)
        else:
            self._clear_group(state)
            self._remember(state, beat.label, beat.leader, beat.weight,
                           beat.state)

    def _clear_group(self, state: _TypeState) -> None:
        state.role = Role.IDLE
        state.label = None
        state.leader_id = None
        state.leader_position = None
        state.weight = 0
        state.cached_state = None
        state.pending_via = None
        state.probe_round = 0

    def _remember(self, state: _TypeState, label: str, leader: int,
                  weight: int, cached_state: Optional[dict]) -> None:
        state.wait_memory = _WaitMemory(label=label, leader=leader,
                                        weight=weight, state=cached_state)
        self._wait_timer(state).kick()

    def _same_stimulus(self, state: _TypeState, beat: Heartbeat) -> bool:
        """Could ``beat``'s label and ours track the same physical entity?

        True when the sending leader's position is within the configured
        suppression range (or the gate is disabled / position unknown —
        degrade to the paper's behavior, where radio reach itself implied
        proximity).
        """
        limit = state.config.suppression_range
        if limit is None or beat.leader_pos is None:
            return True
        return distance(self.mote.position, beat.leader_pos) <= limit

    # ------------------------------------------------------------------
    def _notify(self, method: str, *args: Any) -> None:
        for listener in self._listeners:
            getattr(listener, method)(*args)
