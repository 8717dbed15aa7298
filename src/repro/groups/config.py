"""Group-management tuning knobs and the constants behind them.

The paper's §6.2: "Best results are achieved when the receive and wait
timers ... are set to 2.1 and 4.2 times the leader heartbeat period
respectively."  Those ratios, the heartbeat period itself, the heartbeat
transmit range (the Figure 4 variable) and the flood hop count ``h`` are
the parameters every stress test sweeps, so they live on
:class:`GroupConfig`.  The protocol's internal delays and windows are
fixed, like the rest of the middleware, and are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: How often each node evaluates its sense_e() condition locally (s).
SENSE_PERIOD = 0.1
#: CPU cost of one sensing check (cheap ADC read + compare), seconds.
SENSE_COST = 0.0002
#: Random delay bound before a node forwards a heartbeat or answers a
#: liveness probe, de-synchronizing the flood (otherwise every member
#: rebroadcasts in the same slot and the copies collide).
REBROADCAST_JITTER = 0.05
#: Claim jitter window after a relinquish, to de-synchronize claimants;
#: also the ceiling of one liveness-probe round before a takeover.
CLAIM_WINDOW = 0.1
#: Listen-before-create window: a node that starts sensing with no wait
#: memory waits uniform(0, this) before minting a label, so that "a node
#: that senses the activation condition [and] has no neighbors detecting
#: the same condition" creates the label — concurrent first detectors
#: join the fastest creator's heartbeat instead of each minting a
#: duplicate.
FORMATION_WINDOW = 0.3
#: First-heartbeat delay window for a fresh leader (announce quickly).
ANNOUNCE_JITTER = 0.02


@dataclass(frozen=True)
class GroupConfig:
    """Parameters of the group management protocol for one context type."""

    #: Leader keep-alive period (seconds) — the Figure 5 x-axis.
    heartbeat_period: float = 0.5
    #: Receive timeout = ratio × heartbeat period ("more than twice longer
    #: ... to allow for message loss").
    receive_ratio: float = 2.1
    #: Wait timeout = ratio × heartbeat period (must exceed the receive
    #: timeout so takeovers beat spurious-label creation).
    wait_ratio: float = 4.2
    #: Transmit range for heartbeats (grid units); None = full radio range.
    #: Figure 4 contrasts "within sensing radius" vs "one hop past it".
    heartbeat_tx_range: Optional[float] = None
    #: Members rebroadcast each new heartbeat once — "they flood the group
    #: to inform current members that a leader is alive".  The flood is the
    #: dominant traffic source at small heartbeat periods (the Figure 5
    #: overload).  Disable to rely on the leader's single broadcast
    #: reaching the whole group ("a single message transmission may be
    #: enough to flood the group").
    member_rebroadcast: bool = True
    #: h — additional flood hops past the group perimeter, forwarded by
    #: non-members (§5.2; the paper leaves measuring it to future work,
    #: our Ablation A exercises it).
    flood_hops: int = 0
    #: Enable the leadership relinquish optimization (§6.2).
    relinquish: bool = True
    #: Maximum distance (grid units) between a node and a heard leader's
    #: position for *cross-label* decisions — spurious-label suppression
    #: and member label-switching.  Two same-type labels whose leaders are
    #: farther apart track physically separated entities and must remain
    #: distinct (§3.2.1's continuity invariant); without the gate, a
    #: heavier label would absorb every same-type group in radio range.
    #: ``None`` disables the gate (single-target deployments).  Size it
    #: near 2× the sensing radius: two labels can only claim the same
    #: stimulus if both their leaders sense it.
    suppression_range: Optional[float] = 2.5
    #: Maximum distance to a heard leader's position for *joining* its
    #: label or keeping wait-timer memory of it.  ``None`` (default) keeps
    #: the paper's behavior — any audible heartbeat seeds memory, which is
    #: what lets fast targets be re-acquired ahead of the group.  Set it
    #: (≈ 2× sensing radius) in multi-target deployments so a node sensing
    #: entity A never adopts nearby entity B's label.  This is the spatial
    #: face of the paper's wait-timer trade-off: "The choice of the wait
    #: timer depends on how far to maintain memory of nearby events."
    join_range: Optional[float] = None
    #: Liveness-probe rounds before a member with an expired receive timer
    #: usurps leadership.  Each round broadcasts a LeaderQuery; a defence
    #: heartbeat from the leader or a fresh-enough member vouch cancels the
    #: takeover.  This keeps a member that merely lost consecutive
    #: heartbeats to channel noise from minting a duplicate leader, at the
    #: cost of at most ``takeover_probes × CLAIM_WINDOW`` extra takeover
    #: latency after a real leader death.  0 restores the paper's
    #: immediate takeover.
    takeover_probes: int = 2

    def __post_init__(self) -> None:
        # ``not x > 0`` (never ``x <= 0``) so that NaN is rejected too.
        if not self.heartbeat_period > 0:
            raise ValueError(
                f"heartbeat period must be positive: {self.heartbeat_period}")
        if not self.receive_ratio > 1.0:
            raise ValueError(
                f"receive ratio must exceed 1: {self.receive_ratio}")
        if not self.wait_ratio > self.receive_ratio:
            raise ValueError(
                "wait ratio must exceed receive ratio "
                f"({self.wait_ratio} <= {self.receive_ratio})")
        if self.heartbeat_tx_range is not None and \
                not self.heartbeat_tx_range > 0:
            raise ValueError(
                "heartbeat tx range must be positive: "
                f"{self.heartbeat_tx_range}")
        if self.flood_hops < 0:
            raise ValueError(f"flood hops must be >= 0: {self.flood_hops}")
        for name in ("suppression_range", "join_range"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be >= 0: {value}")
        if self.takeover_probes < 0:
            raise ValueError(
                f"takeover probes must be >= 0: {self.takeover_probes}")

    @property
    def receive_timeout(self) -> float:
        return self.receive_ratio * self.heartbeat_period

    @property
    def wait_timeout(self) -> float:
        return self.wait_ratio * self.heartbeat_period

    def with_heartbeat_period(self, period: float) -> "GroupConfig":
        """The Figure 5 sweep helper: change the period, keep the ratios."""
        return replace(self, heartbeat_period=period)
