"""Context type and tracking object declarations.

These are the programmer-facing declarations of §3.2/§4: a *context type*
names a class of trackable entities (``tracker``, ``FIRE``), and declares

* the **activation condition** — ``sense_e()``, a boolean over local
  sensory measurements that defines group membership;
* optionally a **deactivation condition** (defaults to the inverse of the
  activation condition, footnote 1 of the paper);
* the **aggregate state variables** with their freshness and critical-mass
  QoS attributes;
* the **attached objects** whose methods run on the group leader, invoked
  by timers, by aggregate-state conditions, or by MTP messages.

Both the Python API and the EnviroTrack DSL compiler produce these
structures; the middleware agent consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..aggregation import AggregateVarSpec
from ..groups import GroupConfig

#: An activation/deactivation condition: either the name of a boolean
#: sensor installed on the motes, or a callable over the mote itself.
Condition = Union[str, Callable[..., bool]]


@dataclass(frozen=True)
class TimerInvocation:
    """``invocation: TIMER(5s)`` — run the method periodically."""

    period: float

    def __post_init__(self) -> None:
        if not self.period > 0:
            raise ValueError(f"timer period must be positive: {self.period}")


@dataclass(frozen=True)
class WhenInvocation:
    """Run the method when a predicate over aggregate state holds.

    The predicate receives the method's :class:`ObjectContext` and is
    polled every ``poll_period`` seconds on the leader.  ``edge_triggered``
    fires only on false→true transitions (default), matching the intuition
    of "invoke when the condition becomes true".
    """

    predicate: Callable[[Any], bool]
    poll_period: float = 0.5
    edge_triggered: bool = True

    def __post_init__(self) -> None:
        if not self.poll_period > 0:
            raise ValueError(
                f"poll period must be positive: {self.poll_period}")


@dataclass(frozen=True)
class PortInvocation:
    """Run the method when an MTP invocation arrives on ``port``."""

    port: int

    def __post_init__(self) -> None:
        if self.port < 0:
            raise ValueError(f"port must be >= 0: {self.port}")


Invocation = Union[TimerInvocation, WhenInvocation, PortInvocation]


@dataclass(frozen=True)
class MethodDef:
    """One method of a tracking object.

    ``body`` receives the :class:`repro.core.runtime.ObjectContext`;
    port-invoked methods additionally receive
    ``(args, src_label, src_port)``.
    """

    name: str
    invocation: Invocation
    body: Callable[..., None]


@dataclass(frozen=True)
class TrackingObjectDef:
    """An object attached to a context type (executed on group leaders).

    ``data`` declares object-local variables with initial values (the
    Appendix A ``data declaration``); they seed the object context's
    ``locals`` whenever a node becomes the label's leader.
    """

    name: str
    methods: tuple
    data: tuple

    def __init__(self, name: str, methods: List[MethodDef],
                 data: Optional[Dict[str, Any]] = None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "methods", tuple(methods))
        object.__setattr__(self, "data",
                           tuple((data or {}).items()))
        seen = set()
        for method in self.methods:
            if method.name in seen:
                raise ValueError(
                    f"duplicate method {method.name!r} in object {name!r}")
            seen.add(method.name)

    def initial_data(self) -> Dict[str, Any]:
        return dict(self.data)


@dataclass
class ContextTypeDef:
    """Full declaration of one context type.

    Parameters
    ----------
    name:
        The context type name (``tracker`` in Figure 2).
    activation:
        ``sense_e()`` — boolean sensor name or ``callable(mote) -> bool``.
    aggregates:
        Aggregate state variable specs (each with confidence + freshness).
    objects:
        Attached tracking objects.
    deactivation:
        Optional explicit deactivation condition; when given, a node stays
        in the group until it fires (hysteresis).  Defaults to the inverse
        of ``activation``.
    group:
        Group management configuration for this type.
    delay_estimate:
        ``d`` in ``P_e = L_e − d``: bound on in-group delivery + processing
        delay used to derive the member report period.
    report_size_bits:
        On-air size of member report frames.
    directory_update_period:
        How often a leader refreshes the label's directory entry; ``None``
        disables directory registration for this type.
    """

    name: str
    activation: Condition
    aggregates: List[AggregateVarSpec] = field(default_factory=list)
    objects: List[TrackingObjectDef] = field(default_factory=list)
    deactivation: Optional[Condition] = None
    group: GroupConfig = field(default_factory=GroupConfig)
    delay_estimate: float = 0.1
    report_size_bits: int = 36 * 8
    directory_update_period: Optional[float] = 10.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("context type needs a name")
        if not self.delay_estimate >= 0:
            raise ValueError(
                f"delay estimate must be >= 0: {self.delay_estimate}")
        names = [spec.name for spec in self.aggregates]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate aggregate variable in {self.name!r}")
        object_names = [obj.name for obj in self.objects]
        if len(object_names) != len(set(object_names)):
            raise ValueError(f"duplicate object name in {self.name!r}")

    def aggregate(self, name: str) -> AggregateVarSpec:
        for spec in self.aggregates:
            if spec.name == name:
                return spec
        raise KeyError(f"context {self.name!r} has no aggregate {name!r}")

    def ports(self) -> Dict[int, MethodDef]:
        """Port → method map for MTP registration."""
        mapping: Dict[int, MethodDef] = {}
        for obj in self.objects:
            for method in obj.methods:
                if isinstance(method.invocation, PortInvocation):
                    port = method.invocation.port
                    if port in mapping:
                        raise ValueError(
                            f"port {port} bound twice in {self.name!r}")
                    mapping[port] = method
        return mapping
