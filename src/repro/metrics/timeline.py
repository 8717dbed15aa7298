"""Time-series sampling of protocol state during a run.

A :class:`TimelineSampler` probes the deployment at a fixed period and
records, per sample: who leads each context type, group size (roles held
across the fleet), CPU backlog, and the target ground-truth positions.
Useful for debugging protocol dynamics ("when exactly did leadership move
ahead of the target?") and for rendering leadership timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..groups import Role
from ..sim import PeriodicTimer, Simulator


@dataclass
class TimelineSample:
    """One probe of the deployment's state."""

    time: float
    #: context type -> list of (node id, label) currently leading.
    leaders: Dict[str, List[Tuple[int, str]]]
    #: context type -> member count across the fleet.
    members: Dict[str, int]
    #: fleet-wide CPU backlog (queued tasks).
    cpu_backlog: int
    #: target name -> ground-truth position.
    targets: Dict[str, Tuple[float, float]]


class TimelineSampler:
    """Samples an :class:`EnviroTrackApp` deployment periodically.

    Create it *before* running::

        sampler = TimelineSampler(app, period=1.0)
        app.run(until=...)
        sampler.samples  # -> List[TimelineSample]
    """

    def __init__(self, app, period: float = 1.0) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive: {period}")
        self.app = app
        self.period = period
        self.samples: List[TimelineSample] = []
        self._timer = PeriodicTimer(app.sim, period, self._probe,
                                    label="timeline.sample",
                                    initial_delay=0.0)
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    def _probe(self) -> None:
        app = self.app
        leaders: Dict[str, List[Tuple[int, str]]] = {}
        members: Dict[str, int] = {}
        for node_id, agent in app.agents.items():
            for type_name in agent.context_types():
                role = agent.groups.role(type_name)
                if role is Role.LEADER:
                    label = agent.groups.label(type_name) or ""
                    leaders.setdefault(type_name, []).append(
                        (node_id, label))
                elif role is Role.MEMBER:
                    members[type_name] = members.get(type_name, 0) + 1
        backlog = sum(mote.cpu.backlog
                      for mote in app.field.mote_list() if mote.alive)
        targets = {target.name: target.position(app.sim.now)
                   for target in app.field.targets
                   if target.active_at(app.sim.now)}
        self.samples.append(TimelineSample(
            time=app.sim.now, leaders=leaders, members=members,
            cpu_backlog=backlog, targets=targets))

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def leadership_spans(self, context_type: str
                         ) -> List[Tuple[int, float, float]]:
        """(leader node, from, to) spans, merged over samples."""
        spans: List[Tuple[int, float, float]] = []
        current: Optional[int] = None
        span_start = 0.0
        last_time = 0.0
        for sample in self.samples:
            entries = sample.leaders.get(context_type, [])
            node = entries[0][0] if entries else None
            if node != current:
                if current is not None:
                    spans.append((current, span_start, sample.time))
                current = node
                span_start = sample.time
            last_time = sample.time
        if current is not None:
            spans.append((current, span_start, last_time))
        return spans

    def peak_cpu_backlog(self) -> int:
        return max((s.cpu_backlog for s in self.samples), default=0)

    def group_size_series(self, context_type: str
                          ) -> List[Tuple[float, int]]:
        """(time, members+leaders) series for one context type."""
        series = []
        for sample in self.samples:
            size = (sample.members.get(context_type, 0)
                    + len(sample.leaders.get(context_type, [])))
            series.append((sample.time, size))
        return series

    def duplicate_leader_times(self, context_type: str) -> List[float]:
        """Sample times at which more than one leader existed."""
        return [sample.time for sample in self.samples
                if len(sample.leaders.get(context_type, [])) > 1]
