"""Layer tracing for the benchmark's traced run.

:class:`LayerTracer` is a context manager that replaces public functions
of the simulator's layers with observing wrappers and puts every original
back on exit, also when the traced code raises.  The wrappers only read
clocks and counters: they never schedule events, draw random numbers or
write trace records, so a traced run's ``trace_digest`` equals the
untraced run's.

Each timed call becomes a span ``(name, start, end, parent)`` stored in
flat arrays (about 24 bytes a span).  Self time is computed online with a
stack: a span's self time is its duration minus the time of the wrapped
calls made inside it.  Frame handlers and timer callbacks are timed by
wrapping :meth:`Mote.register_handler`, :meth:`Mote.periodic`,
:meth:`Mote.watchdog` and :meth:`Mote.oneshot`, and are charged to a layer
by the prefix of their frame kind or timer label.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (AggregateStore, BaseStation, Cpu, DirectoryService,
                   EnviroTrackApp, GeoRouter, Medium, Mote, MtpAgent,
                   ObjectContext, Simulator)
from repro import metrics as repro_metrics
from repro import sim as repro_sim
from repro.experiments import runner, scenarios
from repro.sim.engine import TimerService

#: Frame-kind / timer-label prefix → layer.  First match wins, so the
#: aggregation data-collection timers are listed before the generic
#: ``etrack.`` middleware prefix.
PREFIX_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("gm.", "groups"),
    ("etrack.report", "aggregation"),
    ("etrack.selfreport", "aggregation"),
    ("etrack.", "core"),
    ("app.", "core"),
    ("geo.", "transport"),
    ("mtp.", "transport"),
    ("dir.", "naming"),
)

#: Analysis functions of :mod:`repro.metrics`, timed as the metrics layer.
#: They are patched both on the package and where the tank scenario runner
#: imported them.
ANALYSES = ("analyze_handovers", "tracking_coverage",
            "communication_metrics", "compare_track")


def layer_of(kind_or_label: str) -> str:
    """The layer a frame kind or timer label is charged to."""
    for prefix, layer in PREFIX_LAYERS:
        if kind_or_label.startswith(prefix):
            return layer
    return "other"


class LayerTracer:
    """Wraps the layers' public functions; records spans and counters.

    Use as ``with LayerTracer() as tracer: ...``; afterwards
    :meth:`raw` gives the additive per-layer quantities and
    :meth:`write_spans` writes the recorded spans.
    """

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._self_s: List[float] = []
        self._total_s: List[float] = []
        self._calls: List[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans: [span index, start, time of wrapped children].
        self._stack: List[list] = []
        self.counts: Dict[str, int] = {}
        self.sensing_bool_reads = 0
        self.sensing_hits = 0
        self.valid_reads = 0
        self.instances: Dict[type, List[Any]] = {}

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._name_ids[name] = nid
            self._names.append(name)
            self._self_s.append(0.0)
            self._total_s.append(0.0)
            self._calls.append(0)
        return nid

    def timed(self, fn: Callable[..., Any], name: str,
              observe: Optional[Callable[[Any], None]] = None
              ) -> Callable[..., Any]:
        """``fn`` wrapped to record one span per call under ``name``.

        ``observe`` (optional) receives each call's result.
        """
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        self_s, total_s, calls = self._self_s, self._total_s, self._calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [index, clock(), 0.0]
            span_start.append(frame[1])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[index] = end
                duration = end - frame[1]
                self_s[nid] += duration - frame[2]
                total_s[nid] += duration
                calls[nid] += 1
                if stack:
                    stack[-1][2] += duration
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _time_method(self, owner: Any, attr: str, name: str,
                     observe: Optional[Callable[[Any], None]] = None
                     ) -> None:
        self._patch(owner, attr,
                    self.timed(owner.__dict__[attr], name, observe))

    def _count_method(self, owner: Any, attr: str, counter: str) -> None:
        original = owner.__dict__[attr]
        counts = self.counts
        counts.setdefault(counter, 0)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _collect_instances(self, cls: type) -> None:
        original = cls.__dict__["__init__"]
        created = self.instances.setdefault(cls, [])

        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            created.append(obj)

        self._patch(cls, "__init__", init)

    def _wrap_callback_arg(self, owner: Any, attr: str, arg: str,
                           key_arg: str, prefix: str) -> None:
        """Time the callback argument ``arg`` of ``owner.attr``, naming
        its spans ``prefix + <value of key_arg>``."""
        original = owner.__dict__[attr]
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = str(bound.arguments[key_arg])
            bound.arguments[arg] = tracer.timed(
                bound.arguments[arg], f"{prefix}{key}")
            return original(*bound.args, **bound.kwargs)

        self._patch(owner, attr, wrapper)

    def _install(self) -> None:
        self._time_method(Simulator, "run", "sim.run")
        self._count_method(Simulator, "schedule_at", "sim.schedule_calls")
        self._count_method(TimerService, "arm", "sim.schedule_calls")
        self._time_method(Medium, "transmit", "radio.transmit")
        self._time_method(Medium, "channel_busy", "radio.channel_busy")
        self._time_method(Medium, "neighbors_of", "radio.neighbors_of")
        self._time_method(Cpu, "post", "node.cpu_post")
        self._time_method(Mote, "read_sensor", "sensing.read",
                          self._observe_reading)
        self._wrap_callback_arg(Mote, "register_handler", "handler", "kind",
                                "handler.")
        for attr in ("periodic", "watchdog", "oneshot"):
            self._wrap_callback_arg(Mote, attr, "callback", "label",
                                    "timer.")
        self._time_method(AggregateStore, "add_report",
                          "aggregation.add_report")
        self._time_method(AggregateStore, "read", "aggregation.read",
                          self._observe_aggregate)
        self._time_method(GeoRouter, "route_to_point", "transport.route")
        self._time_method(GeoRouter, "route_to_node", "transport.route")
        self._count_method(MtpAgent, "invoke", "transport.invokes")
        self._count_method(DirectoryService, "lookup", "naming.lookups")
        self._count_method(DirectoryService, "register", "naming.registers")
        self._time_method(EnviroTrackApp, "install", "core.install")
        self._count_method(ObjectContext, "my_send", "core.reports_sent")
        for cls in (Simulator, Medium, Cpu, GeoRouter, MtpAgent,
                    BaseStation):
            self._collect_instances(cls)
        for module in (repro_metrics, scenarios):
            for name in ANALYSES:
                self._time_method(module, name, "metrics.analysis")
        self._time_method(scenarios, "build_app", "core.build")
        for module in (repro_sim, runner):
            self._time_method(module, "trace_digest", "sim.trace_digest")
        self._time_method(repro_sim, "dump_trace", "sim.trace_dump")

    def _observe_reading(self, value: Any) -> None:
        if isinstance(value, bool):
            self.sensing_bool_reads += 1
            self.sensing_hits += value

    def _observe_aggregate(self, result: Any) -> None:
        self.valid_reads += bool(result.valid)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _sum(self, predicate: Callable[[str], bool],
             values: List[float]) -> float:
        return sum(value for name, value in zip(self._names, values)
                   if predicate(name))

    def self_s(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self._self_s[nid]

    def total_s(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self._total_s[nid]

    def calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self._calls[nid]

    def _handler_self_s(self, layer: str) -> float:
        def charged(name: str) -> bool:
            head, _, key = name.partition(".")
            return head in ("handler", "timer") and layer_of(key) == layer

        return self._sum(charged, self._self_s)

    def raw(self) -> Dict[str, float]:
        """Additive per-layer quantities (summed across runs; ``*_max``
        keys merge by maximum).  :func:`derive` turns them into the
        reported per-layer metrics."""
        sims = self.instances.get(Simulator, [])
        media = self.instances.get(Medium, [])
        cpus = self.instances.get(Cpu, [])
        routers = self.instances.get(GeoRouter, [])
        agents = self.instances.get(MtpAgent, [])
        bases = self.instances.get(BaseStation, [])
        attempts = sum(sum(m.stats.reception_attempts_by_kind.values())
                       for m in media)
        timeouts = 0.0
        for sim in sims:
            metric = sim.metrics.get("repro_dir_lookup_timeouts_total")
            if metric is not None:
                timeouts += metric.value()
        return {
            "sim.events": sum(sim.events_fired for sim in sims),
            "sim.run_s": self.total_s("sim.run"),
            "sim.dispatch_self_s": self.self_s("sim.run"),
            "sim.schedule_calls": self.counts.get("sim.schedule_calls", 0),
            "sim.compactions": sum(sim.compactions for sim in sims),
            "sim.trace_records": sum(len(sim.trace) for sim in sims),
            "sim.trace_digest_s": self.total_s("sim.trace_digest"),
            "sim.trace_dump_s": self.total_s("sim.trace_dump"),
            "radio.transmit_calls": self.calls("radio.transmit"),
            "radio.transmit_s": self.self_s("radio.transmit"),
            "radio.channel_busy_s": self.self_s("radio.channel_busy"),
            "radio.neighbors_of_calls": self.calls("radio.neighbors_of"),
            "radio.neighbors_of_s": self.self_s("radio.neighbors_of"),
            "radio.frames_sent": sum(m.stats.frames_sent for m in media),
            "radio.reception_attempts": attempts,
            "radio.reception_drops": sum(
                sum(m.stats.receptions_dropped.values()) for m in media),
            "radio.collisions": sum(m.stats.receptions_dropped["collision"]
                                    for m in media),
            "node.cpu_posts": self.calls("node.cpu_post"),
            "node.cpu_post_s": self.self_s("node.cpu_post"),
            "node.cpu_drops": sum(cpu.dropped for cpu in cpus),
            "node.cpu_util_max": max((cpu.utilization() for cpu in cpus),
                                     default=0.0),
            "node.cpu_executed": sum(cpu.executed for cpu in cpus),
            "node.cpu_latency_s": sum(cpu.total_latency for cpu in cpus),
            "sensing.reads": self.calls("sensing.read"),
            "sensing.read_s": self.self_s("sensing.read"),
            "sensing.bool_reads": self.sensing_bool_reads,
            "sensing.hits": self.sensing_hits,
            "groups.heartbeats": sum(m.stats.sent_by_kind["gm.heartbeat"]
                                     for m in media),
            "groups.handler_s": self._handler_self_s("groups"),
            "groups.labels_created": sum(
                1 for sim in sims for record in sim.trace
                if record.category == "gm.label_created"),
            "aggregation.add_report_calls": self.calls(
                "aggregation.add_report"),
            "aggregation.read_calls": self.calls("aggregation.read"),
            "aggregation.valid_reads": self.valid_reads,
            "aggregation.s": (self.self_s("aggregation.add_report")
                              + self.self_s("aggregation.read")
                              + self._handler_self_s("aggregation")),
            "transport.route_calls": self.calls("transport.route"),
            "transport.forwarded": sum(r.forwarded for r in routers),
            "transport.delivered": sum(r.delivered for r in routers),
            "transport.dead_ends": sum(r.dead_ends for r in routers),
            "transport.invokes": self.counts.get("transport.invokes", 0),
            "transport.retransmits": sum(a.retransmitted for a in agents),
            "transport.acks": sum(a.acked for a in agents),
            "transport.dead_letters": sum(a.dead_lettered for a in agents),
            "transport.handler_s": (self.self_s("transport.route")
                                    + self._handler_self_s("transport")),
            "naming.lookups": self.counts.get("naming.lookups", 0),
            "naming.registers": self.counts.get("naming.registers", 0),
            "naming.lookup_timeouts": timeouts,
            "naming.handler_s": self._handler_self_s("naming"),
            "core.install_s": self.total_s("core.install"),
            "core.build_s": self.total_s("core.build"),
            "core.reports_sent": self.counts.get("core.reports_sent", 0),
            "core.reports_received": sum(len(b.reports) for b in bases),
            "metrics.analysis_s": self.total_s("metrics.analysis"),
            "trace.spans": len(self.span_name),
        }

    def write_spans(self, path: str) -> int:
        """Write the spans as JSONL: a header line naming the span names,
        then one ``[name_id, start, end, parent]`` row per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self._names}) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                handle.write(json.dumps(row) + "\n")
        return len(self.span_name)


def merge_raw(parts: List[Dict[str, float]]) -> Dict[str, float]:
    """Combine :meth:`LayerTracer.raw` dicts from several runs."""
    merged: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key.endswith("_max"):
                merged[key] = max(merged.get(key, value), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(raw: Dict[str, float]) -> Dict[str, float]:
    """The reported per-layer metrics from merged raw quantities.

    Ratios with an empty base read 0.0 (for example
    ``aggregation.read_valid_frac`` on a workload without aggregates).
    """
    direct = ("sim.events", "sim.dispatch_self_s", "sim.schedule_calls",
              "sim.compactions", "sim.trace_records", "sim.trace_digest_s",
              "sim.trace_dump_s", "radio.transmit_calls", "radio.transmit_s",
              "radio.channel_busy_s", "radio.neighbors_of_calls",
              "radio.neighbors_of_s", "node.cpu_posts", "node.cpu_post_s",
              "node.cpu_drops", "node.cpu_util_max", "sensing.reads",
              "sensing.read_s", "groups.heartbeats", "groups.handler_s",
              "groups.labels_created", "aggregation.add_report_calls",
              "aggregation.read_calls", "aggregation.s",
              "transport.route_calls", "transport.dead_ends",
              "transport.invokes", "transport.retransmits", "transport.acks",
              "transport.dead_letters", "transport.handler_s",
              "naming.lookups", "naming.registers", "naming.lookup_timeouts",
              "naming.handler_s", "core.install_s", "core.reports_sent",
              "core.reports_received", "metrics.analysis_s", "trace.spans")
    out = {key: float(raw.get(key, 0.0)) for key in direct}
    attempts = raw.get("radio.reception_attempts", 0)
    out.update({
        "sim.events_per_s": _ratio(raw.get("sim.events", 0),
                                   raw.get("sim.run_s", 0)),
        "radio.receptions_per_tx": _ratio(attempts,
                                          raw.get("radio.frames_sent", 0)),
        "radio.drop_frac": _ratio(raw.get("radio.reception_drops", 0),
                                  attempts),
        "radio.collision_frac": _ratio(raw.get("radio.collisions", 0),
                                       attempts),
        "node.cpu_wait_mean_s": _ratio(raw.get("node.cpu_latency_s", 0),
                                       raw.get("node.cpu_executed", 0)),
        "sensing.hit_frac": _ratio(raw.get("sensing.hits", 0),
                                   raw.get("sensing.bool_reads", 0)),
        "aggregation.read_valid_frac": _ratio(
            raw.get("aggregation.valid_reads", 0),
            raw.get("aggregation.read_calls", 0)),
        "transport.hops_per_delivery": _ratio(
            raw.get("transport.forwarded", 0),
            raw.get("transport.delivered", 0)),
    })
    return out
