"""Aggregation function library.

Section 3.2.3: "Several aggregation functions are provided in the system,
such as average, sum, and center of gravity", plus "mechanisms for
programming custom aggregation functions".  This module is that library: a
registry of named reducers over the fresh readings of a sensor group.

Readings may be scalars or fixed-length tuples (positions); vector-aware
functions (``avg``, ``sum``, ``centroid``) aggregate component-wise.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Sequence, Tuple

Reading = Any
AggregationFn = Callable[[Sequence[Reading]], Any]


class AggregationError(ValueError):
    """Raised when an aggregation cannot be computed from its inputs."""


def _require_nonempty(values: Sequence[Reading], name: str) -> None:
    if not values:
        raise AggregationError(f"{name}() needs at least one reading")


def _is_vector(value: Reading) -> bool:
    return isinstance(value, (tuple, list))


def _component_wise(values: Sequence[Reading], name: str,
                    reduce_fn: Callable[[Sequence[float]], float]
                    ) -> Reading:
    """Apply ``reduce_fn`` per component for vectors, directly for scalars."""
    if _is_vector(values[0]):
        width = len(values[0])
        for v in values:
            if not _is_vector(v) or len(v) != width:
                raise AggregationError(
                    f"{name}(): mixed shapes {values[0]!r} vs {v!r}")
        return tuple(reduce_fn([v[i] for v in values])
                     for i in range(width))
    for v in values:
        if _is_vector(v):
            raise AggregationError(
                f"{name}(): mixed shapes {values[0]!r} vs {v!r}")
    return reduce_fn([float(v) for v in values])


def aggregate_avg(values: Sequence[Reading]) -> Reading:
    """Arithmetic mean (component-wise for vectors) — the Figure 2
    ``avg(position)`` aggregate."""
    _require_nonempty(values, "avg")
    return _component_wise(values, "avg", lambda xs: sum(xs) / len(xs))


def aggregate_sum(values: Sequence[Reading]) -> Reading:
    """Sum of readings (component-wise for vectors)."""
    _require_nonempty(values, "sum")
    return _component_wise(values, "sum", sum)


def aggregate_min(values: Sequence[Reading]) -> Reading:
    """Minimum reading (component-wise for vectors)."""
    _require_nonempty(values, "min")
    return _component_wise(values, "min", min)


def aggregate_max(values: Sequence[Reading]) -> Reading:
    """Maximum reading (component-wise for vectors)."""
    _require_nonempty(values, "max")
    return _component_wise(values, "max", max)


def aggregate_count(values: Sequence[Reading]) -> int:
    """Number of contributing readings (any type)."""
    return len(values)


def aggregate_median(values: Sequence[Reading]) -> Reading:
    """Median reading (component-wise for vectors)."""
    _require_nonempty(values, "median")

    def median(xs: Sequence[float]) -> float:
        ordered = sorted(xs)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    return _component_wise(values, "median", median)


def aggregate_stddev(values: Sequence[Reading]) -> Reading:
    """Population standard deviation."""
    _require_nonempty(values, "stddev")

    def stddev(xs: Sequence[float]) -> float:
        mean = sum(xs) / len(xs)
        return math.sqrt(sum((x - mean) ** 2 for x in xs) / len(xs))

    return _component_wise(values, "stddev", stddev)


def aggregate_centroid(values: Sequence[Reading]) -> Tuple[float, ...]:
    """Center of gravity of position readings (§3.2.3's example)."""
    _require_nonempty(values, "centroid")
    if not _is_vector(values[0]):
        raise AggregationError("centroid() needs vector readings")
    result = _component_wise(values, "centroid",
                             lambda xs: sum(xs) / len(xs))
    return tuple(result)


def aggregate_any(values: Sequence[Reading]) -> bool:
    """True when any reading is truthy (event confirmation)."""
    return any(bool(v) for v in values)


def aggregate_all(values: Sequence[Reading]) -> bool:
    return bool(values) and all(bool(v) for v in values)


class AggregationRegistry:
    """Named registry; scenario and DSL code look functions up by name."""

    def __init__(self) -> None:
        self._functions: Dict[str, AggregationFn] = {}

    def register(self, name: str, fn: AggregationFn,
                 replace: bool = False) -> None:
        if not replace and name in self._functions:
            raise ValueError(f"aggregation {name!r} already registered")
        self._functions[name] = fn

    def get(self, name: str) -> AggregationFn:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(
                f"unknown aggregation {name!r}; known: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._functions


def default_registry() -> AggregationRegistry:
    """The stock library shipped with the middleware."""
    registry = AggregationRegistry()
    registry.register("avg", aggregate_avg)
    registry.register("sum", aggregate_sum)
    registry.register("min", aggregate_min)
    registry.register("max", aggregate_max)
    registry.register("count", aggregate_count)
    registry.register("median", aggregate_median)
    registry.register("stddev", aggregate_stddev)
    registry.register("centroid", aggregate_centroid)
    registry.register("any", aggregate_any)
    registry.register("all", aggregate_all)
    return registry
