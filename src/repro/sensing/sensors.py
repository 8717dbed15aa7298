"""Sensor models.

Each model is a factory returning a zero-argument read function suitable
for :meth:`repro.node.Mote.install_sensor`.  Read functions sample the
environment (the field's target list) at the current simulation time, so a
sensor is always consistent with where the targets really are.

Models provided:

* **binary detection** — true when any matching target's signature radius
  covers the node.  This is the testbed's light-sensor emulation: "the
  magnetic field of the target was emulated by moving a round object ...
  to block a strong light source from the appropriate sensors".
* **magnetic** — Honeywell-style magnetometer: disturbance proportional to
  ferrous mass, attenuated with the cube of distance (§6.1), thresholded
  for detection but also readable as a raw magnitude (the paper suggests
  proximity estimation from raw readings as future improvement).
* **scalar ambient** — temperature/light style readings with additive
  contributions from targets (used by the fire-monitoring example).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from .target import Target

Position = Tuple[float, float]
TargetSource = Callable[[], Sequence[Target]]
Clock = Callable[[], float]


def binary_detection_sensor(clock: Clock, position: Position,
                            targets: TargetSource,
                            kinds: Optional[Iterable[str]] = None
                            ) -> Callable[[], bool]:
    """True iff some (matching) target is within its signature radius.

    Each target's :meth:`~repro.sensing.target.Target.detection_window`
    and :meth:`~repro.sensing.target.Target.sure_detection_window` for
    ``position`` are computed on first sight and cached for the life of
    the sensor, keyed by target identity (targets are unhashable).  A
    read skips a target whose detection window does not hold the current
    time and runs the unchanged
    :meth:`~repro.sensing.target.Target.detectable_from` test otherwise.
    Exactness contract: the detection window is a filter, not an
    approximation — it never excludes a time at which the target is
    detectable, so every read returns the same boolean as testing every
    target.  A target's trajectory, radius and active window must
    therefore not change after it has been read.

    The read function carries ``quiet_until(t, reading)``: the earliest
    time ``>= t`` at which a read could return something other than
    ``reading``.  Every read strictly before that time returns
    ``reading``, as long as the target list does not change.  For
    ``False`` it is the earliest time some matching target's detection
    window holds (``t`` itself when one holds ``t``), or ``inf`` when
    none ever will.  For ``True`` it is just past the end of the union
    of sure windows that holds ``t``, or ``t`` itself when no sure
    window holds it.
    """
    kind_set = None if kinds is None else set(kinds)
    # id(target) -> (target, lo, hi, sure_lo, sure_hi); holding the
    # target keeps its id from being reused by another object while the
    # entry exists.
    windows: Dict[int, Tuple[Target, float, float, float, float]] = {}

    def window(target: Target) -> Tuple[Target, float, float, float, float]:
        entry = windows.get(id(target))
        if entry is None:
            entry = windows[id(target)] = (
                target, *target.detection_window(position),
                *target.sure_detection_window(position))
        return entry

    def read() -> bool:
        t = clock()
        for target in targets():
            if kind_set is not None and target.kind not in kind_set:
                continue
            _, lo, hi, _, _ = window(target)
            if lo <= t <= hi and target.detectable_from(position, t):
                return True
        return False

    def quiet_until(t: float, reading: bool) -> float:
        if reading:
            return sure_until(t)
        wake = math.inf
        for target in targets():
            if kind_set is not None and target.kind not in kind_set:
                continue
            _, lo, hi, _, _ = window(target)
            if hi < t or lo > hi:
                continue
            if lo <= t:
                return t
            wake = min(wake, lo)
        return wake

    def sure_until(t: float) -> float:
        sure = [window(target)[3:] for target in targets()
                if kind_set is None or target.kind in kind_set]
        end = None
        grown = True
        while grown:
            grown = False
            for lo, hi in sure:
                if (lo <= t <= hi if end is None else lo <= end < hi):
                    end = hi
                    grown = True
        return t if end is None else math.nextafter(end, math.inf)

    read.quiet_until = quiet_until  # type: ignore[attr-defined]
    return read


def magnetic_sensor(clock: Clock, position: Position,
                    targets: TargetSource,
                    noise_std: float = 0.0,
                    rng: Optional[random.Random] = None,
                    reference_mass: float = 1000.0,
                    reference_distance: float = 0.2
                    ) -> Callable[[], float]:
    """Raw magnetometer magnitude (arbitrary units).

    Each target with a ``ferrous_mass`` attribute contributes
    ``mass / reference_mass * (reference_distance / r)**3`` — the cube-law
    attenuation the paper uses to size the tank's detection radius.
    Distances are clamped below ``reference_distance`` to avoid the pole.
    """
    noise_rng = rng or random.Random(0)

    def read() -> float:
        t = clock()
        total = 0.0
        for target in targets():
            mass = target.attributes.get("ferrous_mass")
            if mass is None or not target.active_at(t):
                continue
            r = max(target.distance_to(position, t), reference_distance)
            total += (mass / reference_mass) * (reference_distance / r) ** 3
        if noise_std > 0:
            total += noise_rng.gauss(0.0, noise_std)
        return max(total, 0.0)

    return read


def threshold_detector(read_fn: Callable[[], float],
                       threshold: float) -> Callable[[], bool]:
    """Wrap a scalar sensor into a boolean detector."""

    def read() -> bool:
        return read_fn() >= threshold

    return read


def ambient_scalar_sensor(clock: Clock, position: Position,
                          targets: TargetSource, attribute: str,
                          ambient: float = 0.0,
                          noise_std: float = 0.0,
                          rng: Optional[random.Random] = None
                          ) -> Callable[[], float]:
    """Ambient + in-signature target contributions for ``attribute``.

    E.g. ``attribute="temperature"`` with a fire target carrying
    ``{"temperature": 400.0}`` reads 400 inside the fire and ``ambient``
    elsewhere (with optional Gaussian noise).
    """
    noise_rng = rng or random.Random(0)

    def read() -> float:
        t = clock()
        value = ambient
        for target in targets():
            contribution = target.attributes.get(attribute)
            if contribution is None:
                continue
            if target.detectable_from(position, t):
                value = max(value, float(contribution))
        if noise_std > 0:
            value += noise_rng.gauss(0.0, noise_std)
        return value

    return read


def position_sensor(position: Position) -> Callable[[], Position]:
    """The node's own (assumed known) location — the paper assumes
    location-aware nodes and routing throughout."""

    def read() -> Position:
        return position

    return read
