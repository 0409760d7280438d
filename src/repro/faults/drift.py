"""Time-scheduled drift scenarios injected mid-trace on a channel's calendar.

The fault models in :mod:`repro.faults.models` describe *static* damage:
an injector configured before the run perturbs every operation the same
way.  Real deployments also see **conditions that change while traffic is
in flight** — a package heating up, an external magnetic field sweeping
past, reference roll-off shifting as the device ages, a sense amplifier
whose trimmed offset walks away.  This module turns those into
deterministic, replayable *scenarios*: piecewise schedules of
(time, condition) samples, plain data that a channel's loop
(:meth:`~repro.service.controller.MemoryController.run`, given the
scenario as ``drift``) puts on its calendar, so the backend's physics
change at exact simulated instants — the same instants on every replay
of the same trace.

Two condition channels are modelled:

* ``sense_offset`` — extra input-referred sense-amplifier offset [V] in
  effect from the sample time onward (a step function between samples).
  It reuses the same mechanism as
  :class:`~repro.faults.models.SenseOffsetDrift` but is *scheduled*, not
  drawn: no RNG is consumed, so the sensing stream is untouched and a
  drifted run stays draw-for-draw comparable with an undrifted one.
* ``flip_fraction`` — a discrete disturbance strike at the sample time
  flipping that fraction of stored cells (an external-field pulse).
  Strikes draw from the backend's **dedicated drift RNG**
  (``strike_rng``), never from the sensing stream; the loop rejects a
  scenario with strikes on a backend without one before it runs.

Scenario builders cover the four mid-trace cases the testing literature
calls out: a temperature ramp (up, hold, back down), an external-field
disturbance window (offset plus a flip strike, then clears), an aging
roll-off shift (monotonic, permanent), and a sense-amp drift step.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

from repro.errors import ConfigurationError
from repro.obs import runtime as _obs

__all__ = [
    "DriftPoint",
    "DriftScenario",
    "temperature_ramp",
    "field_disturbance_window",
    "aging_rolloff_shift",
    "sense_amp_drift_step",
]


@dataclasses.dataclass(frozen=True)
class DriftPoint:
    """One sample of a drift schedule.

    Attributes
    ----------
    time:
        Absolute simulated time [s] the sample takes effect.
    sense_offset:
        Extra input-referred sense-amp offset [V] in effect from ``time``
        onward (replaces, not accumulates: the schedule is a step
        function).
    flip_fraction:
        Fraction of stored cells flipped **at** ``time`` (a one-shot
        disturbance strike; 0 for pure parametric drift).
    """

    time: float
    sense_offset: float
    flip_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0.0 or not math.isfinite(self.time):
            raise ConfigurationError(
                f"drift sample time must be finite and >= 0, got {self.time}"
            )
        if not math.isfinite(self.sense_offset):
            raise ConfigurationError("sense_offset must be finite")
        if not 0.0 <= self.flip_fraction <= 1.0:
            raise ConfigurationError(
                f"flip_fraction must be within [0, 1], got {self.flip_fraction}"
            )


@dataclasses.dataclass(frozen=True)
class DriftScenario:
    """A named, time-ordered schedule of :class:`DriftPoint` samples."""

    name: str
    points: Tuple[DriftPoint, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if not self.points:
            raise ConfigurationError("scenario must have at least one point")
        times = [point.time for point in self.points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                f"scenario {self.name!r} points must be time-ordered"
            )

    @property
    def needs_rng(self) -> bool:
        """True when any sample carries a flip strike."""
        return any(point.flip_fraction > 0.0 for point in self.points)

    @property
    def max_offset(self) -> float:
        """Largest |sense_offset| the schedule ever applies [V]."""
        return max(abs(point.sense_offset) for point in self.points)

    def offset_at(self, time: float) -> float:
        """Sense offset [V] in effect at ``time`` (0 before the first sample)."""
        offset = 0.0
        for point in self.points:
            if point.time > time:
                break
            offset = point.sense_offset
        return offset


def _ramp_points(start, duration, peak, steps, down):
    """Piecewise-linear ramp 0 → peak (and, if ``down``, back to 0)."""
    points = []
    up_span = duration / 2.0 if down else duration
    for index in range(1, steps + 1):
        points.append(DriftPoint(
            time=start + up_span * index / steps,
            sense_offset=peak * index / steps,
        ))
    if down:
        for index in range(1, steps + 1):
            points.append(DriftPoint(
                time=start + up_span + up_span * index / steps,
                sense_offset=peak * (1.0 - index / steps),
            ))
    return tuple(points)


def temperature_ramp(
    start: float,
    duration: float,
    peak_offset: float,
    steps: int = 8,
) -> DriftScenario:
    """A thermal excursion: offset ramps 0 → ``peak_offset`` → 0.

    Heating widens the resistance distributions and skews the sense-amp
    operating point; the input-referred proxy is a piecewise-linear
    offset ramp over the first half of ``duration`` and a symmetric
    recovery over the second half.
    """
    if duration <= 0.0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    return DriftScenario(
        name="temperature-ramp",
        points=_ramp_points(start, duration, peak_offset, steps, down=True),
    )


def field_disturbance_window(
    start: float,
    duration: float,
    offset: float,
    flip_fraction: float = 0.0,
) -> DriftScenario:
    """An external-field pulse: offset window plus an optional flip strike.

    The field shifts the sensed differential for as long as it is present
    and may flip a fraction of the stored free layers at onset; when the
    window closes the offset clears (the flips do not — they persist
    until a scrub rewrites the words).
    """
    if duration <= 0.0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    return DriftScenario(
        name="field-window",
        points=(
            DriftPoint(time=start, sense_offset=offset, flip_fraction=flip_fraction),
            DriftPoint(time=start + duration, sense_offset=0.0),
        ),
    )


def aging_rolloff_shift(
    start: float,
    duration: float,
    final_offset: float,
    steps: int = 6,
) -> DriftScenario:
    """Accelerated aging: the roll-off reference shifts and stays shifted.

    A monotonic piecewise ramp from 0 to ``final_offset`` over
    ``duration`` that never recovers — the degenerate limit of the
    survey's aging mechanisms compressed into one trace.
    """
    if duration <= 0.0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    return DriftScenario(
        name="rolloff-shift",
        points=_ramp_points(start, duration, final_offset, steps, down=False),
    )


def sense_amp_drift_step(time: float, offset: float) -> DriftScenario:
    """A sense-amp trim walking away in one step (persists forever)."""
    return DriftScenario(
        name="sense-step",
        points=(DriftPoint(time=time, sense_offset=offset),),
    )


def _apply_point(backend, point: DriftPoint, rng, scenario_name: str) -> None:
    """One sample at its instant: set the offset, strike from ``rng``."""
    backend.set_drift_offset(point.sense_offset)
    flipped = 0
    if point.flip_fraction > 0.0:
        flipped = backend.strike_flips(point.flip_fraction, rng)
    if _obs.active():
        registry = _obs.get_registry()
        registry.inc("faults.drift.events", scenario=scenario_name)
        registry.set_gauge(
            "faults.drift.sense_offset_mv",
            point.sense_offset * 1e3,
            scenario=scenario_name,
        )
        if flipped:
            registry.inc(
                "faults.injected_cells", flipped, kind="external-field"
            )

