"""Resistance roll-off models: how much of the maximum resistance drop an MTJ
state exhibits at a given read current.

The nondestructive self-reference scheme of the paper rests entirely on the
observation (paper Fig. 2) that the *anti-parallel* (high) state's resistance
rolls off steeply with read current while the *parallel* (low) state is
almost flat.  We capture the curve shape with a dimensionless *roll-off
fraction* ``f(x)``, where ``x = |I| / I_max``:

    R_state(I) = R_state(0) - dR_max_state * f(|I| / I_max)

subject to ``f(0) = 0``, ``f(1) = 1`` and monotone non-decreasing.  Different
concrete shapes are provided; the calibration package fits the shape
parameters so that the paper's Table I/II operating points are reproduced.

All models accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "RollOffModel",
    "PowerLawRollOff",
    "RationalRollOff",
    "TabulatedRollOff",
]


class RollOffModel(abc.ABC):
    """Dimensionless resistance roll-off curve ``f(x)`` on ``x >= 0``."""

    @abc.abstractmethod
    def fraction(self, current_ratio):
        """Return ``f(x)`` for ``x = |I|/I_max`` (scalar or array).

        Must satisfy ``f(0) == 0`` and ``f(1) == 1``; values for ``x > 1``
        extrapolate monotonically (sweeps may slightly exceed ``I_max``).
        An array result is a new float array the caller owns (the
        population margins evaluate the resistance drop into it).
        """

    def derivative(self, current_ratio, step: float = 1e-6):
        """Numerical derivative ``df/dx`` (central difference).

        Concrete models may override with an analytic form.
        """
        x = np.asarray(current_ratio, dtype=float)
        lo = np.clip(x - step, 0.0, None)
        hi = x + step
        return (self.fraction(hi) - self.fraction(lo)) / (hi - lo)

    def validate(self, samples: int = 257, tolerance: float = 1e-9) -> None:
        """Raise :class:`ConfigurationError` if the curve violates the
        boundary or monotonicity contracts on ``[0, 1]``."""
        grid = np.linspace(0.0, 1.0, samples)
        values = np.asarray(self.fraction(grid), dtype=float)
        if abs(values[0]) > tolerance:
            raise ConfigurationError(f"roll-off fraction f(0) = {values[0]!r}, expected 0")
        if abs(values[-1] - 1.0) > tolerance:
            raise ConfigurationError(f"roll-off fraction f(1) = {values[-1]!r}, expected 1")
        if np.any(np.diff(values) < -tolerance):
            raise ConfigurationError("roll-off fraction must be monotone non-decreasing")


class PowerLawRollOff(RollOffModel):
    """``f(x) = x ** exponent``.

    ``exponent = 1`` gives a linear roll-off; ``exponent = 2`` matches the
    parabolic bias dependence of tunnel conductance at small bias.
    """

    def __init__(self, exponent: float = 1.0):
        if exponent <= 0.0:
            raise ConfigurationError(f"power-law exponent must be > 0, got {exponent}")
        self.exponent = float(exponent)

    def fraction(self, current_ratio):
        x = np.abs(np.asarray(current_ratio, dtype=float))
        if np.ndim(current_ratio) == 0:
            return float(np.power(x, self.exponent))
        return np.power(x, self.exponent, out=x)

    def derivative(self, current_ratio, step: float = 1e-6):
        x = np.abs(np.asarray(current_ratio, dtype=float))
        result = self.exponent * np.power(x, self.exponent - 1.0, where=x > 0, out=np.zeros_like(x))
        if self.exponent < 1.0:
            result = np.where(x == 0.0, np.inf, result)
        if np.ndim(current_ratio) == 0:
            return float(result)
        return result

    def __repr__(self) -> str:
        return f"PowerLawRollOff(exponent={self.exponent:.4g})"


class RationalRollOff(RollOffModel):
    """Saturating rational roll-off ``f(x) = (1 + c) x^p / (c + x^p)``.

    Models a tunnel-magnetoresistance collapse that saturates at high bias:
    steep initial drop for small ``c``, close to a power law for large ``c``.
    """

    def __init__(self, exponent: float = 2.0, knee: float = 1.0):
        if exponent <= 0.0:
            raise ConfigurationError(f"exponent must be > 0, got {exponent}")
        if knee <= 0.0:
            raise ConfigurationError(f"knee must be > 0, got {knee}")
        self.exponent = float(exponent)
        self.knee = float(knee)

    def fraction(self, current_ratio):
        x = np.abs(np.asarray(current_ratio, dtype=float))
        if np.ndim(current_ratio) == 0:
            xp = np.power(x, self.exponent)
            return float((1.0 + self.knee) * xp / (self.knee + xp))
        xp = np.power(x, self.exponent, out=x)
        denominator = np.add(self.knee, xp)
        np.multiply(1.0 + self.knee, xp, out=xp)
        return np.divide(xp, denominator, out=xp)

    def __repr__(self) -> str:
        return f"RationalRollOff(exponent={self.exponent:.4g}, knee={self.knee:.4g})"


class TabulatedRollOff(RollOffModel):
    """Roll-off defined by measured ``(x, f)`` samples with monotone (PCHIP)
    interpolation — the direct stand-in for digitizing the paper's Fig. 2.
    """

    def __init__(self, ratios: Sequence[float], fractions: Sequence[float]):
        x = np.asarray(ratios, dtype=float)
        y = np.asarray(fractions, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ConfigurationError("need matching 1-D ratio/fraction arrays with >= 2 points")
        if np.any(np.diff(x) <= 0):
            raise ConfigurationError("ratios must be strictly increasing")
        if np.any(np.diff(y) < 0):
            raise ConfigurationError("fractions must be non-decreasing")
        if x[0] != 0.0 or abs(y[0]) > 1e-12:
            raise ConfigurationError("table must start at (0, 0)")
        if x[-1] < 1.0:
            raise ConfigurationError("table must cover x = 1")
        # Normalize so that f(1) == 1 even if the table is given in ohms.
        from scipy.interpolate import PchipInterpolator

        interp = PchipInterpolator(x, y, extrapolate=False)
        scale = float(interp(1.0))
        if scale <= 0.0:
            raise ConfigurationError("table must have positive roll-off at x = 1")
        self._x = x
        self._y = y / scale
        self._interp = PchipInterpolator(x, self._y, extrapolate=False)
        self._end_slope = float(self._interp.derivative()(x[-1]))

    def fraction(self, current_ratio):
        x = np.abs(np.asarray(current_ratio, dtype=float))
        inside = np.clip(x, 0.0, self._x[-1])
        values = self._interp(inside)
        # Linear extrapolation beyond the last tabulated point.
        overflow = x > self._x[-1]
        if np.any(overflow):
            values = np.where(
                overflow,
                self._interp(self._x[-1]) + self._end_slope * (x - self._x[-1]),
                values,
            )
        if np.ndim(current_ratio) == 0:
            return float(values)
        return values

    def __repr__(self) -> str:
        return f"TabulatedRollOff(points={len(self._x)})"
