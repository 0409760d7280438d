"""Least-squares fit of the roll-off model to the paper's operating points.

Free parameters (everything else is pinned by the recovered Table I):

* ``p_high``/``knee_high`` — shape of the high-state (rational) roll-off;
* ``p_low`` — exponent of the low-state (power-law) roll-off;
* ``dr_low_max`` — low-state roll-off magnitude [Ω] (the paper only says it
  is "close to zero").

Residuals: the deviations of both schemes' *numerically optimized*
(β, max-sense-margin) pairs from the paper's
(1.22, 76.6 mV) and (2.13, 12.1 mV).  Four residuals, four parameters —
but the targets are slightly over-determined for any single smooth device
(the two schemes' published numbers imply mildly inconsistent low-state
roll-offs), so the fit lands within ~2% on the betas and ~0.05% on the
margins; EXPERIMENTS.md records the achieved values.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Tuple

import numpy as np
from scipy.optimize import least_squares

from repro.calibration.targets import PAPER_TARGETS, PaperTargets
from repro.core.cell import Cell1T1J
from repro.core.optimize import optimize_beta_destructive, optimize_beta_nondestructive
from repro.device.mtj import MTJDevice, MTJParams
from repro.device.rolloff import PowerLawRollOff, RationalRollOff
from repro.device.transistor import FixedResistanceTransistor
from repro.device.variation import CellPopulation, VariationModel
from repro.errors import ConvergenceError

__all__ = ["CalibrationResult", "calibrate", "calibrated_device", "calibrated_cell"]


@dataclasses.dataclass(frozen=True)
class CalibrationResult:
    """Fitted device model and the achieved operating points."""

    params: MTJParams
    p_high: float
    knee_high: float
    p_low: float
    beta_destructive: float
    margin_destructive: float
    beta_nondestructive: float
    margin_nondestructive: float
    residual_norm: float

    def rolloff_high(self) -> RationalRollOff:
        """The fitted high-state roll-off shape."""
        return RationalRollOff(self.p_high, self.knee_high)

    def rolloff_low(self) -> PowerLawRollOff:
        """The fitted low-state roll-off shape."""
        return PowerLawRollOff(self.p_low)

    def device(self, **device_kwargs) -> MTJDevice:
        """Instantiate the calibrated MTJ."""
        return MTJDevice(
            self.params,
            rolloff_high=self.rolloff_high(),
            rolloff_low=self.rolloff_low(),
            **device_kwargs,
        )

    def cell(self, r_transistor: float = 917.0) -> Cell1T1J:
        """Instantiate the calibrated 1T1J cell."""
        return Cell1T1J(self.device(), FixedResistanceTransistor(r_transistor))

    def population(
        self,
        size: int,
        variation: VariationModel,
        rng: np.random.Generator,
        r_tr_nominal: float = 917.0,
    ) -> CellPopulation:
        """Draw ``size`` calibrated bits under ``variation`` from ``rng``
        (:meth:`CellPopulation.sample` with the fitted device)."""
        return CellPopulation.sample(
            size,
            variation,
            params=self.params,
            rolloff_high=self.rolloff_high(),
            rolloff_low=self.rolloff_low(),
            rng=rng,
            r_tr_nominal=r_tr_nominal,
        )


def _build_cell(
    targets: PaperTargets,
    p_high: float,
    knee_high: float,
    p_low: float,
    dr_low_max: float,
) -> Cell1T1J:
    params = MTJParams(
        r_low=targets.r_low,
        r_high=targets.r_high,
        dr_low_max=dr_low_max,
        dr_high_max=targets.dr_high_max,
        i_read_max=targets.i_read_max,
        i_c0=targets.i_switching,
        pulse_width_write=targets.write_pulse_width,
    )
    device = MTJDevice(
        params,
        rolloff_high=RationalRollOff(p_high, knee_high),
        rolloff_low=PowerLawRollOff(p_low),
    )
    return Cell1T1J(device, FixedResistanceTransistor(targets.r_transistor))


def _operating_points(
    cell: Cell1T1J, targets: PaperTargets
) -> Tuple[float, float, float, float]:
    destructive = optimize_beta_destructive(cell, targets.i_read_max)
    nondestructive = optimize_beta_nondestructive(
        cell, targets.i_read_max, alpha=targets.alpha
    )
    return (
        destructive.beta,
        destructive.max_sense_margin,
        nondestructive.beta,
        nondestructive.max_sense_margin,
    )


@functools.lru_cache(maxsize=8)
def calibrate(targets: PaperTargets = PAPER_TARGETS) -> CalibrationResult:
    """Fit (p_high, knee_high, p_low, dr_low_max) so both schemes hit the
    paper's optimized operating points.  Cached — the fit is deterministic.
    """

    def residuals(x: np.ndarray) -> np.ndarray:
        p_high, knee_high, p_low, dr_low_max = x
        try:
            cell = _build_cell(targets, p_high, knee_high, p_low, dr_low_max)
            beta_d, margin_d, beta_n, margin_n = _operating_points(cell, targets)
        except (ConvergenceError, ValueError):
            return np.array([10.0, 10.0, 10.0, 10.0])
        # Scale so a 0.01 beta error weighs like a 0.1 mV margin error.
        return np.array(
            [
                (beta_d - targets.beta_destructive) / 0.01,
                (margin_d - targets.margin_destructive) / 1e-4,
                (beta_n - targets.beta_nondestructive) / 0.01,
                (margin_n - targets.margin_nondestructive) / 1e-4,
            ]
        )

    fit = least_squares(
        residuals,
        x0=np.array([1.2, 2.0, 0.8, 60.0]),
        bounds=(
            np.array([0.3, 0.02, 0.05, 0.0]),
            np.array([4.0, 500.0, 4.0, 400.0]),
        ),
        xtol=1e-12,
        ftol=1e-12,
    )
    p_high, knee_high, p_low, dr_low_max = fit.x
    cell = _build_cell(targets, p_high, knee_high, p_low, dr_low_max)
    beta_d, margin_d, beta_n, margin_n = _operating_points(cell, targets)
    return CalibrationResult(
        params=cell.mtj.params,
        p_high=float(p_high),
        knee_high=float(knee_high),
        p_low=float(p_low),
        beta_destructive=beta_d,
        margin_destructive=margin_d,
        beta_nondestructive=beta_n,
        margin_nondestructive=margin_n,
        residual_norm=float(np.linalg.norm(fit.fun)),
    )


def calibrated_device(targets: PaperTargets = PAPER_TARGETS) -> MTJDevice:
    """The calibrated MTJ device (convenience wrapper)."""
    return calibrate(targets).device()


def calibrated_cell(targets: PaperTargets = PAPER_TARGETS) -> Cell1T1J:
    """The calibrated 1T1J cell with the paper's 917 Ω transistor."""
    return calibrate(targets).cell(r_transistor=targets.r_transistor)
