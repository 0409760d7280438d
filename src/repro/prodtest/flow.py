"""Single-die production test flow: measure → trim → repair → ECC → ship.

This is the die-level flow the wafer driver generalizes, kept here so the
whole production-test stack lives in one layer:

1. **measure** — per-bit margins of the die (Monte-Carlo stand-in for the
   tester's margin scan);
2. **trim** — pick the die's β maximizing the worst-bit margin (the
   paper's test-stage knob);
3. **repair** — allocate spare rows/columns over the remaining fail map;
4. **ECC screen** — any residual fails must sit at most one per SECDED
   word;
5. **ship/scrap** — the die ships iff steps 3–4 leave no uncovered fail.

:func:`run_test_flow` executes the flow for one die; :func:`yield_curve`
Monte-Carlos dies across a variation sweep, and
:func:`trim_skew_experiment` quantifies the β trim against systematic
divider skew — both previously private to the ablation benchmarks, now
part of the subsystem surface they belong to.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.array.repair import RepairPlan, allocate_repair
from repro.calibration.fit import CalibrationResult, calibrate
from repro.core.margins import population_nondestructive_margins
from repro.core.trim import TrimResult, trim_population_beta
from repro.device.variation import CellPopulation, VariationModel
from repro.errors import ConfigurationError

__all__ = [
    "DieResult",
    "TestFlowConfig",
    "run_test_flow",
    "yield_curve",
    "trim_skew_experiment",
]


@dataclasses.dataclass(frozen=True)
class TestFlowConfig:
    """Knobs of the production test flow."""

    #: Not a pytest test class despite the name (pytest collection hint).
    __test__ = False

    rows: int = 64
    columns: int = 64
    spare_rows: int = 2
    spare_columns: int = 2
    word_cells: int = 72          #: SECDED codeword span (row-major)
    required_margin: float = 8.0e-3
    trim: bool = True

    def __post_init__(self) -> None:
        if self.rows < 1 or self.columns < 1:
            raise ConfigurationError("die dimensions must be positive")
        if self.spare_rows < 0 or self.spare_columns < 0:
            raise ConfigurationError("spare counts must be non-negative")
        if self.word_cells < 1:
            raise ConfigurationError("word_cells must be >= 1")

    @property
    def bits(self) -> int:
        """Cells per die."""
        return self.rows * self.columns


@dataclasses.dataclass(frozen=True)
class DieResult:
    """Outcome of testing one die."""

    ships: bool
    fails_before_trim: int
    fails_after_trim: int
    trim: Optional[TrimResult]
    repair: RepairPlan
    ecc_covered_fails: int     #: residual fails absorbed by SECDED
    uncovered_fails: int       #: fails nothing could cover (scrap cause)


def _fail_mask(population: CellPopulation, beta: float, config: TestFlowConfig):
    sm0, sm1 = population_nondestructive_margins(population, 200e-6, beta)
    return np.minimum(sm0, sm1) <= config.required_margin


def run_test_flow(
    population: CellPopulation,
    config: Optional[TestFlowConfig] = None,
    calibration: Optional[CalibrationResult] = None,
) -> DieResult:
    """Run the full test flow on one die's sampled population."""
    if config is None:
        config = TestFlowConfig()
    if population.size != config.bits:
        raise ConfigurationError(
            f"population of {population.size} bits does not match the "
            f"{config.rows}x{config.columns} die"
        )
    if calibration is None:
        calibration = calibrate()

    nominal_beta = calibration.beta_nondestructive
    fails_before = int(_fail_mask(population, nominal_beta, config).sum())

    trim_result: Optional[TrimResult] = None
    beta = nominal_beta
    if config.trim:
        trim_result = trim_population_beta(
            population, required_margin=config.required_margin
        )
        beta = trim_result.beta
    mask = _fail_mask(population, beta, config)
    fails_after = int(mask.sum())

    plan = allocate_repair(
        mask, config.rows, config.columns, config.spare_rows, config.spare_columns
    )

    # Residual fails after repair: reconstruct which bits the spares covered.
    grid = mask.reshape(config.rows, config.columns).copy()
    for row in plan.spare_rows_used:
        grid[row, :] = False
    for column in plan.spare_columns_used:
        grid[:, column] = False
    residual = grid.reshape(-1)
    usable = (residual.size // config.word_cells) * config.word_cells
    per_word = residual[:usable].reshape(-1, config.word_cells).sum(axis=1)
    tail = residual[usable:]
    ecc_covered = int((per_word == 1).sum()) + int(tail.sum() == 1)
    uncovered = int((per_word >= 2).sum()) + (int(tail.sum()) if tail.sum() >= 2 else 0)

    return DieResult(
        ships=(uncovered == 0),
        fails_before_trim=fails_before,
        fails_after_trim=fails_after,
        trim=trim_result,
        repair=plan,
        ecc_covered_fails=ecc_covered,
        uncovered_fails=uncovered,
    )


def yield_curve(
    variation_scales,
    dies_per_point: int = 8,
    config: Optional[TestFlowConfig] = None,
    base_variation: Optional[VariationModel] = None,
    seed: int = 42,
) -> List[dict]:
    """Monte-Carlo the shipping yield across a variation sweep.

    Returns one record per scale: ``{"scale", "yield", "mean_fails",
    "mean_spares"}``.
    """
    from repro.array.testchip import TESTCHIP_VARIATION

    if dies_per_point < 1:
        raise ConfigurationError("dies_per_point must be >= 1")
    if config is None:
        config = TestFlowConfig()
    if base_variation is None:
        base_variation = TESTCHIP_VARIATION
    calibration = calibrate()
    rng = np.random.default_rng(seed)

    records = []
    for scale in variation_scales:
        variation = base_variation.scaled(float(scale))
        shipped = 0
        fails = 0
        spares = 0
        for _ in range(dies_per_point):
            population = calibration.population(
                config.bits, variation, rng
            )
            die = run_test_flow(population, config, calibration)
            shipped += int(die.ships)
            fails += die.fails_after_trim
            spares += die.repair.spares_used
        records.append(
            {
                "scale": float(scale),
                "yield": shipped / dies_per_point,
                "mean_fails": fails / dies_per_point,
                "mean_spares": spares / dies_per_point,
            }
        )
    return records


def trim_skew_experiment(
    calibration: Optional[CalibrationResult] = None,
    alpha_skews: Sequence[float] = (-0.06, -0.03, 0.0, +0.03, +0.06),
    bits: int = 2048,
    seed: int = 5,
) -> List[Tuple[float, float, TrimResult]]:
    """The paper's §V test-stage compensation, quantified per lot.

    For each systematic divider skew: sample a lot (fresh ``seed`` per
    skew so lots differ only by the skew), apply the skew, and report the
    worst-bit margin before and after the β trim as
    ``(skew, untrimmed_margin, trim_result)`` tuples.
    """
    if calibration is None:
        calibration = calibrate()
    results = []
    for skew in alpha_skews:
        rng = np.random.default_rng(seed)
        population = calibration.population(
            bits,
            VariationModel(sigma_alpha_frac=0.005, sigma_beta_frac=0.0),
            rng,
        )
        population.alpha_deviation = population.alpha_deviation + skew
        sm0, sm1 = population_nondestructive_margins(
            population, 200e-6, calibration.beta_nondestructive
        )
        untrimmed = float(np.min(np.minimum(sm0, sm1)))
        trim = trim_population_beta(population)
        results.append((float(skew), untrimmed, trim))
    return results
