"""The 16kb test-chip experiment (paper §V, Fig. 11).

The paper fabricated a 16kb STT-RAM test chip (TSMC 0.13 µm, 128 cells per
bit line), measured every bit's sense margin under the three schemes, and
found: with the auto-zero sense amplifiers needing about 8 mV, about 1% of
bits fail under conventional (shared-reference) sensing, while **both**
self-reference schemes read every bit correctly.

Our substitute: a Monte-Carlo population with the calibrated device, the
paper's motivating 8%-per-0.1 Å oxide sensitivity, a shared-reference error
for the conventional scheme (its reference comes from reference MTJ cells
subject to the same variation — the error source self-referencing removes),
read-current ratio and divider ratio *trimmed at test* (the paper: "the
current ratio β of the read-current driver can be adjusted in the testing
stage to compensate the voltage ratio α variation"), and the 8 mV pass/fail
window.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.array.array import STTRAMArray
from repro.array.montecarlo import MonteCarloMargins, run_margin_monte_carlo
from repro.array.yield_analysis import YieldReport, analyze_margins
from repro.calibration.fit import calibrate
from repro.calibration.targets import PAPER_TARGETS, PaperTargets
from repro.core.batch import BatchReadResult
from repro.core.conventional import ConventionalSensing
from repro.core.destructive import DestructiveSelfReference
from repro.core.nondestructive import NondestructiveSelfReference
from repro.device.variation import CellPopulation, VariationModel
from repro.errors import ConfigurationError

__all__ = [
    "TESTCHIP_VARIATION",
    "TestChip",
    "TestChipResult",
    "BehavioralReadSummary",
    "run_testchip_experiment",
    "run_testchip_behavioral",
]

#: Variation profile of the measured test chip, tuned so the simulated chip
#: reproduces the paper's Fig. 11 outcome: MTJ variation (σ(t_ox) = 0.06 Å
#: ≈ 5% resistance sigma plus area/TMR mismatch) and a 25 mV shared-reference
#: error (the conventional reference is generated from reference MTJ cells
#: subject to the same variation) give ~1% conventional fails, while β/α are
#: trimmed at test (the paper adjusts β "in testing stage") so both
#: self-reference schemes read every bit.
TESTCHIP_VARIATION = VariationModel(
    sigma_tox_angstrom=0.06,
    sigma_area_frac=0.02,
    sigma_tmr_frac=0.015,
    sigma_rtr_frac=0.02,
    sigma_alpha_frac=0.001,
    sigma_beta_frac=0.001,
    sigma_sa_offset=1.0e-3,
    sigma_vref=0.025,
)


@dataclasses.dataclass(frozen=True)
class TestChip:
    """Organization of the measured chip."""

    #: Not a pytest test class despite the name (pytest collection hint).
    __test__ = False

    rows: int = 128
    columns: int = 128
    variation: VariationModel = TESTCHIP_VARIATION
    targets: PaperTargets = PAPER_TARGETS

    def __post_init__(self) -> None:
        if self.rows < 1 or self.columns < 1:
            raise ConfigurationError("chip must have positive dimensions")

    @property
    def bits(self) -> int:
        """Total bit count (paper: 16384)."""
        return self.rows * self.columns


@dataclasses.dataclass(frozen=True)
class TestChipResult:
    """Everything Fig. 11 plots, plus the yield summary."""

    #: Not a pytest test class despite the name (pytest collection hint).
    __test__ = False

    chip: TestChip
    population: CellPopulation
    margins: MonteCarloMargins
    report: YieldReport

    @property
    def conventional_fail_fraction(self) -> float:
        """Fraction of bits conventional sensing cannot read (paper: ~1%)."""
        return self.report["conventional"].fail_fraction

    @property
    def self_reference_all_pass(self) -> bool:
        """True when both self-reference schemes read every bit — the
        paper's headline measurement."""
        return (
            self.report["destructive"].fail_count == 0
            and self.report["nondestructive"].fail_count == 0
        )

    def scatter(self, scheme: str):
        """(SM0, SM1) per-bit arrays [V] — the axes of paper Fig. 11."""
        margins = self.margins[scheme]
        return margins.sm0, margins.sm1


def run_testchip_experiment(
    chip: Optional[TestChip] = None,
    rng: Optional[np.random.Generator] = None,
    required_margin: Optional[float] = None,
    reference_pairs: Optional[int] = None,
) -> TestChipResult:
    """Run the full Fig. 11 experiment on a simulated chip.

    Uses the calibrated device, the chip's variation profile, and the two
    schemes at their paper design points (β from the calibration's
    optimization, α = 0.5).

    ``reference_pairs``: when given, the conventional scheme's per-column
    reference error is *generated physically* — one reference column of
    that many averaged MTJ pairs per array column — instead of using the
    ``sigma_vref`` Gaussian (same mechanism, built from actual sampled
    reference cells; see :mod:`repro.core.reference`).
    """
    if chip is None:
        chip = TestChip()
    if rng is None:
        rng = np.random.default_rng(2010)  # paper year; reproducible default
    if required_margin is None:
        required_margin = chip.targets.sense_amp_window

    calibration = calibrate(chip.targets)
    population = calibration.population(
        chip.bits, chip.variation, rng, r_tr_nominal=chip.targets.r_transistor
    )
    if reference_pairs is not None:
        from repro.core.reference import build_reference_column

        reference_pool = calibration.population(
            max(4 * reference_pairs * chip.columns, 1024),
            chip.variation,
            rng,
            r_tr_nominal=chip.targets.r_transistor,
        )
        column_errors = np.array([
            build_reference_column(
                reference_pool, reference_pairs, chip.targets.i_read_max, rng
            ).error
            for _ in range(chip.columns)
        ])
        # Row-major bit layout: bit index -> column = index % columns.
        population.vref_error = column_errors[np.arange(chip.bits) % chip.columns]
    margins = run_margin_monte_carlo(
        population,
        i_read2=chip.targets.i_read_max,
        beta_destructive=calibration.beta_destructive,
        beta_nondestructive=calibration.beta_nondestructive,
        alpha=chip.targets.alpha,
        include_sa_offset=False,  # the 8 mV window already budgets offset
    )
    report = analyze_margins(margins, required_margin)
    return TestChipResult(chip=chip, population=population, margins=margins, report=report)


@dataclasses.dataclass(frozen=True)
class BehavioralReadSummary:
    """One scheme's behavioural read of every chip bit.

    Where :class:`TestChipResult` reports *closed-form* margins, this is the
    outcome of actually performing the reads through the batch kernel:
    sensed bits, misreads against the written pattern, metastable
    comparisons, and (for the destructive scheme) bits whose stored value
    the read destroyed.
    """

    #: Not a pytest test class despite the name (pytest collection hint).
    __test__ = False

    scheme: str
    batch: BatchReadResult

    @property
    def bits(self) -> int:
        """Number of bits read."""
        return self.batch.size

    @property
    def misreads(self) -> int:
        """Reads returning the wrong (or no) value."""
        return self.batch.error_count

    @property
    def misread_fraction(self) -> float:
        """``misreads / bits`` — the behavioural analogue of the
        closed-form fail fraction."""
        return self.batch.error_fraction

    @property
    def metastable_events(self) -> int:
        """Comparisons inside the sense-amplifier window."""
        return self.batch.metastable_count

    @property
    def data_destroyed(self) -> int:
        """Bits whose stored value the read itself damaged."""
        return self.batch.destroyed_count


def run_testchip_behavioral(
    chip: Optional[TestChip] = None,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, BehavioralReadSummary]:
    """Read every bit of the simulated chip through all three schemes.

    The chip is built exactly as :func:`run_testchip_experiment` builds it
    (calibrated device, test-chip variation profile, paper design points),
    filled with a random pattern, and each scheme reads the full 16kb in
    one :meth:`~repro.array.array.STTRAMArray.read_all` kernel pass — the
    behavioural cross-check of the Fig. 11 closed-form margins.  The
    pattern is rewritten between schemes so each starts from the same data.
    """
    if chip is None:
        chip = TestChip()
    if rng is None:
        rng = np.random.default_rng(2010)  # paper year; reproducible default

    calibration = calibrate(chip.targets)
    population = calibration.population(
        chip.bits, chip.variation, rng, r_tr_nominal=chip.targets.r_transistor
    )
    array = STTRAMArray(population)
    pattern = rng.integers(0, 2, chip.bits).astype(np.uint8)

    schemes = {
        "conventional": ConventionalSensing(
            i_read=chip.targets.i_read_max,
            nominal_cell=calibration.cell(chip.targets.r_transistor),
        ),
        "destructive": DestructiveSelfReference(
            i_read2=chip.targets.i_read_max, beta=calibration.beta_destructive
        ),
        "nondestructive": NondestructiveSelfReference(
            i_read2=chip.targets.i_read_max, beta=calibration.beta_nondestructive
        ),
    }
    summaries: Dict[str, BehavioralReadSummary] = {}
    for name, scheme in schemes.items():
        array._states[:] = pattern
        # The conventional scheme's shared reference carries each bit's
        # column mismatch — the error source self-referencing removes.
        kwargs = (
            {"v_ref_error": population.vref_error} if name == "conventional" else {}
        )
        batch = array.read_all(scheme, rng, **kwargs)
        summaries[name] = BehavioralReadSummary(scheme=name, batch=batch)
    return summaries
