"""Wafer-scale production test: Monte-Carlo dies through the full flow.

The driver stacks an entire wafer's dies into one cell population —
die-level *systematic* variation (lithographic α-divider skew, an oxide /
resistance scale, an access-transistor corner) layered over the within-die
random variation — strikes it with the fault injector, and runs every die
through **march test → characterize/trim → spare-word repair → ECC
provision → ship/scrap**.

All per-die processing is purely elementwise over the cell axis plus
per-die reductions, so a run over chunks of hundreds of dies is
bit-exact with the same wafer run one die at a time (``chunk_dies=1``) —
an equivalence the tests and the benchmark gate, in the same spirit as the repo's
scalar-vs-batch read contracts.  Randomness is confined to
:func:`build_wafer`, which draws everything from the reserved
``(seed, prodtest)`` stream of :mod:`repro.streams`; the flow itself is
deterministic, which is what makes the equality gate meaningful.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.array.testchip import TESTCHIP_VARIATION
from repro.calibration.fit import CalibrationResult, calibrate
from repro.device.variation import CellPopulation
from repro.ecc.yield_model import provision_ecc
from repro.errors import ConfigurationError
from repro.faults.campaign import build_scheme
from repro.faults.injector import FaultInjector, FaultMap
from repro.faults.models import (
    FaultKind,
    ReadDisturbProneFault,
    StuckOpenFault,
    StuckShortFault,
    TransitionFault,
)
from repro.prodtest.characterize import CharacterizeConfig, characterize_dies
from repro.prodtest.march import (
    MARCH_TESTS,
    _MarchBehavior,
    _execute_march,
    _classify,
    _parametric_stuck_masks,
    detection_coverage,
    march_seconds,
    scheme_family,
    scheme_margin_arrays,
)
from repro.streams import stream_rng

__all__ = [
    "CHUNK_CELLS",
    "WaferConfig",
    "Wafer",
    "WaferResult",
    "build_wafer",
    "run_wafer",
    "default_die_faults",
]

#: Fixed diagnosis → code mapping of the per-cell classification array.
CLASSIFICATION_ORDER: Tuple[FaultKind, ...] = (
    FaultKind.STUCK_SHORT,
    FaultKind.STUCK_OPEN,
    FaultKind.TRANSITION_UP,
    FaultKind.TRANSITION_DOWN,
    FaultKind.READ_DISTURB,
    FaultKind.SENSE_MARGIN,
)

#: Cells per vectorized chunk when ``WaferConfig.chunk_dies`` is not set:
#: one per-cell float64 array of a chunk is then 256 KB, so the trim
#: search's working set stays in a 2 MB L2 (DESIGN.md "Trim margins").
CHUNK_CELLS = 32768


def default_die_faults(rate: float = 2.0e-3) -> List:
    """The wafer's defect cocktail at a total per-cell ``rate``.

    Half the defect density is hard MTJ damage (shorts and opens in equal
    parts), a quarter is write-path transition faults (split between the
    two polarities), and a quarter is disturb-prone low-barrier bits —
    roughly the mix the STT-MRAM testing literature motivates its march
    extensions with.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"fault rate must lie in [0, 1], got {rate}")
    return [
        StuckShortFault(rate=rate / 4.0),
        StuckOpenFault(rate=rate / 4.0),
        TransitionFault(rate=rate / 8.0, direction="up"),
        TransitionFault(rate=rate / 8.0, direction="down"),
        ReadDisturbProneFault(rate=rate / 4.0),
    ]


@dataclasses.dataclass(frozen=True)
class WaferConfig:
    """Geometry and flow knobs of one wafer run."""

    #: Not a pytest test class despite the name (pytest collection hint).
    __test__ = False

    dies: int = 512
    die_rows: int = 8
    die_columns: int = 8
    word_cells: int = 16
    spare_words: int = 1            #: redundant words repair can remap
    max_correctable: int = 2        #: strongest provisionable ECC (DECTED)
    scheme: str = "nondestructive"
    march: str = "march-1t1j"
    seed: int = 2010
    variation_scale: float = 1.0    #: within-die random variation scale
    alpha_sigma: float = 0.02       #: die-level systematic α-divider skew
    resistance_sigma: float = 0.02  #: die-level systematic resistance scale
    rtr_sigma: float = 0.02         #: die-level transistor-corner scale
    fault_rate: float = 2.0e-3      #: total per-cell defect rate
    gross_fail_dead: int = 8        #: dead cells above which the die is
                                    #: a gross fail (skips characterize)
    chunk_dies: Optional[int] = None  #: dies per vectorized chunk; defaults
                                      #: to CHUNK_CELLS // cells
    fail_budget: Optional[int] = None  #: margin-fail allowance; defaults
                                       #: to the spare-word cell count

    def __post_init__(self) -> None:
        if self.dies < 1:
            raise ConfigurationError(f"dies must be >= 1, got {self.dies}")
        if self.die_rows < 1 or self.die_columns < 1:
            raise ConfigurationError("die dimensions must be positive")
        if self.word_cells < 1 or self.cells % self.word_cells:
            raise ConfigurationError(
                f"die of {self.cells} cells is not a whole number of "
                f"{self.word_cells}-cell words"
            )
        if self.spare_words < 0 or self.spare_words >= self.words:
            raise ConfigurationError(
                f"spare_words must lie in [0, {self.words}), got "
                f"{self.spare_words}"
            )
        if self.max_correctable < 0:
            raise ConfigurationError("max_correctable must be >= 0")
        if self.scheme not in ("conventional", "destructive", "nondestructive"):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.march not in MARCH_TESTS:
            raise ConfigurationError(
                f"unknown march {self.march!r}; expected one of "
                f"{sorted(MARCH_TESTS)}"
            )
        if self.chunk_dies is not None and self.chunk_dies < 1:
            raise ConfigurationError("chunk_dies must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        for name in ("variation_scale", "alpha_sigma", "resistance_sigma",
                     "rtr_sigma"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {value}"
                )
        if self.gross_fail_dead < 0:
            raise ConfigurationError("gross_fail_dead must be >= 0")

    @property
    def cells(self) -> int:
        """Cells per die."""
        return self.die_rows * self.die_columns

    @property
    def dies_per_chunk(self) -> int:
        """Dies per vectorized pass: ``chunk_dies`` when set, else as many
        whole dies as fit in :data:`CHUNK_CELLS` cells (at least one)."""
        if self.chunk_dies is not None:
            return self.chunk_dies
        return max(1, CHUNK_CELLS // self.cells)

    @property
    def words(self) -> int:
        """Words per die."""
        return self.cells // self.word_cells

    @property
    def wafer_cells(self) -> int:
        """Cells on the whole wafer."""
        return self.dies * self.cells

    def characterize_config(self) -> CharacterizeConfig:
        """The characterization pass this wafer's dies run."""
        budget = (
            self.fail_budget
            if self.fail_budget is not None
            else self.spare_words * self.word_cells
        )
        return CharacterizeConfig(fail_budget=budget)


@dataclasses.dataclass
class Wafer:
    """A built (sampled + fault-struck) wafer, ready to test.

    ``population`` stacks all dies die-major; the behaviour masks are the
    fault map's ground truth expanded to booleans once, so chunk
    processing only ever slices.
    """

    config: WaferConfig
    population: CellPopulation
    fault_map: FaultMap
    alpha_skew: np.ndarray       #: per-die systematic α-divider skew
    resistance_scale: np.ndarray  #: per-die systematic resistance factor
    rtr_scale: np.ndarray        #: per-die transistor-corner factor
    calibration: CalibrationResult

    @property
    def dies(self) -> int:
        """Dies on the wafer."""
        return self.config.dies

    def scheme(self):
        """The sensing scheme instance the wafer's flow runs."""
        return build_scheme(self.config.scheme, self.calibration, 917.0)

    def behavior_masks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(up_blocked, down_blocked, disturb_prone)`` wafer-cell masks."""
        size = self.config.wafer_cells
        up = np.zeros(size, dtype=bool)
        down = np.zeros(size, dtype=bool)
        disturb = np.zeros(size, dtype=bool)
        up[self.fault_map.of_kind(FaultKind.TRANSITION_UP)] = True
        down[self.fault_map.of_kind(FaultKind.TRANSITION_DOWN)] = True
        disturb[self.fault_map.of_kind(FaultKind.READ_DISTURB)] = True
        return up, down, disturb


def build_wafer(
    config: Optional[WaferConfig] = None,
    calibration: Optional[CalibrationResult] = None,
) -> Wafer:
    """Sample and fault-strike one wafer from the reserved prodtest stream.

    All randomness happens here, in a fixed draw order on
    ``stream_rng(seed, "prodtest")``: die systematics first, then one
    population draw for every cell on the wafer, then the fault
    injection.  The test flow downstream is deterministic.
    """
    config = config if config is not None else WaferConfig()
    calibration = calibration if calibration is not None else calibrate()
    rng = stream_rng(config.seed, "prodtest")

    # 1. Die-level systematics.
    alpha_skew = rng.normal(0.0, config.alpha_sigma, config.dies)
    resistance_scale = np.clip(
        rng.normal(1.0, config.resistance_sigma, config.dies), 0.5, 2.0
    )
    rtr_scale = np.clip(
        rng.normal(1.0, config.rtr_sigma, config.dies), 0.5, 2.0
    )

    # 2. Within-die random variation for every cell on the wafer.
    population = CellPopulation.sample(
        config.wafer_cells,
        TESTCHIP_VARIATION.scaled(config.variation_scale),
        params=calibration.params,
        rolloff_high=calibration.rolloff_high(),
        rolloff_low=calibration.rolloff_low(),
        rng=rng,
    )

    # 3. Apply the systematics die by die (broadcast over each die's cells).
    cells = config.cells
    population.alpha_deviation = population.alpha_deviation + np.repeat(
        alpha_skew, cells
    )
    res = np.repeat(resistance_scale, cells)
    population.r_low0 = population.r_low0 * res
    population.r_high0 = population.r_high0 * res
    population.dr_low_max = population.dr_low_max * res
    population.dr_high_max = population.dr_high_max * res
    population.r_tr = population.r_tr * np.repeat(rtr_scale, cells)

    # 4. Strike the defect cocktail across the whole wafer.
    injector = FaultInjector(default_die_faults(config.fault_rate), rng)
    fault_map = injector.inject_population(population)

    return Wafer(
        config=config,
        population=population,
        fault_map=fault_map,
        alpha_skew=alpha_skew,
        resistance_scale=resistance_scale,
        rtr_scale=rtr_scale,
        calibration=calibration,
    )


@dataclasses.dataclass(frozen=True)
class WaferResult:
    """Full per-die outcome of one wafer's production test flow."""

    config: WaferConfig
    scheme: str                   #: scheme family tested
    march: str                    #: march algorithm run
    detected: np.ndarray          #: per-cell march detection mask
    classification: np.ndarray    #: per-cell diagnosis code (int8, -1 none;
                                  #: codes index :data:`CLASSIFICATION_ORDER`)
    dead_cells: np.ndarray        #: per-die parametric-stuck count
    gross_fail: np.ndarray        #: per-die gross-fail verdict
    trim_codes: np.ndarray        #: per-die trim code
    trim_values: np.ndarray       #: per-die trimmed knob value
    binding_margins: np.ndarray   #: per-die k-th-worst binding margin [V]
    sense_factors: np.ndarray     #: per-die trimmed read-current scale
    retry_budgets: np.ndarray     #: per-die provisioned retries
    char_passes: np.ndarray       #: per-die characterization verdict
    repaired_words: np.ndarray    #: per-die spare words consumed
    ecc_levels: np.ndarray        #: per-die residual worst-word fail count
    ecc_parity_bits: np.ndarray   #: per-die provisioned check bits per word
    ecc_covered: np.ndarray       #: per-die ECC-provisionable verdict
    ships: np.ndarray             #: per-die ship/scrap verdict
    test_seconds: np.ndarray      #: per-die tester time [s]
    coverage: Dict[str, float]    #: detected fraction per injected kind

    @property
    def dies(self) -> int:
        """Dies tested."""
        return int(self.ships.size)

    @property
    def shipped(self) -> int:
        """Dies that shipped."""
        return int(np.count_nonzero(self.ships))

    @property
    def ship_rate(self) -> float:
        """Shipping yield."""
        return self.shipped / self.dies

    @property
    def total_test_seconds(self) -> float:
        """Tester time over the whole wafer [s]."""
        return float(self.test_seconds.sum())

    @property
    def data_cells_per_die(self) -> int:
        """Usable data cells of a shipped die (spares and parity carved
        out of the gross array)."""
        words = self.config.words - self.config.spare_words
        return words * self.config.word_cells

    def classified_counts(self) -> Dict[str, int]:
        """Wafer-wide diagnosis counts by kind."""
        counts: Dict[str, int] = {}
        for code, kind in enumerate(CLASSIFICATION_ORDER):
            n = int(np.count_nonzero(self.classification == code))
            if n:
                counts[kind.value] = n
        return counts

    def equals(self, other: "WaferResult") -> bool:
        """Exact per-die/per-cell equality — the chunked-vs-per-die
        equivalence gate (floats compared bit for bit, not approximately).
        """
        arrays = (
            "detected", "classification", "dead_cells", "gross_fail",
            "trim_codes", "trim_values", "binding_margins", "sense_factors",
            "retry_budgets", "char_passes", "repaired_words", "ecc_levels",
            "ecc_parity_bits", "ecc_covered", "ships", "test_seconds",
        )
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in arrays
        )


def _process_dies(
    wafer: Wafer,
    scheme,
    behavior_masks: Tuple[np.ndarray, np.ndarray, np.ndarray],
    start: int,
    stop: int,
) -> Dict[str, np.ndarray]:
    """Run the deterministic flow over dies ``[start, stop)``.

    Every step is elementwise over cells plus per-die reductions, so the
    output for a die does not depend on which other dies share the chunk.
    """
    config = wafer.config
    cells = config.cells
    lo, hi = start * cells, stop * cells
    population = wafer.population.subset(slice(lo, hi))
    up, down, disturb = (mask[lo:hi] for mask in behavior_masks)
    family = scheme_family(scheme)
    char_config = config.characterize_config()

    # March test at the untrimmed (design-point) operating condition.
    sm0, sm1 = scheme_margin_arrays(scheme, population)
    offset = scheme.sense_amp.offset + population.sa_offset
    test = MARCH_TESTS[config.march]
    tally = _execute_march(
        test, sm0, sm1, offset, scheme.sense_amp.resolution,
        _MarchBehavior(up, down, disturb),
    )
    detected = tally.detected
    classified = _classify(population, tally)
    classification = np.full(population.size, -1, dtype=np.int8)
    for code, kind in enumerate(CLASSIFICATION_ORDER):
        if kind in classified:
            classification[classified[kind]] = code

    shorted, opened = _parametric_stuck_masks(population)
    dead = shorted | opened
    dead_cells = np.count_nonzero(dead.reshape(-1, cells), axis=1)
    gross_fail = dead_cells > config.gross_fail_dead

    # Characterize every die (gross fails run too — the arithmetic is
    # deterministic either way; they are only spared the tester *time*).
    char = characterize_dies(population, cells, scheme, char_config)

    # Post-trim verification march at each die's trimmed operating point:
    # the incoming march's sense-margin detections include cells the trim
    # cures, so the *repair* fail map comes from re-running the march at
    # the trimmed condition (plus any cell still under the margin bar).
    t_sm0, t_sm1 = char.trimmed_sm0.ravel(), char.trimmed_sm1.ravel()
    verify = _execute_march(
        test, t_sm0, t_sm1, offset, scheme.sense_amp.resolution,
        _MarchBehavior(up, down, disturb),
    )
    weak = np.minimum(t_sm0, t_sm1) <= char_config.required_margin
    defective = (verify.detected | dead | weak).reshape(-1, cells)

    # Word-level spare repair: remap the worst spare_words words per die
    # (stable order — ties resolve to the lowest word index), spending a
    # spare only on words that actually contain defects.
    dies = stop - start
    per_word = defective.reshape(dies, config.words, config.word_cells).sum(
        axis=2
    )
    residual = per_word.copy()
    repaired_words = np.zeros(dies, dtype=np.int64)
    if config.spare_words:
        worst = np.argsort(-per_word, axis=1, kind="stable")[
            :, : config.spare_words
        ]
        worst_counts = np.take_along_axis(per_word, worst, axis=1)
        spend = worst_counts > 0
        np.put_along_axis(residual, worst, np.where(spend, 0, worst_counts), axis=1)
        repaired_words = spend.sum(axis=1).astype(np.int64)

    # ECC provisioning over the residual fail map, then the ship verdict.
    provision = provision_ecc(
        residual, config.word_cells, config.max_correctable
    )
    ships = ~gross_fail & char.passes & provision.covered

    # Tester time: one incoming march for every die; each characterization
    # shmoo point re-runs the march at a candidate operating condition,
    # plus the post-trim verification march — and gross fails skip
    # characterization (and its verification) entirely.
    march_s = march_seconds(test, cells, family)
    shmoo_points = (
        char_config.code_bits + 3 + (len(set(char_config.sense_factors)) - 1)
    )
    test_seconds = march_s * (
        1.0 + np.where(gross_fail, 0.0, shmoo_points + 1.0)
    )

    return {
        "detected": detected,
        "classification": classification,
        "dead_cells": dead_cells.astype(np.int64),
        "gross_fail": gross_fail,
        "trim_codes": char.codes,
        "trim_values": char.values,
        "binding_margins": char.binding_margins,
        "sense_factors": char.sense_factors,
        "retry_budgets": char.retry_budgets,
        "char_passes": char.passes,
        "repaired_words": repaired_words,
        "ecc_levels": provision.levels,
        "ecc_parity_bits": provision.parity_bits,
        "ecc_covered": provision.covered,
        "ships": ships,
        "test_seconds": test_seconds,
    }


def run_wafer(wafer: Wafer) -> WaferResult:
    """Test every die on a built wafer, ``config.dies_per_chunk`` dies per
    pass.

    The result does not depend on the chunk size: ``chunk_dies=1`` is the
    auditably-simple per-die loop, and every chunking must agree with it
    bit for bit (:meth:`WaferResult.equals`) — the tests, the benchmark,
    and the CLI ``--check`` enforce it.
    """
    config = wafer.config
    scheme = wafer.scheme()
    masks = wafer.behavior_masks()
    step = config.dies_per_chunk
    chunks = [
        _process_dies(wafer, scheme, masks, start, min(start + step, config.dies))
        for start in range(0, config.dies, step)
    ]
    merged = {
        key: np.concatenate([chunk[key] for chunk in chunks])
        for key in chunks[0]
    }
    return WaferResult(
        config=config,
        scheme=scheme_family(scheme),
        march=MARCH_TESTS[config.march].name,
        coverage=detection_coverage(merged["detected"], wafer.fault_map),
        **merged,
    )
