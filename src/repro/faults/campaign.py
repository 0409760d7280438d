"""Fault-injection campaign: sweep fault rates, score the recovery ladder.

One campaign builds the paper's 16kb test-chip population (calibrated
device, test-chip variation), wraps it in SECDED words behind a
:class:`~repro.faults.recovery.RecoveryController`, writes a known random
pattern, strikes it with a configurable fault set at each rate, then reads
every word back and scores the outcome against ground truth:

* **recovered** — the word came back equal to what was written;
* **detected** — the ladder exhausted and failed loudly
  (:class:`~repro.errors.RetryExhaustedError`): the data is lost but the
  loss is *known*;
* **escaped** — the word came back wrong without any flag: silent data
  corruption, the only truly bad outcome.

Words are also classified by how many *hard* faulted bits they received
(stuck cells, disturb flips, power-failure destruction): a word with at
most one is within SECDED's guarantee — the campaign's acceptance metric
is the recovered fraction of those correctable words.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.array.array import STTRAMArray
from repro.array.repair import RepairPlan, allocate_repair
from repro.array.testchip import TESTCHIP_VARIATION
from repro.calibration import calibrate
from repro.calibration.targets import PAPER_TARGETS
from repro.core.base import SensingScheme
from repro.core.conventional import ConventionalSensing
from repro.core.destructive import DestructiveSelfReference
from repro.core.nondestructive import NondestructiveSelfReference
from repro.core.retry import RetryPolicy
from repro.device.variation import CellPopulation, VariationModel
from repro.ecc.array import EccArray
from repro.errors import ConfigurationError, FaultError, RetryExhaustedError
from repro.faults.injector import FaultInjector, FaultMap
from repro.faults.models import (
    BitlineNoiseFault,
    PowerFailureFault,
    ReadDisturbFault,
    SenseOffsetDrift,
    StuckOpenFault,
    StuckShortFault,
)
from repro.faults.recovery import RecoveryController
from repro.obs import runtime as _obs
from repro.obs.runtime import profiled

__all__ = [
    "CampaignRow",
    "FaultCampaignResult",
    "build_scheme",
    "default_fault_models",
    "run_fault_campaign",
]


def default_fault_models(rate: float, transients: bool = True) -> Tuple:
    """The standard campaign fault set at one hard-fault rate.

    ``rate`` is split evenly between the two stuck defects; a quarter of
    it drives read-disturb flips.  ``transients`` additionally enables the
    analog nuisances (offset drift, bit-line noise) at fixed magnitudes.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"fault rate must lie in [0, 1], got {rate}")
    models = [
        StuckShortFault(rate=rate / 2.0),
        StuckOpenFault(rate=rate / 2.0),
        ReadDisturbFault(rate=rate / 4.0),
    ]
    if transients:
        models.append(SenseOffsetDrift(sigma=1.0e-3))
        models.append(BitlineNoiseFault(sigma=0.5e-3))
    return tuple(models)


@dataclasses.dataclass(frozen=True)
class CampaignRow:
    """Outcome of one fault rate."""

    rate: float
    bits: int
    words: int
    injected_cells: int       #: permanently faulted cells (stuck short/open)
    disturbed_cells: int      #: read-disturb state flips
    power_failure_words: int  #: words hit by a mid-read power loss
    faulty_words: int         #: words with >= 1 hard-faulted bit
    correctable_words: int    #: faulty words within SECDED reach (1 bit)
    recovered_correctable: int
    recovered_faulty: int     #: faulty words delivered with the true value
    detected_words: int       #: losses flagged by RetryExhaustedError
    escaped_words: int        #: silent corruption (wrong value, no flag)
    tier_counts: Dict[str, int]
    spares_used: int          #: controller remaps performed
    repair_plan: Optional[RepairPlan] = None

    @property
    def recovery_fraction(self) -> float:
        """Recovered share of the correctable faulty words (1.0 when no
        word had a correctable fault)."""
        if self.correctable_words == 0:
            return 1.0
        return self.recovered_correctable / self.correctable_words


@dataclasses.dataclass(frozen=True)
class FaultCampaignResult:
    """A full rate sweep plus the acceptance gates."""

    scheme: str
    seed: int
    bits: int
    data_bits: int
    rows: Tuple[CampaignRow, ...]
    #: Deterministic metrics snapshot (``MetricsRegistry.snapshot`` without
    #: the wall-clock ``profile`` section) captured at the end of the sweep
    #: when observability was enabled; ``None`` otherwise.
    metrics: Optional[Dict[str, object]] = None

    @property
    def total_escaped(self) -> int:
        """Silently corrupted words summed over all rates."""
        return sum(row.escaped_words for row in self.rows)

    @property
    def min_recovery_fraction(self) -> float:
        """Worst per-rate recovery of correctable faults."""
        return min((row.recovery_fraction for row in self.rows), default=1.0)

    def check(self, min_recovery: float = 0.99, max_escaped: int = 0) -> None:
        """Gate a CI run: raise :class:`~repro.errors.FaultError` when the
        ladder under-recovers or lets silent corruption through."""
        if self.total_escaped > max_escaped:
            raise FaultError(
                f"{self.total_escaped} word(s) escaped silently "
                f"(allowed: {max_escaped})"
            )
        if self.min_recovery_fraction < min_recovery:
            raise FaultError(
                f"recovered only {self.min_recovery_fraction:.1%} of "
                f"correctable faults (required: {min_recovery:.0%})"
            )


def build_scheme(name: str, calibration, r_transistor: float) -> SensingScheme:
    """Construct one of the three paper schemes from a calibration.

    ``name`` is one of ``conventional`` / ``destructive`` /
    ``nondestructive``; the returned scheme carries the calibrated bias
    currents and beta ratios, matching what the campaign itself reads
    through (also used by the ``repro stats`` CLI workload).
    """
    targets = PAPER_TARGETS
    if name == "conventional":
        return ConventionalSensing(
            i_read=targets.i_read_max,
            nominal_cell=calibration.cell(r_transistor),
        )
    if name == "destructive":
        return DestructiveSelfReference(
            i_read2=targets.i_read_max, beta=calibration.beta_destructive
        )
    if name == "nondestructive":
        return NondestructiveSelfReference(
            i_read2=targets.i_read_max, beta=calibration.beta_nondestructive
        )
    raise ConfigurationError(
        f"unknown scheme {name!r}; expected conventional/destructive/nondestructive"
    )


def _hard_fault_bits(
    fault_map: FaultMap,
    disturbed: np.ndarray,
    destroyed: np.ndarray,
    word_bits: int,
    words: int,
) -> np.ndarray:
    """Per-word count of hard-faulted bits (stuck ∪ disturbed ∪ destroyed)."""
    mask = fault_map.fault_mask.copy()
    mask[disturbed] = True
    mask |= destroyed
    counts = np.bincount(
        np.nonzero(mask[: words * word_bits])[0] // word_bits, minlength=words
    )
    return counts[:words]


@profiled("faults.run_fault_campaign")
def run_fault_campaign(
    rates: Sequence[float] = (1.0e-4, 1.0e-3, 5.0e-3),
    bits: int = 16384,
    scheme: str = "nondestructive",
    policy: Optional[RetryPolicy] = None,
    seed: int = 2010,
    data_bits: int = 64,
    scrub_rounds: int = 2,
    spare_words: int = 8,
    variation: Optional[VariationModel] = None,
    transients: bool = True,
    power_failure_rate: float = 0.02,
    repair_spares: int = 4,
) -> FaultCampaignResult:
    """Sweep hard-fault rates over the 16kb test chip and score recovery.

    For each rate the campaign rebuilds the chip from its own seeded RNGs
    (build / fault / read streams are independent, so the fault draw never
    shifts the sensing draw stream), injects
    :func:`default_fault_models`, and reads every logical word through the
    full ladder.  The destructive scheme additionally suffers mid-read
    power failures at ``power_failure_rate`` per word — the non-volatility
    hole the paper's nondestructive scheme closes, visible here as
    destroyed words the ladder must flag.

    ``repair_spares`` row/column spares per side are fed to
    :func:`~repro.array.repair.allocate_repair` over the stuck-cell map,
    reporting whether classic redundancy could also have absorbed the hard
    defects.
    """
    if bits < 1:
        raise ConfigurationError("bits must be positive")
    if policy is None:
        policy = RetryPolicy(max_attempts=3, backoff_ns=5.0, current_escalation=0.1)
    if variation is None:
        variation = TESTCHIP_VARIATION
    calibration = calibrate()
    base_scheme = build_scheme(scheme, calibration, PAPER_TARGETS.r_transistor)
    destructive = scheme == "destructive"
    metered = _obs.active()

    # Every rate's fault set up front, so a bad rate fails before any run.
    fault_sets = [default_fault_models(rate, transients=transients) for rate in rates]
    rows = []
    for rate_index, rate in enumerate(rates):
        rng_build = np.random.default_rng((seed, rate_index, 0))
        rng_fault = np.random.default_rng((seed, rate_index, 1))
        rng_read = np.random.default_rng((seed, rate_index, 2))

        population = CellPopulation.sample(
            bits,
            variation,
            params=calibration.params,
            rolloff_high=calibration.rolloff_high(),
            rolloff_low=calibration.rolloff_low(),
            rng=rng_build,
            r_tr_nominal=PAPER_TARGETS.r_transistor,
        )
        array = STTRAMArray(population)
        memory = EccArray(array, data_bits=data_bits)
        controller = RecoveryController(
            memory, policy, scrub_rounds=scrub_rounds, spare_words=spare_words
        )
        word_bits = memory.codec.codeword_bits
        words = controller.size_words

        truth = []
        for address in range(words):
            value = int.from_bytes(rng_build.bytes((data_bits + 7) // 8), "little")
            value &= (1 << data_bits) - 1
            truth.append(value)
            controller.write_word(address, value)

        models = list(fault_sets[rate_index])
        if destructive and power_failure_rate > 0.0:
            models.append(PowerFailureFault(rate=power_failure_rate))
        injector = FaultInjector(models, rng_fault)

        fault_map = injector.inject_array(array)
        disturbed = injector.disturb_states(array._states)

        # Power failures strike *prior* interrupted reads: the destructive
        # scheme erased (or half-restored) the word and the supply dropped.
        # The recovery read afterwards sees whatever survived.
        destroyed = np.zeros(bits, dtype=bool)
        power_failure_words = 0
        if destructive:
            for address in range(words):
                phase = injector.power_failure_phase()
                if phase is None:
                    continue
                power_failure_words += 1
                base = address * word_bits
                span = np.arange(base, base + word_bits)
                before = array._states[span].copy()
                array.read_bits(span, base_scheme, rng_fault, power_failure_at=phase)
                destroyed[span] |= array._states[span] != before

        hard_counts = _hard_fault_bits(
            fault_map, disturbed, destroyed, word_bits, words
        )

        if metered:
            _obs.get_registry().set_gauge("campaign.rate", float(rate))

        recovered_faulty = 0
        recovered_correctable = 0
        detected = 0
        escaped = 0
        for address in range(words):
            operation_scheme = injector.perturb_scheme(base_scheme)
            try:
                recovered = controller.read_word(address, operation_scheme, rng_read)
            except RetryExhaustedError:
                detected += 1
                if metered:
                    _obs.get_registry().inc("campaign.words", outcome="detected")
                continue
            if recovered.value == truth[address]:
                if hard_counts[address] >= 1:
                    recovered_faulty += 1
                    if hard_counts[address] == 1:
                        recovered_correctable += 1
                if metered:
                    _obs.get_registry().inc("campaign.words", outcome="recovered")
            else:
                escaped += 1
                if metered:
                    _obs.get_registry().inc("campaign.words", outcome="escaped")

        repair_plan = None
        if repair_spares > 0:
            columns = 128 if bits % 128 == 0 else bits
            repair_plan = allocate_repair(
                fault_map.fault_mask,
                rows=bits // columns,
                columns=columns,
                spare_rows=repair_spares,
                spare_columns=repair_spares,
            )

        rows.append(CampaignRow(
            rate=float(rate),
            bits=bits,
            words=words,
            injected_cells=fault_map.count,
            disturbed_cells=int(disturbed.size),
            power_failure_words=power_failure_words,
            faulty_words=int(np.count_nonzero(hard_counts >= 1)),
            correctable_words=int(np.count_nonzero(hard_counts == 1)),
            recovered_correctable=recovered_correctable,
            recovered_faulty=recovered_faulty,
            detected_words=detected,
            escaped_words=escaped,
            tier_counts=controller.statistics,
            spares_used=spare_words - controller.spares_remaining,
            repair_plan=repair_plan,
        ))

    return FaultCampaignResult(
        scheme=scheme,
        seed=seed,
        bits=bits,
        data_bits=data_bits,
        rows=tuple(rows),
        metrics=_obs.get_registry().snapshot(profile=False) if metered else None,
    )
