"""Fault models, injector, and the recovery ladder.

Tier logic is pinned with a scripted memory stub (every ladder branch is
reachable deterministically); the fault models and injector are tested
against the real device/array layers, including scalar-vs-vectorized
consistency of injected defects.
"""

import numpy as np
import pytest

from repro.array.array import STTRAMArray
from repro.circuit.sense_amp import SenseAmplifier
from repro.core import ConventionalSensing, NondestructiveSelfReference
from repro.core.batch import materialize_cell
from repro.core.retry import RetryPolicy
from repro.device.variation import CellPopulation, VariationModel
from repro.ecc.array import EccArray, EccReadResult
from repro.ecc.hamming import DecodeStatus
from repro.errors import ConfigurationError, FaultError, RetryExhaustedError
from repro.faults import (
    BitlineNoiseFault,
    FaultInjector,
    FaultKind,
    PowerFailureFault,
    ReadDisturbFault,
    RecoveryController,
    RecoveryTier,
    SenseOffsetDrift,
    StuckOpenFault,
    StuckShortFault,
    default_fault_models,
)
from repro.faults.models import STUCK_TMR_RESIDUAL


class TestFaultModels:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StuckShortFault(rate=-0.1)
        with pytest.raises(ConfigurationError):
            StuckOpenFault(rate=1.5)
        with pytest.raises(ConfigurationError):
            StuckShortFault(rate=0.1, resistance=0.0)
        with pytest.raises(ConfigurationError):
            ReadDisturbFault(rate=2.0)
        with pytest.raises(ConfigurationError):
            SenseOffsetDrift(sigma=-1.0)
        with pytest.raises(ConfigurationError):
            BitlineNoiseFault(sigma=-1.0)
        with pytest.raises(ConfigurationError):
            PowerFailureFault(rate=0.1, phases=())

    @pytest.mark.parametrize("rate", [1.5, 2.0])
    def test_campaign_fault_set_rejects_rate_above_one(self, rate):
        """The campaign fault set splits ``rate`` across its models, so each
        model's own [0, 1] check would pass rates up to 2: the set checks
        the rate it was given."""
        with pytest.raises(ConfigurationError, match="fault rate"):
            default_fault_models(rate)

    def test_stuck_population_and_cell_agree(self):
        """The in-place population defect and the scalar cell defect are
        the same junction: materialized stuck cells match."""
        population = CellPopulation.nominal_population(8)
        fault = StuckShortFault(rate=1.0, resistance=200.0)
        fault.apply_population(population, np.array([False] * 7 + [True]))
        stuck = materialize_cell(population, 7, 1)
        assert stuck.mtj.params.r_low == 200.0
        assert stuck.mtj.params.r_high == pytest.approx(
            200.0 * (1.0 + STUCK_TMR_RESIDUAL)
        )
        healthy = materialize_cell(population, 0, 1)
        assert healthy.mtj.params.r_low != 200.0

    @pytest.mark.parametrize("kind", ["conventional", "nondestructive"])
    def test_stuck_short_struck_after_a_read_reaches_the_next_read(self, kind):
        """Regression: a read through ``read_bits`` caches per-state tables
        on the array's population; a stuck-short struck afterwards must
        show in the very next read, not the cached healthy rails."""
        population = CellPopulation.sample(
            64, VariationModel(), rng=np.random.default_rng(3)
        )
        array = STTRAMArray(population)
        array.write_word(3, 0xFF)
        if kind == "conventional":
            scheme = ConventionalSensing(v_ref=0.4)
        else:
            scheme = NondestructiveSelfReference(beta=2.13)
        bits = np.arange(16, 32)
        before = array.read_bits(bits, scheme)
        mask = np.zeros(population.size, dtype=bool)
        mask[20] = True
        StuckShortFault(rate=1.0, resistance=200.0).apply_population(population, mask)
        after = array.read_bits(bits, scheme)
        fresh = scheme.read_many(population.subset(bits), array.stored_bits()[bits])
        assert set(after.voltages) == set(fresh.voltages)
        for name in fresh.voltages:
            np.testing.assert_array_equal(after.voltages[name], fresh.voltages[name])
        assert after.v_bl1[4] != before.v_bl1[4]
        np.testing.assert_array_equal(after.v_bl1[5:], before.v_bl1[5:])
        if kind == "conventional":
            # Stored 0 on a pinned junction: V_BL = I (200 Ω + R_TR).
            assert after.v_bl1[4] == scheme.i_read * (200.0 + population.r_tr[20])

    def test_stuck_cell_loses_its_state_dependence(self, paper_cell):
        StuckOpenFault(rate=1.0).apply_cell(paper_cell)
        paper_cell.write(0)
        r0 = paper_cell.mtj.resistance(1e-6)
        paper_cell.write(1)
        r1 = paper_cell.mtj.resistance(1e-6)
        assert r1 / r0 == pytest.approx(1.0, abs=2 * STUCK_TMR_RESIDUAL)

    def test_power_failure_draw(self):
        rng = np.random.default_rng(0)
        never = PowerFailureFault(rate=0.0)
        assert all(never.draw_phase(rng) is None for _ in range(16))
        always = PowerFailureFault(rate=1.0)
        phases = {always.draw_phase(rng) for _ in range(64)}
        assert phases == {"after_erase", "after_second_read", "after_compare"}


class TestFaultInjector:
    def make_population(self, size=256):
        return CellPopulation.nominal_population(size)

    def test_inject_population_matches_fault_map(self):
        population = self.make_population()
        injector = FaultInjector(
            [StuckShortFault(rate=0.05), StuckOpenFault(rate=0.05)],
            np.random.default_rng(1),
        )
        fault_map = injector.inject_population(population)
        short = fault_map.of_kind(FaultKind.STUCK_SHORT)
        openc = fault_map.of_kind(FaultKind.STUCK_OPEN)
        assert short.size > 0 and openc.size > 0
        # The map is ground truth for the mutated arrays (open faults may
        # overwrite bits the short model struck first).
        only_short = np.setdiff1d(short, openc)
        assert (population.r_low0[only_short] == 200.0).all()
        assert (population.r_low0[openc] == 5.0e5).all()
        assert fault_map.count == np.count_nonzero(fault_map.fault_mask)
        assert fault_map.fault_mask[short].all()

    def test_faults_per_word(self):
        population = self.make_population(32)
        injector = FaultInjector([StuckShortFault(rate=0.3)], np.random.default_rng(3))
        fault_map = injector.inject_population(population)
        per_word = fault_map.faults_per_word(8)
        assert per_word.shape == (4,)
        assert per_word.sum() == fault_map.count

    def test_inject_cell(self, paper_cell):
        injector = FaultInjector([StuckShortFault(rate=1.0)], np.random.default_rng(0))
        landed = injector.inject_cell(paper_cell)
        assert landed == (FaultKind.STUCK_SHORT,)
        assert paper_cell.mtj.params.r_low == 200.0

    def test_perturb_scheme_drift_is_quasi_static(self):
        scheme = NondestructiveSelfReference()
        injector = FaultInjector([SenseOffsetDrift(sigma=5e-3)], np.random.default_rng(2))
        first = injector.perturb_scheme(scheme)
        second = injector.perturb_scheme(scheme)
        assert first.sense_amp.offset == second.sense_amp.offset
        assert first.sense_amp.offset != scheme.sense_amp.offset

    def test_perturb_scheme_noise_decorrelates(self):
        scheme = NondestructiveSelfReference()
        injector = FaultInjector([BitlineNoiseFault(sigma=5e-3)], np.random.default_rng(2))
        offsets = {injector.perturb_scheme(scheme).sense_amp.offset for _ in range(4)}
        assert len(offsets) == 4  # fresh sample per operation

    def test_perturb_scheme_without_transients_is_identity(self):
        scheme = NondestructiveSelfReference()
        injector = FaultInjector([StuckShortFault(rate=0.1)], np.random.default_rng(0))
        assert injector.perturb_scheme(scheme) is scheme

    def test_perturb_scheme_requires_sense_amp(self):
        class NoAmp:
            name = "no-amp"

        injector = FaultInjector([BitlineNoiseFault(sigma=1e-3)], np.random.default_rng(0))
        with pytest.raises(FaultError):
            injector.perturb_scheme(NoAmp())

    def test_disturb_states_flips_in_place(self):
        states = np.zeros(512, dtype=np.uint8)
        injector = FaultInjector([ReadDisturbFault(rate=0.1)], np.random.default_rng(5))
        flipped = injector.disturb_states(states)
        assert flipped.size > 0
        assert (states[flipped] == 1).all()
        untouched = np.setdiff1d(np.arange(states.size), flipped)
        assert (states[untouched] == 0).all()

    def test_injection_does_not_consume_the_read_rng(self):
        """The injector owns its randomness: a faulted and a healthy run
        read with identical draw streams."""
        read_rng = np.random.default_rng(9)
        before = read_rng.random()
        population = self.make_population()
        FaultInjector(
            [StuckShortFault(rate=0.1)], np.random.default_rng(1)
        ).inject_population(population)
        assert np.random.default_rng(9).random() == before


def _result(status, value=0xAB, attempts=1, position=-1):
    return EccReadResult(
        value=value, status=status, corrected_position=position, attempts=attempts
    )


class ScriptedMemory:
    """An EccArray stand-in whose per-address read outcomes are scripted —
    every ladder branch becomes deterministically reachable."""

    def __init__(self, scripts, size_words=8):
        self.size_words = size_words
        self.scripts = {a: list(results) for a, results in scripts.items()}
        self.writes = []

    def read_word(self, address, scheme, rng=None, retry_policy=None, **kwargs):
        script = self.scripts.get(address)
        if not script:
            return _result(DecodeStatus.CLEAN)
        return script.pop(0) if len(script) > 1 else script[0]

    def write_word(self, address, value):
        self.writes.append((address, value))


class TestRecoveryLadder:
    def controller(self, scripts, **kwargs):
        return RecoveryController(ScriptedMemory(scripts), **kwargs)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.controller({}, scrub_rounds=-1)
        with pytest.raises(ConfigurationError):
            self.controller({}, spare_words=-1)
        with pytest.raises(ConfigurationError):
            self.controller({}, spare_words=8)

    def test_clean_retry_and_ecc_tiers(self):
        controller = self.controller({
            1: [_result(DecodeStatus.CLEAN, attempts=3)],
            2: [_result(DecodeStatus.CORRECTED, position=5)],
        })
        assert controller.read_word(0, None).tier is RecoveryTier.CLEAN
        retried = controller.read_word(1, None)
        assert retried.tier is RecoveryTier.RETRY
        assert retried.attempts == 3 and retried.degraded
        assert controller.read_word(2, None).tier is RecoveryTier.ECC
        assert controller.tier_counts[RecoveryTier.CLEAN] == 1
        assert controller.statistics["retry"] == 1
        assert controller.statistics["ecc"] == 1

    def test_scrub_tier_recovers_and_rewrites(self):
        # Detected on the first read, decodes on scrub round 1, and the
        # rewritten word verifies clean: SCRUB tier, no remap.
        controller = self.controller({
            0: [
                _result(DecodeStatus.DETECTED),
                _result(DecodeStatus.CORRECTED, value=0x77),
                _result(DecodeStatus.CLEAN, value=0x77),
            ],
        }, spare_words=2)
        word = controller.read_word(0, None)
        assert word.tier is RecoveryTier.SCRUB
        assert word.value == 0x77
        assert word.rereads == 1
        assert not word.remapped
        assert controller.memory.writes == [(0, 0x77)]
        assert controller.spares_remaining == 2

    def test_repair_tier_migrates_to_spare(self):
        # The rewritten word still verifies dirty — a hard defect lives in
        # those cells — so the controller migrates to a spare word.
        controller = self.controller({
            0: [
                _result(DecodeStatus.DETECTED),
                _result(DecodeStatus.CORRECTED, value=0x42),
                _result(DecodeStatus.CORRECTED, value=0x42),
            ],
        }, spare_words=2)
        word = controller.read_word(0, None)
        assert word.tier is RecoveryTier.REPAIR
        assert word.remapped
        # Spares come from the reserved top words, lowest first.
        assert controller.physical_address(0) == 6
        assert controller.remapped_words == {0: 6}
        assert controller.spares_remaining == 1
        # Rewrite-in-place, then the migration write onto the spare.
        assert controller.memory.writes == [(0, 0x42), (6, 0x42)]
        # Subsequent writes follow the remap.
        controller.write_word(0, 0x43)
        assert controller.memory.writes[-1] == (6, 0x43)

    def test_repair_without_spares_degrades_to_scrub(self):
        controller = self.controller({
            0: [
                _result(DecodeStatus.DETECTED),
                _result(DecodeStatus.CORRECTED, value=0x42),
                _result(DecodeStatus.CORRECTED, value=0x42),
            ],
        }, spare_words=0)
        word = controller.read_word(0, None)
        assert word.tier is RecoveryTier.SCRUB
        assert not word.remapped
        assert controller.physical_address(0) == 0

    def test_exhausted_ladder_raises(self):
        controller = self.controller({
            0: [_result(DecodeStatus.DETECTED, attempts=3)],
        }, scrub_rounds=2)
        with pytest.raises(RetryExhaustedError) as info:
            controller.read_word(0, None)
        assert info.value.address == 0
        assert controller.words_lost == 1
        assert controller.statistics["lost"] == 1
        with pytest.raises(FaultError):
            controller.require_healthy()

    def test_address_bounds_exclude_spares(self):
        controller = self.controller({}, spare_words=2)
        assert controller.size_words == 6
        with pytest.raises(IndexError):
            controller.read_word(6, None)


class TestRecoveryIntegration:
    """The ladder over the real array / ECC / sensing stack."""

    def build(self, spare_words=1):
        population = CellPopulation.nominal_population(72 * 3)
        array = STTRAMArray(population)
        memory = EccArray(array, data_bits=64)
        policy = RetryPolicy(max_attempts=3, current_escalation=0.1)
        controller = RecoveryController(
            memory, policy, scrub_rounds=2, spare_words=spare_words
        )
        return population, array, controller

    def test_stuck_open_bit_lands_on_the_ecc_tier(self):
        population, array, controller = self.build()
        controller.write_word(0, 0xDEADBEEF01020304)
        # Stick a cell whose stored codeword bit is 1: an open junction
        # deterministically reads 0, a single correctable error.
        index = int(np.nonzero(array._states[:72] == 1)[0][0])
        StuckOpenFault(rate=1.0).apply_population(
            population, np.arange(population.size) == index
        )
        scheme = NondestructiveSelfReference()
        word = controller.read_word(0, scheme, np.random.default_rng(0))
        assert word.value == 0xDEADBEEF01020304
        assert word.tier is RecoveryTier.ECC

    def test_double_stuck_word_fails_loudly(self):
        population, array, controller = self.build()
        controller.write_word(0, 0xFFFFFFFFFFFFFFFF)
        ones = np.nonzero(array._states[:72] == 1)[0][:2]
        StuckOpenFault(rate=1.0).apply_population(
            population, np.isin(np.arange(population.size), ones)
        )
        scheme = NondestructiveSelfReference()
        with pytest.raises(RetryExhaustedError):
            controller.read_word(0, scheme, np.random.default_rng(0))
        assert controller.words_lost == 1

    def test_stuck_short_bit_is_retried_and_recovered(self):
        population, array, controller = self.build()
        controller.write_word(1, 0xAAAA5555AAAA5555)
        index = 72 + int(np.nonzero(array._states[72:144] == 1)[0][0])
        StuckShortFault(rate=1.0).apply_population(
            population, np.arange(population.size) == index
        )
        scheme = NondestructiveSelfReference()
        # A shorted junction senses inside the 8 mV window: metastable, so
        # the retry tier burns its budget before the decoder cleans up.
        word = controller.read_word(1, scheme, np.random.default_rng(1))
        assert word.value == 0xAAAA5555AAAA5555
        assert word.degraded
        assert word.attempts == 3
