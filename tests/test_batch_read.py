"""Batch read kernel: bit-for-bit equivalence with the scalar path.

The contract under test (see ``repro/core/batch.py``): for every scheme,
``scheme.read_many`` over a population must equal the sequential loop of
scalar ``scheme.read`` calls — same sensed bits, margins, rail voltages,
destroyed-data flags, final stored states, and the same RNG stream
position afterwards — so batched and per-bit reads are interchangeable.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.ber import expected_behavioral_ber, sample_read_ber
from repro.array.array import STTRAMArray
from repro.circuit.sense_amp import SenseAmplifier
from repro.core import (
    ConventionalSensing,
    DestructiveSelfReference,
    NondestructiveSelfReference,
    batch_from_scalar_reads,
)
from repro.core.batch import materialize_cell
from repro.device.variation import CellPopulation, VariationModel
from repro.errors import ConfigurationError
from repro.faults.injector import _with_sense_offset

#: Wide-variation population: enough tail bits that misreads and (with a
#: loose sense amp) metastable comparisons actually occur.
POPULATION = CellPopulation.sample(
    160, VariationModel().scaled(2.0), rng=np.random.default_rng(7)
)

#: A resolution window wide enough to force metastable draws on this
#: population, exercising the RNG-consuming paths.
WIDE_WINDOW = 0.05


def make_scheme(kind: str, resolution: float = 8.0e-3):
    amp = SenseAmplifier(resolution=resolution)
    if kind == "conventional":
        return ConventionalSensing(v_ref=0.4, sense_amp=amp)
    if kind == "destructive":
        return DestructiveSelfReference(sense_amp=amp)
    if kind == "destructive-weak":
        # Marginal write driver: erase/write-back pulses fail stochastically.
        return DestructiveSelfReference(sense_amp=amp, write_overdrive=1.03)
    if kind == "nondestructive":
        return NondestructiveSelfReference(sense_amp=amp)
    raise ValueError(kind)


ALL_KINDS = ["conventional", "destructive", "destructive-weak", "nondestructive"]

#: Kinds whose non-default read arguments are per-bit arrays (which the
#: scalar reference loop does not take).
PER_BIT_KWARG_KINDS = {"conventional"}


def variant_kwargs(kind: str, idx: np.ndarray) -> dict:
    """Non-default ``read_many`` arguments of each kind, for bits ``idx``."""
    if kind == "conventional":
        return {"v_ref_error": POPULATION.vref_error[idx]}
    return {"hold_time": 40e-9}


def pattern(seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, POPULATION.size).astype(np.uint8)


def assert_batches_equal(ref, vec, compare_metastable: bool = False) -> None:
    np.testing.assert_array_equal(ref.bits, vec.bits)
    np.testing.assert_array_equal(ref.expected_bits, vec.expected_bits)
    np.testing.assert_array_equal(ref.margins, vec.margins)
    assert set(ref.voltages) == set(vec.voltages)
    for name in ref.voltages:
        np.testing.assert_array_equal(
            ref.voltages[name], np.broadcast_to(vec.voltages[name], (ref.size,))
        )
    np.testing.assert_array_equal(ref.data_destroyed, vec.data_destroyed)
    assert ref.write_pulses == vec.write_pulses
    assert ref.read_pulses == vec.read_pulses
    if compare_metastable:
        np.testing.assert_array_equal(ref.metastable, vec.metastable)


class TestKernelEquivalence:
    """Vectorized ``read_many`` vs the sequential scalar reference loop."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("resolution", [8.0e-3, WIDE_WINDOW])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scalar_loop_with_rng(self, kind, resolution, seed):
        scheme = make_scheme(kind, resolution)
        states_ref = pattern()
        states_vec = pattern()
        ref = batch_from_scalar_reads(
            scheme, POPULATION, states_ref, rng=np.random.default_rng(seed)
        )
        rng_vec = np.random.default_rng(seed)
        vec = scheme.read_many(POPULATION, states_vec, rng=rng_vec)
        assert_batches_equal(ref, vec)
        np.testing.assert_array_equal(states_ref, states_vec)
        # Stream position: the next draw after the batch must also agree.
        rng_ref = np.random.default_rng(seed)
        batch_from_scalar_reads(scheme, POPULATION, pattern(), rng=rng_ref)
        assert rng_ref.random() == rng_vec.random()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("resolution", [8.0e-3, WIDE_WINDOW])
    def test_matches_scalar_loop_without_rng(self, kind, resolution):
        scheme = make_scheme(kind, resolution)
        states_ref = pattern()
        states_vec = pattern()
        ref = batch_from_scalar_reads(scheme, POPULATION, states_ref, rng=None)
        vec = scheme.read_many(POPULATION, states_vec, rng=None)
        # Without an RNG nothing resolves randomly, so the fallback's
        # unresolved-only metastable view matches the kernel's window mask.
        assert_batches_equal(ref, vec, compare_metastable=True)
        np.testing.assert_array_equal(states_ref, states_vec)

    @pytest.mark.parametrize(
        "phase", ["after_erase", "after_second_read", "after_compare"]
    )
    @pytest.mark.parametrize("kind", ["destructive", "destructive-weak"])
    def test_destructive_power_failure_phases(self, kind, phase):
        scheme = make_scheme(kind, WIDE_WINDOW)
        states_ref = pattern()
        states_vec = pattern()
        ref = batch_from_scalar_reads(
            scheme,
            POPULATION,
            states_ref,
            rng=np.random.default_rng(11),
            power_failure_at=phase,
        )
        vec = scheme.read_many(
            POPULATION,
            states_vec,
            rng=np.random.default_rng(11),
            power_failure_at=phase,
        )
        assert_batches_equal(ref, vec)
        np.testing.assert_array_equal(states_ref, states_vec)

    @pytest.mark.parametrize(
        "phase", ["after_erase", "after_second_read", "after_compare"]
    )
    def test_power_failure_destroyed_data_parity_with_scalar_loop(self, phase):
        """Regression: the batch kernel's ``data_destroyed`` under a
        power-failure abort must equal a raw loop of scalar ``scheme.read``
        calls — same flags, same surviving states, bit for bit."""
        scheme = make_scheme("destructive", WIDE_WINDOW)
        states_vec = pattern()
        vec = scheme.read_many(
            POPULATION, states_vec,
            rng=np.random.default_rng(13), power_failure_at=phase,
        )

        states_scalar = pattern()
        rng = np.random.default_rng(13)
        destroyed = np.zeros(POPULATION.size, dtype=bool)
        for index in range(POPULATION.size):
            cell = materialize_cell(POPULATION, index, int(states_scalar[index]))
            result = scheme.read(cell, rng, power_failure_at=phase)
            destroyed[index] = result.data_destroyed
            if phase != "after_compare":
                assert result.bit is None  # the abort beat the latch
            states_scalar[index] = cell.stored_bit

        np.testing.assert_array_equal(vec.data_destroyed, destroyed)
        np.testing.assert_array_equal(states_vec, states_scalar)
        # An erase-window abort genuinely loses data on this population.
        if phase == "after_erase":
            assert destroyed.any()

    def test_destructive_mutates_states_in_place(self):
        scheme = make_scheme("destructive")
        states = pattern()
        original = states.copy()
        result = scheme.read_many(POPULATION, states, rng=np.random.default_rng(0))
        # A solid erase/write-back driver restores correctly-sensed bits, so
        # destroyed bits are exactly the misread ones.
        np.testing.assert_array_equal(result.data_destroyed, states != original)
        assert result.write_pulses == 2 and result.read_pulses == 2

    def test_nondestructive_never_touches_states(self):
        scheme = make_scheme("nondestructive", WIDE_WINDOW)
        states = pattern()
        original = states.copy()
        result = scheme.read_many(POPULATION, states, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(states, original)
        assert not result.data_destroyed.any()
        assert result.write_pulses == 0

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        seed=st.integers(min_value=0, max_value=2**31),
        pattern_seed=st.integers(min_value=0, max_value=2**31),
        size=st.integers(min_value=1, max_value=40),
        resolution=st.sampled_from([8.0e-3, WIDE_WINDOW]),
        variant=st.sampled_from(["design", "escalated", "offset", "kwargs"]),
    )
    @example(kind="nondestructive", seed=1, pattern_seed=2, size=40,
             resolution=WIDE_WINDOW, variant="escalated")
    @example(kind="nondestructive", seed=1, pattern_seed=2, size=40,
             resolution=WIDE_WINDOW, variant="offset")
    @example(kind="nondestructive", seed=1, pattern_seed=2, size=40,
             resolution=WIDE_WINDOW, variant="kwargs")
    @example(kind="destructive-weak", seed=1, pattern_seed=2, size=40,
             resolution=WIDE_WINDOW, variant="escalated")
    @example(kind="conventional", seed=1, pattern_seed=2, size=40,
             resolution=WIDE_WINDOW, variant="kwargs")
    def test_equivalence_property(
        self, kind, seed, pattern_seed, size, resolution, variant
    ):
        """Any scheme, any seed, any pattern, any bit subset: the scalar
        loop, the kernel on a copied subset, and the kernel on an index
        view of the same bits agree — at the design point, at an escalated
        read current, with a perturbed sense offset, and with non-default
        per-read arguments (per-bit arrays included)."""
        scheme = make_scheme(kind, resolution)
        kwargs = {}
        if variant == "escalated":
            scheme = scheme.scaled_read_current(1.25)
        elif variant == "offset":
            scheme = _with_sense_offset(scheme, 4.0e-3)
        draw = np.random.default_rng(pattern_seed)
        idx = np.sort(draw.choice(POPULATION.size, size, replace=False))
        if variant == "kwargs":
            kwargs = variant_kwargs(kind, idx)
        sub = POPULATION.subset(idx)
        states0 = draw.integers(0, 2, size).astype(np.uint8)
        s_ref, s_vec, s_view = states0.copy(), states0.copy(), states0.copy()
        rng_vec = np.random.default_rng(seed)
        vec = scheme.read_many(sub, s_vec, rng=rng_vec, **kwargs)
        # A design-point read first, so a view read whose cached tables
        # were keyed too coarsely would pick up the design point's rails.
        make_scheme(kind, resolution).read_many(POPULATION.view(idx), states0.copy())
        rng_view = np.random.default_rng(seed)
        view = scheme.read_many(POPULATION.view(idx), s_view, rng=rng_view, **kwargs)
        assert_batches_equal(vec, view, compare_metastable=True)
        np.testing.assert_array_equal(s_vec, s_view)
        next_draw = rng_vec.random()
        assert rng_view.random() == next_draw
        if variant != "kwargs" or kind not in PER_BIT_KWARG_KINDS:
            rng_ref = np.random.default_rng(seed)
            ref = batch_from_scalar_reads(scheme, sub, s_ref, rng=rng_ref, **kwargs)
            assert_batches_equal(ref, vec)
            np.testing.assert_array_equal(s_ref, s_vec)
            assert rng_ref.random() == next_draw

    def test_conventional_scalar_vref_error_matches_scalar_loop(self):
        scheme = make_scheme("conventional", WIDE_WINDOW)
        ref = batch_from_scalar_reads(
            scheme,
            POPULATION,
            pattern(),
            rng=np.random.default_rng(2),
            v_ref_error=0.02,
        )
        vec = scheme.read_many(
            POPULATION, pattern(), rng=np.random.default_rng(2), v_ref_error=0.02
        )
        assert_batches_equal(ref, vec)

    def test_conventional_per_bit_vref_error(self):
        scheme = make_scheme("conventional")
        errors = POPULATION.vref_error
        vec = scheme.read_many(POPULATION, pattern(), rng=None, v_ref_error=errors)
        # Per-bit reference: each bit's scalar read with its own shifted
        # reference must agree.
        for index in (0, 11, 97):
            cell = materialize_cell(POPULATION, index, int(pattern()[index]))
            scalar = scheme.read(cell, None, v_ref_error=float(errors[index]))
            assert vec.margins[index] == scalar.margin
            assert vec.voltages["v_ref"][index] == scalar.voltages["v_ref"]

    def test_states_must_be_ndarray(self):
        scheme = make_scheme("conventional")
        with pytest.raises(ConfigurationError):
            scheme.read_many(POPULATION, [0] * POPULATION.size)

    def test_states_shape_must_match(self):
        scheme = make_scheme("conventional")
        with pytest.raises(ConfigurationError):
            scheme.read_many(POPULATION, np.zeros(3, dtype=np.uint8))


class TestBatchReadResult:
    def test_scalar_bridge_reconstructs_read_result(self):
        scheme = make_scheme("nondestructive")
        states = pattern()
        batch = scheme.read_many(POPULATION, states.copy(), rng=np.random.default_rng(5))
        index = 17
        cell = materialize_cell(POPULATION, index, int(states[index]))
        scalar = scheme.read(cell, np.random.default_rng(99))
        bridged = batch.result(index)
        # RNG-independent fields (this bit latched deterministically).
        assert bridged.expected_bit == scalar.expected_bit
        assert bridged.margin == scalar.margin
        assert bridged.voltages == scalar.voltages
        assert bridged.write_pulses == scalar.write_pulses
        with pytest.raises(IndexError):
            batch.result(POPULATION.size)

    def test_aggregates_and_rails(self):
        scheme = make_scheme("nondestructive", WIDE_WINDOW)
        batch = scheme.read_many(POPULATION, pattern(), rng=None)
        assert batch.size == POPULATION.size
        assert batch.metastable_count == int(np.count_nonzero(batch.metastable))
        np.testing.assert_array_equal(batch.unresolved_mask, batch.bits < 0)
        assert batch.bit_values().dtype == np.uint8
        assert (batch.bit_values()[batch.unresolved_mask] == 0).all()
        assert batch.error_count >= batch.metastable_count  # unresolved count as errors
        np.testing.assert_array_equal(batch.v_bl1, batch.voltages["v_bl1"])
        np.testing.assert_array_equal(batch.v_bl2, batch.voltages["v_bl2"])
        np.testing.assert_array_equal(batch.v_bo, batch.voltages["v_bo"])

    def test_conventional_rail_aliases(self):
        scheme = make_scheme("conventional")
        batch = scheme.read_many(POPULATION, pattern(), rng=None)
        np.testing.assert_array_equal(batch.v_bl1, batch.voltages["v_bl"])
        np.testing.assert_array_equal(batch.v_bo, batch.voltages["v_ref"])
        assert batch.v_bl2 is None


class TestArrayBatchAPI:
    def make_array(self) -> STTRAMArray:
        array = STTRAMArray(POPULATION, word_width=8)
        array._states[:] = pattern()
        return array

    def test_read_bit_is_batch_of_one(self):
        array = self.make_array()
        scheme = make_scheme("nondestructive")
        index = 42
        expected_cell = materialize_cell(
            POPULATION, index, int(array.stored_bits()[index])
        )
        scalar = scheme.read(expected_cell, np.random.default_rng(1))
        result = array.read_bit(index, scheme, np.random.default_rng(1))
        assert result.bit == scalar.bit
        assert result.margin == scalar.margin
        assert result.voltages == scalar.voltages

    def test_read_word_matches_sequential_scalar_reads(self):
        scheme = make_scheme("destructive-weak", WIDE_WINDOW)
        array = self.make_array()
        value = array.read_word(0, scheme, np.random.default_rng(4))

        states = pattern()[:8]
        rng = np.random.default_rng(4)
        expected_value = 0
        for offset in range(8):
            cell = materialize_cell(POPULATION, offset, int(states[offset]))
            result = scheme.read(cell, rng)
            expected_value |= (result.bit or 0) << offset
        assert value == expected_value

    def test_read_word_result_reports_metastability(self):
        # A hopeless sense amp: every comparison is metastable.
        scheme = NondestructiveSelfReference(sense_amp=SenseAmplifier(resolution=10.0))
        array = self.make_array()
        word = array.read_word_result(1, scheme, rng=None)
        assert word.metastable_bits == array.word_width
        assert not word.resolved
        assert word.value == 0  # unresolved bits pack as 0
        # With an RNG the bits resolve, but the count still flags them all.
        word = array.read_word_result(1, scheme, np.random.default_rng(0))
        assert word.metastable_bits == array.word_width
        assert word.batch.unresolved_mask.sum() == 0

    def test_read_words_and_read_all(self):
        scheme = make_scheme("conventional")
        array = self.make_array()
        words = array.read_words([0, 3, 5], scheme, np.random.default_rng(0))
        assert len(words) == 3
        everything = array.read_all(scheme, np.random.default_rng(0))
        assert everything.size == array.size_bits

    def test_read_all_updates_array_state_destructively(self):
        scheme = make_scheme("destructive-weak")
        array = self.make_array()
        before = array.stored_bits()
        batch = array.read_all(scheme, np.random.default_rng(9))
        after = array.stored_bits()
        np.testing.assert_array_equal(batch.data_destroyed, before != after)

    def test_read_bits_rejects_duplicates_and_bounds(self):
        array = self.make_array()
        scheme = make_scheme("conventional")
        with pytest.raises(ConfigurationError):
            array.read_bits([1, 1], scheme)
        with pytest.raises(IndexError):
            array.read_bits([0, array.size_bits], scheme)
        with pytest.raises(IndexError):
            array.read_bit(-1, scheme)


class TestBehavioralTestchip:
    def test_reproduces_fig11_outcome(self):
        from repro.array import run_testchip_behavioral

        summaries = run_testchip_behavioral()
        assert set(summaries) == {"conventional", "destructive", "nondestructive"}
        conventional = summaries["conventional"]
        assert conventional.bits == 16384
        # The shared-reference tail misreads; both self-reference schemes
        # read every bit — the paper's headline measurement, behaviourally.
        assert conventional.misreads > 0
        assert summaries["destructive"].misreads == 0
        assert summaries["nondestructive"].misreads == 0
        assert summaries["nondestructive"].data_destroyed == 0
        assert summaries["destructive"].batch.write_pulses == 2


class TestSampledBER:
    def test_empirical_matches_margin_prediction(self):
        scheme = make_scheme("conventional", WIDE_WINDOW)
        empirical = sample_read_ber(
            POPULATION, scheme, rng=np.random.default_rng(0), rounds=4
        )
        assert empirical.trials == 8 * POPULATION.size
        # Deterministic misreads floor the BER; metastable flips add
        # half their count in expectation.
        assert empirical.ber == pytest.approx(
            empirical.expected_ber, abs=4 * empirical.std_error + 1e-12
        )

    def test_nondestructive_reads_clean_population_perfectly(self):
        population = CellPopulation.sample(
            256, VariationModel(), rng=np.random.default_rng(1)
        )
        scheme = NondestructiveSelfReference()
        empirical = sample_read_ber(population, scheme, rng=np.random.default_rng(2))
        assert empirical.errors == 0
        assert empirical.ber == 0.0

    def test_expected_behavioral_ber_regions(self):
        margins = np.array([-0.1, -0.008, 0.0, 0.004, 0.1])
        assert expected_behavioral_ber(margins, 8.0e-3) == pytest.approx(
            (1.0 + 1.0 + 0.5 + 0.5 + 0.0) / 5
        )
        with pytest.raises(ConfigurationError):
            expected_behavioral_ber(margins, -1.0)
