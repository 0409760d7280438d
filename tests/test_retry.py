"""Read-retry controller: policy semantics and batch/scalar equivalence.

The contract under test (see ``repro/core/retry.py``): the vectorized
:func:`read_many_with_retry` must be bit-for-bit equivalent — same bits,
accounting arrays, final states, and RNG stream position — to
:func:`retry_batch_from_scalar_reads`, the round-major loop of scalar
``scheme.read`` calls that defines the controller's draw order.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit.sense_amp import SenseAmplifier
from repro.core import (
    ConventionalSensing,
    DestructiveSelfReference,
    NondestructiveSelfReference,
)
from repro.core.batch import materialize_cell
from repro.core.retry import (
    RetryPolicy,
    read_many_with_retry,
    read_with_retry,
    retry_batch_from_scalar_reads,
)
from repro.device.variation import CellPopulation, VariationModel
from repro.errors import ConfigurationError
from repro.faults.injector import _with_sense_offset
from repro.timing.energy import retry_read_energy, scheme_read_energy
from repro.timing.latency import nondestructive_read_latency, retry_read_latency

#: Wide-variation population: enough tail bits that metastable comparisons
#: (and hence retries) actually occur with a loose sense amp.
POPULATION = CellPopulation.sample(
    96, VariationModel().scaled(2.0), rng=np.random.default_rng(7)
)

WIDE_WINDOW = 0.05


def make_scheme(kind: str, resolution: float = WIDE_WINDOW):
    amp = SenseAmplifier(resolution=resolution)
    if kind == "conventional":
        return ConventionalSensing(v_ref=0.4, sense_amp=amp)
    if kind == "destructive":
        return DestructiveSelfReference(sense_amp=amp)
    if kind == "nondestructive":
        return NondestructiveSelfReference(sense_amp=amp)
    raise ValueError(kind)


ALL_KINDS = ["conventional", "destructive", "nondestructive"]


def pattern(seed: int = 3, size: int = POPULATION.size) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size).astype(np.uint8)


def assert_retry_batches_equal(ref, vec) -> None:
    np.testing.assert_array_equal(ref.bits, vec.bits)
    np.testing.assert_array_equal(ref.expected_bits, vec.expected_bits)
    np.testing.assert_array_equal(ref.margins, vec.margins)
    np.testing.assert_array_equal(ref.metastable, vec.metastable)
    np.testing.assert_array_equal(ref.data_destroyed, vec.data_destroyed)
    np.testing.assert_array_equal(ref.attempts, vec.attempts)
    np.testing.assert_array_equal(ref.read_pulses, vec.read_pulses)
    np.testing.assert_array_equal(ref.write_pulses, vec.write_pulses)
    np.testing.assert_array_equal(ref.backoff_ns, vec.backoff_ns)
    np.testing.assert_array_equal(
        ref.first_attempt_metastable, vec.first_attempt_metastable
    )
    assert set(ref.voltages) == set(vec.voltages)
    for name in ref.voltages:
        np.testing.assert_array_equal(ref.voltages[name], vec.voltages[name])


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_ns=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(current_escalation=-0.1)

    def test_escalation_and_backoff_schedules(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_ns=5.0, backoff_factor=2.0, current_escalation=0.2
        )
        assert policy.escalation_factor(1) == 1.0
        assert policy.escalation_factor(3) == pytest.approx(1.4)
        assert policy.backoff_before(1) == 0.0
        assert policy.backoff_before(2) == 5.0
        assert policy.backoff_before(4) == 20.0
        assert policy.total_backoff(1) == 0.0
        assert policy.total_backoff(4) == pytest.approx(35.0)


class TestScalarRetry:
    """Satellite: retried reads accumulate pulses and surface attempts."""

    def test_clean_read_is_one_attempt(self, paper_cell):
        paper_cell.write(1)
        scheme = NondestructiveSelfReference(beta=2.13)
        result = read_with_retry(
            scheme, paper_cell, RetryPolicy(max_attempts=3), np.random.default_rng(0)
        )
        assert result.attempts == 1
        assert result.read_pulses == 2  # one nondestructive read: two pulses
        assert result.bit == 1

    def test_metastable_read_accumulates_pulses(self, paper_cell):
        paper_cell.write(1)
        # A hopeless amp: every comparison metastable, so the controller
        # burns its whole attempt budget and charges every pulse.
        scheme = NondestructiveSelfReference(
            beta=2.13, sense_amp=SenseAmplifier(resolution=10.0)
        )
        policy = RetryPolicy(max_attempts=4, backoff_ns=5.0)
        result = read_with_retry(scheme, paper_cell, policy, np.random.default_rng(0))
        assert result.attempts == 4
        assert result.read_pulses == 8
        assert result.metastable

    def test_destructive_retry_charges_write_pulses(self, paper_cell):
        paper_cell.write(1)
        scheme = DestructiveSelfReference(
            beta=1.22, sense_amp=SenseAmplifier(resolution=10.0)
        )
        result = read_with_retry(
            scheme, paper_cell, RetryPolicy(max_attempts=3), np.random.default_rng(0)
        )
        assert result.attempts == 3
        assert result.read_pulses == 6
        assert result.write_pulses == 6  # erase + write-back per attempt
        assert result.expected_bit == 1  # ground truth before attempt 1

    def test_matches_single_cell_batch(self):
        index = 11
        sub = POPULATION.subset(np.array([index]))
        policy = RetryPolicy(max_attempts=3, current_escalation=0.1)
        scheme = make_scheme("nondestructive")

        cell = materialize_cell(POPULATION, index, 1)
        scalar = read_with_retry(scheme, cell, policy, np.random.default_rng(5))
        batch = read_many_with_retry(
            scheme, sub, np.array([1], dtype=np.uint8), policy,
            np.random.default_rng(5),
        )
        bridged = batch.result(0)
        assert bridged.bit == scalar.bit
        assert bridged.margin == scalar.margin
        assert bridged.attempts == scalar.attempts
        assert bridged.read_pulses == scalar.read_pulses
        assert bridged.metastable == scalar.metastable


class TestBatchRetryEquivalence:
    """Vectorized retry vs the scalar-loop reference implementation."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scalar_loop_with_rng(self, kind, seed):
        scheme = make_scheme(kind)
        policy = RetryPolicy(max_attempts=3, current_escalation=0.1)
        states_ref = pattern()
        states_vec = pattern()
        ref = retry_batch_from_scalar_reads(
            scheme, POPULATION, states_ref, policy, np.random.default_rng(seed)
        )
        rng_vec = np.random.default_rng(seed)
        vec = read_many_with_retry(scheme, POPULATION, states_vec, policy, rng_vec)
        assert_retry_batches_equal(ref, vec)
        np.testing.assert_array_equal(states_ref, states_vec)
        # Stream position: the next draw after the retried batch agrees too.
        rng_ref = np.random.default_rng(seed)
        retry_batch_from_scalar_reads(
            scheme, POPULATION, pattern(), policy, rng_ref
        )
        assert rng_ref.random() == rng_vec.random()

    @settings(max_examples=15, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        seed=st.integers(min_value=0, max_value=2**31),
        pattern_seed=st.integers(min_value=0, max_value=2**31),
        size=st.integers(min_value=1, max_value=32),
        max_attempts=st.integers(min_value=1, max_value=4),
        escalation=st.sampled_from([0.0, 0.1, 0.25]),
        majority=st.booleans(),
        variant=st.sampled_from(["design", "offset", "kwargs"]),
    )
    @example(kind="nondestructive", seed=1, pattern_seed=2, size=32,
             max_attempts=3, escalation=0.1, majority=False, variant="offset")
    @example(kind="nondestructive", seed=1, pattern_seed=2, size=32,
             max_attempts=3, escalation=0.1, majority=False, variant="kwargs")
    @example(kind="conventional", seed=1, pattern_seed=2, size=32,
             max_attempts=3, escalation=0.25, majority=True, variant="kwargs")
    def test_equivalence_property(
        self, kind, seed, pattern_seed, size, max_attempts, escalation, majority,
        variant,
    ):
        """Any scheme, seed, pattern, bit subset, and retry policy: the
        scalar reference, the controller over a copied subset, and the
        controller over an index view agree (also with a perturbed sense
        offset and with non-default, per-bit read arguments)."""
        scheme = make_scheme(kind)
        if variant == "offset":
            scheme = _with_sense_offset(scheme, 4.0e-3)
        policy = RetryPolicy(
            max_attempts=max_attempts,
            current_escalation=escalation,
            majority_vote=majority,
        )
        draw = np.random.default_rng(pattern_seed)
        idx = np.sort(draw.choice(POPULATION.size, size, replace=False))
        kwargs = {}
        if variant == "kwargs":
            kwargs = (
                {"v_ref_error": POPULATION.vref_error[idx]}
                if kind == "conventional"
                else {"hold_time": 40e-9}
            )
        sub = POPULATION.subset(idx)
        states0 = draw.integers(0, 2, size).astype(np.uint8)
        s_ref, s_vec, s_view = states0.copy(), states0.copy(), states0.copy()
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        ref = retry_batch_from_scalar_reads(scheme, sub, s_ref, policy, rngs[0], **kwargs)
        vec = read_many_with_retry(scheme, sub, s_vec, policy, rngs[1], **kwargs)
        view = read_many_with_retry(
            scheme, POPULATION.view(idx), s_view, policy, rngs[2], **kwargs
        )
        assert_retry_batches_equal(ref, vec)
        assert_retry_batches_equal(vec, view)
        np.testing.assert_array_equal(s_ref, s_vec)
        np.testing.assert_array_equal(s_vec, s_view)
        next_draws = {rng.random() for rng in rngs}
        assert len(next_draws) == 1

    def test_per_bit_vref_error_kwargs(self):
        scheme = make_scheme("conventional")
        policy = RetryPolicy(max_attempts=3)
        errors = POPULATION.vref_error
        s_ref, s_vec = pattern(), pattern()
        ref = retry_batch_from_scalar_reads(
            scheme, POPULATION, s_ref, policy, np.random.default_rng(4),
            v_ref_error=errors,
        )
        vec = read_many_with_retry(
            scheme, POPULATION, s_vec, policy, np.random.default_rng(4),
            v_ref_error=errors,
        )
        assert_retry_batches_equal(ref, vec)

    def test_power_failure_aborts_stay_unresolved(self):
        # A power failure on every attempt: no decision ever forms, the
        # budget is spent, and the bits surface as exhausted.
        scheme = make_scheme("destructive")
        policy = RetryPolicy(max_attempts=2)
        states = pattern()
        batch = read_many_with_retry(
            scheme, POPULATION, states, policy, np.random.default_rng(0),
            power_failure_at="after_erase",
        )
        assert batch.unresolved_mask.all()
        assert batch.exhausted_mask.all()
        assert (batch.attempts == 2).all()
        assert batch.data_destroyed.any()

    def test_accounting_views(self):
        scheme = make_scheme("nondestructive")
        policy = RetryPolicy(max_attempts=3, backoff_ns=5.0)
        batch = read_many_with_retry(
            scheme, POPULATION, pattern(), policy, np.random.default_rng(1)
        )
        assert batch.size == POPULATION.size
        assert batch.retried_count == int(np.count_nonzero(batch.attempts > 1))
        assert batch.retried_count > 0  # wide window: some bits retried
        # Retries that resolved deterministically count as recovered.
        np.testing.assert_array_equal(
            batch.recovered_mask,
            batch.retried_mask & (batch.bits >= 0) & ~batch.metastable,
        )
        assert batch.total_read_pulses == int(batch.read_pulses.sum())
        assert batch.total_read_pulses > 2 * POPULATION.size  # extra attempts
        # Backoff: a bit retried k times waited the policy's first k-1 steps.
        worst = int(batch.attempts.max())
        assert batch.max_backoff_ns == pytest.approx(policy.total_backoff(worst))
        assert batch.bit_values().dtype == np.uint8

    def test_first_attempt_metastable_is_sticky(self):
        scheme = make_scheme("nondestructive")
        policy = RetryPolicy(max_attempts=3)
        batch = read_many_with_retry(
            scheme, POPULATION, pattern(), policy, np.random.default_rng(1)
        )
        # Every retried bit was metastable (or undecided) on attempt 1.
        assert batch.first_attempt_metastable[batch.retried_mask].all()


class TestRetryTiming:
    """Latency/energy accounting of retried reads."""

    def make_base(self, paper_cell):
        return nondestructive_read_latency(paper_cell, beta=2.13)

    def test_latency_accumulates_schedule_and_backoff(self, paper_cell):
        base = self.make_base(paper_cell)
        policy = RetryPolicy(max_attempts=4, backoff_ns=5.0, backoff_factor=2.0)
        retried = retry_read_latency(base, policy, 3)
        assert retried.total == pytest.approx(3 * base.total + 15.0e-9)
        assert retried.backoff == pytest.approx(15.0e-9)
        assert retried.sensing == pytest.approx(3 * base.total)
        assert retried.slowdown > 3.0
        # One attempt is exactly the clean read.
        assert retry_read_latency(base, policy, 1).total == base.total

    def test_latency_guards(self, paper_cell):
        base = self.make_base(paper_cell)
        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(ConfigurationError):
            retry_read_latency(base, policy, 0)
        with pytest.raises(ConfigurationError):
            retry_read_latency(base, policy, 3)

    def test_energy_scales_quadratically_with_escalation(self, paper_cell):
        base = scheme_read_energy(paper_cell, self.make_base(paper_cell))
        policy = RetryPolicy(max_attempts=3, current_escalation=0.2)
        retried = retry_read_energy(base, policy, 3)
        assert retried.per_attempt[0] == pytest.approx(base.total)
        assert retried.per_attempt[2] == pytest.approx(
            base.write_energy + base.read_energy * 1.4**2
        )
        assert retried.total == pytest.approx(sum(retried.per_attempt))
        assert retried.overhead == pytest.approx(retried.total - base.total)
        assert retried.cost_factor > 3.0  # escalation beats linear cost

    def test_energy_without_escalation_is_linear(self, paper_cell):
        base = scheme_read_energy(paper_cell, self.make_base(paper_cell))
        policy = RetryPolicy(max_attempts=3)
        retried = retry_read_energy(base, policy, 3)
        assert retried.total == pytest.approx(3 * base.total)
