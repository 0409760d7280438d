"""Read-retry controller: re-sense bits that failed to resolve.

A metastable sense-amplifier decision is observable in hardware (the latch
flags late resolution), so a memory controller can simply try again — wait
a backoff, optionally escalate the sense current for more differential
swing, optionally majority-vote over the attempts.  This module implements
that controller over both read paths:

* :func:`read_with_retry` — the scalar path, one :class:`Cell1T1J`;
* :func:`read_many_with_retry` — the vectorized path over a whole
  :class:`CellPopulation`, re-reading only the still-unresolved subset
  each round.

RNG contract (round-major): attempt 1 consumes draws exactly as one
``read_many`` over the full population; each further attempt consumes
draws as one ``read_many`` over the still-active subset in ascending bit
order.  A test oracle (``tests/oracles.py``) spells that contract out as
a loop of scalar ``scheme.read`` calls, and the vectorized controller must
match it bit-for-bit.

Retries are *not* free: every attempt's current pulses accumulate into the
result's ``read_pulses``/``write_pulses`` and the policy's backoff
accumulates in simulated nanoseconds, so latency/energy accounting (see
:func:`repro.timing.latency.retry_read_latency`) charges what the cell
actually endured.

Usage — re-read a whole population until its metastable bits resolve::

    import numpy as np
    from repro.core import NondestructiveSelfReference, RetryPolicy
    from repro.core.retry import read_many_with_retry

    policy = RetryPolicy(max_attempts=3, backoff_ns=5.0,
                         current_escalation=0.1)   # +10% I_read per round
    scheme = NondestructiveSelfReference(beta=2.136)
    result = read_many_with_retry(
        scheme, population, states, policy, rng=np.random.default_rng(7)
    )
    result.retried_count       # bits that needed a second look
    result.recovered_mask      # retries that produced a clean decision
    result.exhausted_mask      # still unresolved -> escalate to ECC/scrub

With :mod:`repro.obs` enabled, every retry round also lands in the
``retry.*`` counters and emits ``read_retried`` / ``read_escalated``
trace events (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.core.base import ReadResult, SensingScheme
from repro.core.batch import check_batch_inputs
from repro.core.cell import Cell1T1J
from repro.device.variation import CellPopulation
from repro.errors import ConfigurationError
from repro.obs import runtime as _obs
from repro.obs.registry import ATTEMPTS_EDGES, BACKOFF_NS_EDGES
from repro.obs.trace import READ_ESCALATED, READ_RETRIED

__all__ = [
    "RetryPolicy",
    "BatchRetryResult",
    "read_with_retry",
    "read_many_with_retry",
]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How a controller re-reads bits that failed to resolve.

    Attributes
    ----------
    max_attempts:
        Total attempts per bit including the first read (>= 1).
    backoff_ns:
        Simulated wait before the second attempt [ns]; each further
        attempt multiplies it by ``backoff_factor`` (exponential backoff,
        letting transient bit-line disturbances die out).
    backoff_factor:
        Backoff growth per attempt (>= 1).
    current_escalation:
        Fractional read-current increase per extra attempt: attempt ``k``
        reads at ``(1 + current_escalation · (k-1)) × I_read``.  More
        current means more differential swing — at the price of
        read-disturb headroom, which is why it is opt-in.
    majority_vote:
        When True, the final bit is the majority of all resolved attempt
        decisions (ties fall back to the last attempt) instead of simply
        the last attempt — a re-sense filter against single metastable
        coin flips.
    """

    max_attempts: int = 3
    backoff_ns: float = 5.0
    backoff_factor: float = 2.0
    current_escalation: float = 0.0
    majority_vote: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_ns < 0.0:
            raise ConfigurationError("backoff_ns must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.current_escalation < 0.0:
            raise ConfigurationError("current_escalation must be non-negative")

    def escalation_factor(self, attempt: int) -> float:
        """Read-current multiple of attempt ``attempt`` (1-indexed)."""
        return 1.0 + self.current_escalation * (attempt - 1)

    def backoff_before(self, attempt: int) -> float:
        """Simulated wait before attempt ``attempt`` [ns] (0 for the first)."""
        if attempt <= 1:
            return 0.0
        return self.backoff_ns * self.backoff_factor ** (attempt - 2)

    def total_backoff(self, attempts: int) -> float:
        """Total backoff accrued by ``attempts`` attempts [ns]."""
        return sum(self.backoff_before(k) for k in range(2, attempts + 1))


def _meter_retry_round(
    scheme_name: str, policy: RetryPolicy, attempt: int, bits: int
) -> None:
    """Record one retry round (attempt >= 2) when observability is on."""
    if not _obs.active():
        return
    registry = _obs.get_registry()
    registry.inc("retry.rounds", scheme=scheme_name)
    registry.inc("retry.bits_retried", bits, scheme=scheme_name)
    _obs.trace(READ_RETRIED, scheme=scheme_name, attempt=attempt, bits=int(bits))
    factor = policy.escalation_factor(attempt)
    if factor != 1.0:
        registry.inc("retry.escalations", scheme=scheme_name)
        _obs.trace(
            READ_ESCALATED, scheme=scheme_name, attempt=attempt, factor=factor
        )


def _meter_retry_result(result: "BatchRetryResult") -> "BatchRetryResult":
    """Fold one finished retried batch into the registry (no-op when off)."""
    if not _obs.active():
        return result
    registry = _obs.get_registry()
    scheme_name = result.scheme
    recovered = int(np.count_nonzero(result.recovered_mask))
    exhausted = int(np.count_nonzero(result.exhausted_mask))
    if recovered:
        registry.inc("retry.recovered_bits", recovered, scheme=scheme_name)
    if exhausted:
        registry.inc("retry.exhausted_bits", exhausted, scheme=scheme_name)
    registry.observe_many(
        "retry.attempts", result.attempts, edges=ATTEMPTS_EDGES, scheme=scheme_name
    )
    retried = result.retried_mask
    if retried.any():
        registry.observe_many(
            "retry.backoff_ns",
            result.backoff_ns[retried],
            edges=BACKOFF_NS_EDGES,
            scheme=scheme_name,
        )
    return result


def _needs_retry(bit: Optional[int], metastable: bool) -> bool:
    """A read needs a retry when it produced no decision or a metastable
    one (power-failure aborts also land here: ``bit is None``)."""
    return metastable or bit is None


def _majority(votes, fallback: Optional[int]) -> Optional[int]:
    """Majority of resolved votes; ties (or no votes) fall back."""
    resolved = [b for b in votes if b is not None]
    if not resolved:
        return fallback
    ones = sum(resolved)
    if 2 * ones > len(resolved):
        return 1
    if 2 * ones < len(resolved):
        return 0
    return fallback


def _kwargs_for_subset(kwargs: Dict, idx: np.ndarray, size: int) -> Dict:
    """Per-bit array kwargs (e.g. ``v_ref_error``) restricted to a subset."""
    out = {}
    for name, value in kwargs.items():
        if isinstance(value, np.ndarray) and value.shape == (size,):
            out[name] = value[idx]
        else:
            out[name] = value
    return out


def read_with_retry(
    scheme: SensingScheme,
    cell: Cell1T1J,
    policy: RetryPolicy,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> ReadResult:
    """Read one cell, retrying per ``policy`` while the latch stays
    metastable (or the read aborted without a decision).

    Returns the final attempt's :class:`ReadResult` with the retry
    accounting folded in: ``read_pulses``/``write_pulses`` accumulate over
    **all** attempts, ``attempts`` counts them, ``expected_bit`` stays the
    ground truth *before the first attempt*, and ``data_destroyed``
    reflects the cell's state after the last (a destructive retry can
    restore a bit an earlier attempt destroyed, or vice versa).
    """
    original = cell.stored_bit
    results = []
    attempt = 0
    while True:
        attempt += 1
        if attempt > 1:
            _meter_retry_round(scheme.name, policy, attempt, bits=1)
        escalated = scheme.scaled_read_current(policy.escalation_factor(attempt))
        results.append(escalated.read(cell, rng, **kwargs))
        last = results[-1]
        if not _needs_retry(last.bit, last.metastable):
            break
        if attempt >= policy.max_attempts:
            break
    final = results[-1]
    bit = final.bit
    if policy.majority_vote and len(results) > 1:
        bit = _majority([r.bit for r in results], final.bit)
    merged = dataclasses.replace(
        final,
        bit=bit,
        expected_bit=original,
        data_destroyed=cell.stored_bit != original,
        read_pulses=sum(r.read_pulses for r in results),
        write_pulses=sum(r.write_pulses for r in results),
        attempts=len(results),
    )
    if _obs.active():
        registry = _obs.get_registry()
        if len(results) > 1 and merged.resolved:
            registry.inc("retry.recovered_bits", scheme=scheme.name)
        if merged.metastable or merged.bit is None:
            registry.inc("retry.exhausted_bits", scheme=scheme.name)
        registry.observe(
            "retry.attempts", len(results), edges=ATTEMPTS_EDGES, scheme=scheme.name
        )
        if len(results) > 1:
            registry.observe(
                "retry.backoff_ns",
                policy.total_backoff(len(results)),
                edges=BACKOFF_NS_EDGES,
                scheme=scheme.name,
            )
    return merged


@dataclasses.dataclass(frozen=True)
class BatchRetryResult:
    """Outcome of one retried batch read over a cell population.

    The per-bit view mirrors :class:`~repro.core.batch.BatchReadResult`
    with each bit taken from its **last** attempt; ``expected_bits`` is the
    ground truth before the first attempt and ``data_destroyed`` compares
    the final stored states against it.  ``attempts``, ``read_pulses``,
    ``write_pulses`` and ``backoff_ns`` are per-bit accounting arrays.
    """

    scheme: str
    policy: RetryPolicy
    bits: np.ndarray
    expected_bits: np.ndarray
    margins: np.ndarray
    voltages: Dict[str, np.ndarray]
    metastable: np.ndarray
    data_destroyed: np.ndarray
    attempts: np.ndarray
    read_pulses: np.ndarray
    write_pulses: np.ndarray
    backoff_ns: np.ndarray
    first_attempt_metastable: np.ndarray

    # ------------------------------------------------------------------
    # Aggregate views (the BatchReadResult vocabulary)
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of bits in the batch."""
        return int(self.bits.size)

    @property
    def unresolved_mask(self) -> np.ndarray:
        """Bits left without a decision after every attempt."""
        return self.bits < 0

    @property
    def correct_mask(self) -> np.ndarray:
        """Bits whose final sensed value matches the original data."""
        return (self.bits >= 0) & (self.bits == self.expected_bits)

    @property
    def error_count(self) -> int:
        """Reads that returned the wrong (or no) value after retries."""
        return int(np.count_nonzero(~self.correct_mask))

    @property
    def error_fraction(self) -> float:
        """``error_count / size`` after the retry ladder."""
        return self.error_count / self.size if self.size else 0.0

    def bit_values(self) -> np.ndarray:
        """Final bits with unresolved comparisons mapped to 0."""
        return np.where(self.bits < 0, 0, self.bits).astype(np.uint8)

    # ------------------------------------------------------------------
    # Retry-specific views
    # ------------------------------------------------------------------
    @property
    def retried_mask(self) -> np.ndarray:
        """Bits that needed more than one attempt."""
        return self.attempts > 1

    @property
    def retried_count(self) -> int:
        """How many bits needed more than one attempt."""
        return int(np.count_nonzero(self.retried_mask))

    @property
    def recovered_mask(self) -> np.ndarray:
        """Bits that needed a retry and ended with a deterministic
        decision — the retries that *worked*."""
        return self.retried_mask & (self.bits >= 0) & ~self.metastable

    @property
    def exhausted_mask(self) -> np.ndarray:
        """Bits still metastable (or undecided) after the final attempt —
        candidates for the next recovery tier (ECC/scrub/repair)."""
        return self.metastable | (self.bits < 0)

    @property
    def total_read_pulses(self) -> int:
        """Read pulses summed over every bit and attempt."""
        return int(self.read_pulses.sum())

    @property
    def total_write_pulses(self) -> int:
        """Write pulses summed over every bit and attempt."""
        return int(self.write_pulses.sum())

    @property
    def max_backoff_ns(self) -> float:
        """Worst per-bit backoff — the batch's added latency [ns] (bits
        retry in parallel, so the slowest bit sets the word latency)."""
        return float(self.backoff_ns.max()) if self.size else 0.0

    def result(self, index: int) -> ReadResult:
        """Scalar :class:`~repro.core.base.ReadResult` view of one bit,
        retry accounting included."""
        if not 0 <= index < self.size:
            raise IndexError(f"bit {index} out of range [0, {self.size})")
        bit = int(self.bits[index])
        return ReadResult(
            bit=None if bit < 0 else bit,
            expected_bit=int(self.expected_bits[index]),
            margin=float(self.margins[index]),
            voltages={
                name: float(values[index]) for name, values in self.voltages.items()
            },
            data_destroyed=bool(self.data_destroyed[index]),
            write_pulses=int(self.write_pulses[index]),
            read_pulses=int(self.read_pulses[index]),
            metastable=bool(self.metastable[index]),
            attempts=int(self.attempts[index]),
        )


class _RetryAccumulator:
    """Shared merge logic of the vectorized and reference controllers."""

    def __init__(self, scheme_name: str, policy: RetryPolicy, size: int, original: np.ndarray):
        self.scheme_name = scheme_name
        self.policy = policy
        self.size = size
        self.original = original
        self.bits = np.full(size, -1, dtype=np.int8)
        self.margins = np.zeros(size)
        self.voltages: Dict[str, np.ndarray] = {}
        self.metastable = np.zeros(size, dtype=bool)
        self.attempts = np.zeros(size, dtype=np.int64)
        self.read_pulses = np.zeros(size, dtype=np.int64)
        self.write_pulses = np.zeros(size, dtype=np.int64)
        self.backoff_ns = np.zeros(size)
        self.first_metastable = np.zeros(size, dtype=bool)
        self.vote_ones = np.zeros(size, dtype=np.int64)
        self.vote_total = np.zeros(size, dtype=np.int64)

    def merge(self, idx: np.ndarray, attempt: int, batch) -> None:
        """Fold one attempt's sub-batch (over the bits in ``idx``) in."""
        self.bits[idx] = batch.bits
        self.margins[idx] = batch.margins
        for name, values in batch.voltages.items():
            if name not in self.voltages:
                self.voltages[name] = np.zeros(self.size)
            self.voltages[name][idx] = values
        self.metastable[idx] = batch.metastable
        self.attempts[idx] += 1
        self.read_pulses[idx] += batch.read_pulses
        self.write_pulses[idx] += batch.write_pulses
        self.backoff_ns[idx] += self.policy.backoff_before(attempt)
        if attempt == 1:
            self.first_metastable[idx] = batch.metastable
        resolved = batch.bits >= 0
        self.vote_total[idx] += resolved
        self.vote_ones[idx] += resolved & (batch.bits == 1)

    def finalize(self, states: np.ndarray) -> BatchRetryResult:
        bits = self.bits
        if self.policy.majority_vote:
            voted = np.where(
                2 * self.vote_ones > self.vote_total,
                np.int8(1),
                np.where(2 * self.vote_ones < self.vote_total, np.int8(0), bits),
            ).astype(np.int8)
            # Only multi-attempt bits are re-voted; ties keep the last bit.
            bits = np.where(self.attempts > 1, voted, bits)
        return BatchRetryResult(
            scheme=self.scheme_name,
            policy=self.policy,
            bits=bits,
            expected_bits=self.original,
            margins=self.margins,
            voltages=self.voltages,
            metastable=self.metastable,
            data_destroyed=states != self.original,
            attempts=self.attempts,
            read_pulses=self.read_pulses,
            write_pulses=self.write_pulses,
            backoff_ns=self.backoff_ns,
            first_attempt_metastable=self.first_metastable,
        )


def read_many_with_retry(
    scheme: SensingScheme,
    population: CellPopulation,
    states: np.ndarray,
    policy: RetryPolicy,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> BatchRetryResult:
    """Vectorized retried read: one ``read_many`` pass per attempt round,
    each round restricted to the bits still unresolved.

    Bit-for-bit equivalent (same draws, same order) to the round-major
    scalar loop of the test oracles under the same RNG seed —
    attempt 1 is exactly one full-population ``read_many``; round ``k``
    re-reads the active subset in ascending bit order.  ``states`` is
    updated in place after every attempt.
    """
    check_batch_inputs(population, states)
    n = population.size
    original = states.astype(np.uint8, copy=True)
    acc = _RetryAccumulator(scheme.name, policy, n, original)

    idx = np.arange(n)
    active_pop = population
    attempt = 0
    while idx.size:
        attempt += 1
        if attempt > 1:
            _meter_retry_round(scheme.name, policy, attempt, bits=int(idx.size))
        escalated = scheme.scaled_read_current(policy.escalation_factor(attempt))
        sub_states = states[idx].copy()
        batch = escalated.read_many(
            active_pop, sub_states, rng=rng, **_kwargs_for_subset(kwargs, idx, n)
        )
        states[idx] = sub_states
        acc.merge(idx, attempt, batch)
        if attempt >= policy.max_attempts:
            break
        still = batch.metastable | (batch.bits < 0)
        if not still.any():
            break
        idx = idx[still]
        active_pop = population.view(idx)
    return _meter_retry_result(acc.finalize(states))
