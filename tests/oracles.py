"""Test oracles: the sequential reference paths the fast paths must match.

Each oracle is the simple, auditable loop that defines a fast path's
behaviour and RNG stream.  They live here, not in the library, because
nothing at runtime selects them: the tests (and the speedup benchmarks)
compare each fast path against its oracle bit for bit.

* :func:`batch_from_scalar_reads` pins ``SensingScheme.read_many``;
* :func:`retry_batch_from_scalar_reads` pins
  :func:`repro.core.retry.read_many_with_retry`;
* :func:`scalar_read_batch` pins ``ArrayBackend.read_batch``
  (:func:`use_scalar_reads` swaps it into a backend, so a controller
  serves word by word without knowing it);
* :func:`rechunked` with its default ``chunk_dies=1`` pins
  ``run_wafer``'s chunked passes: the per-die oracle is the library's
  own flow, one die per chunk.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import SensingScheme
from repro.core.batch import BatchReadResult, check_batch_inputs, materialize_cell
from repro.core.retry import (
    BatchRetryResult,
    RetryPolicy,
    _meter_retry_result,
    _meter_retry_round,
    _RetryAccumulator,
)
from repro.device.variation import CellPopulation
from repro.errors import RetryExhaustedError
from repro.obs.runtime import profiled

__all__ = [
    "batch_from_scalar_reads",
    "retry_batch_from_scalar_reads",
    "scalar_read_batch",
    "use_scalar_reads",
    "rechunked",
]


@profiled("core.batch_from_scalar_reads")
def batch_from_scalar_reads(
    scheme: SensingScheme,
    population: CellPopulation,
    states: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> BatchReadResult:
    """Reference batch read: the sequential per-bit loop over scalar
    ``scheme.read`` calls, packed into a :class:`BatchReadResult`.

    This is the behaviour (and RNG stream) every vectorized ``read_many``
    kernel must reproduce bit-for-bit, and the per-bit baseline of the
    batch-read speedup benchmark.  ``states`` is updated in place with
    whatever each read leaves behind.
    """
    check_batch_inputs(population, states)
    results = []
    for index in range(population.size):
        cell = materialize_cell(population, index, int(states[index]))
        results.append(scheme.read(cell, rng, **kwargs))
        states[index] = cell.stored_bit
    round_ = _ScalarRound(results)
    return BatchReadResult(
        scheme=scheme.name,
        bits=round_.bits,
        expected_bits=np.array([r.expected_bit for r in results], dtype=np.uint8),
        margins=round_.margins,
        voltages=round_.voltages,
        # Scalar reads carry the resolution-window flag even when an RNG
        # resolved the bit, so the oracle's mask matches the kernels'.
        metastable=round_.metastable,
        data_destroyed=np.array([r.data_destroyed for r in results], dtype=bool),
        write_pulses=round_.write_pulses,
        read_pulses=round_.read_pulses,
    )


def _kwargs_for_bit(kwargs: Dict, index: int, size: int) -> Dict:
    """Per-bit array kwargs reduced to one bit's scalar (the scalar path)."""
    out = {}
    for name, value in kwargs.items():
        if isinstance(value, np.ndarray) and value.shape == (size,):
            out[name] = float(value[index])
        else:
            out[name] = value
    return out


def retry_batch_from_scalar_reads(
    scheme: SensingScheme,
    population: CellPopulation,
    states: np.ndarray,
    policy: RetryPolicy,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> BatchRetryResult:
    """Reference retried batch read: the round-major loop of scalar
    ``scheme.read`` calls that defines the retry controller's RNG stream.

    Round 1 reads every bit in ascending order; round ``k`` re-reads the
    still-active bits in ascending order with the policy's escalated
    current.  :func:`repro.core.retry.read_many_with_retry` must
    reproduce this bit-for-bit — it is the retry analogue of
    :func:`batch_from_scalar_reads`.
    """
    check_batch_inputs(population, states)
    n = population.size
    original = states.astype(np.uint8, copy=True)
    acc = _RetryAccumulator(scheme.name, policy, n, original)

    idx = np.arange(n)
    attempt = 0
    while idx.size:
        attempt += 1
        if attempt > 1:
            _meter_retry_round(scheme.name, policy, attempt, bits=int(idx.size))
        escalated = scheme.scaled_read_current(policy.escalation_factor(attempt))
        results = []
        for index in idx:
            cell = materialize_cell(population, int(index), int(states[index]))
            results.append(
                escalated.read(cell, rng, **_kwargs_for_bit(kwargs, int(index), n))
            )
            states[index] = cell.stored_bit
        sub = _ScalarRound(results)
        acc.merge(idx, attempt, sub)
        if attempt >= policy.max_attempts:
            break
        still = sub.metastable | (sub.bits < 0)
        if not still.any():
            break
        idx = idx[still]
    return _meter_retry_result(acc.finalize(states))


class _ScalarRound:
    """One round's scalar results, shaped like a sub-batch."""

    def __init__(self, results):
        self.bits = np.array(
            [-1 if r.bit is None else r.bit for r in results], dtype=np.int8
        )
        self.margins = np.array([r.margin for r in results])
        names = list(results[0].voltages) if results else []
        self.voltages = {
            name: np.array([r.voltages.get(name, np.nan) for r in results])
            for name in names
        }
        self.metastable = np.array([r.metastable for r in results], dtype=bool)
        self.read_pulses = results[0].read_pulses if results else 1
        self.write_pulses = results[0].write_pulses if results else 0


def scalar_read_batch(backend, addresses: Sequence[int]) -> List[Tuple[int, bool]]:
    """Reference backed read: ``(attempts, failed)`` per word, one word at
    a time through the scalar recovery ladder.

    Each word perturbs the scheme through the backend's fault injector on
    its own (``read_batch`` perturbs once per group), then reads through
    :meth:`~repro.faults.recovery.RecoveryController.read_word`.  A
    detected loss (:class:`~repro.errors.RetryExhaustedError`) counts as
    failed; a silently wrong value counts as corrupted.
    """
    outcomes = []
    for address in addresses:
        physical = backend._physical(address)
        scheme = backend.scheme
        if backend.injector is not None:
            scheme = backend.injector.perturb_scheme(scheme)
        scheme = backend._drifted(scheme)
        backend.reads += 1
        try:
            recovered = backend.memory.read_word(physical, scheme, backend.rng)
        except RetryExhaustedError as error:
            backend.failed_words += 1
            attempts = max(1, error.attempts)
            backend._meter_outcome(attempts, failed=True)
            outcomes.append((attempts, True))
            continue
        if recovered.attempts > 1:
            backend.retried_words += 1
        expected = backend._truth.get(physical)
        if expected is not None and recovered.value != expected:
            backend.corrupted_words += 1
        backend._meter_outcome(recovered.attempts, failed=False)
        outcomes.append((recovered.attempts, False))
    return outcomes


def use_scalar_reads(backend):
    """Make ``backend`` serve every group through :func:`scalar_read_batch`.

    The instance attribute shadows ``ArrayBackend.read_batch``, so the
    controller still calls ``read_batch`` and stays unaware of the swap.
    Returns the backend.
    """
    backend.read_batch = lambda addresses: scalar_read_batch(backend, addresses)
    return backend


def rechunked(wafer, chunk_dies: int = 1):
    """The same built wafer, processed ``chunk_dies`` dies per pass.

    ``run_wafer(rechunked(wafer))`` is the per-die oracle every chunked
    run must equal bit for bit.
    """
    return dataclasses.replace(
        wafer, config=dataclasses.replace(wafer.config, chunk_dies=chunk_dies)
    )
