"""Behavioural STT-RAM array: store data, read it back through any scheme.

Where the Monte-Carlo engine computes *margins* in closed form, this class
actually performs reads, routed through the vectorized batch kernel
(:meth:`repro.core.base.SensingScheme.read_many`): one NumPy pass senses a
word, a list of bits, or the whole array — including the destructive
scheme's erase/write-back side effects and injected power failures.  The
scalar :meth:`read_bit` is a batch of one, so every entry point shares the
same kernel (and the same RNG stream as the historical per-cell loop).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.array.montecarlo import run_margin_monte_carlo
from repro.core.base import ReadResult, SensingScheme
from repro.core.batch import BatchReadResult
from repro.core.retry import BatchRetryResult, RetryPolicy, read_many_with_retry
from repro.device.variation import CellPopulation
from repro.errors import ConfigurationError
from repro.obs import runtime as _obs

__all__ = ["STTRAMArray", "WordReadResult"]


def _meter_array_read(api: str, bits: int) -> None:
    """Count one array-level read entry point (no-op when obs is off)."""
    if _obs.active():
        registry = _obs.get_registry()
        registry.inc("array.reads", api=api)
        registry.inc("array.bits_read", bits, api=api)


@dataclasses.dataclass(frozen=True)
class WordReadResult:
    """One word read through the batch kernel.

    ``value`` packs the sensed bits LSB-first with unresolved (metastable,
    no-RNG) bits as 0 — the historical :meth:`STTRAMArray.read_word`
    convention.  ``metastable_bits`` counts comparisons that landed inside
    the sense-amplifier window, letting callers distinguish "read 0" from
    "failed to resolve"; ``batch`` keeps the full per-bit detail.
    """

    value: int
    metastable_bits: int
    batch: BatchReadResult

    @property
    def resolved(self) -> bool:
        """True when every bit latched deterministically."""
        return self.metastable_bits == 0


class STTRAMArray:
    """A word-addressable array over a sampled cell population.

    Parameters
    ----------
    population:
        Per-bit electrical parameters (one array entry per cell).
    word_width:
        Bits per word; the array holds ``population.size // word_width``
        words.
    """

    def __init__(self, population: CellPopulation, word_width: int = 8):
        if word_width < 1:
            raise ConfigurationError("word_width must be >= 1")
        if population.size < word_width:
            raise ConfigurationError("population smaller than one word")
        self.population = population
        self.word_width = word_width
        self._states = np.zeros(population.size, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def size_bits(self) -> int:
        """Total number of cells."""
        return self.population.size

    @property
    def size_words(self) -> int:
        """Number of addressable words."""
        return self.population.size // self.word_width

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.size_words:
            raise IndexError(f"address {address} out of range [0, {self.size_words})")

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------
    def write_word(self, address: int, value: int) -> None:
        """Store ``value`` (``word_width`` bits, LSB first) at ``address``."""
        self._check_address(address)
        if not 0 <= value < (1 << self.word_width):
            raise ValueError(f"value {value} does not fit in {self.word_width} bits")
        base = address * self.word_width
        raw = value.to_bytes((self.word_width + 7) // 8, "little")
        self._states[base:base + self.word_width] = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8),
            count=self.word_width,
            bitorder="little",
        )

    def read_bits(
        self,
        bit_indices: Sequence[int],
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        assume_distinct: bool = False,
        **kwargs,
    ) -> BatchReadResult:
        """Read the given cells as one batch and sync the array state.

        The indices must be distinct: a batched read senses every cell
        once, concurrently, so reading the same cell twice in one batch has
        no sequential meaning (issue separate calls instead).
        ``assume_distinct=True`` skips the O(n log n) uniqueness check for
        callers whose indices are distinct by construction (e.g. codeword
        spans of distinct word addresses) — it changes nothing else.
        """
        idx = np.asarray(bit_indices, dtype=np.intp)
        if idx.ndim != 1:
            raise ConfigurationError("bit_indices must be one-dimensional")
        # Viewed unsigned, a negative index wraps above every valid one.
        if np.count_nonzero(idx.view(np.uintp) >= self.size_bits):
            raise IndexError(
                f"bit indices out of range [0, {self.size_bits}): {idx.min()}..{idx.max()}"
            )
        if not assume_distinct and np.unique(idx).size != idx.size:
            raise ConfigurationError("bit_indices must be distinct within one batch")
        _meter_array_read("read_bits", int(idx.size))
        states = self._states[idx]
        result = scheme.read_many(self.population.view(idx), states, rng=rng, **kwargs)
        self._states[idx] = states
        return result

    def read_all(
        self,
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> BatchReadResult:
        """Read every cell of the array in one kernel pass."""
        _meter_array_read("read_all", self.size_bits)
        return scheme.read_many(self.population, self._states, rng=rng, **kwargs)

    def read_bits_with_retry(
        self,
        bit_indices: Sequence[int],
        scheme: SensingScheme,
        policy: RetryPolicy,
        rng: Optional[np.random.Generator] = None,
        assume_distinct: bool = False,
        **kwargs,
    ) -> BatchRetryResult:
        """Read the given (distinct) cells as one retried batch: unresolved
        bits are re-sensed per ``policy`` and the array state tracks every
        attempt's side effects.  ``assume_distinct`` is as in
        :meth:`read_bits`."""
        idx = np.asarray(bit_indices, dtype=np.intp)
        if idx.ndim != 1:
            raise ConfigurationError("bit_indices must be one-dimensional")
        # Viewed unsigned, a negative index wraps above every valid one.
        if np.count_nonzero(idx.view(np.uintp) >= self.size_bits):
            raise IndexError(
                f"bit indices out of range [0, {self.size_bits}): {idx.min()}..{idx.max()}"
            )
        if not assume_distinct and np.unique(idx).size != idx.size:
            raise ConfigurationError("bit_indices must be distinct within one batch")
        _meter_array_read("read_bits_with_retry", int(idx.size))
        states = self._states[idx]
        result = read_many_with_retry(
            scheme, self.population.view(idx), states, policy, rng=rng, **kwargs
        )
        self._states[idx] = states
        return result

    def read_all_with_retry(
        self,
        scheme: SensingScheme,
        policy: RetryPolicy,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> BatchRetryResult:
        """Read every cell with retries — one kernel pass per attempt
        round, later rounds restricted to the unresolved subset."""
        _meter_array_read("read_all_with_retry", self.size_bits)
        return read_many_with_retry(
            scheme, self.population, self._states, policy, rng=rng, **kwargs
        )

    def read_bit(
        self,
        bit_index: int,
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
    ) -> ReadResult:
        """Read one cell through ``scheme`` — a batch of one."""
        if not 0 <= bit_index < self.size_bits:
            raise IndexError(f"bit {bit_index} out of range [0, {self.size_bits})")
        return self.read_bits([bit_index], scheme, rng).result(0)

    def read_word_result(
        self,
        address: int,
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
    ) -> WordReadResult:
        """Read the word at ``address`` with full per-bit detail.

        The scheme may mutate cell state (destructive reads); the array's
        state tracks whatever the scheme leaves behind.
        """
        self._check_address(address)
        base = address * self.word_width
        batch = self.read_bits(range(base, base + self.word_width), scheme, rng)
        bits = batch.bit_values()
        value = int(bits @ (1 << np.arange(self.word_width, dtype=np.int64)))
        return WordReadResult(
            value=value, metastable_bits=batch.metastable_count, batch=batch
        )

    def read_word(
        self,
        address: int,
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        """Read the word at ``address``; metastable bits resolve to 0.

        Use :meth:`read_word_result` to also learn *how many* bits were
        metastable rather than cleanly sensed.
        """
        return self.read_word_result(address, scheme, rng).value

    def read_words(
        self,
        addresses: Sequence[int],
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
    ) -> List[WordReadResult]:
        """Read several (distinct) words, each as its own batch."""
        return [self.read_word_result(address, scheme, rng) for address in addresses]

    def stored_bits(self) -> np.ndarray:
        """Ground-truth copy of all stored bits."""
        return self._states.copy()

    # ------------------------------------------------------------------
    # Bulk analysis
    # ------------------------------------------------------------------
    def margin_survey(self, **monte_carlo_kwargs):
        """Closed-form per-bit margins of all three schemes (delegates to
        :func:`repro.array.montecarlo.run_margin_monte_carlo`)."""
        return run_margin_monte_carlo(self.population, **monte_carlo_kwargs)

    def failing_bits(
        self,
        scheme_name: str,
        required_margin: float = 8.0e-3,
        **monte_carlo_kwargs,
    ) -> List[int]:
        """Indices of bits the named scheme cannot read reliably."""
        margins = self.margin_survey(**monte_carlo_kwargs)[scheme_name]
        return list(np.nonzero(margins.fail_mask(required_margin))[0])
