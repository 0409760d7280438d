"""ECC-protected array: SECDED words over an :class:`STTRAMArray`.

Composes the Hamming codec with the behavioural array so a "memory
controller" view exists: logical words are encoded into 72-cell codewords,
read back through any sensing scheme, and decoded with single-error
correction — the architecture that lets the low-margin nondestructive
scheme ship at scaled variation (ablation A8).

Codewords are read through the vectorized batch kernel (one
:meth:`~repro.array.array.STTRAMArray.read_bits` pass per word — the same
RNG stream as the historical per-bit loop), and every read can carry a
:class:`~repro.core.retry.RetryPolicy` so metastable bits are re-sensed
*before* the decoder sees them — the first tier of the recovery ladder
(retry → ECC → scrub → repair, see :mod:`repro.faults.recovery`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.array.array import STTRAMArray
from repro.core.base import SensingScheme
from repro.core.retry import RetryPolicy
from repro.ecc.hamming import DecodeStatus, HammingSECDED
from repro.errors import ConfigurationError
from repro.obs import runtime as _obs
from repro.obs.trace import ECC_CORRECTED, ECC_DETECTED, SCRUB

__all__ = ["EccArray", "EccReadResult", "ScrubReport"]


@dataclasses.dataclass(frozen=True)
class EccReadResult:
    """One logical-word read through the ECC layer.

    ``metastable_bits``, ``attempts`` and ``read_pulses`` surface the
    sensing effort behind the word: how many codeword bits landed in the
    sense-amplifier window, the worst per-bit attempt count, and the total
    read pulses charged (all 1 × codeword width for a retry-free read).
    """

    value: int
    status: DecodeStatus
    corrected_position: int = -1
    metastable_bits: int = 0
    attempts: int = 1
    read_pulses: int = 0

    @property
    def reliable(self) -> bool:
        """True unless the decoder flagged an uncorrectable word."""
        return self.status is not DecodeStatus.DETECTED


@dataclasses.dataclass(frozen=True)
class ScrubReport:
    """Outcome of one scrub pass over every word.

    A scrub rewrites corrected words; *detected-but-uncorrectable* words
    are counted and reported — never silently rewritten — so the caller
    can escalate them to the repair tier.
    """

    corrected: int
    uncorrectable: int
    clean: int
    uncorrectable_addresses: Tuple[int, ...] = ()

    @property
    def words(self) -> int:
        """Total words scrubbed."""
        return self.corrected + self.uncorrectable + self.clean

    @property
    def healthy(self) -> bool:
        """True when no word was beyond correction."""
        return self.uncorrectable == 0


class EccArray:
    """A logical word store with SECDED protection.

    Parameters
    ----------
    array:
        The physical cell array (must hold at least one codeword).
    data_bits:
        Logical word width (default 64 → (72, 64) codewords).
    """

    def __init__(self, array: STTRAMArray, data_bits: int = 64):
        self.codec = HammingSECDED(data_bits)
        if array.size_bits < self.codec.codeword_bits:
            raise ConfigurationError(
                f"array of {array.size_bits} cells cannot hold one "
                f"{self.codec.codeword_bits}-cell codeword"
            )
        self.array = array
        self._stats: Dict[DecodeStatus, int] = {status: 0 for status in DecodeStatus}
        #: Cell offsets of one codeword, added to a word's base cell.
        self._offsets = np.arange(self.codec.codeword_bits, dtype=np.intp)

    @property
    def size_words(self) -> int:
        """Number of logical words the array holds."""
        return self.array.size_bits // self.codec.codeword_bits

    @property
    def statistics(self) -> Dict[DecodeStatus, int]:
        """Decode-status counters accumulated over all reads."""
        return dict(self._stats)

    def _check_address(self, address: int) -> int:
        if not 0 <= address < self.size_words:
            raise IndexError(
                f"word address {address} out of range [0, {self.size_words})"
            )
        return address * self.codec.codeword_bits

    # ------------------------------------------------------------------
    def write_word(self, address: int, value: int) -> None:
        """Encode ``value`` and store the codeword."""
        base = self._check_address(address)
        codeword = self.codec.encode_word(value)
        self.array._states[base:base + self.codec.codeword_bits] = codeword

    def read_word(
        self,
        address: int,
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        retry_policy: Optional[RetryPolicy] = None,
        **kwargs,
    ) -> EccReadResult:
        """Read the codeword through ``scheme`` (one batch pass) and decode.

        With a ``retry_policy``, metastable codeword bits are re-sensed
        before decoding — the retry tier running *under* the ECC tier, so
        the decoder's single-error budget is spent on real faults rather
        than unresolved comparisons.  Extra keyword arguments pass through
        to the scheme's kernel (per-bit arrays must already be restricted
        to this word's codeword span).
        """
        base = self._check_address(address)
        span = range(base, base + self.codec.codeword_bits)
        if retry_policy is None:
            batch = self.array.read_bits(span, scheme, rng, **kwargs)
            attempts = 1
            read_pulses = batch.read_pulses * self.codec.codeword_bits
        else:
            batch = self.array.read_bits_with_retry(
                span, scheme, retry_policy, rng, **kwargs
            )
            attempts = int(batch.attempts.max())
            read_pulses = batch.total_read_pulses
        received = batch.bit_values()
        decode = self.codec.decode(received)
        self._commit_decode(address, decode.status, decode.corrected_position)
        return EccReadResult(
            value=decode.value,
            status=decode.status,
            corrected_position=decode.corrected_position,
            metastable_bits=int(np.count_nonzero(batch.metastable)),
            attempts=attempts,
            read_pulses=read_pulses,
        )

    def _commit_decode(self, address: int, status: DecodeStatus, position: int) -> None:
        """Account one finished word decode (stats + obs), in word order."""
        self._stats[status] += 1
        if _obs.active():
            _obs.get_registry().inc("ecc.words", status=status.name.lower())
            if status is DecodeStatus.CORRECTED:
                _obs.trace(ECC_CORRECTED, address=address, position=position)
            elif status is DecodeStatus.DETECTED:
                _obs.trace(ECC_DETECTED, address=address)

    def try_read_words(
        self,
        addresses: Sequence[int],
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        retry_policy: Optional[RetryPolicy] = None,
        require_reliable: bool = False,
        **kwargs,
    ) -> Optional[List[EccReadResult]]:
        """All-clean fused read of several distinct words, or ``None``.

        One batched sensing pass covers the concatenated codeword spans —
        draw-for-draw identical to the *first attempt* of a word-by-word
        loop, because every kernel consumes its RNG in ascending bit order.
        The pass commits only when no word would have escalated: with a
        ``retry_policy``, zero metastable/undecided bits (no retry round
        would have fired); with ``require_reliable``, additionally every
        decode reliable (no scrub would have fired).  Otherwise the array
        state *and* the RNG are rewound to their pre-call snapshots and
        ``None`` is returned, so a word-by-word replay reproduces the
        scalar loop bit-for-bit.  Per-bit array kwargs cannot be fused and
        also return ``None``.
        """
        return self.probe_words(
            addresses, scheme, rng,
            retry_policy=retry_policy, require_reliable=require_reliable,
            **kwargs,
        )[0]

    def probe_words(
        self,
        addresses: Sequence[int],
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        retry_policy: Optional[RetryPolicy] = None,
        require_reliable: bool = False,
        **kwargs,
    ) -> Tuple[Optional[List[EccReadResult]], Tuple[int, ...]]:
        """:meth:`try_read_words` plus escalation *hints* on failure.

        Returns ``(results, ())`` when the fused pass commits and
        ``(None, bad)`` when it rewinds, where ``bad`` holds the indices
        (into ``addresses``) of the words that forced the escalation.
        Because the probe's draws equal the scalar replay's first-attempt
        draws, those same words *will* escalate again when replayed —
        which lets a caller split the group at the bad words and still
        commit the clean segments fused, instead of bisecting blindly.
        ``bad`` is empty when the group could not be fused at all (per-bit
        array kwargs).
        """
        addresses = list(addresses)
        count = len(addresses)
        if len(set(addresses)) != count:
            raise ConfigurationError(
                "addresses must be distinct within one batched read"
            )
        if not addresses:
            return [], ()
        if any(isinstance(value, np.ndarray) for value in kwargs.values()):
            return None, ()
        width = self.codec.codeword_bits
        bases = [self._check_address(address) for address in addresses]
        # Codeword spans, group-major: distinct by construction (distinct
        # word addresses → disjoint [base, base+width) ranges).
        spans = np.add.outer(bases, self._offsets).ravel()
        rng_state = rng.bit_generator.state if rng is not None else None
        states_before = self.array._states[spans]
        batch = self.array.read_bits(spans, scheme, rng, assume_distinct=True, **kwargs)

        bad: Tuple[int, ...] = ()
        if retry_policy is not None:
            unresolved = batch.metastable | (batch.bits < 0)
            if np.count_nonzero(unresolved):
                rows = unresolved.reshape(count, width).any(axis=1)
                bad = tuple(np.nonzero(rows)[0].tolist())
        decode = None
        if not bad:
            bits = batch.bit_values().reshape(count, width)
            decode = self.codec.decode_words(bits)
            if require_reliable:
                bad = tuple(
                    index for index, status in enumerate(decode.statuses)
                    if status is DecodeStatus.DETECTED
                )
        if bad:
            # Rewind: undo the probe's cell-state side effects and RNG
            # draws so the scalar replay starts from the pre-call world.
            self.array._states[spans] = states_before
            if rng_state is not None:
                rng.bit_generator.state = rng_state
            return None, bad

        metastable = batch.metastable.reshape(count, width).sum(axis=1).tolist()
        positions = decode.corrected_positions.tolist()
        read_pulses = batch.read_pulses * width
        results = []
        for index, address in enumerate(addresses):
            status = decode.statuses[index]
            self._commit_decode(address, status, positions[index])
            results.append(EccReadResult(
                value=decode.values[index],
                status=status,
                corrected_position=positions[index],
                metastable_bits=metastable[index],
                attempts=1,
                read_pulses=read_pulses,
            ))
        return results, ()

    def read_words(
        self,
        addresses: Sequence[int],
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        retry_policy: Optional[RetryPolicy] = None,
        **kwargs,
    ) -> List[EccReadResult]:
        """Read several distinct words, fused into one sensing pass when
        the whole group stays clean.

        Bit-exact with a loop of :meth:`read_word` over ``addresses`` in
        order, under the same RNG: the fused fast path only commits when
        it is draw-for-draw identical to that loop, and a group that would
        retry is *split at the escalating words* (the probe's hints): the
        clean segments between them still commit fused — each is
        draw-equal to the scalar loop over its own slice, starting from
        the state the previous slice left behind — so only the words that
        actually escalate pay the scalar ladder.
        """
        addresses = list(addresses)
        if any(isinstance(value, np.ndarray) for value in kwargs.values()):
            # Per-bit kwargs cannot be fused; go straight to the loop.
            return [
                self.read_word(a, scheme, rng, retry_policy=retry_policy, **kwargs)
                for a in addresses
            ]
        fused, bad = self.probe_words(
            addresses, scheme, rng, retry_policy=retry_policy, **kwargs
        )
        if fused is not None:
            return fused
        results: List[EccReadResult] = []
        start = 0
        for index in bad:
            if index > start:
                results.extend(self.read_words(
                    addresses[start:index], scheme, rng,
                    retry_policy=retry_policy, **kwargs,
                ))
            results.append(self.read_word(
                addresses[index], scheme, rng,
                retry_policy=retry_policy, **kwargs,
            ))
            start = index + 1
        if start < len(addresses):
            results.extend(self.read_words(
                addresses[start:], scheme, rng,
                retry_policy=retry_policy, **kwargs,
            ))
        return results

    def scrub(
        self,
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        retry_policy: Optional[RetryPolicy] = None,
        **kwargs,
    ) -> ScrubReport:
        """Read every word, rewrite corrected words, count the rest.

        Detected-but-uncorrectable words are left untouched and reported
        in the :class:`ScrubReport` — rewriting them would launder lost
        data into "clean" storage.
        """
        corrected = 0
        clean = 0
        uncorrectable = []
        for address in range(self.size_words):
            result = self.read_word(
                address, scheme, rng, retry_policy=retry_policy, **kwargs
            )
            if result.status is DecodeStatus.CORRECTED:
                self.write_word(address, result.value)
                corrected += 1
            elif result.status is DecodeStatus.DETECTED:
                uncorrectable.append(address)
            else:
                clean += 1
        report = ScrubReport(
            corrected=corrected,
            uncorrectable=len(uncorrectable),
            clean=clean,
            uncorrectable_addresses=tuple(uncorrectable),
        )
        if _obs.active():
            registry = _obs.get_registry()
            registry.inc("ecc.scrub.passes")
            for outcome, count in (
                ("clean", report.clean),
                ("corrected", report.corrected),
                ("uncorrectable", report.uncorrectable),
            ):
                if count:
                    registry.inc("ecc.scrub.words", count, outcome=outcome)
            _obs.trace(
                SCRUB,
                words=report.words,
                corrected=report.corrected,
                uncorrectable=report.uncorrectable,
            )
        return report
