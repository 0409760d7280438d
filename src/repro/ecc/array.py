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
:meth:`EccArray.probe_words` is the ladder's fused group read: one pass
over several words that commits only when no word would escalate, and
otherwise rewinds and names the words that would.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.array.array import STTRAMArray, _meter_array_read
from repro.core.base import SensingScheme, meter_batch_read
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


class _CleanRead(NamedTuple):
    """What the last clean read of one physical word saw (see
    :meth:`EccArray.probe_words`)."""

    cells: bytes          #: the codeword's cell states
    table: tuple          #: the state table the latch rails came from
    resolution: float     #: the amplifier's resolution window [V]
    hi: float             #: least ``v_plus - v_minus`` of the cells latched 1
    lo: float             #: greatest ``v_plus - v_minus`` of the cells latched 0
    bits: bytes           #: the latched bits (``int8``), for the error meter
    result: EccReadResult


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
        #: Clean-read memo: per physical word, its last committed
        #: :meth:`probe_words` read through a scheme declaring
        #: ``latch_inputs``.
        self._memo: List[Optional[_CleanRead]] = [None] * self.size_words

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
        span = self._offsets + self._check_address(address)
        if retry_policy is None:
            batch = self.array.read_bits(
                span, scheme, rng, assume_distinct=True, **kwargs
            )
            attempts = 1
            read_pulses = batch.read_pulses * self.codec.codeword_bits
        else:
            batch = self.array.read_bits_with_retry(
                span, scheme, retry_policy, rng, assume_distinct=True, **kwargs
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

    def probe_words(
        self,
        addresses: Sequence[int],
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> Tuple[Optional[List[EccReadResult]], Tuple[int, ...]]:
        """Fused first-attempt read of several distinct words, or the
        words that escalate.

        One batched sensing pass covers the concatenated codeword spans —
        draw-for-draw identical to the *first attempt* of a word-by-word
        loop, because every kernel consumes its RNG in ascending bit order.
        The pass commits, returning ``(results, ())``, only when no word
        would escalate through the recovery ladder: no metastable or
        undecided bit (no retry round would fire) and no ``DETECTED``
        decode (no scrub would).  Otherwise the array state *and* the RNG
        are rewound to their pre-call snapshots and ``(None, bad)`` is
        returned, where ``bad`` holds the indices (into ``addresses``) of
        the escalating words.  Because the probe's draws equal the scalar
        replay's first-attempt draws, those same words *will* escalate
        again when replayed — which lets
        :meth:`~repro.faults.recovery.RecoveryController.read_words` split
        the group at them and still commit the clean segments fused.
        Per-bit array kwargs cannot be fused and raise
        :class:`~repro.errors.ConfigurationError`.

        **Clean-read memo.**  Through a scheme that declares
        ``latch_inputs`` and with no kernel keyword, every word the pass
        commits is remembered (a committed word has no metastable bit):
        its cells, the state table its rails came from, the amplifier
        resolution, the extreme latch differentials of its 1- and 0-cells,
        and its result.  When every word of a later group is provably read
        the same way — same cells, same table object, same resolution, and
        the current offset keeps both extremes outside the window
        (:meth:`_recall`) — the group commits from the memo without
        sensing: same results, same statistics, the same obs meters, and
        no RNG draw, as a clean read draws none.  Any miss runs the kernel
        on the whole group.
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
            raise ConfigurationError(
                "per-bit keyword arrays cannot be fused into one group read"
            )
        width = self.codec.codeword_bits
        bases = [self._check_address(address) for address in addresses]
        population = self.array.population
        key = None
        if scheme.latch_inputs is not None and not kwargs:
            key = scheme.rails_key()
            table = population.cached_table(key)
            entries = None if table is None else self._recall(
                addresses, bases, scheme, table
            )
            if entries is not None:
                return self._commit_recalled(addresses, entries, scheme), ()

        # Codeword spans, group-major: distinct and in range by
        # construction (distinct checked word addresses → disjoint
        # [base, base+width) ranges), so the kernel runs on a view of them
        # without STTRAMArray.read_bits re-checking.
        spans = np.add.outer(bases, self._offsets).ravel()
        states = self.array._states[spans]
        rng_state = rng.bit_generator.state if rng is not None else None
        # A scheme declaring its latch inputs leaves the cells untouched;
        # any other may write them, so it reads a copy and the probe keeps
        # ``states`` as the pre-read snapshot to rewind to.
        sensed = states if scheme.latch_inputs is not None else states.copy()
        _meter_array_read("read_bits", spans.size)
        batch = scheme.read_many(population.view(spans), sensed, rng=rng, **kwargs)
        if sensed is not states:
            self.array._states[spans] = sensed

        unresolved = batch.metastable | (batch.bits < 0)
        if np.count_nonzero(unresolved):
            rows = unresolved.reshape(count, width).any(axis=1)
            bad = tuple(np.nonzero(rows)[0].tolist())
        else:
            # No bit is left unresolved, so the latched bits need no
            # mapping of -1 to 0.
            decode = self.codec.decode_words(
                batch.bits.view(np.uint8).reshape(count, width)
            )
            bad = tuple(
                index for index, status in enumerate(decode.statuses)
                if status is DecodeStatus.DETECTED
            )
        if bad:
            # Rewind: undo the probe's cell-state side effects and RNG
            # draws so the scalar replay starts from the pre-call world.
            if sensed is not states:
                self.array._states[spans] = states
            if rng_state is not None:
                rng.bit_generator.state = rng_state
            return None, bad

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
                attempts=1,
                read_pulses=read_pulses,
            ))
        if key is not None:
            # The kernel read through the table the memo saw, or built it.
            if table is None:
                table = population.cached_table(key)
            self._remember(addresses, states, batch, scheme, table, results)
        return results, ()

    # ------------------------------------------------------------------
    # Clean-read memo
    # ------------------------------------------------------------------
    def _recall(
        self,
        addresses: List[int],
        bases: List[int],
        scheme: SensingScheme,
        table,
    ) -> Optional[List[_CleanRead]]:
        """The memo entries that answer a read of ``addresses`` now, or
        ``None`` when any word misses.

        A word hits when its cells, the rails' state table and the
        amplifier's resolution are what they were at its last clean read,
        and the current offset still puts every cell outside the window
        on the rail it latched to.  ``x ↦ fl(x + offset)`` is monotone, so
        the two extreme cells decide that for all of them; the tests are
        false for a NaN anywhere.  The resolution is never negative
        (``SenseAmplifier`` checks it), so ``low <= -resolution`` keeps
        every 0-cell off the plus rail; ``high > 0`` does it for 1-cells
        when the window has zero width.
        """
        amp = scheme.sense_amp
        offset, resolution = amp.offset, amp.resolution
        states = self.array._states
        width = self.codec.codeword_bits
        memo = self._memo
        entries = []
        for address, base in zip(addresses, bases):
            entry = memo[address]
            if (
                entry is None
                or entry.table is not table
                or entry.resolution != resolution
                or entry.cells != states[base:base + width].tobytes()
            ):
                return None
            high = entry.hi + offset
            low = entry.lo + offset
            if not (high >= resolution and high > 0.0 and low <= -resolution):
                return None
            entries.append(entry)
        return entries

    def _commit_recalled(
        self,
        addresses: List[int],
        entries: List[_CleanRead],
        scheme: SensingScheme,
    ) -> List[EccReadResult]:
        """Commit a group answered by the memo, emitting the meters the
        kernel pass would have (array read, batch read, word decodes)."""
        bits = len(addresses) * self.codec.codeword_bits
        _meter_array_read("read_bits", bits)
        if _obs.active():
            latched = b"".join(entry.bits for entry in entries)
            stored = b"".join(entry.cells for entry in entries)
            errors = np.count_nonzero(
                np.frombuffer(latched, np.int8) != np.frombuffer(stored, np.uint8)
            )
            meter_batch_read(scheme.name, bits, 0, int(errors))
        results = []
        for address, entry in zip(addresses, entries):
            result = entry.result
            self._commit_decode(address, result.status, result.corrected_position)
            results.append(result)
        return results

    def _remember(
        self,
        addresses: List[int],
        states: np.ndarray,
        batch,
        scheme: SensingScheme,
        table,
        results: List[EccReadResult],
    ) -> None:
        """Record the committed words (none has a metastable bit)."""
        width = self.codec.codeword_bits
        shape = (len(addresses), width)
        plus, minus = (batch.voltages[name] for name in scheme.latch_inputs)
        # The latch's own ``v_plus - v_minus``, before the offset is added.
        diff = (plus - minus).reshape(shape)
        ones = batch.bits.reshape(shape) == 1
        highs = np.minimum.reduce(diff, axis=1, initial=np.inf, where=ones)
        lows = np.maximum.reduce(diff, axis=1, initial=-np.inf, where=~ones)
        cells = states.tobytes()
        latched = batch.bits.tobytes()
        resolution = scheme.sense_amp.resolution
        memo = self._memo
        for index, (address, hi, lo, result) in enumerate(
            zip(addresses, highs.tolist(), lows.tolist(), results)
        ):
            span = slice(index * width, (index + 1) * width)
            memo[address] = _CleanRead(
                cells[span], table, resolution, hi, lo, latched[span], result,
            )

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
