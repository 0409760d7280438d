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
:meth:`EccArray.probe_words` is the ladder's fused group read: one
sensing pass over several words.  Through a scheme that writes no cell the
retry tier runs inside that pass, and the probe commits every word up to
the first the decoder leaves ``DETECTED``; through any other scheme it
commits only when no word would escalate, and otherwise rewinds and names
the words that would.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.array.array import STTRAMArray, _meter_array_read
from repro.core.base import SensingScheme, meter_batch_read
from repro.core.retry import RetryPolicy, WordRetry
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


class _CleanRead:
    """What the last clean read of one physical word saw (see
    :meth:`EccArray.probe_words`).

    The extreme latch differentials are found on first use: most entries
    are replaced before any read recalls them.
    """

    __slots__ = ("cells", "table", "resolution", "bits", "result", "_diff",
                 "_extremes")

    def __init__(self, cells: bytes, table: tuple, resolution: float,
                 diff: np.ndarray, bits: bytes, result: EccReadResult):
        self.cells = cells            #: the codeword's cell states
        self.table = table            #: the state table the rails came from
        self.resolution = resolution  #: the amplifier's resolution window [V]
        self.bits = bits              #: the latched bits (``int8``)
        self.result = result
        #: Per cell, the latch's own ``v_plus - v_minus`` (no offset).
        self._diff = diff
        self._extremes: Optional[Tuple[float, float]] = None

    def extremes(self) -> Tuple[float, float]:
        """``(hi, lo)``: the least ``v_plus - v_minus`` of the cells
        latched 1 and the greatest of the cells latched 0 (``inf`` and
        ``-inf`` when there are none)."""
        if self._extremes is None:
            ones = np.frombuffer(self.bits, np.int8) == 1
            diff = self._diff
            self._extremes = (
                float(np.minimum.reduce(diff, initial=np.inf, where=ones)),
                float(np.maximum.reduce(diff, initial=-np.inf, where=~ones)),
            )
            self._diff = None
        return self._extremes


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
        rng: Optional[np.random.Generator],
        retry_policy: RetryPolicy,
        **kwargs,
    ) -> Tuple[List[EccReadResult], Tuple[int, ...]]:
        """Read several distinct words through the retry and ECC tiers in
        one sensing pass; commit what a word-by-word loop would, and name
        the words it leaves to the scalar ladder.

        Returns ``(results, bad)``.  ``results`` are the committed reads of
        ``addresses[:len(results)]``, each equal — value, status, attempts,
        decode statistics, ``retry.*`` and ``ecc.words`` meters, RNG draws —
        to :meth:`read_word` with the same ``retry_policy`` on that word in
        turn.
        ``bad`` holds the indices (into ``addresses``) of words that need
        the scrub tier or a scalar replay; every other uncommitted word is
        unread, and the caller reads it again.  Per-bit array kwargs cannot
        be fused and raise :class:`~repro.errors.ConfigurationError`.

        **A scheme that writes no cell** (it declares ``latch_inputs``)
        draws only the latch's coin flips, and which bits flip is fixed by
        the cells.  The probe senses every codeword once with
        ``rng=None``, runs the retry ladder of each word with an unresolved
        bit inside the probe (:class:`~repro.core.retry.WordRetry`: shared
        re-sense passes, then one block of coin flips in the per-word
        order), and decodes the group with one
        :meth:`~repro.ecc.hamming.HammingSECDED.decode_words`.  Every word
        up to the first that decodes ``DETECTED`` commits, and the RNG
        advances by exactly their draws; ``bad`` names that one word, whose
        scrub rounds :meth:`~repro.faults.recovery.RecoveryController
        .read_word` runs, and the words after it are not committed.  No
        cell is rewound, and the RNG gives back only the draws of words
        left uncommitted.

        **Any other scheme** may write cells and draw on write-back, so its
        pass draws from ``rng`` as the loop's first attempts would — every
        kernel consumes its RNG in ascending bit order — and commits the
        whole group only when no word would escalate: no metastable or
        undecided bit and no ``DETECTED`` decode.  Otherwise the cells
        *and* the RNG are rewound and ``([], bad)`` names every escalating
        word; a scalar replay draws what the probe drew, so those words
        escalate again and the runs between them commit fused.

        **Clean-read memo.**  Through a scheme that declares
        ``latch_inputs`` and with no kernel keyword, every committed word
        whose first pass left no bit in the window is remembered: its
        cells, the state table its rails came from, the amplifier
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
        if not count:
            return [], ()
        if len(set(addresses)) != count:
            raise ConfigurationError(
                "addresses must be distinct within one batched read"
            )
        if kwargs and any(isinstance(value, np.ndarray) for value in kwargs.values()):
            raise ConfigurationError(
                "per-bit keyword arrays cannot be fused into one group read"
            )
        width = self.codec.codeword_bits
        if min(addresses) < 0 or max(addresses) >= self.size_words:
            for address in addresses:
                self._check_address(address)  # raises on the first bad one
        bases = [address * width for address in addresses]
        population = self.array.population
        if scheme.latch_inputs is None:
            return self._probe_rewound(addresses, bases, scheme, rng, **kwargs)

        key = table = None
        if not kwargs:
            key = scheme.rails_key()
            table = population.cached_table(key)
            entries = None if table is None else self._recall(
                addresses, bases, scheme, table
            )
            if entries is not None:
                return self._commit_recalled(addresses, entries, scheme), ()

        spans = self._spans(bases)
        states = self.array._states[spans]
        view = population.view(spans)
        _meter_array_read("read_bits", spans.size)
        first = scheme.read_many(view, states, **kwargs)
        if key is not None and table is None:
            # The pass read through the table the memo saw, or built it.
            table = population.cached_table(key)
        ladder = rng_state = None
        if np.count_nonzero(first.metastable | (first.bits < 0)):
            ladder = WordRetry(
                scheme, view, states, retry_policy, width, first, **kwargs
            )
            draws = int(ladder.draws.sum())
            uniforms = None
            if rng is not None and draws:
                rng_state = rng.bit_generator.state
                uniforms = rng.random(draws)
            result = ladder.resolve(uniforms)
            received = result.bit_values()
            attempts = result.attempts.reshape(count, width).max(axis=1).tolist()
            read_pulses = result.read_pulses.reshape(count, width).sum(axis=1).tolist()
            metastable = np.count_nonzero(
                result.metastable.reshape(count, width), axis=1
            ).tolist()
            # The words whose ladder runs past a clean first attempt.
            rows = [False] * count
            for word in ladder.words:
                rows[word] = True
        else:
            # No bit is left unresolved, so the latched bits need no
            # mapping of -1 to 0.
            received = first.bits.view(np.uint8)
            attempts = [1] * count
            read_pulses = [first.read_pulses * width] * count
            metastable = [0] * count
            rows = [False] * count
        decode = self.codec.decode_words(received.reshape(count, width))
        statuses = decode.statuses
        commit = count
        if DecodeStatus.DETECTED in statuses:
            commit = statuses.index(DecodeStatus.DETECTED)
            if rng_state is not None:
                # Keep the committed words' draws only: the scalar ladder
                # draws the DETECTED word's again.
                rng.bit_generator.state = rng_state
                rng.random(int(ladder.draws[:commit].sum()))
        if ladder is not None:
            ladder.meter_coins(commit)

        positions = decode.corrected_positions.tolist()
        results = []
        for index in range(commit):
            if rows[index]:
                ladder.meter_word(result, index)
            status = statuses[index]
            self._commit_decode(addresses[index], status, positions[index])
            results.append(EccReadResult(
                value=decode.values[index],
                status=status,
                corrected_position=positions[index],
                metastable_bits=metastable[index],
                attempts=attempts[index],
                read_pulses=read_pulses[index],
            ))
        if key is not None:
            clean = [index for index in range(commit) if not rows[index]]
            self._remember(addresses, clean, states, first, scheme, table, results)
        return results, (() if commit == count else (commit,))

    def _spans(self, bases: List[int]) -> np.ndarray:
        """The cells of the codewords at ``bases``, group-major.  Distinct
        and in range by construction (distinct checked word addresses →
        disjoint ``[base, base + width)`` ranges), so the kernel runs on a
        view of them without :meth:`STTRAMArray.read_bits` re-checking."""
        return np.add.outer(bases, self._offsets).ravel()

    def _probe_rewound(
        self,
        addresses: List[int],
        bases: List[int],
        scheme: SensingScheme,
        rng: Optional[np.random.Generator],
        **kwargs,
    ) -> Tuple[List[EccReadResult], Tuple[int, ...]]:
        """:meth:`probe_words` through a scheme that may write cells: one
        drawing pass, committed whole or rewound."""
        count = len(addresses)
        width = self.codec.codeword_bits
        spans = self._spans(bases)
        states = self.array._states[spans]
        rng_state = rng.bit_generator.state if rng is not None else None
        # The scheme reads a copy; ``states`` stays the pre-read snapshot
        # to rewind to.
        sensed = states.copy()
        _meter_array_read("read_bits", spans.size)
        batch = scheme.read_many(
            self.array.population.view(spans), sensed, rng=rng, **kwargs
        )
        self.array._states[spans] = sensed

        unresolved = batch.metastable | (batch.bits < 0)
        if np.count_nonzero(unresolved):
            rows = unresolved.reshape(count, width).any(axis=1)
            bad = tuple(np.nonzero(rows)[0].tolist())
        else:
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
            self.array._states[spans] = states
            if rng_state is not None:
                rng.bit_generator.state = rng_state
            return [], bad

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
            high, low = entry.extremes()
            high += offset
            low += offset
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
        results = [entry.result for entry in entries]
        if not _obs.active():
            stats = self._stats
            for result in results:
                stats[result.status] += 1
            return results
        bits = len(addresses) * self.codec.codeword_bits
        _meter_array_read("read_bits", bits)
        latched = b"".join(entry.bits for entry in entries)
        stored = b"".join(entry.cells for entry in entries)
        errors = np.count_nonzero(
            np.frombuffer(latched, np.int8) != np.frombuffer(stored, np.uint8)
        )
        meter_batch_read(scheme.name, bits, 0, int(errors))
        for address, result in zip(addresses, results):
            self._commit_decode(address, result.status, result.corrected_position)
        return results

    def _remember(
        self,
        addresses: List[int],
        words: List[int],
        states: np.ndarray,
        batch,
        scheme: SensingScheme,
        table,
        results: List[EccReadResult],
    ) -> None:
        """Record the committed words ``words`` (indices into
        ``addresses``), none of which has a bit in the window of
        ``batch``, the group's first pass."""
        if not words:
            return
        width = self.codec.codeword_bits
        plus, minus = (batch.voltages[name] for name in scheme.latch_inputs)
        # The latch's own ``v_plus - v_minus``, before the offset is added.
        diff = plus - minus
        cells = states.tobytes()
        latched = batch.bits.tobytes()
        resolution = scheme.sense_amp.resolution
        memo = self._memo
        for index in words:
            span = slice(index * width, (index + 1) * width)
            memo[addresses[index]] = _CleanRead(
                cells[span], table, resolution, diff[span], latched[span],
                results[index],
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
