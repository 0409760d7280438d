"""Graceful-degradation recovery ladder: retry → ECC → scrub → repair.

A memory controller never gives up on a word after one bad read.  This
module composes the mechanisms the lower layers already provide into the
standard escalation ladder:

1. **Retry** — metastable bits are re-sensed under the word's
   :class:`~repro.core.retry.RetryPolicy` *before* the decoder sees them;
2. **ECC** — the SECDED decoder corrects one remaining hard error;
3. **Scrub** — a detected-uncorrectable word is re-read from scratch
   (transient noise decorrelates between operations) and, once it decodes,
   rewritten clean;
4. **Repair** — a word that recovers but still carries a hard defect is
   migrated to a spare physical word and its address remapped, so the next
   soft error does not pair with the stuck bit.

:meth:`RecoveryController.read_words` serves a coalesced group in one
sensing pass (:meth:`~repro.ecc.array.EccArray.probe_words`), its retry
tier included, bit-exact with a word-by-word loop: only a word that needs
the scrub tier leaves the pass for :meth:`RecoveryController.read_word`.

Only when every tier is spent — the word stays uncorrectable through all
scrub rounds — does the controller raise
:class:`~repro.errors.RetryExhaustedError`; the caller learns the address
and can fail the access loudly instead of consuming silently wrong data.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.base import SensingScheme
from repro.core.retry import RetryPolicy
from repro.ecc.array import EccArray
from repro.ecc.hamming import DecodeStatus
from repro.errors import ConfigurationError, FaultError, RetryExhaustedError
from repro.obs import runtime as _obs
from repro.obs.trace import SPARE_REPAIR, WORD_LOST

__all__ = ["RecoveryTier", "RecoveredWord", "LostWord", "RecoveryController"]


class RecoveryTier(enum.Enum):
    """Which rung of the ladder produced the returned data."""

    CLEAN = "clean"    #: first read decoded clean, no retries needed
    RETRY = "retry"    #: re-sensing resolved it before the decoder
    ECC = "ecc"        #: the SECDED decoder corrected one error
    SCRUB = "scrub"    #: a fresh re-read recovered it; word rewritten
    REPAIR = "repair"  #: recovered and migrated to a spare word


@dataclasses.dataclass(frozen=True)
class RecoveredWord:
    """One logical word delivered through the recovery ladder."""

    address: int
    value: int
    tier: RecoveryTier
    status: DecodeStatus
    attempts: int      #: worst per-bit sensing attempts of the final read
    rereads: int = 0   #: scrub-tier re-reads performed (0 for tiers ≤ ECC)
    remapped: bool = False  #: word now lives on a spare physical word

    @property
    def degraded(self) -> bool:
        """True when anything beyond a clean first read was needed."""
        return self.tier is not RecoveryTier.CLEAN

    @property
    def failed(self) -> bool:
        """A recovered word is, by definition, not lost."""
        return False


@dataclasses.dataclass(frozen=True)
class LostWord:
    """One word whose read exhausted every recovery tier.

    The batched entry point (:meth:`RecoveryController.read_words`) returns
    these in-place instead of raising, so one unrecoverable word does not
    abort the rest of its coalesced group; ``error`` carries the
    :class:`~repro.errors.RetryExhaustedError` the scalar path would have
    raised.
    """

    address: int
    attempts: int
    error: RetryExhaustedError

    @property
    def failed(self) -> bool:
        """Mirror of :attr:`RecoveredWord.failed` for uniform handling."""
        return True


def _tier(result) -> RecoveryTier:
    """The rung that delivered a reliable read: ECC when the decoder
    corrected, RETRY when sensing needed more than one attempt."""
    if result.status is DecodeStatus.CORRECTED:
        return RecoveryTier.ECC
    if result.attempts > 1:
        return RecoveryTier.RETRY
    return RecoveryTier.CLEAN


class RecoveryController:
    """Word-level recovery over an :class:`~repro.ecc.array.EccArray`.

    Parameters
    ----------
    memory:
        The ECC-protected word store.  The controller reserves the *top*
        ``spare_words`` physical words as repair spares; the remaining
        words are the logical address space.
    policy:
        Retry policy for every sensing pass (default: 3 attempts, 5 ns
        exponential backoff).  It is the one policy in force: a serving
        controller charges its backoff to a retried group's bank
        occupancy, and the adaptive loop actuates by replacing it.
    scrub_rounds:
        Fresh re-reads attempted on a detected-uncorrectable word before
        declaring the data lost.
    spare_words:
        Physical words held back for remapping chronically bad words.
    """

    def __init__(
        self,
        memory: EccArray,
        policy: Optional[RetryPolicy] = None,
        scrub_rounds: int = 2,
        spare_words: int = 0,
    ):
        if scrub_rounds < 0:
            raise ConfigurationError("scrub_rounds must be non-negative")
        if spare_words < 0:
            raise ConfigurationError("spare_words must be non-negative")
        if memory.size_words - spare_words < 1:
            raise ConfigurationError(
                f"{spare_words} spare words leave no addressable words in a "
                f"{memory.size_words}-word memory"
            )
        self.memory = memory
        self.policy = policy if policy is not None else RetryPolicy()
        self.scrub_rounds = int(scrub_rounds)
        self.size_words = memory.size_words - spare_words
        #: logical address → spare physical word
        self._remap: Dict[int, int] = {}
        # Spares are handed out bottom-up from the reserved top region.
        self._free_spares: List[int] = list(
            range(memory.size_words - 1, self.size_words - 1, -1)
        )
        self.tier_counts: Dict[RecoveryTier, int] = {t: 0 for t in RecoveryTier}
        self.words_lost = 0  #: reads that exhausted every tier

    # ------------------------------------------------------------------
    # Address plumbing
    # ------------------------------------------------------------------
    def physical_address(self, address: int) -> int:
        """Where ``address`` currently lives (identity unless remapped)."""
        self._check_address(address)
        return self._remap.get(address, address)

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.size_words:
            raise IndexError(
                f"word address {address} out of range [0, {self.size_words})"
            )

    @property
    def spares_remaining(self) -> int:
        """Unused spare words."""
        return len(self._free_spares)

    @property
    def remapped_words(self) -> Dict[int, int]:
        """Current logical → spare mapping (copy)."""
        return dict(self._remap)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def write_word(self, address: int, value: int) -> None:
        """Write through the remap table."""
        self.memory.write_word(self.physical_address(address), value)

    def read_word(
        self,
        address: int,
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> RecoveredWord:
        """Read one word, escalating through the ladder as needed.

        Raises
        ------
        RetryExhaustedError
            When the word stays detected-uncorrectable through every scrub
            round — the data is lost and the caller must not use it.
        """
        physical = self.physical_address(address)
        result = self.memory.read_word(
            physical, scheme, rng, retry_policy=self.policy, **kwargs
        )
        if result.reliable:
            return self._record(RecoveredWord(
                address, result.value, _tier(result), result.status,
                result.attempts,
            ))

        # Scrub tier: transient corruption decorrelates between operations,
        # so read the physical word again from scratch.
        rereads = 0
        for _ in range(self.scrub_rounds):
            rereads += 1
            result = self.memory.read_word(
                physical, scheme, rng, retry_policy=self.policy, **kwargs
            )
            if result.reliable:
                return self._scrub_recovered(
                    address, physical, result, rereads, scheme, rng, **kwargs
                )

        # Every tier spent: the data is unrecoverable.  Fail loudly.
        self.words_lost += 1
        if _obs.active():
            _obs.get_registry().inc("recovery.words_lost")
            _obs.trace(WORD_LOST, address=address, rereads=rereads)
        raise RetryExhaustedError(
            f"word {address} (physical {physical}) stayed uncorrectable "
            f"through retry, ECC, and {rereads} scrub round(s)",
            address=address,
            attempts=result.attempts,
        )

    def read_words(
        self,
        addresses: Sequence[int],
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> List[Union[RecoveredWord, LostWord]]:
        """Read a coalesced group of distinct words through the ladder.

        The group goes through
        :meth:`~repro.ecc.array.EccArray.probe_words`, which senses it in
        one pass with this ladder's retry policy and commits every word up
        to the first that needs more than retry and ECC.  Through a scheme
        declaring ``latch_inputs`` that is the first word left ``DETECTED``
        by its retry ladder: only it reaches the scalar :meth:`read_word`
        (its scrub and repair tiers), and the rest of the group is read
        again as a group.  Through any other scheme the probe commits all
        or nothing; on nothing, the group *splits at the escalating words*
        it names: the clean segments between them commit fused, and only
        the escalating words reach :meth:`read_word`.  Processing stays
        strictly in address order and every committed read is draw-equal
        to the scalar read of that word, so the result stream, the tier
        counters, and every RNG draw are bit-exact with a loop of
        :meth:`read_word` over ``addresses`` in order, including spare
        remaps an earlier word's repair applies to a later word's lookup
        (physical addresses are resolved per probe, after the preceding
        words finished).  Per-bit array kwargs cannot be fused and raise
        :class:`~repro.errors.ConfigurationError`.

        Unlike :meth:`read_word`, an unrecoverable word does not raise: it
        appears as a :class:`LostWord` in the result list (the scalar
        loop's exception, captured), and the remaining words of the group
        are still served.
        """
        addresses = list(addresses)
        physicals = [self.physical_address(address) for address in addresses]
        committed, bad = self.memory.probe_words(
            physicals, scheme, rng, self.policy, **kwargs
        )
        words: List[Union[RecoveredWord, LostWord]] = [
            self._record(RecoveredWord(
                address, result.value, _tier(result), result.status,
                result.attempts,
            ))
            for address, result in zip(addresses, committed)
        ]
        start = len(committed)
        for index in bad:
            if index > start:
                words.extend(self.read_words(
                    addresses[start:index], scheme, rng, **kwargs
                ))
            words.append(self._read_word_caught(
                addresses[index], scheme, rng, **kwargs
            ))
            start = index + 1
        if start < len(addresses):
            words.extend(self.read_words(
                addresses[start:], scheme, rng, **kwargs
            ))
        return words

    def _read_word_caught(
        self,
        address: int,
        scheme: SensingScheme,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> Union[RecoveredWord, LostWord]:
        """One scalar ladder read with the exhaustion exception captured."""
        try:
            return self.read_word(address, scheme, rng, **kwargs)
        except RetryExhaustedError as error:
            return LostWord(
                address=address,
                attempts=max(1, error.attempts),
                error=error,
            )

    def _scrub_recovered(
        self,
        address: int,
        physical: int,
        result,
        rereads: int,
        scheme: SensingScheme,
        rng,
        **kwargs,
    ) -> RecoveredWord:
        """A scrub re-read decoded: rewrite the word clean, then decide
        whether the physical word is healthy enough to keep."""
        self.memory.write_word(physical, result.value)
        verify = self.memory.read_word(
            physical, scheme, rng, retry_policy=self.policy, **kwargs
        )
        if verify.status is DecodeStatus.CLEAN:
            return self._record(RecoveredWord(
                address, result.value, RecoveryTier.SCRUB, result.status,
                result.attempts, rereads=rereads,
            ))
        # The freshly rewritten word still decodes dirty: a hard defect
        # lives in these cells.  Migrate to a spare while the data is good.
        remapped = self._remap_to_spare(address, result.value)
        tier = RecoveryTier.REPAIR if remapped else RecoveryTier.SCRUB
        return self._record(RecoveredWord(
            address, result.value, tier, result.status,
            result.attempts, rereads=rereads, remapped=remapped,
        ))

    def _remap_to_spare(self, address: int, value: int) -> bool:
        """Move a logical word onto a fresh spare; False when none left."""
        if not self._free_spares:
            return False
        # A word already on a spare that went bad too leaves that spare
        # consumed for good.
        spare = self._free_spares.pop()
        self._remap[address] = spare
        self.memory.write_word(spare, value)
        if _obs.active():
            _obs.get_registry().inc("recovery.spares_used")
            _obs.trace(SPARE_REPAIR, address=address, spare=spare)
        return True

    def _record(self, word: RecoveredWord) -> RecoveredWord:
        self.tier_counts[word.tier] += 1
        if _obs.active():
            _obs.get_registry().inc("recovery.words", tier=word.tier.value)
        return word

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def statistics(self) -> Dict[str, int]:
        """Ladder-tier counters plus losses, keyed by tier value."""
        stats = {tier.value: count for tier, count in self.tier_counts.items()}
        stats["lost"] = self.words_lost
        return stats

    def require_healthy(self) -> None:
        """Raise :class:`~repro.errors.FaultError` if any read ever
        exhausted the ladder (a convenience for campaign gates)."""
        if self.words_lost:
            raise FaultError(
                f"{self.words_lost} word(s) lost despite the recovery ladder"
            )
