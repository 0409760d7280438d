"""Auto-zero voltage sense amplifier with built-in data latch.

The paper's test chip uses an auto-zero sense amplifier to cancel device
mismatch; what remains is a residual input offset plus a finite resolution
window — the paper quotes **"a sense margin about 8 mV"** required for a
reliable decision, which is the pass/fail threshold in its Fig. 11.

The behavioural model: decision = sign(V_plus - V_minus - offset), valid
only when the differential input exceeds the resolution window; inside the
window the outcome is metastable (resolved randomly if an RNG is supplied).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SenseAmplifier", "SenseDecision"]


class SenseDecision(enum.Enum):
    """Outcome of a sense-amplifier comparison."""

    HIGH = "high"          #: V_plus decisively above V_minus
    LOW = "low"            #: V_plus decisively below V_minus
    METASTABLE = "metastable"  #: inside the resolution window


@dataclasses.dataclass
class SenseAmplifier:
    """Latched comparator with offset and resolution window.

    Attributes
    ----------
    offset:
        Residual input-referred offset after auto-zero [V] (adds to V_plus).
    resolution:
        Minimum differential input for a deterministic decision [V]
        (paper: 8 mV).
    raw_offset:
        Pre-auto-zero offset [V]; :meth:`auto_zero` divides it down.
    auto_zero_rejection:
        Factor by which auto-zeroing shrinks ``raw_offset``.
    """

    offset: float = 0.0
    resolution: float = 8.0e-3
    raw_offset: float = 0.0
    auto_zero_rejection: float = 100.0

    def __post_init__(self) -> None:
        if self.resolution < 0.0:
            raise ConfigurationError("resolution must be non-negative")
        if self.auto_zero_rejection < 1.0:
            raise ConfigurationError("auto_zero_rejection must be >= 1")

    def auto_zero(self) -> None:
        """Run the auto-zero phase: the residual offset becomes the raw
        offset divided by the rejection factor."""
        self.offset = self.raw_offset / self.auto_zero_rejection

    def differential(self, v_plus: float, v_minus: float) -> float:
        """Effective differential input including offset [V]."""
        return v_plus - v_minus + self.offset

    def compare(
        self,
        v_plus: float,
        v_minus: float,
        rng: Optional[np.random.Generator] = None,
    ) -> SenseDecision:
        """Latch a decision.

        Returns ``METASTABLE`` when the effective differential input lies
        inside the resolution window and no RNG is given; with an RNG the
        metastable case resolves to a random rail (what real latches do).
        """
        diff = self.differential(v_plus, v_minus)
        if abs(diff) >= self.resolution:
            return SenseDecision.HIGH if diff > 0.0 else SenseDecision.LOW
        if rng is None:
            return SenseDecision.METASTABLE
        return SenseDecision.HIGH if rng.random() < 0.5 else SenseDecision.LOW

    def compare_bit(
        self,
        v_plus: float,
        v_minus: float,
        rng: Optional[np.random.Generator] = None,
    ) -> Optional[int]:
        """Decision as a bit: 1 if plus rail wins, 0 if minus, ``None`` if
        metastable."""
        decision = self.compare(v_plus, v_minus, rng)
        if decision is SenseDecision.METASTABLE:
            return None
        return 1 if decision is SenseDecision.HIGH else 0

    def compare_with_flag(
        self,
        v_plus: float,
        v_minus: float,
        rng: Optional[np.random.Generator] = None,
    ):
        """:meth:`compare_bit` plus the resolution-window flag.

        Returns ``(bit, metastable)``.  ``metastable`` is True whenever the
        effective differential input lies inside the resolution window —
        even when an RNG resolved the latch to a random rail (real latches
        expose late resolution, which is what read-retry controllers key
        on).  The RNG draw order is identical to :meth:`compare_bit`.
        """
        diff = self.differential(v_plus, v_minus)
        if abs(diff) >= self.resolution:
            return (1 if diff > 0.0 else 0), False
        if rng is None:
            return None, True
        return (1 if rng.random() < 0.5 else 0), True

    def compare_bits(
        self,
        v_plus,
        v_minus,
        rng: Optional[np.random.Generator] = None,
        offset=None,
    ):
        """Vectorized :meth:`compare_bit` over rail arrays.

        Returns ``(bits, metastable)``: ``bits`` is an ``int8`` array (1 =
        plus rail, 0 = minus rail, -1 = metastable left unresolved because
        no RNG was given) and ``metastable`` the mask of comparisons inside
        the resolution window.  With an RNG, metastable bits resolve to a
        random rail, consuming one draw per metastable bit in ascending
        index order — exactly the stream a sequential loop of
        :meth:`compare_bit` calls would consume.  ``offset`` (scalar or
        per-bit array) overrides the amplifier's own offset.
        """
        off = self.offset if offset is None else offset
        diff = np.asarray(v_plus, dtype=float) - np.asarray(v_minus, dtype=float) + off
        bits = (diff > 0.0).view(np.int8)
        metastable = np.abs(diff) < self.resolution
        if rng is None:
            bits[metastable] = -1
        else:
            count = np.count_nonzero(metastable)
            if count:
                bits[metastable] = rng.random(count) < 0.5
        return bits, metastable

    @classmethod
    def sampled(
        cls,
        rng: np.random.Generator,
        raw_offset_sigma: float = 20e-3,
        resolution: float = 8.0e-3,
        auto_zero_rejection: float = 100.0,
        auto_zeroed: bool = True,
    ) -> "SenseAmplifier":
        """Draw an instance with a random raw offset; by default the
        auto-zero phase has already run."""
        amp = cls(
            offset=0.0,
            resolution=resolution,
            raw_offset=float(rng.normal(0.0, raw_offset_sigma)),
            auto_zero_rejection=auto_zero_rejection,
        )
        if auto_zeroed:
            amp.auto_zero()
        else:
            amp.offset = amp.raw_offset
        return amp
