"""Composable fault models for STT-RAM arrays.

The taxonomy follows the STT-RAM testing literature (e.g. Wu et al.,
"Testing STT-RAM"): *hard* defects of the MTJ stack — a pinhole short
through the MgO barrier or an open contact, both of which destroy the
resistance split the read relies on — plus *transient* mechanisms the
sensing path itself introduces: read-disturb flips, sense-amplifier offset
drift with aging, bit-line coupling noise, and (for the destructive
self-reference scheme) power loss inside the read's erase/write-back
window.

Every model is a small frozen dataclass so fault campaigns are declarative:
build the list of models, hand it to a
:class:`~repro.faults.injector.FaultInjector`, and the injector owns all
randomness.  Permanent models mutate a
:class:`~repro.device.variation.CellPopulation`'s parameter arrays (so the
scalar and vectorized read paths see exactly the same defect) or a
standalone :class:`~repro.core.cell.Cell1T1J`; transient models expose
draw hooks the injector calls per read operation.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple

import numpy as np

from repro.core.cell import Cell1T1J
from repro.device.variation import CellPopulation
from repro.errors import ConfigurationError

__all__ = [
    "FaultKind",
    "StuckShortFault",
    "StuckOpenFault",
    "TransitionFault",
    "ReadDisturbFault",
    "ReadDisturbProneFault",
    "SenseOffsetDrift",
    "BitlineNoiseFault",
    "PowerFailureFault",
    "STUCK_TMR_RESIDUAL",
]

#: Residual fractional resistance split left on a stuck junction.  A truly
#: shorted/open MTJ has no state dependence at all; the model keeps an
#: (electrically negligible) 0.01% split so a stuck cell still materializes
#: as a valid :class:`~repro.device.mtj.MTJParams` on the scalar read path.
STUCK_TMR_RESIDUAL = 1.0e-4


class FaultKind(enum.Enum):
    """Classification of every fault model in this package."""

    STUCK_SHORT = "stuck-short"          #: MgO pinhole: both states ~short
    STUCK_OPEN = "stuck-open"            #: broken contact: both states open
    TRANSITION_UP = "transition-up"      #: cell cannot switch 0 → 1
    TRANSITION_DOWN = "transition-down"  #: cell cannot switch 1 → 0
    READ_DISTURB = "read-disturb"        #: read current flipped the free layer
    SENSE_MARGIN = "sense-margin"        #: marginal/metastable sensing
    SENSE_OFFSET_DRIFT = "sense-offset-drift"  #: aged sense-amp offset
    BITLINE_NOISE = "bitline-noise"      #: transient bit-line coupling noise
    POWER_FAILURE = "power-failure"      #: supply lost mid destructive read


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"fault rate must lie in [0, 1], got {rate}")


def _check_sigma(sigma: float) -> None:
    if sigma < 0.0:
        raise ConfigurationError(f"sigma must be non-negative, got {sigma}")


@dataclasses.dataclass(frozen=True)
class _StuckFault:
    """Shared machinery of the two hard MTJ defects: pin both resistance
    states to ``resistance`` and remove the current roll-off, so the cell
    carries no readable state regardless of the sensing scheme."""

    rate: float
    resistance: float

    #: permanent faults survive for the campaign; transient ones re-draw
    permanent = True

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.resistance <= 0.0:
            raise ConfigurationError(
                f"stuck resistance must be positive, got {self.resistance}"
            )

    def select(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean mask of the cells this model strikes."""
        return rng.random(size) < self.rate

    def apply_population(self, population: CellPopulation, mask: np.ndarray) -> None:
        """Pin the masked bits' resistance arrays (both read paths see it;
        the population drops its cached read tables)."""
        population.assign(
            mask,
            r_low0=self.resistance,
            r_high0=self.resistance * (1.0 + STUCK_TMR_RESIDUAL),
            dr_low_max=0.0,
            dr_high_max=0.0,
        )

    def apply_cell(self, cell: Cell1T1J) -> None:
        """Pin a standalone cell's junction (the scalar read path)."""
        cell.mtj.params = cell.mtj.params.replace(
            r_low=self.resistance,
            r_high=self.resistance * (1.0 + STUCK_TMR_RESIDUAL),
            dr_low_max=0.0,
            dr_high_max=0.0,
        )


@dataclasses.dataclass(frozen=True)
class StuckShortFault(_StuckFault):
    """Pinhole short through the MgO barrier: the junction reads as a few
    hundred ohms in both states, far below any healthy ``R_L``."""

    rate: float = 1.0e-3
    resistance: float = 200.0
    kind = FaultKind.STUCK_SHORT


@dataclasses.dataclass(frozen=True)
class StuckOpenFault(_StuckFault):
    """Open MTJ contact: both states look like a near-open circuit."""

    rate: float = 1.0e-3
    resistance: float = 5.0e5
    kind = FaultKind.STUCK_OPEN


@dataclasses.dataclass(frozen=True)
class TransitionFault:
    """The cell cannot complete a write transition in one direction.

    The STT-MRAM testing literature's *transition fault* (TF): a weak or
    pinned free layer whose switching threshold exceeds the write driver's
    current in one polarity, so a ``w1`` on a "0" cell (``direction="up"``)
    or a ``w0`` on a "1" cell (``direction="down"``) leaves the state
    unchanged.  The junction is *electrically healthy at read* — both
    resistance states and margins look nominal — which is exactly why a
    parametric screen misses it and a march test (write, then read back)
    is required.
    """

    rate: float = 1.0e-3
    direction: str = "up"

    permanent = True

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.direction not in ("up", "down"):
            raise ConfigurationError(
                f"direction must be 'up' or 'down', got {self.direction!r}"
            )

    @property
    def kind(self) -> FaultKind:
        """Direction-specific kind (MATS+ detects only the up variant)."""
        if self.direction == "up":
            return FaultKind.TRANSITION_UP
        return FaultKind.TRANSITION_DOWN

    def select(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean mask of the cells this model strikes."""
        return rng.random(size) < self.rate

    def apply_population(self, population: CellPopulation, mask: np.ndarray) -> None:
        """No electrical signature: the defect lives in the write path."""

    def apply_cell(self, cell: Cell1T1J) -> None:
        """No electrical signature on the standalone cell either."""


@dataclasses.dataclass(frozen=True)
class ReadDisturbProneFault:
    """A cell whose free layer flips after repeated reads without a write.

    Unlike :class:`ReadDisturbFault` (an *accumulated* per-campaign flip
    probability over the whole population), this is a *cell-level defect*:
    a low-barrier bit that deterministically loses a stored "1" once
    ``threshold`` consecutive reads have passed since it was last written
    (the read current is parallelizing, so only the anti-parallel state is
    at risk).  Single-read march elements never trip it — detecting these
    cells is what the hammering read elements of the disturb-aware march
    variant are for.
    """

    rate: float = 1.0e-3
    threshold: int = 2  #: reads-since-write count at which the "1" is lost
    kind = FaultKind.READ_DISTURB
    permanent = True

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.threshold < 1:
            raise ConfigurationError(
                f"disturb threshold must be >= 1, got {self.threshold}"
            )

    def select(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean mask of the cells this model strikes."""
        return rng.random(size) < self.rate

    def apply_population(self, population: CellPopulation, mask: np.ndarray) -> None:
        """No static electrical signature: margins look nominal."""

    def apply_cell(self, cell: Cell1T1J) -> None:
        """No static electrical signature on the standalone cell."""

    def flip_mask(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """No per-operation transient flips (the defect needs read history;
        campaigns treating it as a transient see it as inert)."""
        return np.zeros(size, dtype=bool)


@dataclasses.dataclass(frozen=True)
class ReadDisturbFault:
    """The read current itself flipped the free layer of some cells.

    Modelled as an accumulated per-cell flip probability (the integral of
    many disturb-prone reads since the data was last written), applied to
    the stored states before the campaign's recovery reads.
    """

    rate: float = 1.0e-4
    kind = FaultKind.READ_DISTURB
    permanent = False

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    def flip_mask(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean mask of the cells whose stored bit flipped."""
        return rng.random(size) < self.rate


@dataclasses.dataclass(frozen=True)
class SenseOffsetDrift:
    """Aging drift of the sense amplifier's residual offset.

    The auto-zero loop cancels the *sampled* offset; charge trapping and
    NBTI slowly move the true offset between calibrations.  The injector
    draws one drift per campaign (it is quasi-static on read timescales)
    and applies it to every comparison through the scheme's sense
    amplifier.
    """

    sigma: float = 2.0e-3
    kind = FaultKind.SENSE_OFFSET_DRIFT
    permanent = False

    def __post_init__(self) -> None:
        _check_sigma(self.sigma)

    def draw(self, rng: np.random.Generator) -> float:
        """One quasi-static drift value [V]."""
        return float(rng.normal(0.0, self.sigma))


@dataclasses.dataclass(frozen=True)
class BitlineNoiseFault:
    """Transient coupling noise on the sensed bit line.

    Each read operation sees one fresh noise sample [V] added to the
    differential input — unlike :class:`SenseOffsetDrift` it decorrelates
    between attempts, which is exactly why a retry (after the policy's
    backoff) can succeed where the first read failed.
    """

    sigma: float = 1.0e-3
    kind = FaultKind.BITLINE_NOISE
    permanent = False

    def __post_init__(self) -> None:
        _check_sigma(self.sigma)

    def draw(self, rng: np.random.Generator) -> float:
        """One per-operation noise sample [V]."""
        return float(rng.normal(0.0, self.sigma))


@dataclasses.dataclass(frozen=True)
class PowerFailureFault:
    """Supply loss inside the destructive scheme's read window.

    The destructive self-reference read erases the cell before the compare
    and only restores it in the write-back — a power failure between those
    points leaves the stored data destroyed (the non-volatility hole the
    paper's nondestructive scheme closes).  With probability ``rate`` per
    read operation the injector aborts the read at a uniformly drawn phase.
    """

    rate: float = 1.0e-2
    phases: Tuple[str, ...] = ("after_erase", "after_second_read", "after_compare")
    kind = FaultKind.POWER_FAILURE
    permanent = False

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if not self.phases:
            raise ConfigurationError("phases must not be empty")

    def draw_phase(self, rng: np.random.Generator) -> Optional[str]:
        """The phase this operation's power failure hits, or ``None``."""
        if rng.random() >= self.rate:
            return None
        return self.phases[int(rng.integers(0, len(self.phases)))]
