"""Per-die characterization: binary-search trim against a pass/fail shmoo.

Production trim does not get to run an optimizer per die — it walks a
*discrete trim-code lattice* (the fuse/register codes the design actually
exposes) with a binary search against the tester's pass/fail verdict,
OpenNVRAM style.  Per die this finds:

* the **trim code** balancing the two worst-case sense margins — the β
  ratio for the self-referenced schemes, the reference voltage ``V_REF``
  for conventional sensing;
* the minimal **sense-current factor** that still passes (read-energy
  trim; margins grow with read current, so the search is monotone);
* a **retry budget** sized from the die's marginal-cell count (cells whose
  binding margin clears the requirement but sits inside the guardband).

The pass/fail predicate is repair-aware: a die passes when its
``fail_budget``-th-worst binding margin clears ``required_margin`` — the
``fail_budget`` worst cells are the ones spare-word repair and ECC will
absorb downstream.  Cells the parametric screen already condemned
(stuck-short/open) are excluded from the margin statistics entirely;
trim serves the repairable remainder, not the dead cells.

Everything is vectorized over dies with a *fixed* iteration count and
purely elementwise updates (per-die ``np.where`` on the search bounds), so
characterizing a stacked chunk of dies is bit-exact with characterizing
each die alone — the property the wafer driver's equivalence gate checks.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.device.variation import _PER_BIT_FIELDS, CellPopulation
from repro.errors import ConfigurationError
from repro.prodtest.march import (
    _knob_free_terms,
    _knob_margins,
    _parametric_stuck_masks,
    scheme_family,
)

__all__ = [
    "CharacterizeConfig",
    "CharacterizeResult",
    "TrimRecord",
    "characterize_dies",
    "knob_bounds",
]

#: Sense-current factors the energy trim may select, best (cheapest) last.
#: The search walks them descending and keeps the smallest passing one.
_SENSE_FACTORS = (1.0, 0.9, 0.8, 0.7, 0.6)


@dataclasses.dataclass(frozen=True)
class CharacterizeConfig:
    """Knobs of the per-die characterization pass."""

    code_bits: int = 6              #: trim-code lattice width (2^bits codes)
    required_margin: float = 8.0e-3  #: pass threshold on the binding margin [V]
    guardband: float = 1.5          #: marginal band = (required, guardband*required]
    fail_budget: int = 16           #: worst cells repair/ECC will absorb
    max_retry_budget: int = 4       #: cap on the provisioned retry budget
    sense_factors: Tuple[float, ...] = _SENSE_FACTORS

    def __post_init__(self) -> None:
        if self.code_bits < 1 or self.code_bits > 16:
            raise ConfigurationError(
                f"code_bits must lie in [1, 16], got {self.code_bits}"
            )
        if self.required_margin <= 0.0:
            raise ConfigurationError(
                f"required_margin must be positive, got {self.required_margin}"
            )
        if self.guardband < 1.0:
            raise ConfigurationError(
                f"guardband must be >= 1, got {self.guardband}"
            )
        if self.fail_budget < 0:
            raise ConfigurationError(
                f"fail_budget must be >= 0, got {self.fail_budget}"
            )
        if self.max_retry_budget < 0:
            raise ConfigurationError(
                f"max_retry_budget must be >= 0, got {self.max_retry_budget}"
            )
        if not self.sense_factors or any(
            not 0.0 < f <= 1.0 for f in self.sense_factors
        ):
            raise ConfigurationError(
                "sense_factors must be a non-empty tuple of factors in (0, 1]"
            )

    @property
    def codes(self) -> int:
        """Number of points on the trim-code lattice."""
        return 1 << self.code_bits


def knob_bounds(scheme) -> Tuple[str, float, float]:
    """``(knob_name, low, high)`` of a scheme's trim-code lattice.

    The self-referenced schemes trim the current ratio β (the
    nondestructive scheme has the wide usable range the paper's Fig. 8
    flat-top implies; the destructive scheme's range is pinched by its
    erase step), conventional sensing trims the shared reference around
    its design point.
    """
    family = scheme_family(scheme)
    if family == "nondestructive":
        return "beta", 1.05, 3.6
    if family == "destructive":
        return "beta", 1.02, 1.8
    return "v_ref", scheme.v_ref - 0.03, scheme.v_ref + 0.03


@dataclasses.dataclass(frozen=True)
class TrimRecord:
    """One die's characterization outcome (what burns into its fuses)."""

    die: int
    knob: str               #: "beta" or "v_ref"
    code: int               #: trim code on the lattice
    value: float            #: knob value the code encodes
    binding_margin: float   #: fail_budget-th-worst binding margin [V]
    sense_factor: float     #: selected read-current scale
    retry_budget: int       #: provisioned serving retries
    passes: bool            #: die cleared the margin requirement


@dataclasses.dataclass(frozen=True)
class CharacterizeResult:
    """Vectorized characterization outcome over a batch of dies."""

    knob: str
    codes: np.ndarray            #: per-die trim code
    values: np.ndarray           #: per-die knob value
    binding_margins: np.ndarray  #: per-die fail_budget-th-worst margin [V]
    sense_factors: np.ndarray    #: per-die read-current scale
    retry_budgets: np.ndarray    #: per-die provisioned retries
    passes: np.ndarray           #: per-die pass verdicts
    marginal_cells: np.ndarray   #: per-die guardband-cell counts
    trimmed_sm0: np.ndarray      #: per-cell SM0 at the trimmed point, (dies, cells) [V]
    trimmed_sm1: np.ndarray      #: per-cell SM1 at the trimmed point, (dies, cells) [V]

    @property
    def dies(self) -> int:
        """Number of dies characterized."""
        return int(self.codes.size)

    def record(self, die: int) -> TrimRecord:
        """The :class:`TrimRecord` of one die."""
        return TrimRecord(
            die=die,
            knob=self.knob,
            code=int(self.codes[die]),
            value=float(self.values[die]),
            binding_margin=float(self.binding_margins[die]),
            sense_factor=float(self.sense_factors[die]),
            retry_budget=int(self.retry_budgets[die]),
            passes=bool(self.passes[die]),
        )

    def records(self) -> Iterator[TrimRecord]:
        """All per-die records in die order."""
        for die in range(self.dies):
            yield self.record(die)


def _code_values(codes: np.ndarray, low: float, high: float, config: CharacterizeConfig) -> np.ndarray:
    """Map lattice codes to knob values (linear DAC over the bounds)."""
    return low + (high - low) * codes / (config.codes - 1)


def _per_die(population: CellPopulation, cells: int) -> CellPopulation:
    """``population`` with every per-bit array viewed as ``(dies, cells)``.

    The margin functions are elementwise, so per-die knob values of shape
    ``(dies, 1)`` broadcast over each die's cells, bit-identical to
    repeating each value per cell, and per-die reductions run along axis 1.
    """
    return dataclasses.replace(
        population,
        **{name: getattr(population, name).reshape(-1, cells) for name in _PER_BIT_FIELDS},
    )


def _kth_binding(binding: np.ndarray, k: int) -> np.ndarray:
    """Per-die k-th-worst of per-cell ``binding`` margins, partitioned in
    place: the order statistic is taken per die row, which is invariant to
    how dies are batched."""
    binding.partition(k, axis=1)
    return binding[:, k].copy()


def characterize_dies(
    population: CellPopulation,
    cells_per_die: int,
    scheme,
    config: Optional[CharacterizeConfig] = None,
) -> CharacterizeResult:
    """Binary-search characterize every die of a stacked population.

    ``population`` holds the cells of ``population.size // cells_per_die``
    dies, die-major.  The trim search balances each die's worst-case
    ``SM0`` against its worst-case ``SM1`` (both monotone in the knob,
    with opposite signs) over the discrete code lattice, then the
    sense-current trim keeps the smallest factor that still passes, and
    the retry budget is sized from the guardband-cell count.  The trim,
    the pass verdict and the retry budget are taken at the largest sense
    factor, the one a die falls back to.  Fully deterministic and
    batch-invariant.
    """
    config = config if config is not None else CharacterizeConfig()
    if cells_per_die < 1:
        raise ConfigurationError(
            f"cells_per_die must be >= 1, got {cells_per_die}"
        )
    if population.size % cells_per_die:
        raise ConfigurationError(
            f"population of {population.size} cells is not a whole number "
            f"of {cells_per_die}-cell dies"
        )
    dies = population.size // cells_per_die
    knob, low, high = knob_bounds(scheme)
    grid = _per_die(population, cells_per_die)
    shorted, opened = _parametric_stuck_masks(grid)
    dead = shorted | opened
    k = min(config.fail_budget, cells_per_die - 1)
    descending = sorted(set(config.sense_factors), reverse=True)

    # The trim knob moves only the first read (β) or the reference
    # (V_REF): everything else is evaluated once, at the top factor.
    trim = _knob_free_terms(scheme, grid, descending[0])

    def margins_at(codes, terms):
        """Per-cell ``(sm0, sm1)`` at per-die codes (dead cells included)."""
        values = _code_values(codes, low, high, config)
        return _knob_margins(grid, terms, values[:, None])

    def masked(margins):
        """``margins`` with dead (parametric-stuck) cells set to ``+inf``
        in place, so they bind nothing."""
        np.copyto(margins, np.inf, where=dead)
        return margins

    # Integer bisection on the monotone imbalance worst_sm0 - worst_sm1
    # (increasing in β and in V_REF): fixed code_bits iterations so every
    # die walks the lattice in lockstep.
    lo = np.zeros(dies, dtype=np.int64)
    hi = np.full(dies, config.codes - 1, dtype=np.int64)
    for _ in range(config.code_bits):
        mid = (lo + hi) // 2
        sm0, sm1 = margins_at(mid, trim)
        raise_knob = masked(sm0).min(axis=1) < masked(sm1).min(axis=1)
        lo = np.where(raise_knob, np.minimum(mid + 1, config.codes - 1), lo)
        hi = np.where(raise_knob, hi, np.maximum(mid - 1, 0))

    # The bisection lands next to the balance point; test the immediate
    # neighbourhood and keep the code with the best k-th binding margin.
    # Each candidate's margins stay unmasked: the winner's are the trimmed
    # operating point's, which the retry budget below and the wafer's
    # verification march (which reads dead cells too) both use.
    candidates = np.stack(
        [
            np.clip(lo - 1, 0, config.codes - 1),
            np.clip(lo, 0, config.codes - 1),
            np.clip(lo + 1, 0, config.codes - 1),
        ]
    )
    neighbours = [margins_at(candidate, trim) for candidate in candidates]
    kth_margins = np.stack(
        [_kth_binding(masked(np.minimum(*pair)), k) for pair in neighbours]
    )
    best = np.argmax(kth_margins, axis=0)
    codes = candidates[best, np.arange(dies)]
    binding = kth_margins[best, np.arange(dies)]
    values = _code_values(codes, low, high, config)
    # Each die's winning rows, gathered into the middle candidate's arrays.
    trimmed_sm0, trimmed_sm1 = neighbours[1]
    for index in (0, 2):
        won = (best == index)[:, None]
        np.copyto(trimmed_sm0, neighbours[index][0], where=won)
        np.copyto(trimmed_sm1, neighbours[index][1], where=won)
    # Only one factor's terms are held at a time, to bound memory.
    del neighbours, trim

    # Read-energy trim: margins shrink with the sense factor, so keep the
    # smallest factor whose k-th binding margin still clears the bar.
    factors = np.full(dies, descending[0], dtype=float)
    for factor in descending[1:]:
        terms = _knob_free_terms(scheme, grid, factor)
        sm0, sm1 = margins_at(codes, terms)
        kth = _kth_binding(masked(np.minimum(sm0, sm1, out=sm0)), k)
        accept = kth > config.required_margin
        factors = np.where(accept, factor, factors)

    # A die passes when its repairable remainder clears the bar AND its
    # dead-cell count fits inside the repair/ECC budget (a die that is
    # mostly dead has an +inf order statistic — that is not a pass).
    dead_per_die = np.count_nonzero(dead, axis=1)
    passes = (binding > config.required_margin) & (
        dead_per_die <= config.fail_budget
    )

    # Retry provisioning from the marginal-cell count: cells whose binding
    # margin clears the bar but sits inside the guardband are the ones a
    # serving-time retry will occasionally have to rescue.
    cell_binding = masked(np.minimum(trimmed_sm0, trimmed_sm1))
    marginal = np.count_nonzero(
        (cell_binding > config.required_margin)
        & (cell_binding <= config.guardband * config.required_margin),
        axis=1,
    )
    retry_budgets = np.minimum(
        np.ceil(marginal / 8.0).astype(np.int64), config.max_retry_budget
    )

    return CharacterizeResult(
        knob=knob,
        codes=codes,
        values=values,
        binding_margins=binding,
        sense_factors=factors,
        retry_budgets=retry_budgets,
        passes=passes,
        marginal_cells=marginal.astype(np.int64),
        trimmed_sm0=trimmed_sm0,
        trimmed_sm1=trimmed_sm1,
    )
