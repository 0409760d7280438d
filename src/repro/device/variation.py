"""Process-variation models and cell-population sampling.

The paper's motivating yield problem is the large bit-to-bit MTJ resistance
variation: a 0.1 Å change in MgO barrier thickness shifts the resistance by
8% (its ref. [8]).  We model each bit's resistances as

    R = RA(t_ox) / A,    RA(t_ox) ∝ exp(t_ox / κ),   κ = 0.1 Å / ln(1.08)

with Gaussian barrier-thickness and junction-area deviations, an independent
small TMR deviation (decorrelating ``R_H`` from ``R_L``), plus transistor,
read-current-ratio (β), divider-ratio (α) and sense-amplifier-offset
variation for the circuit surroundings.

:class:`CellPopulation` carries vectorized per-bit parameter arrays used by
the Monte-Carlo engine.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Hashable, List, Optional, Tuple

import numpy as np

from repro.device.mtj import MTJDevice, MTJParams, MTJState
from repro.device.rolloff import PowerLawRollOff, RollOffModel
from repro.errors import ConfigurationError

__all__ = [
    "VariationModel",
    "CellPopulation",
    "PopulationView",
    "OXIDE_SENSITIVITY_PER_ANGSTROM",
]

#: ln(1.08) / 0.1 Å — fractional resistance sensitivity to barrier thickness
#: [1/Å], from "resistance increases by 8% when thickness changes from
#: 14 Å to 14.1 Å" (paper §I).
OXIDE_SENSITIVITY_PER_ANGSTROM = math.log(1.08) / 0.1

#: The per-bit parameter arrays of a :class:`CellPopulation`.
_PER_BIT_FIELDS = (
    "r_low0",
    "r_high0",
    "dr_low_max",
    "dr_high_max",
    "r_tr",
    "alpha_deviation",
    "beta_deviation",
    "sa_offset",
    "vref_error",
)

#: The per-bit arrays a bit's series resistance ``R_MTJ(I) + R_TR`` is
#: computed from: read-only while a cached per-state table exists.
_TABLE_ARRAYS = ("r_low0", "r_high0", "dr_low_max", "dr_high_max", "r_tr")

#: Every attribute the cached per-state tables depend on.
_TABLE_SOURCES = frozenset(_TABLE_ARRAYS + ("nominal", "rolloff_high", "rolloff_low"))

#: Per-state tables a population keeps at most (oldest dropped first):
#: one per read current / scheme configuration in use.
_MAX_TABLES = 8

#: ``rails(population, states) -> tuple of per-bit arrays`` — a function
#: of each bit's fixed parameters and stored bit only.
Rails = Callable[["CellPopulation", np.ndarray], Tuple[np.ndarray, ...]]


@dataclasses.dataclass(frozen=True)
class VariationModel:
    """Standard deviations of every process-variation source.

    Attributes
    ----------
    sigma_tox_angstrom:
        Barrier-thickness sigma [Å].  0.04 Å ≈ 3% resistance sigma.
    sigma_area_frac:
        Fractional junction-area sigma (lithography/etch).
    sigma_tmr_frac:
        Fractional TMR sigma, independent of the common RA variation.
    sigma_rtr_frac:
        Fractional access-transistor on-resistance sigma.
    sigma_alpha_frac:
        Fractional voltage-divider-ratio sigma (nondestructive scheme).
    sigma_beta_frac:
        Fractional read-current-ratio sigma (read-driver mismatch).
    sigma_sa_offset:
        Sense-amplifier residual input offset sigma [V] after auto-zero.
    sigma_vref:
        Shared-reference error sigma [V] seen by *conventional* sensing
        only: the reference is generated from reference MTJ cells subject
        to the same process variation (averaged over a small group), so it
        carries its own mismatch.  Self-reference schemes have no shared
        reference and are immune — the core of the paper's argument.
    """

    sigma_tox_angstrom: float = 0.04
    sigma_area_frac: float = 0.03
    sigma_tmr_frac: float = 0.02
    sigma_rtr_frac: float = 0.03
    sigma_alpha_frac: float = 0.01
    sigma_beta_frac: float = 0.01
    sigma_sa_offset: float = 1.0e-3
    sigma_vref: float = 10.0e-3

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            if value < 0.0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")

    def resistance_sigma_frac(self) -> float:
        """Approximate total fractional sigma of the low-state resistance
        (thickness and area contributions combined in quadrature)."""
        thickness = OXIDE_SENSITIVITY_PER_ANGSTROM * self.sigma_tox_angstrom
        return math.sqrt(thickness**2 + self.sigma_area_frac**2)

    def scaled(self, factor: float) -> "VariationModel":
        """All sigmas multiplied by ``factor`` (variation-scaling ablation)."""
        if factor < 0.0:
            raise ConfigurationError("scale factor must be non-negative")
        return VariationModel(
            sigma_tox_angstrom=self.sigma_tox_angstrom * factor,
            sigma_area_frac=self.sigma_area_frac * factor,
            sigma_tmr_frac=self.sigma_tmr_frac * factor,
            sigma_rtr_frac=self.sigma_rtr_frac * factor,
            sigma_alpha_frac=self.sigma_alpha_frac * factor,
            sigma_beta_frac=self.sigma_beta_frac * factor,
            sigma_sa_offset=self.sigma_sa_offset * factor,
            sigma_vref=self.sigma_vref * factor,
        )


def _rolled_off(r_zero: np.ndarray, dr_max: np.ndarray, fraction) -> np.ndarray:
    """``r_zero - dr_max * fraction``, evaluated into the roll-off
    fraction's own array when it already has the result's shape (the
    population-wide case), with the same two roundings as the expression."""
    out = (
        fraction
        if isinstance(fraction, np.ndarray) and fraction.shape == r_zero.shape
        else None
    )
    drop = np.multiply(dr_max, fraction, out=out)
    return np.subtract(r_zero, drop, out=drop)


@dataclasses.dataclass
class CellPopulation:
    """Vectorized per-bit electrical parameters of an STT-RAM array.

    Every attribute except the shared nominal/rolloff fields is a 1-D numpy
    array of length ``size``.  Resistance roll-off magnitudes scale with each
    bit's own resistance split so that a high-resistance bit also exhibits a
    proportionally larger roll-off (constant-shape assumption).

    Reads of a few bits go through :meth:`view`, which gathers from
    per-state tables (:meth:`state_tables`) the population evaluates once
    over all its bits.  While a table exists, the arrays it was computed
    from are read-only; write them with :meth:`assign` (or rebind the
    attribute), which drops the tables first.
    """

    nominal: MTJParams
    rolloff_high: RollOffModel
    rolloff_low: RollOffModel
    r_low0: np.ndarray
    r_high0: np.ndarray
    dr_low_max: np.ndarray
    dr_high_max: np.ndarray
    r_tr: np.ndarray
    alpha_deviation: np.ndarray
    beta_deviation: np.ndarray
    sa_offset: np.ndarray
    vref_error: np.ndarray

    def __post_init__(self) -> None:
        self._tables = {}
        self._frozen = []

    def __setattr__(self, name, value) -> None:
        if name in _TABLE_SOURCES and getattr(self, "_tables", None):
            self._drop_tables()
        object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        """Number of bits in the population."""
        return int(self.r_low0.size)

    # ------------------------------------------------------------------
    # Cached per-state tables (the index-view read path)
    # ------------------------------------------------------------------
    def state_tables(self, key: Hashable, rails: Rails) -> Tuple[np.ndarray, ...]:
        """``rails`` evaluated over every bit for both stored values,
        memoized under ``key``.

        Each returned array has ``2 * size`` entries: ``[rails(all 0),
        rails(all 1)]``, so a bit's value for stored bit ``s`` sits at
        ``s * size + index``.  ``key`` must name everything ``rails``
        reads besides the population.  Building a table marks its source
        arrays read-only until :meth:`assign` or an attribute rebind drops
        it.
        """
        tables = self._tables.get(key)
        if tables is None:
            for name in _TABLE_ARRAYS:
                array = getattr(self, name)
                if array.flags.writeable:
                    array.flags.writeable = False
                    self._frozen.append(array)
            low = rails(self, np.zeros(self.size, dtype=np.uint8))
            high = rails(self, np.ones(self.size, dtype=np.uint8))
            tables = tuple(np.concatenate([a, b]) for a, b in zip(low, high))
            if len(self._tables) >= _MAX_TABLES:
                del self._tables[next(iter(self._tables))]
            self._tables[key] = tables
        return tables

    def cached_table(self, key: Hashable) -> Optional[Tuple[np.ndarray, ...]]:
        """The tables memoized under ``key``, or ``None`` (builds nothing).

        The returned tuple is a fresh object whenever the tables are
        rebuilt, so holding it and comparing by identity tells whether
        anything :meth:`state_tables` depends on has changed since.
        """
        return self._tables.get(key)

    def _drop_tables(self) -> None:
        self._tables.clear()
        for array in self._frozen:
            array.flags.writeable = True
        self._frozen.clear()

    def assign(self, mask, **values) -> None:
        """Write per-bit parameters in place (``field[mask] = value`` for
        each keyword), dropping every cached table first."""
        self._drop_tables()
        for name, value in values.items():
            if name not in _PER_BIT_FIELDS:
                raise ConfigurationError(f"{name!r} is not a per-bit parameter array")
            getattr(self, name)[mask] = value

    def view(self, indices) -> "PopulationView":
        """A no-copy view of the given bits (see :class:`PopulationView`)."""
        return PopulationView(self, np.asarray(indices, dtype=np.intp))

    # ------------------------------------------------------------------
    # Vectorized resistance characteristics
    # ------------------------------------------------------------------
    def _rolloff_ratio(self, current):
        ratio = np.abs(np.asarray(current, dtype=float))
        if isinstance(ratio, np.ndarray):
            return np.divide(ratio, self.nominal.i_read_max, out=ratio)
        return ratio / self.nominal.i_read_max

    def _low_at(self, ratio) -> np.ndarray:
        return _rolled_off(self.r_low0, self.dr_low_max, self.rolloff_low.fraction(ratio))

    def _high_at(self, ratio) -> np.ndarray:
        return _rolled_off(self.r_high0, self.dr_high_max, self.rolloff_high.fraction(ratio))

    def resistance_low(self, current) -> np.ndarray:
        """Per-bit parallel-state resistance at read current(s) [Ω]."""
        return self._low_at(self._rolloff_ratio(current))

    def resistance_high(self, current) -> np.ndarray:
        """Per-bit anti-parallel-state resistance at read current(s) [Ω]."""
        return self._high_at(self._rolloff_ratio(current))

    def resistances(self, current) -> Tuple[np.ndarray, np.ndarray]:
        """``(resistance_low, resistance_high)`` at read current(s), with
        the roll-off ratio ``|I| / I_max`` computed once for both."""
        ratio = self._rolloff_ratio(current)
        return self._low_at(ratio), self._high_at(ratio)

    def resistance(self, current, state: MTJState) -> np.ndarray:
        """Per-bit resistance for the given state."""
        if state is MTJState.ANTIPARALLEL:
            return self.resistance_high(current)
        return self.resistance_low(current)

    def tmr(self, current=0.0) -> np.ndarray:
        """Per-bit TMR ratio at the given current."""
        r_h = self.resistance_high(current)
        r_l = self.resistance_low(current)
        return (r_h - r_l) / r_l

    # ------------------------------------------------------------------
    # State-dependent electrical view (the batch read kernel's substrate)
    # ------------------------------------------------------------------
    def state_resistance(self, current, states) -> np.ndarray:
        """Per-bit MTJ resistance for per-bit stored states (0/1) [Ω]."""
        stored = np.asarray(states).astype(bool)
        return np.where(
            stored, self.resistance_high(current), self.resistance_low(current)
        )

    def series_resistance(self, current, states) -> np.ndarray:
        """Per-bit ``R_MTJ(I) + R_TR`` [Ω] — the vectorized analogue of
        :meth:`repro.core.cell.Cell1T1J.series_resistance`."""
        return self.state_resistance(current, states) + self.r_tr

    def bitline_voltage(self, current, states) -> np.ndarray:
        """Per-bit bit-line voltage ``V_BL = I (R_MTJ + R_TR)`` [V] —
        bit-exact with the scalar cell path for identical parameters."""
        return current * self.series_resistance(current, states)

    def device(self, index: int, state: MTJState = MTJState.PARALLEL) -> MTJDevice:
        """Materialize bit ``index`` as a standalone :class:`MTJDevice`."""
        if not 0 <= index < self.size:
            raise IndexError(f"bit index {index} out of range [0, {self.size})")
        params = self.nominal.replace(
            r_low=float(self.r_low0[index]),
            r_high=float(self.r_high0[index]),
            dr_low_max=float(self.dr_low_max[index]),
            dr_high_max=float(self.dr_high_max[index]),
        )
        return MTJDevice(params, self.rolloff_high, self.rolloff_low, state)

    def subset(self, indices) -> "CellPopulation":
        """A new population restricted to the given bits.

        A ``slice`` selects a contiguous run by basic indexing, so the new
        population's arrays are views of this one's (no copy; a write
        through either shows in both).  Any other index -- positions or a
        mask -- copies; :meth:`view` reads arbitrary bits without copying.
        """
        idx = indices if isinstance(indices, slice) else np.asarray(indices)
        return CellPopulation(
            nominal=self.nominal,
            rolloff_high=self.rolloff_high,
            rolloff_low=self.rolloff_low,
            **{name: getattr(self, name)[idx] for name in _PER_BIT_FIELDS},
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls,
        size: int,
        variation: VariationModel,
        params: Optional[MTJParams] = None,
        rolloff_high: Optional[RollOffModel] = None,
        rolloff_low: Optional[RollOffModel] = None,
        rng: Optional[np.random.Generator] = None,
        r_tr_nominal: float = 917.0,
    ) -> "CellPopulation":
        """Draw a Monte-Carlo population of ``size`` bits.

        Thickness and area deviations move ``R_L`` and ``R_H`` together
        (common RA/A factor); a separate TMR deviation then moves ``R_H``
        relative to ``R_L``.  Roll-off magnitudes scale with each bit's
        resistances as described in the class docstring.
        """
        if size <= 0:
            raise ConfigurationError(f"population size must be positive, got {size}")
        if params is None:
            params = MTJParams()
        if rolloff_high is None:
            rolloff_high = PowerLawRollOff(1.0)
        if rolloff_low is None:
            rolloff_low = PowerLawRollOff(1.0)
        if rng is None:
            rng = np.random.default_rng()

        delta_t = rng.normal(0.0, variation.sigma_tox_angstrom, size)
        ra_factor = np.exp(OXIDE_SENSITIVITY_PER_ANGSTROM * delta_t)
        area_factor = np.clip(1.0 + rng.normal(0.0, variation.sigma_area_frac, size), 0.5, 1.5)
        common = ra_factor / area_factor

        tmr_factor = np.clip(1.0 + rng.normal(0.0, variation.sigma_tmr_frac, size), 0.1, None)
        r_low0 = params.r_low * common
        r_high0 = r_low0 * (1.0 + params.tmr * tmr_factor)

        split_nominal = params.r_high - params.r_low
        split = r_high0 - r_low0
        dr_high_max = params.dr_high_max * split / split_nominal
        dr_low_max = params.dr_low_max * r_low0 / params.r_low

        r_tr = r_tr_nominal * np.clip(
            1.0 + rng.normal(0.0, variation.sigma_rtr_frac, size), 0.1, None
        )
        alpha_dev = rng.normal(0.0, variation.sigma_alpha_frac, size)
        beta_dev = rng.normal(0.0, variation.sigma_beta_frac, size)
        sa_offset = rng.normal(0.0, variation.sigma_sa_offset, size)
        vref_error = rng.normal(0.0, variation.sigma_vref, size)

        return cls(
            nominal=params,
            rolloff_high=rolloff_high,
            rolloff_low=rolloff_low,
            r_low0=r_low0,
            r_high0=r_high0,
            dr_low_max=dr_low_max,
            dr_high_max=dr_high_max,
            r_tr=r_tr,
            alpha_deviation=alpha_dev,
            beta_deviation=beta_dev,
            sa_offset=sa_offset,
            vref_error=vref_error,
        )

    @classmethod
    def nominal_population(
        cls,
        size: int,
        params: Optional[MTJParams] = None,
        rolloff_high: Optional[RollOffModel] = None,
        rolloff_low: Optional[RollOffModel] = None,
        r_tr_nominal: float = 917.0,
    ) -> "CellPopulation":
        """A variation-free population (all bits identical) — useful for
        testing that Monte-Carlo margins reduce to the analytic ones."""
        if params is None:
            params = MTJParams()
        if rolloff_high is None:
            rolloff_high = PowerLawRollOff(1.0)
        if rolloff_low is None:
            rolloff_low = PowerLawRollOff(1.0)
        ones = np.ones(size)
        zeros = np.zeros(size)
        return cls(
            nominal=params,
            rolloff_high=rolloff_high,
            rolloff_low=rolloff_low,
            r_low0=params.r_low * ones,
            r_high0=params.r_high * ones,
            dr_low_max=params.dr_low_max * ones,
            dr_high_max=params.dr_high_max * ones,
            r_tr=r_tr_nominal * ones,
            alpha_deviation=zeros.copy(),
            beta_deviation=zeros.copy(),
            sa_offset=zeros.copy(),
            vref_error=zeros.copy(),
        )


class PopulationView:
    """The bits ``idx`` of a parent :class:`CellPopulation`, without copies.

    Read kernels accept a view wherever they accept a population.  Its
    series resistance and bit-line voltage are gathered from the parent's
    per-state tables (:meth:`gather`) instead of being re-derived from the
    roll-off model on every read; the values are bit-identical to
    ``parent.subset(idx)``, because every table entry is the same IEEE
    expression of that bit's parameters.  Every other attribute is
    answered by that subset (per-bit arrays by a gather).  A view is for
    reading: write through the parent's :meth:`CellPopulation.assign`.
    """

    __slots__ = ("parent", "idx")

    def __init__(self, parent: CellPopulation, idx: np.ndarray):
        self.parent = parent
        self.idx = idx

    @property
    def size(self) -> int:
        """Number of bits in the view."""
        return int(self.idx.size)

    @property
    def nominal(self) -> MTJParams:
        """The parent's nominal device parameters."""
        return self.parent.nominal

    def __getattr__(self, name):
        if name in ("parent", "idx", "assign") or name.startswith("__"):
            raise AttributeError(name)
        if name in _PER_BIT_FIELDS:
            return getattr(self.parent, name)[self.idx]
        return getattr(self.parent.subset(self.idx), name)

    def view(self, indices) -> "PopulationView":
        """A view of the given positions of this view."""
        return PopulationView(self.parent, self.idx[np.asarray(indices, dtype=np.intp)])

    def gather(self, key: Hashable, rails: Rails, states) -> List[np.ndarray]:
        """What ``rails`` gives this view's bits holding ``states``, gathered
        from the parent's :meth:`CellPopulation.state_tables` under ``key``
        (``rails`` runs on the parent, once per key)."""
        at = np.where(states, self.idx + self.parent.size, self.idx)
        return [table.take(at) for table in self.parent.state_tables(key, rails)]

    def series_resistance(self, current, states) -> np.ndarray:
        """Per-bit ``R_MTJ(I) + R_TR`` [Ω] from the parent's table at
        ``current`` (computed on a copy for per-bit current arrays)."""
        if np.ndim(current):
            return self.parent.subset(self.idx).series_resistance(current, states)
        (series,) = self.gather(
            ("series", float(current)),
            lambda population, bits: (population.series_resistance(current, bits),),
            states,
        )
        return series

    def bitline_voltage(self, current, states) -> np.ndarray:
        """Per-bit ``V_BL = I (R_MTJ + R_TR)`` [V]."""
        return current * self.series_resistance(current, states)
