"""Sense-margin mathematics for all three schemes.

This module is the analytic heart of the reproduction: the closed-form
bit-line-voltage margins of the paper's Eqs. (1)–(10), in two flavours:

* scalar functions operating on a :class:`~repro.core.cell.Cell1T1J` (used
  by the scheme classes and the optimizers);
* vectorized functions operating on a
  :class:`~repro.device.variation.CellPopulation` (used by the Monte-Carlo
  engine for the 16kb test-chip experiment, paper Fig. 11).

Definitions (``I_R1`` first-read current, ``I_R2 = β I_R1`` second-read
current, ``R_X1/R_X2`` the state-X resistance at those currents,
``R_T1/R_T2`` the access-transistor resistance at those currents):

Conventional (external reference ``V_REF``):
    ``SM0 = V_REF - I_R (R_L + R_T)``, ``SM1 = I_R (R_H + R_T) - V_REF``.

Destructive self-reference (second read is always of the erased "0"):
    ``SM0 = I_R2 (R_L2 + R_T2) - I_R1 (R_L1 + R_T1)``
    ``SM1 = I_R1 (R_H1 + R_T1) - I_R2 (R_L2 + R_T2)``

Nondestructive self-reference (divider ratio ``α``, paper Eqs. 8–9; the
second read is of the *original* state):
    ``SM1 = I_R1 (R_H1 + R_T1) - α I_R2 (R_H2 + R_T2)``
    ``SM0 = α I_R2 (R_L2 + R_T2) - I_R1 (R_L1 + R_T1)``

A bit is readable iff both margins exceed the sense-amplifier window.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.core.cell import Cell1T1J
from repro.device.mtj import MTJState
from repro.device.variation import CellPopulation
from repro.errors import ConfigurationError

__all__ = [
    "MarginPair",
    "conventional_margins",
    "destructive_margins",
    "nondestructive_margins",
    "SecondRead",
    "conventional_rails",
    "destructive_second_read",
    "first_read_margins",
    "nondestructive_second_read",
    "population_conventional_margins",
    "population_destructive_margins",
    "population_nondestructive_margins",
    "reference_margins",
]


@dataclasses.dataclass(frozen=True)
class MarginPair:
    """Sense margins for the two stored values [V]."""

    sm0: float  #: margin when the cell stores "0" (parallel / low R)
    sm1: float  #: margin when the cell stores "1" (anti-parallel / high R)

    @property
    def min_margin(self) -> float:
        """The binding margin — the worse of the two."""
        return min(self.sm0, self.sm1)

    @property
    def is_balanced(self) -> bool:
        """True when the two margins are equal to within 1 µV (the
        optimizers' target condition)."""
        return abs(self.sm0 - self.sm1) < 1.0e-6

    @property
    def imbalance(self) -> float:
        """``SM1 - SM0`` [V]; the optimizers drive this to zero."""
        return self.sm1 - self.sm0


def _check_currents(i_read2, beta):
    """Validate the read currents and return ``I_R1 = I_R2 / β``.

    Accepts scalars or per-bit arrays for either argument (the production
    test flow trims β and scales ``I_R2`` per die), preserving the scalar
    fast path exactly.
    """
    _check_positive("i_read2", i_read2)
    _check_positive("beta", beta)
    return i_read2 / beta


def _check_positive(name, value) -> None:
    if np.any(np.asarray(value) <= 0.0):
        raise ConfigurationError(f"{name} must be positive, got {value}")


# ----------------------------------------------------------------------
# Scalar (single-cell) margins
# ----------------------------------------------------------------------
def conventional_margins(cell: Cell1T1J, i_read: float, v_ref: float) -> MarginPair:
    """Margins of external-reference sensing (paper Eqs. 1–2)."""
    if i_read <= 0.0:
        raise ConfigurationError(f"i_read must be positive, got {i_read}")
    v_low = cell.bitline_voltage(i_read, MTJState.PARALLEL)
    v_high = cell.bitline_voltage(i_read, MTJState.ANTIPARALLEL)
    return MarginPair(sm0=v_ref - v_low, sm1=v_high - v_ref)


def destructive_margins(
    cell: Cell1T1J,
    i_read2: float,
    beta: float,
    rtr_shift: float = 0.0,
) -> MarginPair:
    """Margins of the conventional (destructive) self-reference scheme.

    ``rtr_shift`` is the ``ΔR_TR`` added to the transistor resistance at the
    *first* read (paper §IV-B robustness analysis).
    """
    i_read1 = _check_currents(i_read2, beta)
    r_t1 = float(cell.transistor.resistance(i_read1)) + rtr_shift
    r_t2 = float(cell.transistor.resistance(i_read2))
    r_l1 = float(cell.mtj.resistance(i_read1, MTJState.PARALLEL))
    r_h1 = float(cell.mtj.resistance(i_read1, MTJState.ANTIPARALLEL))
    r_l2 = float(cell.mtj.resistance(i_read2, MTJState.PARALLEL))
    v_reference = i_read2 * (r_l2 + r_t2)
    sm0 = v_reference - i_read1 * (r_l1 + r_t1)
    sm1 = i_read1 * (r_h1 + r_t1) - v_reference
    return MarginPair(sm0=sm0, sm1=sm1)


def nondestructive_margins(
    cell: Cell1T1J,
    i_read2: float,
    beta: float,
    alpha: float = 0.5,
    alpha_deviation: float = 0.0,
    rtr_shift: float = 0.0,
) -> MarginPair:
    """Margins of the paper's nondestructive self-reference scheme
    (Eqs. 8–9 with the robustness knobs of Eqs. 14/18–20).

    ``alpha_deviation`` is the fractional divider-ratio error Δ (the realized
    ratio is ``α (1 + Δ)``); ``rtr_shift`` the first-read ``ΔR_TR``.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    i_read1 = _check_currents(i_read2, beta)
    alpha_eff = alpha * (1.0 + alpha_deviation)
    r_t1 = float(cell.transistor.resistance(i_read1)) + rtr_shift
    r_t2 = float(cell.transistor.resistance(i_read2))
    r_l1 = float(cell.mtj.resistance(i_read1, MTJState.PARALLEL))
    r_h1 = float(cell.mtj.resistance(i_read1, MTJState.ANTIPARALLEL))
    r_l2 = float(cell.mtj.resistance(i_read2, MTJState.PARALLEL))
    r_h2 = float(cell.mtj.resistance(i_read2, MTJState.ANTIPARALLEL))
    sm1 = i_read1 * (r_h1 + r_t1) - alpha_eff * i_read2 * (r_h2 + r_t2)
    sm0 = alpha_eff * i_read2 * (r_l2 + r_t2) - i_read1 * (r_l1 + r_t1)
    return MarginPair(sm0=sm0, sm1=sm1)


# ----------------------------------------------------------------------
# Vectorized (population) margins
# ----------------------------------------------------------------------
# Each population margin is split where a trim knob enters: the terms no
# knob moves are evaluated once and reused across every knob value a trim
# search tries.  The public ``population_*_margins`` functions are the
# composition of the two halves, so each equation exists once.  Every
# function is elementwise over the population's arrays: a population whose
# arrays are shaped ``(dies, cells)`` takes per-die knob values of shape
# ``(dies, 1)`` by broadcasting, bit-identical to repeating them per cell.
#
# A trim search evaluates these dozens of times per chunk of dies, so each
# function computes into the few per-bit arrays it allocates itself (the
# ufuncs' ``out=``) instead of one temporary per operator.  The operations
# and their order are those of the equation each docstring or comment
# states, so the results are bit-identical to the expression form
# (``tests/oracles.py`` keeps it).


def conventional_rails(population: CellPopulation, i_read) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bit ``(V_low, V_high) = I_R (R_X(I_R) + R_T)``: what each bit
    drives onto the bit line for a stored "0" and "1" [V].  The shared
    reference ``V_REF`` (the conventional trim knob) does not enter."""
    _check_positive("i_read", i_read)
    r_low, r_high = population.resistances(i_read)
    return _drive(i_read, r_low, population.r_tr), _drive(i_read, r_high, population.r_tr)


def _drive(current, r_mtj: np.ndarray, r_tr) -> np.ndarray:
    """``current * (r_mtj + r_tr)``: a bit-line voltage, evaluated into
    ``r_mtj`` (a fresh resistance array the caller owns)."""
    np.add(r_mtj, r_tr, out=r_mtj)
    return np.multiply(current, r_mtj, out=r_mtj)


def reference_margins(
    population: CellPopulation, rails: Tuple[np.ndarray, np.ndarray], v_ref
) -> Tuple[np.ndarray, np.ndarray]:
    """``(SM0, SM1)`` of external-reference sensing from a bit's
    :func:`conventional_rails` and the shared reference ``v_ref`` (paper
    Eqs. 1–2), which each bit sees with its local reference error."""
    v_low, v_high = rails
    v_ref_bit = np.add(v_ref, population.vref_error)
    sm0 = np.subtract(v_ref_bit, v_low)
    return sm0, np.subtract(v_high, v_ref_bit, out=v_ref_bit)


def population_conventional_margins(
    population: CellPopulation,
    i_read: float,
    v_ref: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bit margins of external-reference sensing.

    The reference is *shared*, so per-bit resistance variation translates
    directly into margin loss — the failure mode motivating the paper.
    Each bit additionally sees its local reference error (the shared
    reference is generated from reference MTJ cells and distributed, both
    subject to mismatch).  Returns ``(sm0, sm1)`` arrays [V].

    ``i_read`` and ``v_ref`` may be scalars or per-bit arrays (the
    production test flow trims the reference and read current per die).
    """
    return reference_margins(
        population, conventional_rails(population, i_read), v_ref
    )


@dataclasses.dataclass(frozen=True)
class SecondRead:
    """The part of a self-referenced read the trim knob β does not move.

    β sets only the first-read current ``I_R1 = I_R2 / β``; the second
    read at ``I_R2`` and the sample it leaves for the comparison are fixed
    for a given ``I_R2``.  :func:`first_read_margins` completes the read.
    """

    i_read2: float           #: second-read current (scalar or per-bit) [A]
    v_low: np.ndarray        #: sample a stored "0" is compared against [V]
    v_high: np.ndarray       #: sample a stored "1" is compared against [V]
    r_t1: np.ndarray         #: first-read transistor resistance R_T + ΔR_TR [Ω]
    beta_scale: Optional[np.ndarray]  #: per-bit ``1 + β_dev`` (None: no mismatch)


def _second_read(population, i_read2, v_low, v_high, rtr_shift, with_beta_variation):
    return SecondRead(
        i_read2=i_read2,
        v_low=v_low,
        v_high=v_high,
        r_t1=population.r_tr + rtr_shift,
        beta_scale=1.0 + population.beta_deviation if with_beta_variation else None,
    )


def destructive_second_read(
    population: CellPopulation,
    i_read2,
    rtr_shift: float = 0.0,
    with_beta_variation: bool = True,
) -> SecondRead:
    """The destructive scheme's second read: the erased "0" re-read at
    ``I_R2``, ``V_reference = I_R2 (R_L2 + R_T2)``, the level both stored
    values are compared against."""
    _check_positive("i_read2", i_read2)
    v_reference = _drive(i_read2, population.resistance_low(i_read2), population.r_tr)
    return _second_read(
        population, i_read2, v_reference, v_reference, rtr_shift, with_beta_variation
    )


def nondestructive_second_read(
    population: CellPopulation,
    i_read2,
    alpha: float = 0.5,
    rtr_shift: float = 0.0,
    with_beta_variation: bool = True,
    with_alpha_variation: bool = True,
) -> SecondRead:
    """The nondestructive scheme's second read of the *original* state,
    divided down: ``V_BO = α_eff I_R2 (R_X2 + R_T2)`` with the per-bit
    divider ratio ``α_eff = α (1 + α_dev)``."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    _check_positive("i_read2", i_read2)
    if with_alpha_variation:
        alpha_eff = np.add(1.0, population.alpha_deviation)
        np.multiply(alpha, alpha_eff, out=alpha_eff)
    else:
        alpha_eff = alpha
    # (α_eff I_R2) (R_X2 + R_T2), the scale shared by both stored values.
    scale = np.multiply(alpha_eff, i_read2)
    r_low2, r_high2 = population.resistances(i_read2)
    v_bo_low = _drive(scale, r_low2, population.r_tr)
    v_bo_high = _drive(scale, r_high2, population.r_tr)
    return _second_read(
        population, i_read2, v_bo_low, v_bo_high, rtr_shift, with_beta_variation
    )


def first_read_margins(
    population: CellPopulation, second: SecondRead, beta
) -> Tuple[np.ndarray, np.ndarray]:
    """``(SM0, SM1)`` of a self-referenced read: the first read at
    ``I_R1 = I_R2 / β`` (per-bit ``β (1 + β_dev)`` with read-driver
    mismatch) against the :class:`SecondRead` sample."""
    _check_positive("beta", beta)
    if second.beta_scale is not None:
        # I_R2 / (β (1 + β_dev))
        i_read1 = np.multiply(beta, second.beta_scale)
        np.divide(second.i_read2, i_read1, out=i_read1)
    else:
        i_read1 = np.broadcast_to(
            np.asarray(second.i_read2 / beta, dtype=float), np.shape(second.r_t1)
        ).copy()
    r_low1, r_high1 = population.resistances(i_read1)
    # SM1 = I_R1 (R_H1 + R_T1) - V_high;  SM0 = V_low - I_R1 (R_L1 + R_T1)
    sm1 = _drive(i_read1, r_high1, second.r_t1)
    np.subtract(sm1, second.v_high, out=sm1)
    sm0 = _drive(i_read1, r_low1, second.r_t1)
    return np.subtract(second.v_low, sm0, out=sm0), sm1


def population_destructive_margins(
    population: CellPopulation,
    i_read2: float,
    beta: float,
    rtr_shift: float = 0.0,
    with_beta_variation: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bit margins of the destructive self-reference scheme.

    Self-referencing cancels the bit-to-bit resistance variation to first
    order (each bit is compared against itself), leaving only the roll-off
    difference and the circuit-mismatch terms.
    """
    second = destructive_second_read(
        population, i_read2, rtr_shift, with_beta_variation
    )
    return first_read_margins(population, second, beta)


def population_nondestructive_margins(
    population: CellPopulation,
    i_read2: float,
    beta: float,
    alpha: float = 0.5,
    rtr_shift: float = 0.0,
    with_beta_variation: bool = True,
    with_alpha_variation: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bit margins of the nondestructive self-reference scheme,
    including per-bit divider-ratio and read-driver mismatch."""
    second = nondestructive_second_read(
        population, i_read2, alpha, rtr_shift, with_beta_variation,
        with_alpha_variation,
    )
    return first_read_margins(population, second, beta)
