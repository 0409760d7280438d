"""The paper's contribution: nondestructive self-reference sensing
(its §III, Fig. 5, Eqs. 6–10).

Key physical fact (paper Fig. 2): the anti-parallel state's resistance
rolls off steeply with read current; the parallel state's barely moves.
So two reads of the *same, untouched* cell at currents ``I_R1`` and
``I_R2 = β I_R1`` distinguish the states:

* stored "1": ``R_H`` collapses at the larger current, so
  ``V_BL1 = I_R1 (R_H1 + R_T)`` stays well above
  ``α V_BL2 = α I_R2 (R_H2 + R_T)`` (with ``α ≈ 1/β``);
* stored "0": ``R_L`` is flat, so ``V_BL1`` falls below ``α V_BL2``.

No erase, no write back: the read is nondestructive, non-volatility is
preserved, and the two write pulses of the prior-art scheme disappear from
the latency/energy budget.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuit.divider import VoltageDivider
from repro.circuit.sense_amp import SenseAmplifier
from repro.circuit.storage import SampleCapacitor
from repro.core.base import ReadResult, SensingScheme
from repro.core.batch import BatchReadResult, check_batch_inputs
from repro.core.cell import Cell1T1J
from repro.core.margins import MarginPair, nondestructive_margins
from repro.device.variation import CellPopulation, PopulationView
from repro.errors import ConfigurationError

__all__ = ["NondestructiveSelfReference"]


class NondestructiveSelfReference(SensingScheme):
    """Nondestructive self-reference scheme.

    Parameters
    ----------
    i_read2:
        Second-read current [A], normally the maximum non-disturbing
        current (paper §III-B: larger ``I_max`` widens the margin).
    beta:
        Read-current ratio ``I_R2 / I_R1``.  Must satisfy ``α β ≥ 1`` for a
        positive "0" margin; the paper's optimized value is 2.13 at
        ``α = 0.5``.
    divider:
        Voltage divider producing ``V_BO = α V_BL2``; the paper designs
        ``α = 0.5`` (symmetric, variation-tolerant) with tens-of-MΩ
        impedance.
    rtr_shift:
        ``ΔR_TR`` applied to the first read (robustness studies).
    sense_amp / capacitor:
        Peripheral models (8 mV window by default).
    """

    name = "nondestructive self-reference"
    latch_inputs = ("v_bl1", "v_bo")

    def __init__(
        self,
        i_read2: float = 200e-6,
        beta: float = 2.13,
        divider: Optional[VoltageDivider] = None,
        rtr_shift: float = 0.0,
        sense_amp: Optional[SenseAmplifier] = None,
        capacitor: Optional[SampleCapacitor] = None,
    ):
        if i_read2 <= 0.0:
            raise ConfigurationError(f"i_read2 must be positive, got {i_read2}")
        if beta <= 1.0:
            raise ConfigurationError(f"beta must exceed 1, got {beta}")
        self.i_read2 = float(i_read2)
        self.beta = float(beta)
        self.divider = divider if divider is not None else VoltageDivider(ratio=0.5)
        self.rtr_shift = float(rtr_shift)
        self.sense_amp = sense_amp if sense_amp is not None else SenseAmplifier()
        self.capacitor_template = capacitor if capacitor is not None else SampleCapacitor()

    @property
    def i_read1(self) -> float:
        """First-read current ``I_R2 / β`` [A]."""
        return self.i_read2 / self.beta

    @property
    def alpha(self) -> float:
        """Designed divider ratio ``α``."""
        return self.divider.ratio

    def read(
        self,
        cell: Cell1T1J,
        rng: Optional[np.random.Generator] = None,
        hold_time: float = 5e-9,
    ) -> ReadResult:
        """Full nondestructive read: two reads, divide, compare.

        The cell state is never written; the only (astronomically unlikely)
        state change would be a read disturb, which this behavioural read
        does not roll — see
        :meth:`repro.device.switching.SwitchingModel.read_disturb_probability`
        for its magnitude.
        """
        expected = cell.stored_bit

        # Phase 1: first read at I_R1, sample onto C1 (SLT1 closed).
        v_bl1 = cell.bitline_voltage(self.i_read1)
        if self.rtr_shift != 0.0:
            v_bl1 += self.i_read1 * self.rtr_shift
        cap1 = SampleCapacitor(
            self.capacitor_template.capacitance,
            self.capacitor_template.switch_resistance,
            self.capacitor_template.leakage_resistance,
        )
        cap1.sample(v_bl1, duration=10.0 * cap1.charge_time_constant)
        cap1.hold(hold_time)

        # Phase 2: second read at I_R2 through the divider (SLT2 closed).
        # The divider's high impedance steals a negligible share of the
        # read current — modelled via its loading error.
        v_bl2_ideal = cell.bitline_voltage(self.i_read2)
        source_r = cell.effective_resistance(self.i_read2)
        v_bl2 = v_bl2_ideal * (1.0 - self.divider.loading_error(source_r))
        v_bo = self.divider.output(v_bl2)

        # Phase 3: compare V_BL1 (on C1) against V_BO; latch.
        bit, metastable = self.sense_amp.compare_with_flag(cap1.stored_voltage, v_bo, rng)
        signed_margin = (
            (cap1.stored_voltage - v_bo) if expected == 1 else (v_bo - cap1.stored_voltage)
        )
        return ReadResult(
            bit=bit,
            expected_bit=expected,
            margin=signed_margin,
            voltages={
                "v_bl1": cap1.stored_voltage,
                "v_bl2": v_bl2,
                "v_bo": v_bo,
            },
            data_destroyed=False,
            write_pulses=0,
            read_pulses=2,
            metastable=metastable,
        )

    def scaled_read_current(self, factor: float) -> "NondestructiveSelfReference":
        """A copy reading at ``factor × i_read2`` (β, α unchanged).

        Escalating past the designed ``I_max`` trades read-disturb headroom
        for margin — the retry controller only does it for bits that failed
        to resolve at the design point.
        """
        if factor == 1.0:
            return self
        if factor <= 0.0:
            raise ConfigurationError(f"escalation factor must be positive, got {factor}")
        return NondestructiveSelfReference(
            i_read2=self.i_read2 * factor,
            beta=self.beta,
            divider=self.divider,
            rtr_shift=self.rtr_shift,
            sense_amp=self.sense_amp,
            capacitor=self.capacitor_template,
        )

    def rails(
        self, population: CellPopulation, states: np.ndarray, hold_time: float = 5e-9
    ):
        """The analog side of a read: ``(V_BL1 held on C1, V_BL2, V_BO,
        signed margin)`` per bit.

        They depend only on each bit's fixed parameters, its stored bit and
        this scheme's currents, divider and capacitor — never on the sense
        amplifier — because the read never writes the cell.
        """
        # Phase 1: first read at I_R1, sample onto C1 (SLT1 closed).
        v_bl1 = population.bitline_voltage(self.i_read1, states)
        if self.rtr_shift != 0.0:
            v_bl1 = v_bl1 + self.i_read1 * self.rtr_shift
        cap1 = self.capacitor_template.fresh()
        cap1.sample(v_bl1, duration=10.0 * cap1.charge_time_constant)
        cap1.hold(hold_time)

        # Phase 2: second read at I_R2 through the divider (SLT2 closed).
        v_bl2_ideal = population.bitline_voltage(self.i_read2, states)
        source_r = population.series_resistance(self.i_read2, states)
        v_bl2 = v_bl2_ideal * (1.0 - self.divider.loading_error(source_r))
        v_bo = self.divider.output(v_bl2)
        v_bl1 = cap1.stored_voltage
        margins = np.where(states == 1, v_bl1 - v_bo, v_bo - v_bl1)
        return v_bl1, v_bl2, v_bo, margins

    def rails_key(self, hold_time: float = 5e-9):
        """Every input of :meth:`rails` besides the population: the key of
        its state table (:meth:`CellPopulation.state_tables`)."""
        cap = self.capacitor_template
        return (
            type(self), self.i_read2, self.beta, self.rtr_shift, self.divider,
            cap.capacitance, cap.switch_resistance, cap.leakage_resistance,
            hold_time,
        )

    def read_many(
        self,
        population: CellPopulation,
        states: np.ndarray,
        *,
        rng: Optional[np.random.Generator] = None,
        hold_time: float = 5e-9,
    ) -> BatchReadResult:
        """Vectorized nondestructive read of a whole population.

        All three phases of :meth:`read` run as single array passes: both
        bit-line voltages from the population's state-dependent resistances,
        the C1 sample/hold on an array-valued capacitor, the divider with
        its per-bit loading error, one batched comparison.  On a
        :class:`~repro.device.variation.PopulationView` the rails are
        gathered from the parent's memo of :meth:`rails` (one table per
        configuration, shared by copies that differ only in their sense
        amplifier), so a read costs a few gathers plus the latch.  The cell
        states are untouched (the scheme is nondestructive), and the result
        is bit-for-bit identical to the sequential scalar loop under the
        same RNG.
        """
        check_batch_inputs(population, states)
        expected = states.astype(np.uint8, copy=True)
        if isinstance(population, PopulationView):
            v_bl1, v_bl2, v_bo, margins = population.gather(
                self.rails_key(hold_time),
                lambda parent, bits: self.rails(parent, bits, hold_time),
                expected,
            )
        else:
            v_bl1, v_bl2, v_bo, margins = self.rails(population, expected, hold_time)

        # Phase 3: compare V_BL1 (on C1) against V_BO; latch.
        bits, metastable = self.sense_amp.compare_bits(v_bl1, v_bo, rng)
        return BatchReadResult(
            scheme=self.name,
            bits=bits,
            expected_bits=expected,
            margins=margins,
            voltages={"v_bl1": v_bl1, "v_bl2": v_bl2, "v_bo": v_bo},
            metastable=metastable,
            data_destroyed=np.zeros(expected.shape, dtype=bool),
            write_pulses=0,
            read_pulses=2,
        )

    def sense_margins(self, cell: Cell1T1J) -> MarginPair:
        """Analytic margins (paper Eqs. 8–9 with the ideal divider)."""
        return nondestructive_margins(
            cell,
            self.i_read2,
            self.beta,
            alpha=self.divider.ratio,
            alpha_deviation=self.divider.ratio_deviation,
            rtr_shift=self.rtr_shift,
        )
