"""Sense-margin mathematics tests, incl. scalar/vector consistency and
hypothesis property tests on the paper's linearity structure."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cell import Cell1T1J
from repro.core.margins import (
    MarginPair,
    conventional_margins,
    destructive_margins,
    nondestructive_margins,
    population_conventional_margins,
    population_destructive_margins,
    population_nondestructive_margins,
)
from repro.device.mtj import MTJDevice, MTJState
from repro.device.rolloff import PowerLawRollOff, RationalRollOff, TabulatedRollOff
from repro.device.transistor import FixedResistanceTransistor
from repro.device.variation import _PER_BIT_FIELDS, CellPopulation, VariationModel
from repro.errors import ConfigurationError
from tests.oracles import (
    expression_conventional_margins,
    expression_destructive_margins,
    expression_fraction,
    expression_nondestructive_margins,
)

I2 = 200e-6


@pytest.fixture
def cell():
    return Cell1T1J(MTJDevice(), FixedResistanceTransistor(917.0))


class TestMarginPair:
    def test_min_margin(self):
        assert MarginPair(0.01, 0.02).min_margin == pytest.approx(0.01)

    def test_imbalance(self):
        assert MarginPair(0.01, 0.02).imbalance == pytest.approx(0.01)

    def test_is_balanced(self):
        assert MarginPair(0.01, 0.01).is_balanced
        assert not MarginPair(0.01, 0.02).is_balanced


class TestConventional:
    def test_midpoint_reference_balances(self, cell):
        v_low = cell.bitline_voltage(I2, MTJState.PARALLEL)
        v_high = cell.bitline_voltage(I2, MTJState.ANTIPARALLEL)
        margins = conventional_margins(cell, I2, 0.5 * (v_low + v_high))
        assert margins.is_balanced
        assert margins.sm0 == pytest.approx(0.5 * (v_high - v_low))

    def test_margin_equals_half_swing(self, cell):
        v_low = cell.bitline_voltage(I2, MTJState.PARALLEL)
        v_high = cell.bitline_voltage(I2, MTJState.ANTIPARALLEL)
        margins = conventional_margins(cell, I2, 0.5 * (v_low + v_high))
        # Half the resistance swing times the read current.
        r_split = cell.mtj.resistance(I2, MTJState.ANTIPARALLEL) - cell.mtj.resistance(
            I2, MTJState.PARALLEL
        )
        assert margins.sm0 == pytest.approx(0.5 * I2 * r_split)

    def test_shifted_reference_trades_margins(self, cell):
        v_low = cell.bitline_voltage(I2, MTJState.PARALLEL)
        v_high = cell.bitline_voltage(I2, MTJState.ANTIPARALLEL)
        mid = 0.5 * (v_low + v_high)
        shifted = conventional_margins(cell, I2, mid + 0.01)
        balanced = conventional_margins(cell, I2, mid)
        assert shifted.sm0 == pytest.approx(balanced.sm0 + 0.01)
        assert shifted.sm1 == pytest.approx(balanced.sm1 - 0.01)

    def test_rejects_nonpositive_current(self, cell):
        with pytest.raises(ConfigurationError):
            conventional_margins(cell, 0.0, 0.4)


class TestDestructive:
    def test_sm0_zero_at_beta_one_limit(self, cell):
        margins = destructive_margins(cell, I2, 1.0 + 1e-9)
        assert margins.sm0 == pytest.approx(0.0, abs=1e-6)

    def test_margins_positive_at_paper_beta(self, cell):
        margins = destructive_margins(cell, I2, 1.22)
        assert margins.sm0 > 0
        assert margins.sm1 > 0

    def test_sm0_grows_with_beta(self, cell):
        m1 = destructive_margins(cell, I2, 1.1)
        m2 = destructive_margins(cell, I2, 1.4)
        assert m2.sm0 > m1.sm0

    def test_sm1_shrinks_with_beta(self, cell):
        m1 = destructive_margins(cell, I2, 1.1)
        m2 = destructive_margins(cell, I2, 1.4)
        assert m2.sm1 < m1.sm1

    def test_explicit_equation(self, cell):
        # SM1 = I_R1 (R_H1 + R_T) - I_R2 (R_L2 + R_T), paper Eq. 3.
        beta = 1.3
        i1 = I2 / beta
        r_h1 = cell.mtj.resistance(i1, MTJState.ANTIPARALLEL)
        r_l2 = cell.mtj.resistance(I2, MTJState.PARALLEL)
        expected = i1 * (r_h1 + 917.0) - I2 * (r_l2 + 917.0)
        assert destructive_margins(cell, I2, beta).sm1 == pytest.approx(expected)

    def test_rtr_shift_linear(self, cell):
        base = destructive_margins(cell, I2, 1.22)
        shifted = destructive_margins(cell, I2, 1.22, rtr_shift=100.0)
        i1 = I2 / 1.22
        assert shifted.sm0 == pytest.approx(base.sm0 - i1 * 100.0)
        assert shifted.sm1 == pytest.approx(base.sm1 + i1 * 100.0)

    def test_rejects_bad_currents(self, cell):
        with pytest.raises(ConfigurationError):
            destructive_margins(cell, -1e-6, 1.2)
        with pytest.raises(ConfigurationError):
            destructive_margins(cell, I2, 0.0)


class TestNondestructive:
    def test_margins_positive_at_paper_point(self, cell):
        margins = nondestructive_margins(cell, I2, 2.13, alpha=0.5)
        assert margins.sm0 > 0
        assert margins.sm1 > 0

    def test_explicit_equation(self, cell):
        # Paper Eqs. 8–9 with α I_R2 scaling.
        beta, alpha = 2.13, 0.5
        i1 = I2 / beta
        r_h1 = cell.mtj.resistance(i1, MTJState.ANTIPARALLEL)
        r_h2 = cell.mtj.resistance(I2, MTJState.ANTIPARALLEL)
        expected_sm1 = i1 * (r_h1 + 917.0) - alpha * I2 * (r_h2 + 917.0)
        assert nondestructive_margins(cell, I2, beta, alpha).sm1 == pytest.approx(
            expected_sm1
        )

    def test_alpha_deviation_linear(self, cell):
        beta, alpha = 2.13, 0.5
        base = nondestructive_margins(cell, I2, beta, alpha)
        dev = nondestructive_margins(cell, I2, beta, alpha, alpha_deviation=0.02)
        r_h2 = cell.mtj.resistance(I2, MTJState.ANTIPARALLEL)
        delta_sm1 = -0.02 * alpha * I2 * (r_h2 + 917.0)
        assert dev.sm1 - base.sm1 == pytest.approx(delta_sm1)

    def test_alpha_beta_product_one_gives_pure_rolloff_margin(self, cell):
        # Paper Eq. 8: with α = 1/β and equal transistor resistances, the
        # "1" margin is exactly I_R1 (R_H1 - R_H2).
        beta = 2.0
        alpha = 1.0 / beta
        i1 = I2 / beta
        r_h1 = cell.mtj.resistance(i1, MTJState.ANTIPARALLEL)
        r_h2 = cell.mtj.resistance(I2, MTJState.ANTIPARALLEL)
        margins = nondestructive_margins(cell, I2, beta, alpha=alpha)
        assert margins.sm1 == pytest.approx(i1 * (r_h1 - r_h2))

    def test_rejects_bad_alpha(self, cell):
        with pytest.raises(ConfigurationError):
            nondestructive_margins(cell, I2, 2.13, alpha=0.0)
        with pytest.raises(ConfigurationError):
            nondestructive_margins(cell, I2, 2.13, alpha=1.0)

    @given(st.floats(-200.0, 200.0))
    @settings(max_examples=30)
    def test_rtr_shift_slope_is_i_read1(self, shift):
        cell = Cell1T1J(MTJDevice(), FixedResistanceTransistor(917.0))
        beta = 2.13
        base = nondestructive_margins(cell, I2, beta)
        shifted = nondestructive_margins(cell, I2, beta, rtr_shift=shift)
        i1 = I2 / beta
        assert shifted.sm1 - base.sm1 == pytest.approx(i1 * shift, abs=1e-12)
        assert shifted.sm0 - base.sm0 == pytest.approx(-i1 * shift, abs=1e-12)


class TestScalarVectorConsistency:
    """The vectorized population margins must reduce to the scalar ones for
    a variation-free population."""

    def test_destructive(self, nominal_population):
        cell = Cell1T1J(MTJDevice(), FixedResistanceTransistor(917.0))
        scalar = destructive_margins(cell, I2, 1.22)
        sm0, sm1 = population_destructive_margins(nominal_population, I2, 1.22)
        assert np.allclose(sm0, scalar.sm0)
        assert np.allclose(sm1, scalar.sm1)

    def test_nondestructive(self, nominal_population):
        cell = Cell1T1J(MTJDevice(), FixedResistanceTransistor(917.0))
        scalar = nondestructive_margins(cell, I2, 2.13, alpha=0.5)
        sm0, sm1 = population_nondestructive_margins(
            nominal_population, I2, 2.13, alpha=0.5
        )
        assert np.allclose(sm0, scalar.sm0)
        assert np.allclose(sm1, scalar.sm1)

    def test_conventional(self, nominal_population):
        cell = Cell1T1J(MTJDevice(), FixedResistanceTransistor(917.0))
        v_ref = 0.45
        scalar = conventional_margins(cell, I2, v_ref)
        sm0, sm1 = population_conventional_margins(nominal_population, I2, v_ref)
        assert np.allclose(sm0, scalar.sm0)
        assert np.allclose(sm1, scalar.sm1)

    def test_population_beta_variation_disabled(self, small_population):
        a = population_destructive_margins(
            small_population, I2, 1.22, with_beta_variation=False
        )
        b = population_destructive_margins(
            small_population, I2, 1.22, with_beta_variation=True
        )
        assert not np.allclose(a[0], b[0])

    def test_population_vref_error_applies(self, small_population):
        sm0, sm1 = population_conventional_margins(small_population, I2, 0.45)
        # Re-compute without vref error: margins differ by exactly it.
        clean = small_population.subset(np.arange(small_population.size))
        clean.vref_error = np.zeros(small_population.size)
        sm0_clean, _ = population_conventional_margins(clean, I2, 0.45)
        assert np.allclose(sm0 - sm0_clean, small_population.vref_error)

    def test_rejects_bad_inputs(self, small_population):
        with pytest.raises(ConfigurationError):
            population_conventional_margins(small_population, 0.0, 0.4)
        with pytest.raises(ConfigurationError):
            population_nondestructive_margins(small_population, I2, 2.13, alpha=1.5)


def assert_same_bits(got, want):
    """Equal shape, dtype and IEEE bit pattern (signed zeros and NaNs too)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


ROLLOFFS = {
    "power-law": (PowerLawRollOff(1.7), PowerLawRollOff(0.6)),
    "rational": (RationalRollOff(2.3, 0.4), RationalRollOff(1.2, 3.0)),
    "tabulated": (
        TabulatedRollOff([0.0, 0.4, 1.0, 1.5], [0.0, 0.3, 1.0, 1.2]),
        TabulatedRollOff([0.0, 0.5, 1.0], [0.0, 0.2, 1.0]),
    ),
}


class TestExpressionForm:
    """The in-place margin kernels reproduce the plain expression form of
    each equation (:mod:`tests.oracles`) bit for bit: every scheme, with
    and without α/β mismatch, on flat and per-die ``(dies, cells)``
    populations with scalar, per-die and per-bit currents and knobs."""

    @pytest.fixture(params=sorted(ROLLOFFS))
    def population(self, request):
        high, low = ROLLOFFS[request.param]
        return CellPopulation.sample(
            size=6 * 40,
            variation=VariationModel(sigma_alpha_frac=0.05, sigma_beta_frac=0.05),
            rolloff_high=high,
            rolloff_low=low,
            rng=np.random.default_rng(11),
        )

    @staticmethod
    def shapes(population):
        """The flat population with a scalar knob, and its per-die grid
        with per-die knobs (the trim search's broadcast)."""
        grid = dataclasses.replace(population, **{
            name: getattr(population, name).reshape(6, -1)
            for name in _PER_BIT_FIELDS
        })
        per_die = np.linspace(0.8, 1.2, 6)[:, None]
        return [(population, 1.0), (grid, per_die)]

    @pytest.mark.parametrize("model", [
        PowerLawRollOff(1.0), PowerLawRollOff(2.0), PowerLawRollOff(0.37),
        RationalRollOff(2.0, 1.0), RationalRollOff(1.3, 0.05),
    ])
    def test_fraction(self, model):
        ratios = np.array([[-1.4, -0.3, 0.0, 1e-9], [0.25, 0.5, 1.0, 2.5]])
        before = ratios.copy()
        assert_same_bits(model.fraction(ratios), expression_fraction(model, ratios))
        assert_same_bits(ratios, before)          # the input is not touched
        for ratio in (0.0, 0.7, -0.7, 1.3):
            value = model.fraction(ratio)
            assert isinstance(value, float)
            assert value == float(expression_fraction(model, ratio))

    @pytest.mark.parametrize("with_beta_variation", [True, False])
    def test_destructive(self, population, with_beta_variation):
        for target, scale in self.shapes(population):
            for i_read2 in (I2 * scale, np.full(target.r_tr.shape, I2) * scale):
                beta = 1.3 * scale
                args = (target, i_read2, beta, 35.0, with_beta_variation)
                for got, want in zip(
                    population_destructive_margins(*args),
                    expression_destructive_margins(*args),
                ):
                    assert_same_bits(got, want)

    @pytest.mark.parametrize("with_alpha_variation", [True, False])
    @pytest.mark.parametrize("with_beta_variation", [True, False])
    def test_nondestructive(self, population, with_beta_variation,
                            with_alpha_variation):
        for target, scale in self.shapes(population):
            for i_read2 in (I2 * scale, np.full(target.r_tr.shape, I2) * scale):
                args = (target, i_read2, 2.1 * scale, 0.47, -20.0,
                        with_beta_variation, with_alpha_variation)
                for got, want in zip(
                    population_nondestructive_margins(*args),
                    expression_nondestructive_margins(*args),
                ):
                    assert_same_bits(got, want)

    def test_conventional(self, population):
        for target, scale in self.shapes(population):
            args = (target, I2 * scale, 0.45 * scale)
            for got, want in zip(
                population_conventional_margins(*args),
                expression_conventional_margins(*args),
            ):
                assert_same_bits(got, want)

    def test_population_arrays_untouched(self, population):
        before = {name: getattr(population, name).copy() for name in _PER_BIT_FIELDS}
        population_nondestructive_margins(population, I2, 2.1)
        population_destructive_margins(population, I2, 1.3)
        population_conventional_margins(population, I2, 0.45)
        for name, array in before.items():
            assert_same_bits(getattr(population, name), array)
