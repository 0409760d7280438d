"""Process-variation model and population-sampling tests."""

import math

import numpy as np
import pytest

from repro.device.mtj import MTJParams, MTJState
from repro.device.variation import (
    OXIDE_SENSITIVITY_PER_ANGSTROM,
    CellPopulation,
    VariationModel,
)
from repro.errors import ConfigurationError


class TestVariationModel:
    def test_oxide_sensitivity_matches_paper(self):
        # 8% resistance change per 0.1 Å (paper §I).
        assert math.exp(OXIDE_SENSITIVITY_PER_ANGSTROM * 0.1) == pytest.approx(1.08)

    def test_resistance_sigma_combines_sources(self):
        v = VariationModel(sigma_tox_angstrom=0.1, sigma_area_frac=0.0)
        assert v.resistance_sigma_frac() == pytest.approx(math.log(1.08), rel=1e-6)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigurationError):
            VariationModel(sigma_tox_angstrom=-0.1)

    def test_scaled(self):
        v = VariationModel().scaled(2.0)
        assert v.sigma_tox_angstrom == pytest.approx(2 * VariationModel().sigma_tox_angstrom)
        assert v.sigma_vref == pytest.approx(2 * VariationModel().sigma_vref)

    def test_scaled_zero_removes_all_variation(self, rng):
        pop = CellPopulation.sample(64, VariationModel().scaled(0.0), rng=rng)
        assert np.allclose(pop.r_low0, pop.nominal.r_low)
        assert np.allclose(pop.r_high0, pop.nominal.r_high)

    def test_scaled_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            VariationModel().scaled(-1.0)


class TestSampling:
    def test_size(self, rng):
        pop = CellPopulation.sample(100, VariationModel(), rng=rng)
        assert pop.size == 100
        assert pop.r_low0.shape == (100,)

    def test_rejects_empty(self, rng):
        with pytest.raises(ConfigurationError):
            CellPopulation.sample(0, VariationModel(), rng=rng)

    def test_mean_near_nominal(self, rng):
        pop = CellPopulation.sample(20000, VariationModel(), rng=rng)
        assert np.mean(pop.r_low0) == pytest.approx(1220.0, rel=0.01)
        assert np.mean(pop.r_high0) == pytest.approx(2500.0, rel=0.01)

    def test_resistance_spread_matches_model(self, rng):
        variation = VariationModel(
            sigma_tox_angstrom=0.10,
            sigma_area_frac=0.0,
            sigma_tmr_frac=0.0,
        )
        pop = CellPopulation.sample(20000, variation, rng=rng)
        # log-normal: std of log should be ln(1.08).
        assert np.std(np.log(pop.r_low0)) == pytest.approx(math.log(1.08), rel=0.05)

    def test_high_low_correlated(self, rng):
        pop = CellPopulation.sample(5000, VariationModel(sigma_tmr_frac=0.0), rng=rng)
        corr = np.corrcoef(pop.r_low0, pop.r_high0)[0, 1]
        assert corr > 0.99  # same RA/A factor moves both

    def test_tmr_variation_decorrelates(self, rng):
        pop = CellPopulation.sample(
            5000, VariationModel(sigma_tmr_frac=0.10), rng=rng
        )
        corr = np.corrcoef(pop.r_low0, pop.r_high0)[0, 1]
        assert corr < 0.99

    def test_rolloff_scales_with_split(self, rng):
        pop = CellPopulation.sample(1000, VariationModel(), rng=rng)
        split = pop.r_high0 - pop.r_low0
        nominal = pop.nominal
        expected = nominal.dr_high_max * split / (nominal.r_high - nominal.r_low)
        assert np.allclose(pop.dr_high_max, expected)

    def test_reproducible_with_seed(self):
        a = CellPopulation.sample(32, VariationModel(), rng=np.random.default_rng(7))
        b = CellPopulation.sample(32, VariationModel(), rng=np.random.default_rng(7))
        assert np.array_equal(a.r_high0, b.r_high0)


class TestPopulation:
    def test_resistance_low_vectorized(self, small_population):
        values = small_population.resistance_low(100e-6)
        assert values.shape == (small_population.size,)
        assert np.all(values > 0)

    def test_resistance_dispatch_by_state(self, small_population):
        high = small_population.resistance(0.0, MTJState.ANTIPARALLEL)
        low = small_population.resistance(0.0, MTJState.PARALLEL)
        assert np.all(high > low)

    def test_tmr_positive(self, small_population):
        assert np.all(small_population.tmr() > 0)

    def test_device_materialization(self, small_population):
        device = small_population.device(3)
        assert device.params.r_low == pytest.approx(small_population.r_low0[3])
        assert device.resistance(0.0, MTJState.ANTIPARALLEL) == pytest.approx(
            small_population.r_high0[3]
        )

    def test_device_index_out_of_range(self, small_population):
        with pytest.raises(IndexError):
            small_population.device(small_population.size)

    def test_subset(self, small_population):
        sub = small_population.subset([0, 5, 9])
        assert sub.size == 3
        assert sub.r_high0[1] == small_population.r_high0[5]
        assert not np.shares_memory(sub.r_high0, small_population.r_high0)

    def test_slice_subset_views_the_parent(self, small_population):
        sub = small_population.subset(slice(4, 10))
        assert sub.size == 6
        for name in ("r_low0", "r_tr", "alpha_deviation", "vref_error"):
            assert np.shares_memory(getattr(sub, name), getattr(small_population, name))
        np.testing.assert_array_equal(
            sub.resistance_high(150e-6), small_population.resistance_high(150e-6)[4:10]
        )

    def test_view_reads_like_a_subset_without_copying(self, small_population):
        view = small_population.view([0, 5, 9])
        sub = small_population.subset([0, 5, 9])
        assert view.size == 3 and view.parent is small_population
        states = np.array([1, 0, 1], dtype=np.uint8)
        for current in (50e-6, 200e-6):
            np.testing.assert_array_equal(
                view.series_resistance(current, states),
                sub.series_resistance(current, states),
            )
            np.testing.assert_array_equal(
                view.bitline_voltage(current, states),
                sub.bitline_voltage(current, states),
            )
        np.testing.assert_array_equal(view.r_high0, sub.r_high0)
        np.testing.assert_array_equal(view.tmr(), sub.tmr())
        assert view.device(1).params == small_population.device(5).params
        np.testing.assert_array_equal(view.view([2, 0]).idx, [9, 0])
        with pytest.raises(AttributeError):
            view.assign(np.array([0]), r_tr=1.0)  # would write a throwaway copy

    def test_cached_tables_guard_their_source_arrays(self):
        population = CellPopulation.nominal_population(8)
        view = population.view([1, 2])
        states = np.array([0, 1], dtype=np.uint8)
        before = view.bitline_voltage(100e-6, states)
        # A table exists: a stray in-place write raises instead of going
        # unseen by the next read.
        with pytest.raises(ValueError):
            population.r_low0[1] = 1.0
        population.alpha_deviation[1] = 0.5  # not a table input
        # Rebinding an input drops the tables (and unlocks the arrays).
        population.r_tr = population.r_tr * 2.0
        doubled = view.bitline_voltage(100e-6, states)
        np.testing.assert_array_equal(
            doubled, population.subset([1, 2]).bitline_voltage(100e-6, states)
        )
        assert np.all(doubled > before)
        # ``assign`` is the in-place writer: it drops the tables first.
        population.assign(np.array([1]), r_low0=1.0e3, dr_low_max=0.0)
        assert view.bitline_voltage(100e-6, states)[0] == 100e-6 * (
            1.0e3 + population.r_tr[1]
        )
        with pytest.raises(ConfigurationError):
            population.assign(np.array([1]), nominal=None)

    def test_nominal_population_is_uniform(self, nominal_population):
        assert np.all(nominal_population.r_low0 == nominal_population.r_low0[0])
        assert np.all(nominal_population.vref_error == 0.0)

    def test_nominal_population_matches_params(self):
        params = MTJParams(r_high=2600.0)
        pop = CellPopulation.nominal_population(4, params=params)
        assert np.all(pop.r_high0 == 2600.0)
