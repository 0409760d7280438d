"""Final coverage batch: remaining behavioural corners across layers."""

import numpy as np
import pytest

from repro.array.array import STTRAMArray
from repro.circuit.nonlinear import NonlinearCircuit, mtj_branch_current
from repro.circuit.sense_amp import SenseAmplifier
from repro.core.nondestructive import NondestructiveSelfReference
from repro.device.variation import CellPopulation, VariationModel
from repro.errors import ConfigurationError


class TestArrayMetastableReads:
    def test_metastable_bits_resolve_to_zero_in_words(self, rng, calibration):
        # A dead sense amp makes every comparison metastable with rng=None;
        # read_word must still return (all-zero) instead of crashing.
        population = CellPopulation.sample(
            16,
            VariationModel(sigma_alpha_frac=0.0, sigma_beta_frac=0.0),
            params=calibration.params,
            rolloff_high=calibration.rolloff_high(),
            rolloff_low=calibration.rolloff_low(),
            rng=rng,
        )
        array = STTRAMArray(population, word_width=8)
        array.write_word(0, 0xFF)
        dead = NondestructiveSelfReference(
            beta=calibration.beta_nondestructive,
            sense_amp=SenseAmplifier(resolution=10.0),
        )
        assert array.read_word(0, dead, rng=None) == 0
        # The stored data is untouched despite the broken read.
        assert array.stored_bits()[:8].sum() == 8


class TestNonlinearSolverOptions:
    def test_damped_newton_converges_on_stiff_law(self):
        # Full-step Newton overshoots on a steep law from a bad seed; a
        # damped iteration still lands on the junction solution.
        circuit = NonlinearCircuit(damping=0.5, max_iterations=200)
        circuit.add_current_source("gnd", "n", 300e-6)
        circuit.add_nonlinear_resistor("n", "gnd", mtj_branch_current(2500.0, 0.2))
        result = circuit.solve_dc()
        law = mtj_branch_current(2500.0, 0.2)
        assert law(result["n"]) == pytest.approx(300e-6, rel=1e-6)

    def test_tolerance_parameter_respected(self):
        coarse = NonlinearCircuit(tolerance=1e-3)
        coarse.add_current_source("gnd", "n", 200e-6)
        coarse.add_nonlinear_resistor("n", "gnd", mtj_branch_current(2500.0, 0.7))
        fine = NonlinearCircuit(tolerance=1e-12)
        fine.add_current_source("gnd", "n", 200e-6)
        fine.add_nonlinear_resistor("n", "gnd", mtj_branch_current(2500.0, 0.7))
        # Both converge; the fine solve is at least as accurate.
        law = mtj_branch_current(2500.0, 0.7)
        coarse_err = abs(law(coarse.solve_dc()["n"]) - 200e-6)
        fine_err = abs(law(fine.solve_dc()["n"]) - 200e-6)
        assert fine_err <= coarse_err + 1e-18


class TestSchedulerDeterminism:
    def test_same_seed_same_result(self):
        from repro.service import (
            ControllerConfig, ServeSpec, build_workload, serve,
        )

        def run():
            stream = build_workload(rate=1e8, addresses=4).generate(
                4096, np.random.default_rng(11)
            )
            config = ControllerConfig(15e-9, 15e-9, banks=4)
            return serve(stream, ServeSpec(config=config)).merged

        assert run() == run()


class TestOptimizerEdges:
    def test_tight_bracket_around_optimum_converges(self, linear_cell):
        from repro.core.optimize import optimize_beta_destructive

        # A bracket barely straddling the optimum still converges to it.
        optimum = optimize_beta_destructive(linear_cell)
        again = optimize_beta_destructive(
            linear_cell,
            beta_bounds=(optimum.beta - 1e-3, optimum.beta + 1e-3),
        )
        assert again.beta == pytest.approx(optimum.beta, abs=1e-6)

    def test_bracket_missing_optimum_raises(self, linear_cell):
        from repro.core.optimize import optimize_beta_destructive
        from repro.errors import ConvergenceError

        optimum = optimize_beta_destructive(linear_cell)
        with pytest.raises(ConvergenceError):
            optimize_beta_destructive(
                linear_cell,
                beta_bounds=(optimum.beta + 0.1, optimum.beta + 0.6),
            )


class TestLatencyOverdriveIndependence:
    def test_write_overdrive_changes_energy_not_latency(self, paper_cell):
        # The write pulse width is fixed by the device; a hotter driver
        # changes the energy, not the schedule.
        from repro.timing.energy import scheme_read_energy
        from repro.timing.latency import destructive_read_latency

        mild = destructive_read_latency(paper_cell, write_overdrive=1.2)
        hot = destructive_read_latency(paper_cell, write_overdrive=2.0)
        assert mild.total == pytest.approx(hot.total)
        e_mild = scheme_read_energy(paper_cell, mild)
        e_hot = scheme_read_energy(paper_cell, hot)
        assert e_hot.write_energy > e_mild.write_energy


class TestPopulationSubsetConsistency:
    def test_subset_margins_match_full(self, small_population):
        from repro.core.margins import population_nondestructive_margins

        indices = np.array([3, 17, 42])
        sub = small_population.subset(indices)
        full_sm0, full_sm1 = population_nondestructive_margins(
            small_population, 200e-6, 2.13
        )
        sub_sm0, sub_sm1 = population_nondestructive_margins(sub, 200e-6, 2.13)
        assert np.allclose(sub_sm0, full_sm0[indices])
        assert np.allclose(sub_sm1, full_sm1[indices])
