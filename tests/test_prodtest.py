"""The wafer-scale production test & trim subsystem (``repro.prodtest``).

Four layers under test, bottom up: the march-test engine (element
algebra, fault detection/classification per the survey taxonomy), the
per-die binary-search characterizer (trim codes, sense-current trim,
retry budgets), the wafer Monte-Carlo driver (every chunking ≡ the
per-die ``chunk_dies=1`` oracle, deterministic on the reserved
``(seed, 8)`` stream), and the
economics report (ECC provisioning, yield/cost summaries, metrics).
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.array.testchip import TESTCHIP_VARIATION
from repro.device.variation import CellPopulation
from repro.ecc import provision_ecc
from repro.errors import ConfigurationError
from repro.faults import FaultKind, StuckOpenFault, StuckShortFault
from repro.faults.campaign import build_scheme
from repro.faults.injector import FaultMap
from repro.prodtest import (
    DISTURB_THRESHOLD,
    MARCH_C_MINUS,
    MARCH_STTRAM,
    MARCH_TESTS,
    MATS_PLUS,
    CharacterizeConfig,
    CostModel,
    WaferConfig,
    build_wafer,
    characterize_dies,
    compare_schemes,
    knob_bounds,
    march_seconds,
    publish_wafer_report,
    run_march_test,
    run_wafer,
    summarize,
    trim_skew_experiment,
)
from tests.oracles import rechunked


@pytest.fixture(scope="module")
def schemes(calibration):
    """The three calibrated paper schemes at the 917 Ω transistor corner."""
    return {
        name: build_scheme(name, calibration, 917.0)
        for name in ("conventional", "destructive", "nondestructive")
    }


def sample_population(calibration, size, seed=4):
    """A test-chip-variation population (all cells inside the margin
    window, so a clean march detects nothing)."""
    return CellPopulation.sample(
        size=size,
        variation=TESTCHIP_VARIATION,
        params=calibration.params,
        rolloff_high=calibration.rolloff_high(),
        rolloff_low=calibration.rolloff_low(),
        rng=np.random.default_rng(seed),
    )


def fault_map_of(size, **kinds):
    """A hand-built ground-truth map: ``transition_up=[3, 7]`` style."""
    indices = {
        FaultKind(kind.replace("_", "-")): np.asarray(sorted(cells), dtype=np.intp)
        for kind, cells in kinds.items()
    }
    return FaultMap(size=size, indices=indices)


# ---------------------------------------------------------------------------
# March algebra
# ---------------------------------------------------------------------------
class TestMarchAlgebra:
    def test_catalog_names(self):
        assert set(MARCH_TESTS) == {"mats+", "march-c-", "march-1t1j"}
        assert MARCH_TESTS["mats+"] is MATS_PLUS
        assert MARCH_TESTS["march-1t1j"] is MARCH_STTRAM

    def test_mats_plus_structure(self):
        # ⇕(w0); ⇑(r0,w1); ⇓(r1,w0) — 5 ops, 2 reads, 3 writes per cell.
        assert MATS_PLUS.ops_per_cell == 5
        assert MATS_PLUS.reads_per_cell == 2
        assert MATS_PLUS.writes_per_cell == 3
        assert "⇑(r0,w1)" in MATS_PLUS.describe()

    def test_march_c_minus_structure(self):
        assert MARCH_C_MINUS.ops_per_cell == 10
        assert MARCH_C_MINUS.reads_per_cell == 5

    def test_sttram_march_hammers_the_one_state(self):
        # The disturb-aware variant re-reads every r1; it is strictly
        # longer than the March C- it extends.
        assert MARCH_STTRAM.ops_per_cell > MARCH_C_MINUS.ops_per_cell
        assert MARCH_STTRAM.reads_per_cell - MARCH_C_MINUS.reads_per_cell >= (
            DISTURB_THRESHOLD
        )

    def test_compile_emits_operation_count_in_address_order(self):
        ops = list(MATS_PLUS.compile(4))
        assert len(ops) == MATS_PLUS.operation_count(4) == 20
        # First element ascends, last element descends to address 0.
        assert [address for _, address in ops[:4]] == [0, 1, 2, 3]
        assert ops[-2:] == [("r1", 0), ("w0", 0)]

    def test_march_seconds_orders_the_schemes(self):
        times = {
            scheme: march_seconds(MARCH_STTRAM, 4096, scheme)
            for scheme in ("conventional", "destructive", "nondestructive")
        }
        assert times["destructive"] > times["nondestructive"] > times["conventional"]

    def test_march_seconds_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            march_seconds(MATS_PLUS, 64, "heroic")


# ---------------------------------------------------------------------------
# March detection & classification
# ---------------------------------------------------------------------------
class TestMarchDetection:
    SIZE = 256

    def test_clean_population_detects_nothing(self, calibration, schemes):
        # The self-referenced schemes sense every test-chip cell outside
        # the metastable window; conventional sensing's narrower window
        # may flag a few cells, but only ever as sense-margin marginals.
        population = sample_population(calibration, self.SIZE)
        for name in ("destructive", "nondestructive"):
            result = run_march_test(population, MARCH_STTRAM, schemes[name])
            assert result.detected_count == 0, name
        conventional = run_march_test(
            population, MARCH_STTRAM, schemes["conventional"]
        )
        assert set(conventional.classified) <= {FaultKind.SENSE_MARGIN}

    def test_stuck_faults_detected_and_classified(self, calibration, schemes):
        population = sample_population(calibration, self.SIZE)
        short_at, open_at = [3, 100], [7, 200]
        StuckShortFault(rate=1.0).apply_population(
            population, np.isin(np.arange(self.SIZE), short_at)
        )
        StuckOpenFault(rate=1.0).apply_population(
            population, np.isin(np.arange(self.SIZE), open_at)
        )
        fault_map = fault_map_of(
            self.SIZE, stuck_short=short_at, stuck_open=open_at
        )
        result = run_march_test(
            population, MARCH_C_MINUS, schemes["nondestructive"], fault_map
        )
        assert result.detected[short_at].all() and result.detected[open_at].all()
        np.testing.assert_array_equal(
            result.classified_of(FaultKind.STUCK_SHORT), short_at
        )
        np.testing.assert_array_equal(
            result.classified_of(FaultKind.STUCK_OPEN), open_at
        )
        assert result.coverage(fault_map)["overall"] == 1.0

    def test_transition_coverage_separates_the_marches(self, calibration, schemes):
        # The classic differentiation: MATS+ never reads after its final
        # w0, so an up-transition fault is caught but a down-transition
        # fault escapes; March C- reads both polarities in both orders.
        population = sample_population(calibration, self.SIZE)
        fault_map = fault_map_of(
            self.SIZE, transition_up=[11], transition_down=[22]
        )
        scheme = schemes["nondestructive"]

        mats = run_march_test(population, MATS_PLUS, scheme, fault_map)
        assert mats.coverage(fault_map)[FaultKind.TRANSITION_UP.value] == 1.0
        assert mats.coverage(fault_map)[FaultKind.TRANSITION_DOWN.value] == 0.0

        c_minus = run_march_test(population, MARCH_C_MINUS, scheme, fault_map)
        assert c_minus.coverage(fault_map)["overall"] == 1.0
        np.testing.assert_array_equal(
            c_minus.classified_of(FaultKind.TRANSITION_UP), [11]
        )
        np.testing.assert_array_equal(
            c_minus.classified_of(FaultKind.TRANSITION_DOWN), [22]
        )

    def test_only_the_hammer_march_trips_read_disturb(self, calibration, schemes):
        population = sample_population(calibration, self.SIZE)
        fault_map = fault_map_of(self.SIZE, read_disturb=[5, 77])
        scheme = schemes["nondestructive"]
        for test in (MATS_PLUS, MARCH_C_MINUS):
            result = run_march_test(population, test, scheme, fault_map)
            assert result.coverage(fault_map)[FaultKind.READ_DISTURB.value] == 0.0
        hammer = run_march_test(population, MARCH_STTRAM, scheme, fault_map)
        assert hammer.coverage(fault_map)[FaultKind.READ_DISTURB.value] == 1.0
        # ...and the repeated-read signature keeps it from being
        # misclassified as a transition fault.
        np.testing.assert_array_equal(
            hammer.classified_of(FaultKind.READ_DISTURB), [5, 77]
        )

    def test_coverage_scores_absent_kind_as_covered(self, calibration, schemes):
        population = sample_population(calibration, self.SIZE)
        result = run_march_test(
            population, MARCH_STTRAM, schemes["nondestructive"],
            fault_map_of(self.SIZE),
        )
        assert result.coverage(fault_map_of(self.SIZE))["overall"] == 1.0

    def test_rejects_non_population_target(self, schemes):
        with pytest.raises(ConfigurationError):
            run_march_test(object(), MATS_PLUS, schemes["nondestructive"])


# ---------------------------------------------------------------------------
# Per-die characterization
# ---------------------------------------------------------------------------
class TestCharacterize:
    DIES, CELLS = 6, 64

    def stacked_population(self, calibration, skews):
        population = sample_population(
            calibration, len(skews) * self.CELLS, seed=12
        )
        population.alpha_deviation = population.alpha_deviation + np.repeat(
            np.asarray(skews), self.CELLS
        )
        return population

    def test_knob_bounds_per_scheme(self, schemes):
        assert knob_bounds(schemes["nondestructive"])[0] == "beta"
        assert knob_bounds(schemes["destructive"])[0] == "beta"
        knob, low, high = knob_bounds(schemes["conventional"])
        assert knob == "v_ref" and low < schemes["conventional"].v_ref < high

    def test_nominal_dies_pass_with_margin(self, calibration, schemes):
        population = self.stacked_population(calibration, [0.0] * self.DIES)
        result = characterize_dies(
            population, self.CELLS, schemes["nondestructive"]
        )
        config = CharacterizeConfig()
        assert result.dies == self.DIES
        assert result.passes.all()
        assert (result.binding_margins > config.required_margin).all()
        assert (result.retry_budgets <= config.max_retry_budget).all()

    def test_trim_recovers_systematically_skewed_dies(self, calibration, schemes):
        # ±4% divider skew kills the untrimmed margin; the per-die trim
        # must recover every die above the shipping window.
        from repro.core.margins import population_nondestructive_margins

        skews = [-0.04, -0.02, 0.0, +0.02, +0.04, +0.04]
        population = self.stacked_population(calibration, skews)
        sm0, sm1 = population_nondestructive_margins(
            population, 200e-6, calibration.beta_nondestructive
        )
        untrimmed = np.minimum(sm0, sm1).reshape(self.DIES, self.CELLS)
        result = characterize_dies(
            population, self.CELLS, schemes["nondestructive"]
        )
        assert untrimmed.min(axis=1).min() < 0.0
        assert result.passes.all()
        assert (result.binding_margins >= untrimmed.min(axis=1) - 1e-12).all()
        # Skewed dies land on different trim codes than nominal ones.
        assert result.codes[0] != result.codes[4]

    def test_batch_invariance(self, calibration, schemes):
        # Characterizing the stack matches characterizing each die alone.
        skews = [-0.03, 0.0, +0.03]
        population = self.stacked_population(calibration, skews)
        scheme = schemes["destructive"]
        stacked = characterize_dies(population, self.CELLS, scheme)
        for die in range(len(skews)):
            alone = characterize_dies(
                population.subset(
                    np.arange(die * self.CELLS, (die + 1) * self.CELLS)
                ),
                self.CELLS,
                scheme,
            )
            record = stacked.record(die)
            assert record.code == alone.record(0).code
            assert record.value == alone.record(0).value
            assert record.binding_margin == alone.record(0).binding_margin
            assert record.sense_factor == alone.record(0).sense_factor

    def test_records_round_trip(self, calibration, schemes):
        population = self.stacked_population(calibration, [0.0, 0.02])
        result = characterize_dies(
            population, self.CELLS, schemes["conventional"]
        )
        records = list(result.records())
        assert len(records) == 2
        assert records[1].die == 1
        assert records[1].knob == "v_ref"
        assert records[1].code == int(result.codes[1])
        assert records[1].passes == bool(result.passes[1])

    def test_divisibility_validated(self, calibration, schemes):
        population = sample_population(calibration, 100)
        with pytest.raises(ConfigurationError):
            characterize_dies(population, 64, schemes["nondestructive"])
        with pytest.raises(ConfigurationError):
            characterize_dies(population, 0, schemes["nondestructive"])

    def test_config_validated(self):
        with pytest.raises(ConfigurationError):
            CharacterizeConfig(code_bits=0)
        with pytest.raises(ConfigurationError):
            CharacterizeConfig(required_margin=-1.0)
        with pytest.raises(ConfigurationError):
            CharacterizeConfig(sense_factors=())


# ---------------------------------------------------------------------------
# Wafer driver
# ---------------------------------------------------------------------------
class TestWafer:
    def test_config_geometry(self):
        config = WaferConfig(dies=10, die_rows=8, die_columns=8, word_cells=16)
        assert config.cells == 64 and config.words == 4
        assert config.wafer_cells == 640
        assert config.characterize_config().fail_budget == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dies": 0},
            {"word_cells": 7},          # 64 cells not divisible
            {"spare_words": 4},         # no data words left
            {"scheme": "psychic"},
            {"march": "march-b"},
            {"chunk_dies": 0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            WaferConfig(**kwargs)

    @pytest.fixture(scope="class")
    def per_die_wafer(self):
        """A 48-die wafer and its ``chunk_dies=1`` (per-die oracle) run."""
        wafer = build_wafer(WaferConfig(dies=48, seed=2010))
        return wafer, run_wafer(rechunked(wafer, 1))

    # 7 leaves a ragged last chunk (48 = 6 * 7 + 6); 48 is one chunk.
    @pytest.mark.parametrize("chunk_dies", [1, 7, 16, 48])
    def test_chunked_equals_per_die(self, per_die_wafer, chunk_dies):
        wafer, per_die = per_die_wafer
        assert run_wafer(rechunked(wafer, chunk_dies)).equals(per_die)

    def test_same_seed_is_bit_identical(self):
        config = WaferConfig(dies=24, seed=7)
        one = run_wafer(build_wafer(config))
        two = run_wafer(build_wafer(config))
        assert one.equals(two)
        assert not one.equals(
            run_wafer(build_wafer(dataclasses.replace(config, seed=8)))
        )

    def test_nominal_wafer_ships_with_coverage(self):
        result = run_wafer(build_wafer(WaferConfig(dies=64, seed=2010)))
        assert result.dies == 64
        assert result.ship_rate >= 0.95
        assert result.coverage["overall"] >= 0.99
        assert set(result.classified_counts()) <= {
            kind.value for kind in FaultKind
        }
        # Every shipped die passed characterization and ECC provisioning.
        assert not (result.ships & ~result.char_passes).any()
        assert not (result.ships & ~result.ecc_covered).any()

    def test_gross_fails_skip_characterization_time(self):
        # Crank the defect rate until dies gross-fail: they are scrapped
        # after the incoming march alone, so their tester time is the
        # march, not the shmoo.
        config = WaferConfig(dies=32, seed=3, fault_rate=0.25)
        result = run_wafer(build_wafer(config))
        assert result.gross_fail.any()
        march_only = march_seconds(
            MARCH_TESTS[config.march], config.cells, config.scheme
        )
        gross_times = result.test_seconds[result.gross_fail]
        np.testing.assert_allclose(gross_times, march_only)
        assert not result.ships[result.gross_fail].any()
        full_times = result.test_seconds[~result.gross_fail]
        assert (full_times > march_only).all()



# ---------------------------------------------------------------------------
# ECC provisioning
# ---------------------------------------------------------------------------
class TestEccProvisioning:
    def test_clean_dies_carry_no_parity(self):
        provision = provision_ecc(np.zeros((3, 4), dtype=np.int64), 16)
        assert provision.dies == 3
        assert (provision.levels == 0).all()
        assert (provision.parity_bits == 0).all()
        assert provision.covered.all()

    def test_parity_ladder_secded_dected(self):
        residual = np.array([[0, 0], [1, 0], [2, 1], [3, 0]])
        provision = provision_ecc(residual, 16, max_correctable=2)
        np.testing.assert_array_equal(provision.levels, [0, 1, 2, 3])
        # 16-cell words: SECDED needs 6 parity bits, DECTED 11.
        np.testing.assert_array_equal(provision.parity_bits, [0, 6, 11, 11])
        np.testing.assert_array_equal(provision.covered, [True, True, True, False])
        np.testing.assert_allclose(
            provision.overhead, np.array([0, 6, 11, 11]) / 16.0
        )

    def test_validation_and_single_die_promotion(self):
        with pytest.raises(ConfigurationError):
            provision_ecc(np.zeros((2, 2), dtype=np.int64), 0)
        with pytest.raises(ConfigurationError):
            provision_ecc(np.zeros((2, 2), dtype=np.int64), 16, max_correctable=-1)
        # A bare per-word vector is one die.
        assert provision_ecc(np.zeros(4, dtype=np.int64), 16).dies == 1


# ---------------------------------------------------------------------------
# Economics & reporting
# ---------------------------------------------------------------------------
class TestReporting:
    def test_summary_reconciles_with_result(self):
        result = run_wafer(build_wafer(WaferConfig(dies=32, seed=2010)))
        summary = summarize(result)
        assert summary.dies == 32
        assert summary.shipped == int(result.ships.sum())
        assert summary.ship_rate == pytest.approx(result.ship_rate)
        assert summary.total_test_seconds == pytest.approx(
            float(result.test_seconds.sum())
        )
        assert 0 < summary.good_bits <= summary.shipped * result.data_cells_per_die
        assert summary.cost_per_good_bit > 0.0

    def test_cost_model(self):
        cost = CostModel(wafer_dollars=1000.0, tester_dollars_per_hour=360.0)
        # Wafer cost splits across the dies; each die pays its own tester
        # seconds at $0.1/s.
        assert cost.die_cost(dies=10, test_seconds=10.0) == pytest.approx(
            1000.0 / 10 + 10.0 * 0.1
        )
        with pytest.raises(ConfigurationError):
            CostModel(wafer_dollars=-1.0)

    def test_compare_schemes_sweeps_all_three(self):
        records = compare_schemes(
            dies=16, variation_scales=(1.0,), seed=2010,
            config=WaferConfig(fault_rate=2e-3),
        )
        assert {record["scheme"] for record in records} == {
            "conventional", "destructive", "nondestructive"
        }
        for record in records:
            assert record["dies"] == 16
            assert 0.0 <= record["yield"] <= 1.0
            assert record["coverage"] >= 0.99

    def test_publish_wafer_report_sets_gauges(self):
        obs.reset()
        try:
            obs.configure(enabled=True)
            result = run_wafer(build_wafer(WaferConfig(dies=8, seed=2010)))
            publish_wafer_report(result)
            registry = obs.get_registry()
            scheme = result.config.scheme
            assert registry.gauge(
                "prodtest.yield", scheme=scheme
            ) == pytest.approx(result.ship_rate)
            assert registry.gauge(
                "prodtest.test_seconds_per_die", scheme=scheme
            ) > 0.0
            assert registry.gauge("prodtest.coverage", kind="overall") >= 0.99
            shipped = registry.counter("prodtest.dies", outcome="shipped")
            scrapped = registry.counter("prodtest.dies", outcome="scrapped")
            assert shipped + scrapped == result.dies
        finally:
            obs.reset()


# ---------------------------------------------------------------------------
# The single-die flow
# ---------------------------------------------------------------------------
class TestFlowCompatibility:
    def test_trim_skew_experiment_recovers_margin(self, calibration):
        results = trim_skew_experiment(
            calibration, alpha_skews=(-0.05, 0.0), bits=256
        )
        assert len(results) == 2
        for skew, untrimmed, trim in results:
            assert trim.worst_margin >= untrimmed - 1e-9
        skewed, nominal = results[0], results[1]
        assert skewed[1] < nominal[1]          # skew hurts untrimmed margin
        assert skewed[2].worst_margin > 7e-3   # trim recovers the window
