"""Tests for the production test flow, the read-queue model served on a
flat part, and the distributed bit-line ladder."""

import numpy as np
import pytest

from repro.service import ControllerConfig, ServeSpec, build_workload, serve
from repro.prodtest.flow import DieResult, TestFlowConfig, run_test_flow, yield_curve
from repro.circuit.bitline import PAPER_BITLINE, BitlineModel
from repro.circuit.distributed import bitline_step_response, build_bitline_ladder
from repro.circuit.mna import Circuit
from repro.device.variation import CellPopulation
from repro.errors import ConfigurationError


class TestTestFlow:
    @pytest.fixture
    def die(self, rng, calibration):
        from repro.array.testchip import TESTCHIP_VARIATION

        return CellPopulation.sample(
            64 * 64,
            TESTCHIP_VARIATION.scaled(2.0),
            params=calibration.params,
            rolloff_high=calibration.rolloff_high(),
            rolloff_low=calibration.rolloff_low(),
            rng=rng,
        )

    def test_flow_produces_decision(self, die, calibration):
        result = run_test_flow(die, calibration=calibration)
        assert isinstance(result, DieResult)
        assert result.fails_after_trim <= result.fails_before_trim
        assert result.uncovered_fails >= 0

    def test_trim_step_reduces_fails(self, die, calibration):
        with_trim = run_test_flow(die, TestFlowConfig(trim=True), calibration)
        without = run_test_flow(die, TestFlowConfig(trim=False), calibration)
        assert with_trim.fails_after_trim <= without.fails_after_trim
        assert without.trim is None
        assert with_trim.trim is not None

    def test_population_size_checked(self, rng, calibration):
        from repro.device.variation import VariationModel

        small = CellPopulation.sample(100, VariationModel(), rng=rng)
        with pytest.raises(ConfigurationError):
            run_test_flow(small, TestFlowConfig(rows=64, columns=64), calibration)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TestFlowConfig(rows=0)
        with pytest.raises(ConfigurationError):
            TestFlowConfig(spare_rows=-1)

    def test_yield_curve_monotone_decline(self):
        records = yield_curve([1.0, 3.0], dies_per_point=2,
                              config=TestFlowConfig(rows=32, columns=32))
        assert records[0]["yield"] >= records[1]["yield"]
        assert records[0]["scale"] == 1.0

    def test_yield_perfect_at_nominal_variation(self):
        records = yield_curve([1.0], dies_per_point=3,
                              config=TestFlowConfig(rows=32, columns=32))
        assert records[0]["yield"] == 1.0
        assert records[0]["mean_fails"] == 0.0

    def test_yield_curve_validation(self):
        with pytest.raises(ConfigurationError):
            yield_curve([1.0], dies_per_point=0)


def read_queue(service_time, rate, banks=4, requests=4096, rng=None):
    """Read latency of ``requests`` Poisson reads, each on a uniformly
    random bank of a flat ``banks``-bank part for ``service_time``."""
    stream = build_workload(rate=rate, addresses=banks).generate(
        requests, rng if rng is not None else np.random.default_rng()
    )
    config = ControllerConfig(service_time, service_time, banks=banks)
    return serve(stream, ServeSpec(config=config)).merged.read_latency


class TestQueueing:
    def test_light_load_latency_near_service_time(self, rng):
        result = read_queue(15e-9, 1e6, banks=4, requests=2000, rng=rng)
        assert result.mean == pytest.approx(15e-9, rel=0.05)

    def test_heavy_load_queues(self, rng):
        light = read_queue(15e-9, 1e7, banks=4, requests=4000, rng=rng)
        heavy = read_queue(15e-9, 2.2e8, banks=4, requests=4000, rng=rng)
        assert heavy.mean > 1.5 * light.mean
        assert heavy.p99 > heavy.mean

    def test_destructive_scheme_queues_worse(self, rng):
        # Same arrival rate, both stable: the 27 ns service time queues far
        # worse than the 12.6 ns one — the §V latency gap compounds.
        rate = 1.1e8
        nondes = read_queue(12.6e-9, rate, banks=4, requests=6000,
                            rng=np.random.default_rng(1))
        dest = read_queue(27.1e-9, rate, banks=4, requests=6000,
                          rng=np.random.default_rng(1))
        assert dest.mean / 27.1e-9 > nondes.mean / 12.6e-9
        assert dest.mean > 2 * nondes.mean

    def test_more_banks_reduce_queueing(self, rng):
        few = read_queue(15e-9, 1.5e8, banks=4, requests=4000,
                         rng=np.random.default_rng(2))
        many = read_queue(15e-9, 1.5e8, banks=16, requests=4000,
                          rng=np.random.default_rng(2))
        assert many.mean < few.mean

    def test_parameter_validation(self, rng):
        with pytest.raises(ConfigurationError):
            read_queue(0.0, 1e6, rng=rng)
        with pytest.raises(ConfigurationError):
            read_queue(15e-9, 1e6, banks=0, rng=rng)

    # ------------------------------------------------------------------
    # Bit-exact vs the historical hand-rolled loop
    # ------------------------------------------------------------------
    @pytest.mark.parametrize(
        "seed, service_time, rate, banks, requests, mean, p99",
        [
            (11, 15e-9, 1e8, 4, 4096,
             1.9335181625196218e-08, 4.717648507090249e-08),
            (7, 27.1e-9, 8e7, 4, 2000,
             4.0869120944120524e-08, 1.1337692530475704e-07),
            (123, 12.6e-9, 2.0e8, 8, 3000,
             1.5647033328893273e-08, 3.77261204536148e-08),
        ],
    )
    def test_engine_wrapper_matches_legacy_loop_exactly(
        self, seed, service_time, rate, banks, requests, mean, p99
    ):
        # Pinned outputs captured from the historical hand-rolled loop:
        # the flat part served by serve() must reproduce them to the
        # last bit.
        result = read_queue(
            service_time, rate, banks=banks, requests=requests,
            rng=np.random.default_rng(seed),
        )
        assert result.mean == mean
        assert result.p99 == p99

    def test_matches_inline_legacy_algorithm(self):
        # Re-run the historical algorithm inline on the same draws and
        # demand float-for-float agreement, not approximation.  This
        # flat FCFS timing run drains without the event calendar, so the
        # Lindley recurrence pins that path too.
        service_time, rate, banks, requests = 18e-9, 1.3e8, 4, 1500
        result = read_queue(
            service_time, rate, banks=banks, requests=requests,
            rng=np.random.default_rng(99),
        )
        rng = np.random.default_rng(99)
        arrivals = np.cumsum(rng.exponential(1.0 / rate, requests))
        targets = rng.integers(0, banks, requests)
        bank_free_at = np.zeros(banks)
        latencies = np.empty(requests)
        for index in range(requests):
            start = max(arrivals[index], bank_free_at[targets[index]])
            finish = start + service_time
            bank_free_at[targets[index]] = finish
            latencies[index] = finish - arrivals[index]
        assert result.mean == float(np.mean(latencies))
        assert result.p99 == float(np.percentile(latencies, 99.0))

    # ------------------------------------------------------------------
    # Edge cases
    # ------------------------------------------------------------------
    def test_zero_arrival_stream_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            read_queue(15e-9, 0.0, rng=rng)
        with pytest.raises(ConfigurationError):
            read_queue(15e-9, 1e6, requests=0, rng=rng)

    def test_single_bank_degenerate_case(self):
        # One bank serializes everything; still stable below load 1 and
        # strictly worse than the same traffic over four banks.
        one = read_queue(15e-9, 4e7, banks=1, requests=3000,
                         rng=np.random.default_rng(5))
        four = read_queue(15e-9, 4e7, banks=4, requests=3000,
                          rng=np.random.default_rng(5))
        assert one.mean > four.mean
        assert one.mean >= 15e-9

    def test_single_request(self):
        result = read_queue(15e-9, 1e6, banks=4, requests=1,
                            rng=np.random.default_rng(3))
        assert result.count == 1
        assert result.mean == pytest.approx(15e-9)


class TestDistributedBitline:
    def test_ladder_node_count(self):
        circuit = Circuit()
        far = build_bitline_ladder(circuit, PAPER_BITLINE, segments=8)
        assert far == "bl_far"
        # near node + 7 internal + far = 9 ladder nodes.
        assert len(circuit.node_names) == 9

    def test_dc_resistance_preserved(self):
        circuit = Circuit()
        far = build_bitline_ladder(circuit, PAPER_BITLINE, segments=8)
        circuit.add_current_source("gnd", far, 1e-3, name="I")
        circuit.add_resistor("BL", "gnd", 1e-3, name="short")  # ~short to gnd
        result = circuit.solve_dc()
        drop = result[far] - result["BL"]
        assert drop == pytest.approx(
            1e-3 * PAPER_BITLINE.total_wire_resistance, rel=1e-6
        )

    def test_step_response_settles_to_ir(self):
        response = bitline_step_response(PAPER_BITLINE, cell_resistance=3000.0)
        # Far cell at DC: V_near = I * (R_cell) only if sense end floats —
        # the near end carries no DC current, so it sits at the injection
        # node voltage minus zero wire drop: I * R_cell.
        assert response.final_voltage == pytest.approx(200e-6 * 3000.0, rel=0.01)

    def test_elmore_same_order_as_simulated_delay(self):
        response = bitline_step_response(PAPER_BITLINE, cell_resistance=3000.0)
        # Elmore is a crude but same-order estimate of the 50% delay for
        # RC ladders driven through a large source resistance.
        assert response.delay_50 < 5 * response.elmore_estimate
        assert response.settle_99 > response.delay_50

    def test_longer_bitline_slower(self):
        short = bitline_step_response(
            BitlineModel(cells_per_bitline=64), cell_resistance=3000.0
        )
        long = bitline_step_response(
            BitlineModel(cells_per_bitline=256), cell_resistance=3000.0
        )
        assert long.settle_99 > short.settle_99

    def test_validation(self):
        circuit = Circuit()
        with pytest.raises(ConfigurationError):
            build_bitline_ladder(circuit, PAPER_BITLINE, segments=0)
        with pytest.raises(ConfigurationError):
            bitline_step_response(PAPER_BITLINE, cell_resistance=0.0)
