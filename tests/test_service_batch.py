"""Batch-first backed serving: bit-exactness, draw-order, and metering.

The contract under test (``docs/SERVICE.md``, "Batched backed serving"):
routing a coalesced read group through the vectorized recovery ladder
(``ArrayBackend.read_batch`` → ``RecoveryController.read_words`` →
``EccArray.probe_words`` → ``HammingSECDED.decode_words``) must produce
the *identical* completion stream, backend statistics, and service report
as the word-by-word oracle (``tests/oracles.py``) — the only sanctioned
divergence is injector noise transients, which deliberately draw once per
group.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.calibration import PAPER_TARGETS, calibrate
from repro.core.retry import RetryPolicy
from repro.array.array import STTRAMArray
from repro.array.testchip import TESTCHIP_VARIATION
from repro.device.variation import CellPopulation
from repro.ecc.array import EccArray
from repro.ecc.hamming import DecodeStatus, HammingSECDED
from repro.errors import ConfigurationError
from repro.faults import LostWord, RecoveredWord, build_scheme
from repro.faults.recovery import RecoveryController
from repro.service import (
    ArrayBackend,
    ControllerConfig,
    DiscreteEventEngine,
    MemoryController,
    ReadCache,
    Request,
    build_backend,
    build_workload,
)
from repro.service.report import build_report
from repro.service.workload import WRITE
from tests.oracles import scalar_read_batch, use_scalar_reads

BATCHED, SCALAR = "batched", "scalar"


def _read(rid, time, address):
    return Request(rid, time, address)


def _config(**kw):
    base = dict(read_time=10e-9, write_time=10e-9, banks=1)
    base.update(kw)
    return ControllerConfig(**base)


def _run_backed(mode, *, policy="batch", batch_limit=16, backend_window=1,
                fault_rate=1e-3, transients=False, requests=400, rate=1e9,
                write_fraction=0.1, scheme="nondestructive", seed=2010):
    """One backed simulation; returns (report, completions, backend stats).

    ``mode=SCALAR`` serves every group through the per-word oracle.
    """
    stream = build_workload(rate=rate, addresses=2048,
                            write_fraction=write_fraction)
    workload = stream.generate(requests, np.random.default_rng((seed, 3)))
    backend, retry = build_backend(scheme, seed + 1, fault_rate=fault_rate,
                                   transients=transients)
    if mode == SCALAR:
        use_scalar_reads(backend)
    from repro.service import scheme_service_times

    read_time, write_time = scheme_service_times(scheme)
    config = ControllerConfig(read_time=read_time, write_time=write_time,
                              banks=4, batch_limit=batch_limit,
                              backend_window=backend_window)
    engine = DiscreteEventEngine()
    controller = MemoryController(engine, config, policy=policy,
                                  backend=backend, retry_policy=retry)
    controller.submit_all(workload)
    engine.run()
    return build_report(controller), list(controller.completions), \
        backend.statistics()


# ---------------------------------------------------------------------------
# Codec: vectorized decode equals the scalar decoder row for row
# ---------------------------------------------------------------------------
class TestDecodeWords:
    @pytest.mark.parametrize("data_bits", [8, 11, 64])
    def test_matches_scalar_decode_per_row(self, data_bits):
        codec = HammingSECDED(data_bits)
        rng = np.random.default_rng(17)
        words = rng.integers(0, 1 << min(data_bits, 62), size=120)
        matrix = np.stack([codec.encode_word(int(w)) for w in words])
        # 0, 1, 2, or 3 random flips per row → CLEAN/CORRECTED/DETECTED mix.
        for row, flips in enumerate(rng.integers(0, 4, size=len(words))):
            for pos in rng.choice(codec.codeword_bits, size=flips,
                                  replace=False):
                matrix[row, pos] ^= 1
        batch = codec.decode_words(matrix)
        assert batch.size == len(words)
        statuses = set()
        for row in range(len(words)):
            ref = codec.decode(matrix[row])
            assert batch.statuses[row] is ref.status
            assert int(batch.corrected_positions[row]) == ref.corrected_position
            assert np.array_equal(batch.data[row], ref.data)
            assert batch.values[row] == codec.bits_to_int(ref.data)
            assert batch.result(row).status is ref.status
            if ref.status is DecodeStatus.CORRECTED:
                assert 0 <= ref.corrected_position < codec.codeword_bits
            statuses.add(ref.status)
        assert statuses == {DecodeStatus.CLEAN, DecodeStatus.CORRECTED,
                            DecodeStatus.DETECTED}

    def test_odd_syndrome_naming_no_bit_is_detected(self):
        """Regression: flips (0, 7, 64) of a 64-bit SECDED word leave odd
        overall parity with syndrome 72, past the 71 inner bits.  No
        single flip explains that, so both decoders must report DETECTED
        (they once returned CORRECTED at position 71 with wrong data)."""
        codec = HammingSECDED(64)
        word = codec.encode_word(0x0123456789ABCDEF)
        for pos in (0, 7, 64):
            word[pos] ^= 1
        ref = codec.decode(word)
        assert ref.status is DecodeStatus.DETECTED
        assert ref.corrected_position == -1
        batch = codec.decode_words(np.stack([word, codec.encode_word(5)]))
        assert batch.statuses == (DecodeStatus.DETECTED, DecodeStatus.CLEAN)
        assert list(batch.corrected_positions) == [-1, -1]
        assert np.array_equal(batch.data[0], ref.data)
        assert batch.values[1] == 5

    def test_shape_validated(self):
        codec = HammingSECDED(8)
        with pytest.raises(ConfigurationError):
            codec.decode_words(np.zeros(codec.codeword_bits, dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            codec.decode_words(np.zeros((3, codec.codeword_bits + 1),
                                        dtype=np.uint8))


# ---------------------------------------------------------------------------
# Engine: bulk calendar load is order-identical to sequential scheduling
# ---------------------------------------------------------------------------
class TestScheduleBatch:
    def test_order_identical_to_sequential_scheduling(self):
        rng = np.random.default_rng(5)
        times = rng.uniform(0.0, 1e-6, size=200)
        sequential, bulk = [], []
        one = DiscreteEventEngine()
        for index, time in enumerate(times):
            one.schedule_at(float(time), sequential.append, index)
        two = DiscreteEventEngine()
        assert two.schedule_batch(
            (float(time), bulk.append, (index,))
            for index, time in enumerate(times)
        ) == 200
        one.run()
        two.run()
        assert bulk == sequential  # ties included

    def test_past_times_rejected_and_empty_ok(self):
        engine = DiscreteEventEngine()
        engine.schedule_at(5e-9, lambda: None)
        engine.run()
        with pytest.raises(ConfigurationError):
            engine.schedule_batch([(1e-9, lambda: None, ())])
        assert engine.schedule_batch([]) == 0


# ---------------------------------------------------------------------------
# EccArray probe: fused pass, escalation hints, rewind snapshot
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def chip():
    """Calibrated scheme pair + a sampled population shared by the module."""
    calibration = calibrate()
    rng = np.random.default_rng(404)
    population = CellPopulation.sample(
        13 * 24, TESTCHIP_VARIATION,
        params=calibration.params,
        rolloff_high=calibration.rolloff_high(),
        rolloff_low=calibration.rolloff_low(),
        rng=rng,
        r_tr_nominal=PAPER_TARGETS.r_transistor,
    )
    schemes = {
        name: build_scheme(name, calibration, PAPER_TARGETS.r_transistor)
        for name in ("nondestructive", "destructive")
    }
    return population, schemes


def _fresh_memory(chip, data_bits=8, seed=11):
    population, schemes = chip
    memory = EccArray(STTRAMArray(population.subset(np.arange(population.size))),
                      data_bits=data_bits)
    rng = np.random.default_rng(seed)
    for address in range(memory.size_words):
        memory.write_word(address, int(rng.integers(0, 1 << data_bits)))
    return memory, schemes


class TestProbeWords:
    def test_commit_matches_scalar_loop(self, chip):
        policy = RetryPolicy(max_attempts=3, backoff_ns=5.0)
        fused_mem, schemes = _fresh_memory(chip)
        loop_mem, _ = _fresh_memory(chip)
        for name in ("nondestructive", "destructive"):
            scheme = schemes[name]
            addresses = [0, 3, 1, 7]
            rng_a = np.random.default_rng(77)
            rng_b = np.random.default_rng(77)
            fused = fused_mem.read_words(addresses, scheme, rng_a,
                                         retry_policy=policy)
            loop = [loop_mem.read_word(a, scheme, rng_b, retry_policy=policy)
                    for a in addresses]
            assert fused == loop
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            assert np.array_equal(fused_mem.array._states,
                                  loop_mem.array._states)
            assert fused_mem.statistics == loop_mem.statistics

    def test_escalation_rewinds_state_and_rng(self, chip):
        memory, schemes = _fresh_memory(chip)
        scheme = schemes["destructive"]  # reads erase — rewind must undo it
        width = memory.codec.codeword_bits
        # Two flips in word 2's codeword → DETECTED → require_reliable
        # escalates the probe.
        memory.array._states[2 * width] ^= 1
        memory.array._states[2 * width + 1] ^= 1
        states_before = memory.array.stored_bits()
        stats_before = memory.statistics
        rng = np.random.default_rng(3)
        state_before = rng.bit_generator.state
        fused, bad = memory.probe_words([0, 1, 2, 3], scheme, rng,
                                        require_reliable=True)
        assert fused is None
        assert bad == (2,)  # the hint names exactly the escalating word
        assert np.array_equal(memory.array.stored_bits(), states_before)
        assert rng.bit_generator.state == state_before
        assert memory.statistics == stats_before  # nothing committed

    def test_duplicate_addresses_rejected(self, chip):
        memory, schemes = _fresh_memory(chip)
        with pytest.raises(ConfigurationError):
            memory.try_read_words([1, 2, 1], schemes["nondestructive"])

    def test_empty_group(self, chip):
        memory, schemes = _fresh_memory(chip)
        assert memory.read_words([], schemes["nondestructive"]) == []


# ---------------------------------------------------------------------------
# Backend: read_batch vs loop-of-read
# ---------------------------------------------------------------------------
def _fresh_backend(chip, seed=29, corrupt=(), injector=None):
    population, schemes = chip
    memory = EccArray(
        STTRAMArray(population.subset(np.arange(population.size))),
        data_bits=8,
    )
    ladder = RecoveryController(
        memory, RetryPolicy(max_attempts=3, backoff_ns=5.0), scrub_rounds=1
    )
    backend = ArrayBackend(ladder, schemes["nondestructive"],
                           np.random.default_rng(seed), injector=injector)
    for address in range(backend.size_words):
        backend.write(address, ArrayBackend.payload(address, data_bits=8))
    width = memory.codec.codeword_bits
    for address in corrupt:
        # Two permanent flips → DETECTED through every tier → lost word.
        memory.array._states[address * width] ^= 1
        memory.array._states[address * width + 1] ^= 1
    return backend


class TestReadBatch:
    def test_matches_loop_of_read(self, chip):
        batched = _fresh_backend(chip)
        scalar = _fresh_backend(chip)
        addresses = [0, 5, 2, 9, 2, 7, 0]  # duplicates split the fused run
        assert batched.read_batch(addresses) == \
            scalar_read_batch(scalar, addresses)
        assert batched.statistics() == scalar.statistics()
        assert batched.rng.bit_generator.state == \
            scalar.rng.bit_generator.state
        assert np.array_equal(batched.memory.memory.array._states,
                              scalar.memory.memory.array._states)

    def test_group_where_every_word_exhausts_the_ladder(self, chip):
        group = [4, 8, 15]
        batched = _fresh_backend(chip, corrupt=group)
        scalar = _fresh_backend(chip, corrupt=group)
        outcomes = batched.read_batch(group)
        assert outcomes == scalar_read_batch(scalar, group)
        assert all(failed for _, failed in outcomes)
        assert batched.failed_words == len(group)
        assert batched.statistics() == scalar.statistics()
        # The ladder reported the losses as LostWord results, not raises.
        words = _fresh_backend(chip, corrupt=group).memory.read_words(
            group, chip[1]["nondestructive"], np.random.default_rng(29)
        )
        assert all(isinstance(word, LostWord) and word.failed
                   for word in words)

    def test_mixed_group_loses_only_the_corrupted_word(self, chip):
        batched = _fresh_backend(chip, corrupt=(6,))
        scalar = _fresh_backend(chip, corrupt=(6,))
        addresses = [5, 6, 7, 8]
        outcomes = batched.read_batch(addresses)
        assert outcomes == scalar_read_batch(scalar, addresses)
        assert [failed for _, failed in outcomes] == \
            [False, True, False, False]
        words = _fresh_backend(chip, corrupt=(6,)).memory.read_words(
            addresses, chip[1]["nondestructive"], np.random.default_rng(29)
        )
        assert isinstance(words[1], LostWord)
        assert all(isinstance(w, RecoveredWord) for i, w in enumerate(words)
                   if i != 1)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=23),
                    min_size=1, max_size=12))
    def test_property_read_batch_equals_loop(self, chip, addresses):
        batched = _fresh_backend(chip)
        scalar = _fresh_backend(chip)
        assert batched.read_batch(addresses) == \
            scalar_read_batch(scalar, addresses)
        assert batched.statistics() == scalar.statistics()
        assert batched.rng.bit_generator.state == \
            scalar.rng.bit_generator.state

    def test_transients_draw_once_per_group(self, chip):
        from repro.faults.campaign import default_fault_models
        from repro.faults.injector import FaultInjector

        def injected():
            injector = FaultInjector(default_fault_models(1e-3),
                                     np.random.default_rng(55))
            return _fresh_backend(chip, injector=injector)

        group, single, loop = injected(), injected(), injected()
        group.read_batch([0, 1, 2])
        scalar_read_batch(single, [0])
        # One perturbation for the whole group — the injector RNG sits
        # exactly where a single scalar read leaves it...
        assert group.injector.rng.bit_generator.state == \
            single.injector.rng.bit_generator.state
        # ...whereas the scalar loop perturbs once per word (the
        # documented, deliberate divergence under noise transients).
        scalar_read_batch(loop, [0, 1, 2])
        assert loop.injector.rng.bit_generator.state != \
            group.injector.rng.bit_generator.state


# ---------------------------------------------------------------------------
# Controller: full-stack parity between batched serving and the oracle
# ---------------------------------------------------------------------------
class TestBackendModes:
    @pytest.mark.parametrize("policy,window", [
        ("batch", 1), ("fcfs", 8), ("read-priority", 4),
    ])
    def test_batched_serving_is_bit_exact(self, policy, window):
        results = {
            mode: _run_backed(mode, policy=policy, backend_window=window)
            for mode in (BATCHED, SCALAR)
        }
        report_b, completions_b, stats_b = results[BATCHED]
        report_s, completions_s, stats_s = results[SCALAR]
        assert completions_b == completions_s
        assert stats_b == stats_s
        assert report_b == report_s
        assert report_b.retried_words > 0  # the ladder actually fired

    def test_batch_limit_one_degenerates_even_with_noise_transients(self):
        # Groups of one fuse trivially, so batched == scalar even under
        # per-operation noise transients (one group == one operation).
        results = {
            mode: _run_backed(mode, batch_limit=1, transients=True)
            for mode in (BATCHED, SCALAR)
        }
        assert results[BATCHED] == results[SCALAR]

    def test_backend_window_default_keeps_scalar_order(self):
        report, completions, _ = _run_backed(
            BATCHED, policy="fcfs", backend_window=1
        )
        assert all(done.batched_with == 1 for done in completions)
        assert report.completed == 400

    def test_cache_hit_rides_with_backed_miss_group(self):
        backend, retry = build_backend("nondestructive", 31, fault_rate=0.0)
        engine = DiscreteEventEngine()
        controller = MemoryController(
            engine, _config(read_time=12e-9, banks=2, batch_limit=8),
            policy="batch", cache=ReadCache(16), backend=backend,
            retry_policy=retry,
        )
        controller.submit_all([
            _read(0, 0.0, 0),       # miss: fills the cache at completion
            _read(1, 1e-9, 2),      # same bank, queue while busy...
            _read(2, 2e-9, 4),      # ...coalesce into one backed group
            _read(3, 40e-9, 0),     # after refill: pure cache hit
        ])
        engine.run()
        by_id = {done.request.request_id: done
                 for done in controller.completions}
        assert by_id[3].cache_hit and by_id[3].bank == 0
        assert not by_id[0].cache_hit
        assert by_id[1].batched_with == 2 and by_id[2].batched_with == 2
        assert backend.reads == 3  # the hit never reached the array

    def test_batch_size_histogram_and_failed_counter_metered(self):
        with obs.capture() as (registry, _):
            report, _, _ = _run_backed(BATCHED)
            hist = registry.histogram("service.backend.batch_size")
            failed = registry.counter("service.backend.failed_words")
            attempts = registry.histogram("service.backend.attempts")
        assert hist is not None and hist["count"] > 0
        assert hist["max"] > 1  # saturation actually coalesced groups
        assert attempts["count"] == report.reads
        assert failed == report.failed_words

    def test_cli_knobs_round_trip(self):
        config = ControllerConfig(read_time=1e-8, write_time=1e-8,
                                  batch_limit=3, batch_extra_fraction=0.5,
                                  backend_window=2)
        assert config.batch_duration(3) == pytest.approx(2e-8)
        with pytest.raises(ConfigurationError):
            ControllerConfig(read_time=1e-8, write_time=1e-8,
                             backend_window=0)
