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

import dataclasses

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
from repro.faults.injector import _with_sense_offset
from repro.faults.recovery import RecoveryController, RecoveryTier
from repro.service import (
    ArrayBackend,
    ControllerConfig,
    DiscreteEventEngine,
    MemoryController,
    ReadCache,
    Request,
    build_backend,
    build_report,
    build_workload,
    drain_channel,
)
from repro.service.workload import WRITE
from tests.oracles import MatrixSECDED, scalar_read_batch, use_scalar_reads

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
    """One backed simulation; returns (report, completion log, backend stats).

    ``mode=SCALAR`` serves every group through the per-word oracle.
    """
    stream = build_workload(rate=rate, addresses=2048,
                            write_fraction=write_fraction)
    workload = stream.generate(requests, np.random.default_rng((seed, 3)))
    backend = build_backend(scheme, seed + 1, fault_rate=fault_rate,
                            transients=transients)
    if mode == SCALAR:
        use_scalar_reads(backend)
    from repro.service import scheme_service_times

    read_time, write_time = scheme_service_times(scheme)
    config = ControllerConfig(read_time=read_time, write_time=write_time,
                              banks=4, batch_limit=batch_limit,
                              backend_window=backend_window)
    run = drain_channel(workload, config, policy=policy, backend=backend)
    return build_report(run), run.completions, backend.statistics()


# ---------------------------------------------------------------------------
# Codec: vectorized decode equals the scalar decoder row for row
# ---------------------------------------------------------------------------
class TestDecodeWords:
    @pytest.mark.parametrize("data_bits", [8, 11, 64])
    def test_matches_scalar_decode_per_row(self, data_bits):
        codec = HammingSECDED(data_bits)
        oracle = MatrixSECDED(data_bits)
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
            ref = oracle.decode(matrix[row])
            assert batch.statuses[row] is ref.status
            assert int(batch.corrected_positions[row]) == ref.corrected_position
            assert np.array_equal(batch.data[row], ref.data)
            assert batch.values[row] == ref.value
            assert batch.result(row).status is ref.status
            assert batch.result(row).value == ref.value
            scalar = codec.decode(matrix[row])
            assert scalar.status is ref.status
            assert scalar.corrected_position == ref.corrected_position
            assert np.array_equal(scalar.data, ref.data)
            if ref.status is DecodeStatus.CORRECTED:
                assert 0 <= ref.corrected_position < codec.codeword_bits
            statuses.add(ref.status)
        assert statuses == {DecodeStatus.CLEAN, DecodeStatus.CORRECTED,
                            DecodeStatus.DETECTED}

    def test_odd_syndrome_naming_no_bit_is_detected(self):
        """Regression: flips (0, 7, 64) of a 64-bit SECDED word leave odd
        overall parity with syndrome 72, past the 71 inner bits.  No
        single flip explains that, so every decoder must report DETECTED
        (they once returned CORRECTED at position 71 with wrong data)."""
        codec = HammingSECDED(64)
        word = codec.encode_word(0x0123456789ABCDEF)
        for pos in (0, 7, 64):
            word[pos] ^= 1
        assert codec.decode(word).status is DecodeStatus.DETECTED
        ref = MatrixSECDED(64).decode(word)
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


ONE_ATTEMPT = RetryPolicy(max_attempts=1)


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
            fused = RecoveryController(fused_mem, policy).read_words(
                addresses, scheme, rng_a
            )
            loop_ladder = RecoveryController(loop_mem, policy)
            loop = [loop_ladder.read_word(a, scheme, rng_b) for a in addresses]
            assert fused == loop
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            assert np.array_equal(fused_mem.array._states,
                                  loop_mem.array._states)
            assert fused_mem.statistics == loop_mem.statistics

    def test_escalation_rewinds_state_and_rng(self, chip):
        memory, schemes = _fresh_memory(chip)
        scheme = schemes["destructive"]  # reads erase — rewind must undo it
        width = memory.codec.codeword_bits
        # Two flips in word 2's codeword → DETECTED → the probe escalates.
        memory.array._states[2 * width] ^= 1
        memory.array._states[2 * width + 1] ^= 1
        states_before = memory.array.stored_bits()
        stats_before = memory.statistics
        rng = np.random.default_rng(3)
        state_before = rng.bit_generator.state
        fused, bad = memory.probe_words([0, 1, 2, 3], scheme, rng, ONE_ATTEMPT)
        assert fused == []
        assert bad == (2,)  # the hint names exactly the escalating word
        assert np.array_equal(memory.array.stored_bits(), states_before)
        assert rng.bit_generator.state == state_before
        assert memory.statistics == stats_before  # nothing committed

    def test_nondestructive_probe_draws_exactly_the_committed_ladders(self, chip):
        """Through a scheme that writes no cell nothing is rewound: the
        probe commits every word before the first DETECTED one, and the
        RNG advances by exactly the coin flips of their ladders."""
        policy = RetryPolicy(max_attempts=3, backoff_ns=5.0,
                             current_escalation=0.1)
        memory, schemes = _fresh_memory(chip)
        width = memory.codec.codeword_bits
        memory.array._states[2 * width] ^= 1
        memory.array._states[2 * width + 1] ^= 1
        # Half the window's width of offset puts many bits in it.
        scheme = _with_sense_offset(schemes["nondestructive"], 4e-3)
        # Words 2 and 4 have bits in the window too: their coins are
        # drawn, then given back.
        addresses = [0, 1, 2, 4]
        loop_mem, _ = _fresh_memory(chip)
        loop_mem.array._states[:] = memory.array._states
        loop_rng = np.random.default_rng(3)
        with obs.capture() as (loop_registry, _):
            loop = [loop_mem.read_word(a, scheme, loop_rng, retry_policy=policy)
                    for a in addresses[:2]]
            statistics = loop_mem.statistics
            # The uncommitted words' passes were sensed, with no coin kept.
            for address in addresses[2:]:
                loop_mem.read_word(address, scheme, None, retry_policy=policy)
        states_before = memory.array.stored_bits()
        rng = np.random.default_rng(3)
        with obs.capture() as (registry, _):
            fused, bad = memory.probe_words(addresses, scheme, rng, policy)
        assert bad == (2,)
        assert fused == loop
        assert any(result.attempts > 1 for result in fused)
        assert rng.bit_generator.state == loop_rng.bit_generator.state
        assert np.array_equal(memory.array.stored_bits(), states_before)
        assert memory.statistics == statistics
        reads = registry.counters_with_prefix("core.reads.")
        loop_reads = loop_registry.counters_with_prefix("core.reads.")
        name = scheme.name
        for meter in ("bits", "metastable_bits", "error_bits"):
            key = f"core.reads.{meter}{{scheme={name}}}"
            assert reads.get(key, 0) == loop_reads.get(key, 0), meter

    def test_per_bit_keyword_arrays_rejected(self, chip):
        memory, schemes = _fresh_memory(chip)
        hold = np.full(2 * memory.codec.codeword_bits, 5e-9)
        with pytest.raises(ConfigurationError, match="per-bit"):
            memory.probe_words([0, 1], schemes["nondestructive"], None,
                               ONE_ATTEMPT, hold_time=hold)

    def test_duplicate_addresses_rejected(self, chip):
        memory, schemes = _fresh_memory(chip)
        with pytest.raises(ConfigurationError):
            memory.probe_words([1, 2, 1], schemes["nondestructive"], None,
                               ONE_ATTEMPT)

    def test_out_of_range_addresses_rejected(self, chip):
        memory, schemes = _fresh_memory(chip)
        size = memory.size_words
        for addresses, bad in (([0, size, 1], size), ([2, -1], -1)):
            with pytest.raises(IndexError, match=f"address {bad} out of range"):
                memory.probe_words(addresses, schemes["nondestructive"], None,
                                   ONE_ATTEMPT)

    def test_empty_group(self, chip):
        memory, schemes = _fresh_memory(chip)
        assert memory.probe_words(
            [], schemes["nondestructive"], None, ONE_ATTEMPT
        ) == ([], ())


# ---------------------------------------------------------------------------
# Recovery ladder: a group read equals the scalar loop of read_word
# ---------------------------------------------------------------------------
#: Half the amplifier's window of offset: many bits land in the window.
_WINDOW_OFFSETS = (4e-3, -4e-3)
_SCRUB_WORDS = (RecoveryTier.SCRUB, RecoveryTier.REPAIR)


def _case_memory(chip, case):
    """A fresh memory with ``case``'s corrupted words and strike, the
    scheme it is read through and the kernel keywords."""
    (_, _, _, sensing, corrupt, _, _) = case
    offset, factor, resolution, hold_time, strike = sensing
    memory, schemes = _fresh_memory(chip)
    width = memory.codec.codeword_bits
    for address, flips in corrupt.items():
        memory.array._states[address * width:address * width + flips] ^= 1
    if strike is not None:
        seed, fraction = strike
        hit = np.random.default_rng(seed).random(memory.array.size_bits)
        memory.array._states[hit < fraction] ^= 1
    scheme = _with_sense_offset(
        schemes["nondestructive"].scaled_read_current(factor), offset
    )
    if resolution is not None:
        scheme.sense_amp.resolution = resolution
    kwargs = {} if hold_time is None else {"hold_time": hold_time}
    return memory, scheme, kwargs


def _ladder_read(chip, case, group):
    """Read ``case``'s addresses through a fresh recovery ladder, as one
    group (``read_words``) or as a loop of ``read_word``; returns the
    words, the ladder, its RNG and the captured registry."""
    policy, scrub_rounds, spare_words, _, _, addresses, seed = case
    memory, scheme, kwargs = _case_memory(chip, case)
    ladder = RecoveryController(memory, policy, scrub_rounds=scrub_rounds,
                                spare_words=spare_words)
    rng = np.random.default_rng(seed)
    with obs.capture() as (registry, _):
        if group:
            words = ladder.read_words(addresses, scheme, rng, **kwargs)
        else:
            words = [ladder._read_word_caught(address, scheme, rng, **kwargs)
                     for address in addresses]
    # A lost word carries its exception, which compares by identity.
    words = [(word.address, word.attempts) if isinstance(word, LostWord)
             else word for word in words]
    return words, ladder, rng, registry


def _first_pass_clean(chip, case):
    """Per address of ``case``: whether its first sensing pass leaves no
    bit in the window (the cells a committed word is read from are the
    ones it was written and corrupted to)."""
    addresses = case[5]
    memory, scheme, kwargs = _case_memory(chip, case)
    width = memory.codec.codeword_bits
    clean = []
    for address in addresses:
        span = np.arange(address * width, (address + 1) * width)
        batch = scheme.read_many(memory.array.population.view(span),
                                 memory.array._states[span], **kwargs)
        clean.append(not batch.metastable.any())
    return clean


@st.composite
def _ladder_cases(draw):
    policy = RetryPolicy(
        max_attempts=draw(st.integers(1, 4)), backoff_ns=5.0,
        current_escalation=draw(st.sampled_from([0.0, 0.1])),
        majority_vote=draw(st.booleans()),
    )
    scrub_rounds = draw(st.integers(0, 2))
    spare_words = draw(st.sampled_from([0, 2]))
    words = 24 - spare_words
    # One flip decodes CORRECTED; two decode DETECTED and reach the scrub
    # tier, where the window's coin flips lose, rescue or remap the word.
    corrupt = draw(st.dictionaries(st.integers(0, words - 1),
                                   st.sampled_from([1, 2]), max_size=4))
    addresses = draw(st.lists(st.integers(0, words - 1), min_size=1,
                              max_size=10, unique=True))
    # How the cells are sensed: offset, read-current factor, amplifier
    # resolution, hold time, and a strike flipping a share of all cells.
    sensing = (
        draw(st.sampled_from(_WINDOW_OFFSETS)),
        draw(st.sampled_from([1.0, 1.0, 0.9, 1.2])),
        draw(st.sampled_from([None, None, 6e-3, 10e-3])),
        # 0.2 ms droops the held rail by about 0.4 %, millivolts: enough
        # to move bits across the window's edges.
        draw(st.sampled_from([None, None, 5e-9, 2e-4])),
        draw(st.one_of(st.none(), st.tuples(st.integers(0, 2**32 - 1),
                                            st.sampled_from([0.005, 0.02])))),
    )
    return (policy, scrub_rounds, spare_words, sensing, corrupt, addresses,
            draw(st.integers(0, 2**32 - 1)))


class TestGroupLadder:
    @settings(max_examples=150, deadline=None)
    @given(case=_ladder_cases())
    def test_group_read_equals_scalar_loop(self, chip, case):
        """``read_words`` runs the retry ladder inside one sensing pass,
        yet returns, records, writes and draws what a loop of
        ``read_word`` over the same addresses does."""
        group, ladder, rng, registry = _ladder_read(chip, case, True)
        loop, loop_ladder, loop_rng, loop_registry = _ladder_read(
            chip, case, False
        )
        assert group == loop
        assert ladder.tier_counts == loop_ladder.tier_counts
        assert ladder.memory.statistics == loop_ladder.memory.statistics
        assert np.array_equal(ladder.memory.array._states,
                              loop_ladder.memory.array._states)
        assert ladder.remapped_words == loop_ladder.remapped_words
        assert rng.bit_generator.state == loop_rng.bit_generator.state

        for prefix in ("retry.", "ecc.words", "recovery.words"):
            assert registry.counters_with_prefix(prefix) == \
                loop_registry.counters_with_prefix(prefix)
        scheme = chip[1]["nondestructive"].name
        assert registry.histogram("retry.backoff_ns", scheme=scheme) == \
            loop_registry.histogram("retry.backoff_ns", scheme=scheme)
        # A word the group pass commits with no bit in the window runs no
        # ladder, so it observes no ``retry.attempts``; ``read_word``
        # observes its bits at one attempt each.
        scrubbed = [isinstance(word, tuple) or word.tier in _SCRUB_WORDS
                    for word in group]
        quiet = sum(clean and not escalated for clean, escalated
                    in zip(_first_pass_clean(chip, case), scrubbed))
        ones = quiet * ladder.memory.codec.codeword_bits
        attempts = registry.histogram("retry.attempts", scheme=scheme)
        loop_attempts = loop_registry.histogram("retry.attempts", scheme=scheme)
        if attempts is None:
            assert loop_attempts is None or loop_attempts["count"] == ones
        else:
            assert attempts["counts"][0] + ones == loop_attempts["counts"][0]
            assert attempts["counts"][1:] == loop_attempts["counts"][1:]
            assert attempts["count"] + ones == loop_attempts["count"]
            assert attempts["sum"] + ones == loop_attempts["sum"]
        if not any(scrubbed):
            # The shared passes sense the bits the per-word passes do, and
            # the coins latch the same values.
            for name in ("bits", "metastable_bits", "error_bits"):
                key = f"core.reads.{name}{{scheme={scheme}}}"
                assert registry.counters_with_prefix("core.reads.").get(key, 0) \
                    == loop_registry.counters_with_prefix("core.reads.").get(key, 0)


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


class TestBackedOccupancy:
    def test_retried_group_charges_the_ladder_backoff(self, chip):
        """A retried group holds its bank for the coalesced read, one read
        pass per extra attempt, and the backoff of the retry policy the
        ladder holds when the group starts — also after that policy is
        replaced mid-run, as the adaptive loop does."""
        backend = _fresh_backend(chip)
        # A window no latch differential clears: every bit is metastable
        # on every attempt, so each word spends the policy's full budget.
        backend.scheme = _with_sense_offset(backend.scheme, 0.0)
        backend.scheme.sense_amp.resolution = 10.0
        base = backend.memory.policy
        wider = dataclasses.replace(base, max_attempts=5, backoff_ns=7.0)
        config = _config(read_time=10e-9, batch_limit=4)
        # Per phase, a lone read, then three reads queued behind it that
        # coalesce into one group; the policy changes between phases.
        requests = [
            _read(rid, phase * 1e-6 + (rid % 4 > 0) * 1e-9, rid)
            for phase in range(2) for rid in range(4 * phase, 4 * phase + 4)
        ]
        controller = MemoryController(config, policy="batch", backend=backend)
        controller.submit_all(requests)

        def swap(now):
            backend.memory.policy = wider
            return []

        log = controller.run(timers=((0.5e-6, swap),))
        groups = sorted(set(zip(log.start.tolist(), log.finish.tolist(),
                                log.attempts.tolist(),
                                log.batched_with.tolist())))
        assert [size for *_, size in groups] == [1, 3, 1, 3]
        for start, finish, attempts, size in groups:
            policy = base if start < 0.5e-6 else wider
            assert attempts == policy.max_attempts
            expected = (
                config.batch_duration(size)
                + (attempts - 1) * config.read_time
                + policy.total_backoff(attempts) * 1e-9
            )
            assert finish - start == pytest.approx(expected, rel=1e-12)


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
        assert (completions.batched_with == 1).all()
        assert report.completed == 400

    def test_cache_hit_rides_with_backed_miss_group(self):
        backend = build_backend("nondestructive", 31, fault_rate=0.0)
        run = drain_channel(
            [
                _read(0, 0.0, 0),       # miss: fills the cache at completion
                _read(1, 1e-9, 2),      # same bank, queue while busy...
                _read(2, 2e-9, 4),      # ...coalesce into one backed group
                _read(3, 40e-9, 0),     # after refill: pure cache hit
            ],
            _config(read_time=12e-9, banks=2, batch_limit=8),
            policy="batch", cache=ReadCache(16), backend=backend,
        )
        log = run.completions
        row = {request_id: index
               for index, request_id in enumerate(log.request_id.tolist())}
        assert log.cache_hit[row[3]] and log.bank[row[3]] == 0
        assert not log.cache_hit[row[0]]
        assert log.batched_with[row[1]] == 2 and log.batched_with[row[2]] == 2
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
