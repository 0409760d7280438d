"""Clean-read memo of ``EccArray.probe_words``: bit-exact with sensing.

A nondestructive read that lands no bit in the sense-amplifier window
draws no randomness and writes no cell, so it depends only on the stored
bits, the rails' state table and the amplifier offset.  The memo answers
a repeat of such a read without the kernel.  The memo-free probe
(``tests/oracles.py``) is the oracle: across random sequences of group
reads (offsets drawn at and around each word's hit boundary), ladder
reads, writes, flip strikes, parameter writes, escalated schemes and the
destructive scheme, every result, RNG draw, cell state, decode counter,
obs series and trace event must match it.  For the nondestructive
scheme its results, draws and decode counters come from a loop of
``EccArray.read_word``, so the group read is checked against per-word
code as well as against itself with the memo off.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.array.array import STTRAMArray
from repro.array.testchip import TESTCHIP_VARIATION
from repro.calibration import PAPER_TARGETS, calibrate
from repro.core.destructive import DestructiveSelfReference
from repro.core.nondestructive import NondestructiveSelfReference
from repro.core.retry import RetryPolicy
from repro.device.variation import CellPopulation
from repro.ecc.array import EccArray
from repro.faults import LostWord, build_scheme
from repro.faults.injector import _with_sense_offset
from repro.faults.recovery import RecoveryController
from repro.service import (
    ArrayBackend,
    ControllerConfig,
    ServeSpec,
    Topology,
    build_workload,
    serve,
)
from tests.oracles import use_memo_free_probe

DATA_BITS = 8           # 13-cell codewords: small words, fast examples
WORDS = 12
POLICY = RetryPolicy(max_attempts=3, backoff_ns=5.0, current_escalation=0.1)
ONE_ATTEMPT = RetryPolicy(max_attempts=1)
#: Read-current factors of the escalated schemes; more than the
#: population's table budget, so tables get evicted and rebuilt.
FACTORS = (1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35, 1.4, 1.45)


@pytest.fixture(scope="module")
def chip():
    """A sampled population (never read directly) and both schemes."""
    calibration = calibrate()
    population = CellPopulation.sample(
        13 * WORDS, TESTCHIP_VARIATION,
        params=calibration.params,
        rolloff_high=calibration.rolloff_high(),
        rolloff_low=calibration.rolloff_low(),
        rng=np.random.default_rng(404),
        r_tr_nominal=PAPER_TARGETS.r_transistor,
    )
    schemes = {
        name: build_scheme(name, calibration, PAPER_TARGETS.r_transistor)
        for name in ("nondestructive", "destructive")
    }
    return population, schemes


def _memory(population, memo: bool) -> EccArray:
    """A written memory over a private copy of ``population``."""
    memory = EccArray(
        STTRAMArray(population.subset(np.arange(population.size))),
        data_bits=DATA_BITS,
    )
    rng = np.random.default_rng(11)
    for address in range(memory.size_words):
        memory.write_word(address, int(rng.integers(0, 1 << DATA_BITS)))
    return memory if memo else use_memo_free_probe(memory)


def _boundary(entry, resolution: float, side: str) -> float:
    """The offset at which ``entry``'s extreme cell sits exactly on the
    edge of the window: the least offset with ``hi + offset >=
    resolution`` (``side == "hi"``), or the greatest with ``lo + offset
    <= -resolution`` (``side == "lo"``)."""
    hi, lo = entry.extremes()
    if side == "hi":
        offset = resolution - hi
        while hi + offset < resolution:
            offset = np.nextafter(offset, np.inf)
        while hi + np.nextafter(offset, -np.inf) >= resolution:
            offset = np.nextafter(offset, -np.inf)
    else:
        offset = -resolution - lo
        while lo + offset > -resolution:
            offset = np.nextafter(offset, -np.inf)
        while lo + np.nextafter(offset, np.inf) <= -resolution:
            offset = np.nextafter(offset, np.inf)
    return float(offset)


# One op: a read (below) | ("ladder", words, offset) | ("write", word,
# value) | ("strike", seed, fraction) | ("assign", cell, r_tr scale)
# | ("destructive", words).  An offset is in volts, or (word, side,
# nudge): the edge of that word's entry.  Groups come from a few words,
# so reads keep coming back to the same entries.
_words = st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True)
_offset = st.one_of(
    st.floats(-3e-3, 3e-3),
    # Past every margin: each cell latches this rail cleanly, so stored
    # bits of the other value read back as error bits.
    st.sampled_from([-30e-3, 30e-3]),
    st.tuples(st.integers(0, 5), st.sampled_from(["hi", "lo"]),
              st.integers(-2, 2)),
)
# ("read", words, current factor, offset, hold_time, resolution, again):
# mostly the design point, the amplifier's own resolution and no kernel
# keyword, where the memo engages.  ``again`` says how the group is read
# right after: at the same offset (None) or at the edge of its first
# word's entry.
_read = st.tuples(
    st.just("read"), _words,
    st.one_of(st.just(1.0), st.just(1.0), st.sampled_from(FACTORS)),
    _offset,
    # 0.2 ms of hold droops the held rail by millivolts.
    st.sampled_from([None, None, None, 5e-9, 4e-9, 2e-4]),
    st.sampled_from([None, None, None, 6e-3, 10e-3]),
    st.one_of(st.none(), st.tuples(st.sampled_from(["hi", "lo"]),
                                   st.integers(-1, 1))),
)
_ladder = st.tuples(st.just("ladder"), _words, _offset)
_op = st.one_of(
    _read, _read, _read, _ladder, _ladder,
    st.tuples(st.just("write"), st.integers(0, 5),
              st.integers(0, (1 << DATA_BITS) - 1)),
    st.tuples(st.just("strike"), st.integers(0, 2**32 - 1),
              st.sampled_from([0.02, 0.1])),
    st.tuples(st.just("assign"), st.integers(0, 13 * 6 - 1),
              st.floats(0.9, 1.1)),
    st.tuples(st.just("destructive"), _words),
)


def _offset_of(spec, memory, resolution: float) -> float:
    """A drawn offset, or the boundary of a word's memo entry nudged by
    ``nudge`` ulps (0 V when there is no such boundary)."""
    if not isinstance(spec, tuple):
        return spec
    word, side, nudge = spec
    entry = memory._memo[word]
    # No entry, or no cell latched to that side (its extreme is infinite).
    if entry is None or not np.isfinite(entry.extremes()[side == "lo"]):
        return 0.0
    offset = _boundary(entry, resolution, side)
    for _ in range(abs(nudge)):
        offset = float(np.nextafter(offset, np.inf if nudge > 0 else -np.inf))
    return offset


def _apply(op, memory, schemes, rng):
    """Run one op on ``memory``; returns what it returned."""
    scheme = schemes["nondestructive"]
    kind = op[0]
    if kind == "read":
        _, words, _, _, hold_time, _ = op
        kwargs = {} if hold_time is None else {"hold_time": hold_time}
        return memory.probe_words(
            words, _read_scheme(op, schemes), rng, POLICY, **kwargs
        )
    if kind == "ladder":
        _, words, offset = op
        ladder = RecoveryController(memory, POLICY, scrub_rounds=1)
        words = ladder.read_words(words, _with_sense_offset(scheme, offset), rng)
        # A lost word carries its exception, which compares by identity.
        return [
            (word.address, word.attempts, str(word.error))
            if isinstance(word, LostWord) else word
            for word in words
        ]
    if kind == "write":
        return memory.write_word(op[1], op[2])
    if kind == "strike":
        backend = ArrayBackend(RecoveryController(memory), scheme, rng)
        return backend.strike_flips(op[2], np.random.default_rng(op[1]))
    if kind == "assign":
        population = memory.array.population
        mask = np.zeros(population.size, dtype=bool)
        mask[op[1]] = True
        return population.assign(mask, r_tr=population.r_tr[op[1]] * op[2])
    return memory.probe_words(op[1], schemes["destructive"], rng, POLICY)


def _read_scheme(op, schemes):
    """The scheme a ``"read"`` op senses through."""
    scheme = _with_sense_offset(
        schemes["nondestructive"].scaled_read_current(op[2]), op[3]
    )
    if op[5] is not None:
        scheme.sense_amp.resolution = op[5]
    return scheme


def _should_hit(op, memory, schemes) -> bool:
    """Whether a ``"read"`` op meets the definition of a memo hit, checked
    cell by cell (the memo decides it from two extreme cells alone):
    every word has an entry over its current cells, the current table and
    resolution, and the current offset latches each cell of it outside the
    window, on the rail it latched to when recorded."""
    _, words, _, _, hold_time, _ = op
    scheme = _read_scheme(op, schemes)
    population = memory.array.population
    table = population.cached_table(scheme.rails_key())
    if hold_time is not None or table is None:
        return False
    amp = scheme.sense_amp
    width = memory.codec.codeword_bits
    for word in words:
        entry = memory._memo[word]
        span = np.arange(word * width, (word + 1) * width)
        cells = memory.array._states[span]
        if (
            entry is None or entry.table is not table
            or entry.resolution != amp.resolution
            or entry.cells != cells.tobytes()
        ):
            return False
        # The rails tuple is (v_bl1, v_bl2, v_bo, margin), both stored
        # values concatenated; the latch compares v_bl1 with v_bo.
        at = span + cells.astype(np.intp) * population.size
        diff = table[0][at] - table[2][at]
        latched = diff + amp.offset
        ones = diff >= entry.extremes()[0]  # the cells latched 1 when recorded
        if not (
            np.all(latched[ones] >= amp.resolution) and np.all(latched[ones] > 0.0)
            and np.all(latched[~ones] <= -amp.resolution)
        ):
            return False
    return True


def _kernel_calls(registry) -> int:
    """Sensing-kernel calls so far (the memo answers without one)."""
    profile = registry.profile("core.read_many")
    return profile["count"] if profile else 0


def _run(ops, population, schemes, memo: bool):
    """Run ``ops`` on a fresh memory under obs; returns every observable.

    With the memo, boundary-relative offsets are resolved against the
    memo as it stands when the op runs, and ``"ops"`` holds the ops with
    concrete offsets, for the oracle run to replay.
    """
    memory = _memory(population, memo)
    rng = np.random.default_rng(2010)
    concrete, log, rng_states = [], [], []
    resolution = schemes["nondestructive"].sense_amp.resolution
    with obs.capture(trace_capacity=1 << 16) as (registry, tracer):
        for op in ops:
            if op[0] == "read":
                offset = _offset_of(op[3], memory, op[5] or resolution)
                op = op[:3] + (offset,) + op[4:]
            elif op[0] == "ladder":
                op = op[:2] + (_offset_of(op[2], memory, resolution),)
            before = list(memory._memo) if memo else None
            hit = memo and op[0] == "read" and _should_hit(op, memory, schemes)
            calls = _kernel_calls(registry)
            log.append(_apply(op, memory, schemes, rng))
            if memo and op[0] == "read":
                # The memo answers exactly the reads the definition allows.
                assert (_kernel_calls(registry) == calls) == hit
            if memo and op[0] == "destructive":
                # A scheme that writes cells never records into the memo.
                assert all(a is b for a, b in zip(before, memory._memo))
            concrete.append(op)
            rng_states.append(rng.bit_generator.state)
    return {
        "ops": concrete,
        "log": log,
        "rng": rng_states,
        "states": memory.array.stored_bits(),
        "statistics": memory.statistics,
        # As exported: the JSON form also pins each value's type.
        "metrics": registry.to_json(profile=False),
        "events": [(event.kind, event.fields) for event in tracer.events()],
    }


@settings(max_examples=100)
@given(ops=st.lists(_op, min_size=5, max_size=30))
def test_memo_equals_memo_free_probe(chip, ops):
    population, schemes = chip
    # Read every group twice, so unchanged words come back to the memo.
    reads = []
    for op in ops:
        if op[0] != "read":
            reads.append(op)
            continue
        first, edge = op[:-1], op[-1]
        reads.append(first)
        offset = first[3] if edge is None else (first[1][0],) + edge
        reads.append(first[:3] + (offset,) + first[4:])
    fast = _run(reads, population, schemes, memo=True)
    slow = _run(fast["ops"], population, schemes, memo=False)
    assert fast["log"] == slow["log"]
    assert fast["rng"] == slow["rng"]
    assert np.array_equal(fast["states"], slow["states"])
    assert fast["statistics"] == slow["statistics"]
    assert fast["metrics"] == slow["metrics"]
    assert fast["events"] == slow["events"]


#: Memo-free probes in progress: :func:`kernel_calls` skips their calls.
_ORACLE_PROBES = [0]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the kernel calls each scheme class made during a test,
    outside the memo-free side of a :func:`_pair`."""
    calls = {}
    for cls in (NondestructiveSelfReference, DestructiveSelfReference):
        kernel = cls.read_many

        def counted(self, *args, _kernel=kernel, _cls=cls, **kwargs):
            if not _ORACLE_PROBES[0]:
                calls[_cls] = calls.get(_cls, 0) + 1
            return _kernel(self, *args, **kwargs)

        monkeypatch.setattr(cls, "read_many", counted)
    return calls


def _pair(population):
    """A memo memory and a memo-free one over equal copies of
    ``population``; the kernel calls of the memo-free one go uncounted."""
    slow = _memory(population, memo=False)
    probe = slow.probe_words

    def uncounted(*args, **kwargs):
        _ORACLE_PROBES[0] += 1
        try:
            return probe(*args, **kwargs)
        finally:
            _ORACLE_PROBES[0] -= 1

    slow.probe_words = uncounted
    return _memory(population, memo=True), slow


def _probe_both(pair, words, scheme, **kwargs):
    """Probe both memories alike; assert they agree; return the result."""
    rngs = np.random.default_rng(5), np.random.default_rng(5)
    fast, slow = (
        memory.probe_words(words, scheme, rng, ONE_ATTEMPT, **kwargs)
        for memory, rng in zip(pair, rngs)
    )
    assert fast == slow
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert np.array_equal(pair[0].array._states, pair[1].array._states)
    assert pair[0].statistics == pair[1].statistics
    return fast


def _clean_word(pair, scheme):
    """A word whose probe commits with no bit in the window, and its
    memo entry."""
    for word in range(WORDS):
        results, _ = _probe_both(pair, [word], scheme)
        if results and pair[0]._memo[word] is not None:
            return word, pair[0]._memo[word]
    raise AssertionError("no word reads clean")


class TestHitRules:
    @pytest.mark.parametrize("side", ["hi", "lo"])
    def test_boundary_offset_hits_and_next_float_misses(
        self, chip, kernel_calls, side
    ):
        population, schemes = chip
        scheme = schemes["nondestructive"]
        pair = _pair(population)
        word, entry = _clean_word(pair, scheme)
        assert entry is not None
        edge = _boundary(entry, scheme.sense_amp.resolution, side)
        outside = np.nextafter(edge, -np.inf if side == "hi" else np.inf)

        calls = kernel_calls[NondestructiveSelfReference]
        _probe_both(pair, [word], _with_sense_offset(scheme, edge))
        # The memo side answered without the kernel.
        assert kernel_calls[NondestructiveSelfReference] == calls
        (result,), bad = _probe_both(
            pair, [word], _with_sense_offset(scheme, outside)
        )
        # One ulp further, the extreme cell is in the window: the memo
        # side senses, the latch flips a coin for it, and the word is not
        # recorded.
        assert kernel_calls[NondestructiveSelfReference] == calls + 1
        assert bad == ()
        assert result.metastable_bits >= 1
        assert pair[0]._memo[word] is entry

    def test_nan_offset_never_hits(self, chip, kernel_calls):
        population, schemes = chip
        scheme = schemes["nondestructive"]
        pair = _pair(population)
        word, _ = _clean_word(pair, scheme)
        calls = kernel_calls[NondestructiveSelfReference]
        _probe_both(pair, [word], _with_sense_offset(scheme, float("nan")))
        assert kernel_calls[NondestructiveSelfReference] == calls + 1

    def test_kernel_keywords_bypass_the_memo(self, chip, kernel_calls):
        population, schemes = chip
        scheme = schemes["nondestructive"]
        pair = _pair(population)
        word, entry = _clean_word(pair, scheme)
        calls = kernel_calls[NondestructiveSelfReference]
        _probe_both(pair, [word], scheme, hold_time=5e-9)
        assert kernel_calls[NondestructiveSelfReference] == calls + 1
        assert pair[0]._memo[word] is entry  # nor recorded

    def test_a_rebuilt_table_retires_older_entries(self, chip, kernel_calls):
        """``assign`` drops the tables; the next read rebuilds them, and
        an entry recorded against the old tuple misses even where the
        rebuilt rails are equal."""
        population, schemes = chip
        scheme = schemes["nondestructive"]
        pair = _pair(population)
        _probe_both(pair, [0, 1], scheme)
        for memory in pair:
            r_tr = memory.array.population.r_tr
            mask = np.zeros(r_tr.size, dtype=bool)
            mask[13] = True  # a cell of word 1, rewritten with its value
            memory.array.population.assign(mask, r_tr=r_tr[13])
        _probe_both(pair, [0], scheme)  # senses, rebuilding the table
        calls = kernel_calls[NondestructiveSelfReference]
        _probe_both(pair, [1], scheme)
        assert kernel_calls[NondestructiveSelfReference] == calls + 1
        _probe_both(pair, [0, 1], scheme)  # both re-recorded: now a hit
        assert kernel_calls[NondestructiveSelfReference] == calls + 1

    def test_an_escalated_scheme_reads_its_own_entries(self, chip, kernel_calls):
        population, schemes = chip
        scheme = schemes["nondestructive"]
        escalated = scheme.scaled_read_current(1.1)
        pair = _pair(population)
        _probe_both(pair, [2], scheme)
        _probe_both(pair, [3], escalated)  # builds the escalated table
        calls = kernel_calls[NondestructiveSelfReference]
        _probe_both(pair, [2], escalated)
        assert kernel_calls[NondestructiveSelfReference] == calls + 1
        _probe_both(pair, [2], scheme)  # its base entry was replaced
        assert kernel_calls[NondestructiveSelfReference] == calls + 2

    def test_a_detected_word_misses_when_reliability_is_required(
        self, chip, kernel_calls
    ):
        population, schemes = chip
        scheme = schemes["nondestructive"]
        pair = _pair(population)
        word, entry = _clean_word(pair, scheme)
        for memory in pair:  # two flips: the codeword decodes DETECTED
            memory.array._states[13 * word:13 * word + 2] ^= 1
        calls = kernel_calls[NondestructiveSelfReference]
        for _ in range(2):  # escalates every time: nothing is recorded
            assert _probe_both(pair, [word], scheme) == ([], (0,))
        assert kernel_calls[NondestructiveSelfReference] == calls + 2
        assert pair[0]._memo[word] is entry

    def test_destructive_scheme_never_reads_or_records(self, chip, kernel_calls):
        population, schemes = chip
        pair = _pair(population)
        for _ in range(3):
            _probe_both(pair, [0, 1, 2], schemes["destructive"])
        assert kernel_calls[DestructiveSelfReference] == 3
        assert schemes["destructive"].latch_inputs is None
        assert pair[0]._memo == [None] * pair[0].size_words


def test_every_serve_starts_with_an_empty_memo(monkeypatch):
    """``serve`` builds a fresh array per channel: a repeated call sees
    no entry the previous one recorded, and reports the same."""
    built = []
    init = EccArray.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self, list(self._memo)))

    monkeypatch.setattr(EccArray, "__init__", recording)
    requests = build_workload(rate=3e9, addresses=256).generate(
        300, np.random.default_rng(1)
    )
    spec = ServeSpec(
        config=ControllerConfig(read_time=10e-9, write_time=10e-9, banks=2),
        topology=Topology.parse("2x1x2"), policy="batch", scheme="nondestructive",
        backed=True, backend_bits=2048, cache_capacity=0,
    )
    first = serve(requests, spec)
    count = len(built)
    second = serve(requests, spec)
    assert first == second
    assert len(built) == 2 * count
    firsts = [memory for memory, _ in built[:count]]
    assert any(any(entry is not None for entry in m._memo) for m in firsts)
    for memory, at_build in built[count:]:
        assert all(memory is not other for other in firsts)
        assert at_build == [None] * memory.size_words
