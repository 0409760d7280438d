"""The channel loop against the engine-callback oracle it replaced.

:func:`~repro.service.controller.drain_channel` drains every channel
through one :meth:`MemoryController.run` loop — any policy, read cache,
backend and hook — or, for an FCFS timing-only channel without a read
cache or hooks, by array passes.  The oracle is
:func:`tests.oracles.engine_drain`: the engine-callback controller, whose
every arrival, completion, cache hit, hedge and re-queue is a callback
on a :class:`DiscreteEventEngine` calendar.  Over the same requests both
must leave the same :class:`ChannelRun` field for field, the same
``repro.obs`` series, the backend, cache and journal in the same state
(RNG streams, cells, counters, ground truth, records).  Integer arrival
and service times make same-instant arrivals, completions and hook
events common, so the tie order is exercised, not just the sums.  The
loop, called directly, is the array passes' second oracle.
"""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import obs
from repro.array.array import STTRAMArray
from repro.array.testchip import TESTCHIP_VARIATION
from repro.calibration import PAPER_TARGETS, calibrate
from repro.core.retry import RetryPolicy
from repro.device.variation import CellPopulation
from repro.ecc.array import EccArray
from repro.faults import FaultInjector, build_scheme
from repro.faults.campaign import default_fault_models
from repro.faults.drift import (
    field_disturbance_window,
    sense_amp_drift_step,
    temperature_ramp,
)
from repro.faults.recovery import RecoveryController
from repro.service import (
    BANK_XOR,
    BATCH,
    FCFS,
    POLICIES,
    READ_PRIORITY,
    ROW_MAJOR,
    AdaptiveConfig,
    ArrayBackend,
    ChannelRun,
    ControllerConfig,
    DiscreteEventEngine,
    MemoryController,
    ReadCache,
    Request,
    ServeSpec,
    ShardRouter,
    SLOTarget,
    Topology,
    WriteAheadJournal,
    bank_offline,
    build_workload,
    controller_stall,
    drain_channel,
    scheme_service_times,
    sense_amp_lockup,
    serve,
)
from repro.service.workload import READ, WRITE
from repro.streams import stream_rng
from tests.oracles import engine_drain


@contextlib.contextmanager
def engine_runs():
    """Count :meth:`DiscreteEventEngine.run` calls inside the block."""
    original = DiscreteEventEngine.run
    with mock.patch.object(
        DiscreteEventEngine, "run", autospec=True, side_effect=original
    ) as spy:
        yield spy


def captured(drain, *args, **kwargs):
    """``drain(*args, **kwargs)`` and the obs snapshot it left."""
    with obs.capture() as (registry, _):
        run = drain(*args, **kwargs)
    return run, registry.snapshot(profile=False)


@pytest.fixture(scope="module")
def chip():
    """A calibrated scheme and a small sampled population (16 words)."""
    calibration = calibrate()
    population = CellPopulation.sample(
        72 * 16, TESTCHIP_VARIATION,
        params=calibration.params,
        rolloff_high=calibration.rolloff_high(),
        rolloff_low=calibration.rolloff_low(),
        rng=np.random.default_rng(404),
        r_tr_nominal=PAPER_TARGETS.r_transistor,
    )
    scheme = build_scheme("nondestructive", calibration,
                          PAPER_TARGETS.r_transistor)
    return population, scheme


def fresh_backend(chip, fault_rate):
    """A seeded SECDED backend; words 3 and 11 hold two flips each, so
    reading them retries and loses the word."""
    population, scheme = chip
    array = STTRAMArray(population.subset(np.arange(population.size)))
    memory = EccArray(array)
    retry_policy = RetryPolicy(max_attempts=3, backoff_ns=5.0)
    ladder = RecoveryController(memory, retry_policy, scrub_rounds=1)
    injector = None
    if fault_rate > 0.0:
        injector = FaultInjector(
            list(default_fault_models(fault_rate)), np.random.default_rng(7)
        )
    backend = ArrayBackend(ladder, scheme, np.random.default_rng(29),
                           injector=injector)
    for address in range(backend.size_words):
        backend.write(address, ArrayBackend.payload(address))
    backend.writes = 0
    width = memory.codec.codeword_bits
    for address in (3, 11):
        array._states[address * width] ^= 1
        array._states[address * width + 1] ^= 1
    if injector is not None:
        injector.inject_array(array)
    return backend, retry_policy


def backend_state(backend):
    """Everything a drain may change in a backend."""
    if backend is None:
        return None
    injector = backend.injector
    return (
        backend.rng.bit_generator.state,
        injector.rng.bit_generator.state if injector is not None else None,
        backend.strike_rng.bit_generator.state
        if backend.strike_rng is not None else None,
        backend.memory.memory.array._states.tobytes(),
        backend.memory.policy,
        backend.statistics(),
        backend.drift_offset,
        backend._truth,
    )


def cache_state(cache):
    """A cache's counters, capacity and lines in LRU order."""
    if cache is None:
        return None
    return cache.statistics(), cache.capacity, list(cache._lines)


def journal_state(journal):
    """A journal's records and acknowledgements."""
    if journal is None:
        return None
    return journal._records, journal._acked


@st.composite
def channels(draw):
    """Unsorted integer-time requests, a config, a bank column from a
    random address → bank table and the channel's policy, cache and
    backend choices."""
    banks = draw(st.integers(1, 8))
    read_time = float(draw(st.integers(1, 4)))
    same = draw(st.booleans())
    write_time = read_time if same else float(draw(st.integers(1, 6)))
    # Short horizons and small address spans make queues, coalesced
    # groups, cache hits and repeated words common.
    horizon = draw(st.integers(0, 30))
    span = draw(st.sampled_from([8, 64, 256]))
    size = draw(st.integers(1, 60))
    drawn = draw(st.lists(
        st.tuples(st.integers(0, horizon), st.integers(0, span - 1),
                  st.booleans()),
        min_size=size, max_size=size,
    ))
    requests = [
        Request(index, float(time), address, op=WRITE if write else READ)
        for index, (time, address, write) in enumerate(drawn)
    ]
    table = draw(st.lists(
        st.integers(0, banks - 1), min_size=span, max_size=span
    ))
    config = ControllerConfig(
        read_time, write_time, banks=banks,
        cache_hit_time=float(draw(st.integers(0, 2))),
        batch_limit=draw(st.integers(1, 4)),
        backend_window=draw(st.integers(1, 4)),
        write_buffer_depth=draw(st.integers(0, 3)),
    )
    return dict(
        requests=requests,
        config=config,
        banks=[table[request.address] for request in requests],
        policy=draw(st.sampled_from(POLICIES)),
        capacity=draw(st.sampled_from([4, 1, 0, None])),
        backend=draw(st.sampled_from([0.0, 2e-3, None])),
    )


@given(channels())
def test_calendar_free_drain_equals_the_engine(chip, channel):
    sides = []
    for drain in (drain_channel, engine_drain):
        capacity = channel["capacity"]
        cache = ReadCache(capacity) if capacity is not None else None
        backend = retry_policy = None
        if channel["backend"] is not None:
            backend, retry_policy = fresh_backend(chip, channel["backend"])
        with engine_runs() as spy:
            run, snapshot = captured(
                drain, channel["requests"], channel["config"],
                policy=channel["policy"], cache=cache, backend=backend,
                retry_policy=retry_policy, banks=channel["banks"],
            )
        sides.append((run, snapshot, spy.call_count, backend_state(backend),
                      cache_state(cache)))
    (run, snapshot, calls, backend, cache), expected = sides
    assert calls == 0
    for field in dataclasses.fields(ChannelRun):
        assert getattr(run, field.name) == getattr(expected[0], field.name), (
            field.name
        )
    assert run == expected[0]
    assert snapshot == expected[1]
    assert backend == expected[3]
    assert cache == expected[4]


@st.composite
def hooked_channels(draw):
    """:func:`channels` with every hook drawn too: deadlines, low
    priorities, controller retries, hedging, a failure window, the
    adaptive loop and drift (backed only), and a journal cut short by
    ``until``.  Times stay integers, the loop's knobs scaled to them."""
    channel = draw(channels())
    config = channel["config"]
    horizon = int(max([r.time for r in channel["requests"]], default=0))
    if draw(st.booleans()):
        channel["requests"] = [
            dataclasses.replace(
                request,
                priority=draw(st.integers(0, 1)),
                deadline=request.time + draw(st.sampled_from([0, 1, 3, 8])),
            )
            for request in channel["requests"]
        ]
    channel["config"] = dataclasses.replace(
        config,
        request_retries=draw(st.integers(0, 2)),
        retry_backoff=float(draw(st.integers(0, 3))),
        hedge_after=float(draw(st.sampled_from([0, 1, 2, 5]))),
    )
    hooks = {}
    start = float(draw(st.integers(0, horizon)))
    duration = float(draw(st.integers(1, 20)))
    bank = draw(st.integers(0, config.banks - 1))
    failure = draw(st.sampled_from([None, "stall", "offline", "lockup"]))
    if failure == "stall":
        hooks["failures"] = controller_stall(
            start, duration, float(draw(st.integers(2, 4)))
        )
    elif failure == "offline":
        hooks["failures"] = bank_offline(start, duration, bank=bank)
    elif failure == "lockup":
        hooks["failures"] = sense_amp_lockup(start, duration, bank=bank)
    if channel["backend"] is not None:
        if draw(st.booleans()):
            hooks["slo"] = SLOTarget(float(draw(st.integers(1, 20))), 0.5)
            hooks["line_rate"] = draw(st.sampled_from([0.5, 2.0]))
            burst = float(draw(st.integers(1, 4)))
            hooks["adaptive_config"] = AdaptiveConfig(
                control_interval=float(draw(st.integers(1, 4))),
                window=draw(st.integers(1, 8)),
                min_samples=draw(st.integers(1, 4)),
                scrub_interval=float(draw(st.integers(1, 6))),
                scrub_chunk=draw(st.integers(1, 8)),
                burst=burst,
                low_priority_reserve=burst / 2,
                backpressure_depth=draw(st.integers(1, 4)),
            )
        drift = draw(st.sampled_from([None, "step", "window", "ramp"]))
        if drift == "step":
            hooks["drift"] = sense_amp_drift_step(start, 4e-3)
        elif drift == "window":
            hooks["drift"] = field_disturbance_window(
                start, duration, 3e-3, flip_fraction=0.01
            )
        elif drift == "ramp":
            hooks["drift"] = temperature_ramp(start, duration, 5e-3, steps=3)
    if draw(st.booleans()):
        hooks["journal"] = True
        hooks["until"] = float(draw(st.integers(0, horizon + 10)))
    channel["hooks"] = hooks
    return channel


@given(hooked_channels())
@example(dict(
    # A latched bank serves a coalesced group of three reads: occupied,
    # failed, and not a batch in the obs series.
    requests=[Request(index, 0.0, index) for index in range(4)],
    config=ControllerConfig(1.0, 1.0, banks=1, batch_limit=4),
    banks=[0] * 4, policy=BATCH, capacity=None, backend=None,
    hooks={"failures": sense_amp_lockup(0.0, 20.0)},
))
@example(dict(
    # A read lost on a latched bank, retried and lost again, is
    # unreachable: it never fills the cache, so the later read misses.
    requests=[Request(0, 0.0, 5), Request(1, 30.0, 5)],
    config=ControllerConfig(1.0, 1.0, banks=1, request_retries=1,
                            retry_backoff=1.0),
    banks=[0, 0], policy=FCFS, capacity=4, backend=None,
    hooks={"failures": sense_amp_lockup(0.0, 20.0)},
))
@example(dict(
    # A tight SLO on a backed bank: the adaptive loop engages admission
    # and sheds, low priorities first.
    requests=[Request(i, float(i // 2), i % 16, priority=i % 2)
              for i in range(24)],
    config=ControllerConfig(2.0, 2.0, banks=1),
    banks=[0] * 24, policy=BATCH, capacity=None, backend=0.0,
    hooks={"slo": SLOTarget(1.0, 0.5), "line_rate": 2.0,
           "adaptive_config": AdaptiveConfig(
               control_interval=1.0, window=1, min_samples=1,
               scrub_interval=2.0, scrub_chunk=4, burst=1.0,
               low_priority_reserve=0.5, backpressure_depth=2)},
))
def test_hooked_loop_equals_the_engine(chip, channel):
    """Hooks, hedges, deadlines and controller retries on every policy,
    cache and backend: the loop leaves what the engine-callback
    controller leaves, and never runs the calendar."""
    sides = []
    for drain in (drain_channel, engine_drain):
        capacity = channel["capacity"]
        cache = ReadCache(capacity) if capacity is not None else None
        backend = retry_policy = None
        if channel["backend"] is not None:
            backend, retry_policy = fresh_backend(chip, channel["backend"])
            backend.strike_rng = np.random.default_rng(5)
        hooks = dict(channel["hooks"])
        journal = hooks["journal"] = (
            WriteAheadJournal() if hooks.get("journal") else None
        )
        with engine_runs() as spy:
            run, snapshot = captured(
                drain, channel["requests"], channel["config"],
                policy=channel["policy"], cache=cache, backend=backend,
                retry_policy=retry_policy, banks=channel["banks"], **hooks,
            )
        sides.append((run, snapshot, spy.call_count, backend_state(backend),
                      cache_state(cache), journal_state(journal)))
    (run, snapshot, calls, backend, cache, journal), expected = sides
    assert calls == 0
    for field in dataclasses.fields(ChannelRun):
        assert getattr(run, field.name) == getattr(expected[0], field.name), (
            field.name
        )
    assert snapshot == expected[1]
    assert backend == expected[3]
    assert cache == expected[4]
    assert journal == expected[5]


def test_same_instant_hooks_keep_the_engine_tie_order(chip):
    """A failure onset, an adaptive tick, a drift point, arrivals and a
    group completion all at t = 2: the loop, which assigns every
    sequence number itself, breaks the tie as the engine does — the
    hooks in their order (failures, timers, drift), then the arrivals,
    then the completion armed while they waited."""
    requests = [
        Request(0, 0.0, 0),   # bank 0: its group completes at t = 2
        Request(1, 2.0, 1),   # bank 1: starts at once, under the drift
        Request(2, 2.0, 2),   # bank 0: arrives as the bank goes offline
    ]
    config = ControllerConfig(2.0, 2.0, banks=2)
    hooks = dict(
        failures=bank_offline(2.0, 3.0, bank=0),
        slo=SLOTarget(1.0, 0.5), line_rate=2.0,
        adaptive_config=AdaptiveConfig(
            control_interval=2.0, window=1, min_samples=1,
            scrub_interval=1.0, scrub_chunk=4,
        ),
        drift=sense_amp_drift_step(2.0, 4e-3),
    )
    sides = []
    for drain in (drain_channel, engine_drain):
        backend, retry_policy = fresh_backend(chip, 0.0)
        backend.strike_rng = np.random.default_rng(5)
        run, snapshot = captured(
            drain, requests, config, backend=backend,
            retry_policy=retry_policy, **hooks,
        )
        sides.append((run, snapshot, backend_state(backend)))
    (run, snapshot, backend), expected = sides
    for field in dataclasses.fields(ChannelRun):
        assert getattr(run, field.name) == getattr(expected[0], field.name), (
            field.name
        )
    assert snapshot == expected[1]
    assert backend == expected[2]
    log = run.completions
    order = np.argsort(log.request_id)
    assert log.finish[order][0] == 2.0
    # The bank went offline before its group completed, so request 2
    # waits for the heal; request 1 was read under the drift offset.
    assert log.start[order].tolist() == [0.0, 2.0, 5.0]
    assert log.attempts[order][1] > 1


def loop_drain(requests, config, banks):
    """The second oracle: the channel loop, run directly."""
    controller = MemoryController(config)
    controller.submit_all(requests, banks)
    return ChannelRun(
        policy=FCFS,
        banks=config.banks,
        read_time=config.read_time,
        submitted=controller.submitted,
        completions=controller.run(),
        depth_samples=tuple(controller.depth_samples),
        bank_served=controller.bank_served_counts(),
    )


def array_drain(requests, config, banks):
    """:func:`drain_channel` on a channel it must drain by array passes,
    without the loop."""
    with mock.patch.object(
        MemoryController, "run", side_effect=AssertionError("loop drain")
    ):
        return drain_channel(requests, config, banks=banks)


@st.composite
def fcfs_timing_channels(draw):
    """FCFS timing-only channels without a read cache: up to 200
    requests at integer times over a horizon down to 0 (everything
    arrives at once), ids out of stream order, a bank column drawn per
    request, and read and write times often equal."""
    banks = draw(st.integers(1, 8))
    read_time = float(draw(st.integers(1, 4)))
    same = draw(st.booleans())
    write_time = read_time if same else float(draw(st.integers(1, 6)))
    horizon = draw(st.sampled_from([0, 1, 4, 30, 200]))
    size = draw(st.integers(0, 200))
    drawn = draw(st.lists(
        st.tuples(st.integers(0, horizon), st.integers(0, banks - 1),
                  st.booleans(), st.integers(0, 1)),
        min_size=size, max_size=size,
    ))
    ids = draw(st.permutations(range(len(drawn))))
    requests = [
        Request(rid, float(time), index, op=WRITE if write else READ,
                priority=priority)
        for index, (rid, (time, _, write, priority)) in enumerate(
            zip(ids, drawn)
        )
    ]
    return dict(
        requests=requests,
        config=ControllerConfig(read_time, write_time, banks=banks),
        banks=[bank for _, bank, _, _ in drawn],
    )


@given(fcfs_timing_channels())
@example(dict(requests=[], config=ControllerConfig(1.0, 1.0), banks=[]))
def test_fcfs_timing_drain_equals_the_loop_and_the_engine(channel):
    """Same-instant arrivals and completions everywhere: the array
    passes must rebuild the engine's event order, rows, depth samples
    and obs series included."""
    requests, config, banks = (
        channel["requests"], channel["config"], channel["banks"]
    )
    run, snapshot = captured(array_drain, requests, config, banks)
    for oracle in (loop_drain, engine_drain):
        expected, expected_snapshot = captured(
            oracle, requests, config, banks=banks
        )
        assert run == expected, oracle.__name__
        assert snapshot == expected_snapshot, oracle.__name__


@pytest.mark.parametrize("grid", [False, True], ids=["exact", "whole-ns"])
@pytest.mark.parametrize("rate", [1.5e9, 6e9])
def test_fcfs_timing_drain_on_the_timing_workload(rate, grid):
    """The ``serve_timing_rw`` shape (4x2x4 bank-xor, uniform, half
    writes), below and far past the knee, against the loop drain.  On a
    whole-nanosecond grid ties are everywhere."""
    topology = Topology.parse("4x2x4")
    stream = build_workload(
        rate=rate, addresses=topology.capacity, write_fraction=0.5
    )
    requests = stream.generate(4000, stream_rng(2010, "workload"))
    read_time, write_time = scheme_service_times("nondestructive")
    if grid:
        requests = [
            dataclasses.replace(request, time=float(round(request.time * 1e9)))
            for request in requests
        ]
        read_time = float(round(read_time * 1e9))
        write_time = float(round(write_time * 1e9))
    config = ControllerConfig(
        read_time, write_time, banks=topology.banks_per_channel
    )
    router = ShardRouter(topology, BANK_XOR)
    for shard, banks in zip(*router.split(requests)):
        run, snapshot = captured(array_drain, shard, config, banks)
        assert (run, snapshot) == captured(loop_drain, shard, config, banks)


def test_local_banks_match_local_bank():
    """Both splits' bank columns, from one vectorized decomposition, are
    :meth:`ShardRouter.local_bank` of each address — wrapped addresses
    and a bank count that is not a power of two included."""
    topology = Topology(channels=2, ranks=2, banks=3, rows=8)
    requests = [
        Request(index, 0.0, address)
        for index, address in enumerate(range(0, 4 * topology.capacity, 7))
    ]
    for interleave in (BANK_XOR, ROW_MAJOR):
        router = ShardRouter(topology, interleave)
        for shards, banks in (
            router.split(requests),
            router.split_with_failover(requests, ())[:2],
        ):
            for shard, column in zip(shards, banks):
                assert column == [router.local_bank(r.address) for r in shard]


def _stream():
    return [
        Request(index, float(index // 2), index % 5,
                op=WRITE if index % 3 == 0 else READ)
        for index in range(24)
    ]


def _config(**kwargs):
    kwargs.setdefault("banks", 2)
    return ControllerConfig(2.0, 3.0, **kwargs)


#: name -> (requests, config, drain_channel keywords, backed), each one
#: hook away from a calendar-free run.
HOOKED = {
    "hedging": (_stream(), _config(hedge_after=1.0), {}, False),
    "deadline": (
        [dataclasses.replace(r, deadline=r.time + 3.0) for r in _stream()],
        _config(), {}, False,
    ),
    "failures": (_stream(), _config(),
                 {"failures": controller_stall(2.0, 4.0)}, False),
    "until": (_stream(), _config(), {"until": 5.0}, False),
    "journal": (_stream(), _config(), {"journal": True}, True),
    "request-retries": (_stream(), _config(request_retries=1), {}, True),
    # The adaptive loop ticks every 250 ns: serve this one in nanoseconds.
    "slo": (
        [dataclasses.replace(r, time=r.time * 1e-9) for r in _stream()],
        ControllerConfig(2e-9, 3e-9, banks=2),
        {"slo": SLOTarget(1e-6), "line_rate": 1e9}, True,
    ),
    "drift": (_stream(), _config(),
              {"drift": sense_amp_drift_step(4.0, 1.0e-3)}, True),
}


@pytest.mark.parametrize("name", sorted(HOOKED))
def test_hooked_runs_keep_the_engine(chip, name):
    """A hooked run drains through the loop, its hooks seeded as data on
    the loop's own calendar, and leaves what the oracle leaves; it runs
    neither :meth:`DiscreteEventEngine.run` nor the array passes."""
    requests, config, hooks, backed = HOOKED[name]
    runs = []
    for drain in (drain_channel, engine_drain):
        backend = retry_policy = None
        if backed:
            backend, retry_policy = fresh_backend(chip, 0.0)
            backend.strike_rng = np.random.default_rng(5)
        if "journal" in hooks:
            hooks = dict(hooks, journal=WriteAheadJournal())
        with engine_runs() as spy, mock.patch.object(
            MemoryController, "run", autospec=True,
            side_effect=MemoryController.run,
        ) as loop:
            runs.append(drain(requests, config, backend=backend,
                              retry_policy=retry_policy, **hooks))
        if drain is drain_channel:
            assert (spy.call_count, loop.call_count) == (0, 1)
    assert runs[0] == runs[1]
    assert runs[0].submitted == len(requests)


#: name -> (config, drain_channel keywords) of runs that once needed the
#: engine and now drain without it.
HOOK_FREE = {
    "cache": (_config(), {"cache": ReadCache(4)}),
    "read-priority": (_config(), {"policy": READ_PRIORITY}),
    "batch": (_config(), {"policy": BATCH}),
}


@pytest.mark.parametrize("name", sorted(HOOK_FREE))
def test_hook_free_runs_skip_the_engine(name):
    config, keywords = HOOK_FREE[name]
    requests = _stream()
    with engine_runs() as spy:
        run = drain_channel(requests, config, **keywords)
    assert spy.call_count == 0
    if "cache" in keywords:
        keywords = dict(keywords, cache=ReadCache(4))
    assert run == engine_drain(requests, config, **keywords)


def test_single_bank_hedging_needs_no_engine():
    # Hedging clones onto a sibling bank; with one bank there is none.
    requests = _stream()
    config = _config(banks=1, hedge_after=1.0)
    with engine_runs() as spy:
        run = drain_channel(requests, config)
    assert spy.call_count == 0
    assert run == engine_drain(requests, config)


def test_router_banks_equal_the_bank_map():
    """The split's bank column is each address's local bank, and the
    drain over it is the engine's."""
    topology = Topology(channels=2, ranks=2, banks=2, rows=8)
    router = ShardRouter(topology, BANK_XOR)
    requests = [
        Request(index, float(index % 7), (index * 37) % 200,
                op=WRITE if index % 4 == 0 else READ)
        for index in range(80)
    ]
    config = _config(banks=topology.banks_per_channel)
    for shard, banks in zip(*router.split(requests)):
        assert banks == [router.local_bank(r.address) for r in shard]
        assert drain_channel(shard, config, policy=BATCH, banks=banks) == \
            engine_drain(shard, config, policy=BATCH, banks=banks)


def test_pool_run_equals_sequential_on_the_fast_path():
    requests = [
        Request(index, index * 0.4e-9, (index * 37) % 512,
                op=WRITE if index % 2 else READ)
        for index in range(400)
    ]
    spec = ServeSpec(
        config=ControllerConfig(12.6e-9, 22.0e-9, banks=8),
        topology=Topology(channels=2, ranks=2, banks=4, rows=64),
        interleave=BANK_XOR,
    )
    assert serve(requests, spec, processes=2) == serve(requests, spec)
