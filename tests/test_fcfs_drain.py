"""The calendar-free FCFS drain against the event engine it replaces.

:func:`~repro.service.controller.drain_channel` drains a hook-free FCFS
timing run without the :class:`DiscreteEventEngine`.  The engine stays
the general path, so here it is the oracle: an engine-driven
:class:`MemoryController` over the same requests must leave the same
:class:`ChannelRun` field for field and the same ``repro.obs`` series.
Integer arrival and service times make same-instant arrivals and
completions common, so the tie order is exercised, not just the sums.
"""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.service import (
    BANK_XOR,
    BATCH,
    FCFS,
    READ_PRIORITY,
    ROW_MAJOR,
    ChannelRun,
    CompletionLog,
    ControllerConfig,
    DiscreteEventEngine,
    MemoryController,
    ReadCache,
    Request,
    ServeSpec,
    ShardRouter,
    Topology,
    controller_stall,
    drain_channel,
    serve,
)
from repro.service.workload import READ, WRITE


@contextlib.contextmanager
def engine_runs():
    """Count :meth:`DiscreteEventEngine.run` calls inside the block."""
    original = DiscreteEventEngine.run
    with mock.patch.object(
        DiscreteEventEngine, "run", autospec=True, side_effect=original
    ) as spy:
        yield spy


def engine_drain(requests, config, bank_map=None) -> ChannelRun:
    """The oracle: the same run on an engine-driven controller."""
    engine = DiscreteEventEngine()
    controller = MemoryController(engine, config, bank_map=bank_map)
    controller.submit_all(requests)
    engine.run()
    return ChannelRun(
        policy=FCFS,
        banks=config.banks,
        read_time=config.read_time,
        submitted=controller.submitted,
        completions=CompletionLog.from_records(controller.completions),
        depth_samples=tuple(controller.depth_samples),
        bank_served=controller.bank_served_counts(),
    )


def captured(drain, *args, **kwargs):
    """``drain(*args, **kwargs)`` and the obs snapshot it left."""
    with obs.capture() as (registry, _):
        run = drain(*args, **kwargs)
    return run, registry.snapshot(profile=False)


def _router_map(interleave, ranks):
    """A channel-local bank map over a two-channel part."""
    def build(banks_per_rank):
        topology = Topology(channels=2, ranks=ranks, banks=banks_per_rank,
                            rows=8)
        return ShardRouter(topology, interleave).local_bank
    return build


#: name -> (banks per rank -> bank_map, ranks per channel).
BANK_MAPS = {
    "modulo": (lambda banks: None, 1),
    "bank-xor": (_router_map(BANK_XOR, 1), 1),
    "row-major": (_router_map(ROW_MAJOR, 1), 1),
    "two-ranks": (_router_map(BANK_XOR, 2), 2),
    "custom": (lambda banks: (lambda address: (3 * address + 1) % banks), 1),
}


@st.composite
def channels(draw):
    """Unsorted integer-time requests, a config and a bank map."""
    kind = draw(st.sampled_from(sorted(BANK_MAPS)))
    build_map, ranks = BANK_MAPS[kind]
    per_rank = draw(st.integers(1, 8 // ranks))
    read_time = float(draw(st.integers(1, 4)))
    same = draw(st.booleans())
    write_time = read_time if same else float(draw(st.integers(1, 6)))
    drawn = draw(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 255), st.booleans()),
        min_size=1, max_size=60,
    ))
    requests = [
        Request(index, float(time), address, op=WRITE if write else READ)
        for index, (time, address, write) in enumerate(drawn)
    ]
    config = ControllerConfig(read_time, write_time, banks=ranks * per_rank)
    return requests, config, build_map(per_rank)


@given(channels())
def test_calendar_free_drain_equals_the_engine(channel):
    requests, config, bank_map = channel
    with engine_runs() as spy:
        run, snapshot = captured(drain_channel, requests, config,
                                 bank_map=bank_map)
    assert spy.call_count == 0
    expected, expected_snapshot = captured(engine_drain, requests, config,
                                           bank_map)
    for field in dataclasses.fields(ChannelRun):
        assert getattr(run, field.name) == getattr(expected, field.name), (
            field.name
        )
    assert run == expected
    assert snapshot == expected_snapshot


def test_local_banks_match_local_bank():
    topology = Topology(channels=2, ranks=2, banks=3, rows=8)
    addresses = list(range(0, 4 * topology.capacity, 7))
    for interleave in (BANK_XOR, ROW_MAJOR):
        router = ShardRouter(topology, interleave)
        vector = router.local_banks(np.asarray(addresses, dtype=np.int64))
        assert vector.tolist() == [router.local_bank(a) for a in addresses]


def _stream():
    return [
        Request(index, float(index // 2), index % 5,
                op=WRITE if index % 3 == 0 else READ)
        for index in range(24)
    ]


def _config(**kwargs):
    kwargs.setdefault("banks", 2)
    return ControllerConfig(2.0, 3.0, **kwargs)


#: name -> (requests, config, drain_channel keywords), each one argument
#: away from the hook-free FCFS timing run.
INELIGIBLE = {
    "cache": (_stream(), _config(), {"cache": ReadCache(4)}),
    "hedging": (_stream(), _config(hedge_after=1.0), {}),
    "deadline": (
        [dataclasses.replace(r, deadline=r.time + 3.0) for r in _stream()],
        _config(), {},
    ),
    "failures": (_stream(), _config(),
                 {"failures": controller_stall(2.0, 4.0)}),
    "read-priority": (_stream(), _config(), {"policy": READ_PRIORITY}),
    "batch": (_stream(), _config(), {"policy": BATCH}),
    "until": (_stream(), _config(), {"until": 5.0}),
}


@pytest.mark.parametrize("name", sorted(INELIGIBLE))
def test_hooked_runs_keep_the_engine(name):
    requests, config, hooks = INELIGIBLE[name]
    with engine_runs() as spy:
        run = drain_channel(requests, config, **hooks)
    assert spy.call_count == 1
    assert run.submitted == len(requests)


def test_single_bank_hedging_needs_no_engine():
    # Hedging clones onto a sibling bank; with one bank there is none.
    requests = _stream()
    config = _config(banks=1, hedge_after=1.0)
    with engine_runs() as spy:
        run = drain_channel(requests, config)
    assert spy.call_count == 0
    assert run == engine_drain(requests, config)


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
