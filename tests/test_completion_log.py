"""The columnar completion log against the record loop it replaces.

A :class:`~repro.service.report.ChannelRun` holds its terminal requests
as one :class:`~repro.service.report.CompletionLog`.  The properties
here tie the columns back to :class:`tests.oracles.CompletedRequest`
records:

* the log builder every drain records rows through equals
  :func:`tests.oracles.log_of_records` over the same records;
* :func:`~repro.service.report.build_report` over a log (one channel's,
  or :meth:`ChannelRun.merge` of several plus front-end records) equals
  :func:`tests.oracles.record_loop_report` over the records, rebanked
  the way a merge moves them — on random record sets with every flag,
  ``(bank, start)`` ties, equal finishes, low-priority sheds, repeated
  request ids, empty runs and all-shed runs;
* a log is frozen: read-only columns, ``==`` column by column, pickled
  by its columns; it keeps arrays of the right dtype and length as they
  are instead of copying them;
* :meth:`ShardRouter.split`'s sorted cut equals the per-request loop on
  every interleaver;
* :meth:`LatencyStats.from_samples`' one percentile call equals three.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    INTERLEAVINGS,
    ChannelRun,
    CompletionLog,
    LatencyStats,
    Request,
    ShardRouter,
    Topology,
    build_report,
)
from repro.service.report import _LogBuilder
from repro.service.workload import READ, WRITE
from tests.oracles import (
    CompletedRequest,
    log_of_records,
    loop_split,
    record_loop_report,
)

#: Few distinct times, so starts, finishes and arrivals tie often.
TIMES = st.sampled_from([0.0, 1.0e-9, 2.5e-9, 4.0e-9, 12.6e-9])

FLAGS = ("cache_hit", "failed", "shed", "timed_out", "unreachable")


@st.composite
def records(draw, banks, all_shed=False):
    """Terminal records on ``banks`` banks, with repeated request ids."""
    drawn = []
    for _ in range(draw(st.integers(0, 12))):
        arrival = draw(TIMES)
        start = arrival + draw(TIMES)
        flags = {flag: draw(st.booleans()) for flag in FLAGS}
        if all_shed:
            flags["shed"] = True
        drawn.append(CompletedRequest(
            request=Request(
                draw(st.integers(0, 20)), arrival, draw(st.integers(0, 99)),
                op=draw(st.sampled_from((READ, WRITE))),
                priority=draw(st.integers(0, 2)),
            ),
            bank=draw(st.integers(0, banks - 1)),
            start=start,
            finish=start + draw(TIMES),
            batched_with=draw(st.integers(1, 3)),
            attempts=draw(st.integers(1, 4)),
            retries=draw(st.integers(0, 2)),
            **flags,
        ))
    return drawn


@st.composite
def channels(draw):
    """1-4 channel runs with their records, plus front-end records."""
    runs, logged = [], []
    for _ in range(draw(st.integers(1, 4))):
        banks = draw(st.integers(1, 4))
        drawn = draw(records(banks, all_shed=draw(st.booleans())))
        runs.append(ChannelRun(
            policy="fcfs",
            banks=banks,
            read_time=12.6e-9,
            submitted=len(drawn),
            completions=log_of_records(drawn),
            depth_samples=tuple(draw(st.lists(st.integers(0, 5), max_size=6))),
            bank_served=tuple(draw(st.lists(
                st.integers(0, 9), min_size=banks, max_size=banks
            ))),
            retried_words=draw(st.integers(0, 3)),
            hedged=draw(st.integers(0, 3)),
        ))
        logged.append(drawn)
    total = sum(run.banks for run in runs)
    frontend = draw(records(total))
    return runs, logged, frontend


def built(records):
    """``records`` recorded one row each through the log builder."""
    builder = _LogBuilder([record.request for record in records])
    for index, record in enumerate(records):
        builder.add(
            index, record.bank, record.start, record.finish,
            batched_with=record.batched_with, attempts=record.attempts,
            retries=record.retries, cache_hit=record.cache_hit,
            failed=record.failed, shed=record.shed,
            timed_out=record.timed_out, unreachable=record.unreachable,
        )
    return builder.build()


@settings(max_examples=80, deadline=None)
@given(channels(), st.floats(0.0, 3.0e9))
def test_columnar_report_equals_the_record_loop(drawn, rate):
    runs, logged, frontend = drawn
    assert built(frontend) == log_of_records(frontend)
    for run, drawn_records in zip(runs, logged):
        assert built(drawn_records) == run.completions
        assert build_report(run, "nondestructive", rate) == \
            record_loop_report(run, drawn_records, "nondestructive", rate)
    merged = ChannelRun.merge(runs, log_of_records(frontend))
    rebanked, offset = [], 0
    for run, drawn_records in zip(runs, logged):
        rebanked += [
            dataclasses.replace(record, bank=record.bank + offset)
            for record in drawn_records
        ]
        offset += run.banks
    assert merged.banks == offset
    assert merged.submitted == len(rebanked) + len(frontend)
    assert merged.completions == log_of_records(rebanked + frontend)
    assert build_report(merged, "nondestructive", rate) == \
        record_loop_report(merged, rebanked + frontend, "nondestructive", rate)


@settings(max_examples=30, deadline=None)
@given(records(4), records(4), records(4))
def test_then_appends_restart_and_lost_rows(first, later, lost):
    def run_of(drawn):
        return ChannelRun(
            policy="fcfs", banks=4, read_time=1.0e-9, submitted=len(drawn),
            completions=log_of_records(drawn),
            depth_samples=(), bank_served=(0, 0, 0, 0),
        )

    joined = run_of(first).then(run_of(later), log_of_records(lost))
    assert joined.submitted == len(first)
    assert joined.completions == log_of_records(first + later + lost)


class TestCompletionLog:
    def _log(self):
        request = Request(7, 1.0e-9, 3, op=WRITE, priority=1)
        return log_of_records([
            CompletedRequest(request, bank=2, start=2.0e-9, finish=5.0e-9),
            CompletedRequest(request, bank=1, start=1.0e-9, finish=1.0e-9,
                             shed=True, attempts=3, retries=1),
        ])

    def test_rows_hold_request_and_record_fields(self):
        log = self._log()
        assert len(log) == 2
        assert log.request_id.tolist() == [7, 7]
        assert log.arrival.tolist() == [1.0e-9, 1.0e-9]
        assert log.is_read.tolist() == [False, False]
        assert log.priority.tolist() == [1, 1]
        assert log.bank.tolist() == [2, 1]
        assert log.finish.tolist() == [5.0e-9, 1.0e-9]
        assert log.shed.tolist() == [False, True]
        assert log.attempts.tolist() == [1, 3]
        assert log.retries.tolist() == [0, 1]

    def test_scalar_columns_hold_for_every_row(self):
        log = CompletionLog(
            request_id=[0, 1], arrival=[0.0, 1.0e-9], is_read=[True, False],
            priority=0, bank=[0, 1], start=[0.0, 1.0e-9], finish=5.0e-9,
            unreachable=True,
        )
        assert log.finish.tolist() == [5.0e-9, 5.0e-9]
        assert log.unreachable.tolist() == [True, True]
        assert log.batched_with.tolist() == [1, 1]
        assert log.is_read.tolist() == [True, False]

    def test_frozen_columns_compare_and_pickle(self):
        log = self._log()
        with pytest.raises(ValueError):
            log.bank[0] = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            log.bank = np.zeros(2, dtype=np.int64)
        restored = pickle.loads(pickle.dumps(log))
        assert restored == log
        assert not restored.finish.flags.writeable
        moved = CompletionLog.concat([log], [1])
        assert moved != log
        assert moved.bank.tolist() == [3, 2]

    def test_owned_columns_are_kept_not_copied(self):
        ids = np.array([4, 5], dtype=np.int64)
        finish = np.array([1.0e-9, 2.0e-9])
        banks = [0, 1]
        log = CompletionLog(
            request_id=ids, arrival=0.0, is_read=True, priority=0,
            bank=banks, start=np.zeros(2, dtype=np.float32), finish=finish,
        )
        assert log.request_id is ids and log.finish is finish
        assert not ids.flags.writeable
        # A list, a scalar or another dtype is converted into a new column.
        assert log.bank.dtype == np.int64 and log.bank.tolist() == banks
        assert log.start.dtype == np.float64
        assert log.arrival.tolist() == [0.0, 0.0]

    def test_empty_log(self):
        empty = log_of_records([])
        assert len(empty) == 0
        assert empty == CompletionLog.concat([empty, empty], [0, 4])
        assert empty != self._log()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(INTERLEAVINGS),
    st.tuples(st.integers(1, 4), st.integers(1, 2), st.integers(1, 4)),
    st.lists(st.integers(0, 10_000), max_size=80),
)
def test_sorted_split_equals_the_loop(interleave, shape, addresses):
    channels, ranks, banks = shape
    router = ShardRouter(
        Topology(channels=channels, ranks=ranks, banks=banks, rows=8),
        interleave,
    )
    requests = [
        Request(index, index * 1.0e-9, address)
        for index, address in enumerate(addresses)
    ]
    assert router.split(requests) == loop_split(router, requests)


def test_one_percentile_call_equals_three():
    rng = np.random.default_rng(2013)
    for _ in range(300):
        size = int(np.exp(rng.uniform(0.0, np.log(1.0e4))))
        samples = rng.lognormal(-18.0, rng.uniform(0.1, 2.0), size)
        if rng.random() < 0.3:
            samples = np.round(samples, 10)  # repeated values
        stats = LatencyStats.from_samples(samples)
        assert (stats.p50, stats.p99, stats.p999) == tuple(
            float(np.percentile(samples, q)) for q in (50.0, 99.0, 99.9)
        )
