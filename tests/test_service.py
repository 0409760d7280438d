"""Tests for the repro.service subsystem: engine, workloads, traces,
controller policies, cache, backed mode, reports, and obs metering."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.service import (
    BATCH,
    FCFS,
    READ_PRIORITY,
    ArrayBackend,
    ControllerConfig,
    DiscreteEventEngine,
    LatencyStats,
    MemoryController,
    MMPPArrivals,
    PoissonArrivals,
    ReadCache,
    Request,
    RequestStream,
    ServeSpec,
    ServiceReport,
    UniformAddresses,
    ZipfianAddresses,
    build_backend,
    build_report,
    build_workload,
    drain_channel,
    find_saturation_rate,
    load_trace,
    publish_report,
    save_trace,
    scheme_service_times,
    serve,
)
from repro.service.workload import WRITE


class TestEngine:
    def test_events_run_in_time_order(self):
        engine = DiscreteEventEngine()
        order = []
        engine.schedule_at(3e-9, order.append, "c")
        engine.schedule_at(1e-9, order.append, "a")
        engine.schedule_at(2e-9, order.append, "b")
        assert engine.run() == 3
        assert order == ["a", "b", "c"]
        assert engine.now == 3e-9
        assert engine.events_processed == 3

    def test_ties_break_by_insertion_order(self):
        engine = DiscreteEventEngine()
        order = []
        for tag in ("first", "second", "third"):
            engine.schedule_at(5e-9, order.append, tag)
        engine.run()
        assert order == ["first", "second", "third"]

    def test_callbacks_can_schedule_more_events(self):
        engine = DiscreteEventEngine()
        seen = []

        def chain(n):
            seen.append(engine.now)
            if n > 0:
                engine.schedule(1e-9, chain, n - 1)

        engine.schedule_at(0.0, chain, 3)
        engine.run()
        assert seen == pytest.approx([0.0, 1e-9, 2e-9, 3e-9])

    def test_past_scheduling_rejected(self):
        engine = DiscreteEventEngine()
        engine.schedule_at(1e-9, lambda: None)
        engine.run()
        with pytest.raises(ConfigurationError):
            engine.schedule_at(0.5e-9, lambda: None)
        with pytest.raises(ConfigurationError):
            engine.schedule(-1e-9, lambda: None)

    def test_run_until_leaves_future_events_pending(self):
        engine = DiscreteEventEngine()
        ran = []
        engine.schedule_at(1e-9, ran.append, 1)
        engine.schedule_at(5e-9, ran.append, 2)
        assert engine.run(until=2e-9) == 1
        assert ran == [1]
        assert engine.run() == 1
        assert ran == [1, 2]

    def test_max_events_bounds_execution(self):
        engine = DiscreteEventEngine()
        for i in range(10):
            engine.schedule_at(i * 1e-9, lambda: None)
        assert engine.run(max_events=4) == 4
        assert engine.run() == 6

    def test_step_on_empty_calendar(self):
        assert DiscreteEventEngine().step() is False


class TestWorkload:
    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            Request(0, 0.0, 0, op="erase")
        with pytest.raises(ConfigurationError):
            Request(0, -1.0, 0)
        with pytest.raises(ConfigurationError):
            Request(0, 0.0, -1)
        for time in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="arrival time"):
                Request(0, time, 0)
        with pytest.raises(ConfigurationError, match="deadline"):
            Request(0, 1e-9, 0, deadline=float("nan"))

    def test_load_trace_rejects_nan_arrival(self, tmp_path):
        path = tmp_path / "nan.jsonl"
        path.write_text('{"id": 0, "t": 1e-9, "addr": 3, "op": "read"}\n'
                        '{"id": 1, "t": NaN, "addr": 4, "op": "read"}\n')
        with pytest.raises(ConfigurationError, match="line 2"):
            load_trace(path)

    def test_poisson_mean_rate(self):
        arrivals = PoissonArrivals(1e8)
        times = arrivals.arrival_times(20000, np.random.default_rng(1))
        assert np.all(np.diff(times) > 0) or np.all(np.diff(times) >= 0)
        empirical = 20000 / times[-1]
        assert empirical == pytest.approx(1e8, rel=0.05)

    def test_mmpp_is_burstier_than_poisson(self):
        rng = np.random.default_rng(2)
        mmpp = MMPPArrivals(on_rate=4e8, off_rate=0.0, mean_on=1e-6, mean_off=1e-6)
        poisson = PoissonArrivals(2e8)
        gaps_b = np.diff(mmpp.arrival_times(8000, rng))
        gaps_p = np.diff(poisson.arrival_times(8000, np.random.default_rng(2)))
        # Same mean rate, but the ON/OFF process has a far heavier
        # inter-arrival coefficient of variation.
        assert mmpp.mean_rate == pytest.approx(2e8)
        cv_b = np.std(gaps_b) / np.mean(gaps_b)
        cv_p = np.std(gaps_p) / np.mean(gaps_p)
        assert cv_b > 1.5 * cv_p

    def test_mmpp_validation(self):
        with pytest.raises(ConfigurationError):
            MMPPArrivals(on_rate=1e8, off_rate=2e8)
        with pytest.raises(ConfigurationError):
            MMPPArrivals(on_rate=0.0)
        for field in ("on_rate", "off_rate", "mean_on", "mean_off"):
            with pytest.raises(ConfigurationError):
                MMPPArrivals(**{"on_rate": 1e8, field: float("nan")})
        with pytest.raises(ConfigurationError):
            MMPPArrivals(on_rate=1e8, mean_on=0.0)

    def test_zipf_concentrates_on_low_addresses(self):
        zipf = ZipfianAddresses(1024, s=1.2)
        uniform = UniformAddresses(1024)
        rng = np.random.default_rng(3)
        z = zipf.draw(20000, rng)
        u = uniform.draw(20000, np.random.default_rng(3))
        assert np.all(z >= 0) and np.all(z < 1024)
        # Address 0 is the hottest and far above the uniform share.
        hottest = np.mean(z == 0)
        assert hottest > 20 * np.mean(u == 0)
        assert np.mean(z) < np.mean(u)

    def test_write_fraction_mix(self):
        stream = RequestStream(
            PoissonArrivals(1e8), UniformAddresses(256), write_fraction=0.3
        )
        requests = stream.generate(5000, np.random.default_rng(4))
        fraction = sum(not r.is_read for r in requests) / len(requests)
        assert fraction == pytest.approx(0.3, abs=0.03)
        assert [r.request_id for r in requests] == list(range(5000))

    def test_build_workload_kinds(self):
        assert isinstance(build_workload("poisson").arrivals, PoissonArrivals)
        bursty = build_workload("bursty", rate=5e7, burst_ratio=4.0)
        assert isinstance(bursty.arrivals, MMPPArrivals)
        assert bursty.arrivals.mean_rate == pytest.approx(5e7)
        assert isinstance(
            build_workload(addressing="zipfian").addresses, ZipfianAddresses
        )
        with pytest.raises(ConfigurationError):
            build_workload("weekly")
        with pytest.raises(ConfigurationError):
            build_workload(addressing="striped")
        with pytest.raises(ConfigurationError):
            build_workload("bursty", burst_ratio=1.0)
        # NaN fails every check instead of reaching the arrival loop.
        for bad in (
            dict(rate=float("nan")),
            dict(kind="bursty", rate=float("nan")),
            dict(kind="bursty", burst_ratio=float("nan")),
            dict(addressing="zipfian", zipf_s=float("nan")),
        ):
            with pytest.raises(ConfigurationError):
                build_workload(**bad)

    def test_generate_count_validated(self):
        stream = build_workload()
        with pytest.raises(ConfigurationError):
            stream.generate(0, np.random.default_rng(0))


class TestTrace:
    def test_round_trip_is_exact(self, tmp_path):
        stream = build_workload(rate=7e7, addresses=512, write_fraction=0.2)
        requests = stream.generate(800, np.random.default_rng(5))
        path = tmp_path / "trace.jsonl"
        assert save_trace(path, requests) == 800
        assert load_trace(path) == requests

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "t": 1e-9, "addr": 3, "op": "read"}\n'
                        '{"id": 1, "addr": 4, "op": "read"}\n')
        with pytest.raises(ConfigurationError, match="line 2"):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"id": 0, "t": 0.0, "addr": 1, "op": "write"}\n\n')
        (request,) = load_trace(path)
        assert request.op == WRITE and request.address == 1


class TestReadCache:
    def test_lru_eviction_order(self):
        cache = ReadCache(2)
        cache.fill(1)
        cache.fill(2)
        assert cache.lookup(1)       # refreshes 1; 2 is now LRU
        cache.fill(3)                # evicts 2
        assert 2 not in cache
        assert 1 in cache and 3 in cache
        assert cache.evictions == 1

    def test_hit_miss_accounting(self):
        cache = ReadCache(4)
        assert not cache.lookup(9)
        cache.fill(9)
        assert cache.lookup(9)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        assert cache.statistics()["lines"] == 1

    def test_invalidate_on_write(self):
        cache = ReadCache(4)
        cache.fill(5, value=123)
        assert cache.peek(5) == 123
        assert cache.invalidate(5)
        assert not cache.invalidate(5)
        assert 5 not in cache

    def test_zero_capacity_disables(self):
        cache = ReadCache(0)
        cache.fill(1)
        assert len(cache) == 0
        assert not cache.lookup(1)
        with pytest.raises(ConfigurationError):
            ReadCache(-1)


def _read(rid, time, address):
    return Request(rid, time, address)


def _write(rid, time, address):
    return Request(rid, time, address, op=WRITE)


def _serve(requests, config, **spec):
    """A flat run: the merged report of the ``1x1xB`` part."""
    return serve(requests, ServeSpec(config=config, **spec)).merged


def _drain(requests, config, **hooks):
    """One channel drained around a backend the test holds on to."""
    run = drain_channel(requests, config, **hooks)
    return build_report(run).check_conservation()


def _config(**kw):
    base = dict(read_time=10e-9, write_time=10e-9, banks=1)
    base.update(kw)
    return ControllerConfig(**base)


class TestControllerPolicies:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(read_time=0.0, write_time=1e-9)
        with pytest.raises(ConfigurationError):
            ControllerConfig(read_time=1e-9, write_time=1e-9, banks=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(read_time=1e-9, write_time=1e-9, batch_limit=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(read_time=1e-9, write_time=1e-9,
                             batch_extra_fraction=1.5)
        with pytest.raises(ConfigurationError):
            MemoryController(_config(), policy="lifo")

    @pytest.mark.parametrize("field", [
        "read_time", "write_time", "cache_hit_time", "retry_backoff",
        "hedge_after",
    ])
    def test_nan_timing_rejected(self, field):
        times = dict(read_time=1e-9, write_time=1e-9)
        times[field] = float("nan")
        with pytest.raises(ConfigurationError, match=field):
            ControllerConfig(**times)

    def test_bank_interleaving_by_modulo(self):
        requests = [_read(i, i * 1e-9, i) for i in range(8)]
        report = _serve(requests, _config(banks=4), policy=FCFS)
        assert report.bank_served == (2, 2, 2, 2)

    def test_fcfs_serves_in_arrival_order(self):
        requests = [
            _read(0, 0.0, 0), _write(1, 1e-9, 0), _read(2, 2e-9, 0),
        ]
        controller = MemoryController(_config(), policy=FCFS)
        controller.submit_all(requests)
        controller.run()
        finished = controller.completions.request_id.tolist()
        assert finished == [0, 1, 2]

    def test_read_priority_overtakes_buffered_write(self):
        # While request 0 occupies the bank, a write and a later read queue
        # up; read-priority serves the read first, FCFS does not.
        requests = [
            _read(0, 0.0, 0), _write(1, 1e-9, 0), _read(2, 2e-9, 0),
        ]
        controller = MemoryController(_config(), policy=READ_PRIORITY)
        controller.submit_all(requests)
        controller.run()
        finished = controller.completions.request_id.tolist()
        assert finished == [0, 2, 1]

    def test_write_buffer_depth_bounds_starvation(self):
        # With more pending writes than the buffer holds, the oldest write
        # is forced out ahead of the waiting reads.
        requests = [
            _read(0, 0.0, 0),
            _write(1, 1e-9, 0), _write(2, 2e-9, 0), _read(3, 3e-9, 0),
        ]
        controller = MemoryController(
            _config(write_buffer_depth=1), policy=READ_PRIORITY
        )
        controller.submit_all(requests)
        controller.run()
        finished = controller.completions.request_id.tolist()
        assert finished[1] == 1  # write 1 forced before read 3

    def test_batch_coalesces_queued_reads(self):
        requests = [_read(0, 0.0, 0)] + [
            _read(i, i * 1e-9, 0) for i in range(1, 5)
        ]
        controller = MemoryController(
            _config(batch_extra_fraction=0.4), policy=BATCH
        )
        controller.submit_all(requests)
        controller.run()
        log = controller.completions
        group = log.request_id > 0
        assert (log.batched_with[group] == 4).all()
        assert log.start[group] == pytest.approx([10e-9] * 4)
        # 4 coalesced reads: read_time * (1 + 3 * 0.4) = 22 ns.
        assert log.finish[group] == pytest.approx([32e-9] * 4)

    def test_batch_limit_respected(self):
        requests = [_read(0, 0.0, 0)] + [
            _read(i, i * 1e-10, 0) for i in range(1, 8)
        ]
        controller = MemoryController(
            _config(batch_limit=3), policy=BATCH
        )
        controller.submit_all(requests)
        controller.run()
        assert controller.completions.batched_with.max() == 3

    def test_cache_hit_bypasses_bank(self):
        requests = [_read(0, 0.0, 7), _read(1, 50e-9, 7)]
        cache = ReadCache(16)
        controller = MemoryController(
            _config(cache_hit_time=1e-9), policy=FCFS, cache=cache
        )
        controller.submit_all(requests)
        controller.run()
        log = controller.completions
        assert log.request_id.tolist() == [0, 1]
        assert log.cache_hit.tolist() == [False, True]
        assert log.finish[1] - log.arrival[1] == pytest.approx(1e-9)
        assert sum(controller.bank_served_counts()) == 1

    def test_write_invalidates_cached_line(self):
        requests = [
            _read(0, 0.0, 7), _write(1, 50e-9, 7), _read(2, 100e-9, 7),
        ]
        cache = ReadCache(16)
        controller = MemoryController(_config(), policy=FCFS, cache=cache)
        controller.submit_all(requests)
        controller.run()
        log = controller.completions
        assert log.request_id.tolist() == [0, 1, 2]
        assert not log.cache_hit[2]  # the write dropped the line
        assert cache.invalidations == 1

    def test_empty_request_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            _serve([], _config())


class TestBackedMode:
    def test_backed_reads_run_the_recovery_ladder(self):
        backend = build_backend("nondestructive", seed=9,
                                bits=4096, fault_rate=1e-3)
        requests = build_workload(
            rate=3e7, addresses=backend.size_words, write_fraction=0.05
        ).generate(300, np.random.default_rng((9, 10)))
        report = _drain(
            requests, _config(banks=4), policy=READ_PRIORITY,
            backend=backend,
        )
        assert report.completed == 300
        assert backend.reads + backend.writes == 300
        # The injected faults force at least one retried word, and every
        # word either recovered or failed loudly — nothing escaped.
        assert report.retried_words > 0
        assert report.corrupted_words == 0

    def test_retries_stretch_the_service_time(self):
        backend = build_backend("nondestructive", seed=9,
                                bits=4096, fault_rate=1e-3)
        requests = [_read(i, i * 200e-9, i) for i in range(backend.size_words)]
        report = _drain(
            requests, _config(banks=1), policy=FCFS,
            backend=backend,
        )
        # Unloaded requests: anything above read_time means attempts > 1
        # extended the occupancy (extra pass + simulated backoff).
        assert report.retried_words > 0
        assert report.read_latency.max > 10e-9

    def test_payload_is_deterministic(self):
        assert ArrayBackend.payload(7) == ArrayBackend.payload(7)
        assert ArrayBackend.payload(7) != ArrayBackend.payload(8)
        assert ArrayBackend.payload(7, data_bits=8) < 256


class TestReports:
    def test_latency_stats_percentiles(self):
        samples = np.arange(1, 1001, dtype=float)
        stats = LatencyStats.from_samples(samples)
        assert stats.count == 1000
        assert stats.mean == pytest.approx(500.5)
        assert stats.p50 == pytest.approx(500.5)
        assert stats.p99 == pytest.approx(990.01)
        assert stats.max == 1000.0
        empty = LatencyStats.from_samples([])
        assert empty.count == 0 and empty.mean == 0.0

    def test_live_and_replayed_runs_compare_equal(self, tmp_path):
        stream = build_workload(rate=6e7, addresses=256, write_fraction=0.1)
        requests = stream.generate(600, np.random.default_rng(11))
        path = tmp_path / "trace.jsonl"
        save_trace(path, requests)
        config = _config(banks=4)
        live = _serve(requests, config, policy=BATCH,
                      scheme="nondestructive", offered_rate=6e7)
        replay = _serve(load_trace(path), config, policy=BATCH,
                        scheme="nondestructive", offered_rate=6e7)
        assert isinstance(live, ServiceReport)
        assert live == replay

    def test_report_totals_reconcile(self):
        stream = build_workload(rate=5e7, addresses=128, write_fraction=0.25)
        requests = stream.generate(400, np.random.default_rng(12))
        report = _serve(requests, _config(banks=4))
        assert report.requests == 400
        assert report.completed == 400
        assert report.reads + report.writes == 400
        assert sum(report.bank_served) == 400
        assert report.throughput > 0
        assert report.duration >= max(r.time for r in requests)
        assert report.read_latency.p999 >= report.read_latency.p99 > 0

    def test_find_saturation_rate_brackets_the_knee(self):
        config = _config(banks=4)

        def sim(rate):
            stream = build_workload(rate=rate, addresses=512)
            requests = stream.generate(800, np.random.default_rng(13))
            return _serve(requests, config, offered_rate=rate)

        knee = find_saturation_rate(sim, low=1e7, high=1e9,
                                    read_time=config.read_time)
        # 4 banks x 10 ns reads: capacity is 4e8; the knee must sit below
        # capacity but well above the trivially light load.
        assert 5e7 < knee < 4e8
        assert sim(knee).read_latency.mean <= 4.0 * config.read_time

    def test_find_saturation_rate_validation(self):
        with pytest.raises(ConfigurationError):
            find_saturation_rate(lambda r: None, low=0.0, high=1.0,
                                 read_time=1e-9)
        with pytest.raises(ConfigurationError):
            find_saturation_rate(lambda r: None, low=2.0, high=1.0,
                                 read_time=1e-9)


class TestSaturationSearch:
    """Corner cases of find_saturation_rate beyond the happy-path knee."""

    @staticmethod
    def _always_fast(calls):
        def sim(rate):
            calls.append(rate)
            return SimpleNamespace(read_latency=SimpleNamespace(mean=0.0))
        return sim

    def test_never_saturating_stops_after_max_expansions(self):
        # low=1, high=2, three doublings: 2 -> 4 -> 8, then give up and
        # report the last sustained low without probing 16.
        calls = []
        knee = find_saturation_rate(
            self._always_fast(calls), low=1.0, high=2.0, read_time=1e-9,
            max_expansions=3,
        )
        assert knee == 8.0
        assert calls == [1.0, 2.0, 4.0, 8.0]

    def test_inverted_and_degenerate_bounds_are_rejected(self):
        for low, high in ((2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)):
            with pytest.raises(ConfigurationError):
                find_saturation_rate(self._always_fast([]), low=low,
                                     high=high, read_time=1e-9)
        with pytest.raises(ConfigurationError):
            find_saturation_rate(self._always_fast([]), low=1.0, high=2.0,
                                 read_time=0.0)

    def test_single_bank_knee_is_below_bank_capacity(self):
        config = _config(banks=1)

        def sim(rate):
            stream = build_workload(rate=rate, addresses=256)
            requests = stream.generate(600, np.random.default_rng(21))
            return _serve(requests, config, offered_rate=rate)

        knee = find_saturation_rate(sim, low=5e6, high=2e8,
                                    read_time=config.read_time)
        # One bank of 10 ns reads caps at 1e8 req/s; a Poisson stream
        # saturates it well before that but far above the light-load floor.
        assert 1e7 < knee < 1e8

    def test_backed_batched_knee_is_sustained(self):
        read_time, write_time = scheme_service_times("nondestructive")
        config = ControllerConfig(read_time=read_time,
                                  write_time=write_time, banks=2)

        def sim(rate):
            stream = build_workload(rate=rate, addresses=32)
            requests = stream.generate(200, np.random.default_rng(22))
            return _serve(
                requests, config, backed=True, seed=77, backend_bits=2304,
                scheme="nondestructive", offered_rate=rate,
            )

        knee = find_saturation_rate(sim, low=1e6, high=4e8,
                                    read_time=read_time)
        assert knee > 1e6
        assert sim(knee).read_latency.mean <= 4.0 * read_time


class TestServiceObservability:
    def test_controller_meters_requests_and_latency(self):
        stream = build_workload(rate=5e7, addresses=64, write_fraction=0.2)
        requests = stream.generate(300, np.random.default_rng(14))
        with obs.capture() as (registry, _):
            report = _serve(requests, _config(banks=2),
                            policy=READ_PRIORITY, cache_capacity=32)
            publish_report(report)
            assert registry.counter("service.requests", op="read") == report.reads
            assert registry.counter("service.completions", op="read") == report.reads
            assert registry.counter("service.completions", op="write") == report.writes
            # Cache hits are latencies too: every completed read lands in
            # the histogram.
            hist = registry.histogram("service.latency_ns", op="read")
            assert hist["count"] == report.reads
            assert registry.counter("service.cache.hits") == report.cache_hits
            depth = registry.histogram("service.queue_depth")
            assert depth["count"] > 0
            gauge = registry.gauge("service.throughput_rps",
                                   scheme="untyped", policy=READ_PRIORITY)
            assert gauge == pytest.approx(report.throughput)

    def test_unmetered_run_is_bit_identical(self):
        stream = build_workload(rate=5e7, addresses=64)
        requests = stream.generate(300, np.random.default_rng(15))
        plain = _serve(requests, _config(banks=2))
        with obs.capture():
            metered = _serve(requests, _config(banks=2))
        assert plain == metered
        assert not obs.active()


class TestSchemeServiceTimes:
    def test_paper_latencies(self):
        read_d, write_d = scheme_service_times("destructive")
        read_n, write_n = scheme_service_times("nondestructive")
        assert read_d == pytest.approx(27e-9, rel=0.05)
        assert read_n == pytest.approx(12.6e-9, rel=0.05)
        assert read_d / read_n > 2.0
        assert write_d == write_n > 0
        with pytest.raises(ConfigurationError):
            scheme_service_times("conventional-ish")
