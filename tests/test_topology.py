"""Topology layer: interleavers, shard routing, merged reports, executors.

The load-bearing properties here are the ones the serving claims stand on:

* every interleaver is a **bijection** on ``[0, capacity)`` (hypothesis
  round-trip plus an exhaustive small-topology permutation check), and
  its vectorized path agrees with the scalar path;
* channel striping spreads Zipf-hot traffic per the **analytic** shares
  from :meth:`ZipfianAddresses.probabilities`, while row-major
  concentrates the same traffic on channel 0;
* a 1×1×B topology run is **exactly** one hand-built
  :func:`~repro.service.controller.drain_channel` — the flat oracle tying
  :func:`~repro.service.topology.serve` back to the single controller,
  with every hook (backend, adaptive loop, drift, failures) in play;
* flat failure kinds strike the channel owning their global bank, and
  every hook composes on a sharded part;
* the multiprocess executor is **bit-identical** to the sequential one
  (the determinism contract in ``docs/TOPOLOGY.md``);
* a merged :class:`~repro.service.report.ChannelRun` sums its channels'
  counters, and a pickled run reports exactly like the original.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ConfigurationError
from repro.service import (
    BANK_XOR,
    CHANNEL_STRIPED,
    INTERLEAVINGS,
    ROW_MAJOR,
    ChannelRun,
    CompletionLog,
    ControllerConfig,
    Coord,
    FailoverStats,
    MemoryController,
    FailureScenario,
    ReadCache,
    Request,
    SLOTarget,
    ServeSpec,
    ShardRouter,
    Topology,
    bank_offline,
    channel_outage,
    controller_stall,
    sense_amp_lockup,
    ZipfianAddresses,
    build_backend,
    build_interleaver,
    build_report,
    build_workload,
    drain_channel,
    publish_topology_report,
    serve,
    shard_seeds,
)
from repro.faults import field_disturbance_window

# Fixed service times: interleaving/merging properties are timing-model
# independent, so skip the calibrated latency stack for speed.
READ_TIME = 12.6e-9
WRITE_TIME = 22.0e-9


def zipf_requests(count=400, addresses=2048, seed=2010, write_fraction=0.0,
                  rate=5.0e7):
    stream = build_workload(
        kind="poisson", addressing="zipfian", rate=rate,
        addresses=addresses, write_fraction=write_fraction,
    )
    return stream.generate(count, np.random.default_rng((seed, 0)))


def topology_config(topology, **kwargs):
    return ControllerConfig(READ_TIME, WRITE_TIME,
                            banks=topology.banks_per_channel, **kwargs)


def run_topology(requests, topology, processes=1, **spec):
    return serve(requests, ServeSpec(
        config=topology_config(topology), topology=topology, **spec,
    ), processes=processes)


topologies = st.builds(
    Topology,
    channels=st.integers(1, 5),
    ranks=st.integers(1, 4),
    banks=st.integers(1, 8),
    rows=st.integers(1, 64),
)


class TestTopology:
    def test_parse_round_trips_describe(self):
        topology = Topology.parse("4x2x8", rows=128)
        assert topology == Topology(channels=4, ranks=2, banks=8, rows=128)
        assert topology.describe() == "4x2x8"
        assert Topology.parse(topology.describe(), rows=128) == topology

    def test_derived_sizes(self):
        topology = Topology(channels=4, ranks=2, banks=4, rows=128)
        assert topology.banks_per_channel == 8
        assert topology.total_banks == 32
        assert topology.capacity == 32 * 128

    @pytest.mark.parametrize("spec", ["abc", "4x2", "4x2x4x1", "", "4x0x2"])
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ConfigurationError):
            Topology.parse(spec)

    @pytest.mark.parametrize(
        "field", ["channels", "ranks", "banks", "rows"]
    )
    def test_rejects_nonpositive_dimensions(self, field):
        with pytest.raises(ConfigurationError):
            Topology(**{field: 0})


def packed(coords, topology):
    """Each coordinate as one row-major integer; a permutation of
    ``[0, capacity)`` exactly when the coordinates are bounded and
    distinct, i.e. when ``decompose`` is a bijection."""
    return (
        (coords.channel * topology.ranks + coords.rank) * topology.banks
        + coords.bank
    ) * topology.rows + coords.row


class TestInterleavers:
    @given(topology=topologies, scheme=st.sampled_from(INTERLEAVINGS),
           data=st.data())
    @settings(max_examples=60)
    def test_round_trip_with_bounded_coordinates(self, topology, scheme, data):
        address = data.draw(st.integers(0, topology.capacity - 1))
        interleaver = build_interleaver(scheme, topology)
        coord = interleaver.decompose(address)
        assert 0 <= coord.channel < topology.channels
        assert 0 <= coord.rank < topology.ranks
        assert 0 <= coord.bank < topology.banks
        assert 0 <= coord.row < topology.rows
        # No other address shares the coordinate: decompose is invertible.
        coords = interleaver.decompose(np.arange(topology.capacity))
        assert np.array_equal(
            np.sort(packed(coords, topology)), np.arange(topology.capacity)
        )
        assert coord == Coord(*(int(axis[address]) for axis in coords))

    @pytest.mark.parametrize("scheme", INTERLEAVINGS)
    def test_vectorized_bijection_matches_scalar(self, scheme):
        topology = Topology(channels=3, ranks=2, banks=4, rows=8)
        interleaver = build_interleaver(scheme, topology)
        addresses = np.arange(topology.capacity)
        coords = interleaver.decompose(addresses)
        # Bijection: every (channel, rank, bank, row) tuple is distinct.
        assert len(np.unique(packed(coords, topology))) == topology.capacity
        for address in (0, 1, topology.capacity // 2, topology.capacity - 1):
            assert interleaver.decompose(address) == Coord(
                *(int(axis[address]) for axis in coords)
            )

    def test_bank_xor_falls_back_for_non_power_of_two_banks(self):
        topology = Topology(channels=2, ranks=1, banks=3, rows=9)
        interleaver = build_interleaver(BANK_XOR, topology)
        coords = interleaver.decompose(np.arange(topology.capacity))
        assert np.array_equal(
            np.sort(packed(coords, topology)), np.arange(topology.capacity)
        )

    def test_channel_striping_spreads_hot_prefix(self):
        # The Zipf-hottest addresses 0..C-1 land on C distinct channels
        # under striping, and all on channel 0 under row-major.
        topology = Topology(channels=4, ranks=1, banks=4, rows=16)
        striped = build_interleaver(CHANNEL_STRIPED, topology)
        row_major = build_interleaver(ROW_MAJOR, topology)
        hot = range(topology.channels)
        assert sorted(int(striped.decompose(a).channel) for a in hot) == [0, 1, 2, 3]
        assert {int(row_major.decompose(a).channel) for a in hot} == {0}

    def test_bank_xor_breaks_same_bank_stride(self):
        # A scan strided by channels*ranks*banks hammers one bank under
        # pure striping; the XOR permutation walks every bank instead.
        topology = Topology(channels=2, ranks=1, banks=4, rows=32)
        stride = topology.channels * topology.ranks * topology.banks
        addresses = np.arange(0, topology.capacity, stride)
        striped = build_interleaver(CHANNEL_STRIPED, topology).decompose(addresses)
        xored = build_interleaver(BANK_XOR, topology).decompose(addresses)
        assert len(set(striped.bank.tolist())) == 1
        assert set(xored.bank.tolist()) == set(range(topology.banks))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            build_interleaver("diagonal", Topology())


class TestZipfianSpread:
    def test_probabilities_normalized_and_consistent_with_cdf(self):
        distribution = ZipfianAddresses(512, s=1.1)
        probabilities = distribution.probabilities()
        assert probabilities.shape == (512,)
        assert probabilities[0] > probabilities[-1] > 0.0
        assert np.isclose(probabilities.sum(), 1.0)
        # probabilities() must agree with the draw stream's pinned CDF.
        assert np.allclose(np.cumsum(probabilities), distribution._cdf())

    def test_striped_channel_shares_match_analytic(self):
        topology = Topology(channels=4, ranks=1, banks=4, rows=128)
        distribution = ZipfianAddresses(topology.capacity, s=1.1)
        draws = distribution.draw(20_000, np.random.default_rng((2010, 4)))
        striped = build_interleaver(CHANNEL_STRIPED, topology)
        channels = striped.decompose(draws % topology.capacity).channel
        empirical = np.bincount(channels, minlength=4) / draws.size
        probabilities = distribution.probabilities()
        analytic = np.array(
            [probabilities[c::topology.channels].sum() for c in range(4)]
        )
        assert np.all(np.abs(empirical - analytic) < 0.02)
        # Striping genuinely spreads the skew: no channel dominates.
        assert analytic.max() < 0.5

    def test_row_major_concentrates_the_same_traffic(self):
        topology = Topology(channels=4, ranks=1, banks=4, rows=128)
        distribution = ZipfianAddresses(topology.capacity, s=1.1)
        probabilities = distribution.probabilities()
        words_per_channel = topology.capacity // topology.channels
        row_major_hot = probabilities[:words_per_channel].sum()
        striped_max = max(
            probabilities[c::topology.channels].sum()
            for c in range(topology.channels)
        )
        # Channel 0 under row-major absorbs the whole hot prefix.
        assert row_major_hot > 0.8
        assert row_major_hot > 2.0 * striped_max


class TestShardRouter:
    def test_split_partitions_and_preserves_order(self):
        requests = zipf_requests(600)
        topology = Topology(channels=4, ranks=2, banks=2, rows=64)
        router = ShardRouter(topology, CHANNEL_STRIPED)
        shards, banks = router.split(requests)
        assert len(shards) == len(banks) == topology.channels
        assert sum(len(shard) for shard in shards) == len(requests)
        for channel, shard in enumerate(shards):
            ids = [request.request_id for request in shard]
            assert ids == sorted(ids)
            for request in shard:
                assert router.channel_of(request.address) == channel
            assert banks[channel] == [
                router.local_bank(request.address) for request in shard
            ]

    def test_local_bank_matches_coordinate(self):
        topology = Topology(channels=2, ranks=2, banks=4, rows=32)
        router = ShardRouter(topology, BANK_XOR)
        for address in range(0, topology.capacity, 7):
            coord = router.coordinate(address)
            local = router.local_bank(address)
            assert local == coord.rank * topology.banks + coord.bank
            assert 0 <= local < topology.banks_per_channel

    def test_addresses_wrap_modulo_capacity(self):
        topology = Topology(channels=3, ranks=1, banks=2, rows=16)
        router = ShardRouter(topology, CHANNEL_STRIPED)
        for address in (0, 5, topology.capacity - 1):
            assert router.coordinate(address + topology.capacity) == \
                router.coordinate(address)


class TestBankMap:
    def test_default_stays_flat_modulo(self):
        config = ControllerConfig(
            read_time=READ_TIME, write_time=WRITE_TIME, banks=4
        )
        controller = MemoryController(config)
        controller.submit_all([Request(0, 0.0, 17)])
        controller.run()
        assert controller.bank_served_counts() == (0, 1, 0, 0)
        assert controller.completions.bank.tolist() == [1]

    def test_bank_column_places_every_row(self):
        """Arrivals, cache hits, hedges and re-queues all run on the bank
        column the stream was submitted with."""
        requests = zipf_requests(300, addresses=64, write_fraction=0.1,
                                 rate=2.0e8)
        banks = [(request.address * 7) % 4 for request in requests]
        config = ControllerConfig(read_time=READ_TIME, write_time=WRITE_TIME,
                                  banks=4, hedge_after=20e-9)
        run = drain_channel(requests, config, policy="batch",
                            cache=ReadCache(8), banks=banks)
        assert run.hedged > 0
        log = run.completions
        assert log.cache_hit.any()
        home = {request.request_id: bank
                for request, bank in zip(requests, banks)}
        for request_id, bank in zip(log.request_id, log.bank):
            assert bank in (home[request_id], (home[request_id] + 1) % 4)
        assert (log.bank != [home[rid] for rid in log.request_id]).any()


def composed_runs():
    """Two drained channels with every counter layer in play: a faulty
    backed array, hedging, controller retries under a sense-amp lockup,
    and the adaptive loop."""
    requests = zipf_requests(300, addresses=256, write_fraction=0.1,
                             rate=2.0e8)
    span = max(r.time for r in requests)
    config = ControllerConfig(read_time=READ_TIME, write_time=WRITE_TIME,
                              banks=2, request_retries=2, hedge_after=20e-9)
    runs = []
    for channel in range(2):
        backend, retry = build_backend("nondestructive", 11 + channel,
                                       bits=2304, fault_rate=1e-3)
        runs.append(drain_channel(
            requests, config, backend=backend, retry_policy=retry,
            failures=sense_amp_lockup(0.2 * span, 0.3 * span, bank=channel),
            slo=SLOTarget(2e-7, guardband=0.6), line_rate=2.0e8,
        ))
    return runs


class TestChannelRun:
    COUNTERS = (
        "retried_words", "failed_words", "corrupted_words", "scrubbed_words",
        "adaptive_actions", "adaptive_alarms", "hedged", "hedge_wins",
        "request_retries",
    )

    def test_merged_counters_equal_channel_sums(self):
        runs = composed_runs()
        merged = ChannelRun.merge(runs)
        for name in self.COUNTERS:
            assert getattr(merged, name) == sum(
                getattr(run, name) for run in runs
            ), name
        for name in ("retried_words", "adaptive_actions", "hedged",
                     "hedge_wins", "request_retries"):
            assert getattr(merged, name) > 0, name
        assert merged.submitted == sum(run.submitted for run in runs)
        assert merged.banks == 4
        assert merged.bank_served == runs[0].bank_served + runs[1].bank_served
        # The logs sit back to back, the second channel's banks after the
        # first channel's.
        first, second = (run.completions for run in runs)
        for field in dataclasses.fields(CompletionLog):
            tail = getattr(second, field.name)
            if field.name == "bank":
                tail = tail + 2
            expected = np.concatenate([getattr(first, field.name), tail])
            column = getattr(merged.completions, field.name)
            assert column.dtype == expected.dtype, field.name
            assert np.array_equal(column, expected), field.name

    def test_pickled_run_reports_identically(self):
        run = composed_runs()[0]
        restored = pickle.loads(pickle.dumps(run))
        assert restored == run
        assert build_report(restored, scheme="nondestructive",
                            offered_rate=2.0e8) == \
            build_report(run, scheme="nondestructive", offered_rate=2.0e8)


class TestShardSeeds:
    def test_deterministic_distinct_and_prefix_stable(self):
        seeds = shard_seeds(2010, 4)
        assert seeds == shard_seeds(2010, 4)
        assert len(set(seeds)) == 4
        # Channel c's seed is independent of the channel count.
        assert shard_seeds(2010, 2) == seeds[:2]
        assert shard_seeds(2011, 4) != seeds

    def test_rejects_nonpositive_channel_count(self):
        with pytest.raises(ConfigurationError):
            shard_seeds(2010, 0)


class TestSimulateTopology:
    def test_single_channel_matches_flat_controller(self):
        # The anchor: a 1x1x4 topology IS the single-controller reference.
        topology = Topology(channels=1, ranks=1, banks=4, rows=512)
        requests = zipf_requests(300, addresses=topology.capacity,
                                 write_fraction=0.2)
        report = run_topology(requests, topology, offered_rate=5.0e7)
        flat = build_report(
            drain_channel(requests, topology_config(topology)),
            offered_rate=5.0e7,
        )
        assert report.merged == flat
        assert report.channel_reports == (flat,)

    def test_flat_spec_is_the_hand_built_channel(self):
        # The flat oracle with every hook in play: a backed 1x1x4 spec
        # under faults, retries, hedging, a lockup, drift strikes, and the
        # adaptive loop is one drain_channel over the run-seeded array.
        topology = Topology(channels=1, ranks=1, banks=4, rows=64)
        requests = zipf_requests(300, addresses=topology.capacity,
                                 write_fraction=0.1, rate=2.0e8)
        span = max(r.time for r in requests)
        config = topology_config(topology, request_retries=2,
                                 hedge_after=20e-9)
        hooks = dict(
            failures=sense_amp_lockup(0.2 * span, 0.3 * span, bank=1),
            slo=SLOTarget(2e-7, guardband=0.6),
            drift=field_disturbance_window(0.25 * span, 0.5 * span, 5e-3,
                                           flip_fraction=0.002),
        )
        report = serve(requests, ServeSpec(
            config=config, topology=topology, scheme="nondestructive",
            offered_rate=2.0e8, fault_rate=1e-3, backend_bits=2304, seed=11,
            **hooks,
        ))
        backend, retry = build_backend("nondestructive", 11, bits=2304,
                                       fault_rate=1e-3)
        flat = build_report(
            drain_channel(requests, config, backend=backend,
                          retry_policy=retry, line_rate=2.0e8, **hooks),
            scheme="nondestructive", offered_rate=2.0e8,
        )
        assert report.merged == flat
        assert report.channel_reports == (flat,)
        assert backend.drift_flips > 0
        for name in ("retried_words", "adaptive_actions", "hedged",
                     "request_retries"):
            assert getattr(flat, name) > 0, name

    def test_composed_sharded_run(self):
        # Every hook on a 2x1x2 part: adaptive loop and drift per channel,
        # controller retries, hedging, and a lockup on global bank 3.
        topology = Topology(channels=2, ranks=1, banks=2, rows=64)
        requests = zipf_requests(400, addresses=topology.capacity,
                                 write_fraction=0.1, rate=2.0e8)
        span = max(r.time for r in requests)
        spec = ServeSpec(
            config=topology_config(topology, request_retries=2,
                                   hedge_after=20e-9),
            topology=topology, scheme="nondestructive", offered_rate=2.0e8,
            backed=True, backend_bits=2304, seed=2011,
            failures=sense_amp_lockup(0.2 * span, 0.3 * span, bank=3),
            slo=SLOTarget(2e-7, guardband=0.6),
            drift=field_disturbance_window(0.25 * span, 0.5 * span, 5e-3,
                                           flip_fraction=0.002),
        )
        report = serve(requests, spec)
        merged = report.merged
        assert merged.requests == len(requests) == (
            merged.completed + merged.shed + merged.timed_out
            + merged.failed_requests
        )
        assert merged.corrupted_words == 0
        for name in ("adaptive_actions", "hedged", "request_retries"):
            assert getattr(merged, name) > 0, name
        # Only channel 1 owns bank 3, so only its reads hit the lockup.
        lockup, healthy = report.channel_reports[1], report.channel_reports[0]
        assert lockup.request_retries > healthy.request_retries
        assert serve(requests, spec) == report
        assert serve(requests, spec, processes=2) == report

    def test_merged_accounting_is_consistent(self):
        topology = Topology(channels=4, ranks=2, banks=2, rows=64)
        requests = zipf_requests(500, write_fraction=0.1)
        report = run_topology(requests, topology, cache_capacity=32,
                              offered_rate=5.0e7)
        merged = report.merged
        assert merged.requests == len(requests)
        assert merged.completed == len(requests)
        assert merged.banks == topology.total_banks
        assert len(merged.bank_served) == topology.total_banks
        assert sum(report.channel_served) == merged.completed
        assert sum(report.rank_served) == sum(merged.bank_served)
        assert len(report.rank_served) == topology.channels * topology.ranks
        assert sum(r.requests for r in report.channel_reports) == len(requests)
        assert sum(r.cache_hits for r in report.channel_reports) == \
            merged.cache_hits
        # Per-channel offered rate is the fair split of the global rate.
        for channel_report in report.channel_reports:
            assert channel_report.offered_rate == pytest.approx(
                5.0e7 / topology.channels
            )

    def test_same_seed_runs_compare_equal(self):
        topology = Topology(channels=2, ranks=1, banks=4, rows=64)
        requests = zipf_requests(200)
        first = run_topology(requests, topology, seed=7)
        second = run_topology(requests, topology, seed=7)
        assert first == second
        assert first.to_dict() == second.to_dict()

    def test_multiprocess_is_bit_identical_to_sequential(self):
        topology = Topology(channels=4, ranks=1, banks=4, rows=64)
        requests = zipf_requests(400, write_fraction=0.1)
        sequential = run_topology(requests, topology, processes=1)
        multiprocess = run_topology(requests, topology, processes=2)
        assert multiprocess == sequential

    def test_backed_multiprocess_bit_identical_and_seed_split(self):
        topology = Topology(channels=2, ranks=1, banks=4, rows=64)
        requests = zipf_requests(120)
        sequential = run_topology(
            requests, topology, scheme="nondestructive",
            fault_rate=1e-3, seed=2010,
        )
        multiprocess = run_topology(
            requests, topology, scheme="nondestructive",
            fault_rate=1e-3, seed=2010, processes=2,
        )
        assert multiprocess == sequential
        assert sequential.merged.retried_words == sum(
            r.retried_words for r in sequential.channel_reports
        )

    def test_interleave_changes_channel_balance(self):
        topology = Topology(channels=4, ranks=1, banks=4, rows=128)
        requests = zipf_requests(800, addresses=topology.capacity)
        striped = run_topology(requests, topology, interleave=CHANNEL_STRIPED)
        row_major = run_topology(requests, topology, interleave=ROW_MAJOR)
        assert max(striped.channel_served) < max(row_major.channel_served)

    def test_validation_errors(self):
        topology = Topology(channels=2, ranks=1, banks=2, rows=16)
        requests = zipf_requests(50)
        with pytest.raises(ConfigurationError):
            run_topology((), topology)
        with pytest.raises(ConfigurationError):
            run_topology(requests, topology, processes=0)
        with pytest.raises(ConfigurationError):
            run_topology(requests, topology, interleave="diagonal")
        with pytest.raises(ConfigurationError):
            run_topology(requests, topology, backed=True)  # no scheme
        with pytest.raises(ConfigurationError):
            run_topology(requests, topology, policy="lifo")


class TestServeSpec:
    def test_defaults_to_the_flat_part_and_pickles(self):
        config = ControllerConfig(READ_TIME, WRITE_TIME, banks=6)
        spec = ServeSpec(config=config)
        assert spec.topology == Topology(channels=1, ranks=1, banks=6)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert not spec.is_backed
        assert ServeSpec(config=config, fault_rate=1e-3,
                         scheme="nondestructive").is_backed

    @pytest.mark.parametrize("fields", [
        dict(cache_capacity=-1),
        dict(fault_rate=-0.1, scheme="nondestructive"),
        dict(fault_rate=2.0, scheme="nondestructive"),
        dict(topology=Topology(channels=2, ranks=1, banks=2)),
        dict(failures=bank_offline(1e-9, 1e-9, bank=4)),
        dict(failures=channel_outage(1e-9, 1e-9, channel=1)),
        dict(offered_rate=float("nan")),
        dict(offered_rate=-1.0e9),
        dict(offered_rate=float("inf")),
        dict(seed=-1),
    ], ids=["negative-cache", "negative-fault-rate", "fault-rate-above-1",
            "banks-mismatch", "bank-out-of-range", "channel-out-of-range",
            "nan-rate", "negative-rate", "infinite-rate", "negative-seed"])
    def test_rejects_contradictions(self, fields):
        with pytest.raises(ConfigurationError):
            ServeSpec(config=ControllerConfig(READ_TIME, WRITE_TIME, banks=4),
                      **fields)


class TestTopologyObs:
    def test_publish_topology_report_gauges(self):
        topology = Topology(channels=2, ranks=2, banks=2, rows=64)
        report = run_topology(
            zipf_requests(200), topology, scheme="nondestructive",
            offered_rate=5.0e7,
        )
        with obs.capture() as (registry, _tracer):
            publish_topology_report(report)
            gauges = registry.snapshot()["gauges"]
        assert gauges["service.topology.channels"] == topology.channels
        assert gauges["service.topology.total_banks"] == topology.total_banks
        for channel in range(topology.channels):
            key = f"service.topology.channel_served{{channel={channel}}}"
            assert gauges[key] == report.channel_served[channel]
        rank_keys = [k for k in gauges if k.startswith(
            "service.topology.rank_served"
        )]
        assert len(rank_keys) == topology.channels * topology.ranks
        # The merged report's plain service.* gauges ride along.
        assert any(k.startswith("service.throughput_rps") for k in gauges)

    def test_publish_is_noop_when_obs_off(self):
        topology = Topology(channels=1, ranks=1, banks=2, rows=32)
        report = run_topology(zipf_requests(40), topology)
        publish_topology_report(report)  # must not raise


class TestSplitOrderPreservation:
    """Sharding must preserve per-channel arrival order — the property
    the engines' deterministic tie-breaking (and thus every merged
    report) stands on, even when addresses repeat within a stream."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=60))
    def test_duplicate_addresses_preserve_arrival_order(self, addresses):
        topology = Topology(channels=4, ranks=1, banks=2, rows=2)
        router = ShardRouter(topology)
        requests = [
            Request(i, i * 1.0e-9, address, "read")
            for i, address in enumerate(addresses)
        ]
        shards, _ = router.split(requests)
        for shard in shards:
            ids = [request.request_id for request in shard]
            assert ids == sorted(ids)
        routed = sorted(r.request_id for shard in shards for r in shard)
        assert routed == list(range(len(requests)))

    def test_failover_split_without_outages_is_plain_split(self):
        topology = Topology(channels=2, ranks=1, banks=2, rows=4)
        router = ShardRouter(topology)
        requests = zipf_requests(80, addresses=topology.capacity,
                                 write_fraction=0.3)
        shards, banks, frontend, stats = router.split_with_failover(
            requests, ()
        )
        assert (shards, banks) == router.split(requests)
        assert len(frontend) == 0
        assert stats == FailoverStats(
            outages=(), unreachable_requests=0, rerouted_writes=0,
            remapped_words=0, restored_words=0, residual_remaps=0,
        )


class TestDegradedModeFailover:
    """Channel-outage failover: writes reroute additively to a surviving
    channel, reads follow the relocated data, detected loss is loud, and
    post-heal writes restore the home mapping."""

    def _router(self):
        topology = Topology(channels=2, ranks=1, banks=2, rows=4)
        router = ShardRouter(topology)
        # An address resident on channel 1, so the outage below hits it.
        address = next(
            a for a in range(topology.capacity) if router.channel_of(a) == 1
        )
        return router, address

    def test_write_reroutes_read_follows_heal_restores(self):
        router, address = self._router()
        outages = ((1, 0.0, 100.0e-9),)
        requests = [
            Request(0, 10.0e-9, address, "write"),    # rerouted to ch 0
            Request(1, 20.0e-9, address, "read"),     # follows the remap
            Request(2, 150.0e-9, address, "write"),   # post-heal: restores
            Request(3, 160.0e-9, address, "read"),    # back home on ch 1
        ]
        shards, banks, frontend, stats = router.split_with_failover(
            requests, outages
        )
        assert [r.request_id for r in shards[0]] == [0, 1]
        assert [r.request_id for r in shards[1]] == [2, 3]
        # A rerouted request keeps its local bank on the fallback channel.
        assert banks == [[router.local_bank(address)] * 2] * 2
        assert len(frontend) == 0
        assert stats.rerouted_writes == 1
        assert stats.remapped_words == 1
        assert stats.restored_words == 1
        assert stats.residual_remaps == 0
        assert stats.unreachable_requests == 0

    def test_read_of_down_resident_data_fails_loudly(self):
        router, address = self._router()
        requests = [Request(0, 10.0e-9, address, "read")]
        shards, banks, frontend, stats = router.split_with_failover(
            requests, ((1, 0.0, 100.0e-9),)
        )
        assert all(not shard for shard in shards)
        assert banks == [[], []]
        assert len(frontend) == 1
        assert frontend.failed[0] and frontend.unreachable[0]
        assert frontend.start[0] == frontend.finish[0] == 10.0e-9
        # Front-end banks are global: channel 1's banks follow channel 0's.
        assert frontend.bank[0] == 2 + router.local_bank(address)
        assert stats.unreachable_requests == 1
        assert stats.rerouted_writes == 0

    def test_write_with_every_channel_down_is_unreachable(self):
        router, address = self._router()
        outages = ((0, 0.0, 100.0e-9), (1, 0.0, 100.0e-9))
        shards, _, frontend, stats = router.split_with_failover(
            [Request(0, 10.0e-9, address, "write")], outages
        )
        assert all(not shard for shard in shards)
        assert frontend.unreachable.tolist() == [True]
        assert stats.unreachable_requests == 1

    def test_outage_channel_range_validated(self):
        router, _ = self._router()
        with pytest.raises(ConfigurationError):
            router.split_with_failover([], ((5, 0.0, 1.0),))

    def test_topology_run_under_outage_conserves(self):
        topology = Topology(channels=2, ranks=1, banks=2, rows=16)
        requests = zipf_requests(300, addresses=topology.capacity,
                                 write_fraction=0.3, rate=2.0e8)
        span = max(r.time for r in requests)
        scenario = channel_outage(0.25 * span, 0.5 * span, channel=1)
        report = run_topology(requests, topology, failures=scenario)
        merged = report.merged
        assert merged.requests == len(requests)
        assert merged.requests == (
            merged.completed + merged.shed + merged.timed_out
            + merged.failed_requests
        )
        assert report.failover is not None
        assert merged.failed_requests == report.failover.unreachable_requests
        assert report.failover.rerouted_writes > 0
        assert report.to_dict()["failover"] is not None

    def test_bank_failure_strikes_only_its_owning_channel(self):
        topology = Topology(channels=2, ranks=1, banks=2, rows=16)
        requests = zipf_requests(200, addresses=topology.capacity,
                                 rate=2.0e8)
        span = max(r.time for r in requests)
        healthy = run_topology(requests, topology)
        # Global bank 2 is channel 1's local bank 0 (channel-major order).
        struck = run_topology(
            requests, topology,
            failures=bank_offline(0.25 * span, 0.5 * span, bank=2),
        )
        assert struck.failover is None
        assert struck.channel_reports[0] == healthy.channel_reports[0]
        assert struck.channel_reports[1] != healthy.channel_reports[1]
        assert struck.merged.completed == len(requests)

    def test_stall_strikes_every_channel(self):
        topology = Topology(channels=2, ranks=1, banks=2, rows=16)
        requests = zipf_requests(200, addresses=topology.capacity,
                                 rate=2.0e8)
        span = max(r.time for r in requests)
        healthy = run_topology(requests, topology)
        stalled = run_topology(
            requests, topology,
            failures=controller_stall(0.25 * span, 0.5 * span),
        )
        for before, after in zip(healthy.channel_reports,
                                 stalled.channel_reports):
            assert after.read_latency.p99 > before.read_latency.p99

    def test_outages_and_bank_failures_compose(self):
        topology = Topology(channels=2, ranks=1, banks=2, rows=16)
        requests = zipf_requests(300, addresses=topology.capacity,
                                 write_fraction=0.3, rate=2.0e8)
        span = max(r.time for r in requests)
        outage = channel_outage(0.25 * span, 0.5 * span, channel=1)
        lockup = sense_amp_lockup(0.2 * span, 0.3 * span, bank=1)
        scenario = FailureScenario(
            "outage+lockup", tuple(sorted(
                outage.events + lockup.events, key=lambda e: e.start
            ))
        )
        report = run_topology(requests, topology, failures=scenario)
        assert report.failover is not None
        assert report.failover == run_topology(
            requests, topology, failures=outage
        ).failover
        assert report.merged.requests == len(requests)
