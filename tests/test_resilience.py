"""Resilience layer: structural failures, deadlines, hedging, journal.

The load-bearing properties:

* failure-scenario geometry draws only from the **reserved** ``(seed, 7)``
  stream and is deterministic — the same seed rebuilds the same calendar,
  which is what makes ``repro serve --failures ... --check`` pass;
* the conservation invariant
  ``requests == completed + shed + timed_out + failed`` holds under every
  scenario — nothing escapes the accounting silently;
* deadlines bound *service start* (an expired request never occupies a
  bank), hedge twins never complete twice, and the controller retry
  budget terminates in an ``unreachable`` record, never a hang;
* the write-ahead journal replays acknowledged writes **bit-exactly**
  after a mid-trace ``crash-restart`` failure served by :func:`serve`,
  and the chaos campaign gates all of the above
  (:func:`run_chaos_campaign`).
"""

from __future__ import annotations

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ConfigurationError, FaultError
from repro.faults.drift import sense_amp_drift_step
from repro.service import (
    BANK_XOR,
    CHAOS_SCENARIOS,
    FAILURE_KINDS,
    ChaosRow,
    ControllerConfig,
    FailureEvent,
    FailureScenario,
    JournalRecord,
    MemoryController,
    Request,
    ServeSpec,
    ShardRouter,
    SLOTarget,
    Topology,
    WriteAheadJournal,
    bank_offline,
    build_failure_scenario,
    build_workload,
    channel_outage,
    controller_stall,
    crash_restart,
    drain_channel,
    load_trace,
    run_chaos_campaign,
    save_trace,
    scheme_service_times,
    sense_amp_lockup,
    serve,
)
from repro.service.topology import _drain_shard

# Fixed service times: resilience properties are timing-model independent,
# so skip the calibrated latency stack for speed (same idiom as
# tests/test_topology.py).
READ_TIME = 12.6e-9
WRITE_TIME = 22.0e-9


def _config(**kwargs) -> ControllerConfig:
    kwargs.setdefault("banks", 4)
    return ControllerConfig(READ_TIME, WRITE_TIME, **kwargs)


def _serve(requests, config, **spec):
    """A flat run: the merged report of the ``1x1xB`` part."""
    return serve(requests, ServeSpec(config=config, **spec)).merged


def _requests(count=200, rate=2.0e8, addresses=256, write_fraction=0.0,
              seed=2010):
    stream = build_workload(
        rate=rate, addresses=addresses, write_fraction=write_fraction,
    )
    return stream.generate(count, np.random.default_rng((seed, 0)))


def _with_deadline(requests, slack):
    return [
        dataclasses.replace(request, deadline=request.time + slack)
        for request in requests
    ]


def _span(requests) -> float:
    return max(request.time for request in requests)


class TestFailureEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureEvent("meteor-strike", 0.0, 1.0)

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            FailureEvent("bank-offline", -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            FailureEvent("bank-offline", 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            FailureEvent("bank-offline", 0.0, 1.0, target=-1)
        for start, duration in ((float("nan"), 1.0), (0.0, float("nan"))):
            with pytest.raises(ConfigurationError):
                FailureEvent("bank-offline", start, duration)

    def test_stall_needs_inflation(self):
        with pytest.raises(ConfigurationError):
            FailureEvent("controller-stall", 0.0, 1.0, stall_factor=1.0)
        with pytest.raises(ConfigurationError):
            FailureEvent("controller-stall", 0.0, 1.0, stall_factor=float("nan"))
        event = FailureEvent("controller-stall", 1.0, 2.0, stall_factor=4.0)
        assert event.end == pytest.approx(3.0)

    def test_scenario_validation(self):
        event = FailureEvent("bank-offline", 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            FailureScenario("", (event,))
        with pytest.raises(ConfigurationError):
            FailureScenario("empty", ())
        late = FailureEvent("bank-offline", 0.5, 1.0)
        with pytest.raises(ConfigurationError):
            FailureScenario("unordered", (event, late))

    def test_kinds_and_outage_windows(self):
        scenario = FailureScenario("mixed", (
            FailureEvent("channel-outage", 1.0, 2.0, target=1),
            FailureEvent("bank-offline", 2.0, 1.0, target=0),
            FailureEvent("channel-outage", 5.0, 1.0, target=0),
        ))
        assert scenario.kinds == ("channel-outage", "bank-offline")
        assert scenario.outage_windows() == ((1, 1.0, 3.0), (0, 5.0, 6.0))


class TestScenarioBuilders:
    def test_geometry_is_deterministic(self):
        first = build_failure_scenario("bank-offline", 1e-6, seed=7)
        second = build_failure_scenario("bank-offline", 1e-6, seed=7)
        assert first == second
        assert first != build_failure_scenario("bank-offline", 1e-6, seed=8)

    def test_all_kinds_share_one_window_per_seed(self):
        # Three draws regardless of kind: every scenario under one seed
        # gets the identical window, so comparisons isolate the kind.
        spans = [
            build_failure_scenario(name, 1e-6, seed=11, channels=4)
            for name in FAILURE_KINDS
        ]
        starts = {scenario.events[0].start for scenario in spans}
        durations = {scenario.events[0].duration for scenario in spans}
        assert len(starts) == 1 and len(durations) == 1

    def test_window_lands_mid_trace(self):
        scenario = build_failure_scenario("controller-stall", 1e-6, seed=3)
        (event,) = scenario.events
        assert 0.25e-6 <= event.start <= 0.40e-6
        assert 0.25e-6 <= event.duration <= 0.40e-6

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            build_failure_scenario("bank-offline", 0.0)
        with pytest.raises(ConfigurationError):
            build_failure_scenario("crash-restart", 1e-6)

    def test_builders_produce_single_window_scenarios(self):
        assert controller_stall(1.0, 2.0).kinds == ("controller-stall",)
        assert bank_offline(1.0, 2.0, bank=3).events[0].target == 3
        assert sense_amp_lockup(1.0, 2.0).kinds == ("sense-lockup",)
        assert channel_outage(1.0, 2.0, channel=1).outage_windows() == (
            (1, 1.0, 3.0),
        )


class TestInstallFailures:
    def test_each_window_schedules_onset_and_heal(self):
        scenario = bank_offline(1.0e-6, 1.0e-6, bank=2)
        assert scenario.transitions(4) == (
            (1.0e-6, "bank-offline", 2, True),
            (2.0e-6, "bank-online", 2, False),
        )
        with obs.capture() as (registry, _):
            drain_channel([Request(0, 0.0, 2)], _config(), failures=scenario)
        counters = registry.snapshot(profile=False)["counters"]
        for kind in ("bank-offline", "bank-online"):
            assert counters[f"service.failures.events{{kind={kind}}}"] == 1

    def test_scenario_splits_by_owning_channel(self):
        stall = FailureEvent("controller-stall", 1.0, 1.0, stall_factor=4.0)
        offline = FailureEvent("bank-offline", 2.0, 1.0, target=5)
        outage = FailureEvent("channel-outage", 3.0, 1.0, target=1)
        scenario = FailureScenario("mixed", (stall, offline, outage))
        assert scenario.on_channel(0, 4).events == (stall,)
        assert scenario.on_channel(1, 4).events == (
            stall, dataclasses.replace(offline, target=1),
        )
        # One channel owns every bank: the scenario minus its outages.
        assert scenario.on_channel(0, 8).events == (stall, offline)
        assert FailureScenario("o", (outage,)).on_channel(0, 4) is None

    def test_channel_outage_rejected_on_flat_controller(self):
        with pytest.raises(ConfigurationError, match="topology"):
            drain_channel(_requests(10), _config(),
                          failures=channel_outage(1.0, 1.0))


class TestControllerStall:
    def test_stall_inflates_latency_and_conserves(self):
        requests = _requests(300)
        baseline = _serve(requests, _config())
        scenario = build_failure_scenario(
            "controller-stall", _span(requests), seed=2010
        )
        stalled = _serve(requests, _config(), failures=scenario)
        assert stalled.requests == stalled.completed == baseline.completed
        assert stalled.read_latency.p99 > baseline.read_latency.p99
        assert stalled.timed_out == stalled.failed_requests == 0

    def test_stall_factor_validated(self):
        for factor in (0.0, float("nan")):
            with pytest.raises(ConfigurationError):
                drain_channel(_requests(10), _config(), failures=controller_stall(
                    1.0e-9, 1.0e-9, stall_factor=factor
                ))


class TestDeadlines:
    def test_expired_requests_drop_instead_of_serving(self):
        requests = _with_deadline(_requests(300), 25.0 * READ_TIME)
        scenario = build_failure_scenario(
            "controller-stall", _span(requests), seed=2010
        )
        report = _serve(requests, _config(), failures=scenario)
        assert report.timed_out > 0
        assert report.requests == report.completed + report.timed_out
        assert report.availability < 1.0

    def test_loose_deadlines_change_nothing(self):
        requests = _requests(200)
        baseline = _serve(requests, _config())
        relaxed = _serve(
            _with_deadline(requests, 1.0), _config()
        )
        assert relaxed.timed_out == 0
        assert relaxed.completed == baseline.completed
        assert relaxed.read_latency == baseline.read_latency

    def test_timeout_records_never_occupy_a_bank(self):
        controller = MemoryController(_config(banks=1))
        # Two reads on one bank: the second's deadline expires while the
        # first is in service, so it must drop at dequeue with
        # start == finish (no occupancy) rather than being served late.
        controller.submit_all([
            Request(0, 0.0, 0, "read"),
            Request(1, 0.0, 1, "read", deadline=0.5 * READ_TIME),
        ])
        controller.run()
        log = controller.completions
        assert log.request_id.tolist() == [0, 1]
        assert log.timed_out.tolist() == [False, True]
        assert log.start[1] == log.finish[1]

    def test_negative_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            Request(0, 0.0, 0, "read", deadline=-1.0)


class TestBankOffline:
    def test_outage_queues_then_drains(self):
        requests = _requests(300)
        scenario = build_failure_scenario(
            "bank-offline", _span(requests), seed=2010
        )
        (event,) = scenario.events
        report = _serve(requests, _config(), failures=scenario)
        assert report.completed == report.requests
        assert report.read_latency.max >= event.duration * 0.5

    def test_no_service_starts_during_the_window(self):
        log = drain_channel([
            Request(0, 2.0e-9, 0, "read"),   # bank 0: must wait for heal
            Request(1, 2.0e-9, 1, "read"),   # bank 1: unaffected
        ], _config(banks=2), failures=bank_offline(1.0e-9, 100.0e-9, bank=0),
        ).completions
        assert log.request_id.tolist() == [1, 0]
        assert log.start == pytest.approx([2.0e-9, 101.0e-9])

    def test_bank_index_validated(self):
        for scenario in (bank_offline(1.0e-9, 1.0e-9, bank=9),
                         sense_amp_lockup(1.0e-9, 1.0e-9, bank=4)):
            with pytest.raises(ConfigurationError, match="out of range"):
                drain_channel(_requests(10), _config(), failures=scenario)


class TestSenseLockup:
    def test_locked_reads_are_detected_losses(self):
        log = drain_channel([
            Request(0, 1.0e-9, 0, "read"),    # in the window: lost loudly
            Request(1, 60.0e-9, 0, "read"),   # after release: clean
        ], _config(banks=2), failures=sense_amp_lockup(0.0, 50.0e-9, bank=0),
        ).completions
        assert log.request_id.tolist() == [0, 1]
        assert log.failed.tolist() == [True, False]
        assert not log.unreachable.any()

    def test_retry_budget_rides_out_the_window(self):
        config = _config(
            banks=2, request_retries=1, retry_backoff=100.0e-9
        )
        # The first attempt lands in the window and fails; the backoff
        # pushes the retry past the release, where it succeeds.
        run = drain_channel([Request(0, 1.0e-9, 0, "read")], config,
                            failures=sense_amp_lockup(0.0, 50.0e-9, bank=0))
        log = run.completions
        assert len(log) == 1
        assert not log.failed[0]
        assert log.retries[0] == 1
        assert run.request_retries == 1

    def test_exhausted_budget_is_terminal_unreachable(self):
        config = _config(banks=2, request_retries=1, retry_backoff=1.0e-9)
        log = drain_channel([Request(0, 1.0e-9, 0, "read")], config,
                            failures=sense_amp_lockup(0.0, 1.0e-3, bank=0),
                            ).completions
        assert len(log) == 1
        assert log.unreachable[0] and log.failed[0]
        assert log.retries[0] == 1


class TestHedgedReads:
    def test_hedge_rides_around_a_dead_bank(self):
        config = _config(banks=2, hedge_after=5.0e-9)
        run = drain_channel([Request(0, 1.0e-9, 0, "read")], config,
                            failures=bank_offline(0.0, 1.0e-6, bank=0))
        log = run.completions
        assert len(log) == 1
        assert log.bank[0] == 1          # served by the hedge twin
        assert log.finish[0] < 1.0e-6    # long before the heal
        assert run.hedged == 1
        assert run.hedge_wins == 1

    def test_no_request_completes_twice(self):
        requests = _requests(300)
        scenario = build_failure_scenario(
            "bank-offline", _span(requests), seed=2010
        )
        report = _serve(
            requests, _config(hedge_after=10.0 * READ_TIME),
            failures=scenario,
        )
        assert report.requests == report.completed
        assert report.hedged >= report.hedge_wins

    def test_idle_hedge_never_fires(self):
        # An unloaded run finishes every read before the hedge timer.
        report = _serve(
            _requests(100, rate=1.0e6), _config(hedge_after=50.0 * READ_TIME)
        )
        assert report.hedged == 0


class _StubBackend:
    """Minimal write/replay surface for journal unit tests."""

    def __init__(self):
        self.values = {}
        self.writes = 0

    def write(self, address, value):
        self.values[address] = value
        self.writes += 1


class TestWriteAheadJournal:
    def test_append_acknowledge_partition(self):
        journal = WriteAheadJournal()
        assert journal.append(0, 5, 111, 1.0e-9) == 0
        assert journal.append(1, 6, 222, 2.0e-9) == 1
        journal.acknowledge(0, 3.0e-9)
        assert journal.appended == 2 and journal.acknowledged == 1
        assert [r.request_id for r in journal.acknowledged_records()] == [0]
        assert [r.request_id for r in journal.unacknowledged_records()] == [1]

    def test_replay_applies_only_acked_in_order(self):
        journal = WriteAheadJournal()
        journal.append(0, 5, 111, 1.0e-9)
        journal.append(1, 5, 222, 2.0e-9)   # same address, later write
        journal.append(2, 6, 333, 3.0e-9)   # never acknowledged
        journal.acknowledge(0, 4.0e-9)
        journal.acknowledge(1, 5.0e-9)
        backend = _StubBackend()
        backend.writes = 7
        assert journal.replay(backend) == 2
        assert backend.values == {5: 222}   # append order won
        assert backend.writes == 7          # replay is not workload traffic

    def test_record_validation(self):
        with pytest.raises(ConfigurationError):
            JournalRecord(-1, 0, 0, 0, 0.0)
        with pytest.raises(ConfigurationError):
            JournalRecord(0, 0, 0, -5, 0.0)


def _crash_spec(requests, **spec):
    """A backed spec whose power drops halfway through ``requests``."""
    spec.setdefault("config", _config())
    spec.setdefault("failures", crash_restart(0.5 * _span(requests)))
    spec.setdefault("backend_bits", 720)
    return ServeSpec(scheme="nondestructive", backed=True, **spec)


class TestCrashRestart:
    @pytest.fixture(scope="class")
    def served(self):
        # 2304 bits leave 24 words after the 8 spares; addressing exactly
        # those, no two logical addresses alias onto one word, so every
        # acknowledged word is checked against the uninterrupted run.
        requests = _requests(150, addresses=24, write_fraction=0.35)
        return serve(requests, _crash_spec(requests, backend_bits=2304))

    def test_invariants_hold(self, served):
        served.merged.check_conservation()
        assert served.crash.bit_exact
        assert served.merged.corrupted_words == 0

    def test_two_phases_account_for_everything(self, served):
        merged, crash = served.merged, served.crash
        assert merged.requests == 150 == (
            merged.completed + merged.shed + merged.timed_out
            + merged.failed_requests
        )
        assert merged.completed == (
            crash.pre_crash_completed + crash.resumed_completed
        )
        assert crash.pre_crash_completed > 0
        assert crash.resumed_completed > 0
        # Nothing else failed here, so every failure was lost in flight.
        assert merged.failed_requests == crash.lost_requests > 0

    def test_journal_accounting(self, served):
        crash = served.crash
        assert crash.journaled_writes > 0
        assert crash.replayed_writes == crash.acknowledged_writes
        # journaled_writes spans both phases; acknowledged/lost are
        # crash-time snapshots, so the total bounds their sum.
        assert crash.journaled_writes >= (
            crash.acknowledged_writes + crash.lost_writes
        )
        assert crash.durable_addresses > 0
        assert crash.mismatched_addresses == 0

    @staticmethod
    def _destructive_crash(bits, addresses):
        """Seed 7, destructive timing, crash halfway: the aliasing case."""
        requests = _requests(150, addresses=addresses, write_fraction=0.35,
                             seed=7)
        read_time, write_time = scheme_service_times("destructive")
        return serve(requests, ServeSpec(
            config=ControllerConfig(read_time, write_time, banks=4),
            scheme="destructive", backed=True, backend_bits=bits, seed=7,
            failures=crash_restart(0.5 * _span(requests)),
        )).crash

    def test_aliased_words_are_not_checked(self):
        # Ten logical addresses share a 720-bit array's two words.  Two
        # writes to one word from different banks can land in another
        # order after the restart than in the uninterrupted run — a
        # write-order race, not a replay failure — so such words leave
        # the durability check (this run reported one mismatch before).
        crash = self._destructive_crash(bits=720, addresses=10)
        assert crash.mismatched_addresses == 0
        assert crash.bit_exact

    def test_unaliased_run_checks_every_acknowledged_word(self):
        # 1440 bits leave 12 words after the spares: addressing exactly
        # those, nothing aliases and the checked set is unchanged.
        crash = self._destructive_crash(bits=1440, addresses=12)
        assert crash.durable_addresses == 7
        assert crash.mismatched_addresses == 0

    def test_inputs_validated(self):
        requests = _requests(40)
        crash = crash_restart(0.5 * _span(requests))
        with pytest.raises(ConfigurationError, match="instantaneous"):
            FailureEvent("crash-restart", 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="backed"):
            ServeSpec(config=_config(), failures=crash)
        twice = FailureScenario("twice", crash.events * 2)
        with pytest.raises(ConfigurationError, match="at most once"):
            _crash_spec(requests, failures=twice)
        outage = FailureScenario("mixed", (
            FailureEvent("channel-outage", 0.0, 1.0, target=1),
        ) + crash.events)
        with pytest.raises(ConfigurationError, match="compose"):
            _crash_spec(requests, failures=outage,
                        topology=Topology(channels=2, banks=4))
        with pytest.raises(ConfigurationError, match="compose"):
            _crash_spec(requests, slo=SLOTarget(p99_read_latency=1e-6))
        with pytest.raises(ConfigurationError, match="compose"):
            _crash_spec(requests, drift=sense_amp_drift_step(0.0, 0.005))
        with pytest.raises(ConfigurationError, match="topology"):
            drain_channel(requests, _config(), failures=crash)

    def test_crash_composes_with_a_stall_and_hedging(self):
        requests = _requests(150, addresses=80, write_fraction=0.35)
        span = _span(requests)
        scenario = FailureScenario("stall-then-crash", (
            FailureEvent("controller-stall", 0.2 * span, 0.6 * span,
                         stall_factor=4.0),
            FailureEvent("crash-restart", 0.5 * span, 0.0),
        ))
        served = serve(requests, _crash_spec(
            requests, config=_config(hedge_after=5.0 * READ_TIME),
            failures=scenario,
        ))
        served.merged.check_conservation()
        assert served.crash.bit_exact and served.crash.lost_requests > 0
        assert served.merged.hedged > 0

    def test_every_row_keeps_the_router_bank(self):
        # A bank-xor part whose local banks are not ``address % banks``:
        # the rows served before the crash, the rows lost in flight and
        # the rows served after the restart all carry the bank the
        # router gave their request.
        requests = _requests(150, addresses=64, write_fraction=0.35)
        topology = Topology(channels=1, ranks=2, banks=2, rows=16)
        spec = _crash_spec(requests, topology=topology, interleave=BANK_XOR,
                           backend_bits=2304)
        (shard,), (banks,) = ShardRouter(topology, BANK_XOR).split(requests)
        assert banks != [request.address % 4 for request in shard]
        run, stats = _drain_shard(spec, 0, spec.seed, shard, banks, 0.0)
        assert stats.lost_requests > 0 and stats.resumed_completed > 0
        home = {request.request_id: bank
                for request, bank in zip(shard, banks)}
        log = run.completions
        assert len(log) == len(shard)
        assert log.bank.tolist() == [home[rid] for rid in log.request_id]

    def test_sharded_crash(self):
        # Every channel of a 2x1x4 part crashes at once: the merged run
        # conserves requests, each channel replays bit-exactly, and the
        # multiprocess executor reproduces the sequential run.  2304 bits
        # leave 24 words per channel after the 8 spares.
        requests = _requests(240, addresses=160, write_fraction=0.35)
        spec = _crash_spec(
            requests, topology=Topology(channels=2, banks=4),
            backend_bits=2304,
        )
        sequential = serve(requests, spec)
        sequential.merged.check_conservation()
        assert sequential.crash.bit_exact
        assert sequential.crash.durable_addresses > 0
        assert all(report.requests for report in sequential.channel_reports)
        assert serve(requests, spec, processes=2) == sequential


class TestChaosCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_chaos_campaign(150, bits=720, seed=2010)

    def test_every_scenario_swept(self, campaign):
        assert tuple(row.scenario for row in campaign.rows) == CHAOS_SCENARIOS

    def test_gates_pass(self, campaign):
        campaign.check()
        for row in campaign.rows:
            assert row.conserved and row.bit_exact
            assert row.corrupted_words == 0
            assert row.availability >= campaign.availability_floor

    def test_to_dict_is_artifact_shaped(self, campaign):
        payload = campaign.to_dict()
        assert set(payload["scenarios"]) == set(CHAOS_SCENARIOS)
        for section in payload["scenarios"].values():
            assert "requests" in section and "availability" in section

    def test_check_rejects_broken_rows(self, campaign):
        broken = dataclasses.replace(
            campaign, rows=(dataclasses.replace(
                campaign.rows[0], corrupted_words=1,
            ),)
        )
        with pytest.raises(FaultError, match="silent escapes"):
            broken.check()
        starved = dataclasses.replace(
            campaign, availability_floor=1.01,
        )
        with pytest.raises(FaultError, match="below floor"):
            starved.check()

    def test_scenario_subset_runs(self):
        result = run_chaos_campaign(
            80, bits=720, scenarios=("sense-lockup",)
        )
        (row,) = result.rows
        assert isinstance(row, ChaosRow)
        assert row.scenario == "sense-lockup"


class TestConservationInvariant:
    def test_mismatch_raises(self):
        report = _serve(_requests(50), _config())
        report.check_conservation()     # clean run chains through
        broken = dataclasses.replace(report, requests=report.requests + 1)
        with pytest.raises(FaultError, match="conservation"):
            broken.check_conservation()

    def test_availability_counts_real_responses_only(self):
        report = _serve(_requests(50), _config())
        assert report.availability == 1.0
        degraded = dataclasses.replace(
            report, requests=100, completed=80, timed_out=15,
            failed_requests=5,
        )
        assert degraded.availability == pytest.approx(0.8)
        degraded.check_conservation()


class TestTraceDeadlines:
    def test_deadlines_round_trip(self, tmp_path):
        requests = _with_deadline(_requests(120), 30.0 * READ_TIME)
        path = tmp_path / "trace.jsonl"
        save_trace(path, requests)
        assert list(load_trace(path)) == list(requests)

    def test_zero_deadline_traces_omit_the_key(self, tmp_path):
        requests = _requests(60)
        path = tmp_path / "trace.jsonl"
        save_trace(path, requests)
        assert '"dl"' not in path.read_text()
        assert all(r.deadline == 0.0 for r in load_trace(path))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0e-3, allow_nan=False),
            st.integers(min_value=0, max_value=1 << 40),
            st.sampled_from(["read", "write"]),
            st.integers(min_value=0, max_value=3),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        min_size=1, max_size=40,
    ))
    def test_round_trip_is_exact_for_any_field_mix(self, rows):
        requests = [
            Request(i, time, address, op, priority=priority,
                    deadline=deadline)
            for i, (time, address, op, priority, deadline) in enumerate(rows)
        ]
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl") as handle:
            save_trace(handle.name, requests)
            assert list(load_trace(handle.name)) == requests


