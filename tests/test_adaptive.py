"""Tests for closed-loop adaptive serving: drift scenarios, windowed
signals, the admission gate, the feedback controller, the zero-drift
determinism guard, trace priorities, and the adaptive CLI surface."""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.errors import ConfigurationError
from repro.faults import (
    DriftPoint,
    DriftScenario,
    aging_rolloff_shift,
    field_disturbance_window,
    sense_amp_drift_step,
    temperature_ramp,
)
from repro.obs import DeltaTracker, RollingWindow
from repro.service import (
    AdaptiveConfig,
    AdaptiveController,
    AdmissionGate,
    ControllerConfig,
    MemoryController,
    Request,
    SLOTarget,
    ServeSpec,
    build_backend,
    build_workload,
    drain_channel,
    load_trace,
    save_trace,
    scheme_service_times,
    serve,
)

SEED = 31


def _backed_config(banks=2):
    read_time, write_time = scheme_service_times("nondestructive")
    return ControllerConfig(read_time=read_time, write_time=write_time,
                            banks=banks)


def _small_backend(seed=SEED, **kw):
    return build_backend("nondestructive", seed, bits=2304, **kw)


def _serve(requests, **spec):
    """A flat run over the small chip, freshly seeded from ``SEED`` (its
    drift strikes draw from the ``(SEED, 5)`` drift stream)."""
    return serve(requests, ServeSpec(
        config=_backed_config(), backed=True, seed=SEED, backend_bits=2304,
        scheme="nondestructive", **spec,
    )).merged


def _requests(n=200, rate=5e7, seed=SEED, **kw):
    stream = build_workload(rate=rate, addresses=32, **kw)
    return stream.generate(n, np.random.default_rng((seed, 3)))


class TestDriftScenarios:
    def test_point_validation(self):
        with pytest.raises(ConfigurationError):
            DriftPoint(time=-1e-9, sense_offset=0.0)
        with pytest.raises(ConfigurationError):
            DriftPoint(time=float("nan"), sense_offset=0.0)
        with pytest.raises(ConfigurationError):
            DriftPoint(time=0.0, sense_offset=float("inf"))
        with pytest.raises(ConfigurationError):
            DriftPoint(time=0.0, sense_offset=0.0, flip_fraction=1.5)

    def test_scenario_validation(self):
        point = DriftPoint(time=1e-6, sense_offset=1e-3)
        with pytest.raises(ConfigurationError):
            DriftScenario(name="", points=(point,))
        with pytest.raises(ConfigurationError):
            DriftScenario(name="empty", points=())
        with pytest.raises(ConfigurationError):
            DriftScenario(name="unordered", points=(
                point, DriftPoint(time=0.5e-6, sense_offset=0.0),
            ))

    def test_offset_at_is_a_step_function(self):
        scenario = DriftScenario(name="steps", points=(
            DriftPoint(time=1e-6, sense_offset=2e-3),
            DriftPoint(time=2e-6, sense_offset=5e-3),
            DriftPoint(time=3e-6, sense_offset=0.0),
        ))
        assert scenario.offset_at(0.0) == 0.0
        assert scenario.offset_at(1.5e-6) == 2e-3
        assert scenario.offset_at(2e-6) == 5e-3
        assert scenario.offset_at(10e-6) == 0.0
        assert scenario.max_offset == 5e-3
        assert not scenario.needs_rng

    def test_temperature_ramp_rises_and_recovers(self):
        scenario = temperature_ramp(1e-6, 2e-6, 8e-3, steps=4)
        offsets = [p.sense_offset for p in scenario.points]
        assert scenario.name == "temperature-ramp"
        assert max(offsets) == pytest.approx(8e-3)
        assert offsets[-1] == pytest.approx(0.0)
        assert scenario.offset_at(2e-6) == pytest.approx(8e-3)

    def test_rolloff_shift_is_monotonic_and_permanent(self):
        scenario = aging_rolloff_shift(1e-6, 2e-6, 6e-3, steps=5)
        offsets = [p.sense_offset for p in scenario.points]
        assert offsets == sorted(offsets)
        assert offsets[-1] == pytest.approx(6e-3)
        # Permanent: long after the ramp the offset is still in force.
        assert scenario.offset_at(1.0) == pytest.approx(6e-3)

    def test_field_window_clears_but_needs_rng_for_strikes(self):
        scenario = field_disturbance_window(1e-6, 2e-6, 5e-3,
                                            flip_fraction=0.01)
        assert scenario.needs_rng
        assert scenario.offset_at(2e-6) == pytest.approx(5e-3)
        assert scenario.offset_at(4e-6) == 0.0
        assert not field_disturbance_window(1e-6, 2e-6, 5e-3).needs_rng

    def test_builder_validation(self):
        with pytest.raises(ConfigurationError):
            temperature_ramp(0.0, -1e-6, 1e-3)
        with pytest.raises(ConfigurationError):
            temperature_ramp(0.0, 1e-6, 1e-3, steps=0)
        with pytest.raises(ConfigurationError):
            aging_rolloff_shift(0.0, 0.0, 1e-3)
        assert len(sense_amp_drift_step(1e-6, 1e-3).points) == 1


class TestInstallDrift:
    """Drift scenarios enter a channel's loop as data (``drift=``)."""

    @staticmethod
    def _drain(scenario, backend, retry, **keywords):
        return drain_channel(
            [Request(0, 0.0, 0)], _backed_config(), backend=backend,
            retry_policy=retry, drift=scenario, **keywords,
        )

    def test_strikes_require_a_dedicated_rng(self):
        backend, retry = _small_backend()
        backend.strike_rng = None
        state = backend.rng.bit_generator.state
        scenario = field_disturbance_window(1e-6, 2e-6, 0.0,
                                            flip_fraction=0.01)
        with pytest.raises(ConfigurationError, match="strike rng"):
            self._drain(scenario, backend, retry)
        # Rejected before anything ran: no read drew from the backend.
        assert backend.rng.bit_generator.state == state
        assert backend.reads == 0
        # A timing-only channel has no cells for drift to act on.
        with pytest.raises(ConfigurationError, match="backed"):
            self._drain(sense_amp_drift_step(1e-6, 3e-3), None, None)

    def test_offset_lands_at_the_scheduled_instant(self):
        for until, offset in ((0.999e-6, 0.0), (1e-6, 3e-3)):
            backend, retry = _small_backend()
            self._drain(sense_amp_drift_step(1e-6, 3e-3), backend, retry,
                        until=until)
            assert backend.drift_offset == pytest.approx(offset)

    def test_strikes_are_deterministic_per_rng_seed(self):
        scenario = field_disturbance_window(1e-6, 2e-6, 0.0,
                                            flip_fraction=0.02)
        states = []
        for _ in range(2):
            backend, retry = _small_backend()
            backend.strike_rng = np.random.default_rng((SEED, 5))
            self._drain(scenario, backend, retry)
            states.append(backend.memory.memory.array._states.copy())
            assert backend.drift_flips > 0
        assert np.array_equal(states[0], states[1])

    def test_drift_events_are_metered(self):
        backend, retry = _small_backend()
        scenario = temperature_ramp(1e-6, 2e-6, 4e-3, steps=3)
        with obs.capture() as (registry, _):
            self._drain(scenario, backend, retry)
            events = registry.counter("faults.drift.events",
                                      scenario="temperature-ramp")
            assert events == len(scenario.points)


class TestRollingWindow:
    def test_capacity_evicts_oldest(self):
        window = RollingWindow(3)
        for value in (1.0, 2.0, 3.0, 4.0):
            window.push(value)
        assert len(window) == 3
        assert window.pushed == 4
        assert list(window.values()) == [2.0, 3.0, 4.0]
        assert window.mean() == pytest.approx(3.0)
        assert window.maximum() == 4.0
        assert window.fraction_above(2.5) == pytest.approx(2 / 3)

    def test_empty_and_validation(self):
        window = RollingWindow(4)
        assert window.mean() == 0.0
        assert window.maximum() == 0.0
        assert window.percentile(99.0) == 0.0
        assert window.fraction_above(0.0) == 0.0
        with pytest.raises(ConfigurationError):
            RollingWindow(0)
        with pytest.raises(ConfigurationError):
            window.percentile(101.0)

    def test_clear_preserves_pushed(self):
        window = RollingWindow(2)
        window.push(1.0)
        window.clear()
        assert len(window) == 0 and window.pushed == 1

    def test_delta_tracker_returns_per_interval_deltas(self):
        tracker = DeltaTracker()
        assert tracker.update(reads=10, retried=2) == {
            "reads": 10.0, "retried": 2.0,
        }
        assert tracker.update(reads=25, retried=2) == {
            "reads": 15.0, "retried": 0.0,
        }
        # A key appearing later starts from 0.
        assert tracker.update(reads=25, failed=3)["failed"] == 3.0


class TestAdmissionGate:
    def test_disengaged_gate_is_invisible(self):
        gate = AdmissionGate(burst=2.0, low_priority_reserve=1.0)
        request = Request(request_id=0, time=0.0, address=0, op="read", priority=1)
        with obs.capture() as (registry, _):
            for _ in range(100):
                assert gate.admit(request, depth=10**6, now=0.0)
            assert gate.admitted == 0 and gate.shed == 0
            assert registry.counter("service.admission.admitted") == 0

    def test_low_priority_sheds_first(self):
        gate = AdmissionGate(burst=8.0, low_priority_reserve=4.0)
        gate.engage(rate=1.0, now=0.0)
        low = Request(request_id=0, time=0.0, address=0, op="read", priority=1)
        high = Request(request_id=0, time=0.0, address=0, op="read", priority=0)
        # Drain below the reserve: low is shed while high still admits.
        for _ in range(4):
            assert gate.admit(high, depth=0, now=0.0)
        assert not gate.admit(low, depth=0, now=0.0)
        assert gate.admit(high, depth=0, now=0.0)
        assert gate.shed_low_priority == 1
        assert gate.statistics()["admitted"] == 5

    def test_backpressure_sheds_regardless_of_tokens(self):
        gate = AdmissionGate(burst=8.0, backpressure_depth=4)
        gate.engage(rate=1.0, now=0.0)
        high = Request(request_id=0, time=0.0, address=0, op="read", priority=0)
        assert not gate.admit(high, depth=4, now=0.0)
        assert gate.shed_backpressure == 1

    def test_refill_is_capped_at_burst(self):
        gate = AdmissionGate(burst=2.0, low_priority_reserve=0.0)
        gate.engage(rate=1e9, now=0.0)
        high = Request(request_id=0, time=0.0, address=0, op="read", priority=0)
        assert gate.admit(high, depth=0, now=0.0)
        assert gate.admit(high, depth=0, now=0.0)
        assert not gate.admit(high, depth=0, now=0.0)
        # A long quiet interval refills to the burst cap, not beyond.
        assert gate.admit(high, depth=0, now=1.0)
        assert gate.admit(high, depth=0, now=1.0)
        assert not gate.admit(high, depth=0, now=1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(burst=0.5)
        with pytest.raises(ConfigurationError):
            AdmissionGate(burst=4.0, low_priority_reserve=4.0)
        with pytest.raises(ConfigurationError):
            AdmissionGate(backpressure_depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionGate().engage(rate=0.0, now=0.0)


class TestAdaptiveControllerConstruction:
    def test_requires_backend_retry_policy_and_line_rate(self):
        slo = SLOTarget(1e-6)
        bare = MemoryController(_backed_config())
        with pytest.raises(ConfigurationError):
            AdaptiveController(bare, slo, line_rate=1e8)
        backend, retry = _small_backend()
        backed = MemoryController(_backed_config(), backend=backend,
                                  retry_policy=retry)
        with pytest.raises(ConfigurationError):
            AdaptiveController(backed, slo, line_rate=0.0)

    def test_slo_and_config_validation(self):
        with pytest.raises(ConfigurationError):
            SLOTarget(-1e-6)
        with pytest.raises(ConfigurationError):
            SLOTarget(1e-6, guardband=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(window=0)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(retry_rate_alarm=0.01, retry_rate_clear=0.05)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(burst=4.0, low_priority_reserve=8.0)

    @pytest.mark.parametrize("field", [
        field.name for field in dataclasses.fields(AdaptiveConfig)
        if isinstance(field.default, float)
    ])
    def test_nan_float_bounds_rejected(self, field):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(**{field: float("nan")})

    def test_nan_slo_gate_and_line_rate_rejected(self):
        nan = float("nan")
        with pytest.raises(ConfigurationError):
            SLOTarget(nan)
        with pytest.raises(ConfigurationError):
            SLOTarget(1e-6, guardband=nan)
        with pytest.raises(ConfigurationError):
            AdmissionGate(burst=nan)
        with pytest.raises(ConfigurationError):
            AdmissionGate().engage(rate=nan, now=0.0)
        backend, retry = _small_backend()
        controller = MemoryController(_backed_config(),
                                      backend=backend, retry_policy=retry)
        with pytest.raises(ConfigurationError):
            AdaptiveController(controller, SLOTarget(1e-6), line_rate=nan)


class TestAdaptiveSimulation:
    def test_zero_drift_slack_slo_equals_static_run(self):
        requests = _requests(300)
        adaptive = _serve(requests, slo=SLOTarget(1e-3), offered_rate=5e7)
        static = _serve(requests, offered_rate=5e7)
        assert adaptive == static
        assert adaptive.shed == 0
        assert adaptive.adaptive_actions == 0

    def test_controller_escalates_against_a_drift_step(self):
        requests = _requests(400, rate=1e8)
        span = max(r.time for r in requests)
        scenario = sense_amp_drift_step(0.25 * span, 6e-3)
        reports = {}
        for adaptive in (False, True):
            reports[adaptive] = _serve(
                requests,
                slo=SLOTarget(1e-6, guardband=0.6) if adaptive else None,
                drift=scenario, offered_rate=1e8,
            )
        static, closed = reports[False], reports[True]
        assert closed.adaptive_actions > 0
        assert closed.adaptive_alarms >= 1
        assert closed.failed_words < static.failed_words
        for report in (static, closed):
            assert report.requests == report.completed + report.shed

    def test_replay_is_bit_exact_with_strikes(self):
        requests = _requests(300, rate=1e8,
                             low_priority_fraction=0.25)
        span = max(r.time for r in requests)
        scenario = field_disturbance_window(0.25 * span, 0.5 * span, 5e-3,
                                            flip_fraction=0.01)

        def run():
            return _serve(
                requests, slo=SLOTarget(1e-6, guardband=0.6),
                drift=scenario, offered_rate=1e8,
            )

        assert run() == run()

    def test_latency_window_reads_the_log_in_recording_order(self):
        # A tight SLO over a hot stream sheds, so the window must skip
        # shed rows; it holds the newest unshed read latencies in the
        # order the controller recorded them.
        backend, retry = _small_backend(fault_rate=1e-3)
        controller = MemoryController(_backed_config(),
                                      backend=backend, retry_policy=retry)
        adaptive = AdaptiveController(
            controller, SLOTarget(60e-9, guardband=0.5),
            AdaptiveConfig(control_interval=50e-9, window=24, min_samples=4,
                           burst=4.0, low_priority_reserve=2.0),
            line_rate=4e8,
        )
        controller.submit_all(_requests(400, rate=4e8,
                                        low_priority_fraction=0.3))
        controller.run(timers=[(50e-9, adaptive.tick)])
        adaptive._consume_completions()
        log = controller.completions
        assert log.shed.any() and log.is_read.any()
        served_reads = log.is_read & ~log.shed
        expected = (log.finish - log.arrival)[served_reads][-24:]
        assert adaptive._latency.values().tolist() == expected.tolist()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _serve([], slo=SLOTarget(1e-6))
        config = _backed_config()
        with pytest.raises(ConfigurationError):
            ServeSpec(config=config, slo=SLOTarget(1e-6))
        with pytest.raises(ConfigurationError):
            ServeSpec(config=config, drift=sense_amp_drift_step(1e-6, 6e-3))


class TestTracePriority:
    def test_priority_round_trips_through_the_trace(self, tmp_path):
        requests = _requests(200, low_priority_fraction=0.4)
        assert any(r.priority > 0 for r in requests)
        path = tmp_path / "trace.jsonl"
        save_trace(path, requests)
        loaded = load_trace(path)
        assert list(loaded) == list(requests)

    def test_priority_zero_traces_omit_the_key(self, tmp_path):
        requests = _requests(50)
        path = tmp_path / "trace.jsonl"
        save_trace(path, requests)
        assert '"pri"' not in path.read_text()
        assert all(r.priority == 0 for r in load_trace(path))

    def test_request_priority_validation(self):
        with pytest.raises(ConfigurationError):
            Request(request_id=0, time=0.0, address=0, op="read", priority=-1)
        with pytest.raises(ConfigurationError):
            build_workload(rate=1e7, addresses=8, low_priority_fraction=1.5)


class TestAdaptiveCLI:
    _BASE = ["serve", "--requests", "150", "--rate", "1e8",
             "--addresses", "64", "--seed", "7"]

    def test_invalid_slo_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self._BASE + ["--adaptive", "--slo-p99-ns", "-5"])
        assert excinfo.value.code == 2

    def test_negative_window_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self._BASE + ["--adaptive", "--window", "-3"])
        assert excinfo.value.code == 2

    def test_contradictory_shed_thresholds_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self._BASE + ["--adaptive", "--burst", "4",
                               "--low-priority-reserve", "8"])
        assert excinfo.value.code == 2

    def test_adaptive_drift_serve_runs(self, capsys):
        assert main(self._BASE + [
            "--adaptive", "--drift", "sense-step",
            "--drift-offset-mv", "5", "--low-priority-fraction", "0.25",
        ]) == 0
        out = capsys.readouterr().out
        assert "drift scenario" in out
        assert "adaptation" in out
