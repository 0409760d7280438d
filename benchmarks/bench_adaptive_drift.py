"""Closed-loop adaptive serving under mid-trace drift: the SLO gate.

Three drift scenarios hit the backed 4-bank controller halfway through a
Poisson trace: a temperature ramp (sense margin shrinks, then recovers),
an external-field disturbance window (offset step plus a burst of cell
flips), and an aging roll-off shift (permanent margin loss).  Under every
scenario the *static* serving policy blows through a 1 µs p99 read-latency
SLO, while the :class:`repro.service.AdaptiveController` — watching the
same windowed ``repro.obs`` signals and actuating sense-current
escalation, retry budgets, background scrub, and admission shedding —
holds the SLO by degrading gracefully (lowest-priority traffic shed
first).

Gates:

* full scale — per scenario, static p99 > SLO ≥ adaptive p99;
* zero silent escapes — ``requests == completed + shed`` on every report,
  and the ``service.requests`` / ``service.completions`` /
  ``service.admission.shed`` counters reconcile exactly with it;
* determinism — re-running a scenario with a fresh backend and drift RNG
  reproduces the adaptive :class:`ServiceReport` bit for bit.

ADAPTIVE_BENCH_SMOKE=1 (the CI smoke job) shrinks the trace; at that
scale the static baseline does not always violate the SLO, so the smoke
gate only requires the adaptive run to hold the SLO and to beat the
static p99, plus the full accounting and replay gates.
"""

import json
import os
import pathlib

import numpy as np

from repro import obs
from repro.analysis.report import format_table
from repro.faults import (
    aging_rolloff_shift,
    field_disturbance_window,
    temperature_ramp,
)
from repro.service import (
    AdaptiveConfig,
    ControllerConfig,
    SLOTarget,
    build_backend,
    build_workload,
    scheme_service_times,
    simulate_service,
)

BANKS = 4
ADDRESSES = 2048
SEED = 2011
RATE = 1.6e8                     # near the nondestructive knee: no slack
LOW_PRIORITY_FRACTION = 0.25

SLO_P99 = 1000e-9                # 1 µs p99 read latency
GUARDBAND = 0.6                  # act at 600 ns, well before the breach

_SMOKE = bool(os.environ.get("ADAPTIVE_BENCH_SMOKE"))
REQUESTS = 800 if _SMOKE else 2400

BENCH_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_adaptive.json"

ADAPTIVE_CONFIG = AdaptiveConfig(
    control_interval=1e-7,       # 100 ns ticks: react within ~2 services
    min_samples=12,
    escalation_step=0.4,         # one alarm tick jumps to the 0.5 bound
    shed_step=0.2,
    shed_floor=0.3,
)


def _update_bench_json(section, payload):
    """Merge one section into the machine-readable BENCH_adaptive.json."""
    BENCH_JSON.parent.mkdir(exist_ok=True)
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _workload():
    stream = build_workload(
        rate=RATE, addresses=ADDRESSES,
        low_priority_fraction=LOW_PRIORITY_FRACTION,
    )
    return stream.generate(REQUESTS, np.random.default_rng((SEED, 3)))


def _scenarios(span):
    """The three drift scenarios, centered on the middle half of the trace."""
    start, duration = 0.25 * span, 0.5 * span
    return (
        temperature_ramp(start, duration, 8e-3),
        field_disturbance_window(start, duration, 5e-3, flip_fraction=0.006),
        aging_rolloff_shift(start, duration, 8e-3),
    )


def _run(requests, scenario, adaptive):
    """One serving run over a freshly seeded backend (bit-reproducible)."""
    backend, retry = build_backend("nondestructive", SEED)
    read_time, write_time = scheme_service_times("nondestructive")
    config = ControllerConfig(
        read_time=read_time, write_time=write_time, banks=BANKS
    )
    rng = np.random.default_rng((SEED, 5)) if scenario.needs_rng else None
    return simulate_service(
        requests, config, backend=backend, retry_policy=retry,
        slo=SLOTarget(SLO_P99, guardband=GUARDBAND) if adaptive else None,
        adaptive_config=ADAPTIVE_CONFIG if adaptive else None,
        drift=scenario, drift_rng=rng,
        scheme="nondestructive", offered_rate=RATE,
    )


def _counter_sum(snapshot, prefix):
    """Sum a counter family over all label sets in an obs snapshot."""
    return sum(
        value for key, value in snapshot["counters"].items()
        if key == prefix or key.startswith(prefix + "{")
    )


def test_adaptive_holds_slo_under_drift(report):
    """Static serving violates the p99 SLO under drift; adaptive holds it."""
    requests = _workload()
    span = max(r.time for r in requests)
    slo_ns = SLO_P99 * 1e9

    rows, payload = [], {}
    for scenario in _scenarios(span):
        static = _run(requests, scenario, adaptive=False)
        with obs.capture() as (registry, _):
            adaptive = _run(requests, scenario, adaptive=True)
            snapshot = registry.snapshot(profile=False)
        replay = _run(requests, scenario, adaptive=True)

        static_p99 = static.read_latency.p99 * 1e9
        adaptive_p99 = adaptive.read_latency.p99 * 1e9

        # Zero silent escapes: every arrival is either completed or shed,
        # on the report and in the obs counters.
        for result in (static, adaptive):
            assert result.requests == result.completed + result.shed
        assert _counter_sum(snapshot, "service.requests") == REQUESTS
        assert (
            _counter_sum(snapshot, "service.completions")
            + _counter_sum(snapshot, "service.admission.shed")
            == REQUESTS
        )
        assert _counter_sum(snapshot, "service.admission.shed") == adaptive.shed

        # Determinism: fresh backend + fresh drift RNG reproduce the
        # adaptive report bit for bit.
        assert replay == adaptive

        # The SLO gate.  Smoke scale only demands the adaptive run hold
        # the SLO and beat static; full scale demands static violate it.
        assert adaptive_p99 <= slo_ns
        if _SMOKE:
            assert adaptive_p99 <= static_p99
        else:
            assert static_p99 > slo_ns

        rows.append([
            scenario.name,
            f"{static_p99:7.1f} ns", str(static.failed_words),
            f"{adaptive_p99:7.1f} ns", str(adaptive.failed_words),
            str(adaptive.shed), str(adaptive.shed_low_priority),
            str(adaptive.scrubbed_words), str(adaptive.adaptive_actions),
        ])
        payload[scenario.name] = {
            "static_p99_ns": static_p99,
            "static_failed_words": static.failed_words,
            "adaptive_p99_ns": adaptive_p99,
            "adaptive_failed_words": adaptive.failed_words,
            "shed": adaptive.shed,
            "shed_low_priority": adaptive.shed_low_priority,
            "shed_rate": adaptive.shed_rate,
            "scrubbed_words": adaptive.scrubbed_words,
            "adaptive_actions": adaptive.adaptive_actions,
            "adaptive_alarms": adaptive.adaptive_alarms,
            "replay_bit_identical": replay == adaptive,
        }

    report("Adaptive serving under mid-trace drift "
           f"({'smoke scale' if _SMOKE else 'full scale'}, "
           f"SLO p99 = {slo_ns:.0f} ns, {REQUESTS} requests at "
           f"{RATE / 1e6:.0f} Mreq/s)")
    report(format_table(
        ["scenario", "static p99", "fail", "adaptive p99", "fail",
         "shed", "low-pri", "scrubbed", "actions"],
        rows,
    ))
    report()
    report("gates: adaptive p99 <= SLO on every scenario"
           + ("" if _SMOKE else "; static p99 > SLO on every scenario")
           + "; requests == completed + shed; bit-identical replay")

    _update_bench_json("adaptive_smoke" if _SMOKE else "adaptive", {
        "smoke": _SMOKE,
        "requests": REQUESTS,
        "banks": BANKS,
        "offered_rate": RATE,
        "low_priority_fraction": LOW_PRIORITY_FRACTION,
        "slo_p99_ns": slo_ns,
        "guardband": GUARDBAND,
        "scenarios": payload,
    })


def test_zero_drift_adaptive_is_invisible(report):
    """With no drift and a slack SLO the adaptive run equals the static one."""
    requests = _workload()
    backend, retry = build_backend("nondestructive", SEED)
    read_time, write_time = scheme_service_times("nondestructive")
    config = ControllerConfig(
        read_time=read_time, write_time=write_time, banks=BANKS
    )
    adaptive = simulate_service(
        requests, config, backend=backend, retry_policy=retry,
        slo=SLOTarget(1e-3), scheme="nondestructive", offered_rate=RATE,
    )
    backend, retry = build_backend("nondestructive", SEED)
    static = simulate_service(
        requests, config, backend=backend, retry_policy=retry,
        scheme="nondestructive", offered_rate=RATE,
    )
    assert adaptive == static
    assert adaptive.shed == 0 and adaptive.adaptive_actions == 0
    report("zero-drift guard: adaptive report == static report "
           f"(bit-identical over {REQUESTS} requests)")
    _update_bench_json(
        "zero_drift_smoke" if _SMOKE else "zero_drift",
        {"smoke": _SMOKE, "requests": REQUESTS, "bit_identical": True},
    )
