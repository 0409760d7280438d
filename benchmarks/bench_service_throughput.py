"""Serving-level saturation gap: the paper's §V claim end to end.

The destructive self-reference read occupies a bank for ~27 ns versus
~12.6 ns nondestructive.  Driving both through the full
:mod:`repro.service` stack — Poisson traffic, 4-bank controller, FCFS —
and bisecting for the saturation knee (mean read latency > 4× the
unloaded read) shows the nondestructive macro sustaining well over 1.5×
the request rate of the destructive one, with the p99 latency curves
captured through ``repro.obs`` metrics.
"""

import json
import os
import pathlib
import time

import numpy as np

from repro import obs
from repro.analysis.report import format_table
from repro.service import (
    ControllerConfig,
    ServeSpec,
    build_backend,
    build_report,
    build_workload,
    drain_channel,
    find_saturation_rate,
    publish_report,
    scheme_service_times,
    serve,
)
from tests.oracles import use_scalar_reads

#: Row labels of the backed speedup table: the vectorized ladder and the
#: per-word test oracle it is pinned against.
BATCHED, SCALAR = "batched", "scalar"

BANKS = 4
ADDRESSES = 2048     # logical words of the 16kb macro's address space
REQUESTS = 1500
SEED = 2010
SCHEMES = ("destructive", "nondestructive")

# Backed-serving operating point: batch-policy controller over the real
# 16kb recovery ladder, offered far past the knee so every bank is always
# backlogged and wall clock measures pure service throughput.
BACKED_SEED = 2011
BACKED_RATE = 2e9
BACKED_BATCH_LIMIT = 32
BACKED_FAULT_RATE = 1e-4
BACKED_WRITE_FRACTION = 0.15
# SERVICE_BENCH_SMOKE=1 (the CI smoke job) shrinks the workload and only
# requires the batched path to not be slower than the scalar one; the full
# run pins the issue's >= 5x gate.
_SMOKE = bool(os.environ.get("SERVICE_BENCH_SMOKE"))
BACKED_REQUESTS = 300 if _SMOKE else REQUESTS
BACKED_SPEEDUP_FLOOR = 1.0 if _SMOKE else 5.0

BENCH_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_service.json"


def _update_bench_json(section, payload):
    """Merge one section into the machine-readable BENCH_service.json."""
    BENCH_JSON.parent.mkdir(exist_ok=True)
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _simulate(scheme, config, rate, requests=REQUESTS):
    stream = build_workload(rate=rate, addresses=ADDRESSES)
    workload = stream.generate(requests, np.random.default_rng((SEED, 3)))
    return serve(workload, ServeSpec(
        config=config, policy="fcfs", scheme=scheme, offered_rate=rate
    )).merged


def service_saturation_sweep():
    """Per-scheme saturation rate plus a latency curve below the knee."""
    results = {}
    for scheme in SCHEMES:
        read_time, write_time = scheme_service_times(scheme)
        config = ControllerConfig(
            read_time=read_time, write_time=write_time, banks=BANKS
        )
        saturation = find_saturation_rate(
            lambda rate: _simulate(scheme, config, rate),
            low=1e7, high=2e8, read_time=read_time,
        )
        curve = []
        for fraction in (0.25, 0.5, 0.75, 0.9, 1.0):
            rate = fraction * saturation
            report = _simulate(scheme, config, rate)
            publish_report(report)
            curve.append((fraction, report))
        results[scheme] = {
            "read_time": read_time,
            "saturation": saturation,
            "curve": curve,
        }
    return results


def test_service_saturation_gap(benchmark, report):
    with obs.capture() as (registry, _):
        results = benchmark(service_saturation_sweep)
        snapshot = registry.snapshot(profile=False)

    report("Service saturation — trace-driven 4-bank controller, Poisson "
           "reads, FCFS")
    rows = []
    for scheme in SCHEMES:
        entry = results[scheme]
        rows.append([
            scheme,
            f"{entry['read_time'] * 1e9:.1f} ns",
            f"{entry['saturation'] / 1e6:.0f} Mreq/s",
        ])
    report(format_table(["scheme", "bank occupancy", "saturation rate"], rows))
    report()
    report("p99 read latency approaching each scheme's own knee "
           "(repro.obs service.* gauges):")
    curve_rows = []
    for scheme in SCHEMES:
        for fraction, point in results[scheme]["curve"]:
            curve_rows.append([
                scheme,
                f"{fraction:.0%} of knee",
                f"{point.offered_rate / 1e6:.0f} Mreq/s",
                f"{point.read_latency.mean * 1e9:6.1f} ns",
                f"{point.read_latency.p99 * 1e9:6.1f} ns",
                f"{point.queue_depth.mean_depth:.2f}",
            ])
    report(format_table(
        ["scheme", "load", "rate", "mean", "p99", "queue depth"], curve_rows
    ))

    destructive = results["destructive"]["saturation"]
    nondestructive = results["nondestructive"]["saturation"]
    ratio = nondestructive / destructive
    report()
    report(f"saturation-rate advantage: {ratio:.2f}x "
           f"({nondestructive / 1e6:.0f} vs {destructive / 1e6:.0f} Mreq/s)")

    # The paper's §V gap: >= 1.5x the sustained request rate on 4 banks.
    assert ratio >= 1.5
    # The per-rate p99 gauges made it into the obs snapshot for both schemes.
    for scheme in SCHEMES:
        key = f"service.read_latency_p99_ns{{policy=fcfs,scheme={scheme}}}"
        assert key in snapshot["gauges"]
        assert snapshot["gauges"][key] > 0.0
    # The controller's live histograms recorded every read.
    assert "service.latency_ns{op=read}" in snapshot["histograms"]

    _update_bench_json("saturation", {
        scheme: {
            "read_time_ns": results[scheme]["read_time"] * 1e9,
            "rate_req_per_s": results[scheme]["saturation"],
        }
        for scheme in SCHEMES
    } | {"advantage": ratio, "banks": BANKS, "requests": REQUESTS})


def _backed_workload():
    stream = build_workload(
        rate=BACKED_RATE, addresses=ADDRESSES,
        write_fraction=BACKED_WRITE_FRACTION,
    )
    return stream.generate(BACKED_REQUESTS, np.random.default_rng((SEED, 3)))


def _backed_simulation(workload, mode):
    """One backed batch-policy run over a freshly seeded 16kb ladder.

    A new backend per run keeps repeated runs bit-identical (the array,
    cache, and RNG states all start from the same seed); only the
    drain and its report are timed by the caller, so backend setup cost
    does not dilute the serving-throughput ratio.  The scalar mode wraps
    the backend in the test oracle, so the run drains the channel
    directly instead of going through :func:`serve`.
    """
    # transients=False so both modes draw identical fault perturbations and
    # the reports can be compared bit for bit (see docs/SERVICE.md).
    backend = build_backend(
        "nondestructive", BACKED_SEED,
        fault_rate=BACKED_FAULT_RATE, transients=False,
    )
    if mode == SCALAR:
        use_scalar_reads(backend)
    read_time, write_time = scheme_service_times("nondestructive")
    config = ControllerConfig(
        read_time=read_time, write_time=write_time, banks=BANKS,
        batch_limit=BACKED_BATCH_LIMIT,
    )
    return lambda: build_report(
        drain_channel(
            workload, config, policy="batch", backend=backend
        ),
        scheme="nondestructive", offered_rate=BACKED_RATE,
    ).check_conservation()


def _best_of(runs, setup):
    """Min wall clock over ``runs`` fresh simulations (setup untimed)."""
    best, result = float("inf"), None
    for _ in range(runs):
        simulate = setup()
        start = time.perf_counter()
        result = simulate()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_backed_batched_speedup(report):
    """Vectorized ladder vs word-by-word: same report, >= 5x the throughput.

    Both modes serve the identical saturating workload through the same
    seeded 16kb backend; the batched path must reproduce the scalar
    path's ``ServiceReport`` exactly while finishing the wall-clock run
    at least :data:`BACKED_SPEEDUP_FLOOR` times faster.
    """
    runs = 2 if _SMOKE else 5
    workload = _backed_workload()
    # Timed runs happen outside obs.capture so neither mode pays metering
    # overhead; the histogram comes from one extra untimed batched run.
    scalar_s, scalar_report = _best_of(
        runs, lambda: _backed_simulation(workload, SCALAR)
    )
    batched_s, batched_report = _best_of(
        runs, lambda: _backed_simulation(workload, BATCHED)
    )
    with obs.capture() as (registry, _):
        _backed_simulation(workload, BATCHED)()
        histogram = registry.histogram("service.backend.batch_size")

    # Bit-exactness first: the speedup is meaningless if the vectorized
    # ladder drifted from the per-word oracle (tests/oracles.py).
    assert batched_report == scalar_report
    assert batched_report.retried_words > 0

    speedup = scalar_s / batched_s
    mean_group = histogram["sum"] / histogram["count"]

    report("Backed serving — batched vs scalar recovery ladder "
           f"({'smoke scale' if _SMOKE else 'full scale'})")
    report(format_table(
        ["mode", "wall clock", "requests", "throughput"],
        [
            [SCALAR, f"{scalar_s * 1e3:7.1f} ms",
             str(BACKED_REQUESTS),
             f"{BACKED_REQUESTS / scalar_s / 1e3:.1f} kreq/s"],
            [BATCHED, f"{batched_s * 1e3:7.1f} ms",
             str(BACKED_REQUESTS),
             f"{BACKED_REQUESTS / batched_s / 1e3:.1f} kreq/s"],
        ],
    ))
    report()
    report(f"speedup: {speedup:.2f}x (floor {BACKED_SPEEDUP_FLOOR:.1f}x); "
           f"groups: {histogram['count']}, mean size {mean_group:.1f}, "
           f"max {histogram['max']:.0f}")

    _update_bench_json("backed_smoke" if _SMOKE else "backed", {
        "smoke": _SMOKE,
        "requests": BACKED_REQUESTS,
        "banks": BANKS,
        "batch_limit": BACKED_BATCH_LIMIT,
        "fault_rate": BACKED_FAULT_RATE,
        "offered_rate": BACKED_RATE,
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": speedup,
        "speedup_floor": BACKED_SPEEDUP_FLOOR,
        "reports_bit_identical": batched_report == scalar_report,
        "batch_size_histogram": {
            "count": histogram["count"],
            "mean": mean_group,
            "max": histogram["max"],
            "edges": histogram["edges"],
            "counts": histogram["counts"],
        },
    })

    # The tentpole gate: batch-first serving must beat the word-by-word
    # baseline by 5x at full scale (and never regress below it in smoke).
    assert speedup >= BACKED_SPEEDUP_FLOOR
    # Saturated batch policy on 4 banks actually coalesced large groups.
    assert histogram["max"] >= (4 if _SMOKE else 16)
