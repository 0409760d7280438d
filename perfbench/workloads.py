"""The benchmark's workloads: definitions, inputs, timed runs, checks.

Every workload runs in three phases inside one process:

1. **set-up**, repeated :data:`SETUP_REPEATS` times (median reported):
   calibration fit, scheme service times, and the workload's inputs --
   the request list, generated here from the seed, or the built wafer;
2. **timed runs** of the one blocking call the workload measures,
   repeated until the ``--seconds`` budget is spent (median reported),
   each checked against the first (warm-up) run for exact equality;
3. **one traced run** of the same call with span wrappers and
   :func:`repro.obs.capture` installed, which yields the per-layer
   breakdown and must reproduce the untraced result exactly.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.service import Topology, scheme_service_times
from repro.service import controller as service_controller
from repro.service import report as service_report
from repro.service import topology as service_topology
from repro.service.engine import DiscreteEventEngine
from repro.service.workload import READ, WRITE, Request
from repro.prodtest import WaferConfig, build_wafer, run_wafer
from repro.prodtest import characterize as prodtest_characterize
from repro.prodtest import march as prodtest_march
from repro.calibration import calibrate
from repro.core.conventional import ConventionalSensing
from repro.core.destructive import DestructiveSelfReference
from repro.core.nondestructive import NondestructiveSelfReference
from repro.ecc import yield_model
from repro.ecc.array import EccArray
from repro.ecc.hamming import HammingSECDED
from repro.errors import FaultError
from repro.faults.recovery import RecoveryController

import hostspeed
from spans import Tracer

SCHEME = "nondestructive"
SETUP_REPEATS = 5
#: Seed of the serving backends (array variation, fault map, read noise).
#: The chip under test is fixed; ``--seed`` draws the traffic.  With the
#: chip drawn from ``--seed`` too, the retry work of the backed workload
#: depends on where a seed happens to put faults under the Zipf-hot
#: words, and its host time spreads several times wider across seeds.
BACKEND_SEED = 2010
#: Largest allowed gap between the traced wall time of the timed call and
#: the sum of the reported layer self times, as a share of that wall time.
RECONCILE_TOLERANCE = 0.01
#: Lowest acceptable march detection coverage over injected faults.
MIN_COVERAGE = 0.99
#: Zipf exponent of the "zipfian" addressing.
ZIPF_S = 1.1


@dataclasses.dataclass(frozen=True)
class ServeWorkload:
    """Open-loop Poisson traffic served by a sharded topology."""

    topology: str
    interleave: str
    backed: bool
    fault_rate: float
    addressing: str      #: "zipfian" (s = ZIPF_S) or "uniform"
    write_fraction: float
    policy: str
    cache_words: int     #: read-cache words per channel
    rate: float          #: offered rate [requests/s of simulated time]
    requests: int

    #: Serving is interpreter-bound, so its host times use the Python probe.
    probe = hostspeed.PYTHON


@dataclasses.dataclass(frozen=True)
class WaferWorkload:
    """One wafer through the nondestructive production-test flow."""

    dies: int
    march: str

    #: The wafer flow is array-bound, so its host times use the NumPy probe.
    probe = hostspeed.NUMPY


WORKLOADS = {
    # Past the knee (~2.0 Greq/s on this configuration), so queues build
    # and the batch policy coalesces reads into groups: the host time is
    # dominated by the backend -> recovery -> ECC -> sensing chain.
    "serve_backed_zipf": ServeWorkload(
        topology="4x2x4", interleave="bank-xor", backed=True,
        fault_rate=1e-4, addressing="zipfian", write_fraction=0.15,
        policy="batch", cache_words=16, rate=3.0e9, requests=8000,
    ),
    # Below the knee (~2.75 Greq/s), timing-only: the backend is bypassed
    # and the host time is engine dispatch, controller, and the merge.
    "serve_timing_rw": ServeWorkload(
        topology="4x2x4", interleave="bank-xor", backed=False,
        fault_rate=0.0, addressing="uniform", write_fraction=0.5,
        policy="fcfs", cache_words=0, rate=1.5e9, requests=10000,
    ),
    # 8192 dies (two 4096-die chunks) rather than 10^5: a 10^5-die
    # run_wafer takes ~9 s, too long to repeat enough times in one run
    # for a steady median.
    "wafer_trim": WaferWorkload(dies=8192, march="march-1t1j"),
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def generate_requests(spec: ServeWorkload, seed: int) -> Tuple[Request, ...]:
    """Poisson arrivals at ``spec.rate`` with the spec's address and op mix.

    Drawn here rather than by the program's own generators, so the inputs
    depend only on the seed and this file.  Addresses and ops are
    stratified: request ``i`` inverts the address CDF at one uniform draw
    from each of ``requests`` equal strata (shuffled), and exactly
    ``round(write_fraction * requests)`` requests write.  Every seed then
    carries the same address histogram to within one request per word, so
    the work per seed -- and with it the host time -- varies less than
    with independent draws, while arrival times, request order, and which
    request reads or writes which word change with the seed.
    """
    rng = np.random.default_rng(seed)
    count = spec.requests
    capacity = Topology.parse(spec.topology).capacity
    times = np.cumsum(rng.exponential(1.0 / spec.rate, count))
    strata = (np.arange(count) + rng.random(count)) / count
    rng.shuffle(strata)
    if spec.addressing == "zipfian":
        weights = 1.0 / np.power(np.arange(1, capacity + 1, dtype=float), ZIPF_S)
        cdf = np.cumsum(weights)
        addresses = np.searchsorted(cdf / cdf[-1], strata)
    else:
        addresses = (strata * capacity).astype(np.int64)
    writes = np.arange(count) < round(spec.write_fraction * count)
    rng.shuffle(writes)
    return tuple(
        Request(
            request_id=index,
            time=float(times[index]),
            address=int(addresses[index]),
            op=WRITE if writes[index] else READ,
        )
        for index in range(count)
    )


def _timed(func: Callable, *args) -> Tuple[float, object]:
    start = time.perf_counter()
    result = func(*args)
    return time.perf_counter() - start, result


def run_setup(spec, seed: int) -> Tuple[Dict[str, float], object]:
    """Set up :data:`SETUP_REPEATS` times; returns median times and inputs.

    The calibration cache is cleared before each repeat so every repeat
    pays for the fit a fresh process pays for.  ``setup_repeat_s`` is
    normalized to the reference host speed (:mod:`hostspeed`); the
    per-step times are wall clock.
    """
    totals, calibrations, builds = [], [], []
    inputs = None
    probe = hostspeed.PYTHON
    before = probe()
    for _ in range(SETUP_REPEATS):
        inputs = None  # drop the previous wafer before building the next
        calibrate.cache_clear()
        start = time.perf_counter()
        calibrations.append(_timed(calibrate)[0])
        scheme_service_times(SCHEME)
        if isinstance(spec, ServeWorkload):
            inputs = generate_requests(spec, seed)
        else:
            config = WaferConfig(
                dies=spec.dies, scheme=SCHEME, march=spec.march, seed=seed
            )
            elapsed, inputs = _timed(build_wafer, config)
            builds.append(elapsed)
        wall = time.perf_counter() - start
        after = probe()
        totals.append(probe.normalized(wall, before, after))
        before = after
    times = {
        "setup_repeat_s": statistics.median(totals),
        "calibration.calibrate_s": statistics.median(calibrations),
        "build_wafer_s": statistics.median(builds) if builds else 0.0,
    }
    return times, inputs


# ---------------------------------------------------------------------------
# Timed runs
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Timing:
    """Medians over the timed runs of one call."""

    runs: int
    wall_s: float        #: median wall time of one call
    normalized_s: float  #: median call time at the reference host speed
    speed: float         #: host speed relative to the reference host


def timed_runs(call: Callable, same: Callable, seconds: float,
               probe: hostspeed.Probe):
    """Warm up once, then repeat ``call`` until ``seconds`` have passed,
    probing the host speed between calls.

    Returns ``(reference result, Timing, all repeats matched)``.
    """
    reference = call()
    walls: List[float] = []
    normalized: List[float] = []
    probes = [probe()]
    matched = True
    deadline = time.perf_counter() + seconds
    while len(walls) < 3 or time.perf_counter() < deadline:
        elapsed, result = _timed(call)
        probes.append(probe())
        walls.append(elapsed)
        normalized.append(probe.normalized(elapsed, probes[-2], probes[-1]))
        matched = matched and same(result, reference)
    timing = Timing(
        runs=len(walls),
        wall_s=statistics.median(walls),
        normalized_s=statistics.median(normalized),
        speed=probe.reference_s / statistics.median(probes),
    )
    return reference, timing, matched


def _add(counts, key, value):
    counts[key] += value


def install_serve_spans(tracer: Tracer) -> None:
    """Wrap the serving stack's public entry points.

    ``schedule`` delegates to ``schedule_at``, so counting ``schedule_at``
    and ``schedule_batch`` counts every scheduled event once.
    """
    tracer.patch_method(
        DiscreteEventEngine, "run", "engine.run",
        lambda c, a, k, r: _add(c, "engine.executed", r),
    )
    tracer.patch_counter(
        DiscreteEventEngine, "schedule_at",
        lambda c, a, k, r: _add(c, "engine.scheduled", 1),
    )
    tracer.patch_counter(
        DiscreteEventEngine, "schedule_batch",
        lambda c, a, k, r: _add(c, "engine.scheduled", r),
    )
    tracer.patch_method(
        service_controller.MemoryController, "submit_all",
        "controller.submit_all",
    )
    tracer.patch_method(service_topology.ShardRouter, "split", "router.split")
    tracer.patch_function(service_controller, "build_backend", "build_backend")
    tracer.patch_function(service_report, "build_report", "report.build_report")
    tracer.patch_method(
        service_controller.ArrayBackend, "read_batch", "read_batch",
        lambda c, a, k, r: _add(c, "read_batch.words", len(a[1])),
    )
    tracer.patch_method(
        RecoveryController, "read_words", "faults.recovery.read_words"
    )
    tracer.patch_method(EccArray, "probe_words", "ecc.array.probe_words")
    tracer.patch_method(
        HammingSECDED, "decode_words", "ecc.hamming.decode_words",
        lambda c, a, k, r: _add(c, "ecc.hamming.decode_words.rows", len(a[1])),
    )
    for scheme_class in (
        ConventionalSensing, DestructiveSelfReference, NondestructiveSelfReference
    ):
        tracer.patch_method(
            scheme_class, "read_many", "core.read_many",
            lambda c, a, k, r: _add(c, "core.read_many.bits", r.size),
        )


def install_wafer_spans(tracer: Tracer) -> None:
    """Wrap the production-test flow's public steps where they are used."""
    tracer.patch_function(
        prodtest_march, "scheme_margin_arrays", "scheme_margin_arrays"
    )
    tracer.patch_function(
        prodtest_characterize, "characterize_dies", "characterize_dies"
    )
    tracer.patch_function(yield_model, "provision_ecc", "provision_ecc")
    tracer.patch_function(
        prodtest_march, "detection_coverage", "detection_coverage"
    )


@dataclasses.dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    attempted: int
    failed: int
    timing: Timing
    checks: Dict[str, bool]
    metrics: Dict[str, float]  #: by metric name (see BENCHMARK.json)
    tracer: Tracer

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def measure(call: Callable, same: Callable, seconds: float,
            probe: hostspeed.Probe, install: Callable, root: str):
    """Timed untraced runs, then one traced run inside a ``root`` span.

    Returns ``(reference, Timing, traced wall, tracer, registry,
    checks)``; the traced run has :func:`repro.obs.capture` active so its
    counters can be cross-checked against the spans.
    """
    reference, timing, repeats_match = timed_runs(call, same, seconds, probe)
    tracer = Tracer()
    try:
        install(tracer)
        with obs.capture() as (registry, _):
            traced_wall, traced = _timed(tracer.call, root, call)
    finally:
        restored = tracer.restore()
    checks = {
        "repeats_identical": repeats_match,
        "traced_equals_untraced": same(traced, reference),
        "spans_restored": restored,
    }
    return reference, timing, traced_wall, tracer, registry, checks


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def _layer_metrics(tracer: Tracer, self_names: Dict[str, str],
                   count_names: Tuple[str, ...], traced_wall: float):
    """Self times and counts of the traced run, keyed by metric name.

    ``self_names`` maps every span name the run records to the metric
    holding its summed self time, so ``trace.reconcile_error`` -- the gap
    between those self times and the traced wall time -- also catches a
    span left out of the report.
    """
    selfs = tracer.self_times()
    metrics = {
        metric: selfs.get(span, 0.0) for span, metric in self_names.items()
    }
    metrics.update({name: tracer.counts[name] for name in count_names})
    reported = sum(metrics[metric] for metric in self_names.values())
    metrics["trace.reconcile_error"] = abs(reported - traced_wall) / traced_wall
    return metrics


#: Span name -> per-layer metric of its self time (serving).
SERVE_SELF_TIMES = {
    "engine.run": "engine.run.self_s",
    "controller.submit_all": "controller.submit_all_s",
    "router.split": "router.split_s",
    "topology.simulate": "topology.merge_self_s",
    "report.build_report": "report.build_report_s",
    "build_backend": "build_backend_s",
    "read_batch": "read_batch.self_s",
    "faults.recovery.read_words": "faults.recovery.read_words.self_s",
    "ecc.array.probe_words": "ecc.array.probe_words.self_s",
    "ecc.hamming.decode_words": "ecc.hamming.decode_words.self_s",
    "core.read_many": "core.read_many.self_s",
}
SERVE_COUNTS = (
    "read_batch.calls", "read_batch.words",
    "faults.recovery.read_words.calls", "ecc.hamming.decode_words.calls",
    "ecc.hamming.decode_words.rows", "core.read_many.calls",
    "core.read_many.bits",
)


def run_serve(spec: ServeWorkload, requests, seconds: float) -> Outcome:
    """Time ``simulate_topology`` over the request list, then trace it."""
    topology = Topology.parse(spec.topology)
    read_time, write_time = scheme_service_times(SCHEME)

    def call():
        return service_topology.simulate_topology(
            requests, topology,
            read_time=read_time, write_time=write_time,
            interleave=spec.interleave, policy=spec.policy, scheme=SCHEME,
            offered_rate=spec.rate, cache_capacity=spec.cache_words,
            backed=spec.backed, fault_rate=spec.fault_rate,
            seed=BACKEND_SEED, processes=1,
        )

    reference, timing, traced_wall, tracer, registry, checks = measure(
        call, lambda a, b: a == b, seconds, spec.probe, install_serve_spans,
        "topology.simulate",
    )
    merged = reference.merged
    counts = tracer.counts
    unserved = merged.shed + merged.timed_out + merged.failed_requests
    metrics = _layer_metrics(tracer, SERVE_SELF_TIMES, SERVE_COUNTS, traced_wall)
    metrics.update({
        "host_kitems_per_s": merged.requests / timing.normalized_s / 1e3,
        "serve_kreq_per_s": merged.requests / timing.wall_s / 1e3,
        "sim_read_p50_ns": merged.read_latency.p50 * 1e9,
        "sim_read_p99_ns": merged.read_latency.p99 * 1e9,
        "sim_served_mreq_s": merged.throughput / 1e6,
        "failed_share": unserved / merged.requests,
        "trace.overhead_s": traced_wall - timing.wall_s,
        "host.speed": timing.speed,
        "engine.events": counts["engine.executed"],
        "retried_words": merged.retried_words,
        "failed_words": merged.failed_words,
        "corrupted_words": merged.corrupted_words,
        "cache_hit_rate": merged.cache_hit_rate,
    })
    metrics["engine.us_per_event"] = _per(
        metrics["engine.run.self_s"], metrics["engine.events"], 1e6
    )
    metrics["read_batch.words_per_call"] = _per(
        metrics["read_batch.words"], metrics["read_batch.calls"]
    )
    # Per word through the whole backend stack: the read_batch span
    # including its recovery, ECC, and sensing children.
    metrics["read_batch.us_per_word"] = _per(
        tracer.durations().get("read_batch", 0.0),
        metrics["read_batch.words"], 1e6,
    )

    try:
        merged.check_conservation()
        conserved = True
    except FaultError:
        conserved = False
    batch_sizes = registry.histogram("service.backend.batch_size") or {
        "count": 0, "sum": 0,
    }
    checks.update({
        "conservation": conserved,
        "zero_silent_escapes": merged.corrupted_words == 0,
        "self_times_reconcile":
            metrics["trace.reconcile_error"] <= RECONCILE_TOLERANCE,
        "batch_histogram_matches_spans":
            batch_sizes["count"] == metrics["read_batch.calls"]
            and batch_sizes["sum"] == metrics["read_batch.words"],
        "events_scheduled_equal_executed":
            counts["engine.scheduled"] == counts["engine.executed"],
        "backend_spans_fire_iff_backed":
            (metrics["read_batch.calls"] > 0) == spec.backed,
        # Both are called through repro.service.topology's own globals.
        "lookup_sites_traced":
            counts["report.build_report.calls"] == topology.channels + 1
            and counts["build_backend.calls"]
            == (topology.channels if spec.backed else 0),
    })
    return Outcome(
        attempted=merged.requests * timing.runs,
        failed=unserved * timing.runs,
        timing=timing,
        checks=checks,
        metrics=metrics,
        tracer=tracer,
    )


#: Span name -> per-layer metric of its self time (wafer flow).
WAFER_SELF_TIMES = {
    name: name + ".self_s"
    for name in ("scheme_margin_arrays", "characterize_dies",
                 "provision_ecc", "detection_coverage", "run_wafer")
}


def run_wafer_flow(spec: WaferWorkload, wafer, seconds: float) -> Outcome:
    """Time ``run_wafer`` over the built wafer, then trace it."""

    def same(a, b):
        return a.equals(b) and a.coverage == b.coverage

    reference, timing, traced_wall, tracer, _, checks = measure(
        lambda: run_wafer(wafer), same, seconds, spec.probe, install_wafer_spans,
        "run_wafer",
    )
    coverage = reference.coverage["overall"]
    metrics = _layer_metrics(tracer, WAFER_SELF_TIMES, (), traced_wall)
    metrics.update({
        "host_kitems_per_s": reference.dies / timing.normalized_s / 1e3,
        "wafer_kdies_per_s": reference.dies / timing.wall_s / 1e3,
        "wafer_ship_rate": reference.ship_rate,
        "wafer_coverage": coverage,
        "wafer_tester_ms_per_die":
            reference.total_test_seconds / reference.dies * 1e3,
        "trace.overhead_s": traced_wall - timing.wall_s,
        "host.speed": timing.speed,
    })
    checks.update({
        "coverage_at_least_0.99": coverage >= MIN_COVERAGE,
        "self_times_reconcile":
            metrics["trace.reconcile_error"] <= RECONCILE_TOLERANCE,
        "every_step_traced": all(
            tracer.counts[name + ".calls"] > 0 for name in WAFER_SELF_TIMES
        ),
    })
    passed = all(checks.values())
    metrics["failed_share"] = 0.0 if passed else 1.0
    return Outcome(
        attempted=reference.dies * timing.runs,
        failed=0 if passed else reference.dies * timing.runs,
        timing=timing,
        checks=checks,
        metrics=metrics,
        tracer=tracer,
    )
