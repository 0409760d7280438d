"""Chaos resilience: degraded-mode throughput, crash recovery, campaign.

The resilience layer's claims are quantitative, so they get a benchmark
with hard gates rather than only unit tests:

* **Degraded-mode throughput** — with one of C channels down for the
  whole trace, the sharded serving stack must still deliver at least
  ``(C-1)/C`` of its healthy throughput (within a declared tolerance):
  failover reroutes writes to survivors and fails unreachable reads
  loudly instead of stalling the fleet behind the dead channel.
* **Crash durability** — a mid-trace power loss followed by a journal
  replay must leave every acknowledged write bit-exact with the
  uninterrupted run (:func:`repro.service.journal.run_crash_restart`).
* **Chaos campaign** — every structural scenario (stall, bank-offline,
  sense lockup, channel outage, crash/restart) must conserve requests,
  escape nothing silently, and clear the availability floor
  (:func:`repro.service.failures.run_chaos_campaign`).

``CHAOS_BENCH_SMOKE=1`` (the CI smoke job) shrinks the workloads; the
full run pins the deployment-scale numbers, and both write their
machine-readable sections to ``results/BENCH_chaos.json``.
"""

import json
import os
import pathlib

import numpy as np

from repro.service import (
    ControllerConfig,
    ServeSpec,
    Topology,
    build_workload,
    channel_outage,
    run_chaos_campaign,
    run_crash_restart,
    scheme_service_times,
    serve,
)

SEED = 2010
SCHEME = "nondestructive"
CHANNELS = 4
TOPOLOGY = Topology(channels=CHANNELS, ranks=1, banks=4, rows=64)
RATE = 2.0e8
WRITE_FRACTION = 0.1
#: Throughput floor: one dead channel of C may cost its traffic share
#: plus this tolerance (rerouted writes load the survivors).
OUTAGE_TOLERANCE = 0.10
AVAILABILITY_FLOOR = 0.5

_SMOKE = bool(os.environ.get("CHAOS_BENCH_SMOKE"))
REQUESTS = 300 if _SMOKE else 1200
CAMPAIGN_REQUESTS = 150 if _SMOKE else 400
CAMPAIGN_BITS = 720 if _SMOKE else 2304

BENCH_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_chaos.json"


def _update_bench_json(section, payload):
    """Merge one section into the machine-readable BENCH_chaos.json."""
    BENCH_JSON.parent.mkdir(exist_ok=True)
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _section(name):
    return f"{name}_smoke" if _SMOKE else name


def _workload(addresses, write_fraction=WRITE_FRACTION):
    stream = build_workload(
        rate=RATE, addresses=addresses, write_fraction=write_fraction,
    )
    return stream.generate(REQUESTS, np.random.default_rng((SEED, 0)))


def test_single_channel_outage_throughput(report):
    """One dead channel must not cost more than its traffic share."""
    read_time, write_time = scheme_service_times(SCHEME)
    requests = _workload(TOPOLOGY.capacity)
    span = max(request.time for request in requests)

    def run(failures=None):
        return serve(requests, ServeSpec(
            config=ControllerConfig(
                read_time, write_time, banks=TOPOLOGY.banks_per_channel
            ),
            topology=TOPOLOGY, scheme=SCHEME, offered_rate=RATE, seed=SEED,
            failures=failures,
        ))

    healthy = run().merged
    # The whole trace, one channel down: the worst structural case the
    # interleaver can see short of losing a second channel.
    outage = channel_outage(0.0, 2.0 * span, channel=0)
    degraded_report = run(failures=outage)
    degraded = degraded_report.merged

    ratio = degraded.throughput / healthy.throughput
    floor = (CHANNELS - 1) / CHANNELS * (1.0 - OUTAGE_TOLERANCE)
    failover = degraded_report.failover

    report(f"Degraded-mode throughput — {TOPOLOGY.describe()} topology, "
           f"{SCHEME} scheme, channel 0 down whole-trace "
           f"({'smoke scale' if _SMOKE else 'full scale'})")
    report(f"  healthy:  {healthy.throughput / 1e6:8.1f} Mreq/s  "
           f"({healthy.completed}/{healthy.requests} served)")
    report(f"  degraded: {degraded.throughput / 1e6:8.1f} Mreq/s  "
           f"({degraded.completed}/{degraded.requests} served, "
           f"availability {degraded.availability:.1%})")
    report(f"  failover: {failover.rerouted_writes} writes rerouted, "
           f"{failover.unreachable_requests} unreachable reads, "
           f"{failover.remapped_words} words remapped")
    report(f"  throughput ratio {ratio:.3f} "
           f"(floor {floor:.3f} = {CHANNELS - 1}/{CHANNELS} channels "
           f"- {OUTAGE_TOLERANCE:.0%} tolerance)")

    _update_bench_json(_section("outage"), {
        "smoke": _SMOKE,
        "requests": REQUESTS,
        "topology": TOPOLOGY.describe(),
        "scheme": SCHEME,
        "offered_rate": RATE,
        "write_fraction": WRITE_FRACTION,
        "healthy_throughput": healthy.throughput,
        "degraded_throughput": degraded.throughput,
        "throughput_ratio": ratio,
        "ratio_floor": floor,
        "degraded_availability": degraded.availability,
        "unreachable_requests": failover.unreachable_requests,
        "rerouted_writes": failover.rerouted_writes,
    })

    assert ratio >= floor
    # Conservation: nothing vanished into the dead channel.
    assert degraded.requests == (
        degraded.completed + degraded.shed + degraded.timed_out
        + degraded.failed_requests
    )
    assert degraded.failed_requests == failover.unreachable_requests


def test_crash_restart_is_bit_exact(report):
    """Journal replay must restore every acknowledged write bit-exactly."""
    stream = build_workload(
        rate=RATE, addresses=CAMPAIGN_BITS // 72, write_fraction=0.35,
    )
    requests = stream.generate(
        CAMPAIGN_REQUESTS, np.random.default_rng((SEED, 0))
    )
    span = max(request.time for request in requests)
    result = run_crash_restart(
        requests, crash_time=0.5 * span, scheme=SCHEME, seed=SEED,
        bits=CAMPAIGN_BITS,
    )
    result.check()

    report(f"Crash/restart durability — {SCHEME} scheme, "
           f"{CAMPAIGN_BITS} bits, crash at 50% of the trace "
           f"({'smoke scale' if _SMOKE else 'full scale'})")
    report(f"  {result.pre_crash_completed} served pre-crash, "
           f"{result.resumed_completed} resumed, "
           f"{result.failed_requests} lost loudly")
    report(f"  journal: {result.journaled_writes} appended, "
           f"{result.acknowledged_writes} acknowledged, "
           f"{result.replayed_writes} replayed, "
           f"{result.lost_writes} lost")
    report(f"  durability: {result.durable_addresses} addresses checked, "
           f"{result.mismatched_addresses} mismatched "
           f"(bit-exact: {result.bit_exact})")

    _update_bench_json(_section("crash"), {
        "smoke": _SMOKE,
        "requests": CAMPAIGN_REQUESTS,
        "bits": CAMPAIGN_BITS,
        "scheme": SCHEME,
        "journaled_writes": result.journaled_writes,
        "acknowledged_writes": result.acknowledged_writes,
        "replayed_writes": result.replayed_writes,
        "lost_writes": result.lost_writes,
        "durable_addresses": result.durable_addresses,
        "mismatched_addresses": result.mismatched_addresses,
        "bit_exact": result.bit_exact,
        "conserved": result.conserved,
    })

    assert result.bit_exact
    assert result.conserved


def test_chaos_campaign_gates(report):
    """Every structural scenario must clear the resilience invariants."""
    result = run_chaos_campaign(
        CAMPAIGN_REQUESTS, scheme=SCHEME, seed=SEED, bits=CAMPAIGN_BITS,
        availability_floor=AVAILABILITY_FLOOR,
    )
    result.check()

    report(f"Chaos campaign — {SCHEME} scheme, {CAMPAIGN_BITS} bits, "
           f"availability floor {AVAILABILITY_FLOOR:.0%} "
           f"({'smoke scale' if _SMOKE else 'full scale'})")
    for row in result.rows:
        report(f"  {row.scenario:<16} {row.completed}/{row.requests} served  "
               f"t/o {row.timed_out}  fail {row.failed_requests}  "
               f"retry {row.retries}  hedge {row.hedged}  "
               f"avail {row.availability:.1%}")

    _update_bench_json(_section("campaign"), {
        "smoke": _SMOKE,
        "requests": CAMPAIGN_REQUESTS,
        **result.to_dict(),
    })

    for row in result.rows:
        assert row.conserved and row.bit_exact
        assert row.corrupted_words == 0
        assert row.availability >= AVAILABILITY_FLOOR
