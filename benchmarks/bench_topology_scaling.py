"""Topology scaling: saturation throughput vs channel count.

One controller over 4 banks saturates when its hottest bank does; the
sharded :mod:`repro.service.topology` layer scales that ceiling by
fanning the same Zipfian stream across independent channels.  Driving
``Cx1x4`` topologies (channel-striped interleave, nondestructive read
times) through :func:`find_saturation_rate` shows:

* **cacheless**, scaling flattens near 2x regardless of channel count —
  the single hottest word (~17 % of Zipf-1.1 traffic) serializes on one
  bank, a ceiling no interleaving can move;
* with each channel's own small read cache absorbing that hot set (the
  deployment configuration — cache hardware scales with channels), 4
  channels sustain well over the issue's **>= 2x** floor vs 1 channel;
* the multiprocess executor reproduces the sequential merged report
  **bit for bit** at the knee (the ``docs/TOPOLOGY.md`` contract).

``TOPOLOGY_BENCH_SMOKE=1`` (the CI smoke job) shrinks the workload and
relaxes the scaling floor; the full run pins the >= 2x gate.
"""

import json
import os
import pathlib

import numpy as np

from repro.service import (
    CHANNEL_STRIPED,
    ControllerConfig,
    ServeSpec,
    Topology,
    build_workload,
    find_saturation_rate,
    scheme_service_times,
    serve,
)

ADDRESSES = 2048     # shared logical address space (Zipf skew identical)
SEED = 2010
ROWS = 512           # 1x1x4 capacity == ADDRESSES: the flat baseline
CHANNEL_COUNTS = (1, 2, 4)
CACHE_CONFIGS = (0, 16)      # words of read cache per channel
GATED_CACHE = 16             # the deployment config the >= 2x floor gates
INTERLEAVE = CHANNEL_STRIPED
SCHEME = "nondestructive"

_SMOKE = bool(os.environ.get("TOPOLOGY_BENCH_SMOKE"))
REQUESTS = 400 if _SMOKE else 1200
SCALING_FLOOR = 1.2 if _SMOKE else 2.0

BENCH_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_topology.json"


def _update_bench_json(section, payload):
    """Merge one section into the machine-readable BENCH_topology.json."""
    BENCH_JSON.parent.mkdir(exist_ok=True)
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _workload(rate):
    stream = build_workload(
        rate=rate, addressing="zipfian", addresses=ADDRESSES
    )
    return stream.generate(REQUESTS, np.random.default_rng((SEED, 3)))


def _simulate(topology, rate, read_time, write_time, cache, processes=1):
    config = ControllerConfig(
        read_time, write_time, banks=topology.banks_per_channel
    )
    return serve(_workload(rate), ServeSpec(
        config=config, topology=topology, interleave=INTERLEAVE,
        scheme=SCHEME, offered_rate=rate, cache_capacity=cache,
    ), processes=processes)


def test_topology_channel_scaling(report):
    """Saturation rate vs channel count, plus the mp bit-identity gate."""
    read_time, write_time = scheme_service_times(SCHEME)
    results = {}
    for cache in CACHE_CONFIGS:
        for channels in CHANNEL_COUNTS:
            topology = Topology(
                channels=channels, ranks=1, banks=4, rows=ROWS
            )
            saturation = find_saturation_rate(
                lambda rate: _simulate(
                    topology, rate, read_time, write_time, cache
                ).merged,
                low=1e7, high=2e8, read_time=read_time,
            )
            knee = _simulate(
                topology, saturation, read_time, write_time, cache
            )
            results[cache, channels] = {
                "topology": topology,
                "saturation": saturation,
                "knee": knee,
            }

    # Executor gate: the multiprocess driver must reproduce the
    # sequential merged report bit for bit at the widest topology's knee.
    widest = max(CHANNEL_COUNTS)
    topology = results[GATED_CACHE, widest]["topology"]
    rate = results[GATED_CACHE, widest]["saturation"]
    sequential = _simulate(
        topology, rate, read_time, write_time, GATED_CACHE
    )
    multiprocess = _simulate(
        topology, rate, read_time, write_time, GATED_CACHE, processes=2
    )
    mp_identical = multiprocess == sequential

    report("Topology scaling — Zipfian traffic, channel-striped "
           f"interleave, {SCHEME} scheme, Cx1x4 "
           f"({'smoke scale' if _SMOKE else 'full scale'})")
    for cache in CACHE_CONFIGS:
        report()
        report(f"  read cache: {cache} words per channel"
               + ("  (gated deployment config)" if cache == GATED_CACHE
                  else "  (hot-word ceiling baseline)"))
        for channels in CHANNEL_COUNTS:
            entry = results[cache, channels]
            knee = entry["knee"].merged
            loads = "/".join(
                str(count) for count in entry["knee"].channel_served
            )
            report(f"    {entry['topology'].describe():<6} "
                   f"sat {entry['saturation'] / 1e6:7.0f} Mreq/s   "
                   f"p99 {knee.read_latency.p99 * 1e9:6.1f} ns   "
                   f"hit rate {knee.cache_hit_rate:.2f}   "
                   f"channel loads {loads}")

    advantages = {
        cache: results[cache, 4]["saturation"] / results[cache, 1]["saturation"]
        for cache in CACHE_CONFIGS
    }
    report()
    report(f"saturation advantage 4 vs 1 channels: "
           f"{advantages[GATED_CACHE]:.2f}x cached "
           f"(floor {SCALING_FLOOR:.1f}x), "
           f"{advantages[0]:.2f}x cacheless (hot-word-bound)")
    report(f"multiprocess merged report bit-identical: {mp_identical}")

    _update_bench_json("scaling_smoke" if _SMOKE else "scaling", {
        "smoke": _SMOKE,
        "requests": REQUESTS,
        "addresses": ADDRESSES,
        "interleave": INTERLEAVE,
        "scheme": SCHEME,
        "rows": ROWS,
        "gated_cache_per_channel": GATED_CACHE,
        "saturation_req_per_s": {
            f"cache{cache}_ch{channels}": results[cache, channels]["saturation"]
            for cache in CACHE_CONFIGS
            for channels in CHANNEL_COUNTS
        },
        "advantage_4_vs_1": advantages[GATED_CACHE],
        "advantage_4_vs_1_cacheless": advantages[0],
        "advantage_floor": SCALING_FLOOR,
        "mp_bit_identical": mp_identical,
    })

    # The issue's acceptance gates: channel scaling and executor parity.
    assert advantages[GATED_CACHE] >= SCALING_FLOOR
    assert mp_identical
    # Sharding must not lose requests: every knee run drained completely.
    for entry in results.values():
        merged = entry["knee"].merged
        assert merged.completed == merged.requests == REQUESTS
