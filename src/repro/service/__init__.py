"""repro.service — trace-driven memory-controller and serving subsystem.

This package evaluates sensing schemes at the array-controller level,
under realistic request streams, rather than per cell: the paper's ~2×
read-latency advantage of the nondestructive self-reference scheme
compounds under load into a ≥ 1.5× gap in the request rate a 4-bank macro
sustains before saturating (``benchmarks/bench_service_throughput.py``).

Layers (see ``docs/SERVICE.md`` for the full model):

* :class:`DiscreteEventEngine` — deterministic event calendar (no RNG),
  kept as the calendar of the engine-callback test oracle;
* :mod:`~repro.service.workload` — Poisson / bursty-MMPP arrivals ×
  uniform / Zipfian addresses × read-write mix, plus the JSONL trace
  format (:func:`save_trace` / :func:`load_trace` round-trip is
  bit-exact);
* :class:`MemoryController` — a channel's one event loop over per-bank
  queues with pluggable policies (``fcfs``, ``read-priority``,
  ``batch``), a bounded write buffer, an optional :class:`ReadCache`,
  and an optional :class:`ArrayBackend` running every read through the
  retry → ECC → scrub → repair ladder under fault injection;
* :class:`ServiceReport` — throughput, mean/p50/p99/p99.9 latency,
  queue-depth stats, and :func:`find_saturation_rate`, all mirrored into
  ``service.*`` :mod:`repro.obs` metrics;
* :mod:`~repro.service.topology` — the sharded channel → rank → bank
  hierarchy: pluggable address interleavers, a :class:`ShardRouter`
  fanning one stream across per-channel controllers, each on its own
  calendar with seed-split RNG, and :func:`serve` — the one serving
  driver: a :class:`ServeSpec` in, the shards drained sequentially or on
  a bit-identical multiprocess executor and merged into one
  :class:`TopologyReport` out; a flat run is the ``1x1xB`` part (see
  ``docs/TOPOLOGY.md``).

CLI front end: ``python -m repro serve`` (``--check`` replays a saved
trace and asserts report equality with the live run;
``--topology CxRxB --interleave <scheme> --shards N`` runs the sharded
hierarchy under the same gate).

The resilience layer (:mod:`~repro.service.failures` +
:mod:`~repro.service.journal`, see ``docs/RESILIENCE.md``) adds
deterministic structural failure scenarios (channel outage, controller
stall, bank-offline, sense-amp lockup, crash-restart) scheduled from the reserved
``(seed, 7)`` stream, request deadlines / hedged reads / bounded
controller retries, degraded-mode failover over surviving channels, and
a write-ahead journal whose replay after a mid-trace crash is bit-exact
for every acknowledged write — all swept by :func:`run_chaos_campaign`
under the enforced conservation invariant
``requests == completed + shed + timed_out + failed``.
"""

from repro.service.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    AdmissionGate,
    SLOTarget,
)
from repro.service.cache import ReadCache
from repro.service.controller import (
    BATCH,
    FCFS,
    POLICIES,
    READ_PRIORITY,
    ArrayBackend,
    ControllerConfig,
    MemoryController,
    build_backend,
    drain_channel,
    scheme_service_times,
)
from repro.service.engine import DiscreteEventEngine
from repro.service.failures import (
    CHAOS_SCENARIOS,
    FAILURE_KINDS,
    ChaosCampaignResult,
    ChaosRow,
    FailureEvent,
    FailureScenario,
    bank_offline,
    build_failure_scenario,
    channel_outage,
    controller_stall,
    crash_restart,
    run_chaos_campaign,
    sense_amp_lockup,
)
from repro.service.journal import (
    CrashStats,
    JournalRecord,
    WriteAheadJournal,
)
from repro.service.report import (
    ChannelRun,
    CompletionLog,
    LatencyStats,
    QueueStats,
    ServiceReport,
    build_report,
    find_saturation_rate,
    publish_report,
)
from repro.service.topology import (
    BANK_XOR,
    CHANNEL_STRIPED,
    INTERLEAVINGS,
    ROW_MAJOR,
    Coord,
    FailoverStats,
    Interleaver,
    ServeSpec,
    ShardRouter,
    Topology,
    TopologyReport,
    build_interleaver,
    publish_topology_report,
    serve,
    shard_seeds,
    simulate_topology,
)
from repro.service.workload import (
    READ,
    WRITE,
    MMPPArrivals,
    PoissonArrivals,
    Request,
    RequestStream,
    UniformAddresses,
    ZipfianAddresses,
    build_workload,
    load_trace,
    save_trace,
)

__all__ = [
    "DiscreteEventEngine",
    "READ",
    "WRITE",
    "Request",
    "PoissonArrivals",
    "MMPPArrivals",
    "UniformAddresses",
    "ZipfianAddresses",
    "RequestStream",
    "build_workload",
    "save_trace",
    "load_trace",
    "ReadCache",
    "FCFS",
    "READ_PRIORITY",
    "BATCH",
    "POLICIES",
    "ControllerConfig",
    "ArrayBackend",
    "MemoryController",
    "drain_channel",
    "scheme_service_times",
    "build_backend",
    "LatencyStats",
    "QueueStats",
    "ServiceReport",
    "ChannelRun",
    "CompletionLog",
    "build_report",
    "publish_report",
    "find_saturation_rate",
    "SLOTarget",
    "AdaptiveConfig",
    "AdmissionGate",
    "AdaptiveController",
    "ROW_MAJOR",
    "BANK_XOR",
    "CHANNEL_STRIPED",
    "INTERLEAVINGS",
    "Coord",
    "Topology",
    "Interleaver",
    "build_interleaver",
    "ShardRouter",
    "FailoverStats",
    "TopologyReport",
    "shard_seeds",
    "ServeSpec",
    "serve",
    "simulate_topology",
    "publish_topology_report",
    "FAILURE_KINDS",
    "CHAOS_SCENARIOS",
    "FailureEvent",
    "FailureScenario",
    "controller_stall",
    "bank_offline",
    "sense_amp_lockup",
    "channel_outage",
    "crash_restart",
    "build_failure_scenario",
    "ChaosRow",
    "ChaosCampaignResult",
    "run_chaos_campaign",
    "JournalRecord",
    "WriteAheadJournal",
    "CrashStats",
]
