"""Sharded channel → rank → bank topology for the serving layer.

One :class:`~repro.service.controller.MemoryController` over a flat
handful of banks is nothing like the organization a deployed part has.
This module builds the hierarchy a real deployment uses — ``channels``
independent channels, each with ``ranks × banks`` banks of ``rows``
words — and fans one request stream across it:

* :class:`Topology` — the geometry (``CxRxB`` plus rows per bank) and
  its derived address-space ``capacity``;
* **interleavers** — pluggable bijections between a flat logical address
  and a ``(channel, rank, bank, row)`` coordinate:
  ``row-major`` (consecutive addresses fill one bank's rows first — a
  hot region concentrates), ``channel-striped`` (the low address bits
  pick the channel, so consecutive and Zipf-hot addresses fan out
  across channels), and ``bank-xor`` (channel-striped plus a row-seeded
  bank permutation that breaks same-bank stride patterns, the classical
  permutation-based interleaving);
* :class:`ShardRouter` — splits a stream into per-channel shards and
  supplies each channel controller's ``bank_map`` (its local
  ``rank × banks + bank`` index);
* :func:`simulate_topology` — the driver: one deterministic
  :class:`~repro.service.engine.DiscreteEventEngine` per channel, each
  backed shard seeded from an isolated seed-split stream
  (:func:`shard_seeds`), run either sequentially (the reference) or on
  an opt-in ``multiprocessing`` pool (``processes > 1``), then merged
  into one :class:`TopologyReport`.

**Determinism contract.**  A shard's simulation depends only on its own
requests, its own engine, and its own seed — never on which executor ran
it.  The merge itself is plain arithmetic over per-shard results ordered
by channel index, so the multiprocess driver's merged
:class:`~repro.service.report.ServiceReport` is **bit-identical** to the
sequential reference under the same seed (gated in
``benchmarks/bench_topology_scaling.py`` and ``repro serve --topology
--check``).  See ``docs/TOPOLOGY.md``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import runtime as _obs
from repro.streams import SHARD_STREAM, stream_sequence
from repro.service.cache import ReadCache
from repro.service.controller import (
    FCFS,
    POLICIES,
    CompletedRequest,
    ControllerConfig,
    build_backend,
    drain_channel,
)
from repro.service.report import (
    ChannelRun,
    ServiceReport,
    build_report,
    publish_report,
)
from repro.service.workload import Request

__all__ = [
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
    "simulate_topology",
    "publish_topology_report",
]

ROW_MAJOR = "row-major"
BANK_XOR = "bank-xor"
CHANNEL_STRIPED = "channel-striped"
#: The pluggable address-interleaving schemes (see ``docs/TOPOLOGY.md``).
INTERLEAVINGS: Tuple[str, ...] = (ROW_MAJOR, BANK_XOR, CHANNEL_STRIPED)

#: RNG stream index reserved for the topology seed split — allocated in
#: the central :mod:`repro.streams` registry (see ``docs/API.md``).
_SHARD_STREAM = SHARD_STREAM


class Coord(NamedTuple):
    """One decomposed address: where a logical word physically lives."""

    channel: int
    rank: int
    bank: int
    row: int


@dataclasses.dataclass(frozen=True)
class Topology:
    """A channels × ranks × banks hierarchy of ``rows``-word banks.

    ``banks`` counts banks *per rank* (the DDR convention), so one
    channel owns ``ranks × banks`` independently schedulable banks and
    the whole part addresses ``channels × ranks × banks × rows`` words.
    """

    channels: int = 1
    ranks: int = 1
    banks: int = 4
    rows: int = 512

    def __post_init__(self) -> None:
        for field in ("channels", "ranks", "banks", "rows"):
            value = getattr(self, field)
            if value < 1:
                raise ConfigurationError(f"{field} must be >= 1, got {value}")

    @classmethod
    def parse(cls, spec: str, rows: int = 512) -> "Topology":
        """Parse a ``CxRxB`` spec (e.g. ``4x2x4``) into a topology."""
        parts = spec.lower().split("x")
        try:
            channels, ranks, banks = (int(part) for part in parts)
        except ValueError:
            raise ConfigurationError(
                f"topology must be CHANNELSxRANKSxBANKS, got {spec!r}"
            ) from None
        return cls(channels=channels, ranks=ranks, banks=banks, rows=rows)

    @property
    def banks_per_channel(self) -> int:
        """Independently schedulable banks one channel controller owns."""
        return self.ranks * self.banks

    @property
    def total_banks(self) -> int:
        """Banks across the whole part."""
        return self.channels * self.ranks * self.banks

    @property
    def capacity(self) -> int:
        """Addressable words across the whole part."""
        return self.total_banks * self.rows

    def describe(self) -> str:
        """The ``CxRxB`` spec string of this topology."""
        return f"{self.channels}x{self.ranks}x{self.banks}"


# ---------------------------------------------------------------------------
# Interleavers
# ---------------------------------------------------------------------------
class Interleaver:
    """A bijection between logical addresses and physical coordinates.

    ``decompose``/``compose`` are written elementwise (``//``, ``%``,
    ``^``), so they accept Python ints *and* numpy integer arrays — the
    router vectorizes channel assignment over a whole stream in one call.
    Addresses must lie in ``[0, topology.capacity)``.
    """

    name = ""

    def __init__(self, topology: Topology):
        self.topology = topology

    def decompose(self, address) -> Coord:
        """The ``(channel, rank, bank, row)`` a logical address maps to."""
        raise NotImplementedError

    def compose(self, channel, rank, bank, row):
        """The logical address a coordinate maps back to (inverse)."""
        raise NotImplementedError


class RowMajorInterleaver(Interleaver):
    """Consecutive addresses fill one bank's rows before moving on.

    The simplest linear layout: row bits low, then bank, then rank, then
    channel on top.  Sequential scans and Zipf-hot prefixes concentrate
    on channel 0 — the baseline the striped schemes are measured against.
    """

    name = ROW_MAJOR

    def decompose(self, address) -> Coord:
        t = self.topology
        row = address % t.rows
        rest = address // t.rows
        bank = rest % t.banks
        rest = rest // t.banks
        rank = rest % t.ranks
        channel = rest // t.ranks
        return Coord(channel, rank, bank, row)

    def compose(self, channel, rank, bank, row):
        t = self.topology
        return ((channel * t.ranks + rank) * t.banks + bank) * t.rows + row


class ChannelStripedInterleaver(Interleaver):
    """The low address bits pick the channel (cache-line striping).

    Consecutive addresses — and the Zipf distribution's hottest words —
    land on distinct channels, so one hot region loads the whole machine
    width instead of one controller.
    """

    name = CHANNEL_STRIPED

    def decompose(self, address) -> Coord:
        t = self.topology
        channel = address % t.channels
        rest = address // t.channels
        rank = rest % t.ranks
        rest = rest // t.ranks
        bank = rest % t.banks
        row = rest // t.banks
        return Coord(channel, rank, bank, row)

    def compose(self, channel, rank, bank, row):
        t = self.topology
        return ((row * t.banks + bank) * t.ranks + rank) * t.channels + channel


class BankXorInterleaver(ChannelStripedInterleaver):
    """Channel striping plus a row-seeded bank permutation.

    On top of the striped layout the bank index is permuted by the row
    (``bank ^ (row % banks)`` when ``banks`` is a power of two, the
    classical XOR interleave; an additive rotation ``(bank + row) %
    banks`` otherwise).  Both permutations are bijective per row, so the
    scheme stays invertible — and a strided scan that would hammer one
    bank under pure striping walks all of them instead.
    """

    name = BANK_XOR

    def _pow2(self) -> bool:
        banks = self.topology.banks
        return banks & (banks - 1) == 0

    def decompose(self, address) -> Coord:
        channel, rank, bank, row = super().decompose(address)
        turn = row % self.topology.banks
        if self._pow2():
            bank = bank ^ turn
        else:
            bank = (bank + turn) % self.topology.banks
        return Coord(channel, rank, bank, row)

    def compose(self, channel, rank, bank, row):
        turn = row % self.topology.banks
        if self._pow2():
            bank = bank ^ turn
        else:
            bank = (bank - turn) % self.topology.banks
        return super().compose(channel, rank, bank, row)


_INTERLEAVERS = {
    ROW_MAJOR: RowMajorInterleaver,
    CHANNEL_STRIPED: ChannelStripedInterleaver,
    BANK_XOR: BankXorInterleaver,
}


def build_interleaver(scheme: str, topology: Topology) -> Interleaver:
    """The named interleaver bound to ``topology``."""
    try:
        return _INTERLEAVERS[scheme](topology)
    except KeyError:
        raise ConfigurationError(
            f"unknown interleaving {scheme!r}; expected one of {INTERLEAVINGS}"
        ) from None


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------
class ShardRouter:
    """Front end fanning one request stream across per-channel shards.

    Logical addresses wrap modulo the topology's capacity (the same
    convention :class:`~repro.service.controller.ArrayBackend` uses for
    its word space), then the interleaver decides which channel serves
    the word and which of the channel's ``ranks × banks`` local banks
    it occupies.
    """

    def __init__(self, topology: Topology, interleave: str = CHANNEL_STRIPED):
        self.topology = topology
        self.interleaver = build_interleaver(interleave, topology)

    def coordinate(self, address: int) -> Coord:
        """The full physical coordinate of one logical address."""
        return self.interleaver.decompose(address % self.topology.capacity)

    def channel_of(self, address: int) -> int:
        """The channel serving one logical address."""
        return int(self.coordinate(address).channel)

    def local_bank(self, address: int) -> int:
        """The channel-local bank index (``rank × banks + bank``).

        This is the ``bank_map`` each per-channel
        :class:`~repro.service.controller.MemoryController` runs with, so
        the controller's queueing happens on the interleaver's banks
        rather than a flat modulo.
        """
        coord = self.coordinate(address)
        return int(coord.rank) * self.topology.banks + int(coord.bank)

    def split(self, requests: Sequence[Request]) -> List[Tuple[Request, ...]]:
        """Per-channel shards, each preserving arrival order and ids."""
        shards: List[List[Request]] = [[] for _ in range(self.topology.channels)]
        if requests:
            addresses = np.fromiter(
                (request.address for request in requests),
                dtype=np.int64,
                count=len(requests),
            )
            channels = self.interleaver.decompose(
                addresses % self.topology.capacity
            ).channel
            for request, channel in zip(requests, channels):
                shards[int(channel)].append(request)
        return [tuple(shard) for shard in shards]

    def split_with_failover(
        self,
        requests: Sequence[Request],
        outages: Sequence[Tuple[int, float, float]],
    ):
        """Split under channel outages; degraded-mode additive failover.

        ``outages`` is a sequence of ``(channel, start, end)`` windows
        (see :meth:`repro.service.failures.FailureScenario.outage_windows`).
        The front end scans the stream in arrival order, maintaining a
        remap table from each relocated address to the surviving channel
        now holding its data:

        * a **write** whose target channel is down reroutes to the first
          surviving channel counting up from its home (additive
          fallback) and the address is remapped there — the data now
          *lives* on the fallback, so later reads follow it;
        * a **read** whose data is resident on a down channel fails
          loudly at the front end (an ``unreachable`` terminal record) —
          a detected loss, never a silently stale or invented value;
        * a **write** arriving after the home channel healed lands back
          home and the remap entry is dropped — the mapping restores
          itself through write traffic, no migration pass needed.

        Returns ``(shards, frontend_failures, stats)``: the per-channel
        shards, the terminal :class:`CompletedRequest` records the front
        end produced (bank indices already global), and a
        :class:`FailoverStats` summary.
        """
        channels = self.topology.channels
        windows: List[List[Tuple[float, float]]] = [[] for _ in range(channels)]
        for channel, start, end in outages:
            if not 0 <= channel < channels:
                raise ConfigurationError(
                    f"outage channel {channel} out of range for "
                    f"{channels} channels"
                )
            windows[int(channel)].append((float(start), float(end)))

        def down(channel: int, time: float) -> bool:
            return any(s <= time < e for s, e in windows[channel])

        per_channel = self.topology.banks_per_channel
        shards: List[List[Request]] = [[] for _ in range(channels)]
        frontend: List[CompletedRequest] = []
        remap: Dict[int, int] = {}
        ever_remapped: set = set()
        unreachable = rerouted = restored = 0
        for request in requests:
            address = request.address % self.topology.capacity
            home = int(self.interleaver.decompose(address).channel)
            target = remap.get(address, home)
            if request.is_read:
                if down(target, request.time):
                    # The resident copy is unreachable: fail loudly.
                    unreachable += 1
                    frontend.append(CompletedRequest(
                        request=request,
                        bank=home * per_channel + self.local_bank(address),
                        start=request.time,
                        finish=request.time,
                        failed=True,
                        unreachable=True,
                    ))
                else:
                    shards[target].append(request)
                continue
            # Writes carry fresh data, so they may land on any live
            # channel: first survivor counting up from home.
            fallback = None
            for offset in range(channels):
                candidate = (home + offset) % channels
                if not down(candidate, request.time):
                    fallback = candidate
                    break
            if fallback is None:
                unreachable += 1
                frontend.append(CompletedRequest(
                    request=request,
                    bank=home * per_channel + self.local_bank(address),
                    start=request.time,
                    finish=request.time,
                    failed=True,
                    unreachable=True,
                ))
                continue
            if fallback == home:
                if address in remap:
                    del remap[address]
                    restored += 1
            elif remap.get(address) != fallback:
                remap[address] = fallback
                ever_remapped.add(address)
                rerouted += 1
            shards[fallback].append(request)
        stats = FailoverStats(
            outages=tuple(
                (int(channel), float(start), float(end))
                for channel, start, end in outages
            ),
            unreachable_requests=unreachable,
            rerouted_writes=rerouted,
            remapped_words=len(ever_remapped),
            restored_words=restored,
            residual_remaps=len(remap),
        )
        return [tuple(shard) for shard in shards], tuple(frontend), stats


@dataclasses.dataclass(frozen=True)
class FailoverStats:
    """Front-end accounting of a degraded-mode (channel outage) run."""

    outages: Tuple[Tuple[int, float, float], ...]  #: (channel, start, end)
    unreachable_requests: int  #: failed loudly at the front end
    rerouted_writes: int       #: writes diverted to a surviving channel
    remapped_words: int        #: distinct addresses ever relocated
    restored_words: int        #: remaps undone by post-heal writes
    residual_remaps: int       #: still relocated when the trace ended


# ---------------------------------------------------------------------------
# Seed split
# ---------------------------------------------------------------------------
def shard_seeds(seed: int, channels: int) -> Tuple[int, ...]:
    """One independent backend seed per channel, split from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning on the dedicated
    topology stream ``(seed, 6)``: child streams are statistically
    independent of each other *and* of every other stream in the library
    (build/fault/read/stats/workload/drift).  The split is a pure
    function of ``(seed, channel)`` — channel ``c``'s seed does not
    change when the channel count does — so shard simulations replay
    bit-exactly however the work is executed.
    """
    if channels < 1:
        raise ConfigurationError(f"channels must be >= 1, got {channels}")
    sequence = stream_sequence(seed, "shards")
    return tuple(
        int(child.generate_state(1, np.uint64)[0])
        for child in sequence.spawn(channels)
    )


# ---------------------------------------------------------------------------
# Per-shard execution (picklable: runs on multiprocessing workers)
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _ShardSpec:
    """Everything one shard simulation needs, picklable."""

    requests: Tuple[Request, ...]
    topology: Topology
    interleave: str
    policy: str
    config: ControllerConfig
    cache_capacity: int
    backed: bool
    scheme: str
    fault_rate: float
    shard_seed: int
    backend_bits: int = 16384


def _run_shard(spec: _ShardSpec) -> ChannelRun:
    """Simulate one channel on its own engine (executor-agnostic).

    Module-level so :mod:`multiprocessing` can pickle it by name; the
    worker rebuilds the router and (in backed mode) the channel's own
    seed-split array backend from the spec.  The result depends only on
    the spec — never on the executor.
    """
    router = ShardRouter(spec.topology, spec.interleave)
    cache = ReadCache(spec.cache_capacity) if spec.cache_capacity > 0 else None
    backend = retry_policy = None
    if spec.backed:
        backend, retry_policy = build_backend(
            spec.scheme, seed=spec.shard_seed, bits=spec.backend_bits,
            fault_rate=spec.fault_rate,
        )
    return drain_channel(
        spec.requests, spec.config, policy=spec.policy, cache=cache,
        backend=backend, retry_policy=retry_policy,
        bank_map=router.local_bank,
    )


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class TopologyReport:
    """One sharded run: the merged report plus per-channel breakdowns.

    Compares with ``==`` like every report in this layer — the equality
    behind both ``repro serve --topology --check`` and the
    sequential-vs-multiprocess bit-identity gate.  Deliberately carries
    no record of *how* it was executed (process count, wall clock): two
    runs of the same simulation are the same report.
    """

    topology: Topology
    interleave: str
    merged: ServiceReport
    channel_reports: Tuple[ServiceReport, ...]
    #: Front-end failover accounting; None for a healthy (no-outage) run,
    #: so reports from before the resilience layer compare unchanged.
    failover: Optional["FailoverStats"] = None

    @property
    def channel_served(self) -> Tuple[int, ...]:
        """Requests completed per channel."""
        return tuple(report.completed for report in self.channel_reports)

    @property
    def rank_served(self) -> Tuple[int, ...]:
        """Requests served per rank, channel-major over the merged banks."""
        per_rank = self.topology.banks
        served = self.merged.bank_served
        return tuple(
            sum(served[start:start + per_rank])
            for start in range(0, len(served), per_rank)
        )

    def to_dict(self) -> dict:
        """Plain nested dict (JSON-friendly)."""
        return {
            "topology": dataclasses.asdict(self.topology),
            "interleave": self.interleave,
            "merged": self.merged.to_dict(),
            "channel_reports": [r.to_dict() for r in self.channel_reports],
            "channel_served": list(self.channel_served),
            "rank_served": list(self.rank_served),
            "failover": (
                dataclasses.asdict(self.failover)
                if self.failover is not None else None
            ),
        }


def _merge_runs(
    runs: Sequence[ChannelRun],
    topology: Topology,
    interleave: str,
    *,
    scheme: str,
    offered_rate: float,
    frontend: Tuple = (),
    failover: Optional[FailoverStats] = None,
) -> TopologyReport:
    """Fold per-channel runs (ordered by channel) into one report.

    ``frontend`` carries the router's terminal failure records from a
    degraded-mode run (bank indices already global): they join the merged
    accounting — so the conservation invariant covers them — but no
    channel's own report, which stays a pure function of its shard.
    """
    channel_reports = tuple(
        build_report(
            run, scheme=scheme, offered_rate=offered_rate / topology.channels
        )
        for run in runs
    )
    merged = build_report(
        ChannelRun.merge(runs, frontend),
        scheme=scheme,
        offered_rate=offered_rate,
    )
    # Every shard drained and the front end accounted for what it never
    # forwarded, so the merged view must conserve requests exactly.
    merged.check_conservation()
    for channel_report in channel_reports:
        channel_report.check_conservation()
    return TopologyReport(
        topology=topology,
        interleave=interleave,
        merged=merged,
        channel_reports=channel_reports,
        failover=failover,
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def simulate_topology(
    requests: Sequence[Request],
    topology: Topology,
    *,
    read_time: float,
    write_time: float,
    interleave: str = CHANNEL_STRIPED,
    policy: str = FCFS,
    scheme: str = "",
    offered_rate: float = 0.0,
    cache_capacity: int = 0,
    batch_limit: int = 8,
    batch_extra_fraction: float = 0.4,
    backend_window: int = 1,
    backed: bool = False,
    fault_rate: float = 0.0,
    seed: int = 2010,
    processes: int = 1,
    backend_bits: int = 16384,
    failures=None,
) -> TopologyReport:
    """Fan ``requests`` across the topology and merge the shard runs.

    Each channel simulates on its own deterministic engine; in backed
    mode (``backed=True`` or ``fault_rate > 0``) each channel gets its
    own 16kb array seeded from :func:`shard_seeds`.  ``processes > 1``
    runs shards on a spawn-context :mod:`multiprocessing` pool — purely
    an executor choice: the merged report is bit-identical to the
    sequential reference (``processes=1``) under the same seed.  Each
    channel's ``cache_capacity``-word read cache is private to it, so
    total cache across the part scales with the channel count.

    Note: multiprocessing workers are fresh interpreters, so live
    per-request :mod:`repro.obs` instrumentation only fires in
    sequential in-process runs; :func:`publish_topology_report` gauges
    (computed from the merged report, in the parent) are identical
    either way.  The usual spawn caveat applies: a script calling this
    with ``processes > 1`` must be importable without side effects
    (guard the call with ``if __name__ == "__main__":``), or the
    workers re-execute the script top level.

    ``failures`` optionally passes a
    :class:`~repro.service.failures.FailureScenario` whose events must
    all be channel outages: the router runs
    :meth:`ShardRouter.split_with_failover` instead of :meth:`split`,
    serving degraded over the surviving channels (see
    ``docs/RESILIENCE.md``).  Flat scenarios (stalls, bank failures)
    belong to a single controller — install them via
    :func:`~repro.service.controller.simulate_service` — and are
    rejected here.
    """
    if not requests:
        raise ConfigurationError("requests must be a non-empty sequence")
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown policy {policy!r}; expected one of {POLICIES}"
        )
    if processes < 1:
        raise ConfigurationError(f"processes must be >= 1, got {processes}")
    backed = backed or fault_rate > 0.0
    if backed and not scheme:
        raise ConfigurationError("backed topology runs need a sensing scheme")
    router = ShardRouter(topology, interleave)
    frontend: Tuple = ()
    failover = None
    if failures is not None:
        from repro.service.failures import CHANNEL_OUTAGE

        bad = [e.kind for e in failures.events if e.kind != CHANNEL_OUTAGE]
        if bad:
            raise ConfigurationError(
                f"topology runs only take channel-outage scenarios; got "
                f"{sorted(set(bad))} — install flat scenarios on a single "
                "controller via simulate_service(failures=...)"
            )
        shards, frontend, failover = router.split_with_failover(
            requests, failures.outage_windows()
        )
    else:
        shards = router.split(requests)
    config = ControllerConfig(
        read_time=read_time,
        write_time=write_time,
        banks=topology.banks_per_channel,
        batch_limit=batch_limit,
        batch_extra_fraction=batch_extra_fraction,
        backend_window=backend_window,
    )
    seeds = shard_seeds(seed, topology.channels)
    specs = [
        _ShardSpec(
            requests=shard,
            topology=topology,
            interleave=interleave,
            policy=policy,
            config=config,
            cache_capacity=cache_capacity,
            backed=backed,
            scheme=scheme,
            fault_rate=fault_rate,
            shard_seed=seeds[channel],
            backend_bits=backend_bits,
        )
        for channel, shard in enumerate(shards)
    ]
    if processes > 1 and topology.channels > 1:
        # Spawn (not fork): workers import the module fresh, so shard
        # state can never leak between parent and children — the same
        # isolation the sequential reference has between iterations.
        context = multiprocessing.get_context("spawn")
        with context.Pool(min(processes, topology.channels)) as pool:
            runs = pool.map(_run_shard, specs)
    else:
        runs = [_run_shard(spec) for spec in specs]
    return _merge_runs(
        runs, topology, interleave,
        scheme=scheme, offered_rate=offered_rate,
        frontend=frontend, failover=failover,
    )


def publish_topology_report(report: TopologyReport) -> None:
    """Mirror a topology run into ``service.topology.*`` obs gauges.

    No-op when observability is off.  Publishes the merged report's
    ``service.*`` gauges first, then the topology shape and the
    per-channel / per-rank breakdowns (labelled ``channel=i`` /
    ``rank=i``, rank indices channel-major).
    """
    if not _obs.active():
        return
    publish_report(report.merged)
    registry = _obs.get_registry()
    topology = report.topology
    registry.set_gauge("service.topology.channels", topology.channels)
    registry.set_gauge("service.topology.ranks_per_channel", topology.ranks)
    registry.set_gauge("service.topology.banks_per_rank", topology.banks)
    registry.set_gauge("service.topology.total_banks", topology.total_banks)
    for index, channel_report in enumerate(report.channel_reports):
        registry.set_gauge(
            "service.topology.channel_served",
            channel_report.completed,
            channel=index,
        )
        registry.set_gauge(
            "service.topology.channel_read_p99_ns",
            channel_report.read_latency.p99 * 1e9,
            channel=index,
        )
        registry.set_gauge(
            "service.topology.channel_queue_depth_mean",
            channel_report.queue_depth.mean_depth,
            channel=index,
        )
    for index, served in enumerate(report.rank_served):
        registry.set_gauge("service.topology.rank_served", served, rank=index)
    if report.failover is not None:
        registry.set_gauge(
            "service.topology.failover.unreachable",
            report.failover.unreachable_requests,
        )
        registry.set_gauge(
            "service.topology.failover.rerouted_writes",
            report.failover.rerouted_writes,
        )
        registry.set_gauge(
            "service.topology.failover.remapped_words",
            report.failover.remapped_words,
        )
