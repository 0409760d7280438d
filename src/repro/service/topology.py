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
* :class:`ShardRouter` — splits a stream into per-channel shards, each
  with its requests' local ``rank × banks + bank`` indices as a column;
* :func:`serve` — the one serving driver: a :class:`ServeSpec` in, one
  deterministic channel drain per channel (calendar-free when hook-free,
  see :func:`~repro.service.controller.drain_channel`), each backed
  channel seeded from its own channel seed
  (:func:`shard_seeds`), run either sequentially (the reference) or on
  an opt-in ``multiprocessing`` pool (``processes > 1``), then merged
  into one :class:`TopologyReport`.  A flat run is the ``1x1xB`` part.

**Determinism contract.**  A shard's simulation depends only on its own
requests, its own drain, and its own seed — never on which executor ran
it.  The merge itself is plain arithmetic over per-shard results ordered
by channel index, so the multiprocess driver's merged
:class:`~repro.service.report.ServiceReport` is **bit-identical** to the
sequential reference under the same seed (gated in
``benchmarks/bench_topology_scaling.py`` and ``repro serve --topology
--check``).  See ``docs/TOPOLOGY.md``.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
from typing import (
    TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import runtime as _obs
from repro.streams import SHARD_STREAM, stream_sequence
from repro.service.cache import ReadCache
from repro.service.controller import (
    FCFS,
    POLICIES,
    ControllerConfig,
    build_backend,
    drain_channel,
)
from repro.service.failures import (
    CHANNEL_OUTAGE, CONTROLLER_STALL, CRASH_RESTART, FailureScenario,
)
from repro.service.journal import CrashStats, WriteAheadJournal
from repro.service.report import (
    _NO_COMPLETIONS,
    ChannelRun,
    ServiceReport,
    _LogBuilder,
    build_report,
    publish_report,
)
from repro.service.workload import Request

if TYPE_CHECKING:
    from repro.faults.drift import DriftScenario
    from repro.service.adaptive import AdaptiveConfig, SLOTarget

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
    "ServeSpec",
    "serve",
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

    ``decompose`` is written elementwise (``//``, ``%``, ``^``), so it
    accepts Python ints *and* numpy integer arrays — the router
    vectorizes channel assignment over a whole stream in one call.
    Addresses must lie in ``[0, topology.capacity)``.
    """

    name = ""

    def __init__(self, topology: Topology):
        self.topology = topology

    def decompose(self, address) -> Coord:
        """The ``(channel, rank, bank, row)`` a logical address maps to."""
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
        """The channel-local bank index (``rank × banks + bank``): the
        bank a channel controller queues the address on."""
        coord = self.coordinate(address)
        return int(coord.rank) * self.topology.banks + int(coord.bank)

    def _locate(self, requests: Sequence[Request]):
        """The channel and the :meth:`local_bank` of every request, as
        two arrays from one decomposition of the stream."""
        addresses = np.fromiter(
            (request.address for request in requests),
            dtype=np.int64,
            count=len(requests),
        )
        coord = self.interleaver.decompose(addresses % self.topology.capacity)
        return coord.channel, coord.rank * self.topology.banks + coord.bank

    def split(
        self, requests: Sequence[Request]
    ) -> Tuple[List[Tuple[Request, ...]], List[List[int]]]:
        """Per-channel shards, in stream order, and their :meth:`local_bank`
        columns, from one decomposition of the stream and one stable sort
        of its channel column."""
        channels = self.topology.channels
        if not requests:
            return [() for _ in range(channels)], [[] for _ in range(channels)]
        return self._cut(requests, *self._locate(requests))

    def _cut(self, requests: Sequence[Request], channel: np.ndarray,
             local: np.ndarray):
        """The shards and bank columns of a target-channel column: one
        stable sort keeps each shard in stream order, and rows whose
        target is -1 (failed at the front end) land in no shard."""
        order = np.argsort(channel, kind="stable")
        local = local[order].tolist()
        order = order.tolist()
        counts = np.bincount(channel + 1, minlength=self.topology.channels + 1)
        ends = np.cumsum(counts).tolist()
        cuts = list(zip(ends[:-1], ends[1:]))
        return (
            [tuple([requests[index] for index in order[a:b]]) for a, b in cuts],
            [local[a:b] for a, b in cuts],
        )

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
          loudly at the front end (an ``unreachable`` terminal row) —
          a detected loss, never a silently stale or invented value;
        * a **write** arriving after the home channel healed lands back
          home and the remap entry is dropped — the mapping restores
          itself through write traffic, no migration pass needed.

        Returns ``(shards, banks, frontend, stats)``: the per-channel
        shards with their :meth:`local_bank` columns as :meth:`split`
        gives them, the :class:`CompletionLog` of the requests the front
        end failed (bank indices already global), and a
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
        frontend = _LogBuilder(requests)
        remap: Dict[int, int] = {}
        ever_remapped: set = set()
        rerouted = restored = 0
        home_column, local_column = self._locate(requests)
        homes, local = home_column.tolist(), local_column.tolist()
        # The channel serving each request; -1 where the front end fails it.
        targets = [-1] * len(requests)

        def fail(index: int, request: Request) -> None:
            frontend.add(
                index, homes[index] * per_channel + local[index],
                request.time, request.time, failed=True, unreachable=True,
            )

        for index, request in enumerate(requests):
            address = request.address % self.topology.capacity
            home = homes[index]
            target = remap.get(address, home)
            if request.is_read:
                if down(target, request.time):
                    # The resident copy is unreachable: fail loudly.
                    fail(index, request)
                else:
                    targets[index] = target
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
                fail(index, request)
                continue
            if fallback == home:
                if address in remap:
                    del remap[address]
                    restored += 1
            elif remap.get(address) != fallback:
                remap[address] = fallback
                ever_remapped.add(address)
                rerouted += 1
            targets[index] = fallback
        shards, banks = self._cut(
            requests, np.array(targets, dtype=np.int64), local_column
        )
        stats = FailoverStats(
            outages=tuple(
                (int(channel), float(start), float(end))
                for channel, start, end in outages
            ),
            unreachable_requests=len(frontend.rows),
            rerouted_writes=rerouted,
            remapped_words=len(ever_remapped),
            restored_words=restored,
            residual_remaps=len(remap),
        )
        return shards, banks, frontend.build(), stats


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
    #: Journal-replay durability accounting; None without a crash.
    crash: Optional[CrashStats] = None

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
            "crash": (
                dataclasses.asdict(self.crash)
                if self.crash is not None else None
            ),
        }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ServeSpec:
    """Everything one serving run needs besides its requests: frozen and
    picklable, so each channel's drain can run on a worker process.

    ``config`` is the per-channel controller; ``topology`` defaults to the
    flat ``1x1xB`` part of ``config.banks`` banks, which serves exactly
    like one controller.  A run is backed (each channel reads a
    ``backend_bits``-cell array through the recovery ladder) when
    ``backed`` is set or ``fault_rate > 0``.  ``failures`` may mix channel
    outages (routed around at the front end) with flat kinds (installed
    on the owning channel, see :meth:`FailureScenario.on_channel`).
    A ``crash-restart`` event restarts every channel from its journal
    (:func:`_drain_shard`).  ``slo`` attaches the adaptive loop on every
    channel, tuned by ``adaptive_config``; ``drift`` strikes every
    channel's array.  These three act on the array, so they need a
    backed run; a run crashes at most once, and never with the other two
    or a channel outage.
    """

    config: ControllerConfig
    topology: Optional[Topology] = None
    interleave: str = CHANNEL_STRIPED
    policy: str = FCFS
    scheme: str = ""
    offered_rate: float = 0.0
    cache_capacity: int = 0
    backed: bool = False
    fault_rate: float = 0.0
    backend_bits: int = 16384
    seed: int = 2010
    failures: Optional[FailureScenario] = None
    slo: Optional[SLOTarget] = None
    adaptive_config: Optional[AdaptiveConfig] = None
    drift: Optional[DriftScenario] = None

    def __post_init__(self) -> None:
        if self.topology is None:
            flat = Topology(banks=self.config.banks)
            object.__setattr__(self, "topology", flat)
        topology = self.topology
        if self.config.banks != topology.banks_per_channel:
            raise ConfigurationError(
                f"config has {self.config.banks} banks but each "
                f"{topology.describe()} channel has {topology.banks_per_channel}"
            )
        build_interleaver(self.interleave, topology)
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}"
            )
        if not 0.0 <= self.offered_rate < math.inf:
            raise ConfigurationError(
                f"offered_rate must be finite and >= 0, got {self.offered_rate}"
            )
        if self.cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigurationError(
                f"fault_rate must be within [0, 1], got {self.fault_rate}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.is_backed and not self.scheme:
            raise ConfigurationError("backed runs need a sensing scheme")
        events = self.failures.events if self.failures is not None else ()
        kinds = [event.kind for event in events]
        crashes = kinds.count(CRASH_RESTART)
        acts_on_array = self.slo is not None or self.drift is not None
        if (acts_on_array or crashes) and not self.is_backed:
            raise ConfigurationError(
                "adaptive serving, drift and crash-restart scenarios need a "
                "backed run"
            )
        if crashes > 1:
            raise ConfigurationError(
                f"a run crashes at most once, got {crashes} crash-restart events"
            )
        if crashes and (acts_on_array or CHANNEL_OUTAGE in kinds):
            raise ConfigurationError(
                "crash-restart does not compose with adaptive serving, drift "
                "or a channel outage"
            )
        for event in events:
            if event.kind == CHANNEL_OUTAGE:
                limit, unit = topology.channels, "channels"
            elif event.kind not in (CONTROLLER_STALL, CRASH_RESTART):
                limit, unit = topology.total_banks, "banks"
            else:
                continue
            if event.target >= limit:
                raise ConfigurationError(
                    f"{event.kind} target {event.target} out of range for "
                    f"{limit} {unit}"
                )

    @property
    def is_backed(self) -> bool:
        """Whether each channel reads through a real array."""
        return self.backed or self.fault_rate > 0.0


def _drain_shard(
    spec: ServeSpec, channel: int, seed: int, requests, banks, line_rate: float
) -> Tuple[ChannelRun, Optional[CrashStats]]:
    """Drain one channel (executor-agnostic).

    Module-level so :mod:`multiprocessing` can pickle it by name.  The
    channel's array and its drift strikes are seeded from ``seed`` alone,
    so the result depends only on the arguments, never on the executor.
    ``banks`` holds each request's local bank.

    Under a crash the channel drains three times: journaled up to the
    crash, restarted on a fresh array with the journal replayed, and
    uninterrupted as the reference every acknowledged write must match.
    The run holds both phases plus an ``unreachable`` row per request in
    flight at the crash.
    """
    failures = None
    if spec.failures is not None:
        failures = spec.failures.on_channel(
            channel, spec.topology.banks_per_channel
        )

    def fresh_array():
        """A backend on the channel's base image (None in timing mode)."""
        if not spec.is_backed:
            return None
        return build_backend(
            spec.scheme, seed=seed, bits=spec.backend_bits,
            fault_rate=spec.fault_rate,
        )

    def drain(stream, backend, stream_banks, **hooks) -> ChannelRun:
        cache = ReadCache(spec.cache_capacity) if spec.cache_capacity > 0 else None
        return drain_channel(
            stream, spec.config, policy=spec.policy, cache=cache,
            backend=backend, banks=stream_banks,
            failures=failures, slo=spec.slo,
            adaptive_config=spec.adaptive_config, line_rate=line_rate,
            drift=spec.drift, **hooks,
        )

    crash = spec.failures.crash_time if spec.failures is not None else None
    if crash is None:
        return drain(requests, fresh_array(), banks), None
    journal = WriteAheadJournal()
    before = drain(requests, fresh_array(), banks, journal=journal, until=crash)
    acked = journal.acknowledged_records()
    unacked = journal.unacknowledged_records()
    restarted = fresh_array()
    replayed = journal.replay(restarted)
    done = set(before.completions.request_id.tolist())
    dropped = _LogBuilder(requests)
    for index, request in enumerate(requests):
        if request.time <= crash and request.request_id not in done:
            dropped.add(index, banks[index], crash, crash, failed=True,
                        unreachable=True)
    lost = dropped.build()
    later = [index for index, request in enumerate(requests)
             if request.time > crash]
    after = drain(
        [requests[index] for index in later], restarted,
        [banks[index] for index in later], journal=journal,
    )
    reference = fresh_array()
    drain(requests, reference, banks)
    # Acknowledged writes must survive bit-exactly unless a lost write
    # raced the same word (the reference applied it; the restart never
    # saw it), or two logical addresses alias onto the word: on
    # different banks, their writes may land in another order after the
    # restart than in the uninterrupted run.
    words = restarted.size_words
    writers: Dict[int, set] = {}
    for request in requests:
        if not request.is_read:
            writers.setdefault(request.address % words, set()).add(request.address)
    durable = (
        {record.address % words for record in acked}
        - {record.address % words for record in unacked}
        - {word for word, addresses in writers.items() if len(addresses) > 1}
    )
    mismatched = sum(
        restarted._truth.get(word) != reference._truth.get(word)
        for word in durable
    )
    stats = CrashStats(
        pre_crash_completed=build_report(before).completed,
        resumed_completed=build_report(after).completed,
        lost_requests=len(lost),
        journaled_writes=journal.appended,
        acknowledged_writes=len(acked),
        replayed_writes=replayed,
        lost_writes=len(unacked),
        durable_addresses=len(durable),
        mismatched_addresses=mismatched,
    )
    return before.then(after, lost), stats


def serve(
    requests: Sequence[Request], spec: ServeSpec, *, processes: int = 1
) -> TopologyReport:
    """Serve ``requests`` as ``spec`` describes; the one serving driver.

    The router splits the stream into per-channel shards (failing over
    around any channel outages in ``spec.failures``), each channel drains
    through :func:`~repro.service.controller.drain_channel` with the local
    banks the split handed it, and the runs merge into one
    :class:`TopologyReport` whose
    merged and per-channel reports are conservation-checked.

    Channel ``c`` seeds its array and drift strikes from one channel
    seed: the run seed on a one-channel part — so a flat run is the
    single controller it always was — and ``shard_seeds(seed, C)[c]``
    otherwise.  The adaptive loop of each channel acts at its fair share
    of the line rate (``offered_rate``, or the stream's own mean rate
    when that is 0).  A ``crash-restart`` failure restarts every channel
    from its journal; the report's ``crash`` then sums their durability
    accounting.

    ``processes > 1`` drains channels on a spawn-context
    :mod:`multiprocessing` pool — purely an executor choice: the report
    is bit-identical to the sequential reference (``processes=1``).
    Workers are fresh interpreters, so live per-request :mod:`repro.obs`
    instrumentation only fires in-process; :func:`publish_topology_report`
    gauges are identical either way.  A script calling this with
    ``processes > 1`` must be importable without side effects (guard the
    call with ``if __name__ == "__main__":``).
    """
    if not requests:
        raise ConfigurationError("requests must be a non-empty sequence")
    if processes < 1:
        raise ConfigurationError(f"processes must be >= 1, got {processes}")
    topology = spec.topology
    router = ShardRouter(topology, spec.interleave)
    outages = (
        spec.failures.outage_windows() if spec.failures is not None else ()
    )
    frontend, failover = _NO_COMPLETIONS, None
    if outages:
        shards, banks, frontend, failover = router.split_with_failover(
            requests, outages
        )
    else:
        shards, banks = router.split(requests)
    line_rate = spec.offered_rate
    if spec.slo is not None and line_rate <= 0.0:
        span = max(request.time for request in requests)
        line_rate = len(requests) / span if span > 0.0 else 1.0
    channels = topology.channels
    seeds = (spec.seed,) if channels == 1 else shard_seeds(spec.seed, channels)
    jobs = [
        (spec, channel, seeds[channel], shard, banks[channel],
         line_rate / channels)
        for channel, shard in enumerate(shards)
    ]
    if processes > 1 and channels > 1:
        # Spawn (not fork): workers import the module fresh, so shard
        # state can never leak between parent and children — the same
        # isolation the sequential reference has between iterations.
        context = multiprocessing.get_context("spawn")
        with context.Pool(min(processes, channels)) as pool:
            drained = pool.starmap(_drain_shard, jobs)
    else:
        drained = [_drain_shard(*job) for job in jobs]
    runs = [run for run, _ in drained]
    crashes = [stats for _, stats in drained if stats is not None]
    # Every shard drained and the front end accounted for what it never
    # forwarded, so each view must conserve requests exactly.
    channel_reports = tuple(
        build_report(
            run, scheme=spec.scheme, offered_rate=spec.offered_rate / channels
        ).check_conservation()
        for run in runs
    )
    if channels == 1 and not frontend:
        merged = channel_reports[0]  # one channel is its own merged view
    else:
        merged = build_report(
            ChannelRun.merge(runs, frontend),
            scheme=spec.scheme,
            offered_rate=spec.offered_rate,
        ).check_conservation()
    return TopologyReport(
        topology=topology,
        interleave=spec.interleave,
        merged=merged,
        channel_reports=channel_reports,
        failover=failover,
        crash=CrashStats.total(crashes) if crashes else None,
    )


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
    backed: bool = False,
    fault_rate: float = 0.0,
    seed: int = 2010,
    processes: int = 1,
) -> TopologyReport:
    """:func:`serve` under the keyword signature ``perfbench/`` pins.

    Builds a :class:`ServeSpec` with a default controller of
    ``topology.banks_per_channel`` banks; new callers use :func:`serve`.
    """
    config = ControllerConfig(
        read_time=read_time, write_time=write_time,
        banks=topology.banks_per_channel,
    )
    return serve(requests, ServeSpec(
        config=config, topology=topology, interleave=interleave,
        policy=policy, scheme=scheme, offered_rate=offered_rate,
        cache_capacity=cache_capacity, backed=backed, fault_rate=fault_rate,
        seed=seed,
    ), processes=processes)


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
