"""Service-level summaries: throughput, latency percentiles, saturation.

A :class:`ServiceReport` condenses one controller run into plain frozen
dataclasses (floats, ints, tuples all the way down), so two reports
compare with ``==`` — the equality check behind ``repro serve --check``,
which demands a replayed trace reproduce the live run **exactly**.

:func:`publish_report` mirrors the headline numbers into
:mod:`repro.obs` gauges (``service.*``), complementing the per-request
counters and histograms the controller emits live, and
:func:`find_saturation_rate` locates the knee of the latency curve — the
highest offered rate a scheme sustains before queueing blows its mean
read latency past ``slowdown_limit`` unloaded read times.  The paper's
§V saturation-gap claim is exactly the ratio of that knee between the
nondestructive and destructive schemes
(``benchmarks/bench_service_throughput.py``).
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, FaultError
from repro.obs import runtime as _obs
from repro.service.workload import READ, Request

__all__ = [
    "LatencyStats",
    "QueueStats",
    "ServiceReport",
    "CompletionLog",
    "ChannelRun",
    "build_report",
    "publish_report",
    "find_saturation_rate",
]


@dataclasses.dataclass(frozen=True)
class LatencyStats:
    """Latency distribution summary [s]."""

    count: int
    mean: float
    p50: float
    p99: float
    p999: float
    max: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        """Summarize samples (all-zero stats for an empty sequence)."""
        values = np.asarray(samples, dtype=float)
        if values.size == 0:
            return cls(count=0, mean=0.0, p50=0.0, p99=0.0, p999=0.0, max=0.0)
        p50, p99, p999 = np.percentile(values, (50.0, 99.0, 99.9))
        return cls(
            count=int(values.size),
            mean=float(np.mean(values)),
            p50=float(p50),
            p99=float(p99),
            p999=float(p999),
            max=float(np.max(values)),
        )


@dataclasses.dataclass(frozen=True)
class QueueStats:
    """Per-bank queue depth, sampled at every service start."""

    samples: int
    mean_depth: float
    max_depth: int

    @classmethod
    def from_samples(cls, samples: Sequence[int]) -> "QueueStats":
        values = np.asarray(samples, dtype=float)
        if values.size == 0:
            return cls(samples=0, mean_depth=0.0, max_depth=0)
        return cls(
            samples=int(values.size),
            mean_depth=float(np.mean(values)),
            max_depth=int(values.max()),
        )


@dataclasses.dataclass(frozen=True)
class ServiceReport:
    """One controller run, condensed and ``==``-comparable."""

    scheme: str
    policy: str
    banks: int
    offered_rate: float      #: configured arrival rate [1/s] (0 = unknown)
    read_time: float         #: unloaded read occupancy [s]
    requests: int
    completed: int
    reads: int
    writes: int
    cache_hits: int
    cache_hit_rate: float
    batches: int             #: coalesced groups of size > 1
    retried_words: int
    failed_words: int
    corrupted_words: int
    duration: float          #: makespan: last completion time [s]
    throughput: float        #: completed / duration [1/s]
    read_latency: LatencyStats
    write_latency: LatencyStats
    queue_depth: QueueStats
    bank_served: Tuple[int, ...]
    # Adaptive-serving accounting (all zero for a static run, so reports
    # from before the adaptive layer compare unchanged).  Every request
    # is either served (``completed``) or shed — nothing escapes
    # silently: ``requests == completed + shed`` on a drained run.
    shed: int = 0                #: rejected by admission control
    shed_low_priority: int = 0   #: of which priority > 0
    scrubbed_words: int = 0      #: background scrub rewrites
    adaptive_actions: int = 0    #: actuator steps the controller applied
    adaptive_alarms: int = 0     #: healthy → breached transitions
    # Resilience accounting (all zero unless deadlines, hedging,
    # controller retries, failover, or a crash were in play, so reports
    # from before the resilience layer compare unchanged).  The full
    # conservation invariant a drained run must satisfy is
    # ``requests == completed + shed + timed_out + failed_requests``
    # (:meth:`check_conservation`).
    timed_out: int = 0           #: deadline expired before service
    failed_requests: int = 0     #: terminal failures (no served response)
    detected_loss: int = 0       #: served completions flagged failed
    hedged: int = 0              #: reads cloned to a sibling bank
    hedge_wins: int = 0          #: of which the clone finished first
    request_retries: int = 0     #: controller-level re-queues performed

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests shed by admission control."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def availability(self) -> float:
        """Fraction of submitted requests served with a real response."""
        return self.completed / self.requests if self.requests else 1.0

    def check_conservation(self) -> "ServiceReport":
        """Enforce ``requests == completed + shed + timed_out + failed``.

        Raises :class:`~repro.errors.FaultError` when a drained run lost
        track of a request — the invariant that makes "zero silent
        escapes" checkable at the request level.  Returns ``self`` so the
        call chains.
        """
        accounted = (
            self.completed + self.shed + self.timed_out + self.failed_requests
        )
        if self.requests != accounted:
            raise FaultError(
                f"request conservation violated: {self.requests} submitted "
                f"but {accounted} accounted for ({self.completed} completed "
                f"+ {self.shed} shed + {self.timed_out} timed out + "
                f"{self.failed_requests} failed)"
            )
        return self

    @property
    def read_slowdown(self) -> float:
        """Mean read latency over the unloaded read time."""
        return self.read_latency.mean / self.read_time if self.read_time else 0.0

    def to_dict(self) -> dict:
        """Plain nested dict (JSON-friendly)."""
        return dataclasses.asdict(self)


#: Every :class:`CompletionLog` column with its dtype, in field order.
_LOG_COLUMNS = (
    ("request_id", np.int64),
    ("arrival", np.float64),        # request arrival time [s]
    ("is_read", np.bool_),
    ("priority", np.int64),
    ("bank", np.int64),
    ("start", np.float64),          # service start [s]
    ("finish", np.float64),         # completion [s]
    ("batched_with", np.int64),
    ("attempts", np.int64),
    ("retries", np.int64),
    ("cache_hit", np.bool_),
    ("failed", np.bool_),
    ("shed", np.bool_),
    ("timed_out", np.bool_),
    ("unreachable", np.bool_),
)

#: The service columns a :class:`_LogBuilder` holds one value per group
#: of rows served together for; it holds the others sparsely, as the
#: positions of the rows where they are set.
_GROUP_COLUMNS = (
    "bank", "start", "finish", "batched_with", "attempts", "cache_hit",
    "shed", "timed_out",
)


@dataclasses.dataclass(frozen=True, eq=False)
class CompletionLog:
    """Terminal requests of a run as read-only columns, one row each.

    Each row holds the request's id, arrival, op and priority plus its
    service accounting.  A scalar passed for a column holds for every
    row (a plainly served run has ``batched_with=1``, no flags).  An
    array of the column's dtype and length is kept, not copied, and
    frozen.  Logs compare ``==`` column by column and pickle by their
    columns.
    """

    request_id: np.ndarray
    arrival: np.ndarray
    is_read: np.ndarray
    priority: np.ndarray
    bank: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    batched_with: np.ndarray = 1
    attempts: np.ndarray = 1
    retries: np.ndarray = 0
    cache_hit: np.ndarray = False
    failed: np.ndarray = False
    shed: np.ndarray = False
    timed_out: np.ndarray = False
    unreachable: np.ndarray = False

    def __post_init__(self) -> None:
        rows = np.shape(self.request_id)
        for name, dtype in _LOG_COLUMNS:
            column = getattr(self, name)
            if not (
                isinstance(column, np.ndarray)
                and column.dtype == dtype and column.shape == rows
            ):
                column = np.array(
                    np.broadcast_to(np.asarray(column, dtype), rows)
                )
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @classmethod
    def concat(
        cls, logs: Sequence["CompletionLog"], offsets: Sequence[int]
    ) -> "CompletionLog":
        """``logs`` one after another, each one's banks moved by its offset."""
        return cls(
            bank=np.concatenate([
                log.bank + offset for log, offset in zip(logs, offsets)
            ]),
            **{
                name: np.concatenate([getattr(log, name) for log in logs])
                for name, _ in _LOG_COLUMNS
                if name != "bank"
            },
        )

    def __len__(self) -> int:
        return len(self.request_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompletionLog):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _LOG_COLUMNS
        )

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name, _ in _LOG_COLUMNS)


class _LogBuilder:
    """A :class:`CompletionLog` while it is recorded: flat lists of
    numbers, turned into columns once by :meth:`build`.

    ``rows`` holds each row's index into ``requests``, the stream the
    request columns are gathered from, and ``sizes`` the number of rows
    of each group recorded together.  Every service column is a list
    named after it.  The ``_GROUP_COLUMNS`` hold one value per group,
    repeated over its rows by :meth:`build`.  The rarely set per-row
    ones are sparse: ``failed`` and ``unreachable`` list the positions
    (into ``rows``) of the rows they flag, and ``retries`` those of the
    rows retried, with each one's count in ``retry_counts``.
    """

    __slots__ = ("requests", "rows", "sizes", "retry_counts") + tuple(
        name for name, _ in _LOG_COLUMNS[4:]
    )

    def __init__(self, requests: Sequence[Request]) -> None:
        self.requests = requests
        self.rows: List[int] = []
        self.sizes: List[int] = []
        self.retry_counts: List[int] = []
        for name, _ in _LOG_COLUMNS[4:]:
            setattr(self, name, [])

    def add(
        self, index: int, bank: int, start: float, finish: float, *,
        batched_with: int = 1, attempts: int = 1, retries: int = 0,
        cache_hit: bool = False, failed: bool = False, shed: bool = False,
        timed_out: bool = False, unreachable: bool = False,
    ) -> None:
        """Record request ``index`` as one row, a group of its own."""
        self.add_group([index], bank, start, finish, batched_with, attempts,
                       cache_hit, [failed], [retries], [unreachable], shed,
                       timed_out)

    def add_group(
        self, rows: List[int], bank: int, start: float, finish: float,
        batched_with: int = 1, attempts: int = 1, cache_hit: bool = False,
        failed: Optional[List[bool]] = None,
        retries: Optional[List[int]] = None,
        unreachable: Optional[List[bool]] = None,
        shed: bool = False, timed_out: bool = False,
    ) -> None:
        """Record ``rows`` as one group: ``failed``, ``retries`` and
        ``unreachable`` hold one value per row (all false or 0 when
        None), the other columns one value for the group."""
        at = len(self.rows)
        self.rows += rows
        self.sizes.append(len(rows))
        self.bank.append(bank)
        self.start.append(start)
        self.finish.append(finish)
        self.batched_with.append(batched_with)
        self.attempts.append(attempts)
        self.cache_hit.append(cache_hit)
        self.shed.append(shed)
        self.timed_out.append(timed_out)
        if failed:
            self.failed += [at + i for i, flag in enumerate(failed) if flag]
        if unreachable:
            self.unreachable += [
                at + i for i, flag in enumerate(unreachable) if flag
            ]
        if retries:
            for i, count in enumerate(retries):
                if count:
                    self.retries.append(at + i)
                    self.retry_counts.append(count)

    def build(
        self,
        arrival: Optional[Sequence[float]] = None,
        is_read: Optional[Sequence[bool]] = None,
    ) -> CompletionLog:
        """The log of the rows recorded so far.  ``arrival`` and
        ``is_read`` may hand over those columns of the whole stream."""
        requests, sizes = self.requests, self.sizes
        rows = np.fromiter(self.rows, np.int64, len(self.rows))

        def gather(values, dtype):
            return np.fromiter(values, dtype, len(requests))[rows]

        def column(name, dtype):
            values = getattr(self, name)
            if name in _GROUP_COLUMNS:
                return np.repeat(np.fromiter(values, dtype, len(values)), sizes)
            column = np.zeros(rows.size, dtype)
            column[values] = self.retry_counts if name == "retries" else True
            return column

        if arrival is None:
            arrival = map(operator.attrgetter("time"), requests)
        if is_read is None:
            is_read = (request.op == READ for request in requests)
        return CompletionLog(
            request_id=gather(
                map(operator.attrgetter("request_id"), requests), np.int64
            ),
            arrival=gather(arrival, np.float64),
            is_read=gather(is_read, np.bool_),
            priority=gather(
                map(operator.attrgetter("priority"), requests), np.int64
            ),
            **{name: column(name, dtype) for name, dtype in _LOG_COLUMNS[4:]},
        )


#: The log of a run that left no terminal request.
_NO_COMPLETIONS = _LogBuilder(()).build()


@dataclasses.dataclass(frozen=True)
class ChannelRun:
    """What one drained controller leaves behind: plain, frozen, picklable.

    :func:`~repro.service.controller.drain_channel` returns one per
    channel; topology shards ship it back from their workers, and
    :meth:`merge` folds several into the view of the whole part.  The
    counters are zero when the layer that feeds them was not in play
    (timing mode, no adaptive loop, no hedging or controller retries).
    """

    policy: str
    banks: int
    read_time: float         #: unloaded read occupancy [s]
    submitted: int
    completions: CompletionLog  #: every terminal request, one row each
    depth_samples: Tuple[int, ...]
    bank_served: Tuple[int, ...]
    retried_words: int = 0
    failed_words: int = 0
    corrupted_words: int = 0
    scrubbed_words: int = 0
    adaptive_actions: int = 0
    adaptive_alarms: int = 0
    hedged: int = 0
    hedge_wins: int = 0
    request_retries: int = 0

    @classmethod
    def merge(
        cls,
        runs: Sequence["ChannelRun"],
        frontend: CompletionLog = _NO_COMPLETIONS,
    ) -> "ChannelRun":
        """Concatenate channel runs (in channel order) into one run.

        Bank indices are offset by the banks of the runs before them, so
        per-occupancy batch dedup — keyed on ``(bank, start)`` — cannot
        collide across channels; counters are summed.  ``frontend``
        logs terminal requests produced before any channel saw them
        (bank indices already global): they count as submitted.
        """
        offsets = list(itertools.accumulate(
            (run.banks for run in runs), initial=0
        ))
        counters = {
            name: sum(getattr(run, name) for run in runs)
            for name in _RUN_COUNTERS
        }
        return cls(
            policy=runs[0].policy,
            banks=offsets[-1],
            read_time=runs[0].read_time,
            submitted=sum(run.submitted for run in runs) + len(frontend),
            completions=CompletionLog.concat(
                [run.completions for run in runs] + [frontend],
                offsets[:-1] + [0],
            ),
            depth_samples=tuple(itertools.chain.from_iterable(
                run.depth_samples for run in runs
            )),
            bank_served=tuple(itertools.chain.from_iterable(
                run.bank_served for run in runs
            )),
            **counters,
        )

    def then(self, later: "ChannelRun", lost: CompletionLog) -> "ChannelRun":
        """This run, then ``later`` on the same banks (a restart), then
        the terminal ``lost`` requests this run dropped; loads and
        counters add up, ``submitted`` stays this run's."""
        return dataclasses.replace(
            self,
            completions=CompletionLog.concat(
                [self.completions, later.completions, lost], (0, 0, 0)
            ),
            depth_samples=self.depth_samples + later.depth_samples,
            bank_served=tuple(
                a + b for a, b in zip(self.bank_served, later.bank_served)
            ),
            **{
                name: getattr(self, name) + getattr(later, name)
                for name in _RUN_COUNTERS
            },
        )


#: The :class:`ChannelRun` counters :meth:`ChannelRun.merge` sums.
_RUN_COUNTERS = (
    "retried_words", "failed_words", "corrupted_words", "scrubbed_words",
    "adaptive_actions", "adaptive_alarms", "hedged", "hedge_wins",
    "request_retries",
)


def build_report(
    run: ChannelRun,
    scheme: str = "",
    offered_rate: float = 0.0,
) -> ServiceReport:
    """Summarize a drained channel (or a merged view of several).

    Latency arrays are assembled in ``request_id`` order (a stable sort),
    so the summary is a pure function of the completion set —
    independent of the order events happened to fire in.  A request is
    served unless it was shed, timed out or unreachable; only served
    requests count toward latency, duration, cache hits, detected loss
    and batches (distinct ``(bank, start)`` occupancies of groups of
    more than one).
    """
    log = run.completions
    served = ~(log.shed | log.timed_out | log.unreachable)
    rows = np.argsort(log.request_id, kind="stable")
    rows = rows[served[rows]]
    latency = log.finish[rows] - log.arrival[rows]
    is_read = log.is_read[rows]
    read_latency = latency[is_read]
    completed = len(rows)
    reads = len(read_latency)
    cache_hits = int(np.count_nonzero(log.cache_hit[rows]))
    duration = float(log.finish[rows].max()) if completed else 0.0
    grouped = served & (log.batched_with > 1)
    bank, start = log.bank[grouped], log.start[grouped]
    order = np.lexsort((start, bank))
    bank, start = bank[order], start[order]
    batches = int(np.count_nonzero(
        (bank[1:] != bank[:-1]) | (start[1:] != start[:-1])
    )) + (len(bank) > 0)
    return ServiceReport(
        scheme=scheme,
        policy=run.policy,
        banks=run.banks,
        offered_rate=offered_rate,
        read_time=run.read_time,
        requests=run.submitted,
        completed=completed,
        reads=reads,
        writes=completed - reads,
        cache_hits=cache_hits,
        cache_hit_rate=cache_hits / reads if reads else 0.0,
        batches=batches,
        retried_words=run.retried_words,
        failed_words=run.failed_words,
        corrupted_words=run.corrupted_words,
        duration=duration,
        throughput=completed / duration if duration > 0.0 else 0.0,
        read_latency=LatencyStats.from_samples(read_latency),
        write_latency=LatencyStats.from_samples(latency[~is_read]),
        queue_depth=QueueStats.from_samples(run.depth_samples),
        bank_served=run.bank_served,
        shed=int(np.count_nonzero(log.shed)),
        shed_low_priority=int(np.count_nonzero(log.shed & (log.priority > 0))),
        scrubbed_words=run.scrubbed_words,
        adaptive_actions=run.adaptive_actions,
        adaptive_alarms=run.adaptive_alarms,
        timed_out=int(np.count_nonzero(log.timed_out)),
        failed_requests=int(np.count_nonzero(log.unreachable)),
        detected_loss=int(np.count_nonzero(log.failed[rows])),
        hedged=run.hedged,
        hedge_wins=run.hedge_wins,
        request_retries=run.request_retries,
    )


def publish_report(report: ServiceReport) -> None:
    """Mirror a report's headline numbers into ``service.*`` obs gauges.

    No-op when observability is off.  Labels carry the scheme and policy
    so sweeps (one report per offered rate) stay distinguishable.
    """
    if not _obs.active():
        return
    registry = _obs.get_registry()
    labels = {"scheme": report.scheme or "untyped", "policy": report.policy}
    registry.set_gauge("service.throughput_rps", report.throughput, **labels)
    registry.set_gauge("service.offered_rate_rps", report.offered_rate, **labels)
    registry.set_gauge(
        "service.read_latency_mean_ns", report.read_latency.mean * 1e9, **labels
    )
    registry.set_gauge(
        "service.read_latency_p99_ns", report.read_latency.p99 * 1e9, **labels
    )
    registry.set_gauge(
        "service.read_latency_p999_ns", report.read_latency.p999 * 1e9, **labels
    )
    registry.set_gauge(
        "service.queue_depth_mean", report.queue_depth.mean_depth, **labels
    )
    registry.set_gauge("service.cache_hit_rate", report.cache_hit_rate, **labels)
    registry.set_gauge("service.shed_requests", report.shed, **labels)
    registry.set_gauge("service.shed_rate", report.shed_rate, **labels)
    registry.set_gauge("service.timed_out_requests", report.timed_out, **labels)
    registry.set_gauge(
        "service.failed_requests_total", report.failed_requests, **labels
    )
    registry.set_gauge("service.availability", report.availability, **labels)
    registry.set_gauge(
        "service.adaptive.actions_total", report.adaptive_actions, **labels
    )


def find_saturation_rate(
    simulate: Callable[[float], ServiceReport],
    low: float,
    high: float,
    read_time: float,
    slowdown_limit: float = 4.0,
    tolerance: float = 0.05,
    max_expansions: int = 6,
) -> float:
    """Highest sustained offered rate [1/s] before the latency knee.

    ``simulate(rate)`` must run one fixed-seed simulation at that rate and
    return its report.  A rate is *sustained* while the mean read latency
    stays within ``slowdown_limit`` unloaded read times; the boundary is
    bisected until the bracket is within ``tolerance`` (relative) and the
    sustained end is returned.

    Corner behaviors (regression-pinned in
    ``tests/test_service.py::TestSaturationSearch``):

    * **Bracket expansion is capped.**  While ``high`` itself is still
      sustained the bracket slides up (``low = high; high *= 2``), at
      most ``max_expansions`` times.  A workload that never saturates
      therefore does not loop forever: after the last expansion the
      search returns the last *sustained* ``low`` — a lower bound on the
      knee, reached after exactly ``max_expansions + 1`` probes and no
      bisection.
    * **Degenerate brackets are rejected up front.**  ``low <= 0``,
      ``high <= low`` (inverted or empty), and ``read_time <= 0`` all
      raise :class:`~repro.errors.ConfigurationError` before any
      simulation runs.  A ``low`` that is already saturated also raises,
      since no sustained rate is bracketed.
    """
    if low <= 0.0 or high <= low:
        raise ConfigurationError(
            f"need 0 < low < high, got low={low}, high={high}"
        )
    if read_time <= 0.0:
        raise ConfigurationError(f"read_time must be positive, got {read_time}")

    def sustained(rate: float) -> bool:
        report = simulate(rate)
        return report.read_latency.mean <= slowdown_limit * read_time

    if not sustained(low):
        raise ConfigurationError(
            f"low rate {low} is already saturated; lower the starting bracket"
        )
    expansions = 0
    while sustained(high):
        low = high
        high *= 2.0
        expansions += 1
        if expansions >= max_expansions:
            return low
    while (high - low) > tolerance * low:
        mid = 0.5 * (low + high)
        if sustained(mid):
            low = mid
        else:
            high = mid
    return low
