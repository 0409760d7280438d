"""Multi-bank memory controller and the event loop that drains a channel.

The controller models the array-level serving path the paper's §V argues
about: requests arrive (from a :mod:`repro.service.workload` stream or a
replayed trace), are interleaved over ``banks`` independent banks
(each request's bank comes with it as a column: the topology layer's
router hands every channel its interleaver's local banks, a flat run
uses ``address % banks``), queue per bank, and occupy their bank for
the sensing scheme's full read time — ~27 ns for the destructive
self-reference scheme versus ~12.6 ns for the nondestructive one, which
is why the same request rate saturates one macro and not the other.

Three scheduling policies are pluggable:

* ``fcfs`` — strict per-bank arrival order;
* ``read-priority`` — reads overtake buffered writes; a bank's write
  buffer bounds the starvation (once more than
  ``write_buffer_depth`` writes wait, the oldest write goes next);
* ``batch`` — read-priority plus batch coalescing: up to ``batch_limit``
  queued reads to the same bank are served in one bank occupancy (each
  extra read costs ``batch_extra_fraction`` of a full read — shared
  word-line/decode overhead), the service analogue of
  :meth:`repro.core.base.SensingScheme.read_many`.

A controller can run in pure **timing mode** (no cell-level simulation;
fast, used for saturation sweeps) or **backed mode**: an
:class:`ArrayBackend` performs every read through a real
:class:`~repro.faults.recovery.RecoveryController` ladder — retry → ECC →
scrub → repair — over an :class:`~repro.ecc.array.EccArray`, optionally
under a :class:`~repro.faults.FaultInjector`, so fault campaigns run
*under load* and per-word retry attempts stretch the bank occupancy they
caused.

In backed mode the coalesced group is the unit of backend work: each
service group reaches the ladder as one vectorized
:meth:`ArrayBackend.read_batch` call, regression-pinned bit-exact against
the per-word loop kept as a test oracle; the FCFS and read-priority
policies can additionally accumulate up to
``ControllerConfig.backend_window`` queued reads into one occupancy so
there is a group to amortize (see ``docs/SERVICE.md``).

Every channel drains through one event loop, :meth:`MemoryController.run`,
which owns its calendar: the submitted stream, the controller's own
completions and timers, the failure windows and drift points (plain
data) and the adaptive loop's timers, all in ``(time, seq)`` order.  An
FCFS timing-only channel without a read cache or hooks needs no loop: a
recursion per bank and array passes drain it, bit-exact with the loop
(:func:`drain_channel` picks the path from its inputs).
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import itertools
import math
import operator
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import runtime as _obs
from repro.obs.registry import (
    ATTEMPTS_EDGES,
    BATCH_SIZE_EDGES,
    QUEUE_DEPTH_EDGES,
    SERVICE_LATENCY_NS_EDGES,
)
from repro.service.cache import ReadCache
from repro.service.report import ChannelRun, CompletionLog, _LogBuilder
from repro.service.workload import READ, WRITE, Request
from repro.streams import stream_rng

__all__ = [
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
]

FCFS = "fcfs"
READ_PRIORITY = "read-priority"
BATCH = "batch"
POLICIES: Tuple[str, ...] = (FCFS, READ_PRIORITY, BATCH)

@dataclasses.dataclass(frozen=True)
class ControllerConfig:
    """Geometry and timing parameters of one controller.

    ``read_time``/``write_time`` are the unloaded bank-occupancy times of
    one operation [s] — for a sensing scheme, the scheme's full read
    latency (see :func:`scheme_service_times`).
    """

    read_time: float
    write_time: float
    banks: int = 4
    cache_hit_time: float = 1.0e-9   #: buffer-hit service time [s]
    batch_limit: int = 8             #: max reads coalesced per occupancy
    batch_extra_fraction: float = 0.4  #: extra cost per coalesced read
    write_buffer_depth: int = 4      #: writes a bank may hold back
    #: Backed-serving accumulation window for the FCFS and read-priority
    #: policies: up to this many queued reads are coalesced into one bank
    #: occupancy (and one backend ladder call) even though those policies
    #: nominally serve one request at a time.  1 (the default) preserves
    #: the historical strictly-scalar service order; BATCH ignores it and
    #: uses ``batch_limit``.  Timing-mode runs are unaffected.
    backend_window: int = 1
    #: Controller-level read retries: a read whose recovery ladder is
    #: exhausted is re-queued up to this many times before the controller
    #: gives up and records a terminal failure (``unreachable``).  0 (the
    #: default) keeps the historical semantics — a detected loss completes
    #: with ``failed=True`` and is never re-queued.
    request_retries: int = 0
    #: Base delay [s] before a controller-level re-queue; doubles with
    #: every retry the request has already consumed (exponential backoff).
    retry_backoff: float = 0.0
    #: Hedged reads: a read still waiting this long [s] after arrival is
    #: cloned onto the next bank and the first completion wins (the
    #: straggler copy is dropped when it reaches the head of its queue).
    #: 0 (the default) disables hedging.
    hedge_after: float = 0.0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not (self.read_time > 0.0 and self.write_time > 0.0):
            raise ConfigurationError("read_time and write_time must be positive")
        if self.banks < 1:
            raise ConfigurationError(f"banks must be >= 1, got {self.banks}")
        if not self.cache_hit_time >= 0.0:
            raise ConfigurationError("cache_hit_time must be non-negative")
        if self.batch_limit < 1:
            raise ConfigurationError(f"batch_limit must be >= 1, got {self.batch_limit}")
        if not 0.0 <= self.batch_extra_fraction <= 1.0:
            raise ConfigurationError(
                "batch_extra_fraction must be within [0, 1], got "
                f"{self.batch_extra_fraction}"
            )
        if self.write_buffer_depth < 0:
            raise ConfigurationError("write_buffer_depth must be non-negative")
        if self.backend_window < 1:
            raise ConfigurationError(
                f"backend_window must be >= 1, got {self.backend_window}"
            )
        if self.request_retries < 0:
            raise ConfigurationError(
                f"request_retries must be >= 0, got {self.request_retries}"
            )
        if not self.retry_backoff >= 0.0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if not self.hedge_after >= 0.0:
            raise ConfigurationError(
                f"hedge_after must be >= 0, got {self.hedge_after}"
            )

    @property
    def hedging(self) -> bool:
        """Whether reads hedge: a delay is set and a sibling bank exists."""
        return self.hedge_after > 0.0 and self.banks > 1

    def batch_duration(self, reads: int) -> float:
        """Bank occupancy of ``reads`` coalesced reads [s]."""
        return self.read_time * (1.0 + (reads - 1) * self.batch_extra_fraction)


class ArrayBackend:
    """Cell-level backing store: every read runs the real recovery ladder.

    Parameters
    ----------
    memory:
        A :class:`~repro.faults.recovery.RecoveryController` (retry → ECC
        → scrub → repair over an :class:`~repro.ecc.array.EccArray`).
    scheme:
        The sensing scheme reads go through.
    rng:
        Sensing RNG — isolated from workload generation and (if present)
        the injector's RNG, preserving the library-wide stream contract.
    injector:
        Optional :class:`~repro.faults.FaultInjector`; its per-operation
        transients (:meth:`perturb_scheme`) strike every read, so a fault
        campaign runs under live traffic.
    """

    def __init__(
        self,
        memory,
        scheme,
        rng: np.random.Generator,
        injector=None,
    ):
        self.memory = memory
        self.scheme = scheme
        self.rng = rng
        self.injector = injector
        self._truth: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self.failed_words = 0     #: detected losses (ladder exhausted)
        self.corrupted_words = 0  #: silent wrong values (escaped)
        self.retried_words = 0    #: words that needed > 1 attempt
        #: Extra input-referred sense-amp offset [V] currently in effect;
        #: the drift scenario layer (:mod:`repro.faults.drift`) steps this
        #: mid-trace via the event calendar.  0.0 keeps the read paths
        #: byte-identical to a build without the drift layer.
        self.drift_offset = 0.0
        self.drift_flips = 0      #: stored cells flipped by drift strikes
        #: Dedicated stream drift flip strikes draw from (never the sensing
        #: ``rng``); :func:`build_backend` seeds it from the drift stream
        #: ``(seed, 5)`` of the seed that built the array.
        self.strike_rng: Optional[np.random.Generator] = None
        self.scrubbed_words = 0   #: words rewritten by background scrub
        if _obs.active():
            # Register the loss counter at zero so "no failures" is an
            # explicit 0 row in metric dumps, not an absent series.
            _obs.get_registry().inc("service.backend.failed_words", 0)

    @property
    def size_words(self) -> int:
        """Addressable words of the backing memory."""
        return self.memory.size_words

    def _physical(self, address: int) -> int:
        return address % self.size_words

    @staticmethod
    def payload(request_id: int, data_bits: int = 64) -> int:
        """Deterministic write payload derived from the request id."""
        value = (request_id * 0x9E3779B1 + 0x7F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return value & ((1 << data_bits) - 1)

    def write(self, address: int, value: int) -> None:
        """Write through the ladder's remap table, tracking ground truth."""
        physical = self._physical(address)
        self.memory.write_word(physical, value)
        self._truth[physical] = value
        self.writes += 1

    # ------------------------------------------------------------------
    # Drift-scenario hooks (see :mod:`repro.faults.drift`)
    # ------------------------------------------------------------------
    def set_drift_offset(self, offset: float) -> None:
        """Set the sense-amp offset [V] in effect from now on (0 clears)."""
        self.drift_offset = float(offset)

    def _drifted(self, scheme):
        """The scheme as the current drift conditions see it."""
        if self.drift_offset == 0.0:
            return scheme
        from repro.faults.injector import _with_sense_offset

        return _with_sense_offset(scheme, self.drift_offset)

    def strike_flips(self, fraction: float, rng: np.random.Generator) -> int:
        """Flip ``fraction`` of stored cells (an external-field strike).

        Draws one uniform per cell from the **dedicated** drift ``rng`` —
        never from the sensing stream — so a struck run stays
        draw-for-draw aligned with an unstruck one.  Returns the flip
        count.  Flips persist until a write or scrub rewrites the word.
        """
        states = self.memory.memory.array._states
        idx = np.nonzero(rng.random(states.size) < fraction)[0]
        states[idx] ^= 1
        self.drift_flips += int(idx.size)
        return int(idx.size)

    def rewrite_words(self, addresses: Sequence[int]) -> int:
        """Background scrub: rewrite known-good payloads over ``addresses``.

        Restores the ground-truth value of every address that has one
        (clearing accumulated disturb/drift flips) without touching the
        sensing RNG and without counting as workload writes.  Returns the
        number of words rewritten.
        """
        count = 0
        for address in addresses:
            physical = self._physical(address)
            value = self._truth.get(physical)
            if value is None:
                continue
            self.memory.write_word(physical, value)
            count += 1
        self.scrubbed_words += count
        return count

    def _meter_outcome(self, attempts: int, failed: bool) -> None:
        """Record one word's ladder outcome in obs (no-op when off).

        The attempts histogram is fed on the exhausted path too — a lost
        word's sensing effort must not vanish from the telemetry just
        because the ladder gave up on it.
        """
        if not _obs.active():
            return
        registry = _obs.get_registry()
        registry.observe(
            "service.backend.attempts", attempts, edges=ATTEMPTS_EDGES
        )
        if failed:
            registry.inc("service.backend.failed_words")

    def read_batch(self, addresses: Sequence[int]) -> List[Tuple[int, bool]]:
        """Read one coalesced group; returns ``(attempts, failed)`` per word.

        The whole group goes through the recovery ladder as ONE batched
        call (:meth:`~repro.faults.recovery.RecoveryController.read_words`)
        instead of a Python loop of scalar reads.  Draw-order contract,
        pinned by the parity regressions in ``tests/test_service_batch.py``:

        * Injector transients are drawn **once per group** and strike every
          word of it (a coalesced group is one array operation — shared
          word-line activation, shared bit-line conditions).  With no
          injector — or one whose transients draw nothing per operation,
          e.g. drift-only — ``read_batch(addrs)`` is bit-exact with the
          per-word loop (``scalar_read_batch`` in ``tests/oracles.py``)
          under the same RNG; per-operation noise faults draw once per
          group here versus once per word there.
        * Sensing draws are word-major: through a scheme that writes no
          cell, the group's one sensing pass runs every word's retry
          ladder and then draws the latch's coin flips in the order a
          word-by-word loop of ladders would (by word, then round, then
          bit), and only a word left ``DETECTED`` replays through the
          scalar ladder for its scrub tier.  Through a scheme that writes
          cells (the destructive one) the fused pass draws as the loop's
          first attempts, and a group that needs the ladder is rewound and
          split at its escalating words.  Either way the stream stays
          bit-exact with the scalar loop.

        Addresses may repeat: a repeated word ends the current fused run
        and starts a new one (re-reading the same cells within one batch
        has no sequential meaning), preserving loop order and semantics.
        """
        addresses = list(addresses)
        if not addresses:
            return []
        scheme = self.scheme
        if self.injector is not None:
            scheme = self.injector.perturb_scheme(scheme)
        scheme = self._drifted(scheme)
        if _obs.active():
            _obs.get_registry().observe(
                "service.backend.batch_size",
                len(addresses),
                edges=BATCH_SIZE_EDGES,
            )
        physicals = [self._physical(address) for address in addresses]
        if len(set(physicals)) == len(physicals):
            return self._read_group(physicals, scheme)
        outcomes: List[Tuple[int, bool]] = []
        start = 0
        while start < len(physicals):
            stop = start
            seen = set()
            while stop < len(physicals):
                physical = physicals[stop]
                if physical in seen:
                    break
                seen.add(physical)
                stop += 1
            outcomes.extend(self._read_group(physicals[start:stop], scheme))
            start = stop
        return outcomes

    def _read_group(self, physicals, scheme) -> List[Tuple[int, bool]]:
        """One fused ladder call over distinct words, scalar accounting."""
        self.reads += len(physicals)
        words = self.memory.read_words(physicals, scheme, self.rng)
        outcomes = []
        for physical, word in zip(physicals, words):
            if word.failed:
                self.failed_words += 1
                attempts, failed = max(1, word.attempts), True
            else:
                if word.attempts > 1:
                    self.retried_words += 1
                expected = self._truth.get(physical)
                if expected is not None and word.value != expected:
                    self.corrupted_words += 1
                attempts, failed = word.attempts, False
            self._meter_outcome(attempts, failed)
            outcomes.append((attempts, failed))
        return outcomes

    def statistics(self) -> dict:
        """Backend counters as a plain dict."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "retried_words": self.retried_words,
            "failed_words": self.failed_words,
            "corrupted_words": self.corrupted_words,
            "drift_flips": self.drift_flips,
            "scrubbed_words": self.scrubbed_words,
        }


#: Kinds of the loop's own calendar entries, ``(time, seq, kind,
#: *payload)``.  A failure switch is ``(time, seq, label, bank, value)``
#: (:meth:`~repro.service.failures.FailureScenario.transitions`), its
#: kind the label ``service.failures.events`` counts it under.
_DONE, _HIT, _HEDGE, _REQUEUE, _TIMER, _DRIFT = range(6)
#: The failure labels that latch or release a bank's sense amps; every
#: other bank switch takes a bank offline or brings it back.
_LOCK_LABELS = ("sense-lockup", "sense-unlocked")


class MemoryController:
    """One channel's banks, queues and policy, drained by :meth:`run`.

    Each request queues on the bank its submission gave it.  :meth:`run`
    owns the channel's calendar: it seeds it with the hooks it is given
    as data (failure windows, loop timers, drift points) and drains it
    together with the submitted stream and the controller's own events.
    """

    def __init__(
        self,
        config: ControllerConfig,
        policy: str = FCFS,
        cache: Optional[ReadCache] = None,
        backend: Optional[ArrayBackend] = None,
    ):
        _check_policy(policy)
        self.config = config
        self.policy = policy
        self.cache = cache
        self.backend = backend
        #: The submitted stream and each request's bank, by stream index.
        self._requests: List[Request] = []
        self._homes: List[int] = []
        #: Every terminal request, in recording order.
        self.log = _LogBuilder(self._requests)
        #: Optional admission gate (an
        #: :class:`~repro.service.adaptive.AdmissionGate`): a request it
        #: rejects at arrival is recorded ``shed`` and never queues.
        self.admission = None
        #: Optional :class:`~repro.service.journal.WriteAheadJournal`:
        #: writes are journaled at arrival, acknowledged at completion.
        self.journal = None
        self._served = [0] * config.banks
        self._ran = False
        self.submitted = self.hedged = self.hedge_wins = self.retries_performed = 0
        self.depth_samples: List[int] = []

    def submit_all(
        self, requests: Sequence[Request], banks: Optional[Sequence[int]] = None
    ) -> None:
        """Submit a stream for :meth:`run`, ``banks`` its bank column
        (flat ``address % banks`` when None)."""
        if banks is None:
            banks = [request.address % self.config.banks for request in requests]
        self._requests.extend(requests)
        self._homes.extend(banks)
        self.submitted += len(requests)

    # ------------------------------------------------------------------
    # The channel's event loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        *,
        failures=None,
        timers: Sequence[Tuple[float, object]] = (),
        drift=None,
    ) -> CompletionLog:
        """Serve the submitted stream; return the :attr:`completions`.

        The calendar's sequence numbers break ties between same-time
        entries, and the loop assigns them all, in this order: the onset
        and heal of every window of the ``failures`` scenario
        (:class:`~repro.service.failures.FailureScenario`), the
        ``timers`` (``(time, timer)`` pairs), the points of the ``drift``
        scenario (:class:`~repro.faults.drift.DriftScenario`, strikes
        drawing from the backend's ``strike_rng``), then the arrivals by
        stream index, then each entry as it is armed.  A timer is called
        with the current time and returns the timers it arms, in arming
        order.  Bad hook input raises :class:`ConfigurationError` before
        anything runs.

        One loop drains, in ``(time, seq)`` order, the arrivals, the
        controller's own entries (group completions, cache hits, hedge
        and re-queue timers) and the hook entries.  ``until`` stops at
        the first entry past it and drops the rest of the calendar (a
        power loss).  A controller runs once; its obs series are fed from
        the columns at the end (:func:`_meter_run`).  A bank's next group
        follows the policy (module docstring), then drops hedge twins
        that already won and requests past their deadline
        (``timed_out``, no occupancy).
        """
        if self._ran:
            raise ConfigurationError("a MemoryController runs once")
        self._ran = True
        config, requests = self.config, self._requests
        homes, served = self._homes, self._served
        backend, cache = self.backend, self.cache
        counter = itertools.count()
        switches = () if failures is None else failures.transitions(config.banks)
        heap = [
            (time, next(counter), label, bank, value)
            for time, label, bank, value in switches
        ]
        heap += [(time, next(counter), _TIMER, timer) for time, timer in timers]
        if drift is not None:
            if backend is None or drift.needs_rng and backend.strike_rng is None:
                raise ConfigurationError(
                    f"drift scenario {drift.name!r} needs a backed channel "
                    "(and a strike rng for its flip strikes)"
                )
            from repro.faults.drift import _apply_point

            heap += [
                (point.time, next(counter), _DRIFT, point)
                for point in drift.points
            ]
        heapq.heapify(heap)
        if failures is not None and _obs.active():
            _obs.get_registry().inc(
                "service.failures.scenarios", scenario=failures.name
            )
        push, pop = heapq.heappush, heapq.heappop
        count = len(requests)
        # Arrival ``index`` holds sequence number ``first + index``.
        first = next(counter)
        counter = itertools.count(first + count)
        times = [request.time for request in requests]
        reads = [request.op == READ for request in requests]
        rids = [request.request_id for request in requests]
        addresses = [request.address for request in requests]
        fcfs = self.policy == FCFS
        limit = _read_limit(config, self.policy, backend is not None)
        occupancy = [config.batch_duration(size) for size in range(limit + 1)]
        hedging, budget = config.hedging, config.request_retries
        screening = hedging or any(r.deadline > 0.0 for r in requests)
        admission, journal = self.admission, self.journal
        stall, offline, locked = 1.0, set(), set()
        # FCFS queues every request in ``queues``; the other policies
        # queue reads there and writes in ``writes``.
        queues = [collections.deque() for _ in range(config.banks)]
        writes = [collections.deque() for _ in range(config.banks)]
        busy = [False] * config.banks
        depth_samples = self.depth_samples
        batched: List[int] = []     # sizes of the coalesced groups served
        finished: set = set()       # terminal ids, kept while hedging
        in_service: set = set()     # ids occupying a bank, while hedging
        retry_counts: Dict[int, int] = {}
        record = self.log.add_group

        def start(bank: int, now: float) -> None:
            """Serve the next group of the idle ``bank`` if it is online
            and one survives screening."""
            if bank in offline:
                return
            queue, held = queues[bank], writes[bank]
            while True:
                # FCFS: the head, and the reads right behind a read head;
                # otherwise reads first unless the write buffer overflows.
                if fcfs or queue and len(held) <= config.write_buffer_depth:
                    if not queue:
                        return
                    taken = [queue.popleft()]
                    if reads[taken[0]]:
                        while len(taken) < limit and queue and reads[queue[0]]:
                            taken.append(queue.popleft())
                elif held:
                    taken = [held.popleft()]
                else:
                    return
                if not screening:
                    break
                kept = []
                for index in taken:
                    rid = rids[index]
                    if hedging and (rid in finished or rid in in_service):
                        continue
                    if 0.0 < requests[index].deadline < now:
                        record([index], bank, now, now, timed_out=True)
                        if hedging:
                            finished.add(rid)
                        continue
                    kept.append(index)
                if kept:
                    taken = kept
                    break
            busy[bank] = True
            depth_samples.append(len(queue) + len(held))
            if hedging:
                in_service.update(rids[index] for index in taken)
            size = len(taken)
            if reads[taken[0]] and bank in locked:
                # Sense amps latched: the occupancy happens, the sensing
                # doesn't — every word comes back as a flagged loss.
                duration, attempts = occupancy[size], 1
                failed = tuple(rids[index] for index in taken)
            else:
                if backend is None:
                    duration = (
                        occupancy[size] if reads[taken[0]] else config.write_time
                    )
                    attempts, failed = 1, ()
                else:
                    duration, attempts, failed = _occupy(
                        config, backend, [requests[index] for index in taken]
                    )
                if size > 1:
                    batched.append(size)
            push(heap, (
                now + duration * stall, next(counter), _DONE,
                bank, now, taken, attempts, failed,
            ))

        order = np.argsort(times, kind="stable").tolist()
        arrived, now = 0, 0.0
        horizon = math.inf if until is None else until
        while True:
            if arrived < count:
                index = order[arrived]
                time = times[index]
            if heap:
                top = heap[0]
                arrival = arrived < count and (
                    time < top[0] or time == top[0] and first + index < top[1]
                )
                if not arrival:
                    time = top[0]
            elif arrived < count:
                arrival = True
            else:
                break
            if time > horizon:
                break
            now = time
            if arrival:
                arrived += 1
                bank = homes[index]
                if admission is not None and not admission.admit(
                    requests[index], len(queues[bank]) + len(writes[bank]), now
                ):
                    record([index], bank, now, now, shed=True)
                    if hedging:
                        finished.add(rids[index])
                    continue
                if cache is not None:
                    if not reads[index]:
                        cache.invalidate(addresses[index])
                    elif cache.lookup(addresses[index]):
                        push(heap, (
                            now + config.cache_hit_time, next(counter), _HIT,
                            bank, now, index,
                        ))
                        continue
                if journal is not None and not reads[index]:
                    # Write-ahead: journaled before the write buffer may hold it.
                    journal.append(rids[index], addresses[index],
                                   ArrayBackend.payload(rids[index]), now)
                (queues if fcfs or reads[index] else writes)[bank].append(index)
                if hedging and reads[index]:
                    push(heap, (
                        now + config.hedge_after, next(counter), _HEDGE,
                        index, (bank + 1) % config.banks,
                    ))
                if not busy[bank]:
                    start(bank, now)
                continue
            entry = pop(heap)
            kind = entry[2]
            if kind == _DONE:
                _, _, _, bank, begun, taken, attempts, failed = entry
                if hedging:
                    in_service.difference_update(rids[index] for index in taken)
                recorded, lost, retried, dead = taken, None, None, None
                if budget:
                    recorded, lost, retried, dead = [], [], [], []
                    for index in taken:
                        rid = rids[index]
                        used = retry_counts.get(rid, 0)
                        gone = rid in failed and reads[index]
                        if gone and used < budget:
                            # Lost by the ladder: back off and re-queue.
                            retry_counts[rid] = used + 1
                            self.retries_performed += 1
                            push(heap, (
                                now + config.retry_backoff * (2 ** used),
                                next(counter), _REQUEUE, index, homes[index],
                            ))
                            continue
                        recorded.append(index)
                        lost.append(rid in failed)
                        retried.append(used)
                        dead.append(gone)
                elif failed:
                    lost = [rids[index] in failed for index in taken]
                if cache is not None:
                    for position, index in enumerate(recorded):
                        if reads[index] and not (dead and dead[position]):
                            cache.fill(addresses[index])
                record(recorded, bank, begun, now, len(taken), attempts,
                       False, lost, retried, dead)
                if hedging:
                    finished.update(rids[index] for index in recorded)
                    self.hedge_wins += sum(
                        reads[index] and homes[index] != bank
                        for index in recorded
                    )
                if journal is not None and not reads[taken[0]]:
                    journal.acknowledge(rids[taken[0]], now)
                served[bank] += len(taken)
                busy[bank] = False
                if queues[bank] or writes[bank]:
                    start(bank, now)
            elif kind == _HIT:
                _, _, _, bank, begun, index = entry
                record([index], bank, begun, now, cache_hit=True)
                if hedging:
                    finished.add(rids[index])
            elif kind in (_HEDGE, _REQUEUE):
                # A hedge clones a still-waiting read onto the sibling
                # bank, where the first copy served wins and the other is
                # screened out; a re-queue returns a lost read home.
                _, _, _, index, bank = entry
                if kind == _HEDGE:
                    rid = rids[index]
                    if rid in finished or rid in in_service or bank in offline:
                        continue
                    self.hedged += 1
                queues[bank].append(index)
                if not busy[bank]:
                    start(bank, now)
            elif kind == _TIMER:
                for time, timer in entry[3](now):
                    push(heap, (time, next(counter), _TIMER, timer))
            elif kind == _DRIFT:
                _apply_point(backend, entry[3], backend.strike_rng, drift.name)
            else:
                # A failure switch: a stall sets the occupancy factor, a
                # bank switch marks or clears its bank, and a bank back
                # online resumes service at once.
                _, _, _, bank, value = entry
                if bank is None:
                    stall = value
                else:
                    marked = locked if kind in _LOCK_LABELS else offline
                    (marked.add if value else marked.discard)(bank)
                    if not busy[bank] and (queues[bank] or writes[bank]):
                        start(bank, now)
                if _obs.active():
                    _obs.get_registry().inc("service.failures.events", kind=kind)
        completions = self.log.build(times, reads)
        if _obs.active():
            _meter_run(completions, depth_samples, batched,
                         [reads[index] for index in order[:arrived]])
            registry = _obs.get_registry()
            for name, value in (("service.hedged", self.hedged),
                                ("service.retries", self.retries_performed)):
                if value:
                    registry.inc(name, value)
        return completions

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        """Requests finished so far."""
        return len(self.log.rows)

    @property
    def completions(self) -> CompletionLog:
        """Every terminal request so far, one row each in recording order."""
        return self.log.build()

    def bank_served_counts(self) -> Tuple[int, ...]:
        """Requests served per bank."""
        return tuple(self._served)


def drain_channel(
    requests: Sequence[Request],
    config: ControllerConfig,
    *,
    policy: str = FCFS,
    cache: Optional[ReadCache] = None,
    backend: Optional[ArrayBackend] = None,
    banks: Optional[Sequence[int]] = None,
    failures=None,
    slo=None,
    adaptive_config=None,
    line_rate: float = 0.0,
    drift=None,
    until: Optional[float] = None,
    journal=None,
) -> ChannelRun:
    """Serve ``requests`` on one fresh controller; return its :class:`ChannelRun`.

    Every serving driver drains its channels through here.  The hooks
    enter as data: the ``failures`` scenario, an
    :class:`~repro.service.adaptive.AdaptiveController` (iff ``slo`` is
    given, acting at ``line_rate``) whose first tick is the one loop
    timer, and the ``drift`` scenario — the order in which
    :meth:`MemoryController.run` assigns their sequence numbers, which
    break ties between same-time events, so it is part of every run's
    bit identity.  Bad hook input (a bank outside the channel, a channel
    outage or crash, flip strikes without a strike rng) raises
    :class:`ConfigurationError` before anything runs.  ``journal``
    attaches a :class:`~repro.service.journal.WriteAheadJournal`;
    ``until`` stops the clock there and drops the rest of the calendar
    (a power loss).  ``banks`` holds each request's bank
    (:meth:`ShardRouter.split` hands each channel its column); a flat
    ``address % banks`` when None.  Every terminal request comes back as
    one row of the run's :class:`CompletionLog`.

    A channel drains by :meth:`MemoryController.run`, except an FCFS
    timing-only one without a read cache, hooks, hedging, deadlines or
    controller retries: its banks are plain FIFO queues, drained
    bit-exactly by array passes (:func:`_drain_fcfs_timing`).
    """
    _check_policy(policy)
    if banks is None:
        banks = [request.address % config.banks for request in requests]
    counters = {}
    if (
        policy == FCFS and cache is None and backend is None
        and failures is None and slo is None and drift is None
        and journal is None and until is None and not config.hedging
        and config.request_retries == 0
        # ``Request`` rejects negative and NaN deadlines, so a truthy
        # deadline is a positive one.
        and not any(map(operator.attrgetter("deadline"), requests))
    ):
        completions, depth_samples, bank_served = _drain_fcfs_timing(
            requests, banks, config
        )
    else:
        controller = MemoryController(
            config, policy=policy, cache=cache, backend=backend
        )
        controller.journal = journal
        timers = ()
        if slo is not None:
            from repro.service.adaptive import AdaptiveController

            adaptive = AdaptiveController(
                controller, slo, adaptive_config, line_rate=line_rate
            )
            timers = ((adaptive.config.control_interval, adaptive.tick),)
        controller.submit_all(requests, banks)
        completions = controller.run(
            until, failures=failures, timers=timers, drift=drift
        )
        depth_samples, bank_served = controller.depth_samples, controller._served
        counters.update(
            hedged=controller.hedged,
            hedge_wins=controller.hedge_wins,
            request_retries=controller.retries_performed,
        )
        if slo is not None:
            counters.update(adaptive_actions=adaptive.actions,
                            adaptive_alarms=adaptive.alarms)
    return ChannelRun(
        policy=policy,
        banks=config.banks,
        read_time=config.read_time,
        submitted=len(requests),
        completions=completions,
        depth_samples=tuple(depth_samples),
        bank_served=tuple(bank_served),
        **counters,
        **_backend_counts(backend),
    )


def _read_limit(config: ControllerConfig, policy: str, backed: bool) -> int:
    """Reads one occupancy may coalesce: ``batch_limit`` under BATCH,
    else the backed-serving ``backend_window`` (timing mode keeps one
    request at a time: there is no per-word backend work to amortize)."""
    if policy == BATCH:
        return config.batch_limit
    return config.backend_window if backed else 1


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown policy {policy!r}; expected one of {POLICIES}"
        )


def _backend_counts(backend: Optional[ArrayBackend]) -> dict:
    """The :class:`ChannelRun` counters a backend feeds (none in timing mode)."""
    names = ("retried_words", "failed_words", "corrupted_words", "scrubbed_words")
    return {name: getattr(backend, name) for name in names} if backend else {}


def _occupy(
    config: ControllerConfig, backend: Optional[ArrayBackend],
    taken: Sequence[Request],
) -> Tuple[float, int, Tuple[int, ...]]:
    """``(duration, worst_attempts, failed_request_ids)`` of one group:
    backed, a read group is one :meth:`ArrayBackend.read_batch`, and each
    extra attempt of its slowest word adds a read pass plus the backoff
    of the ladder's retry policy in force."""
    if not taken[0].is_read:
        if backend is not None:
            request = taken[0]
            backend.write(request.address, ArrayBackend.payload(request.request_id))
        return config.write_time, 1, ()
    duration = config.batch_duration(len(taken))
    if backend is None:
        return duration, 1, ()
    with _obs.profile_block("service.backend.batched"):
        outcomes = backend.read_batch([request.address for request in taken])
    attempts = max([1] + [word_attempts for word_attempts, _ in outcomes])
    if attempts > 1:
        duration += (attempts - 1) * config.read_time
        duration += backend.memory.policy.total_backoff(attempts) * 1e-9
    failed = tuple(
        request.request_id
        for request, (_, word_failed) in zip(taken, outcomes)
        if word_failed
    )
    return duration, attempts, failed


def _drain_fcfs_timing(
    requests: Sequence[Request], banks: Sequence[int], config: ControllerConfig
) -> Tuple[CompletionLog, List[int], List[int]]:
    """A hook-free FCFS timing-only channel without a read cache, drained
    by one recursion per bank and array passes, bit-exact with
    :meth:`MemoryController.run`; returns its completions, depth samples
    and per-bank served counts.

    Each request occupies its bank alone (``_read_limit`` is 1), so a
    bank is a FIFO queue: in ``(time, index)`` arrival order a request
    starts at its arrival or at its predecessor's finish, whichever is
    later, and finishes its occupancy after that — the float operations
    the event loop performs.  What the loop adds is order, rebuilt here
    from the loop's keys.  A request is dispatched by its own arrival
    when its bank is idle, keyed ``(time, 0, index)``, or else by its
    predecessor's completion, keyed ``(start, 1, predecessor's dispatch
    rank)``: at one instant arrivals run before completions, and
    completions in ``seq`` order, ``seq`` counting dispatches.  Rows
    leave in ``(finish, dispatch rank)`` order, the loop's ``(time,
    seq)``.
    """
    count = len(requests)
    arrival = np.fromiter(
        map(operator.attrgetter("time"), requests), np.float64, count
    )
    is_read = np.fromiter(
        map(READ.__eq__, map(operator.attrgetter("op"), requests)),
        np.bool_, count,
    )
    bank = np.asarray(banks, np.int64)
    # Positions from here on: grouped by bank, each bank's requests in
    # ``(time, index)`` order.
    order = np.lexsort((arrival, bank))
    times, home = arrival[order], bank[order]
    occupancy = np.where(
        is_read[order], config.batch_duration(1), config.write_time
    )
    # Where each bank's run of positions begins, after the first.
    bounds = np.flatnonzero(np.diff(home)) + 1
    queues = np.split(times, bounds)
    finishes: List[float] = []
    append = finishes.append
    for arrivals, durations in zip(queues, np.split(occupancy, bounds)):
        finish = -math.inf
        for time, duration in zip(arrivals.tolist(), durations.tolist()):
            finish = (time if time > finish else finish) + duration
            append(finish)
    finish = np.array(finishes, np.float64)
    # A request arriving while (or as) its bank is busy waits for the
    # predecessor's completion; one arriving later finds the bank idle.
    ready = np.full(count, -math.inf)
    ready[1:] = finish[:-1]
    ready[bounds] = -math.inf
    queued = times <= ready
    start = np.where(queued, ready, times)
    # A queued request's depth sample: its bank's arrivals up to its
    # start (arrivals run first), less those dispatched up to it.
    depth = np.concatenate([
        np.searchsorted(arrivals, starts, side="right")
        - np.arange(1, arrivals.size + 1)
        for arrivals, starts in zip(queues, np.split(start, bounds))
    ])
    depth[~queued] = 0
    # Dispatch order: a request's key is ``(start, queued)`` followed by
    # its index if its arrival dispatched it, else by its predecessor's
    # whole key.  Rank these chains by prefix doubling: each pass
    # compares twice as many links, so ties that chain across banks
    # settle in log2(chain length) passes.
    position = np.arange(count)
    link = np.where(queued, position - 1, position)
    rank = _dense_rank(np.where(queued, -1, order), queued, start)
    while count and rank.max() < count - 1:
        rank = _dense_rank(rank[link], rank)
        link = link[link]
    sequence = np.empty(count, np.int64)
    sequence[rank] = position
    rows = np.lexsort((rank, finish))
    index = order[rows]
    completions = CompletionLog(
        request_id=np.fromiter(
            map(operator.attrgetter("request_id"), requests), np.int64, count
        )[index],
        arrival=times[rows],
        is_read=is_read[index],
        priority=np.fromiter(
            map(operator.attrgetter("priority"), requests), np.int64, count
        )[index],
        bank=home[rows],
        start=start[rows],
        finish=finish[rows],
    )
    depth_samples = depth[sequence]
    if _obs.active():
        _meter_run(completions, depth_samples)
    return (
        completions,
        depth_samples.tolist(),
        np.bincount(bank, minlength=config.banks).tolist(),
    )


def _dense_rank(*keys: np.ndarray) -> np.ndarray:
    """Each position's rank among the distinct rows of ``keys``, ordered
    as :func:`numpy.lexsort` orders them (the last key primary)."""
    order = np.lexsort(keys)
    new = np.zeros(order.size, np.bool_)
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    rank = np.empty(order.size, np.int64)
    rank[order] = np.cumsum(new)
    return rank


def _meter_run(
    log: CompletionLog,
    depth_samples: Sequence[int],
    batched: Sequence[int] = (),
    arrived: Optional[Sequence[bool]] = None,
) -> None:
    """The obs series of a drained channel, fed from its columns: the
    depth samples, the sizes of its ``batched`` (coalesced) groups, the
    ``is_read`` flag of each request that ``arrived`` (every row of the
    log when None) and the rows.  Each histogram takes its values in
    event order, summed as a loop of ``observe`` calls would
    (:meth:`~repro.obs.registry.MetricsRegistry.observe_many`)."""
    registry = _obs.get_registry()
    if len(depth_samples):
        registry.observe_many(
            "service.queue_depth", depth_samples, edges=QUEUE_DEPTH_EDGES
        )
    if batched:
        registry.inc("service.batches", len(batched))
        registry.inc("service.batched_reads", sum(batched))
    came = log.is_read if arrived is None else np.asarray(arrived, np.bool_)
    served = ~(log.shed | log.timed_out | log.unreachable)
    latency = (log.finish - log.arrival) * 1e9
    for op, mine, came in ((READ, log.is_read, came), (WRITE, ~log.is_read, ~came)):
        for name, flags in (
            ("service.requests", came),
            ("service.completions", mine & served),
            ("service.timed_out", mine & log.timed_out),
            ("service.failed_requests", mine & log.unreachable),
        ):
            flagged = int(np.count_nonzero(flags))
            if flagged:
                registry.inc(name, flagged, op=op)
        if np.any(mine & served):
            registry.observe_many(
                "service.latency_ns", latency[mine & served],
                edges=SERVICE_LATENCY_NS_EDGES, op=op,
            )
    low = log.priority > 0
    for name, flags, labels in (
        ("service.admission.shed", log.shed & low, {"priority": "low"}),
        ("service.admission.shed", log.shed & ~low, {"priority": "normal"}),
        ("service.cache.hits", log.cache_hit, {}),
        ("service.failed_words", log.failed & served, {}),
    ):
        flagged = int(np.count_nonzero(flags))
        if flagged:
            registry.inc(name, flagged, **labels)


def scheme_service_times(scheme: str, config=None) -> Tuple[float, float]:
    """(read_time, write_time) of one sensing scheme on the paper device.

    The read time is the scheme's full modelled latency from
    :mod:`repro.timing.latency` at its calibrated β (~27 ns destructive,
    ~12.6 ns nondestructive); the write time is word-line activation plus
    write-driver setup plus the 4 ns switching pulse.
    """
    from repro.calibration import calibrate, calibrated_cell
    from repro.timing.latency import (
        TimingConfig,
        destructive_read_latency,
        nondestructive_read_latency,
    )

    calibration = calibrate()
    cell = calibrated_cell()
    timing = config if config is not None else TimingConfig()
    if scheme == "destructive":
        breakdown = destructive_read_latency(
            cell, beta=calibration.beta_destructive, config=timing
        )
    elif scheme == "nondestructive":
        breakdown = nondestructive_read_latency(
            cell, beta=calibration.beta_nondestructive, config=timing
        )
    else:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; expected destructive/nondestructive"
        )
    write_time = (
        timing.t_wordline
        + timing.t_write_setup
        + cell.mtj.params.pulse_width_write
        + timing.t_latch
    )
    return breakdown.total, write_time


def build_backend(
    scheme: str,
    seed: int,
    bits: int = 16384,
    fault_rate: float = 0.0,
    data_bits: int = 64,
    transients: bool = True,
) -> ArrayBackend:
    """A fully initialized :class:`ArrayBackend` on the 16kb test chip.

    Mirrors the fault campaign's construction recipe — calibrated device,
    test-chip variation, SECDED words behind a
    :class:`~repro.faults.recovery.RecoveryController` — with the same
    three-way RNG split (build / fault / read streams) plus the drift
    stream its strikes draw from, writes a known
    pattern into every word, and (at ``fault_rate > 0``) injects
    :func:`~repro.faults.campaign.default_fault_models` so the service
    simulation reads a genuinely damaged array.  ``transients=False``
    restricts the injection to permanent faults — the configuration the
    batched-vs-scalar parity regressions use, since per-operation noise
    transients deliberately draw once per coalesced group rather than
    once per word (see :meth:`ArrayBackend.read_batch`).  The ladder
    holds the retry policy (3 attempts, 5 ns backoff, 10 % current
    escalation); a controller charges the backoff of whatever policy the
    ladder holds when a group retries.
    """
    from repro.array.array import STTRAMArray
    from repro.array.testchip import TESTCHIP_VARIATION
    from repro.calibration import calibrate
    from repro.calibration.targets import PAPER_TARGETS
    from repro.core.retry import RetryPolicy
    from repro.ecc.array import EccArray
    from repro.faults.campaign import build_scheme, default_fault_models
    from repro.faults.injector import FaultInjector
    from repro.faults.recovery import RecoveryController

    calibration = calibrate()
    sensing = build_scheme(scheme, calibration, PAPER_TARGETS.r_transistor)
    rng_build = np.random.default_rng((seed, 0))
    rng_fault = np.random.default_rng((seed, 1))
    rng_read = np.random.default_rng((seed, 2))
    population = calibration.population(
        bits,
        TESTCHIP_VARIATION,
        rng_build,
        r_tr_nominal=PAPER_TARGETS.r_transistor,
    )
    array = STTRAMArray(population)
    memory = EccArray(array, data_bits=data_bits)
    policy = RetryPolicy(max_attempts=3, backoff_ns=5.0, current_escalation=0.1)
    ladder = RecoveryController(memory, policy, scrub_rounds=2, spare_words=8)
    injector = None
    if fault_rate > 0.0:
        injector = FaultInjector(
            list(default_fault_models(fault_rate, transients=transients)),
            rng_fault,
        )
    backend = ArrayBackend(ladder, sensing, rng_read, injector=injector)
    backend.strike_rng = stream_rng(seed, "drift")
    for address in range(backend.size_words):
        backend.write(address, ArrayBackend.payload(address, data_bits))
    backend.writes = 0  # initialization fill is not workload traffic
    if injector is not None:
        injector.inject_array(array)
    return backend
