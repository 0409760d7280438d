"""Multi-bank memory controller driven by the discrete-event engine.

The controller models the array-level serving path the paper's §V argues
about: requests arrive (from a :mod:`repro.service.workload` stream or a
replayed trace), are interleaved over ``banks`` independent banks
(``bank = address % banks``, or a pluggable ``bank_map`` — the topology
layer routes each channel's requests through its interleaver this way),
queue per bank, and occupy their bank for
the sensing scheme's full read time — ~27 ns for the destructive
self-reference scheme versus ~12.6 ns for the nondestructive one, which
is why the same request rate saturates one macro and not the other.

Three scheduling policies are pluggable:

* ``fcfs`` — strict per-bank arrival order (the historical
  :func:`repro.array.scheduler.simulate_read_queue` semantics);
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
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Dict, List, Optional, Sequence, Tuple

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
from repro.service.engine import DiscreteEventEngine
from repro.service.report import ChannelRun
from repro.service.workload import READ, Request
from repro.streams import stream_rng

__all__ = [
    "FCFS",
    "READ_PRIORITY",
    "BATCH",
    "POLICIES",
    "ControllerConfig",
    "CompletedRequest",
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
        if self.read_time <= 0.0 or self.write_time <= 0.0:
            raise ConfigurationError("read_time and write_time must be positive")
        if self.banks < 1:
            raise ConfigurationError(f"banks must be >= 1, got {self.banks}")
        if self.cache_hit_time < 0.0:
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
        if self.retry_backoff < 0.0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.hedge_after < 0.0:
            raise ConfigurationError(
                f"hedge_after must be >= 0, got {self.hedge_after}"
            )

    def batch_duration(self, reads: int) -> float:
        """Bank occupancy of ``reads`` coalesced reads [s]."""
        return self.read_time * (1.0 + (reads - 1) * self.batch_extra_fraction)


@dataclasses.dataclass(frozen=True)
class CompletedRequest:
    """One finished request with its service accounting."""

    request: Request
    bank: int
    start: float        #: service start [s] (cache hits: arrival time)
    finish: float       #: completion [s]
    cache_hit: bool = False
    batched_with: int = 1  #: size of the coalesced group it rode in
    attempts: int = 1      #: worst sensing attempts (backed mode)
    failed: bool = False   #: recovery ladder exhausted (detected loss)
    shed: bool = False     #: rejected by admission control (never served)
    timed_out: bool = False  #: deadline expired before service (dropped)
    #: Terminal failure without a served response: the controller's retry
    #: budget ran out, the data's home shard was unreachable, or the
    #: request was in flight when the controller crashed.  Distinct from
    #: ``failed`` (which is a *served* response carrying a detected loss).
    unreachable: bool = False
    retries: int = 0       #: controller-level re-queues this request used

    @property
    def latency(self) -> float:
        """Arrival-to-completion latency [s]."""
        return self.finish - self.request.time

    @property
    def queue_delay(self) -> float:
        """Arrival-to-service-start wait [s]."""
        return self.start - self.request.time


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
        * Sensing draws are group-major: the fused clean pass consumes the
          read stream exactly as a word-by-word loop's first attempts
          would, and any group that needs the ladder is rewound and split
          at the escalating words (clean segments re-fuse, escalating
          words replay through the scalar ladder), so the stream stays
          bit-exact with the scalar loop in every case.

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


class _Bank:
    """One bank: arrival-ordered pending requests plus busy state.

    FCFS keeps the single interleaved ``queue`` (relative read/write
    order is its semantics); the read-priority and batch policies only
    ever consume "next read in arrival order" or "next write in arrival
    order", so they store the two ops in separate deques — O(1) pops
    instead of rescanning a deep saturated queue.  ``queued_writes``
    mirrors the number of writes currently in ``queue`` (FCFS only).
    """

    __slots__ = ("queue", "reads", "writes", "busy", "served",
                 "queued_writes")

    def __init__(self) -> None:
        self.queue: List[Request] = []
        self.reads: Deque[Request] = collections.deque()
        self.writes: Deque[Request] = collections.deque()
        self.busy = False
        self.served = 0
        self.queued_writes = 0

    def depth(self) -> int:
        """Pending requests across whichever storage the policy uses."""
        return len(self.queue) + len(self.reads) + len(self.writes)


class MemoryController:
    """Schedules requests over banks on a :class:`DiscreteEventEngine`."""

    def __init__(
        self,
        engine: DiscreteEventEngine,
        config: ControllerConfig,
        policy: str = FCFS,
        cache: Optional[ReadCache] = None,
        backend: Optional[ArrayBackend] = None,
        retry_policy=None,
        bank_map=None,
    ):
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}; expected one of {POLICIES}"
            )
        self.engine = engine
        self.config = config
        self.policy = policy
        self.cache = cache
        self.backend = backend
        self.retry_policy = retry_policy
        #: Optional ``address -> bank index`` override.  The topology
        #: layer (:mod:`repro.service.topology`) supplies each channel
        #: controller's interleaver-driven local bank mapping here; None
        #: keeps the historical flat ``address % banks`` interleaving.
        self.bank_map = bank_map
        #: Optional admission gate (see
        #: :class:`repro.service.adaptive.AdmissionGate`): consulted at
        #: every arrival; a rejected request is recorded as a ``shed``
        #: completion at its arrival time and never touches a bank.
        self.admission = None
        #: Optional :class:`repro.service.journal.WriteAheadJournal`: every
        #: write is journaled at arrival (ahead of the write buffer) and
        #: acknowledged at completion, so a mid-trace crash can replay the
        #: acknowledged suffix bit-exactly (see ``docs/RESILIENCE.md``).
        self.journal = None
        #: Service-time multiplier (1.0 = healthy).  The failure-scenario
        #: layer (:mod:`repro.service.failures`) inflates this mid-trace to
        #: model a stalled controller; every occupancy is stretched by it.
        self.stall_factor = 1.0
        self._banks = [_Bank() for _ in range(config.banks)]
        self._offline_banks: set = set()
        self._locked_banks: set = set()
        #: Terminal request ids + ids currently occupying a bank — the
        #: dedupe state hedged reads need; maintained only while hedging.
        self._finished: set = set()
        self._in_service: set = set()
        self._retry_counts: Dict[int, int] = {}
        self._deadlines = False
        self._hedging = config.hedge_after > 0.0 and config.banks > 1
        self.hedged = 0
        self.hedge_wins = 0
        self.retries_performed = 0
        self.completions: List[CompletedRequest] = []
        self.depth_samples: List[int] = []
        self.submitted = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def bank_of(self, address: int) -> int:
        """The bank an address queues on: ``bank_map`` if set, else
        flat modulo interleaving."""
        if self.bank_map is not None:
            return self.bank_map(address)
        return address % self.config.banks

    def submit(self, request: Request) -> None:
        """Schedule one request's arrival on the engine."""
        self.submitted += 1
        if request.deadline > 0.0:
            self._deadlines = True
        self.engine.schedule_at(request.time, self._arrive, request)

    def submit_all(self, requests: Sequence[Request]) -> None:
        """Schedule a whole stream as one bulk calendar load.

        :meth:`DiscreteEventEngine.schedule_batch` assigns sequence numbers
        in iteration order, so the execution order — ties included — is
        identical to submitting one request at a time.
        """
        self.submitted += len(requests)
        if not self._deadlines and any(r.deadline > 0.0 for r in requests):
            self._deadlines = True
        self.engine.schedule_batch(
            (request.time, self._arrive, (request,)) for request in requests
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _arrive(self, request: Request) -> None:
        if _obs.active():
            _obs.get_registry().inc("service.requests", op=request.op)
        if self.admission is not None:
            bank_index = self.bank_of(request.address)
            depth = self._banks[bank_index].depth()
            if not self.admission.admit(request, depth, self.engine.now):
                self._record(CompletedRequest(
                    request=request,
                    bank=bank_index,
                    start=self.engine.now,
                    finish=self.engine.now,
                    shed=True,
                ))
                return
        if request.is_read and self.cache is not None:
            if self.cache.lookup(request.address):
                bank = self.bank_of(request.address)
                self.engine.schedule(
                    self.config.cache_hit_time,
                    self._complete_cache_hit,
                    request,
                    bank,
                    self.engine.now,
                )
                return
        elif not request.is_read and self.cache is not None:
            self.cache.invalidate(request.address)
        if self.journal is not None and not request.is_read:
            # Write-ahead: journaled before the write buffer may hold it.
            self.journal.append(
                request.request_id,
                request.address,
                ArrayBackend.payload(request.request_id),
                self.engine.now,
            )
        bank_index = self.bank_of(request.address)
        bank = self._banks[bank_index]
        if self.policy == FCFS:
            bank.queue.append(request)
            if not request.is_read:
                bank.queued_writes += 1
        elif request.is_read:
            bank.reads.append(request)
        else:
            bank.writes.append(request)
        if self._hedging and request.is_read:
            self.engine.schedule(
                self.config.hedge_after, self._maybe_hedge, request, bank_index
            )
        if not bank.busy:
            self._start_service(bank_index)

    def _complete_cache_hit(self, request: Request, bank: int, start: float) -> None:
        self._record(CompletedRequest(
            request=request,
            bank=bank,
            start=start,
            finish=self.engine.now,
            cache_hit=True,
        ))

    def _start_service(self, bank_index: int) -> None:
        bank = self._banks[bank_index]
        if bank.busy or bank_index in self._offline_banks:
            return
        taken = self._select(bank)
        if self._deadlines or self._hedging:
            # Screening drops expired and already-won requests at the
            # head of the queue; keep selecting until a group survives.
            while taken:
                taken = self._screen(taken, bank_index)
                if taken:
                    break
                taken = self._select(bank)
        if not taken:
            return
        bank.busy = True
        self.depth_samples.append(bank.depth())
        if _obs.active():
            _obs.get_registry().observe(
                "service.queue_depth", bank.depth(), edges=QUEUE_DEPTH_EDGES
            )
        if self._hedging:
            self._in_service.update(r.request_id for r in taken)
        duration, attempts, failed = self._serve(taken, bank_index)
        self.engine.schedule(
            duration, self._complete, bank_index, taken, self.engine.now,
            attempts, failed,
        )

    def _screen(self, taken: List[Request], bank_index: int) -> List[Request]:
        """Drop finished hedge twins and expired requests from a group.

        A request whose deadline passed while it queued is recorded as a
        ``timed_out`` drop — the deadline bounds *service start*, so an
        expired request never occupies a bank.  Only active when deadlines
        or hedging are in play; otherwise selection is untouched.
        """
        kept: List[Request] = []
        now = self.engine.now
        for request in taken:
            rid = request.request_id
            if self._hedging and (rid in self._finished or rid in self._in_service):
                continue  # the twin already won (or is being served)
            if 0.0 < request.deadline < now:
                self._record(CompletedRequest(
                    request=request,
                    bank=bank_index,
                    start=now,
                    finish=now,
                    timed_out=True,
                ))
                continue
            kept.append(request)
        return kept

    def _maybe_hedge(self, request: Request, home_bank: int) -> None:
        """Clone a still-waiting read onto the sibling bank.

        Fires ``hedge_after`` seconds after arrival; a no-op if the read
        already finished or is being served.  The clone joins the sibling
        bank's read queue and whichever copy is served first wins — the
        straggler is screened out when it reaches the head of its queue.
        """
        rid = request.request_id
        if rid in self._finished or rid in self._in_service:
            return
        sibling = (home_bank + 1) % self.config.banks
        if sibling == home_bank or sibling in self._offline_banks:
            return
        bank = self._banks[sibling]
        if self.policy == FCFS:
            bank.queue.append(request)
        else:
            bank.reads.append(request)
        self.hedged += 1
        if _obs.active():
            _obs.get_registry().inc("service.hedged")
        if not bank.busy:
            self._start_service(sibling)

    def _requeue(self, request: Request) -> None:
        """Re-enqueue a read whose ladder failed (controller-level retry)."""
        bank_index = self.bank_of(request.address)
        bank = self._banks[bank_index]
        if self.policy == FCFS:
            bank.queue.append(request)
            if not request.is_read:
                bank.queued_writes += 1
        elif request.is_read:
            bank.reads.append(request)
        else:
            bank.writes.append(request)
        if not bank.busy:
            self._start_service(bank_index)

    def _complete(
        self,
        bank_index: int,
        taken: List[Request],
        start: float,
        attempts: int,
        failed: Tuple[int, ...],
    ) -> None:
        bank = self._banks[bank_index]
        group = len(taken)
        budget = self.config.request_retries
        for request in taken:
            rid = request.request_id
            if self._hedging:
                self._in_service.discard(rid)
            word_failed = rid in failed
            if word_failed and budget > 0 and request.is_read:
                used = self._retry_counts.get(rid, 0)
                if used < budget:
                    # The ladder lost this word: back off and re-queue
                    # rather than answering with a detected loss.
                    self._retry_counts[rid] = used + 1
                    self.retries_performed += 1
                    if _obs.active():
                        _obs.get_registry().inc("service.retries")
                    self.engine.schedule(
                        self.config.retry_backoff * (2 ** used),
                        self._requeue,
                        request,
                    )
                    continue
                self._record(CompletedRequest(
                    request=request,
                    bank=bank_index,
                    start=start,
                    finish=self.engine.now,
                    batched_with=group,
                    attempts=attempts,
                    failed=True,
                    unreachable=True,
                    retries=used,
                ))
                continue
            if request.is_read and self.cache is not None:
                self.cache.fill(request.address)
            self._record(CompletedRequest(
                request=request,
                bank=bank_index,
                start=start,
                finish=self.engine.now,
                batched_with=group,
                attempts=attempts,
                failed=word_failed,
                retries=self._retry_counts.get(rid, 0),
            ))
        bank.served += group
        bank.busy = False
        if bank.depth():
            self._start_service(bank_index)

    # ------------------------------------------------------------------
    # Structural-failure hooks (see :mod:`repro.service.failures`)
    # ------------------------------------------------------------------
    def _failure_event(self, kind: str) -> None:
        if _obs.active():
            _obs.get_registry().inc("service.failures.events", kind=kind)

    def _check_bank(self, bank_index: int) -> None:
        if not 0 <= bank_index < self.config.banks:
            raise ConfigurationError(
                f"bank {bank_index} out of range for {self.config.banks} banks"
            )

    def set_stall_factor(self, factor: float) -> None:
        """Inflate (or restore) every occupancy by ``factor`` from now on."""
        if factor <= 0.0:
            raise ConfigurationError(f"stall factor must be > 0, got {factor}")
        self.stall_factor = float(factor)
        self._failure_event(
            "controller-stall" if factor != 1.0 else "stall-cleared"
        )

    def set_bank_offline(self, bank_index: int) -> None:
        """Take a bank offline: its in-flight group finishes, nothing new
        starts, arrivals keep queueing until :meth:`set_bank_online`."""
        self._check_bank(bank_index)
        self._offline_banks.add(bank_index)
        self._failure_event("bank-offline")

    def set_bank_online(self, bank_index: int) -> None:
        """Heal an offline bank and kick its queue back into service."""
        self._check_bank(bank_index)
        self._offline_banks.discard(bank_index)
        self._failure_event("bank-online")
        if self._banks[bank_index].depth():
            self._start_service(bank_index)

    def lock_bank(self, bank_index: int) -> None:
        """Latch a bank's sense amps: reads occupy the bank but return
        detected losses (no sensing happens); writes are unaffected."""
        self._check_bank(bank_index)
        self._locked_banks.add(bank_index)
        self._failure_event("sense-lockup")

    def unlock_bank(self, bank_index: int) -> None:
        """Release a latched bank's sense amps."""
        self._check_bank(bank_index)
        self._locked_banks.discard(bank_index)
        self._failure_event("sense-unlocked")

    # ------------------------------------------------------------------
    # Policy and service model
    # ------------------------------------------------------------------
    def _read_window(self) -> int:
        """Reads the FCFS/read-priority policies may coalesce per service.

        Accumulation windows are a *backed-serving* feature: in timing
        mode the historical one-request-at-a-time semantics are kept
        (there is no per-word backend work to amortize).
        """
        if self.backend is None:
            return 1
        return self.config.backend_window

    def _select(self, bank: _Bank) -> List[Request]:
        """Pop the next group to serve according to the policy."""
        if self.policy == FCFS:
            # Strict arrival order: only the *leading* run of consecutive
            # reads may coalesce (no read overtakes a queued write).
            queue = bank.queue
            if not queue:
                return []
            window = self._read_window()
            taken = [queue.pop(0)]
            if not taken[0].is_read:
                bank.queued_writes -= 1
            while (
                taken[0].is_read
                and len(taken) < window
                and queue
                and queue[0].is_read
            ):
                taken.append(queue.pop(0))
            return taken
        # Read-priority/batch: reads overtake writes, each op served in
        # its own arrival order, so the split deques pop in O(1) — no
        # rescans of a deep saturated queue.
        reads, writes = bank.reads, bank.writes
        if not reads and not writes:
            return []
        if not reads or len(writes) > self.config.write_buffer_depth:
            if writes:
                return [writes.popleft()]
        limit = (
            self.config.batch_limit
            if self.policy == BATCH
            else self._read_window()
        )
        return [reads.popleft() for _ in range(min(limit, len(reads)))]

    def _serve(
        self, taken: List[Request], bank_index: int = 0
    ) -> Tuple[float, int, Tuple[int, ...]]:
        """Bank occupancy of one group; backed mode performs real reads.

        Returns ``(duration, worst_attempts, failed_request_ids)``.  In
        backed mode every extra sensing attempt of the slowest word adds
        one more read pass plus the retry policy's simulated backoff.
        A nonzero stall factor stretches the final duration; a latched
        bank (:meth:`lock_bank`) turns every read of the group into a
        detected loss without touching the backend or its RNG.
        """
        if not taken[0].is_read:
            if self.backend is not None:
                request = taken[0]
                self.backend.write(
                    request.address, ArrayBackend.payload(request.request_id)
                )
            return self.config.write_time * self.stall_factor, 1, ()
        if bank_index in self._locked_banks:
            # Sense amps latched: the occupancy happens, the sensing
            # doesn't — every word comes back as a flagged loss.
            duration = self.config.batch_duration(len(taken)) * self.stall_factor
            return duration, 1, tuple(r.request_id for r in taken)
        duration = self.config.batch_duration(len(taken))
        attempts = 1
        failed: List[int] = []
        if self.backend is not None:
            with _obs.profile_block("service.backend.batched"):
                outcomes = self.backend.read_batch(
                    [request.address for request in taken]
                )
            for request, (word_attempts, word_failed) in zip(taken, outcomes):
                attempts = max(attempts, word_attempts)
                if word_failed:
                    failed.append(request.request_id)
            if attempts > 1:
                duration += (attempts - 1) * self.config.read_time
                if self.retry_policy is not None:
                    duration += self.retry_policy.total_backoff(attempts) * 1e-9
        if _obs.active() and len(taken) > 1:
            registry = _obs.get_registry()
            registry.inc("service.batches")
            registry.inc("service.batched_reads", len(taken))
        return duration * self.stall_factor, attempts, tuple(failed)

    def _record(self, completed: CompletedRequest) -> None:
        self.completions.append(completed)
        request = completed.request
        if self._hedging:
            self._finished.add(request.request_id)
            if (
                request.is_read
                and not (completed.shed or completed.timed_out or completed.cache_hit)
                and completed.bank != self.bank_of(request.address)
            ):
                # Terminal record came from the sibling bank: the hedge won.
                self.hedge_wins += 1
        if (
            self.journal is not None
            and not request.is_read
            and not (completed.shed or completed.timed_out or completed.unreachable)
        ):
            self.journal.acknowledge(request.request_id, self.engine.now)
        if _obs.active():
            registry = _obs.get_registry()
            if completed.shed:
                registry.inc(
                    "service.admission.shed",
                    priority="low" if completed.request.priority > 0 else "normal",
                )
                return
            if completed.timed_out:
                registry.inc("service.timed_out", op=request.op)
                return
            if completed.unreachable:
                registry.inc("service.failed_requests", op=request.op)
                return
            registry.inc("service.completions", op=completed.request.op)
            registry.observe(
                "service.latency_ns",
                completed.latency * 1e9,
                edges=SERVICE_LATENCY_NS_EDGES,
                op=completed.request.op,
            )
            if completed.cache_hit:
                registry.inc("service.cache.hits")
            if completed.failed:
                registry.inc("service.failed_words")

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        """Requests finished so far."""
        return len(self.completions)

    def bank_served_counts(self) -> Tuple[int, ...]:
        """Requests served per bank."""
        return tuple(bank.served for bank in self._banks)


def drain_channel(
    requests: Sequence[Request],
    config: ControllerConfig,
    *,
    policy: str = FCFS,
    cache: Optional[ReadCache] = None,
    backend: Optional[ArrayBackend] = None,
    retry_policy=None,
    bank_map=None,
    failures=None,
    slo=None,
    adaptive_config=None,
    line_rate: float = 0.0,
    drift=None,
    until: Optional[float] = None,
    journal=None,
) -> ChannelRun:
    """Serve ``requests`` on one fresh controller; return its :class:`ChannelRun`.

    Every serving driver drains its channels through here, and this is
    the only place that fixes the hook order: the failure scenario
    (:func:`~repro.service.failures.install_failures`), then the
    :class:`~repro.service.adaptive.AdaptiveController` (iff ``slo`` is
    given, acting at ``line_rate``), then the drift scenario
    (:func:`~repro.faults.drift.install_drift`, strikes drawing from the
    backend's ``strike_rng``), then the stream.  The order assigns the
    calendar's sequence numbers, which break ties between same-time
    events — so it is part of every run's bit identity.  ``journal`` attaches a
    :class:`~repro.service.journal.WriteAheadJournal`; ``until`` stops the
    clock there and drops the rest of the calendar (a power loss).
    """
    engine = DiscreteEventEngine()
    controller = MemoryController(
        engine, config, policy=policy, cache=cache, backend=backend,
        retry_policy=retry_policy, bank_map=bank_map,
    )
    controller.journal = journal
    if failures is not None:
        from repro.service.failures import install_failures

        install_failures(engine, controller, failures)
    adaptive = None
    if slo is not None:
        from repro.service.adaptive import AdaptiveController

        adaptive = AdaptiveController(
            controller, slo, adaptive_config, line_rate=line_rate
        )
        adaptive.attach(engine)
    if drift is not None:
        from repro.faults.drift import install_drift

        install_drift(engine, backend, drift, rng=backend.strike_rng)
    controller.submit_all(requests)
    engine.run(until=until)
    if until is not None:
        engine.drop_pending()
    return ChannelRun(
        policy=policy,
        banks=config.banks,
        read_time=config.read_time,
        submitted=controller.submitted,
        completions=tuple(controller.completions),
        depth_samples=tuple(controller.depth_samples),
        bank_served=controller.bank_served_counts(),
        retried_words=backend.retried_words if backend else 0,
        failed_words=backend.failed_words if backend else 0,
        corrupted_words=backend.corrupted_words if backend else 0,
        scrubbed_words=backend.scrubbed_words if backend else 0,
        adaptive_actions=adaptive.actions if adaptive else 0,
        adaptive_alarms=adaptive.alarms if adaptive else 0,
        hedged=controller.hedged,
        hedge_wins=controller.hedge_wins,
        request_retries=controller.retries_performed,
    )


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
    retry_policy=None,
    transients: bool = True,
) -> Tuple[ArrayBackend, object]:
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
    once per word (see :meth:`ArrayBackend.read_batch`).

    Returns ``(backend, retry_policy)`` — the policy so the controller can
    charge simulated backoff time for retried reads.
    """
    from repro.array.array import STTRAMArray
    from repro.array.testchip import TESTCHIP_VARIATION
    from repro.calibration import calibrate
    from repro.calibration.targets import PAPER_TARGETS
    from repro.core.retry import RetryPolicy
    from repro.device.variation import CellPopulation
    from repro.ecc.array import EccArray
    from repro.faults.campaign import build_scheme, default_fault_models
    from repro.faults.injector import FaultInjector
    from repro.faults.recovery import RecoveryController

    if retry_policy is None:
        retry_policy = RetryPolicy(max_attempts=3, backoff_ns=5.0, current_escalation=0.1)
    calibration = calibrate()
    sensing = build_scheme(scheme, calibration, PAPER_TARGETS.r_transistor)
    rng_build = np.random.default_rng((seed, 0))
    rng_fault = np.random.default_rng((seed, 1))
    rng_read = np.random.default_rng((seed, 2))
    population = CellPopulation.sample(
        bits,
        TESTCHIP_VARIATION,
        params=calibration.params,
        rolloff_high=calibration.rolloff_high(),
        rolloff_low=calibration.rolloff_low(),
        rng=rng_build,
        r_tr_nominal=PAPER_TARGETS.r_transistor,
    )
    array = STTRAMArray(population)
    memory = EccArray(array, data_bits=data_bits)
    ladder = RecoveryController(memory, retry_policy, scrub_rounds=2, spare_words=8)
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
    return backend, retry_policy
