"""Deterministic structural failure scenarios for the serving stack.

Where :mod:`repro.faults` models per-bit device faults and
:mod:`repro.faults.drift` models slow environmental drift, this module
models *structural* failures — whole components misbehaving for a window
of simulated time, the hard-fault classes the STT-MRAM testing survey
catalogs beyond per-cell transients:

* ``controller-stall`` — every occupancy stretches by a stall factor
  (a thermal throttle or a firmware hiccup inflating latency);
* ``bank-offline`` — one bank stops starting new service; queued and
  arriving requests wait (or time out) until it heals;
* ``sense-lockup`` — one bank's sense amplifiers latch: reads occupy the
  bank but return detected losses until released (writes unaffected);
* ``channel-outage`` — a whole channel disappears from the topology;
  handled by the failover path in :mod:`repro.service.topology`, never by
  a single flat controller;
* ``crash-restart`` — the power drops at one instant and the controller
  restarts from its write-ahead journal (see :mod:`repro.service.journal`).

Scenarios are plain data (frozen dataclasses): a channel's loop,
:meth:`~repro.service.controller.MemoryController.run`, seeds its
calendar with their onsets and heals
(:meth:`FailureScenario.transitions`), as it does with the drift points
of :mod:`repro.faults.drift`.  Randomized scenario geometry draws from
the **reserved stream** ``(seed, 7)`` (`_FAILURE_STREAM`), which nothing
else in the library touches, so enabling the failure layer can never
shift a workload, sensing, or drift draw and existing traces stay
byte-identical.

:func:`run_chaos_campaign` sweeps every scenario under live traffic and
gates the three resilience invariants (see ``docs/RESILIENCE.md``):
zero silent escapes, request conservation
(``requests == completed + shed + timed_out + failed``), and an
availability floor — plus bit-exact journal replay for the
crash/restart scenario.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, FaultError
from repro.streams import FAILURE_STREAM, stream_rng

__all__ = [
    "CONTROLLER_STALL",
    "BANK_OFFLINE",
    "SENSE_LOCKUP",
    "CHANNEL_OUTAGE",
    "CRASH_RESTART",
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
]

#: Reserved RNG stream for failure-scenario geometry: ``(seed, 7)``,
#: allocated in the central :mod:`repro.streams` registry (streams 0-5
#: belong to build/fault/read/stats/workload/drift, 6 to the topology
#: seed split, 8 to prodtest) — see ``docs/RESILIENCE.md``.
_FAILURE_STREAM = FAILURE_STREAM

CONTROLLER_STALL = "controller-stall"
BANK_OFFLINE = "bank-offline"
SENSE_LOCKUP = "sense-lockup"
CHANNEL_OUTAGE = "channel-outage"
#: An instant, not a window: the serving drain journals up to the crash,
#: restarts from the journal, and drains an uninterrupted reference.
CRASH_RESTART = "crash-restart"

#: The windowed kinds :func:`build_failure_scenario` draws geometry for.
FAILURE_KINDS: Tuple[str, ...] = (
    CONTROLLER_STALL, BANK_OFFLINE, SENSE_LOCKUP, CHANNEL_OUTAGE,
)
#: Every :class:`FailureEvent` kind; what :func:`run_chaos_campaign`
#: sweeps by default.
CHAOS_SCENARIOS: Tuple[str, ...] = FAILURE_KINDS + (CRASH_RESTART,)
#: The label a window's heal counts under in ``service.failures.events``
#: (its onset counts under its kind).
_HEALS = {
    CONTROLLER_STALL: "stall-cleared",
    BANK_OFFLINE: "bank-online",
    SENSE_LOCKUP: "sense-unlocked",
}


@dataclasses.dataclass(frozen=True)
class FailureEvent:
    """One structural failure window on the calendar.

    ``target`` is a bank index (``bank-offline``/``sense-lockup``) or a
    channel index (``channel-outage``); ``controller-stall`` and
    ``crash-restart`` ignore it.  ``stall_factor`` only applies to
    ``controller-stall``.  A crash is instantaneous (duration 0).
    """

    kind: str
    start: float        #: window start [s]
    duration: float     #: window length [s]
    target: int = 0
    stall_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_SCENARIOS:
            raise ConfigurationError(
                f"unknown failure kind {self.kind!r}; expected one of "
                f"{CHAOS_SCENARIOS}"
            )
        # Each float check is written so that NaN fails it.
        if not self.start >= 0.0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.kind == CRASH_RESTART:
            if self.duration != 0.0:
                raise ConfigurationError(
                    f"a crash is instantaneous, got duration {self.duration}"
                )
        elif not self.duration > 0.0:
            raise ConfigurationError(
                f"duration must be > 0, got {self.duration}"
            )
        if self.target < 0:
            raise ConfigurationError(f"target must be >= 0, got {self.target}")
        if self.kind == CONTROLLER_STALL and not self.stall_factor > 1.0:
            raise ConfigurationError(
                f"stall_factor must be > 1 for a stall, got {self.stall_factor}"
            )

    @property
    def end(self) -> float:
        """Window end [s] — the heal/release instant."""
        return self.start + self.duration


@dataclasses.dataclass(frozen=True)
class FailureScenario:
    """A named, time-ordered set of failure windows."""

    name: str
    events: Tuple[FailureEvent, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if not self.events:
            raise ConfigurationError(
                "a failure scenario needs at least one event"
            )
        starts = [event.start for event in self.events]
        if starts != sorted(starts):
            raise ConfigurationError(
                "failure events must be ordered by start time"
            )

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Distinct event kinds, in first-appearance order."""
        seen = []
        for event in self.events:
            if event.kind not in seen:
                seen.append(event.kind)
        return tuple(seen)

    def outage_windows(self) -> Tuple[Tuple[int, float, float], ...]:
        """``(channel, start, end)`` for every channel-outage event —
        the shape :meth:`repro.service.topology.ShardRouter.split_with_failover`
        consumes."""
        return tuple(
            (event.target, event.start, event.end)
            for event in self.events
            if event.kind == CHANNEL_OUTAGE
        )

    @property
    def crash_time(self) -> Optional[float]:
        """When the crash-restart event strikes; None without one."""
        for event in self.events:
            if event.kind == CRASH_RESTART:
                return event.start
        return None

    def on_channel(self, channel: int, banks: int) -> Optional["FailureScenario"]:
        """The part of the scenario one ``banks``-bank channel installs.

        Bank targets are global indices in channel-major order (the order
        a merged report lists banks in): a bank event lands on the channel
        owning that bank, re-targeted to its local index.  A stall has no
        target and lands on every channel; channel outages stay with the
        router and a crash with the drain (:attr:`crash_time`).  None when
        nothing lands here.  On a one-channel part this is the whole
        scenario minus its outages and crash.
        """
        events = []
        for event in self.events:
            if event.kind == CONTROLLER_STALL:
                events.append(event)
            elif event.kind in (CHANNEL_OUTAGE, CRASH_RESTART):
                continue
            elif event.target // banks == channel:
                events.append(dataclasses.replace(
                    event, target=event.target - channel * banks
                ))
        return dataclasses.replace(self, events=tuple(events)) if events else None

    def transitions(
        self, banks: int
    ) -> Tuple[Tuple[float, str, Optional[int], object], ...]:
        """Each window's onset, then its heal, on one ``banks``-bank
        channel: ``(time, label, bank, value)`` in scenario order.

        Every window heals, so queues always drain and conservation stays
        checkable.  ``label`` is the ``kind`` the
        ``service.failures.events`` counter counts the switch under.  A
        stall switches the occupancy factor (``bank`` None, ``value`` the
        factor); a bank switch marks (``value`` True) or clears its bank.
        Channel outages and crashes are served by
        :func:`~repro.service.topology.serve`, not by one channel, and a
        bank outside the channel does not exist: both raise
        :class:`ConfigurationError`.
        """
        switches = []
        for event in self.events:
            if event.kind in (CHANNEL_OUTAGE, CRASH_RESTART):
                raise ConfigurationError(
                    f"{event.kind} scenarios are served with "
                    "ServeSpec(failures=...) at the topology layer, not "
                    "by one channel"
                )
            if event.kind == CONTROLLER_STALL:
                bank, onset, heal = None, event.stall_factor, 1.0
            elif event.target < banks:
                bank, onset, heal = event.target, True, False
            else:
                raise ConfigurationError(
                    f"bank {event.target} out of range for {banks} banks"
                )
            switches += [
                (event.start, event.kind, bank, onset),
                (event.end, _HEALS[event.kind], bank, heal),
            ]
        return tuple(switches)


# ----------------------------------------------------------------------
# Scenario builders
# ----------------------------------------------------------------------
def controller_stall(
    start: float, duration: float, stall_factor: float = 8.0,
    name: str = CONTROLLER_STALL,
) -> FailureScenario:
    """Every occupancy stretches by ``stall_factor`` during the window."""
    return FailureScenario(name, (
        FailureEvent(CONTROLLER_STALL, start, duration,
                     stall_factor=stall_factor),
    ))


def bank_offline(
    start: float, duration: float, bank: int = 0, name: str = BANK_OFFLINE,
) -> FailureScenario:
    """One bank stops serving for the window, then heals and drains."""
    return FailureScenario(name, (
        FailureEvent(BANK_OFFLINE, start, duration, target=bank),
    ))


def sense_amp_lockup(
    start: float, duration: float, bank: int = 0, name: str = SENSE_LOCKUP,
) -> FailureScenario:
    """One bank's sense amps latch for the window: reads are detected
    losses until release (the nondestructive scheme's stored data
    survives — nothing was disturbed — so post-release reads succeed)."""
    return FailureScenario(name, (
        FailureEvent(SENSE_LOCKUP, start, duration, target=bank),
    ))


def channel_outage(
    start: float, duration: float, channel: int = 0, name: str = CHANNEL_OUTAGE,
) -> FailureScenario:
    """A whole channel disappears for the window (topology runs only)."""
    return FailureScenario(name, (
        FailureEvent(CHANNEL_OUTAGE, start, duration, target=channel),
    ))


def crash_restart(start: float) -> FailureScenario:
    """The power drops at ``start``; the controller restarts from its
    write-ahead journal (every channel of a topology crashes at once)."""
    return FailureScenario(
        CRASH_RESTART, (FailureEvent(CRASH_RESTART, start, 0.0),)
    )


def build_failure_scenario(
    name: str,
    span: float,
    *,
    seed: int = 2010,
    banks: int = 4,
    channels: int = 1,
    stall_factor: float = 8.0,
) -> FailureScenario:
    """A deterministic mid-trace scenario scaled to a trace of ``span`` [s].

    Window geometry (onset ~25-40% in, length ~25-40% of the trace) and
    the struck bank/channel draw from the reserved ``(seed, 7)`` stream —
    three draws regardless of kind, so every scenario under one seed
    shares the same window and the stream position never depends on which
    scenario ran.
    """
    if span <= 0.0:
        raise ConfigurationError(f"span must be > 0, got {span}")
    rng = stream_rng(seed, "failures")
    onset = float(rng.uniform(0.25, 0.40)) * span
    duration = float(rng.uniform(0.25, 0.40)) * span
    pool = channels if name == CHANNEL_OUTAGE else banks
    target = int(rng.integers(0, max(1, pool)))
    if name == CONTROLLER_STALL:
        return controller_stall(onset, duration, stall_factor=stall_factor)
    if name == BANK_OFFLINE:
        return bank_offline(onset, duration, bank=target)
    if name == SENSE_LOCKUP:
        return sense_amp_lockup(onset, duration, bank=target)
    if name == CHANNEL_OUTAGE:
        return channel_outage(onset, duration, channel=target)
    raise ConfigurationError(
        f"unknown failure scenario {name!r}; expected one of {FAILURE_KINDS}"
    )


# ----------------------------------------------------------------------
# Chaos campaign
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ChaosRow:
    """One scenario's outcome under traffic."""

    scenario: str
    requests: int
    completed: int
    shed: int
    timed_out: int
    failed_requests: int
    detected_loss: int     #: served completions flagged as detected loss
    corrupted_words: int   #: silent escapes — must stay 0
    retries: int
    hedged: int
    conserved: bool
    bit_exact: bool = True  #: journal-replay gate (crash-restart only)

    @property
    def availability(self) -> float:
        """Fraction of offered requests served with a real response."""
        return self.completed / self.requests if self.requests else 1.0


@dataclasses.dataclass(frozen=True)
class ChaosCampaignResult:
    """Every scenario's row plus the acceptance gate."""

    scheme: str
    seed: int
    bits: int
    availability_floor: float
    rows: Tuple[ChaosRow, ...]

    def check(self) -> "ChaosCampaignResult":
        """Raise :class:`~repro.errors.FaultError` unless every scenario
        conserved its requests, escaped nothing silently, replayed
        bit-exactly, and cleared the availability floor."""
        for row in self.rows:
            if not row.conserved:
                raise FaultError(
                    f"{row.scenario}: request conservation violated "
                    f"({row.requests} != {row.completed} + {row.shed} + "
                    f"{row.timed_out} + {row.failed_requests})"
                )
            if row.corrupted_words:
                raise FaultError(
                    f"{row.scenario}: {row.corrupted_words} silent escapes"
                )
            if not row.bit_exact:
                raise FaultError(
                    f"{row.scenario}: journal replay not bit-exact"
                )
            if row.availability < self.availability_floor:
                raise FaultError(
                    f"{row.scenario}: availability {row.availability:.3f} "
                    f"below floor {self.availability_floor:.3f}"
                )
        return self

    def to_dict(self) -> dict:
        """JSON-friendly view (benchmark artifacts)."""
        return {
            "scheme": self.scheme,
            "seed": self.seed,
            "bits": self.bits,
            "availability_floor": self.availability_floor,
            "scenarios": {
                row.scenario: {
                    "requests": row.requests,
                    "completed": row.completed,
                    "shed": row.shed,
                    "timed_out": row.timed_out,
                    "failed_requests": row.failed_requests,
                    "detected_loss": row.detected_loss,
                    "corrupted_words": row.corrupted_words,
                    "retries": row.retries,
                    "hedged": row.hedged,
                    "availability": row.availability,
                    "conserved": row.conserved,
                    "bit_exact": row.bit_exact,
                }
                for row in self.rows
            },
        }


def run_chaos_campaign(
    requests: int = 400,
    *,
    scheme: str = "nondestructive",
    seed: int = 2010,
    bits: int = 2304,
    rate: float = 2.0e8,
    write_fraction: float = 0.1,
    availability_floor: float = 0.5,
    channels: int = 4,
    scenarios: Tuple[str, ...] = CHAOS_SCENARIOS,
) -> ChaosCampaignResult:
    """Sweep every failure scenario under live backed traffic.

    Each scenario runs the full serving stack with the relevant
    robustness feature engaged — deadlines under a stall, deadlines plus
    hedged reads across a bank outage, controller retries through a
    sense-amp lockup, degraded-mode failover through a channel outage,
    and a mid-trace crash with journal replay — then scores the
    invariants :meth:`ChaosCampaignResult.check` gates.
    """
    from repro.service.controller import (
        ControllerConfig, build_backend, scheme_service_times,
    )
    from repro.service.topology import ServeSpec, Topology, serve
    from repro.service.workload import build_workload

    if not 0.0 <= availability_floor <= 1.0:
        raise ConfigurationError(
            f"availability_floor must be within [0, 1], got "
            f"{availability_floor}"
        )
    read_time, write_time = scheme_service_times(scheme)
    # The one-controller workloads address exactly the array's words.
    words = build_backend(scheme, seed, bits=bits)[0].size_words
    rows = []
    for name in scenarios:
        rng = np.random.default_rng((seed, 0))
        # A channel outage needs channels to fail over between; every
        # other scenario strikes one controller over the whole array.
        outage = name == CHANNEL_OUTAGE
        topology = Topology(
            channels=channels if outage else 1, ranks=1, banks=4, rows=64
        )
        crash = name == CRASH_RESTART
        stream = build_workload(
            rate=rate, addresses=topology.capacity if outage else words,
            # A write-heavy mix gives the journal replay work to restore.
            write_fraction=0.35 if crash else write_fraction,
        )
        reqs = stream.generate(requests, rng)
        span = max(r.time for r in reqs)
        if crash:
            scenario = crash_restart(0.5 * span)
        else:
            scenario = build_failure_scenario(
                name, span, seed=seed, banks=topology.total_banks,
                channels=topology.channels,
            )
        config = ControllerConfig(read_time, write_time, banks=4)
        if name == CONTROLLER_STALL:
            # Deadlines expose the stall as timeouts instead of a tail.
            slack = 25.0 * read_time
            reqs = tuple(
                dataclasses.replace(r, deadline=r.time + slack) for r in reqs
            )
        elif name == BANK_OFFLINE:
            # Hedged reads ride around the dead bank; writes must wait
            # for the heal, so deadlines bound their exposure too.
            slack = 60.0 * read_time
            reqs = tuple(
                dataclasses.replace(r, deadline=r.time + slack) for r in reqs
            )
            config = dataclasses.replace(config, hedge_after=10.0 * read_time)
        elif name == SENSE_LOCKUP:
            config = dataclasses.replace(
                config, request_retries=2, retry_backoff=4.0 * read_time,
            )
        served = serve(reqs, ServeSpec(
            config=config, topology=topology, scheme=scheme,
            offered_rate=rate, backed=True, backend_bits=bits, seed=seed,
            failures=scenario,
        ))
        report = served.merged
        rows.append(ChaosRow(
            scenario=name,
            requests=report.requests,
            completed=report.completed,
            shed=report.shed,
            timed_out=report.timed_out,
            failed_requests=report.failed_requests,
            detected_loss=report.detected_loss,
            corrupted_words=report.corrupted_words,
            retries=report.request_retries,
            hedged=report.hedged,
            conserved=report.requests == (
                report.completed + report.shed + report.timed_out
                + report.failed_requests
            ),
            bit_exact=served.crash is None or served.crash.bit_exact,
        ))
    return ChaosCampaignResult(
        scheme=scheme,
        seed=seed,
        bits=bits,
        availability_floor=availability_floor,
        rows=tuple(rows),
    )
