"""Workload generators and the replayable JSONL trace format.

A workload is a finite stream of :class:`Request` records — absolute
arrival time, word address, and operation — produced by composing an
**arrival process** with an **address distribution** and a read/write mix:

* :class:`PoissonArrivals` — memoryless traffic at a fixed rate (the
  classical open-loop model the old scheduler used);
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process
  (ON/OFF bursts: exponentially distributed dwell times, each state with
  its own arrival rate) for bursty front-end traffic;
* :class:`UniformAddresses` / :class:`ZipfianAddresses` — flat versus
  hot-spot address popularity (Zipf exponent ``s``; rank 1 is the
  hottest word).

Every generator draws from the caller's ``numpy.random.Generator`` in a
fixed, documented order (arrival times first, then addresses, then the
read/write coin flips), so a seed fully determines the stream.

Traces are JSON Lines: one request per line with keys ``id``/``t``/
``addr``/``op``.  Python's JSON float encoding uses ``repr`` round-trip
semantics, so :func:`save_trace` → :func:`load_trace` reproduces every
arrival time **bit-for-bit** — replaying a saved trace through the
controller yields the identical simulation as the live generation that
produced it (the ``repro serve --check`` gate).
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
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
]

READ = "read"
WRITE = "write"


@dataclasses.dataclass(frozen=True)
class Request:
    """One memory request.

    Attributes
    ----------
    request_id:
        Dense 0-based index within the stream (stable across save/load).
    time:
        Absolute arrival time [s].
    address:
        Logical word address.
    op:
        ``"read"`` or ``"write"``.
    priority:
        Shedding class: 0 (the default) is foreground traffic; larger
        values are lower priority and are dropped first when admission
        control engages (see :class:`repro.service.adaptive.AdmissionGate`).
    deadline:
        Absolute service-start deadline [s]; 0 (the default) means no
        deadline.  A request still waiting when the clock passes its
        deadline is dropped by the controller and recorded as
        ``timed_out`` instead of being served (see ``docs/RESILIENCE.md``).
    """

    request_id: int
    time: float
    address: int
    op: str = READ
    priority: int = 0
    deadline: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in (READ, WRITE):
            raise ConfigurationError(f"op must be 'read' or 'write', got {self.op!r}")
        if not 0.0 <= self.time < math.inf:
            raise ConfigurationError(
                f"arrival time must be finite and >= 0, got {self.time}"
            )
        if self.address < 0:
            raise ConfigurationError(f"address must be >= 0, got {self.address}")
        if self.priority < 0:
            raise ConfigurationError(f"priority must be >= 0, got {self.priority}")
        if not self.deadline >= 0.0:
            raise ConfigurationError(
                f"deadline must be >= 0 and not NaN, got {self.deadline}"
            )

    @property
    def is_read(self) -> bool:
        return self.op == READ


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at ``rate`` requests per second."""

    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0.0:
            raise ConfigurationError(f"arrival rate must be positive, got {self.rate}")

    @property
    def mean_rate(self) -> float:
        """Long-run arrival rate [1/s]."""
        return self.rate

    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` absolute arrival times (one vectorized draw)."""
        return np.cumsum(rng.exponential(1.0 / self.rate, count))


@dataclasses.dataclass(frozen=True)
class MMPPArrivals:
    """Two-state (ON/OFF) Markov-modulated Poisson arrivals.

    The process alternates between an ON state emitting at ``on_rate``
    and an OFF state emitting at ``off_rate`` (0 allowed: pure silence);
    dwell times in each state are exponential with means ``mean_on`` /
    ``mean_off`` seconds.  The stream starts in the ON state.
    """

    on_rate: float
    off_rate: float = 0.0
    mean_on: float = 1.0e-6
    mean_off: float = 1.0e-6

    def __post_init__(self) -> None:
        if not self.on_rate > 0.0:
            raise ConfigurationError(f"on_rate must be positive, got {self.on_rate}")
        if not self.off_rate >= 0.0:
            raise ConfigurationError(f"off_rate must be >= 0, got {self.off_rate}")
        if self.off_rate >= self.on_rate:
            raise ConfigurationError(
                "off_rate must be below on_rate (otherwise the process is "
                f"not bursty): {self.off_rate} >= {self.on_rate}"
            )
        if not (self.mean_on > 0.0 and self.mean_off > 0.0):
            raise ConfigurationError("state dwell means must be positive")

    @property
    def mean_rate(self) -> float:
        """Long-run arrival rate [1/s] (dwell-time-weighted)."""
        total = self.mean_on + self.mean_off
        return (self.on_rate * self.mean_on + self.off_rate * self.mean_off) / total

    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` absolute arrival times.

        Draw order per arrival: candidate inter-arrival gaps in the
        current state, interleaved with one dwell draw at each state
        toggle — sequential by construction, so a seed pins the stream.
        """
        times = np.empty(count)
        now = 0.0
        on = True
        remaining = rng.exponential(self.mean_on)
        for index in range(count):
            while True:
                rate = self.on_rate if on else self.off_rate
                gap = rng.exponential(1.0 / rate) if rate > 0.0 else np.inf
                if gap <= remaining:
                    remaining -= gap
                    now += gap
                    times[index] = now
                    break
                now += remaining
                on = not on
                remaining = rng.exponential(self.mean_on if on else self.mean_off)
        return times


# ---------------------------------------------------------------------------
# Address distributions
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class UniformAddresses:
    """Uniformly random word addresses in ``[0, addresses)``."""

    addresses: int

    def __post_init__(self) -> None:
        if self.addresses < 1:
            raise ConfigurationError(f"addresses must be >= 1, got {self.addresses}")

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.addresses, count)


@dataclasses.dataclass(frozen=True)
class ZipfianAddresses:
    """Zipf-popular addresses: P(address k) ∝ 1 / (k+1)^s.

    Address 0 is the hottest word; with the controller's modulo bank
    interleaving the top ``banks`` hot addresses still land on distinct
    banks.  ``s`` around 1 matches measured storage/key-value skew.
    """

    addresses: int
    s: float = 1.1

    def __post_init__(self) -> None:
        if self.addresses < 1:
            raise ConfigurationError(f"addresses must be >= 1, got {self.addresses}")
        if not self.s > 0.0:
            raise ConfigurationError(f"zipf exponent must be positive, got {self.s}")

    def probabilities(self) -> np.ndarray:
        """Normalized popularity of every address (hottest first).

        The analytic ground truth the topology layer's spread statistics
        compare against: summing these per channel/bank gives the exact
        expected share of traffic each shard receives under a given
        interleaving (``tests/test_topology.py``).
        """
        weights = 1.0 / np.power(np.arange(1, self.addresses + 1, dtype=float), self.s)
        return weights / weights.sum()

    def _cdf(self) -> np.ndarray:
        # Kept as cumsum-then-normalize (NOT cumsum of probabilities()):
        # the rounding of this exact expression is regression-pinned by
        # every saved trace and --check gate, so the draw stream must not
        # move by even one ulp.
        weights = 1.0 / np.power(np.arange(1, self.addresses + 1, dtype=float), self.s)
        cdf = np.cumsum(weights)
        return cdf / cdf[-1]

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.searchsorted(self._cdf(), rng.random(count), side="left")


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RequestStream:
    """An arrival process × address distribution × read/write mix.

    ``write_fraction`` of the requests (an independent coin per request)
    are writes, and ``low_priority_fraction`` (another independent coin)
    are priority-1 background traffic that admission control sheds first.
    Draw order inside :meth:`generate` is fixed: all arrival times, then
    all addresses, then all op coins, then all priority coins — and each
    coin block is only drawn when its fraction is nonzero, so streams
    generated before these knobs existed are unchanged.
    """

    arrivals: object
    addresses: object
    write_fraction: float = 0.0
    low_priority_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError(
                f"write_fraction must be within [0, 1], got {self.write_fraction}"
            )
        if not 0.0 <= self.low_priority_fraction <= 1.0:
            raise ConfigurationError(
                "low_priority_fraction must be within [0, 1], got "
                f"{self.low_priority_fraction}"
            )

    def generate(self, count: int, rng: np.random.Generator) -> Tuple[Request, ...]:
        """``count`` requests, arrival-ordered, ids dense from 0."""
        if count < 1:
            raise ConfigurationError(f"request count must be >= 1, got {count}")
        times = self.arrivals.arrival_times(count, rng)
        addresses = self.addresses.draw(count, rng)
        if self.write_fraction > 0.0:
            writes = rng.random(count) < self.write_fraction
        else:
            writes = np.zeros(count, dtype=bool)
        if self.low_priority_fraction > 0.0:
            low = rng.random(count) < self.low_priority_fraction
        else:
            low = np.zeros(count, dtype=bool)
        return tuple(
            Request(
                request_id=index,
                time=float(times[index]),
                address=int(addresses[index]),
                op=WRITE if writes[index] else READ,
                priority=1 if low[index] else 0,
            )
            for index in range(count)
        )


def build_workload(
    kind: str = "poisson",
    addressing: str = "uniform",
    rate: float = 5.0e7,
    addresses: int = 2048,
    write_fraction: float = 0.0,
    low_priority_fraction: float = 0.0,
    burst_ratio: float = 4.0,
    mean_on: float = 1.0e-6,
    mean_off: float = 1.0e-6,
    zipf_s: float = 1.1,
) -> RequestStream:
    """Convenience factory for the CLI and benchmarks.

    ``kind`` is ``poisson`` or ``bursty``; a bursty stream keeps the same
    *mean* rate as the Poisson one but emits it in ON bursts running at
    ``burst_ratio`` × the mean (OFF rate chosen to balance), so workloads
    of the two kinds are directly comparable at equal offered load.
    """
    if kind == "poisson":
        arrivals = PoissonArrivals(rate)
    elif kind == "bursty":
        if not burst_ratio > 1.0:
            raise ConfigurationError(
                f"burst_ratio must exceed 1, got {burst_ratio}"
            )
        on_rate = burst_ratio * rate
        # Solve the dwell-weighted mean for the OFF rate.  When the burst
        # carries more than the entire load (the solution would go
        # negative), emit silence in the OFF state and stretch its dwell
        # so the long-run mean still equals ``rate``.
        off_rate = (rate * (mean_on + mean_off) - on_rate * mean_on) / mean_off
        if off_rate < 0.0:
            off_rate = 0.0
            mean_off = mean_on * (on_rate / rate - 1.0)
        arrivals = MMPPArrivals(
            on_rate=on_rate, off_rate=off_rate, mean_on=mean_on, mean_off=mean_off
        )
    else:
        raise ConfigurationError(
            f"unknown workload kind {kind!r}; expected poisson/bursty"
        )
    if addressing == "uniform":
        address_dist = UniformAddresses(addresses)
    elif addressing == "zipfian":
        address_dist = ZipfianAddresses(addresses, s=zipf_s)
    else:
        raise ConfigurationError(
            f"unknown addressing {addressing!r}; expected uniform/zipfian"
        )
    return RequestStream(
        arrivals=arrivals,
        addresses=address_dist,
        write_fraction=write_fraction,
        low_priority_fraction=low_priority_fraction,
    )


# ---------------------------------------------------------------------------
# Trace persistence (JSON Lines)
# ---------------------------------------------------------------------------
def save_trace(path, requests: Iterable[Request]) -> int:
    """Write requests to ``path`` as JSONL; returns the line count.

    Floats serialize via ``repr`` round-trip semantics, so a reloaded
    trace reproduces every arrival time exactly.
    """
    count = 0
    with open(path, "w") as handle:
        for request in requests:
            record = {
                "id": request.request_id,
                "t": request.time,
                "addr": request.address,
                "op": request.op,
            }
            if request.priority:
                # Written only when nonzero: priority-0 traces stay
                # byte-identical to those from before the field existed.
                record["pri"] = request.priority
            if request.deadline:
                # Same backward-compatibility contract as ``pri``: the
                # key only appears when a deadline is actually set.
                record["dl"] = request.deadline
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def load_trace(path) -> Tuple[Request, ...]:
    """Load a JSONL trace written by :func:`save_trace`.

    Request ids must be unique: hedging screens twins and the crash
    accounting matches completions by id, so a repeated id is malformed.
    """
    requests = []
    seen = set()
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                requests.append(Request(
                    request_id=int(record["id"]),
                    time=float(record["t"]),
                    address=int(record["addr"]),
                    op=str(record["op"]),
                    priority=int(record.get("pri", 0)),
                    deadline=float(record.get("dl", 0.0)),
                ))
            except (KeyError, ValueError, TypeError, ConfigurationError) as error:
                raise ConfigurationError(
                    f"malformed trace line {line_number} in {path}: {error}"
                ) from error
            request_id = requests[-1].request_id
            if request_id in seen:
                raise ConfigurationError(
                    f"duplicate request id {request_id} on trace line "
                    f"{line_number} in {path}"
                )
            seen.add(request_id)
    return tuple(requests)
