"""Bank-conflict read scheduling: discrete-event queueing simulation.

The destructive scheme's longer bank-occupancy time (erase + write-back)
does more damage than its raw latency suggests once requests queue behind
busy banks.  This module keeps the historical entry point —
:func:`simulate_read_queue`, Poisson read arrivals, random bank targets,
FCFS per bank — but the hand-rolled service loop it used to contain now
lives in :mod:`repro.service`: the function draws the same RNG streams in
the same order, wraps them into :class:`~repro.service.workload.Request`
records, and drains them through
:func:`~repro.service.controller.drain_channel` — the path every serving
driver takes — under the ``fcfs`` policy.  Results are bit-identical to
the pre-refactor loop for a fixed seed (the regression test pins exact
values), because the controller performs the same float operations —
``start = max(arrival, bank_free)``, ``finish = start + service_time`` —
in the same per-request order.

For richer workloads (bursty arrivals, Zipf addressing, writes, caching,
batching, fault-backed reads), use :mod:`repro.service` directly.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.service.controller import ControllerConfig, drain_channel
from repro.service.workload import Request

__all__ = ["QueueingResult", "simulate_read_queue"]


@dataclasses.dataclass(frozen=True)
class QueueingResult:
    """Outcome of one queueing simulation."""

    service_time: float         #: per-access bank occupancy [s]
    offered_load: float         #: arrival rate x service time / banks
    mean_latency: float         #: mean request completion latency [s]
    p99_latency: float          #: 99th-percentile latency [s]
    mean_queue_delay: float     #: mean waiting time before service [s]

    @property
    def slowdown(self) -> float:
        """Mean latency relative to the unloaded service time."""
        return self.mean_latency / self.service_time


def simulate_read_queue(
    service_time: float,
    arrival_rate: float,
    banks: int = 4,
    requests: int = 4096,
    rng: Optional[np.random.Generator] = None,
) -> QueueingResult:
    """Simulate ``requests`` Poisson read arrivals over ``banks`` banks.

    Each request targets a uniformly random bank and occupies it for
    ``service_time`` (the scheme's full read — for the destructive scheme
    that includes the erase and write-back).  FCFS within a bank; banks are
    independent.
    """
    if service_time <= 0.0 or arrival_rate <= 0.0:
        raise ConfigurationError("service_time and arrival_rate must be positive")
    if banks < 1 or requests < 1:
        raise ConfigurationError("banks and requests must be >= 1")
    if rng is None:
        rng = np.random.default_rng()

    offered = arrival_rate * service_time / banks
    if offered >= 1.0:
        raise ConfigurationError(
            f"offered load {offered:.2f} >= 1: the queue is unstable"
        )

    # Same draws, same order, as the historical loop: arrival gaps first,
    # then bank targets.  The target doubles as the address, so the
    # controller's modulo interleaving lands each request on its target.
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, requests))
    targets = rng.integers(0, banks, requests)
    stream = tuple(
        Request(
            request_id=index,
            time=float(arrivals[index]),
            address=int(targets[index]),
        )
        for index in range(requests)
    )

    config = ControllerConfig(
        read_time=service_time, write_time=service_time, banks=banks
    )
    run = drain_channel(stream, config)

    # Reassemble per-request arrays in arrival (request_id) order so the
    # pairwise summation inside np.mean sees the exact sequence the old
    # loop produced — means stay byte-identical, not merely close.
    latencies = np.empty(requests)
    queue_delays = np.empty(requests)
    for completed in run.completions:
        index = completed.request.request_id
        latencies[index] = completed.latency
        queue_delays[index] = completed.queue_delay

    return QueueingResult(
        service_time=service_time,
        offered_load=float(offered),
        mean_latency=float(np.mean(latencies)),
        p99_latency=float(np.percentile(latencies, 99.0)),
        mean_queue_delay=float(np.mean(queue_delays)),
    )
