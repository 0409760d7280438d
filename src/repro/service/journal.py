"""Write-ahead journal and the mid-trace crash/restart scenario.

The paper's nondestructive scheme protects *stored* data from the read
path; this module protects *acknowledged writes* from the controller
itself.  Every write is journaled at arrival — before it can sit in a
bank's write buffer — and acknowledged when its bank occupancy completes.
If the controller dies mid-trace, volatile state (queues, the event
calendar, in-flight service) is gone, but the journal survives: a
restarted controller rebuilds its backing array from the deterministic
base image and replays the acknowledged journal suffix in order, after
which every acknowledged write is bit-exact with an uninterrupted run.

Unacknowledged writes and requests caught in flight are *lost loudly*:
the crash driver records each as a terminal ``failed_requests`` entry
(the client never got an acknowledgement, so nothing silent happened),
and the conservation invariant
``requests == completed + shed + timed_out + failed`` still holds over
the two phases combined.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError, FaultError

__all__ = [
    "JournalRecord",
    "WriteAheadJournal",
    "CrashRestartResult",
    "run_crash_restart",
]


@dataclasses.dataclass(frozen=True)
class JournalRecord:
    """One journaled write: what would be replayed after a crash."""

    seq: int           #: append order — replay order
    request_id: int
    address: int
    value: int         #: the payload the write carries
    time: float        #: journal-append (arrival) time [s]

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ConfigurationError(f"seq must be >= 0, got {self.seq}")
        if self.value < 0:
            raise ConfigurationError(f"value must be >= 0, got {self.value}")


class WriteAheadJournal:
    """An append-only write journal with acknowledgement tracking.

    The controller appends at write *arrival* (write-ahead of the buffer)
    and acknowledges at completion; only acknowledged entries replay.
    Same-address writes replay in append order, which per bank is arrival
    order — exactly the order the controller's FIFO write path applies
    them — so replay converges to the uninterrupted run's final value.
    """

    def __init__(self) -> None:
        self._records: List[JournalRecord] = []
        self._acked: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._records)

    @property
    def appended(self) -> int:
        """Writes journaled so far."""
        return len(self._records)

    @property
    def acknowledged(self) -> int:
        """Writes whose completion was acknowledged."""
        return len(self._acked)

    def append(self, request_id: int, address: int, value: int,
               time: float) -> int:
        """Journal one write; returns its sequence number."""
        seq = len(self._records)
        self._records.append(
            JournalRecord(seq, request_id, address, value, time)
        )
        return seq

    def acknowledge(self, request_id: int, time: float) -> None:
        """Mark a journaled write as acknowledged to its client."""
        self._acked[request_id] = time

    def acknowledged_records(self) -> Tuple[JournalRecord, ...]:
        """Acknowledged entries in append (replay) order."""
        return tuple(
            record for record in self._records
            if record.request_id in self._acked
        )

    def unacknowledged_records(self) -> Tuple[JournalRecord, ...]:
        """Journaled but never acknowledged — lost loudly on a crash."""
        return tuple(
            record for record in self._records
            if record.request_id not in self._acked
        )

    def replay(self, backend) -> int:
        """Apply every acknowledged write to ``backend`` in order.

        Returns the number of writes replayed.  Replay does not count as
        workload traffic: the backend's write counter is restored.
        """
        records = self.acknowledged_records()
        before = backend.writes
        for record in records:
            backend.write(record.address, record.value)
        backend.writes = before
        return len(records)

    # ------------------------------------------------------------------
    # Durable form
    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> int:
        """Persist the journal as JSONL; returns the record count."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self._records:
                payload = {
                    "seq": record.seq,
                    "id": record.request_id,
                    "addr": record.address,
                    "val": record.value,
                    "t": record.time,
                }
                if record.request_id in self._acked:
                    payload["ack"] = self._acked[record.request_id]
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
        return len(self._records)

    @classmethod
    def load_jsonl(cls, path) -> "WriteAheadJournal":
        """Rebuild a journal persisted by :meth:`write_jsonl`."""
        journal = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                journal._records.append(JournalRecord(
                    seq=int(payload["seq"]),
                    request_id=int(payload["id"]),
                    address=int(payload["addr"]),
                    value=int(payload["val"]),
                    time=float(payload["t"]),
                ))
                if "ack" in payload:
                    journal._acked[int(payload["id"])] = float(payload["ack"])
        return journal


@dataclasses.dataclass(frozen=True)
class CrashRestartResult:
    """Combined accounting of a crash at ``crash_time`` plus the restart."""

    crash_time: float
    requests: int
    completed: int
    shed: int
    timed_out: int
    failed_requests: int      #: incl. every request lost in the crash
    detected_loss: int
    corrupted_words: int      #: silent escapes across both phases
    pre_crash_completed: int
    resumed_completed: int
    journaled_writes: int
    acknowledged_writes: int  #: acknowledged before the crash — replayed
    replayed_writes: int
    lost_writes: int          #: journaled, never acknowledged
    durable_addresses: int    #: acked addresses checked against the
                              #: uninterrupted run
    mismatched_addresses: int

    @property
    def bit_exact(self) -> bool:
        """True when every checkable acknowledged write matches the
        uninterrupted run bit-for-bit."""
        return self.mismatched_addresses == 0

    @property
    def conserved(self) -> bool:
        return self.requests == (
            self.completed + self.shed + self.timed_out + self.failed_requests
        )

    def check(self) -> "CrashRestartResult":
        """Raise :class:`~repro.errors.FaultError` on any broken invariant."""
        if not self.conserved:
            raise FaultError(
                f"crash-restart: conservation violated ({self.requests} != "
                f"{self.completed} + {self.shed} + {self.timed_out} + "
                f"{self.failed_requests})"
            )
        if self.corrupted_words:
            raise FaultError(
                f"crash-restart: {self.corrupted_words} silent escapes"
            )
        if not self.bit_exact:
            raise FaultError(
                f"crash-restart: {self.mismatched_addresses} acknowledged "
                "writes diverged from the uninterrupted run"
            )
        return self


def run_crash_restart(
    requests: Sequence,
    *,
    crash_time: float,
    scheme: str = "nondestructive",
    seed: int = 2010,
    bits: int = 2304,
    fault_rate: float = 0.0,
    policy: str = "fcfs",
    config=None,
) -> CrashRestartResult:
    """Kill the controller mid-trace, restart from the journal, compare.

    Three runs share one request stream:

    1. **Phase A** serves normally with a write-ahead journal attached
       until ``crash_time``, then the calendar is dropped
       (:meth:`~repro.service.engine.DiscreteEventEngine.drop_pending`) —
       queues, in-flight occupancies, and timers vanish.
    2. **Restart** rebuilds the backing array from the same deterministic
       base image (same seed → same initial fill and injected faults — the
       "snapshot") and replays the journal's acknowledged suffix, then
       serves every request that arrives after the crash.  Requests caught
       non-terminal at the crash become ``failed_requests``.
    3. **Reference** serves the whole stream uninterrupted.

    The durability gate: every address whose last journaled state is an
    acknowledged write — and that no lost (unacknowledged) write also
    targeted — must hold the identical value in the restarted and the
    uninterrupted backends.
    """
    from repro.service.controller import (
        ControllerConfig, build_backend, drain_channel, scheme_service_times,
    )
    from repro.service.report import build_report

    if not requests:
        raise ConfigurationError("requests must be a non-empty sequence")
    if crash_time <= 0.0:
        raise ConfigurationError(
            f"crash_time must be > 0, got {crash_time}"
        )
    if config is None:
        read_time, write_time = scheme_service_times(scheme)
        config = ControllerConfig(read_time, write_time, banks=4)

    def _backend():
        return build_backend(scheme, seed, bits=bits, fault_rate=fault_rate)

    def _drain(stream, backend, retry_policy, **hooks):
        return drain_channel(
            stream, config, policy=policy, backend=backend,
            retry_policy=retry_policy, **hooks,
        )

    # Phase A: serve until the power drops.
    journal = WriteAheadJournal()
    backend_a, retry_a = _backend()
    run_a = _drain(requests, backend_a, retry_a, journal=journal,
                   until=crash_time)
    done_ids = {c.request.request_id for c in run_a.completions}
    acked = journal.acknowledged_records()
    lost_records = journal.unacknowledged_records()
    lost_addresses = {record.address for record in lost_records}

    # Restart: fresh image + journal replay, then the post-crash tail.
    backend_b, retry_b = _backend()
    replayed = journal.replay(backend_b)
    lost_in_flight = [
        r for r in requests
        if r.time <= crash_time and r.request_id not in done_ids
    ]
    resumed = [
        r for r in requests
        if r.time > crash_time and r.request_id not in done_ids
    ]
    run_b = _drain(resumed, backend_b, retry_b, journal=journal)

    # Reference: the same stream with the power never dropping.
    backend_u, retry_u = _backend()
    _drain(requests, backend_u, retry_u)

    report_a = build_report(run_a, scheme=scheme)
    report_b = (
        build_report(run_b, scheme=scheme) if run_b.completions else None
    )

    def _sum(field: str) -> int:
        total = getattr(report_a, field)
        if report_b is not None:
            total += getattr(report_b, field)
        return total

    # Durability gate: acknowledged writes must survive bit-exactly
    # unless a lost write raced the same address (the reference run
    # applied that write; the restart — correctly — never saw it).
    final_acked: Dict[int, int] = {}
    for record in acked:
        final_acked[record.address % backend_b.size_words] = record.value
    checked = mismatched = 0
    for physical in final_acked:
        if any(
            addr % backend_b.size_words == physical
            for addr in lost_addresses
        ):
            continue
        checked += 1
        if backend_b._truth.get(physical) != backend_u._truth.get(physical):
            mismatched += 1

    return CrashRestartResult(
        crash_time=crash_time,
        requests=len(requests),
        completed=_sum("completed"),
        shed=_sum("shed"),
        timed_out=_sum("timed_out"),
        failed_requests=_sum("failed_requests") + len(lost_in_flight),
        detected_loss=_sum("detected_loss"),
        corrupted_words=run_a.corrupted_words + run_b.corrupted_words,
        pre_crash_completed=report_a.completed,
        resumed_completed=report_b.completed if report_b else 0,
        journaled_writes=journal.appended,
        acknowledged_writes=len(acked),
        replayed_writes=replayed,
        lost_writes=len(lost_records),
        durable_addresses=checked,
        mismatched_addresses=mismatched,
    )
