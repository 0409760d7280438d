"""Write-ahead journal and the durability accounting of a crash/restart.

The paper's nondestructive scheme protects *stored* data from the read
path; this module protects *acknowledged writes* from the controller
itself.  Every write is journaled at arrival — before it can sit in a
bank's write buffer — and acknowledged when its bank occupancy completes.
If the controller dies mid-trace, volatile state (queues, the event
calendar, in-flight service) is gone, but the journal survives: a
restarted controller rebuilds its backing array from the deterministic
base image and replays the acknowledged journal suffix in order, after
which every acknowledged write is bit-exact with an uninterrupted run.

A ``crash-restart`` failure on a :class:`~repro.service.topology.ServeSpec`
runs exactly that, checked against an uninterrupted run
(:class:`CrashStats`).  Unacknowledged writes and requests caught in
flight are *lost loudly*: each request in flight is a terminal
``failed_requests`` entry (the client never got an acknowledgement, so
nothing silent happened), and the conservation invariant
``requests == completed + shed + timed_out + failed`` still holds over
the two phases combined.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "JournalRecord",
    "WriteAheadJournal",
    "CrashStats",
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


@dataclasses.dataclass(frozen=True)
class CrashStats:
    """Durability accounting of a ``crash-restart`` run, summed over
    channels (:attr:`repro.service.topology.TopologyReport.crash`); the
    request-level counts live in the merged report."""

    pre_crash_completed: int  #: served before the power dropped
    resumed_completed: int    #: served after the restart
    lost_requests: int        #: in flight at the crash — failed loudly
    journaled_writes: int     #: appended across both phases
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

    @classmethod
    def total(cls, parts: Sequence["CrashStats"]) -> "CrashStats":
        """Channel stats of one crash summed into the whole part's."""
        return cls(**{
            field.name: sum(getattr(part, field.name) for part in parts)
            for field in dataclasses.fields(cls)
        })
