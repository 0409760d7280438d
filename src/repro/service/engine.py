"""Deterministic discrete-event engine: the test oracle's calendar.

The engine is a classic event-calendar loop: callbacks are scheduled at
absolute simulated times, popped in time order, and executed with the
clock advanced to their timestamp.  No serving path runs on it — each
channel's loop, :meth:`repro.service.controller.MemoryController.run`,
owns its own calendar.  It is the calendar of the engine-callback
controller the tests pin that loop against (``tests/oracles.py``), and
it stays in the library while the benchmark harness (``perfbench/``)
imports and patches it.  Two properties make it a sound reference:

* **Determinism.**  Ties are broken by insertion order (a monotonically
  increasing sequence number), never by callback identity or hash order,
  so the same schedule of events always executes in the same order and a
  same-seed simulation is bit-reproducible.
* **No randomness.**  The engine owns no RNG.  Workload generators and
  sensing backends each carry their own seeded generator, so the event
  calendar can never shift a sensing draw stream (the same isolation
  contract as :class:`repro.faults.FaultInjector`).

Usage::

    engine = DiscreteEventEngine()
    engine.schedule(5e-9, lambda: print(engine.now))
    engine.run()            # prints 5e-09
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["DiscreteEventEngine"]


class DiscreteEventEngine:
    """A minimal, deterministic event calendar.

    Events are ``(time, seq, callback, args)`` tuples on a binary heap;
    ``seq`` is the global insertion counter, so events at equal times run
    in the order they were scheduled (a completion scheduled before an
    arrival at the same instant frees its bank first — exactly the
    sequential semantics of the historical scheduler loop).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = itertools.count()
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time [s]."""
        return self._now

    @property
    def pending(self) -> int:
        """Events still on the calendar."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable, *args) -> None:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ConfigurationError(
                f"cannot schedule an event at {time} before now ({self._now})"
            )
        heapq.heappush(self._heap, (time, next(self._seq), callback, args))

    def schedule(self, delay: float, callback: Callable, *args) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0.0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self._now + delay, callback, *args)

    def schedule_batch(
        self, events: Iterable[Tuple[float, Callable, tuple]]
    ) -> int:
        """Bulk-load ``(time, callback, args)`` events in one heapify pass.

        Execution order is identical to calling :meth:`schedule_at` once
        per event in iteration order: sequence numbers are assigned in that
        order, and the heap is a total order on ``(time, seq)``, so how the
        entries entered the heap cannot change pop order.  What changes is
        the cost — one :func:`heapq.heapify` (O(n)) instead of n pushes —
        which is what lets a controller submit a whole request trace as a
        single vectorized chunk.  Returns the number of events loaded.
        """
        entries = [
            (time, next(self._seq), callback, args)
            for time, callback, args in events
        ]
        for time, _, _, _ in entries:
            if time < self._now:
                raise ConfigurationError(
                    f"cannot schedule an event at {time} before now ({self._now})"
                )
        self._heap.extend(entries)
        heapq.heapify(self._heap)
        return len(entries)

    def drop_pending(self) -> int:
        """Discard every event still on the calendar; returns the count.

        A power loss: whatever was scheduled — queued arrivals,
        in-flight completions, retry timers — vanishes, exactly as
        volatile controller state does when power drops.  The clock is
        left where it stopped.
        """
        dropped = len(self._heap)
        self._heap.clear()
        return dropped

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event; False when the calendar is empty."""
        if not self._heap:
            return False
        time, _, callback, args = heapq.heappop(self._heap)
        self._now = time
        self.events_processed += 1
        callback(*args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Drain the calendar; returns the number of events executed.

        ``until`` stops the clock once the next event lies strictly beyond
        it (that event stays scheduled); ``max_events`` bounds runaway
        feedback loops.
        """
        executed = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            if max_events is not None and executed >= max_events:
                break
            self.step()
            executed += 1
        return executed
