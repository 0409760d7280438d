"""Common interface for sensing schemes."""

from __future__ import annotations

import abc
import dataclasses
import functools
import time
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.cell import Cell1T1J
from repro.core.margins import MarginPair
from repro.obs import runtime as _obs
from repro.obs.trace import READ_ISSUED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.batch import BatchReadResult
    from repro.device.variation import CellPopulation

__all__ = ["ReadResult", "SensingScheme"]


def _instrument_scalar_read(func):
    """Count scalar reads into the observability registry when active.

    Installed on every concrete scheme's ``read`` by
    :meth:`SensingScheme.__init_subclass__`; a no-op boolean check when
    observability is disabled, and never consumes RNG draws.
    """

    @functools.wraps(func)
    def read(self, *args, **kwargs):
        result = func(self, *args, **kwargs)
        if _obs.active():
            registry = _obs.get_registry()
            registry.inc("core.reads.scalar", scheme=self.name)
            if result.metastable:
                registry.inc("core.reads.scalar_metastable", scheme=self.name)
        return result

    read.__obs_instrumented__ = True
    return read


def _instrument_batch_read(func):
    """Meter batched reads: bit counts, metastability, errors, timing."""

    @functools.wraps(func)
    def read_many(self, *args, **kwargs):
        if not _obs.active():
            return func(self, *args, **kwargs)
        start = time.perf_counter()
        batch = func(self, *args, **kwargs)
        elapsed = time.perf_counter() - start
        registry = _obs.get_registry()
        registry.inc("core.reads.batch", scheme=self.name)
        registry.inc("core.reads.bits", batch.size, scheme=self.name)
        metastable = batch.metastable_count
        if metastable:
            registry.inc("core.reads.metastable_bits", metastable, scheme=self.name)
        errors = batch.error_count
        if errors:
            registry.inc("core.reads.error_bits", errors, scheme=self.name)
        registry.observe_profile("core.read_many", elapsed)
        _obs.trace(
            READ_ISSUED,
            scheme=self.name,
            bits=batch.size,
            metastable=metastable,
        )
        return batch

    read_many.__obs_instrumented__ = True
    return read_many


@dataclasses.dataclass(frozen=True)
class ReadResult:
    """Outcome of one read operation.

    Attributes
    ----------
    bit:
        The sensed bit, or ``None`` if the sense amplifier was metastable.
    expected_bit:
        Ground truth before the read started.
    margin:
        The differential voltage presented to the sense amplifier for this
        read, signed so that positive means "correct rail" [V].
    voltages:
        Named internal voltages (``v_bl1``, ``v_bl2``, ``v_bo``, …) [V].
    data_destroyed:
        True if the stored value was lost (destructive read interrupted, or
        a read-disturb flip).
    write_pulses / read_pulses:
        Pulse counts of the operation (latency/energy accounting).  A
        retried read accumulates the pulses of **every** attempt, so the
        counts always reflect what the cell was actually charged with.
    metastable:
        True when the sense-amplifier comparison landed inside the
        resolution window.  With an RNG the latch still resolves (to a
        random rail) and ``bit`` is not ``None``; this flag is what a retry
        controller keys on, since real latches expose late resolution even
        when they eventually fall to a rail.
    attempts:
        How many read attempts produced this result (1 for a plain read;
        >1 when a :class:`~repro.core.retry.RetryPolicy` re-read the bit).
    """

    bit: Optional[int]
    expected_bit: int
    margin: float
    voltages: Dict[str, float]
    data_destroyed: bool = False
    write_pulses: int = 0
    read_pulses: int = 1
    metastable: bool = False
    attempts: int = 1

    @property
    def correct(self) -> bool:
        """True iff the sensed bit matches the stored value."""
        return self.bit is not None and self.bit == self.expected_bit

    @property
    def resolved(self) -> bool:
        """True when the latch produced a deterministic decision (outside
        the resolution window)."""
        return self.bit is not None and not self.metastable

    @property
    def metrics(self) -> Dict[str, float]:
        """Operation-level metrics snapshot of this read.

        The per-operation counterpart of the process-wide
        :mod:`repro.obs` registry: everything the read cost and produced,
        as a flat dict of numbers (deterministic — no wall-clock).  The
        keys mirror the ``core.reads.*`` / ``retry.*`` counter catalog in
        ``docs/OBSERVABILITY.md``.
        """
        return {
            "attempts": float(self.attempts),
            "read_pulses": float(self.read_pulses),
            "write_pulses": float(self.write_pulses),
            "metastable": float(self.metastable),
            "data_destroyed": float(self.data_destroyed),
            "correct": float(self.correct),
            "margin_v": float(self.margin),
        }


class SensingScheme(abc.ABC):
    """A read scheme: turns a cell's electrical state into a bit decision."""

    #: Human-readable name used in reports.
    name: str = "abstract"

    def __init_subclass__(cls, **kwargs):
        """Auto-instrument concrete schemes for :mod:`repro.obs`.

        Any ``read`` / ``read_many`` a subclass defines is wrapped with
        the observability meters; the wrappers cost one boolean check when
        observability is off and never touch the RNG stream, so scalar/
        batch bit-exactness contracts are unaffected.
        """
        super().__init_subclass__(**kwargs)
        read = cls.__dict__.get("read")
        if read is not None and not getattr(read, "__obs_instrumented__", False):
            cls.read = _instrument_scalar_read(read)
        read_many = cls.__dict__.get("read_many")
        if read_many is not None and not getattr(
            read_many, "__obs_instrumented__", False
        ):
            cls.read_many = _instrument_batch_read(read_many)

    @abc.abstractmethod
    def read(
        self, cell: Cell1T1J, rng: Optional[np.random.Generator] = None
    ) -> ReadResult:
        """Perform one full read operation on ``cell``.

        May mutate the cell state (destructive scheme).  ``rng`` drives the
        stochastic parts (write success, metastability resolution).
        """

    @abc.abstractmethod
    def read_many(
        self,
        population: "CellPopulation",
        states: np.ndarray,
        *,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> "BatchReadResult":
        """Batched behavioural read of a whole cell population.

        ``states`` holds one stored bit per population entry and is updated
        in place with whatever the reads leave behind (destructive state
        mutation included).  The RNG contract: draws are consumed exactly
        as the equivalent sequential loop of scalar :meth:`read` calls
        would consume them, so batched and per-bit reads are bit-for-bit
        interchangeable under a fixed seed.

        Each scheme implements this as a single-NumPy-pass kernel; the
        sequential loop it must match lives in the test oracles.
        """

    @abc.abstractmethod
    def sense_margins(self, cell: Cell1T1J) -> MarginPair:
        """Analytic sense margins (SM0, SM1) for this cell under this
        scheme, independent of the currently stored state."""

    def scaled_read_current(self, factor: float) -> "SensingScheme":
        """A copy of this scheme with every read current scaled by
        ``factor`` — the sense-current-escalation knob of
        :class:`~repro.core.retry.RetryPolicy`.

        ``factor == 1`` returns ``self``.  Schemes that cannot escalate
        raise :class:`~repro.errors.ConfigurationError`.
        """
        if factor == 1.0:
            return self
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"{type(self).__name__} does not support read-current escalation"
        )

    def is_readable(self, cell: Cell1T1J, required_margin: float = 8.0e-3) -> bool:
        """Whether both margins clear the sense-amplifier window (the
        paper's Fig. 11 pass/fail criterion, default 8 mV)."""
        margins = self.sense_margins(cell)
        return margins.min_margin > required_margin
