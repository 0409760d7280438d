"""Struct-of-arrays result of a batched behavioural read.

One :class:`BatchReadResult` is what :meth:`repro.core.base.SensingScheme.
read_many` returns instead of a list of per-bit
:class:`~repro.core.base.ReadResult` objects: every per-bit quantity is a
numpy array, so array-scale experiments (the paper's 16kb test chip, BER
sampling, read-stress campaigns) stay a single NumPy pass instead of a
Python loop materializing one cell object per bit.

The RNG contract is strict: a vectorized kernel must consume random draws
**exactly** as the equivalent sequential loop of scalar ``scheme.read``
calls would — same draws, same order, same conditions — so batched and
per-bit reads are bit-for-bit interchangeable under a fixed seed.  The
sequential loop itself is a test oracle (``tests/oracles.py``), not a
runtime path.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.cell import Cell1T1J
from repro.device.mtj import MTJState
from repro.device.transistor import FixedResistanceTransistor
from repro.device.variation import CellPopulation
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.base import ReadResult

__all__ = ["BatchReadResult", "materialize_cell"]


@dataclasses.dataclass(frozen=True)
class BatchReadResult:
    """Outcome of one batched read over a cell population.

    Attributes
    ----------
    scheme:
        Name of the scheme that produced the batch.
    bits:
        Sensed bits as ``int8``; ``-1`` marks a metastable comparison left
        unresolved because no RNG was supplied (the batch analogue of
        ``ReadResult.bit is None``).
    expected_bits:
        Ground-truth stored bits before the read started.
    margins:
        Signed differential voltage presented to the sense amplifier per
        bit, positive meaning "correct rail" [V].
    voltages:
        Named internal rail arrays, mirroring the scalar ``ReadResult``
        voltage dict of the producing scheme (``v_bl1``/``v_bl2``/``v_bo``
        for self-reference schemes, ``v_bl``/``v_ref`` for conventional).
    metastable:
        Mask of comparisons that landed inside the sense-amplifier
        resolution window.  With an RNG those bits still resolve (to a
        random rail); the mask lets callers distinguish "read 0" from
        "failed to resolve deterministically".
    data_destroyed:
        Mask of bits whose stored value was lost by the read itself.
    write_pulses / read_pulses:
        Pulse counts of the operation per bit (uniform across a batch).
    attempts:
        Read attempts behind each bit of this batch (uniform; 1 for a
        plain read).  Per-bit attempt counts of a retried batch live on
        :class:`~repro.core.retry.BatchRetryResult`.
    """

    scheme: str
    bits: np.ndarray
    expected_bits: np.ndarray
    margins: np.ndarray
    voltages: Dict[str, np.ndarray]
    metastable: np.ndarray
    data_destroyed: np.ndarray
    write_pulses: int = 0
    read_pulses: int = 1
    attempts: int = 1

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of bits in the batch."""
        return int(self.bits.size)

    @property
    def metastable_count(self) -> int:
        """Comparisons that fell inside the resolution window."""
        return int(np.count_nonzero(self.metastable))

    @property
    def unresolved_mask(self) -> np.ndarray:
        """Bits left without a decision (only possible without an RNG)."""
        return self.bits < 0

    def bit_values(self) -> np.ndarray:
        """Sensed bits with unresolved comparisons mapped to 0 — the word
        packing convention of :meth:`repro.array.array.STTRAMArray
        .read_word`."""
        return np.maximum(self.bits, 0).astype(np.uint8)

    @property
    def correct_mask(self) -> np.ndarray:
        """Bits whose sensed value matches the stored value."""
        return (self.bits >= 0) & (self.bits == self.expected_bits)

    @property
    def error_count(self) -> int:
        """Reads that returned the wrong (or no) value."""
        return int(np.count_nonzero(~self.correct_mask))

    @property
    def error_fraction(self) -> float:
        """``error_count / size`` — the batch's empirical misread rate."""
        return self.error_count / self.size if self.size else 0.0

    @property
    def destroyed_count(self) -> int:
        """Bits whose stored value the read destroyed."""
        return int(np.count_nonzero(self.data_destroyed))

    # ------------------------------------------------------------------
    # Standardized rail access (scheme-name independent)
    # ------------------------------------------------------------------
    @property
    def v_bl1(self) -> np.ndarray:
        """First-read rail: ``v_bl1`` (self-reference) or ``v_bl``."""
        if "v_bl1" in self.voltages:
            return self.voltages["v_bl1"]
        return self.voltages["v_bl"]

    @property
    def v_bl2(self) -> Optional[np.ndarray]:
        """Second-read bit-line rail, or ``None`` for single-read schemes
        (and destructive reads aborted before the second read)."""
        return self.voltages.get("v_bl2")

    @property
    def v_bo(self) -> Optional[np.ndarray]:
        """Compare rail: divider output ``v_bo`` (nondestructive) or the
        shared reference ``v_ref`` (conventional); ``None`` when the
        compare rail is ``v_bl2`` itself (destructive) or never formed."""
        if "v_bo" in self.voltages:
            return self.voltages["v_bo"]
        return self.voltages.get("v_ref")

    # ------------------------------------------------------------------
    # Scalar bridge
    # ------------------------------------------------------------------
    def result(self, index: int) -> "ReadResult":
        """The scalar :class:`~repro.core.base.ReadResult` view of one bit
        — exactly what ``scheme.read`` on that cell would have returned."""
        from repro.core.base import ReadResult

        if not 0 <= index < self.size:
            raise IndexError(f"bit {index} out of range [0, {self.size})")
        bit = int(self.bits[index])
        return ReadResult(
            bit=None if bit < 0 else bit,
            expected_bit=int(self.expected_bits[index]),
            margin=float(self.margins[index]),
            voltages={
                name: float(values[index]) for name, values in self.voltages.items()
            },
            data_destroyed=bool(self.data_destroyed[index]),
            write_pulses=self.write_pulses,
            read_pulses=self.read_pulses,
            metastable=bool(self.metastable[index]),
            attempts=self.attempts,
        )


def materialize_cell(
    population: CellPopulation, index: int, bit: Optional[int] = None
) -> Cell1T1J:
    """Materialize one population bit as a standalone :class:`Cell1T1J`
    (the per-bit object the scalar read path operates on)."""
    cell = Cell1T1J(
        population.device(index),
        FixedResistanceTransistor(float(population.r_tr[index])),
    )
    if bit is not None:
        cell.state = MTJState.from_bit(int(bit))
    return cell


def check_batch_inputs(population: CellPopulation, states: np.ndarray) -> np.ndarray:
    """Validate a ``read_many`` call and return ``states`` as an ndarray.

    ``states`` must be a mutable integer ndarray of one bit per population
    entry; destructive kernels write the post-read states back into it.
    """
    if not isinstance(states, np.ndarray):
        raise ConfigurationError(
            "states must be a numpy array (it is mutated in place by "
            f"destructive reads), got {type(states).__name__}"
        )
    if states.shape != (population.size,):
        raise ConfigurationError(
            f"states shape {states.shape} does not match population size "
            f"{population.size}"
        )
    return states
