"""Fault injector: applies a set of fault models with one owned RNG.

The injector is the boundary between the fault models and the device /
circuit layers.  Its RNG is deliberately separate from the RNG the read
paths consume: injecting faults must not shift the sensing draw stream, so
a faulted run and a healthy run of the same seed stay comparable draw for
draw (and the scalar-vs-batch equivalence contracts keep holding on
faulted populations).

Permanent models (stuck short/open) mutate the population's parameter
arrays in place — both the scalar ``materialize_cell`` path and the
vectorized ``read_many`` kernels then see the identical defect.  Transient
models are exposed as per-operation hooks: :meth:`FaultInjector.
perturb_scheme` (offset drift + bit-line noise folded into the sense
amplifier), :meth:`FaultInjector.disturb_states` (read-disturb flips) and
:meth:`FaultInjector.power_failure_phase` (destructive-read aborts).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.sense_amp import SenseAmplifier
from repro.core.base import SensingScheme
from repro.core.cell import Cell1T1J
from repro.device.variation import CellPopulation
from repro.errors import FaultError
from repro.faults.models import FaultKind
from repro.obs import runtime as _obs
from repro.obs.trace import FAULT_INJECTED, POWER_FAILURE

__all__ = ["FaultMap", "FaultInjector"]


@dataclasses.dataclass(frozen=True)
class FaultMap:
    """Ground truth of one permanent-fault injection pass.

    Maps each :class:`~repro.faults.models.FaultKind` that struck to the
    sorted bit indices it struck — the oracle a campaign scores its
    detected/corrected/escaped counts against.
    """

    size: int
    indices: Dict[FaultKind, np.ndarray]

    def of_kind(self, kind: FaultKind) -> np.ndarray:
        """Indices struck by ``kind`` (empty when it struck none)."""
        return self.indices.get(kind, np.empty(0, dtype=np.intp))

    @property
    def fault_mask(self) -> np.ndarray:
        """Boolean mask over all bits: True where any fault landed."""
        mask = np.zeros(self.size, dtype=bool)
        for idx in self.indices.values():
            mask[idx] = True
        return mask

    @property
    def count(self) -> int:
        """Total number of faulted bits (a bit struck twice counts once)."""
        return int(np.count_nonzero(self.fault_mask))

    def faults_per_word(self, word_bits: int, words: Optional[int] = None) -> np.ndarray:
        """Faulted-bit count of each ``word_bits``-wide word (bit index
        ``i`` belongs to word ``i // word_bits``)."""
        if word_bits < 1:
            raise FaultError(f"word_bits must be >= 1, got {word_bits}")
        if words is None:
            words = self.size // word_bits
        counts = np.bincount(
            np.nonzero(self.fault_mask)[0] // word_bits,
            minlength=max(words, 0),
        )
        return counts[:words]


def _with_sense_offset(scheme: SensingScheme, delta: float) -> SensingScheme:
    """A shallow copy of ``scheme`` whose sense amplifier sees an extra
    ``delta`` volts of input-referred offset."""
    amp = getattr(scheme, "sense_amp", None)
    if not isinstance(amp, SenseAmplifier):
        raise FaultError(
            f"scheme {scheme.name!r} exposes no sense_amp to perturb"
        )
    # Direct shallow clones: what copy.copy builds for a plain object (the
    # amplifier's fields were validated when it was built).
    perturbed = object.__new__(type(scheme))
    perturbed.__dict__.update(scheme.__dict__)
    perturbed.sense_amp = object.__new__(SenseAmplifier)
    perturbed.sense_amp.__dict__.update(amp.__dict__)
    perturbed.sense_amp.offset = amp.offset + delta
    return perturbed


class FaultInjector:
    """Applies a list of fault models with one reproducible RNG.

    Parameters
    ----------
    faults:
        The fault models to apply (any mix of permanent and transient).
    rng:
        The injector's private randomness; defaults to a fresh generator.
        Keep it distinct from the read RNG so injection never shifts the
        sensing draw stream.
    """

    def __init__(
        self,
        faults: Sequence,
        rng: Optional[np.random.Generator] = None,
    ):
        self.faults = tuple(faults)
        self.rng = rng if rng is not None else np.random.default_rng()
        # The aging drift is quasi-static: drawn once per injector.
        self._drift: Optional[float] = None
        # The transient models perturb_scheme folds in on every read.
        self._drift_models = self.of_kind(FaultKind.SENSE_OFFSET_DRIFT)
        self._noise_models = self.of_kind(FaultKind.BITLINE_NOISE)

    # ------------------------------------------------------------------
    # Model views
    # ------------------------------------------------------------------
    def of_kind(self, kind: FaultKind) -> Tuple:
        """All configured models of one kind."""
        return tuple(f for f in self.faults if f.kind is kind)

    @property
    def permanent_faults(self) -> Tuple:
        """The configured hard-defect models."""
        return tuple(f for f in self.faults if getattr(f, "permanent", False))

    # ------------------------------------------------------------------
    # Permanent faults
    # ------------------------------------------------------------------
    def inject_population(self, population: CellPopulation) -> FaultMap:
        """Strike the permanent models into a population (in place) and
        return the ground-truth :class:`FaultMap`."""
        size = population.size
        indices: Dict[FaultKind, np.ndarray] = {}
        for fault in self.permanent_faults:
            mask = fault.select(size, self.rng)
            fault.apply_population(population, mask)
            struck = np.nonzero(mask)[0]
            if _obs.active() and struck.size:
                _obs.get_registry().inc(
                    "faults.injected_cells", int(struck.size), kind=fault.kind.value
                )
                _obs.trace(
                    FAULT_INJECTED, kind=fault.kind.value, cells=int(struck.size)
                )
            if fault.kind in indices:
                struck = np.union1d(indices[fault.kind], struck)
            indices[fault.kind] = struck
        return FaultMap(size=size, indices=indices)

    def inject_array(self, array) -> FaultMap:
        """Strike the permanent models into an array's cell population."""
        return self.inject_population(array.population)

    def inject_cell(self, cell: Cell1T1J) -> Tuple[FaultKind, ...]:
        """Strike the permanent models into one standalone cell (each with
        its own rate draw); returns the kinds that landed."""
        landed = []
        for fault in self.permanent_faults:
            if self.rng.random() < fault.rate:
                fault.apply_cell(cell)
                landed.append(fault.kind)
        return tuple(landed)

    # ------------------------------------------------------------------
    # Transient faults (per-operation hooks)
    # ------------------------------------------------------------------
    def perturb_scheme(self, scheme: SensingScheme) -> SensingScheme:
        """The scheme one read operation actually experiences.

        Folds the quasi-static offset drift (drawn once per injector) and
        one fresh bit-line noise sample (drawn per call) into the scheme's
        sense amplifier.  Returns ``scheme`` itself when neither model is
        configured, so the healthy path costs nothing.
        """
        delta = 0.0
        if self._drift_models:
            if self._drift is None:
                self._drift = sum(m.draw(self.rng) for m in self._drift_models)
            delta += self._drift
        for noise in self._noise_models:
            delta += noise.draw(self.rng)
        if delta == 0.0:
            return scheme
        return _with_sense_offset(scheme, delta)

    def disturb_states(self, states: np.ndarray) -> np.ndarray:
        """Apply read-disturb flips to stored states (in place); returns
        the indices that flipped."""
        flipped = np.zeros(states.size, dtype=bool)
        for fault in self.of_kind(FaultKind.READ_DISTURB):
            flipped |= fault.flip_mask(states.size, self.rng)
        idx = np.nonzero(flipped)[0]
        states[idx] ^= 1
        if _obs.active() and idx.size:
            _obs.get_registry().inc(
                "faults.injected_cells",
                int(idx.size),
                kind=FaultKind.READ_DISTURB.value,
            )
            _obs.trace(
                FAULT_INJECTED,
                kind=FaultKind.READ_DISTURB.value,
                cells=int(idx.size),
            )
        return idx

    def power_failure_phase(self) -> Optional[str]:
        """Phase at which this operation loses power, or ``None``.

        Only meaningful for the destructive self-reference scheme (the
        other schemes never hold the data in a volatile latch); pass the
        result as its ``power_failure_at`` keyword.
        """
        for fault in self.of_kind(FaultKind.POWER_FAILURE):
            phase = fault.draw_phase(self.rng)
            if phase is not None:
                if _obs.active():
                    _obs.get_registry().inc("faults.power_failures")
                    _obs.trace(POWER_FAILURE, phase=phase)
                return phase
        return None
