"""March-test engine: compiled address/op sequences with fault classification.

The STT-MRAM testing survey (arXiv 2001.05463) frames production test as
*march algorithms* — sequences of march elements, each an address sweep
applying the same read/write operations to every cell — whose read-back
failures are then diagnosed against the fault taxonomy.  Three algorithms
are provided:

* **MATS+** — ``⇕(w0); ⇑(r0,w1); ⇓(r1,w0)`` — the minimal industry
  screen.  Detects stuck-at behaviour and up-transitions but has no read
  after its final ``w0``, so a down-transition fault escapes it.
* **March C-** — ``⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)``
  — the classic coupling-fault march; detects both transition polarities.
* **March 1T1J** (disturb-aware STT-RAM variant) — March C- with the
  single reads of the ``r1`` elements replaced by *hammering* triple
  reads.  STT-RAM's read current is parallelizing, so a disturb-prone
  cell only loses its "1" after repeated reads without an intervening
  write — single-read marches never trip it.

The engine executes a march against an :class:`~repro.array.array.
STTRAMArray`'s cell population (typically after a
:class:`~repro.faults.injector.FaultInjector` pass) using the tester's
*margin-scan read mode*: the read decision is evaluated from the
closed-form per-bit sense margins plus the per-bit sense-amplifier offset,
mirroring :meth:`~repro.circuit.sense_amp.SenseAmplifier.compare_bits`
with no RNG (metastable bits stay unresolved and therefore fail).  This
read mode is fully deterministic and elementwise, which is what lets the
wafer driver run the identical march over 10⁵ dies in one vectorized pass,
bit-exact with a per-die loop.

Because no inter-cell coupling faults are modelled, the address order
inside an element (``⇑``/``⇓``) does not change any cell's outcome; the
engine therefore executes each operation across all cells at once.  The
compiled per-cell sequence a real tester would issue is available from
:meth:`MarchTest.compile`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.margins import (
    SecondRead,
    conventional_rails,
    destructive_second_read,
    first_read_margins,
    nondestructive_second_read,
    reference_margins,
)
from repro.device.variation import CellPopulation
from repro.errors import ConfigurationError
from repro.faults.injector import FaultMap
from repro.faults.models import FaultKind

__all__ = [
    "MarchElement",
    "MarchTest",
    "MarchResult",
    "MATS_PLUS",
    "MARCH_C_MINUS",
    "MARCH_STTRAM",
    "MARCH_TESTS",
    "DISTURB_THRESHOLD",
    "run_march_test",
    "march_seconds",
]

_OPS = ("w0", "w1", "r0", "r1")

#: Reads-since-write count at which a disturb-prone cell loses its "1"
#: (see :class:`~repro.faults.models.ReadDisturbProneFault`).
DISTURB_THRESHOLD = 2

#: Per-operation tester time [s] by sensing scheme: the conventional read
#: is one voltage compare, the destructive self-reference read spans
#: erase + two reads + write-back, the nondestructive read two sampled
#: reads (paper Fig. 9 timing; representative production-tester numbers).
SCHEME_READ_SECONDS = {
    "conventional": 5.0e-9,
    "destructive": 40.0e-9,
    "nondestructive": 15.0e-9,
}
WRITE_SECONDS = 10.0e-9

#: Parametric screen thresholds, as multiples of the nominal resistances:
#: a cell whose *high* resistance sits below half the nominal low state is
#: shorted; one whose *low* resistance sits above 4x the nominal high
#: state is open.
_SHORT_FRACTION = 0.5
_OPEN_FACTOR = 4.0


@dataclasses.dataclass(frozen=True)
class MarchElement:
    """One march element: an address sweep applying ``ops`` to each cell.

    ``ascending`` is the sweep direction (``⇑`` vs ``⇓``).  With no
    coupling faults modelled the direction cannot change any outcome; it
    is kept so compiled sequences match the published algorithms.
    """

    ops: Tuple[str, ...]
    ascending: bool = True

    def __post_init__(self) -> None:
        if not self.ops:
            raise ConfigurationError("march element must apply at least one op")
        for op in self.ops:
            if op not in _OPS:
                raise ConfigurationError(
                    f"unknown march op {op!r}; expected one of {_OPS}"
                )

    def describe(self) -> str:
        """The element in march notation, e.g. ``⇑(r0,w1)``."""
        arrow = "⇑" if self.ascending else "⇓"
        return f"{arrow}({','.join(self.ops)})"


@dataclasses.dataclass(frozen=True)
class MarchTest:
    """A named march algorithm: an ordered tuple of march elements."""

    #: Not a pytest test class despite the name (pytest collection hint).
    __test__ = False

    name: str
    elements: Tuple[MarchElement, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ConfigurationError("march test must have at least one element")

    def describe(self) -> str:
        """The full algorithm in march notation."""
        return "; ".join(element.describe() for element in self.elements)

    @property
    def ops_per_cell(self) -> int:
        """Operations applied to each cell over the whole test."""
        return sum(len(element.ops) for element in self.elements)

    @property
    def reads_per_cell(self) -> int:
        """Read operations applied to each cell."""
        return sum(
            1 for element in self.elements for op in element.ops
            if op.startswith("r")
        )

    @property
    def writes_per_cell(self) -> int:
        """Write operations applied to each cell."""
        return self.ops_per_cell - self.reads_per_cell

    def operation_count(self, cells: int) -> int:
        """Total tester operations for a ``cells``-cell array."""
        return self.ops_per_cell * cells

    def compile(self, cells: int) -> Iterator[Tuple[str, int]]:
        """The compiled ``(op, address)`` sequence a tester would issue."""
        for element in self.elements:
            addresses = range(cells) if element.ascending else range(
                cells - 1, -1, -1
            )
            for address in addresses:
                for op in element.ops:
                    yield op, address


def _element(spec: str, ascending: bool = True) -> MarchElement:
    return MarchElement(tuple(spec.split(",")), ascending)


MATS_PLUS = MarchTest(
    "MATS+",
    (
        _element("w0"),
        _element("r0,w1"),
        _element("r1,w0", ascending=False),
    ),
)

MARCH_C_MINUS = MarchTest(
    "March C-",
    (
        _element("w0"),
        _element("r0,w1"),
        _element("r1,w0"),
        _element("r0,w1", ascending=False),
        _element("r1,w0", ascending=False),
        _element("r0"),
    ),
)

#: Disturb-aware STT-RAM march: March C- with hammering ``r1`` elements.
MARCH_STTRAM = MarchTest(
    "March 1T1J",
    (
        _element("w0"),
        _element("r0,w1"),
        _element("r1,r1,r1,w0"),
        _element("r0,w1", ascending=False),
        _element("r1,r1,r1,w0", ascending=False),
        _element("r0"),
    ),
)

MARCH_TESTS: Dict[str, MarchTest] = {
    "mats+": MATS_PLUS,
    "march-c-": MARCH_C_MINUS,
    "march-1t1j": MARCH_STTRAM,
}


def march_seconds(test: MarchTest, cells: int, scheme: str) -> float:
    """Tester wall-clock of one march run over a ``cells``-cell die [s]."""
    try:
        read_seconds = SCHEME_READ_SECONDS[scheme]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; expected one of "
            f"{sorted(SCHEME_READ_SECONDS)}"
        ) from None
    return cells * (
        test.reads_per_cell * read_seconds
        + test.writes_per_cell * WRITE_SECONDS
    )


# ----------------------------------------------------------------------
# Margin-scan read mode
# ----------------------------------------------------------------------
def scheme_family(scheme) -> str:
    """``conventional`` / ``destructive`` / ``nondestructive`` from a
    scheme instance (classes carry names like "nondestructive
    self-reference"; the leading word identifies the family)."""
    name = str(getattr(scheme, "name", "unknown")).split()[0]
    if name not in SCHEME_READ_SECONDS:
        raise ConfigurationError(
            f"cannot derive the scheme family of {scheme!r}"
        )
    return name


def scheme_margin_arrays(
    scheme, population: CellPopulation
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bit ``(sm0, sm1)`` margins of a scheme *instance* over a
    population — the operating point the march's margin-scan reads use."""
    knob = scheme.v_ref if scheme_family(scheme) == "conventional" else scheme.beta
    return _knob_margins(population, _knob_free_terms(scheme, population), knob)


def _knob_free_terms(scheme, population, sense_factor=1.0):
    """What a scheme's margins need besides its trim knob, at a
    sense-current scale: the conventional bit-line rails, or the
    self-referenced :class:`~repro.core.margins.SecondRead`."""
    family = scheme_family(scheme)
    if family == "conventional":
        return conventional_rails(population, scheme.i_read * sense_factor)
    if family == "destructive":
        return destructive_second_read(
            population, scheme.i_read2 * sense_factor, rtr_shift=scheme.rtr_shift
        )
    return nondestructive_second_read(
        population,
        scheme.i_read2 * sense_factor,
        alpha=scheme.divider.ratio,
        rtr_shift=scheme.rtr_shift,
    )


def _knob_margins(population, terms, knob) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bit ``(sm0, sm1)`` at a trim-knob value (``β`` or ``V_REF``)
    from :func:`_knob_free_terms`."""
    if isinstance(terms, SecondRead):
        return first_read_margins(population, terms, knob)
    return reference_margins(population, terms, knob)


def _observe(
    states: np.ndarray,
    sm0: np.ndarray,
    sm1: np.ndarray,
    offset: np.ndarray,
    resolution: float,
) -> np.ndarray:
    """One margin-scan read of every cell: ``int8`` observed bits with
    ``-1`` for metastable (unresolved) comparisons.

    The comparator sees ``V_BL1 - V_BO + offset``; for a stored "1" that
    differential *is* ``SM1``, for a stored "0" it is ``-SM0`` (the same
    identity :mod:`repro.core.margins` derives), so this reproduces
    :meth:`SenseAmplifier.compare_bits` with ``rng=None`` exactly.
    """
    diff = np.where(states == 1, sm1, -sm0) + offset
    bits = (diff > 0.0).astype(np.int8)
    bits[np.abs(diff) < resolution] = -1
    return bits


@dataclasses.dataclass(frozen=True)
class _MarchBehavior:
    """Per-cell behavioural defect masks the state machine honours."""

    up_blocked: np.ndarray      #: w1 on a "0" cell leaves it at 0
    down_blocked: np.ndarray    #: w0 on a "1" cell leaves it at 1
    disturb_prone: np.ndarray   #: loses a "1" after repeated reads
    disturb_threshold: int = DISTURB_THRESHOLD

    @classmethod
    def from_fault_map(
        cls,
        fault_map: Optional[FaultMap],
        size: int,
        disturb_threshold: int = DISTURB_THRESHOLD,
    ) -> "_MarchBehavior":
        up = np.zeros(size, dtype=bool)
        down = np.zeros(size, dtype=bool)
        disturb = np.zeros(size, dtype=bool)
        if fault_map is not None:
            up[fault_map.of_kind(FaultKind.TRANSITION_UP)] = True
            down[fault_map.of_kind(FaultKind.TRANSITION_DOWN)] = True
            disturb[fault_map.of_kind(FaultKind.READ_DISTURB)] = True
        return cls(up, down, disturb, disturb_threshold)


@dataclasses.dataclass
class _MarchTally:
    """Per-cell read-back bookkeeping accumulated over the march."""

    fails_r0: np.ndarray        #: failed reads expecting "0"
    fails_r1: np.ndarray        #: failed reads expecting "1"
    metastable: np.ndarray      #: reads that came back unresolved
    disturb_signature: np.ndarray  #: passed-then-failed "1" without a write
    states: np.ndarray          #: final stored states

    @property
    def detected(self) -> np.ndarray:
        """Cells flagged by at least one failing read."""
        return (self.fails_r0 + self.fails_r1) > 0


def _execute_march(
    test: MarchTest,
    sm0: np.ndarray,
    sm1: np.ndarray,
    offset: np.ndarray,
    resolution: float,
    behavior: _MarchBehavior,
) -> _MarchTally:
    """Run the march state machine over every cell at once.

    Every operation is elementwise over the cell axis, so executing a
    wafer's dies stacked in one array is bit-exact with executing each
    die separately — the property the wafer driver's vectorized/reference
    equivalence gate rests on.  A margin-scan read depends only on the
    cell and its stored value, so each cell's observation of a stored "0"
    and of a stored "1" is evaluated once and every read selects by state.
    """
    size = sm0.size
    observe0, observe1 = (
        _observe(np.full(size, stored, dtype=np.uint8), sm0, sm1, offset, resolution)
        for stored in (0, 1)
    )
    states = np.zeros(size, dtype=np.uint8)
    since_write = np.zeros(size, dtype=np.int64)
    passed_one = np.zeros(size, dtype=bool)  # a "1" read passed since write
    tally = _MarchTally(
        fails_r0=np.zeros(size, dtype=np.int64),
        fails_r1=np.zeros(size, dtype=np.int64),
        metastable=np.zeros(size, dtype=np.int64),
        disturb_signature=np.zeros(size, dtype=bool),
        states=states,
    )
    for element in test.elements:
        for op in element.ops:
            if op == "w0":
                blocked = behavior.down_blocked & (states == 1)
                states[:] = np.where(blocked, 1, 0)
                since_write[:] = 0
                passed_one[:] = False
            elif op == "w1":
                blocked = behavior.up_blocked & (states == 0)
                states[:] = np.where(blocked, 0, 1)
                since_write[:] = 0
                passed_one[:] = False
            else:
                expected = 1 if op == "r1" else 0
                since_write += 1
                observed = np.where(states == 1, observe1, observe0)
                fail = observed != expected
                tally.metastable += observed == -1
                if expected == 0:
                    tally.fails_r0 += fail
                else:
                    tally.fails_r1 += fail
                    tally.disturb_signature |= (
                        fail & passed_one & (observed == 0)
                    )
                    passed_one |= ~fail
                # The parallelizing read current claims a marginal "1"
                # *after* this read returned its value.
                flip = (
                    behavior.disturb_prone
                    & (states == 1)
                    & (since_write >= behavior.disturb_threshold)
                )
                states[flip] = 0
    return tally


# ----------------------------------------------------------------------
# Classification and results
# ----------------------------------------------------------------------
def _parametric_stuck_masks(
    population: CellPopulation,
) -> Tuple[np.ndarray, np.ndarray]:
    """The DFT parametric screen: ``(shorted, open)`` cell masks from the
    static resistance arrays (what a tester's DC pre-screen measures)."""
    nominal = population.nominal
    shorted = population.r_high0 < _SHORT_FRACTION * nominal.r_low
    opened = population.r_low0 > _OPEN_FACTOR * nominal.r_high
    return shorted, opened


def _classify(
    population: CellPopulation, tally: _MarchTally
) -> Dict[FaultKind, np.ndarray]:
    """Diagnose each detected cell per the survey taxonomy.

    Priority order: the parametric screen settles the hard MTJ defects
    first (a stuck-open cell *behaves* like a transition fault under
    self-referenced sensing — only its resistance gives it away), the
    passed-then-failed signature identifies read disturb, a clean
    single-polarity failure is a transition fault, and everything left
    (metastable or mixed-polarity) is a sense-margin marginality.
    """
    detected = tally.detected
    shorted, opened = _parametric_stuck_masks(population)
    remaining = detected.copy()
    classified: Dict[FaultKind, np.ndarray] = {}

    def claim(kind: FaultKind, mask: np.ndarray) -> None:
        take = remaining & mask
        if take.any():
            classified[kind] = np.nonzero(take)[0]
            remaining[take] = False

    claim(FaultKind.STUCK_SHORT, shorted)
    claim(FaultKind.STUCK_OPEN, opened)
    claim(FaultKind.READ_DISTURB, tally.disturb_signature)
    clean = tally.metastable == 0
    claim(FaultKind.TRANSITION_UP, clean & (tally.fails_r1 > 0) & (tally.fails_r0 == 0))
    claim(FaultKind.TRANSITION_DOWN, clean & (tally.fails_r0 > 0) & (tally.fails_r1 == 0))
    claim(FaultKind.SENSE_MARGIN, remaining)
    return classified


def detection_coverage(
    detected: np.ndarray, fault_map: FaultMap
) -> Dict[str, float]:
    """Detected fraction of an injected ground truth, per kind.

    ``detected`` is a per-cell detection mask aligned with the map's
    cells.  Keys are the injected kinds plus ``overall``; a kind that was
    never injected scores 1.0 (nothing to miss).
    """
    scores: Dict[str, float] = {}
    injected_total = 0
    detected_total = 0
    for kind, indices in fault_map.indices.items():
        if indices.size == 0:
            scores[kind.value] = 1.0
            continue
        hit = int(np.count_nonzero(detected[indices]))
        scores[kind.value] = hit / indices.size
        injected_total += indices.size
        detected_total += hit
    scores["overall"] = (
        detected_total / injected_total if injected_total else 1.0
    )
    return scores


@dataclasses.dataclass(frozen=True)
class MarchResult:
    """Outcome of one march run: detection map plus diagnosis."""

    test: str
    cells: int
    operations: int
    detected: np.ndarray                      #: per-cell detection mask
    classified: Dict[FaultKind, np.ndarray]   #: diagnosis → cell indices
    metastable_cells: int                     #: cells with unresolved reads

    @property
    def detected_count(self) -> int:
        """Number of cells flagged by the march."""
        return int(np.count_nonzero(self.detected))

    def classified_of(self, kind: FaultKind) -> np.ndarray:
        """Cell indices diagnosed as ``kind`` (empty when none were)."""
        return self.classified.get(kind, np.empty(0, dtype=np.intp))

    def coverage(self, fault_map: FaultMap) -> Dict[str, float]:
        """Detected fraction of the injected ground truth, per kind.

        Keys are the injected :class:`FaultKind` values plus ``overall``;
        a kind that was never injected scores 1.0 (nothing to miss).
        Coverage is about *detection* — a misclassified but flagged cell
        still counts, matching how production escapes are scored.
        """
        return detection_coverage(self.detected, fault_map)


def run_march_test(
    target,
    test: MarchTest,
    scheme,
    fault_map: Optional[FaultMap] = None,
    disturb_threshold: int = DISTURB_THRESHOLD,
) -> MarchResult:
    """Execute one march against an array (or bare population).

    ``target`` is an :class:`~repro.array.array.STTRAMArray` or a
    :class:`~repro.device.variation.CellPopulation` — typically one a
    :class:`~repro.faults.injector.FaultInjector` has already struck;
    pass the injector's :class:`FaultMap` so behavioural defects
    (transition, disturb-prone) act during the march and so
    :meth:`MarchResult.coverage` can be scored.  ``scheme`` is a sensing
    scheme instance; its operating point and sense amplifier define the
    margin-scan read mode.  The run is fully deterministic.
    """
    population = getattr(target, "population", target)
    if not isinstance(population, CellPopulation):
        raise ConfigurationError(
            f"expected an STTRAMArray or CellPopulation, got {target!r}"
        )
    sm0, sm1 = scheme_margin_arrays(scheme, population)
    offset = scheme.sense_amp.offset + population.sa_offset
    behavior = _MarchBehavior.from_fault_map(
        fault_map, population.size, disturb_threshold
    )
    tally = _execute_march(
        test, sm0, sm1, offset, scheme.sense_amp.resolution, behavior
    )
    return MarchResult(
        test=test.name,
        cells=population.size,
        operations=test.operation_count(population.size),
        detected=tally.detected,
        classified=_classify(population, tally),
        metastable_cells=int(np.count_nonzero(tally.metastable > 0)),
    )
