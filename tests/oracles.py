"""Test oracles: the sequential reference paths the fast paths must match.

Each oracle is the simple, auditable loop that defines a fast path's
behaviour and RNG stream.  They live here, not in the library, because
nothing at runtime selects them: the tests (and the speedup benchmarks)
compare each fast path against its oracle bit for bit.

* :func:`batch_from_scalar_reads` pins ``SensingScheme.read_many``;
* :func:`retry_batch_from_scalar_reads` pins
  :func:`repro.core.retry.read_many_with_retry`;
* :func:`scalar_read_batch` pins ``ArrayBackend.read_batch``
  (:func:`use_scalar_reads` swaps it into a backend, so a controller
  serves word by word without knowing it);
* :func:`memo_free_probe_words` pins ``EccArray.probe_words`` and its
  clean-read memo: a loop of ``EccArray.read_word`` up to the first
  ``DETECTED`` word for a scheme that writes no cell, the rewound group
  read for any other
  (:func:`use_memo_free_probe` swaps it into a memory, so a recovery
  ladder probes through it without knowing it);
* :func:`rechunked` with its default ``chunk_dies=1`` pins
  ``run_wafer``'s chunked passes: the per-die oracle is the library's
  own flow, one die per chunk;
* :func:`expression_conventional_margins`,
  :func:`expression_destructive_margins` and
  :func:`expression_nondestructive_margins` pin the population margin
  equations of :mod:`repro.core.margins` and the roll-off fractions
  (:func:`expression_fraction`): the equations written as plain numpy
  expressions, one temporary per operator, in the order the library must
  evaluate them in place;
* :func:`reference_characterize_dies` pins
  :func:`repro.prodtest.characterize_dies`: one full expression-form
  margin evaluation per search step, with every knob value repeated per
  cell;
* :func:`reference_execute_march` pins the march engine's state machine:
  one margin-scan ``_observe`` per read operation;
* :class:`MatrixSECDED` pins :class:`repro.ecc.hamming.HammingSECDED`'s
  packed-integer kernel: the textbook check-matrix encoder and decoder;
* :func:`record_loop_report` pins
  :func:`repro.service.report.build_report`'s columnar summary: one
  pass over :class:`CompletedRequest` records sorted by request id
  (:func:`log_of_records` turns the same records into the
  :class:`~repro.service.report.CompletionLog` the summary reads);
* :func:`loop_split` pins :meth:`repro.service.topology.ShardRouter.split`:
  one append per request onto its channel's shard, with its local bank;
* :func:`engine_drain` pins :func:`repro.service.controller.drain_channel`
  and :meth:`~repro.service.controller.MemoryController.run`: an
  :class:`EngineController`, whose every arrival, completion, cache hit,
  hedge and re-queue is a callback on the :class:`DiscreteEventEngine`
  calendar, drained by :meth:`DiscreteEventEngine.run`.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import SensingScheme
from repro.core.batch import BatchReadResult, check_batch_inputs, materialize_cell
from repro.core.retry import (
    BatchRetryResult,
    RetryPolicy,
    _meter_retry_result,
    _meter_retry_round,
    _RetryAccumulator,
)
from repro.device.rolloff import PowerLawRollOff, RationalRollOff
from repro.device.variation import CellPopulation
from repro.ecc.array import EccArray, EccReadResult
from repro.ecc.hamming import DecodeResult, DecodeStatus
from repro.faults.drift import _apply_point
from repro.errors import ConfigurationError, RetryExhaustedError
from repro.obs import runtime as _obs
from repro.obs.registry import QUEUE_DEPTH_EDGES, SERVICE_LATENCY_NS_EDGES
from repro.obs.runtime import profiled
from repro.prodtest.characterize import (
    CharacterizeConfig,
    CharacterizeResult,
    _code_values,
    knob_bounds,
)
from repro.service.cache import ReadCache
from repro.service.controller import (
    FCFS,
    ArrayBackend,
    ControllerConfig,
    _backend_counts,
    _check_policy,
    _occupy,
    _read_limit,
)
from repro.service.engine import DiscreteEventEngine
from repro.service.report import (
    ChannelRun,
    CompletionLog,
    LatencyStats,
    QueueStats,
    ServiceReport,
    _LogBuilder,
)
from repro.service.workload import READ, Request
from repro.prodtest.march import (
    _MarchBehavior,
    _MarchTally,
    _observe,
    _parametric_stuck_masks,
    scheme_family,
)

__all__ = [
    "batch_from_scalar_reads",
    "retry_batch_from_scalar_reads",
    "scalar_read_batch",
    "use_scalar_reads",
    "memo_free_probe_words",
    "use_memo_free_probe",
    "rechunked",
    "expression_fraction",
    "expression_conventional_margins",
    "expression_destructive_margins",
    "expression_nondestructive_margins",
    "reference_characterize_dies",
    "reference_execute_march",
    "MatrixSECDED",
    "CompletedRequest",
    "log_of_records",
    "record_loop_report",
    "loop_split",
    "EngineController",
    "engine_drain",
]


@profiled("core.batch_from_scalar_reads")
def batch_from_scalar_reads(
    scheme: SensingScheme,
    population: CellPopulation,
    states: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> BatchReadResult:
    """Reference batch read: the sequential per-bit loop over scalar
    ``scheme.read`` calls, packed into a :class:`BatchReadResult`.

    This is the behaviour (and RNG stream) every vectorized ``read_many``
    kernel must reproduce bit-for-bit, and the per-bit baseline of the
    batch-read speedup benchmark.  ``states`` is updated in place with
    whatever each read leaves behind.
    """
    check_batch_inputs(population, states)
    results = []
    for index in range(population.size):
        cell = materialize_cell(population, index, int(states[index]))
        results.append(scheme.read(cell, rng, **kwargs))
        states[index] = cell.stored_bit
    round_ = _ScalarRound(results)
    return BatchReadResult(
        scheme=scheme.name,
        bits=round_.bits,
        expected_bits=np.array([r.expected_bit for r in results], dtype=np.uint8),
        margins=round_.margins,
        voltages=round_.voltages,
        # Scalar reads carry the resolution-window flag even when an RNG
        # resolved the bit, so the oracle's mask matches the kernels'.
        metastable=round_.metastable,
        data_destroyed=np.array([r.data_destroyed for r in results], dtype=bool),
        write_pulses=round_.write_pulses,
        read_pulses=round_.read_pulses,
    )


def _kwargs_for_bit(kwargs: Dict, index: int, size: int) -> Dict:
    """Per-bit array kwargs reduced to one bit's scalar (the scalar path)."""
    out = {}
    for name, value in kwargs.items():
        if isinstance(value, np.ndarray) and value.shape == (size,):
            out[name] = float(value[index])
        else:
            out[name] = value
    return out


def retry_batch_from_scalar_reads(
    scheme: SensingScheme,
    population: CellPopulation,
    states: np.ndarray,
    policy: RetryPolicy,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> BatchRetryResult:
    """Reference retried batch read: the round-major loop of scalar
    ``scheme.read`` calls that defines the retry controller's RNG stream.

    Round 1 reads every bit in ascending order; round ``k`` re-reads the
    still-active bits in ascending order with the policy's escalated
    current.  :func:`repro.core.retry.read_many_with_retry` must
    reproduce this bit-for-bit — it is the retry analogue of
    :func:`batch_from_scalar_reads`.
    """
    check_batch_inputs(population, states)
    n = population.size
    original = states.astype(np.uint8, copy=True)
    acc = _RetryAccumulator(scheme.name, policy, n, original)

    idx = np.arange(n)
    attempt = 0
    while idx.size:
        attempt += 1
        if attempt > 1:
            _meter_retry_round(scheme.name, policy, attempt, bits=int(idx.size))
        escalated = scheme.scaled_read_current(policy.escalation_factor(attempt))
        results = []
        for index in idx:
            cell = materialize_cell(population, int(index), int(states[index]))
            results.append(
                escalated.read(cell, rng, **_kwargs_for_bit(kwargs, int(index), n))
            )
            states[index] = cell.stored_bit
        sub = _ScalarRound(results)
        acc.merge(idx, attempt, sub)
        if attempt >= policy.max_attempts:
            break
        still = sub.metastable | (sub.bits < 0)
        if not still.any():
            break
        idx = idx[still]
    return _meter_retry_result(acc.finalize(states))


class _ScalarRound:
    """One round's scalar results, shaped like a sub-batch."""

    def __init__(self, results):
        self.bits = np.array(
            [-1 if r.bit is None else r.bit for r in results], dtype=np.int8
        )
        self.margins = np.array([r.margin for r in results])
        names = list(results[0].voltages) if results else []
        self.voltages = {
            name: np.array([r.voltages.get(name, np.nan) for r in results])
            for name in names
        }
        self.metastable = np.array([r.metastable for r in results], dtype=bool)
        self.read_pulses = results[0].read_pulses if results else 1
        self.write_pulses = results[0].write_pulses if results else 0


def scalar_read_batch(backend, addresses: Sequence[int]) -> List[Tuple[int, bool]]:
    """Reference backed read: ``(attempts, failed)`` per word, one word at
    a time through the scalar recovery ladder.

    Each word perturbs the scheme through the backend's fault injector on
    its own (``read_batch`` perturbs once per group), then reads through
    :meth:`~repro.faults.recovery.RecoveryController.read_word`.  A
    detected loss (:class:`~repro.errors.RetryExhaustedError`) counts as
    failed; a silently wrong value counts as corrupted.
    """
    outcomes = []
    for address in addresses:
        physical = backend._physical(address)
        scheme = backend.scheme
        if backend.injector is not None:
            scheme = backend.injector.perturb_scheme(scheme)
        scheme = backend._drifted(scheme)
        backend.reads += 1
        try:
            recovered = backend.memory.read_word(physical, scheme, backend.rng)
        except RetryExhaustedError as error:
            backend.failed_words += 1
            attempts = max(1, error.attempts)
            backend._meter_outcome(attempts, failed=True)
            outcomes.append((attempts, True))
            continue
        if recovered.attempts > 1:
            backend.retried_words += 1
        expected = backend._truth.get(physical)
        if expected is not None and recovered.value != expected:
            backend.corrupted_words += 1
        backend._meter_outcome(recovered.attempts, failed=False)
        outcomes.append((recovered.attempts, False))
    return outcomes


def use_scalar_reads(backend):
    """Make ``backend`` serve every group through :func:`scalar_read_batch`.

    The instance attribute shadows ``ArrayBackend.read_batch``, so the
    controller still calls ``read_batch`` and stays unaware of the swap.
    Returns the backend.
    """
    backend.read_batch = lambda addresses: scalar_read_batch(backend, addresses)
    return backend


#: The meters a committed probe word must emit as its ``read_word`` does.
_WORD_COUNTERS = ("retry.", "ecc.words")


def _read_word_loop(memory, addresses, scheme, rng, retry_policy, **kwargs):
    """The probe's commit through a scheme that writes no cell, word by
    word: ``memory.read_word`` on each address in turn, up to the first
    that decodes ``DETECTED``, whose draws and decode are undone.

    Returns ``(results, bad, rng state, statistics, counters)`` — the
    ``retry.*`` and ``ecc.words`` counters of the committed reads — and
    leaves ``rng`` and the memory's statistics as they were.  The reads'
    own meters go to a registry of their own.
    """
    def rng_state():
        return None if rng is None else rng.bit_generator.state

    def restore(state, statistics):
        if rng is not None:
            rng.bit_generator.state = state
        memory._stats = statistics

    start = (rng_state(), dict(memory._stats))
    results, bad, counters = [], (), collections.Counter()
    for index, address in enumerate(addresses):
        before = (rng_state(), dict(memory._stats))
        with _obs.capture() as (registry, _):
            result = memory.read_word(
                address, scheme, rng, retry_policy=retry_policy, **kwargs
            )
        if result.status is DecodeStatus.DETECTED:
            restore(*before)
            bad = (index,)
            break
        results.append(result)
        for prefix in _WORD_COUNTERS:
            counters.update(registry.counters_with_prefix(prefix))
    end = (rng_state(), dict(memory._stats))
    restore(*start)
    return results, bad, end[0], end[1], +counters


def _word_counters() -> collections.Counter:
    registry = _obs.get_registry()
    counters = collections.Counter()
    for prefix in _WORD_COUNTERS:
        counters.update(registry.counters_with_prefix(prefix))
    return counters


def memo_free_probe_words(
    memory,
    addresses: Sequence[int],
    scheme: SensingScheme,
    rng: Optional[np.random.Generator],
    retry_policy: RetryPolicy,
    **kwargs,
):
    """Reference probe of an ``EccArray``, with no clean-read memo.

    Through a scheme declaring ``latch_inputs`` the reference is a loop of
    :meth:`~repro.ecc.array.EccArray.read_word` with ``retry_policy``
    over ``addresses`` in turn, committing every word up to the first
    that decodes ``DETECTED`` and naming that one in ``bad``; its draws
    and decode are undone.  The returned results, the RNG and the
    decode statistics are the loop's.  The probe itself also runs, with
    every memo entry forgotten and on the same RNG state, for the meters
    of its shared sensing passes (``array.*``, ``core.reads.*``), which a
    per-word loop does not emit; its ``retry.*`` and ``ecc.words``
    counters must equal the loop's, and its RNG draws, results and
    statistics are then replaced by the loop's.

    Through any other scheme it is the rewound probe spelled out:
    snapshot the RNG and the touched cells, read the concatenated codeword
    spans in one batch through
    :meth:`~repro.array.array.STTRAMArray.read_bits`, decode, and commit
    unless a word would escalate (a metastable or unresolved bit, or a
    ``DETECTED`` decode); on escalation rewind both snapshots and return
    ``([], bad)``.  Returns what ``memory.probe_words`` must return, with
    the same RNG draws, cell states, decode statistics and obs events.
    """
    if scheme.latch_inputs is not None:
        results, bad, rng_state, statistics, counters = _read_word_loop(
            memory, addresses, scheme, rng, retry_policy, **kwargs
        )
        memory._memo = [None] * memory.size_words
        before = _word_counters()
        EccArray.probe_words(memory, addresses, scheme, rng, retry_policy, **kwargs)
        if _obs.active():
            assert _word_counters() - before == counters
        if rng is not None:
            rng.bit_generator.state = rng_state
        memory._stats = statistics
        return results, bad
    addresses = list(addresses)
    count = len(addresses)
    if len(set(addresses)) != count:
        raise ConfigurationError("addresses must be distinct within one batched read")
    if not addresses:
        return [], ()
    if any(isinstance(value, np.ndarray) for value in kwargs.values()):
        raise ConfigurationError("per-bit keyword arrays cannot be fused")
    width = memory.codec.codeword_bits
    bases = [memory._check_address(address) for address in addresses]
    spans = np.add.outer(bases, np.arange(width)).ravel()
    rng_state = rng.bit_generator.state if rng is not None else None
    states_before = memory.array._states[spans]
    batch = memory.array.read_bits(spans, scheme, rng, **kwargs)
    rows = (batch.metastable | (batch.bits < 0)).reshape(count, width).any(axis=1)
    bad = tuple(np.nonzero(rows)[0].tolist())
    if not bad:
        decode = memory.codec.decode_words(batch.bit_values().reshape(count, width))
        bad = tuple(
            index for index, status in enumerate(decode.statuses)
            if status is DecodeStatus.DETECTED
        )
    if bad:
        memory.array._states[spans] = states_before
        if rng_state is not None:
            rng.bit_generator.state = rng_state
        return [], bad
    results = []
    for index, address in enumerate(addresses):
        status = decode.statuses[index]
        position = int(decode.corrected_positions[index])
        memory._commit_decode(address, status, position)
        results.append(EccReadResult(
            value=decode.values[index],
            status=status,
            corrected_position=position,
            attempts=1,
            read_pulses=batch.read_pulses * width,
        ))
    return results, ()


def use_memo_free_probe(memory):
    """Make ``memory`` probe every group through :func:`memo_free_probe_words`.

    The instance attribute shadows ``EccArray.probe_words``, so a
    :class:`~repro.faults.recovery.RecoveryController` over ``memory``
    probes through the oracle.  Returns the memory.
    """
    memory.probe_words = (
        lambda addresses, scheme, rng, retry_policy, **kwargs:
        memo_free_probe_words(
            memory, addresses, scheme, rng, retry_policy, **kwargs
        )
    )
    return memory


def rechunked(wafer, chunk_dies: int = 1):
    """The same built wafer, processed ``chunk_dies`` dies per pass.

    ``run_wafer(rechunked(wafer))`` is the per-die oracle every chunked
    run must equal bit for bit.
    """
    return dataclasses.replace(
        wafer, config=dataclasses.replace(wafer.config, chunk_dies=chunk_dies)
    )


def expression_fraction(model, ratio):
    """A roll-off fraction ``f(x)`` over an array of ratios as the plain
    expression.  The interpolated shapes (tabulated, bias-driven) are
    answered by the model itself."""
    x = np.abs(np.asarray(ratio, dtype=float))
    if isinstance(model, PowerLawRollOff):
        return np.power(x, model.exponent)
    if isinstance(model, RationalRollOff):
        xp = np.power(x, model.exponent)
        return (1.0 + model.knee) * xp / (model.knee + xp)
    return model.fraction(ratio)


def _expression_resistances(population, current):
    """``(R_L, R_H) = R_X0 - dR_X_max f_X(|I| / I_max)`` per bit."""
    ratio = np.abs(np.asarray(current, dtype=float)) / population.nominal.i_read_max
    r_low = population.r_low0 - population.dr_low_max * expression_fraction(
        population.rolloff_low, ratio
    )
    r_high = population.r_high0 - population.dr_high_max * expression_fraction(
        population.rolloff_high, ratio
    )
    return r_low, r_high


def expression_conventional_margins(population, i_read, v_ref):
    """``SM0 = V_REF - I_R (R_L + R_T)``, ``SM1 = I_R (R_H + R_T) - V_REF``
    with each bit's reference error added to ``V_REF``."""
    r_low, r_high = _expression_resistances(population, i_read)
    v_low = i_read * (r_low + population.r_tr)
    v_high = i_read * (r_high + population.r_tr)
    v_ref_bit = v_ref + population.vref_error
    return v_ref_bit - v_low, v_high - v_ref_bit


def _expression_first_read(population, i_read2, beta, v_low, v_high,
                           rtr_shift, with_beta_variation):
    """``SM1 = I_R1 (R_H1 + R_T1) - V_high``, ``SM0 = V_low - I_R1 (R_L1 +
    R_T1)`` at ``I_R1 = I_R2 / (β (1 + β_dev))``."""
    r_t1 = population.r_tr + rtr_shift
    if with_beta_variation:
        i_read1 = i_read2 / (beta * (1.0 + population.beta_deviation))
    else:
        i_read1 = np.broadcast_to(
            np.asarray(i_read2 / beta, dtype=float), np.shape(r_t1)
        ).copy()
    r_low1, r_high1 = _expression_resistances(population, i_read1)
    sm1 = i_read1 * (r_high1 + r_t1) - v_high
    sm0 = v_low - i_read1 * (r_low1 + r_t1)
    return sm0, sm1


def expression_destructive_margins(population, i_read2, beta, rtr_shift=0.0,
                                   with_beta_variation=True):
    """Destructive self-reference: both values against the erased "0"
    re-read, ``V_reference = I_R2 (R_L2 + R_T2)``."""
    r_low2, _ = _expression_resistances(population, i_read2)
    v_reference = i_read2 * (r_low2 + population.r_tr)
    return _expression_first_read(
        population, i_read2, beta, v_reference, v_reference, rtr_shift,
        with_beta_variation,
    )


def expression_nondestructive_margins(population, i_read2, beta, alpha=0.5,
                                      rtr_shift=0.0, with_beta_variation=True,
                                      with_alpha_variation=True):
    """Nondestructive self-reference (paper Eqs. 8–9): the first read
    against ``V_BO = α (1 + α_dev) I_R2 (R_X2 + R_T2)``."""
    alpha_eff = (
        alpha * (1.0 + population.alpha_deviation) if with_alpha_variation else alpha
    )
    r_low2, r_high2 = _expression_resistances(population, i_read2)
    v_bo_low = alpha_eff * i_read2 * (r_low2 + population.r_tr)
    v_bo_high = alpha_eff * i_read2 * (r_high2 + population.r_tr)
    return _expression_first_read(
        population, i_read2, beta, v_bo_low, v_bo_high, rtr_shift,
        with_beta_variation,
    )


def _oracle_margins_at(scheme, population, knob_per_cell, sense_factor):
    """Per-cell margins at a per-cell knob value and sense-current scale:
    one full expression-form evaluation."""
    family = scheme_family(scheme)
    if family == "conventional":
        return expression_conventional_margins(
            population, scheme.i_read * sense_factor, knob_per_cell
        )
    if family == "destructive":
        return expression_destructive_margins(
            population,
            scheme.i_read2 * sense_factor,
            knob_per_cell,
            rtr_shift=scheme.rtr_shift,
        )
    return expression_nondestructive_margins(
        population,
        scheme.i_read2 * sense_factor,
        knob_per_cell,
        alpha=scheme.divider.ratio,
        rtr_shift=scheme.rtr_shift,
    )


def _oracle_die_stats(scheme, population, alive, codes, bounds, config, cells,
                      sense_factor):
    """Per-die ``(worst_sm0, worst_sm1, kth_binding)`` at per-die codes."""
    _, low, high = bounds
    values = _code_values(codes, low, high, config)
    knob_per_cell = np.repeat(values, cells)
    sm0, sm1 = _oracle_margins_at(scheme, population, knob_per_cell, sense_factor)
    sm0 = np.where(alive, sm0, np.inf).reshape(-1, cells)
    sm1 = np.where(alive, sm1, np.inf).reshape(-1, cells)
    binding = np.minimum(sm0, sm1)
    k = min(config.fail_budget, cells - 1)
    kth = np.partition(binding, k, axis=1)[:, k]
    return sm0.min(axis=1), sm1.min(axis=1), kth


def reference_characterize_dies(
    population: CellPopulation,
    cells_per_die: int,
    scheme,
    config: Optional[CharacterizeConfig] = None,
) -> CharacterizeResult:
    """Reference per-die characterization: every bisection step, neighbour
    candidate and sense factor re-evaluates the full population margins
    from scratch.  Trim, verdict and retry budget use the largest sense
    factor.  ``characterize_dies`` must reproduce it bit for bit."""
    config = config if config is not None else CharacterizeConfig()
    cells = cells_per_die
    dies = population.size // cells
    bounds = knob_bounds(scheme)
    shorted, opened = _parametric_stuck_masks(population)
    alive = ~(shorted | opened)
    descending = sorted(set(config.sense_factors), reverse=True)
    top = descending[0]

    def stats(codes, factor=top):
        return _oracle_die_stats(
            scheme, population, alive, codes, bounds, config, cells, factor
        )

    lo = np.zeros(dies, dtype=np.int64)
    hi = np.full(dies, config.codes - 1, dtype=np.int64)
    for _ in range(config.code_bits):
        mid = (lo + hi) // 2
        worst0, worst1, _ = stats(mid)
        raise_knob = worst0 < worst1
        lo = np.where(raise_knob, np.minimum(mid + 1, config.codes - 1), lo)
        hi = np.where(raise_knob, hi, np.maximum(mid - 1, 0))

    candidates = np.stack(
        [np.clip(lo + step, 0, config.codes - 1) for step in (-1, 0, 1)]
    )
    kth_margins = np.stack([stats(candidate)[2] for candidate in candidates])
    best = np.argmax(kth_margins, axis=0)
    codes = candidates[best, np.arange(dies)]
    binding = kth_margins[best, np.arange(dies)]
    values = _code_values(codes, bounds[1], bounds[2], config)

    factors = np.full(dies, top, dtype=float)
    for factor in descending[1:]:
        accept = stats(codes, factor)[2] > config.required_margin
        factors = np.where(accept, factor, factors)

    dead_per_die = np.count_nonzero(~alive.reshape(-1, cells), axis=1)
    passes = (binding > config.required_margin) & (
        dead_per_die <= config.fail_budget
    )

    sm0, sm1 = _oracle_margins_at(
        scheme, population, np.repeat(values, cells), top
    )
    cell_binding = np.where(alive, np.minimum(sm0, sm1), np.inf).reshape(-1, cells)
    marginal = np.count_nonzero(
        (cell_binding > config.required_margin)
        & (cell_binding <= config.guardband * config.required_margin),
        axis=1,
    )
    retry_budgets = np.minimum(
        np.ceil(marginal / 8.0).astype(np.int64), config.max_retry_budget
    )
    return CharacterizeResult(
        knob=bounds[0],
        codes=codes,
        values=values,
        binding_margins=binding,
        sense_factors=factors,
        retry_budgets=retry_budgets,
        passes=passes,
        marginal_cells=marginal.astype(np.int64),
        trimmed_sm0=sm0.reshape(-1, cells),
        trimmed_sm1=sm1.reshape(-1, cells),
    )


def reference_execute_march(
    test,
    sm0: np.ndarray,
    sm1: np.ndarray,
    offset: np.ndarray,
    resolution: float,
    behavior: _MarchBehavior,
) -> _MarchTally:
    """Reference march state machine: every read operation re-runs the
    margin-scan :func:`~repro.prodtest.march._observe` over the cells'
    current states.  ``_execute_march`` must reproduce it bit for bit."""
    size = sm0.size
    states = np.zeros(size, dtype=np.uint8)
    since_write = np.zeros(size, dtype=np.int64)
    passed_one = np.zeros(size, dtype=bool)
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
                observed = _observe(states, sm0, sm1, offset, resolution)
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
                flip = (
                    behavior.disturb_prone
                    & (states == 1)
                    & (since_write >= behavior.disturb_threshold)
                )
                states[flip] = 0
    return tally


class MatrixSECDED:
    """Reference SECDED codec: syndromes as check-matrix products.

    The same extended-Hamming layout as
    :class:`~repro.ecc.hamming.HammingSECDED` (parity bits at the
    power-of-two positions of the 1-indexed inner codeword, one overall
    parity bit last), evaluated the textbook way over 0/1 inputs.  The
    packed kernel must match it in status, corrected position, value and
    data bits.
    """

    def __init__(self, data_bits: int):
        self.data_bits = int(data_bits)
        parity_bits = 0
        while (1 << parity_bits) < self.data_bits + parity_bits + 1:
            parity_bits += 1
        self.parity_bits = parity_bits
        self.codeword_bits = self.data_bits + parity_bits + 1
        inner_length = self.data_bits + parity_bits
        parity_positions = [1 << j for j in range(parity_bits)]
        data_positions = [
            position
            for position in range(1, inner_length + 1)
            if position not in parity_positions
        ]
        # Row j of the check matrix covers the (1-indexed) inner positions
        # whose index has bit j set.
        positions = np.arange(1, inner_length + 1)
        self.check_matrix = np.array(
            [(positions & p) != 0 for p in parity_positions], dtype=np.uint8
        )
        self._syndrome_weights = np.array(parity_positions, dtype=np.int64)
        self._data_indices = np.array(data_positions, dtype=np.intp) - 1
        self._parity_indices = np.array(parity_positions, dtype=np.intp) - 1
        data_array = np.array(data_positions, dtype=np.int64)
        self._encode_matrix = np.array(
            [(data_array & p) != 0 for p in parity_positions], dtype=np.int64
        )

    def encode(self, data: Sequence[int]) -> np.ndarray:
        """Encode a length-k 0/1 sequence into a codeword."""
        bits = np.asarray(data, dtype=np.uint8)
        inner = np.zeros(self.data_bits + self.parity_bits, dtype=np.uint8)
        inner[self._data_indices] = bits
        inner[self._parity_indices] = (
            self._encode_matrix @ bits.astype(np.int64)
        ) & 1
        overall = np.bitwise_xor.reduce(inner)
        return np.concatenate([inner, [overall]]).astype(np.uint8)

    def decode(self, codeword: Sequence[int]) -> DecodeResult:
        """Decode one 0/1 codeword, correcting one flip or flagging two."""
        received = np.asarray(codeword, dtype=np.uint8)
        inner_length = self.data_bits + self.parity_bits
        inner = received[:-1]
        checks = (self.check_matrix @ inner.astype(np.int64)) & 1
        syndrome = int(checks @ self._syndrome_weights)
        overall_ok = np.bitwise_xor.reduce(received) == 0

        corrected = inner.copy()
        if syndrome == 0 and overall_ok:
            status, position = DecodeStatus.CLEAN, -1
        elif syndrome != 0 and not overall_ok and syndrome <= inner_length:
            corrected[syndrome - 1] ^= 1
            status, position = DecodeStatus.CORRECTED, syndrome - 1
        elif syndrome == 0 and not overall_ok:
            status, position = DecodeStatus.CORRECTED, self.codeword_bits - 1
        else:
            status, position = DecodeStatus.DETECTED, -1
        data = corrected[self._data_indices]
        return DecodeResult(
            data=data,
            status=status,
            corrected_position=position,
            value=sum(int(bit) << i for i, bit in enumerate(data)),
        )

    def decode_words(self, codewords) -> "MatrixBatch":
        """Decode an ``(n, codeword_bits)`` 0/1 matrix in one NumPy pass."""
        received = np.asarray(codewords, dtype=np.uint8)
        inner_length = self.data_bits + self.parity_bits
        inner = received[:, :-1]
        checks = (inner.astype(np.int64) @ self.check_matrix.T) & 1
        syndromes = checks @ self._syndrome_weights
        overall_ok = (received.sum(axis=1) & 1) == 0

        corrected = inner.copy()
        single = (syndromes != 0) & ~overall_ok & (syndromes <= inner_length)
        flip_rows = np.nonzero(single)[0]
        corrected[flip_rows, syndromes[flip_rows] - 1] ^= 1

        positions = np.full(received.shape[0], -1, dtype=np.int64)
        positions[single] = syndromes[single] - 1
        overall_flip = (syndromes == 0) & ~overall_ok
        positions[overall_flip] = self.codeword_bits - 1

        by_code = (DecodeStatus.CLEAN, DecodeStatus.CORRECTED, DecodeStatus.DETECTED)
        codes = np.where(single | overall_flip, 1, np.where(syndromes == 0, 0, 2))
        data = corrected[:, self._data_indices]
        return MatrixBatch(
            values=tuple(
                sum(int(bit) << i for i, bit in enumerate(row)) for row in data
            ),
            statuses=tuple(by_code[code] for code in codes.tolist()),
            corrected_positions=positions,
            data=data,
        )


@dataclasses.dataclass(frozen=True)
class MatrixBatch:
    """:meth:`MatrixSECDED.decode_words`' result, one entry per row."""

    values: Tuple[int, ...]
    statuses: Tuple[DecodeStatus, ...]
    corrected_positions: np.ndarray
    data: np.ndarray


@dataclasses.dataclass(frozen=True)
class CompletedRequest:
    """One terminal request with its service accounting, as a record."""

    request: Request
    bank: int
    start: float        #: service start [s] (cache hits: arrival time)
    finish: float       #: completion [s]
    cache_hit: bool = False
    batched_with: int = 1  #: size of the coalesced group it rode in
    attempts: int = 1      #: worst sensing attempts (backed mode)
    failed: bool = False   #: recovery ladder exhausted (detected loss)
    shed: bool = False     #: rejected by admission control (never served)
    timed_out: bool = False  #: deadline expired before service (dropped)
    unreachable: bool = False  #: terminal failure without a served response
    retries: int = 0       #: controller-level re-queues this request used


def log_of_records(records: Sequence[CompletedRequest]) -> CompletionLog:
    """The :class:`CompletionLog` of ``records``, one row each, in order."""
    requests = [record.request for record in records]
    return CompletionLog(
        request_id=[request.request_id for request in requests],
        arrival=[request.time for request in requests],
        is_read=[request.op == READ for request in requests],
        priority=[request.priority for request in requests],
        **{
            name: [getattr(record, name) for record in records]
            for name in (
                "bank", "start", "finish", "batched_with", "attempts",
                "retries", "cache_hit", "failed", "shed", "timed_out",
                "unreachable",
            )
        },
    )


def record_loop_report(run, records, scheme="", offered_rate=0.0):
    """``build_report(run, scheme, offered_rate)`` with the terminal
    ``CompletedRequest`` ``records`` in place of ``run.completions``.

    One pass over the records in stable ``request_id`` order feeds every
    count and both latency lists; everything else comes from ``run``.
    """
    read_latencies: list = []
    write_latencies: list = []
    batches: set = set()
    completed = cache_hits = detected_loss = 0
    shed = shed_low_priority = timed_out = failed_requests = 0
    duration = 0.0
    for c in sorted(records, key=lambda record: record.request.request_id):
        request = c.request
        if c.shed or c.timed_out or c.unreachable:
            if c.shed:
                shed += 1
                if request.priority > 0:
                    shed_low_priority += 1
            if c.timed_out:
                timed_out += 1
            if c.unreachable:
                failed_requests += 1
            continue
        if not completed or c.finish > duration:
            duration = c.finish
        completed += 1
        if request.op == READ:
            read_latencies.append(c.finish - request.time)
        else:
            write_latencies.append(c.finish - request.time)
        if c.failed:
            detected_loss += 1
        if c.cache_hit:
            cache_hits += 1
        if c.batched_with > 1:
            batches.add((c.bank, c.start))
    reads = len(read_latencies)
    return ServiceReport(
        scheme=scheme,
        policy=run.policy,
        banks=run.banks,
        offered_rate=offered_rate,
        read_time=run.read_time,
        requests=run.submitted,
        completed=completed,
        reads=reads,
        writes=len(write_latencies),
        cache_hits=cache_hits,
        cache_hit_rate=cache_hits / reads if reads else 0.0,
        batches=len(batches),
        retried_words=run.retried_words,
        failed_words=run.failed_words,
        corrupted_words=run.corrupted_words,
        duration=duration,
        throughput=completed / duration if duration > 0.0 else 0.0,
        read_latency=LatencyStats.from_samples(read_latencies),
        write_latency=LatencyStats.from_samples(write_latencies),
        queue_depth=QueueStats.from_samples(run.depth_samples),
        bank_served=run.bank_served,
        shed=shed,
        shed_low_priority=shed_low_priority,
        scrubbed_words=run.scrubbed_words,
        adaptive_actions=run.adaptive_actions,
        adaptive_alarms=run.adaptive_alarms,
        timed_out=timed_out,
        failed_requests=failed_requests,
        detected_loss=detected_loss,
        hedged=run.hedged,
        hedge_wins=run.hedge_wins,
        request_retries=run.request_retries,
    )


def loop_split(router, requests):
    """``router.split(requests)``: each request appended to the shard of
    the channel its address decomposes to, in stream order, with its
    :meth:`~repro.service.topology.ShardRouter.local_bank`."""
    shards = [[] for _ in range(router.topology.channels)]
    banks = [[] for _ in range(router.topology.channels)]
    for request in requests:
        channel = router.channel_of(request.address)
        shards[channel].append(request)
        banks[channel].append(router.local_bank(request.address))
    return [tuple(shard) for shard in shards], banks


# ---------------------------------------------------------------------------
# The engine-callback channel controller
# ---------------------------------------------------------------------------
class _Bank:
    """One bank: arrival-ordered pending requests plus busy state.

    FCFS keeps the single interleaved ``queue`` (relative read/write
    order is its semantics); the read-priority and batch policies only
    ever consume "next read in arrival order" or "next write in arrival
    order", so they store the two ops in separate deques.  Every policy
    pops from the left in O(1), however deep a saturated queue grows.
    """

    __slots__ = ("queue", "reads", "writes", "busy", "served")

    def __init__(self) -> None:
        self.queue: Deque[Request] = collections.deque()
        self.reads: Deque[Request] = collections.deque()
        self.writes: Deque[Request] = collections.deque()
        self.busy = False
        self.served = 0

    def depth(self) -> int:
        """Pending requests across whichever storage the policy uses."""
        return len(self.queue) + len(self.reads) + len(self.writes)


class EngineController:
    """Schedules requests over banks on a :class:`DiscreteEventEngine`.

    Every event carries its request's index into the submitted stream,
    and each request queues on the bank its submission gave it.
    """

    def __init__(
        self,
        engine: DiscreteEventEngine,
        config: ControllerConfig,
        policy: str = FCFS,
        cache: Optional[ReadCache] = None,
        backend: Optional[ArrayBackend] = None,
    ):
        _check_policy(policy)
        self.engine = engine
        self.config = config
        self.policy = policy
        self.cache = cache
        self.backend = backend
        #: The submitted stream and each request's bank, by stream index.
        self._requests: List[Request] = []
        self._homes: List[int] = []
        #: Every terminal request, in recording order.
        self.log = _LogBuilder(self._requests)
        #: Optional admission gate (see
        #: :class:`repro.service.adaptive.AdmissionGate`): consulted at
        #: every arrival; a rejected request is recorded as a ``shed``
        #: completion at its arrival time and never touches a bank.
        self.admission = None
        #: Optional :class:`repro.service.journal.WriteAheadJournal`: every
        #: write is journaled at arrival (ahead of the write buffer) and
        #: acknowledged at completion, so a mid-trace crash can replay the
        #: acknowledged suffix bit-exactly (see ``docs/RESILIENCE.md``).
        self.journal = None
        #: Service-time multiplier (1.0 = healthy).  The failure-scenario
        #: layer (:mod:`repro.service.failures`) inflates this mid-trace to
        #: model a stalled controller; every occupancy is stretched by it.
        self.stall_factor = 1.0
        self._banks = [_Bank() for _ in range(config.banks)]
        self._offline_banks: set = set()
        self._locked_banks: set = set()
        #: Terminal request ids + ids currently occupying a bank — the
        #: dedupe state hedged reads need; maintained only while hedging.
        self._finished: set = set()
        self._in_service: set = set()
        self._retry_counts: Dict[int, int] = {}
        self._deadlines = False
        self._hedging = config.hedging
        self.hedged = 0
        self.hedge_wins = 0
        self.retries_performed = 0
        self.depth_samples: List[int] = []
        self.submitted = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_all(
        self, requests: Sequence[Request], banks: Optional[Sequence[int]] = None
    ) -> None:
        """Schedule a whole stream as one bulk calendar load.

        :meth:`DiscreteEventEngine.schedule_batch` assigns sequence numbers
        in iteration order, so the execution order — ties included — is
        identical to submitting one request at a time.  ``banks`` holds
        each request's bank (flat ``address % banks`` when None).
        """
        if banks is None:
            banks = [request.address % self.config.banks for request in requests]
        first = len(self._requests)
        self._requests.extend(requests)
        self._homes.extend(banks)
        self.submitted += len(requests)
        if not self._deadlines and any(r.deadline > 0.0 for r in requests):
            self._deadlines = True
        self.engine.schedule_batch(
            (request.time, self._arrive, (index,))
            for index, request in enumerate(requests, first)
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _enqueue(self, bank: _Bank, index: int) -> None:
        if self.policy == FCFS:
            bank.queue.append(index)
        elif self._requests[index].is_read:
            bank.reads.append(index)
        else:
            bank.writes.append(index)

    def _arrive(self, index: int) -> None:
        request = self._requests[index]
        bank_index = self._homes[index]
        if _obs.active():
            _obs.get_registry().inc("service.requests", op=request.op)
        if self.admission is not None:
            depth = self._banks[bank_index].depth()
            if not self.admission.admit(request, depth, self.engine.now):
                self._record(index, bank_index, self.engine.now, shed=True)
                return
        if request.is_read and self.cache is not None:
            if self.cache.lookup(request.address):
                self.engine.schedule(
                    self.config.cache_hit_time,
                    self._complete_cache_hit,
                    index,
                    bank_index,
                    self.engine.now,
                )
                return
        elif not request.is_read and self.cache is not None:
            self.cache.invalidate(request.address)
        if self.journal is not None and not request.is_read:
            # Write-ahead: journaled before the write buffer may hold it.
            self.journal.append(
                request.request_id,
                request.address,
                ArrayBackend.payload(request.request_id),
                self.engine.now,
            )
        bank = self._banks[bank_index]
        self._enqueue(bank, index)
        if self._hedging and request.is_read:
            self.engine.schedule(
                self.config.hedge_after, self._maybe_hedge, index, bank_index
            )
        if not bank.busy:
            self._start_service(bank_index)

    def _complete_cache_hit(self, index: int, bank: int, start: float) -> None:
        self._record(index, bank, start, cache_hit=True)

    def _start_service(self, bank_index: int) -> None:
        bank = self._banks[bank_index]
        if bank.busy or bank_index in self._offline_banks:
            return
        taken = self._select(bank)
        if self._deadlines or self._hedging:
            # Screening drops expired and already-won requests at the
            # head of the queue; keep selecting until a group survives.
            while taken:
                taken = self._screen(taken, bank_index)
                if taken:
                    break
                taken = self._select(bank)
        if not taken:
            return
        bank.busy = True
        self.depth_samples.append(bank.depth())
        if _obs.active():
            _obs.get_registry().observe(
                "service.queue_depth", bank.depth(), edges=QUEUE_DEPTH_EDGES
            )
        if self._hedging:
            self._in_service.update(
                self._requests[index].request_id for index in taken
            )
        duration, attempts, failed = self._serve(taken, bank_index)
        self.engine.schedule(
            duration, self._complete, bank_index, taken, self.engine.now,
            attempts, failed,
        )

    def _screen(self, taken: List[int], bank_index: int) -> List[int]:
        """Drop finished hedge twins and expired requests from a group.

        A request whose deadline passed while it queued is recorded as a
        ``timed_out`` drop — the deadline bounds *service start*, so an
        expired request never occupies a bank.  Only active when deadlines
        or hedging are in play; otherwise selection is untouched.
        """
        kept: List[int] = []
        now = self.engine.now
        for index in taken:
            request = self._requests[index]
            rid = request.request_id
            if self._hedging and (rid in self._finished or rid in self._in_service):
                continue  # the twin already won (or is being served)
            if 0.0 < request.deadline < now:
                self._record(index, bank_index, now, timed_out=True)
                continue
            kept.append(index)
        return kept

    def _maybe_hedge(self, index: int, home_bank: int) -> None:
        """Clone a still-waiting read onto the sibling bank.

        Fires ``hedge_after`` seconds after arrival; a no-op if the read
        already finished or is being served.  The clone joins the sibling
        bank's read queue and whichever copy is served first wins — the
        straggler is screened out when it reaches the head of its queue.
        """
        rid = self._requests[index].request_id
        if rid in self._finished or rid in self._in_service:
            return
        sibling = (home_bank + 1) % self.config.banks
        if sibling == home_bank or sibling in self._offline_banks:
            return
        bank = self._banks[sibling]
        self._enqueue(bank, index)
        self.hedged += 1
        if _obs.active():
            _obs.get_registry().inc("service.hedged")
        if not bank.busy:
            self._start_service(sibling)

    def _requeue(self, index: int) -> None:
        """Re-enqueue a read whose ladder failed (controller-level retry)."""
        bank_index = self._homes[index]
        bank = self._banks[bank_index]
        self._enqueue(bank, index)
        if not bank.busy:
            self._start_service(bank_index)

    def _complete(
        self,
        bank_index: int,
        taken: List[int],
        start: float,
        attempts: int,
        failed: Tuple[int, ...],
    ) -> None:
        bank = self._banks[bank_index]
        group = len(taken)
        budget = self.config.request_retries
        for index in taken:
            request = self._requests[index]
            rid = request.request_id
            if self._hedging:
                self._in_service.discard(rid)
            word_failed = rid in failed
            if word_failed and budget > 0 and request.is_read:
                used = self._retry_counts.get(rid, 0)
                if used < budget:
                    # The ladder lost this word: back off and re-queue
                    # rather than answering with a detected loss.
                    self._retry_counts[rid] = used + 1
                    self.retries_performed += 1
                    if _obs.active():
                        _obs.get_registry().inc("service.retries")
                    self.engine.schedule(
                        self.config.retry_backoff * (2 ** used),
                        self._requeue,
                        index,
                    )
                    continue
                self._record(
                    index, bank_index, start, batched_with=group,
                    attempts=attempts, failed=True, unreachable=True,
                    retries=used,
                )
                continue
            if request.is_read and self.cache is not None:
                self.cache.fill(request.address)
            self._record(
                index, bank_index, start, batched_with=group,
                attempts=attempts, failed=word_failed,
                retries=self._retry_counts.get(rid, 0),
            )
        bank.served += group
        bank.busy = False
        if bank.depth():
            self._start_service(bank_index)

    # ------------------------------------------------------------------
    # Structural-failure hooks (see :mod:`repro.service.failures`)
    # ------------------------------------------------------------------
    def _failure_event(self, kind: str) -> None:
        if _obs.active():
            _obs.get_registry().inc("service.failures.events", kind=kind)

    def _check_bank(self, bank_index: int) -> None:
        if not 0 <= bank_index < self.config.banks:
            raise ConfigurationError(
                f"bank {bank_index} out of range for {self.config.banks} banks"
            )

    def set_stall_factor(self, factor: float) -> None:
        """Inflate (or restore) every occupancy by ``factor`` from now on."""
        if not factor > 0.0:
            raise ConfigurationError(f"stall factor must be > 0, got {factor}")
        self.stall_factor = float(factor)
        self._failure_event(
            "controller-stall" if factor != 1.0 else "stall-cleared"
        )

    def set_bank_offline(self, bank_index: int) -> None:
        """Take a bank offline: its in-flight group finishes, nothing new
        starts, arrivals keep queueing until :meth:`set_bank_online`."""
        self._check_bank(bank_index)
        self._offline_banks.add(bank_index)
        self._failure_event("bank-offline")

    def set_bank_online(self, bank_index: int) -> None:
        """Heal an offline bank and kick its queue back into service."""
        self._check_bank(bank_index)
        self._offline_banks.discard(bank_index)
        self._failure_event("bank-online")
        if self._banks[bank_index].depth():
            self._start_service(bank_index)

    def lock_bank(self, bank_index: int) -> None:
        """Latch a bank's sense amps: reads occupy the bank but return
        detected losses (no sensing happens); writes are unaffected."""
        self._check_bank(bank_index)
        self._locked_banks.add(bank_index)
        self._failure_event("sense-lockup")

    def unlock_bank(self, bank_index: int) -> None:
        """Release a latched bank's sense amps."""
        self._check_bank(bank_index)
        self._locked_banks.discard(bank_index)
        self._failure_event("sense-unlocked")

    # ------------------------------------------------------------------
    # Policy and service model
    # ------------------------------------------------------------------
    def _select(self, bank: _Bank) -> List[int]:
        """Pop the next group to serve according to the policy."""
        limit = _read_limit(self.config, self.policy, self.backend is not None)
        requests = self._requests
        if self.policy == FCFS:
            # Strict arrival order: only the *leading* run of consecutive
            # reads may coalesce (no read overtakes a queued write).
            queue = bank.queue
            if not queue:
                return []
            taken = [queue.popleft()]
            while (
                requests[taken[0]].is_read
                and len(taken) < limit
                and queue
                and requests[queue[0]].is_read
            ):
                taken.append(queue.popleft())
            return taken
        # Read-priority/batch: reads overtake writes, each op served in
        # its own arrival order from its own deque.
        reads, writes = bank.reads, bank.writes
        if not reads and not writes:
            return []
        if not reads or len(writes) > self.config.write_buffer_depth:
            if writes:
                return [writes.popleft()]
        return [reads.popleft() for _ in range(min(limit, len(reads)))]

    def _serve(
        self, taken: List[int], bank_index: int = 0
    ) -> Tuple[float, int, Tuple[int, ...]]:
        """Bank occupancy of one group (:func:`_occupy`).

        Returns ``(duration, worst_attempts, failed_request_ids)``.  A
        nonzero stall factor stretches the final duration; a latched
        bank (:meth:`lock_bank`) turns every read of the group into a
        detected loss without touching the backend or its RNG.
        """
        group = [self._requests[index] for index in taken]
        if group[0].is_read and bank_index in self._locked_banks:
            # Sense amps latched: the occupancy happens, the sensing
            # doesn't — every word comes back as a flagged loss.
            duration = self.config.batch_duration(len(taken)) * self.stall_factor
            return duration, 1, tuple(r.request_id for r in group)
        duration, attempts, failed = _occupy(self.config, self.backend, group)
        if _obs.active() and len(taken) > 1:
            registry = _obs.get_registry()
            registry.inc("service.batches")
            registry.inc("service.batched_reads", len(taken))
        return duration * self.stall_factor, attempts, failed

    def _record(self, index: int, bank: int, start: float, **columns) -> None:
        """Record request ``index`` as terminal now, with its service
        ``columns`` (:meth:`_LogBuilder.add`), and do what a terminal
        request triggers: hedge accounting, the journal's acknowledgement
        and the obs series."""
        now = self.engine.now
        self.log.add(index, bank, start, now, **columns)
        request = self._requests[index]
        shed = columns.get("shed", False)
        timed_out = columns.get("timed_out", False)
        unreachable = columns.get("unreachable", False)
        if self._hedging:
            self._finished.add(request.request_id)
            if (
                request.is_read
                and not (shed or timed_out or columns.get("cache_hit", False))
                and bank != self._homes[index]
            ):
                # The terminal row came from the sibling bank: the hedge won.
                self.hedge_wins += 1
        if (
            self.journal is not None
            and not request.is_read
            and not (shed or timed_out or unreachable)
        ):
            self.journal.acknowledge(request.request_id, now)
        if _obs.active():
            registry = _obs.get_registry()
            if shed:
                registry.inc(
                    "service.admission.shed",
                    priority="low" if request.priority > 0 else "normal",
                )
            elif timed_out:
                registry.inc("service.timed_out", op=request.op)
            elif unreachable:
                registry.inc("service.failed_requests", op=request.op)
            else:
                _meter_served(registry, request, now,
                              columns.get("cache_hit", False),
                              columns.get("failed", False))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        """Requests finished so far."""
        return len(self.log.rows)

    @property
    def completions(self) -> CompletionLog:
        """Every terminal request so far, one row each in recording order."""
        return self.log.build()

    def bank_served_counts(self) -> Tuple[int, ...]:
        """Requests served per bank."""
        return tuple(bank.served for bank in self._banks)


def _meter_served(registry, request: Request, finish: float,
                  cache_hit: bool, failed: bool) -> None:
    """The obs series of one served completion, as the engine feeds them
    (:func:`_meter_run` feeds the same series from a drain's columns)."""
    registry.inc("service.completions", op=request.op)
    registry.observe(
        "service.latency_ns", (finish - request.time) * 1e9,
        edges=SERVICE_LATENCY_NS_EDGES, op=request.op,
    )
    if cache_hit:
        registry.inc("service.cache.hits")
    if failed:
        registry.inc("service.failed_words")


def engine_drain(
    requests: Sequence[Request],
    config: ControllerConfig,
    *,
    policy: str = FCFS,
    cache: Optional[ReadCache] = None,
    backend: Optional[ArrayBackend] = None,
    banks: Optional[Sequence[int]] = None,
    failures=None,
    slo=None,
    adaptive_config=None,
    line_rate: float = 0.0,
    drift=None,
    until: Optional[float] = None,
    journal=None,
) -> ChannelRun:
    """``drain_channel`` on an :class:`EngineController`: the hooks in
    the library's order (failure switches, the adaptive loop's first
    tick, drift points), then the stream, every event on one calendar
    drained by the engine."""
    engine = DiscreteEventEngine()
    controller = EngineController(
        engine, config, policy=policy, cache=cache, backend=backend
    )
    controller.journal = journal
    for event in failures.events if failures is not None else ():
        stall, bank = controller.set_stall_factor, event.target
        (onset, on), (heal, off) = {
            "controller-stall": ((stall, event.stall_factor), (stall, 1.0)),
            "bank-offline": ((controller.set_bank_offline, bank),
                             (controller.set_bank_online, bank)),
            "sense-lockup": ((controller.lock_bank, bank),
                             (controller.unlock_bank, bank)),
        }[event.kind]
        engine.schedule_at(event.start, onset, on)
        engine.schedule_at(event.end, heal, off)
    if failures is not None and _obs.active():
        _obs.get_registry().inc(
            "service.failures.scenarios", scenario=failures.name
        )
    adaptive = None
    if slo is not None:
        from repro.service.adaptive import AdaptiveController

        adaptive = AdaptiveController(
            controller, slo, adaptive_config, line_rate=line_rate
        )

        def fire(timer):
            for time, armed in timer(engine.now):
                engine.schedule_at(time, fire, armed)

        engine.schedule(adaptive.config.control_interval, fire, adaptive.tick)
    for point in drift.points if drift is not None else ():
        engine.schedule_at(point.time, _apply_point, backend, point,
                           backend.strike_rng, drift.name)
    controller.submit_all(requests, banks)
    engine.run(until=until)
    return ChannelRun(
        policy=policy,
        banks=config.banks,
        read_time=config.read_time,
        submitted=controller.submitted,
        completions=controller.completions,
        depth_samples=tuple(controller.depth_samples),
        bank_served=controller.bank_served_counts(),
        adaptive_actions=adaptive.actions if adaptive else 0,
        adaptive_alarms=adaptive.alarms if adaptive else 0,
        hedged=controller.hedged,
        hedge_wins=controller.hedge_wins,
        request_retries=controller.retries_performed,
        **_backend_counts(backend),
    )
