"""Process-global observability switch, profiling hooks, and helpers.

The instrumentation scattered through the sensing stack all funnels
through this module.  The contract that keeps it safe to leave in the hot
paths:

* **Off by default.**  ``active()`` is a single attribute read; every
  instrumented call site checks it first and falls straight through when
  observability is disabled, so an uninstrumented-looking run stays
  bit-exact and within noise of its pre-instrumentation wall-clock.
* **Never touches the simulation.**  No instrumentation consumes RNG
  draws, mutates cell state, or changes control flow — enabling metrics
  cannot change a single sensed bit.
* **One global registry/tracer pair.**  ``configure(enabled=True)``
  installs a *fresh* :class:`~repro.obs.registry.MetricsRegistry` and
  :class:`~repro.obs.trace.TraceBuffer` (unless told to keep the current
  ones), so each campaign's counters reconcile exactly with its own
  result; ``capture()`` is the scoped variant for tests and libraries.

Usage::

    from repro import obs

    obs.configure(enabled=True)
    result = run_fault_campaign(bits=2304, rates=(1e-3,))
    snap = obs.get_registry().snapshot()
    snap["counters"]["campaign.words{outcome=detected}"]  # == detected total
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import ContextManager, Iterator, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceBuffer

__all__ = [
    "configure",
    "active",
    "get_registry",
    "get_tracer",
    "reset",
    "capture",
    "trace",
    "profiled",
    "profile_block",
]


class _ObsState:
    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = TraceBuffer()


_STATE = _ObsState()


def configure(
    enabled: bool = True,
    *,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[TraceBuffer] = None,
    trace_capacity: Optional[int] = None,
    fresh: bool = True,
) -> Tuple[MetricsRegistry, TraceBuffer]:
    """Turn observability on or off for the whole process.

    By default a **fresh** registry and trace buffer are installed when
    enabling (``fresh=True``), so the counters collected afterwards
    reconcile exactly with whatever workload runs next.  Pass
    ``fresh=False`` to keep accumulating into the current stores, or pass
    explicit ``registry``/``tracer`` instances to share them.  Returns the
    (registry, tracer) pair now in effect.
    """
    if registry is not None:
        _STATE.registry = registry
    elif fresh and enabled:
        _STATE.registry = MetricsRegistry()
    if tracer is not None:
        _STATE.tracer = tracer
    elif trace_capacity is not None:
        _STATE.tracer = TraceBuffer(capacity=trace_capacity)
    elif fresh and enabled:
        _STATE.tracer = TraceBuffer()
    _STATE.enabled = bool(enabled)
    return _STATE.registry, _STATE.tracer


def active() -> bool:
    """True when instrumentation should record (the hot-path guard)."""
    return _STATE.enabled


def get_registry() -> MetricsRegistry:
    """The registry currently collecting (even when disabled)."""
    return _STATE.registry


def get_tracer() -> TraceBuffer:
    """The trace buffer currently collecting (even when disabled)."""
    return _STATE.tracer


def reset() -> None:
    """Disable observability and discard all collected data."""
    _STATE.enabled = False
    _STATE.registry = MetricsRegistry()
    _STATE.tracer = TraceBuffer()


@contextlib.contextmanager
def capture(
    trace_capacity: Optional[int] = None,
) -> Iterator[Tuple[MetricsRegistry, TraceBuffer]]:
    """Scoped observability: enable with fresh stores, restore on exit.

    The workhorse for tests and library callers that want one workload's
    metrics without disturbing whatever global state the process had::

        with obs.capture() as (registry, tracer):
            scheme.read_many(population, states, rng=rng)
        assert registry.counter("core.reads.batch", scheme=scheme.name) == 1
    """
    previous = (_STATE.enabled, _STATE.registry, _STATE.tracer)
    pair = configure(True, trace_capacity=trace_capacity)
    try:
        yield pair
    finally:
        _STATE.enabled, _STATE.registry, _STATE.tracer = previous


def trace(kind: str, /, **fields) -> None:
    """Emit one trace event if observability is active (no-op otherwise).

    ``kind`` is positional-only so a field may itself be named ``kind``
    (fault-injection events label the fault kind that way).
    """
    if _STATE.enabled:
        _STATE.tracer.emit(kind, **fields)


def profiled(name: str):
    """Decorator: wall-clock the function into ``profile`` when active.

    Each call records its duration under ``name`` (plus a ``.calls``
    counter) via :meth:`~repro.obs.registry.MetricsRegistry
    .observe_profile`.  When observability is disabled the wrapper is a
    single boolean check and a tail call — cheap enough for batch-level
    hot paths (do not put it on per-bit inner loops).
    """

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not _STATE.enabled:
                return func(*args, **kwargs)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                _STATE.registry.observe_profile(name, time.perf_counter() - start)

        wrapper.__obs_profiled__ = name
        return wrapper

    return decorate


#: The block :func:`profile_block` hands out while observability is off.
_IDLE_BLOCK = contextlib.nullcontext()


def profile_block(name: str) -> ContextManager[None]:
    """Context-manager form of :func:`profiled` for ad-hoc regions.

    While observability is off this is one shared no-op context, so an
    idle site (one per backed read group) builds no generator.
    """
    return _timed_block(name) if _STATE.enabled else _IDLE_BLOCK


@contextlib.contextmanager
def _timed_block(name: str) -> Iterator[None]:
    start = time.perf_counter()
    try:
        yield
    finally:
        _STATE.registry.observe_profile(name, time.perf_counter() - start)
