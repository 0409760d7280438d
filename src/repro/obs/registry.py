"""Deterministic metrics registry: counters, gauges, histograms.

The registry is the numeric half of :mod:`repro.obs`.  Three metric kinds
are supported, all keyed by a metric *name* plus an optional set of string
labels (rendered canonically as ``name{key=value,...}`` with keys sorted):

* **counters** — monotonically increasing totals (reads issued, retries
  fired, words recovered per tier);
* **gauges** — last-written values (current fault rate under test);
* **histograms** — bucketed distributions with **fixed bucket edges chosen
  at registration**, so two runs that observe the same values produce the
  identical snapshot.  Simulated quantities (backoff nanoseconds, attempt
  counts, modelled read latency/energy) belong here and are deterministic
  under a fixed seed.

Wall-clock profiling timings are *not* deterministic, so they live in a
separate ``profile`` section (see :meth:`MetricsRegistry.observe_profile`)
that :meth:`MetricsRegistry.snapshot` can exclude — ``snapshot
(profile=False)`` is reproducible bit-for-bit under a fixed seed.

The registry has no locks and no background threads: the simulation stack
is single-threaded, and keeping the hot-path cost to one dict lookup plus
an add is what lets the instrumentation stay on by default in campaigns.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "MetricsRegistry",
    "HistogramSnapshot",
    "metric_key",
    "BACKOFF_NS_EDGES",
    "ATTEMPTS_EDGES",
    "LATENCY_NS_EDGES",
    "ENERGY_PJ_EDGES",
    "PROFILE_SECONDS_EDGES",
    "SERVICE_LATENCY_NS_EDGES",
    "QUEUE_DEPTH_EDGES",
    "BATCH_SIZE_EDGES",
]

#: Simulated retry backoff per bit [ns] (exponential policy defaults).
BACKOFF_NS_EDGES: Tuple[float, ...] = (0.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0)
#: Per-bit / per-word sensing attempts.
ATTEMPTS_EDGES: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)
#: Modelled read latency [ns] (single reads land 10–30 ns; retries above).
LATENCY_NS_EDGES: Tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0, 200.0)
#: Modelled read energy [pJ].
ENERGY_PJ_EDGES: Tuple[float, ...] = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
#: Wall-clock profile timings [s] (``profile`` section only).
PROFILE_SECONDS_EDGES: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)
#: End-to-end service latency [ns]: queueing stretches reads far past the
#: sensing-only LATENCY_NS_EDGES, so the grid reaches into microseconds.
SERVICE_LATENCY_NS_EDGES: Tuple[float, ...] = (
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)
#: Per-bank queue depth sampled at each service start.
QUEUE_DEPTH_EDGES: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
)
#: Coalesced-group size handed to the array backend per ladder call.
BATCH_SIZE_EDGES: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def metric_key(name: str, labels: Mapping[str, object] = ()) -> str:
    """Canonical flat key: ``name`` or ``name{k1=v1,k2=v2}`` (keys sorted)."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in _label_key(dict(labels)))
    return f"{name}{{{rendered}}}"


class _Histogram:
    """One labeled histogram series: fixed edges, overflow bucket, stats."""

    __slots__ = ("edges", "counts", "count", "total", "min", "max")

    def __init__(self, edges: Sequence[float]):
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        if list(self.edges) != sorted(set(self.edges)):
            raise ConfigurationError(
                f"histogram edges must be strictly increasing, got {edges}"
            )
        if not self.edges:
            raise ConfigurationError("histogram needs at least one bucket edge")
        # counts[i] holds values in (edges[i-1], edges[i]]; counts[0] holds
        # values <= edges[0]; the final slot is the overflow > edges[-1].
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        slots = np.searchsorted(np.asarray(self.edges), values, side="left")
        for slot, n in zip(*np.unique(slots, return_counts=True)):
            self.counts[int(slot)] += int(n)
        self.count += int(values.size)
        # A running sum in order, as :meth:`observe` adds (``values.sum()``
        # adds pairwise, which may round differently).
        self.total = float(np.add.accumulate(np.append(self.total, values))[-1])
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))

    def snapshot(self) -> "HistogramSnapshot":
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


#: JSON shape of one exported histogram (see :meth:`_Histogram.snapshot`).
HistogramSnapshot = Dict[str, object]


class MetricsRegistry:
    """Process-local metric store with a deterministic JSON export.

    All mutators take the metric name plus keyword labels::

        registry.inc("retry.bits_retried", 3, scheme="nondestructive")
        registry.set_gauge("campaign.rate", 1e-3)
        registry.observe("retry.backoff_ns", 15.0, edges=BACKOFF_NS_EDGES)

    A histogram's bucket edges are fixed by its **first** ``observe`` call
    (per name — all label series of one name share edges); later calls may
    omit ``edges``.  Snapshots render flat sorted ``name{labels}`` keys, so
    the export is byte-identical across runs that recorded the same values.
    """

    def __init__(self):
        self._counters: Dict[str, Dict[_LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[_LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[_LabelKey, _Histogram]] = {}
        self._edges: Dict[str, Tuple[float, ...]] = {}
        self._profiles: Dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    # Mutators
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1, **labels) -> None:
        """Add ``amount`` to a counter (creating it at zero)."""
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge to its latest value."""
        self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        edges: Optional[Sequence[float]] = None,
        **labels,
    ) -> None:
        """Record one value into the named histogram."""
        self._series(name, edges, labels).observe(value)

    def observe_many(
        self,
        name: str,
        values: np.ndarray,
        edges: Optional[Sequence[float]] = None,
        **labels,
    ) -> None:
        """Record a whole array of values in one vectorized pass, exactly
        as :meth:`observe` of each value in order would."""
        self._series(name, edges, labels).observe_many(values)

    def observe_profile(self, name: str, seconds: float) -> None:
        """Record one wall-clock timing [s] under the ``profile`` section.

        Profile entries are intentionally segregated: they are the only
        non-deterministic metrics, and ``snapshot(profile=False)`` drops
        them so seeded runs stay byte-comparable.
        """
        series = self._profiles.get(name)
        if series is None:
            series = self._profiles[name] = _Histogram(PROFILE_SECONDS_EDGES)
        series.observe(seconds)

    def _series(
        self,
        name: str,
        edges: Optional[Sequence[float]],
        labels: Mapping[str, object],
    ) -> _Histogram:
        if name not in self._edges:
            if edges is None:
                raise ConfigurationError(
                    f"histogram {name!r} is not registered; pass edges= on "
                    "its first observation"
                )
            self._edges[name] = tuple(float(e) for e in edges)
        family = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        series = family.get(key)
        if series is None:
            series = family[key] = _Histogram(self._edges[name])
        return series

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> float:
        """Current counter value (0 when never incremented)."""
        return self._counters.get(name, {}).get(_label_key(labels), 0)

    def gauge(self, name: str, **labels) -> Optional[float]:
        """Current gauge value (None when never set)."""
        return self._gauges.get(name, {}).get(_label_key(labels))

    def histogram(self, name: str, **labels) -> Optional[HistogramSnapshot]:
        """Snapshot of one histogram series (None when never observed)."""
        series = self._histograms.get(name, {}).get(_label_key(labels))
        return series.snapshot() if series is not None else None

    def profile(self, name: str) -> Optional[HistogramSnapshot]:
        """Snapshot of one profile timer (None when never recorded)."""
        series = self._profiles.get(name)
        return series.snapshot() if series is not None else None

    def counters_with_prefix(self, prefix: str) -> Dict[str, float]:
        """All counter series whose name starts with ``prefix``, flat-keyed."""
        out: Dict[str, float] = {}
        for name, series in self._counters.items():
            if name.startswith(prefix):
                for key, value in series.items():
                    out[metric_key(name, dict(key))] = value
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self, profile: bool = True) -> Dict[str, Dict[str, object]]:
        """The full registry as plain sorted dicts (JSON-ready).

        With ``profile=False`` the wall-clock section is omitted and the
        result is deterministic under a fixed simulation seed.
        """
        def flatten(store: Dict[str, Dict[_LabelKey, object]], render):
            flat = {}
            for name, series in store.items():
                for key, value in series.items():
                    flat[metric_key(name, dict(key))] = render(value)
            return dict(sorted(flat.items()))

        out: Dict[str, Dict[str, object]] = {
            "counters": flatten(self._counters, lambda v: v),
            "gauges": flatten(self._gauges, lambda v: v),
            "histograms": flatten(self._histograms, lambda h: h.snapshot()),
        }
        if profile:
            out["profile"] = {
                name: series.snapshot()
                for name, series in sorted(self._profiles.items())
            }
        return out

    def to_json(self, profile: bool = True, indent: int = 2) -> str:
        """The snapshot rendered as stable, human-diffable JSON."""
        return json.dumps(self.snapshot(profile=profile), indent=indent, sort_keys=True)

    def write_json(self, path, profile: bool = True) -> None:
        """Write the snapshot to ``path`` as JSON."""
        with open(path, "w") as handle:
            handle.write(self.to_json(profile=profile))
            handle.write("\n")

    def merge_counters(self, names: Iterable[str]) -> float:
        """Sum of every series of the given counter names (all labels)."""
        total = 0.0
        for name in names:
            total += sum(self._counters.get(name, {}).values())
        return total
