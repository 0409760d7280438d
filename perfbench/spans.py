"""In-memory span tracer that wraps the program's public entry points.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call -- name, start, end, and the span that caused
it -- plus optional per-call counts (words read, rows decoded, ...).
Module-level functions are patched in *every* ``repro`` module that holds
a reference to them, so a name imported into another module (the place
it is looked up) is wrapped as well as the place it is defined.
:meth:`Tracer.restore` puts every original object back and checks that
it did, so code timed after a traced run executes unwrapped.

A span's self time is its duration minus the time its direct child spans
cover.  Calls nest strictly (the program is single-threaded), so summing
the self time of every span under a root gives the root's duration.
"""

from __future__ import annotations

import collections
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``count(counts, args, kwargs, result)`` adds per-call work counts.
Counter = Callable[[collections.Counter, tuple, dict, object], None]


class Span:
    __slots__ = ("name", "span_id", "parent", "start", "end", "child_s")

    def __init__(self, name: str, span_id: int, parent: int, start: float):
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans and counts while its patches are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, name: str, func: Callable, count: Optional[Counter] = None):
        """``func`` wrapped so each call records a span named ``name``."""
        stack = self._stack
        spans = self.spans
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1].span_id if stack else -1
            span = Span(name, len(spans), parent, time.perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.duration
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` once inside a root span named ``name``."""
        return self.wrap(name, func)(*args, **kwargs)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_function(self, module, attr: str, name: str,
                       count: Optional[Counter] = None) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str,
                     count: Optional[Counter] = None) -> None:
        """Wrap the method ``cls.attr`` (defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count))

    def patch_counter(self, cls, attr: str, count: Counter) -> None:
        """Count calls of ``cls.attr`` without recording spans."""
        original = cls.__dict__[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            count(counts, args, kwargs, result)
            return result

        self._patches.append((cls, attr, original))
        setattr(cls, attr, counted)

    def restore(self) -> bool:
        """Undo every patch; True when each original is back in place."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(
            vars(owner)[attr] is original for owner, attr, original in self._patches
        )
        self._patches.clear()
        return restored

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name [s]."""
        totals: Dict[str, float] = collections.defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return dict(totals)

    def durations(self) -> Dict[str, float]:
        """Summed duration per span name [s] (a name that recurses would
        be counted once per level)."""
        totals: Dict[str, float] = collections.defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.duration
        return dict(totals)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id,
                    "parent": span.parent,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "self_s": span.self_s,
                }) + "\n")
