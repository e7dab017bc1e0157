"""Span ledger: record layer spans in memory, then attribute wall time.

Recording (used by ``launch.py`` inside a traced child process): a
:class:`Ledger` replaces a public function or method at its module or class
attribute with a wrapper that records one span per call -- name, start, end
and the enclosing span of the same thread -- and then calls the original.
Nothing in the program changes; an untraced process never imports this
module's wrappers.

Analysis (used by ``run.py``, standard library only): a layer's *self* time
is its spans' durations minus the part covered by their child spans, and the
*attributed* time of a run is the union of its top-level spans, so
``wall - union`` is the time no layer accounts for.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: One recorded span: [name, start, end, parent index or None, thread id].
Span = List[object]


class Ledger:
    """In-memory span and counter recorder for one process."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        # CLOCK_MONOTONIC is system-wide on Linux, so spans of the serve and
        # work processes share the harness's time axis.
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, self.clock(), None,
                               stack[-1] if stack else None,
                               threading.get_ident()])
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *name* is a string, a function of the call's arguments, or None to
        record no span.  *before* (called with the arguments) and *after*
        (called with the ledger, the arguments, the result and whatever
        *before* returned) read counts at the layer boundary.  The attribute
        must be defined on *owner* itself, so a moved function fails loudly
        instead of going untraced.
        """
        namespace = vars(owner)
        if attr not in namespace:
            raise AttributeError(f"{owner!r} defines no attribute {attr!r}")
        original = namespace[attr]
        span_name = name if callable(name) else (lambda args: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = self.enter(span_name(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.exit(index)
            if after is not None:
                after(self, args, result, state)
            return result

        traced.__perfbench_ledger__ = self
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def is_traced(function) -> bool:
    """True when *function* is a ledger wrapper."""
    return hasattr(function, "__perfbench_ledger__")


# -- analysis -------------------------------------------------------------------
def layer_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus its direct children's durations;
    children run inside their parent on the same thread, so that is exactly
    the part of the parent's interval they cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None and end is not None:
            child_time[parent] += end - start
    totals: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        if end is None:
            continue
        entry = totals.setdefault(name, {"count": 0, "inclusive": 0.0,
                                         "self": 0.0})
        entry["count"] += 1
        entry["inclusive"] += end - start
        entry["self"] += end - start - child_time[index]
    return totals


def covered_seconds(intervals: Iterable[Tuple[float, float]],
                    start: float, stop: float) -> float:
    """Length of the union of *intervals*, clipped to ``[start, stop]``."""
    total = 0.0
    cursor = start
    for begin, end in sorted(intervals):
        begin, end = max(begin, cursor), min(end, stop)
        if end > begin:
            total += end - begin
            cursor = end
    return total


def top_level_intervals(spans: Sequence[Span]) -> List[Tuple[float, float]]:
    return [(start, end) for _, start, end, parent, _ in spans
            if parent is None and end is not None]


def merge_documents(documents: Sequence[Mapping[str, object]]
                    ) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float],
                               List[Tuple[float, float]], Dict[str, List[float]]]:
    """Combine the ledgers of every traced process of one campaign.

    Returns the layer totals, the summed counters, every top-level interval
    and the individual durations per span name (for latency medians).
    """
    totals: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    intervals: List[Tuple[float, float]] = []
    durations: Dict[str, List[float]] = {}
    for document in documents:
        spans = document["spans"]
        for name, entry in layer_times(spans).items():
            merged = totals.setdefault(name, {"count": 0, "inclusive": 0.0,
                                              "self": 0.0})
            for key, value in entry.items():
                merged[key] += value
        for name, value in document["counters"].items():
            counters[name] = counters.get(name, 0) + value
        intervals.extend(top_level_intervals(spans))
        for name, start, end, _, _ in spans:
            if end is not None:
                durations.setdefault(name, []).append(end - start)
    return totals, counters, intervals, durations


def tail_percentile(values: Sequence[float], beyond: int = 10
                    ) -> Optional[Tuple[float, float]]:
    """The highest percentile that still has *beyond* samples above it.

    Nearest-rank: the sample at rank ``r`` (1-based, ascending) has
    ``n - r`` samples beyond it, so the answer is rank ``n - beyond`` as
    ``(percent, value)``; None when there are too few samples.
    """
    ordered = sorted(values)
    rank = len(ordered) - beyond
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), float(ordered[rank - 1])
