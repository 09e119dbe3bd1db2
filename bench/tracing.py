"""Spans around calls into the xlembed modules, recorded from outside the package.

A layer is a module of ``xlembed``. ``installed`` wraps every public function
a module defines under each name it is looked up by: the defining module, the
package root and every module that imported it by name. So
``xlembed.trainer.forward`` and ``xlembed.encoder.forward`` both lead to the
same wrapper, and ``encoder.embed`` calling its module-global ``forward`` is
seen as a child span. Spans stay in memory; the caller writes them out when
the run ends. The wrappers change no argument and no result.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Any, Callable, Iterator

import xlembed


class Span:
    """One call: name, start, end, parent span index (-1 for none), op id."""

    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, start: float, parent: int, op: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts: dict[str, float] | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _forward_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    cache = result[1]
    return {"positions": float(cache.ids.size), "real_tokens": float(cache.mask.sum())}


def _checkpoint_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": float(Path(path).stat().st_size)}


# Work counts taken at a layer boundary, after its span has ended.
COUNTERS: dict[str, Callable[[tuple, dict, Any], dict[str, float]]] = {
    "encoder.forward": _forward_counts,
    "trainer.save_checkpoint": _checkpoint_bytes,
}


class Tracer:
    """Collects spans; ``op`` opens the root span of one benchmark operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = ""

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    @contextlib.contextmanager
    def op(self, op_id: str, name: str) -> Iterator[None]:
        self._op = op_id
        index = self._open(f"bench.{name}")
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index].counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced


def _xlembed_modules() -> list[Any]:
    names = [m.name for m in pkgutil.iter_modules(xlembed.__path__) if m.name != "__main__"]
    return [xlembed] + [importlib.import_module(f"xlembed.{name}") for name in names]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every public xlembed function for the duration of the block."""
    wrappers: dict[Callable, Callable] = {}
    replaced: list[tuple[Any, str, Callable]] = []
    for module in _xlembed_modules():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("xlembed."):
                continue
            if obj not in wrappers:
                layer = f"{obj.__module__.removeprefix('xlembed.')}.{obj.__name__}"
                wrappers[obj] = tracer.wrap(layer, obj, COUNTERS.get(layer))
            replaced.append((module, attr, obj))
            setattr(module, attr, wrappers[obj])
    try:
        yield
    finally:
        for module, attr, obj in replaced:
            setattr(module, attr, obj)


def layer_stats(spans: list[Span]) -> dict[str, float]:
    """Per span name: calls, busy_s, self_s and summed counters, for one call
    of each benchmark operation.

    Spans are totalled per op id; op ids ``<kind>-<n>`` of one kind are
    repeats, so each kind contributes the median of its repeats' totals and
    the kinds are summed. Self time is a span's duration minus the time its
    direct children cover.
    """
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds
    per_op: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, covered in zip(spans, child_seconds):
        totals = per_op[span.op]
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.busy_s"] += span.seconds
        totals[f"{span.name}.self_s"] += span.seconds - covered
        for key, value in (span.counts or {}).items():
            totals[f"{span.name}.{key}"] += value
    kinds: dict[str, list[dict[str, float]]] = defaultdict(list)
    for op_id, totals in per_op.items():
        kinds[op_id.rsplit("-", 1)[0]].append(totals)
    keys = set().union(*per_op.values()) if per_op else set()
    return {
        key: sum(median(t.get(key, 0.0) for t in repeats) for repeats in kinds.values())
        for key in keys
    }


def median_call_ms(spans: list[Span], name: str, parent: str) -> float:
    """Median duration in ms of the spans called ``name`` directly under ``parent``."""
    durations = [
        s.seconds * 1e3
        for s in spans
        if s.name == name and s.parent >= 0 and spans[s.parent].name == parent
    ]
    return median(durations) if durations else 0.0


def largest_count(spans: list[Span], name: str, key: str) -> float:
    values = [s.counts[key] for s in spans if s.name == name and s.counts]
    return max(values) if values else 0.0


def to_records(spans: list[Span]) -> list[list]:
    """Spans as [name, start_s, end_s, parent, op_id], times from the first span."""
    origin = spans[0].start if spans else 0.0
    return [[s.name, s.start - origin, s.end - origin, s.parent, s.op] for s in spans]
