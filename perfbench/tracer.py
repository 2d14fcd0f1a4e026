"""In-memory span tracer that wraps library functions where callers look them up.

Modules import by name (``from .fed import run_fl_round``), so a function is
wrapped in the namespace of the module that calls it; the library itself is
never edited. Every wrapped call records one span (id, parent id, name, start,
end); spans stay in memory until the traced run ends.
"""
from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

# (span id, parent span id, name, start, end); parent -1 marks a root span.
Span = tuple[int, int, str, float, float]
CountFn = Callable[[Counter, tuple, Any], None]


class Tracer:
    """Spans of one traced run, plus exact counters fed by the wrappers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int, str, float]] = []
        self._next_id = 0

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((self._next_id, parent, name, perf_counter()))
        self._next_id += 1

    def end(self) -> None:
        end = perf_counter()
        sid, parent, name, start = self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def depth(self) -> int:
        return len(self._stack)

    def wrap(self, name: str, fn: Callable, count: CountFn | None = None) -> Callable:
        """``fn`` recorded as a span named ``name``; ``count`` sees (counts, args, result)."""

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def write_spans(self, path: Path) -> None:
        """Append this run's spans as CSV: run_id,span_id,parent_id,name,start_s,end_s."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with path.open("a", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{self.run_id},{sid},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


def aggregate(spans: list[Span]) -> dict[str, dict[str, list]]:
    """Per root-span name, per span name: [calls, busy_s, self_s].

    Self time is a span's duration minus the durations of its direct
    children. Span ids grow with start order, so a parent precedes its
    children once sorted by id.
    """
    ordered = sorted(spans)
    root_of: dict[int, str] = {}
    child_s: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end in ordered:
        root_of[sid] = name if parent < 0 else root_of[parent]
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict[str, list]] = defaultdict(dict)
    for sid, _, name, start, end in ordered:
        st = out[root_of[sid]].setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += end - start
        st[2] += end - start - child_s[sid]
    return out


@contextlib.contextmanager
def patched(targets: Iterable[tuple[Any, str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """Replace ``module.attr`` with ``make(original)`` for each target; restore on exit.

    Targets apply in order, so a later target on the same name wraps the
    earlier wrapper and runs outermost.
    """
    saved: list[tuple[Any, str, Callable]] = []
    try:
        for module, attr, make in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
