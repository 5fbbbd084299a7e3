"""In-memory spans around the package's public calls, for the traced run.

Spans are opened only on the benchmark's own thread and nest by a stack, so
a span's self time is its duration minus its direct children's.  Public
functions are wrapped by swapping the module attribute the caller looks up
(for example ``experiments.exchange``, which ``run_trial`` calls) for the
duration of a ``patched`` block; the program itself is not modified.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

MAX_STORED_SPANS = 200_000  # aggregates keep counting past this


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.dropped = 0
        self.op_id = -1
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.top_level_ns = 0  # summed duration of spans without a parent
        self.tally: dict[str, int] = defaultdict(int)  # counters kept by `after` hooks
        self._stack: list[list] = []  # [id, name, start_ns, children_ns]
        self._next_id = 0

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def close(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        end = time.perf_counter_ns()
        span_id, name, start, children = self._stack.pop()
        self._account(span_id, name, start, end, children)
        return end - start

    def record(self, name: str, start: int, end: int) -> None:
        """Add a closed leaf span measured by the caller (a gap between calls)."""
        self._account(self._next_id, name, start, end, 0)
        self._next_id += 1

    def _account(self, span_id, name, start, end, children) -> None:
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.top_level_ns += dur
        else:
            parent[3] += dur
        self.self_ns[name] += dur - children
        self.incl_ns[name] += dur
        self.calls[name] += 1
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else -1, self.op_id))
        else:
            self.dropped += 1

    def wrap(self, fn, name: str, after=None):
        """fn with a span around each call; after(args, result, duration_ns)
        runs when a call returns normally."""
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.close()
            if after is not None:
                after(args, result, dur)
            return result
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent_id", "op_id"))
            out.writerows(self.spans)


@contextmanager
def patched(targets):
    """Temporarily set owner.attr = replacement for each (owner, attr, replacement)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
