"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` the id shared by every span
of one operation.  Spans stay in memory and are written out when the run
ends; nothing is recorded inside the program itself.  Times are CPU
seconds of this process.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import process_time as clock


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op = 0

    def open(self, name: str, parent: int = -1) -> tuple[int, str, float, int]:
        """Start a span whose children are recorded before it is closed."""
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        return len(self.spans) - 1, name, clock(), parent

    def close(self, handle) -> float:
        index, name, start, parent = handle
        end = clock()
        self.spans[index] = (name, start, end, parent, self.op)
        return end - start

    def call(self, name: str, parent: int, fn, *args):
        start = clock()
        out = fn(*args)
        self.spans.append((name, start, clock(), parent, self.op))
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds: duration minus its children's."""
        total: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _op in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return dict(total)

    def per_op(self, names: tuple[str, ...]) -> dict[int, dict[str, float]]:
        """Duration per op id of the spans whose names start with one of ``names``."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _parent, op in self.spans:
            if name.startswith(names):
                out[op][name] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)
