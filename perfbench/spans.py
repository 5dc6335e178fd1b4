"""In-memory spans and counters recorded by wrapping functions in place.

A span holds a name, start and end (perf_counter_ns), the span that was open
when it started (its parent), and the id of the command it belongs to. Hot
leaf functions get counters instead of spans so that tracing stays cheap.
Every patch remembers the original attribute, and `uninstall` puts each one
back; the wrappers never touch the program's random streams.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Span:
    __slots__ = ("id", "parent", "cmd", "name", "start", "end", "size", "tag")

    def __init__(self, id, parent, cmd, name, start=0, end=0, size=None, tag=None):
        self.id = id
        self.parent = parent
        self.cmd = cmd
        self.name = name
        self.start = start
        self.end = end
        self.size = size
        self.tag = tag

    def as_list(self) -> list:
        return [self.id, self.parent, self.cmd, self.name, self.start, self.end, self.size, self.tag]


class Tracer:
    """Spans, call counters and per-value timers for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # [values, ns]
        self.cmd = None
        self._stack: list[int] = []
        self._commands = 0
        self._patches: list[tuple] = []

    # -- wrapper factories ---------------------------------------------------

    def span(self, name, describe=None, command=False):
        """Wrap a function in a span. `describe(args, kwargs, result)` returns
        (size, tag) and runs after the span has closed. A command span opens
        a new command id that every span inside it shares."""
        spans, stack = self.spans, self._stack

        def factory(fn):
            def wrapper(*args, **kwargs):
                if command:
                    outer = self.cmd
                    self.cmd = self._commands
                    self._commands += 1
                rec = Span(len(spans), stack[-1] if stack else -1, self.cmd, name)
                spans.append(rec)
                stack.append(rec.id)
                rec.start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.end = perf_counter_ns()
                    stack.pop()
                    if command:
                        self.cmd = outer
                if describe is not None:
                    rec.size, rec.tag = describe(args, kwargs, result)
                return result

            return wrapper

        return factory

    def counter(self, key):
        """Count calls only."""
        counts = self.counts

        def factory(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return factory

    def per_value(self, key):
        """Time a method `f(self, n, ...)` that returns n values."""
        acc = self.values[key]

        def factory(fn):
            def wrapper(obj, n, *args, **kwargs):
                t0 = perf_counter_ns()
                out = fn(obj, n, *args, **kwargs)
                acc[1] += perf_counter_ns() - t0
                acc[0] += n
                return out

            return wrapper

        return factory

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, factory) -> None:
        """Replace owner.attr (a module global or a class attribute)."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, factory(original))

    def uninstall(self) -> list[tuple]:
        """Put every original back; returns the (owner, attr, original)
        triples so a caller can check the restore with `restored`."""
        undone = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            undone.append((owner, attr, original))
        return undone

    def snapshot(self) -> dict:
        """Copies of the counters, for splitting them between phases."""
        return {
            "counts": dict(self.counts),
            "values": {k: list(v) for k, v in self.values.items()},
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec.as_list()) + "\n")


def restored(undone) -> bool:
    """True when every patched attribute is its original object again."""
    return all(vars(owner)[attr] is original for owner, attr, original in undone)


def covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it its child spans cover.
    Span ids must equal their positions in the list."""
    children = defaultdict(list)
    for rec in spans:
        if rec.parent >= 0:
            children[rec.parent].append((rec.start, rec.end))
    return [
        rec.end - rec.start - covered(children.get(rec.id, ()), rec.start, rec.end)
        for rec in spans
    ]
