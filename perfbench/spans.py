"""Spans and call counts recorded from outside the program.

The tracer replaces a function at the module or class attribute where its
caller looks it up, so the program's own source stays untouched.  Each call
through a wrapper records one span: (name, start, end, parent span, op id).
Spans stay in memory; the reduction methods and `layer_value` turn them
into per-layer numbers after the run.

A wrapped attribute that does not exist (say, a later version no longer
imports `DirectedGraph` into `d2k.construct`) is listed in `missing` and
simply records zero calls, as does one that is no longer called.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one benchmark process (single-threaded)."""

    def __init__(self, points):
        # points: (span name, module path, attribute path, after hook or None)
        self.points = list(points)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every trace point for the duration of the block."""
        self.missing = []
        for name, module, attr, after in self.points:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(name, original, after))
            self._undo.append((owner, leaf, original))
        try:
            yield self
        finally:
            while self._undo:
                owner, leaf, original = self._undo.pop()
                setattr(owner, leaf, original)

    # -- reduction ---------------------------------------------------------

    def ops(self, prefix: str) -> list:
        """Op ids starting with prefix, in the order they first appear."""
        seen: dict = {}
        for s in self.spans:
            if isinstance(s.op, str) and s.op.startswith(prefix):
                seen.setdefault(s.op, None)
        return list(seen)

    def per_op(self, name: str, ops: list) -> tuple[list[float], list[int]]:
        """Summed seconds and call counts of spans called `name`, per op."""
        secs = {op: 0.0 for op in ops}
        calls = {op: 0 for op in ops}
        for s in self.spans:
            if s.name == name and s.op in secs:
                secs[s.op] += s.seconds
                calls[s.op] += 1
        return [secs[op] for op in ops], [calls[op] for op in ops]

    def self_seconds(self, idx: int) -> float:
        """Span duration minus the time its direct children cover."""
        kids = sum(s.seconds for s in self.spans if s.parent == idx)
        return self.spans[idx].seconds - kids

    def children(self, idx: int) -> dict[str, float]:
        """Summed seconds of each direct child name of span idx."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.parent == idx:
                out[s.name] = out.get(s.name, 0.0) + s.seconds
        return out

    def roots(self, name: str, ops: list) -> list[int]:
        wanted = set(ops)
        return [i for i, s in enumerate(self.spans)
                if s.name == name and s.parent is None and s.op in wanted]


def layer_value(tracer: Tracer, name: str, loop_ops: list,
                setup_ops: list) -> tuple[float, float]:
    """(seconds, calls) of one layer function where its work happens.

    The median per loop op when the function runs inside the op loop;
    otherwise its total over the traced set-up.  Zero when never called.
    """
    secs, calls = tracer.per_op(name, loop_ops)
    if any(calls):
        return statistics.median(secs), statistics.median(calls)
    secs, calls = tracer.per_op(name, setup_ops)
    return sum(secs), sum(calls)
