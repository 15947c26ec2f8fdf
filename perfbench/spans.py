"""Spans recorded in memory around the benchmark's calls into the library.

A span is ``[name, start, end, parent, op]``: ``name`` is ``<layer>.<function>``
(the layer is a module of ``src/permavoid``, or ``op`` for the benchmark's own
operation span), ``parent`` the index of the enclosing span or None, ``op`` the
operation id.  Spans are only recorded at the benchmark's call sites; nothing
inside ``src/`` is instrumented.
"""

from __future__ import annotations

from time import perf_counter


def untraced(name, fn, *args):
    """The same call signature as a Tracer, recording nothing."""
    return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def __call__(self, name, fn, *args):
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            span[2] = perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]


def self_times(spans) -> dict[str, float]:
    """Seconds per layer: each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _, _), covered in zip(spans, child):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - covered
    return out
