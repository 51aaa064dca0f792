"""Spans recorded around the benchmark's own calls into the package.

A span holds name, start, end, parent span, request id, whether the call
raised, and a few attributes. Spans stay in memory and are written out when
the run ends. Nothing is traced inside the package itself.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

ID, NAME, START, END, PARENT, REQUEST, ERROR, ATTRS = range(8)


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **attrs):
        return fn(*args)

    def request(self, request_id, kind):
        return nullcontext()


class Tracer:
    """Records one span per call made through it."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None
        self.origin = perf_counter()

    def _open(self, name, attrs) -> list:
        span = [len(self.spans), name, 0.0, 0.0,
                self._stack[-1] if self._stack else None, self._request, False, attrs]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def call(self, name, fn, *args, **attrs):
        span = self._open(name, attrs)
        span[START] = perf_counter()
        try:
            return fn(*args)
        except BaseException:
            span[ERROR] = True
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, request_id, kind):
        self._request = request_id
        span = self._open("request." + kind, {})
        span[START] = perf_counter()
        try:
            yield
        except BaseException:
            span[ERROR] = True
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            self._request = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span[ID], "name": span[NAME],
                    "start": span[START] - self.origin, "end": span[END] - self.origin,
                    "parent": span[PARENT], "request": span[REQUEST],
                    "error": span[ERROR], "attrs": span[ATTRS],
                }) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for span in spans:
        covered = 0.0
        reach = span[START]
        for start, end in sorted(children.get(span[ID], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out
