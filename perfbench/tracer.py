"""Span tracer built from wrappers around functions of the traced program.

``Tracer.install(owner, attr, ...)`` replaces the attribute a caller looks
up (a module global or a class method) by a wrapper that records one span
per call: name, start, end and the span that was open when the call began.
Spans live in flat in-memory arrays and are written out once, by ``dump``,
after the traced work has ended.  Standard library only.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name: str, observe=None):
        """``fn`` recording a span per call; ``observe(counters, args, kwargs,
        result)`` runs after the span closes, so its cost lands in the
        caller's span, never in the callee's."""
        nid = self._name_id(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self, owner, attr: str, span_name: str, observe=None) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(original, span_name, observe))
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self, span_name: str):
        """Span around a block; spans opened inside it nest under it."""
        idx = len(self.start)
        self.name.append(self._name_id(span_name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def dump(self, directory: str) -> None:
        """Write the spans: ``spans.json`` (names, run id, layout) and
        ``spans.bin`` (the int32 name and parent arrays, then the float64
        start and end arrays, native byte order)."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "spans.bin"), "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "run_id": self.run_id,
            "count": len(self.start),
            "names": self.names,
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "clock": "time.perf_counter, seconds",
        }
        with open(os.path.join(directory, "spans.json"), "w") as fh:
            json.dump(header, fh)


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Coverage is the union of the child intervals clipped to the parent, so
    overlapping children are not counted twice.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        kids.sort(key=starts.__getitem__)
        covered = 0.0
        cur_s = cur_e = None
        for k in kids:
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def totals_by(tracer: Tracer, bucket_of: dict[str, str]) -> dict[str, float]:
    """Self time summed per bucket, where ``bucket_of`` maps span names."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    out = {b: 0.0 for b in bucket_of.values()}
    for nid, t in zip(tracer.name, selfs):
        b = bucket_of[tracer.names[nid]]
        out[b] += t
    return out
