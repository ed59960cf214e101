"""Measurement helpers of the oonsim benchmark: percentiles, spans, self time.

Nothing here imports oonsim; the workloads and the entry point build on it.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank p-th percentile of `samples`.

    Refuses (ValueError) unless at least MIN_BEYOND samples lie beyond
    the returned rank, so a tail figure always rests on enough samples.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} outside (0, 100)")
    n = len(samples)
    rank = math.ceil(p / 100 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{p:g} of {n} samples leaves {n - rank} beyond it; "
                         f"need at least {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder for one single-threaded run.

    A span is (name, start, end, parent index); spans nest by call order.
    Counters record work at the same boundaries.  Storage is four flat
    arrays, so millions of spans stay affordable.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """`fn` recorded as a span called `name` on every call."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def spans(self):
        """Every span as (name, start, end, parent index)."""
        names = self.names
        return [(names[n], s, e, p)
                for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)]

    def write(self, path) -> None:
        """One JSON header line, then the four arrays in native byte order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": [["name_id", "i"], ["parent", "i"],
                                 ["start", "d"], ["end", "d"]]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path) -> list:
    """Inverse of Tracer.write: the spans as (name, start, end, parent index)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            cols.append(arr)
    names = header["names"]
    return [(names[n], s, e, p) for n, p, s, e in zip(*cols)]


def self_times(spans) -> dict:
    """Per span name: (calls, total seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so those never overlap.
    """
    child = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        dur = end - start
        out[name] = (calls + 1, total + dur, own + dur - child[i])
    return out
