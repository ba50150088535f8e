"""Span recording by wrapping library functions in place.

`wrap_attr` swaps a module function or a class method (plain or class)
for a wrapper and returns the callable that puts the original back.
The probe and the tracer both use it, so the library code path stays the
same: only the attribute lookup at the call site lands on the wrapper first.

`Tracer` records one span per wrapped call: name, parent, start and end in
nanoseconds. Spans live in flat arrays while the run goes on and are written
out once at the end.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter_ns


def wrap_attr(owner, attr: str, decorate):
    """Replace owner.attr by decorate(function); return the undo callable.

    The function handed to decorate takes the same arguments as a call
    through the attribute, with `cls` first for a classmethod.
    """
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(decorate(raw.__func__)))
    else:
        setattr(owner, attr, decorate(raw))
    return lambda: setattr(owner, attr, raw)


class Tracer:
    """In-memory span store for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, owner, attr: str, span_name: str, count=None) -> None:
        """Record a span named span_name around every call of owner.attr.

        count(counters, args, result), when given, adds the layer's work
        counts at the same boundary.
        """
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        def decorate(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0)
                stack.append(idx)
                start.append(perf_counter_ns())
                try:
                    result = func(*args, **kwargs)
                finally:
                    end[idx] = perf_counter_ns()
                    stack.pop()
                if count is not None:
                    count(counters, args, result)
                return result
            return traced

        self._undo.append(wrap_attr(owner, attr, decorate))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns.

        Self time is a span's duration minus the durations of its direct
        children. Also gives, under "<parent> > <child>", the time of the
        child spans called directly from that parent.
        """
        import numpy as np

        n = len(self)
        names = np.frombuffer(self.name_id, dtype=np.uint16)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        dur = (np.frombuffer(self.end, dtype=np.int64)[:n]
               - np.frombuffer(self.start, dtype=np.int64)[:n]).astype(np.float64)
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_ns = dur - child_ns
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        incl = np.bincount(names, weights=dur, minlength=width)
        own = np.bincount(names, weights=self_ns, minlength=width)
        out = {name: {"calls": int(calls[i]), "incl_ns": float(incl[i]),
                      "self_ns": float(own[i])}
               for i, name in enumerate(self.names)}
        pair = names[nested].astype(np.int64) * width + names[parent[nested]]
        pair_ns = np.bincount(pair, weights=dur[nested], minlength=width * width)
        for key in np.flatnonzero(pair_ns):
            child, par = divmod(int(key), width)
            out[f"{self.names[par]} > {self.names[child]}"] = {
                "incl_ns": float(pair_ns[key])}
        return out

    def write(self, path) -> None:
        """Save every span as arrays: names, name_id, parent, start_ns, end_ns."""
        import numpy as np

        n = len(self)
        np.savez(path,
                 names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16)[:n],
                 parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
                 start_ns=np.frombuffer(self.start, dtype=np.int64)[:n],
                 end_ns=np.frombuffer(self.end, dtype=np.int64)[:n])
