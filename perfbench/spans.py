"""In-memory span recorder that traces the program from outside.

A span is (name, start, end, parent). The recorder wraps public functions at
the module attribute their callers resolve them through, so a patched
``earlyflow.autodiff.fft_along`` is seen by ``fft_pair`` and by the backward
closures it creates. Spans stay in memory until ``write_csv`` is called at
the end of the run; nothing is written while the program is being timed.
"""

from __future__ import annotations

import time

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack: list = []
        self._patches: list = []

    def wrap(self, fn, name, on_result=None):
        """Return fn wrapped in a span. name is a string or a callable
        (args, kwargs) -> string; on_result(result, args, kwargs) runs after
        the span closes, outside the timed interval."""
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter_ns
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(fixed or name(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, on_result=None):
        """Replace owner.attr (a module function or a class method) with a
        traced wrapper until restore() is called."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, on_result))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def tree(self):
        """(names, start_ns, end_ns, parent) as numpy arrays."""
        return (np.array(self.names, dtype=object), np.array(self.starts, dtype=np.int64),
                np.array(self.ends, dtype=np.int64), np.array(self.parents, dtype=np.int64))

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{n},{s},{e},{p}\n")


def self_times(starts, ends, parents) -> np.ndarray:
    """Per-span self time: the span's duration minus the durations of its
    direct children. Spans nest (one thread, wrappers close in LIFO order),
    so children never overlap each other."""
    durations = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    child_total = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(child_total, parents[has_parent], durations[has_parent])
    return durations - child_total


def totals_by_name(names, starts, ends, parents) -> dict:
    """name -> {"calls", "total_s", "self_s"} over every span of that name."""
    durations = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    own = self_times(starts, ends, parents)
    out = {}
    for name, dur, self_ns in zip(names, durations, own):
        entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += int(dur)
        entry["self_ns"] += int(self_ns)
    return {name: {"calls": e["calls"], "total_s": e["total_ns"] / 1e9, "self_s": e["self_ns"] / 1e9}
            for name, e in out.items()}
