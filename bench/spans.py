"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded only from the benchmark: `Tracer.patch` replaces a name
that package code looks up at call time (a module global such as
`survcbps.solver.solve_inner_dual`, or a class attribute such as
`CensorSurvival.fit`) with a wrapper that records one span per call. The
original objects are put back by `Tracer.close`. Each span keeps its name,
start, end and the span that was open when it started; the list stays in
memory until `write` dumps it at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name, fn, after=None):
        """fn recording a span per call; after(tracer, args, result) adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0)
            self.ends.append(0)
            self._stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[name + ".raised"] += 1
                raise
            finally:
                self.ends[idx] = time.perf_counter_ns()
                self.starts[idx] = t0
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        """Replace owner.attr by a traced wrapper until close().

        Spans from every patch-close cycle accumulate in the same tracer.
        """
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, after))
        else:
            replacement = self.wrap(name, original, after)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def count(self, owner, attr, name):
        """Replace owner.attr by a wrapper that only counts calls."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def close(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Per span name: (calls, total ns, self ns).

        Self time is the span's duration minus the durations of its direct
        children; spans are strictly nested, so children never overlap.
        """
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: [0, 0, 0])
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = out[name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child_ns[i]
        return out

    def children_of(self, parent_prefix, child_name):
        """Number of child_name spans whose direct parent starts with parent_prefix."""
        return sum(
            1
            for i, name in enumerate(self.names)
            if name == child_name
            and self.parents[i] >= 0
            and self.names[self.parents[i]].startswith(parent_prefix)
        )

    def write(self, path):
        """Dump every span as [name id, start ns, end ns, parent index]."""
        table = sorted(set(self.names))
        ids = {name: k for k, name in enumerate(table)}
        doc = {
            "names": table,
            "spans": [
                [ids[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
