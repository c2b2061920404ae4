"""In-memory span recorder used by the benchmark's traced runs.

A span is ``(name, start, end, parent, layer)``: ``parent`` is the index of
the enclosing span (``-1`` at the top) and ``layer`` the encoder-layer
ordinal the span ran under (``-1`` outside the encoder stack). Spans stay
in memory while the workload runs and are written out once, when the run
ends.

Besides spans the recorder keeps named figures of two kinds:

* ``count`` -- exact tallies (probes, calls, computed pair terms, eps
  rows). They repeat exactly run to run, so a later change may make a
  count claim on them;
* ``max`` -- high-water marks (peak eps rows).
"""

from __future__ import annotations

import gzip
import json
import threading
import time

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Records nested spans and figures from wrappers around program calls."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, layer]
        self.figures = {}        # name -> [kind, value]
        self.layer = -1
        self._stack = []
        self._thread = threading.get_ident()

    # ---------------------------------------------------------------- spans
    def open(self, name):
        """Start a span; returns its index for :meth:`close`.

        Only the thread that created the recorder records spans (the
        stack of open spans is per thread); calls from other threads get
        index ``-1``, which :meth:`close` ignores.
        """
        if threading.get_ident() != self._thread:
            return -1
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.layer])
        self._stack.append(index)
        return index

    def close(self, index):
        if index < 0:
            return
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out "
                               f"of order")

    # -------------------------------------------------------------- figures
    def count(self, name, k=1):
        entry = self.figures.get(name)
        if entry is None:
            self.figures[name] = ["count", k]
        else:
            entry[1] += k

    def high(self, name, value):
        entry = self.figures.get(name)
        if entry is None:
            self.figures[name] = ["max", value]
        elif value > entry[1]:
            entry[1] = value

    def figure(self, name, default=0):
        entry = self.figures.get(name)
        return default if entry is None else entry[1]

    # ------------------------------------------------------------- analysis
    def self_times(self):
        """Per span: duration minus the time its direct children cover.

        Spans nest strictly (one thread, stack discipline), so the
        children's intervals are disjoint and their durations add up to
        the covered part of the parent.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [(end - start) - child_time[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def rollup(self):
        """``{(layer, name): [calls, total_s, self_s]}`` over all spans."""
        table = {}
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end, _, layer = span
            row = table.setdefault((layer, name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return table

    def by_name(self):
        """``{name: [calls, total_s, self_s]}`` summed over layers."""
        table = {}
        for (_, name), (calls, total, self_s) in self.rollup().items():
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        return table

    # ---------------------------------------------------------------- output
    def write(self, path):
        """Spans (one JSON list per line), then rollup and figures (gzip)."""
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            rollup = [[layer, name, *row]
                      for (layer, name), row in sorted(self.rollup().items())]
            out.write(json.dumps({"rollup": rollup,
                                  "figures": self.figures}) + "\n")
