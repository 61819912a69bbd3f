"""Spans around the benchmark's calls into each layer of spintori.

Every call the benchmark makes into the library goes through
``probe.call(name, fn, *args)``.  ``Direct`` calls straight through and
is the probe of the untraced passes that give the end-to-end metrics.
``Tracer`` records one span per call (name, start, end, parent span,
case id), keeps every span in memory in flat arrays, and writes them
out when the run ends.  Spans are opened only from the benchmark's own
files, so a span covers one whole public call: work a layer does on
behalf of another (``invariant_factors`` calling ``smith_normal_form``)
is not split out.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter


class Direct:
    """No spans: calls go straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def open(self, name, case=None):
        return -1

    def close(self, span):
        pass


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self.cases: list[str] = []
        self._ids: dict[str, int] = {}
        self._case_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.case = array("l")
        self._stack = [-1]

    def open(self, name, case=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        parent = self._stack[-1]
        if case is not None:
            cid = self._case_ids.setdefault(case, len(self._case_ids))
            if cid == len(self.cases):
                self.cases.append(case)
        else:
            cid = self.case[parent] if parent >= 0 else -1
        span = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.case.append(cid)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def close(self, span):
        self.end[span] = perf_counter()
        if self._stack.pop() != span:
            raise RuntimeError(f"span {span} closed out of order")

    def call(self, name, fn, *args):
        span = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def summary(self) -> dict[str, dict]:
        """Per span name: count, self seconds (duration minus the time
        covered by direct children) and the longest single span."""
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        own = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name):
            rec = out.setdefault(self.names[nid], {"count": 0, "self_s": 0.0, "max_s": 0.0})
            rec["count"] += 1
            rec["self_s"] += own[i]
            rec["max_s"] = max(rec["max_s"], dur[i])
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: id, name, start, end, parent, case."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tcase\n")
            for i, nid in enumerate(self.name):
                cid = self.case[i]
                fh.write(
                    f"{i}\t{self.names[nid]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.cases[cid] if cid >= 0 else ''}\n"
                )
