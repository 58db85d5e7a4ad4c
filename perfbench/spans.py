"""In-memory spans recorded from outside the package.

A Tracer rebinds public module attributes of tracecensus to wrappers that
record one span per call: name, start, end and the span that was open when
the call began.  Nothing inside the package changes; the wrappers sit on
the names the package itself looks up at call time, so a traced run must
be single-process for every span to land in one Tracer.

Besides timing, each binding may keep one cheap value per call (an
argument or the size of a result).  Counts that need real arithmetic, such
as the kernel's scanned b-candidates, are derived from those values after
the traced pass, outside the traced wall time.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable

ROOT = "job"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[str, list] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.values[name] = []
        return nid

    @contextmanager
    def root(self):
        """The benchmark's own span around one job; its self time is the glue."""
        i = self._open(0)
        self.start[i] = time.perf_counter()
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, keep: Callable | None = None) -> Callable:
        nid = self._id(name)
        values = self.values[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = self._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.start[i] = t0
                self._stack.pop()
            if keep is not None:
                values.append(keep(args, out))
            return out

        return traced

    def install(self, bindings) -> None:
        """bindings: (module, attribute, span name, keep or None) tuples.

        Every binding of one function wraps the original, so a call is
        recorded once whichever name it comes through.
        """
        for module, attr, name, keep in bindings:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, keep))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the traced pass is serial.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def dump(self, path) -> None:
        """Write the raw span table; spans are kept in memory until here."""
        doc = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
