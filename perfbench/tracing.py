"""In-memory spans around the benchmark's calls into tenseprove's modules.

A span is a tuple ``(request, span_id, parent, name, start, end)``; the
parent is the span that was open when this one started, or -1.  Spans are
only appended while a pass runs and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.request = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((self.request, sid, parent, name, time.perf_counter(), 0.0))
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            req, _, par, nm, start, _ = self.spans[sid]
            self.spans[sid] = (req, sid, par, nm, start, time.perf_counter())

    def self_times(self, first: int = 0, scale: dict[int, float] | None = None) -> dict[str, float]:
        """Seconds per span name from spans[first:], each span's duration
        minus the part its direct children cover, multiplied by its
        request's factor in scale if given."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, sid, parent, _, start, end in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = {}
        for i, (req, _, _, name, start, end) in enumerate(spans):
            factor = scale[req] if scale else 1.0
            out[name] = out.get(name, 0.0) + ((end - start) - child[i]) * factor
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for req, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"request": req, "span": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
