"""Span recorder and counting file opener for the ``--trace`` run.

Both live here, outside ``src/``, and are used only when tracing: the
untraced run passes no opener and records no spans, so the end-to-end
numbers carry none of this bookkeeping.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory spans: name, layer, start, end, parent, op id.

    Spans nest by call order (one thread); ``op`` is inherited from the
    enclosing span so every span of one operation shares an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, op=None):
        """Record one span around the ``with`` body."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        index = len(self.spans)
        record = {"name": name, "layer": layer, "op": op, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> list[float]:
        """Durations of every finished span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            if s["end"] is not None:
                out[s["layer"]] = out.get(s["layer"], 0.0) \
                    + (s["end"] - s["start"]) - covered
        return out

    def export(self) -> list[dict]:
        """Every span, times relative to the first span's start."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        return [
            {**s, "start": s["start"] - origin,
             "end": None if s["end"] is None else s["end"] - origin}
            for s in self.spans
        ]


class CountingOpener:
    """``opener(path, mode)`` for ``DiskCTree.create/open`` that counts
    and times the file calls the storage layer makes."""

    def __init__(self) -> None:
        self.read_calls = 0
        self.write_calls = 0
        self.write_bytes = 0
        self.fsyncs = 0
        self.mutate_seconds = 0.0  # inside write + fsync + truncate

    def __call__(self, path, mode: str):
        """Open ``path`` the way the storage layer's default opener does,
        wrapped so its calls are counted."""
        return _CountedFile(open(path, mode), self)

    def snapshot(self) -> dict:
        """Current counter values (subtract two snapshots for a delta)."""
        return {
            "read_calls": self.read_calls,
            "write_calls": self.write_calls,
            "write_bytes": self.write_bytes, "fsyncs": self.fsyncs,
            "mutate_seconds": self.mutate_seconds,
        }


class _CountedFile:
    """File wrapper counting the calls ``repro.storage`` makes."""

    def __init__(self, fh, counts: CountingOpener) -> None:
        self._fh = fh
        self._counts = counts

    def read(self, size: int = -1) -> bytes:
        self._counts.read_calls += 1
        return self._fh.read(size)

    def write(self, data) -> int:
        start = time.perf_counter()
        written = self._fh.write(data)
        counts = self._counts
        counts.mutate_seconds += time.perf_counter() - start
        counts.write_calls += 1
        counts.write_bytes += len(data)
        return written

    def fsync(self) -> None:
        # The storage layer flushes before calling this; it stands in
        # for the ``os.fsync(fileno)`` the layer would otherwise issue.
        start = time.perf_counter()
        os.fsync(self._fh.fileno())
        self._counts.mutate_seconds += time.perf_counter() - start
        self._counts.fsyncs += 1

    def truncate(self, size=None) -> int:
        start = time.perf_counter()
        result = self._fh.truncate(size)
        self._counts.mutate_seconds += time.perf_counter() - start
        return result

    def __getattr__(self, name: str):
        # seek, tell, flush, fileno, close, closed: straight through.
        return getattr(self._fh, name)
