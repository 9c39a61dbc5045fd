"""Span tracing: nested timed phases emitted as JSONL records.

A *span* is a named, timed region with attached attributes.  Spans nest
via :mod:`contextvars`, so a query produces a tree — query root →
node expansions → verification, with bufferpool/pagefile I/O spans
hanging under whatever phase triggered them — without any plumbing
through function signatures.

Tracing is **off by default** and costs one attribute check per
:func:`span` call when off.  Enable it with :func:`enable` (or the
scoped :func:`tracing` context manager) and every finished span is
emitted to the configured sink as one JSON-able dict:

.. code-block:: python

    {"trace_id": 1, "span_id": 3, "parent_id": 2, "name": "ctree.expand",
     "start": 81.1, "duration": 0.004, "depth": 2, "attrs": {"x": 5}}

Spans are emitted when they *end* (post-order); :func:`summarize`
reconstructs the tree from ``parent_id`` and renders a flame-style text
report.  Sinks are pluggable: :class:`ListSink` (in-memory),
:class:`JsonlSink` (one JSON object per line), :class:`NullSink`.

Traces can cross task and process boundaries: :func:`export_context`
serializes a handle on the current span, :func:`attach` re-parents
spans opened in another task/thread under that handle, and worker
processes record into a scratch tracer via :func:`capture` and ship the
records home, where :func:`fold_worker_records` splices them into the
parent trace (the span-record analogue of ``MetricsRegistry.merge``).
:func:`chrome_trace` converts any record list to the Chrome trace-event
format that ``chrome://tracing`` / Perfetto load directly.

Usage::

    from repro.obs import trace

    with trace.tracing(trace.JsonlSink("query.jsonl")):
        answers, stats = subgraph_query(tree, q)

    print(trace.format_trace_summary(trace.read_jsonl("query.jsonl")))
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import IO, Iterable, Optional, Union

__all__ = [
    "Span",
    "NullSink",
    "ListSink",
    "JsonlSink",
    "enable",
    "disable",
    "enabled",
    "tracing",
    "span",
    "timed",
    "current_span",
    "export_context",
    "attach",
    "capture",
    "fold_worker_records",
    "read_jsonl",
    "ancestry",
    "summarize",
    "phase_totals",
    "format_trace_summary",
    "chrome_trace",
]

_current: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span",
                                                   default=None)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class NullSink:
    """Discards every record (tracing enabled but unobserved)."""

    def emit(self, record: dict) -> None:
        pass

    def close(self) -> None:
        pass


class ListSink:
    """Collects records in memory (``sink.records``)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlSink:
    """Writes one JSON object per line to a path or open file object."""

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if hasattr(target, "write"):
            self._fh: IO[str] = target  # type: ignore[assignment]
            self._owned = False
        else:
            self._fh = open(target, "w", encoding="utf-8")
            self._owned = True
        self.count = 0

    def emit(self, record: dict) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")))
        self._fh.write("\n")
        self.count += 1

    def close(self) -> None:
        self._fh.flush()
        if self._owned:
            self._fh.close()


# ----------------------------------------------------------------------
# Spans and the tracer
# ----------------------------------------------------------------------
class Span:
    """One timed region; also its own context manager.

    ``set(**attrs)`` attaches attributes at any point while the span is
    open (e.g. survivor counts known only after a scan).
    """

    __slots__ = ("name", "attrs", "trace_id", "span_id", "parent_id",
                 "depth", "start", "duration", "_token")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.trace_id = 0
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.start = 0.0
        self.duration = 0.0
        self._token = None

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        tracer = _TRACER
        parent = _current.get()
        self.span_id = next(tracer.span_ids)
        if parent is None:
            self.trace_id = next(tracer.trace_ids)
            self.depth = 0
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
        self._token = _current.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        _current.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        _TRACER.sink.emit({
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "attrs": self.attrs,
        })
        return False


class _NoopSpan:
    """Stand-in when tracing is disabled; all operations are no-ops."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _Tracer:
    # Ids come from ``itertools.count`` so concurrent allocation from the
    # event-loop thread and executor threads stays race-free (``next()``
    # on a count is atomic under CPython).
    __slots__ = ("enabled", "sink", "span_ids", "trace_ids")

    def __init__(self) -> None:
        self.enabled = False
        self.sink: object = NullSink()
        self.span_ids = itertools.count(1)
        self.trace_ids = itertools.count(1)


_TRACER = _Tracer()


def span(name: str, **attrs) -> Union[Span, _NoopSpan]:
    """Open a span (use as ``with trace.span("name", k=v) as sp:``).

    When tracing is disabled this returns a shared no-op object; the
    call costs one flag check plus the kwargs dict.
    """
    if not _TRACER.enabled:
        return _NOOP
    return Span(name, attrs)


class _Timer(_NoopSpan):
    """What :func:`timed` returns with tracing off: the block's two clock
    readings, emitted nowhere."""

    __slots__ = ("start", "duration")

    def __enter__(self) -> "_Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.duration = time.perf_counter() - self.start
        return False


def timed(name: str, **attrs) -> Union[Span, _Timer]:
    """:func:`span`, timed whether or not tracing is on: after the block,
    ``.duration`` holds its wall seconds.  With tracing on that is the
    emitted span's own duration, so a stats field read from it equals
    the span's, not just agrees with it."""
    return Span(name, attrs) if _TRACER.enabled else _Timer()


def current_span() -> Union[Span, _NoopSpan]:
    """The innermost open span, or a no-op stand-in outside any span."""
    return _current.get() or _NOOP


def enable(sink=None) -> object:
    """Turn tracing on; returns the active sink (default: a ListSink)."""
    if sink is None:
        sink = ListSink()
    _TRACER.sink = sink
    _TRACER.enabled = True
    return sink


def disable() -> None:
    """Turn tracing off and close the active sink."""
    _TRACER.enabled = False
    sink, _TRACER.sink = _TRACER.sink, NullSink()
    close = getattr(sink, "close", None)
    if close is not None:
        close()


def enabled() -> bool:
    return _TRACER.enabled


@contextmanager
def tracing(sink=None):
    """Scoped tracing: enable on entry, disable (closing the sink) on
    exit.  Yields the sink."""
    active = enable(sink)
    try:
        yield active
    finally:
        disable()


# ----------------------------------------------------------------------
# Cross-task / cross-process propagation
# ----------------------------------------------------------------------
def export_context() -> Optional[dict]:
    """Serializable handle on the current span for remote re-parenting.

    Returns ``{"trace_id", "span_id", "depth"}`` of the innermost open
    span, or ``None`` when tracing is disabled or no span is open.  The
    dict is plain JSON/pickle data, safe to thread through queues, task
    payloads, and process boundaries; hand it to :func:`attach` (same
    process, other task/thread) or :func:`fold_worker_records` (records
    shipped back from a worker process).
    """
    if not _TRACER.enabled:
        return None
    cur = _current.get()
    if cur is None:
        return None
    return {"trace_id": cur.trace_id, "span_id": cur.span_id,
            "depth": cur.depth}


@contextmanager
def attach(ctx: Optional[dict]):
    """Parent spans opened in this block under an exported context.

    ``contextvars`` do not propagate into
    ``loop.run_in_executor`` / raw threads, so a callee running there
    would start a fresh trace.  Wrapping its body in
    ``with trace.attach(ctx):`` — where ``ctx`` came from
    :func:`export_context` at submission time — makes every span inside
    a child of the submitting span instead.  No-op when tracing is
    disabled or ``ctx`` is ``None``; the ghost parent itself is never
    emitted.
    """
    if not _TRACER.enabled or not ctx:
        yield
        return
    ghost = Span("<attached>", {})
    ghost.trace_id = ctx["trace_id"]
    ghost.span_id = ctx["span_id"]
    ghost.depth = int(ctx.get("depth", 0))
    token = _current.set(ghost)
    try:
        yield
    finally:
        _current.reset(token)


@contextmanager
def capture():
    """Record spans into a scratch tracer; yields the record list.

    For worker processes: tracing is disabled at worker init (the
    parent's sink must not be written from two processes), but a traced
    batch still wants the worker-side spans.  ``capture()`` enables
    tracing into a private :class:`ListSink` with a fresh id space,
    yields the live record list, and restores the previous tracer state
    on exit — the caller ships the records home where
    :func:`fold_worker_records` splices them into the real trace.
    """
    tracer = _TRACER
    saved = (tracer.enabled, tracer.sink, tracer.span_ids,
             tracer.trace_ids)
    sink = ListSink()
    tracer.sink = sink
    tracer.span_ids = itertools.count(1)
    tracer.trace_ids = itertools.count(1)
    tracer.enabled = True
    token = _current.set(None)
    try:
        yield sink.records
    finally:
        _current.reset(token)
        (tracer.enabled, tracer.sink, tracer.span_ids,
         tracer.trace_ids) = saved


def fold_worker_records(records: Iterable[dict],
                        ctx: Optional[dict]) -> int:
    """Splice worker-shipped span records into the active trace.

    The span-record analogue of ``MetricsRegistry.merge``: ``records``
    were captured in a worker's private id space (see :func:`capture`);
    this re-allocates their span ids from the parent tracer, rewrites
    ``trace_id``/``parent_id``/``depth`` so the worker's root spans hang
    under ``ctx`` (an :func:`export_context` dict), and emits them to
    the active sink.  Torn or partial records — non-dicts, or records
    missing ``span_id``/``name`` or numeric ``start``/``duration`` —
    are dropped; records whose parent did not survive are re-attached
    to ``ctx`` so no surviving span is orphaned.  Returns the number of
    records folded (0 when tracing is disabled or ``ctx`` is falsy).
    """
    tracer = _TRACER
    if not tracer.enabled or not ctx:
        return 0
    valid = []
    for rec in records or ():
        if not isinstance(rec, dict):
            continue
        if rec.get("span_id") is None or not rec.get("name"):
            continue
        if not isinstance(rec.get("start"), (int, float)):
            continue
        if not isinstance(rec.get("duration"), (int, float)):
            continue
        valid.append(rec)
    id_map = {rec["span_id"]: next(tracer.span_ids) for rec in valid}
    base_depth = int(ctx.get("depth", 0)) + 1
    for rec in valid:
        parent = rec.get("parent_id")
        attrs = rec.get("attrs")
        tracer.sink.emit({
            "trace_id": ctx["trace_id"],
            "span_id": id_map[rec["span_id"]],
            "parent_id": id_map.get(parent, ctx["span_id"]),
            "name": rec["name"],
            "start": rec["start"],
            "duration": rec["duration"],
            "depth": base_depth + int(rec.get("depth", 0) or 0),
            "attrs": dict(attrs) if isinstance(attrs, dict) else {},
        })
    return len(valid)


# ----------------------------------------------------------------------
# Reading and summarizing traces
# ----------------------------------------------------------------------
def read_jsonl(path: Union[str, Path]) -> list[dict]:
    """Load span records from a JSONL trace file."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _parent_map(records: Iterable[dict]) -> dict:
    """(trace_id, span_id) -> record, for ancestry walks."""
    return {(r["trace_id"], r["span_id"]): r for r in records}


def ancestry(rec: dict, records: Iterable[dict]) -> list[dict]:
    """Ancestor records of ``rec``, nearest (parent) first.

    Walks ``parent_id`` links within ``rec``'s trace.  Stops at the
    root, at a missing parent (torn trace), or on a cycle (corrupt
    trace) — in all cases returning the ancestors actually reachable.
    """
    by_id = _parent_map(records)
    out: list[dict] = []
    seen: set = set()
    cur = rec
    while cur.get("parent_id") is not None:
        key = (cur["trace_id"], cur["parent_id"])
        if key in seen:
            break
        seen.add(key)
        parent = by_id.get(key)
        if parent is None:
            break
        out.append(parent)
        cur = parent
    return out


def _has_same_name_ancestor(rec: dict, by_id: dict) -> bool:
    cur = rec
    while cur.get("parent_id") is not None:
        cur = by_id.get((cur["trace_id"], cur["parent_id"]))
        if cur is None:
            return False
        if cur["name"] == rec["name"]:
            return True
    return False


def summarize(records: Iterable[dict]) -> dict[str, dict]:
    """Aggregate spans by name.

    Returns ``{name: {count, total, self, min, max}}`` where

    - ``count`` is the number of spans of that name;
    - ``total`` sums only *outermost* spans of the name (a recursive
      span nested under a same-named ancestor is already included in
      its ancestor's duration, so totals never double-count);
    - ``self`` is duration minus the direct children's durations,
      summed over all spans — where the time was actually spent.
    """
    records = list(records)
    by_id = _parent_map(records)
    child_sum: dict[tuple, float] = {}
    for rec in records:
        if rec.get("parent_id") is not None:
            key = (rec["trace_id"], rec["parent_id"])
            child_sum[key] = child_sum.get(key, 0.0) + rec["duration"]

    out: dict[str, dict] = {}
    for rec in records:
        agg = out.setdefault(rec["name"], {
            "count": 0, "total": 0.0, "self": 0.0,
            "min": float("inf"), "max": 0.0,
        })
        d = rec["duration"]
        agg["count"] += 1
        agg["min"] = min(agg["min"], d)
        agg["max"] = max(agg["max"], d)
        agg["self"] += max(
            0.0, d - child_sum.get((rec["trace_id"], rec["span_id"]), 0.0)
        )
        if not _has_same_name_ancestor(rec, by_id):
            agg["total"] += d
    for agg in out.values():
        if agg["count"] == 0:
            agg["min"] = 0.0
    return out


def phase_totals(records: Iterable[dict]) -> dict[str, float]:
    """Per-name outermost-span time totals (see :func:`summarize`)."""
    return {name: agg["total"] for name, agg in summarize(records).items()}


def _collapsed_path(rec: dict, by_id: dict) -> tuple[str, ...]:
    """Root→span name path with consecutive repeats collapsed (so a
    recursive descent aggregates into one tree node)."""
    names: list[str] = []
    cur: Optional[dict] = rec
    while cur is not None:
        names.append(cur["name"])
        pid = cur.get("parent_id")
        cur = by_id.get((cur["trace_id"], pid)) if pid is not None else None
    names.reverse()
    collapsed = [names[0]]
    for name in names[1:]:
        if name != collapsed[-1]:
            collapsed.append(name)
    return tuple(collapsed)


def format_trace_summary(records: Iterable[dict]) -> str:
    """A flame-style text report: per-phase table plus aggregated tree."""
    records = list(records)
    if not records:
        return "(empty trace)"
    by_id = _parent_map(records)

    # Aggregated tree keyed by collapsed path; recursive spans merge into
    # their outermost occurrence.
    nodes: dict[tuple, dict] = {}
    for rec in records:
        parent = (by_id.get((rec["trace_id"], rec["parent_id"]))
                  if rec.get("parent_id") is not None else None)
        if parent is not None and parent["name"] == rec["name"]:
            continue  # inner recursion: already inside the outer span
        path = _collapsed_path(rec, by_id)
        node = nodes.setdefault(path, {"count": 0, "total": 0.0})
        node["count"] += 1
        node["total"] += rec["duration"]

    lines = ["spans by phase", "--------------"]
    table = summarize(records)
    name_w = max(len(n) for n in table)
    header = (f"{'phase'.ljust(name_w)}  {'count':>7}  {'total':>10}  "
              f"{'self':>10}  {'avg':>10}")
    lines.append(header)
    for name, agg in sorted(table.items(), key=lambda kv: -kv[1]["total"]):
        avg = agg["total"] / agg["count"] if agg["count"] else 0.0
        lines.append(
            f"{name.ljust(name_w)}  {agg['count']:>7}  "
            f"{agg['total']:>9.4f}s  {agg['self']:>9.4f}s  {avg:>9.6f}s"
        )

    lines += ["", "span tree (recursion collapsed)",
              "-------------------------------"]
    roots = sorted(p for p in nodes if len(p) == 1)

    def walk(path: tuple) -> None:
        node = nodes[path]
        indent = "  " * (len(path) - 1)
        lines.append(
            f"{indent}{path[-1]}  x{node['count']}  {node['total']:.4f}s"
        )
        children = [p for p in nodes if len(p) == len(path) + 1
                    and p[:len(path)] == path]
        for child in sorted(children, key=lambda p: -nodes[p]["total"]):
            walk(child)

    for root in roots:
        walk(root)
    return "\n".join(lines)


def chrome_trace(records: Iterable[dict]) -> dict:
    """Convert span records to Chrome trace-event format.

    Returns a JSON-able ``{"traceEvents": [...], "displayTimeUnit"}``
    dict loadable by ``chrome://tracing`` and Perfetto.  Each span
    becomes one complete (``"ph": "X"``) event with microsecond
    ``ts``/``dur``; the trace id is mapped to the ``pid`` lane and the
    span depth to ``tid``, so each request tree renders as its own
    process track with one row per nesting level.  Span/parent ids and
    attributes survive in ``args``.
    """
    events = []
    for rec in records:
        attrs = rec.get("attrs")
        args = dict(attrs) if isinstance(attrs, dict) else {}
        args["span_id"] = rec.get("span_id")
        if rec.get("parent_id") is not None:
            args["parent_id"] = rec["parent_id"]
        name = rec.get("name") or "<span>"
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": float(rec.get("start", 0.0)) * 1e6,
            "dur": float(rec.get("duration", 0.0)) * 1e6,
            "pid": rec.get("trace_id", 0),
            "tid": rec.get("depth", 0),
            "args": args,
        })
    events.sort(key=lambda ev: ev["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
