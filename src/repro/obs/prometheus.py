"""Prometheus text-exposition rendering for :class:`MetricsRegistry`.

The registry's dotted metric names (``engine.cache_hits``,
``bufferpool.hits``) map onto the Prometheus data model as follows:

- dots (and any other character outside ``[a-zA-Z0-9_:]``) become
  underscores — ``engine.cache_hits`` renders as ``engine_cache_hits``;
- :class:`~repro.obs.metrics.Counter` values gain the conventional
  ``_total`` suffix and a ``# TYPE ... counter`` line;
- :class:`~repro.obs.metrics.Gauge` values render verbatim as gauges;
- :class:`~repro.obs.metrics.Histogram` values render in the native
  Prometheus histogram form: *cumulative* ``_bucket{le="..."}`` series
  (our buckets store per-bin counts, so this module does the cumulative
  sum), a ``{le="+Inf"}`` bucket equal to the observation count, and
  ``_sum`` / ``_count`` series;
- every family gets a ``# HELP`` line, derived from the dotted-prefix
  taxonomy documented in ``docs/OBSERVABILITY.md``.

The output conforms to the Prometheus `text exposition format v0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ and is
what the query server's ``GET /metrics`` endpoint returns
(``docs/SERVING.md``).

Examples
--------
>>> from repro.obs.metrics import MetricsRegistry
>>> reg = MetricsRegistry()
>>> reg.counter("server.http.requests").inc(3)
>>> print(render_prometheus(reg), end="")
# HELP server_http_requests_total HTTP requests/responses of the query server (repro.server).
# TYPE server_http_requests_total counter
server_http_requests_total 3
"""

from __future__ import annotations

import math
import re
from typing import Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)

__all__ = ["CONTENT_TYPE", "help_text", "prometheus_name",
           "render_prometheus"]

#: The Content-Type a Prometheus scraper expects for this payload.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: Help text per dotted-name prefix (longest prefix wins); the taxonomy
#: mirrors the metric-family table in ``docs/OBSERVABILITY.md``.
_HELP_PREFIXES: tuple[tuple[str, str], ...] = (
    ("server.http.", "HTTP requests/responses of the query server "
                     "(repro.server)."),
    ("server.coalesce.", "Batch coalescing of concurrent requests into "
                         "engine batches."),
    ("server.backpressure.", "Per-client admission control (HTTP 429)."),
    ("server.healthz.", "Health probes run by GET /healthz."),
    ("server.slow_queries", "Requests exceeding the slow-query "
                            "threshold (see ServerConfig)."),
    ("server.queries.", "Queries answered by the server, by kind."),
    ("server.", "The HTTP serving layer (repro.server)."),
    ("engine.", "The batched parallel query engine "
                "(repro.ctree.parallel)."),
    ("ctree.query.", "Subgraph query execution over the Closure-Tree."),
    ("ctree.knn.", "K-NN / range query execution over the "
                   "Closure-Tree."),
    ("ctree.disk.", "Disk-resident Closure-Tree maintenance."),
    ("ctree.", "Closure-Tree index maintenance."),
    ("matching.", "Graph matching kernels (heuristic mappings and "
                  "pseudo-isomorphism)."),
    ("bufferpool.", "LRU page cache over the disk index."),
    ("pagefile.", "Physical page I/O of the disk index."),
    ("wal.", "Write-ahead log of the crash-safe disk index."),
    ("recovery.", "Crash recovery of the disk index."),
    ("faultfs.", "Deterministic fault-injection test layer."),
    ("graphgrep.", "The GraphGrep baseline."),
    ("labelspace.", "Sizes of the process-wide label interner's "
                    "append-only tables."),
)


def help_text(name: str) -> str:
    """The ``# HELP`` text for registry metric ``name`` (dotted form).

    Resolved by longest matching prefix of the taxonomy table; unknown
    families fall back to a generic description.

    >>> help_text("pagefile.reads")
    'Physical page I/O of the disk index.'
    """
    best = ""
    best_len = -1
    for prefix, text in _HELP_PREFIXES:
        if name.startswith(prefix) and len(prefix) > best_len:
            best, best_len = text, len(prefix)
    return best or f"Metric {name} of the repro Closure-Tree stack."


def _escape_help(text: str) -> str:
    """Escape a HELP line per the exposition format (backslash, LF)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def prometheus_name(name: str) -> str:
    """Sanitize a registry metric name into a legal Prometheus name.

    >>> prometheus_name("engine.per_batch.wall_seconds")
    'engine_per_batch_wall_seconds'
    """
    sanitized = _INVALID_CHARS.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value) -> str:
    """A Prometheus-parseable number literal (handles the IEEE specials)."""
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        return repr(value)
    return str(value)


def _render_histogram(lines: list[str], name: str, hist: Histogram,
                      help_line: str) -> None:
    """Append one histogram's cumulative bucket/sum/count series."""
    lines.append(f"# HELP {name} {help_line}")
    lines.append(f"# TYPE {name} histogram")
    cumulative = 0
    for bound, count in zip(hist.bounds, hist.bucket_counts):
        cumulative += count
        lines.append(
            f'{name}_bucket{{le="{_format_value(float(bound))}"}} '
            f"{cumulative}"
        )
    lines.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
    lines.append(f"{name}_sum {_format_value(hist.total)}")
    lines.append(f"{name}_count {hist.count}")


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Render ``registry`` (default: the process-wide one) as Prometheus
    exposition text, metrics sorted by name.

    Examples
    --------
    >>> from repro.obs.metrics import MetricsRegistry
    >>> reg = MetricsRegistry()
    >>> reg.gauge("server.inflight").set(2)
    >>> print(render_prometheus(reg), end="")
    # HELP server_inflight The HTTP serving layer (repro.server).
    # TYPE server_inflight gauge
    server_inflight 2
    """
    reg = registry if registry is not None else global_registry()
    lines: list[str] = []
    for name in reg.names():
        metric = reg.get(name)
        exposed = prometheus_name(name)
        help_line = _escape_help(help_text(name))
        if isinstance(metric, Counter):
            lines.append(f"# HELP {exposed}_total {help_line}")
            lines.append(f"# TYPE {exposed}_total counter")
            lines.append(f"{exposed}_total {_format_value(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# HELP {exposed} {help_line}")
            lines.append(f"# TYPE {exposed} gauge")
            lines.append(f"{exposed} {_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            _render_histogram(lines, exposed, metric, help_line)
    return "\n".join(lines) + "\n" if lines else "\n"
