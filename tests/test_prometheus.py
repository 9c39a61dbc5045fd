"""Unit tests for the Prometheus text exporter (``repro.obs.prometheus``).

Includes a minimal-but-honest parser for the Prometheus text exposition
format v0.0.4 (comments, ``# TYPE`` lines, optional ``{labels}``,
``+Inf``/``NaN`` literals); ``tests/test_server.py`` reuses it to prove
the server's ``GET /metrics`` payload is scrapeable.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import (
    CONTENT_TYPE,
    help_text,
    prometheus_name,
    render_prometheus,
)

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)


def parse_prometheus(text: str) -> tuple[dict, dict]:
    """Parse exposition text into ``(samples, types)``.

    ``samples`` maps ``name`` or ``name{labels}`` to a float value;
    ``types`` maps metric name to its declared type.  Raises
    ``ValueError`` on any line that is not a comment, a blank line, or a
    well-formed sample — which is exactly what makes it a useful test
    oracle: unparseable output fails loudly.
    """
    samples: dict[str, float] = {}
    types: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"malformed TYPE line: {raw!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if not match:
            raise ValueError(f"unparseable sample line: {raw!r}")
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        key = match.group("name")
        if match.group("labels") is not None:
            key += "{" + match.group("labels") + "}"
        samples[key] = value
    return samples, types


def parse_help(text: str) -> dict[str, str]:
    """``# HELP`` lines as ``{metric_name: help_text}``."""
    helps: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or not parts[3]:
                raise ValueError(f"malformed HELP line: {raw!r}")
            helps[parts[2]] = parts[3]
    return helps


class TestNameSanitization:
    def test_dots_become_underscores(self):
        assert prometheus_name("engine.cache_hits") == "engine_cache_hits"
        assert (prometheus_name("server.http.request_seconds")
                == "server_http_request_seconds")

    def test_invalid_chars_and_digit_prefix(self):
        assert prometheus_name("a-b c") == "a_b_c"
        assert prometheus_name("2fast") == "_2fast"
        assert prometheus_name("") == "_"

    def test_colons_survive(self):
        assert prometheus_name("ns:metric") == "ns:metric"


class TestRender:
    def test_counter_gets_total_suffix_and_type(self):
        reg = MetricsRegistry()
        reg.counter("server.http.requests").inc(7)
        samples, types = parse_prometheus(render_prometheus(reg))
        assert samples["server_http_requests_total"] == 7
        assert types["server_http_requests_total"] == "counter"

    def test_gauge_renders_verbatim(self):
        reg = MetricsRegistry()
        reg.gauge("server.inflight").set(3)
        samples, types = parse_prometheus(render_prometheus(reg))
        assert samples["server_inflight"] == 3
        assert types["server_inflight"] == "gauge"

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            hist.observe(value)
        samples, types = parse_prometheus(render_prometheus(reg))
        assert types["lat"] == "histogram"
        assert samples['lat_bucket{le="0.1"}'] == 1
        assert samples['lat_bucket{le="1.0"}'] == 3
        assert samples['lat_bucket{le="10.0"}'] == 4
        assert samples['lat_bucket{le="+Inf"}'] == 4
        assert samples["lat_count"] == 4
        assert samples["lat_sum"] == pytest.approx(6.25)

    def test_histogram_overflow_lands_only_in_inf(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0,)).observe(100.0)
        samples, _ = parse_prometheus(render_prometheus(reg))
        assert samples['h_bucket{le="1.0"}'] == 0
        assert samples['h_bucket{le="+Inf"}'] == 1

    def test_sorted_and_newline_terminated(self):
        reg = MetricsRegistry()
        reg.counter("zz").inc()
        reg.counter("aa").inc()
        text = render_prometheus(reg)
        assert text.endswith("\n")
        assert text.index("aa_total") < text.index("zz_total")

    def test_empty_registry_is_still_valid_exposition(self):
        samples, types = parse_prometheus(render_prometheus(MetricsRegistry()))
        assert samples == {} and types == {}

    def test_special_float_values(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(math.inf)
        samples, _ = parse_prometheus(render_prometheus(reg))
        assert samples["g"] == math.inf

    def test_content_type_is_v004(self):
        assert "version=0.0.4" in CONTENT_TYPE

    def test_default_registry_is_global(self):
        from repro.obs.metrics import global_registry
        global_registry().counter("prometheus.test.sentinel").inc()
        samples, _ = parse_prometheus(render_prometheus())
        assert samples["prometheus_test_sentinel_total"] >= 1


class TestHelp:
    def test_every_family_has_help(self):
        reg = MetricsRegistry()
        reg.counter("server.http.requests").inc()
        reg.gauge("server.inflight").set(1)
        reg.histogram("engine.per_batch.wall_seconds",
                      bounds=(0.1, 1.0)).observe(0.2)
        text = render_prometheus(reg)
        samples, types = parse_prometheus(text)
        helps = parse_help(text)
        # every declared family (counter/gauge/histogram alike) carries
        # a non-empty HELP line under its exposed name
        assert set(helps) == set(types)
        assert all(helps.values())

    def test_help_precedes_type(self):
        reg = MetricsRegistry()
        reg.counter("server.http.requests").inc()
        lines = render_prometheus(reg).splitlines()
        assert lines[0].startswith("# HELP server_http_requests_total ")
        assert lines[1] == "# TYPE server_http_requests_total counter"

    def test_longest_prefix_wins(self):
        assert help_text("server.http.requests") \
            != help_text("server.inflight")
        assert "coalescing" in help_text("server.coalesce.batches").lower()
        assert "page" in help_text("bufferpool.hits").lower()

    def test_unknown_family_gets_fallback(self):
        text = help_text("totally.unknown.metric")
        assert "totally.unknown.metric" in text

    def test_slow_query_counters_have_help(self):
        assert "slow-query" in help_text("server.slow_queries")

    def test_help_output_stays_parseable(self):
        """The test-suite parser (reused by test_server for the live
        /metrics payload) accepts the HELP-annotated exposition."""
        reg = MetricsRegistry()
        for name in ("server.http.requests", "engine.cache_hits",
                     "ctree.query.count", "wal.appends",
                     "mystery.metric"):
            reg.counter(name).inc()
        samples, types = parse_prometheus(render_prometheus(reg))
        assert len(samples) == 5
        assert all(t == "counter" for t in types.values())
