"""End-to-end request tracing, EXPLAIN, request ids, and slow-query log.

The observability contract under test (``docs/OBSERVABILITY.md``):

- a traced HTTP query produces **one** span tree that crosses the
  asyncio server, the coalescer's executor thread, the engine, and the
  worker *processes*: ``server.request → coalescer.batch →
  engine.batch → engine.task → ctree.*`` — at several worker counts,
  over memory and disk indexes;
- ``?explain=1`` returns a per-level descent profile whose counts sum
  consistently with the ``ctree.*`` metrics the same query caused;
- every response envelope — success and error — carries a
  ``request_id`` (honoring a well-formed inbound ``X-Request-Id``);
- the slow-query log samples deterministically and writes NDJSON keyed
  by request id.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import socket

import pytest

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.ctree.subgraph_query import subgraph_query
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.server import (
    QueryServer,
    ServerConfig,
    SlowQueryLog,
    new_request_id,
    sanitize_request_id,
)

from test_server import _DATA, GatedEngine, _post_json, _request


@pytest.fixture(autouse=True)
def _tracing_off():
    yield
    trace.disable()


@pytest.fixture(scope="module")
def golden():
    db = load_graph_database(_DATA / "golden_chem.jsonl")
    expected = json.loads((_DATA / "golden_answers.json").read_text())
    return db, expected


@pytest.fixture(scope="module")
def golden_tree(golden):
    db, _ = golden
    return bulk_load(db, min_fanout=3)


def _raw_exchange(port: int, data: bytes) -> bytes:
    """One raw-socket exchange; reads until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(data)
        chunks = []
        while True:
            block = s.recv(65536)
            if not block:
                break
            chunks.append(block)
    return b"".join(chunks)


def _body_json(raw: bytes) -> dict:
    return json.loads(raw.split(b"\r\n\r\n", 1)[1])


# ----------------------------------------------------------------------
# One span tree across server -> coalescer -> engine -> workers
# ----------------------------------------------------------------------
class TestCrossProcessSpanTree:
    def _subtree(self, root: dict, records: list[dict]) -> list[dict]:
        """All records in ``root``'s tree (root included)."""
        children: dict = {}
        for rec in records:
            if rec.get("parent_id") is not None:
                key = (rec["trace_id"], rec["parent_id"])
                children.setdefault(key, []).append(rec)
        out, frontier = [], [root]
        while frontier:
            rec = frontier.pop()
            out.append(rec)
            frontier.extend(
                children.get((rec["trace_id"], rec["span_id"]), ())
            )
        return out

    def _serve_traced(self, index, workers: int, queries: list[dict]):
        """Run ``queries`` against a traced server — the first alone,
        the rest piled up behind it so they run as one coalesced batch
        across the worker processes; returns the span records."""
        sink = trace.enable()
        try:
            srv = QueryServer(index, ServerConfig(
                port=0, workers=workers, cache_size=0, client_cap=64,
            ))
            with srv.run_in_thread() as handle:
                gate = GatedEngine(srv)
                with concurrent.futures.ThreadPoolExecutor(
                        max_workers=len(queries)) as pool:
                    futures = []
                    for i, q in enumerate(queries):
                        futures.append(pool.submit(
                            _post_json, handle.port, "/query",
                            {"query": q},
                            {"X-Request-Id": f"req-{i:03d}",
                             "X-Client-Id": f"client-{i:03d}"},
                        ))
                        if i == 0:
                            gate.wait_running()
                    gate.wait_inflight(len(queries))
                    gate.open()
                    outcomes = [f.result() for f in futures]
            assert [size for _, size in gate.calls] == [1, len(queries) - 1]
            assert all(status == 200 for status, _ in outcomes)
            for i, (_, payload) in enumerate(outcomes):
                assert payload["request_id"] == f"req-{i:03d}"
        finally:
            trace.disable()
        return sink.records

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_single_tree_spans_processes(self, golden, golden_tree,
                                         tmp_path, workers, backend):
        db, _ = golden
        queries = [g.to_dict() for g in db[:16]]
        if backend == "disk":
            path = tmp_path / "golden.ctp"
            index = DiskCTree.create(golden_tree, path)
            try:
                records = self._serve_traced(index, workers, queries)
            finally:
                index.close()
        else:
            records = self._serve_traced(golden_tree, workers, queries)

        roots = [r for r in records if r["name"] == "server.request"]
        assert len(roots) == len(queries)

        # The coalesced batch parents under ONE request; pick the tree
        # that absorbed the batch and walk the whole chain inside it.
        trees = [self._subtree(root, records) for root in roots]
        tree = max(trees, key=lambda t: sum(
            1 for r in t if r["name"] == "engine.task"))
        names = {r["name"] for r in tree}
        assert {"server.request", "coalescer.batch",
                "engine.batch", "engine.task"} <= names
        assert any(n.startswith("ctree.") for n in names)

        # engine.task spans ran in >= 2 worker processes, none of them
        # this one.
        tasks = [r for r in tree if r["name"] == "engine.task"]
        assert len(tasks) >= 2
        pids = {t["attrs"]["pid"] for t in tasks}
        assert len(pids) >= 2
        assert os.getpid() not in pids

        # Chain shape: every engine.task reaches the server.request root
        # through coalescer.batch and engine.batch.
        for task in tasks:
            chain = [r["name"] for r in trace.ancestry(task, records)]
            assert chain[-1] == "server.request"
            assert "coalescer.batch" in chain
            assert "engine.batch" in chain
        # ctree.* descent spans hang under the worker tasks.
        task_ids = {t["span_id"] for t in tasks}
        descents = [
            r for r in tree if r["name"].startswith("ctree.")
            and any(a["span_id"] in task_ids
                    for a in trace.ancestry(r, records))
        ]
        assert descents

        # The batch span carries every coalesced member's request id.
        batch = next(r for r in tree if r["name"] == "coalescer.batch")
        assert set(batch["attrs"]["request_ids"]) \
            <= {f"req-{i:03d}" for i in range(len(queries))}

        # One coherent trace: every span in the tree shares the root's
        # trace id, and ids are unique.
        assert len({r["trace_id"] for r in tree}) == 1
        ids = [r["span_id"] for r in tree]
        assert len(ids) == len(set(ids))

    def test_cache_hit_is_marked_and_enters_no_batch(self, golden,
                                                     golden_tree):
        db, _ = golden
        sink = trace.enable()
        try:
            srv = QueryServer(golden_tree, ServerConfig(port=0))
            with srv.run_in_thread() as handle:
                for rid in ("miss-1", "hit-1"):
                    status, _ = _post_json(
                        handle.port, "/query", {"query": db[0].to_dict()},
                        {"X-Request-Id": rid})
                    assert status == 200
        finally:
            trace.disable()
        roots = {r["attrs"]["request_id"]: r for r in sink.records
                 if r["name"] == "server.request"}
        assert roots["hit-1"]["attrs"]["cache"] == "hit"
        assert "cache" not in roots["miss-1"]["attrs"]
        assert self._subtree(roots["hit-1"], sink.records) \
            == [roots["hit-1"]]
        assert "coalescer.batch" in {
            r["name"] for r in self._subtree(roots["miss-1"], sink.records)}

    def test_untraced_requests_emit_nothing(self, golden, golden_tree):
        db, _ = golden
        assert not trace.enabled()
        srv = QueryServer(golden_tree, ServerConfig(port=0, workers=2,
                                                    cache_size=0))
        with srv.run_in_thread() as handle:
            status, payload = _post_json(handle.port, "/query",
                                         {"query": db[0].to_dict()})
        assert status == 200 and payload["answers"]


# ----------------------------------------------------------------------
# ?explain=1
# ----------------------------------------------------------------------
class TestExplain:
    def test_explain_counts_sum_consistently(self, golden, golden_tree):
        _, expected = golden
        case = expected["subgraph"][0]
        registry = global_registry()
        srv = QueryServer(golden_tree, ServerConfig(port=0, cache_size=0))
        with srv.run_in_thread() as handle:
            before = registry.snapshot()
            status, payload = _post_json(handle.port, "/query?explain=1",
                                         {"query": case["query"]})
        assert status == 200
        profile = payload["explain"]
        assert profile["kind"] == "subgraph"
        levels = profile["levels"]
        pruning = profile["pruning"]

        # Per-level counts sum to the totals block...
        assert sum(lv["tested"] for lv in levels) \
            == pruning["histogram_tests"]
        assert sum(lv["pruned_by_closure"] for lv in levels) \
            == pruning["pruned_by_closure"]
        assert sum(lv["pruned_by_pseudo_iso"] for lv in levels) \
            == pruning["pruned_by_pseudo_iso"]
        for lv in levels:
            assert lv["tested"] - lv["pruned_by_closure"] \
                == lv["histogram_survivors"]
            assert lv["histogram_survivors"] - lv["pruned_by_pseudo_iso"] \
                == lv["pseudo_survivors"]
        assert levels[-1]["pseudo_survivors"] == pruning["candidates"]
        # Only graphs are pseudo-iso tested: Σx = R, and x at the leaf
        # depth is the pseudo_iso_tests total
        assert levels[-1]["histogram_survivors"] \
            == pruning["pseudo_iso_tests"]
        assert all(lv["pruned_by_pseudo_iso"] == 0 for lv in levels[:-1])
        assert sum(lv["histogram_survivors"] for lv in levels) \
            == pruning["histogram_tests"] - pruning["pruned_by_closure"] \
            == profile["access_ratio"] * profile["database_size"]

        # ...and to the ctree.* metrics delta the same query caused.
        delta = registry.diff(before)
        assert delta["ctree.query.histogram_tests"]["value"] \
            == pruning["histogram_tests"]
        assert delta["ctree.query.pseudo_tests"]["value"] \
            == pruning["pseudo_iso_tests"]
        assert delta["ctree.query.candidates"]["value"] \
            == pruning["candidates"]

        # The profile matches the serial API's own explain().
        query = Graph.from_dict(case["query"])
        _, stats = subgraph_query(golden_tree, query)
        local = stats.explain()
        assert local["levels"] == levels
        assert local["pruning"] == pruning
        assert payload["stats"]["candidates"] == pruning["candidates"]

    def test_explain_absent_by_default(self, golden, golden_tree):
        _, expected = golden
        srv = QueryServer(golden_tree, ServerConfig(port=0))
        with srv.run_in_thread() as handle:
            _, payload = _post_json(
                handle.port, "/query",
                {"query": expected["subgraph"][0]["query"]})
        assert "explain" not in payload

    def test_explain_on_knn(self, golden, golden_tree):
        db, _ = golden
        srv = QueryServer(golden_tree, ServerConfig(port=0))
        with srv.run_in_thread() as handle:
            status, payload = _post_json(
                handle.port, "/knn?explain=1",
                {"query": db[0].to_dict(), "k": 3})
        assert status == 200
        profile = payload["explain"]
        assert profile["kind"] == "knn"
        assert profile["expansion"]["results"] == len(payload["results"])
        assert profile["expansion"]["nodes_expanded"] >= 1

    def test_explain_disk_reports_page_io(self, golden, golden_tree,
                                          tmp_path):
        _, expected = golden
        disk = DiskCTree.create(golden_tree, tmp_path / "g.ctp")
        try:
            srv = QueryServer(disk, ServerConfig(port=0))
            with srv.run_in_thread() as handle:
                status, payload = _post_json(
                    handle.port, "/query?explain=1",
                    {"query": expected["subgraph"][0]["query"]})
        finally:
            disk.close()
        assert status == 200
        page_io = payload["explain"]["page_io"]
        assert page_io["hits"] + page_io["misses"] > 0
        assert 0.0 <= page_io["hit_ratio"] <= 1.0


# ----------------------------------------------------------------------
# Request ids in every envelope
# ----------------------------------------------------------------------
class TestRequestIds:
    def test_sanitize_request_id(self):
        assert sanitize_request_id("abc-123.X_y") == "abc-123.X_y"
        assert sanitize_request_id("a" * 64) == "a" * 64
        assert sanitize_request_id("a" * 65) is None
        assert sanitize_request_id("no spaces") is None
        assert sanitize_request_id("") is None
        assert sanitize_request_id(None) is None
        assert sanitize_request_id("bad\r\nheader") is None

    def test_new_request_id_shape(self):
        rid = new_request_id()
        assert sanitize_request_id(rid) == rid
        assert len(rid) == 16
        assert new_request_id() != rid

    @pytest.fixture()
    def server(self, golden_tree):
        srv = QueryServer(golden_tree, ServerConfig(port=0))
        with srv.run_in_thread() as handle:
            yield handle.port

    def test_id_generated_and_echoed(self, golden, server):
        _, expected = golden
        status, headers, data = _request(
            server, "POST", "/query",
            body={"query": expected["subgraph"][0]["query"]})
        payload = json.loads(data)
        assert status == 200
        assert payload["request_id"] == headers["X-Request-Id"]
        assert sanitize_request_id(payload["request_id"])

    def test_inbound_id_honored(self, golden, server):
        _, expected = golden
        status, headers, data = _request(
            server, "POST", "/query",
            body={"query": expected["subgraph"][0]["query"]},
            headers={"X-Request-Id": "my-trace-0001"})
        assert status == 200
        assert json.loads(data)["request_id"] == "my-trace-0001"
        assert headers["X-Request-Id"] == "my-trace-0001"

    def test_invalid_inbound_id_replaced(self, golden, server):
        _, expected = golden
        status, _, data = _request(
            server, "POST", "/query",
            body={"query": expected["subgraph"][0]["query"]},
            headers={"X-Request-Id": "not ok!"})
        payload = json.loads(data)
        assert status == 200
        assert payload["request_id"] != "not ok!"
        assert sanitize_request_id(payload["request_id"])

    @pytest.mark.parametrize("method,path,body,status", [
        ("GET", "/nope", None, 404),
        ("DELETE", "/query", None, 405),
        ("POST", "/query", b"not json", 400),
    ])
    def test_app_errors_echo_inbound_id(self, server, method, path, body,
                                        status):
        got, headers, data = _request(server, method, path, body=body,
                                      headers={"X-Request-Id": "err-42"})
        payload = json.loads(data)
        assert got == status
        assert payload["request_id"] == "err-42"
        assert headers["X-Request-Id"] == "err-42"
        assert payload["error"]["code"]

    def test_413_echoes_inbound_id(self, golden_tree):
        srv = QueryServer(golden_tree,
                          ServerConfig(port=0, max_body_bytes=512))
        with srv.run_in_thread() as handle:
            status, _, data = _request(
                handle.port, "POST", "/query", body=b"x" * 2048,
                headers={"X-Request-Id": "big-1"})
        payload = json.loads(data)
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"
        assert payload["request_id"] == "big-1"

    def test_501_echoes_inbound_id(self, server):
        raw = _raw_exchange(server, (
            b"POST /query HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"X-Request-Id: chunked-7\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n"
        ))
        assert raw.startswith(b"HTTP/1.1 501 ")
        payload = _body_json(raw)
        assert payload["error"]["code"] == "unsupported_transfer_encoding"
        assert payload["request_id"] == "chunked-7"

    def test_431_mints_an_id(self, server):
        raw = _raw_exchange(server, (
            b"GET /info HTTP/1.1\r\n"
            b"X-Request-Id: lost-in-the-noise\r\n"
            b"X-Filler: " + b"a" * (20 * 1024) + b"\r\n"
            b"\r\n"
        ))
        assert raw.startswith(b"HTTP/1.1 431 ")
        payload = _body_json(raw)
        assert payload["error"]["code"] == "headers_too_large"
        # Headers were never parsed, so the id is freshly minted.
        assert sanitize_request_id(payload["request_id"])

    def test_500_carries_request_id(self, golden, golden_tree):
        _, expected = golden
        srv = QueryServer(golden_tree, ServerConfig(port=0))

        def boom(*args, **kwargs):
            raise RuntimeError("index on fire")

        with srv.run_in_thread() as handle:
            srv.coalescer.engine.query_many = boom
            status, _, data = _request(
                handle.port, "POST", "/query",
                body={"query": expected["subgraph"][0]["query"]},
                headers={"X-Request-Id": "fire-9"})
        payload = json.loads(data)
        assert status == 500
        assert payload["error"]["code"] == "internal"
        assert payload["request_id"] == "fire-9"


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------
class TestSlowQueryLog:
    def test_threshold_filters(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        reg = MetricsRegistry()
        log = SlowQueryLog(str(tmp_path / "slow.ndjson"), threshold=0.5,
                           registry=reg)
        assert not log.record("r1", "POST", "/query", 0.1)
        assert log.record("r2", "POST", "/query", 0.9)
        log.close()
        lines = [json.loads(line) for line in
                 (tmp_path / "slow.ndjson").read_text().splitlines()]
        assert [rec["request_id"] for rec in lines] == ["r2"]
        assert lines[0]["seconds"] == 0.9
        assert lines[0]["threshold"] == 0.5
        assert lines[0]["method"] == "POST"
        assert reg.counter("server.slow_queries").value == 1

    def test_no_path_only_counts(self):
        from repro.obs.metrics import MetricsRegistry
        reg = MetricsRegistry()
        log = SlowQueryLog(None, threshold=0.0, registry=reg)
        assert log.record("r0", "POST", "/query", 1.0)
        log.close()
        assert reg.counter("server.slow_queries").value == 1

    def test_server_writes_slow_log(self, golden, golden_tree, tmp_path):
        _, expected = golden
        path = tmp_path / "slow.ndjson"
        srv = QueryServer(golden_tree, ServerConfig(
            port=0, slow_query_seconds=0.0, slow_query_path=str(path),
        ))
        with srv.run_in_thread() as handle:
            status, payload = _post_json(
                handle.port, "/query",
                {"query": expected["subgraph"][0]["query"]},
                {"X-Request-Id": "slow-1"})
        assert status == 200
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        mine = [rec for rec in lines if rec["request_id"] == "slow-1"]
        assert len(mine) == 1
        assert mine[0]["path"] == "/query"
        assert mine[0]["seconds"] >= 0.0
