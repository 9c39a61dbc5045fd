"""End-to-end tests for the HTTP serving layer (``repro.server``).

The contract under test is the one ``docs/SERVING.md`` documents:

- answers over HTTP are **bit-identical** to a serial in-process loop
  over the golden oracle — kernels on and off, memory and disk indexes;
- concurrent clients coalesce into shared engine batches;
- a client over its in-flight cap gets ``429`` (and nothing queues);
- malformed input gets typed 400-family errors, never a stack trace;
- ``GET /metrics`` parses with a minimal Prometheus text parser;
- ``/healthz`` flips to 503 when the disk index is corrupted.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import json
import threading
from pathlib import Path

import pytest

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.ctree.shards import ShardSet
from repro.ctree.similarity_query import knn_query
from repro.ctree.subgraph_query import subgraph_query
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database
from repro.matching import kernels
from repro.server import QueryServer, ServerConfig

from test_prometheus import parse_prometheus

_DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# Tiny HTTP client (stdlib, keep-alive capable)
# ----------------------------------------------------------------------
def _request(port, method, path, body=None, headers=None):
    """One HTTP exchange; returns ``(status, headers_dict, raw_body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None
        if body is not None:
            payload = body if isinstance(body, bytes) \
                else json.dumps(body).encode()
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), data
    finally:
        conn.close()


def _post_json(port, path, body, headers=None):
    status, _, data = _request(port, "POST", path, body=body,
                               headers=headers)
    return status, json.loads(data)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    db = load_graph_database(_DATA / "golden_chem.jsonl")
    expected = json.loads((_DATA / "golden_answers.json").read_text())
    return db, expected


@pytest.fixture(scope="module")
def golden_tree(golden):
    db, _ = golden
    return bulk_load(db, min_fanout=3)


@pytest.fixture()
def server(golden_tree):
    """A per-test memory-index server on an ephemeral port."""
    srv = QueryServer(golden_tree, ServerConfig(port=0))
    with srv.run_in_thread() as handle:
        yield srv, handle.port


# ----------------------------------------------------------------------
# Golden-oracle round trips
# ----------------------------------------------------------------------
class TestGoldenRoundTrip:
    @pytest.mark.parametrize("kernels_on", [True, False],
                             ids=["kernels", "reference"])
    def test_memory_bit_identical_to_serial(self, golden, golden_tree,
                                            kernels_on):
        _, expected = golden
        with kernels.use_kernels(kernels_on):
            srv = QueryServer(golden_tree, ServerConfig(port=0))
            with srv.run_in_thread() as handle:
                for case in expected["subgraph"]:
                    query = Graph.from_dict(case["query"])
                    serial, _ = subgraph_query(golden_tree, query)
                    status, payload = _post_json(
                        handle.port, "/query", {"query": case["query"]}
                    )
                    assert status == 200
                    assert payload["answers"] == serial
                    assert sorted(payload["answers"]) == case["answers"]
                    assert payload["stats"]["answers"] == len(serial)

    def test_disk_bit_identical_to_serial(self, golden, golden_tree,
                                          tmp_path):
        db, expected = golden
        path = tmp_path / "golden.ctp"
        disk = DiskCTree.create(golden_tree, path)
        try:
            srv = QueryServer(disk, ServerConfig(port=0))
            with srv.run_in_thread() as handle:
                for case in expected["subgraph"]:
                    query = Graph.from_dict(case["query"])
                    serial, _ = disk.subgraph_query(query)
                    status, payload = _post_json(
                        handle.port, "/query", {"query": case["query"]}
                    )
                    assert status == 200
                    assert payload["answers"] == serial
                # K-NN against the frozen oracle, same index.
                for case in expected["knn"]:
                    status, payload = _post_json(
                        handle.port, "/knn",
                        {"query": db[case["query_id"]].to_dict(),
                         "k": case["k"]},
                    )
                    assert status == 200
                    assert [gid for gid, _ in payload["results"]] \
                        == [gid for gid, _ in case["results"]]
                    assert [sim for _, sim in payload["results"]] \
                        == pytest.approx(
                            [sim for _, sim in case["results"]])
        finally:
            disk.close()

    def test_knn_matches_serial_memory(self, golden, golden_tree, server):
        db, _ = golden
        _, port = server
        serial, _ = knn_query(golden_tree, db[3], 5)
        status, payload = _post_json(
            port, "/knn", {"query": db[3].to_dict(), "k": 5})
        assert status == 200
        assert [tuple(r) for r in payload["results"]] \
            == [(gid, pytest.approx(sim)) for gid, sim in serial]

    def test_level_and_verify_parameters_respected(self, golden,
                                                   golden_tree, server):
        _, expected = golden
        _, port = server
        case = expected["subgraph"][0]
        query = Graph.from_dict(case["query"])
        candidates, _ = subgraph_query(golden_tree, query, level="max",
                                       verify=False)
        status, payload = _post_json(
            port, "/query",
            {"query": case["query"], "level": "max", "verify": False})
        assert status == 200
        assert payload["answers"] == candidates

    def test_workers_answer_identically(self, golden, golden_tree):
        """A pre-forked multi-worker pool must not change any answer."""
        _, expected = golden
        srv = QueryServer(golden_tree, ServerConfig(port=0, workers=2))
        if not srv.engine._fork_ok:
            pytest.skip("fork start method unavailable")
        with srv.run_in_thread() as handle:
            for case in expected["subgraph"]:
                query = Graph.from_dict(case["query"])
                serial, _ = subgraph_query(golden_tree, query)
                _, payload = _post_json(handle.port, "/query",
                                        {"query": case["query"]})
                assert payload["answers"] == serial


    def test_shard_set_served_by_the_same_engine(self, golden, golden_tree):
        """One process per shard whatever ``workers`` says — and the
        server says so — with answers in canonical (sorted) form."""
        db, expected = golden
        sset = ShardSet.build_memory(db, 2, "hash", min_fanout=3)
        srv = QueryServer(sset, ServerConfig(port=0, workers=4))
        if not srv.engine._fork_ok:
            pytest.skip("fork start method unavailable")
        assert srv._describe_workers() == "workers=2, --workers 4 unused"
        with srv.run_in_thread() as handle:
            _, _, body = _request(handle.port, "GET", "/")
            info = json.loads(body)
            assert info["workers"] == 2
            assert info["index"]["kind"] == "sharded"
            for case in expected["subgraph"]:
                query = Graph.from_dict(case["query"])
                serial, _ = subgraph_query(golden_tree, query)
                _, payload = _post_json(handle.port, "/query",
                                        {"query": case["query"]})
                assert payload["answers"] == sorted(serial)


# ----------------------------------------------------------------------
# Coalescing and backpressure
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_clients_share_batches(self, golden, golden_tree):
        db, expected = golden
        srv = QueryServer(
            golden_tree,
            ServerConfig(port=0, batch_window=0.25, max_batch=64),
        )
        reg = srv._registry
        with srv.run_in_thread() as handle:
            batches_before = reg.counter("server.coalesce.batches").value
            cases = expected["subgraph"]
            barrier = threading.Barrier(len(cases))

            def fire(case):
                barrier.wait()
                return _post_json(handle.port, "/query",
                                  {"query": case["query"]})

            with concurrent.futures.ThreadPoolExecutor(len(cases)) as pool:
                results = list(pool.map(fire, cases))
            for case, (status, payload) in zip(cases, results):
                assert status == 200
                assert sorted(payload["answers"]) == case["answers"]
            batches = (reg.counter("server.coalesce.batches").value
                       - batches_before)
            # All concurrent same-parameter requests coalesced into far
            # fewer engine batches than requests (1 in the common case;
            # allow slack for scheduler timing).
            assert 1 <= batches <= 2
            assert reg.counter("server.coalesce.coalesced").value >= \
                len(cases) - batches

    def test_mixed_parameter_groups_split_batches(self, golden,
                                                  golden_tree):
        _, expected = golden
        srv = QueryServer(golden_tree,
                          ServerConfig(port=0, batch_window=0.2))
        with srv.run_in_thread() as handle:
            case = expected["subgraph"][0]
            barrier = threading.Barrier(2)

            def fire(level):
                barrier.wait()
                return _post_json(
                    handle.port, "/query",
                    {"query": case["query"], "level": level})

            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                results = list(pool.map(fire, [1, 2]))
            for status, payload in results:
                assert status == 200
                assert sorted(payload["answers"]) == case["answers"]

    def test_backpressure_returns_429(self, golden, golden_tree):
        _, expected = golden
        srv = QueryServer(
            golden_tree,
            ServerConfig(port=0, batch_window=0.5, client_cap=1),
        )
        with srv.run_in_thread() as handle:
            case = expected["subgraph"][0]
            headers = {"X-Client-Id": "tester"}
            barrier = threading.Barrier(4)

            def fire(_):
                barrier.wait()
                return _request(
                    handle.port, "POST", "/query",
                    body={"query": case["query"]}, headers=headers)

            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                results = list(pool.map(fire, range(4)))
            statuses = sorted(status for status, _, _ in results)
            assert statuses.count(200) >= 1
            assert statuses.count(429) >= 1
            for status, hdrs, data in results:
                if status == 429:
                    assert hdrs.get("Retry-After") == "1"
                    assert json.loads(data)["error"]["code"] \
                        == "backpressure"
            # Distinct clients are unaffected by one client's cap.
            status, payload = _post_json(
                handle.port, "/query", {"query": case["query"]},
                headers={"X-Client-Id": "other"})
            assert status == 200
            assert srv._registry.counter(
                "server.backpressure.rejections").value >= 1


# ----------------------------------------------------------------------
# Validation and error paths
# ----------------------------------------------------------------------
class TestErrorPaths:
    def _error(self, port, path, body, headers=None):
        status, payload = _post_json(port, path, body, headers=headers)
        assert "error" in payload
        return status, payload["error"]["code"]

    def test_malformed_json_is_400(self, server):
        _, port = server
        status, _, data = _request(port, "POST", "/query",
                                   body=b"{not json")
        assert status == 400
        assert json.loads(data)["error"]["code"] == "bad_json"

    def test_empty_body_is_400(self, server):
        _, port = server
        status, _, data = _request(port, "POST", "/query", body=b"")
        assert status == 400
        assert json.loads(data)["error"]["code"] == "bad_json"

    @pytest.mark.parametrize("graph", [
        None,
        "not an object",
        {"labels": [], "edges": []},
        {"labels": ["C"], "edges": [[0]]},
        {"labels": ["C"], "edges": [["a", "b"]]},
        {"labels": ["C", "O"], "edges": [[0, 7]]},
        {"labels": ["C", "O"], "edges": [[0, 1]], "bogus": 1},
    ], ids=["missing", "string", "empty-labels", "short-edge",
            "string-endpoints", "out-of-range", "unknown-key"])
    def test_bad_graphs_are_400_bad_graph(self, server, graph):
        _, port = server
        status, code = self._error(port, "/query", {"query": graph})
        assert (status, code) == (400, "bad_graph")

    @pytest.mark.parametrize("body", [
        {"query": {"labels": ["C"], "edges": []}, "level": -1},
        {"query": {"labels": ["C"], "edges": []}, "level": "huge"},
        {"query": {"labels": ["C"], "edges": []}, "verify": "yes"},
        {"query": {"labels": ["C"], "edges": []}, "unknown_key": 1},
    ], ids=["negative-level", "bad-level-string", "string-verify",
            "unknown-request-key"])
    def test_bad_params_are_400_bad_param(self, server, body):
        _, port = server
        status, code = self._error(port, "/query", body)
        assert (status, code) == (400, "bad_param")

    def test_bad_k_and_mapping(self, server):
        _, port = server
        graph = {"labels": ["C"], "edges": []}
        status, code = self._error(port, "/knn",
                                   {"query": graph, "k": 0})
        assert (status, code) == (400, "bad_param")
        status, code = self._error(
            port, "/knn",
            {"query": graph, "k": 1, "mapping_method": "psychic"})
        assert (status, code) == (400, "bad_param")

    def test_unknown_path_is_404(self, server):
        _, port = server
        status, _, data = _request(port, "GET", "/nope")
        assert status == 404
        assert json.loads(data)["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, server):
        _, port = server
        status, _, data = _request(port, "GET", "/query")
        assert status == 405
        assert json.loads(data)["error"]["code"] == "method_not_allowed"

    def test_oversized_body_is_413(self, golden_tree):
        srv = QueryServer(golden_tree,
                          ServerConfig(port=0, max_body_bytes=1024))
        with srv.run_in_thread() as handle:
            status, _, data = _request(handle.port, "POST", "/query",
                                       body=b"x" * 2048)
            assert status == 413
            assert json.loads(data)["error"]["code"] == "payload_too_large"


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------
class TestStreaming:
    def test_stream_true_returns_ndjson(self, golden, golden_tree, server):
        _, expected = golden
        _, port = server
        case = expected["subgraph"][0]
        query = Graph.from_dict(case["query"])
        serial, _ = subgraph_query(golden_tree, query)
        status, headers, data = _request(
            port, "POST", "/query",
            body={"query": case["query"], "stream": True})
        assert status == 200
        assert headers["Content-Type"].startswith("application/x-ndjson")
        lines = [json.loads(line) for line in
                 data.decode().strip().splitlines()]
        head, records, trailer = lines[0], lines[1:-1], lines[-1]
        assert head["kind"] == "subgraph"
        assert head["count"] == len(serial)
        assert head["request_id"]
        assert [r["graph_id"] for r in records] == serial
        assert trailer["stats"]["answers"] == len(serial)

    def test_stream_threshold_forces_streaming(self, golden, golden_tree):
        _, expected = golden
        srv = QueryServer(golden_tree,
                          ServerConfig(port=0, stream_threshold=1))
        with srv.run_in_thread() as handle:
            case = expected["subgraph"][0]
            status, headers, data = _request(
                handle.port, "POST", "/query",
                body={"query": case["query"]})
            assert status == 200
            assert headers["Content-Type"].startswith(
                "application/x-ndjson")
            lines = [json.loads(line) for line in
                     data.decode().strip().splitlines()]
            assert sorted(r["graph_id"] for r in lines[1:-1]) \
                == case["answers"]

    def test_knn_streaming_records(self, golden, golden_tree, server):
        db, _ = golden
        _, port = server
        serial, _ = knn_query(golden_tree, db[0], 4)
        status, _, data = _request(
            port, "POST", "/knn",
            body={"query": db[0].to_dict(), "k": 4, "stream": True})
        assert status == 200
        lines = [json.loads(line) for line in
                 data.decode().strip().splitlines()]
        assert lines[0]["kind"] == "knn"
        assert lines[0]["count"] == len(serial)
        assert [(r["graph_id"], r["similarity"]) for r in lines[1:-1]] \
            == [(gid, pytest.approx(sim)) for gid, sim in serial]


# ----------------------------------------------------------------------
# Introspection endpoints
# ----------------------------------------------------------------------
class TestIntrospection:
    def test_info_endpoint(self, server):
        _, port = server
        status, _, data = _request(port, "GET", "/")
        payload = json.loads(data)
        assert status == 200
        assert payload["service"] == "repro-ctree"
        assert payload["index"]["kind"] == "memory"
        assert payload["index"]["graphs"] == 24

    def test_metrics_parse_and_count_requests(self, golden, server):
        _, expected = golden
        _, port = server
        case = expected["subgraph"][0]
        _post_json(port, "/query", {"query": case["query"]})
        status, headers, data = _request(port, "GET", "/metrics")
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]
        samples, types = parse_prometheus(data.decode())
        assert samples["server_http_requests_total"] >= 2
        assert types["server_http_requests_total"] == "counter"
        assert samples["server_queries_subgraph_total"] >= 1
        assert types["server_http_request_seconds"] == "histogram"
        assert samples["server_http_request_seconds_count"] >= 1

    def test_healthz_memory_index(self, server):
        _, port = server
        status, _, data = _request(port, "GET", "/healthz")
        payload = json.loads(data)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["probe"] == "memory"

    def test_healthz_disk_fsck_and_corruption_flip(self, golden_tree,
                                                   tmp_path):
        """/healthz is fsck-backed: clean 200 → corrupt the page file
        on disk → 503 with errors (ttl=0 probes every request)."""
        path = tmp_path / "flip.ctp"
        disk = DiskCTree.create(golden_tree, path)
        try:
            srv = QueryServer(disk,
                              ServerConfig(port=0, healthz_ttl=0.0))
            with srv.run_in_thread() as handle:
                status, _, data = _request(handle.port, "GET", "/healthz")
                payload = json.loads(data)
                assert status == 200
                assert payload["probe"] == "fsck"
                assert payload["clean"] is True
                assert payload["graphs"] == 24

                size = path.stat().st_size
                with open(path, "r+b") as fh:
                    fh.seek(size // 2)
                    fh.write(b"\xde\xad\xbe\xef" * 16)

                status, _, data = _request(handle.port, "GET", "/healthz")
                payload = json.loads(data)
                assert status == 503
                assert payload["status"] == "unhealthy"
                assert srv._registry.gauge("server.healthy").value == 0
                assert srv._registry.counter(
                    "server.healthz.failures").value >= 1
        finally:
            disk.close()

    def test_healthz_ttl_caches_probe(self, golden_tree, tmp_path):
        path = tmp_path / "ttl.ctp"
        disk = DiskCTree.create(golden_tree, path)
        try:
            srv = QueryServer(disk,
                              ServerConfig(port=0, healthz_ttl=60.0))
            reg = srv._registry
            with srv.run_in_thread() as handle:
                before = reg.counter("server.healthz.probes").value
                for _ in range(5):
                    status, _, _ = _request(handle.port, "GET", "/healthz")
                    assert status == 200
                assert reg.counter("server.healthz.probes").value \
                    == before + 1
        finally:
            disk.close()

    def test_keep_alive_connection_reuse(self, golden, server):
        _, expected = golden
        _, port = server
        case = expected["subgraph"][0]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for _ in range(3):
                conn.request("POST", "/query",
                             body=json.dumps({"query": case["query"]}))
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert sorted(payload["answers"]) == case["answers"]
        finally:
            conn.close()
