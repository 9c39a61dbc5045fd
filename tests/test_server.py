"""End-to-end tests for the HTTP serving layer (``repro.server``).

The contract under test is the one ``docs/SERVING.md`` documents:

- answers over HTTP are **bit-identical** to a serial in-process loop
  and to the reference matchers' scan, memory and disk indexes;
- requests that queue behind a running engine batch coalesce into the
  next one; a cached answer returns before admission and waits for none;
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
import time
from pathlib import Path

import pytest

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.ctree.shards import ShardSet
from repro.ctree.similarity_query import knn_query
from repro.ctree.subgraph_query import subgraph_query
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database
from repro.server import QueryServer, ServerConfig

from conftest import ORACLES, oracle_answers
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
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_memory_bit_identical_to_serial(self, golden, golden_tree,
                                            oracle):
        _, expected = golden
        srv = QueryServer(golden_tree, ServerConfig(port=0))
        with srv.run_in_thread() as handle:
            for case in expected["subgraph"]:
                want = oracle_answers(oracle, golden_tree,
                                      Graph.from_dict(case["query"]))
                status, payload = _post_json(
                    handle.port, "/query", {"query": case["query"]}
                )
                assert status == 200
                assert payload["answers"] == want == case["answers"]
                assert payload["stats"]["answers"] == len(want)

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

    def test_disk_and_shard_directory_answer_alike(self, golden, golden_tree,
                                                   tmp_path):
        """``/query`` and ``/knn`` over a disk index and over a 2-shard
        directory of the same corpus return identical lists, K-NN ties
        included."""
        db, expected = golden
        disk = DiskCTree.create(golden_tree, tmp_path / "golden.ctp")
        ShardSet.create(db, tmp_path / "golden.shards", shards=2,
                        min_fanout=3)
        requests = [("/query", {"query": case["query"]})
                    for case in expected["subgraph"]]
        requests += [("/knn", {"query": g.to_dict(), "k": k})
                     for g in db[::3] for k in (1, 4, 7)]
        served = []
        try:
            for index in (disk, ShardSet.open(tmp_path / "golden.shards")):
                with QueryServer(index, ServerConfig(port=0)) \
                        .run_in_thread() as handle:
                    served.append([
                        _post_json(handle.port, path, body)[1]
                        for path, body in requests])
        finally:
            disk.close()
        on_disk, on_shards = served
        for path_body, one, other in zip(requests, on_disk, on_shards):
            key = "answers" if path_body[0] == "/query" else "results"
            assert one[key] == other[key], path_body

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


    def test_workers_knn_bit_identical_to_serial(self, golden, golden_tree):
        """With W > 1 workers a lone ``/knn`` is split across the pool;
        the golden K-NN cases still come back as the serial loop's
        answers, tie order and stats included."""
        db, expected = golden
        srv = QueryServer(golden_tree, ServerConfig(port=0, workers=2))
        if not srv.engine._fork_ok:
            pytest.skip("fork start method unavailable")
        with srv.run_in_thread() as handle:
            for case in expected["knn"]:
                query = db[case["query_id"]]
                serial, stats = knn_query(golden_tree, query, case["k"])
                status, payload = _post_json(
                    handle.port, "/knn",
                    {"query": query.to_dict(), "k": case["k"]})
                assert status == 200
                assert srv.engine.last_batch.parallel
                assert [tuple(r) for r in payload["results"]] == serial
                want = stats.deterministic_dict()
                assert {key: payload["stats"][key] for key in want} == want

    def test_workers_subgraph_bit_identical_to_serial(self, golden,
                                                      golden_tree):
        """With W > 1 workers a lone ``/query`` miss is split across the
        pool; the golden subgraph cases still come back as the serial
        loop's answers and stats."""
        _, expected = golden
        srv = QueryServer(golden_tree, ServerConfig(port=0, workers=2))
        if not srv.engine._fork_ok:
            pytest.skip("fork start method unavailable")
        with srv.run_in_thread() as handle:
            for case in expected["subgraph"]:
                query = Graph.from_dict(case["query"])
                serial, stats = subgraph_query(golden_tree, query)
                status, payload = _post_json(handle.port, "/query",
                                             {"query": case["query"]})
                assert status == 200
                assert srv.engine.last_batch.parallel
                assert payload["answers"] == serial
                want = stats.deterministic_dict()
                assert {key: payload["stats"][key] for key in want} == want

    def test_shard_set_served_by_the_same_engine(self, golden, golden_tree):
        """One process per shard whatever ``workers`` says — and the
        server says so — with the single tree's answers."""
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
                assert payload["answers"] == serial


# ----------------------------------------------------------------------
# Coalescing, the pre-admission cache probe, and backpressure
# ----------------------------------------------------------------------
def _wait_until(condition, what: str, timeout: float = 30.0) -> None:
    """Block until ``condition()`` holds — a synchronization point, not
    a latency threshold."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


class GatedEngine:
    """Holds every ``query_many`` call of a server's engine on its
    executor thread until the test calls :meth:`open`, so requests can
    be piled up behind a running batch deterministically.  ``calls``
    records ``(level, batch size)`` per engine call, in dispatch order.
    """

    def __init__(self, srv: QueryServer) -> None:
        self.srv = srv
        self.calls: list[tuple] = []
        self._gate = threading.Event()
        inner = srv.engine.query_many

        def held(queries, level=1, verify=True):
            self.calls.append((level, len(queries)))
            assert self._gate.wait(30), "gate never opened"
            return inner(queries, level=level, verify=verify)

        srv.engine.query_many = held

    def open(self) -> None:
        self._gate.set()

    def wait_running(self, batches: int = 1) -> None:
        _wait_until(lambda: len(self.calls) >= batches,
                    f"engine batch {batches} to start")

    def wait_inflight(self, n: int) -> None:
        gauge = self.srv._registry.gauge("server.inflight")
        _wait_until(lambda: gauge.value >= n, f"{n} admitted requests")


def _counters(srv, *names):
    return {name: srv._registry.counter(name).value for name in names}


class TestCoalescing:
    def test_concurrent_clients_share_batches(self, golden, golden_tree):
        """Requests 2..N pile up behind a running batch and come out as
        exactly one second batch."""
        _, expected = golden
        cases = expected["subgraph"]
        srv = QueryServer(golden_tree, ServerConfig(port=0))
        names = ("server.coalesce.batches", "server.coalesce.queries",
                 "server.coalesce.coalesced")
        with srv.run_in_thread() as handle, \
                concurrent.futures.ThreadPoolExecutor(len(cases)) as pool:
            gate = GatedEngine(srv)
            before = _counters(srv, *names)

            def fire(case):
                return _post_json(handle.port, "/query",
                                  {"query": case["query"]})

            first = pool.submit(fire, cases[0])
            gate.wait_running()
            rest = [pool.submit(fire, case) for case in cases[1:]]
            gate.wait_inflight(len(cases))
            gate.open()
            results = [f.result() for f in [first, *rest]]
            after = _counters(srv, *names)
        for case, (status, payload) in zip(cases, results):
            assert status == 200
            assert sorted(payload["answers"]) == case["answers"]
        assert gate.calls == [(1, 1), (1, len(cases) - 1)]
        assert {n: after[n] - before[n] for n in names} == {
            "server.coalesce.batches": 2,
            "server.coalesce.queries": len(cases),
            "server.coalesce.coalesced": len(cases) - 2,
        }

    def test_mixed_parameter_groups_split_batches(self, golden,
                                                  golden_tree):
        """A backlog [L1, L2, L1, L1] runs as one L1 batch of 3 and one
        L2 batch of 1 — a foreign group does not end the batch."""
        _, expected = golden
        cases = expected["subgraph"]
        srv = QueryServer(golden_tree, ServerConfig(port=0))
        with srv.run_in_thread() as handle, \
                concurrent.futures.ThreadPoolExecutor(5) as pool:
            gate = GatedEngine(srv)

            def fire(case, level):
                return _post_json(
                    handle.port, "/query",
                    {"query": case["query"], "level": level})

            futures = [pool.submit(fire, cases[0], 1)]
            gate.wait_running()
            for n, (case, level) in enumerate(
                    zip(cases[1:5], (1, 2, 1, 1)), start=2):
                futures.append(pool.submit(fire, case, level))
                gate.wait_inflight(n)   # fixes the arrival order
            gate.open()
            results = [f.result() for f in futures]
        for case, (status, payload) in zip(cases, results):
            assert status == 200
            assert sorted(payload["answers"]) == case["answers"]
        assert gate.calls == [(1, 1), (1, 3), (2, 1)]

    def test_max_batch_caps_the_backlog(self, golden, golden_tree):
        _, expected = golden
        cases = expected["subgraph"][:6]
        srv = QueryServer(golden_tree, ServerConfig(port=0))
        srv.coalescer.max_batch = 2
        with srv.run_in_thread() as handle, \
                concurrent.futures.ThreadPoolExecutor(len(cases)) as pool:
            gate = GatedEngine(srv)
            futures = []
            for n, case in enumerate(cases, start=1):
                futures.append(pool.submit(
                    _post_json, handle.port, "/query",
                    {"query": case["query"]}))
                gate.wait_running() if n == 1 else gate.wait_inflight(n)
            gate.open()
            assert all(f.result()[0] == 200 for f in futures)
        assert gate.calls == [(1, 1), (1, 2), (1, 2), (1, 1)]

    def test_backpressure_returns_429(self, golden, golden_tree):
        """A capped client's second request is refused while its first
        is still held; other clients are unaffected."""
        _, expected = golden
        first, second = expected["subgraph"][:2]
        srv = QueryServer(golden_tree, ServerConfig(port=0, client_cap=1))
        headers = {"X-Client-Id": "tester"}
        with srv.run_in_thread() as handle, \
                concurrent.futures.ThreadPoolExecutor(2) as pool:
            gate = GatedEngine(srv)
            held = pool.submit(_post_json, handle.port, "/query",
                               {"query": first["query"]}, headers)
            gate.wait_running()
            status, hdrs, data = _request(
                handle.port, "POST", "/query",
                body={"query": second["query"]}, headers=headers)
            assert status == 429
            assert hdrs.get("Retry-After") == "1"
            assert json.loads(data)["error"]["code"] == "backpressure"
            assert srv.coalescer._inflight["tester"] == 1
            # Distinct clients are unaffected by one client's cap.
            other = pool.submit(_post_json, handle.port, "/query",
                                {"query": second["query"]},
                                {"X-Client-Id": "other"})
            gate.wait_inflight(2)
            gate.open()
            assert held.result()[0] == 200
            assert other.result()[0] == 200
            # ...and the cap is per in-flight request, not per lifetime.
            status, _ = _post_json(handle.port, "/query",
                                   {"query": second["query"]}, headers)
            assert status == 200
        assert srv._registry.counter(
            "server.backpressure.rejections").value >= 1


class TestCacheProbe:
    """A cached answer is returned before admission: it never enters a
    batch and never waits for one."""

    def test_hit_answered_while_a_batch_is_running(self, golden,
                                                   golden_tree):
        _, expected = golden
        warm, slow = expected["subgraph"][:2]
        srv = QueryServer(golden_tree, ServerConfig(port=0))
        names = ("server.coalesce.queries", "server.coalesce.batches",
                 "server.coalesce.bypassed", "engine.queries",
                 "engine.cache_hits", "engine.cache_misses")
        with srv.run_in_thread() as handle, \
                concurrent.futures.ThreadPoolExecutor(1) as pool:
            _, miss = _post_json(handle.port, "/query",
                                 {"query": warm["query"]})
            gate = GatedEngine(srv)
            held = pool.submit(_post_json, handle.port, "/query",
                               {"query": slow["query"]})
            gate.wait_running()
            before = _counters(srv, *names)
            status, hit = _post_json(handle.port, "/query",
                                     {"query": warm["query"]})
            moved = {n: v - before[n]
                     for n, v in _counters(srv, *names).items()}
            assert not held.done()      # ...the batch is still running
            gate.open()
            assert held.result()[0] == 200
        assert status == 200
        assert hit["answers"] == miss["answers"]
        assert hit["stats"] == miss["stats"]
        assert moved == {
            "server.coalesce.queries": 0, "server.coalesce.batches": 0,
            "server.coalesce.bypassed": 1, "engine.queries": 1,
            "engine.cache_hits": 1, "engine.cache_misses": 0,
        }

    @pytest.mark.parametrize("backend", ["memory", "disk", "sharded"])
    def test_hit_equals_the_miss_that_filled_the_cache(
            self, golden, golden_tree, tmp_path, backend):
        db, expected = golden
        if backend == "disk":
            index = DiskCTree.create(golden_tree, tmp_path / "golden.ctp")
        elif backend == "sharded":
            index = ShardSet.build_memory(db, 2, "hash", min_fanout=3)
        else:
            index = golden_tree
        try:
            srv = QueryServer(index, ServerConfig(port=0))
            bypassed = srv._registry.counter("server.coalesce.bypassed")
            with srv.run_in_thread() as handle:
                for path, body in [
                    ("/query", {"query": expected["subgraph"][0]["query"]}),
                    ("/query", {"query": expected["subgraph"][1]["query"],
                                "level": "max", "verify": False}),
                    ("/knn", {"query": db[3].to_dict(), "k": 4}),
                ]:
                    before = bypassed.value
                    _, miss = _post_json(handle.port, path, body)
                    assert bypassed.value == before
                    _, hit = _post_json(handle.port, path, body)
                    assert bypassed.value == before + 1
                    miss.pop("request_id"), hit.pop("request_id")
                    assert hit == miss
        finally:
            if backend == "disk":
                index.close()

    def test_capped_client_gets_429_even_for_a_hit(self, golden,
                                                   golden_tree):
        _, expected = golden
        warm, slow = expected["subgraph"][:2]
        srv = QueryServer(golden_tree, ServerConfig(port=0, client_cap=1))
        headers = {"X-Client-Id": "tester"}
        with srv.run_in_thread() as handle, \
                concurrent.futures.ThreadPoolExecutor(1) as pool:
            _post_json(handle.port, "/query", {"query": warm["query"]})
            gate = GatedEngine(srv)
            held = pool.submit(_post_json, handle.port, "/query",
                               {"query": slow["query"]}, headers)
            gate.wait_running()
            capped, _ = _post_json(handle.port, "/query",
                                   {"query": warm["query"]}, headers)
            free, _ = _post_json(handle.port, "/query",
                                 {"query": warm["query"]})
            gate.open()
            assert held.result()[0] == 200
        assert (capped, free) == (429, 200)

    def test_batch_window_is_not_a_setting(self):
        with pytest.raises(TypeError):
            ServerConfig(batch_window=0.01)
        assert ServerConfig().batch_window == 0.0


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
        # NBM is the one mapping: naming another is an unknown key.
        status, payload = _post_json(
            port, "/knn",
            {"query": graph, "k": 1, "mapping_method": "psychic"})
        assert (status, payload["error"]["code"]) == (400, "bad_param")
        assert "unknown request keys ['mapping_method']" in \
            payload["error"]["message"]

    @pytest.mark.parametrize("path, extra", [
        ("/query", {}), ("/knn", {"k": 1})], ids=["query", "knn"])
    @pytest.mark.parametrize("stream", [True, False])
    def test_stream_is_an_unknown_key(self, server, path, extra, stream):
        """An answer is one JSON body: ``"stream"`` is refused like any
        other key the endpoint does not take."""
        _, port = server
        status, payload = _post_json(
            port, path, {"query": {"labels": ["C"], "edges": []},
                         "stream": stream, **extra})
        assert (status, payload["error"]["code"]) == (400, "bad_param")
        assert "unknown request keys ['stream']" in \
            payload["error"]["message"]

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


class TestLargeAnswers:
    """An answer of any size is one ``application/json`` body."""

    N = 1000

    @pytest.fixture(scope="class")
    def large(self):
        db = [Graph(["C", "O"], [(0, 1)]) for _ in range(self.N)]
        tree = bulk_load(db, min_fanout=10)
        srv = QueryServer(tree, ServerConfig(port=0))
        with srv.run_in_thread() as handle:
            yield tree, db[0], handle.port

    def test_query_answers_in_one_body(self, large):
        tree, query, port = large
        serial, _ = subgraph_query(tree, query)
        assert len(serial) == self.N
        status, headers, data = _request(
            port, "POST", "/query",
            body={"query": query.to_dict()})
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        assert json.loads(data)["answers"] == serial

    def test_knn_answers_in_one_body(self, large):
        tree, query, port = large
        serial, _ = knn_query(tree, query, self.N)
        status, headers, data = _request(
            port, "POST", "/knn",
            body={"query": query.to_dict(), "k": self.N})
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        assert json.loads(data)["results"] == [list(r) for r in serial]


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

    def test_healthz_small_index_is_healthy(self, golden, tmp_path):
        """An index of at most M graphs is one leaf root of height 0 —
        non-empty and healthy, in memory and as the shards of a shard
        set (in memory and in a directory)."""
        db, _ = golden
        small = bulk_load(db[:5], min_fanout=3)
        assert small.height() == 0 and small.root.is_leaf
        indexes = [
            small,
            ShardSet.build_memory(db[:6], 2, min_fanout=3),
            ShardSet.create(db[:6], tmp_path / "leafy.shards", 2,
                            min_fanout=3),
        ]
        assert all(s.tree.height() == 0 for s in indexes[1].shards)
        for index in indexes:
            srv = QueryServer(index, ServerConfig(port=0, healthz_ttl=0.0))
            with srv.run_in_thread() as handle:
                status, _, data = _request(handle.port, "GET", "/healthz")
                assert status == 200, data
                assert json.loads(data)["status"] == "ok"
        empty = bulk_load(db[:1], min_fanout=3)
        empty.delete_many([0])
        assert empty.health()[0]  # empty is still healthy

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
