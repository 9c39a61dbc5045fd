"""Traced EXPLAIN capture: one observability artifact per bench run.

Boots a live :class:`~repro.server.QueryServer` (2 worker processes, so
the span tree provably crosses process boundaries), replays a handful of
``?explain=1`` queries with explicit ``X-Request-Id`` headers under an
enabled tracer, and gates on the observability layer's promises:

(a) **one tree** — every captured span reaches a ``server.request``
    root via :func:`repro.obs.trace.ancestry`, with ``coalescer.batch``
    and ``engine.batch`` on the path and worker-side ``engine.task``
    spans folded in from their shipped records;
(b) **EXPLAIN** — every response embeds a per-level profile whose
    pruning totals are internally consistent;
(c) **loadable artifact** — the Chrome trace-event export passes
    ``conftest.validate_chrome_trace`` and lands at
    ``benchmarks/results/trace_explain_chrome.json`` (uploaded by the
    CI bench-smoke job; open it in ``chrome://tracing`` or Perfetto).

Timing is deliberately not gated here — the tracing-overhead gates live
in ``tests/test_obs.py``, and the spine reports ``trace.overhead_share``.
"""

from __future__ import annotations

import http.client
import json

from conftest import RESULTS_DIR, validate_chrome_trace

from repro.ctree.bulkload import bulk_load
from repro.datasets.chemical import generate_chemical_database
from repro.datasets.queries import generate_subgraph_queries
from repro.obs import trace
from repro.server import QueryServer, ServerConfig

CHROME_TRACE_JSON = RESULTS_DIR / "trace_explain_chrome.json"

_QUERIES = 6
#: |D|, minimum fanout, query size and seed of the traced workload
_DATABASE_SIZE, _MIN_FANOUT, _QUERY_SIZE, _SEED = 150, 10, 8, 7


def _post_explain(port: int, request_id: str, query_dict: dict) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            "POST", "/query?explain=1",
            body=json.dumps({"query": query_dict}),
            headers={"X-Request-Id": request_id},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200, payload
        assert payload["request_id"] == request_id
        return payload
    finally:
        conn.close()


def test_traced_explain_capture(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    db = generate_chemical_database(_DATABASE_SIZE, seed=_SEED)
    tree = bulk_load(db, min_fanout=_MIN_FANOUT, seed=_SEED)
    queries = generate_subgraph_queries(db, _QUERY_SIZE, _QUERIES, seed=_SEED)

    sink = trace.enable()
    try:
        srv = QueryServer(tree, ServerConfig(
            port=0,
            workers=2,
            cache_size=0,  # cached answers skip the tree: no descent spans
        ))
        with srv.run_in_thread() as handle:
            payloads = [
                _post_explain(handle.port, f"bench-trace-{i:02d}",
                              q.to_dict())
                for i, q in enumerate(queries)
            ]
    finally:
        records = list(sink.records)
        trace.disable()

    # Gate (b): every response carries an internally consistent profile.
    for payload in payloads:
        profile = payload["explain"]
        assert profile["kind"] == "subgraph"
        levels = profile["levels"]
        assert levels, "EXPLAIN profile has no per-level rows"
        pruning = profile["pruning"]
        assert pruning["pruned_by_closure"] == sum(
            row["pruned_by_closure"] for row in levels)
        assert pruning["pruned_by_pseudo_iso"] == sum(
            row["pruned_by_pseudo_iso"] for row in levels)

    # Gate (a): a single tree per request, spanning server -> coalescer
    # -> engine -> worker processes.
    roots = [r for r in records if r["name"] == "server.request"]
    assert len(roots) == _QUERIES
    tasks = [r for r in records if r["name"] == "engine.task"]
    assert tasks, "no worker-side spans were folded into the trace"
    for task in tasks:
        chain = [r["name"] for r in trace.ancestry(task, records)]
        assert chain[-1] == "server.request", chain
        assert "coalescer.batch" in chain and "engine.batch" in chain
    worker_pids = {t["attrs"]["pid"] for t in tasks}
    assert worker_pids, "engine.task spans lost their pid attribute"

    # Gate (c): the Chrome export validates and lands on disk.
    chrome = trace.chrome_trace(records)
    events = validate_chrome_trace(chrome)
    assert events == len(records)
    RESULTS_DIR.mkdir(exist_ok=True)
    CHROME_TRACE_JSON.write_text(
        json.dumps(chrome, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"\n[{events} trace events ({len(roots)} request trees, "
          f"{len(tasks)} worker tasks across {len(worker_pids)} pids) "
          f"written to {CHROME_TRACE_JSON}]")
