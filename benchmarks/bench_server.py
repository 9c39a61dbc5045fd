"""HTTP serving benchmark: concurrent clients through the coalescer.

Replays a skewed query log (Zipf-repeated queries,
:func:`~repro.experiments.subgraph_experiments.skewed_query_log`)
against a live :class:`~repro.server.QueryServer`
from N concurrent HTTP clients and gates on the serving layer's two
core promises:

(a) **identical answers** — every HTTP response matches a serial
    in-process ``subgraph_query`` loop over the same log, bit for bit;
(b) **no request waits for nothing, none is lost** — every request is
    either answered from the cache before admission or admitted into a
    batch (``queries + bypassed == requests``), and with the cache off
    (so every request must be admitted) the backlog behind each running
    engine call demonstrably rides in shared batches: fewer batches
    than requests, with no timer holding anyone back;
(c) **tracing is free when off** — the per-request cost of the
    disabled instrumentation (request-id mint + nested no-op spans),
    microbenched in-process, stays under ``TRACING_OVERHEAD_CAP`` of
    this run's own mean request latency.

Latency/throughput are reported (serial loop vs HTTP wall time) but not
gated — CI boxes are too noisy for timing floors across a socket.  The
tracing-overhead gate is a *ratio* against the same run's latency, so
machine speed cancels out.

Writes ``BENCH_server.json`` at the repo root (schema
``server-bench-v1``, uploaded as a CI artifact) plus the usual
``record_figure`` table.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import json
import time

import conftest
from conftest import (
    SERVER,
    SERVER_BENCH_JSON,
    SERVER_BENCH_SCHEMA,
    record_figure,
)

from repro.ctree.bulkload import bulk_load
from repro.ctree.subgraph_query import subgraph_query
from repro.datasets.chemical import generate_chemical_database
from repro.datasets.queries import generate_subgraph_queries
from repro.experiments.subgraph_experiments import skewed_query_log
from repro.obs import trace
from repro.server import QueryServer, ServerConfig, new_request_id

#: Tracing must be pay-for-what-you-use: with no sink enabled, the
#: instrumentation on the request path may cost at most this fraction
#: of a mean request's latency.
TRACING_OVERHEAD_CAP = 0.02


def _tracing_overhead_per_request(reps: int = 2000) -> float:
    """Per-request cost of the disabled-tracing instrumentation.

    Times ``reps`` iterations of what every untraced request pays: a
    request-id mint plus the three nested no-op spans on its hot path
    (``server.request`` -> ``coalescer.batch`` -> ``engine.batch``),
    and returns the mean seconds per iteration.  Measured with the
    tracer off, exactly like the serving benchmark itself.
    """
    assert not trace.enabled(), "overhead microbench needs tracing off"
    start = time.perf_counter()
    for _ in range(reps):
        new_request_id()
        with trace.span("server.request"):
            with trace.span("coalescer.batch"):
                with trace.span("engine.batch"):
                    pass
    return (time.perf_counter() - start) / reps


def _post_query(port: int, query_dict: dict) -> list[int]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/query",
                     body=json.dumps({"query": query_dict}))
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200, payload
        return payload["answers"]
    finally:
        conn.close()


_COUNTERS = ("server.coalesce.batches", "server.coalesce.queries",
             "server.coalesce.coalesced", "server.coalesce.bypassed")


def _replay(tree, payloads: list[dict], cache_size: int):
    """Serve ``payloads`` from ``SERVER.clients`` concurrent clients;
    returns ``(answers, wall seconds, server.coalesce.* deltas)``."""
    srv = QueryServer(tree, ServerConfig(
        port=0,
        max_batch=SERVER.max_batch,
        cache_size=cache_size,
        client_cap=SERVER.requests,  # benchmark measures coalescing, not 429s
    ))
    reg = srv._registry
    before = {name: reg.counter(name).value for name in _COUNTERS}
    with srv.run_in_thread() as handle:
        start = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(SERVER.clients) as pool:
            answers = list(pool.map(
                lambda p: _post_query(handle.port, p), payloads))
        seconds = time.perf_counter() - start
    delta = {name.rsplit(".", 1)[1]: reg.counter(name).value - value
             for name, value in before.items()}
    return answers, seconds, delta


def test_server_throughput(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    db = generate_chemical_database(SERVER.database_size, seed=SERVER.seed)
    tree = bulk_load(db, min_fanout=SERVER.min_fanout, seed=SERVER.seed)
    unique = generate_subgraph_queries(
        db, SERVER.query_size, SERVER.unique_queries, seed=SERVER.seed
    )
    log = skewed_query_log(unique, SERVER.requests, SERVER.seed)
    payloads = [q.to_dict() for q in log]

    serial_start = time.perf_counter()
    serial = [subgraph_query(tree, q)[0] for q in log]
    serial_seconds = time.perf_counter() - serial_start

    answers, http_seconds, delta = _replay(tree, payloads,
                                           SERVER.cache_size)
    # The same log with the answer cache off: nothing can bypass, so
    # this is the run that shows what the backlog does to batching.
    uncached, backlog_seconds, backlog = _replay(tree, payloads, 0)

    # Gate (a): bit-identical to the serial loop, in request order.
    identical = answers == serial and uncached == serial
    assert identical, "HTTP answers diverged from the serial loop"

    # Gate (b): a request is answered before admission or admitted —
    # never both, never neither — and under backlog requests share
    # batches without any timer to wait on.
    requests = SERVER.requests
    batches = delta["batches"]
    assert delta["queries"] + delta["bypassed"] == requests
    assert backlog["bypassed"] == 0 and backlog["queries"] == requests
    assert 1 <= backlog["batches"] < requests, (
        f"no coalescing: {backlog['batches']} batches for {requests} "
        f"requests"
    )

    # Gate (c): disabled tracing is effectively free.  Compare the
    # microbenched per-request instrumentation cost against this run's
    # own mean request latency (wall time x clients / requests — what a
    # single request experienced on average).
    overhead_seconds = _tracing_overhead_per_request()
    mean_latency = http_seconds * SERVER.clients / requests
    overhead_fraction = (overhead_seconds / mean_latency
                         if mean_latency else 0.0)
    assert overhead_fraction < TRACING_OVERHEAD_CAP, (
        f"disabled tracing costs {overhead_fraction:.2%} of a mean "
        f"request ({overhead_seconds * 1e6:.1f}us of "
        f"{mean_latency * 1e3:.2f}ms); cap is {TRACING_OVERHEAD_CAP:.0%}"
    )

    throughput = requests / http_seconds if http_seconds else float("inf")
    serial_throughput = (requests / serial_seconds
                         if serial_seconds else float("inf"))
    record_figure(
        "server_throughput",
        f"HTTP serving: {SERVER.clients} concurrent clients, "
        f"{SERVER.unique_queries} distinct queries x {requests} requests "
        f"(chemical, |D|={SERVER.database_size})",
        "path",
        ["serial loop", "http server", "http server, cache off"],
        {
            "wall (s)": [serial_seconds, http_seconds, backlog_seconds],
            "throughput (q/s)": [serial_throughput, throughput,
                                 requests / backlog_seconds],
            "answered before admission": [0, delta["bypassed"], 0],
            "engine batches": [requests, batches, backlog["batches"]],
        },
        float_format="{:.3f}",
    )

    payload = {
        "schema": SERVER_BENCH_SCHEMA,
        "quick": conftest._QUICK,
        "workload": {
            "dataset": "chemical",
            "database_size": SERVER.database_size,
            "unique_queries": SERVER.unique_queries,
            "requests": requests,
            "query_size": SERVER.query_size,
            "clients": SERVER.clients,
            "max_batch": SERVER.max_batch,
            "cache_size": SERVER.cache_size,
            "seed": SERVER.seed,
        },
        "serial_seconds": serial_seconds,
        "http_seconds": http_seconds,
        "throughput": throughput,
        "coalescing": {
            "requests": requests,
            "bypassed": delta["bypassed"],
            "admitted": delta["queries"],
            "batches": batches,
            "coalesced": delta["coalesced"],
        },
        "backlog": {
            "cache_size": 0,
            "requests": requests,
            "admitted": backlog["queries"],
            "batches": backlog["batches"],
            "coalesced": backlog["coalesced"],
            "mean_batch_size": requests / backlog["batches"],
            "http_seconds": backlog_seconds,
        },
        "tracing_overhead": {
            "per_request_seconds": overhead_seconds,
            "mean_request_latency_seconds": mean_latency,
            "fraction_of_latency": overhead_fraction,
            "cap": TRACING_OVERHEAD_CAP,
        },
        "gate": {
            "identical_answers": identical,
            "coalesced": backlog["batches"] < requests,
            "tracing_overhead_under_cap":
                overhead_fraction < TRACING_OVERHEAD_CAP,
        },
    }
    SERVER_BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"\n[server telemetry written to {SERVER_BENCH_JSON}]")
