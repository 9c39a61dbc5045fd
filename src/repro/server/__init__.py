"""HTTP serving layer for the batched query engine.

``repro serve`` (or :class:`QueryServer` directly) puts the
:class:`~repro.ctree.parallel.QueryEngine` behind a stdlib-only asyncio
HTTP/1.1 server:

- :mod:`repro.server.protocol` — request/response framing and typed
  protocol errors;
- :mod:`repro.server.coalescer` — cache hits answered before admission,
  the backlog behind a running engine call coalesced into the next
  ``query_many``/``knn_many`` batch, per-client backpressure (HTTP 429);
- :mod:`repro.server.app` — routing, strict graph-JSON validation,
  ``/metrics`` (Prometheus text) and ``/healthz`` (``fsck`` probe).

A :class:`~repro.ctree.shards.ShardSet` is accepted wherever a tree
is: the engine then runs one worker process per shard and
``/healthz`` probes every shard plus the placement manifest.

The API reference, error codes and the ops runbook
live in ``docs/SERVING.md``.

Examples
--------
>>> from repro.server import QueryServer, ServerConfig
>>> # QueryServer(tree, ServerConfig(port=8744)).serve_forever()
"""

from repro.server.app import (
    QueryServer,
    ServableIndex,
    ServerConfig,
    ServerThread,
    SlowQueryLog,
    new_request_id,
    sanitize_request_id,
)
from repro.server.coalescer import BackpressureError, BatchCoalescer
from repro.server.protocol import (
    HTTPRequest,
    ProtocolError,
)

__all__ = [
    "BackpressureError",
    "BatchCoalescer",
    "HTTPRequest",
    "ProtocolError",
    "QueryServer",
    "ServableIndex",
    "ServerConfig",
    "ServerThread",
    "SlowQueryLog",
    "new_request_id",
    "sanitize_request_id",
]
