"""The four workloads of the spine benchmark.

Each workload knows how to set the system up once (``steps``/``build``),
how to run one op against it (``answer``), its fixed op list (``ops``)
and what the oracle must scan to check an answer.  ``run.py`` owns the
untraced protocol around them, ``layers.py`` the traced one.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import time
from typing import Callable, Optional

from repro.ctree.diskindex import DiskCTree
from repro.ctree.persistence import index_size_bytes
from repro.datasets.chemical import generate_chemical_database
from repro.server import ServerConfig
from repro.storage.wal import wal_path

import common
from common import (
    CACHE_PAGES, DELETE, EXTEND, K, KNN, PAGE_SIZE, SUBGRAPH, Context, Op,
    QueryPool,
)

#: One set-up step: (span name, layer, callable).
Step = tuple[str, str, Callable[[], None]]


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    #: ops per second of ``--seconds`` at the default scale, measured on
    #: the 2-core reference box so that a run's timed phase lasts about
    #: ``--seconds`` there
    ops_per_second = 1.0
    tiny_ops = 8
    #: seconds of every op spent waiting on a timer, not on the CPU (the
    #: box-speed correction leaves that part alone)
    timer_wait_s = 0.0

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.corpus = None
        self.tree = None
        self._warmup: Optional[list[Op]] = None
        self._oracle_graphs: Optional[dict] = None

    # -- set-up --------------------------------------------------------
    def steps(self, opener=None) -> list[Step]:
        """One set-up pass as named steps (the traced run wraps each in
        a span): everything the first timed op needs."""
        return [("datasets.generate", "bench", self.generate),
                ("tree.bulk_load", "ctree", self.bulk_load)]

    def generate(self) -> None:
        self.corpus = common.generate_corpus(self.ctx.scale)

    def bulk_load(self) -> None:
        self.tree = common.bulk_load_corpus(self.corpus)

    def build(self) -> None:
        """One untraced set-up pass."""
        for _, _, step in self.steps():
            step()

    def warm(self) -> None:
        """The fixed untimed warm-up that ends a set-up pass."""
        if self._warmup is None:
            self._warmup = common.warmup_ops(self.corpus)
        for op in self._warmup:
            self.answer(op)

    def close(self) -> None:
        """Release what the set-up opened."""

    # -- work ----------------------------------------------------------
    def read_count(self) -> int:
        """Reads in the op list."""
        return self.ctx.ops_for(self.ops_per_second, self.tiny_ops)

    def ops(self) -> list[Op]:
        """The fixed op list, ordered by ``--seed``."""
        pool = QueryPool(self.corpus, self.read_count() // 4)
        return pool.read_ops(self.ctx.seed)

    def answer(self, op: Op):
        """Run one op; returns ``(answer, stats)``."""
        raise NotImplementedError

    def run_ops(self, ops: list[Op], hard_cap: float):
        """The timed phase: closed loop, one thread."""
        return common.run_serial(self.answer, ops, hard_cap)

    def busy_seconds(self) -> float:
        """CPU consumed so far by this process, its reaped children and
        any live server."""
        return common.cpu_seconds()

    # -- checking ------------------------------------------------------
    def oracle_graphs(self, op: Op) -> dict:
        """The database state ``op`` ran against, as the system held it."""
        if self._oracle_graphs is None:
            self._oracle_graphs = dict(enumerate(self.corpus))
        return self._oracle_graphs

    def oracle_query(self, op: Op):
        """The query of ``op`` as the system received it."""
        return op.payload

    def final_check(self) -> list[str]:
        """Whole-run checks after the timed phase; returns problems."""
        return []

    def index_bytes_per_graph(self) -> float:
        """Stored bytes per live graph at the end of the run."""
        raise NotImplementedError


class MemUnique(Workload):
    name = "mem_unique"
    ops_per_second = 14.0

    def answer(self, op: Op):
        return common.answer(self.tree, op)

    def index_bytes_per_graph(self) -> float:
        return index_size_bytes(self.tree) / len(self.tree)


class DiskWorkload(Workload):
    """Workloads over one ``DiskCTree`` handle."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.path = str(ctx.fresh_path(f"{self.name}.ctp"))
        self.disk: Optional[DiskCTree] = None

    def steps(self, opener=None) -> list[Step]:
        return super().steps() + [
            ("disktree.create", "ctree.diskindex",
             lambda: self.create_index(opener)),
            ("disktree.open", "ctree.diskindex",
             lambda: self.open_index(opener)),
        ]

    def create_index(self, opener=None) -> None:
        """Write the page file (and its WAL) from the in-memory tree."""
        for stale in (self.path, wal_path(self.path)):
            if os.path.exists(stale):
                os.remove(stale)
        DiskCTree.create(self.tree, self.path, page_size=PAGE_SIZE,
                         cache_pages=CACHE_PAGES, opener=opener).close()

    def open_index(self, opener=None) -> None:
        self.disk = DiskCTree.open(self.path, cache_pages=CACHE_PAGES,
                                   opener=opener)

    def close(self) -> None:
        if self.disk is not None:
            self.disk.close()
            self.disk = None

    def answer(self, op: Op):
        return common.answer(self.disk, op)

    def oracle_graphs(self, op: Op) -> dict:
        if self._oracle_graphs is None:
            self._oracle_graphs = {gid: common.as_stored(g)
                                   for gid, g in enumerate(self.corpus)}
        return self._oracle_graphs

    def index_bytes_per_graph(self) -> float:
        return common.file_bytes(self.path, wal_path(self.path)) \
            / len(self.disk)


class DiskColdUnique(DiskWorkload):
    name = "disk_cold_unique"
    ops_per_second = 7.0


class DiskChurnRw(DiskWorkload):
    name = "disk_churn_rw"
    ops_per_second = 7.0
    batch = 8
    reads_per_round = 12

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.live: dict = {}
        self._snapshots: dict[int, dict] = {}

    def rounds(self) -> int:
        """Churn rounds in the op list."""
        per_round = 2 + self.reads_per_round
        ops = self.ctx.ops_for(self.ops_per_second, 2 * per_round)
        return max(1, round(ops / per_round))

    def read_count(self) -> int:
        return self.rounds() * self.reads_per_round

    def ops(self) -> list[Op]:
        """Per round: delete ``batch`` live graphs, insert ``batch`` fresh
        ones (one group commit each), then ``reads_per_round`` reads.
        ``--seed`` picks the victims and orders fresh graphs and reads."""
        rounds = self.rounds()
        batch = self.batch if not self.ctx.tiny else 4
        reads = super().ops()
        fresh = generate_chemical_database(rounds * batch,
                                           seed=common.CORPUS_SEED + 1)
        rng = random.Random(f"{self.ctx.seed}:churn")
        rng.shuffle(fresh)
        live = list(range(len(self.corpus)))
        next_id = len(live)
        out: list[Op] = []
        for r in range(rounds):
            victims = set(rng.sample(live, batch))
            live = [g for g in live if g not in victims]
            born = list(range(next_id, next_id + batch))
            next_id += batch
            live += born
            graphs = fresh[r * batch:(r + 1) * batch]
            out.append(Op(DELETE, sorted(victims), round=r))
            out.append(Op(EXTEND, graphs, round=r, expect=dict(
                zip(born, map(common.as_stored, graphs)))))
            for op in reads[r * self.reads_per_round:
                            (r + 1) * self.reads_per_round]:
                op.round = r
                out.append(op)
        return out

    def open_index(self, opener=None) -> None:
        super().open_index(opener)
        self.live = dict(DiskWorkload.oracle_graphs(self, None))
        self._snapshots = {}

    def answer(self, op: Op):
        if op.kind == DELETE:
            self.disk.delete_many(op.payload)
            for gid in op.payload:
                del self.live[gid]
            return None, None
        if op.kind == EXTEND:
            ids = self.disk.extend(op.payload)
            if ids != list(op.expect):
                raise RuntimeError(f"extend returned {ids}, "
                                   f"expected {list(op.expect)}")
            self.live.update(op.expect)
            # Reads of this round are checked against this state.
            self._snapshots[op.round] = dict(self.live)
            return ids, None
        return super().answer(op)

    def oracle_graphs(self, op: Op) -> dict:
        return self._snapshots[op.round]

    def final_check(self) -> list[str]:
        problems = []
        self.disk.flush()
        report = DiskCTree.fsck(self.path, deep=True)
        if not report.clean:
            problems.append(f"fsck: {report.errors[:3]}")
        stored = dict(self.disk.iter_graphs())
        if sorted(stored) != sorted(self.live):
            problems.append("stored graph ids differ from the model's")
        else:
            bad = [g for g in stored
                   if not stored[g].structure_equal(self.live[g])]
            if bad:
                problems.append(f"stored graphs differ: ids {bad[:5]}")
        return problems


class ServedDiskZipf(DiskWorkload):
    name = "served_disk_zipf"
    ops_per_second = 12.0
    tiny_ops = 16
    workers = 2
    answer_cache = 128
    #: the coalescer's admission window, which `repro serve` defaults to
    timer_wait_s = ServerConfig().batch_window

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self._server_cpu_done = 0.0

    # -- server lifecycle ---------------------------------------------
    def steps(self, opener=None) -> list[Step]:
        return Workload.steps(self) + [
            ("disktree.create", "ctree.diskindex",
             lambda: self.create_index(opener)),
            ("server.start", "server", self.start_server),
        ]

    def start_server(self) -> None:
        """Spawn ``repro serve`` on an ephemeral port and wait until it
        answers ``/healthz``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.REPO_ROOT / "src")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "-t", self.path,
             "--port", "0", "--workers", str(self.workers),
             "--cache-size", str(self.answer_cache),
             "--cache-pages", str(CACHE_PAGES)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True,
        )
        banner = self.server.stdout.readline()
        if "http://" not in banner:
            self.close()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(banner.split("http://")[1].split()[0]
                        .rsplit(":", 1)[1])
        status, _ = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def close(self) -> None:
        super().close()
        if self.server is not None:
            self._server_cpu_done += self._server_cpu()
            self.server.terminate()
            try:
                self.server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None

    def connect(self) -> http.client.HTTPConnection:
        """A keep-alive connection to the server."""
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def get(self, path: str, conn=None) -> tuple[int, bytes]:
        """One ``GET``; returns ``(status, body)``."""
        own = conn is None
        conn = conn or self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            if own:
                conn.close()

    def _server_cpu(self) -> float:
        """User + system seconds of the live server and its workers,
        from ``/proc`` (they are not reaped yet)."""
        pid = self.server.pid
        try:
            with open(f"/proc/{pid}/task/{pid}/children") as fh:
                pids = [pid] + [int(p) for p in fh.read().split()]
        except OSError:
            pids = [pid]
        ticks = 0
        for p in pids:
            try:
                with open(f"/proc/{p}/stat") as fh:
                    fields = fh.read().rsplit(") ", 1)[1].split()
            except OSError:
                continue
            ticks += int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def busy_seconds(self) -> float:
        live = self._server_cpu() if self.server is not None else 0.0
        return time.process_time() + self._server_cpu_done + live

    # -- work ----------------------------------------------------------
    def request(self, conn, op: Op):
        """One ``POST /query`` or ``POST /knn``; returns
        ``(answer, stats dict)``."""
        body = {"query": op.payload.to_dict()}
        if op.kind == KNN:
            body["k"] = K
        try:
            conn.request("POST", "/query" if op.kind == SUBGRAPH else "/knn",
                         body=json.dumps(body))
            response = conn.getresponse()
            payload = json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError):
            conn.close()  # the next request reconnects
            raise
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {payload}")
        if op.kind == SUBGRAPH:
            return payload["answers"], payload["stats"]
        return ([(gid, sim) for gid, sim in payload["results"]],
                payload["stats"])

    def answer(self, op: Op):
        conn = self.connect()
        try:
            return self.request(conn, op)
        finally:
            conn.close()

    def oracle_query(self, op: Op):
        return common.as_stored(op.payload)

    def ops(self) -> list[Op]:
        """3 subgraph requests to 1 K-NN.  Subgraph requests repeat: they
        are spread over a quarter as many distinct queries with weight
        1/(rank+1) (largest-remainder shares, rank = pool order), so the
        median one is an answer-cache hit and the 90th percentile a miss.
        K-NN probes never repeat, so every one takes the miss path.  The
        multiset is fixed; ``--seed`` orders the requests."""
        requests = self.read_count()
        pool = QueryPool(self.corpus, requests // 4).read_ops(0)
        probes = [op for op in pool if op.kind == KNN]
        repeats = requests - len(probes)
        distinct = [op for op in pool if op.kind == SUBGRAPH][:repeats // 4]
        weights = [1.0 / (rank + 1) for rank in range(len(distinct))]
        scale = repeats / sum(weights)
        shares = [w * scale for w in weights]
        counts = [int(s) for s in shares]
        by_remainder = sorted(range(len(shares)),
                              key=lambda i: (counts[i] - shares[i], i))
        for i in by_remainder[:repeats - sum(counts)]:
            counts[i] += 1
        out = probes + [op for op, n in zip(distinct, counts)
                        for _ in range(n)]
        random.Random(f"{self.ctx.seed}:zipf").shuffle(out)
        return out

    def run_ops(self, ops: list[Op], hard_cap: float):
        """The timed phase: closed loop, one client, one keep-alive
        connection."""
        conn = self.connect()
        try:
            return common.run_serial(lambda op: self.request(conn, op), ops,
                                     hard_cap)
        finally:
            conn.close()

    def index_bytes_per_graph(self) -> float:
        return common.file_bytes(self.path, wal_path(self.path)) \
            / len(self.corpus)


WORKLOADS = {w.name: w for w in
             (DiskColdUnique, MemUnique, DiskChurnRw, ServedDiskZipf)}
