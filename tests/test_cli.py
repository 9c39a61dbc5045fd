"""Tests for the command-line interface."""

import argparse
import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.graphs.io import load_graph_database

_DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated database and its disk index, via the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    db = root / "db.jsonl"
    disk = root / "tree.ctp"
    assert main(["generate", "chemical", "-n", "25", "-o", str(db),
                 "--seed", "3"]) == 0
    assert main(["build", "-i", str(db), "-o", str(disk),
                 "--min-fanout", "3"]) == 0
    return root, db, disk


class TestGenerate:
    def test_chemical(self, tmp_path, capsys):
        out = tmp_path / "chem.jsonl"
        assert main(["generate", "chemical", "-n", "10", "-o", str(out)]) == 0
        assert len(load_graph_database(out)) == 10
        assert "wrote 10 graphs" in capsys.readouterr().out

    def test_synthetic(self, tmp_path):
        out = tmp_path / "syn.jsonl"
        assert main([
            "generate", "synthetic", "-n", "5", "-o", str(out),
            "--seeds", "5", "--graph-size", "15", "--labels", "4",
        ]) == 0
        graphs = load_graph_database(out)
        assert len(graphs) == 5

    def test_deterministic_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["generate", "chemical", "-n", "5", "-o", str(a), "--seed", "9"])
        main(["generate", "chemical", "-n", "5", "-o", str(b), "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestBuildAndInfo:
    def test_build_reports(self, workspace, capsys):
        root, db, _ = workspace
        out = root / "rebuild.ctp"
        assert main(["build", "-i", str(db), "-o", str(out),
                     "--min-fanout", "3"]) == 0
        assert "built C-tree over 25 graphs" in capsys.readouterr().out

    def test_build_and_info_report_the_bytes_on_disk(self, workspace,
                                                     capsys):
        """The size ``build`` and ``info`` print is the page file's."""
        root, db, _ = workspace
        out = root / "sized.ctp"
        assert main(["build", "-i", str(db), "-o", str(out),
                     "--min-fanout", "3"]) == 0
        size = os.path.getsize(out)
        assert capsys.readouterr().out.rstrip().endswith(
            f"-> disk index {out}: {size} bytes, {size / 25:.0f} bytes "
            f"per graph")
        assert main(["info", "-i", str(out)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f" bytes={size}")

    def test_info_database(self, workspace, capsys):
        _, db, _ = workspace
        assert main(["info", "-i", str(db)]) == 0
        out = capsys.readouterr().out
        assert "25 graphs" in out
        assert "distinct vertex labels" in out

    def test_info_disk_index(self, workspace, capsys):
        _, _, disk = workspace
        assert main(["info", "-i", str(disk)]) == 0
        assert "disk C-tree index" in capsys.readouterr().out

    def test_missing_input(self, capsys):
        assert main(["info", "-i", "/nonexistent.jsonl"]) == 1
        assert "error" in capsys.readouterr().err


class TestSnapshotIsNotASavedIndex:
    """A ``*.json`` tree snapshot is no longer a saved form: each command
    refuses it with one line naming the two forms that are (``open_index``
    itself: ``test_persistence.py::TestErrors``)."""

    QUERY = json.dumps({"labels": ["C", "C"], "edges": [[0, 1]]})

    @pytest.mark.parametrize("argv", [
        ["build", "-i", str(_DATA / "golden_chem.jsonl"), "-o"],
        ["query", "-q", QUERY, "-t"],
        ["info", "-i"],
    ], ids=["build", "query", "info"])
    def test_cli(self, argv, tmp_path, capsys):
        snapshot = tmp_path / "x.json"
        if argv[0] != "build":
            snapshot.write_text("{}")
        assert main([*argv, str(snapshot)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert ".ctp" in captured.err and "shard directory" in captured.err
        assert argv[0] != "build" or not snapshot.exists()


class TestQuery:
    QUERY = json.dumps({"labels": ["C", "C"], "edges": [[0, 1]]})

    def test_query_disk(self, workspace, capsys):
        _, _, disk = workspace
        assert main(["query", "-t", str(disk), "-q", self.QUERY,
                     "--level", "max"]) == 0
        out = capsys.readouterr().out
        assert "answers:" in out
        assert "|CS|=" in out

    def test_query_from_file(self, workspace, tmp_path, capsys):
        _, _, disk = workspace
        qfile = tmp_path / "q.json"
        qfile.write_text(self.QUERY)
        assert main(["query", "-t", str(disk), "-q", f"@{qfile}"]) == 0
        assert "answers:" in capsys.readouterr().out

    def test_no_verify(self, workspace, capsys):
        _, _, disk = workspace
        assert main(["query", "-t", str(disk), "-q", self.QUERY,
                     "--no-verify"]) == 0
        assert "candidates:" in capsys.readouterr().out

    def test_malformed_query(self, workspace):
        _, _, disk = workspace
        with pytest.raises(SystemExit):
            main(["query", "-t", str(disk), "-q", "{broken"])


class TestSimilarityCommands:
    QUERY = json.dumps({"labels": ["C", "O"], "edges": [[0, 1]]})

    def test_knn(self, workspace, capsys):
        _, _, disk = workspace
        assert main(["knn", "-t", str(disk), "-q", self.QUERY, "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("sim=") == 3
        assert "accessed" in out

    def test_range(self, workspace, capsys):
        _, _, disk = workspace
        assert main(["range", "-t", str(disk), "-q", self.QUERY,
                     "-r", "100"]) == 0
        assert "within distance" in capsys.readouterr().out

    def test_append_has_no_rebuild_mode(self, workspace):
        with pytest.raises(SystemExit):
            main(["append", "-i", "db.jsonl", "-t", "x.ctp", "--rebuild"])


class TestDeleteCompactCommands:
    @pytest.fixture()
    def mutable_index(self, tmp_path):
        """A private disk index (the shared workspace one must survive
        the other test classes untouched)."""
        db = tmp_path / "db.jsonl"
        disk = tmp_path / "tree.ctp"
        assert main(["generate", "chemical", "-n", "25", "-o", str(db),
                     "--seed", "3"]) == 0
        assert main(["build", "-i", str(db), "-o", str(disk),
                     "--min-fanout", "2"]) == 0
        return disk

    def test_delete_reports_and_stays_clean(self, mutable_index, capsys):
        assert main(["delete", "-t", str(mutable_index),
                     "--ids", "1,3,5 7"]) == 0
        out = capsys.readouterr().out
        assert "deleted 4 graph(s)" in out
        assert "one group commit" in out
        assert "21 graphs" in out
        assert main(["fsck", "-i", str(mutable_index), "--deep"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_delete_missing_id_fails(self, mutable_index, capsys):
        with pytest.raises(SystemExit):
            main(["delete", "-t", str(mutable_index), "--ids", "999"])

    def test_delete_malformed_ids_fail(self, mutable_index):
        with pytest.raises(SystemExit):
            main(["delete", "-t", str(mutable_index), "--ids", "1,x"])
        with pytest.raises(SystemExit):
            main(["delete", "-t", str(mutable_index), "--ids", ""])

    def test_compact_noop_then_forced(self, mutable_index, capsys):
        assert main(["compact", "-t", str(mutable_index)]) == 0
        assert "no compaction needed" in capsys.readouterr().out
        assert main(["compact", "-t", str(mutable_index), "--force"]) == 0
        out = capsys.readouterr().out
        assert "compacted (forced)" in out and "occupancy" in out
        assert main(["fsck", "-i", str(mutable_index), "--deep"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_compact_snapshot_rejected(self, tmp_path, capsys):
        snapshot = tmp_path / "tree.json"
        snapshot.write_text("{}")
        assert main(["compact", "-t", str(snapshot)]) == 1
        assert main(["delete", "-t", str(snapshot), "--ids", "1"]) == 1
        assert capsys.readouterr().err.count("not a saved index") == 2


class TestRecoverFsckCommands:
    def _crashed_index(self, root):
        """Build a disk index, then crash the process-model partway
        through an append so the WAL holds work the page file lacks."""
        from repro.ctree.diskindex import DiskCTree
        from repro.datasets.chemical import (ChemicalConfig,
                                             generate_chemical_database)
        from repro.storage.faultfs import (FaultInjector, FaultPlan,
                                           SimulatedCrash)

        path = root / "crash.ctp"
        base = generate_chemical_database(
            10, seed=5, config=ChemicalConfig(mean_vertices=8,
                                              large_fraction=0.0))
        extra = generate_chemical_database(
            4, seed=6, config=ChemicalConfig(mean_vertices=8,
                                             large_fraction=0.0))
        from repro.ctree.bulkload import bulk_load
        tree = bulk_load(base, min_fanout=2, max_fanout=4)
        disk = DiskCTree.create(tree, path, page_size=256, cache_pages=6)
        disk.close()

        # Find how many mutating ops a full append takes, then replay it
        # under an injector that dies somewhere in the middle.
        counter = FaultInjector.counting()
        probe = root / "probe.ctp"
        import shutil
        shutil.copy(path, probe)
        d = DiskCTree.open(probe, cache_pages=6, opener=counter.opener)
        d.extend(extra)
        d.close()
        crash_at = max(2, counter.ops // 2)

        injector = FaultInjector(FaultPlan(crash_at_op=crash_at, seed=1))
        d = DiskCTree.open(path, cache_pages=6, opener=injector.opener)
        try:
            d.extend(extra)
            d.close()
        except SimulatedCrash:
            pass
        return path

    def test_fsck_clean_index(self, workspace, capsys):
        _, _, disk = workspace
        assert main(["fsck", "-i", str(disk)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fsck_deep_clean_index(self, workspace, capsys):
        _, _, disk = workspace
        assert main(["fsck", "-i", str(disk), "--deep"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "deep closure checks on" in out

    def test_recover_clean_index_is_noop(self, workspace, capsys):
        _, _, disk = workspace
        assert main(["recover", "-i", str(disk)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_crash_fsck_recover_fsck_cycle(self, tmp_path, capsys):
        path = self._crashed_index(tmp_path)
        # A crashed index refuses fsck until recovered.
        assert main(["fsck", "-i", str(path)]) == 1
        assert "error" in capsys.readouterr().out
        # So does a command that only reads: it opens read-only and
        # leaves recovery to the operator.
        query = json.dumps({"labels": ["C", "C"], "edges": [[0, 1]]})
        assert main(["query", "-t", str(path), "-q", query]) == 1
        assert "repro recover" in capsys.readouterr().err
        # Recovery replays (or discards) the WAL and validates the tree.
        assert main(["recover", "-i", str(path), "--deep"]) == 0
        capsys.readouterr()
        # After recovery the index checks out clean and is queryable.
        assert main(["fsck", "-i", str(path), "--deep"]) == 0
        assert "clean" in capsys.readouterr().out
        assert main(["query", "-t", str(path), "-q", query]) == 0

    def test_recover_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.ctp"
        assert main(["recover", "-i", str(missing)]) == 1
        assert "no committed index state" in capsys.readouterr().out

    def test_fsck_missing_file(self, tmp_path, capsys):
        assert main(["fsck", "-i", str(tmp_path / "nope.ctp")]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.out + captured.err


class TestObservabilityCommands:
    QUERY = json.dumps({"labels": ["C", "C"], "edges": [[0, 1]]})

    def test_trace_disk_query_writes_jsonl(self, workspace, tmp_path, capsys):
        from repro.obs import trace

        _, _, disk = workspace
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "-t", str(disk), "-q", self.QUERY,
                     "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "spans" in stdout and "|CS|=" in stdout
        records = trace.read_jsonl(out)
        names = {r["name"] for r in records}
        assert "ctree.subgraph_query" in names
        assert "ctree.expand" in names
        assert "pagefile.read" in names
        # tracing is switched back off after the command
        assert not trace.enabled()

    def test_trace_summary_matches_stats_within_1pct(
        self, workspace, tmp_path, capsys
    ):
        from repro.obs import trace

        _, _, disk = workspace
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "-t", str(disk), "-q", self.QUERY,
                     "-o", str(out), "--summary"]) == 0
        stdout = capsys.readouterr().out
        assert "spans by phase" in stdout
        assert "span tree" in stdout
        # the stats line printed by the command carries the perf_counter
        # timings; the span totals must agree within 1%
        stats_line = next(l for l in stdout.splitlines() if "search=" in l)
        search_s = float(stats_line.split("search=")[1].split("s")[0])
        totals = trace.phase_totals(trace.read_jsonl(out))
        assert totals["ctree.search"] == pytest.approx(search_s, abs=5e-4)

    def test_trace_summarize_existing_file(self, workspace, tmp_path, capsys):
        _, _, disk = workspace
        out = tmp_path / "t.jsonl"
        main(["trace", "-t", str(disk), "-q", self.QUERY, "-o", str(out)])
        capsys.readouterr()
        assert main(["trace", "-i", str(out)]) == 0
        assert "spans by phase" in capsys.readouterr().out

    def test_trace_requires_input_or_query(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_metrics_delta_json(self, workspace, capsys):
        _, _, disk = workspace
        assert main(["metrics", "-t", str(disk), "-q", self.QUERY,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ctree.query.count"]["value"] == 1
        assert payload["ctree.query.candidates"]["type"] == "counter"
        assert payload["matching.mapping.calls"]["value"] >= 0
        # the label interner's tables, sized after the query
        assert payload["labelspace.vertex_labels"]["type"] == "gauge"
        assert payload["labelspace.vertex_labels"]["value"] > 2
        assert {"labelspace.edge_labels", "labelspace.profiles",
                "labelspace.vertex_keys"} <= set(payload)

    def test_metrics_to_file(self, workspace, tmp_path, capsys):
        _, _, disk = workspace
        out = tmp_path / "metrics.json"
        assert main(["metrics", "-t", str(disk), "-q", self.QUERY,
                     "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "bufferpool.misses" in payload
        assert "pagefile.reads" in payload

    def test_metrics_cumulative(self, workspace, capsys):
        _, _, disk = workspace
        main(["metrics", "-t", str(disk), "-q", self.QUERY])
        capsys.readouterr()
        assert main(["metrics", "-t", str(disk), "-q", self.QUERY,
                     "--cumulative", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # cumulative counts cover both runs (and any earlier in-process ones)
        assert payload["ctree.query.count"]["value"] >= 2


# ----------------------------------------------------------------------
# One way in: every index kind behind -t, shared flags declared once
# ----------------------------------------------------------------------

def _first_line(capsys) -> str:
    return capsys.readouterr().out.splitlines()[0]


class TestShardedCli:
    """The sharded surface answers what the single tree answers."""

    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-shards")
        db = _DATA / "golden_chem.jsonl"
        single, shards = root / "single.ctp", root / "idx.shards"
        assert main(["build", "-i", str(db), "-o", str(single),
                     "--min-fanout", "3"]) == 0
        assert main(["shard", "--create", "-d", str(shards), "-i", str(db),
                     "--shards", "3", "--min-fanout", "3"]) == 0
        cases = json.loads((_DATA / "golden_answers.json").read_text())
        return single, shards, len(load_graph_database(db)), cases["subgraph"]

    def test_create_reports_and_stats(self, golden, tmp_path, capsys):
        _, shards, n, _ = golden
        out = tmp_path / "again.shards"
        assert main(["shard", "--create", "-d", str(out),
                     "-i", str(_DATA / "golden_chem.jsonl"),
                     "--shards", "2", "--min-fanout", "3"]) == 0
        assert f"wrote 2 shards over {n} graphs in" in capsys.readouterr().out
        assert main(["shard", "--stats", "-d", str(shards)]) == 0
        text = capsys.readouterr().out
        assert f"{n} graphs over 3 shards (disk backend)" in text
        assert text.count("x the even share") == 3
        assert main(["shard", "--stats", "-d", str(shards), "--json"]) == 0
        desc = json.loads(capsys.readouterr().out)
        assert desc["shards"] == 3 and sum(desc["shard_sizes"]) == n
        assert "placement" not in desc

    def test_query_equals_single_tree(self, golden, capsys):
        single, shards, _, cases = golden
        for case in cases:
            query = json.dumps(case["query"])
            want = f"answers: {sorted(case['answers'])}"
            for index in (single, shards):
                assert main(["query", "-t", str(index), "-q", query]) == 0
                assert _first_line(capsys) == want

    def test_knn_equals_single_tree_similarities(self, golden, capsys):
        single, shards, _, cases = golden
        query = json.dumps(cases[0]["query"])
        sims = []
        for index in (single, shards):
            assert main(["knn", "-t", str(index), "-q", query,
                         "-k", "4"]) == 0
            sims.append([line.split("sim=")[1] for line in
                         capsys.readouterr().out.splitlines()
                         if "sim=" in line])
        assert sims[0] == sims[1] and len(sims[0]) == 4

    def test_knn_prints_the_same_names(self, golden, capsys):
        """A shard directory knows its graphs' names like a ``.ctp``
        index does."""
        single, shards, _, cases = golden
        query = json.dumps(cases[0]["query"])
        named = []
        for index in (single, shards):
            assert main(["knn", "-t", str(index), "-q", query,
                         "-k", "24"]) == 0
            named.append(sorted(
                line.split(". ")[1].split(" sim=")[0] for line in
                capsys.readouterr().out.splitlines() if "sim=" in line))
        # All 24 graphs: tie order differs by kind, the (id, name) pairs
        # cannot.
        assert named[0] == named[1]
        assert named[0][0] == "#0 compound-0" and len(named[0]) == 24

    def test_explain_info_fsck(self, golden, capsys):
        _, shards, n, cases = golden
        assert main(["explain", "-t", str(shards),
                     "-q", json.dumps(cases[0]["query"])]) == 0
        assert f"subgraph query over {n} graphs" in capsys.readouterr().out
        assert main(["info", "-i", str(shards)]) == 0
        assert _first_line(capsys) == \
            f"sharded disk index: |D|={n} shards=3"
        assert main(["fsck", "-i", str(shards)]) == 0
        assert f"clean, 3 shards, {n} graphs" in capsys.readouterr().out

    def test_range_needs_a_single_tree(self, golden):
        _, shards, _, cases = golden
        with pytest.raises(SystemExit, match="need a single-tree index"):
            main(["range", "-t", str(shards), "--cache-pages", "16",
                  "-q", json.dumps(cases[0]["query"]), "-r", "5"])

    def test_manifest_naming_closure_placement_still_opens(
            self, golden, tmp_path, capsys):
        """A directory from before round-robin became the one placement:
        its manifest says "closure" and its id lists are not round-
        robin.  Only the lists are read."""
        from repro.ctree.bulkload import bulk_load
        from repro.ctree.diskindex import DiskCTree

        _, _, n, cases = golden
        db = load_graph_database(_DATA / "golden_chem.jsonl")
        old = tmp_path / "old.shards"
        old.mkdir()
        lists = [list(range(n // 2)), list(range(n // 2, n))]
        for s, gids in enumerate(lists):
            DiskCTree.create(bulk_load([db[g] for g in gids], min_fanout=3),
                             old / f"shard-{s:03d}.ctp").close()
        (old / "manifest.json").write_text(json.dumps({
            "schema": "ctree-shards-v1", "placement": "closure",
            "mapping_method": "nbm", "min_fanout": 3, "total_graphs": n,
            "shards": [{"file": f"shard-{s:03d}.ctp", "graphs": gids}
                       for s, gids in enumerate(lists)],
        }))
        case = cases[0]
        assert main(["query", "-t", str(old),
                     "-q", json.dumps(case["query"])]) == 0
        assert _first_line(capsys) == f"answers: {sorted(case['answers'])}"
        assert main(["fsck", "-i", str(old)]) == 0
        assert "clean, 2 shards" in capsys.readouterr().out


class TestDirectoryWithoutManifest:
    """A directory that is not a shard directory is a one-line error,
    not an ``IsADirectoryError`` traceback."""

    QUERY = json.dumps({"labels": ["C", "C"], "edges": [[0, 1]]})

    @pytest.mark.parametrize("argv", [
        ["query", "-q", QUERY, "-t"],
        ["info", "-i"],
        ["fsck", "-i"],
        ["serve", "--port", "0", "-t"],
    ], ids=["query", "info", "fsck", "serve"])
    def test_one_line_error(self, argv, tmp_path, capsys):
        assert main([*argv, str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "not a shard directory: no manifest.json" in \
            captured.out + captured.err


class TestNamesLoadOnlyAnswers:
    """Counts, not times (cf. ``TestGoldenWork``): printing the names of
    the returned graphs loads those graph records, not the database."""

    @pytest.fixture()
    def graph_loads(self, monkeypatch):
        from repro.ctree.store import PagedNodeStore

        loads = []
        load_graph = PagedNodeStore.load_graph
        monkeypatch.setattr(
            PagedNodeStore, "load_graph",
            lambda self, entry: loads.append(entry.graph_id)
            or load_graph(self, entry))
        return loads

    def test_knn_and_range(self, workspace, graph_loads, capsys):
        from repro.ctree import DiskCTree, knn_query, range_query

        _, db, disk = workspace
        graphs = load_graph_database(db)
        probe = json.dumps(graphs[0].to_dict())
        with DiskCTree.open(disk) as index:
            _, knn_stats = knn_query(index, graphs[0], 3)
            in_range, range_stats = range_query(index, graphs[0], 30.0)
        assert 0 < len(in_range) < len(graphs)

        del graph_loads[:]
        assert main(["knn", "-t", str(disk), "-q", probe, "-k", "3"]) == 0
        assert len(graph_loads) <= knn_stats.graphs_scored + 3
        del graph_loads[:]
        assert main(["range", "-t", str(disk), "-q", probe,
                     "-r", "30"]) == 0
        assert len(graph_loads) <= range_stats.graphs_scored + len(in_range)
        assert capsys.readouterr().out.count("compound-") >= len(in_range)


class TestParser:
    INDEX_COMMANDS = ("append", "delete", "compact", "query", "knn",
                      "range", "explain", "metrics", "serve")

    def _subparsers(self):
        from repro.cli import build_parser

        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_index_flags_are_shared(self):
        """Every subcommand that opens an index takes -t and
        --cache-pages, with one default (trace's -t is optional)."""
        from repro.ctree.diskindex import DEFAULT_CACHE_PAGES

        choices = self._subparsers()
        for name in self.INDEX_COMMANDS + ("trace",):
            by_flag = {flag: a for a in choices[name]._actions
                       for flag in a.option_strings}
            assert by_flag["-t"].dest == "tree", name
            assert by_flag["-t"].required == (name != "trace"), name
            assert by_flag["--cache-pages"].default == DEFAULT_CACHE_PAGES

    def test_serve_defaults_are_server_config(self):
        """The parser re-types no default: flags left out fall through
        to ``ServerConfig``, flags given land on the field they name."""
        from repro.cli import _server_config
        from repro.server import ServerConfig

        serve = self._subparsers()["serve"]
        assert _server_config(serve.parse_args(["-t", "x.ctp"])) == \
            ServerConfig()
        given = _server_config(serve.parse_args([
            "-t", "x.ctp", "--host", "0.0.0.0", "--port", "0",
            "--workers", "2", "--cache-size", "3", "--cache-pages", "4",
            "--client-cap", "6", "--healthz-ttl", "8",
            "--slow-query-log", "slow.ndjson",
            "--slow-query-seconds", "9"]))
        assert given == ServerConfig(
            host="0.0.0.0", port=0, workers=2, cache_size=3, cache_pages=4,
            client_cap=6, healthz_ttl=8.0,
            slow_query_path="slow.ndjson", slow_query_seconds=9.0)

    @pytest.mark.parametrize("argv", [
        ["bench", "-t", "x.ctp", "-i", "q.jsonl"],
        ["query", "-t", "x.ctp", "-q", "{}", "--placement", "hash"],
        ["serve", "-t", "x.ctp", "--placement", "closure"],
        ["shard", "--create", "-d", "d", "-i", "db.jsonl",
         "--placement", "closure"],
        # --shards means one thing: shard --create's page-file count.
        ["query", "-t", "x.ctp", "-q", "{}", "--shards", "2"],
        ["serve", "-t", "x.ctp", "--shards", "2"],
        # k is a positive integer here as it is on POST /knn.
        ["knn", "-t", "x.ctp", "-q", "{}", "-k", "0"],
        ["knn", "-t", "x.ctp", "-q", "{}", "-k", "-1"],
        ["explain", "-t", "x.ctp", "-q", "{}", "--knn", "-k", "0"],
        # The compaction thresholds are module constants, not flags.
        ["compact", "-t", "x.ctp", "--min-occupancy", "0.5"],
        ["compact", "-t", "x.ctp", "--height-slack", "2"],
    ], ids=["bench", "query", "serve", "shard", "query-shards",
            "serve-shards", "knn-k0", "knn-k-1", "explain-k0",
            "compact-min-occupancy", "compact-height-slack"])
    def test_deleted_surface_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["query", "-t", "x.ctp", "-q", "{}", "--cache-pages", "0"],
        ["knn", "-t", "x.ctp", "-q", "{}", "--cache-pages", "-4"],
        ["serve", "-t", "x.ctp", "--cache-pages", "0"],
    ], ids=["query", "knn", "serve"])
    def test_cache_pages_below_one_is_refused_by_name(self, argv, capsys):
        """At parse time, naming the flag that was typed — not the
        ``BufferPool`` argument it would have become."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --cache-pages" in err
        assert "capacity" not in err
