"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graphs.io import load_graph_database


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated database and both index formats, via the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    db = root / "db.jsonl"
    tree = root / "tree.json"
    disk = root / "tree.ctp"
    assert main(["generate", "chemical", "-n", "25", "-o", str(db),
                 "--seed", "3"]) == 0
    assert main(["build", "-i", str(db), "-o", str(tree),
                 "--min-fanout", "3"]) == 0
    assert main(["build", "-i", str(db), "-o", str(disk),
                 "--min-fanout", "3"]) == 0
    return root, db, tree, disk


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
        root, db, _, _ = workspace
        out = root / "rebuild.json"
        assert main(["build", "-i", str(db), "-o", str(out),
                     "--min-fanout", "3"]) == 0
        assert "built C-tree over 25 graphs" in capsys.readouterr().out

    def test_info_database(self, workspace, capsys):
        _, db, _, _ = workspace
        assert main(["info", "-i", str(db)]) == 0
        out = capsys.readouterr().out
        assert "25 graphs" in out
        assert "distinct vertex labels" in out

    def test_info_snapshot(self, workspace, capsys):
        _, _, tree, _ = workspace
        assert main(["info", "-i", str(tree)]) == 0
        assert "C-tree snapshot" in capsys.readouterr().out

    def test_info_disk_index(self, workspace, capsys):
        _, _, _, disk = workspace
        assert main(["info", "-i", str(disk)]) == 0
        assert "disk C-tree index" in capsys.readouterr().out

    def test_missing_input(self, capsys):
        assert main(["info", "-i", "/nonexistent.jsonl"]) == 1
        assert "error" in capsys.readouterr().err


class TestQuery:
    QUERY = json.dumps({"labels": ["C", "C"], "edges": [[0, 1]]})

    def test_query_snapshot(self, workspace, capsys):
        _, _, tree, _ = workspace
        assert main(["query", "-t", str(tree), "-q", self.QUERY]) == 0
        out = capsys.readouterr().out
        assert "answers:" in out
        assert "|CS|=" in out

    def test_query_disk(self, workspace, capsys):
        _, _, _, disk = workspace
        assert main(["query", "-t", str(disk), "-q", self.QUERY,
                     "--level", "max"]) == 0
        assert "answers:" in capsys.readouterr().out

    def test_query_snapshot_and_disk_agree(self, workspace, capsys):
        _, _, tree, disk = workspace
        main(["query", "-t", str(tree), "-q", self.QUERY])
        out1 = capsys.readouterr().out.splitlines()[0]
        main(["query", "-t", str(disk), "-q", self.QUERY])
        out2 = capsys.readouterr().out.splitlines()[0]
        assert out1 == out2

    def test_query_from_file(self, workspace, tmp_path, capsys):
        _, _, tree, _ = workspace
        qfile = tmp_path / "q.json"
        qfile.write_text(self.QUERY)
        assert main(["query", "-t", str(tree), "-q", f"@{qfile}"]) == 0
        assert "answers:" in capsys.readouterr().out

    def test_no_verify(self, workspace, capsys):
        _, _, tree, _ = workspace
        assert main(["query", "-t", str(tree), "-q", self.QUERY,
                     "--no-verify"]) == 0
        assert "candidates:" in capsys.readouterr().out

    def test_malformed_query(self, workspace):
        _, _, tree, _ = workspace
        with pytest.raises(SystemExit):
            main(["query", "-t", str(tree), "-q", "{broken"])


class TestSimilarityCommands:
    QUERY = json.dumps({"labels": ["C", "O"], "edges": [[0, 1]]})

    def test_knn(self, workspace, capsys):
        _, _, tree, _ = workspace
        assert main(["knn", "-t", str(tree), "-q", self.QUERY, "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("sim=") == 3
        assert "accessed" in out

    def test_knn_on_disk_index(self, workspace, capsys):
        _, _, tree, disk = workspace
        main(["knn", "-t", str(tree), "-q", self.QUERY, "-k", "3"])
        snapshot_out = capsys.readouterr().out
        assert main(["knn", "-t", str(disk), "-q", self.QUERY, "-k", "3"]) == 0
        disk_out = capsys.readouterr().out
        assert disk_out.count("sim=") == 3
        # Same top similarities from both index formats.
        sims = lambda text: [line.split("sim=")[1] for line in
                             text.splitlines() if "sim=" in line]
        assert sims(disk_out) == sims(snapshot_out)

    def test_range(self, workspace, capsys):
        _, _, tree, _ = workspace
        assert main(["range", "-t", str(tree), "-q", self.QUERY,
                     "-r", "100"]) == 0
        assert "within distance" in capsys.readouterr().out

    def test_range_on_disk_index(self, workspace, capsys):
        """``repro range`` opens its index like ``repro knn`` does: a
        ``.ctp`` disk index reports the snapshot's graphs."""
        _, _, tree, disk = workspace
        main(["range", "-t", str(tree), "-q", self.QUERY, "-r", "100"])
        snapshot_out = capsys.readouterr().out
        assert main(["range", "-t", str(disk), "-q", self.QUERY,
                     "-r", "100"]) == 0
        disk_out = capsys.readouterr().out
        ids = lambda text: sorted(line.split()[0] for line in
                                  text.splitlines() if line.startswith("#"))
        assert ids(disk_out) == ids(snapshot_out) != []

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

    def test_compact_snapshot_rejected(self, workspace):
        _, _, tree, _ = workspace
        with pytest.raises(SystemExit):
            main(["compact", "-t", str(tree)])
        with pytest.raises(SystemExit):
            main(["delete", "-t", str(tree), "--ids", "1"])


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
        d.append(extra)
        d.close()
        crash_at = max(2, counter.ops // 2)

        injector = FaultInjector(FaultPlan(crash_at_op=crash_at, seed=1))
        d = DiskCTree.open(path, cache_pages=6, opener=injector.opener)
        try:
            d.append(extra)
            d.close()
        except SimulatedCrash:
            pass
        return path

    def test_fsck_clean_index(self, workspace, capsys):
        _, _, _, disk = workspace
        assert main(["fsck", "-i", str(disk)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fsck_deep_clean_index(self, workspace, capsys):
        _, _, _, disk = workspace
        assert main(["fsck", "-i", str(disk), "--deep"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "deep closure checks on" in out

    def test_recover_clean_index_is_noop(self, workspace, capsys):
        _, _, _, disk = workspace
        assert main(["recover", "-i", str(disk)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_crash_fsck_recover_fsck_cycle(self, tmp_path, capsys):
        path = self._crashed_index(tmp_path)
        # A crashed index refuses fsck until recovered.
        assert main(["fsck", "-i", str(path)]) == 1
        assert "error" in capsys.readouterr().out
        # Recovery replays (or discards) the WAL and validates the tree.
        assert main(["recover", "-i", str(path), "--deep"]) == 0
        capsys.readouterr()
        # After recovery the index checks out clean and is queryable.
        assert main(["fsck", "-i", str(path), "--deep"]) == 0
        assert "clean" in capsys.readouterr().out
        query = json.dumps({"labels": ["C", "C"], "edges": [[0, 1]]})
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

        _, _, _, disk = workspace
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

        _, _, _, disk = workspace
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
        _, _, tree, _ = workspace
        out = tmp_path / "t.jsonl"
        main(["trace", "-t", str(tree), "-q", self.QUERY, "-o", str(out)])
        capsys.readouterr()
        assert main(["trace", "-i", str(out)]) == 0
        assert "spans by phase" in capsys.readouterr().out

    def test_trace_requires_input_or_query(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_metrics_delta_json(self, workspace, capsys):
        _, _, tree, _ = workspace
        assert main(["metrics", "-t", str(tree), "-q", self.QUERY,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ctree.query.count"]["value"] == 1
        assert payload["ctree.query.candidates"]["type"] == "counter"
        assert payload["matching.mapping.calls"]["value"] >= 0

    def test_metrics_to_file(self, workspace, tmp_path, capsys):
        _, _, _, disk = workspace
        out = tmp_path / "metrics.json"
        assert main(["metrics", "-t", str(disk), "-q", self.QUERY,
                     "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "bufferpool.misses" in payload
        assert "pagefile.reads" in payload

    def test_metrics_cumulative(self, workspace, capsys):
        _, _, tree, _ = workspace
        main(["metrics", "-t", str(tree), "-q", self.QUERY])
        capsys.readouterr()
        assert main(["metrics", "-t", str(tree), "-q", self.QUERY,
                     "--cumulative", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # cumulative counts cover both runs (and any earlier in-process ones)
        assert payload["ctree.query.count"]["value"] >= 2
