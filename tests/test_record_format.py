"""The disk record format (format 4) and its one codec in
``repro.ctree.store``.

A record decodes in one pass over its edge array, without going through
``from_dict`` — so three things must hold exactly: the decoded object is
what ``from_dict(to_dict(x))`` gives, down to its adjacency order (so a
decode is deterministic, though no mapper reads that order); the
kernels compile it to the same target context; and a record that parses as JSON but is not a valid
record is *reported* by ``fsck``, never crashed on.
"""

import json
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.ctree.similarity_query import knn_query
from repro.ctree.store import (
    BAD_RECORD,
    RecordContext,
    decode_closure,
    decode_graph,
    decode_graph_context,
    decode_nbm_context,
    dump_record,
    encode_closure,
    encode_graph,
    encode_node,
    record_histograms,
)
from repro.ctree.subgraph_query import subgraph_query
from repro.datasets.chemical import ChemicalConfig, generate_chemical_database
from repro.exceptions import PersistenceError
from repro.graphs.closure import EPSILON, WILDCARD, GraphClosure
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph_database
from repro.graphs.labelspace import (
    nbm_context,
    reset_labelspace,
    target_context,
)
from repro.storage.pagefile import NO_PAGE, PageFile
from oracles.histogram import LabelHistogram

_VERTEX_LABELS = ["C", "N", "O", 1, 2, WILDCARD]
_EDGE_LABELS = [None, None, "x", 1, 2, WILDCARD]
_CONTEXT_FIELDS = ("n", "degrees", "edge_rows", "vertex_groups", "vhist",
                   "ehist", "vbits", "ebits")
#: what :func:`decode_graph_context` must agree on slot for slot; its
#: ``vertex_groups`` and ``edge_counts`` are compared as dicts
_RECORD_CONTEXT_FIELDS = ("n", "degrees", "vmasks", "edge_rows", "edge_masks",
                          "vhist", "ehist", "vbits", "ebits")


def _through_json(record: dict) -> dict:
    return json.loads(dump_record(record))


def _adjacency(g) -> list:
    return [list(g.adjacency(v).items()) for v in g.vertices()]


def _assert_same_context(decoded, reference) -> None:
    """The kernels see the decoded object exactly as they see the
    ``from_dict`` round trip, field for field."""
    ours, theirs = target_context(decoded), target_context(reference)
    for field in _CONTEXT_FIELDS:
        assert getattr(ours, field) == getattr(theirs, field), field


@st.composite
def graphs(draw):
    """Small graphs with string / int / wildcard vertex labels, ``None``
    / string / int / wildcard edge labels, isolated vertices, and the
    empty graph; edges in scrambled insertion order."""
    n = draw(st.integers(0, 7))
    g = Graph([draw(st.sampled_from(_VERTEX_LABELS)) for _ in range(n)],
              name=draw(st.sampled_from([None, "g"])))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.permutations(pairs)):
        if draw(st.booleans()):
            g.add_edge(*draw(st.permutations([u, v])),
                       draw(st.sampled_from(_EDGE_LABELS)))
    return g


@st.composite
def closures(draw):
    """Small closures whose label sets mix real labels, ε and the
    wildcard."""
    def label_set(pool):
        return draw(st.sets(st.sampled_from(pool + [EPSILON]), min_size=1,
                            max_size=3))

    n = draw(st.integers(0, 6))
    c = GraphClosure([label_set(_VERTEX_LABELS) for _ in range(n)])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.permutations(pairs)):
        if draw(st.booleans()):
            c.add_edge(*draw(st.permutations([u, v])),
                       label_set(_EDGE_LABELS))
    return c


class TestCodecRoundTrip:
    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_graph(self, g):
        decoded = decode_graph(_through_json(encode_graph(g)))
        reference = Graph.from_dict(json.loads(json.dumps(g.to_dict())))
        assert decoded == reference == g
        assert decoded.name == reference.name
        assert decoded.num_edges == reference.num_edges
        assert _adjacency(decoded) == _adjacency(reference)
        _assert_same_context(decoded, reference)

    @given(closures())
    @settings(max_examples=150, deadline=None)
    def test_closure(self, c):
        decoded = decode_closure(_through_json(encode_closure(c)))
        reference = GraphClosure.from_dict(
            json.loads(json.dumps(c.to_dict())))
        assert decoded == reference == c
        assert decoded.num_edges == reference.num_edges
        assert _adjacency(decoded) == _adjacency(reference)
        _assert_same_context(decoded, reference)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_record_histograms_are_the_label_histogram(self, g):
        """What a leaf entry carries for a graph is ``LabelHistogram.of``
        it (wildcards never count), label by label."""
        vhist, ehist = record_histograms(_through_json(encode_graph(g)))
        counts = {(0, label): n for label, n in zip(vhist[::2], vhist[1::2])}
        counts.update(
            {(1, label): n for label, n in zip(ehist[::2], ehist[1::2])})
        assert counts == dict(LabelHistogram.of(g)._counts)


# ----------------------------------------------------------------------
# The record compiler: a graph record straight to its target context
# ----------------------------------------------------------------------
def _assert_record_context(record: dict) -> None:
    """``decode_graph_context`` holds what ``target_context`` compiles
    from the decoded graph, and nothing of Alg. 1's half."""
    ours, theirs = decode_graph_context(record), target_context(
        decode_graph(record))
    for field in _RECORD_CONTEXT_FIELDS:
        assert getattr(ours, field) == getattr(theirs, field), field
    assert dict(ours.vertex_groups) == dict(theirs.vertex_groups)
    assert dict(ours.edge_counts) == dict(theirs.edge_counts)
    assert ours.profiles is None and ours.nbr_rows == {}


def _path_record() -> dict:
    g = Graph(["C", "N", "O", WILDCARD])
    g.add_edge(0, 1, "x")
    g.add_edge(1, 2)
    g.add_edge(2, 3, 1)
    return _through_json(encode_graph(g))


def _set(key: str, index: int, value_of):
    def change(record: dict) -> None:
        record[key][index] = value_of(record)
    return change


#: one malformed graph record each: the change applied to a valid one
_MALFORMED = {
    "odd triples": lambda r: r["e"].append(0),
    "endpoint out of range": _set("e", 0, lambda r: len(r["v"])),
    "negative endpoint": _set("e", 1, lambda r: -1),
    "self-loop": _set("e", 1, lambda r: r["e"][0]),
    "duplicate edge": lambda r: r["e"].extend([r["e"][1], r["e"][0], 0]),
    "vertex code outside table": _set("v", 0, lambda r: len(r["vl"])),
    "negative vertex code": _set("v", 0, lambda r: -1),
    "edge code outside table": _set("e", 2, lambda r: len(r["el"])),
    "unhashable label": _set("vl", 0, lambda r: ["C"]),
    "no edge array": lambda r: r.pop("e"),
    "edge array not a list": lambda r: r.update(e=3),
}


class TestRecordContext:
    @given(graphs())
    @example(Graph([]))
    @example(Graph(["C", WILDCARD, "N"]))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_graphs(self, g):
        _assert_record_context(_through_json(encode_graph(g)))

    def test_every_golden_record(self, tmp_path):
        for record in _golden_records(tmp_path):
            _assert_record_context(record)

    @pytest.mark.parametrize("case", _MALFORMED)
    def test_malformed_record_raises_alike(self, case):
        _assert_raise_alike(case, decode_graph_context)


def _assert_raise_alike(case: str, compiler) -> None:
    """``compiler`` rejects the malformed record as ``decode_graph``
    does: same exception class, same message."""
    raised = []
    for decode in (decode_graph, compiler):
        record = _path_record()
        _MALFORMED[case](record)
        with pytest.raises(BAD_RECORD) as info:
            decode(record)
        raised.append((info.type, str(info.value)))
    assert raised[0] == raised[1]


def _golden_records(tmp_path) -> list:
    """Every graph record of the golden index, as its page file holds it."""
    db = load_graph_database(
        Path(__file__).parent / "data" / "golden_chem.jsonl")
    path = tmp_path / "golden.ctp"
    DiskCTree.create(bulk_load(db, min_fanout=3), path, page_size=512).close()
    with DiskCTree.open(path) as disk:
        entries = [e for _, node in disk.nodes() if node.is_leaf
                   for e in node.children]
        assert sorted(e.graph_id for e in entries) == list(range(len(db)))
        return [disk.store.load_record(e.record) for e in entries]


#: what :func:`decode_nbm_context` must agree on slot for slot — the
#: label half (what a leaf entry's memo is screened with) and all that
#: Alg. 1 reads; its ``edge_counts`` and ``vertex_groups`` are compared
#: as dicts, its ``adj`` dict by dict, key order included (a decode is
#: deterministic)
_RECORD_NBM_FIELDS = ("n", "degrees", "vmasks", "vhist", "ehist", "vbits",
                      "ebits", "vkeys", "profiles", "edge_masks")


def _assert_record_nbm_context(record: dict) -> None:
    """``decode_nbm_context`` holds the label half and what Alg. 1 reads
    of the context ``nbm_context`` compiles from the decoded graph, and
    not Alg. 2's half.  Every score reads that adjacency: the first the
    one the compile built, each later one rebuilt from the kept edges,
    and the context keeps none of them."""
    ours, theirs = decode_nbm_context(record), nbm_context(
        decode_graph(record))
    for field in _RECORD_NBM_FIELDS:
        assert getattr(ours, field) == getattr(theirs, field), field
    for field in ("edge_counts", "vertex_groups"):
        assert dict(getattr(ours, field)) == dict(getattr(theirs, field))
    assert ours.edge_rows is None
    adjacency = [list(a.items()) for a in theirs.adj]
    for _ in range(2):
        view = ours.scoring()
        assert ours.adj is None
        for field in ("n", "vmasks", "vkeys", "profiles", "edge_masks",
                      "edge_counts"):
            assert getattr(view, field) is getattr(ours, field), field
        assert [list(a.items()) for a in view.adj] == adjacency


class TestRecordNbmContext:
    @given(graphs())
    @example(Graph([]))
    @example(Graph(["C", WILDCARD, "N"]))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_graphs(self, g):
        _assert_record_nbm_context(_through_json(encode_graph(g)))

    def test_every_golden_record(self, tmp_path):
        for record in _golden_records(tmp_path):
            _assert_record_nbm_context(record)

    @pytest.mark.parametrize("case", _MALFORMED)
    def test_malformed_record_raises_alike(self, case):
        _assert_raise_alike(case, decode_nbm_context)

    def test_vertex_keys_follow_a_labelspace_reset(self):
        """After ``reset_labelspace()`` a re-compile interns its keys in
        the new space (where a stale id would name another key), not the
        ids the old space handed out."""
        records = [_through_json(encode_graph(g))
                   for g in generate_chemical_database(20, seed=5)]
        for record in records:
            _assert_record_nbm_context(record)
        space = reset_labelspace()
        space.vertex_key((space.vertex_bit("unseen"),))  # key ids shift by 1
        for record in reversed(records):
            _assert_record_nbm_context(record)
            ctx = decode_nbm_context(record)
            assert [space.vertex_keys[k][0] for k in ctx.vkeys] == ctx.vmasks


# ----------------------------------------------------------------------
# Format versioning and fsck on malformed records
# ----------------------------------------------------------------------
_POOL = generate_chemical_database(
    12, seed=11, config=ChemicalConfig(mean_vertices=8, large_fraction=0.0))


@pytest.fixture
def index(tmp_path):
    """A committed three-level index and its path."""
    path = tmp_path / "index.ctp"
    tree = bulk_load(_POOL, min_fanout=2, max_fanout=4)
    DiskCTree.create(tree, path, page_size=256, cache_pages=16).close()
    return path


def _rewrite(path, pick, change) -> None:
    """Overwrite, and commit, the record ``pick(disk)`` names with
    ``change`` applied to its parsed form."""
    with DiskCTree.open(path) as disk:
        record_id = pick(disk)
        record = disk.store.load_record(record_id)
        change(record)
        disk.store.records.update(record_id, dump_record(record))
        disk.checkpoint()


def _first_entry(disk):
    return next(node.children[0] for _, node in disk.nodes() if node.is_leaf)


def _graph_record(disk) -> int:
    return _first_entry(disk).record


def _leaf_record(disk) -> int:
    return next(ref for ref, node in disk.nodes() if node.is_leaf)


def _errors(path, deep=False) -> list:
    report = DiskCTree.fsck(path, deep=deep)   # must not raise
    return report.errors


class TestFormatVersion:
    def test_older_format_is_refused_with_the_way_out(self, index):
        with DiskCTree.open(index) as disk:
            disk._meta["format"] = 2
            disk._write_meta()
            disk.checkpoint()
        with pytest.raises(PersistenceError, match="repro build"):
            DiskCTree.open(index)
        assert any("format" in e for e in _errors(index))

    def test_format_3_page_layout_is_refused_with_the_way_out(
            self, tmp_path):
        """Format 3 kept one record per page chain, its id the head page
        id: ``<next page: u64><length: u16><bytes>``.  Such a file is
        refused at open, before any slot is read."""
        path = tmp_path / "format3.ctp"
        meta = json.dumps({"format": 3, "root": 2}).encode()
        pagefile = PageFile.create(path, page_size=512)
        page = pagefile.allocate()
        pagefile.write_page(page, struct.pack("<QH", NO_PAGE, len(meta))
                            + meta)
        pagefile.user_root = page
        pagefile.close()
        with pytest.raises(PersistenceError,
                           match=r"format 3 or older.*\(`repro build`\)"):
            DiskCTree.open(path)
        assert _errors(path) == [
            f"unsupported index format 3 or older (user root {page} is a "
            f"bare page id)"]


class TestFsckOnMalformedRecords:
    def test_clean_index_is_clean(self, index):
        assert _errors(index, deep=True) == []

    def test_out_of_range_endpoint(self, index):
        def change(record):
            record["e"][0] = len(record["v"])
        _rewrite(index, _graph_record, change)
        assert any("out of range" in e for e in _errors(index))

    def test_duplicate_edge(self, index):
        def change(record):
            record["e"] += record["e"][:3]
        _rewrite(index, _graph_record, change)
        assert any("duplicate edge" in e for e in _errors(index))

    def test_label_code_outside_table(self, index):
        def change(record):
            record["v"][0] = len(record["vl"])
        _rewrite(index, _graph_record, change)
        assert any("unparseable" in e for e in _errors(index))

    def test_closure_mask_beyond_label_table(self, index):
        def change(record):
            record["closure"]["v"][0] = 1 << len(record["closure"]["vl"])
        _rewrite(index, _leaf_record, change)
        assert any("bad closure" in e and "label mask" in e
                   for e in _errors(index))

    def test_stale_entry_histogram(self, index):
        """A wrong histogram beside the pointer is a silent false
        negative; the plain (not only the deep) check reports it."""
        def change(record):
            entry = record["graphs"][0]
            entry[2] = [entry[2][0], entry[2][1] + 1] + entry[2][2:]
        _rewrite(index, _leaf_record, change)
        assert any("histogram differs" in e for e in _errors(index))

    def test_stale_entry_histogram_on_a_warm_handle(self, index):
        """On a handle whose resident leaves hold contexts compiled from
        the graph records, the check still reads the histograms beside
        each pointer: one entry's, corrupted in memory, is the one
        finding."""
        with DiskCTree.open(index) as disk:
            for g in _POOL[:6]:
                assert subgraph_query(disk, g)[0]
            assert knn_query(disk, _POOL[0], 4)[0]
            compiled = [entry for _, node in disk.nodes() if node.is_leaf
                        for entry in node.children
                        if isinstance(entry.summary[1], RecordContext)]
            assert len(compiled) > 1
            entry = compiled[-1]
            entry.vhist = [entry.vhist[0], entry.vhist[1] + 1] + \
                entry.vhist[2:]
            assert disk.check() == [
                f"graph {entry.graph_id}: leaf entry histogram differs "
                f"from its graph record's"]

    def test_entry_of_wrong_shape(self, index):
        def change(record):
            record["graphs"][0] = record["graphs"][0][:2]
        _rewrite(index, _leaf_record, change)
        assert any("bad record" in e for e in _errors(index))


class TestUnchangedClosureRewritesVerbatim:
    def test_loaded_node_reencodes_to_its_own_bytes(self, index):
        with DiskCTree.open(index) as disk:
            for ref, node in disk.nodes():
                stored = disk.store.records.load(ref)
                assert node.closure is not None   # decoding must not dirty it
                assert dump_record(encode_node(node)) == stored
