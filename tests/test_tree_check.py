"""One soundness check over both node stores.

``CTreeCore.check`` is the one tree walk behind ``validate`` (on either
store) and ``DiskCTree.fsck``: shape (fanout within [m, M], an internal
root with two children, a closure on every non-empty node, leaves at one
depth, unique ids, the id count), Lemma 1 along every lineage (histogram
dominance; pseudo-containment when deep) and the leaf-entry summary.
Every one of those checks is made to fire here on a deliberately broken
tree — on a page file through ``fsck``, on a live tree through
``validate`` — and so is everything only a page file adds: the free
list, record slots and overflow chains, page tiling and the metadata.
"""

import os
import struct
import subprocess
import sys

import pytest

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.ctree.node import CTreeNode
from repro.ctree.store import dump_record, encode_closure
from repro.graphs.closure import GraphClosure
from repro.graphs.graph import Graph
from repro.storage.pagefile import NO_PAGE, PageFile

_U64 = struct.Struct("<Q")


def _molecule(i: int) -> Graph:
    """An alternating C/O path of 2-5 vertices: every one has a C-O bond
    and at most three vertices, and four bonds, of any one label."""
    n = 2 + i % 4
    g = Graph(["C" if j % 2 == 0 else "O" for j in range(n)])
    for j in range(n - 1):
        g.add_edge(j, j + 1, "s" if (i + j) % 2 else "d")
    return g


_DB = [_molecule(i) for i in range(12)]

#: dominates no graph of ``_DB``: it has no O
_TOO_SMALL = GraphClosure([{"C"}])


def _wrong_shape() -> GraphClosure:
    """Four C and four O vertices, C bonded only to C and O only to O:
    its histogram dominates every graph of ``_DB``, yet no C of a graph
    finds the O neighbour it needs — only the deep test can tell."""
    closure = GraphClosure([{"C"}] * 4 + [{"O"}] * 4)
    for u, v in ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)):
        closure.add_edge(u, v, {"s", "d"})
    return closure


# ----------------------------------------------------------------------
# fsck on a broken page file
# ----------------------------------------------------------------------
@pytest.fixture
def index(tmp_path):
    """A committed two-level index over ``_DB`` (small pages, so node
    records span several) and its path."""
    path = tmp_path / "index.ctp"
    DiskCTree.create(bulk_load(_DB, min_fanout=2, max_fanout=4), path,
                     page_size=128, cache_pages=16).close()
    return path


def _leaf_refs(disk) -> list:
    return [ref for ref, node in disk.nodes() if node.is_leaf]


def _meta_ref(disk) -> int:
    return disk.pool.pagefile.user_root


def _rewrite(path, pick, change) -> int:
    """Overwrite, and commit, the record ``pick(disk)`` names with
    ``change`` applied to its parsed form; returns the record id."""
    with DiskCTree.open(path) as disk:
        ref = pick(disk)
        record = disk.store.load_record(ref)
        change(record)
        disk.store.records.update(ref, dump_record(record))
        disk.checkpoint()
    return ref


def _errors(path, deep=False) -> list:
    return DiskCTree.fsck(path, deep=deep).errors


class TestFsckFindings:
    def test_clean(self, index):
        assert _errors(index, deep=True) == []

    def test_lineage_dominance(self, index):
        _rewrite(index, lambda d: _leaf_refs(d)[0],
                 lambda r: r.update(closure=encode_closure(_TOO_SMALL)))
        errors = _errors(index)
        assert errors
        assert all(e.endswith(": leaf closure does not dominate its label "
                              "histogram") for e in errors), errors

    def test_deep_pseudo_containment(self, index):
        _rewrite(index, lambda d: _leaf_refs(d)[0],
                 lambda r: r.update(closure=encode_closure(_wrong_shape())))
        assert _errors(index) == []
        errors = _errors(index, deep=True)
        assert errors
        assert all(e.endswith(": not pseudo-contained in the leaf closure")
                   for e in errors), errors

    def test_leaf_depth(self, index):
        _rewrite(index, _meta_ref,
                 lambda r: r.update(height=r["height"] + 1))
        errors = _errors(index)
        assert errors
        assert all(e.endswith(": leaf at depth 1, metadata says height 2")
                   for e in errors), errors

    def test_duplicate_graph_id(self, index):
        with DiskCTree.open(index) as disk:
            first, second = _leaf_refs(disk)[:2]
            moved = disk.store.load_record(first)["graphs"][0]
            record = disk.store.load_record(second)
            record["graphs"].append(moved)
            disk.store.records.update(second, dump_record(record))
            disk.checkpoint()
        assert f"graph id {moved[0]} appears in more than one leaf" \
            in _errors(index)

    def test_fanout_overflow(self, index):
        with DiskCTree.open(index) as disk:
            assert max(len(node.children) for _, node in disk.nodes()) == 4
        _rewrite(index, _meta_ref,
                 lambda r: r["config"].update(max_fanout=3))
        errors = _errors(index)
        assert errors
        assert all(e.endswith(": fanout 4 exceeds the configured maximum 3")
                   for e in errors), errors

    def test_missing_closure(self, index):
        ref = _rewrite(index, lambda d: _leaf_refs(d)[0],
                       lambda r: r.pop("closure"))
        assert _errors(index, deep=True) == [
            f"node record {ref}: non-empty node without a closure"]

    def test_graph_count(self, index):
        _rewrite(index, _meta_ref,
                 lambda r: r.update(graph_count=r["graph_count"] + 1))
        assert _errors(index) == ["metadata says 13 graphs, tree holds 12"]

    @staticmethod
    def _free_pages(path) -> int:
        """Delete two graphs without repacking (their pages go to the free
        list); returns the free-list head."""
        with DiskCTree.open(path) as disk:
            disk.delete_many([0, 1], auto_compact=False)
        pagefile = PageFile.open(path)
        head = pagefile.free_head
        pagefile.close()
        assert head != NO_PAGE
        assert _errors(path) == []
        return head

    @staticmethod
    def _link(path, page: int, target: int) -> None:
        """Point ``page``'s chain / free-list link at ``target``."""
        pagefile = PageFile.open(path)
        data = pagefile.read_page(page)
        pagefile.write_page(page, _U64.pack(target) + data[_U64.size:])
        pagefile.close()

    def test_free_list_cycle(self, index):
        head = self._free_pages(index)
        self._link(index, head, head)
        assert f"free list cycles back to page {head}" in _errors(index)

    def test_free_list_out_of_range(self, index):
        head = self._free_pages(index)
        pagefile = PageFile.open(index)
        beyond = pagefile.page_count + 5
        pagefile.close()
        self._link(index, head, beyond)
        assert f"free list points at invalid page {beyond}" \
            in _errors(index)

    def test_broken_chain(self, index):
        with DiskCTree.open(index) as disk:
            ref = next(ref for ref in _leaf_refs(disk)
                       if len(disk.store.records.chain_pages(ref)) > 1)
            overflow = disk.store.records.chain_pages(ref)[1]
        self._link(index, overflow, overflow)
        assert (f"node record {ref}: corrupt overflow chain: "
                f"page {overflow} repeats") in _errors(index)

    def test_leaked_page(self, index):
        pagefile = PageFile.open(index)
        page = pagefile.extend()
        pagefile.close()
        assert _errors(index) == [f"1 page(s) leaked (e.g. page {page})"]

    def test_page_both_reachable_and_free(self, index):
        with DiskCTree.open(index) as disk:
            page = next(
                pages[0] for ref in _leaf_refs(disk)
                for entry in disk.store.load_node(ref).children
                if len(pages := disk.store.records.chain_pages(
                    entry.record)) == 1)
        pagefile = PageFile.open(index)
        assert pagefile.free_head == NO_PAGE
        pagefile.mark_freed(page)   # a record page's link ends the list
        pagefile.close()
        assert _errors(index) == [
            f"1 page(s) both reachable and free (e.g. page {page})"]

    def test_underflow_is_an_error(self, index):
        """Merge-or-redistribute keeps every non-root node at
        ``min_fanout`` or more, so a committed node under it is an
        error, as ``validate`` says — not a note."""
        _rewrite(index, _meta_ref, lambda r: r["config"].update(
            min_fanout=5, max_fanout=9))
        report = DiskCTree.fsck(index)
        assert report.errors
        assert all(": fanout" in e and "below the configured minimum 5" in e
                   for e in report.errors), report.errors
        assert not any("minimum" in n for n in report.notes)

    def test_internal_root_with_one_child(self, index):
        ref = _rewrite(index, lambda d: d.store.root,
                       lambda r: r.update(children=r["children"][:1]))
        assert f"node record {ref}: internal root with 1 child(ren)" \
            in _errors(index)

    @pytest.mark.parametrize("key", ["leaf_count", "next_id", "config"])
    def test_missing_metadata_key_is_an_error(self, index, key):
        """Every create and compaction writes each format-4 key, so a
        missing one is corruption — reported, not a skipped check."""
        _rewrite(index, _meta_ref, lambda r: r.pop(key))
        assert f"metadata has no {key!r}" in _errors(index)


# ----------------------------------------------------------------------
# fsck on damaged record pages (layout: docs/DURABILITY.md, format 4)
# ----------------------------------------------------------------------
#: a record page's slot i: ``<offset: u16><length: u16>`` at 16 + 4 i
_SLOT = struct.Struct("<HH")


@pytest.fixture
def packed(tmp_path):
    """The index of ``_DB`` on 512-byte pages, where one record page
    holds several graph records."""
    path = tmp_path / "packed.ctp"
    DiskCTree.create(bulk_load(_DB, min_fanout=2, max_fanout=4), path,
                     page_size=512, cache_pages=16).close()
    return path


def _graph_entries(path) -> list:
    """``(graph id, record id)`` of every leaf entry, in walk order."""
    with DiskCTree.open(path) as disk:
        return [(entry.graph_id, entry.record) for ref in _leaf_refs(disk)
                for entry in disk.store.load_node(ref).children]


def _edit_slot(path, page: int, slot: int, change) -> None:
    """Rewrite slot ``slot`` of record page ``page`` as ``change(offset,
    length)`` returns it, checksum and all."""
    pagefile = PageFile.open(path)
    data = bytearray(pagefile.read_page(page))
    at = 16 + _SLOT.size * slot
    _SLOT.pack_into(data, at, *change(*_SLOT.unpack_from(data, at)))
    pagefile.write_page(page, bytes(data))
    pagefile.close()


class TestFsckSlotDamage:
    """Each fault is an fsck error naming the record or page — never an
    exception."""

    def test_clean(self, packed):
        assert _errors(packed, deep=True) == []
        pages = [record >> 16 for _, record in _graph_entries(packed)]
        assert len(set(pages)) * 3 <= len(pages)   # graphs share pages

    def test_record_naming_a_free_slot(self, packed):
        gid, record = _graph_entries(packed)[0]
        page, slot = record >> 16, record & 0xFFFF
        _edit_slot(packed, page, slot, lambda offset, length: (0, 0))
        assert f"graph {gid} record {record}: slot {slot} of page {page} " \
            f"is free" in _errors(packed)

    def test_slot_running_past_the_page(self, packed):
        gid, record = _graph_entries(packed)[0]
        page, slot = record >> 16, record & 0xFFFF
        _edit_slot(packed, page, slot,
                   lambda offset, length: (offset, 512 - offset + 1))
        assert f"graph {gid} record {record}: slot {slot} runs past the " \
            f"end of page {page}" in _errors(packed)

    def test_overlapping_records(self, packed):
        page = _graph_entries(packed)[0][1] >> 16
        pagefile = PageFile.open(packed)
        first, _ = _SLOT.unpack_from(pagefile.read_page(page), 16)
        pagefile.close()
        _edit_slot(packed, page, 1, lambda offset, length: (first + 1, length))
        assert f"page {page}: the bytes of slot 1 overlap those of slot 0" \
            in _errors(packed)

    def test_two_records_claiming_one_slot(self, packed):
        (g0, r0), (g1, r1) = _graph_entries(packed)[:2]

        def share(record):
            record["graphs"][1][1] = record["graphs"][0][1]
        _rewrite(packed, lambda d: _leaf_refs(d)[0], share)
        errors = _errors(packed)
        assert f"graph {g1} record {r0}: slot already claimed by graph " \
            f"{g0} record {r0}" in errors
        assert f"page {r1 >> 16}: slot {r1 & 0xFFFF} holds a record no " \
            f"index entry reaches (leaked)" in errors

    def test_record_page_without_a_live_slot_leaks(self, packed):
        pagefile = PageFile.open(packed)
        page = pagefile.extend()
        pagefile.write_page(page, _U64.pack(NO_PAGE) + struct.pack(
            "<H2x4s", 0, b"CTR4"))
        pagefile.close()
        assert _errors(packed) == [f"1 page(s) leaked (e.g. page {page})"]


# ----------------------------------------------------------------------
# validate on a broken live tree: the same walk, the same findings
# ----------------------------------------------------------------------
@pytest.fixture
def tree():
    """The tree the disk fixture is written from."""
    return bulk_load(_DB, min_fanout=2, max_fanout=4)


def _leaves(tree) -> list:
    return [node for _, node in tree.nodes() if node.is_leaf]


class TestValidateFindings:
    def test_clean(self, tree):
        tree.validate(deep=True)
        assert tree.check("max") == []

    def test_lineage_dominance(self, tree):
        _leaves(tree)[0].closure = _TOO_SMALL
        with pytest.raises(AssertionError,
                           match="leaf closure does not dominate"):
            tree.validate()

    def test_deep_pseudo_containment(self, tree):
        _leaves(tree)[0].closure = _wrong_shape()
        tree.validate()
        with pytest.raises(AssertionError,
                           match="not pseudo-contained in the leaf closure"):
            tree.validate(deep=True)

    def test_leaf_depth(self, tree):
        leaf = tree.root.children[0]
        wrapper = CTreeNode(False, [leaf])
        wrapper.closure = leaf.closure
        tree.root.children[0] = wrapper
        with pytest.raises(AssertionError,
                           match="leaf at depth 2, catalog says height 1"):
            tree.validate()

    def test_duplicate_graph_id(self, tree):
        first, second = _leaves(tree)[:2]
        second.children.append(first.children[0])
        gid = first.children[0].graph_id
        with pytest.raises(AssertionError,
                           match=f"graph id {gid} appears in more than one"):
            tree.validate()

    def test_fanout_overflow(self, tree):
        tree.max_fanout = 3
        with pytest.raises(AssertionError,
                           match="fanout 4 exceeds the configured maximum 3"):
            tree.validate()

    def test_underflow(self, tree):
        tree.min_fanout = 5
        with pytest.raises(AssertionError,
                           match="below the configured minimum 5"):
            tree.validate()

    def test_missing_closure(self, tree):
        _leaves(tree)[0].closure = None
        with pytest.raises(AssertionError,
                           match="non-empty node without a closure"):
            tree.validate()

    def test_internal_root_with_one_child(self, tree):
        del tree.root.children[1:]
        with pytest.raises(AssertionError,
                           match="internal root with 1 child"):
            tree.validate()

    def test_graph_count(self, tree):
        tree.store.meta["graph_count"] += 1
        with pytest.raises(AssertionError,
                           match="catalog says 13 graphs, tree holds 12"):
            tree.validate()


_UNDER_O = """
from repro.ctree.bulkload import bulk_load
from repro.datasets.chemical import generate_chemical_database
tree = bulk_load(generate_chemical_database(12, seed=3), min_fanout=2,
                 max_fanout=4)
leaves = [node for _, node in tree.nodes() if node.is_leaf]
leaves[1].children.append(leaves[0].children[0])
try:
    tree.validate()
except AssertionError as exc:
    print(__debug__, exc)
else:
    print(__debug__, "passed")
"""


def test_validate_checks_under_python_O():
    """``validate`` raises explicitly: ``python -O`` strips ``assert``
    statements, not this check."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-O", "-c", _UNDER_O],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("False graph id "), done.stdout
    assert "appears in more than one leaf" in done.stdout
