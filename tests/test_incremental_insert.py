"""Incremental disk inserts: model-based interleaving vs an oracle.

The tentpole guarantee of the incremental append path is that a
``DiskCTree`` mutated in place (policy descent, path-local splits,
group commit) stays *observably identical* to a plain collection of
graphs: every subgraph query answers exactly like a linear scan, every
intermediate state passes a deep ``fsck``, and the record store's
in-place ``update`` primitive never corrupts neighboring records.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskCTree
from repro.datasets.chemical import ChemicalConfig, generate_chemical_database
from repro.matching.pseudo_iso import pseudo_compatibility_domains
from repro.matching.ullmann import subgraph_isomorphic
from repro.obs.metrics import global_registry
from repro.storage.bufferpool import BufferPool
from repro.storage.pagefile import PageFile
from repro.storage.recordstore import RecordStore

_CONFIG = ChemicalConfig(mean_vertices=8, large_fraction=0.0)
#: deterministic pool of graphs the model draws appends from
_POOL = generate_chemical_database(40, seed=11, config=_CONFIG)
_QUERIES = generate_chemical_database(4, seed=23, config=_CONFIG)


def _linear_answers(graphs: dict, query) -> list:
    """The oracle: a verified linear scan over the live graph set."""
    return sorted(
        gid for gid, g in graphs.items()
        if subgraph_isomorphic(
            query, g, pseudo_compatibility_domains(query, g, 1))
    )


#: (op selector, operand) — 0/1: append 1 or 3 graphs, 2: query, 3: fsck
_MODEL_OPS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 10 ** 6)),
    min_size=1, max_size=12,
)


class TestIncrementalModel:
    @given(_MODEL_OPS)
    @settings(max_examples=12, deadline=None)
    def test_interleaved_appends_match_oracle(self, ops):
        """Interleave incremental appends with queries; at every point
        the disk index answers exactly like the in-memory oracle, and
        the on-disk structure stays fsck-clean."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ctp"
            seed_graphs = _POOL[:6]
            tree = bulk_load(seed_graphs, min_fanout=2, max_fanout=4)
            oracle = dict(enumerate(seed_graphs))
            cursor = 6
            with DiskCTree.create(tree, path, page_size=256,
                                  cache_pages=8) as disk:
                for selector, operand in ops:
                    if selector in (0, 1):
                        count = 1 if selector == 0 else 3
                        batch = [_POOL[(cursor + i) % len(_POOL)]
                                 for i in range(count)]
                        ids = disk.extend(batch)
                        assert ids == list(range(len(oracle),
                                                 len(oracle) + count))
                        for gid, g in zip(ids, batch):
                            oracle[gid] = g
                        cursor += count
                    elif selector == 2:
                        query = _QUERIES[operand % len(_QUERIES)]
                        answers, _ = disk.subgraph_query(query)
                        assert sorted(answers) == \
                            _linear_answers(oracle, query)
                    else:
                        disk.flush()
                        report = DiskCTree.fsck(path, deep=False)
                        assert report.clean, report.errors
                # Final state: every query agrees, deep fsck is clean.
                for query in _QUERIES:
                    answers, _ = disk.subgraph_query(query)
                    assert sorted(answers) == _linear_answers(oracle, query)
                assert len(disk) == len(oracle)
                assert sorted(dict(disk.iter_graphs())) == \
                    sorted(oracle)
            report = DiskCTree.fsck(path, deep=True)
            assert report.clean, report.errors


class TestRecordUpdate:
    """The in-place record rewrite the path-local insert relies on."""

    def _store(self, tmp, page_size=128, capacity=4):
        pf = PageFile.create(Path(tmp) / "u.ctp", page_size=page_size)
        return RecordStore(BufferPool(pf, capacity=capacity))

    def test_update_keeps_record_id(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = self._store(tmp)
            rid = store.store(b"x" * 50)
            assert store.update(rid, b"y" * 500) == rid
            assert store.load(rid) == b"y" * 500
            assert store.update(rid, b"z") == rid
            assert store.load(rid) == b"z"
            store.pool.close()

    def test_update_releases_surplus_pages(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = self._store(tmp)
            rid = store.store(b"a" * 1000)
            long_chain = store.chain_pages(rid)
            store.update(rid, b"b" * 10)
            assert store.chain_pages(rid) == long_chain[:1]
            # Freed pages are recycled before the file grows.
            page_count = store.pool.pagefile.page_count
            other = store.store(b"c" * 500)
            assert store.pool.pagefile.page_count == page_count
            home, *overflow = store.chain_pages(other)
            assert home == long_chain[0]   # the slot shares the record page
            assert set(overflow) <= set(long_chain[1:])
            store.pool.close()

    @given(st.lists(st.binary(max_size=600), min_size=2, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_update_never_corrupts_neighbors(self, payloads):
        """Grow/shrink one record arbitrarily; records around it must
        read back byte-identical."""
        with tempfile.TemporaryDirectory() as tmp:
            store = self._store(tmp)
            left = store.store(b"L" * 300)
            rid = store.store(payloads[0])
            right = store.store(b"R" * 300)
            for payload in payloads[1:]:
                assert store.update(rid, payload) == rid
                assert store.load(rid) == payload
                assert store.load(left) == b"L" * 300
                assert store.load(right) == b"R" * 300
            store.pool.close()


class TestAppendThroughputShape:
    def test_append_cost_does_not_scale_with_database(self):
        """Sanity version of the append bench gate: appending to a 4x
        larger index must not cost 4x the pages written."""
        registry = global_registry()
        with tempfile.TemporaryDirectory() as tmp:
            writes = []
            for size in (30, 120):
                path = Path(tmp) / f"s{size}.ctp"
                tree = bulk_load(_POOL[:10], min_fanout=2, max_fanout=4)
                with DiskCTree.create(tree, path, page_size=512,
                                      cache_pages=64) as disk:
                    grow = [_POOL[i % len(_POOL)] for i in range(size)]
                    disk.extend(grow)
                    counter = registry.counter("bufferpool.writebacks")
                    before = counter.value
                    disk.extend(_POOL[:4])
                    writes.append(counter.value - before)
        assert writes[1] <= writes[0] * 3, writes
