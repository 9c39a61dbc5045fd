"""Unit tests for K-NN and range queries (Section 7, Alg. 4)."""

import pytest

from repro.graphs.graph import Graph
from repro.matching.edit_distance import graph_distance, graph_similarity
from oracles.nbm import nbm_mapping_reference
from repro.obs.metrics import global_registry
from repro.ctree.bulkload import bulk_load
from repro.ctree.similarity_query import (
    closure_distance_lower_bound,
    knn_query,
    linear_scan_knn,
    range_query,
)
from repro.ctree.tree import CTree

from conftest import triangle


@pytest.fixture(scope="module")
def chem_tree_and_db():
    from repro.datasets.chemical import ChemicalConfig, generate_chemical_database

    db = generate_chemical_database(
        50, seed=17, config=ChemicalConfig(mean_vertices=12, large_fraction=0.0)
    )
    return bulk_load(db, min_fanout=3), db


class TestKnn:
    def test_empty_tree(self):
        results, stats = knn_query(CTree(min_fanout=2), triangle(), 3)
        assert results == []
        assert stats.results == 0

    def test_one_mapping_call_per_graph_scored(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        registry = global_registry()
        before = registry.snapshot()
        _, knn_stats = knn_query(tree, db[7], 4)
        _, range_stats = range_query(tree, db[7], 9.0)
        delta = registry.diff(before)
        scored = knn_stats.graphs_scored + range_stats.graphs_scored
        assert delta["matching.mapping.calls"]["value"] == scored > 0
        assert delta["matching.mapping.calls.nbm"]["value"] == scored

    def test_k_zero(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        results, _ = knn_query(tree, db[0], 0)
        assert results == []

    def test_self_query_top_hit(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        results, _ = knn_query(tree, db[5], 3)
        top_id, top_sim = results[0]
        # The graph itself achieves the maximum possible similarity.
        assert top_sim == pytest.approx(
            max(graph_similarity(db[5], db[i]) for i, _ in results)
        )
        assert top_sim <= db[5].num_vertices + db[5].num_edges

    def test_returns_k_results_sorted(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        results, _ = knn_query(tree, db[0], 7)
        assert len(results) == 7
        sims = [s for _, s in results]
        assert sims == sorted(sims, reverse=True)
        assert len({gid for gid, _ in results}) == 7

    def test_k_larger_than_database(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        results, _ = knn_query(tree, db[0], len(db) + 50)
        assert len(results) == len(db)

    def test_against_linear_scan_similarities(self, chem_tree_and_db):
        """Index K-NN returns the linear scan's list exactly, ties
        included."""
        tree, db = chem_tree_and_db
        for qid in (3, 11, 29):
            k = 5
            index_results, _ = knn_query(tree, db[qid], k)
            assert index_results == \
                linear_scan_knn(dict(tree.graphs()), db[qid], k)

    def test_access_ratio_increases_with_k(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        _, s1 = knn_query(tree, db[0], 1)
        _, s2 = knn_query(tree, db[0], 25)
        assert s2.graphs_scored >= s1.graphs_scored


class TestRange:
    def test_radius_zero_finds_self(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        results, _ = range_query(tree, db[9], 0.0)
        assert any(gid == 9 for gid, _ in results)

    def test_results_within_radius_and_sorted(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        results, _ = range_query(tree, db[2], 10.0)
        distances = [d for _, d in results]
        assert all(d <= 10.0 for d in distances)
        assert distances == sorted(distances)

    def test_no_sound_answer_pruned(self, chem_tree_and_db):
        """Every graph the scan finds within the radius (under the same
        heuristic distance) must be returned by the index."""
        tree, db = chem_tree_and_db
        radius = 8.0
        results, _ = range_query(tree, db[4], radius)
        found = {gid for gid, _ in results}
        for gid, g in tree.graphs():
            if graph_distance(db[4], g) <= radius:
                assert gid in found

    def test_empty_tree(self):
        results, _ = range_query(CTree(min_fanout=2), triangle(), 5.0)
        assert results == []

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_distances_are_the_reference_mappings(
            self, chem_tree_and_db, on_disk, tmp_path):
        """What the traversal's one scorer reports per graph is the edit
        cost of Alg. 1's reference loop on that pair."""
        from repro.ctree.diskindex import DiskCTree

        tree, db = chem_tree_and_db
        index = DiskCTree.create(tree, tmp_path / "range.ctp",
                                 cache_pages=16) if on_disk else tree
        try:
            for qid, radius in [(4, 8.0), (30, 12.0)]:
                results, _ = range_query(index, db[qid], radius)
                assert results
                for gid, dist in results:
                    assert dist == nbm_mapping_reference(
                        db[qid], db[gid]).edit_cost()
                knn, _ = knn_query(index, db[qid], 6)
                for gid, sim in knn:
                    assert sim == nbm_mapping_reference(
                        db[qid], db[gid]).similarity()
        finally:
            if on_disk:
                index.close()

    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_leaf_entries_screened_before_load(
            self, chem_tree_and_db, on_disk, tmp_path, monkeypatch):
        """A leaf entry whose Eqn. (7) distance bound exceeds the radius
        is neither loaded nor scored, and the answers are those of the
        scan that scores every graph of every surviving leaf."""
        from repro.ctree.diskindex import DiskCTree

        tree, db = chem_tree_and_db
        index = DiskCTree.create(tree, tmp_path / "range.ctp",
                                 cache_pages=16) if on_disk else tree
        store = index.store
        loads = []
        load_graph, load_nbm_context = store.load_graph, store.load_nbm_context
        monkeypatch.setattr(
            store, "load_nbm_context",
            lambda entry: loads.append(entry.graph_id)
            or load_nbm_context(entry))
        skipped = 0
        try:
            for query, radius in [(db[4], 8.0), (db[11], 5.0), (db[30], 12.0)]:
                del loads[:]
                results, stats = range_query(index, query, radius)
                assert len(loads) == len(set(loads)) == stats.graphs_scored
                # The unscreened scan over the same surviving leaves.
                in_leaves, expected = 0, []
                stack = [store.load_node(store.root)]
                while stack:
                    node = stack.pop()
                    for ref in node.children:
                        if node.is_leaf:
                            in_leaves += 1
                            dist = graph_distance(query, load_graph(ref))
                            if dist <= radius:
                                expected.append((ref.graph_id, dist))
                        else:
                            child = store.load_node(ref)
                            if closure_distance_lower_bound(
                                    query, child.closure) <= radius:
                                stack.append(child)
                assert results == sorted(expected, key=lambda t: (t[1], t[0]))
                assert stats.graphs_scored <= in_leaves
                skipped += in_leaves - stats.graphs_scored
        finally:
            if on_disk:
                index.close()
        assert skipped > 0, "the leaf screen rejected nothing"


class TestClosureDistanceLowerBound:
    def test_bounds_member_distance(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        node = tree.root
        for gid, g in list(tree.graphs())[:10]:
            bound = closure_distance_lower_bound(g, node.closure)
            # Each member graph is inside the root closure: distance to
            # itself is 0, so the lower bound must be 0 too.
            assert bound == 0.0

    def test_positive_for_alien_query(self, chem_tree_and_db):
        tree, _ = chem_tree_and_db
        alien = Graph(["Zz1", "Zz2"], [(0, 1)])
        assert closure_distance_lower_bound(alien, tree.root.closure) >= 2.0

    def test_bound_below_heuristic_distance(self, chem_tree_and_db):
        tree, db = chem_tree_and_db
        for child in tree.root.children:
            if hasattr(child, "closure") and child.closure is not None:
                for gid, g in list(tree.graphs())[:5]:
                    bound = closure_distance_lower_bound(db[0], child.closure)
                    # The bound is a lower bound on distance to *members* of
                    # the closure; any member's heuristic distance dominates.
                    for entry in child.iter_leaf_entries():
                        assert bound <= graph_distance(db[0], entry.graph) + 1e-9
                    break
                break
