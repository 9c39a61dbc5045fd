"""Unit tests for the query statistics containers."""

import pytest

from repro.ctree.diskindex import DiskKnnStats, DiskQueryStats
from repro.ctree.stats import KnnStats, QueryStats
from repro.obs.metrics import MetricsRegistry


class TestQueryStats:
    def test_defaults(self):
        stats = QueryStats()
        assert stats.access_ratio == 0.0
        assert stats.accuracy == 1.0  # empty candidate set convention
        assert stats.total_seconds == 0.0

    def test_access_ratio(self):
        stats = QueryStats(database_size=100, pseudo_tests=25)
        assert stats.access_ratio == 0.25

    def test_accuracy(self):
        stats = QueryStats(candidates=10, answers=7)
        assert stats.accuracy == 0.7

    def test_record_level_grows_lists(self):
        stats = QueryStats()
        stats.record_level(2, 4, 3)
        assert stats.x_by_level == [0, 0, 4]
        assert stats.y_by_level == [0, 0, 3]
        assert stats.nodes_by_level == [0, 0, 1]

    def test_record_level_accumulates(self):
        stats = QueryStats()
        stats.record_level(0, 4, 3)
        stats.record_level(0, 2, 1)
        assert stats.x_by_level == [6]
        assert stats.nodes_by_level == [2]

    def test_merge_levels(self):
        a = QueryStats(database_size=10)
        a.record_level(0, 3, 2)
        a.record_level(1, 5, 4)
        b = QueryStats(database_size=10)
        b.record_level(0, 1, 1)
        a.merge(b)
        assert a.x_by_level == [4, 5]
        assert a.nodes_by_level == [2, 1]

    def test_merge_scalars(self):
        a = QueryStats(candidates=3, answers=2, search_seconds=0.5)
        b = QueryStats(candidates=5, answers=1, search_seconds=0.25)
        a.merge(b)
        assert a.candidates == 8
        assert a.answers == 3
        assert a.search_seconds == 0.75

    def test_merge_takes_max_database_size(self):
        a = QueryStats(database_size=5)
        b = QueryStats(database_size=9)
        a.merge(b)
        assert a.database_size == 9

    def test_merge_differing_level_depths(self):
        """Regression: merging a deeper stats object must copy the other's
        per-level *node counts*, not count one node per depth."""
        a = QueryStats()
        a.record_level(0, 3, 2)
        b = QueryStats()
        b.record_level(0, 1, 1)
        b.record_level(0, 2, 2)  # two nodes expanded at depth 0
        b.record_level(1, 4, 3)
        b.record_level(2, 6, 5)
        a.merge(b)
        assert a.x_by_level == [6, 4, 6]
        assert a.y_by_level == [5, 3, 5]
        assert a.nodes_by_level == [3, 1, 1]

    def test_merge_is_commutative_on_levels(self):
        a1 = QueryStats()
        a1.record_level(0, 3, 2)
        a2 = QueryStats()
        a2.record_level(0, 3, 2)
        b1 = QueryStats()
        b1.record_level(1, 5, 4, nodes=2)
        b2 = QueryStats()
        b2.record_level(1, 5, 4, nodes=2)
        a1.merge(b1)
        b2.merge(a2)
        assert a1.nodes_by_level == b2.nodes_by_level == [1, 2]

    def test_record_level_nodes_param(self):
        stats = QueryStats()
        stats.record_level(1, 10, 6, nodes=4)
        assert stats.x_by_level == [0, 10]
        assert stats.nodes_by_level == [0, 4]

    def test_access_ratio_nonpositive_database(self):
        assert QueryStats(database_size=0, pseudo_tests=5).access_ratio == 0.0
        stats = QueryStats(pseudo_tests=5)
        stats.database_size = -3
        assert stats.access_ratio == 0.0

    def test_accuracy_nonpositive_candidates(self):
        assert QueryStats(candidates=0, answers=0).accuracy == 1.0
        stats = QueryStats(answers=0)
        stats.candidates = -1
        assert stats.accuracy == 1.0

    def test_attributes_are_registry_views(self):
        stats = QueryStats(pseudo_tests=2)
        assert stats.registry.counter("ctree.query.pseudo_tests").value == 2
        stats.pseudo_tests += 3
        assert stats.registry.counter("ctree.query.pseudo_tests").value == 5
        # writing through the registry is visible on the attribute too
        stats.registry.counter("ctree.query.pseudo_tests").value = 9
        assert stats.pseudo_tests == 9

    def test_publish_folds_into_registry(self):
        target = MetricsRegistry()
        stats = QueryStats(database_size=100, candidates=4, answers=2)
        stats.publish(target)
        stats2 = QueryStats(database_size=100, candidates=6, answers=6)
        stats2.publish(target)
        assert target.counter("ctree.query.count").value == 2
        assert target.counter("ctree.query.candidates").value == 10
        # |D| is a property of the index, not an accumulating cost
        assert "ctree.query.database_size" not in target
        hist = target.histogram("ctree.query.per_query.candidates")
        assert hist.count == 2 and hist.total == 10

    def test_to_dict_roundtrip_fields(self):
        stats = QueryStats(database_size=10, pseudo_tests=4, candidates=2,
                           answers=1)
        d = stats.to_dict()
        assert d["pseudo_tests"] == 4
        assert d["access_ratio"] == pytest.approx(0.4)
        assert d["accuracy"] == pytest.approx(0.5)


class TestKnnStats:
    def test_access_ratio(self):
        stats = KnnStats(database_size=50, nodes_expanded=3, graphs_scored=7)
        assert stats.access_ratio == 0.2

    def test_access_ratio_empty_database(self):
        assert KnnStats().access_ratio == 0.0

    def test_access_ratio_negative_database(self):
        stats = KnnStats(graphs_scored=7)
        stats.database_size = -1
        assert stats.access_ratio == 0.0

    def test_merge(self):
        a = KnnStats(database_size=50, graphs_scored=3, seconds=0.5)
        b = KnnStats(database_size=80, graphs_scored=5, seconds=0.25)
        a.merge(b)
        assert a.database_size == 80  # max, not sum
        assert a.graphs_scored == 8
        assert a.seconds == pytest.approx(0.75)

    def test_publish_uses_knn_prefix(self):
        target = MetricsRegistry()
        KnnStats(database_size=10, graphs_scored=4, seconds=0.1).publish(target)
        assert target.counter("ctree.knn.count").value == 1
        assert target.counter("ctree.knn.graphs_scored").value == 4
        assert target.histogram("ctree.knn.per_query.graphs_scored").count == 1


class TestDiskQueryStats:
    def test_inherits_query_stats(self):
        stats = DiskQueryStats(database_size=10, pseudo_tests=5)
        assert stats.access_ratio == 0.5

    def test_page_hit_ratio(self):
        stats = DiskQueryStats(page_hits=3, page_misses=1)
        assert stats.page_hit_ratio == 0.75
        assert DiskQueryStats().page_hit_ratio == 0.0

    @pytest.mark.parametrize("stats_cls", [DiskQueryStats, DiskKnnStats])
    def test_explain_reports_the_same_hit_ratio(self, stats_cls):
        """EXPLAIN's ``page_io`` block is the property, so a query that
        touched no page reads 0.0 in both (as ``BufferPool.hit_ratio``
        does), not 1.0 in one of them."""
        assert stats_cls().explain()["page_io"]["hit_ratio"] == 0.0
        stats = stats_cls(page_hits=3, page_misses=1)
        assert stats.explain()["page_io"] == {
            "hits": 3, "misses": 1, "hit_ratio": stats.page_hit_ratio}

    def test_merge_includes_page_counters(self):
        a = DiskQueryStats(page_hits=3, page_misses=1, candidates=2)
        b = DiskQueryStats(page_hits=1, page_misses=2, candidates=4)
        a.merge(b)
        assert a.page_hits == 4
        assert a.page_misses == 3
        assert a.candidates == 6

    def test_publish_folds_under_query_prefix(self):
        target = MetricsRegistry()
        DiskQueryStats(page_hits=3, page_misses=1).publish(target)
        assert target.counter("ctree.query.page_hits").value == 3
        assert target.counter("ctree.query.count").value == 1


class TestDiskKnnStats:
    def test_merge_and_ratio(self):
        a = DiskKnnStats(database_size=20, graphs_scored=2, page_hits=5)
        b = DiskKnnStats(database_size=20, graphs_scored=3, page_misses=5)
        a.merge(b)
        assert a.graphs_scored == 5
        assert a.page_hit_ratio == 0.5
