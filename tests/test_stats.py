"""Unit tests for the query statistics records."""

import pickle

import pytest

from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DiskKnnStats, DiskQueryStats
from repro.ctree.stats import KnnStats, QueryStats
from repro.ctree.subgraph_query import subgraph_query
from repro.datasets.chemical import generate_chemical_database
from repro.datasets.queries import generate_subgraph_queries
from repro.obs.metrics import MetricsRegistry

ALL_STATS = [QueryStats, KnnStats, DiskQueryStats, DiskKnnStats]

#: what ``publish()`` registers — zero-valued counters included — and
#: what docs/OBSERVABILITY.md documents
QUERY_METRICS = [
    "ctree.query.histogram_tests", "ctree.query.pseudo_tests",
    "ctree.query.pseudo_survivors", "ctree.query.nodes_expanded",
    "ctree.query.candidates", "ctree.query.answers",
    "ctree.query.isomorphism_tests", "ctree.query.search_seconds",
    "ctree.query.verify_seconds", "ctree.query.count",
    "ctree.query.per_query.candidates",
    "ctree.query.per_query.search_seconds",
    "ctree.query.per_query.verify_seconds",
]
KNN_METRICS = [
    "ctree.knn.nodes_expanded", "ctree.knn.children_scored",
    "ctree.knn.graphs_scored", "ctree.knn.pruned_by_bound",
    "ctree.knn.results", "ctree.knn.seconds", "ctree.knn.count",
    "ctree.knn.per_query.graphs_scored", "ctree.knn.per_query.seconds",
]


class TestRecords:
    """What every stats class is: a plain slotted record."""

    @pytest.mark.parametrize("stats_cls", ALL_STATS)
    def test_no_instance_dict(self, stats_cls):
        stats = stats_cls()
        assert not hasattr(stats, "__dict__")
        with pytest.raises(AttributeError):
            stats.no_such_counter = 1

    @pytest.mark.parametrize("stats_cls", ALL_STATS)
    def test_unknown_keyword_is_a_type_error(self, stats_cls):
        with pytest.raises(TypeError, match="no_such_counter"):
            stats_cls(no_such_counter=1)

    @pytest.mark.parametrize("stats_cls", [DiskQueryStats, DiskKnnStats])
    def test_disk_classes_declare_no_method(self, stats_cls):
        assert not [name for name, value in vars(stats_cls).items()
                    if callable(value) or isinstance(value, property)]

    def test_copy_shares_no_level_list(self):
        stats = QueryStats(candidates=2)
        stats.record_level(1, 4, 3, tested=6)
        clone = stats.copy()
        assert clone == stats and type(clone) is QueryStats
        clone.record_level(0, 1, 1)
        clone.candidates += 1
        assert stats.x_by_level == [0, 4] and stats.candidates == 2
        assert stats.tested_by_level == [0, 6]
        disk = DiskKnnStats(graphs_scored=2, page_hits=5).copy()
        assert type(disk) is DiskKnnStats and disk.page_hits == 5

    def test_pickle_round_trip_is_equal_and_small(self):
        """Every pool task ships one home; the registry-backed record of
        the same height-2 query pickled to 763 bytes."""
        db = generate_chemical_database(40, seed=3)
        tree = bulk_load(db, min_fanout=3)
        assert tree.height() == 2
        query, = generate_subgraph_queries(db, 4, 1, seed=3)
        _, stats = subgraph_query(tree, query)
        blob = pickle.dumps(stats)
        assert pickle.loads(blob) == stats
        assert pickle.loads(blob).to_dict() == stats.to_dict()
        assert len(blob) < 763
        knn = DiskKnnStats(database_size=40, graphs_scored=7, page_misses=3)
        assert pickle.loads(pickle.dumps(knn)) == knn

    @pytest.mark.parametrize("mem_cls,disk_cls", [
        (QueryStats, DiskQueryStats), (KnnStats, DiskKnnStats)])
    def test_page_io_only_on_disk_stats(self, mem_cls, disk_cls):
        mem, disk = mem_cls(), disk_cls(page_hits=3, page_misses=1,
                                        node_hits=5)
        assert mem.page_hits is None and mem.page_misses is None
        assert mem.node_hits is None and mem.node_loads is None
        assert not {"page_hits", "page_misses", "node_hits",
                    "node_loads"} & set(mem.to_dict())
        assert "page_io" not in mem.explain()
        assert "page_hits" not in repr(mem)
        assert disk.to_dict()["page_hits"] == 3
        assert disk.to_dict()["page_misses"] == 1
        assert (disk.to_dict()["node_hits"], disk.to_dict()["node_loads"]) \
            == (5, 0)
        assert disk.explain()["page_io"]["misses"] == 1
        assert "page_hits=3" in repr(disk)
        assert not {"page_hits", "node_hits", "node_loads"} \
            & set(disk.deterministic_dict())
        assert mem != disk_cls()  # one counts page I/O, the other cannot
        # derived keys follow the counters, page I/O included
        keys = list(disk.to_dict())
        assert keys.index("node_loads") + 1 == keys.index("access_ratio")

    @pytest.mark.parametrize("stats_cls,expected", [
        (QueryStats, QUERY_METRICS),
        (DiskQueryStats, QUERY_METRICS[:9] + [
            "ctree.query.page_hits", "ctree.query.page_misses",
            "ctree.query.node_hits", "ctree.query.node_loads"]
         + QUERY_METRICS[9:]),
        (KnnStats, KNN_METRICS),
        (DiskKnnStats, KNN_METRICS[:6] + [
            "ctree.knn.page_hits", "ctree.knn.page_misses",
            "ctree.knn.node_hits", "ctree.knn.node_loads"]
         + KNN_METRICS[6:]),
    ])
    def test_publish_registers_exactly_these_names(self, stats_cls,
                                                   expected):
        """All-zero records: a counter is registered whatever it holds."""
        target = MetricsRegistry()
        stats_cls(database_size=9).publish(target)
        assert [metric.name for metric in target] == expected


class TestQueryStats:
    def test_defaults(self):
        stats = QueryStats()
        assert stats.access_ratio == 0.0
        assert stats.accuracy == 1.0  # empty candidate set convention
        assert stats.total_seconds == 0.0

    def test_access_ratio(self):
        # R = Σx: nodes expanded plus graphs pseudo-iso tested
        stats = QueryStats(database_size=100, pseudo_tests=20,
                           x_by_level=[2, 3, 20])
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
        assert QueryStats(database_size=0,
                          x_by_level=[5]).access_ratio == 0.0
        stats = QueryStats(x_by_level=[5])
        stats.database_size = -3
        assert stats.access_ratio == 0.0

    def test_accuracy_nonpositive_candidates(self):
        assert QueryStats(candidates=0, answers=0).accuracy == 1.0
        stats = QueryStats(answers=0)
        stats.candidates = -1
        assert stats.accuracy == 1.0

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
        stats = QueryStats(database_size=10, pseudo_tests=3, candidates=2,
                           answers=1, x_by_level=[1, 3])
        d = stats.to_dict()
        assert d["pseudo_tests"] == 3
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
        stats = DiskQueryStats(database_size=10, x_by_level=[1, 4])
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
        stats = stats_cls(page_hits=3, page_misses=1, node_hits=5)
        assert stats.explain()["page_io"] == {
            "hits": 3, "misses": 1, "hit_ratio": stats.page_hit_ratio,
            "node_hits": 5, "node_loads": 0}

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
