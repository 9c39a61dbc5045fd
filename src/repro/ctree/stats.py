"""Query statistics counters (Table 1 notation).

Every query processor fills a :class:`QueryStats`; the experiment harness
aggregates them into the paper's reported quantities: candidate set size
``|CS|``, answer set size ``|Ans|``, accuracy ``|Ans|/|CS|``, access ratio
``γ = R / |D|``, and search/verification time split.  The per-level
``x(i)``/``y(i)`` counts feed the Section 6.3 cost model.

Stats objects are thin attribute views over a per-instance
:class:`~repro.obs.metrics.MetricsRegistry`: reading ``stats.pseudo_tests``
reads the registry counter ``ctree.query.pseudo_tests`` and ``+=`` writes
it back, so the same numbers are available both as plain attributes (the
historical API, unchanged) and as a metrics snapshot
(``stats.registry.snapshot()`` / ``stats.to_dict()``).  Query processors
call :meth:`publish` on completion to fold a query's counters into the
process-wide registry that ``repro metrics`` reports.

.. _gamma-accounting:

**γ accounting convention.**  The paper's access ratio is ``γ = R / |D|``
where ``R`` counts the tree nodes and database graphs *visited and
tested* during the search phase.  Throughout this library "visited and
tested" means: the child survived the histogram screen and therefore had
pseudo subgraph isomorphism evaluated against it — i.e. ``R`` is
:attr:`QueryStats.pseudo_tests` (children merely histogram-screened are
*not* counted, matching Section 6.3, where the cost model prices exactly
the pseudo-iso evaluations).  For K-NN queries (Fig. 11a) the analogous
``R`` is ``nodes_expanded + graphs_scored``: every node popped and
expanded from the priority queue plus every database graph whose
similarity was actually computed.  Denominator guards are uniform: a
non-positive ``|D|`` yields ``γ = 0.0`` and a non-positive ``|CS|``
yields accuracy ``1.0`` (an empty candidate set is vacuously accurate).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry, global_registry


class CounterField:
    """A descriptor exposing a registry counter as a plain attribute.

    ``obj.field`` reads ``obj.registry.counter(metric).value``;
    assignment (including ``+=``) writes it back.  This is what makes a
    stats object a *view* over its registry rather than a copy.
    """

    __slots__ = ("metric",)

    def __init__(self, metric: str) -> None:
        self.metric = metric

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj.registry.counter(self.metric).value

    def __set__(self, obj, value) -> None:
        obj.registry.counter(self.metric).value = value


class QueryStats:
    """Counters for one subgraph-query execution.

    Constructor keywords mirror the attribute names (the historical
    dataclass signature); all counter attributes are registry-backed
    views (see module docstring).
    """

    #: total database size |D|
    database_size = CounterField("ctree.query.database_size")
    #: children tested against the query histogram
    histogram_tests = CounterField("ctree.query.histogram_tests")
    #: children surviving the histogram test (= pseudo-iso tests run); the
    #: paper's R counts these "visited and tested" nodes and graphs — see
    #: the γ accounting convention in the module docstring
    pseudo_tests = CounterField("ctree.query.pseudo_tests")
    #: children surviving the pseudo test (descended into, or candidates)
    pseudo_survivors = CounterField("ctree.query.pseudo_survivors")
    #: internal nodes whose children were scanned
    nodes_expanded = CounterField("ctree.query.nodes_expanded")
    candidates = CounterField("ctree.query.candidates")
    answers = CounterField("ctree.query.answers")
    #: exact isomorphism tests run in the verification phase
    isomorphism_tests = CounterField("ctree.query.isomorphism_tests")
    search_seconds = CounterField("ctree.query.search_seconds")
    verify_seconds = CounterField("ctree.query.verify_seconds")

    #: the counter attributes above, in declaration order
    _COUNTER_FIELDS = (
        "database_size", "histogram_tests", "pseudo_tests",
        "pseudo_survivors", "nodes_expanded", "candidates", "answers",
        "isomorphism_tests", "search_seconds", "verify_seconds",
    )
    #: counters merged by max instead of sum (workload-level aggregation)
    _MAX_FIELDS = ("database_size",)
    #: published to the global registry as a per-query histogram
    _HISTOGRAM_FIELDS = ("candidates", "search_seconds", "verify_seconds")
    #: to_dict keys whose values depend on wall time or cache temperature,
    #: not on query logic — excluded from determinism comparisons (the
    #: batched engine guarantees everything else bit-identical per query
    #: at every worker count)
    _NONDETERMINISTIC_KEYS = ("search_seconds", "verify_seconds",
                              "total_seconds")

    def __init__(
        self,
        database_size: int = 0,
        histogram_tests: int = 0,
        pseudo_tests: int = 0,
        pseudo_survivors: int = 0,
        nodes_expanded: int = 0,
        candidates: int = 0,
        answers: int = 0,
        isomorphism_tests: int = 0,
        search_seconds: float = 0.0,
        verify_seconds: float = 0.0,
        x_by_level: Optional[list[int]] = None,
        y_by_level: Optional[list[int]] = None,
        nodes_by_level: Optional[list[int]] = None,
        tested_by_level: Optional[list[int]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.database_size = database_size
        self.histogram_tests = histogram_tests
        self.pseudo_tests = pseudo_tests
        self.pseudo_survivors = pseudo_survivors
        self.nodes_expanded = nodes_expanded
        self.candidates = candidates
        self.answers = answers
        self.isomorphism_tests = isomorphism_tests
        self.search_seconds = search_seconds
        self.verify_seconds = verify_seconds
        #: per-depth sums: x_by_level[i] = children surviving histogram at i
        self.x_by_level: list[int] = list(x_by_level or [])
        #: per-depth sums: y_by_level[i] = children surviving pseudo at i
        self.y_by_level: list[int] = list(y_by_level or [])
        #: per-depth count of expanded nodes (to average x, y per node)
        self.nodes_by_level: list[int] = list(nodes_by_level or [])
        #: per-depth sums: children histogram-screened at i (the EXPLAIN
        #: denominator: tested - x = pruned by the closure histogram)
        self.tested_by_level: list[int] = list(tested_by_level or [])

    # ------------------------------------------------------------------
    def record_level(self, depth: int, x: int, y: int, nodes: int = 1,
                     tested: int = 0) -> None:
        """Record ``nodes`` expanded node(s) at ``depth`` that screened
        ``tested`` children, of which ``x`` survived the histogram test
        and ``y`` survived the pseudo-iso test, in total."""
        while len(self.x_by_level) <= depth:
            self.x_by_level.append(0)
            self.y_by_level.append(0)
            self.nodes_by_level.append(0)
        while len(self.tested_by_level) <= depth:
            self.tested_by_level.append(0)
        self.x_by_level[depth] += x
        self.y_by_level[depth] += y
        self.nodes_by_level[depth] += nodes
        self.tested_by_level[depth] += tested

    @property
    def access_ratio(self) -> float:
        """γ = R / |D| with R = :attr:`pseudo_tests` (see the
        γ accounting convention in the module docstring)."""
        if self.database_size <= 0:
            return 0.0
        return self.pseudo_tests / self.database_size

    @property
    def accuracy(self) -> float:
        """α = |Ans| / |CS| (1.0 for an empty candidate set)."""
        if self.candidates <= 0:
            return 1.0
        return self.answers / self.candidates

    @property
    def total_seconds(self) -> float:
        return self.search_seconds + self.verify_seconds

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters into this one (for
        averaging across a workload)."""
        for name in self._COUNTER_FIELDS:
            if name in self._MAX_FIELDS:
                setattr(self, name, max(getattr(self, name),
                                        getattr(other, name)))
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))
        for depth in range(len(other.x_by_level)):
            self.record_level(
                depth,
                other.x_by_level[depth],
                other.y_by_level[depth],
                nodes=other.nodes_by_level[depth],
                tested=(other.tested_by_level[depth]
                        if depth < len(other.tested_by_level) else 0),
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """All counters, derived ratios, and per-level series as a
        JSON-able dict."""
        out = {name: getattr(self, name) for name in self._COUNTER_FIELDS}
        out["access_ratio"] = self.access_ratio
        out["accuracy"] = self.accuracy
        out["total_seconds"] = self.total_seconds
        out["x_by_level"] = list(self.x_by_level)
        out["y_by_level"] = list(self.y_by_level)
        out["nodes_by_level"] = list(self.nodes_by_level)
        out["tested_by_level"] = list(self.tested_by_level)
        return out

    def deterministic_dict(self) -> dict:
        """:meth:`to_dict` minus timing (and, on disk stats, page-I/O)
        keys — the part of the stats the batched query engine guarantees
        identical to a serial run at every worker count."""
        out = self.to_dict()
        for key in self._NONDETERMINISTIC_KEYS:
            out.pop(key, None)
        return out

    def copy(self):
        """An independent stats object with the same counter values
        (own registry; per-level series copied)."""
        kwargs = {name: getattr(self, name)
                  for name in self._COUNTER_FIELDS}
        kwargs.update(
            x_by_level=self.x_by_level,
            y_by_level=self.y_by_level,
            nodes_by_level=self.nodes_by_level,
            tested_by_level=self.tested_by_level,
        )
        return type(self)(**kwargs)

    def explain(self) -> dict:
        """The per-query EXPLAIN profile: the descent as per-level
        pruning counts plus phase summaries.

        Each entry of ``levels`` reports, for one tree depth, how many
        nodes were expanded, how many children were screened
        (``tested``), how many survived the closure-histogram test
        (``histogram_survivors``, the paper's ``x(i)``) and the
        pseudo-iso test (``pseudo_survivors``, ``y(i)``), and the two
        pruning deltas.  Sums across levels equal the flat counters
        (``histogram_tests``, ``pseudo_tests``, ``pseudo_survivors``)
        by construction, so an EXPLAIN payload is always consistent
        with the ``ctree.query.*`` metrics.  Disk-backed stats add a
        ``page_io`` block.
        """
        levels = []
        for depth in range(len(self.nodes_by_level)):
            tested = (self.tested_by_level[depth]
                      if depth < len(self.tested_by_level) else 0)
            x = self.x_by_level[depth]
            y = self.y_by_level[depth]
            levels.append({
                "level": depth,
                "nodes": self.nodes_by_level[depth],
                "tested": tested,
                "histogram_survivors": x,
                "pseudo_survivors": y,
                "pruned_by_closure": tested - x,
                "pruned_by_pseudo_iso": x - y,
            })
        out = {
            "kind": "subgraph",
            "database_size": self.database_size,
            "levels": levels,
            "pruning": {
                "histogram_tests": self.histogram_tests,
                "pruned_by_closure": (self.histogram_tests
                                      - self.pseudo_tests),
                "pseudo_iso_tests": self.pseudo_tests,
                "pruned_by_pseudo_iso": (self.pseudo_tests
                                         - self.pseudo_survivors),
                "candidates": self.candidates,
            },
            "verification": {
                "isomorphism_tests": self.isomorphism_tests,
                "answers": self.answers,
                "accuracy": self.accuracy,
                "verify_seconds": self.verify_seconds,
            },
            "access_ratio": self.access_ratio,
            "search_seconds": self.search_seconds,
        }
        return out

    def publish(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Fold this query's counters into ``registry`` (default: the
        process-wide one) and observe per-query histograms."""
        target = registry if registry is not None else global_registry()
        for metric in self.registry:
            if metric.name.endswith(".database_size"):
                continue  # |D| is a property of the index, not a cost
            target.counter(metric.name).inc(metric.value)
        cls = type(self).__mro__[-2]  # prefix owner: QueryStats or KnnStats
        prefix = cls._COUNT_METRIC.rsplit(".", 1)[0]
        target.counter(cls._COUNT_METRIC).inc()
        for name in self._HISTOGRAM_FIELDS:
            target.histogram(f"{prefix}.per_query.{name}").observe(
                getattr(self, name)
            )

    _COUNT_METRIC = "ctree.query.count"

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._COUNTER_FIELDS
        )
        return f"{type(self).__name__}({parts})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, QueryStats):
            return NotImplemented
        return self.to_dict() == other.to_dict()


class KnnStats:
    """Counters for one K-NN or range query (same registry-view design
    as :class:`QueryStats`; γ convention in the module docstring)."""

    database_size = CounterField("ctree.knn.database_size")
    nodes_expanded = CounterField("ctree.knn.nodes_expanded")
    #: children whose similarity bound / distance was evaluated
    children_scored = CounterField("ctree.knn.children_scored")
    #: database graphs whose (approximate) similarity was computed
    graphs_scored = CounterField("ctree.knn.graphs_scored")
    pruned_by_bound = CounterField("ctree.knn.pruned_by_bound")
    results = CounterField("ctree.knn.results")
    seconds = CounterField("ctree.knn.seconds")

    _COUNTER_FIELDS = (
        "database_size", "nodes_expanded", "children_scored",
        "graphs_scored", "pruned_by_bound", "results", "seconds",
    )
    _MAX_FIELDS = ("database_size",)
    _HISTOGRAM_FIELDS = ("graphs_scored", "seconds")
    _COUNT_METRIC = "ctree.knn.count"
    _NONDETERMINISTIC_KEYS = ("seconds",)

    def __init__(
        self,
        database_size: int = 0,
        nodes_expanded: int = 0,
        children_scored: int = 0,
        graphs_scored: int = 0,
        pruned_by_bound: int = 0,
        results: int = 0,
        seconds: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.database_size = database_size
        self.nodes_expanded = nodes_expanded
        self.children_scored = children_scored
        self.graphs_scored = graphs_scored
        self.pruned_by_bound = pruned_by_bound
        self.results = results
        self.seconds = seconds

    @property
    def access_ratio(self) -> float:
        """Fraction of database 'accessed': nodes expanded plus graphs
        scored, over |D| (the paper's K-NN access ratio, Fig. 11a; see
        the γ accounting convention in the module docstring)."""
        if self.database_size <= 0:
            return 0.0
        return (self.nodes_expanded + self.graphs_scored) / self.database_size

    def merge(self, other: "KnnStats") -> None:
        """Accumulate another query's counters (for workload averages)."""
        for name in self._COUNTER_FIELDS:
            if name in self._MAX_FIELDS:
                setattr(self, name, max(getattr(self, name),
                                        getattr(other, name)))
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self._COUNTER_FIELDS}
        out["access_ratio"] = self.access_ratio
        return out

    def copy(self):
        """An independent stats object with the same counter values."""
        return type(self)(**{name: getattr(self, name)
                             for name in self._COUNTER_FIELDS})

    def explain(self) -> dict:
        """The per-query EXPLAIN profile for a K-NN/range query.

        K-NN descends a priority queue rather than level-synchronous
        refinement, so there is no per-level series; the profile
        reports the expansion/scoring/bound-pruning counters and, for
        disk-backed stats, a ``page_io`` block.
        """
        out = {
            "kind": "knn",
            "database_size": self.database_size,
            "expansion": {
                "nodes_expanded": self.nodes_expanded,
                "children_scored": self.children_scored,
                "graphs_scored": self.graphs_scored,
                "pruned_by_bound": self.pruned_by_bound,
                "results": self.results,
            },
            "access_ratio": self.access_ratio,
            "seconds": self.seconds,
        }
        return out

    deterministic_dict = QueryStats.deterministic_dict
    publish = QueryStats.publish

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._COUNTER_FIELDS
        )
        return f"{type(self).__name__}({parts})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnnStats):
            return NotImplemented
        return self.to_dict() == other.to_dict()
