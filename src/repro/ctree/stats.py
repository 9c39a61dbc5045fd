"""Query statistics records (Table 1 notation).

Every query processor fills a :class:`QueryStats` (or, for K-NN and range
queries, a :class:`KnnStats`); the experiment harness aggregates them into
the paper's reported quantities: candidate set size ``|CS|``, answer set
size ``|Ans|``, accuracy ``|Ans|/|CS|``, access ratio ``γ = R / |D|``, and
search/verification time split.  The per-level ``x(i)``/``y(i)`` counts
feed the Section 6.3 cost model.

A stats object is one plain slotted record: its counters are ordinary
attributes declared once, in the class's ``_FIELDS`` tuple, so
``stats.pseudo_tests += 1`` in Alg. 3 is an attribute store and a record
pickles across the engine's fork pools as its values.  Page I/O is four
optional fields (``page_hits`` / ``page_misses``, ``node_hits`` /
``node_loads``): ``None`` on a record from an in-memory index, filled in
by the paged node store's
:meth:`~repro.ctree.store.PagedNodeStore.metered` on one from a disk
index, and present in :meth:`to_dict <QueryStats.to_dict>` /
:meth:`explain <QueryStats.explain>` only then.  Query processors call
:meth:`publish <QueryStats.publish>` on completion to fold the record into
the one process-wide registry (:func:`repro.obs.metrics.global_registry`)
that ``repro metrics`` and ``GET /metrics`` report, under the metric names
``ctree.query.<field>`` / ``ctree.knn.<field>``.

.. _gamma-accounting:

**γ accounting convention.**  The paper's access ratio is ``γ = R / |D|``
where ``R`` counts the tree nodes and database graphs *visited and
tested* during the search phase.  Throughout this library "visited and
tested" means: the child survived the histogram screen — a node then
expanded, a graph then pseudo-iso tested — i.e. ``R`` is
``Σ x_by_level``, the Sec. 6.3 model's ``Σ x(i)`` (children merely
histogram-screened are *not* counted).  Alg. 3 runs pseudo subgraph
isomorphism on graphs only, so :attr:`QueryStats.pseudo_tests` is the
``x`` at the leaf depth, not ``R``.  For K-NN queries (Fig. 11a) the analogous
``R`` is ``nodes_expanded + graphs_scored``: every node popped and
expanded from the priority queue plus every database graph whose
similarity was actually computed.  Denominator guards are uniform: a
non-positive ``|D|`` yields ``γ = 0.0`` and a non-positive ``|CS|``
yields accuracy ``1.0`` (an empty candidate set is vacuously accurate).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry, global_registry

#: what a query cost the storage under a paged node store: buffer-pool
#: hits and misses, and node loads answered from the store's resident set
#: / by decoding a node record
PAGE_IO = ("page_hits", "page_misses", "node_hits", "node_loads")


class _StatsRecord:
    """What the two records share: construction by keyword, merging,
    the dict / EXPLAIN / registry views, copying and equality, all driven
    by the class-level field declarations."""

    __slots__ = PAGE_IO
    #: metric family the record publishes under
    _PREFIX = ""
    #: the counters, in ``to_dict`` order; ``database_size`` merges by max
    #: (and is not published: |D| is a property of the index, not a cost)
    _FIELDS: tuple = ()
    #: the counters that are wall-clock seconds (floats; like page I/O,
    #: they vary with the schedule and not with query logic)
    _SECONDS: tuple = ()
    #: properties ``to_dict`` reports after the counters
    _DERIVED: tuple = ()
    #: per-depth list fields
    _LEVELS: tuple = ()
    #: counters also published as a per-query histogram
    _HISTOGRAMS: tuple = ()
    #: what the page I/O fields hold unless given: not counted
    _PAGE_IO_DEFAULT: Optional[int] = None

    def __init__(self, **values) -> None:
        for name in self._FIELDS:
            setattr(self, name,
                    values.pop(name, 0.0 if name in self._SECONDS else 0))
        for name in self._LEVELS:
            setattr(self, name, list(values.pop(name, None) or ()))
        for name in PAGE_IO:
            setattr(self, name, values.pop(name, self._PAGE_IO_DEFAULT))
        if values:
            raise TypeError(f"{type(self).__name__}() got an unexpected "
                            f"keyword argument {next(iter(values))!r}")

    @property
    def page_hit_ratio(self) -> float:
        """Fraction of page reads served from the buffer pool."""
        hits = self.page_hits or 0
        total = hits + (self.page_misses or 0)
        return hits / total if total else 0.0

    def merge(self, other) -> None:
        """Accumulate another query's counters into this one (for
        averaging across a workload).  Page I/O adds up where both
        records count it."""
        for name in self._FIELDS + PAGE_IO:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is None or theirs is None:
                continue
            setattr(self, name, max(mine, theirs)
                    if name == "database_size" else mine + theirs)

    def _counters(self) -> dict:
        """The counters, page I/O after them where it is counted."""
        out = {name: getattr(self, name) for name in self._FIELDS}
        if self.page_hits is not None:
            out.update((name, getattr(self, name)) for name in PAGE_IO)
        return out

    def to_dict(self) -> dict:
        """All counters, derived ratios, and per-level series as a
        JSON-able dict."""
        out = self._counters()
        for name in self._DERIVED:
            out[name] = getattr(self, name)
        for name in self._LEVELS:
            out[name] = list(getattr(self, name))
        return out

    def deterministic_dict(self) -> dict:
        """:meth:`to_dict` minus timing and page-I/O keys — the part of
        the stats the batched query engine guarantees identical to a
        serial run at every worker count (page I/O depends on buffer-pool
        temperature, which depends on the execution schedule)."""
        out = self.to_dict()
        for key in (*self._SECONDS, "total_seconds", *PAGE_IO):
            out.pop(key, None)
        return out

    def copy(self):
        """An independent record with the same values (per-level series
        copied)."""
        return type(self)(**{
            name: getattr(self, name)
            for name in self._FIELDS + self._LEVELS + PAGE_IO})

    def _with_page_io(self, profile: dict) -> dict:
        """``profile`` plus the ``page_io`` block of a disk-backed
        record."""
        if self.page_hits is not None:
            profile["page_io"] = {
                "hits": self.page_hits,
                "misses": self.page_misses,
                "hit_ratio": self.page_hit_ratio,
                "node_hits": self.node_hits,
                "node_loads": self.node_loads,
            }
        return profile

    def publish(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Fold this query's counters into ``registry`` (default: the
        process-wide one) and observe per-query histograms."""
        target = registry if registry is not None else global_registry()
        for name, value in self._counters().items():
            if name != "database_size":
                target.counter(f"{self._PREFIX}.{name}").inc(value)
        target.counter(f"{self._PREFIX}.count").inc()
        for name in self._HISTOGRAMS:
            target.histogram(f"{self._PREFIX}.per_query.{name}").observe(
                getattr(self, name)
            )

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={value!r}"
                          for name, value in self._counters().items())
        return f"{type(self).__name__}({parts})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, _StatsRecord) \
                or other._PREFIX != self._PREFIX:
            return NotImplemented
        return self.to_dict() == other.to_dict()


class QueryStats(_StatsRecord):
    """Counters for one subgraph-query execution (constructor keywords
    are the field names)."""

    _PREFIX = "ctree.query"
    _FIELDS = (
        "database_size",      # total database size |D|
        "histogram_tests",    # children tested against the query histogram
        # graphs surviving the histogram test (= pseudo-iso tests run;
        # child nodes are expanded untested) — see the γ accounting
        # convention in the module docstring
        "pseudo_tests",
        # children descended into, or graphs surviving the pseudo test
        "pseudo_survivors",
        "nodes_expanded",     # internal nodes whose children were scanned
        "candidates",
        "answers",
        "isomorphism_tests",  # exact tests run in the verification phase
        "search_seconds",
        "verify_seconds",
    )
    _SECONDS = ("search_seconds", "verify_seconds")
    _DERIVED = ("access_ratio", "accuracy", "total_seconds")
    _LEVELS = (
        "x_by_level",       # [i] = children surviving histogram at depth i
        "y_by_level",       # [i] = children descended or candidates, depth i
        "nodes_by_level",   # [i] = expanded nodes (to average x, y per node)
        # [i] = children histogram-screened (the EXPLAIN denominator:
        # tested - x = pruned by the closure histogram)
        "tested_by_level",
    )
    _HISTOGRAMS = ("candidates", "search_seconds", "verify_seconds")
    __slots__ = _FIELDS + _LEVELS

    # ------------------------------------------------------------------
    def record_level(self, depth: int, x: int, y: int, nodes: int = 1,
                     tested: int = 0) -> None:
        """Record ``nodes`` expanded node(s) at ``depth`` that screened
        ``tested`` children, of which ``x`` survived the histogram test
        and ``y`` survived the pseudo-iso test, in total."""
        for name in self._LEVELS:
            series = getattr(self, name)
            series.extend([0] * (depth + 1 - len(series)))
        self.x_by_level[depth] += x
        self.y_by_level[depth] += y
        self.nodes_by_level[depth] += nodes
        self.tested_by_level[depth] += tested

    @property
    def access_ratio(self) -> float:
        """γ = R / |D| with R = Σ :attr:`x_by_level` (see the
        γ accounting convention in the module docstring)."""
        if self.database_size <= 0:
            return 0.0
        return sum(self.x_by_level) / self.database_size

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
        """Accumulate another query's counters and per-level series into
        this one (for averaging across a workload)."""
        super().merge(other)
        for depth, row in enumerate(zip(
                other.x_by_level, other.y_by_level, other.nodes_by_level,
                other.tested_by_level)):
            self.record_level(depth, *row)

    def explain(self) -> dict:
        """The per-query EXPLAIN profile: the descent as per-level
        pruning counts plus phase summaries.

        Each entry of ``levels`` reports, for one tree depth, how many
        nodes were expanded, how many children were screened
        (``tested``), how many survived the histogram test
        (``histogram_survivors``, the paper's ``x(i)``) and the
        pseudo-iso test (``pseudo_survivors``, ``y(i)``), and the two
        pruning deltas.  Only graphs are pseudo-iso tested, so
        ``pruned_by_pseudo_iso`` is 0 above the leaves and the leaf
        level's ``x`` is ``pseudo_tests``.  Sums across levels equal
        the flat counters (``histogram_tests``, ``pseudo_survivors``)
        by construction, so an EXPLAIN payload is always consistent
        with the ``ctree.query.*`` metrics.  Disk-backed stats add a
        ``page_io`` block.
        """
        visited = sum(self.x_by_level)
        levels = [{
            "level": depth,
            "nodes": nodes,
            "tested": tested,
            "histogram_survivors": x,
            "pseudo_survivors": y,
            "pruned_by_closure": tested - x,
            "pruned_by_pseudo_iso": x - y,
        } for depth, (x, y, nodes, tested) in enumerate(zip(
            self.x_by_level, self.y_by_level, self.nodes_by_level,
            self.tested_by_level))]
        return self._with_page_io({
            "kind": "subgraph",
            "database_size": self.database_size,
            "levels": levels,
            "pruning": {
                "histogram_tests": self.histogram_tests,
                "pruned_by_closure": self.histogram_tests - visited,
                "pseudo_iso_tests": self.pseudo_tests,
                "pruned_by_pseudo_iso": visited - self.pseudo_survivors,
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
        })


class KnnStats(_StatsRecord):
    """Counters for one K-NN or range query (γ convention in the module
    docstring)."""

    _PREFIX = "ctree.knn"
    _FIELDS = (
        "database_size",
        "nodes_expanded",
        "children_scored",  # children whose bound / distance was evaluated
        "graphs_scored",    # graphs whose (approximate) similarity was computed
        "pruned_by_bound",
        "results",
        "seconds",
    )
    _SECONDS = ("seconds",)
    _DERIVED = ("access_ratio",)
    _HISTOGRAMS = ("graphs_scored", "seconds")
    __slots__ = _FIELDS

    @property
    def access_ratio(self) -> float:
        """Fraction of database 'accessed': nodes expanded plus graphs
        scored, over |D| (the paper's K-NN access ratio, Fig. 11a; see
        the γ accounting convention in the module docstring)."""
        if self.database_size <= 0:
            return 0.0
        return (self.nodes_expanded + self.graphs_scored) / self.database_size

    def explain(self) -> dict:
        """The per-query EXPLAIN profile for a K-NN/range query.

        K-NN descends a priority queue rather than level-synchronous
        refinement, so there is no per-level series; the profile
        reports the expansion/scoring/bound-pruning counters and, for
        disk-backed stats, a ``page_io`` block.
        """
        return self._with_page_io({
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
        })


class DiskQueryStats(QueryStats):
    """The :class:`QueryStats` of a query on a paged store: page I/O is
    counted, from zero."""

    __slots__ = ()
    _PAGE_IO_DEFAULT = 0


class DiskKnnStats(KnnStats):
    """The :class:`KnnStats` of a query on a paged store: page I/O is
    counted, from zero."""

    __slots__ = ()
    _PAGE_IO_DEFAULT = 0
