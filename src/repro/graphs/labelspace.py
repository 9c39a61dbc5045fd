"""Process-wide label interning and compiled bitset graph contexts.

The matching hot path (pseudo subgraph isomorphism, Alg. 2) spends most of
its time intersecting tiny ``frozenset`` labels and walking per-vertex
neighbor structures that are rebuilt for every (query, target) pair.  This
module compiles both away:

- :class:`LabelSpace` interns every distinct vertex/edge label to a small
  integer, so a label *set* becomes one Python int bitmask and the paper's
  label-compatibility test (label sets intersect, or either holds the
  wildcard) becomes two machine-word operations (:func:`masks_match`).
- :class:`TargetContext` is the compiled, immutable view of one
  :class:`~repro.graphs.graph.Graph` or
  :class:`~repro.graphs.closure.GraphClosure` as the *target* of a match:
  vertices grouped by label mask, neighbours by edge label mask, degrees,
  and (its :class:`LabelSummary` base) a sparse label histogram.  It is
  built once per object by :func:`target_context` and memoized on the
  graph itself (slot ``_kernel_ctx``), invalidated whenever the graph
  mutates.  Alg. 2's neighbour rows per edge label and Alg. 1's
  neighbour-label profiles and adjacency are two halves filled in on
  first use (:func:`nbm_context`); a disk graph record compiles straight
  into either (``repro.ctree.store.decode_graph_context`` /
  ``decode_nbm_context``).  The query side of a match is compiled per
  query by :func:`repro.matching.kernels.compile_query`.

Bit layout: bit 0 is reserved for the query wildcard and bit 1 for the
dummy label ε, so the wildcard test is a constant-mask AND.  Interning is
append-only — ids are never reassigned — which keeps cached masks valid as
new labels appear; a context is only stale if the *global space object*
itself was replaced (tests use :func:`reset_labelspace`).

ε is deliberately interned as an ordinary label bit: the set semantics
treat the dummy as a value two closures can agree on, and the bitmask
encoding must preserve that semantics exactly.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import reduce
from operator import or_
from typing import Hashable, Iterable

from repro.graphs.closure import EPSILON, WILDCARD, GraphClosure, GraphLike
from repro.graphs.graph import Graph

__all__ = [
    "WILDCARD_BIT",
    "EPSILON_BIT",
    "LabelSpace",
    "LabelSummary",
    "TargetContext",
    "mask_functions",
    "global_labelspace",
    "reset_labelspace",
    "masks_match",
    "label_context",
    "target_context",
    "nbm_context",
    "graph_nbm_keys",
]

#: Bitmask of the reserved wildcard label (always id 0).
WILDCARD_BIT = 1
#: Bitmask of the reserved dummy label ε (always id 1).
EPSILON_BIT = 2


def masks_match(m1: int, m2: int) -> bool:
    """Label-set compatibility on bitmasks.

    True when the masks share a bit, or when either contains the wildcard
    bit (a wildcard matches any real label — and two wildcards share bit 0
    anyway, so the single constant-mask test covers every case).
    """
    return bool((m1 & m2) | ((m1 | m2) & WILDCARD_BIT))


class LabelSpace:
    """An append-only interner from labels to small integer ids.

    Vertex labels and edge labels are interned in separate namespaces so
    each side's bitmasks stay dense.  Ids 0 (wildcard) and 1 (ε) are
    reserved in both namespaces.  Neighbour-label multisets (Alg. 1's
    "profiles") are interned too, as unary-coded masks — one bit per
    (label, k-th occurrence) — so two profiles overlap in popcount(AND);
    and so is what Alg. 1 reads of a whole database-graph vertex, its
    ``(mask, profile, degree)`` key, as a small int (:meth:`vertex_key`).
    """

    __slots__ = ("_vertex_ids", "_edge_ids", "_profiles", "_runs",
                 "_vertex_key_ids", "vertex_keys")

    def __init__(self) -> None:
        self._vertex_ids: dict = {WILDCARD: 0, EPSILON: 1}
        self._edge_ids: dict = {WILDCARD: 0, EPSILON: 1}
        self._profiles: dict[int, int] = {}
        self._runs = _Runs()
        self._vertex_key_ids: dict[tuple[int, ...], int] = {}
        #: vertex key id -> ``(label mask, profile, degree)``
        self.vertex_keys: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------------
    def vertex_id(self, label: Hashable) -> int:
        """The id of a vertex label, interned on first sight."""
        ids = self._vertex_ids
        i = ids.get(label)
        if i is None:
            i = len(ids)
            ids[label] = i
        return i

    def edge_id(self, label: Hashable) -> int:
        """The id of an edge label, interned on first sight."""
        ids = self._edge_ids
        i = ids.get(label)
        if i is None:
            i = len(ids)
            ids[label] = i
        return i

    def vertex_bit(self, label: Hashable) -> int:
        """The one-bit mask of a vertex label."""
        return 1 << self.vertex_id(label)

    def edge_bit(self, label: Hashable) -> int:
        """The one-bit mask of an edge label."""
        return 1 << self.edge_id(label)

    def vertex_mask(self, labels: Iterable) -> int:
        """The mask of a vertex label set: one bit per label."""
        m = 0
        for label in labels:
            m |= 1 << self.vertex_id(label)
        return m

    def edge_mask(self, labels: Iterable) -> int:
        """The mask of an edge label set: one bit per label."""
        m = 0
        for label in labels:
            m |= 1 << self.edge_id(label)
        return m

    def profile(self, label_ids: Iterable[int]) -> int:
        """The unary-coded mask of a multiset of vertex label ids (given
        with repetition, in any order): the ids are counted, and each
        ``(id, count)`` run is one memoised mask."""
        return reduce(or_, map(self._runs.__getitem__,
                               Counter(label_ids).items()), 0)

    def vertex_key(self, key: tuple[int, ...]) -> int:
        """The id of a database-graph vertex as Alg. 1 sees it, ``key`` its
        label mask followed by its neighbours' label ids, sorted.  Atoms
        alike in both recur across a database, so the lookup is all a
        loaded graph pays; :attr:`vertex_keys` maps the id back to
        ``(mask, profile, degree)``, equal profiles one shared int."""
        k = self._vertex_key_ids.get(key)
        if k is None:
            k = self._vertex_key_ids[key] = len(self.vertex_keys)
            p = self.profile(key[1:])
            self.vertex_keys.append(
                (key[0], self._profiles.setdefault(p, p), len(key) - 1))
        return k

    def graph_keys(self, ids: list[int], adj: list[dict]) -> list[int]:
        """:meth:`vertex_key` of every vertex of a database graph, from its
        vertex label ids and its adjacency (one ``{neighbour: ...}`` per
        vertex) — a ``Graph``'s or, on disk, its record's."""
        vertex_key, label_id = self.vertex_key, ids.__getitem__
        return [vertex_key((1 << i, *sorted(map(label_id, row))))
                for i, row in zip(ids, adj)]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able summary: the size of each append-only table."""
        return {
            "vertex_labels": len(self._vertex_ids),
            "edge_labels": len(self._edge_ids),
            "profiles": len(self._profiles),
            "vertex_keys": len(self.vertex_keys),
        }

    def publish(self, registry) -> None:
        """Set one ``labelspace.<table>`` gauge per :meth:`snapshot` row
        (``repro metrics`` does, after its query)."""
        for table, size in self.snapshot().items():
            registry.gauge(f"labelspace.{table}").set(size)

    def __repr__(self) -> str:
        return (f"<LabelSpace |V-labels|={len(self._vertex_ids)} "
                f"|E-labels|={len(self._edge_ids)}>")


class _Runs(dict):
    """``(label id, count) -> mask`` of the bits of that label's first
    ``count`` occurrences, filled per miss; each (id, k-th occurrence)
    owns one bit, numbered in order of first use."""

    __slots__ = ("_bits",)

    def __init__(self) -> None:
        super().__init__()
        #: (label id, k) -> bit position
        self._bits: dict[tuple[int, int], int] = {}

    def __missing__(self, run: tuple[int, int]) -> int:
        i, count = run
        bits = self._bits
        mask = 0
        for k in range(1, count + 1):
            mask |= 1 << bits.setdefault((i, k), len(bits))
        self[run] = mask
        return mask


_GLOBAL_SPACE = LabelSpace()


def global_labelspace() -> LabelSpace:
    """The process-wide interner every compiled context is built against."""
    return _GLOBAL_SPACE


def reset_labelspace() -> LabelSpace:
    """Replace the global space with a fresh one (test isolation only).

    Contexts cached against the old space object are detected as stale by
    :func:`target_context` because the cache stores the space identity.
    """
    global _GLOBAL_SPACE
    _GLOBAL_SPACE = LabelSpace()
    return _GLOBAL_SPACE


class LabelSummary:
    """The label histogram of one graph or closure in the process label
    space (Sec. 6.2) — all that Alg. 3's histogram screen reads from a
    target (a disk leaf entry carries exactly this beside its graph
    pointer), what Eqn. (7) bounds a leaf entry with, and what the
    soundness walk and the delete path hold closures against.  A
    closure's dominates each member graph's (Lemma 1).

    ``vhist`` / ``ehist`` map an interned label id to its count (the
    wildcard, and in a closure ε, never count); ``vbits`` / ``ebits``
    are their presence masks.
    """

    __slots__ = ("vhist", "ehist", "vbits", "ebits")

    def __init__(self, vhist: dict[int, int], ehist: dict[int, int]) -> None:
        self.vhist = vhist
        self.ehist = ehist
        self.vbits = sum(1 << i for i in vhist)
        self.ebits = sum(1 << i for i in ehist)

    def dominates(self, other: "LabelSummary") -> bool:
        """Whether every count of ``other`` is at most this one's, vertex
        labels against vertex labels and edge labels against edge labels.
        A ``False`` proves no graph this summarizes contains ``other``'s
        (the bitset form against a compiled query:
        ``repro.matching.kernels.histogram_dominates``)."""
        for mine, theirs in ((self.vhist, other.vhist),
                             (self.ehist, other.ehist)):
            for i, count in theirs.items():
                if mine.get(i, 0) < count:
                    return False
        return True

    def attains(self, outer: "LabelSummary") -> bool:
        """Whether some count of this summary reaches ``outer``'s for the
        same label.  When ``outer`` dominates this one (a closure over a
        member graph) that says whether the member is load-bearing for a
        label bound: removing a graph that attains none cannot lower any
        count of a recomputed closure, so the delete path keeps it."""
        for mine, theirs in ((self.vhist, outer.vhist),
                             (self.ehist, outer.ehist)):
            for i, count in mine.items():
                if count >= theirs.get(i, 0):
                    return True
        return False


class TargetContext(LabelSummary):
    """The compiled bitset view of one graph or closure *as a target*:
    what the matching kernels read from the target side of a (query,
    target) pair (the query side is a
    :class:`~repro.matching.kernels.QueryContext`).  Only ``adj`` aliases
    the source graph's structures: its adjacency dicts, by reference, read
    and never written; a mutation of the source drops the whole context.
    Instances are immutable by convention and shared freely.
    """

    __slots__ = ("n", "degrees", "edge_rows", "vertex_groups", "edge_counts",
                 "edge_masks", "vmasks", "profiles", "vkeys", "adj",
                 "nbr_rows", "_at_least")

    def __init__(
        self,
        n: int,
        degrees: list[int],
        vmasks: list[int],
        vertex_groups: tuple[tuple[int, int], ...],
        edge_counts: tuple[tuple[int, int], ...],
        edge_masks: dict,
        skip: int,
    ) -> None:
        super().__init__(
            mask_histogram([(m, members.bit_count())
                            for m, members in vertex_groups], skip),
            mask_histogram(edge_counts, skip))
        self.n = n
        #: neighbor count per vertex
        self.degrees = degrees
        #: label mask per vertex
        self.vmasks = vmasks
        #: (vertex label mask, bitset of vertices carrying it) pairs
        self.vertex_groups = vertex_groups
        #: (edge label mask, number of edges carrying it) pairs
        self.edge_counts = edge_counts
        #: edge label (a closure's: label set), as adjacency holds it -> mask
        self.edge_masks = edge_masks
        #: Alg. 2's half, built by :func:`target_context` — per edge label
        #: mask, per vertex the bitset of its neighbours over that label
        self.edge_rows: dict[int, list[int]] | None = None
        #: Alg. 1's half (:func:`nbm_context`): a neighbour-label profile each
        self.profiles: list[int] | None = None
        #: ... and, of a graph only, each vertex's ``LabelSpace.vertex_key``
        self.vkeys: list[int] | None = None
        #: ... and per vertex its ``{neighbour: edge label}`` dict, the
        #: source's own (Alg. 1 reads no order from it)
        self.adj: list[dict] | None = None
        #: ``kernels.neighbor_rows`` memo: query edge mask -> row per vertex
        self.nbr_rows: dict[int, list[int]] = {}
        #: :meth:`at_least` memo: degree -> bitset of vertices at least that
        self._at_least: dict[int, int] = {}

    @classmethod
    def nbm_only(cls, vmasks: list[int], edge_counts: tuple, edge_masks: dict,
                 adj: list[dict], vkeys: list[int],
                 profiles: list[int]) -> "TargetContext":
        """A graph's context holding what Alg. 1 reads and nothing else —
        the view one score reads of a disk record's memoised context
        (``repro.ctree.store.RecordContext.scoring``), sharing its lists
        and holding the adjacency dicts built for that score; it is
        dropped with the score.  The label half (histograms, vertex
        groups, degrees) and Alg. 2's are not set, so reading them
        raises ``AttributeError``."""
        ctx = cls.__new__(cls)
        ctx.n, ctx.vmasks, ctx.edge_counts = len(vmasks), vmasks, edge_counts
        ctx.edge_masks, ctx.adj = edge_masks, adj
        ctx.vkeys, ctx.profiles = vkeys, profiles
        return ctx

    def at_least(self, d: int) -> int:
        """Bitset of the vertices with at least ``d`` neighbours (memoised)."""
        m = self._at_least.get(d)
        if m is None:
            m = self._at_least[d] = sum(
                1 << v for v, dv in enumerate(self.degrees) if dv >= d)
        return m

    def __repr__(self) -> str:
        return f"<TargetContext |V|={self.n}>"


def mask_ids(m: int) -> list[int]:
    """The label ids whose bits are set in ``m``."""
    ids = []
    while m:
        b = m & -m
        m ^= b
        ids.append(b.bit_length() - 1)
    return ids


def mask_histogram(counts: Iterable[tuple[int, int]], skip: int) -> dict[int, int]:
    """``(label mask, occurrences)`` pairs to an id → count histogram:
    every member of a mask counts once per occurrence, members in
    ``skip`` (wildcard, and ε for closures) never — a
    :class:`LabelSummary`'s counts."""
    hist: dict[int, int] = {}
    for m, c in counts:
        for i in mask_ids(m & ~skip):
            hist[i] = hist.get(i, 0) + c
    return hist


def mask_functions(g: GraphLike, space: LabelSpace):
    """``(vertex -> label(s), label(s) -> vertex mask, label(s) -> edge
    mask, histogram skip mask)`` for a graph's single labels or a
    closure's label sets."""
    if isinstance(g, Graph):
        return g.label, space.vertex_bit, space.edge_bit, WILDCARD_BIT
    if isinstance(g, GraphClosure):
        return (g.label_set, space.vertex_mask, space.edge_mask,
                WILDCARD_BIT | EPSILON_BIT)
    raise TypeError(f"cannot compile {type(g).__name__} to a context")


def _build_context(g: GraphLike, space: LabelSpace) -> TargetContext:
    label_of, vertex_mask, edge_mask, skip = mask_functions(g, space)
    n = g.num_vertices
    # Distinct labels / label sets are few: translate each to its mask once.
    masks: dict = {}
    vmasks: list[int] = []
    vgroups: dict[int, int] = {}
    for v in range(n):
        label = label_of(v)
        m = masks.get(label)
        if m is None:
            m = masks[label] = vertex_mask(label)
        vmasks.append(m)
        vgroups[m] = vgroups.get(m, 0) | (1 << v)

    emasks: dict = {}
    ecounts: dict[int, int] = {}
    for _, _, label in g.edges():
        em = emasks.get(label)
        if em is None:
            em = emasks[label] = edge_mask(label)
        ecounts[em] = ecounts.get(em, 0) + 1
    degrees = [g.degree(v) for v in range(n)]

    return TargetContext(n, degrees, vmasks, tuple(vgroups.items()),
                         tuple(ecounts.items()), emasks, skip)


def label_context(g: GraphLike) -> TargetContext:
    """The compiled context of ``g``, memoized on the object: the part
    every reader shares; :func:`target_context` and :func:`nbm_context`
    add Alg. 2's and Alg. 1's half on first use.

    The cache key is the identity of the global :class:`LabelSpace`;
    mutation of ``g`` clears the cache (see ``Graph``/``GraphClosure``
    mutators), and interning is append-only so a cached context never goes
    stale merely because other graphs introduced new labels.
    """
    space = _GLOBAL_SPACE
    cached = getattr(g, "_kernel_ctx", None)
    if cached is not None and cached[0] is space:
        return cached[1]
    ctx = _build_context(g, space)  # TypeError unless a graph or closure
    g._kernel_ctx = (space, ctx)
    return ctx


def target_context(g: GraphLike) -> TargetContext:
    """:func:`label_context` with what the Alg. 2 kernels read of a
    target filled in: per edge mask, each vertex's neighbours over it."""
    ctx = label_context(g)
    if ctx.edge_rows is None:
        emasks, n, edge_rows = ctx.edge_masks, ctx.n, {}
        for u, v, label in g.edges():
            rows = edge_rows.get(emasks[label])
            if rows is None:
                rows = edge_rows[emasks[label]] = [0] * n
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        ctx.edge_rows = edge_rows  # published complete
    return ctx


def nbm_context(g: GraphLike | TargetContext) -> TargetContext:
    """:func:`label_context` with what only Alg. 1 reads filled in: per
    vertex the profile of its neighbours' labels (a closure neighbour
    counts once toward each label of its set) and the source's own list
    of adjacency dicts, by reference.  A graph's vertices are interned whole
    — key ids in ``vkeys``, profiles shared through them; so are an
    unchanged singleton closure's, taken from its graph
    (``GraphClosure.from_graph``).  Another closure's hardly recur and
    are not: each profile is counted (:meth:`LabelSpace.profile`).  A
    context compiled already (a disk record's, or the view one score
    reads of it, ``repro.ctree.store.RecordContext.scoring``) is
    returned as it is."""
    if isinstance(g, TargetContext):
        return g
    ctx = label_context(g)
    if ctx.profiles is None:
        space, vmasks = _GLOBAL_SPACE, ctx.vmasks
        # The source's own list of adjacency dicts: no copy (a mutation
        # drops the context with it, like ``_kernel_ctx``).
        adj = ctx.adj = g._adj
        if isinstance(g, Graph):
            _, ctx.vkeys, ctx.profiles = graph_nbm_keys(g)
        elif g._source is not None and g._source[0] is space:
            # An unchanged singleton closure has its graph's vertex keys
            # and profiles.
            _, ctx.vkeys, ctx.profiles = g._source
        else:
            ids = {m: mask_ids(m) for m, _ in ctx.vertex_groups}
            vids = [ids[m] for m in vmasks]
            profile, chain = space.profile, itertools.chain.from_iterable
            ctx.profiles = [profile(chain(map(vids.__getitem__, a)))
                            for a in adj]
    return ctx


def graph_nbm_keys(g: Graph) -> tuple[LabelSpace, list[int], list[int]]:
    """``(space, vkeys, profiles)``: the vertex keys and profiles
    :func:`nbm_context` gives a graph, in the current space — read from
    the graph's memoised context when it holds them, else interned
    without building (or keeping) one."""
    space = _GLOBAL_SPACE
    cached = g._kernel_ctx
    if cached is not None and cached[0] is space and \
            cached[1].vkeys is not None:
        return space, cached[1].vkeys, cached[1].profiles
    keys = space.vertex_keys
    vkeys = space.graph_keys(list(map(space.vertex_id, g._labels)), g._adj)
    return space, vkeys, [keys[k][1] for k in vkeys]
