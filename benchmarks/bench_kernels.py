"""Kernel microbenchmark: compiled matching kernels vs their references.

Each kernel is timed against its set-based reference, called directly
from the test oracles (``tests/oracles/``):
the pseudo-isomorphism hot path (`pseudo_compatibility_domains` against
`reference_domains` over the chemical workload), the two halves of the
verification path on the pairs the chemical tree produces —
`RefineBipartite` on the (query, leaf graph) pairs of a descent, and
Ullmann on (query, candidate graph, Alg. 2 seeds) — the Eqn. (7)
bound as a flow between label classes against Hopcroft-Karp on the
expanded label-set lists, and the NBM scoring kernel (Alg. 1) against the
reference loop — one scorer over many targets and under a K-NN traversal
— asserting (a) bit-identical domains, embeddings, bounds, mappings and
K-NN answers and (b) the measured speedup that justifies the kernels'
existence.

Writes ``benchmarks/results/kernel_microbench.json`` (uploaded as a CI
artifact by the bench-smoke job) in addition to the usual
``record_figure`` table + ``BENCH_ctree.json`` entry.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from unittest import mock

import conftest
from conftest import (
    BOUNDS_FIGURE,
    BOUNDS_FLOOR,
    BOUNDS_ROWS,
    CHEM_SWEEP,
    KERNEL_ROW_FLOORS,
    RECORD_FIGURE,
    RECORD_FLOOR,
    RECORD_ROWS,
    RESULTS_DIR,
    VERIFY_FIGURE,
    VERIFY_ROWS,
    record_figure,
)

from repro.graphs.labelspace import label_context, nbm_context, target_context
from repro.matching import kernels
from repro.matching.bounds import SimilarityQueryContext
from repro.matching.kernels import (
    compile_query,
    domains_to_masks,
    level0_domain_masks,
    masks_to_domains,
    pseudo_domain_masks,
    refine_bipartite_masks,
)
from repro.matching.nbm import NbmScorer, nbm_mapping, nbm_score
from repro.matching.pseudo_iso import pseudo_compatibility_domains
from repro.matching.ullmann import enumerate_embeddings, find_embedding
from repro.ctree import similarity_query
from repro.ctree.similarity_query import knn_query
from repro.ctree.store import (
    MemoryNodeStore,
    decode_graph,
    decode_graph_context,
    decode_nbm_context,
    dump_record,
    encode_graph,
)
from repro.ctree.subgraph_query import subgraph_query
from repro.datasets.queries import (
    generate_subgraph_queries,
    select_similarity_queries,
)

# The references are the tests' oracles; they live beside the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.bounds import (  # noqa: E402
    edge_label_sets,
    set_similarity_upper_bound,
    vertex_label_sets,
)
from oracles.nbm import nbm_mapping_reference  # noqa: E402
from oracles.pseudo_iso import (  # noqa: E402
    level0_domains,
    reference_domains,
    refine_bipartite,
)
from oracles.ullmann import reference_embeddings  # noqa: E402

#: Required kernel-vs-reference speedup on the domain microbenchmark at
#: full scale.  ``--quick`` shrinks the workload until constant overheads
#: (context compilation over a handful of graphs) matter, so the gate
#: there only guards against outright regressions.
#: The refine and Ullmann rows are held to the same pair of floors.
MIN_SPEEDUP, MIN_SPEEDUP_QUICK = KERNEL_ROW_FLOORS
#: The same for the NBM kernel against the reference loop, pair by pair.
MIN_NBM_SPEEDUP = 1.5
MIN_NBM_SPEEDUP_QUICK = 1.1
REPEATS = 3


def _time(fn) -> float:
    """Best-of-N wall time of ``fn()`` (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _write_microbench(rows: dict) -> None:
    """Merge ``rows`` into ``kernel_microbench.json`` (each test of this
    module owns some of its keys)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "kernel_microbench.json"
    merged = json.loads(path.read_text()) if path.exists() else {}
    if merged.get("quick") != conftest._QUICK:
        merged = {}  # left over from a run at the other scale
    merged.update(rows)
    path.write_text(json.dumps(merged, indent=2) + "\n")


def test_kernel_microbench(chem_database, chem_tree, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sizes = CHEM_SWEEP.query_sizes
    queries_per_size = max(2, CHEM_SWEEP.queries_per_size // 2)
    level = 1

    ref_times, kernel_times, speedups = [], [], []
    for size in sizes:
        queries = generate_subgraph_queries(
            chem_database, size, queries_per_size, seed=21
        )

        def sweep(domains_of) -> list:
            return [domains_of(q, g, level)
                    for q in queries for g in chem_database]

        # Warm the memoized contexts so both are measured at their steady
        # state (contexts persist across queries in real use; the
        # reference does not use them at all).
        for g in chem_database:
            target_context(g)
        for q in queries:
            target_context(q)

        t_ref = _time(lambda: sweep(reference_domains))
        domains_ref = sweep(reference_domains)
        t_kernel = _time(lambda: sweep(pseudo_compatibility_domains))
        domains_kernel = sweep(pseudo_compatibility_domains)

        # Bit-identical domains, not merely equal verdicts.
        assert domains_kernel == domains_ref

        ref_times.append(t_ref)
        kernel_times.append(t_kernel)
        speedups.append(t_ref / t_kernel)

    record_figure(
        "kernel_microbench",
        "Kernel microbench: pseudo-iso domains, set-based vs bitset "
        "(chemical)",
        "query size",
        sizes,
        {
            "reference (s)": ref_times,
            "kernels (s)": kernel_times,
            "speedup": speedups,
        },
        float_format="{:.4f}",
    )
    _write_microbench({
        "quick": conftest._QUICK,
        "query_sizes": list(sizes),
        "reference_seconds": ref_times,
        "kernel_seconds": kernel_times,
        "speedups": speedups,
    })

    floor = MIN_SPEEDUP_QUICK if conftest._QUICK else MIN_SPEEDUP
    overall = sum(ref_times) / sum(kernel_times)
    assert overall >= floor, (
        f"kernel speedup {overall:.2f}x below the {floor}x floor "
        f"(per-size: {[f'{s:.2f}' for s in speedups]})"
    )


def test_verification_kernels_microbench(chem_database, chem_tree, benchmark):
    """The verification path's two kernels on the pairs the chemical tree
    produces.  Refine: `RefineBipartite` from the level-0 seeds on every
    (query, leaf graph) a descent refines — Alg. 3 runs Alg. 2 on graphs
    only.  Ullmann: the first embedding of every (query, candidate) the
    descent hands to verification, seeded with its Alg. 2 domains.
    Identical domains and identical embedding sequences first, then the
    speedup gate."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    level = 1
    queries = [
        q for size in CHEM_SWEEP.query_sizes
        for q in generate_subgraph_queries(
            chem_database, size, max(2, CHEM_SWEEP.queries_per_size // 2),
            seed=66)
    ]
    compiled = {id(q): compile_query(q, level) for q in queries}

    # Every pair a descent refines: the leaf graphs that pass the
    # histogram screen (child nodes are expanded untested).
    graph_of = {id(target_context(g)): g for g in chem_database}
    refine_pairs = []
    tested = []  # (compiled query, target context) of every pseudo test
    with mock.patch.object(
            kernels, "pseudo_domain_masks",
            lambda qc, tc, level: tested.append((qc, tc))
            or pseudo_domain_masks(qc, tc, level)):
        for q in queries:
            subgraph_query(chem_tree, q, level=level, verify=False)
    for qc, tc in tested:
        target = graph_of[id(tc)]
        seeds = level0_domains(qc.query, target)
        if all(seeds):  # else Alg. 2 stops at the seeding: nothing to refine
            refine_pairs.append(
                (qc.query, target, seeds, level0_domain_masks(qc, tc)))

    def refine_reference() -> list:
        return [refine_bipartite(q, t, [set(d) for d in seeds], level)
                for q, t, seeds, _ in refine_pairs]

    def refine_kernel() -> list:
        return [refine_bipartite_masks(compiled[id(q)], target_context(t),
                                       list(masks), level)
                for q, t, _, masks in refine_pairs]

    assert [masks_to_domains(m) for m in refine_kernel()] \
        == refine_reference()

    verify_pairs = []  # (query, candidate graph, Alg. 2 sets, masks)
    for q in queries:
        for gid in subgraph_query(chem_tree, q, level=level, verify=False)[0]:
            g = chem_database[gid]
            seeds = reference_domains(q, g, level)
            verify_pairs.append((q, g, seeds, domains_to_masks(seeds)))
    for q, g, seeds, masks in verify_pairs:
        expected = list(reference_embeddings(q, g, seeds, limit=3))
        assert list(enumerate_embeddings(q, g, masks, limit=3)) == expected

    t_refine_ref = _time(refine_reference)
    t_ullmann_ref = _time(lambda: [next(reference_embeddings(q, g, seeds, 1),
                                        None)
                                   for q, g, seeds, _ in verify_pairs])
    t_refine = _time(refine_kernel)
    t_ullmann = _time(lambda: [find_embedding(q, g, masks)
                               for q, g, _, masks in verify_pairs])

    rows = {
        "refine": (len(refine_pairs), t_refine_ref, t_refine),
        "ullmann": (len(verify_pairs), t_ullmann_ref, t_ullmann),
    }
    assert list(rows) == VERIFY_ROWS
    record_figure(
        VERIFY_FIGURE,
        "Kernel microbench: verification path, set-based reference vs "
        "mask kernel (chemical; us per pair)",
        "row",
        VERIFY_ROWS,
        {
            "reference": [1e6 * ref / n for n, ref, _ in rows.values()],
            "kernel": [1e6 * new / n for n, _, new in rows.values()],
            "speedup": [ref / new for _, ref, new in rows.values()],
        },
        float_format="{:.2f}",
    )
    _write_microbench({
        "quick": conftest._QUICK,
        **{name: {"pairs": n, "reference_seconds": ref,
                  "kernel_seconds": new, "speedup": ref / new}
           for name, (n, ref, new) in rows.items()},
    })

    floor = MIN_SPEEDUP_QUICK if conftest._QUICK else MIN_SPEEDUP
    for name, (n, ref, new) in rows.items():
        assert n > 0 and ref / new >= floor, (
            f"{name} kernel speedup {ref / new:.2f}x over {n} pairs below "
            f"the {floor}x floor")


#: per record-compiler row: the compile of a decoded graph it replaces,
#: the compiler, the slots they must agree on, and those compared as
#: dicts (beside them, Alg. 1's ``adj`` dict by dict in key order)
_RECORD_COMPILERS = {
    "record_context": (target_context, decode_graph_context,
                       ("n", "degrees", "vmasks", "edge_rows", "edge_masks",
                        "vhist", "ehist", "vbits", "ebits"),
                       ("vertex_groups", "edge_counts")),
    "nbm_context": (nbm_context, decode_nbm_context,
                    ("n", "vmasks", "vkeys", "profiles", "edge_masks"),
                    ("edge_counts",)),
}


def test_record_context_microbench(chem_database, benchmark):
    """What a disk query pays per graph record it reads: the JSON-parsed
    record compiled straight into the context its algorithm reads —
    Alg. 2's for a leaf graph a subgraph query's histogram screen passes,
    Alg. 1's for a graph a K-NN or range query scores — against decoding
    the ``Graph`` and compiling that.  Per row, equal contexts on every
    record first (adjacency dicts in key order), then the speedup gate."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    records = [json.loads(dump_record(encode_graph(g)))
               for g in chem_database]
    rows = {}
    for name in RECORD_ROWS:
        compile_graph, compile_record, fields, pairs = \
            _RECORD_COMPILERS[name]

        def reference() -> list:
            return [compile_graph(decode_graph(r)) for r in records]

        def compiled() -> list:
            return [compile_record(r) for r in records]

        for ours, theirs in zip(compiled(), reference()):
            for field in fields:
                assert getattr(ours, field) == getattr(theirs, field), field
            for field in pairs:
                assert dict(getattr(ours, field)) == \
                    dict(getattr(theirs, field)), field
            assert [list(a.items()) for a in ours.adj or ()] == \
                [list(a.items()) for a in theirs.adj or ()]
        rows[name] = (len(records), _time(reference), _time(compiled))

    record_figure(
        RECORD_FIGURE,
        "Kernel microbench: a graph record to the context its query reads, "
        "decode_graph + target_context / nbm_context vs "
        "decode_graph_context / decode_nbm_context (chemical; us per graph)",
        "row",
        RECORD_ROWS,
        {"reference": [1e6 * ref / n for n, ref, _ in rows.values()],
         "kernel": [1e6 * new / n for n, _, new in rows.values()],
         "speedup": [ref / new for _, ref, new in rows.values()]},
        float_format="{:.2f}",
    )
    _write_microbench({
        "quick": conftest._QUICK,
        **{name: {"graphs": n, "reference_seconds": ref,
                  "kernel_seconds": new, "speedup": ref / new}
           for name, (n, ref, new) in rows.items()},
    })
    for name, (n, ref, new) in rows.items():
        assert n > 0 and ref / new >= RECORD_FLOOR, (
            f"{name} compiler: {ref / new:.2f}x over {n} graphs below the "
            f"{RECORD_FLOOR}x floor")


def test_bounds_microbench(chem_database, chem_tree, benchmark):
    """Eqn. (7) on every (probe, node closure) and (probe, leaf summary)
    pair a K-NN over the chemical tree bounds: the compiled sides (a flow
    between label classes; two histogram walks for a summary) against
    Hopcroft-Karp on the expanded label-set lists — identical values,
    then the speedup gate."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    probes = select_similarity_queries(
        chem_database, max(2, CHEM_SWEEP.queries_per_size // 2), seed=55)
    contexts = [SimilarityQueryContext(q) for q in probes]
    closures = [node.closure for _, node in chem_tree.nodes()
                if node.closure is not None]
    targets = {"closures": closures,
               "summaries": [label_context(g) for g in chem_database]}
    assert list(targets) == BOUNDS_ROWS

    def label_sets(g):
        return vertex_label_sets(g), edge_label_sets(g)

    expanded = {"closures": [label_sets(c) for c in closures],
                "summaries": [label_sets(g) for g in chem_database]}
    probe_sets = [label_sets(q) for q in probes]

    def reference(row: str) -> list:
        return [set_similarity_upper_bound(v1, v2)
                + set_similarity_upper_bound(e1, e2)
                for v1, e1 in probe_sets for v2, e2 in expanded[row]]

    def kernel(row: str) -> list:
        return [sqc.sim_upper_bound(t)
                for sqc in contexts for t in targets[row]]

    rows = {}
    for row in BOUNDS_ROWS:
        assert kernel(row) == reference(row)
        rows[row] = (len(probes) * len(targets[row]),
                     _time(lambda: reference(row)), _time(lambda: kernel(row)))
    record_figure(
        BOUNDS_FIGURE,
        "Kernel microbench: Eqn. (7), Hopcroft-Karp on expanded label-set "
        "lists vs compiled sides (chemical; us per pair)",
        "row",
        BOUNDS_ROWS,
        {
            "reference": [1e6 * ref / n for n, ref, _ in rows.values()],
            "kernel": [1e6 * new / n for n, _, new in rows.values()],
            "speedup": [ref / new for _, ref, new in rows.values()],
        },
        float_format="{:.2f}",
    )
    _write_microbench({
        "quick": conftest._QUICK,
        **{f"bounds_{name}": {"pairs": n, "reference_seconds": ref,
                              "kernel_seconds": new, "speedup": ref / new}
           for name, (n, ref, new) in rows.items()},
    })
    for name, (n, ref, new) in rows.items():
        assert n > 0 and ref / new >= BOUNDS_FLOOR, (
            f"Eqn. (7) {name}: {ref / new:.2f}x over {n} pairs below the "
            f"{BOUNDS_FLOOR}x floor")


class _ReferenceScorer:
    """``NbmScorer``'s surface over the reference loop."""

    def __init__(self, query) -> None:
        self.query = query

    def mapping(self, target):
        return nbm_mapping_reference(self.query, target)

    def similarity(self, target) -> float:
        return self.mapping(target).similarity()

    def score(self, target) -> tuple[float, float]:
        mapping = self.mapping(target)
        return mapping.similarity(), mapping.edit_cost()


def test_nbm_kernel_microbench(chem_database, chem_tree, benchmark):
    """Alg. 1 on (probe, database graph) pairs of the chemical sweep —
    what a K-NN query scores — one compiled scorer per probe vs the
    reference loop: identical mappings and scores, and the pair-level
    speedup gate; then the same K-NN queries with the traversal scoring
    through either, identical answers and counters."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    probes = select_similarity_queries(
        chem_database, max(2, CHEM_SWEEP.queries_per_size // 2), seed=55)

    for q in probes:
        scorer = NbmScorer(q)
        for g in chem_database:
            reference = nbm_mapping_reference(q, g)
            assert nbm_mapping(q, g).pairs == reference.pairs
            assert nbm_score(q, g) == scorer.score(g) == (
                reference.similarity(), reference.edit_cost())
            assert scorer.similarity(g) == reference.similarity()

    def score_all(scorer_of) -> list:
        return [scorer.score(g) for scorer in map(scorer_of, probes)
                for g in chem_database]

    pairs = len(probes) * len(chem_database)
    t_ref = _time(lambda: score_all(_ReferenceScorer))
    t_kernel = _time(lambda: score_all(NbmScorer))

    k = 5

    def run() -> list:
        return [knn_query(chem_tree, q, k) for q in probes]

    # The seam every traversal scores through; the reference loop reads
    # label sets, so it scores graphs, not compiled contexts.
    with mock.patch.object(similarity_query, "NbmScorer", _ReferenceScorer), \
            mock.patch.object(MemoryNodeStore, "load_nbm_context",
                              MemoryNodeStore.load_graph):
        t_knn_ref = _time(run)
        expected = run()
    t_knn_kernel = _time(run)
    for (got, got_stats), (want, want_stats) in zip(run(), expected):
        assert got == want
        assert got_stats.deterministic_dict() == want_stats.deterministic_dict()

    speedup, knn_speedup = t_ref / t_kernel, t_knn_ref / t_knn_kernel
    record_figure(
        "kernel_microbench_nbm",
        "Kernel microbench: NBM (Alg. 1), reference loop vs one compiled "
        "scorer per probe (chemical)",
        "row",
        ["ms per pair", f"ms per {k}-NN query"],
        {
            "reference": [1000 * t_ref / pairs,
                          1000 * t_knn_ref / len(probes)],
            "kernel": [1000 * t_kernel / pairs,
                       1000 * t_knn_kernel / len(probes)],
            "speedup": [speedup, knn_speedup],
        },
        float_format="{:.3f}",
    )
    _write_microbench({
        "quick": conftest._QUICK,
        "nbm": {"pairs": pairs, "reference_seconds": t_ref,
                "kernel_seconds": t_kernel, "speedup": speedup},
        "knn": {"queries": len(probes), "k": k,
                "reference_seconds": t_knn_ref,
                "kernel_seconds": t_knn_kernel, "speedup": knn_speedup},
    })

    floor = MIN_NBM_SPEEDUP_QUICK if conftest._QUICK else MIN_NBM_SPEEDUP
    assert speedup >= floor, (
        f"NBM kernel speedup {speedup:.2f}x below the {floor}x floor "
        f"(K-NN: {knn_speedup:.2f}x)")
