"""Fig. 7: candidate/answer set size (a) and accuracy (b) vs query size.

Paper result: C-tree's candidate sets shrink steeply with query size and
are up to two orders of magnitude below GraphGrep's; at level=MAX the
accuracy |Ans|/|CS| is near 100%.
"""

from conftest import record_figure

from repro.ctree.subgraph_query import subgraph_query
from repro.datasets.queries import generate_subgraph_queries


def test_fig7a_candidate_sets(chem_sweep, benchmark):
    result = chem_sweep
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record_figure(
        "fig7a_candidates",
        "Fig 7(a): candidate / answer set size vs query size (chemical)",
        "query size",
        result.query_sizes,
        {
            "Answer set": result.answers,
            "C-tree level=1": result.ctree_candidates[1],
            "C-tree level=MAX": result.ctree_candidates["max"],
            "GraphGrep": result.graphgrep_candidates,
        },
        float_format="{:.1f}",
    )
    for i in range(len(result.query_sizes)):
        # Filtering soundness: candidates dominate answers everywhere.
        assert result.ctree_candidates["max"][i] >= result.answers[i] - 1e-9
        # MAX refinement is at least as selective as level 1.
        assert result.ctree_candidates["max"][i] <= result.ctree_candidates[1][i] + 1e-9
    # The paper's headline: C-tree candidates below GraphGrep's overall.
    assert sum(result.ctree_candidates["max"]) <= sum(result.graphgrep_candidates)


def test_fig7b_accuracy(chem_sweep, benchmark):
    result = chem_sweep
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record_figure(
        "fig7b_accuracy",
        "Fig 7(b): candidate accuracy |Ans|/|CS| vs query size (chemical)",
        "query size",
        result.query_sizes,
        {
            "C-tree level=1": result.ctree_accuracy[1],
            "C-tree level=MAX": result.ctree_accuracy["max"],
            "GraphGrep": result.graphgrep_accuracy,
        },
    )
    # Level=MAX accuracy is near 100% (paper: "nearly 100%").
    assert min(result.ctree_accuracy["max"]) >= 0.9
    # And never below GraphGrep's accuracy in aggregate.
    assert sum(result.ctree_accuracy["max"]) >= sum(result.graphgrep_accuracy)


def test_bench_subgraph_query_level1(benchmark, chem_tree, chem_database):
    """Micro-benchmark: one size-10 subgraph query at level 1."""
    query = generate_subgraph_queries(chem_database, 10, 1, seed=3)[0]
    answers, _ = benchmark(lambda: subgraph_query(chem_tree, query, level=1))
    assert isinstance(answers, list)


def test_bench_subgraph_query_level_max(benchmark, chem_tree, chem_database):
    """Micro-benchmark: the same query at level MAX."""
    query = generate_subgraph_queries(chem_database, 10, 1, seed=3)[0]
    answers, _ = benchmark(
        lambda: subgraph_query(chem_tree, query, level="max")
    )
    assert isinstance(answers, list)
