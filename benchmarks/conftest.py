"""Shared fixtures for the figure-reproduction benchmarks.

Every ``bench_figN_*.py`` regenerates one figure of the paper's evaluation
section at laptop scale.  Expensive sweeps run once per session in fixtures;
the rendered tables are printed and written to ``benchmarks/results/`` so a
benchmark run leaves the reproduced figures on disk.  Figures recorded with
:func:`record_figure` are additionally collected and written at session end
as machine-readable telemetry to ``BENCH_ctree.json`` at the repo root
(schema: ``{"schema": ..., "quick": ..., "figures": {name: series dict}}``).

Scale: the paper used |D| = 10,000 and 1000 queries per point on 2006-era
C++/Java.  Pure Python pays ~100x on the isomorphism inner loops, so the
defaults here use a few hundred graphs and a handful of queries per point —
enough to reproduce every curve's *shape*.  EXPERIMENTS.md maps each scaled
setting to the paper's.  ``--quick`` shrinks every workload further (CI
smoke scale: tens of graphs, 2-3 queries per point); curve *orderings*
still hold there, but magnitudes are not meaningful.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.config import (
    IndexSizeExperimentConfig,
    KnnExperimentConfig,
    MappingQualityConfig,
    SubgraphExperimentConfig,
)
from repro.experiments.reporting import format_series_table, series_to_dict
from repro.experiments.subgraph_experiments import run_query_sweep

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_ctree.json"
BENCH_SCHEMA = "ctree-bench-v1"

#: Fig. 7-8 workload (chemical-like dataset).
CHEM_SWEEP = SubgraphExperimentConfig(
    database_size=150,
    queries_per_size=8,
    query_sizes=(5, 10, 15, 20, 25),
    min_fanout=10,
    graphgrep_lp=4,
    levels=(1, "max"),
    seed=7,
)

#: Fig. 9 workload (synthetic dataset, paper parameters with D scaled).
SYNTH_SWEEP = SubgraphExperimentConfig(
    database_size=100,
    queries_per_size=5,
    query_sizes=(5, 10, 15, 20, 25),
    min_fanout=10,
    graphgrep_lp=4,
    levels=(1,),
    seed=7,
)

#: Fig. 6 workload.
INDEX_SIZE = IndexSizeExperimentConfig(
    database_sizes=(50, 100, 200, 400),
    min_fanout=10,
    graphgrep_lps=(4, 10),
    seed=7,
)

#: Fig. 10 workload.
MAPPING_QUALITY = MappingQualityConfig(
    group_size=25, database_size=150, bucket_width=15.0, seed=11
)

#: Fig. 11 workload.
KNN = KnnExperimentConfig(
    database_size=150, ks=(1, 2, 5, 10, 25, 50), queries=8, min_fanout=10,
    seed=13,
)


_QUICK = False
#: figure name -> JSON-able series dict, flushed to BENCH_ctree.json
_FIGURES: dict[str, dict] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="shrink benchmark workloads to CI smoke scale",
    )


def pytest_configure(config):
    global _QUICK, CHEM_SWEEP, SYNTH_SWEEP, INDEX_SIZE, MAPPING_QUALITY, KNN
    if not config.getoption("--quick", default=False):
        return
    _QUICK = True
    # Rebinding here (before collection) means both the fixtures below and
    # the bench modules' ``from conftest import CHEM_SWEEP`` see the
    # shrunk configs.
    CHEM_SWEEP = replace(
        CHEM_SWEEP, database_size=60, queries_per_size=3,
        query_sizes=(5, 10, 15),
    )
    SYNTH_SWEEP = replace(
        SYNTH_SWEEP, database_size=50, queries_per_size=3,
        query_sizes=(5, 10, 15),
    )
    INDEX_SIZE = replace(INDEX_SIZE, database_sizes=(30, 60))
    MAPPING_QUALITY = replace(
        MAPPING_QUALITY, group_size=10, database_size=60
    )
    KNN = replace(KNN, database_size=60, ks=(1, 2, 5, 10), queries=3)


def record_table(name: str, text: str, data: dict | None = None) -> None:
    """Print a rendered figure table and persist it under results/.

    ``data``, when given, must be a JSON-able dict (conventionally a
    :func:`~repro.experiments.reporting.series_to_dict` payload); it is
    collected into ``BENCH_ctree.json`` at session end under ``name``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        _FIGURES[name] = data
    print(f"\n{text}\n[written to benchmarks/results/{name}.txt]")


def validate_chrome_trace(payload: dict) -> int:
    """Schema-check a Chrome trace-event export; return the event count.

    Asserts the shape :func:`repro.obs.trace.chrome_trace` promises (and
    ``chrome://tracing`` / Perfetto require): a ``traceEvents`` list of
    complete events (``ph == "X"``) with string names, numeric
    microsecond ``ts``/``dur``, and ``ts``-sorted order.  Used by
    ``bench_trace_explain.py`` and the CI bench-smoke job to keep the
    uploaded trace artifact loadable.
    """
    assert isinstance(payload, dict), "chrome trace must be a JSON object"
    events = payload.get("traceEvents")
    assert isinstance(events, list) and events, "traceEvents missing/empty"
    assert payload.get("displayTimeUnit") == "ms"
    last_ts = float("-inf")
    for event in events:
        assert isinstance(event, dict)
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            assert key in event, f"trace event missing {key!r}: {event}"
        assert event["ph"] == "X", "only complete events are emitted"
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["dur"], (int, float))
        assert event["dur"] >= 0
        assert event["ts"] >= last_ts, "traceEvents must be ts-sorted"
        last_ts = event["ts"]
        args = event.get("args", {})
        assert "span_id" in args, "span_id arg required for ancestry"
    return len(events)


# ----------------------------------------------------------------------
# Telemetry validation (shared by the CI bench-smoke job)
# ----------------------------------------------------------------------
def _require(condition, message: str) -> None:
    """One shared assertion primitive for every telemetry validator."""
    if not condition:
        raise AssertionError(message)


#: bench_kernels.py's verification-path figure: its rows (refine on the
#: (query, leaf graph) pairs a descent runs Alg. 2 on; Ullmann on its
#: candidates), and the kernel-vs-reference speedup floor each must reach
#: (full scale, --quick)
VERIFY_FIGURE = "kernel_microbench_verify"
VERIFY_ROWS = ["refine", "ullmann"]
KERNEL_ROW_FLOORS = (2.0, 1.2)
#: ... and its Eqn. (7) figure: compiled sides vs Hopcroft-Karp on the
#: expanded label-set lists, one floor at either scale
BOUNDS_FIGURE = "kernel_microbench_bounds"
BOUNDS_ROWS = ["closures", "summaries"]
BOUNDS_FLOOR = 2.0
#: ... and its record-compiler figure: ``decode_graph_context`` against
#: ``target_context(decode_graph(record))``, ``decode_nbm_context``
#: against ``nbm_context(decode_graph(record))``, one floor at either scale
RECORD_FIGURE = "kernel_microbench_record"
RECORD_ROWS = ["record_context", "nbm_context"]
RECORD_FLOOR = 1.2


def validate_figures_payload(payload: dict) -> str:
    """Gate BENCH_ctree.json: every figure carries aligned series, and
    where bench_kernels.py ran, its refine / Ullmann, its Eqn. (7) and
    its record-compiler rows are there and at their speedup floors."""
    figures = payload["figures"]
    _require(bool(figures), "no figures recorded")
    for name, fig in figures.items():
        for key in ("title", "x_name", "x", "series"):
            _require(key in fig, f"{name} missing {key}")
        for series_name, values in fig["series"].items():
            _require(len(values) == len(fig["x"]),
                     f"{name}/{series_name}: series length mismatch")
    if "kernel_microbench" in figures:
        for name, rows, floor in (
                (VERIFY_FIGURE, VERIFY_ROWS,
                 KERNEL_ROW_FLOORS[bool(payload["quick"])]),
                (BOUNDS_FIGURE, BOUNDS_ROWS, BOUNDS_FLOOR),
                (RECORD_FIGURE, RECORD_ROWS, RECORD_FLOOR)):
            _require(name in figures, f"{name} missing")
            _require(figures[name]["x"] == rows,
                     f"{name}: rows {figures[name]['x']}, expected {rows}")
            for row, speedup in zip(rows, figures[name]["series"]["speedup"]):
                _require(speedup >= floor, f"{name}/{row}: speedup "
                                           f"{speedup:.2f}x below {floor}x")
    return f"BENCH_ctree.json OK: {sorted(figures)}"


#: BENCH file name -> (expected schema, gate validator).  One table
#: drives both local full-scale validation and CI's bench-smoke step —
#: the single source of truth for what each telemetry file must prove.
BENCH_VALIDATORS = {
    BENCH_JSON.name: (BENCH_SCHEMA, validate_figures_payload),
}


def validate_bench_file(path, expect_quick: bool | None = None) -> str:
    """Load one ``BENCH_*.json``, check its schema tag and gates.

    Returns the validator's one-line summary (CI prints it).  Pass
    ``expect_quick`` to additionally pin the payload's ``quick`` flag —
    the bench-smoke job passes ``True`` so a stale full-scale file can
    never satisfy the smoke run.
    """
    path = Path(path)
    schema, validator = BENCH_VALIDATORS[path.name]
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    _require(payload.get("schema") == schema,
             f"{path.name}: schema {payload.get('schema')!r}, "
             f"expected {schema!r}")
    if expect_quick is not None:
        _require(payload.get("quick") is expect_quick,
                 f"{path.name}: quick={payload.get('quick')!r}, "
                 f"expected {expect_quick}")
    return validator(payload)


def record_figure(
    name: str,
    title: str,
    x_name: str,
    xs,
    series,
    float_format: str = "{:.3f}",
) -> None:
    """Record one figure both ways: ASCII table + machine-readable dict."""
    record_table(
        name,
        format_series_table(title, x_name, xs, series,
                            float_format=float_format),
        data=series_to_dict(title, x_name, xs, series),
    )


def pytest_sessionfinish(session, exitstatus):
    if not _FIGURES:
        return
    payload = {
        "schema": BENCH_SCHEMA,
        "quick": _QUICK,
        "figures": {name: _FIGURES[name] for name in sorted(_FIGURES)},
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"\n[benchmark telemetry written to {BENCH_JSON}]")


@pytest.fixture(scope="session")
def chem_sweep():
    """The chemical-dataset query sweep behind Figs. 7 and 8."""
    return run_query_sweep(CHEM_SWEEP, dataset="chemical")


@pytest.fixture(scope="session")
def synth_sweep():
    """The synthetic-dataset query sweep behind Fig. 9."""
    return run_query_sweep(SYNTH_SWEEP, dataset="synthetic")


@pytest.fixture(scope="session")
def chem_database():
    from repro.datasets.chemical import generate_chemical_database

    return generate_chemical_database(CHEM_SWEEP.database_size, seed=CHEM_SWEEP.seed)


@pytest.fixture(scope="session")
def chem_tree(chem_database):
    from repro.ctree.bulkload import bulk_load

    return bulk_load(chem_database, min_fanout=CHEM_SWEEP.min_fanout,
                     seed=CHEM_SWEEP.seed)


@pytest.fixture(scope="session")
def chem_graphgrep(chem_database):
    from repro.graphgrep.index import GraphGrepIndex

    return GraphGrepIndex.build(chem_database, lp=CHEM_SWEEP.graphgrep_lp)
