"""Doc-as-test: the docs cite only tests and result files that exist.

README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` point readers at
test files (``test_engine.py``), test ids (``test_engine.py::TestProbe``)
and committed benchmark output (``benchmarks/results/fig7a_candidates.txt``).
Each citation is resolved here: a test file against ``tests/`` (or the
directory the citation names), a test id against that file's AST —
module-level names, then names in a class body or its in-module bases —
and a results path, wildcards included, against the files.  A spine
metric cited as ``<workload>.<metric>`` (``served_disk_zipf.knn_p50_ms``)
is resolved against ``BENCHMARK.json``'s workloads and end-to-end
metric names.  A rename that leaves a doc behind fails this test.
"""

from __future__ import annotations

import ast
import json
import re
from functools import lru_cache
from pathlib import Path

_REPO = Path(__file__).parent.parent
_DOCS = [_REPO / "README.md", _REPO / "DESIGN.md", _REPO / "EXPERIMENTS.md",
         *sorted((_REPO / "docs").glob("*.md"))]

_TEST_ID = re.compile(r"((?:[\w.-]+/)*)(test_\w+\.py)((?:::\w+)*)")
_RESULTS = re.compile(r"(?<![\w/])(?:benchmarks/)?results/[\w.*-]*[\w*]")
#: every ``word.word`` pair, overlapping ones included
_DOTTED = re.compile(r"\b(?=(\w+)\.(\w+)\b)")

_SPEC = json.loads((_REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
_WORKLOADS = {workload["name"] for workload in _SPEC["workloads"]}
_END_TO_END = {metric["name"] for metric in _SPEC["end_to_end"]}


@lru_cache(maxsize=None)
def _module_names(path: Path) -> dict:
    """Top-level name -> its AST node (a class, a function or an
    assignment target) of one test file."""
    names = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
    return names


def _member(module: dict, cls: ast.ClassDef, name: str):
    """``name`` defined in ``cls``'s body or in a base class defined in
    the same module, or ``None``."""
    for node in cls.body:
        if getattr(node, "name", None) == name:
            return node
    for base in cls.bases:
        parent = module.get(getattr(base, "id", None))
        if isinstance(parent, ast.ClassDef):
            found = _member(module, parent, name)
            if found is not None:
                return found
    return None


def _resolve_test_id(prefix: str, filename: str, chain: str):
    """``None`` if the cited file (and ``::``-chain) exists, else why
    not."""
    path = _REPO / (prefix or "tests/") / filename
    if not path.is_file():
        return f"no file {path.relative_to(_REPO)}"
    names = [n for n in chain.split("::") if n]
    if not names:
        return None
    module = _module_names(path)
    node = module.get(names[0])
    for name in names[1:]:
        node = (_member(module, node, name)
                if isinstance(node, ast.ClassDef) else None)
    if node is None:
        return f"names nothing in {filename}"
    return None


def stale_citations(text: str) -> tuple[int, list[str]]:
    """``(citations, problems)`` for one document's text."""
    problems = []
    count = 0
    for match in _TEST_ID.finditer(text):
        count += 1
        problem = _resolve_test_id(*match.groups())
        if problem:
            problems.append(f"{match.group(0)}: {problem}")
    for match in _RESULTS.finditer(text):
        count += 1
        cited = match.group(0)
        relative = cited if cited.startswith("benchmarks/") \
            else f"benchmarks/{cited}"
        if not any(_REPO.glob(relative)):
            problems.append(f"{cited}: no such file")
    return count, problems


def stale_metric_citations(text: str) -> tuple[int, list[str]]:
    """``(citations, problems)`` for one document's spine metrics: a
    dotted pair whose first half is a workload or whose second half is
    an end-to-end metric must be both."""
    problems = []
    count = 0
    for match in _DOTTED.finditer(text):
        workload, metric = match.groups()
        if workload not in _WORKLOADS and metric not in _END_TO_END:
            continue
        count += 1
        if workload not in _WORKLOADS:
            problems.append(f"{workload}.{metric}: no workload {workload}")
        elif metric not in _END_TO_END:
            problems.append(f"{workload}.{metric}: no end-to-end metric "
                            f"{metric}")
    return count, problems


def test_every_cited_test_and_result_exists():
    total = 0
    problems = []
    for doc in _DOCS:
        count, found = stale_citations(doc.read_text(encoding="utf-8"))
        total += count
        problems += [f"{doc.name}: {p}" for p in found]
    assert not problems, "\n".join(problems)
    # A regex that stopped matching would pass vacuously.
    assert total >= 90, total


def test_planted_bad_citations_are_reported():
    text = (
        "See `tests/test_engine.py::TestProbe::test_probe_races_batches"
        "_and_refresh`, `test_engine.py::test_documented_metric_names`,"
        " `test_engine.py::TestNoSuchClass`, "
        "`test_engine.py::TestProbe::test_no_such_case`, "
        "`test_no_such_file.py` and `benchmarks/results/no_such.txt`, "
        "beside `results/fig7a_candidates.txt` and `benchmarks/results/*.txt`."
    )
    count, problems = stale_citations(text)
    assert count == 8
    assert [p.split(":")[0] for p in problems] == [
        "test_engine.py", "test_engine.py", "test_no_such_file.py",
        "benchmarks/results/no_such.txt",
    ]
    assert "TestNoSuchClass" in problems[0]
    assert "test_no_such_case" in problems[1]


def test_every_cited_spine_metric_exists():
    total = 0
    problems = []
    for doc in _DOCS:
        count, found = stale_metric_citations(doc.read_text(encoding="utf-8"))
        total += count
        problems += [f"{doc.name}: {p}" for p in found]
    assert not problems, "\n".join(problems)
    assert total >= 16, total


def test_planted_bad_metric_names_are_reported():
    text = (
        "`served_disk_zipf.knn_p50_ms` fell; `served_disk_zipf.knn_p99_ms`"
        " and `disk_cold_unique.subgraph_p50ms` are not metrics, "
        "`mem_uniqe.setup_s` is no workload, and `storage.pool_hit_ratio`"
        " or `test_engine.py` are not spine citations."
    )
    count, problems = stale_metric_citations(text)
    assert count == 4
    assert [p.split(":")[0] for p in problems] == [
        "served_disk_zipf.knn_p99_ms", "disk_cold_unique.subgraph_p50ms",
        "mem_uniqe.setup_s",
    ]
