"""Doc-as-test: ``docs/SERVING.md`` must match the server it documents.

- The worked curl session must run.  A real server is booted over the
  golden chemical dataset (disk index, built exactly as the doc's setup
  commands describe: ``min-fanout 3``), and every ``bash`` block under
  "## Worked curl session" is executed verbatim via
  ``scripts/doc_session.py`` — the same script the CI ``serve-smoke``
  job runs against a ``repro serve`` process.
- The ``repro serve`` flag table must list exactly the parser's options,
  each with the default the server really uses.
- The ``POST /query`` and ``POST /knn`` field tables must list exactly
  the request keys each handler accepts.

If the documentation and the server disagree, this fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.ctree.bulkload import bulk_load
from repro.ctree.diskindex import DEFAULT_CACHE_PAGES, DiskCTree
from repro.graphs.io import load_graph_database
from repro.server import QueryServer, ServerConfig
from repro.server.app import _KNN_KEYS, _QUERY_KEYS

_REPO = Path(__file__).parent.parent
_DATA = Path(__file__).parent / "data"

_NEEDS_SHELL = pytest.mark.skipif(
    shutil.which("curl") is None or shutil.which("bash") is None,
    reason="the documented session needs curl and bash",
)


@_NEEDS_SHELL
def test_worked_curl_session_runs_verbatim(tmp_path):
    db = load_graph_database(_DATA / "golden_chem.jsonl")
    tree = bulk_load(db, min_fanout=3)
    path = tmp_path / "serving-demo.ctp"
    disk = DiskCTree.create(tree, path)
    try:
        srv = QueryServer(disk, ServerConfig(port=0))
        with srv.run_in_thread() as handle:
            env = dict(os.environ, REPRO_PORT=str(handle.port))
            result = subprocess.run(
                [sys.executable, str(_REPO / "scripts" / "doc_session.py")],
                env=env, cwd=_REPO, capture_output=True, text=True,
                timeout=120,
            )
            assert result.returncode == 0, (
                f"documented session failed:\n--- stdout ---\n"
                f"{result.stdout}\n--- stderr ---\n{result.stderr}"
            )
            assert "session passed" in result.stdout
    finally:
        disk.close()


@_NEEDS_SHELL
def test_extractor_finds_the_session():
    sys.path.insert(0, str(_REPO / "scripts"))
    from doc_session import DOC, extract_session

    session = extract_session(DOC.read_text(encoding="utf-8"))
    # The doc promises these interactions; the extractor must see them.
    assert "/healthz" in session
    assert "/query" in session
    assert "/knn" in session
    assert "/metrics" in session
    assert 'test "$code" = "400"' in session
    assert "REPRO_PORT" in session


# ----------------------------------------------------------------------
# The `repro serve` flag table
# ----------------------------------------------------------------------
_DOC = _REPO / "docs" / "SERVING.md"


def _flag_rows(text: str) -> list[tuple[list[str], str]]:
    """``(flags, default)`` of each row of the ``| flag | default |
    meaning |`` table under "## Starting a server"."""
    section = text.split("## Starting a server", 1)[1]
    lines = section.split("| flag | default | meaning |", 1)[1].splitlines()
    rows = []
    for line in lines[2:]:  # past the header's own line end and `|---|`
        if not line.startswith("|"):
            break
        flag, default = (cell.strip().strip("`")
                         for cell in line.split("|")[1:3])
        rows.append((flag.split("/"), default))
    return rows


def _serve_actions() -> list[argparse.Action]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices["serve"]._actions
            if a.option_strings and a.dest != "help"]


def _table_problems(text: str) -> list[str]:
    """How the flag table in ``text`` differs from the parser."""
    actions = _serve_actions()
    config = ServerConfig()
    problems, seen = [], []
    for flags, default in _flag_rows(text):
        action = next((a for a in actions if flags[0] in a.option_strings),
                      None)
        if action is None or not set(flags) <= set(action.option_strings):
            problems.append(f"{'/'.join(flags)}: not a `repro serve` option")
            continue
        seen.append(action)
        if action.required:
            real = "required"
        elif action.dest == "cache_pages":
            real = str(DEFAULT_CACHE_PAGES)
        else:
            value = getattr(config, action.dest)
            real = "off" if value is None else str(value)
        if default != real:
            problems.append(f"{'/'.join(flags)}: the table says {default}, "
                            f"the server uses {real}")
    for action in actions:
        if seen.count(action) != 1:
            problems.append(f"{action.option_strings[0]}: listed "
                            f"{seen.count(action)} times")
    return problems


def test_serve_flag_table_matches_parser():
    assert _table_problems(_DOC.read_text(encoding="utf-8")) == []


def test_serve_flag_table_check_fails_on_a_planted_row():
    text = _DOC.read_text(encoding="utf-8")
    row = "| `--host` | `127.0.0.1` |"
    assert row in text
    planted = text.replace(
        row, "| `--max-batch` | `64` | a removed flag |\n" + row, 1)
    assert _table_problems(planted) == [
        "--max-batch: not a `repro serve` option"]


# ----------------------------------------------------------------------
# The request field tables
# ----------------------------------------------------------------------
_ACCEPTED_KEYS = {"/query": _QUERY_KEYS, "/knn": _KNN_KEYS}


def _field_rows(text: str, path: str) -> list[str]:
    """The field named by each row of the ``| field | type | default |
    meaning |`` table under the "### `POST <path>`" heading."""
    section = text.split(f"### `POST {path}`", 1)[1].split("\n#", 1)[0]
    lines = section.split("| field | type | default | meaning |",
                          1)[1].splitlines()
    rows = []
    for line in lines[2:]:  # past the header's own line end and `|---|`
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    return rows


def _field_problems(text: str) -> list[str]:
    """How the field tables in ``text`` differ from the handlers."""
    problems = []
    for path, keys in _ACCEPTED_KEYS.items():
        rows = _field_rows(text, path)
        for key in sorted(set(rows) - keys):
            problems.append(f"POST {path}: {key} is not an accepted key")
        for key in sorted(keys - set(rows)):
            problems.append(f"POST {path}: {key} is not documented")
        for key in sorted({row for row in rows if rows.count(row) > 1}):
            problems.append(f"POST {path}: {key} listed "
                            f"{rows.count(key)} times")
    return problems


def test_request_field_tables_match_handlers():
    assert _field_problems(_DOC.read_text(encoding="utf-8")) == []


def test_request_field_table_check_fails_on_a_planted_row():
    text = _DOC.read_text(encoding="utf-8")
    row = "| `k` | int ≥ 1 | required | neighbors to return |"
    assert row in text
    planted = text.replace(
        row, row + "\n| `mapping_method` | string | `\"nbm\"` | a removed "
        "key |", 1)
    assert _field_problems(planted) == [
        "POST /knn: mapping_method is not an accepted key"]
