"""``src/`` holds what the product runs.

Every top-level function and class, and every public method, under
``src/`` must be referenced as code — a name, an attribute, an imported
name or an exact string constant — somewhere in ``src/``,
``benchmarks/``, ``scripts/`` or ``examples/``.  What does not count as
a reference: the definition itself (a recursive call included), a
package ``__init__``'s re-exports (its imports and ``__all__``), and
docstrings.  Tests are not callers: code only the tests run belongs in
``tests/`` (the references the differential tests hold the kernels to
live in ``tests/oracles/``).  The few names kept without a caller are
:data:`ALLOWLIST`, each with its reason.

Matching is by bare name, so a method counts as called when any
attribute of that name is read anywhere; the check catches what nothing
names at all.  Dunder names are protocol hooks and are not checked.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_CALLERS = ("src", "benchmarks", "scripts", "examples")

#: ``path::qualified name`` -> why it stays with no caller outside the
#: tests.  A reason is what README or the ``repro`` doctest shows a user,
#: or the open ROADMAP item that names it as a contract.
ALLOWLIST = {
    "src/repro/ctree/parallel.py::QueryEngine.refresh":
        "ROADMAP item 3, slice 2 model-checks probe against refresh() "
        "races; docs/SERVING.md documents it for a handle that took writes",
    "src/repro/storage/faultfs.py::FaultInjector.counting":
        "ROADMAP item 3 keeps the full crash sweep (pytest -m crash) green "
        "and unedited; the sweep counts its injection points with it",
}


def _files(root: Path, top: str) -> list[Path]:
    return sorted((root / top).rglob("*.py"))


def definitions(root: Path) -> dict[str, tuple[str, int]]:
    """``path::qualified name`` -> ``(bare name, line)`` of every
    top-level function and class and every public method under
    ``root/src``."""
    found = {}
    for path in _files(root, "src"):
        rel = path.relative_to(root).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__"):
                continue
            found[f"{rel}::{node.name}"] = (node.name, node.lineno)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) \
                            and not member.name.startswith("_"):
                        found[f"{rel}::{node.name}.{member.name}"] = (
                            member.name, member.lineno)
    return found


def _docstrings(tree: ast.AST) -> set[int]:
    """``id`` of every docstring constant in ``tree``."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                ids.add(id(first.value))
    return ids


class _References(ast.NodeVisitor):
    """Collects the names one module refers to as code."""

    def __init__(self, names: set[str], package_init: bool,
                 docstrings: set[int]) -> None:
        self.names = names
        self.package_init = package_init
        self.docstrings = docstrings
        self.enclosing: list[str] = []

    def _add(self, name: str) -> None:
        if name not in self.enclosing:  # a definition naming itself
            self.names.add(name)

    def _scope(self, node) -> None:
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def visit_Name(self, node: ast.Name) -> None:
        self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.package_init:
            for alias in node.names:
                self._add(alias.name)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.package_init and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and id(node) not in self.docstrings \
                and node.value.isidentifier():
            self._add(node.value)


def references(root: Path) -> set[str]:
    """Every name referenced as code under the caller trees of ``root``."""
    names: set[str] = set()
    for top in _CALLERS:
        for path in _files(root, top):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _References(names, path.name == "__init__.py",
                        _docstrings(tree)).visit(tree)
    return names


@lru_cache(maxsize=None)
def orphans(root: Path) -> dict[str, int]:
    """``path::qualified name`` -> line of every definition under
    ``root/src`` that nothing in the caller trees refers to."""
    called = references(root)
    return {key: line for key, (name, line) in definitions(root).items()
            if name not in called}


def check_surface(root: Path) -> None:
    """Fail naming every orphan under ``root/src`` not in the allowlist."""
    unlisted = []
    for key, line in sorted(orphans(root).items()):
        if key not in ALLOWLIST:
            path, name = key.split("::")
            unlisted.append(f"{path}:{line} {name}")
    assert not unlisted, (
        "no code in src/, benchmarks/, scripts/ or examples/ refers to "
        "these; delete them, move them next to the tests that use them, "
        "or allowlist them with a reason:\n  " + "\n  ".join(unlisted))


def test_every_definition_has_a_caller():
    check_surface(_REPO)


def test_allowlist_names_live_orphans():
    """Every allowlisted name exists and still has no caller: an entry
    that gained one, or whose subject is gone, is dropped."""
    found = orphans(_REPO)
    assert sorted(key for key in ALLOWLIST if key not in found) == []
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_a_planted_orphan_fails(tmp_path):
    """The check finds a definition that only a re-export, a docstring,
    its own body and the tests mention — and nothing that a caller
    names as code, by import, attribute or string."""
    def write(rel: str, text: str) -> None:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    write("src/pkg/__init__.py",
          "from pkg.mod import Kept, planted, used\n"
          "__all__ = ['Kept', 'planted', 'used']\n")
    write("src/pkg/mod.py",
          '"""Mentions planted() in prose only."""\n'
          "def used():\n    return 1\n"
          "def planted(n):\n    return planted(n - 1) if n else 0\n"
          "def by_name():\n    return 2\n"
          "class Kept:\n"
          "    def run(self):\n        return used()\n"
          "    def idle(self):\n        return 0\n"
          "    def _private(self):\n        return 0\n")
    write("benchmarks/bench_x.py",
          "from pkg.mod import Kept\n"
          "Kept().run()\n"
          "print(getattr(__import__('pkg.mod'), 'by_name'))\n")
    write("tests/test_x.py",
          "from pkg.mod import planted\n"
          "def test_planted():\n    assert planted(2) == 0\n")
    assert sorted(orphans(tmp_path)) == ["src/pkg/mod.py::Kept.idle",
                                         "src/pkg/mod.py::planted"]
    with pytest.raises(AssertionError, match=r"src/pkg/mod\.py:4 planted"):
        check_surface(tmp_path)
