"""No module imports a name it never uses.

Every name an ``import`` binds in a module under ``src/``, ``tests/``,
``benchmarks/``, ``scripts/`` or ``examples/`` must be read somewhere in
that module: as a name (the ``a`` of ``import a.b`` included), inside a
string annotation, or through the module's ``__all__``.  A package
``__init__``'s imports are its re-exports and are not checked.  The
check is by name over the whole module, so an import inside a function
counts as used when any code of the module reads that name.
"""

from __future__ import annotations

import ast
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_TREES = ("src", "tests", "benchmarks", "scripts", "examples")


def _bound(alias: ast.alias) -> str:
    """The name an import alias binds."""
    return alias.asname or alias.name.split(".")[0]


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                names.update(c.value for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant)
                             and isinstance(c.value, str))
    return names


def _annotation_names(node: ast.AST) -> set[str]:
    """The names a string annotation (``-> "Graph"``) refers to."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names.update(_read(ast.parse(sub.value, mode="eval")))
            except SyntaxError:
                pass
    return names


def _read(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, string annotations included."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name ``source`` never reads."""
    tree = ast.parse(source)
    used = _read(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            unused += [(node.lineno, _bound(alias)) for alias in node.names
                       if alias.name != "*" and _bound(alias) not in used]
    return sorted(unused)


def scan(root: Path) -> list[str]:
    """``path:line name`` of every unused import under the trees of
    ``root``."""
    found = []
    for top in _TREES:
        for path in sorted((root / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            rel = path.relative_to(root).as_posix()
            found += [f"{rel}:{line} {name}" for line, name in
                      unused_imports(path.read_text(encoding="utf-8"))]
    return found


def test_no_unused_imports():
    found = scan(_REPO)
    assert not found, "imported and never used:\n  " + "\n  ".join(found)


def test_a_planted_unused_import_fails(tmp_path):
    """The check finds an import nothing reads, and passes the ways a
    module does read one: a name, a dotted import's head, a string
    annotation, ``__all__``; a package ``__init__`` is not checked."""
    def write(rel: str, text: str) -> None:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    write("src/pkg/__init__.py", "from pkg.mod import helper\n")
    write("src/pkg/mod.py",
          "from __future__ import annotations\n"
          "import os.path\n"
          "import json as planted\n"
          "from typing import Optional\n"
          "from collections import OrderedDict, deque\n"
          "__all__ = ['deque']\n"
          "def helper(x: 'Optional[int]') -> str:\n"
          "    import sys\n"
          "    return os.path.join(str(x), sys.prefix)\n"
          "TABLE = OrderedDict()\n")
    write("tests/test_x.py", "import pytest\n")
    assert scan(tmp_path) == ["src/pkg/mod.py:3 planted",
                              "tests/test_x.py:1 pytest"]
