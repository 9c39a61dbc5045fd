#!/usr/bin/env python
"""Docstring lint for the documented serving + storage surface.

A dependency-free, ``pydocstyle``-style checker (AST-based, stdlib only)
that fails when any *public* module, class, function, or method in the
audited paths lacks a docstring, or when a docstring has an empty
summary line.  CI runs it (plus ``ruff``'s pydocstyle ``D1`` rules,
which this mirrors) over :data:`DEFAULT_PATHS` — the one list of the
audited serving and storage surface, which the CI ruff step reads too —
so the API references in ``docs/SERVING.md`` and ``docs/DURABILITY.md``
cannot silently rot; ``tests/test_docstrings.py`` enforces the same
contract inside tier-1.

Usage::

    python scripts/lint_docstrings.py [path ...]

With no arguments, lints the default serving surface.  Exits non-zero
listing every violation as ``path:line: message``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documented serving surface (see ISSUE/PR 6) — the whole HTTP
#: layer, the batched engine, the Prometheus exporter — plus the
#: durable-storage/insert surface (PR 8): page file, WAL, buffer pool,
#: record store, the disk index, the node stores under the one C-tree,
#: the insert/split policies, the saved-index kinds, the size
#: accounting the benchmarks read, and the label space whose
#: ``LabelSummary`` the screens, the bounds and ``fsck`` read.
DEFAULT_PATHS = (
    "src/repro/server",
    "src/repro/ctree/parallel.py",
    "src/repro/obs/prometheus.py",
    "src/repro/storage",
    "src/repro/ctree/diskindex.py",
    "src/repro/ctree/policies.py",
    "src/repro/ctree/store.py",
    "src/repro/ctree/shards.py",
    "src/repro/ctree/shardcache.py",
    "src/repro/ctree/saved.py",
    "src/repro/ctree/persistence.py",
    "src/repro/graphs/labelspace.py",
)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _check_docstring(node, kind: str, name: str,
                     violations: list[tuple[int, str]]) -> None:
    doc = ast.get_docstring(node, clean=False)
    lineno = getattr(node, "lineno", 1)
    if doc is None:
        violations.append(
            (lineno, f"missing docstring on public {kind} {name!r}")
        )
        return
    first_line = doc.strip().splitlines()[0] if doc.strip() else ""
    if not first_line:
        violations.append(
            (lineno, f"empty docstring summary on {kind} {name!r}")
        )


def lint_file(path: Path) -> list[tuple[int, str]]:
    """All docstring violations in one file, as ``(line, message)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    violations: list[tuple[int, str]] = []
    _check_docstring(tree, "module", path.name, violations)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if not _is_public(node.name):
                continue
            _check_docstring(node, "class", node.name, violations)
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                        and _is_public(item.name)):
                    _check_docstring(
                        item, "method", f"{node.name}.{item.name}",
                        violations,
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Only module-level functions here; methods are handled via
            # their class so nested helpers stay exempt.
            if _is_public(node.name) and node.col_offset == 0:
                _check_docstring(node, "function", node.name, violations)
    return violations


def lint_paths(paths) -> list[str]:
    """Lint files/directories; returns formatted violation lines."""
    out: list[str] = []
    for spec in paths:
        root = Path(spec)
        if not root.is_absolute():
            root = REPO_ROOT / root
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            for lineno, message in lint_file(file):
                rel = file.relative_to(REPO_ROOT) \
                    if file.is_relative_to(REPO_ROOT) else file
                out.append(f"{rel}:{lineno}: {message}")
    return out


def main(argv=None) -> int:
    """CLI entry point: lint the given (or default) paths."""
    args = (argv if argv is not None else sys.argv[1:]) or DEFAULT_PATHS
    violations = lint_paths(args)
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} docstring violation(s)", file=sys.stderr)
        return 1
    print("docstring lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
