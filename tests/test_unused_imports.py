"""Repository hygiene: no module in src/ or tests/ imports a name it never reads.

No linter ships with the toolchain, so this is a small AST scan. A name
counts as used if it appears anywhere in the module as a name (an attribute
chain `a.b.c` reads `a`). `__init__.py` files are skipped, because their
imports are the package's re-exports, and so is `from __future__ import`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


def test_scan_finds_only_unread_names():
    source = "import os.path\nimport json\nfrom a import b, c as d\nos.path.join(d)\n"
    assert unused_imports(source) == ["b", "json"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    modules = sorted(
        path
        for folder in ("src", "tests")
        for path in (ROOT / folder).rglob("*.py")
        if path.name != "__init__.py"
    )
    found = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
