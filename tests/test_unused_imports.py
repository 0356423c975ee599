"""Repository hygiene: no module in src/ or tests/ imports a name it never
reads, and nothing src/vbplab defines at module level goes unread.

No linter ships with the toolchain, so these are small AST scans. An import
counts as used if it appears anywhere in the module as a name (an attribute
chain `a.b.c` reads `a`). `__init__.py` files are skipped, because their
imports are the package's re-exports, and so is `from __future__ import`.
A module-level function, class or assigned name of src/vbplab counts as
read if any module of src/, tests/ or perfbench/ loads it as a name, reads
it as an attribute or imports it from a module, so a re-export from
`__init__.py` is a read; dunder names are skipped.
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


def defined_names(source: str) -> list[str]:
    """The module-level functions, classes and assigned names, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def read_names(source: str) -> set[str]:
    """Names the module loads, reads as attributes or imports from a module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_definition_scan_finds_only_unread_names():
    source = "A = 1\nB: int = 2\n__all__ = []\ndef f(): return A\nclass C: pass\nx.C\n"
    assert defined_names(source) == ["A", "B", "f", "C"]
    assert read_names(source) >= {"A", "C"} and read_names("from m import f\n") == {"f"}
    assert set(defined_names(source)) - read_names(source) == {"B", "f"}


def test_every_module_level_name_in_src_is_read():
    sources = {
        path: path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    read = set().union(*map(read_names, sources.values()))
    unread = {
        str(path.relative_to(ROOT)): names
        for path, source in sources.items()
        if path.is_relative_to(ROOT / "src" / "vbplab")
        and (names := sorted(set(defined_names(source)) - read))
    }
    assert unread == {}
