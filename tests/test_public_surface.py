"""Every name the package exports is read by the package or by the benchmark.

A public name that only tests read belongs in ``tests/reference.py``. Reads
are loads of a name or an attribute in ``src/mekiv`` outside ``__init__.py``
and outside the name's own top-level definition, and in ``perfbench/``. A
read inside the definition of an exported name that is itself unread does not
count, so a chain of test-only helpers is caught whole.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mekiv"


def _reads(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _defined_names(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    }


def _unread(exports: set[str]) -> set[str]:
    """Exported names with no read outside the definitions of unread exports."""
    free = set()  # reads outside any exported name's definition
    inside: list[tuple[set[str], set[str]]] = []  # (names defined, names read)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = _defined_names(stmt) & exports
            if defined:
                inside.append((defined, _reads(stmt) - defined))
            else:
                free |= _reads(stmt)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        free |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    unread: set[str] = set()
    while True:
        read = free.union(*(names for defined, names in inside if not defined <= unread))
        now = exports - read
        if now == unread:
            return unread
        unread = now


def test_every_export_is_read_outside_the_tests():
    exports = _exports()
    assert len(exports) > 40
    assert _unread(exports) == set()
