"""No module under src/ keeps a module-level import it never uses.  Package
__init__ files are exempt (their imports are re-exports), and so are
__future__ imports (compiler directives, not names) and the explicit
re-export form `from m import X as X`."""

import ast
import os

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _modules():
    out = []
    for root, _, files in os.walk(SRC):
        out += [os.path.join(root, f) for f in files if f.endswith(".py") and f != "__init__.py"]
    return sorted(out)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that no name
    expression of the module reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.asname != a.name]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_finds_unused_imports():
    src = (
        "from __future__ import annotations\nimport os, sys\nimport a.b\n"
        "from x import y as z, w, V as V\nsys.exit(w)\n"
    )
    assert unused_imports(src) == ["os", "a", "z"]


@pytest.mark.parametrize("path", _modules(), ids=lambda p: os.path.relpath(p, SRC))
def test_no_unused_module_level_import(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []
