"""Imports under src/.  No module keeps a module-level import it never
uses, at top level or under `if TYPE_CHECKING:` (a name read only in an
annotation counts as used): package __init__ files are exempt (their
imports are re-exports), and so are __future__ imports (compiler
directives, not names) and the explicit re-export form `from m import X as
X`.  Every third-party module that src/ imports is a declared dependency
in pyproject.toml.  numpy, multiprocessing and the process pool load only
where they are called: a fresh interpreter that imports the package and
runs `check` loads none of them, and neither does `import
recsolve.symbolic`, which starts no thread.  `import recsolve,
recsolve.cli` loads no other recsolve module, and `check` loads none of
the fitting modules.
Neither a lasso solve nor `evolve` loads any scipy module."""

import ast
import os
import re
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
NESTED = os.path.join(os.path.dirname(SRC), "corpus", "nested.rec")
MERGE = os.path.join(os.path.dirname(SRC), "corpus", "merge.rec")


def _modules():
    out = []
    for root, _, files in os.walk(SRC):
        out += [os.path.join(root, f) for f in files if f.endswith(".py") and f != "__init__.py"]
    return sorted(out)


def _type_checking(node: ast.stmt) -> bool:
    """Whether `node` is `if TYPE_CHECKING:` or `if typing.TYPE_CHECKING:`."""
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "TYPE_CHECKING", "typing.TYPE_CHECKING"
    )


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source`, and by those
    under a module-level `if TYPE_CHECKING:`, that no name expression of the
    module reads (annotations included), in import order."""
    tree = ast.parse(source)
    stmts = []
    for node in tree.body:
        stmts += node.body if _type_checking(node) else [node]
    bound = []
    for node in stmts:
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
    src = (
        "from typing import TYPE_CHECKING\nimport typing\n"
        "if TYPE_CHECKING:\n    import numpy as np\n    from m import Unused\n"
        "if typing.TYPE_CHECKING:\n    import os\n"
        "if x:\n    import sys\n"
        "def f(a: np.ndarray) -> None: pass\n"
    )
    assert unused_imports(src) == ["Unused", "os"]


@pytest.mark.parametrize("path", _modules(), ids=lambda p: os.path.relpath(p, SRC))
def test_no_unused_module_level_import(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in `source`,
    function bodies included, that are neither stdlib nor this project."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"recsolve", "recsolve_lia"}


def test_scan_finds_third_party_imports():
    src = (
        "import os, numpy as np\nfrom . import model\nfrom recsolve.dsl import x\n"
        "def f():\n    from scipy.linalg import cho_solve\n    import recsolve_lia\n"
    )
    assert third_party_imports(src) == {"numpy", "scipy"}


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", d).group().lower().replace("-", "_") for d in deps}
    imported = set()
    for path in _modules() + [os.path.join(SRC, "recsolve", "__init__.py")]:
        with open(path) as fh:
            imported |= third_party_imports(fh.read())
    assert imported <= declared, imported - declared


def _fresh(code: str) -> str:
    """Run `code` in a new interpreter with src/ on its path; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_check_load_no_numpy_scipy_or_process_pool():
    out = _fresh(f"""
        import sys
        import recsolve, recsolve.cli
        print("IMPORTED", sorted(m for m in sys.modules if m.startswith("recsolve")))
        code = recsolve.cli.main(["check", {NESTED!r}, "--candidate", "x"])
        unwanted = ("numpy", "scipy", "multiprocessing", "concurrent.futures.process")
        unwanted += tuple("recsolve." + m for m in ("harness", "linear", "sampler", "symbolic", "report"))
        loaded = [m for m in unwanted if m in sys.modules]
        print("RESULT", code, loaded)
    """)
    assert "IMPORTED ['recsolve', 'recsolve.cli']" in out
    assert "RESULT 0 []" in out


def test_symbolic_import_loads_no_numpy_and_starts_nothing():
    """The search builds its leaf table and loads numpy when it runs, not
    when its module is imported."""
    out = _fresh("""
        import sys, threading
        from recsolve import symbolic
        loaded = [m for m in ("numpy", "multiprocessing", "concurrent.futures") if m in sys.modules]
        print("RESULT", loaded, threading.active_count(), symbolic._numeric)
    """)
    assert "RESULT [] 1 None" in out


def test_lazy_exports_resolve_and_the_readme_library_snippet_proves_merge():
    """Every exported name loads from its submodule on first access, any
    other name is an AttributeError, and README's "Library" snippet runs."""
    out = _fresh(f"""
        import recsolve
        missing = [n for n in recsolve._SOURCE if getattr(recsolve, n, None) is None]
        try:
            recsolve.no_such_name
            print("NO ERROR")
        except AttributeError:
            pass
        print("MISSING", missing, len(recsolve._SOURCE))

        from recsolve import dsl, guess_linear, verify

        bf = dsl.load({MERGE!r})
        out = guess_linear(bf.system, domsplit=True)
        print(verify(bf.system, out.candidate))
    """)
    assert "NO ERROR" not in out
    assert "MISSING [] 67" in out
    assert out.rstrip().endswith("Proved()")


def test_lasso_solve_loads_no_scipy():
    out = _fresh(f"""
        import sys
        import recsolve.cli
        code = recsolve.cli.main(["solve", {NESTED!r}, "--verify"])
        print("RESULT", code, [m for m in sys.modules if m.startswith("scipy")])
    """)
    assert "RESULT 0 []" in out


def test_evolve_loads_no_scipy_and_still_forks():
    out = _fresh("""
        import sys
        from recsolve import symbolic
        seen, run_blocks = [], symbolic._run_blocks

        def recorded(n, run):
            seen.append(n)
            return run_blocks(n, run)

        symbolic._run_blocks = recorded
        symbolic.available_cpus = lambda: 2
        cfg = symbolic.GPConfig(populations=5, population_size=8, iterations=5)
        symbolic.evolve([(i,) for i in range(8)], [2.0 * i + 1 for i in range(8)], ("x",), cfg=cfg)
        print("RESULT", seen, [m for m in sys.modules if m.startswith("scipy")])
    """)
    # two blocks per CPU
    assert "RESULT [4] []" in out
