import os

import pytest

from recsolve import dsl

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")

# pytest puts src/ on sys.path (pyproject.toml); the CLI and demo scripts
# that the tests start as child processes need it on PYTHONPATH as well.
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def corpus_paths():
    return sorted(
        os.path.join(CORPUS_DIR, f) for f in os.listdir(CORPUS_DIR) if f.endswith(".rec")
    )


def corpus_files():
    out = {}
    for path in corpus_paths():
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            out[name] = dsl.parse(fh.read())
    return out


def spy(monkeypatch, module, name) -> list:
    """Wrap module.name so that each call appends (args, result) to the
    returned list."""
    calls = []
    inner = getattr(module, name)

    def recorded(*args, **kwargs):
        result = inner(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.fixture(scope="session")
def corpus():
    return corpus_files()


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS_DIR


EQ1 = "def f(x) pre x>=0 { case x=0 -> 0 case x>0 -> f(f(x-1))+1 } entry f"
SUCC = "def f(n) pre n>=0 { case n=0 -> 1 case n>=1 -> f(n-1)+1 } entry f"
FIB = "def f(n) pre n>=0 { case n=0 -> 1 case n=1 -> 1 case n>=2 -> f(n-1)+f(n-2) } entry f"
MAXVAR = "def f(x) pre x>=0 { case x=0 -> 0 case x>0 -> max(f(x-1)+1, f(x-1)+2) } entry f"
MINVAR = "def f(x) pre x>=0 { case x=0 -> 0 case x>0 -> min(f(x-1)+1, f(x-1)+2) } entry f"
NONTERM = "def q(x) pre x>=0 { case x=0 -> 1 case x>0 -> 1+q(x+1) } entry q"
MERGE = (
    "def f(x,y) pre x>=0 and y>=0 {"
    " case x>0 and y>0 -> 1 + max(f(x-1,y), f(x,y-1))"
    " case x=0 or y=0 -> 0 } entry f"
)


@pytest.fixture
def eq1():
    return dsl.parse(EQ1)


@pytest.fixture
def succ():
    return dsl.parse(SUCC)


@pytest.fixture
def fib():
    return dsl.parse(FIB)


@pytest.fixture
def merge():
    return dsl.parse(MERGE)
