"""The runtime dependency stays numpy only, and the public names resolve.

Every import in the package is relative, numpy, or from the standard
library, so a new third-party import turns this test red.  Every name in
``causet.__all__`` must exist and be listed once, so an export left behind
by a removed function turns it red too.  No source holds a ``global`` or
``nonlocal`` statement, so state kept from one run to the next cannot hide
in module scope or in a closure.  Only ``frame.py`` imports ``csv``, and
no source calls ``csv.writer`` or ``DictWriter``, so one module knows the
CSV format and every file causet writes goes through its one writer.
A dataclass with an ``np.ndarray`` field sets ``eq=False`` or defines its
own ``__eq__``, since the generated one compares arrays and raises.  No
module-level function or method is decorated with ``functools.cache`` or
``lru_cache``: such a memo keeps its arguments, frames included, alive from
one run to the next in the same process.  A memo made inside a function
dies with its call and stays allowed.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "causet").glob("*.py"))


def imported_modules(tree):
    """Top-level names of the absolute imports in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_numpy_or_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {"numpy", *sys.stdlib_module_names}
    assert sorted(set(imported_modules(tree)) - allowed) == []


def test_public_names_resolve_once():
    import causet

    assert len(causet.__all__) == len(set(causet.__all__))
    missing = [name for name in causet.__all__ if not hasattr(causet, name)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_global_or_nonlocal_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Global, ast.Nonlocal))]
    assert lines == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_frame_knows_the_csv_format(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    if path.name != "frame.py":
        assert "csv" not in set(imported_modules(tree))
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    assert names & {"writer", "DictWriter"} == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_array_dataclasses_define_equality(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = [
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        and any(ast.unparse(d).startswith("dataclass") and "eq=False" not in ast.unparse(d)
                for d in node.decorator_list)
        and any(isinstance(s, ast.AnnAssign) and "np.ndarray" in ast.unparse(s.annotation)
                for s in node.body)
        and "__eq__" not in {s.name for s in node.body if isinstance(s, ast.FunctionDef)}
    ]
    assert offenders == []


def memoized_functions(tree):
    """Names of the module-level functions and methods in ``tree`` decorated
    with ``cache`` or ``lru_cache`` (bare, called or as a ``functools`` attribute)."""
    defs = [*tree.body, *(s for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for s in c.body)]
    for node in defs:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    yield node.name


@pytest.mark.parametrize("source, expected", [
    ("@functools.cache\ndef f(x): pass", ["f"]),
    ("@lru_cache(maxsize=None)\ndef f(x): pass", ["f"]),
    ("class A:\n    @functools.lru_cache\n    def m(self): pass", ["m"]),
    ("def f():\n    g = functools.cache(lambda: 1)\n"
     "    @functools.cache\n    def h(): pass\n    return g, h", []),
])
def test_memo_finder(source, expected):
    assert list(memoized_functions(ast.parse(source))) == expected


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_memo_outlives_a_run(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(memoized_functions(tree)) == []
