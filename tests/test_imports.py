"""The runtime dependency stays numpy only.

Every import in the package is relative, numpy, or from the standard
library, so a new third-party import turns this test red.
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
