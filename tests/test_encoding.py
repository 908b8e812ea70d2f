"""Every text file the package reads may start with a UTF-8 byte-order mark,
and every file it writes is plain UTF-8.

Excel and Notepad write the mark.  ``utf-8-sig`` skips it when reading and
reads a file without one as ``utf-8`` does, so every ``read_text`` call, and
every ``open`` call without a write mode, passes ``encoding="utf-8-sig"``.
Every ``write_text`` call, and every ``open`` call in a write mode, passes
``encoding="utf-8"``, which writes no mark.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "causet").glob("*.py"))
EXPECTED = {"read": "utf-8-sig", "write": "utf-8"}


def text_file_calls(tree):
    """(line, "read" or "write", encoding literal or None) of each text-file call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {k.arg: k.value for k in node.keywords}
        if name in ("read_text", "write_text"):
            kind = name.removesuffix("_text")
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            assert mode is None or isinstance(mode, ast.Constant), f"line {node.lineno}"
            kind = "write" if mode is not None and set(mode.value) & set("wax+") else "read"
        else:
            continue
        encoding = keywords.get("encoding")
        yield node.lineno, kind, encoding.value if isinstance(encoding, ast.Constant) else None


def calls_in(path):
    return list(text_file_calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))


def test_calls_found():
    kinds = [kind for path in SOURCES for _, kind, _ in calls_in(path)]
    assert kinds.count("read") >= 4 and kinds.count("write") >= 4


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_reads_skip_the_mark_and_writes_add_none(path):
    wrong = [call for call in calls_in(path) if call[2] != EXPECTED[call[1]]]
    assert wrong == []
