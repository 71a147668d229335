"""No unused imports in src/ or tests/, no dead helpers in src/, and no
group elements stored on carriers.

Stdlib-only scans.  Every name an import statement binds must be read
somewhere else in the same file, or be re-exported through ``__all__``;
``from __future__`` imports are exempt.  Every ``_``-prefixed function or
class defined in src/ (dunders aside) must be referenced, by name or as an
attribute, somewhere in src/ outside its own definition.  No module in src/
names ``payloads`` or an element-level query (``bruhat_leq``,
``left_descents``, ``right_descents``, ``is_twisted_involution``): carriers
hold keys, src/ answers those questions on keys and carriers, and elements
are built from keys only at the boundary.  qpsets names no group table
(``_ensure_table``, ``_table``, ``_GroupTable``): carriers are searched on
the roots, and W is enumerated only for surveys and conjugacy classes.
No module in src/ calls ``json.dumps`` with ``indent``: every indented
document goes through jsonout.dump, which streams it.  Only qpsets names the
carrier kind ``"double-cover"``: the even double cover is a carrier of
W x A1, so every other module reads it as any other carrier.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src").rglob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))
BOUNDARY_ONLY = ("payloads", "bruhat_leq", "left_descents", "right_descents", "is_twisted_involution")


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in source that nothing else reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


def _references(node) -> Counter:
    """How often each name is read, as a bare name or an attribute, under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def dead_helpers(sources: list[str]) -> list[str]:
    """The _-prefixed functions and classes defined in sources that nothing
    in sources references outside their own definition."""
    trees = [ast.parse(source) for source in sources]
    refs = sum(map(_references, trees), Counter())
    return sorted(
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and refs[node.name] == _references(node)[node.name]
    )


def test_scan_finds_unused_names():
    assert unused_imports("import os, sys\nfrom a.b import c as d\nprint(sys)") == ["d", "os"]
    assert unused_imports("import os.path\nos.getcwd()") == []
    assert unused_imports("from x import y\n__all__ = ['y']") == []
    assert unused_imports("from __future__ import annotations") == []


def test_scan_finds_dead_helpers():
    a = "def _f(): pass\ndef _g(n): return _g(n - 1)\nclass _C:\n    def _m(self): pass\n    def __init__(self): self._m()\n"
    assert dead_helpers([a]) == ["_C", "_f", "_g"]
    assert dead_helpers([a, "from a import _C, _f\n_C(_f)"]) == ["_g"]


def test_scan_finds_payload_reads():
    assert _references(ast.parse("X.payloads[0].x"))["payloads"] == 1
    assert _references(ast.parse("X.keys[0]"))["payloads"] == 0
    assert _references(ast.parse("if p.is_twisted_involution(): bruhat_leq(x, y)"))["bruhat_leq"] == 1
    assert _references(ast.parse("K.is_twisted_involution_class"))["is_twisted_involution"] == 0


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_src_reads_no_payloads(path):
    refs = _references(ast.parse(path.read_text()))
    assert [name for name in BOUNDARY_ONLY if refs[name]] == []


def test_qpsets_names_no_group_table():
    refs = _references(ast.parse((ROOT / "src" / "qpcox" / "qpsets.py").read_text()))
    assert [name for name in ("_ensure_table", "_table", "_GroupTable") if refs[name]] == []


def string_constants(source: str) -> set[str]:
    """The string literals in source, docstrings included."""
    return {n.value for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_scan_finds_string_constants():
    assert "double-cover" in string_constants('if X.kind == "double-cover": pass')
    assert "double-cover" not in string_constants("# double-cover\nx = 'double cover'")


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_qpsets_names_the_double_cover(path):
    # the cover is a carrier of W x A1, so no reader special-cases it
    assert path.name == "qpsets.py" or "double-cover" not in string_constants(path.read_text())


def indented_dumps(source: str) -> list[int]:
    """The lines of source that call a function named dumps with an indent."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)) == "dumps"
        and any(k.arg == "indent" for k in node.keywords)
    ]


def test_scan_finds_indented_dumps():
    assert indented_dumps("import json\njson.dumps(x, sort_keys=True)\njson.dumps(x, indent=2)") == [3]
    assert indented_dumps("from json import dumps\ndumps(x, indent=None)") == [2]


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_src_dumps_nothing_indented(path):
    assert indented_dumps(path.read_text()) == []


def test_no_dead_helpers_in_src():
    assert dead_helpers([path.read_text() for path in SRC]) == []


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
