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
W x A1, so every other module reads it as any other carrier.  No module in
src/ imports ``dataclasses``: records are NamedTuples, and ``import
qpcox.cli`` loads neither dataclasses nor inspect, nor hashlib (loaded by
the cache alone) nor csv (loaded by the CSV outputs alone).  No module in src/ names
``mn_cols`` or ``nm_cols``: the Phi maps read the bar columns, and keep no
scaled copies of them.  No module in src/ names ``_barpart``, ``_bar_fill``,
``orbits`` or ``h_min2``: the bar columns, the height parity and the Bruhat
order are each built in one pass in id order.  None names ``_polys`` (no
carrier pools polynomials) or ``shift``: the product with v^k is read by
test oracles alone, and lives with them.  No module in src/ names
``add_scaled``, not even in a comment: sums of scaled vectors go through
laurent's two kernels, lincomb and combine, the W-graph module check
multiplies int columns, and the one-vector fold is a test oracle.  Neither hecke nor barcanon imports or
names ``Element``: Hecke elements are keyed by element key (the point id on
the regular carrier), and CoxeterSystem.word_of turns a key into its word.

No module in src/ computes a float: none has a float literal, names
``float``, or reads a ``math`` name other than ``inf``, which marks an
infinite bond in matrix input.  The root tables are closed on int keys.

Only laurent and jsonout key a memo by ``id``: no other module in src/ reads
the name ``id``, except inside a ``__hash__`` method.  A memo keyed that way
holds its operands only while its call runs, so none outlives the call: no
module or class body in src/ binds an empty container or a ``PolyMemo``, and
no function of arguments is memoized by ``functools.cache`` or
``lru_cache``.  A ``PolyMemo`` is made only as ``name = PolyMemo()`` in a
function, which never returns, yields or stores that name elsewhere.
"""

import ast
import os
import subprocess
import sys
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


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_src_keeps_no_phi_column_copies(path):
    refs = _references(ast.parse(path.read_text()))
    assert [name for name in ("mn_cols", "nm_cols") if refs[name]] == []


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_src_names_no_add_scaled(path):
    assert "add_scaled" not in path.read_text()


def named(source: str) -> Counter:
    """How often source names each name: read, as a bare name or an
    attribute, or imported."""
    tree = ast.parse(source)
    imported = Counter(a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names)
    return _references(tree) + imported


def test_scan_finds_element_names():
    assert named("from .coxeter import CoxeterSystem, Element as E")["Element"] == 1
    assert named("def f(w: coxeter.Element): return Element(s, 0)")["Element"] == 2
    assert named("x = ExtElement(w, t)  # Element\n'an Element'")["Element"] == 0


@pytest.mark.parametrize("name", ["hecke.py", "barcanon.py"])
def test_hecke_algebra_names_no_element(name):
    # Hecke coordinates are element keys: the algebra builds no group element
    assert named((ROOT / "src" / "qpcox" / name).read_text())["Element"] == 0


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


RETIRED = ("_barpart", "_bar_fill", "orbits", "h_min2", "_polys", "shift")


def retired_names(source: str) -> list[str]:
    """The names of RETIRED that source reads, imports or defines, or holds
    as a whole string constant (a stage's attribute name)."""
    tree = ast.parse(source)
    defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return sorted((set(named(source)) | defined | string_constants(source)) & set(RETIRED))


def test_scan_finds_retired_names():
    source = '@stage("_barpart")\ndef _bar_part(X): pass\nX.h_min2()\ndef orbits(self): pass\n'
    assert retired_names(source) == ["_barpart", "h_min2", "orbits"]
    assert retired_names("# _bar_fill\n'the orbits of W'\nn_orbits = 2") == []


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_src_names_no_partial_bar_store_or_orbit_scan(path):
    # the bar columns, the parity and the Bruhat order are each one pass in
    # id order: no partial store of bar columns, no second orbit scan; no
    # carrier keeps a pool of polynomials past the call that made them; and
    # the product with v^k, read by test oracles alone, is theirs (shift)
    assert retired_names(path.read_text()) == []


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


MATH_NAMES = {"inf"}


def float_uses(source: str) -> list[int]:
    """The lines of source with a float or complex literal, the name float,
    a math name outside MATH_NAMES, or math imported under another name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            or isinstance(node, ast.Name) and node.id == "float"
            or isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math"
            and node.attr not in MATH_NAMES
            or isinstance(node, ast.ImportFrom) and node.module == "math"
            and any(a.name not in MATH_NAMES for a in node.names)
            or isinstance(node, ast.Import) and any(a.name == "math" and a.asname for a in node.names)
        ):
            out.append(node.lineno)
    return sorted(out)


def test_scan_finds_float_uses():
    assert float_uses("x = 1e-9\ny = 2.0 * x\nz = 3j") == [1, 2, 3]
    assert float_uses("a = float(n)\nb = map(float, xs)\nc: float = 0") == [1, 2, 3]
    assert float_uses("import math\nm = math.inf\nq = math.cos(math.pi / 5)") == [3, 3]
    assert float_uses("from math import inf\nfrom math import sqrt\nimport math as m") == [2, 3]
    assert float_uses("k = n // 2\nlabel = 'float 1.5'  # 2.5") == []


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_src_computes_no_float(path):
    assert float_uses(path.read_text()) == []


def id_reads(source: str) -> list[int]:
    """The lines of source that read the name id outside a __hash__ method."""
    def visit(node, in_hash):
        for child in ast.iter_child_nodes(node):
            inner = in_hash or isinstance(child, ast.FunctionDef) and child.name == "__hash__"
            if isinstance(child, ast.Name) and child.id == "id" and not inner:
                yield child.lineno
            yield from visit(child, inner)
    return list(visit(ast.parse(source), False))


def test_scan_finds_id_reads():
    assert id_reads("k = (id(a), 1)\nids = map(id, xs)\nnode.id") == [1, 2]
    assert id_reads("class E:\n    def __hash__(self):\n        return hash(id(self))") == []
    assert id_reads("def key(self):\n    return id(self)") == [2]


ID_KEYED = ("laurent.py", "jsonout.py")


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_laurent_and_jsonout_key_by_id(path):
    assert path.name in ID_KEYED or id_reads(path.read_text()) == []


MEMO_CALLS = ("PolyMemo", "Counter", "dict", "set", "list", "defaultdict", "OrderedDict",
              "WeakKeyDictionary", "WeakValueDictionary")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _name(node):
    """The name a call, an attribute or a name ends in."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _starts_a_memo(value) -> bool:
    """An empty dict, list or set, or a PolyMemo."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return isinstance(value, ast.Call) and _name(value) in MEMO_CALLS and (
        _name(value) == "PolyMemo" or not value.args and not value.keywords)


def lasting_memos(source: str) -> list[int]:
    """The lines of source that could keep a memo past its call: a module or
    class body starting one, functools.cache or lru_cache on a function of
    arguments, and a PolyMemo made other than as name = PolyMemo() in a
    function that never returns, yields or stores name."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    out = [
        node.lineno
        for body in [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for node in body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _starts_a_memo(node.value)
    ]
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS) and node.args.args:
            out += [d.lineno for d in node.decorator_list if _name(d) in ("cache", "lru_cache")]
        if not (isinstance(node, ast.Call) and _name(node) == "PolyMemo"):
            continue
        site, fn = parent[node], parent[node]
        while fn is not None and not isinstance(fn, FUNCTIONS):
            fn = parent.get(fn)
        if fn is None or not (isinstance(site, ast.Assign) and len(site.targets) == 1
                              and isinstance(site.targets[0], ast.Name)):
            out.append(node.lineno)
            continue
        name = site.targets[0].id
        for n in ast.walk(fn):
            stored = isinstance(n, ast.Assign) and not all(isinstance(t, ast.Name) for t in n.targets)
            if (stored or isinstance(n, (ast.Return, ast.Yield, ast.YieldFrom))) and _name(n.value) == name:
                out.append(n.lineno)
    return sorted(set(out))


def test_scan_finds_lasting_memos():
    assert lasting_memos("_MEMO = {}\nCONST = {1: 2}\nc: Counter = Counter()\nd = dict(a=1)") == [1, 3]
    assert lasting_memos("class C:\n    memo = PolyMemo()\n    seen = set()") == [2, 3]
    assert lasting_memos("@functools.lru_cache(None)\ndef f(x): pass\n@cache\ndef g(x): pass") == [1, 3]
    assert lasting_memos("@functools.cache\ndef digest(): pass") == []  # one value per process
    assert lasting_memos("def f(X):\n    ar = PolyMemo()\n    return ar.add(1, 2)") == []
    assert lasting_memos("def f(X):\n    ar = PolyMemo()\n    X._memo = ar") == [3]
    assert lasting_memos("def f(X):\n    ar = PolyMemo()\n    return ar") == [3]
    assert lasting_memos("def f(X):\n    X._memo = PolyMemo()\n    g(PolyMemo())") == [2, 3]


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_no_memo_outlives_its_call(path):
    assert lasting_memos(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules source imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_scan_finds_imported_modules():
    assert imported_modules("import dataclasses\nfrom os.path import join\nimport a.b as c") == {"dataclasses", "os", "a"}
    assert "dataclasses" in imported_modules("def f():\n    from dataclasses import dataclass")
    assert imported_modules("from . import dataclasses\nfrom .x import y") == set()


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_src_imports_no_dataclasses(path):
    # records are NamedTuples: dataclasses (and the inspect it loads) cost
    # every CLI process a measurable share of its start-up
    assert "dataclasses" not in imported_modules(path.read_text())


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S keeps site hooks (a .pth that imports a package) out of the answer.
    # hashlib (with OpenSSL) is loaded by the cache alone and csv by the CSV
    # outputs alone, so wgraph and verify never pay for them
    unwanted = {"dataclasses", "inspect", "hashlib", "_hashlib", "csv"}
    code = f"import sys, qpcox.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
