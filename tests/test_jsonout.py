"""The streaming writer prints exactly json.dumps(obj, indent=2,
sort_keys=True) + "\\n": on edge cases, on lazily read row sequences
(jsonout.Rows), on the canonical tables of assorted carriers, on the payload
of every fast pinned command and through --out; a cache hit serves the
stored bytes.  The stdlib text is that of the object with every Rows
materialized as a list."""

import io
import json

import pytest

from qpcox import cli, jsonout
from qpcox.barcanon import canonical_basis
from qpcox.coxeter import build_system
from qpcox.jsonout import Rows
from qpcox.qpsets import regular_set

from oracle_canonical import table_to_json
from test_barcanon import fpf_class
from test_refs import FAST


def materialized(obj):
    """obj with every Rows read into a list, at any depth."""
    if isinstance(obj, dict):
        return {k: materialized(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, Rows)):
        return [materialized(v) for v in obj]
    return obj


def reference(obj) -> str:
    return json.dumps(materialized(obj), indent=2, sort_keys=True) + "\n"


def rendered(obj) -> str:
    buf = io.StringIO()
    jsonout.dump(obj, buf)
    return buf.getvalue()


SHARED = [[0, 1], [-1, -2], []]

CASES = {
    "empty-dict": {},
    "empty-list": [],
    "nested-empty": {"a": [], "b": {}, "c": [[], {}, [[]], [{}]], "d": {"e": {"f": []}}},
    "constants": [None, True, False, {"t": True, "f": False, "n": None}],
    "negative-ints": {"x": -1, "rows": [[-7, 0, [[-3, -12]]]]},
    "top-scalar": -42,
    "top-string": "plain",
    "strings": {
        "quote\"key": "a \"quoted\" value",
        "back\\slash": "C:\\dir\\",
        "control": "\n\t\r\b\f\x00\x01\x1f\x7f",
        "non-ascii": ["é", "ß", "☃", "𝄞", "\u2028"],
    },
    "tuples": {"t": (1, (2, 3), [(4,)])},
    "key-order": {"b": 1, "B": 2, "a": 3, "_": 4, "10": 5, "9": 6},
    # one list at two memoized indents: rows of the streamed lists under "a"
    # (level 1) and "b" -> "c" (level 2) hold it at levels 3 and 4, so a memo
    # keyed by id alone would print it with the wrong indent once
    "shared-at-two-indents": {"a": [[SHARED], SHARED], "b": {"c": [[SHARED, [SHARED]]]}, "d": SHARED},
    "dicts-in-rows": [[{"x": [[1]]}, [{"y": SHARED}]], {"z": [[SHARED]]}],
}


@pytest.mark.parametrize("obj", CASES.values(), ids=CASES.keys())
def test_writer_matches_stdlib(obj):
    assert rendered(obj) == reference(obj)


def rows(*items) -> Rows:
    return Rows(lambda: iter(items))


ROW_CASES = {
    "empty": {"entries": rows(), "mu": rows()},
    "empty-top": rows(),
    "one-row": {"entries": rows((0, 0, SHARED))},
    "three-int-rows": {"mu": rows((0, 1, 1), (2, 5, -3), (10, 11, 12))},
    "mixed-shapes": {"rows": rows(
        (0, 1, 2), [3, 4, [5]], (0, 1), [0, 1, 2, 3], [], (), 7, "text", None, {"k": [1, (2,)]},
        [0, 1, "x"], [0, 1, True], [True, 1, 2], [0, False, 2], [0, 1, None], [0, 1, {"a": SHARED}],
        [[0], 1, 2], [0, 1, (4, 5)], [0, 1, []], [0, 1, [[], {}]],
    )},
    "negative-ints": {"mu": rows((-1, -2, -3), (0, -1, [[-4, -5]]), [-10, 0, -0])},
    # one pairs list in rows streamed at levels 1 and 2, so held at levels 3 and 4
    "shared-at-two-indents": {"a": rows((0, 1, SHARED), (1, 1, SHARED)), "b": {"c": rows((2, 3, SHARED))}},
}


@pytest.mark.parametrize("obj", ROW_CASES.values(), ids=ROW_CASES.keys())
def test_rows_match_stdlib_on_their_materialized_form(obj):
    # twice: every iteration reads the rows afresh
    assert rendered(obj) == rendered(obj) == reference(obj)


def test_rows_made_on_the_fly_are_not_confused_by_id():
    # each row's list dies after its row is rendered, so a later row's list
    # can take its id: the memo must not serve it the earlier text
    obj = {"rows": Rows(lambda: ([x, 0, [[x, -x]]] for x in range(300)))}
    assert rendered(obj) == reference(obj)


def test_writer_streams_rows_in_bounded_chunks(monkeypatch):
    monkeypatch.setattr(jsonout, "CHUNK", 256)
    obj = {"entries": Rows(lambda: ((x, x + 1, SHARED) for x in range(500))),
           "mu": Rows(lambda: ((x, x, -x) for x in range(500)))}
    chunks = []

    class Sink:
        write = chunks.append

    buf = io.StringIO()
    jsonout.dump(obj, Sink(), buf)
    assert "".join(chunks) == buf.getvalue() == reference(obj)
    assert len(chunks) > 10 and max(map(len, chunks)) < 512


TABLE_CARRIERS = {
    "A3": lambda: regular_set(build_system("A3")),
    "B3": lambda: regular_set(build_system("B3")),
    "H3": lambda: regular_set(build_system("H3")),
    "A5-fpf": lambda: fpf_class(build_system("A5")),
}


@pytest.mark.parametrize("make", TABLE_CARRIERS.values(), ids=TABLE_CARRIERS.keys())
def test_table_rows_match_the_materialized_table(make):
    X = make()
    for kind in "MN":
        table = canonical_basis(kind, X)
        got, oracle = table.to_json(), table_to_json(table)
        assert isinstance(got["entries"], Rows) and isinstance(got["mu"], Rows)
        assert rendered(got) == rendered(got) == json.dumps(oracle, indent=2, sort_keys=True) + "\n"


def test_writer_streams_in_bounded_chunks(monkeypatch):
    monkeypatch.setattr(jsonout, "CHUNK", 256)
    rows = [[x, x + 1, SHARED] for x in range(500)]
    chunks = []

    class Sink:
        write = chunks.append

    buf = io.StringIO()
    jsonout.dump({"entries": rows}, Sink(), buf)
    assert "".join(chunks) == buf.getvalue() == reference({"entries": rows})
    assert len(chunks) > 10 and max(map(len, chunks)) < 512


@pytest.mark.parametrize("obj", [{"a": [{1, 2}]}, {"a": object()}, [[1.5]], {1: "a"}, rows((0, 1, {2})),
                                 rows((0, 1, 1.5)), rows((0, 1.5, 2)), rows([0, 1, [object()]]), {"a": rows({1: 2})},
                                 rows((0, 1, rows())), [rows()]],
                         ids=["set", "object", "float", "int-key", "rows-set", "rows-float", "rows-float-y",
                              "rows-object", "rows-int-key", "rows-in-a-row", "rows-as-a-row"])
def test_writer_refuses_what_no_payload_holds(obj):
    with pytest.raises(TypeError):
        rendered(obj)


def _checked_dump(monkeypatch):
    """Patch jsonout.dump so that the text of every document it writes is
    compared with the stdlib text of the same object; returns the objects."""
    real = jsonout.dump
    seen = []

    def dump(obj, *sinks):
        buf = io.StringIO()
        real(obj, buf, *sinks)
        assert buf.getvalue() == reference(obj)
        seen.append(materialized(obj))

    monkeypatch.setattr(jsonout, "dump", dump)
    return seen


@pytest.mark.parametrize("command", FAST)
def test_every_fast_command_prints_the_stdlib_text(tmp_path, monkeypatch, capsys, command):
    seen = _checked_dump(monkeypatch)
    argv = command.split()
    if argv[0] == "verify":  # its JSON is the --out log
        out = tmp_path / "log.json"
        assert cli.main([*argv, "--no-cache", "--out", str(out)]) in (0, 2)
        (log,) = seen
        assert out.read_text() == reference(log)
        return
    if argv[0] == "survey":
        argv += ["--format", "json"]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    rc = cli.main([*argv, *cache])
    cold = capsys.readouterr().out
    (payload,) = seen
    assert cold == reference(payload)
    if argv[0] == "wgraph":
        return  # not cached
    (entry,) = (tmp_path / "cache").glob("*/*.json")
    assert entry.read_text().split("\n", 1)[1] == cold  # the body is the output's own text
    out = tmp_path / "hit.json"
    monkeypatch.setattr(cli, "_cache_store", lambda *args: pytest.fail("a cache hit stored an entry"))
    if argv[0] == "basis":  # a hit copies the stored bytes; only a survey hit parses them
        monkeypatch.setattr(json, "loads", lambda *args, **kw: pytest.fail("a basis hit parsed its entry"))
    assert cli.main([*argv, *cache, "--out", str(out)]) == rc
    assert len(seen) == 1  # nothing re-rendered
    assert out.read_text() == cold
