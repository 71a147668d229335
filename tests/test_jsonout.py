"""The streaming writer prints exactly json.dumps(obj, indent=2,
sort_keys=True) + "\\n": on edge cases, on the payload of every fast pinned
command and through --out; a cache hit serves the stored bytes."""

import io
import json

import pytest

from qpcox import cli, jsonout
from test_refs import FAST


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


@pytest.mark.parametrize("obj", [{"a": [{1, 2}]}, {"a": object()}, [[1.5]], {1: "a"}],
                         ids=["set", "object", "float", "int-key"])
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
        seen.append(obj)

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
