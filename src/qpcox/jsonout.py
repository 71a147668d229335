"""The one JSON writer: json.dumps(obj, indent=2, sort_keys=True) + "\\n",
streamed.

With indent set, the stdlib encoder falls back to pure Python and joins the
whole document before returning it, which for a canonical table costs more
than solving the table.  dump writes the same text in chunks of about CHUNK
characters to any number of sinks, so one render feeds the output and the
cache entry.  Dicts, and lists that are not items of another list, are
streamed item by item, and so is a Rows: a row sequence read lazily, afresh
on each iteration, which dump writes as the list of its rows.  A Rows
stands where dump streams: at the top, or as a value of a streamed dict
(as a row, or inside one, it is refused).  A table's entries and mu rows
are Rows read from its columns (CanonicalTable.to_json), so no list per
entry is built.

An item of a streamed list (a table row, a survey report) is rendered in one
piece.  A row of two ints and an int or a list (an entry, a mu row, a
W-graph edge) is rendered by one format step with the separators of its
level; any other row by the generic path.  Each list a row holds is
rendered once per indent level, memoized by (id, level); the memo holds
every list it keys until dump returns, so no id is reused while it is
keyed, even for the lists of rows made on the fly.  So a payload that hands
one list to many rows renders it once: CanonicalTable.to_json gives every
entry holding the same polynomial the same pairs list.

>>> import io, json
>>> obj = {"b": [[0, 1, [[-1, 1]]]], "a": None}
>>> buf = io.StringIO(); dump(obj, buf)
>>> buf.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\\n"
True
>>> buf = io.StringIO(); dump({"b": Rows(lambda: iter(obj["b"])), "a": None}, buf)
>>> buf.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\\n"
True
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

CHUNK = 1 << 16
_CONSTANTS = {None: "null", True: "true", False: "false"}


class Rows:
    """A sequence of rows read lazily: every iteration calls rows() for a
    fresh iterator, so the sequence can be rendered any number of times.
    dump writes it as the list of its rows; json.dumps refuses it, so a
    reader that wants lists materializes it with list()."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = rows

    def __iter__(self):
        return iter(self._rows())


def _scalar(o) -> str:
    """The text of a str, int, bool or None.  No payload holds a float or a
    non-str key, so those are refused, like any other type."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dump(obj, *sinks) -> None:
    """Write json.dumps(obj, indent=2, sort_keys=True) + "\\n" to every sink
    (anything with a write method taking str), never holding more of the
    document than one chunk and the memoized nested lists."""
    parts: list[str] = []
    size = 0
    memo: dict[tuple[int, int], str] = {}
    held = []  # every list memo keys, so that its id stays its own
    newlines = ["\n"]

    def nl(level: int) -> str:
        while len(newlines) <= level:
            newlines.append("\n" + "  " * len(newlines))
        return newlines[level]

    def put(text: str) -> None:
        nonlocal size
        parts.append(text)
        size += len(text)
        if size >= CHUNK:
            flush()

    def flush() -> None:
        nonlocal size
        data = "".join(parts)
        parts.clear()
        size = 0
        for sink in sinks:
            sink.write(data)

    def whole(o, level: int) -> str:
        """The text of o at indent level, built in one piece."""
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            sep = nl(level + 1)
            return "[" + sep + ("," + sep).join([
                int.__repr__(v) if type(v) is int else whole(v, level + 1) for v in o
            ]) + nl(level) + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            sep = nl(level + 1)
            return "{" + sep + ("," + sep).join([
                _quote(k) + ": " + whole(v, level + 1) for k, v in sorted(o.items())
            ]) + nl(level) + "}"
        return _scalar(o)

    def row(o, level: int) -> str:
        """whole(o, level) for an item of a streamed list, with the lists it
        holds rendered once per (id, level)."""
        if not isinstance(o, (list, tuple)) or not o:
            return whole(o, level)
        sep = nl(level + 1)
        return "[" + sep + ("," + sep).join([
            int.__repr__(v) if type(v) is int else memoized(v, level + 1) for v in o
        ]) + nl(level) + "]"

    def memoized(o, level: int) -> str:
        if not isinstance(o, (list, tuple)):
            return whole(o, level)
        key = (id(o), level)
        text = memo.get(key)
        if text is None:
            text = memo[key] = whole(o, level)
            held.append(o)
        return text

    def stream_list(o, level: int) -> None:
        """o, a list, tuple or Rows, as a list at level, row by row."""
        nonlocal size
        inner, deep = level + 1, level + 2
        lead = first = "[" + nl(inner)
        sep = "," + nl(inner)
        # a row [x, y, z] of ints x, y and an int or list z, with the text
        # before it, as one format step
        body = "[" + nl(deep) + "%d," + nl(deep) + "%d," + nl(deep) + "%s" + nl(inner) + "]"
        three, rest = lead + body, sep + body
        get, append = memo.get, parts.append
        for r in o:
            text = None
            if (type(r) is tuple or type(r) is list) and len(r) == 3:
                x, y, z = r
                if type(x) is int and type(y) is int:
                    kind = type(z)
                    if kind is int:
                        text = three % (x, y, z)
                    elif kind is list or kind is tuple:
                        text = three % (x, y, get((id(z), deep)) or memoized(z, deep))
            if text is None:
                text = lead + row(r, inner)
            append(text)
            size += len(text)
            lead, three = sep, rest
            if size >= CHUNK:
                flush()
        put("[]" if lead is first else nl(level) + "]")

    def stream(o, level: int) -> None:
        if isinstance(o, dict) and o:
            sep = "{" + nl(level + 1)
            for k, v in sorted(o.items()):
                put(sep + _quote(k) + ": ")
                stream(v, level + 1)
                sep = "," + nl(level + 1)
            put(nl(level) + "}")
        elif isinstance(o, (list, tuple, Rows)):
            stream_list(o, level)
        else:
            put(whole(o, level))

    stream(obj, 0)
    put("\n")
    flush()
