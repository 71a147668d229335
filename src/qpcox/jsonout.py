"""The one JSON writer: json.dumps(obj, indent=2, sort_keys=True) + "\\n",
streamed.

With indent set, the stdlib encoder falls back to pure Python and joins the
whole document before returning it, which for a canonical table costs more
than solving the table.  dump writes the same text in chunks of about CHUNK
characters to any number of sinks, so one render feeds the output and the
cache entry.  Dicts, and lists that are not items of another list, are
streamed item by item.  An item of a streamed list (a table row, a survey
report) is rendered in one piece, and each list a row holds is rendered
once per indent level, memoized by (id, level).  The id is a safe key
because obj keeps every list alive for the whole call.  So a payload that
hands one list to many rows renders it once: CanonicalTable.to_json gives
every entry holding the same polynomial the same pairs list.

>>> import io, json
>>> obj = {"b": [[0, 1, [[-1, 1]]]], "a": None}
>>> buf = io.StringIO(); dump(obj, buf)
>>> buf.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\\n"
True
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

CHUNK = 1 << 16
_CONSTANTS = {None: "null", True: "true", False: "false"}


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
        return text

    def stream(o, level: int) -> None:
        if isinstance(o, dict) and o:
            sep = "{" + nl(level + 1)
            for k, v in sorted(o.items()):
                put(sep + _quote(k) + ": ")
                stream(v, level + 1)
                sep = "," + nl(level + 1)
            put(nl(level) + "}")
        elif isinstance(o, (list, tuple)) and o:
            sep = "[" + nl(level + 1)
            for v in o:
                put(sep + row(v, level + 1))
                sep = "," + nl(level + 1)
            put(nl(level) + "]")
        else:
            put(whole(o, level))

    stream(obj, 0)
    put("\n")
    flush()
