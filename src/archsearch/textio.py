"""The three on-disk text formats: flat ``key = value`` settings, tables of
one header line plus one comma-separated row per line (no quoting), and
JSON indented by two spaces with sorted keys, as `json.dumps` writes it.
Every artifact file is written through `atomic_file`."""

from __future__ import annotations

import os
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


def read_key_values(text: str, source: str,
                    keys: Collection[str] | None = None) -> dict[str, str]:
    """Settings of a text, skipping blanks and ``#`` comments; ``keys`` limits
    the keys allowed. Errors name ``source`` and the line."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"{source}, line {lineno}: expected 'key = value', got {raw!r}")
        if keys is not None and key not in keys:
            raise ValueError(f"{source}, line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


@contextmanager
def atomic_file(path: str | Path) -> Iterator[BinaryIO]:
    """A new file in ``path``'s directory, renamed over ``path`` when the block
    succeeds; on a failure midway it is removed and ``path`` stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    with atomic_file(path) as f:
        f.write(text.encode())


def write_table(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def read_table(path: str | Path, header: Sequence[str],
               convert: Callable[..., T]) -> list[T]:
    """``convert(*fields)`` of each non-blank row, fields stripped of blanks.

    A wrong header or field count, or a ValueError from ``convert``, raises
    a ValueError naming the file and line.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or [tok.strip() for tok in lines[0].split(",")] != list(header):
        raise ValueError(f"{path}, line 1: expected header {','.join(header)}")
    out = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = [tok.strip() for tok in raw.split(",")]
        try:
            if len(fields) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
            out.append(convert(*fields))
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return out


_INF = float("inf")


def _float_json(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


# Writers of the leaf types, by exact type
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__, float: _float_json,
           bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}
_STR_TYPE = frozenset((str,))


def _json(value: object, newline: str) -> str:
    leaf = _LEAVES.get(type(value))
    if leaf:
        return leaf(value)
    inner = newline + "  "
    if type(value) is list:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        leaf = _LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(leaf, value) if leaf else [_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if type(value) is dict:
        if not value:
            return "{}"
        if not _STR_TYPE.issuperset(map(type, value)):
            raise TypeError("keys must be str")
        items = [f"{encode_basestring_ascii(key)}: {_json(item, inner)}"
                 for key, item in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not written as JSON")


def json_text(value: object) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of None, bool, int, float,
    str, list and str-keyed dict, by exact type, without its pure-Python encoder:
    strings take the same C escape, numbers their types' ``__repr__``. Anything
    else (a tuple, subclass or non-str key) raises TypeError; cycles are not found."""
    return _json(value, "\n")
