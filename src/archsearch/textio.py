"""The two on-disk text formats: flat ``key = value`` settings, and tables of
one header line plus one comma-separated row per line (no quoting). Every
artifact file is written through `atomic_file`."""

from __future__ import annotations

import os
from contextlib import contextmanager
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
