"""CSV tables: one canonical writer and one checked reader.

Every CSV file of the package is described by a column spec, a tuple of
``(name, type)`` pairs. The type is ``int``, ``float``, ``str``, or a
function that parses one field's text. The writer formats each value by
its column's type: floats in their shortest round-trip form (so a file
rewritten from parsed values is byte-identical), ints as integers, and
everything else with ``str``. The reader checks the header and turns any
malformed row into an :class:`InputDataError` naming the file and line.
"""

from __future__ import annotations

import csv
import os
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import InputDataError

Columns = tuple[tuple[str, Callable[[str], Any]], ...]


def fmt_float(x: float) -> str:
    """Canonical decimal form for floats in output tables.

    Shortest representation that round-trips exactly, so rewriting a file
    from parsed values reproduces it byte for byte. Accepts numpy scalars.
    """
    return repr(float(x))


def write_table(path: str | os.PathLike, columns: Columns, rows: Iterable[Sequence]) -> None:
    """Stream rows to ``path`` (UTF-8) under a header of the column names."""
    formats = [{float: fmt_float, int: int}.get(kind, str) for _, kind in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        for row in rows:
            writer.writerow([fmt(value) for fmt, value in zip(formats, row)])


def _int64(text: str) -> int:
    """An ``int`` field, which must fit the int64 range the arrays use."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError("integer outside the int64 range")
    return value


def read_table(path: str | os.PathLike, columns: Columns) -> Iterator[tuple]:
    """Yield the typed rows of a table; the header must match exactly.

    Blank lines are skipped. A row with the wrong number of fields, a
    field its type cannot parse, or an ``int`` field outside the int64
    range raises :class:`InputDataError`.
    """
    names = [name for name, _ in columns]
    kinds = [_int64 if kind is int else kind for _, kind in columns]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != names:
                raise InputDataError(f"{path}: expected columns {names}, got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(kinds):
                    raise ValueError(f"expected {len(kinds)} fields, got {len(row)}")
                yield tuple([kind(field) for kind, field in zip(kinds, row)])
        except UnicodeDecodeError as exc:
            # Text is decoded a chunk ahead of the rows, so count the line
            # breaks before the bad byte in the chunk that failed.
            line = reader.line_num + 1 + exc.object[:exc.start].count(b"\n")
            raise InputDataError(f"{path}, line {line}: not UTF-8 text") from exc
        except (ValueError, TypeError, IndexError, csv.Error) as exc:
            raise InputDataError(f"{path}, line {reader.line_num}: {exc}") from exc
