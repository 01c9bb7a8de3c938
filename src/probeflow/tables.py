"""CSV tables: one columnar writer and one checked reader.

Every CSV file of the package is described by a column spec, a tuple of
``(name, type)`` or ``(name, type, range)`` entries. The type is ``int``,
``float``, ``str``, or a function that parses one field's text; the range
is a key of ``params.RANGES``. Tables move a column at a time:
``write_table`` takes one sequence per column, and ``read_table`` returns
one list of typed values per column.

The writer converts each column once by its type: floats to Python floats,
written in their shortest round-trip form (so a file rewritten from parsed
values is byte-identical), ints to Python ints, and everything else with
``str``. Rows go out through ``csv.writer``, except that a spec of only
int and float columns, which never need quoting, formats each line with
one ``%`` into the same bytes. The reader checks the header, then parses
a block of rows at a time, each column with one ``map`` and one range
check. When a block fails, it rescans the file one row at a time, so the
:class:`InputDataError` it raises names the file and the line of the
first malformed row or value out of range. ``group_rows`` splits the
columns of a table by a key column, such as the vehicle or the interval.
"""

from __future__ import annotations

import csv
import os
from itertools import islice
from typing import Any, Callable, Sequence

import numpy as np

from .errors import InputDataError
from .params import RANGES, range_error

Columns = tuple[tuple, ...]

# Raw rows parsed per block: enough to amortise the per-block calls, few
# enough that a block's field strings stay small beside the typed columns.
_BLOCK_ROWS = 256


def _cells(kind: Callable[[str], Any], values: Sequence) -> list:
    """One column's values as the Python objects its lines are formatted from."""
    if kind is float:
        return np.asarray(values, dtype=float).tolist()
    if kind is int:
        return list(map(int, values.tolist() if isinstance(values, np.ndarray) else values))
    return list(map(str, values))


def write_table(path: str | os.PathLike, columns: Columns, data: Sequence[Sequence]) -> None:
    """Write ``data``, one sequence per column, to ``path`` (UTF-8) under a header of the names.

    Every column must hold the same number of values.
    """
    kinds = [kind for _, kind, *_ in columns]
    cells = [_cells(kind, values) for kind, values in zip(kinds, data, strict=True)]
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"{path}: columns differ in length: {[len(c) for c in cells]}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, *_ in columns])
        if all(kind in (int, float) for kind in kinds):
            # Numbers never need quoting, so whole lines are formatted as
            # csv.writer formats their fields: str of an int, repr of a float.
            line = ",".join("%d" if kind is int else "%r" for kind in kinds) + "\r\n"
            fh.writelines(map(line.__mod__, zip(*cells)))
        else:
            writer.writerows(zip(*cells))


def _parse(spec: tuple, fields: Sequence[str]) -> list:
    """One column of a block; ints must fit the int64 range the arrays use, values their range."""
    name, kind, *allowed = spec
    values = list(map(kind, fields))
    if kind is int and values and not (-2**63 <= min(values) and max(values) < 2**63):
        raise ValueError("integer outside the int64 range")
    if allowed:
        inside = RANGES[allowed[0]](np.array(values, dtype=float))
        if not inside.all():
            raise ValueError(range_error(name, allowed[0], values[int(inside.argmin())]))
    return values


def read_table(path: str | os.PathLike, columns: Columns) -> list[list]:
    """The typed columns of a table, one list per column; the header must match exactly.

    Blank lines are skipped. A row with the wrong number of fields, a
    field its type cannot parse, an ``int`` field outside the int64 range,
    a value outside its column's range or text that is not UTF-8 raises
    :class:`InputDataError` naming the line.
    """
    try:
        return _read(path, columns, _BLOCK_ROWS)
    except InputDataError:
        # A failed block names only its last line: rescan a row at a time.
        return _read(path, columns, 1)


def _read(path: str | os.PathLike, columns: Columns, block_rows: int) -> list[list]:
    """Parse ``block_rows`` rows at a time; an error names the last line of its block."""
    names = [name for name, *_ in columns]
    out: list[list] = [[] for _ in columns]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != names:
                raise InputDataError(f"{path}: expected columns {names}, got {header}")
            for block in iter(lambda: list(islice(reader, block_rows)), []):
                rows = list(filter(None, block))
                wrong = set(map(len, rows)) - {len(columns)}
                if wrong:
                    raise ValueError(f"expected {len(columns)} fields, got {min(wrong)}")
                for col, spec, fields in zip(out, columns, zip(*rows)):
                    col.extend(_parse(spec, fields))
        except UnicodeDecodeError as exc:
            # Text is decoded a chunk ahead of the rows, so count the line
            # breaks before the bad byte in the chunk that failed.
            line = reader.line_num + 1 + exc.object[:exc.start].count(b"\n")
            raise InputDataError(f"{path}, line {line}: not UTF-8 text") from exc
        except (ValueError, TypeError, IndexError, csv.Error) as exc:
            raise InputDataError(f"{path}, line {reader.line_num}: {exc}") from exc
    return out


def group_rows(keys: Sequence[int], *columns: Sequence) -> dict[int, tuple[np.ndarray, ...]]:
    """Each column's values split by the row's key: keys ascending, table order within a key."""
    keys = np.array(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    unique, starts = np.unique(keys[order], return_index=True)
    parts = [np.split(np.array(col)[order], starts[1:]) for col in columns]
    return dict(zip(unique.tolist(), zip(*parts)))
