"""The shared CSV table writer and reader, and every table built on them."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import pkgutil
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import probeflow
from probeflow import assignment, evaluation, mapmatch, network, odestim, tracegen, ttinfer
from probeflow.errors import InputDataError
from probeflow.tables import read_table, write_table

from conftest import make_corridor_network, read_rows, write_rows

COLUMNS = (("id", int), ("value", float), ("label", str))

FUZZ_TABLES = settings(max_examples=150, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])

NET2 = make_corridor_network(n_segs=2)

# Every CSV reader of the package with the column spec it checks.
READERS = {
    "tazs": (network.read_tazs, network.TAZ_COLUMNS),
    "demand": (assignment.read_demand, assignment.DEMAND_COLUMNS),
    "voc": (evaluation.read_voc, evaluation.VOC_COLUMNS),
    "matched": (partial(mapmatch.read_matched, net=NET2), mapmatch.MATCHED_COLUMNS),
    "state": (partial(odestim.read_states, net=NET2, grid=network.TimeGrid()),
              odestim.STATES_COLUMNS),
    "traces": (tracegen.read_traces, tracegen.TRACE_COLUMNS),
    "trips": (partial(tracegen.read_trips, net=NET2), tracegen.TRIP_COLUMNS),
    "truth": (partial(tracegen.read_truth, net=NET2), tracegen.TRUTH_COLUMNS),
    "estimates": (partial(ttinfer.read_estimates, net=NET2, grid=network.TimeGrid()),
                  ttinfer.ESTIMATE_COLUMNS),
}


def _package_readers() -> tuple[set, set]:
    """Module-level ``read_*`` functions of the package: (CSV readers, the rest).

    A CSV reader is one that calls ``read_table``.
    """
    csv_readers, others = set(), set()
    for info in pkgutil.iter_modules(probeflow.__path__):
        module = importlib.import_module(f"probeflow.{info.name}")
        for name, fn in vars(module).items():
            if (name.startswith("read_") and name != "read_table" and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                (csv_readers if "read_table" in fn.__code__.co_names else others).add(fn)
    return csv_readers, others


def test_readers_lists_every_csv_reader_of_the_package():
    csv_readers, others = _package_readers()
    assert {getattr(reader, "func", reader) for reader, _ in READERS.values()} == csv_readers
    # The one reader left reads JSON, not a table.
    assert {fn.__qualname__ for fn in others} == {"read_network"}


def _callers(method: str) -> set[str]:
    """``module.name`` of each top-level function or class of the package that calls ``.method(...)``."""
    callers = set()
    for info in pkgutil.iter_modules(probeflow.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"probeflow.{info.name}")))
        for top in tree.body:
            if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == method for node in ast.walk(top)):
                callers.add(f"{info.name}.{getattr(top, 'name', '<module>')}")
    return callers


def test_only_table_readers_and_writers_map_segment_ids():
    # Inside the package, segment sequences and per-segment values are
    # keyed by index; ids appear only where a table is read or written.
    to_index = _callers("segment_indices") | _callers("segment_columns")
    assert to_index and {c for c in to_index if not c.split(".")[1].startswith("read_")} == {
        "network.RoadNetwork"}
    to_id = _callers("segment_ids")
    assert to_id and all(c.split(".")[1].startswith("write_") for c in to_id), to_id


def header(columns) -> bytes:
    return (",".join(name for name, _ in columns) + "\n").encode("utf-8")


def test_write_table_formats_by_declared_type(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, COLUMNS, ([np.int64(3), np.True_], [1, np.float64(0.1)], ["a,b", 7]))
    assert p.read_bytes() == b'id,value,label\r\n3,1.0,"a,b"\r\n1,0.1,7\r\n'
    assert list(zip(*read_table(p, COLUMNS))) == [(3, 1.0, "a,b"), (1, 0.1, "7")]


INT64 = st.integers(-2**63, 2**63 - 1)
INTEGRAL_FLOATS = st.integers(-2**53, 2**53).map(float)
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0])
# Values a writer may hand to each type of column: one scalar at a time,
# or a whole numpy array.
SCALARS = {
    int: st.one_of(INT64, INT64.map(np.int64), st.booleans().map(np.bool_),
                   INTEGRAL_FLOATS.map(np.float64)),
    float: st.one_of(st.floats(), EDGE_FLOATS, st.floats().map(np.float64), INT64,
                     INT64.map(np.int64), st.booleans().map(np.bool_)),
    str: st.one_of(st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\x00")),
                   st.sampled_from([",", '"', "\n", "\r", "", 'a,"b"\r\nc'])),
}
ARRAYS = {
    int: [(INT64, np.int64), (st.booleans(), np.bool_), (INTEGRAL_FLOATS, np.float64)],
    float: [(st.one_of(st.floats(), EDGE_FLOATS), np.float64), (INT64, np.int64),
            (st.booleans(), np.bool_)],
}


@st.composite
def tables(draw):
    """A column spec and one column of values per column, as lists or numpy arrays."""
    n = draw(st.integers(0, 12))
    spec = tuple((f"c{i}", draw(st.sampled_from([int, float, str])))
                 for i in range(draw(st.integers(1, 4))))
    data = []
    for _, kind in spec:
        if kind is not str and draw(st.booleans()):
            values, dtype = draw(st.sampled_from(ARRAYS[kind]))
            data.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
        else:
            data.append(draw(st.lists(SCALARS[kind], min_size=n, max_size=n)))
    return spec, data


@FUZZ_TABLES
@given(table=tables())
@example(table=((("x", float), ("n", int), ("s", str)),
                [[0.1, 1.0, np.float64(0.25), -0.0, 5e-324, 1.7976931348623157e308],
                 np.array([0, -2**63, 2**63 - 1, 1, 0, 7]), [",", '"', "\n", "\r", "", "a"]]))
def test_write_table_bytes_equal_row_writer_and_read_back(tmp_path, table):
    spec, data = table
    columnar, rows = tmp_path / "columnar.csv", tmp_path / "rows.csv"
    write_table(columnar, spec, data)
    write_rows(rows, spec, zip(*data))
    assert columnar.read_bytes() == rows.read_bytes()
    expected = {int: int, float: lambda x: repr(float(x)), str: str}
    got = {int: int, float: repr, str: str}
    for (_, kind), values, back in zip(spec, data, read_table(columnar, spec), strict=True):
        assert [got[kind](x) for x in back] == [expected[kind](x) for x in values]


def test_read_table_checks_header_names_and_order(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("value,id,label\n1.0,3,a\n")
    with pytest.raises(InputDataError, match="expected columns"):
        list(read_table(p, COLUMNS))
    p.write_text("")
    with pytest.raises(InputDataError, match="expected columns"):
        list(read_table(p, COLUMNS))


def test_read_table_names_the_line_of_a_non_utf8_byte(tmp_path):
    p = tmp_path / "t.csv"
    rows = b"".join(b"%d,1.0,%s\n" % (i, "\u00e9".encode() * 40) for i in range(2000))
    p.write_bytes(b"id,value,label\n" + rows + b"7,1.0,\xff\n")
    with pytest.raises(InputDataError, match=r"t\.csv, line 2002: not UTF-8"):
        list(read_table(p, COLUMNS))


@pytest.mark.parametrize("bad", [b"7,x,a", b"7,1.0,\xff", b"7,1.0", b"9223372036854775808,1.0,a"],
                         ids=["field", "not-utf8", "short", "int64"])
def test_read_table_names_a_bad_line_past_the_first_block(tmp_path, bad):
    p = tmp_path / "t.csv"
    rows = [b"%d,%d.5,r%d" % (i, i, i) for i in range(6000)]
    rows[4998] = bad
    p.write_bytes(b"id,value,label\n" + b"\n".join(rows) + b"\n")
    with pytest.raises(InputDataError, match=r"t\.csv, line 5000: "):
        read_table(p, COLUMNS)


def test_read_table_skips_blank_lines_and_names_bad_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("id,value,label\n1,2.0,a\n\n2,x,b\n")
    with pytest.raises(InputDataError, match=r"t\.csv, line 4"):
        read_table(p, COLUMNS)
    p.write_text("id,value,label\n1,2.0,a\n\n2,3.0,b\n")
    assert read_table(p, COLUMNS) == [[1, 2], [2.0, 3.0], ["a", "b"]]


def test_read_table_on_blank_lines_and_mixed_line_endings_equals_row_reader(tmp_path):
    rng = np.random.default_rng(5)
    lines = []
    for i in range(1500):
        lines.append(b'%d,%r,"r%d\r\nx"' % (i, float(rng.normal()), i) if i % 7 else
                     b"%d,%r,r%d" % (i, float(rng.normal()), i))
        lines += [b""] * (300 if i == 600 else int(rng.integers(0, 3)) * int(rng.random() < 0.2))
    endings = rng.choice([b"\n", b"\r\n"], size=len(lines))
    p = tmp_path / "t.csv"
    p.write_bytes(b"id,value,label\r\n" + b"".join(map(bytes.__add__, lines, endings)))
    assert read_table(p, COLUMNS) == [list(col) for col in zip(*read_rows(p, COLUMNS))]


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("body", [b"1\n", b"1,\xff\n"], ids=["truncated", "not-utf8"])
def test_every_csv_reader_rejects_malformed_rows(tmp_path, name, body):
    reader, columns = READERS[name]
    p = tmp_path / f"{name}.csv"
    p.write_bytes(header(columns) + body)
    with pytest.raises(InputDataError, match=rf"{name}\.csv, line 2: "):
        reader(p)


# One valid row, less its segment id, for each reader of a table that
# lists every segment of NET2 (ids 0 and 1) exactly once.
PER_SEGMENT = {"state": "600.0,25.0,0.6", "truth": "25.0,600.0", "estimates": "20.5,3"}


@pytest.mark.parametrize("name", sorted(PER_SEGMENT))
@pytest.mark.parametrize("ids,error", [((0,), "segment 1 missing"),
                                       ((0, 1, 7), "unknown segment id 7")],
                         ids=["missing", "unknown"])
def test_per_segment_readers_reject_missing_and_unknown_segments(tmp_path, name, ids, error):
    reader, columns = READERS[name]
    prefix = "0," if name in ("estimates", "state") else ""
    body = "".join(f"{prefix}{sid},{PER_SEGMENT[name]}\n" for sid in ids)
    p = tmp_path / f"{name}.csv"
    p.write_bytes(header(columns) + body.encode("utf-8"))
    with pytest.raises(InputDataError, match=rf"{name}\.csv.*{error}"):
        reader(p)


# One valid row naming segment 7, which NET2 lacks, for each reader of segment sequences.
UNKNOWN_SEGMENT = {"matched": "1,0,0,0.0\n1,0,7,20.0", "trips": "1,0.0,0/7"}


@pytest.mark.parametrize("name", sorted(UNKNOWN_SEGMENT))
def test_segment_sequence_readers_reject_unknown_segments(tmp_path, name):
    reader, columns = READERS[name]
    p = tmp_path / f"{name}.csv"
    p.write_bytes(header(columns) + UNKNOWN_SEGMENT[name].encode("utf-8") + b"\n")
    with pytest.raises(InputDataError, match=rf"{name}\.csv: unknown segment id 7"):
        reader(p)


# ---------------------------------------------------------------------------
# Mutated inputs: every reader returns or raises InputDataError, nothing else
# ---------------------------------------------------------------------------


# A valid body for each reader, on NET2 (segments 0 and 1 between nodes 0, 1, 2).
VALID = {
    "tazs": "0,0,west\n1,2,east\n",
    "demand": "0,1,30.0\n1,0,12.5\n",
    "voc": "0,secondary,0.5\n1,secondary,0.25\n",
    "matched": "1,0,0,0.0\n1,0,1,20.0\n2,0,1,5.0\n",
    "state": "0,0,600.0,25.0,0.6\n0,1,300.0,21.0,0.3\n",
    "traces": "1,0.0,0.0,0.0005\n1,30.0,0.0,0.002\n",
    "trips": "1,0.0,0/1\n2,10.0,1\n",
    "truth": "0,25.0,600.0\n1,21.0,300.0\n",
    "estimates": "0,0,20.5,3\n0,1,20.5,0\n",
}

# Field values no writer produces: beyond float and int64, not integers, or not numbers.
ODD_FIELDS = ["1e400", "-1e400", "9" * 30, "-" + "9" * 30, "9" * 5000, "1.5", "nan", "inf",
              "-0", "", "1/2", "0/", "\x00", "\u00e9", '"']


@st.composite
def mutated_table(draw, text: bytes) -> bytes:
    """``text`` after one to three truncations, byte flips, swapped, emptied or odd fields."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "swap", "field"]))
        if kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
            continue
        if kind == "flip":
            if text:
                i = draw(st.integers(0, len(text) - 1))
                text = text[:i] + bytes([draw(st.integers(0, 255))]) + text[i + 1:]
            continue
        lines = text.decode("utf-8", "surrogateescape").split("\n")
        rows = [line.split(",") for line in lines]
        fields = rows[draw(st.integers(0, len(rows) - 1))]
        i = draw(st.integers(0, len(fields) - 1))
        if kind == "swap":
            j = draw(st.integers(0, len(fields) - 1))
            fields[i], fields[j] = fields[j], fields[i]
        else:
            fields[i] = draw(st.sampled_from(ODD_FIELDS))
        text = "\n".join(",".join(f) for f in rows).encode("utf-8", "surrogateescape")
    return text


FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_csv_readers_on_mutated_files_return_or_raise_input_data_error(tmp_path, name, data):
    reader, columns = READERS[name]
    p = tmp_path / f"{name}.csv"
    valid = header(columns) + VALID[name].encode("utf-8")
    p.write_bytes(valid)
    reader(p)
    p.write_bytes(data.draw(mutated_table(valid)))
    try:
        reader(p)
    except InputDataError:
        pass


ODD_JSON = ["1e400", "-1e400", "1.5", "9" * 30, "9" * 5000, "-9223372036854775809", "NaN",
            "Infinity", '"1"', "null", "true", "[]", "{}", "-0"]


@st.composite
def mutated_network(draw, doc: dict) -> bytes:
    """The network's JSON with a value replaced, a key dropped or bytes mutated."""
    kind = draw(st.sampled_from(["value", "drop", "bytes"]))
    if kind == "bytes":
        return draw(mutated_table(json.dumps(doc).encode("utf-8")))
    doc = json.loads(json.dumps(doc))
    section = draw(st.sampled_from(["nodes", "segments"]))
    item = draw(st.sampled_from(doc[section]))
    key = draw(st.sampled_from(sorted(item)))
    if kind == "drop":
        del item[key]
        return json.dumps(doc).encode("utf-8")
    item[key] = "@odd@"
    return json.dumps(doc).replace('"@odd@"', draw(st.sampled_from(ODD_JSON))).encode("utf-8")


@FUZZ
@given(data=st.data())
def test_read_network_on_mutated_json_returns_or_raises_input_data_error(tmp_path, data):
    p = tmp_path / "network.json"
    network.write_network(NET2, p)
    doc = json.loads(p.read_text(encoding="utf-8"))
    p.write_bytes(data.draw(mutated_network(doc)))
    try:
        network.read_network(p)
    except InputDataError:
        pass
