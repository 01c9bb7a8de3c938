"""The shared CSV table writer and reader, and every table built on them."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from probeflow import assignment, completion, evaluation, mapmatch, network, odestim
from probeflow import refine, tracegen, ttinfer
from probeflow.errors import InputDataError
from probeflow.network import TimeGrid
from probeflow.tables import read_table, write_table

from conftest import make_corridor_network

COLUMNS = (("id", int), ("value", float), ("label", str))

GRID8 = TimeGrid(interval_seconds=75600, interval_count=8)
NET2 = make_corridor_network(n_segs=2)

# Every CSV reader of the package with the column spec it checks.
READERS = {
    "tazs": (network.read_tazs, network.TAZ_COLUMNS),
    "demand": (assignment.read_demand, assignment.DEMAND_COLUMNS),
    "matrix": (partial(completion.read_matrix, net=NET2, grid=GRID8),
               completion.MATRIX_COLUMNS),
    "completed": (completion.read_completed, completion.COMPLETED_COLUMNS),
    "voc": (evaluation.read_voc, evaluation.VOC_COLUMNS),
    "matched": (mapmatch.read_matched, mapmatch.MATCHED_COLUMNS),
    "state": (partial(odestim.read_state, net=NET2), odestim.STATE_COLUMNS),
    "objective": (odestim.read_objective_trace, odestim.OBJECTIVE_COLUMNS),
    "diagnostics": (refine.read_diagnostics, refine.DIAGNOSTICS_COLUMNS),
    "traces": (tracegen.read_traces, tracegen.TRACE_COLUMNS),
    "trips": (tracegen.read_trips, tracegen.TRIP_COLUMNS),
    "truth": (partial(tracegen.read_truth, net=NET2), tracegen.TRUTH_COLUMNS),
    "estimates": (partial(ttinfer.read_estimates, net=NET2), ttinfer.ESTIMATE_COLUMNS),
}


def header(columns) -> bytes:
    return (",".join(name for name, _ in columns) + "\n").encode("utf-8")


def test_write_table_formats_by_declared_type(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, COLUMNS, [(np.int64(3), 1, "a,b"), (np.True_, np.float64(0.1), 7)])
    assert p.read_bytes() == b'id,value,label\r\n3,1.0,"a,b"\r\n1,0.1,7\r\n'
    assert list(read_table(p, COLUMNS)) == [(3, 1.0, "a,b"), (1, 0.1, "7")]


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


def test_read_table_skips_blank_lines_and_names_bad_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("id,value,label\n1,2.0,a\n\n2,x,b\n")
    rows = read_table(p, COLUMNS)
    assert next(rows) == (1, 2.0, "a")
    with pytest.raises(InputDataError, match=r"t\.csv, line 4"):
        next(rows)


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
    prefix = "0," if name == "estimates" else ""
    body = "".join(f"{prefix}{sid},{PER_SEGMENT[name]}\n" for sid in ids)
    p = tmp_path / f"{name}.csv"
    p.write_bytes(header(columns) + body.encode("utf-8"))
    with pytest.raises(InputDataError, match=rf"{name}\.csv.*{error}"):
        reader(p)
