"""Low-rank completion of the weekly matrix and the LAPACK SVD it rests on."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probeflow.completion import (
    COMPLETED_COLUMNS,
    MATRIX_COLUMNS,
    CompletionParams,
    TravelTimeMatrix,
    assemble_matrix,
    complete,
    default_threshold,
    write_completed,
    write_matrix,
)
from probeflow.errors import InputDataError
from probeflow.network import TimeGrid
from probeflow.tables import read_table

from conftest import make_corridor_network

GRID30 = TimeGrid(interval_seconds=20160, interval_count=30)
GRID12 = TimeGrid(interval_seconds=50400, interval_count=12)
GRID8 = TimeGrid(interval_seconds=75600, interval_count=8)
GRID6 = TimeGrid(interval_seconds=100800, interval_count=6)
WEEK = TimeGrid()


def low_rank_instance(n, m, rank, frac, seed, grid):
    """Positive rank-r truth with a seeded mask observing every row."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(1.0, 2.0, size=(n, rank))
    v = rng.uniform(20.0, 60.0, size=(m, rank))
    truth = u @ v.T
    mask = rng.random((n, m)) < frac
    for i in range(n):
        if not mask[i].any():
            mask[i, rng.integers(0, m)] = True
    mat = TravelTimeMatrix(
        values=np.where(mask, truth, 0.0),
        mask=mask,
        free_flow=np.full(n, 1.0),
        grid=grid,
    )
    return truth, mat


def rel_error(got: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(got - truth) / np.linalg.norm(truth))


# ---------------------------------------------------------------------------
# The thin LAPACK SVD that complete() calls
# ---------------------------------------------------------------------------


def svd(a: np.ndarray):
    return np.linalg.svd(a, full_matrices=False)


def test_svd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(23)
    for shape in [(30, 20), (20, 30), (9, 9)]:
        a = rng.standard_normal(shape)
        u, s, vt = svd(a)
        k = min(shape)
        assert np.linalg.norm(u @ np.diag(s) @ vt - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(u.T @ u - np.eye(k)) <= 1e-10
        assert np.linalg.norm(vt @ vt.T - np.eye(k)) <= 1e-10


def test_svd_rank_deficient():
    x = np.outer([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [4.0, 3.0, 2.0, 1.0])
    u, s, vt = svd(x)
    assert s[0] > 1.0
    assert np.all(s[1:] <= 1e-12 * s[0])
    assert np.linalg.norm(u @ np.diag(s) @ vt - x) <= 1e-12 * s[0]


def test_svd_determinism():
    a = np.random.default_rng(9).standard_normal((40, 30))
    first = svd(a)
    second = svd(a)
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(1, 12), rank=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_svd_properties(n, m, rank, seed):
    # Tall, wide and square shapes; rank below min(n, m) makes the matrix
    # rank-deficient (rank 0 is the zero matrix).
    rng = np.random.default_rng(seed)
    r = min(rank, n, m)
    a = rng.standard_normal((n, r)) @ rng.standard_normal((r, m)) * 10.0
    u, s, vt = svd(a)
    k = min(n, m)
    assert u.shape == (n, k) and s.shape == (k,) and vt.shape == (k, m)
    scale = max(float(np.linalg.norm(a)), 1.0)
    assert np.linalg.norm((u * s) @ vt - a) <= 1e-12 * scale
    assert np.linalg.norm(u.T @ u - np.eye(k)) <= 1e-10
    assert np.linalg.norm(vt @ vt.T - np.eye(k)) <= 1e-10
    # complete() keeps the leading singular values, so their order matters.
    assert np.all(np.diff(s) <= 0.0)
    # Compared squared: the oracle's eigenvalues carry about eps * s[0]**2
    # of rounding, which a square root would inflate to sqrt(eps) * s[0]
    # on the near-zero singular values of a rank-deficient matrix.
    eig = np.linalg.eigvalsh(a.T @ a) if n >= m else np.linalg.eigvalsh(a @ a.T)
    assert np.max(np.abs(s**2 - eig[::-1])) <= 1e-10 * max(eig[-1], 1.0)


# ---------------------------------------------------------------------------
# Completion
# ---------------------------------------------------------------------------


def test_fully_observed_matrix_returned_unchanged():
    truth, mat = low_rank_instance(6, 8, 2, 1.1, 3, GRID8)
    assert mat.mask.all()
    res = complete(mat, CompletionParams(svt_threshold=10.0))
    assert np.array_equal(res.matrix.values, mat.values)
    assert res.iterations == 1
    assert not res.imputed.any()
    assert res.fallback_segments == []


def test_rank1_recovery():
    truth, mat = low_rank_instance(20, 30, 1, 0.6, 42, GRID30)
    res = complete(mat, CompletionParams(svt_threshold=5.0))
    assert rel_error(res.matrix.values, truth) < 1e-2


def test_rank2_week_recovery():
    truth, mat = low_rank_instance(50, 168, 2, 0.5, 11, WEEK)
    res = complete(mat, CompletionParams(svt_threshold=20.0))
    assert rel_error(res.matrix.values, truth) < 5e-2


def test_observed_entries_bit_equal_and_bounded():
    truth, mat = low_rank_instance(15, 12, 2, 0.4, 8, GRID12)
    original = mat.values.copy()
    res = complete(mat, CompletionParams(svt_threshold=15.0))
    out = res.matrix.values
    assert np.array_equal(out[mat.mask], original[mat.mask])
    assert np.all(out >= mat.free_flow[:, None])
    assert np.array_equal(res.imputed, ~mat.mask)
    assert res.matrix.mask.all()


def test_floor_clamp_pins_undershoot():
    # Every observation sits exactly at the bound; the low-rank fit of the
    # missing column lands below it and the clamp brings it back.
    mask = np.ones((5, 6), dtype=bool)
    mask[:, 3] = False
    values = np.where(mask, 50.0, 0.0)
    mat = TravelTimeMatrix(values=values, mask=mask, free_flow=np.full(5, 50.0), grid=GRID6)
    res = complete(mat, CompletionParams(svt_threshold=10.0))
    assert np.all(res.matrix.values == 50.0)


def test_all_missing_row_falls_back_to_free_flow():
    rng = np.random.default_rng(4)
    values = np.outer(rng.uniform(1.0, 2.0, 3), rng.uniform(30.0, 60.0, 6))
    mask = np.ones((3, 6), dtype=bool)
    mask[1] = False
    fft = np.array([2.0, 7.0, 2.0])
    mat = TravelTimeMatrix(values=np.where(mask, values, 0.0), mask=mask,
                           free_flow=fft, grid=GRID6)
    res = complete(mat, CompletionParams(svt_threshold=5.0))
    assert np.all(res.matrix.values[1] == 7.0)
    assert res.fallback_segments == [1]
    assert res.imputed[1].all()
    assert np.array_equal(res.matrix.values[0], values[0])
    assert np.array_equal(res.matrix.values[2], values[2])


def test_nothing_observed_at_all():
    mask = np.zeros((3, 6), dtype=bool)
    mat = TravelTimeMatrix(values=np.zeros((3, 6)), mask=mask,
                           free_flow=np.array([4.0, 5.0, 6.0]), grid=GRID6)
    res = complete(mat)
    assert res.iterations == 0
    assert res.fallback_segments == [0, 1, 2]
    assert np.array_equal(res.matrix.values, np.array([[4.0] * 6, [5.0] * 6, [6.0] * 6]))


def test_complete_determinism():
    truth, mat_a = low_rank_instance(20, 30, 2, 0.5, 13, GRID30)
    _, mat_b = low_rank_instance(20, 30, 2, 0.5, 13, GRID30)
    res_a = complete(mat_a, CompletionParams(svt_threshold=8.0))
    res_b = complete(mat_b, CompletionParams(svt_threshold=8.0))
    assert np.array_equal(res_a.matrix.values, res_b.matrix.values)
    assert res_a.iterations == res_b.iterations


def test_complete_ignores_singular_vector_signs(monkeypatch):
    # A step forms u_k * (s_k - tau) * v_k over the kept pairs, so flipping
    # the signs of a singular pair changes no bit of the result.
    _, mat = low_rank_instance(30, 30, 3, 0.4, 29, GRID30)
    want = complete(mat, CompletionParams(svt_threshold=10.0))
    lapack = np.linalg.svd

    def flipped(a, *args, **kwargs):
        u, s, vt = lapack(a, *args, **kwargs)
        flip = np.arange(len(s)) % 2 == 0
        u[:, flip] = -u[:, flip]
        vt[flip] = -vt[flip]
        return u, s, vt

    monkeypatch.setattr(np.linalg, "svd", flipped)
    got = complete(mat, CompletionParams(svt_threshold=10.0))
    assert got.iterations == want.iterations > 1
    assert np.array_equal(got.matrix.values, want.matrix.values)


def test_complete_repeat_call_bit_equal():
    _, mat = low_rank_instance(40, 168, 3, 0.3, 19, WEEK)
    first = complete(mat, CompletionParams(svt_threshold=30.0))
    second = complete(mat, CompletionParams(svt_threshold=30.0))
    assert np.array_equal(first.matrix.values, second.matrix.values)
    assert first.iterations == second.iterations
    assert first.rel_change == second.rel_change


def test_fallback_rows_log_one_warning(caplog):
    n = 8
    mask = np.zeros((n, 6), dtype=bool)
    mask[0] = mask[3] = True
    mat = TravelTimeMatrix(values=np.where(mask, 40.0, 0.0), mask=mask,
                           free_flow=np.full(n, 20.0), grid=GRID6)
    with caplog.at_level(logging.INFO, logger="probeflow.completion"):
        res = complete(mat, CompletionParams(svt_threshold=5.0))
    assert res.fallback_segments == [1, 2, 4, 5, 6, 7]
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].getMessage() == (
        "6 segments have no observed interval, filled with free flow "
        "(first rows: 1, 2, 4, 5, 6)")
    infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(infos) == 1
    assert infos[0].startswith(f"completion: {res.iterations} iterations")


def test_default_threshold_value_and_run():
    values = np.array([[10.0, 0.0], [30.0, 40.0]])
    mask = np.array([[True, False], [True, True]])
    assert default_threshold(values, mask) == 0.5 * 2.0 * 30.0

    truth, mat = low_rank_instance(12, 8, 1, 0.7, 21, GRID8)
    original = mat.values.copy()
    res = complete(mat)
    assert res.iterations >= 1
    assert np.array_equal(res.matrix.values[mat.mask], original[mat.mask])
    assert np.all(res.matrix.values >= mat.free_flow[:, None])


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.tuples(st.sampled_from([1.0, 2.5, 7.0]) | st.floats(1e-3, 1e6),
                                st.booleans()), min_size=1, max_size=36),
       columns=st.sampled_from([1, 2, 3]))
@example(cells=[(3.0, True), (1.0, True), (2.0, True)], columns=1)
@example(cells=[(4.0, True), (1.0, True), (9.0, False), (2.0, True), (3.0, True), (5.0, False)],
         columns=2)
@example(cells=[(2.5, True), (7.0, True), (2.5, True), (1.0, True), (2.5, True), (2.5, False)],
         columns=3)
def test_default_threshold_equals_np_median_form(cells, columns):
    """Bit for bit, on odd and even counts of observed entries and on tied values.

    The first cell is always observed; cells past the last full row of
    ``columns`` are dropped.
    """
    rows = max(len(cells) // columns, 1)
    cells = (cells * columns)[:rows * columns]
    values = np.array([v for v, _ in cells]).reshape(rows, columns)
    mask = np.array([k == 0 or seen for k, (_, seen) in enumerate(cells)]).reshape(rows, columns)
    want = 0.5 * math.sqrt(values.size) * float(np.median(values[mask]))
    assert default_threshold(values, mask) == want


def test_complete_parameter_validation():
    for kwargs in [dict(svt_threshold=0.0), dict(svt_threshold=-1.0),
                   dict(svt_threshold=float("inf")), dict(svt_threshold=float("nan"))]:
        with pytest.raises(InputDataError):
            CompletionParams(**kwargs)


def test_matrix_type_validation():
    ok = dict(values=np.full((2, 6), 30.0), mask=np.ones((2, 6), dtype=bool),
              free_flow=np.array([10.0, 10.0]), grid=GRID6)
    TravelTimeMatrix(**ok)
    bad = [
        dict(ok, mask=np.ones((2, 5), dtype=bool)),
        dict(ok, free_flow=np.array([10.0])),
        dict(ok, free_flow=np.array([10.0, -1.0])),
        dict(ok, values=np.full((2, 6), np.nan)),
        dict(ok, values=np.full((2, 6), 5.0)),  # observed below free flow
        dict(ok, grid=GRID8),
    ]
    for kwargs in bad:
        with pytest.raises(InputDataError):
            TravelTimeMatrix(**kwargs)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def test_assemble_matrix_basic():
    net = make_corridor_network(n_segs=3)
    times = {0: np.array([25.0, 20.0, 20.0]), 5: np.array([20.0, 20.0, 30.0])}
    support = {0: np.array([1, 1, 0]), 5: np.array([0, 0, 1])}
    mat = assemble_matrix(times, net, GRID8, support_by_interval=support)
    assert mat.values.shape == (3, 8)
    assert np.array_equal(mat.free_flow, np.full(3, 20.0))
    assert mat.values[0, 0] == 25.0 and mat.mask[0, 0]
    assert mat.values[1, 0] == 20.0 and mat.mask[1, 0]
    assert mat.values[2, 5] == 30.0 and mat.mask[2, 5]
    assert mat.mask.sum() == 3
    assert mat.values[0, 1] == 0.0


def test_assemble_matrix_support_filter():
    net = make_corridor_network(n_segs=2)
    times = {0: np.array([25.0, 26.0])}
    support = {0: np.array([3, 0])}
    mat = assemble_matrix(times, net, GRID8, support_by_interval=support)
    assert mat.mask[0, 0]
    assert not mat.mask[1, 0]


def test_assemble_matrix_snaps_rounding_dust():
    net = make_corridor_network(n_segs=1)
    mat = assemble_matrix({0: np.array([20.0 - 1e-9])}, net, GRID8)
    assert mat.values[0, 0] == 20.0
    assert mat.mask[0, 0]


def test_assemble_matrix_rejects_bad_input():
    net = make_corridor_network(n_segs=2)
    with pytest.raises(InputDataError):
        assemble_matrix({}, net, GRID8)
    with pytest.raises(InputDataError):
        assemble_matrix({0: np.array([20.0])}, net, GRID8)
    with pytest.raises(InputDataError):
        assemble_matrix({8: np.array([20.0, 20.0])}, net, GRID8)
    with pytest.raises(InputDataError):
        assemble_matrix({0: np.array([float("nan"), 20.0])}, net, GRID8)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def test_matrix_csv_round_trip(tmp_path):
    net = make_corridor_network(n_segs=3)
    mat = assemble_matrix({0: np.array([25.25, 20.0, 20.0]), 5: np.array([20.0, 20.0, 30.125])},
                          net, GRID8,
                          support_by_interval={0: np.array([1, 1, 0]), 5: np.array([0, 0, 1])})
    p = tmp_path / "matrix.csv"
    write_matrix(mat, p, net)
    assert p.read_text().splitlines()[0] == "segment_id,interval,time_s,observed"
    assert list(zip(*read_table(p, MATRIX_COLUMNS))) == [
        (sid, iv, mat.values[i, iv], int(mat.mask[i, iv]))
        for i, sid in enumerate(net.segment_ids()) for iv in range(GRID8.interval_count)]


def test_completed_csv_round_trip(tmp_path):
    net = make_corridor_network(n_segs=2)
    mat = assemble_matrix({0: np.array([25.0, 26.0]), 3: np.array([27.0, 20.0])}, net, GRID8,
                          support_by_interval={0: np.array([1, 1]), 3: np.array([1, 0])})
    res = complete(mat, CompletionParams(svt_threshold=5.0))
    p = tmp_path / "completed.csv"
    write_completed(res, p, net)
    assert p.read_text().splitlines()[0] == "segment_id,interval,time_s,imputed"
    rows = list(zip(*read_table(p, COMPLETED_COLUMNS)))
    assert rows == [(sid, iv, res.matrix.values[i, iv], int(res.imputed[i, iv]))
                    for i, sid in enumerate(net.segment_ids())
                    for iv in range(GRID8.interval_count)]
    times = {(sid, iv): t for sid, iv, t, _ in rows}
    imputed = {(sid, iv) for sid, iv, _, flag in rows if flag}
    assert {iv for _, iv in times} == set(range(8))
    assert (times[0, 0], times[1, 0]) == (25.0, 26.0)
    assert (1, 3) in imputed and (0, 3) not in imputed
    assert len(imputed) == int(res.imputed.sum())


def test_csv_readers_reject_bad_header(tmp_path):
    net = make_corridor_network(n_segs=1)
    p = tmp_path / "bad.csv"
    p.write_text("wrong,header\n1,2\n")
    with pytest.raises(InputDataError):
        list(zip(*read_table(p, MATRIX_COLUMNS)))
    with pytest.raises(InputDataError):
        list(zip(*read_table(p, COMPLETED_COLUMNS)))