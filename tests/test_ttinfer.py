"""Travel-time inference: system assembly, bounded ridge solves, KKT checks."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeflow.errors import InputDataError
from probeflow.network import TimeGrid
from probeflow.params import InferParams
from probeflow.ttinfer import (
    SegmentTimeEstimate,
    build_system,
    infer_times,
    observations_from_matches,
    read_estimates,
    residual_sq,
    write_estimates,
)

from conftest import (
    dict_observations,
    dict_system,
    interval_observations,
    kkt_max_violation,
    make_corridor_network,
    pieces_table,
)


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------


def test_build_system_counts_and_columns():
    net = make_corridor_network(n_segs=3)
    obs = interval_observations([({1: 1, 2: 1}, 50.0), ({2: 2}, 70.0)])
    A, b, columns = build_system(obs, net)
    assert columns.tolist() == [1, 2]
    assert A.tolist() == [[1.0, 1.0], [0.0, 2.0]]
    assert b.tolist() == [50.0, 70.0]
    # Support counts rows, not traversals: the loop row {2: 2} adds one.
    assert infer_times(obs, net, net.seg_fft).support.tolist() == [0, 1, 2]


def test_build_system_rejects_bad_rows():
    net = make_corridor_network(n_segs=2)
    with pytest.raises(InputDataError):
        build_system(interval_observations([({0: 1}, -5.0)]), net)
    with pytest.raises(InputDataError):
        build_system(interval_observations([({42: 1}, 10.0)]), net)


def test_observations_from_matches_midpoint_and_skips():
    grid = TimeGrid()
    matches = pieces_table([
        # Covers segments 0 and 1 between entering 0 and entering 2.
        (1, [0, 1, 2], [10.0, 30.0, 50.0]),
        # Midpoint lands in the second hour.
        (2, [3, 4], [3590.0, 3710.0]),
        # Single segment: no duration information.
        (3, [5], [100.0]),
        # Zero-length observation window.
        (4, [0, 1], [5.0, 5.0]),
    ])
    by_interval = observations_from_matches(matches, grid)
    assert set(by_interval) == {0, 1}
    first, second = by_interval[0], by_interval[1]
    assert (first.interval_index, second.interval_index) == (0, 1)
    assert first.bounds.tolist() == [0, 2] and first.segment.tolist() == [0, 1]
    assert first.duration.tolist() == [40.0]
    assert second.bounds.tolist() == [0, 1] and second.segment.tolist() == [3]
    assert second.duration.tolist() == [120.0]


def test_observations_from_matches_counts_loops():
    grid = TimeGrid()
    mp = pieces_table([(1, [7, 8, 7, 9], [0.0, 10.0, 20.0, 30.0])])
    obs = observations_from_matches(mp, grid)[0]
    assert obs.bounds.tolist() == [0, 3] and obs.segment.tolist() == [7, 8, 7]
    assert obs.duration.tolist() == [30.0]


# One piece: its vehicle's serial, segments (with loops) and entry-time steps,
# from a start that may sit on an interval boundary. Zero steps make
# zero-length windows, and long steps carry rows into later intervals.
_piece = st.tuples(
    st.integers(0, 3),
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
    st.one_of(st.sampled_from([0.0, 1800.0, 3600.0, 7199.5]), st.floats(0.0, 4 * 3600.0)),
    st.lists(st.sampled_from([0.0, 0.25, 30.0, 1800.0, 3600.0]), min_size=5, max_size=5),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_piece, max_size=12))
def test_observation_arrays_equal_dict_rows(drawn):
    """The array rows give the very A, b and columns of the per-piece dict rows."""
    grid, net = TimeGrid(), make_corridor_network(n_segs=6)
    pieces = pieces_table([
        (vehicle, segments, np.cumsum([start] + steps[:len(segments) - 1]).tolist())
        for vehicle, segments, start, steps in sorted(drawn, key=lambda p: p[0])])
    expected = dict_observations(pieces, grid)
    by_interval = observations_from_matches(pieces, grid)
    assert sorted(by_interval) == sorted(expected)
    for iv, rows in expected.items():
        assert by_interval[iv].interval_index == iv
        A, b, columns = build_system(by_interval[iv], net)
        A_ref, b_ref, columns_ref = dict_system(rows, net)
        assert columns.tolist() == columns_ref
        assert A.shape == A_ref.shape and A.tobytes() == A_ref.tobytes()
        assert b.shape == b_ref.shape and b.tobytes() == b_ref.tobytes()


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def test_two_by_two_hand_solution():
    net = make_corridor_network(n_segs=2, length=200.0, speed=20.0)  # fft = 10 s
    obs = interval_observations([({0: 1, 1: 1}, 50.0), ({0: 1}, 20.0)])
    prior = np.array([10.0, 10.0])
    est = infer_times(obs, net, prior, InferParams(lam=0.0))
    assert abs(est.time[0] - 20.0) < 1e-6
    assert abs(est.time[1] - 30.0) < 1e-6
    assert est.support.tolist() == [2, 1]


def test_unsupported_segments_keep_prior():
    net = make_corridor_network(n_segs=3, speed=20.0)
    obs = interval_observations([({0: 1}, 25.0)])
    prior = np.array([10.0, 17.5, 13.25])
    est = infer_times(obs, net, prior, InferParams(lam=0.05))
    assert est.time[1] == 17.5
    assert est.time[2] == 13.25
    assert est.support[1] == 0 and est.support[2] == 0


def test_empty_interval_returns_prior():
    net = make_corridor_network(n_segs=2)
    prior = np.array([21.0, 22.0])
    est = infer_times(interval_observations([]), net, prior)
    assert est.time.tolist() == prior.tolist()
    assert est.support.tolist() == [0, 0]


def test_lower_bound_is_respected():
    net = make_corridor_network(n_segs=1, length=200.0, speed=10.0)  # fft = 20 s
    # The observation says 5 s, far below free flow.
    obs = interval_observations([({0: 1}, 5.0)])
    est = infer_times(obs, net, np.array([20.0]), InferParams(lam=0.05))
    assert est.time[0] == 20.0


def test_ridge_pulls_toward_prior():
    net = make_corridor_network(n_segs=1, length=200.0, speed=20.0)  # fft = 10 s
    obs = interval_observations([({0: 1}, 40.0)])
    # lam=1 with prior 20: minimize (x-40)^2 + (x-20)^2 -> x = 30.
    est = infer_times(obs, net, np.array([20.0]), InferParams(lam=1.0))
    assert abs(est.time[0] - 30.0) < 1e-6


def random_instance(rng, n_segs=4, n_rows=6):
    net = make_corridor_network(n_segs=n_segs, length=200.0, speed=20.0)  # fft = 10 s
    truth = 10.0 + rng.uniform(0.0, 30.0, n_segs)
    rows = []
    for _ in range(n_rows):
        counts = rng.integers(0, 3, n_segs)
        if not counts.any():
            counts[int(rng.integers(0, n_segs))] = 1
        dur = float(counts @ truth + rng.normal(0.0, 2.0))
        rows.append(({j: int(c) for j, c in enumerate(counts) if c}, max(dur, 1.0)))
    prior = np.array([float(10.0 + rng.uniform(0.0, 10.0)) for _ in range(n_segs)])
    return net, interval_observations(rows), prior


def test_kkt_holds_on_randomized_instances():
    rng = np.random.default_rng(77)
    tol = 1e-8
    for _ in range(100):
        net, obs, prior = random_instance(rng)
        est = infer_times(obs, net, prior, InferParams(lam=0.05))
        A, b, columns = build_system(obs, net)
        x = np.array([est.time[s] for s in columns])
        lower = np.array([net.segments[s].free_flow_time for s in columns])
        p = np.array([prior[s] for s in columns])
        assert np.all(x >= lower - 1e-12)
        assert kkt_max_violation(A, b, 0.05, p, lower, x) <= tol * (1.0 + np.linalg.norm(b))


def test_objective_never_worse_than_prior():
    rng = np.random.default_rng(5)
    for _ in range(25):
        net, obs, prior = random_instance(rng)
        est = infer_times(obs, net, prior, InferParams(lam=0.05))
        A, b, columns = build_system(obs, net)
        x = np.array([est.time[s] for s in columns])
        p = np.array([prior[s] for s in columns])

        def total(v):
            r = A @ v - b
            return float(r @ r + 0.05 * float((v - p) @ (v - p)))

        assert total(x) <= total(np.maximum(p, [net.segments[s].free_flow_time
                                                for s in columns])) + 1e-9


def test_grid_search_oracle_equivalence():
    # Dense enumeration over the feasible box; the solver must land within
    # ten grid steps of the best grid point.
    rng = np.random.default_rng(13)
    step = 0.25
    for _ in range(3):
        net, obs, prior = random_instance(rng, n_segs=3, n_rows=5)
        est = infer_times(obs, net, prior, InferParams(lam=0.05))
        A, b, columns = build_system(obs, net)
        p = np.array([prior[s] for s in columns])
        axis = np.arange(10.0, 45.0 + step / 2, step)
        grids = np.meshgrid(*[axis] * len(columns), indexing="ij")
        X = np.stack([g.ravel() for g in grids], axis=1)
        resid = X @ A.T - b
        obj = (resid * resid).sum(axis=1) + 0.05 * ((X - p) ** 2).sum(axis=1)
        best = X[int(np.argmin(obj))]
        x = np.array([est.time[s] for s in columns])
        assert np.all(np.abs(x - best) <= 10.0 * step)


def _assert_kkt(obs, net, prior, est, lam):
    A, b, columns = build_system(obs, net)
    x = est.time[columns]
    lower = net.seg_fft[columns]
    assert np.all(x >= lower)
    viol = kkt_max_violation(A, b, lam, prior[columns], lower, x)
    assert viol <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_rank_deficient_without_ridge():
    # Segments 0 and 1 are always traversed together, so with lam = 0 only
    # their sum is determined; any split satisfying the optimality
    # conditions will do.
    net = make_corridor_network(n_segs=3, length=200.0, speed=20.0)  # fft = 10 s
    obs = interval_observations([({0: 1, 1: 1}, 50.0), ({0: 1, 1: 1}, 54.0), ({2: 1}, 30.0)])
    prior = np.full(3, 10.0)
    est = infer_times(obs, net, prior, InferParams(lam=0.0))
    _assert_kkt(obs, net, prior, est, 0.0)
    assert abs(est.time[0] + est.time[1] - 52.0) < 1e-9
    assert abs(est.time[2] - 30.0) < 1e-9


def test_column_enters_then_leaves_the_free_set():
    # In y = x - 10 both segments have descent, so both enter; the fit
    # over both wants y0 = -2.5, so segment 0 returns to its bound. Only
    # segment 1 stays free, at the mean of c = b - A*10 = (0, 15, 5).
    net = make_corridor_network(n_segs=2, length=200.0, speed=20.0)  # fft = 10 s
    obs = interval_observations([({0: 1, 1: 1}, 20.0), ({0: 1, 1: 1}, 35.0), ({0: 2, 1: 1}, 35.0)])
    prior = np.full(2, 10.0)
    est = infer_times(obs, net, prior, InferParams(lam=0.0))
    _assert_kkt(obs, net, prior, est, 0.0)
    assert est.time[0] == 10.0
    assert abs(est.time[1] - 50.0 / 3.0) < 1e-9


def test_lawson_hanson_steps_back_where_block_swaps_stall():
    # Four segments, two rows, lam = 0: every column has descent at the
    # bound, and the block swaps stall on this singular system, so the
    # Lawson-Hanson finish must step back. Every segment but 1 also adds
    # to row 0, which is already 5 s over at free flow, so the optimum is
    # y = x - 10 = (0, 17.5, 0, 0): row 1 exact, row 0 left 5 s over.
    net = make_corridor_network(n_segs=4, length=200.0, speed=20.0)  # fft = 10 s
    obs = interval_observations([({0: 2, 2: 1, 3: 1}, 35.0), ({0: 1, 1: 2, 2: 2, 3: 1}, 95.0)])
    prior = np.full(4, 10.0)
    est = infer_times(obs, net, prior, InferParams(lam=0.0))
    _assert_kkt(obs, net, prior, est, 0.0)
    assert np.allclose(est.time, [10.0, 27.5, 10.0, 10.0], rtol=0.0, atol=1e-9)


def test_residual_sq_matches_manual():
    net = make_corridor_network(n_segs=2, speed=20.0)
    obs = interval_observations([({0: 1, 1: 1}, 50.0), ({0: 1}, 18.0)])
    times = np.array([20.0, 30.0])
    assert abs(residual_sq(times, obs, net) - 4.0) < 1e-12
    assert residual_sq(times, interval_observations([]), net) == 0.0


def test_infer_times_validates_inputs():
    net = make_corridor_network(n_segs=2, length=200.0, speed=10.0)  # fft = 20 s
    obs = interval_observations([({0: 1}, 30.0)])
    with pytest.raises(InputDataError):
        infer_times(obs, net, np.array([5.0, 20.0]))  # prior below free flow
    with pytest.raises(InputDataError):
        infer_times(obs, net, np.array([20.0, 20.0]), InferParams(lam=-1.0))


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def test_estimates_csv_round_trip(tmp_path):
    net = make_corridor_network(n_segs=2)
    ests = [
        SegmentTimeEstimate(time=np.array([20.5, 31.25]), support=np.array([3, 0]),
                            interval_index=4),
        SegmentTimeEstimate(time=np.array([19.0, 33.0]), support=np.array([1, 2]),
                            interval_index=2),
    ]
    p = tmp_path / "estimates.csv"
    write_estimates(ests, p, net)
    back = read_estimates(p, net, TimeGrid())
    assert set(back) == {2, 4}
    assert back[4].time.tolist() == [20.5, 31.25]
    assert back[4].support.tolist() == [3, 0]
    assert back[2].time[1] == 33.0
    first = p.read_text().splitlines()
    assert first[0] == "interval,segment_id,time_s,support"
    assert first[1].startswith("2,")  # sorted by interval


def test_read_estimates_rejects_bad_header(tmp_path):
    p = tmp_path / "estimates.csv"
    p.write_text("interval,segment,time_s,support\n0,0,1.0,1\n")
    with pytest.raises(InputDataError):
        read_estimates(p, make_corridor_network(n_segs=1), TimeGrid())
