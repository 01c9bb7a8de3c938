"""Refinement loop: termination, monotone invariants, route correction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeflow import refine as refine_module
from probeflow.errors import InputDataError
from probeflow.mapmatch import match_traces
from probeflow.network import Router, TimeGrid
from probeflow.params import ProbeConfig, RefineParams
from probeflow.refine import (
    DIAGNOSTICS_COLUMNS,
    IterationRecord,
    RefinementDiagnostics,
    refine,
    write_diagnostics,
)
from probeflow.tables import read_table
from probeflow.ttinfer import infer_times, observations_from_matches, residual_sq

from conftest import (
    concat_fixes,
    decoded_pieces,
    make_corridor_network,
    make_two_route_fixture,
    piece_list,
    pieces_table,
    probe,
    score_assignment,
)


def congested_corridor(n_traces=4, n_segs=4):
    """Corridor where true times are double free flow; paths are forced."""
    net = make_corridor_network(n_segs=n_segs, length=200.0, speed=10.0)  # fft 20 s
    cfg = ProbeConfig(sampling_period=20.0, gps_sigma=0.0)
    trips = [(v, 30.0 * v, range(n_segs)) for v in range(n_traces)]
    return net, probe(net, np.full(net.n_segments, 40.0), trips, cfg)[1]


# ---------------------------------------------------------------------------
# Termination
# ---------------------------------------------------------------------------


def test_fixed_point_stops_after_unchanged_rematch():
    net, traces = congested_corridor()
    pieces, estimates, diag = refine(traces, net, TimeGrid())
    # Iteration 0 moves times a lot; iteration 1 rematches identical paths
    # (a corridor offers no alternative) and stops there.
    assert len(diag) == 2
    assert diag.records[0].changed_paths == len(pieces.log_score)
    assert diag.records[1].changed_paths == 0
    assert diag.records[1].max_rel_change == 0.0
    assert diag.records[1].residual == diag.records[0].residual
    assert 0 in estimates
    for sid in range(net.n_segments - 1):
        assert abs(estimates[0].time[sid] - 40.0) < 2.0


def test_small_update_stops_on_tolerance():
    # Truth at free flow: iteration 0 infers times that barely move.
    net = make_corridor_network(n_segs=3, length=200.0, speed=10.0)
    cfg = ProbeConfig(sampling_period=15.0, gps_sigma=0.0)
    _, traces = probe(net, net.seg_fft, [(v, 10.0 * v, [0, 1, 2]) for v in range(3)], cfg)
    _, _, diag = refine(traces, net, TimeGrid())
    assert len(diag) == 1
    assert diag.records[0].max_rel_change < 1e-3


def test_max_iters_bounds_the_loop():
    fx = make_two_route_fixture()
    _, _, diag = refine(fx.traces, fx.net, fx.grid,
                        params=RefineParams(max_iters=2, stop_tol=1e-12))
    assert len(diag) <= 2


def test_single_iteration_equals_sequential_pipeline():
    fx = make_two_route_fixture()
    grid = fx.grid
    pieces, estimates, diag = refine(fx.traces, fx.net, grid, params=RefineParams(max_iters=1))
    assert len(diag) == 1

    fft = fx.net.seg_fft
    manual_pieces = match_traces(fx.net, fx.traces, [Router(fx.net, fft)] * len(fx.traces.vehicle))
    assert [(m.vehicle_id, m.piece, m.segments) for m in piece_list(manual_pieces)] == [
        (m.vehicle_id, m.piece, m.segments) for m in piece_list(pieces)
    ]
    by_interval = observations_from_matches(manual_pieces, grid)
    for iv, obs in by_interval.items():
        manual = infer_times(obs, fx.net, fft)
        assert manual.time.tolist() == estimates[iv].time.tolist()
        assert manual.support.tolist() == estimates[iv].support.tolist()


# ---------------------------------------------------------------------------
# Route correction on the two-route fixture
# ---------------------------------------------------------------------------


def ambiguous_assignments(pieces, fx):
    out = {}
    for mp in piece_list(pieces):
        if mp.vehicle_id in fx.ambiguous_ids:
            out[mp.vehicle_id] = mp.segments
    return out


def test_coarse_pass_picks_wrong_route_for_ambiguous():
    fx = make_two_route_fixture()
    pieces, _, _ = refine(fx.traces, fx.net, fx.grid, params=RefineParams(max_iters=1))
    wrong = ambiguous_assignments(pieces, fx)
    assert len(wrong) == len(fx.ambiguous_ids)
    for vid, segs in wrong.items():
        assert segs == [0, 1]
        assert fx.truth_paths[vid] == [2, 3]


def test_refinement_flips_ambiguous_to_true_route():
    fx = make_two_route_fixture()
    pieces, estimates, diag = refine(fx.traces, fx.net, fx.grid)
    fixed = ambiguous_assignments(pieces, fx)
    corrected = sum(1 for vid, segs in fixed.items() if segs == fx.truth_paths[vid])
    assert corrected == len(fx.ambiguous_ids)
    assert len(diag) >= 2
    # Pinned vehicles stay on their geometric routes throughout.
    for mp in piece_list(pieces):
        if mp.vehicle_id not in fx.ambiguous_ids:
            assert mp.segments == fx.truth_paths[mp.vehicle_id]


def test_refinement_reduces_time_mse():
    fx = make_two_route_fixture()
    _, est0, _ = refine(fx.traces, fx.net, fx.grid, params=RefineParams(max_iters=1))
    _, est_final, _ = refine(fx.traces, fx.net, fx.grid)

    def mse(est):
        errs = [(est[0].time[sid] - fx.truth_times[sid]) ** 2
                for sid in range(len(fx.truth_times))]
        return sum(errs) / len(errs)

    assert mse(est_final) < mse(est0)
    assert mse(est_final) < 15.0


# ---------------------------------------------------------------------------
# Monotone invariants
# ---------------------------------------------------------------------------


def test_infer_step_never_raises_residual_of_its_system():
    fx = make_two_route_fixture()
    grid = fx.grid
    fft = fx.net.seg_fft
    _, est_prev, _ = refine(fx.traces, fx.net, grid, params=RefineParams(max_iters=1))
    pieces_1, est_1, diag_1 = refine(fx.traces, fx.net, grid,
                                     params=RefineParams(max_iters=2, stop_tol=1e-12))
    by_interval = observations_from_matches(pieces_1, grid)
    new_total, old_total = 0.0, 0.0
    for iv, obs in by_interval.items():
        prior = est_prev[iv].time if iv in est_prev else fft
        new_total += residual_sq(est_1[iv].time, obs, fx.net)
        old_total += residual_sq(prior, obs, fx.net)
    assert new_total <= old_total + 1e-9
    assert abs(diag_1.records[1].residual - new_total) < 1e-9


def test_rematch_never_scores_below_previous_paths():
    fx = make_two_route_fixture()
    grid = fx.grid
    fixes = fx.traces
    pieces_0, est_0, _ = refine(fixes, fx.net, grid, params=RefineParams(max_iters=1))
    pieces_1, _, diag_1 = refine(fixes, fx.net, grid,
                                 params=RefineParams(max_iters=2, stop_tol=1e-12))
    # Pass 0 matched every vehicle under free flow.
    decoded = decoded_pieces(fx.net, fixes, [Router(fx.net, fx.net.seg_fft)] * len(fixes.vehicle))
    assert len(decoded) == len(pieces_0.log_score)

    new_by_key = {(mp.vehicle_id, mp.piece): mp for mp in piece_list(pieces_1)}
    for mp, (points, seg, off) in zip(piece_list(pieces_0), decoded):
        i = int(np.searchsorted(fixes.vehicle, mp.vehicle_id))
        first, last = fixes.t[fixes.offsets[i]], fixes.t[fixes.offsets[i + 1] - 1]
        times = est_0[grid.interval_of(0.5 * (first + last))].time
        free_flow = Router(fx.net, fx.net.seg_fft)
        assert score_assignment(fx.net, fixes, points, seg, off, free_flow) == mp.log_score
        rescored = score_assignment(fx.net, fixes, points, seg, off, Router(fx.net, times))
        fresh = new_by_key[(mp.vehicle_id, mp.piece)]
        assert fresh.log_score >= rescored
    total_fresh = math.fsum(pieces_1.log_score.tolist())
    assert diag_1.records[1].viterbi_score == total_fresh


def test_refine_validates_arguments():
    fx = make_two_route_fixture(n_pinned=1, n_ambiguous=1)
    with pytest.raises(InputDataError):
        refine(concat_fixes([]), fx.net, fx.grid)
    with pytest.raises(InputDataError):
        refine(fx.traces, fx.net, fx.grid, params=RefineParams(max_iters=0))
    with pytest.raises(InputDataError):
        refine(fx.traces, fx.net, fx.grid, params=RefineParams(stop_tol=0.0))


def test_refine_matches_each_pass_in_one_call(monkeypatch):
    """One ``match_traces`` call per pass, even when the traces' intervals interleave."""
    fx = make_two_route_fixture()
    calls: list[int] = []  # distinct routers per call

    def counted(net, traces, routers, *args):
        calls.append(len({id(router) for router in routers}))
        return match_traces(net, traces, routers, *args)

    monkeypatch.setattr(refine_module, "match_traces", counted)
    _, _, diag = refine(fx.traces, fx.net, TimeGrid(120, 5040),
                        params=RefineParams(max_iters=2, stop_tol=1e-12))
    assert len(calls) == len(diag) == 2
    assert calls[1] >= 2


def test_limit_cycle_stops_where_the_cycle_closes(monkeypatch):
    # Two path sets that alternate for ever, with conflicting durations,
    # so no pass meets stop_tol: the loop stops at pass 2, which repeats
    # pass 0, whatever max_iters is.
    net, traces = congested_corridor(n_traces=1)
    cycle = [pieces_table([(0, [0, 1, 2, 3], [0.0, 40.0, 80.0, 120.0], -1.0)]),
             pieces_table([(0, [0, 1, 2], [0.0, 80.0, 160.0], -2.0)])]
    passes: list[int] = []  # match_traces calls of each run

    def alternating(net, traces, routers, *args):
        passes[-1] += 1
        return cycle[(passes[-1] - 1) % 2]

    monkeypatch.setattr(refine_module, "match_traces", alternating)
    runs = []
    for max_iters in (9, 10):
        passes.append(0)
        runs.append(refine(traces, net, TimeGrid(), params=RefineParams(max_iters=max_iters)))
    assert passes == [3, 3]
    (pieces_9, est_9, diag_9), (pieces_10, est_10, diag_10) = runs
    assert diag_9.records == diag_10.records and len(diag_9) == 3
    assert all(r.max_rel_change >= 1e-3 for r in diag_9.records)
    assert piece_list(pieces_9) == piece_list(pieces_10) == piece_list(cycle[0])
    assert est_9.keys() == est_10.keys()
    for iv in est_9:
        assert np.array_equal(est_9[iv].time, est_10[iv].time)
        assert np.array_equal(est_9[iv].support, est_10[iv].support)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_changed_pieces_equal_the_path_dict_reference(data):
    """``_changed`` counts the (vehicle, piece) keys whose paths differ between two passes.

    The reference compares one dict of segment tuples per pass, key by
    key. Both passes draw each vehicle's pieces from a small pool of
    paths, so equal, missing, extra, longer and shorter pieces all occur.
    ``_path_set`` must tell two passes apart exactly when that count is not 0.
    """
    path = st.lists(st.integers(0, 2), min_size=1, max_size=3)
    passes = [[(vid, segs) for vid in (-5, 0, 7, 2**40)
               for segs in data.draw(st.lists(path, max_size=2))] for _ in range(2)]
    dicts = []
    for pieces in passes:
        dicts.append({})
        for vid, segs in pieces:
            dicts[-1][(vid, sum(key[0] == vid for key in dicts[-1]))] = tuple(segs)
    want = sum(dicts[0].get(key) != dicts[1].get(key) for key in set(dicts[0]) | set(dicts[1]))
    cur, prev = (pieces_table([(vid, segs, [0.0] * len(segs)) for vid, segs in pieces])
                 for pieces in passes)
    assert refine_module._changed(cur, prev) == want
    # refine detects a repeated pass by its path set's bytes.
    assert (refine_module._path_set(cur) == refine_module._path_set(prev)) == (want == 0)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def test_diagnostics_csv_round_trip(tmp_path):
    diag = RefinementDiagnostics(records=[
        IterationRecord(0, 123.5, -456.25, 20, 0.75),
        IterationRecord(1, 100.0, -400.0, 3, 0.002),
    ])
    p = tmp_path / "diag.csv"
    write_diagnostics(diag, p)
    assert list(zip(*read_table(p, DIAGNOSTICS_COLUMNS))) == [(0, 123.5, -456.25, 20, 0.75),
                                                              (1, 100.0, -400.0, 3, 0.002)]
    assert p.read_text().splitlines()[0] == "iteration,residual,viterbi_score,changed_paths,max_rel_change"


def test_read_diagnostics_rejects_garbage(tmp_path):
    p = tmp_path / "diag.csv"
    p.write_text("iteration,residual,viterbi_score,changed_paths,max_rel_change\n0,x,1,2,3\n")
    with pytest.raises(InputDataError):
        list(zip(*read_table(p, DIAGNOSTICS_COLUMNS)))
