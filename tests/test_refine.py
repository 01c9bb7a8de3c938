"""Refinement loop: termination, monotone invariants, route correction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from probeflow.errors import InputDataError
from probeflow.mapmatch import MatchParams, Router, match_traces, score_assignment
from probeflow.network import TimeGrid
from probeflow.refine import (
    IterationRecord,
    RefinementDiagnostics,
    RefineParams,
    read_diagnostics,
    refine,
    write_diagnostics,
)
from probeflow.tracegen import GroundTruthScenario, ProbeConfig, TruthTrip, sample_trace, with_times
from probeflow.ttinfer import infer_times, observations_from_matches, residual_sq

from conftest import make_corridor_network, make_two_route_fixture


def congested_corridor(n_traces=4, n_segs=4):
    """Corridor where true times are double free flow; paths are forced."""
    net = make_corridor_network(n_segs=n_segs, length=200.0, speed=10.0)  # fft 20 s
    truth = GroundTruthScenario(
        id=0, demand_multiplier=1.0,
        time=np.full(net.n_segments, 40.0),
        flow=np.zeros(net.n_segments),
    )
    cfg = ProbeConfig(sampling_period=20.0, gps_sigma=0.0)
    traces = []
    for v in range(n_traces):
        trip = with_times(TruthTrip(vehicle_id=v, departure=30.0 * v,
                                    path=list(range(n_segs)), entry_times=None), net, truth)
        traces.append(sample_trace(trip, net, truth, cfg))
    return net, traces


# ---------------------------------------------------------------------------
# Termination
# ---------------------------------------------------------------------------


def test_fixed_point_stops_after_unchanged_rematch():
    net, traces = congested_corridor()
    pieces, estimates, diag = refine(traces, net, TimeGrid())
    # Iteration 0 moves times a lot; iteration 1 rematches identical paths
    # (a corridor offers no alternative) and stops there.
    assert len(diag) == 2
    assert diag.records[0].changed_paths == len(pieces)
    assert diag.records[1].changed_paths == 0
    assert diag.records[1].max_rel_change == 0.0
    assert diag.records[1].residual == diag.records[0].residual
    assert 0 in estimates
    for sid in range(net.n_segments - 1):
        assert abs(estimates[0].time[sid] - 40.0) < 2.0


def test_small_update_stops_on_tolerance():
    # Truth at free flow: iteration 0 infers times that barely move.
    net = make_corridor_network(n_segs=3, length=200.0, speed=10.0)
    truth = GroundTruthScenario(id=0, demand_multiplier=1.0,
                                time=net.seg_fft.copy(),
                                flow=np.zeros(net.n_segments))
    cfg = ProbeConfig(sampling_period=15.0, gps_sigma=0.0)
    traces = []
    for v in range(3):
        trip = with_times(TruthTrip(vehicle_id=v, departure=10.0 * v,
                                    path=[0, 1, 2], entry_times=None), net, truth)
        traces.append(sample_trace(trip, net, truth, cfg))
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
    manual_pieces = match_traces(fx.net, fx.traces, fft)
    assert [(m.vehicle_id, m.piece, m.segments) for m in manual_pieces] == [
        (m.vehicle_id, m.piece, m.segments) for m in pieces
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
    for mp in pieces:
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
    for mp in pieces:
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
    traces_by_vid = {t.vehicle_id: t for t in fx.traces}
    pieces_0, est_0, _ = refine(fx.traces, fx.net, grid, params=RefineParams(max_iters=1))
    pieces_1, _, diag_1 = refine(fx.traces, fx.net, grid,
                                 params=RefineParams(max_iters=2, stop_tol=1e-12))

    new_by_key = {(mp.vehicle_id, mp.piece): mp for mp in pieces_1}
    for mp in pieces_0:
        trace = traces_by_vid[mp.vehicle_id]
        times = est_0[grid.interval_of(0.5 * (trace.timestamps[0] + trace.timestamps[-1]))].time
        points = list(range(mp.first_point, mp.last_point + 1))
        rescored = score_assignment(fx.net, trace, points, mp.assignment, Router(fx.net, times))
        fresh = new_by_key[(mp.vehicle_id, mp.piece)]
        assert fresh.log_score >= rescored
    total_fresh = math.fsum(mp.log_score for mp in pieces_1)
    assert diag_1.records[1].viterbi_score == total_fresh


def test_time_weight_damps_update():
    fx = make_two_route_fixture()
    fft = fx.net.seg_fft
    _, full, _ = refine(fx.traces, fx.net, fx.grid, params=RefineParams(max_iters=1))
    _, damped, _ = refine(fx.traces, fx.net, fx.grid,
                          params=RefineParams(max_iters=1, time_weight=0.5))
    for sid in range(len(fft)):
        expected = 0.5 * full[0].time[sid] + 0.5 * fft[sid]
        assert damped[0].time[sid] == expected


def test_refine_validates_arguments():
    fx = make_two_route_fixture(n_pinned=1, n_ambiguous=1)
    with pytest.raises(InputDataError):
        refine([], fx.net, fx.grid)
    with pytest.raises(InputDataError):
        refine(fx.traces, fx.net, fx.grid, params=RefineParams(max_iters=0))
    with pytest.raises(InputDataError):
        refine(fx.traces, fx.net, fx.grid, params=RefineParams(stop_tol=0.0))
    with pytest.raises(InputDataError):
        refine(fx.traces, fx.net, fx.grid, params=RefineParams(time_weight=0.0))


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
    back = read_diagnostics(p)
    assert back.records == diag.records
    assert p.read_text().splitlines()[0] == "iteration,residual,viterbi_score,changed_paths,max_rel_change"


def test_read_diagnostics_rejects_garbage(tmp_path):
    p = tmp_path / "diag.csv"
    p.write_text("iteration,residual,viterbi_score,changed_paths,max_rel_change\n0,x,1,2,3\n")
    with pytest.raises(InputDataError):
        read_diagnostics(p)
