"""Metrics, the sequential baseline, and VOC exports."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from probeflow.errors import InputDataError
from probeflow.evaluation import (
    MetricReport,
    ScenarioMetrics,
    aggregate_error_pct,
    build_report,
    export_geojson,
    gain_pct,
    matching_accuracy_pct,
    mse,
    per_trip_overlap,
    read_voc,
    voc_bucket,
    voc_series,
    write_report,
    write_voc,
)
from probeflow.mapmatch import MatchParams, Pieces, concat_fixes
from probeflow.network import Node, RoadNetwork, Router, Segment, Taz, TimeGrid
from probeflow.refine import RefineParams, refine
from probeflow.tracegen import (
    GroundTruthScenario,
    ProbeConfig,
    TruthTrip,
    sample_trace,
    simulate_trip,
)

from conftest import (
    lag_autocorrelation,
    make_corridor_network,
    make_grid_network,
    make_two_route_fixture,
    piece_list,
    pieces_table,
    run_baseline,
)

GRID8 = TimeGrid(interval_seconds=75600, interval_count=8)


def matched_stub(*pieces: tuple[int, list[int]]) -> Pieces:
    """Pieces of (vehicle, segments) pairs, by vehicle, every entry time 0."""
    return pieces_table([(vid, segments, [0.0] * len(segments)) for vid, segments in pieces])


def truth_stub(vid: int, path: list[int]) -> TruthTrip:
    return TruthTrip(vehicle_id=vid, departure=0.0, path=list(path), entry_times=None)


# ---------------------------------------------------------------------------
# Travel-time metrics
# ---------------------------------------------------------------------------


def test_mse_values():
    truth = np.array([10.0, 20.0])
    assert mse(truth, truth) == 0.0
    assert mse(np.array([13.0, 24.0]), truth) == 12.5
    rng = np.random.default_rng(3)
    big_truth = rng.uniform(10, 50, 20)
    shifted = big_truth + 7.0
    assert abs(mse(shifted, big_truth) - 49.0) < 1e-10


def test_mse_rejects_key_mismatch():
    with pytest.raises(InputDataError):
        mse(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(InputDataError):
        mse(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(InputDataError):
        mse(np.array([]), np.array([]))


def test_gain_values():
    assert gain_pct(4.0, 100.0) == 96.0
    assert gain_pct(25.0, 25.0) == 0.0
    assert gain_pct(150.0, 100.0) == -50.0
    with pytest.raises(InputDataError):
        gain_pct(4.0, 0.0)
    with pytest.raises(InputDataError):
        gain_pct(-1.0, 10.0)


def test_gain_numerator_antisymmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = (float(v) for v in rng.uniform(0.1, 100.0, 2))
        assert gain_pct(a, a) == 0.0
        # Swapping arguments negates the numerator (b - a).
        assert abs(gain_pct(a, b) * b + gain_pct(b, a) * a) < 1e-9


def test_aggregate_error_values():
    truth = np.array([30.0, 70.0])
    assert aggregate_error_pct(truth, truth) == 0.0
    scaled = 1.08 * truth
    assert abs(aggregate_error_pct(scaled, truth) - 8.0) < 1e-9
    offsetting = np.array([40.0, 60.0])
    assert aggregate_error_pct(offsetting, truth) == 0.0
    with pytest.raises(InputDataError):
        aggregate_error_pct(np.array([1.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# Matching accuracy
# ---------------------------------------------------------------------------


def test_matching_accuracy_perfect_and_disjoint():
    net = make_corridor_network(n_segs=4, length=100.0)
    truth = [truth_stub(1, [0, 1]), truth_stub(2, [2, 3])]
    perfect = matched_stub((1, [0, 1]), (2, [2, 3]))
    assert matching_accuracy_pct(perfect, truth, net) == 100.0

    disjoint = matched_stub((1, [2, 3]), (2, [2, 3]))
    overlaps, _ = per_trip_overlap(disjoint, truth, net)
    assert overlaps[1] == 0.0
    assert overlaps[2] == 100.0
    assert matching_accuracy_pct(disjoint, truth, net) == 50.0


def test_matching_accuracy_partial_overlap():
    net = make_corridor_network(n_segs=3, length=100.0)
    truth = [truth_stub(7, [0, 1])]
    matched = matched_stub((7, [0, 2]))
    got = matching_accuracy_pct(matched, truth, net)
    assert abs(got - 100.0 / 3.0) < 1e-9


def test_matching_accuracy_is_100_iff_sets_equal():
    net = make_corridor_network(n_segs=5, length=100.0)
    truth = [truth_stub(1, [0, 1, 2])]
    # Pieces of one vehicle pool into a set, order and split irrelevant.
    split = matched_stub((1, [2, 1]), (1, [0]))  # pieces 0 and 1
    assert matching_accuracy_pct(split, truth, net) == 100.0
    for wrong in ([0, 1], [0, 1, 2, 3], [0, 1, 4]):
        assert matching_accuracy_pct(matched_stub((1, wrong)), truth, net) < 100.0


def test_matching_accuracy_exclusions():
    net = make_corridor_network(n_segs=3, length=100.0)
    truth = [truth_stub(1, [0, 1]), truth_stub(2, [1, 2])]
    matched = matched_stub((1, [0, 1]), (9, [0]))
    overlaps, excluded = per_trip_overlap(matched, truth, net)
    assert set(overlaps) == {1}
    assert excluded == 2
    assert matching_accuracy_pct(matched, truth, net) == 100.0
    with pytest.raises(InputDataError):
        matching_accuracy_pct(matched_stub((5, [0])), truth, net)


def test_matching_accuracy_rejects_bad_truth():
    net = make_corridor_network(n_segs=2)
    with pytest.raises(InputDataError):
        per_trip_overlap(matched_stub(), [truth_stub(1, [0]), truth_stub(1, [1])], net)
    with pytest.raises(InputDataError):
        per_trip_overlap(matched_stub(), [truth_stub(1, [])], net)


# ---------------------------------------------------------------------------
# Sequential baseline
# ---------------------------------------------------------------------------


def test_baseline_is_refine_with_one_geometric_iteration():
    fix = make_two_route_fixture()
    params = MatchParams(gps_sigma=10.0, tt_tau=0.5)
    base_pieces, base_est, base_diag = run_baseline(
        fix.traces, fix.net, fix.grid, match_params=params)
    ref_pieces, ref_est, ref_diag = refine(
        fix.traces, fix.net, fix.grid,
        match_params=replace(params, tt_tau=0.0), params=RefineParams(max_iters=1))

    base_pieces, ref_pieces = piece_list(base_pieces), piece_list(ref_pieces)
    assert len(base_pieces) == len(ref_pieces)
    for got, want in zip(base_pieces, ref_pieces):
        assert got.vehicle_id == want.vehicle_id
        assert got.segments == want.segments
        assert got.entry_times == want.entry_times
        assert got.log_score == want.log_score
    assert set(base_est) == set(ref_est)
    for iv in base_est:
        assert base_est[iv].time.tolist() == ref_est[iv].time.tolist()
        assert base_est[iv].support.tolist() == ref_est[iv].support.tolist()
    assert base_diag.records == ref_diag.records


def jittered_grid_world():
    """Noisy traces on a jittered 5 x 5 grid, spread over four intervals.

    True times are free flow scaled per segment, so refine's later passes
    route under times that differ from the free-flow first pass.
    """
    net = make_grid_network(5, 5, spacing=200.0, speed=10.0, jitter=25.0, jitter_seed=1)
    rng = np.random.default_rng(8)
    scen = GroundTruthScenario(id=0, demand_multiplier=1.0,
                               time=net.seg_fft * rng.uniform(1.0, 2.5, net.n_segments),
                               flow=np.zeros(net.n_segments))
    cfg = ProbeConfig(sampling_period=20.0, gps_sigma=8.0, penetration=1.0)
    nodes = net.node_ids()
    router = Router(net, scen.time)
    traces = []
    for vid in range(24):
        a, b = rng.choice(nodes, size=2, replace=False)
        trip = simulate_trip(net, router, Taz(id=0, centroid_node=int(a)),
                             Taz(id=1, centroid_node=int(b)), scen,
                             departure=GRID8.interval_seconds * (vid % 4) + 60.0 * vid,
                             vehicle_id=vid)
        traces.append(sample_trace(trip, net, scen, cfg, rng_seed=3))
    return concat_fixes(traces), net


@pytest.mark.parametrize("case", ["two_route", "jittered_grid", "two_route_tt_tau_0"])
def test_baseline_decoded_in_refine_equals_run_baseline_bitwise(case):
    if case == "jittered_grid":
        traces, net = jittered_grid_world()
        grid, params = GRID8, MatchParams()
    else:
        fix = make_two_route_fixture()
        traces, net, grid = fix.traces, fix.net, fix.grid
        params = MatchParams(tt_tau=0.0) if case == "two_route_tt_tau_0" else MatchParams()

    baseline: dict = {}
    pieces, est, diag = refine(traces, net, grid, match_params=params, baseline=baseline)
    _, want, _ = run_baseline(traces, net, grid, match_params=params)

    assert baseline and sorted(baseline) == sorted(want)
    if case == "jittered_grid":
        assert len(want) == 4 and len(diag) >= 2
    for iv, w in want.items():
        got = baseline[iv]
        assert got.time.dtype == w.time.dtype and got.time.tobytes() == w.time.tobytes()
        assert got.support.tobytes() == w.support.tobytes()

    # Asking for the baseline leaves refine's own results as they were.
    plain_pieces, plain_est, plain_diag = refine(traces, net, grid, match_params=params)
    assert piece_list(pieces) == piece_list(plain_pieces)
    assert sorted(est) == sorted(plain_est)
    for iv in est:
        assert est[iv].time.tobytes() == plain_est[iv].time.tobytes()
    assert diag.records == plain_diag.records


def test_baseline_misassigns_what_refinement_corrects():
    fix = make_two_route_fixture()
    base_pieces, _, _ = run_baseline(fix.traces, fix.net, fix.grid)
    by_vid: dict[int, set[int]] = {}
    for mp in piece_list(base_pieces):
        by_vid.setdefault(mp.vehicle_id, set()).update(mp.segments)
    for vid in fix.ambiguous_ids:
        assert 0 in by_vid[vid] and 2 not in by_vid[vid]

    ref_pieces, _, _ = refine(fix.traces, fix.net, fix.grid)
    ref_by_vid: dict[int, set[int]] = {}
    for mp in piece_list(ref_pieces):
        ref_by_vid.setdefault(mp.vehicle_id, set()).update(mp.segments)
    for vid in fix.ambiguous_ids:
        assert 2 in ref_by_vid[vid] and 0 not in ref_by_vid[vid]


def test_full_pipeline_beats_baseline_mse():
    fix = make_two_route_fixture()
    _, base_est, _ = run_baseline(fix.traces, fix.net, fix.grid)
    _, full_est, _ = refine(fix.traces, fix.net, fix.grid)
    iv = next(iter(full_est))
    assert mse(full_est[iv].time, fix.truth_times) < mse(base_est[iv].time, fix.truth_times)


def test_baseline_rejects_empty_traces():
    net = make_corridor_network()
    with pytest.raises(InputDataError):
        run_baseline(concat_fixes([]), net, TimeGrid())


# ---------------------------------------------------------------------------
# VOC products
# ---------------------------------------------------------------------------


def test_voc_series_values():
    net = make_corridor_network(n_segs=2, capacity=1000.0)
    flows = {0: np.array([200.0, 600.0])}
    series = voc_series(flows, net, GRID8)
    assert len(series) == 8
    assert abs(series[0] - 0.4) < 1e-12
    assert series[1:] == [0.0] * 7

    capacity_flows = {3: np.array([1000.0, 1000.0])}
    assert voc_series(capacity_flows, net, GRID8)[3] == 1.0
    assert voc_series({0: np.array([0.0, 0.0])}, net, GRID8) == [0.0] * 8


def test_voc_series_linear_in_flows():
    net = make_corridor_network(n_segs=3, capacity=800.0)
    rng = np.random.default_rng(2)
    flows = {iv: rng.uniform(0, 900, 3) for iv in range(8)}
    scaled = {iv: 3.5 * fl for iv, fl in flows.items()}
    base = voc_series(flows, net, GRID8)
    got = voc_series(scaled, net, GRID8)
    assert all(abs(g - 3.5 * b) < 1e-12 for g, b in zip(got, base))


def mixed_class_net() -> RoadNetwork:
    nodes = [Node(id=i, lat=0.0, lon=0.001 * i) for i in range(3)]
    segments = [
        Segment(id=0, from_node=0, to_node=1, length=100.0, free_flow_speed=10.0,
                capacity=500.0, road_class="primary"),
        Segment(id=1, from_node=1, to_node=2, length=100.0, free_flow_speed=10.0,
                capacity=1000.0, road_class="residential"),
    ]
    return RoadNetwork(nodes, segments)


def test_voc_series_class_filter():
    net = mixed_class_net()
    flows = {0: np.array([250.0, 250.0])}
    assert voc_series(flows, net, GRID8, class_filter="primary")[0] == 0.5
    assert voc_series(flows, net, GRID8, class_filter="residential")[0] == 0.25
    with pytest.raises(InputDataError):
        voc_series(flows, net, GRID8, class_filter="motorway")
    with pytest.raises(InputDataError):
        voc_series({0: np.array([250.0])}, net, GRID8)


def test_lag_autocorrelation_periodic():
    series = [float(k % 24) for k in range(168)]
    assert abs(lag_autocorrelation(series, 24) - 1.0) < 1e-12
    wave = [math.sin(2.0 * math.pi * k / 24.0) for k in range(168)]
    assert abs(lag_autocorrelation(wave, 12) + 1.0) < 1e-9


def test_lag_autocorrelation_noise_and_sentinel():
    noise = list(np.random.default_rng(0).standard_normal(168))
    assert abs(lag_autocorrelation(noise, 24)) < 0.3
    assert math.isnan(lag_autocorrelation([5.0] * 30, 7))
    with pytest.raises(InputDataError):
        lag_autocorrelation([1.0, 2.0], 2)
    with pytest.raises(InputDataError):
        lag_autocorrelation([1.0, 2.0, 3.0], 0)
    with pytest.raises(InputDataError):
        lag_autocorrelation([1.0, float("nan"), 3.0], 1)


def test_voc_bucket_boundaries():
    assert voc_bucket(0.0) == "[0,0.4)"
    assert voc_bucket(0.39) == "[0,0.4)"
    assert voc_bucket(0.4) == "[0.4,0.7)"
    assert voc_bucket(0.7) == "[0.7,0.9)"
    assert voc_bucket(0.9) == "[0.9,inf)"
    assert voc_bucket(2.5) == "[0.9,inf)"
    with pytest.raises(InputDataError):
        voc_bucket(-0.1)
    with pytest.raises(InputDataError):
        voc_bucket(float("inf"))


# ---------------------------------------------------------------------------
# Reports and exports
# ---------------------------------------------------------------------------


def test_build_report_means_and_validation():
    per = {
        "light": ScenarioMetrics(mse=4.0, gain_pct=96.0, aggregate_error_pct=8.0,
                                 matching_accuracy_pct=99.0),
        "heavy": ScenarioMetrics(mse=6.0, gain_pct=50.0, aggregate_error_pct=12.0,
                                 matching_accuracy_pct=97.0),
    }
    report = build_report(per)
    assert report.mse == 5.0
    assert report.gain_pct == 73.0
    assert report.aggregate_error_pct == 10.0
    assert report.matching_accuracy_pct == 98.0
    assert report.per_scenario == per

    bad = [
        {},
        {"x": ScenarioMetrics(1.0, 101.0, 1.0, 50.0)},
        {"x": ScenarioMetrics(1.0, 0.0, -1.0, 50.0)},
        {"x": ScenarioMetrics(1.0, 0.0, 1.0, 101.0)},
        {"x": ScenarioMetrics(-1.0, 0.0, 1.0, 50.0)},
    ]
    for case in bad:
        with pytest.raises(InputDataError):
            build_report(case)


def test_report_round_trip(tmp_path):
    per = {
        "a": ScenarioMetrics(mse=2.25, gain_pct=10.0, aggregate_error_pct=1.5,
                             matching_accuracy_pct=99.5),
        "b": ScenarioMetrics(mse=3.75, gain_pct=-5.0, aggregate_error_pct=0.25,
                             matching_accuracy_pct=88.0),
    }
    report = build_report(per)
    p = tmp_path / "report.json"
    write_report(report, p)
    doc = json.loads(p.read_text())
    assert set(doc) == {"mean", "scenarios"}
    assert doc["mean"]["mse"] == 3.0
    assert doc["scenarios"]["a"]["gain_pct"] == 10.0
    assert doc == {
        "mean": {"mse": report.mse, "gain_pct": report.gain_pct,
                 "aggregate_error_pct": report.aggregate_error_pct,
                 "matching_accuracy_pct": report.matching_accuracy_pct},
        "scenarios": {name: m._asdict() for name, m in per.items()},
    }


def test_voc_csv_round_trip(tmp_path):
    series = {"primary": [0.1, 0.2, 0.3], "residential": [0.0, 0.5, 1.25]}
    p = tmp_path / "voc.csv"
    write_voc(series, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "interval,road_class,mean_voc"
    assert lines[1] == "0,primary,0.1"
    assert read_voc(p) == series
    with pytest.raises(InputDataError):
        write_voc({"a": [0.1], "b": [0.1, 0.2]}, tmp_path / "bad.csv")
    (tmp_path / "junk.csv").write_text("who,what\n1,2\n")
    with pytest.raises(InputDataError):
        read_voc(tmp_path / "junk.csv")


def test_geojson_export(tmp_path):
    net = make_corridor_network(n_segs=2)
    p = tmp_path / "voc.geojson"
    export_geojson(net, np.array([0.2, 0.95]), p)
    doc = json.loads(p.read_text())
    assert doc["type"] == "FeatureCollection"
    assert [f["properties"]["segment_id"] for f in doc["features"]] == [0, 1]
    assert doc["features"][0]["properties"]["voc_bucket"] == "[0,0.4)"
    assert doc["features"][1]["properties"]["voc_bucket"] == "[0.9,inf)"
    line = doc["features"][0]["geometry"]
    assert line["type"] == "LineString"
    a, b = line["coordinates"]
    assert a == [net.nodes[0].lon, net.nodes[0].lat]
    assert b == [net.nodes[1].lon, net.nodes[1].lat]
    with pytest.raises(InputDataError):
        export_geojson(net, np.array([]), tmp_path / "empty.geojson")