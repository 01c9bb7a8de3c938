"""Benchmark generation: scenarios, trips, trace sampling, truth tables."""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeflow.errors import InputDataError
from probeflow.mapmatch import Fixes, Pieces
from probeflow.network import Node, RoadNetwork, Router, Segment, Taz, TimeGrid, meters_per_degree
from probeflow.params import AssignParams, ProbeConfig
from probeflow.tracegen import (
    GroundTruthScenario,
    gen_scenarios,
    generate_probe_data,
    read_traces,
    read_trips,
    read_truth,
    write_traces,
    write_trips,
    write_truth,
)

from conftest import (
    concat_fixes,
    make_corridor_network,
    make_grid_network,
    piece_list,
    probe,
    sample_trace,
)

HOURLY = TimeGrid(interval_seconds=3600, interval_count=168)


def corridor_setup(n_segs=3, length=200.0, speed=10.0):
    """Corridor network with TAZs at both ends and a free-flow scenario."""
    net = make_corridor_network(n_segs=n_segs, length=length, speed=speed)
    tazs = [Taz(id=0, centroid_node=0), Taz(id=1, centroid_node=n_segs)]
    scen = GroundTruthScenario(
        id=0,
        demand_multiplier=1.0,
        time=net.seg_fft.copy(),
        flow=np.zeros(net.n_segments),
    )
    return net, tazs, scen


# ---------------------------------------------------------------------------
# Config and scenarios
# ---------------------------------------------------------------------------


def test_probe_config_validation():
    with pytest.raises(InputDataError):
        ProbeConfig(sampling_period=0.0)
    with pytest.raises(InputDataError):
        ProbeConfig(gps_sigma=-1.0)
    with pytest.raises(InputDataError):
        ProbeConfig(penetration=0.0)
    with pytest.raises(InputDataError):
        ProbeConfig(penetration=1.5)


def test_gen_scenarios_times_grow_with_demand():
    net = RoadNetwork(
        [Node(id=0, lat=0.0, lon=0.0), Node(id=1, lat=0.0, lon=0.01)],
        [
            Segment(id=0, from_node=0, to_node=1, length=1000.0, free_flow_speed=10.0,
                    capacity=600.0, road_class="primary"),
            Segment(id=1, from_node=0, to_node=1, length=1000.0, free_flow_speed=10.0,
                    capacity=600.0, road_class="primary"),
        ],
    )
    tazs = [Taz(id=0, centroid_node=0), Taz(id=1, centroid_node=1)]
    demand = {(0, 1): 800.0}
    scens = gen_scenarios(net, demand, [0.5, 1.0, 1.5], tazs, AssignParams(tol=1e-6))
    assert [s.id for s in scens] == [0, 1, 2]
    assert [s.demand_multiplier for s in scens] == [0.5, 1.0, 1.5]
    fft = net.segments[0].free_flow_time
    worst = [max(s.time) for s in scens]
    assert all(t >= fft for t in worst)
    assert worst[0] < worst[1] < worst[2]
    # Demand splits evenly over the identical parallel segments.
    assert abs(scens[1].flow[0] - 400.0) < 1.0


# ---------------------------------------------------------------------------
# Trips
# ---------------------------------------------------------------------------


def first_hour(net, tazs, scen, demand, cfg=ProbeConfig(gps_sigma=0.0), rng_seed=5):
    """``generate_probe_data`` of one scenario active in the week's first hour only."""
    schedule = [0] + [-1] * (HOURLY.interval_count - 1)
    return generate_probe_data(net, tazs, demand, [scen], schedule, HOURLY, cfg, rng_seed)


def test_simulate_trip_on_corridor():
    net, tazs, scen = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    trips, fixes = first_hour(net, tazs, scen, {(0, 1): 1.0})  # exactly one trip
    [trip] = piece_list(trips)
    departure = trip.entry_times[0]
    assert trip.segments == [0, 1, 2] and 0.0 <= departure < 3600.0
    assert trip.entry_times == list(accumulate([20.0, 20.0], initial=departure))
    assert fixes.t[-1] == trip.entry_times[-1] + 20.0  # the arrival
    assert math.isnan(trip.log_score)

    trips, fixes = probe(net, scen.time, [(4, 100.0, [0, 1, 2])], ProbeConfig(gps_sigma=0.0))
    [trip] = piece_list(trips)
    assert trip[:4] == (4, 0, [0, 1, 2], [100.0, 120.0, 140.0])
    assert fixes.vehicle.tolist() == [4] and fixes.t[-1] == 160.0


def test_simulate_trip_rejects_shared_centroid():
    """An OD pair whose zones share a centroid makes no trips; the other pairs still do."""
    net, _, scen = corridor_setup()
    tazs = [Taz(id=0, centroid_node=0), Taz(id=1, centroid_node=0), Taz(id=2, centroid_node=3)]
    trips, fixes = first_hour(net, tazs, scen, {(0, 1): 30.0})
    assert trips.bounds.tolist() == [0] and len(trips.segment) == 0
    assert fixes.vehicle.tolist() == [] and fixes.offsets.tolist() == [0]
    trips, fixes = first_hour(net, tazs, scen, {(0, 1): 30.0, (1, 2): 2.0})
    assert [trip.segments for trip in piece_list(trips)] == [[0, 1, 2]] * 2
    assert fixes.vehicle.tolist() == [0, 1]


def test_simulate_trip_rejects_unreachable():
    net, tazs, scen = corridor_setup()
    with pytest.raises(InputDataError, match="no route from TAZ 1 to TAZ 0 under scenario 0"):
        first_hour(net, tazs, scen, {(1, 0): 1.0})  # one-way corridor


# ---------------------------------------------------------------------------
# Trace sampling
# ---------------------------------------------------------------------------


def test_sample_trace_noiseless_positions_and_times():
    net, _, scen = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    cfg = ProbeConfig(sampling_period=25.0, gps_sigma=0.0)
    _, trace = probe(net, scen.time, [(0, 0.0, [0, 1, 2])], cfg)
    assert trace.vehicle.tolist() == [0] and trace.offsets.tolist() == [0, 4]
    assert list(trace.t) == [0.0, 25.0, 50.0, 60.0]
    mlon = meters_per_degree(0.0)[1]
    dist = (trace.lon - net.nodes[0].lon) * mlon
    assert np.allclose(dist, [0.0, 250.0, 500.0, 600.0], atol=1e-6)
    assert np.allclose(trace.lat, 0.0)


def test_sample_trace_period_longer_than_trip():
    net, _, scen = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    _, trace = probe(net, scen.time, [(0, 10.0, [0, 1, 2])],
                     ProbeConfig(sampling_period=3600.0, gps_sigma=0.0))
    assert list(trace.t) == [10.0, 70.0]


def test_sample_trace_exact_multiple_keeps_single_arrival():
    net, _, scen = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    _, trace = probe(net, scen.time, [(0, 0.0, [0, 1, 2])],  # 60 s
                     ProbeConfig(sampling_period=30.0, gps_sigma=0.0))
    assert list(trace.t) == [0.0, 30.0, 60.0]


def test_sample_trace_noise_is_seeded_per_vehicle():
    net, _, scen = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    cfg = ProbeConfig(sampling_period=20.0, gps_sigma=10.0)
    quiet = ProbeConfig(sampling_period=20.0, gps_sigma=0.0)
    trips = [(0, 0.0, [0, 1, 2]), (5, 0.0, [0, 1, 2])]
    _, noisy = probe(net, scen.time, trips, cfg, rng_seed=123)
    _, clean = probe(net, scen.time, trips, quiet, rng_seed=123)
    assert noisy.vehicle.tolist() == [0, 5]
    for i, vid in enumerate((0, 5)):
        rows = slice(noisy.offsets[i], noisy.offsets[i + 1])
        expected = np.random.default_rng(123 + vid).standard_normal((rows.stop - rows.start, 2))
        mlat, mlon = meters_per_degree(0.0)
        assert np.allclose((noisy.lat - clean.lat)[rows] * mlat, 10.0 * expected[:, 0], atol=1e-9)
        assert np.allclose((noisy.lon - clean.lon)[rows] * mlon, 10.0 * expected[:, 1], atol=1e-9)


def test_sample_trace_same_seed_reproduces():
    net, _, scen = corridor_setup()
    cfg = ProbeConfig(sampling_period=15.0, gps_sigma=8.0)
    _, a = probe(net, scen.time, [(3, 0.0, [0, 1, 2])], cfg, rng_seed=9)
    _, b = probe(net, scen.time, [(3, 0.0, [0, 1, 2])], cfg, rng_seed=9)
    assert np.array_equal(a.lat, b.lat) and np.array_equal(a.lon, b.lon)


GRID_NET = make_grid_network(5, 5, spacing=200.0, speed=10.0, jitter=25.0, jitter_seed=1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trips=st.integers(1, 6), sigma=st.sampled_from([0.0, 5.0]),
       period=st.one_of(st.floats(1.0, 400.0), st.sampled_from(["multiple", "longer"])))
def test_probe_trips_equal_the_per_trip_oracle(seed, n_trips, sigma, period):
    """Every column of the trace table, bit for bit, against ``sample_trace`` trip by trip.

    Trips follow fastest routes between random nodes of a grid under
    random times (whole seconds in half the cases), leave at random
    instants and have ascending, not consecutive, vehicle ids. The
    period is drawn, or the first trip's duration over 1, 2, 4 or 8 (so
    that the duration is an exact multiple of it), or longer than every
    trip.
    """
    net = GRID_NET
    rng = np.random.default_rng(seed)
    time = net.seg_fft * rng.uniform(1.0, 3.0, net.n_segments)
    if rng.random() < 0.5:  # whole seconds, so that a duration / 2**k is exact
        time = np.ceil(time)
    router = Router(net, time)
    trips = []
    for vid in np.cumsum(rng.integers(1, 4, n_trips)).tolist():
        a, b = rng.choice(net.n_nodes, 2, replace=False).tolist()
        trips.append((vid, float(rng.uniform(0.0, 6e5)), router.route(a, b)))
    duration = math.fsum(time[trips[0][2]].tolist())
    if period == "multiple":
        period = duration / 2 ** int(rng.integers(0, 4))
    elif period == "longer":
        period = 2.0 * max(math.fsum(time[path].tolist()) for _, _, path in trips)
    cfg = ProbeConfig(sampling_period=period, gps_sigma=sigma)

    got_trips, got = probe(net, time, trips, cfg, rng_seed=seed)
    want = concat_fixes([sample_trace(net, vid, dep, path, time, cfg, rng_seed=seed)
                         for vid, dep, path in trips])
    for name, a, b in zip(Fixes._fields, got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert [(trip.vehicle_id, trip.segments) for trip in piece_list(got_trips)] == [
        (vid, path) for vid, _, path in trips]


# ---------------------------------------------------------------------------
# Weekly generation
# ---------------------------------------------------------------------------


def small_week():
    net, tazs, _ = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    demand = {(0, 1): 40.0}
    scens = gen_scenarios(net, demand, [1.0, 2.0], tazs, AssignParams(tol=1e-6))
    grid = TimeGrid(interval_seconds=3600, interval_count=168)
    schedule = [-1] * grid.interval_count
    schedule[8] = 0
    schedule[9] = 1
    schedule[30] = 0
    return net, tazs, demand, scens, grid, schedule


def test_generate_probe_data_counts_and_windows():
    net, tazs, demand, scens, grid, schedule = small_week()
    cfg = ProbeConfig(sampling_period=60.0, gps_sigma=0.0, penetration=1.0)
    trips, traces = generate_probe_data(net, tazs, demand, scens, schedule, grid, cfg, rng_seed=1)
    first = trips.bounds[:-1]
    vids, departures = trips.vehicle[first].tolist(), trips.entry[first]
    assert vids == traces.vehicle.tolist() == list(range(len(vids)))
    assert trips.piece.tolist() == [0] * len(trips.piece)
    assert np.isnan(trips.log_score).all()
    # Two intervals at multiplier 1 (expected 40 each), one at 2 (expected 80).
    hour = (departures // 3600.0).astype(int)
    assert set(hour.tolist()) == {8, 9, 30}
    assert 70 <= np.isin(hour, [8, 30]).sum() <= 90
    assert 70 <= (hour == 9).sum() <= 90
    # Each trip's last fix is its arrival, its first its departure.
    assert traces.t[traces.offsets[:-1]].tolist() == departures.tolist()
    assert np.all(traces.t[traces.offsets[1:] - 1] > trips.entry[trips.bounds[1:] - 1])


def test_generate_probe_data_deterministic():
    net, tazs, demand, scens, grid, schedule = small_week()
    cfg = ProbeConfig(sampling_period=60.0, gps_sigma=5.0, penetration=0.4)
    a = generate_probe_data(net, tazs, demand, scens, schedule, grid, cfg, rng_seed=7)
    b = generate_probe_data(net, tazs, demand, scens, schedule, grid, cfg, rng_seed=7)
    for x, y in zip((*a[0], *a[1]), (*b[0], *b[1])):
        assert np.array_equal(x, y, equal_nan=True)


def test_generate_probe_data_penetration_scales_counts():
    net, tazs, demand, scens, grid, schedule = small_week()
    full, _ = generate_probe_data(net, tazs, demand, scens, schedule, grid,
                                  ProbeConfig(penetration=1.0), rng_seed=3)
    tenth, _ = generate_probe_data(net, tazs, demand, scens, schedule, grid,
                                   ProbeConfig(penetration=0.1), rng_seed=3)
    n_full, n_tenth = len(full.log_score), len(tenth.log_score)
    assert 0.05 * n_full < n_tenth < 0.2 * n_full


def test_generate_probe_data_validates_schedule():
    net, tazs, demand, scens, grid, _ = small_week()
    with pytest.raises(InputDataError):
        generate_probe_data(net, tazs, demand, scens, [0, 1], grid, ProbeConfig())
    bad = [-1] * grid.interval_count
    bad[0] = 99
    with pytest.raises(InputDataError):
        generate_probe_data(net, tazs, demand, scens, bad, grid, ProbeConfig())


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    net, _, scen = corridor_setup()
    cfg = ProbeConfig(sampling_period=15.0, gps_sigma=5.0)
    _, traces = probe(net, scen.time, [(v, 10.0 * v, [0, 1, 2]) for v in range(3)], cfg,
                      rng_seed=2)
    p = tmp_path / "traces.csv"
    write_traces(traces, p)
    back = read_traces(p)
    assert back.vehicle.tolist() == [0, 1, 2]
    for x, y in zip(traces, back):  # every column, mlon too
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_read_traces_rejects_empty(tmp_path):
    p = tmp_path / "traces.csv"
    p.write_text("vehicle_id,timestamp,lat,lon\n")
    with pytest.raises(InputDataError):
        read_traces(p)


def test_trip_csv_round_trip(tmp_path):
    """Vehicle, path and departure survive; the later entries read back as nan."""
    net, tazs, demand, scens, grid, schedule = small_week()
    trips, _ = generate_probe_data(net, tazs, demand, scens, schedule, grid,
                                   ProbeConfig(penetration=0.1), rng_seed=2)
    p = tmp_path / "trips.csv"
    write_trips(trips, p, net)
    back = read_trips(p, net)
    assert isinstance(back, Pieces) and len(back.log_score) == len(trips.log_score) > 1
    for name in ("vehicle", "piece", "segment", "bounds"):
        assert getattr(back, name).tolist() == getattr(trips, name).tolist(), name
    first = trips.bounds[:-1]
    assert back.entry[first].tolist() == trips.entry[first].tolist()
    later = np.ones(len(back.entry), dtype=bool)
    later[first] = False
    assert np.isnan(back.entry[later]).all() and np.isnan(back.log_score).all()

    # Rows come back in vehicle order, whatever their order in the file.
    header, *rows = p.read_text().splitlines()
    p.write_text("\n".join([header, *rows[::-1]]) + "\n")
    assert read_trips(p, net).segment.tolist() == trips.segment.tolist()
    p.write_text("\n".join([header, *rows, rows[0]]) + "\n")
    with pytest.raises(InputDataError, match=r"trips\.csv: vehicle 0 has more than one trip"):
        read_trips(p, net)
    p.write_text(f"{header}\n7,0.0,\n")  # a trip without a path
    with pytest.raises(InputDataError, match=r"trips\.csv, line 2"):
        read_trips(p, net)


def test_truth_csv_round_trip(tmp_path):
    net, _, scen = corridor_setup()
    scen.time[1] = 123.456
    scen.flow[1] = 789.25
    p = tmp_path / "truth.csv"
    write_truth(scen, net, p)
    times, flows = read_truth(p, net)
    assert times.tolist() == scen.time.tolist()
    assert flows.tolist() == scen.flow.tolist()
