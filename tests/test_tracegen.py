"""Benchmark generation: scenarios, trips, trace sampling, truth tables."""

from __future__ import annotations


import numpy as np
import pytest

from probeflow.assignment import AssignParams
from probeflow.errors import InputDataError
from probeflow.mapmatch import concat_fixes
from probeflow.network import Node, RoadNetwork, Router, Segment, Taz, TimeGrid, meters_per_degree
from probeflow.tracegen import (
    GroundTruthScenario,
    ProbeConfig,
    TruthTrip,
    gen_scenarios,
    generate_probe_data,
    read_traces,
    read_trips,
    read_truth,
    sample_trace,
    simulate_trip,
    with_times,
    write_traces,
    write_trips,
    write_truth,
)

from conftest import make_corridor_network


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


def test_simulate_trip_on_corridor():
    net, tazs, scen = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    trip = simulate_trip(net, Router(net, scen.time), tazs[0], tazs[1], scen, departure=100.0,
                         vehicle_id=4)
    assert trip.path == [0, 1, 2]
    assert trip.entry_times == [100.0, 120.0, 140.0]
    assert trip.arrival == 160.0


def test_simulate_trip_rejects_shared_centroid():
    net, _, scen = corridor_setup()
    a = Taz(id=0, centroid_node=0)
    b = Taz(id=1, centroid_node=0)
    with pytest.raises(InputDataError):
        simulate_trip(net, Router(net, scen.time), a, b, scen, 0.0, 0)


def test_simulate_trip_rejects_unreachable():
    net, tazs, scen = corridor_setup()
    with pytest.raises(InputDataError):  # one-way corridor
        simulate_trip(net, Router(net, scen.time), tazs[1], tazs[0], scen, 0.0, 0)


def test_with_times_rebuilds_simulation():
    net, tazs, scen = corridor_setup()
    trip = simulate_trip(net, Router(net, scen.time), tazs[0], tazs[1], scen, 50.0, 2)
    stripped = TruthTrip(vehicle_id=2, departure=50.0, path=list(trip.path), entry_times=None)
    rebuilt = with_times(stripped, net, scen)
    assert rebuilt.entry_times == trip.entry_times
    assert rebuilt.arrival == trip.arrival


# ---------------------------------------------------------------------------
# Trace sampling
# ---------------------------------------------------------------------------


def test_sample_trace_noiseless_positions_and_times():
    net, tazs, scen = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    trip = simulate_trip(net, Router(net, scen.time), tazs[0], tazs[1], scen, 0.0, 0)
    cfg = ProbeConfig(sampling_period=25.0, gps_sigma=0.0)
    trace = sample_trace(trip, net, scen, cfg)
    assert trace.vehicle.tolist() == [0] and trace.offsets.tolist() == [0, 4]
    assert list(trace.t) == [0.0, 25.0, 50.0, 60.0]
    mlon = meters_per_degree(0.0)[1]
    dist = (trace.lon - net.nodes[0].lon) * mlon
    assert np.allclose(dist, [0.0, 250.0, 500.0, 600.0], atol=1e-6)
    assert np.allclose(trace.lat, 0.0)


def test_sample_trace_period_longer_than_trip():
    net, tazs, scen = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    trip = simulate_trip(net, Router(net, scen.time), tazs[0], tazs[1], scen, 10.0, 0)
    trace = sample_trace(trip, net, scen, ProbeConfig(sampling_period=3600.0, gps_sigma=0.0))
    assert list(trace.t) == [10.0, 70.0]


def test_sample_trace_exact_multiple_keeps_single_arrival():
    net, tazs, scen = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    trip = simulate_trip(net, Router(net, scen.time), tazs[0], tazs[1], scen, 0.0, 0)  # 60 s
    trace = sample_trace(trip, net, scen, ProbeConfig(sampling_period=30.0, gps_sigma=0.0))
    assert list(trace.t) == [0.0, 30.0, 60.0]


def test_sample_trace_noise_is_seeded_per_vehicle():
    net, tazs, scen = corridor_setup(n_segs=3, length=200.0, speed=10.0)
    cfg = ProbeConfig(sampling_period=20.0, gps_sigma=10.0)
    quiet = ProbeConfig(sampling_period=20.0, gps_sigma=0.0)
    for vid in (0, 5):
        trip = simulate_trip(net, Router(net, scen.time), tazs[0], tazs[1], scen, 0.0, vid)
        noisy = sample_trace(trip, net, scen, cfg, rng_seed=123)
        clean = sample_trace(trip, net, scen, quiet, rng_seed=123)
        expected = np.random.default_rng(123 + vid).standard_normal((len(noisy.t), 2)) * 10.0
        mlat, mlon = meters_per_degree(0.0)
        assert np.allclose((noisy.lat - clean.lat) * mlat, expected[:, 0], atol=1e-9)
        assert np.allclose((noisy.lon - clean.lon) * mlon, expected[:, 1], atol=1e-9)


def test_sample_trace_same_seed_reproduces():
    net, tazs, scen = corridor_setup()
    trip = simulate_trip(net, Router(net, scen.time), tazs[0], tazs[1], scen, 0.0, 3)
    cfg = ProbeConfig(sampling_period=15.0, gps_sigma=8.0)
    a = sample_trace(trip, net, scen, cfg, rng_seed=9)
    b = sample_trace(trip, net, scen, cfg, rng_seed=9)
    assert np.array_equal(a.lat, b.lat) and np.array_equal(a.lon, b.lon)


def test_sample_trace_requires_entry_times():
    net, tazs, scen = corridor_setup()
    bare = TruthTrip(vehicle_id=0, departure=0.0, path=[0, 1, 2], entry_times=None)
    with pytest.raises(InputDataError):
        sample_trace(bare, net, scen, ProbeConfig())


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
    out = generate_probe_data(net, tazs, demand, scens, schedule, grid, cfg, rng_seed=1)
    trips0, traces0 = out[0]
    trips1, traces1 = out[1]
    assert [t.vehicle_id for t in trips0] == traces0.vehicle.tolist()
    assert [t.vehicle_id for t in trips1] == traces1.vehicle.tolist()
    # Two intervals at multiplier 1 (expected 40 each), one at 2 (expected 80).
    assert 70 <= len(trips0) <= 90
    assert 70 <= len(trips1) <= 90
    for trip in trips0:
        start = 8 * 3600.0 if trip.departure < 30 * 3600.0 else 30 * 3600.0
        assert start <= trip.departure < start + 3600.0
    for trip in trips1:
        assert 9 * 3600.0 <= trip.departure < 10 * 3600.0
    vids = [t.vehicle_id for t in trips0 + trips1]
    assert len(set(vids)) == len(vids)
    assert sorted(vids) == list(range(len(vids)))


def test_generate_probe_data_deterministic():
    net, tazs, demand, scens, grid, schedule = small_week()
    cfg = ProbeConfig(sampling_period=60.0, gps_sigma=5.0, penetration=0.4)
    a = generate_probe_data(net, tazs, demand, scens, schedule, grid, cfg, rng_seed=7)
    b = generate_probe_data(net, tazs, demand, scens, schedule, grid, cfg, rng_seed=7)
    for sid in a:
        assert [t.vehicle_id for t in a[sid][0]] == [t.vehicle_id for t in b[sid][0]]
        assert [t.departure for t in a[sid][0]] == [t.departure for t in b[sid][0]]
        for x, y in zip(a[sid][1], b[sid][1]):
            assert np.array_equal(x, y)


def test_generate_probe_data_penetration_scales_counts():
    net, tazs, demand, scens, grid, schedule = small_week()
    full = generate_probe_data(net, tazs, demand, scens, schedule, grid,
                               ProbeConfig(penetration=1.0), rng_seed=3)
    tenth = generate_probe_data(net, tazs, demand, scens, schedule, grid,
                                ProbeConfig(penetration=0.1), rng_seed=3)
    n_full = sum(len(v[0]) for v in full.values())
    n_tenth = sum(len(v[0]) for v in tenth.values())
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
    net, tazs, scen = corridor_setup()
    cfg = ProbeConfig(sampling_period=15.0, gps_sigma=5.0)
    router = Router(net, scen.time)
    traces = concat_fixes([
        sample_trace(simulate_trip(net, router, tazs[0], tazs[1], scen, 10.0 * v, v), net, scen,
                     cfg, rng_seed=2)
        for v in (2, 0, 1)
    ])
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
    net, tazs, scen = corridor_setup()
    router = Router(net, scen.time)
    trips = [simulate_trip(net, router, tazs[0], tazs[1], scen, 5.0 * v, v) for v in range(3)]
    p = tmp_path / "trips.csv"
    write_trips(trips, p, net)
    back = read_trips(p, net)
    for x, y in zip(trips, back):
        assert (x.vehicle_id, x.departure, x.path) == (y.vehicle_id, y.departure, y.path)
        assert y.entry_times is None
    rebuilt = with_times(back[1], net, scen)
    assert rebuilt.entry_times == trips[1].entry_times


def test_truth_csv_round_trip(tmp_path):
    net, _, scen = corridor_setup()
    scen.time[1] = 123.456
    scen.flow[1] = 789.25
    p = tmp_path / "truth.csv"
    write_truth(scen, net, p)
    times, flows = read_truth(p, net)
    assert times.tolist() == scen.time.tolist()
    assert flows.tolist() == scen.flow.tolist()
