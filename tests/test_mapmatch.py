"""Map matching: scoring, Viterbi against enumeration, end-to-end matching."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from probeflow.errors import InputDataError
from probeflow.mapmatch import (
    GpsTrace,
    MatchParams,
    Router,
    emission_logp,
    match_trace,
    match_traces,
    read_matched,
    score_assignment,
    transition_logp,
    viterbi_decode,
    write_matched,
)
from probeflow.network import (
    Node,
    RoadNetwork,
    Segment,
    meters_per_degree,
    position_on_segment,
)

from conftest import make_corridor_network as line_net, make_grid_network


def corridor_trace(net: RoadNetwork, speed: float, period: float,
                   t_end: float, sigma: float = 0.0, seed: int = 0,
                   vehicle_id: int = 7) -> GpsTrace:
    """Walk a line_net corridor at constant speed, sampling every period."""
    length = float(net.seg_length[0])
    rng = np.random.default_rng(seed)
    ts, lats, lons = [], [], []
    t = 0.0
    while t <= t_end + 1e-9:
        d = speed * t
        k = min(int(d // length), net.n_segments - 1)
        lat, lon = position_on_segment(net, k, d - k * length)
        if sigma > 0.0:
            mlat, mlon = meters_per_degree(lat)
            noise = rng.standard_normal(2) * sigma
            lat += noise[0] / mlat
            lon += noise[1] / mlon
        ts.append(t)
        lats.append(lat)
        lons.append(lon)
        t += period
    return GpsTrace(vehicle_id, np.array(ts), np.array(lats), np.array(lons))


def free_flow_router(net: RoadNetwork) -> Router:
    return Router(net, net.seg_fft)


# ---------------------------------------------------------------------------
# Scoring primitives
# ---------------------------------------------------------------------------


def test_emission_logp_values():
    at_zero = emission_logp(0.0, 10.0)
    assert abs(at_zero - (-math.log(10.0) - 0.5 * math.log(2 * math.pi))) < 1e-15
    assert abs(at_zero - (-3.2215236261987186)) < 1e-12
    d, sigma = 15.0, 10.0
    expected = -d * d / (2 * sigma * sigma) - math.log(sigma * math.sqrt(2 * math.pi))
    assert abs(emission_logp(d, sigma) - expected) < 1e-12


def test_emission_logp_decreases_with_distance():
    vals = [emission_logp(d, 10.0) for d in (0.0, 5.0, 20.0, 80.0)]
    assert vals == sorted(vals, reverse=True)


def test_transition_logp_hand_value():
    p = MatchParams(nk_beta=200.0, tt_tau=0.5)
    got = transition_logp(route_len=100.0, gc_dist=90.0, route_tt=50.0, obs_dt=40.0, params=p)
    assert abs(got - (-10.0 / 200.0 - 0.5 * 10.0 / 40.0)) < 1e-15


def test_transition_logp_tau_zero_ignores_travel_time():
    p = MatchParams(tt_tau=0.0)
    a = transition_logp(100.0, 90.0, 1.0, 40.0, p)
    b = transition_logp(100.0, 90.0, 1e9, 40.0, p)
    assert a == b == -10.0 / 200.0


def test_match_params_validation():
    with pytest.raises(InputDataError):
        MatchParams(gps_sigma=0.0)
    with pytest.raises(InputDataError):
        MatchParams(tt_tau=-0.1)
    with pytest.raises(InputDataError):
        MatchParams(max_candidates=0)
    with pytest.raises(InputDataError):
        MatchParams(gap_factor=0.0)


def test_gps_trace_validation():
    with pytest.raises(InputDataError):
        GpsTrace(1, [0.0, 1.0], [0.0], [0.0, 0.0])
    with pytest.raises(InputDataError):
        GpsTrace(1, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(InputDataError):
        GpsTrace(1, [], [], [])
    with pytest.raises(InputDataError):
        GpsTrace(1, [0.0], [95.0], [0.0])


# ---------------------------------------------------------------------------
# Viterbi
# ---------------------------------------------------------------------------


def enumerate_best(emissions, transitions):
    """Exhaustive maximum over all lattice paths, accumulated left to right."""
    best = -math.inf
    ranges = [range(len(e)) for e in emissions]
    for combo in itertools.product(*ranges):
        s = float(emissions[0][combo[0]])
        for k in range(len(transitions)):
            s = s + float(transitions[k][combo[k], combo[k + 1]])
            s = s + float(emissions[k + 1][combo[k + 1]])
        if s > best:
            best = s
    return best


def test_viterbi_matches_enumeration_on_random_lattices():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n_layers = int(rng.integers(2, 6))
        sizes = [int(rng.integers(1, 5)) for _ in range(n_layers)]
        emissions = [rng.standard_normal(s) for s in sizes]
        transitions = []
        for k in range(n_layers - 1):
            T = rng.standard_normal((sizes[k], sizes[k + 1]))
            T[rng.random(T.shape) < 0.25] = -np.inf
            transitions.append(T)
        best = enumerate_best(emissions, transitions)
        got = viterbi_decode(emissions, transitions)
        if best == -math.inf:
            assert got is None
            continue
        assert got is not None
        path, score = got
        assert score == best
        # The returned path must itself achieve the reported score.
        s = float(emissions[0][path[0]])
        for k in range(n_layers - 1):
            s = s + float(transitions[k][path[k], path[k + 1]])
            s = s + float(emissions[k + 1][path[k + 1]])
        assert s == score


def test_viterbi_prefers_smaller_index_on_ties():
    emissions = [np.zeros(3), np.zeros(3)]
    transitions = [np.zeros((3, 3))]
    path, score = viterbi_decode(emissions, transitions)
    assert path == [0, 0]
    assert score == 0.0


def test_viterbi_returns_none_when_no_path():
    emissions = [np.zeros(2), np.zeros(2)]
    transitions = [np.full((2, 2), -np.inf)]
    assert viterbi_decode(emissions, transitions) is None


def test_viterbi_rejects_mismatched_shapes():
    with pytest.raises(InputDataError):
        viterbi_decode([np.zeros(2)], [np.zeros((2, 2))])


# ---------------------------------------------------------------------------
# End-to-end matching
# ---------------------------------------------------------------------------


def test_five_points_on_single_segment():
    net = line_net(n_segs=1, length=500.0, speed=10.0)
    trace = corridor_trace(net, speed=10.0, period=10.0, t_end=40.0)
    pieces = match_trace(net, trace, free_flow_router(net))
    assert len(pieces) == 1
    mp = pieces[0]
    assert mp.segments == [0]
    assert mp.entry_times == [0.0]
    assert mp.first_point == 0 and mp.last_point == 4
    offsets = [off for _, off in mp.assignment]
    assert np.allclose(offsets, [0.0, 100.0, 200.0, 300.0, 400.0], atol=1e-6)


def test_corridor_recovers_path_and_entry_times():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    trace = corridor_trace(net, speed=10.0, period=10.0, t_end=100.0)
    pieces = match_trace(net, trace, free_flow_router(net))
    assert len(pieces) == 1
    mp = pieces[0]
    assert mp.segments == [0, 1, 2, 3, 4]
    assert np.allclose(mp.entry_times, [0.0, 20.0, 40.0, 60.0, 80.0], atol=1e-6)
    assert math.isfinite(mp.log_score)


def test_first_point_mid_segment_extrapolates_entry():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    ts, lats, lons = [], [], []
    for t in (10.0, 30.0, 50.0, 70.0):
        d = 10.0 * t
        k = int(d // 200.0)
        lat, lon = position_on_segment(net, k, d - k * 200.0)
        ts.append(t)
        lats.append(lat)
        lons.append(lon)
    trace = GpsTrace(9, np.array(ts), np.array(lats), np.array(lons))
    pieces = match_trace(net, trace, free_flow_router(net))
    assert len(pieces) == 1
    mp = pieces[0]
    assert mp.segments == [0, 1, 2, 3]
    # The first point sits 100 m into segment 0, so its entry instant must
    # be projected back to t=0, not clamped to the first timestamp.
    assert np.allclose(mp.entry_times, [0.0, 20.0, 40.0, 60.0], atol=1e-6)


def test_two_way_corridor_picks_forward_segments():
    net = make_grid_network(6, 1, spacing=200.0, speed=10.0)
    # Walk node 0 -> node 5 along the forward segments (even ids).
    _, mlon = meters_per_degree(net.nodes[0].lat)
    ts, lats, lons = [], [], []
    for k in range(11):
        d = 100.0 * k
        ts.append(10.0 * k)
        lats.append(net.nodes[0].lat)
        lons.append(net.nodes[0].lon + d / mlon)
    trace = GpsTrace(3, np.array(ts), np.array(lats), np.array(lons))
    pieces = match_trace(net, trace, free_flow_router(net))
    assert len(pieces) == 1
    assert pieces[0].segments == [0, 2, 4, 6, 8]
    assert np.allclose(pieces[0].entry_times, [0.0, 20.0, 40.0, 60.0, 80.0], atol=1e-3)


def test_noisy_corridor_still_matches():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    trace = corridor_trace(net, speed=10.0, period=10.0, t_end=100.0, sigma=5.0, seed=11)
    pieces = match_trace(net, trace, free_flow_router(net))
    assert len(pieces) == 1
    assert pieces[0].segments == [0, 1, 2, 3, 4]


def fork_net() -> tuple[RoadNetwork, float, float]:
    """Two same-length routes A->B, a slow one over T and a fast one over U.

    Returns (network, slow route time, fast route time). Segment lengths
    are set exactly, so only travel time separates the routes.
    """
    _, mlon = meters_per_degree(0.0)
    dlat = 100.0 / meters_per_degree(0.0)[0]
    a = Node(id=0, lat=0.0, lon=0.0)
    t = Node(id=1, lat=dlat, lon=1000.0 / mlon)
    u = Node(id=2, lat=-dlat, lon=1000.0 / mlon)
    b = Node(id=3, lat=0.0, lon=2000.0 / mlon)
    mk = lambda sid, fr, to, speed: Segment(
        id=sid, from_node=fr, to_node=to, length=1000.0,
        free_flow_speed=speed, capacity=1000.0, road_class="primary")
    net = RoadNetwork(
        [a, t, u, b],
        [mk(0, 0, 1, 25.0), mk(1, 1, 3, 25.0), mk(2, 0, 2, 50.0), mk(3, 2, 3, 50.0)],
    )
    return net, 80.0, 40.0


@pytest.mark.parametrize("dt,expected", [(80.0, [0, 1]), (40.0, [2, 3])])
def test_travel_time_disambiguates_equal_geometry(dt, expected):
    net, _, _ = fork_net()
    router = free_flow_router(net)
    trace = GpsTrace(
        1,
        np.array([0.0, dt]),
        np.array([net.nodes[0].lat, net.nodes[3].lat]),
        np.array([net.nodes[0].lon, net.nodes[3].lon]),
    )
    pieces = match_trace(net, trace, router)
    assert len(pieces) == 1
    assert pieces[0].segments == expected


def test_tau_zero_falls_back_to_candidate_order():
    # Without the travel-time term the two routes tie on geometry, and the
    # tie resolves to the first candidate, which is the smaller segment id.
    net, _, fast_tt = fork_net()
    trace = GpsTrace(
        1,
        np.array([0.0, fast_tt]),
        np.array([net.nodes[0].lat, net.nodes[3].lat]),
        np.array([net.nodes[0].lon, net.nodes[3].lon]),
    )
    pieces = match_trace(net, trace, free_flow_router(net), MatchParams(tt_tau=0.0))
    assert pieces[0].segments == [0, 1]


def test_long_gap_splits_trace():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    base = corridor_trace(net, speed=10.0, period=10.0, t_end=100.0)
    # Repeat the walk after a 1000 s silence; median dt stays 10 s.
    ts = np.concatenate([base.timestamps, base.timestamps + 1100.0])
    lats = np.concatenate([base.lats, base.lats])
    lons = np.concatenate([base.lons, base.lons])
    pieces = match_trace(net, GpsTrace(5, ts, lats, lons), free_flow_router(net))
    assert [mp.piece for mp in pieces] == [0, 1]
    assert pieces[0].segments == pieces[1].segments == [0, 1, 2, 3, 4]
    assert pieces[0].last_point == 10 and pieces[1].first_point == 11


def test_point_without_candidates_is_dropped_and_splits():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    base = corridor_trace(net, speed=10.0, period=10.0, t_end=100.0)
    lats = base.lats.copy()
    lats[5] += 2000.0 / meters_per_degree(0.0)[0]  # 2 km off the corridor
    pieces = match_trace(net, GpsTrace(5, base.timestamps, lats, base.lons),
                         free_flow_router(net))
    assert len(pieces) == 2
    assert pieces[0].last_point == 4 and pieces[1].first_point == 6


def test_unroutable_step_splits_lattice():
    # Two disconnected one-way corridors; the trace hops between them.
    _, mlon = meters_per_degree(0.0)
    nodes = [Node(id=i, lat=0.0, lon=i * 200.0 / mlon) for i in range(3)]
    nodes += [Node(id=10 + i, lat=0.05, lon=i * 200.0 / mlon) for i in range(3)]
    segs = [
        Segment(id=0, from_node=0, to_node=1, length=200.0, free_flow_speed=10.0,
                capacity=1000.0, road_class="secondary"),
        Segment(id=1, from_node=1, to_node=2, length=200.0, free_flow_speed=10.0,
                capacity=1000.0, road_class="secondary"),
        Segment(id=2, from_node=10, to_node=11, length=200.0, free_flow_speed=10.0,
                capacity=1000.0, road_class="secondary"),
        Segment(id=3, from_node=11, to_node=12, length=200.0, free_flow_speed=10.0,
                capacity=1000.0, road_class="secondary"),
    ]
    net = RoadNetwork(nodes, segs)
    pts = [(0, 0.0), (0, 150.0), (2, 50.0), (2, 199.0)]
    lats, lons = [], []
    for sid, off in pts:
        lat, lon = position_on_segment(net, sid, off)
        lats.append(lat)
        lons.append(lon)
    trace = GpsTrace(9, np.array([0.0, 15.0, 30.0, 45.0]), np.array(lats), np.array(lons))
    pieces = match_trace(net, trace, free_flow_router(net))
    assert len(pieces) == 2
    assert pieces[0].segments == [0]
    assert pieces[1].segments == [2]


def test_no_candidates_anywhere_returns_empty():
    net = line_net(n_segs=2)
    trace = GpsTrace(1, np.array([0.0, 10.0]), np.array([5.0, 5.0]), np.array([5.0, 5.0]))
    assert match_trace(net, trace, free_flow_router(net)) == []


def test_rescore_equals_match_score_bitwise():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    router = free_flow_router(net)
    trace = corridor_trace(net, speed=10.0, period=10.0, t_end=100.0, sigma=6.0, seed=3)
    pieces = match_trace(net, trace, router)
    assert len(pieces) == 1
    mp = pieces[0]
    points = list(range(mp.first_point, mp.last_point + 1))
    rescored = score_assignment(net, trace, points, mp.assignment, router)
    assert rescored == mp.log_score


def test_rescore_under_other_times_changes_score():
    net, _, _ = fork_net()
    truth = net.seg_fft
    trace = GpsTrace(
        1,
        np.array([0.0, 80.0]),
        np.array([net.nodes[0].lat, net.nodes[3].lat]),
        np.array([net.nodes[0].lon, net.nodes[3].lon]),
    )
    mp = match_trace(net, trace, Router(net, truth))[0]
    points = [mp.first_point, mp.last_point]
    same = score_assignment(net, trace, points, mp.assignment, Router(net, truth))
    distorted = truth.copy()
    distorted[0] = 200.0
    other = score_assignment(net, trace, points, mp.assignment, Router(net, distorted))
    assert same == mp.log_score
    assert other < same


def test_batch_matching_is_deterministic():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    times = net.seg_fft
    traces = [
        corridor_trace(net, speed=10.0, period=10.0, t_end=100.0, sigma=4.0, seed=s,
                       vehicle_id=s)
        for s in range(5)
    ]
    a = match_traces(net, traces, times)
    b = match_traces(net, traces, times)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.vehicle_id, x.piece, x.segments) == (y.vehicle_id, y.piece, y.segments)
        assert x.entry_times == y.entry_times
        assert x.log_score == y.log_score


def test_router_caches_and_validates():
    net = line_net(n_segs=3)
    with pytest.raises(InputDataError):
        Router(net, np.array([1.0, 0.0, 1.0]))
    router = Router(net, np.full(3, 20.0))
    assert router.route(0, 0) == ((), 0.0, 0.0)
    segs, length, tt = router.route(0, 3)
    assert segs == (0, 1, 2)
    assert abs(length - 600.0) < 1e-9
    assert abs(tt - 60.0) < 1e-12
    assert router.route(3, 0) is None
    assert router.route(3, 0) is None  # cached miss


def test_matched_csv_round_trip(tmp_path):
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    traces = [
        corridor_trace(net, speed=10.0, period=10.0, t_end=100.0, sigma=3.0, seed=s,
                       vehicle_id=s)
        for s in range(3)
    ]
    pieces = match_traces(net, traces, net.seg_fft)
    path = tmp_path / "matched.csv"
    write_matched(pieces, path)
    back = read_matched(path)
    assert len(back) == len(pieces)
    for x, y in zip(sorted(pieces, key=lambda m: (m.vehicle_id, m.piece)), back):
        assert (x.vehicle_id, x.piece, x.segments) == (y.vehicle_id, y.piece, y.segments)
        assert x.entry_times == y.entry_times


def test_read_matched_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("vehicle,piece,segment_id,entry_time_s\n1,0,0,0.0\n")
    with pytest.raises(InputDataError):
        read_matched(p)
