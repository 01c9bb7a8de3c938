"""Map matching: scoring, Viterbi against enumeration, end-to-end matching."""

from __future__ import annotations

import itertools
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probeflow import mapmatch
from probeflow.errors import InputDataError
from probeflow.mapmatch import (
    Fixes,
    _lattice,
    _split_points,
    emission_logp,
    match_traces,
    read_matched,
    transition_logp,
    write_matched,
)
from probeflow.network import (
    Node,
    RoadNetwork,
    Router,
    Segment,
    haversine,
    meters_per_degree,
)
from probeflow.params import MatchParams, ProbeConfig

from conftest import (
    concat_fixes,
    decode_run,
    decoded_pieces,
    make_corridor_network as line_net,
    make_grid_network,
    piece_list,
    position_on_segment,
    probe,
    score_assignment,
    trace_table,
    viterbi_decode,
)


def corridor_trace(net: RoadNetwork, speed: float, period: float,
                   t_end: float, sigma: float = 0.0, seed: int = 0,
                   vehicle_id: int = 7) -> Fixes:
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
    return trace_table(vehicle_id, ts, lats, lons)


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
        MatchParams(tt_tau=math.inf)  # would make the score of every exact leg NaN
    with pytest.raises(InputDataError):
        MatchParams(gap_factor=0.0)
    with pytest.raises(InputDataError):
        MatchParams(radius=math.nan)  # would make every candidate grid key undefined


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


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6), width=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), holes=st.sampled_from([0.0, 0.2, 0.5]),
       dead=st.sampled_from([0.0, 0.25]))
def test_chunk_decoder_equals_per_run_oracle(sizes, width, seed, holes, dead):
    """``_viterbi`` on a padded chunk equals the per-run oracle, sub-piece by sub-piece.

    Points, candidate rows, leg lengths and score, bit for bit. Layers
    hold 1 to ``width`` candidates. Scores are small integers, so ties
    are exact and frequent. A share ``holes`` of the scores is -inf, and
    a share ``dead`` of the layer pairs has no finite transition, so runs
    break mid-way; runs of one layer occur. The legs from a run's last
    layer into the next run hold finite scores here, which the decoder
    must not read.
    """
    rng = np.random.default_rng(seed)
    runs = np.concatenate(([0], np.cumsum(sizes))).tolist()
    n = runs[-1]
    counts = rng.integers(1, width + 1, n)
    counts[rng.integers(n)] = width
    emission = np.full((n, width), -np.inf)
    transition = np.full((n, width, width), -np.inf)
    length = np.full((n, width, width), np.nan)
    for k, c in enumerate(counts.tolist()):
        emission[k, :c] = np.where(rng.random(c) < holes, -np.inf, rng.integers(-3, 1, c))
        if k + 1 < n:
            shape = (c, int(counts[k + 1]))
            trans = np.where(rng.random(shape) < holes, -np.inf, rng.integers(-3, 1, shape))
            transition[k, :c, :shape[1]] = -np.inf if rng.random() < dead else trans
            length[k, :c, :shape[1]] = rng.uniform(0.0, 500.0, shape)

    starts = np.concatenate(([0], np.cumsum(counts))).tolist()
    want = []
    for r, (a, b) in enumerate(zip(runs, runs[1:])):
        legs = [np.s_[k, :counts[k], :counts[k + 1]] for k in range(a, b - 1)]
        want.extend((r, *piece) for piece in decode_run(
            a, starts[a:b], [emission[k, :counts[k]] for k in range(a, b)],
            [transition[leg] for leg in legs], [length[leg] for leg in legs]))
    got = [(r, list(range(a, a + len(picked))), [starts[a + i] + c for i, c in enumerate(picked)],
            leg_lens, score)
           for r, a, picked, leg_lens, score in mapmatch._viterbi(emission, transition, length,
                                                                 runs)]
    assert got == want


# ---------------------------------------------------------------------------
# End-to-end matching
# ---------------------------------------------------------------------------


def test_five_points_on_single_segment():
    net = line_net(n_segs=1, length=500.0, speed=10.0)
    trace = corridor_trace(net, speed=10.0, period=10.0, t_end=40.0)
    pieces = piece_list(match_traces(net, trace, [free_flow_router(net)]))
    assert len(pieces) == 1
    mp = pieces[0]
    assert mp.segments == [0]
    assert mp.entry_times == [0.0]
    [(points, _, offsets)] = decoded_pieces(net, trace, [free_flow_router(net)])
    assert points[0] == 0 and points[-1] == 4
    assert np.allclose(offsets, [0.0, 100.0, 200.0, 300.0, 400.0], atol=1e-6)


def test_corridor_recovers_path_and_entry_times():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    trace = corridor_trace(net, speed=10.0, period=10.0, t_end=100.0)
    pieces = piece_list(match_traces(net, trace, [free_flow_router(net)]))
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
    trace = trace_table(9, ts, lats, lons)
    pieces = piece_list(match_traces(net, trace, [free_flow_router(net)]))
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
    trace = trace_table(3, ts, lats, lons)
    pieces = piece_list(match_traces(net, trace, [free_flow_router(net)]))
    assert len(pieces) == 1
    assert pieces[0].segments == [0, 2, 4, 6, 8]
    assert np.allclose(pieces[0].entry_times, [0.0, 20.0, 40.0, 60.0, 80.0], atol=1e-3)


def test_noisy_corridor_still_matches():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    trace = corridor_trace(net, speed=10.0, period=10.0, t_end=100.0, sigma=5.0, seed=11)
    pieces = piece_list(match_traces(net, trace, [free_flow_router(net)]))
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
    trace = trace_table(1, [0.0, dt], [net.nodes[0].lat, net.nodes[3].lat],
                        [net.nodes[0].lon, net.nodes[3].lon])
    pieces = piece_list(match_traces(net, trace, [router]))
    assert len(pieces) == 1
    assert pieces[0].segments == expected


def test_tau_zero_falls_back_to_candidate_order():
    # Without the travel-time term the two routes tie on geometry, and the
    # tie resolves to the first candidate, which is the smaller segment id.
    net, _, fast_tt = fork_net()
    trace = trace_table(1, [0.0, fast_tt], [net.nodes[0].lat, net.nodes[3].lat],
                        [net.nodes[0].lon, net.nodes[3].lon])
    pieces = piece_list(match_traces(net, trace, [free_flow_router(net)], MatchParams(tt_tau=0.0)))
    assert pieces[0].segments == [0, 1]


def test_long_gap_splits_trace():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    base = corridor_trace(net, speed=10.0, period=10.0, t_end=100.0)
    # Repeat the walk after a 1000 s silence; median dt stays 10 s.
    trace = trace_table(5, np.concatenate([base.t, base.t + 1100.0]),
                        np.concatenate([base.lat, base.lat]), np.concatenate([base.lon, base.lon]))
    pieces = piece_list(match_traces(net, trace, [free_flow_router(net)]))
    assert [mp.piece for mp in pieces] == [0, 1]
    assert pieces[0].segments == pieces[1].segments == [0, 1, 2, 3, 4]
    points = [points for points, _, _ in decoded_pieces(net, trace, [free_flow_router(net)])]
    assert points[0][-1] == 10 and points[1][0] == 11


def test_point_without_candidates_is_dropped_and_splits():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    base = corridor_trace(net, speed=10.0, period=10.0, t_end=100.0)
    lats = base.lat.copy()
    lats[5] += 2000.0 / meters_per_degree(0.0)[0]  # 2 km off the corridor
    trace = trace_table(5, base.t, lats, base.lon)
    assert len(piece_list(match_traces(net, trace, [free_flow_router(net)]))) == 2
    points = [points for points, _, _ in decoded_pieces(net, trace, [free_flow_router(net)])]
    assert len(points) == 2
    assert points[0][-1] == 4 and points[1][0] == 6


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
    for j, off in pts:
        lat, lon = position_on_segment(net, j, off)
        lats.append(lat)
        lons.append(lon)
    trace = trace_table(9, [0.0, 15.0, 30.0, 45.0], lats, lons)
    pieces = piece_list(match_traces(net, trace, [free_flow_router(net)]))
    assert len(pieces) == 2
    assert pieces[0].segments == [0]
    assert pieces[1].segments == [2]


@settings(max_examples=200, deadline=None)
@given(gaps=st.lists(st.sampled_from([1.0, 2.0, 3.0, 7.5, 10.0]) | st.floats(0.5, 500.0),
                     max_size=12),
       factor=st.just(1.0) | st.floats(0.5, 3.0), data=st.data())
def test_split_points_equal_np_median_reference(gaps, factor, data):
    # Repeated gaps and gap_factor 1 put gaps exactly at the cut.
    ts = np.concatenate(([0.0], np.cumsum(gaps)))
    counts = data.draw(st.lists(st.integers(0, 2), min_size=len(ts), max_size=len(ts)))
    cut = factor * float(np.median(np.diff(ts))) if gaps else math.inf
    runs, cur = [], []
    for i, count in enumerate(counts):
        if count == 0 or (cur and ts[i] - ts[cur[-1]] > cut):
            if cur:
                runs.append(cur)
            cur = []
        if count:
            cur.append(i)
    if cur:
        runs.append(cur)
    got = _split_points(ts.tolist(), counts, MatchParams(gap_factor=factor))
    assert [list(range(a, b)) for a, b in got] == runs


def test_no_candidates_anywhere_returns_empty():
    net = line_net(n_segs=2)
    trace = trace_table(1, [0.0, 10.0], [5.0, 5.0], [5.0, 5.0])
    assert piece_list(match_traces(net, trace, [free_flow_router(net)])) == []


def grid_segment(net: RoadNetwork, u: int, v: int) -> int:
    """Index of the segment from node u to node v."""
    return next(j for j, seg in enumerate(net.segments) if (seg.from_node, seg.to_node) == (u, v))


def sparse_row_trace(net: RoadNetwork, nx: int, stride: int) -> Fixes:
    """Fixes mid-segment along a grid's bottom row, ``stride`` segments apart."""
    ts, lats, lons = [], [], []
    for k, ix in enumerate(range(0, nx - 1, stride)):
        j = grid_segment(net, ix, ix + 1)
        lat, lon = position_on_segment(net, j, 0.5 * net.seg_length[j])
        ts.append(k * stride * 20.0)
        lats.append(lat)
        lons.append(lon)
    return trace_table(4, ts, lats, lons)


@pytest.mark.parametrize("case", ["dense_corridor", "sparse_jittered_grid"])
def test_rescore_equals_match_score_bitwise(case):
    if case == "dense_corridor":
        net = line_net(n_segs=5, length=200.0, speed=10.0)
        trace = corridor_trace(net, speed=10.0, period=10.0, t_end=100.0, sigma=6.0, seed=3)
    else:
        # Ten segments between fixes: every kept leg routes through nine
        # intermediates, where a pairwise and a running sum of the segment
        # lengths may round differently.
        net = make_grid_network(22, 2, spacing=200.0, speed=10.0, jitter=20.0, jitter_seed=5)
        trace = sparse_row_trace(net, nx=22, stride=10)
    router = free_flow_router(net)
    pieces = piece_list(match_traces(net, trace, [router]))
    assert len(pieces) == 1
    mp = pieces[0]
    if case == "sparse_jittered_grid":
        assert mp.segments == [grid_segment(net, ix, ix + 1) for ix in range(21)]
    [(points, seg, off)] = decoded_pieces(net, trace, [router])
    rescored = score_assignment(net, trace, points, seg, off, router)
    assert rescored == mp.log_score


def test_rescore_under_other_times_changes_score():
    net, _, _ = fork_net()
    truth = net.seg_fft
    trace = trace_table(1, [0.0, 80.0], [net.nodes[0].lat, net.nodes[3].lat],
                        [net.nodes[0].lon, net.nodes[3].lon])
    mp = piece_list(match_traces(net, trace, [Router(net, truth)]))[0]
    [(points, seg, off)] = decoded_pieces(net, trace, [Router(net, truth)])
    assert points == [0, 1]
    same = score_assignment(net, trace, points, seg, off, Router(net, truth))
    distorted = truth.copy()
    distorted[0] = 200.0
    other = score_assignment(net, trace, points, seg, off, Router(net, distorted))
    assert same == mp.log_score
    assert other < same


def test_batch_matching_is_deterministic():
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    times = net.seg_fft
    traces = concat_fixes([
        corridor_trace(net, speed=10.0, period=10.0, t_end=100.0, sigma=4.0, seed=s,
                       vehicle_id=s)
        for s in range(5)
    ])
    a = piece_list(match_traces(net, traces, [Router(net, times)] * 5))
    b = piece_list(match_traces(net, traces, [Router(net, times)] * 5))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.vehicle_id, x.piece, x.segments) == (y.vehicle_id, y.piece, y.segments)
        assert x.entry_times == y.entry_times
        assert x.log_score == y.log_score


def test_router_tree_and_route():
    net = line_net(n_segs=3)
    with pytest.raises(InputDataError):
        Router(net, np.array([1.0, 0.0, 1.0]))
    router = Router(net, np.full(3, 20.0))
    nodes = np.arange(4)
    time, length = router.reach(0, nodes)
    assert list(time) == [0.0, 20.0, 40.0, 60.0]
    assert list(length) == [0.0, 200.0, 400.0, 600.0]
    settled = router.settled()
    router.reach(0, nodes)
    assert router.settled() == settled  # a repeated query settles no new node
    assert router.route(0, 0) == []
    assert router.route(0, 1) == [0]
    assert router.route(0, 3) == [0, 1, 2]
    assert router.route(3, 0) is None
    time, length = router.reach(3, nodes)
    assert math.isinf(time[0]) and math.isinf(length[0])


def test_router_repeated_query_settles_no_new_node():
    net = make_grid_network(9, 9, spacing=200.0)
    router = Router(net, net.seg_fft)
    first = router.reach(40, np.array([41, 31]))
    settled = router.settled()
    assert 0 < settled < net.n_nodes // 2  # the search stopped early
    again = router.reach(40, np.array([31, 41]))
    assert router.settled() == settled
    assert list(again[0]) == list(first[0])[::-1] and list(again[1]) == list(first[1])[::-1]


def test_matching_a_short_trace_settles_few_nodes():
    """The searches of a short trace stay near it: a count of settled nodes, not a timing.

    Full trees would settle all 900 nodes from every source the trace's
    legs route from; matching this 5-segment trip settles under 5% of that.
    """
    net = make_grid_network(30, 30, spacing=200.0, speed=10.0, jitter=25.0, jitter_seed=3)
    route = free_flow_router(net).route(net.node_index(460), net.node_index(523))
    _, trace = probe(net, net.seg_fft, [(1, 0.0, route)],
                     ProbeConfig(sampling_period=15.0, gps_sigma=5.0), rng_seed=2)
    router = free_flow_router(net)
    assert piece_list(match_traces(net, trace, [router]))
    full = len(router._trees) * net.n_nodes
    assert len(router._trees) >= 5
    assert router.settled() < 0.05 * full


def test_router_tree_length_is_running_sum_of_route():
    net = make_grid_network(7, 7, spacing=200.0, jitter=20.0, jitter_seed=2)
    router = Router(net, net.seg_fft)
    longest = 0
    for u in (0, 24, 48):
        # One node per query: the search grows query by query, and is
        # packed once it has settled half the network.
        for v in range(net.n_nodes):
            length = router.reach(u, np.array([v]))[1][0]
            route = router.route(u, v)
            total = 0.0
            for j in route:
                total += net.segments[j].length
            assert length == total
            longest = max(longest, len(route))
    assert longest >= 8


def _scalar_leg(net, times, router, ja, off_a, jb, off_b):
    """(length, travel time) of one leg by the scalar formula.

    The route's times and lengths are summed segment by segment, and a
    routed leg adds head fraction + route + tail fraction in that order.
    """
    if ja == jb and off_b >= off_a:
        return off_b - off_a, times[ja] * ((off_b - off_a) / net.seg_length[ja])
    mid_len = mid_tt = 0.0
    for j in router.route(int(net.seg_to[ja]), int(net.seg_from[jb])):
        mid_len += net.seg_length[j]
        mid_tt += times[j]
    head = net.seg_length[ja] - off_a
    return (head + mid_len + off_b,
            times[ja] * (head / net.seg_length[ja]) + mid_tt
            + times[jb] * (off_b / net.seg_length[jb]))


def test_legs_equal_per_pair_reference():
    """Each leg of a layer pair equals the scalar formula, bit for bit.

    Lengths are compared directly; travel times through the transition
    scores under tt_tau > 0 and tt_tau = 0.
    """
    net = make_grid_network(6, 6, spacing=200.0, jitter=20.0, jitter_seed=4)
    times = net.seg_fft * np.random.default_rng(1).uniform(1.0, 3.0, net.n_segments)
    router = Router(net, times)
    rng = np.random.default_rng(2)
    param_sets = [MatchParams(), MatchParams(tt_tau=0.0)]
    for _ in range(20):
        seg_a, seg_b = rng.integers(0, net.n_segments, (2, 6))
        seg_b[:2] = seg_a[:2]  # same-segment legs, forward and backward
        off_a = rng.uniform(0.0, 1.0, 6) * net.seg_length[seg_a]
        off_b = rng.uniform(0.0, 1.0, 6) * net.seg_length[seg_b]
        u, v = rng.integers(0, net.n_nodes, 2)
        trace = trace_table(1, [0.0, 30.0], net.node_lat[[u, v]], net.node_lon[[u, v]])
        gc = haversine((float(trace.lat[0]), float(trace.lon[0])),
                       (float(trace.lat[1]), float(trace.lon[1])))
        _, transitions, lengths = _lattice(net, trace, np.arange(2), np.array([6, 6]), [0, 2],
                                           np.concatenate([seg_a, seg_b]),
                                           np.concatenate([off_a, off_b]), [router], param_sets)
        for a, b in itertools.product(range(6), range(6)):
            want_len, want_tt = _scalar_leg(net, times, router, seg_a[a], off_a[a],
                                            seg_b[b], off_b[b])
            assert lengths[0][a, b] == want_len
            for params, trans in zip(param_sets, transitions):
                assert trans[0][a, b] == transition_logp(want_len, gc, want_tt, 30.0, params)


@settings(max_examples=60, deadline=None)
@given(jitter_seed=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1),
       counts=st.lists(st.integers(1, 5), min_size=1, max_size=6),
       cuts=st.lists(st.booleans(), min_size=5, max_size=5),
       sigma=st.floats(1.0, 20.0), tau=st.floats(0.01, 2.0))
def test_flat_lattice_equals_scalar_formulas(jitter_seed, seed, counts, cuts, sigma, tau):
    """Emissions, both parameter sets' transitions and lengths, bit for bit.

    Candidates come from a small pool of segments, so many legs stay on
    one segment, forward or backward; a fifth of the offsets sit at a
    segment end. The layers form several runs in one call (a new run
    after layer k where ``cuts[k]``), each run the fixes of its own
    trace, so time may run backwards between runs; legs join layers
    only inside a run. Each run's router is drawn from two with
    different times, and its legs take that router's routes and times.
    Every entry without a candidate or a leg holds the padding.
    """
    net = make_grid_network(5, 5, spacing=200.0, speed=10.0, jitter=25.0,
                            jitter_seed=jitter_seed)
    rng = np.random.default_rng(seed)
    times = [net.seg_fft * rng.uniform(0.5, 3.0, net.n_segments) for _ in range(2)]
    pair = [Router(net, t) for t in times]
    n = len(counts)
    pool = rng.choice(net.n_segments, 6, replace=False)
    seg = pool[rng.integers(0, 6, sum(counts))]
    off = rng.uniform(0.0, 1.0, len(seg)) * net.seg_length[seg]
    end = rng.integers(0, 10, len(seg))
    off[end == 0] = 0.0
    off[end == 1] = net.seg_length[seg][end == 1]
    runs = [0, *(k + 1 for k in range(n - 1) if cuts[k]), n]
    which = rng.integers(0, 2, len(runs) - 1).tolist()
    fixes = concat_fixes([
        trace_table(3 + r, rng.uniform(0.0, 1e5) + np.cumsum(rng.uniform(1.0, 120.0, b - a)),
                    rng.uniform(net.node_lat.min(), net.node_lat.max(), b - a),
                    rng.uniform(net.node_lon.min(), net.node_lon.max(), b - a))
        for r, (a, b) in enumerate(zip(runs, runs[1:]))])
    param_sets = [MatchParams(gps_sigma=sigma, tt_tau=tau),
                  MatchParams(gps_sigma=sigma, tt_tau=0.0)]
    emission, transitions, lengths = _lattice(net, fixes, np.arange(n), np.array(counts), runs,
                                              seg, off, [pair[r] for r in which], param_sets)

    w = max(counts)
    assert emission.shape == (n, w)
    assert lengths.shape == (n, w, w) and all(trans.shape == (n, w, w) for trans in transitions)
    starts = np.concatenate(([0], np.cumsum(counts)))
    lats, lons, ts = fixes.lat.tolist(), fixes.lon.tolist(), fixes.t.tolist()
    for k in range(n):
        mlat, mlon = meters_per_degree(lats[k])
        want = []
        for r in range(starts[k], starts[k + 1]):
            plat, plon = position_on_segment(net, seg[r], off[r])
            d = math.hypot((plat - lats[k]) * mlat, (plon - lons[k]) * mlon)
            want.append(emission_logp(d, sigma))
        assert emission[k].tolist() == want + [-math.inf] * (w - counts[k])
    for k in range(n):
        if k + 1 in runs:  # no leg from a run's last layer to the next run
            assert np.isnan(lengths[k]).all()
            assert all((trans[k] == -math.inf).all() for trans in transitions)
            continue
        r = int(np.searchsorted(runs, k, side="right")) - 1
        gc = haversine((lats[k], lons[k]), (lats[k + 1], lons[k + 1]))
        dt = ts[k + 1] - ts[k]
        legs = np.zeros((w, w), dtype=bool)
        legs[:counts[k], :counts[k + 1]] = True
        assert np.isnan(lengths[k][~legs]).all()
        assert all((trans[k][~legs] == -math.inf).all() for trans in transitions)
        for a, b in itertools.product(range(counts[k]), range(counts[k + 1])):
            ra, rb = starts[k] + a, starts[k + 1] + b
            want_len, want_tt = _scalar_leg(net, times[which[r]], pair[which[r]], seg[ra], off[ra],
                                            seg[rb], off[rb])
            assert lengths[k][a, b] == want_len
            for params, trans in zip(param_sets, transitions):
                assert trans[k][a, b] == transition_logp(want_len, gc, want_tt, dt, params)


def grid_trace(net: RoadNetwork, origin: int, dest: int, period: float, sigma: float,
               vehicle_id: int, seed: int) -> Fixes:
    """A probe trace of the free-flow route between two nodes of a grid network."""
    route = free_flow_router(net).route(net.node_index(origin), net.node_index(dest))
    return probe(net, net.seg_fft, [(vehicle_id, 100.0 * vehicle_id, route)],
                 ProbeConfig(sampling_period=period, gps_sigma=sigma), rng_seed=seed)[1]


def test_matching_projects_once_and_queries_each_source_once_per_chunk(monkeypatch):
    """Counts, not timings: per chunk, one projection and one ``reach`` per (router, source).

    Fixes every 5 s at 10 m/s put four fixes on each 200 m segment, so
    the same segment ends start legs of many layer pairs and runs. The
    traces fill several chunks, and one is longer than the chunk bound.
    They alternate in pairs between two routers, and chunks end only at
    the bound, so a chunk holds traces of both routers.
    """
    net = make_grid_network(12, 12, spacing=200.0, speed=10.0, jitter=25.0, jitter_seed=3)
    ends = [(13, 130, 5.0), (0, 143, 5.0), (11, 132, 5.0), (0, 143, 1.5), (60, 71, 5.0),
            (130, 13, 5.0), (5, 138, 5.0), (24, 35, 5.0), (100, 43, 5.0)]
    traces = [grid_trace(net, a, b, period, 5.0, vid, 4)
              for vid, (a, b, period) in enumerate(ends)]
    sizes = [len(trace.t) for trace in traces]
    bound = mapmatch._CHUNK_FIXES
    assert sizes[3] > bound and sum(sizes) > 2 * bound
    pair = [free_flow_router(net), free_flow_router(net)]
    routers = [pair[i // 2 % 2] for i in range(len(traces))]
    # The fix counts and routers of each chunk, packed as the matcher packs them.
    chunks: list[tuple[list[int], list[Router]]] = []
    fixes = bound + 1
    for size, router in zip(sizes, routers):
        if fixes + size > bound:
            chunks.append(([], []))
            fixes = 0
        chunks[-1][0].append(size)
        chunks[-1][1].append(router)
        fixes += size
    assert len(chunks) == 3  # the bound falls before and after trace 3
    assert [len(set(map(id, chunk_routers))) for _, chunk_routers in chunks] == [2, 1, 2]

    projected: list[int] = []
    sources: list[list[tuple[int, int]]] = []  # (router, source) searched, per chunk
    search = mapmatch.project_to_candidates

    def counted_search(net, lats, *args):
        projected.append(len(lats))
        sources.append([])
        return search(net, lats, *args)

    def counted_reach(k, reach):
        def reach_counted(u, nodes):
            sources[-1].append((k, u))
            return reach(u, nodes)
        return reach_counted

    monkeypatch.setattr(mapmatch, "project_to_candidates", counted_search)
    for k, router in enumerate(pair):
        monkeypatch.setattr(router, "reach", counted_reach(k, router.reach))
    assert len(match_traces(net, concat_fixes(traces), routers, baseline=[]).log_score)
    assert projected == [sum(chunk) for chunk, _ in chunks]
    assert sum(map(len, sources)) >= 10
    assert all(len(chunk) == len(set(chunk)) for chunk in sources)
    assert [{k for k, _ in chunk} for chunk in sources] == [
        {pair.index(router) for router in chunk_routers} for _, chunk_routers in chunks]


def vehicle_slice(fixes: Fixes, i: int) -> Fixes:
    """Vehicle i's rows of a fix table, as a one-vehicle table of its own."""
    a, b = fixes.offsets[i], fixes.offsets[i + 1]
    return Fixes(fixes.vehicle[i:i + 1], fixes.offsets[i:i + 2] - a,
                 *(column[a:b] for column in fixes[2:]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_traces=st.integers(1, 8),
       bound=st.sampled_from([1, 5, 17, 40, mapmatch._CHUNK_FIXES]), cycle=st.booleans())
@example(seed=779, n_traces=6, bound=mapmatch._CHUNK_FIXES, cycle=True)
def test_batch_matching_equals_matching_each_trace_alone(seed, n_traces, bound, cycle):
    """Every field of every piece, and of every baseline piece, bit for bit.

    One ``match_traces`` call matches a fix table of all the traces, each
    under one of three routers with different times: drawn at random,
    so runs of one router and interleavings (A, B, A, ...) both occur,
    or cycling (A, B, C, A, ...) when ``cycle``. Matching "alone" is a
    call on the one-vehicle slice of the same table, so cutting chunks
    from the table's offsets is checked against per-vehicle matching.
    The explicit example's six cycling traces fit in one chunk. The
    chunk bound is drawn small as well, so chunk boundaries fall between
    traces and traces run longer than the bound. Some traces have fixes
    outside the search radius, some only one fix.
    """
    net = make_grid_network(6, 6, spacing=200.0, speed=10.0, jitter=20.0, jitter_seed=6)
    rng = np.random.default_rng(seed)
    times = [net.seg_fft, *(net.seg_fft * rng.uniform(1.0, 3.0, net.n_segments) for _ in "BC")]
    traces, which = [], []
    for vid in range(n_traces):
        a, b = rng.choice(net.n_nodes, 2, replace=False).tolist()
        trace = grid_trace(net, net.nodes[a].id, net.nodes[b].id, float(rng.uniform(4.0, 40.0)),
                           float(rng.uniform(0.0, 15.0)), vid, int(rng.integers(1000)))
        lats = trace.lat.copy()
        lats[rng.random(len(lats)) < 0.15] += 0.02  # about 2 km off the network
        keep = 1 if rng.random() < 0.2 else len(lats)
        traces.append(trace_table(vid, trace.t[:keep], lats[:keep], trace.lon[:keep]))
        drawn = int(rng.integers(3))
        which.append(vid % 3 if cycle else drawn)
    fixes = concat_fixes(traces)
    params = MatchParams(gps_sigma=8.0)
    routers = [Router(net, t) for t in times]

    with patch.object(mapmatch, "_CHUNK_FIXES", bound):
        want, want_base = [], []
        for i, r in enumerate(which):
            alone = match_traces(net, vehicle_slice(fixes, i), [Router(net, times[r])], params,
                                 base := [])
            want.append(piece_list(alone))
            want_base.append(piece_list(base[0]))
        base = []
        got = match_traces(net, fixes, [routers[r] for r in which], params, base)
    assert piece_list(got) == [mp for pieces in want for mp in pieces]
    assert piece_list(base[0]) == [mp for pieces in want_base for mp in pieces]
    assert all(mp.piece == k for pieces in want for k, mp in enumerate(pieces))


def test_matched_csv_round_trip(tmp_path):
    net = line_net(n_segs=5, length=200.0, speed=10.0)
    traces = concat_fixes([
        corridor_trace(net, speed=10.0, period=10.0, t_end=100.0, sigma=3.0, seed=s,
                       vehicle_id=s)
        for s in range(3)
    ])
    pieces = match_traces(net, traces, [free_flow_router(net)] * 3)
    path = tmp_path / "matched.csv"
    write_matched(pieces, path, net)
    back = piece_list(read_matched(path, net))
    assert len(back) == len(pieces.log_score) >= 3
    for x, y in zip(piece_list(pieces), back):
        assert (x.vehicle_id, x.piece, x.segments) == (y.vehicle_id, y.piece, y.segments)
        assert x.entry_times == y.entry_times
    # No piece at all: a header-only file, read back as no piece.
    write_matched(match_traces(net, concat_fixes([]), []), path, net)
    empty = read_matched(path, net)
    assert empty.bounds.tolist() == [0] and piece_list(empty) == []


def test_read_matched_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("vehicle,piece,segment_id,entry_time_s\n1,0,0,0.0\n")
    with pytest.raises(InputDataError):
        read_matched(p, line_net())


def test_read_matched_rejects_entry_times_going_backwards(tmp_path):
    p = tmp_path / "matched.csv"
    # Equal entry times are legal; a piece of another vehicle starts afresh.
    p.write_text("vehicle_id,piece,segment_id,entry_time_s\n"
                 "1,0,0,100.0\n1,0,1,100.0\n2,0,2,5.0\n1,0,2,120.0\n")
    assert [mp.entry_times for mp in piece_list(read_matched(p, line_net()))] == [
        [100.0, 100.0, 120.0], [5.0]]
    p.write_text("vehicle_id,piece,segment_id,entry_time_s\n1,0,0,100.0\n1,0,1,120.0\n"
                 "1,0,2,30.0\n")
    with pytest.raises(InputDataError, match=r"matched\.csv: vehicle 1, piece 0: entry time "
                                             r"30\.0 is below the previous entry time 120\.0"):
        read_matched(p, line_net())


@settings(max_examples=25, deadline=None)
@given(sigma=st.floats(0.0, 15.0), period=st.floats(3.0, 120.0),
       origin=st.integers(0, 24), dest=st.integers(0, 24), seed=st.integers(0, 2**16))
def test_matched_pieces_connect_and_entry_times_nondecreasing(sigma, period, origin, dest, seed):
    net = make_grid_network(5, 5, spacing=200.0, speed=10.0, jitter=25.0, jitter_seed=1)
    router = free_flow_router(net)
    route = router.route(net.node_index(origin), net.node_index(dest))
    if not route:  # origin == dest, or unreachable
        return
    _, trace = probe(net, net.seg_fft, [(1, 100.0, route)],
                     ProbeConfig(sampling_period=period, gps_sigma=sigma), rng_seed=seed)
    for mp in piece_list(match_traces(net, trace, [router])):
        segs = [net.segments[j] for j in mp.segments]
        assert all(a.to_node == b.from_node for a, b in zip(segs, segs[1:]))
        assert all(t0 <= t1 for t0, t1 in zip(mp.entry_times, mp.entry_times[1:]))
