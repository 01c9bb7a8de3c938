"""Network model: geometry, graph construction, routing, OSM import, I/O."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeflow.errors import InputDataError
from probeflow.network import (
    DEFAULT_CLASS_TABLE,
    EARTH_RADIUS_M,
    M_PER_DEG_LAT,
    Node,
    RoadNetwork,
    Router,
    Segment,
    Taz,
    TimeGrid,
    haversine,
    import_osm,
    meters_per_degree,
    position_on_segment,
    project_to_candidates,
    read_network,
    read_tazs,
    write_network,
    write_tazs,
)
from probeflow.network import _candidate_grid

from conftest import make_grid_network


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def test_haversine_one_degree_latitude():
    # Closed form: for a pure 1-degree latitude difference the central
    # angle is exactly 1 degree, so d = R * pi / 180.
    expected = EARTH_RADIUS_M * math.pi / 180.0
    got = haversine((0.0, 0.0), (1.0, 0.0))
    assert abs(got - expected) < 1e-6
    # Same along a meridian anywhere, and along the equator for longitude.
    assert abs(haversine((10.0, 55.0), (11.0, 55.0)) - expected) < 1e-6
    assert abs(haversine((0.0, -1.0), (0.0, 0.0)) - expected) < 1e-6


def test_haversine_basic_properties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = (float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
        b = (float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
        d_ab = haversine(a, b)
        assert d_ab >= 0.0
        assert abs(d_ab - haversine(b, a)) < 1e-9
    assert haversine((45.0, 45.0), (45.0, 45.0)) == 0.0


def test_meters_per_degree():
    mlat, mlon = meters_per_degree(0.0)
    assert abs(mlat - M_PER_DEG_LAT) < 1e-9
    assert abs(mlon - M_PER_DEG_LAT) < 1e-9
    mlat60, mlon60 = meters_per_degree(60.0)
    assert abs(mlat60 - M_PER_DEG_LAT) < 1e-9
    assert abs(mlon60 - 0.5 * M_PER_DEG_LAT) < 1e-6


# ---------------------------------------------------------------------------
# Types and validation
# ---------------------------------------------------------------------------


def test_node_validation():
    with pytest.raises(InputDataError):
        Node(id=1, lat=91.0, lon=0.0)
    with pytest.raises(InputDataError):
        Node(id=1, lat=0.0, lon=-181.0)


def test_segment_free_flow_time_identity():
    seg = Segment(id=1, from_node=1, to_node=2, length=250.0, free_flow_speed=13.9,
                  capacity=1200.0, road_class="secondary")
    assert seg.free_flow_time == 250.0 / 13.9


def test_segment_validation():
    kw = dict(from_node=1, to_node=2, length=100.0, free_flow_speed=10.0,
              capacity=1000.0, road_class="primary")
    with pytest.raises(InputDataError):
        Segment(id=1, **{**kw, "to_node": 1})
    with pytest.raises(InputDataError):
        Segment(id=1, **{**kw, "length": 0.0})
    with pytest.raises(InputDataError):
        Segment(id=1, **{**kw, "free_flow_speed": -1.0})
    with pytest.raises(InputDataError):
        Segment(id=1, **{**kw, "capacity": 0.0})
    with pytest.raises(InputDataError):
        Segment(id=1, **{**kw, "road_class": "boulevard"})


def _two_node_net():
    nodes = [Node(1, 37.75, -122.45), Node(2, 37.75, -122.44)]
    segs = [Segment(0, 1, 2, 100.0, 10.0, 1000.0, "other"),
            Segment(1, 2, 1, 100.0, 10.0, 1000.0, "other")]
    return RoadNetwork(nodes, segs)


def test_network_validation():
    nodes = [Node(1, 0.0, 0.0), Node(2, 0.0, 0.1)]
    seg = Segment(0, 1, 2, 100.0, 10.0, 1000.0, "other")
    with pytest.raises(InputDataError):
        RoadNetwork(nodes + [Node(1, 1.0, 1.0)], [seg])
    with pytest.raises(InputDataError):
        RoadNetwork(nodes, [seg, Segment(0, 2, 1, 100.0, 10.0, 1000.0, "other")])
    with pytest.raises(InputDataError):
        RoadNetwork(nodes, [Segment(0, 1, 3, 100.0, 10.0, 1000.0, "other")])


def test_network_adjacency_and_arrays():
    net = _two_node_net()
    assert net.n_nodes == 2 and net.n_segments == 2
    assert net.seg_from.tolist() == [net.node_index(1), net.node_index(2)]
    assert net.seg_to.tolist() == [net.node_index(2), net.node_index(1)]
    (times,) = net.segment_columns("times.csv", [1, 0], [7.0, 5.0])
    assert list(times) == [5.0, 7.0]
    with pytest.raises(InputDataError):
        net.segment_columns("times.csv", [0], [5.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(InputDataError, match="times.csv: segment 1"):
            net.segment_columns("times.csv", [0, 1], [5.0, bad], [2, 3])
    with pytest.raises(InputDataError, match="times.csv: unknown segment id 99"):
        net.segment_indices("times.csv", [0, 99])


def test_time_grid():
    grid = TimeGrid()
    assert grid.interval_seconds == 3600 and grid.interval_count == 168
    assert grid.interval_of(0.0) == 0
    assert grid.interval_of(3599.999) == 0
    assert grid.interval_of(3600.0) == 1
    assert grid.interval_of(604800.0) == 167  # clamp at the week boundary
    assert grid.interval_of(-5.0) == 0
    assert TimeGrid(1800, 336).interval_of(1800.0) == 1
    with pytest.raises(InputDataError):
        TimeGrid(3600, 100)
    with pytest.raises(InputDataError):
        TimeGrid(-3600, -168)


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------


def _all_simple_paths(n_nodes, out_edges, src, dst):
    """Yield every simple path src -> dst as a list of segment ids."""
    stack = [(src, [], {src})]
    while stack:
        u, path, seen = stack.pop()
        if u == dst and path:
            yield path
            continue
        if u == dst:
            yield []
            continue
        for sid, v, _w in out_edges[u]:
            if v in seen:
                continue
            stack.append((v, path + [sid], seen | {v}))


def _random_net(rng):
    n = 7
    nodes = [Node(i, 37.0 + 0.001 * i, -122.0 + 0.0013 * (i % 3)) for i in range(n)]
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.45:
                w = float(rng.choice([1.0, 2.0, 3.0]))
                edges.append((u, v, w))
    rng.shuffle(edges)
    segs = [
        # length = 10*w at speed 10 makes free_flow_time exactly w.
        Segment(sid, u, v, 10.0 * w, 10.0, 1000.0, "other")
        for sid, (u, v, w) in enumerate(edges)
    ]
    return RoadNetwork(nodes, segs), edges


def _time(router: Router, u: int, v: int) -> float:
    return float(router.reach(u, np.array([v]))[0][0])


def test_shortest_path_against_enumeration():
    # Integer-valued weights force genuine cost ties; the oracle picks the
    # minimum-cost path whose reversed segment-id tuple is smallest.
    rng = np.random.default_rng(42)
    for _ in range(20):
        net, edges = _random_net(rng)
        out_edges = {u: [] for u in range(7)}
        weight_of = {}
        for sid, (u, v, w) in enumerate(edges):
            out_edges[u].append((sid, v, w))
            weight_of[sid] = w
        # Node ids 0..6 are also the node indices.
        router = Router(net, np.array([weight_of[s.id] for s in net.segments], dtype=float))
        for src in range(7):
            for dst in range(7):
                got = router.route(src, dst)
                cost = _time(router, src, dst)
                paths = list(_all_simple_paths(7, out_edges, src, dst))
                if src == dst:
                    assert got == [] and cost == 0.0
                    continue
                if not paths:
                    assert got is None and cost == math.inf
                    continue
                best_cost = min(sum(weight_of[s] for s in p) for p in paths)
                ties = [p for p in paths if sum(weight_of[s] for s in p) == best_cost]
                expected = min(ties, key=lambda p: tuple(reversed(p)))
                assert got is not None
                assert cost == best_cost
                assert list(got) == expected


@st.composite
def _tied_graphs(draw):
    """A small multigraph with ids unlike its indices and weights in 1..3."""
    n = draw(st.integers(2, 6))
    arcs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3))
    edges = [e for e in draw(st.lists(arcs, max_size=14)) if e[0] != e[1]]
    ids = draw(st.lists(st.integers(0, 99), min_size=len(edges), max_size=len(edges),
                        unique=True))
    src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return n, edges, ids, src, dst


@settings(max_examples=300, deadline=None)
@given(_tied_graphs())
def test_shortest_path_is_reverse_lexicographic_minimum(graph):
    # Small integer weights make cost ties common. The path has the minimum
    # cost and is the minimum-cost simple path whose reversed segment-id
    # tuple is smallest. Zero weights, which could settle a node before an
    # equal-cost rival reaches it, are rejected.
    n, edges, ids, src, dst = graph
    nodes = [Node(10 * i + 3, 37.0 + 0.001 * i, -122.0) for i in range(n)]
    segs = [Segment(sid, 10 * u + 3, 10 * v + 3, 100.0, 10.0, 1000.0, "other")
            for sid, (u, v, _w) in zip(ids, edges)]
    net = RoadNetwork(nodes, segs)
    weight_of = {sid: float(w) for sid, (_u, _v, w) in zip(ids, edges)}
    out_edges = {u: [] for u in range(n)}
    for sid, (u, v, w) in zip(ids, edges):
        out_edges[u].append((sid, v, w))
    weights = np.array([weight_of[s.id] for s in net.segments])

    router = Router(net, weights)
    u, v = net.node_index(10 * src + 3), net.node_index(10 * dst + 3)
    got, cost = router.route(u, v), _time(router, u, v)
    if src == dst:
        assert got == [] and cost == 0.0
        return
    if len(weights):
        zeroed = np.where(weights == weights.max(), 0.0, weights)
        with pytest.raises(InputDataError):
            Router(net, zeroed)
    paths = list(_all_simple_paths(n, out_edges, src, dst))
    if not paths:
        assert got is None
        return
    best = min(sum(weight_of[s] for s in p) for p in paths)
    ties = [p for p in paths if sum(weight_of[s] for s in p) == best]
    assert got is not None and cost == best
    assert [net.segments[j].id for j in got] == min(ties, key=lambda p: tuple(reversed(p)))


def test_shortest_path_rejects_bad_weights():
    net = _two_node_net()
    with pytest.raises(InputDataError):
        Router(net, np.full(2, -1.0))
    with pytest.raises(InputDataError):
        Router(net, np.full(2, math.nan))
    with pytest.raises(InputDataError, match="segment 1: travel time must be finite and > 0"):
        Router(net, np.array([1.0, 0.0]))
    with pytest.raises(InputDataError):
        net.node_index(3)  # routes take node indices; an unknown id has none


def test_shortest_path_on_grid():
    net = make_grid_network(4, 4, spacing=100.0)
    router = Router(net, net.seg_fft)
    path, cost = router.route(0, 15), _time(router, 0, 15)
    assert path is not None
    assert len(path) == 6  # 3 east + 3 north in some order
    total = sum(net.segments[j].free_flow_time for j in path)
    assert abs(total - cost) < 1e-12


def _full_tree_oracle(net: RoadNetwork, weights: list[float], u: int):
    """Every node's (time, length, route) from u by a full, heap-free Dijkstra.

    Settles the unsettled node of smallest (time, index) each round, which
    is the order a binary heap of (time, node) pops; among equal-cost
    predecessors the smaller segment index wins. Times and lengths are
    left-to-right sums along each route; unreachable nodes get
    (inf, inf, None).
    """
    n = net.n_nodes
    dist, pred, settled = [math.inf] * n, [-1] * n, [False] * n
    dist[u] = 0.0
    while True:
        open_nodes = [(dist[v], v) for v in range(n) if not settled[v] and dist[v] < math.inf]
        if not open_nodes:
            break
        d, w = min(open_nodes)
        settled[w] = True
        for j in range(net.n_segments):
            if net.seg_from[j] != w:
                continue
            v, nd = int(net.seg_to[j]), d + weights[j]
            if nd < dist[v] or (nd == dist[v] and not settled[v] and j < pred[v]):
                dist[v], pred[v] = nd, j
    out = []
    for v in range(n):
        if not settled[v]:
            out.append((math.inf, math.inf, None))
            continue
        route, w = [], v
        while w != u:
            route.append(pred[w])
            w = int(net.seg_from[pred[w]])
        route.reverse()
        time = length = 0.0
        for j in route:
            time += weights[j]
            length += float(net.seg_length[j])
        out.append((time, length, route))
    return out


@st.composite
def _tied_grid_queries(draw):
    """A grid with weights in 1..3, some segments dropped, and a query sequence."""
    nx, ny = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    net = make_grid_network(nx, ny, spacing=100.0, jitter=10.0, jitter_seed=draw(st.integers(0, 9)))
    if draw(st.booleans()):
        # Dropping segments leaves some nodes unreachable from others.
        keep = draw(st.lists(st.booleans(), min_size=net.n_segments, max_size=net.n_segments))
        net = RoadNetwork(net.nodes.values(), [s for s, k in zip(net.segments, keep) if k])
    weights = [float(w) for w in draw(st.lists(st.integers(1, 3), min_size=net.n_segments,
                                               max_size=net.n_segments))]
    node = st.integers(0, net.n_nodes - 1)
    queries = draw(st.lists(st.tuples(st.sampled_from(["reach", "route"]), st.integers(0, 2).map(
        lambda k: k * net.n_nodes // 3), st.lists(node, min_size=1, max_size=4)), max_size=12))
    return net, weights, queries


@settings(max_examples=150, deadline=None)
@given(_tied_grid_queries())
def test_query_bounded_trees_equal_full_trees(case):
    # Queries from a few sources in any order resume each search where the
    # last one stopped; every answer equals the full tree's, bit for bit.
    net, weights, queries = case
    router = Router(net, np.array(weights))
    oracles = {}
    for kind, u, targets in queries:
        full = oracles.setdefault(u, _full_tree_oracle(net, weights, u))
        if kind == "route":
            for v in targets:
                assert router.route(u, v) == full[v][2]
            continue
        time, length = router.reach(u, np.array(targets))
        assert [float(x) for x in time] == [full[v][0] for v in targets]
        assert [float(x) for x in length] == [full[v][1] for v in targets]


def test_router_packs_a_search_that_settles_half_the_network():
    net = make_grid_network(6, 6, spacing=100.0)
    router = Router(net, net.seg_fft)
    far = net.n_nodes - 1
    time, length = router.reach(0, np.array([far]))
    assert router.settled() == net.n_nodes  # finished and packed
    full = _full_tree_oracle(net, net.seg_fft.tolist(), 0)
    assert (float(time[0]), float(length[0])) == full[far][:2]
    assert router.route(0, far) == full[far][2]


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


class Candidate(NamedTuple):
    """One candidate row of ``project_to_candidates``, by segment id."""

    segment_id: int
    offset: float
    distance: float


def _per_point(net: RoadNetwork, found, n_points: int) -> list[list[Candidate]]:
    """The flat candidate arrays as one list per point, checking their layout."""
    fix, seg, offset, dist = found
    assert fix.dtype == seg.dtype == np.int64 and offset.dtype == dist.dtype == float
    assert len(fix) == len(seg) == len(offset) == len(dist)
    assert np.all(np.diff(fix) >= 0)  # sorted by point: consecutive points are one slice
    out: list[list[Candidate]] = [[] for _ in range(n_points)]
    for i, j, off, d in zip(fix.tolist(), seg.tolist(), offset.tolist(), dist.tolist()):
        out[i].append(Candidate(net.segments[j].id, off, d))
    return out


def _candidates(net: RoadNetwork, points, radius: float,
                max_candidates: int) -> list[list[Candidate]]:
    """Candidates of each point, one list per point."""
    found = project_to_candidates(net, [p[0] for p in points], [p[1] for p in points],
                                  [meters_per_degree(p[0])[1] for p in points], radius,
                                  max_candidates)
    return _per_point(net, found, len(points))


def _scan_candidates(net: RoadNetwork, point: tuple[float, float], radius: float,
                     max_candidates: int) -> list[Candidate]:
    """Linear-scan oracle: project the point onto every segment.

    Keeps at most ``max_candidates`` segments within ``radius``, ordered
    by (distance, segment index), with the same elementwise floats as
    ``project_to_candidates``.
    """
    mlat, mlon = meters_per_degree(point[0])
    alat, alon = net.node_lat[net.seg_from], net.node_lon[net.seg_from]
    blat, blon = net.node_lat[net.seg_to], net.node_lon[net.seg_to]
    ax = (alon - point[1]) * mlon
    ay = (alat - point[0]) * mlat
    bx = (blon - point[1]) * mlon
    by = (blat - point[0]) * mlat
    dx = bx - ax
    dy = by - ay
    sq = dx * dx + dy * dy
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(sq > 0.0, -(ax * dx + ay * dy) / np.where(sq > 0.0, sq, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    dist = np.hypot(ax + t * dx, ay + t * dy)
    within = np.flatnonzero(dist <= radius)
    order = within[np.lexsort((within, dist[within]))][:max_candidates]
    return [Candidate(net.segments[j].id, float(t[j] * net.seg_length[j]), float(dist[j]))
            for j in order]


@st.composite
def _scattered_networks(draw):
    """Nodes on a coarse lattice anywhere up to 80 degrees from the equator.

    Nodes may share a position, so some segments have coincident ends.
    """
    lat0, lon0 = draw(st.floats(-80.0, 80.0)), draw(st.floats(-170.0, 170.0))
    step = draw(st.sampled_from([7.5, 40.0, 150.0]))
    cells = draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                          min_size=2, max_size=9))
    mlat, mlon = meters_per_degree(lat0)
    nodes = [Node(i, lat0 + y * step / mlat, lon0 + x * step / mlon)
             for i, (x, y) in enumerate(cells)]
    pairs = draw(st.lists(st.tuples(st.integers(0, len(nodes) - 1),
                                    st.integers(0, len(nodes) - 1)), min_size=1, max_size=14))
    segs = [Segment(sid, a, b, max(1.0, haversine((nodes[a].lat, nodes[a].lon),
                                                  (nodes[b].lat, nodes[b].lon))), 10.0, 1000.0,
                    "other")
            for sid, (a, b) in enumerate(p for p in pairs if p[0] != p[1])]
    return RoadNetwork(nodes, segs)


@settings(max_examples=200, deadline=None)
@given(net=_scattered_networks(), radius=st.floats(1.0, 12000.0),
       max_candidates=st.integers(1, 10), data=st.data())
def test_grid_candidates_equal_linear_scan(net, radius, max_candidates, data):
    # Fixes near nodes, and fixes exactly on grid cell corners near them;
    # the largest radii exceed the whole network.
    if net.n_segments == 0:
        return
    grid = _candidate_grid(net, radius)
    points = []
    for _ in range(data.draw(st.integers(1, 8))):
        node = net.nodes[data.draw(st.sampled_from(net.node_ids()))]
        mlat, mlon = meters_per_degree(node.lat)
        if data.draw(st.booleans()):
            dy, dx = data.draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
            points.append((node.lat + dy * radius / mlat, node.lon + dx * radius / mlon))
        else:
            row = math.floor((node.lat - grid.lat0) / grid.cell_lat) + data.draw(st.integers(-2, 2))
            col = math.floor((node.lon - grid.lon0) / grid.cell_lon) + data.draw(st.integers(-2, 2))
            points.append((grid.lat0 + row * grid.cell_lat, grid.lon0 + col * grid.cell_lon))
    points = [(min(max(lat, -90.0), 90.0), min(max(lon, -180.0), 180.0)) for lat, lon in points]
    got = _candidates(net, points, radius, max_candidates)
    assert got == [_scan_candidates(net, p, radius, max_candidates) for p in points]


def test_grid_candidates_exactly_one_radius_across_cell_edges():
    # East-west segments one cell apart and fixes one cell north of each,
    # so every fix is one radius from a segment and sits on a cell edge,
    # up to rounding in either direction.
    radius = 25.0
    step = radius / M_PER_DEG_LAT
    for lat_base in (0.0, 37.7, -61.3, 79.9):
        nodes = [Node(2 * i + k, lat_base + i * step, 0.001 * k) for i in range(60) for k in (0, 1)]
        segs = [Segment(i, 2 * i, 2 * i + 1, 100.0, 10.0, 1000.0, "other") for i in range(60)]
        net = RoadNetwork(nodes, segs)
        lats = [lat_base + (i + 1) * step for i in range(60)]
        got = _candidates(net, [(lat, 0.0005) for lat in lats], radius, 8)
        assert got == [_scan_candidates(net, (lat, 0.0005), radius, 8) for lat in lats]


def test_grid_candidates_of_an_empty_batch_a_distant_fix_and_an_infinite_radius():
    net = make_grid_network(3, 3, spacing=100.0)
    assert _candidates(net, [], 50.0, 8) == []
    assert _candidates(net, [(-60.0, 170.0)], 50.0, 8) == [[]]
    far = [(-60.0, 170.0), (89.0, -179.0)]
    got = _candidates(net, far, math.inf, 30)
    assert got == [_scan_candidates(net, p, math.inf, 30) for p in far]
    assert all(len(cands) == net.n_segments for cands in got)


def _project(net, point, radius, max_candidates):
    """Candidates of one point."""
    return _candidates(net, [point], radius, max_candidates)[0]


def _equator_net():
    nodes = [Node(1, 0.0, 0.0), Node(2, 0.0, 0.001), Node(3, 0.001, 0.0)]
    segs = [
        Segment(0, 1, 2, haversine((0.0, 0.0), (0.0, 0.001)), 10.0, 1000.0, "other"),
        Segment(1, 2, 1, haversine((0.0, 0.0), (0.0, 0.001)), 10.0, 1000.0, "other"),
        Segment(2, 1, 3, haversine((0.0, 0.0), (0.001, 0.0)), 10.0, 1000.0, "other"),
    ]
    return RoadNetwork(nodes, segs)


def test_project_midpoint():
    net = _equator_net()
    length = net.segments[0].length
    cands = _project(net, (0.0001, 0.0005), radius=50.0, max_candidates=8)
    assert [c.segment_id for c in cands] == [0, 1]
    c0 = cands[0]
    # Midpoint projection: offset is half the length; the perpendicular
    # distance is 0.0001 degrees of latitude.
    assert abs(c0.offset - 0.5 * length) < 1e-6
    assert abs(c0.distance - 0.0001 * M_PER_DEG_LAT) < 1e-3
    # The reverse segment sees the mirrored offset.
    assert abs(cands[1].offset - 0.5 * length) < 1e-6


def test_project_clamps_to_endpoints():
    net = _equator_net()
    length = net.segments[0].length
    cands = _project(net, (0.0, 0.002), radius=500.0, max_candidates=1)
    assert cands[0].segment_id in (0, 1)
    got = next(c for c in _project(net, (0.0, 0.002), 500.0, 8) if c.segment_id == 0)
    assert got.offset == length
    assert abs(got.distance - 0.001 * M_PER_DEG_LAT) < 1e-3


def test_project_radius_and_cap():
    net = _equator_net()
    assert _project(net, (0.5, 0.5), radius=50.0, max_candidates=8) == []
    cands = _project(net, (0.00005, 0.0005), radius=1000.0, max_candidates=2)
    assert len(cands) == 2
    assert cands[0].distance <= cands[1].distance
    fix, seg, offset, dist = project_to_candidates(net, [0.00005], [0.0005],
                                                   [meters_per_degree(0.00005)[1]], 1000.0, 2)
    assert fix.tolist() == [0, 0]
    assert [net.segments[j].id for j in seg.tolist()] == [c.segment_id for c in cands]
    assert offset.tolist() == [c.offset for c in cands]
    assert dist.tolist() == [c.distance for c in cands]


def test_position_on_segment():
    net = _equator_net()
    length = net.segments[0].length
    lat, lon = position_on_segment(net, 0, 0.5 * length)
    assert abs(lat - 0.0) < 1e-12
    assert abs(lon - 0.0005) < 1e-9


# ---------------------------------------------------------------------------
# OSM import
# ---------------------------------------------------------------------------

_OSM_TWO_NODE = """<?xml version="1.0"?>
<osm>
 <node id="1" lat="0.0" lon="0.0"/>
 <node id="2" lat="0.0" lon="0.001"/>
 <way id="10">
  <nd ref="1"/><nd ref="2"/>
  <tag k="highway" v="primary"/>
  <tag k="oneway" v="yes"/>
 </way>
</osm>
"""


def test_import_osm_oneway():
    net = import_osm(_OSM_TWO_NODE)
    assert net.n_nodes == 2 and net.n_segments == 1
    seg = net.segments[0]
    assert (seg.from_node, seg.to_node) == (1, 2)
    assert seg.road_class == "primary"
    speed, cap = DEFAULT_CLASS_TABLE["primary"]
    assert seg.free_flow_speed == speed and seg.capacity == cap
    assert abs(seg.length - haversine((0.0, 0.0), (0.0, 0.001))) < 1e-9


def test_import_osm_two_way_and_intermediate_nodes():
    xml = """<osm>
     <node id="1" lat="0.0" lon="0.0"/>
     <node id="2" lat="0.0" lon="0.001"/>
     <node id="3" lat="0.0" lon="0.002"/>
     <way id="10"><nd ref="1"/><nd ref="2"/><nd ref="3"/><tag k="highway" v="residential"/></way>
    </osm>"""
    net = import_osm(xml)
    # Every intermediate way node becomes a graph node; each consecutive
    # pair yields one segment per direction.
    assert net.n_nodes == 3 and net.n_segments == 4
    pairs = {(s.from_node, s.to_node) for s in net.segments}
    assert pairs == {(1, 2), (2, 1), (2, 3), (3, 2)}


def test_import_osm_reverse_oneway():
    xml = _OSM_TWO_NODE.replace('v="yes"', 'v="-1"')
    net = import_osm(xml)
    assert net.n_segments == 1
    assert (net.segments[0].from_node, net.segments[0].to_node) == (2, 1)


def test_import_osm_skips_broken_way(caplog):
    xml = """<osm>
     <node id="1" lat="0.0" lon="0.0"/>
     <node id="2" lat="0.0" lon="0.001"/>
     <way id="10"><nd ref="1"/><nd ref="99"/><tag k="highway" v="primary"/></way>
     <way id="11"><nd ref="1"/><nd ref="2"/><tag k="highway" v="primary"/></way>
    </osm>"""
    import logging

    with caplog.at_level(logging.WARNING, logger="probeflow.network"):
        net = import_osm(xml)
    assert net.n_segments == 2
    assert any("missing node" in r.message for r in caplog.records)


def test_import_osm_ignores_non_highway():
    xml = """<osm>
     <node id="1" lat="0.0" lon="0.0"/>
     <node id="2" lat="0.0" lon="0.001"/>
     <node id="7" lat="5.0" lon="5.0"/>
     <way id="10"><nd ref="1"/><nd ref="2"/><tag k="waterway" v="river"/></way>
    </osm>"""
    net = import_osm(xml)
    assert net.n_nodes == 0 and net.n_segments == 0


def test_import_osm_malformed_raises():
    with pytest.raises(InputDataError) as exc:
        import_osm("<osm><node id='1' lat='0' lon='0'></osm>")
    assert "line" in str(exc.value)


def test_import_osm_unknown_highway_maps_to_other():
    xml = _OSM_TWO_NODE.replace('v="primary"', 'v="service"')
    net = import_osm(xml)
    assert net.segments[0].road_class == "other"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_network_json_round_trip(tmp_path):
    net = make_grid_network(3, 2, spacing=150.0)
    path = tmp_path / "net.json"
    write_network(net, path)
    got = read_network(path)
    assert got.node_ids() == net.node_ids()
    assert got.segment_ids() == net.segment_ids()
    for a, b in zip(net.segments, got.segments):
        assert a == b
    for nid in net.node_ids():
        assert net.nodes[nid] == got.nodes[nid]


def test_read_network_rejects_garbage(tmp_path):
    path = tmp_path / "net.json"
    path.write_text("{not json")
    with pytest.raises(InputDataError):
        read_network(path)
    path.write_text('{"nodes": [], "segments": [{"id": 0}]}')
    with pytest.raises(InputDataError):
        read_network(path)


def test_read_network_rejects_non_utf8(tmp_path):
    path = tmp_path / "net.json"
    path.write_bytes(b'{"nodes": [], "segments": [], "name": "\xff"}')
    with pytest.raises(InputDataError, match="net.json"):
        read_network(path)


def test_taz_round_trip(tmp_path):
    net = make_grid_network(3, 3)
    tazs = [Taz(1, 0, "sw"), Taz(2, 8, "ne")]
    path = tmp_path / "tazs.csv"
    write_tazs(tazs, path)
    assert path.read_text().splitlines()[0] == "taz_id,centroid_node,name"
    got = read_tazs(path, net)
    assert got == tazs
    bad = tmp_path / "bad.csv"
    bad.write_text("taz,centroid\n1,0\n")
    with pytest.raises(InputDataError):
        read_tazs(bad)


def test_read_tazs_validates_centroids(tmp_path):
    net = make_grid_network(2, 2)
    path = tmp_path / "tazs.csv"
    write_tazs([Taz(1, 99, "x")], path)
    with pytest.raises(InputDataError):
        read_tazs(path, net)
