"""Network model: geometry, graph construction, routing, OSM import, I/O."""

from __future__ import annotations

import math

import numpy as np
import pytest

from probeflow.errors import InputDataError
from probeflow.network import (
    DEFAULT_CLASS_TABLE,
    EARTH_RADIUS_M,
    M_PER_DEG_LAT,
    Candidate,
    Node,
    RoadNetwork,
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
    shortest_path,
    write_network,
    write_tazs,
)
from probeflow.tables import fmt_float

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
    assert net.out_adjacency[1] == [0]
    assert net.out_adjacency[2] == [1]
    (times,) = net.segment_columns("times.csv", [(1, 7.0), (0, 5.0)])
    assert list(times) == [5.0, 7.0]
    with pytest.raises(InputDataError):
        net.segment_columns("times.csv", [(0, 5.0)])
    with pytest.raises(InputDataError):
        net.segment_by_id(99)


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


def test_fmt_float_round_trip():
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(1.0) == "1.0"
    assert fmt_float(np.float64(0.25)) == "0.25"
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = float(rng.uniform(-1e6, 1e6)) * 10 ** int(rng.integers(-6, 7))
        assert float(fmt_float(x)) == x


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
        for src in range(7):
            for dst in range(7):
                weights = np.array([weight_of[s.id] for s in net.segments], dtype=float)
                got = shortest_path(net, src, dst, weights)
                paths = list(_all_simple_paths(7, out_edges, src, dst))
                if src == dst:
                    assert got == ([], 0.0)
                    continue
                if not paths:
                    assert got is None
                    continue
                best_cost = min(sum(weight_of[s] for s in p) for p in paths)
                ties = [p for p in paths if sum(weight_of[s] for s in p) == best_cost]
                expected = min(ties, key=lambda p: tuple(reversed(p)))
                assert got is not None
                assert got[1] == best_cost
                assert got[0] == expected


def test_shortest_path_rejects_bad_weights():
    net = _two_node_net()
    with pytest.raises(InputDataError):
        shortest_path(net, 1, 2, np.full(2, -1.0))
    with pytest.raises(InputDataError):
        shortest_path(net, 1, 2, np.full(2, math.nan))
    with pytest.raises(InputDataError):
        shortest_path(net, 3, 2, np.ones(2))


def test_shortest_path_on_grid():
    net = make_grid_network(4, 4, spacing=100.0)
    res = shortest_path(net, 0, 15, net.seg_fft)
    assert res is not None
    path, cost = res
    assert len(path) == 6  # 3 east + 3 north in some order
    total = sum(net.segment_by_id(s).free_flow_time for s in path)
    assert abs(total - cost) < 1e-12


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


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
    length = net.segment_by_id(0).length
    cands = project_to_candidates(net, (0.0001, 0.0005), radius=50.0, max_candidates=8)
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
    length = net.segment_by_id(0).length
    cands = project_to_candidates(net, (0.0, 0.002), radius=500.0, max_candidates=1)
    assert cands[0].segment_id in (0, 1)
    got = next(c for c in project_to_candidates(net, (0.0, 0.002), 500.0, 8) if c.segment_id == 0)
    assert got.offset == length
    assert abs(got.distance - 0.001 * M_PER_DEG_LAT) < 1e-3


def test_project_radius_and_cap():
    net = _equator_net()
    assert project_to_candidates(net, (0.5, 0.5), radius=50.0, max_candidates=8) == []
    cands = project_to_candidates(net, (0.00005, 0.0005), radius=1000.0, max_candidates=2)
    assert len(cands) == 2
    assert cands[0].distance <= cands[1].distance
    assert isinstance(cands[0], Candidate)


def test_position_on_segment():
    net = _equator_net()
    length = net.segment_by_id(0).length
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
