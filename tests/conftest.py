"""Shared fixtures: synthetic networks, traces and assignment checks used across the test suite."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from probeflow.assignment import BPR_ALPHA, BPR_BETA, AssignmentResult
from probeflow.mapmatch import GpsTrace
from probeflow.network import M_PER_DEG_LAT, Node, RoadNetwork, Segment, TimeGrid, haversine
from probeflow.tracegen import GroundTruthScenario, ProbeConfig, TruthTrip, sample_trace, with_times

GRID_LAT0 = 37.75
GRID_LON0 = -122.45


def bpr_time(fft: float, capacity: float, flow: float) -> float:
    """Congested travel time of one link under the BPR curve."""
    return fft * (1.0 + BPR_ALPHA * (flow / capacity) ** BPR_BETA)


def total_system_travel_time(result: AssignmentResult) -> float:
    """Sum of flow * travel time over all segments (veh-seconds per hour)."""
    return math.fsum(result.flow * result.time)


def make_grid_network(
    nx: int,
    ny: int,
    spacing: float = 200.0,
    road_class: str = "secondary",
    speed: float = 13.9,
    capacity: float = 1200.0,
    lat0: float = GRID_LAT0,
    lon0: float = GRID_LON0,
    jitter: float = 0.0,
    jitter_seed: int = 0,
) -> RoadNetwork:
    """Rectangular grid with bidirectional edges between 4-neighbors.

    Node ids are row-major (id = iy * nx + ix); segment ids count up in
    scan order, horizontal pair before vertical, forward before reverse.
    Segment lengths come from the node geometry, so they sit within a
    fraction of a percent of ``spacing``.

    A perfect lattice has many exactly tied shortest paths, which no
    real street network does; ``jitter`` displaces every node by a
    seeded uniform offset up to that many meters per axis, making
    route lengths (and therefore shortest paths) unique.
    """
    offsets = {}
    if jitter > 0.0:
        rng = np.random.default_rng(jitter_seed)
        for iy in range(ny):
            for ix in range(nx):
                offsets[(ix, iy)] = rng.uniform(-jitter, jitter, size=2)

    dlat = spacing / M_PER_DEG_LAT
    dlon = spacing / (M_PER_DEG_LAT * math.cos(math.radians(lat0)))

    def coord(ix: int, iy: int) -> tuple[float, float]:
        dy, dx = offsets.get((ix, iy), (0.0, 0.0))
        return (lat0 + iy * dlat + dy / M_PER_DEG_LAT,
                lon0 + ix * dlon + dx / (M_PER_DEG_LAT * math.cos(math.radians(lat0))))

    nodes = []
    for iy in range(ny):
        for ix in range(nx):
            lat, lon = coord(ix, iy)
            nodes.append(Node(id=iy * nx + ix, lat=lat, lon=lon))

    segments = []
    sid = 0
    for iy in range(ny):
        for ix in range(nx):
            a = iy * nx + ix
            for bx, by in ((ix + 1, iy), (ix, iy + 1)):
                if bx >= nx or by >= ny:
                    continue
                b = by * nx + bx
                length = haversine(coord(ix, iy), coord(bx, by))
                for u, v in ((a, b), (b, a)):
                    segments.append(
                        Segment(
                            id=sid,
                            from_node=u,
                            to_node=v,
                            length=length,
                            free_flow_speed=speed,
                            capacity=capacity,
                            road_class=road_class,
                        )
                    )
                    sid += 1
    return RoadNetwork(nodes, segments)


def grid_node(nx: int, ix: int, iy: int) -> int:
    return iy * nx + ix


def make_corridor_network(
    n_segs: int = 5,
    length: float = 200.0,
    speed: float = 10.0,
    capacity: float = 1000.0,
) -> RoadNetwork:
    """One-way west-to-east corridor on the equator with exact segment lengths."""
    mlon = M_PER_DEG_LAT  # cos(0) == 1 at the equator
    nodes = [Node(id=i, lat=0.0, lon=i * length / mlon) for i in range(n_segs + 1)]
    segments = [
        Segment(id=i, from_node=i, to_node=i + 1, length=length,
                free_flow_speed=speed, capacity=capacity, road_class="secondary")
        for i in range(n_segs)
    ]
    return RoadNetwork(nodes, segments)


class TwoRouteFixture(NamedTuple):
    net: RoadNetwork
    traces: list[GpsTrace]
    truth_times: np.ndarray
    truth_paths: dict[int, list[int]]
    ambiguous_ids: list[int]
    grid: TimeGrid


def make_two_route_fixture(n_pinned: int = 6, n_ambiguous: int = 8) -> TwoRouteFixture:
    """Equal-length fork where only travel time identifies the true route.

    Two one-way routes connect A to B: the fast one over U (segments 0, 1,
    free flow) and a congested one over T (segments 2, 3, at double the
    free-flow time). A shared tail B->C (segment 4) lets through trips
    reveal both corridor halves. Pinned vehicles carry mid-corridor points
    that identify their route geometrically; ambiguous vehicles report
    only their endpoints, so geometry ties and the (fast, smaller-id)
    route wins until travel times are learned. Their true route is the
    congested one.
    """
    dlat = 100.0 / M_PER_DEG_LAT
    dlon = 1000.0 / M_PER_DEG_LAT  # equator: 1 m east = 1/M_PER_DEG_LAT degrees
    nodes = [
        Node(id=0, lat=0.0, lon=0.0),          # A
        Node(id=1, lat=-dlat, lon=dlon),       # U (fast midpoint)
        Node(id=2, lat=dlat, lon=dlon),        # T (congested midpoint)
        Node(id=3, lat=0.0, lon=2 * dlon),     # B
        Node(id=4, lat=0.0, lon=2.5 * dlon),   # C
    ]
    mk = lambda sid, fr, to, length: Segment(
        id=sid, from_node=fr, to_node=to, length=length,
        free_flow_speed=25.0, capacity=1000.0, road_class="primary")
    net = RoadNetwork(nodes, [
        mk(0, 0, 1, 1000.0), mk(1, 1, 3, 1000.0),
        mk(2, 0, 2, 1000.0), mk(3, 2, 3, 1000.0),
        mk(4, 3, 4, 500.0),
    ])
    truth_times = np.array([40.0, 40.0, 80.0, 80.0, 20.0])
    truth = GroundTruthScenario(id=0, demand_multiplier=1.0, time=truth_times,
                                flow=np.zeros(len(truth_times)))

    pinned_cfg = ProbeConfig(sampling_period=30.0, gps_sigma=0.0)
    endpoint_cfg = ProbeConfig(sampling_period=500.0, gps_sigma=0.0)
    traces: list[GpsTrace] = []
    truth_paths: dict[int, list[int]] = {}
    vid = 0
    for path, cfg, count in (
        ([2, 3, 4], pinned_cfg, n_pinned),
        ([0, 1, 4], pinned_cfg, n_pinned),
        ([2, 3], endpoint_cfg, n_ambiguous),
    ):
        for i in range(count):
            trip = with_times(TruthTrip(vehicle_id=vid, departure=40.0 * i + 15.0,
                                        path=list(path), entry_times=None), net, truth)
            traces.append(sample_trace(trip, net, truth, cfg))
            truth_paths[vid] = list(path)
            vid += 1
    ambiguous_ids = list(range(2 * n_pinned, vid))
    return TwoRouteFixture(net=net, traces=traces, truth_times=truth_times,
                           truth_paths=truth_paths, ambiguous_ids=ambiguous_ids,
                           grid=TimeGrid())
