"""Road network model.

Directed graph of road segments with WGS84 node coordinates, plus the
geometric and graph primitives everything downstream leans on: OSM-XML
import, great-circle distance, deterministic fastest paths (``Router``),
and point-to-segment projection for map matching candidates.

Conventions used throughout the package:

* coordinates are WGS84 degrees, distances are meters, times are seconds
* every segment is one-directional; a two-way road is two segments with
  swapped endpoints
* networks are immutable after construction; the candidate search
  grids they cache fill on first use
* every per-segment value inside the package (times, flows, supports,
  VOCs, weights) is a numpy array of length ``n_segments`` in
  ``net.segments`` order, which is ascending segment id; id-keyed tables
  exist only in files, and the table readers map them onto that order
* every sequence of segments inside the package (matched piece rows,
  truth trips, observation rows, routes) holds indices into ``net.segments``,
  so sorted indices run in id order; the table readers map ids to indices
  (``segment_indices``) and the writers map them back (``segment_ids``)
* probe fixes and matched pieces are column arrays (``mapmatch.Fixes``,
  ``mapmatch.Pieces``), never one stored object per vehicle or piece

Point geometry uses a local planar approximation (meters per degree at
the query latitude). At city scale the error is far below GPS noise.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InputDataError
from .tables import read_table, write_table

logger = logging.getLogger(__name__)

# Mean Earth radius (IUGG), meters.
EARTH_RADIUS_M = 6371008.8

# Meters per degree of latitude on the sphere above.
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0

# Seconds in one week; the time grid always covers exactly this span.
WEEK_SECONDS = 7 * 24 * 3600

ROAD_CLASSES = (
    "motorway",
    "trunk",
    "primary",
    "secondary",
    "tertiary",
    "residential",
    "other",
)

# Per-class (free-flow speed m/s, capacity veh/h) used when a data source
# does not carry speeds or capacities of its own.
DEFAULT_CLASS_TABLE: dict[str, tuple[float, float]] = {
    "motorway": (27.8, 2000.0),
    "trunk": (22.2, 1800.0),
    "primary": (16.7, 1500.0),
    "secondary": (13.9, 1200.0),
    "tertiary": (11.1, 1000.0),
    "residential": (8.3, 800.0),
    "other": (8.3, 600.0),
}

# highway=* values mapped onto the class set above; anything not listed
# (but still carrying a highway tag) falls back to "other".
_HIGHWAY_TO_CLASS = {
    "motorway": "motorway",
    "motorway_link": "motorway",
    "trunk": "trunk",
    "trunk_link": "trunk",
    "primary": "primary",
    "primary_link": "primary",
    "secondary": "secondary",
    "secondary_link": "secondary",
    "tertiary": "tertiary",
    "tertiary_link": "tertiary",
    "residential": "residential",
    "living_street": "residential",
    "unclassified": "residential",
}


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    """Graph vertex at a WGS84 position."""

    id: int
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise InputDataError(f"node {self.id}: latitude {self.lat} out of range")
        if not (-180.0 <= self.lon <= 180.0):
            raise InputDataError(f"node {self.id}: longitude {self.lon} out of range")


@dataclass(frozen=True)
class Segment:
    """One-directional road segment between two nodes.

    ``free_flow_time`` is always derived as ``length / free_flow_speed``;
    it is computed here so the identity holds exactly by construction.
    """

    id: int
    from_node: int
    to_node: int
    length: float
    free_flow_speed: float
    capacity: float
    road_class: str
    free_flow_time: float = field(init=False)

    def __post_init__(self) -> None:
        if self.from_node == self.to_node:
            raise InputDataError(f"segment {self.id}: self-loop at node {self.from_node}")
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise InputDataError(f"segment {self.id}: length must be positive, got {self.length}")
        if not (self.free_flow_speed > 0.0 and math.isfinite(self.free_flow_speed)):
            raise InputDataError(
                f"segment {self.id}: free-flow speed must be positive, got {self.free_flow_speed}"
            )
        if not (self.capacity > 0.0 and math.isfinite(self.capacity)):
            raise InputDataError(f"segment {self.id}: capacity must be positive, got {self.capacity}")
        if self.road_class not in ROAD_CLASSES:
            raise InputDataError(f"segment {self.id}: unknown road class {self.road_class!r}")
        object.__setattr__(self, "free_flow_time", self.length / self.free_flow_speed)


class RoadNetwork:
    """Immutable directed road graph with fast array views.

    Construction validates referential integrity (segment endpoints must
    exist, ids must be unique) and precomputes index arrays used by the
    assignment, routing, and projection code. Do not mutate a network
    after building it; create a new one instead.
    """

    def __init__(self, nodes: Iterable[Node], segments: Iterable[Segment]) -> None:
        self.nodes: dict[int, Node] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise InputDataError(f"duplicate node id {node.id}")
            self.nodes[node.id] = node

        self.segments: list[Segment] = []
        seen_seg: set[int] = set()
        for seg in segments:
            if seg.id in seen_seg:
                raise InputDataError(f"duplicate segment id {seg.id}")
            if seg.from_node not in self.nodes:
                raise InputDataError(f"segment {seg.id}: unknown from node {seg.from_node}")
            if seg.to_node not in self.nodes:
                raise InputDataError(f"segment {seg.id}: unknown to node {seg.to_node}")
            seen_seg.add(seg.id)
            self.segments.append(seg)

        # Stable orderings: nodes by id, segments by id. All internal
        # arrays and every deterministic iteration follow these.
        self._node_ids: list[int] = sorted(self.nodes)
        self._node_index: dict[int, int] = {nid: i for i, nid in enumerate(self._node_ids)}
        self.segments.sort(key=lambda s: s.id)
        self._segment_index: dict[int, int] = {s.id: i for i, s in enumerate(self.segments)}

        n, m = len(self._node_ids), len(self.segments)
        self.node_lat = np.array([self.nodes[i].lat for i in self._node_ids], dtype=float)
        self.node_lon = np.array([self.nodes[i].lon for i in self._node_ids], dtype=float)
        self.seg_from = np.array([self._node_index[s.from_node] for s in self.segments], dtype=np.int64)
        self.seg_to = np.array([self._node_index[s.to_node] for s in self.segments], dtype=np.int64)
        self.seg_length = np.array([s.length for s in self.segments], dtype=float)
        self.seg_capacity = np.array([s.capacity for s in self.segments], dtype=float)
        self.seg_fft = np.array([s.free_flow_time for s in self.segments], dtype=float)

        # Endpoint coordinates per segment, for projection.
        self._seg_alat = self.node_lat[self.seg_from]
        self._seg_alon = self.node_lon[self.seg_from]
        self._seg_blat = self.node_lat[self.seg_to]
        self._seg_blon = self.node_lon[self.seg_to]

        # Node index -> [(segment index, head node index)], segments ascending,
        # for Dijkstra.
        self._out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for j, seg in enumerate(self.segments):
            self._out[self._node_index[seg.from_node]].append((j, int(self.seg_to[j])))
        # Candidate search grids by radius, built on first use.
        self._grids: dict[float, _CandidateGrid] = {}

        logger.debug("built network: %d nodes, %d segments", n, m)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._node_ids)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def node_ids(self) -> list[int]:
        return list(self._node_ids)

    def segment_ids(self) -> list[int]:
        return [s.id for s in self.segments]

    def segment_indices(self, source: str, ids: Iterable[int]) -> list[int]:
        """Index into ``segments`` of each segment id; an unknown id raises naming ``source``."""
        try:
            return [self._segment_index[sid] for sid in ids]
        except KeyError as exc:
            raise InputDataError(f"{source}: unknown segment id {exc.args[0]}") from None

    def node_index(self, node_id: int) -> int:
        try:
            return self._node_index[node_id]
        except KeyError:
            raise InputDataError(f"unknown node id {node_id}") from None

    def segment_columns(self, source: str, ids: Sequence[int],
                        *columns: Sequence[float]) -> tuple[np.ndarray, ...]:
        """Value columns of a per-segment table, in ``segments`` order.

        ``ids`` and each value column hold one entry per table row, one
        row per network segment; an empty table, an unknown, repeated or
        missing segment, or a nan or infinite value raises InputDataError
        naming ``source`` and the first such segment in table order.
        """
        if not len(ids):
            raise InputDataError(f"{source}: no segment rows")
        positions = np.array(self.segment_indices(source, ids), dtype=np.int64)
        counts = np.bincount(positions, minlength=self.n_segments)
        if np.any(counts > 1):
            sid = self.segments[int(np.argmax(counts > 1))].id
            raise InputDataError(f"{source}: segment {sid} listed more than once")
        if np.any(counts == 0):
            sid = self.segments[int(np.argmax(counts == 0))].id
            raise InputDataError(f"{source}: segment {sid} missing")
        values = [np.array(col) for col in columns]
        finite = np.logical_and.reduce([np.isfinite(col) for col in values])
        if not np.all(finite):
            raise InputDataError(f"{source}: segment {ids[int(np.argmin(finite))]} "
                                 "has a non-finite value")
        order = np.argsort(positions)
        return tuple(col[order] for col in values)


@dataclass(frozen=True)
class Taz:
    """Traffic analysis zone anchored to a network node."""

    id: int
    centroid_node: int
    name: str = ""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of one week into analysis intervals."""

    interval_seconds: int = 3600
    interval_count: int = 168

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0 or self.interval_count <= 0:
            raise InputDataError("time grid dimensions must be positive")
        if self.interval_seconds * self.interval_count != WEEK_SECONDS:
            raise InputDataError(
                f"time grid must cover one week: {self.interval_seconds} * "
                f"{self.interval_count} != {WEEK_SECONDS}"
            )

    def interval_of(self, t: float) -> int:
        """Interval index containing time ``t`` (seconds into the week).

        Values outside the week clamp to the first or last interval.
        """
        idx = int(t // self.interval_seconds)
        return min(max(idx, 0), self.interval_count - 1)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def haversine(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between two (lat, lon) points."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def meters_per_degree(lat: float) -> tuple[float, float]:
    """Local planar scale at latitude ``lat``: meters per degree (lat, lon)."""
    return M_PER_DEG_LAT, M_PER_DEG_LAT * math.cos(math.radians(lat))


class _CandidateGrid(NamedTuple):
    """Segments bucketed by bounding box into cells of at least one search radius.

    Cell (row, col) spans ``cell_lat`` degrees of latitude from ``lat0``
    and ``cell_lon`` of longitude from ``lon0``; its key is
    ``row * n_cols + col``. ``keys`` holds one entry per (segment, cell)
    pair, ascending, and ``segs`` the segment index of each entry.
    """

    lat0: float
    lon0: float
    cell_lat: float
    cell_lon: float
    n_cols: int
    max_row: int
    keys: np.ndarray
    segs: np.ndarray


# A grid holds at most this many (segment, cell) entries per segment, plus
# a constant; a radius small against the segments doubles the cells instead.
_GRID_ENTRIES_PER_SEGMENT = 64


def _candidate_grid(net: RoadNetwork, radius: float) -> _CandidateGrid:
    """The network's grid for ``radius``, built on first use and kept on the network.

    A cell is ``radius`` meters in latitude. Its longitude size is taken
    at the largest |lat| a point within ``radius`` of the network can
    have, where a degree of longitude is shortest, so the 3 x 3 block of
    cells around a point holds every segment within ``radius`` of it.
    Each segment's box is widened by a thousandth of a cell so rounding
    at a cell edge cannot drop it. Doubling the cells keeps the entry
    count within ``_GRID_ENTRIES_PER_SEGMENT`` per segment and every key
    within int64.
    """
    grid = net._grids.get(radius)
    if grid is not None:
        return grid
    lo_lat = np.minimum(net._seg_alat, net._seg_blat)
    hi_lat = np.maximum(net._seg_alat, net._seg_blat)
    lo_lon = np.minimum(net._seg_alon, net._seg_blon)
    hi_lon = np.maximum(net._seg_alon, net._seg_blon)
    edge = min(90.0, float(np.max(np.abs(net.node_lat))) + radius / M_PER_DEG_LAT)
    cos_edge = math.cos(math.radians(edge))
    size = radius
    while True:
        cell_lat = min(180.0, size / M_PER_DEG_LAT)  # 180 degrees: one cell holds all
        cell_lon = 360.0 if cos_edge <= 0.0 else min(360.0, cell_lat / cos_edge)
        lat0 = float(np.min(net.node_lat)) - cell_lat
        lon0 = float(np.min(net.node_lon)) - cell_lon
        pad_lat, pad_lon = 1e-3 * cell_lat, 1e-3 * cell_lon
        r0 = np.floor((lo_lat - pad_lat - lat0) / cell_lat).astype(np.int64)
        r1 = np.floor((hi_lat + pad_lat - lat0) / cell_lat).astype(np.int64)
        c0 = np.floor((lo_lon - pad_lon - lon0) / cell_lon).astype(np.int64)
        c1 = np.floor((hi_lon + pad_lon - lon0) / cell_lon).astype(np.int64)
        n_cols, max_row = int(np.max(c1)) + 2, int(np.max(r1))
        count = int(np.sum((r1 - r0 + 1) * (c1 - c0 + 1)))
        if (count <= _GRID_ENTRIES_PER_SEGMENT * net.n_segments + 4096
                and (max_row + 4) * n_cols < 2**62):
            break
        size *= 2.0
    keys, segs = [], []
    for j, (a, b, c, d) in enumerate(zip(r0.tolist(), r1.tolist(), c0.tolist(), c1.tolist())):
        for row in range(a, b + 1):
            keys.extend(range(row * n_cols + c, row * n_cols + d + 1))
            segs.extend([j] * (d - c + 1))
    keys_arr = np.array(keys, dtype=np.int64)
    order = np.argsort(keys_arr, kind="stable")
    grid = _CandidateGrid(lat0, lon0, cell_lat, cell_lon, n_cols, max_row, keys_arr[order],
                          np.array(segs, dtype=np.int64)[order])
    net._grids[radius] = grid
    return grid


def project_to_candidates(
    net: RoadNetwork,
    lats: np.ndarray,
    lons: np.ndarray,
    mlon: np.ndarray,
    radius: float,
    max_candidates: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-segment candidates of the points (lats[i], lons[i]) as flat arrays.

    ``mlon[i]`` is ``meters_per_degree(lats[i])[1]``, which a fix table
    holds for this and for the matcher's emissions.

    Returns (fix, segment, offset, distance), one row per candidate:
    the point index i, the segment index, the offset along the segment
    in meters, clamped to ``[0, length]``, and the distance in meters.
    Rows are sorted by point, and a point's rows run closest first, ties
    in distance toward the smaller segment id. So the candidates of
    consecutive points are one contiguous slice, and a point without
    candidates has no row.

    Projects a point onto each segment (treated as a straight line
    between its endpoint nodes in the local planar frame of the point)
    and keeps at most ``max_candidates`` segments within ``radius``
    meters. Only the segments in the 3 x 3 block of grid cells around a
    point are projected (see ``_candidate_grid``), all points of a call
    in one batch; each distance and offset is the same float a
    projection onto every segment would give.
    """
    lats, lons = np.asarray(lats, dtype=float), np.asarray(lons, dtype=float)
    if net.n_segments == 0 or len(lats) == 0:
        none = np.zeros(0, dtype=np.int64)
        return none, none, np.zeros(0), np.zeros(0)
    g = _candidate_grid(net, radius)
    # Rows and columns far outside the grid hold no entries; clipping them
    # keeps the keys in range.
    rows = np.clip(np.floor((lats - g.lat0) / g.cell_lat), -2, g.max_row + 2).astype(np.int64)
    cols = np.clip(np.floor((lons - g.lon0) / g.cell_lon), -2, g.n_cols + 1).astype(np.int64)
    row_keys = (rows[:, None] + np.arange(-1, 2)) * g.n_cols
    lo = np.searchsorted(g.keys, row_keys + np.maximum(cols - 1, 0)[:, None], "left").ravel()
    hi = np.searchsorted(g.keys, row_keys + np.minimum(cols + 1, g.n_cols - 1)[:, None],
                         "right").ravel()
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    entry = np.arange(ends[-1]) + np.repeat(lo - (ends - counts), counts)
    fix, seg = np.repeat(np.arange(len(lats)).repeat(3), counts), g.segs[entry]

    mlon = np.asarray(mlon, dtype=float)[fix]
    plat, plon = lats[fix], lons[fix]
    ax = (net._seg_alon[seg] - plon) * mlon
    ay = (net._seg_alat[seg] - plat) * M_PER_DEG_LAT
    bx = (net._seg_blon[seg] - plon) * mlon
    by = (net._seg_blat[seg] - plat) * M_PER_DEG_LAT
    dx = bx - ax
    dy = by - ay
    sq = dx * dx + dy * dy
    # Parameter of the closest point on each infinite line, clamped to the
    # segment; degenerate (coincident-endpoint) segments project to t=0.
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(sq > 0.0, -(ax * dx + ay * dy) / np.where(sq > 0.0, sq, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    px = ax + t * dx
    py = ay + t * dy
    dist = np.hypot(px, py)

    within = dist <= radius
    fix, seg, t, dist = fix[within], seg[within], t[within], dist[within]
    # By point, then (distance, segment index); segment index order is id
    # order. A segment seen in two cells of a block appears twice, adjacent.
    order = np.lexsort((seg, dist, fix))
    fix, seg, t, dist = fix[order], seg[order], t[order], dist[order]
    keep = np.ones(len(fix), dtype=bool)
    keep[1:] = (fix[1:] != fix[:-1]) | (seg[1:] != seg[:-1])
    fix, seg, t, dist = fix[keep], seg[keep], t[keep], dist[keep]
    rank = np.arange(len(fix)) - np.searchsorted(fix, fix, "left")
    keep = rank < max_candidates
    fix, seg = fix[keep], seg[keep]
    return fix, seg, t[keep] * net.seg_length[seg], dist[keep]


def position_on_segment(net: RoadNetwork, j: int, offset: float) -> tuple[float, float]:
    """(lat, lon) of the point ``offset`` meters along the line of segment index ``j``."""
    f = min(max(offset / net.seg_length[j], 0.0), 1.0)
    lat = net._seg_alat[j] + f * (net._seg_blat[j] - net._seg_alat[j])
    lon = net._seg_alon[j] + f * (net._seg_blon[j] - net._seg_alon[j])
    return float(lat), float(lon)


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------


def _settle(net, weights, dist, pred, settled, heap, targets) -> None:
    """Advance one source's Dijkstra search over node indices.

    The state maps each node index to its time (``dist``: tentative, and
    final once the node is settled; inf if unreached), its incoming
    segment index (``pred``: -1 at the source) and whether it is settled
    (``settled``), plus the open heap of (time, node). It is either
    lists over all nodes or the ``_Unreached``/``_Unsettled`` dicts. A
    fresh search holds the source at time 0 in ``dist`` and on the heap.
    Nodes settle, and their out-segments are relaxed, until every node of
    ``targets`` is settled or the heap runs out (``targets`` None: until
    it runs out); a later call resumes where this one stopped, so a
    search run in pieces equals one run to the end. ``weights`` is a
    plain list of per-segment costs in ``net.segments`` order (callers
    convert an array once with ``tolist``, so the loop adds Python floats).

    Tie-breaking makes the result unique: among equal-cost paths into a
    node the one whose incoming segment id is smallest wins, applied at
    every node along the way. Segments are sorted by id, so ties compare
    segment indices. Because segment ids are compared from the destination
    backwards, the selected path is the reverse-lexicographic smallest
    among all minimum-cost paths; every weight must be positive, which
    also makes a node's time and incoming segment final when it settles.
    """
    remaining = None if targets is None else {v for v in targets if not settled[v]}
    if remaining is not None and not remaining:
        return
    out = net._out
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        d, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        for j, v in out[u]:
            nd = d + weights[j]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = j
                heappush(heap, (nd, v))
            elif nd == dist[v] and not settled[v] and j < pred[v]:
                # Equal cost: prefer the smaller incoming segment id.
                pred[v] = j
        if remaining is not None and u in remaining:
            remaining.remove(u)
            if not remaining:
                return


class _Unreached(dict):
    """Node -> time of a search that has reached few nodes; inf for the rest."""

    def __missing__(self, node: int) -> float:
        return math.inf


class _Unsettled(dict):
    """Node -> True for the settled nodes of a search; False for the rest."""

    def __missing__(self, node: int) -> bool:
        return False


class _Tree:
    """One source's search state in a ``Router``.

    While open, ``dist``, ``pred`` and ``settled`` are the dicts of
    ``_settle``, ``length`` holds the route lengths worked out so far,
    and ``heap`` the open search. Once packed, ``dist`` and ``length``
    are arrays and ``pred`` a list over every node (inf, inf and -1
    where unreachable), and ``settled`` and ``heap`` are None.
    """

    __slots__ = ("dist", "pred", "settled", "length", "heap")

    def __init__(self, source: int) -> None:
        self.dist: dict[int, float] | np.ndarray = _Unreached({source: 0.0})
        self.pred: dict[int, int] | list[int] = {source: -1}
        self.settled: dict[int, bool] | None = _Unsettled()
        self.length: dict[int, float] | np.ndarray = {source: 0.0}
        self.heap: list[tuple[float, int]] | None = [(0.0, source)]


class Router:
    """Fastest routes under a fixed travel-time vector, searched only as far as asked.

    Built once per travel-time vector and shared by every query under it
    (a batch of traces to match, or one scenario's trips). Each source
    node keeps its Dijkstra search (see ``_settle``): a query settles
    nodes until its targets are settled, and a later query from the same
    source resumes the search. Times, routes and lengths equal those of
    a search run over the whole network, bit for bit.

    Memory grows with the nodes settled, not with (sources) x (nodes):
    an open search holds dicts over the nodes it has reached. A search
    that settles half the network, or runs out of nodes to settle, is run
    to the end and packed into arrays over the network's nodes, which
    cost less than the dicts from that size on.
    """

    def __init__(self, net: RoadNetwork, times: np.ndarray) -> None:
        times = np.asarray(times, dtype=float)
        if len(times) != net.n_segments:
            raise InputDataError("travel time vector length does not match network")
        bad = ~(np.isfinite(times) & (times > 0.0))
        if np.any(bad):
            j = int(np.argmax(bad))
            raise InputDataError(
                f"segment {net.segments[j].id}: travel time must be finite and > 0, got {times[j]}")
        self.net = net
        self.times = times
        self._weights = times.tolist()
        self._seg_from, self._seg_length = net.seg_from.tolist(), net.seg_length.tolist()
        self._trees: dict[int, _Tree] = {}

    def _search(self, u: int, targets: list[int]) -> _Tree:
        """u's tree with every node of ``targets`` settled, or packed."""
        tree = self._trees.get(u)
        if tree is None:
            tree = self._trees[u] = _Tree(u)
        if tree.heap is not None:
            _settle(self.net, self._weights, tree.dist, tree.pred, tree.settled, tree.heap,
                    targets)
            if not tree.heap or 2 * len(tree.settled) >= self.net.n_nodes:
                self._pack(tree)
        return tree

    def _pack(self, tree: _Tree) -> None:
        _settle(self.net, self._weights, tree.dist, tree.pred, tree.settled, tree.heap, None)
        n = self.net.n_nodes
        dist, pred, length = [math.inf] * n, [-1] * n, [math.inf] * n
        settled = list(tree.settled)
        for v, d in zip(settled, self._lengths(tree, settled)):
            dist[v], pred[v], length[v] = tree.dist[v], tree.pred[v], d
        tree.dist, tree.pred, tree.length = np.array(dist), pred, np.array(length)
        tree.settled = tree.heap = None

    def _lengths(self, tree: _Tree, nodes: list[int]) -> list[float]:
        """Lengths of the routes to settled nodes, added up segment by segment from the source."""
        length, pred, seg_from, seg_length = tree.length, tree.pred, self._seg_from, self._seg_length
        for v in nodes:
            path = []
            while v not in length:
                path.append(v)
                v = seg_from[pred[v]]
            for w in reversed(path):
                j = pred[w]
                length[w] = length[seg_from[j]] + seg_length[j]
        return [length[v] for v in nodes]

    def reach(self, u: int, nodes: np.ndarray) -> tuple[list[float] | np.ndarray, ...]:
        """(times, lengths) of the fastest routes from node index u to each of ``nodes``.

        ``nodes`` is an integer array of node indices. Both results are
        inf at unreachable nodes. Lengths add up segment by segment from
        u, so a route's length is the left-to-right sum of its segments.
        """
        targets = nodes.tolist()
        tree = self._search(u, targets)
        if tree.heap is None:
            return tree.dist[nodes], tree.length[nodes]
        return [tree.dist[v] for v in targets], self._lengths(tree, targets)

    def route(self, u: int, v: int) -> list[int] | None:
        """Segment indices of the fastest route between node indices.

        Returns [] for u == v and None when v is unreachable. Deterministic
        under cost ties (see ``_settle``).
        """
        if u == v:
            return []
        tree = self._trees.get(u)
        if tree is None or (tree.heap is not None and not tree.settled[v]):
            tree = self._search(u, [v])
        pred = tree.pred
        if pred[v] < 0:
            return None
        path = []
        while v != u:
            j = pred[v]
            path.append(j)
            v = self._seg_from[j]
        path.reverse()
        return path

    def settled(self) -> int:
        """Nodes settled so far, summed over the sources searched."""
        return sum(len(t.settled) if t.heap is not None
                   else int(np.count_nonzero(np.isfinite(t.dist))) for t in self._trees.values())


# ---------------------------------------------------------------------------
# OSM import
# ---------------------------------------------------------------------------


def import_osm(source: bytes | str | os.PathLike | object) -> RoadNetwork:
    """Build a road network from an OSM-XML document.

    ``source`` may be raw XML bytes, XML text, a path, or a readable
    binary file object. Ways carrying a ``highway`` tag become chains of
    segments, one per consecutive node pair, so every intermediate way
    node is a graph node. Two-way roads produce a segment per direction;
    ``oneway=yes`` keeps only the forward direction and ``oneway=-1``
    only the reverse. Speeds and capacities come from ``DEFAULT_CLASS_TABLE``,
    keyed by the road class the highway value maps to.

    Ways referencing nodes absent from the document are skipped with a
    warning, as are zero-length node pairs. Only nodes used by surviving
    segments end up in the network. Malformed XML raises InputDataError
    with the parser's line/column message.
    """
    import xml.etree.ElementTree as ET  # loads Expat, so only import-osm imports it

    try:
        if isinstance(source, bytes):
            root = ET.fromstring(source)
        elif isinstance(source, str) and source.lstrip().startswith("<"):
            root = ET.fromstring(source)
        elif hasattr(source, "read"):
            root = ET.parse(source).getroot()
        else:
            root = ET.parse(os.fspath(source)).getroot()
    except ET.ParseError as exc:
        raise InputDataError(f"malformed OSM XML: {exc}") from exc

    doc_nodes: dict[int, tuple[float, float]] = {}
    for el in root.iter("node"):
        try:
            nid = int(el.attrib["id"])
            lat = float(el.attrib["lat"])
            lon = float(el.attrib["lon"])
        except (KeyError, ValueError) as exc:
            raise InputDataError(f"malformed OSM node element: {exc}") from exc
        doc_nodes[nid] = (lat, lon)

    next_seg_id = 0
    seg_specs: list[tuple[int, int, int, str]] = []  # (id, from, to, class)
    used_nodes: set[int] = set()
    skipped_ways = 0

    for way in root.iter("way"):
        tags = {t.attrib.get("k"): t.attrib.get("v") for t in way.findall("tag")}
        highway = tags.get("highway")
        if highway is None:
            continue
        refs = []
        try:
            refs = [int(nd.attrib["ref"]) for nd in way.findall("nd")]
        except (KeyError, ValueError) as exc:
            raise InputDataError(f"malformed OSM way element: {exc}") from exc
        missing = [r for r in refs if r not in doc_nodes]
        if missing:
            skipped_ways += 1
            logger.warning(
                "skipping way %s: references missing node(s) %s",
                way.attrib.get("id", "?"),
                missing[:5],
            )
            continue
        if len(refs) < 2:
            skipped_ways += 1
            logger.warning("skipping way %s: fewer than two node refs", way.attrib.get("id", "?"))
            continue

        road_class = _HIGHWAY_TO_CLASS.get(highway, "other")
        oneway = (tags.get("oneway") or "no").strip().lower()
        if oneway in ("yes", "true", "1"):
            forward, backward = True, False
        elif oneway in ("-1", "reverse"):
            forward, backward = False, True
        else:
            forward, backward = True, True

        for a, b in zip(refs[:-1], refs[1:]):
            if doc_nodes[a] == doc_nodes[b]:
                logger.warning(
                    "skipping zero-length pair %d-%d in way %s", a, b, way.attrib.get("id", "?")
                )
                continue
            if forward:
                seg_specs.append((next_seg_id, a, b, road_class))
                next_seg_id += 1
            if backward:
                seg_specs.append((next_seg_id, b, a, road_class))
                next_seg_id += 1
            used_nodes.add(a)
            used_nodes.add(b)

    nodes = [Node(id=nid, lat=doc_nodes[nid][0], lon=doc_nodes[nid][1]) for nid in sorted(used_nodes)]
    segments = []
    for sid, a, b, road_class in seg_specs:
        speed, cap = DEFAULT_CLASS_TABLE[road_class]
        segments.append(
            Segment(
                id=sid,
                from_node=a,
                to_node=b,
                length=haversine(doc_nodes[a], doc_nodes[b]),
                free_flow_speed=float(speed),
                capacity=float(cap),
                road_class=road_class,
            )
        )
    if skipped_ways:
        logger.warning("OSM import skipped %d way(s)", skipped_ways)
    return RoadNetwork(nodes, segments)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_network(net: RoadNetwork, path: str | os.PathLike) -> None:
    """Write a network as JSON (nodes and segments, ids ascending)."""
    doc = {
        "nodes": [
            {"id": n.id, "lat": n.lat, "lon": n.lon} for n in (net.nodes[i] for i in net.node_ids())
        ],
        "segments": [
            {
                "id": s.id,
                "from": s.from_node,
                "to": s.to_node,
                "length_m": s.length,
                "ffs_mps": s.free_flow_speed,
                "cap_vph": s.capacity,
                "class": s.road_class,
            }
            for s in net.segments
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _json_int64(value) -> int:
    """A node or segment id field, which must be a JSON integer inside int64."""
    if type(value) is not int or not -2**63 <= value < 2**63:
        raise ValueError(f"id {value!r} is not an integer inside the int64 range")
    return value


def read_network(path: str | os.PathLike) -> RoadNetwork:
    """Read a network written by :func:`write_network`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # undecodable bytes, bad JSON, too many digits
        raise InputDataError(f"{path}: invalid network JSON: {exc}") from exc
    try:
        nodes = [Node(id=_json_int64(n["id"]), lat=float(n["lat"]), lon=float(n["lon"]))
                 for n in doc["nodes"]]
        segments = [
            Segment(
                id=_json_int64(s["id"]),
                from_node=_json_int64(s["from"]),
                to_node=_json_int64(s["to"]),
                length=float(s["length_m"]),
                free_flow_speed=float(s["ffs_mps"]),
                capacity=float(s["cap_vph"]),
                road_class=str(s["class"]),
            )
            for s in doc["segments"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputDataError(f"{path}: invalid network JSON: {exc}") from exc
    return RoadNetwork(nodes, segments)


TAZ_COLUMNS = (("taz_id", int), ("centroid_node", int), ("name", str))


def write_tazs(tazs: list[Taz], path: str | os.PathLike) -> None:
    tazs = sorted(tazs, key=lambda t: t.id)
    write_table(path, TAZ_COLUMNS, ([t.id for t in tazs], [t.centroid_node for t in tazs],
                                    [t.name for t in tazs]))


def read_tazs(path: str | os.PathLike, net: RoadNetwork | None = None) -> list[Taz]:
    """Read a TAZ table; validates centroids against ``net`` when given."""
    tazs = [Taz(*row) for row in zip(*read_table(path, TAZ_COLUMNS))]
    ids = [t.id for t in tazs]
    if len(set(ids)) != len(ids):
        raise InputDataError(f"{path}: duplicate TAZ ids")
    if net is not None:
        for taz in tazs:
            if taz.centroid_node not in net.nodes:
                raise InputDataError(f"TAZ {taz.id}: centroid node {taz.centroid_node} not in network")
    return tazs
