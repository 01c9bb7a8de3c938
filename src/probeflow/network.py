"""Road network model.

Directed graph of road segments with WGS84 node coordinates, plus the
geometric and graph primitives everything downstream leans on: OSM-XML
import, great-circle distance, deterministic fastest paths (``Router``),
and point-to-segment projection for map matching candidates.

Conventions used throughout the package:

* coordinates are WGS84 degrees, distances are meters, times are seconds
* every segment is one-directional; a two-way road is two segments with
  swapped endpoints
* networks are immutable after construction and safe to share across
  threads
* every per-segment value inside the package (times, flows, supports,
  VOCs, weights) is a numpy array of length ``n_segments`` in
  ``net.segments`` order, which is ascending segment id; id-keyed tables
  exist only in files, and the table readers map them onto that order

Point geometry uses a local planar approximation (meters per degree at
the query latitude). At city scale the error is far below GPS noise.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

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

    def segment_by_id(self, segment_id: int) -> Segment:
        return self.segments[self.segment_index(segment_id)]

    def segment_index(self, segment_id: int) -> int:
        try:
            return self._segment_index[segment_id]
        except KeyError:
            raise InputDataError(f"unknown segment id {segment_id}") from None

    def node_index(self, node_id: int) -> int:
        try:
            return self._node_index[node_id]
        except KeyError:
            raise InputDataError(f"unknown node id {node_id}") from None

    def segment_columns(self, source: str, rows: list[tuple]) -> tuple[np.ndarray, ...]:
        """Value columns of a per-segment table, in ``segments`` order.

        Each row is (segment id, finite value, ...), one per network segment;
        an empty table, an unknown, repeated or missing segment, or a nan or
        infinite value raises InputDataError naming ``source``.
        """
        if not rows:
            raise InputDataError(f"{source}: no segment rows")
        ids, *columns = zip(*rows)
        try:
            positions = np.array([self._segment_index[sid] for sid in ids], dtype=np.int64)
        except KeyError as exc:
            raise InputDataError(f"{source}: unknown segment id {exc.args[0]}") from None
        counts = np.bincount(positions, minlength=self.n_segments)
        if np.any(counts > 1):
            sid = self.segments[int(np.argmax(counts > 1))].id
            raise InputDataError(f"{source}: segment {sid} listed more than once")
        if np.any(counts == 0):
            sid = self.segments[int(np.argmax(counts == 0))].id
            raise InputDataError(f"{source}: segment {sid} missing")
        for row in rows:
            if not all(map(math.isfinite, row[1:])):
                raise InputDataError(f"{source}: segment {row[0]} has a non-finite value")
        order = np.argsort(positions)
        return tuple(np.array(col)[order] for col in columns)


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


class Candidate(NamedTuple):
    """A possible position on the network for one observed point."""

    segment_id: int
    offset: float
    distance: float


def project_to_candidates(
    net: RoadNetwork,
    point: tuple[float, float],
    radius: float,
    max_candidates: int,
) -> list[Candidate]:
    """Nearest-segment candidates for a point, closest first.

    Projects the point onto every segment (treated as a straight line
    between its endpoint nodes in a local planar frame) and keeps at most
    ``max_candidates`` segments within ``radius`` meters. Ties in distance
    break toward the smaller segment id; the returned offset is clamped to
    ``[0, length]``.
    """
    if net.n_segments == 0:
        return []
    mlat, mlon = meters_per_degree(point[0])
    ax = (net._seg_alon - point[1]) * mlon
    ay = (net._seg_alat - point[0]) * mlat
    bx = (net._seg_blon - point[1]) * mlon
    by = (net._seg_blat - point[0]) * mlat
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

    within = np.flatnonzero(dist <= radius)
    if len(within) == 0:
        return []
    # Sort by (distance, segment index); segment index order is id order.
    order = within[np.lexsort((within, dist[within]))]
    order = order[:max_candidates]
    out = []
    for j in order:
        out.append(
            Candidate(
                segment_id=net.segments[j].id,
                offset=float(t[j] * net.seg_length[j]),
                distance=float(dist[j]),
            )
        )
    return out


def position_on_segment(net: RoadNetwork, j: int, offset: float) -> tuple[float, float]:
    """(lat, lon) of the point ``offset`` meters along the line of segment index ``j``."""
    f = min(max(offset / net.seg_length[j], 0.0), 1.0)
    lat = net._seg_alat[j] + f * (net._seg_blat[j] - net._seg_alat[j])
    lon = net._seg_alon[j] + f * (net._seg_blon[j] - net._seg_alon[j])
    return float(lat), float(lon)


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------


def _dijkstra(
    net: RoadNetwork,
    weights: list[float],
    source: int,
    targets: set[int] | None = None,
) -> tuple[list[float], list[int]]:
    """Single-source Dijkstra over node indices.

    ``weights`` is a plain list of per-segment costs in ``net.segments``
    order (callers convert an array once with ``tolist``, so the loop adds
    Python floats). Returns (dist, pred_seg) lists indexed by node index;
    pred_seg holds the incoming segment index on the chosen path (-1 at
    the source and unreached nodes). Stops early once all ``targets`` are
    settled.

    Tie-breaking makes the result unique: among equal-cost paths into a
    node the one whose incoming segment id is smallest wins, applied at
    every node along the way. Segments are sorted by id, so ties compare
    segment indices. Because segment ids are compared from the destination
    backwards, the selected path is the reverse-lexicographic smallest
    among all minimum-cost paths; every weight must be positive.
    """
    n = net.n_nodes
    dist: list[float] = [math.inf] * n
    pred_seg: list[int] = [-1] * n
    settled = [False] * n
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    remaining = set(targets) if targets is not None else None
    out = net._out
    heappop, heappush = heapq.heappop, heapq.heappush

    while heap:
        d, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for j, v in out[u]:
            nd = d + weights[j]
            if nd < dist[v]:
                dist[v] = nd
                pred_seg[v] = j
                heappush(heap, (nd, v))
            elif nd == dist[v] and not settled[v] and j < pred_seg[v]:
                # Equal cost: prefer the smaller incoming segment id.
                pred_seg[v] = j
    return dist, pred_seg


class Router:
    """Fastest-path trees under a fixed travel-time vector, cached per source node.

    Built once per travel-time vector and shared by every query under it
    (a batch of traces to match, or one scenario's trips). Each distinct
    source node costs one full Dijkstra; every later query from it reads
    the cached tree. Memory grows with (distinct sources) x (nodes), which
    is fine at the network sizes this package targets.
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
        self._trees: dict[int, tuple[np.ndarray, np.ndarray, list[int]]] = {}

    def tree(self, u: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """(time, length, incoming segment index) of the fastest route to every node from u.

        Time and length are inf at unreachable nodes, whose incoming
        segment is -1 (as is u's). Lengths add up segment by segment from
        u, so a route's length is the left-to-right sum of its segments.
        """
        tree = self._trees.get(u)
        if tree is None:
            dist, pred = _dijkstra(self.net, self._weights, u)
            time = np.array(dist)
            length = [math.inf] * len(dist)
            length[u] = 0.0
            seg_from, seg_length = self._seg_from, self._seg_length
            # Weights are positive, so every node comes after its predecessor.
            for w in np.argsort(time).tolist():
                j = pred[w]
                if j >= 0:
                    length[w] = length[seg_from[j]] + seg_length[j]
            tree = self._trees[u] = (time, np.array(length), pred)
        return tree

    def route(self, u: int, v: int) -> tuple[int, ...] | None:
        """Segment ids of the fastest route between node indices.

        Returns () for u == v and None when v is unreachable. Deterministic
        under cost ties (see ``_dijkstra``).
        """
        if u == v:
            return ()
        pred = self.tree(u)[2]
        if pred[v] < 0:
            return None
        segments, ids = self.net.segments, []
        while v != u:
            j = pred[v]
            ids.append(segments[j].id)
            v = self._seg_from[j]
        return tuple(reversed(ids))


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


def read_network(path: str | os.PathLike) -> RoadNetwork:
    """Read a network written by :func:`write_network`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputDataError(f"{path}: invalid network JSON: {exc}") from exc
    try:
        nodes = [Node(id=int(n["id"]), lat=float(n["lat"]), lon=float(n["lon"])) for n in doc["nodes"]]
        segments = [
            Segment(
                id=int(s["id"]),
                from_node=int(s["from"]),
                to_node=int(s["to"]),
                length=float(s["length_m"]),
                free_flow_speed=float(s["ffs_mps"]),
                capacity=float(s["cap_vph"]),
                road_class=str(s["class"]),
            )
            for s in doc["segments"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"{path}: invalid network JSON: {exc}") from exc
    return RoadNetwork(nodes, segments)


TAZ_COLUMNS = (("taz_id", int), ("centroid_node", int), ("name", str))


def write_tazs(tazs: list[Taz], path: str | os.PathLike) -> None:
    write_table(path, TAZ_COLUMNS,
                ((t.id, t.centroid_node, t.name) for t in sorted(tazs, key=lambda t: t.id)))


def read_tazs(path: str | os.PathLike, net: RoadNetwork | None = None) -> list[Taz]:
    """Read a TAZ table; validates centroids against ``net`` when given."""
    tazs = [Taz(*row) for row in read_table(path, TAZ_COLUMNS)]
    ids = [t.id for t in tazs]
    if len(set(ids)) != len(ids):
        raise InputDataError(f"{path}: duplicate TAZ ids")
    if net is not None:
        for taz in tazs:
            if taz.centroid_node not in net.nodes:
                raise InputDataError(f"TAZ {taz.id}: centroid node {taz.centroid_node} not in network")
    return tazs
