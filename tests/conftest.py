"""Shared fixtures and oracles: synthetic networks, traces, and the reference
computations that only the test suite uses."""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from probeflow import mapmatch, odestim
from probeflow.assignment import BPR_ALPHA, BPR_BETA, AssignmentResult, DemandMatrix
from probeflow.errors import InputDataError
from probeflow.mapmatch import Fixes, MatchParams, Pieces, concat_fixes, fix_table
from probeflow.network import M_PER_DEG_LAT, Node, RoadNetwork, Router, Segment, TimeGrid, haversine
from probeflow.refine import RefinementDiagnostics, RefineParams, refine
from probeflow.tracegen import GroundTruthScenario, ProbeConfig, TruthTrip, sample_trace, with_times
from probeflow.ttinfer import InferParams, SegmentTimeEstimate

GRID_LAT0 = 37.75
GRID_LON0 = -122.45


def bpr_time(fft: float, capacity: float, flow: float) -> float:
    """Congested travel time of one link under the BPR curve."""
    return fft * (1.0 + BPR_ALPHA * (flow / capacity) ** BPR_BETA)


def total_system_travel_time(result: AssignmentResult) -> float:
    """Sum of flow * travel time over all segments (veh-seconds per hour)."""
    return math.fsum(result.flow * result.time)


def upper_objective(
    assigned: AssignmentResult,
    observed: SegmentTimeEstimate,
    demand: DemandMatrix,
    seed: DemandMatrix,
    mu: float,
    weight_by_support: bool = False,
) -> float:
    """Time-fit error over observed segments plus seed regularization."""
    return odestim._objective(assigned, observed, demand, seed, mu, weight_by_support)[0]


def kkt_max_violation(
    A: np.ndarray,
    b: np.ndarray,
    lam: float,
    prior: np.ndarray,
    lower: np.ndarray,
    x: np.ndarray,
) -> float:
    """Worst first-order optimality violation of x for the bounded ridge program.

    For components strictly above their bound the gradient should vanish;
    at the bound it must be nonnegative. The returned value is comparable
    against a tolerance times (1 + ||b||).
    """
    g = 2.0 * (A.T @ (A @ x - b)) + 2.0 * lam * (x - prior)
    at_bound = x - lower <= 1e-9 * np.maximum(1.0, np.abs(lower))
    viol = np.where(at_bound, np.maximum(0.0, -g), np.abs(g))
    return float(np.max(viol)) if len(viol) else 0.0


def viterbi_partial(
    emissions: list[np.ndarray],
    transitions: list[np.ndarray],
) -> tuple[list[int], float, int]:
    """Forward pass that stops where the lattice loses all finite states.

    Returns (candidate indices, score, layers decoded); the index list
    covers exactly the decoded prefix. Ties resolve to the smallest
    candidate index at every layer (first argmax).
    """
    v = np.asarray(emissions[0], dtype=float)
    backs: list[np.ndarray] = []
    for trans, emission in zip(transitions, emissions[1:]):
        cand = v[:, None] + np.asarray(trans, dtype=float)
        best = cand.argmax(axis=0)
        # Each column's maximum is its value at the first argmax.
        nxt = cand.max(axis=0) + np.asarray(emission, dtype=float)
        if not np.isfinite(nxt).any():
            break
        v = nxt
        backs.append(best)
    j = int(np.argmax(v))
    score = float(v[j])
    path = [j]
    for back in reversed(backs):
        j = int(back[j])
        path.append(j)
    path.reverse()
    return path, score, len(backs) + 1


def decode_run(first, starts, emissions, transitions, lengths):
    """Viterbi over one run's unpadded lattice, one layer at a time, splitting where it breaks.

    The per-run oracle of ``mapmatch._viterbi``. The run starts at trace
    point ``first``, and ``starts[k]`` is the first candidate row of
    layer k; ``emissions[k]`` scores layer k's candidates, and
    ``transitions[k]`` and ``lengths[k]`` are the (layer k) x (layer k+1)
    matrices. Each sub-piece decodes a slice of the lattice. Returns
    (point indices, chosen candidate rows, leg lengths, score) per
    decoded sub-piece; leg k connects point k to point k+1.
    """
    pieces = []
    start = 0
    while start < len(emissions):
        idxs, score, decoded = viterbi_partial(emissions[start:], transitions[start:])
        points = list(range(first + start, first + start + decoded))
        chosen = [starts[start + k] + i for k, i in enumerate(idxs)]
        leg_lens = [float(lengths[start + k][idxs[k], idxs[k + 1]]) for k in range(decoded - 1)]
        pieces.append((points, chosen, leg_lens, score))
        start += decoded
    return pieces


def viterbi_decode(
    emissions: list[np.ndarray],
    transitions: list[np.ndarray],
) -> tuple[list[int], float] | None:
    """Maximum-score path through a lattice.

    ``emissions[l]`` scores the candidates of layer l; ``transitions[l]``
    is the (layer l) x (layer l+1) matrix, -inf marking impossible moves.
    Ties resolve to the smallest candidate index at every layer. Returns
    None when no finite-score path crosses the whole lattice.
    """
    n_layers = len(emissions)
    if len(transitions) != n_layers - 1:
        raise InputDataError("need exactly one transition matrix per layer pair")
    if any(len(e) == 0 for e in emissions):
        return None
    path, score, decoded = viterbi_partial(emissions, transitions)
    if decoded < n_layers or not math.isfinite(score):
        return None
    return path, score


def trace_table(vehicle: int, ts, lats, lons) -> Fixes:
    """The fix table of one vehicle's fixes."""
    return fix_table([vehicle] * len(ts), ts, lats, lons)


class Piece(NamedTuple):
    """One matched piece read out of ``Pieces``, for assertions."""

    vehicle_id: int
    piece: int
    segments: list[int]
    entry_times: list[float]
    log_score: float


def piece_list(pieces: Pieces) -> list[Piece]:
    """The pieces one by one, in table order."""
    bounds = pieces.bounds.tolist()
    return [Piece(int(pieces.vehicle[a]), int(pieces.piece[a]), pieces.segment[a:b].tolist(),
                  pieces.entry[a:b].tolist(), float(score))
            for a, b, score in zip(bounds, bounds[1:], pieces.log_score.tolist())]


def pieces_table(pieces: list[tuple]) -> Pieces:
    """``Pieces`` of (vehicle, segments, entry times[, log score]) tuples, by vehicle.

    Each vehicle numbers its pieces from 0, in the order given.
    """
    return mapmatch._pieces([p[0] for p in pieces], [len(p[1]) for p in pieces],
                            [p[3] if len(p) > 3 else math.nan for p in pieces],
                            [j for p in pieces for j in p[1]], [t for p in pieces for t in p[2]])


def decoded_pieces(
    net: RoadNetwork,
    fixes: Fixes,
    routers: list[Router],
    params: MatchParams = MatchParams(),
) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """Each piece's fixes and chosen candidates, as ``match_traces`` decodes them.

    Runs the matcher's steps on the whole table as one chunk:
    ``project_to_candidates``, ``_lattice`` and ``_viterbi``, with
    ``routers[i]`` routing vehicle i. Returns one (points, segment
    indices, offsets) per piece, in the order of ``match_traces``'s
    pieces; the points are rows of ``fixes``.
    """
    fix, seg, off, _ = mapmatch.project_to_candidates(
        net, fixes.lat, fixes.lon, fixes.mlon, params.radius, mapmatch._MAX_CANDIDATES)
    counts = np.bincount(fix, minlength=len(fixes.t))
    offsets = fixes.offsets.tolist()
    runs, run_routers = [0], []
    for router, a, b in zip(routers, offsets, offsets[1:]):
        for lo, hi in mapmatch._split_points(fixes.t[a:b].tolist(), counts[a:b].tolist(), params):
            runs.append(runs[-1] + hi - lo)
            run_routers.append(router)
    layers = np.flatnonzero(counts)
    emission, (transition,), length = mapmatch._lattice(
        net, fixes, layers, counts[layers], runs, seg, off, run_routers, [params])
    starts = np.concatenate(([0], np.cumsum(counts[layers])))
    out = []
    for _, a, picked, _, _ in mapmatch._viterbi(emission, transition, length, runs):
        if len(picked) >= 2:
            chosen = starts[a:a + len(picked)] + picked
            out.append((layers[a:a + len(picked)].tolist(), seg[chosen], off[chosen]))
    return out


def score_assignment(
    net: RoadNetwork,
    fixes: Fixes,
    points: list[int],
    seg: np.ndarray,
    off: np.ndarray,
    router: Router,
    params: MatchParams = MatchParams(),
) -> float:
    """Log-score of fixed per-point segment indices and offsets under the router's times.

    ``points`` are rows of ``fixes``. Builds the matcher's own lattice
    with one candidate per point, so the value is comparable with a
    piece's ``log_score``. Returns -inf when some leg is unroutable
    under those times.
    """
    if not len(points) == len(seg) == len(off):
        raise InputDataError("assignment length does not match point count")
    emission, (transition,), _ = mapmatch._lattice(
        net, fixes, np.asarray(points), np.ones(len(points), np.int64), [0, len(points)],
        np.asarray(seg, dtype=np.int64), np.asarray(off, dtype=float), [router], [params])
    # Accumulation order mirrors the Viterbi recursion exactly, so identical
    # assignments under identical times produce the identical float.
    total = emission[0, 0]
    for k in range(1, len(points)):
        total = total + transition[k - 1, 0, 0]
        total = total + emission[k, 0]
    return float(total)


def run_baseline(
    fixes: Fixes,
    net: RoadNetwork,
    grid: TimeGrid,
    match_params: MatchParams = MatchParams(),
    infer_params: InferParams = InferParams(),
) -> tuple[Pieces, dict[int, SegmentTimeEstimate], RefinementDiagnostics]:
    """The tandem baseline computed on its own: one geometric matching pass, one inference pass.

    The refinement loop stopped after its first iteration with travel
    times stripped out of the transition score; ``refine(..., baseline=)``
    must give the same estimates from its own first pass.
    """
    return refine(fixes, net, grid, match_params=replace(match_params, tt_tau=0.0),
                  infer_params=infer_params, params=RefineParams(max_iters=1))


def lag_autocorrelation(series: list[float], lag: int) -> float:
    """Pearson correlation of the series with itself shifted by lag.

    A constant slice has no correlation to speak of; the sentinel NaN is
    returned so callers can flag it instead of crashing on 0/0.
    """
    if lag < 1:
        raise InputDataError(f"lag must be >= 1, got {lag}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) <= lag:
        raise InputDataError(f"series of length {len(x)} is too short for lag {lag}")
    if not np.all(np.isfinite(x)):
        raise InputDataError("series holds non-finite values")
    a, b = x[:-lag], x[lag:]
    da, db = a - a.mean(), b - b.mean()
    var_a, var_b = float(da @ da), float(db @ db)
    if var_a == 0.0 or var_b == 0.0:
        return float("nan")
    return float((da @ db) / math.sqrt(var_a * var_b))


def write_rows(path, columns, rows) -> None:
    """The row-at-a-time table writer the columnar ``write_table`` must match byte for byte.

    Each value is formatted by its column's type: ``repr(float(x))`` for
    floats, ``int(x)`` for ints and ``str(x)`` otherwise.
    """
    formats = [{float: lambda x: repr(float(x)), int: int}.get(kind, str) for _, kind in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        for row in rows:
            writer.writerow([fmt(value) for fmt, value in zip(formats, row)])


def read_rows(path, columns) -> list[tuple]:
    """The typed rows of a table, read one row at a time: the reference for ``read_table``."""
    kinds = [kind for _, kind in columns]
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == [name for name, _ in columns]
        return [tuple(kind(field) for kind, field in zip(kinds, row)) for row in reader if row]


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
    traces: Fixes
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
    traces: list[Fixes] = []
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
    return TwoRouteFixture(net=net, traces=concat_fixes(traces), truth_times=truth_times,
                           truth_paths=truth_paths, ambiguous_ids=ambiguous_ids,
                           grid=TimeGrid())
