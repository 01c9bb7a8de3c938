"""Probabilistic map matching of GPS traces.

Each trace point gets a set of candidate positions on nearby segments;
a Viterbi pass over the candidate lattice picks the jointly most likely
sequence. Log-scores combine:

* emission: Gaussian in the point-to-candidate distance,
  -d^2 / (2 sigma^2) - ln(sigma * sqrt(2 pi))
* transition: route plausibility,
  -|route_len - great_circle| / nk_beta
  - tt_tau * |route_time - observed_dt| / observed_dt

where the route between consecutive candidates is the fastest path under
the supplied per-segment travel times. Matching therefore sharpens as the
travel-time estimates improve, which is what the refinement loop exploits.

Traces split into independently matched pieces at long observation gaps
(over gap_factor times the median spacing), at points with no candidate
within the search radius, and wherever the lattice has no routable
continuation. Pieces with fewer than two points are dropped.

The same scoring primitives serve both matching and the rescoring of a
fixed assignment (``score_assignment``), so scores from the two paths are
directly comparable, bit for bit.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDataError
from .network import RoadNetwork, _dijkstra, haversine, meters_per_degree, project_to_candidates
from .tables import read_table, write_table

logger = logging.getLogger(__name__)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MatchParams:
    """Tuning knobs for the matcher; defaults suit 10-60 s probe data."""

    gps_sigma: float = 10.0
    nk_beta: float = 200.0
    tt_tau: float = 0.5
    radius: float = 50.0
    max_candidates: int = 8
    gap_factor: float = 10.0

    def __post_init__(self) -> None:
        if self.gps_sigma <= 0 or self.nk_beta <= 0 or self.radius <= 0:
            raise InputDataError("gps_sigma, nk_beta, and radius must be positive")
        if self.tt_tau < 0:
            raise InputDataError("tt_tau must be >= 0")
        if self.max_candidates < 1:
            raise InputDataError("max_candidates must be at least 1")
        if self.gap_factor <= 0:
            raise InputDataError("gap_factor must be positive")


@dataclass
class GpsTrace:
    """One vehicle's observations, timestamps strictly increasing."""

    vehicle_id: int
    timestamps: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.lats = np.asarray(self.lats, dtype=float)
        self.lons = np.asarray(self.lons, dtype=float)
        n = len(self.timestamps)
        if len(self.lats) != n or len(self.lons) != n:
            raise InputDataError(f"vehicle {self.vehicle_id}: ragged trace arrays")
        if n == 0:
            raise InputDataError(f"vehicle {self.vehicle_id}: empty trace")
        if not np.all(np.isfinite(self.timestamps)):
            raise InputDataError(f"vehicle {self.vehicle_id}: non-finite timestamp")
        if np.any(np.diff(self.timestamps) <= 0):
            raise InputDataError(f"vehicle {self.vehicle_id}: timestamps must strictly increase")
        if np.any(np.abs(self.lats) > 90.0) or np.any(np.abs(self.lons) > 180.0):
            raise InputDataError(f"vehicle {self.vehicle_id}: coordinate out of range")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass
class MatchedPath:
    """One contiguous matched piece of a trace.

    ``segments`` is the traversal order (a segment may repeat on genuine
    loops); ``entry_times`` gives the interpolated entry instant of each,
    clamped to the piece's observation window. ``assignment`` holds the
    chosen (segment_id, offset) per point when produced by the matcher;
    paths read back from CSV carry only segments and entry times.
    """

    vehicle_id: int
    piece: int
    segments: list[int]
    entry_times: list[float]
    log_score: float = float("nan")
    first_point: int = -1
    last_point: int = -1
    assignment: list[tuple[int, float]] | None = None


# ---------------------------------------------------------------------------
# Scoring primitives
# ---------------------------------------------------------------------------


def emission_logp(distance: float, sigma: float) -> float:
    """Log-density of observing a point ``distance`` meters off its position."""
    return -(distance * distance) / (2.0 * sigma * sigma) - math.log(sigma) - _LOG_SQRT_2PI


def transition_logp(
    route_len: float,
    gc_dist: float,
    route_tt: float,
    obs_dt: float,
    params: MatchParams,
) -> float:
    """Log-score of a candidate-to-candidate route against the observation."""
    score = -abs(route_len - gc_dist) / params.nk_beta
    if params.tt_tau > 0.0:
        score -= params.tt_tau * abs(route_tt - obs_dt) / obs_dt
    return score


def _candidate_distance(net: RoadNetwork, lat: float, lon: float, seg_idx: int, offset: float) -> float:
    """Planar distance from a point to the position ``offset`` along a segment."""
    mlat, mlon = meters_per_degree(lat)
    f = offset / net.seg_length[seg_idx]
    plat = net._seg_alat[seg_idx] + f * (net._seg_blat[seg_idx] - net._seg_alat[seg_idx])
    plon = net._seg_alon[seg_idx] + f * (net._seg_blon[seg_idx] - net._seg_alon[seg_idx])
    return math.hypot((plat - lat) * mlat, (plon - lon) * mlon)


class Router:
    """Fastest-path routing with full-tree caching per source node.

    Built once per batch of traces against a fixed travel-time vector.
    Each distinct source node costs one full Dijkstra; every later query
    from it is a cache walk. Memory grows with (distinct sources) x
    (nodes), which is fine at the network sizes this package targets.
    """

    def __init__(self, net: RoadNetwork, times: np.ndarray) -> None:
        times = np.asarray(times, dtype=float)
        if len(times) != net.n_segments:
            raise InputDataError("travel time vector length does not match network")
        if not np.all(np.isfinite(times)) or np.any(times <= 0.0):
            raise InputDataError("segment travel times must be positive and finite")
        self.net = net
        self.times = times
        self._trees: dict[int, tuple[list[float], list[int]]] = {}
        self._pairs: dict[tuple[int, int], tuple[tuple[int, ...], float, float] | None] = {}

    def route(self, u: int, v: int) -> tuple[tuple[int, ...], float, float] | None:
        """Fastest route between node indices: (segment ids, length, time).

        Returns the empty route for u == v and None when unreachable.
        """
        if u == v:
            return (), 0.0, 0.0
        key = (u, v)
        if key in self._pairs:
            return self._pairs[key]
        tree = self._trees.get(u)
        if tree is None:
            tree = _dijkstra(self.net, self.times, u)
            self._trees[u] = tree
        dist, pred_seg = tree
        if not math.isfinite(dist[v]):
            self._pairs[key] = None
            return None
        net = self.net
        idxs = []
        w = v
        while w != u:
            j = pred_seg[w]
            idxs.append(j)
            w = int(net.seg_from[j])
        idxs.reverse()
        segs = tuple(net.segments[j].id for j in idxs)
        length = float(np.sum(net.seg_length[idxs])) if idxs else 0.0
        result = (segs, length, float(dist[v]))
        self._pairs[key] = result
        return result


def _leg(
    net: RoadNetwork,
    router: Router,
    seg_a: int,
    off_a: float,
    seg_b: int,
    off_b: float,
) -> tuple[tuple[int, ...], float, float] | None:
    """Route details for moving between two on-segment positions.

    Returns (intermediate segment ids, leg length, leg travel time) where
    the intermediates exclude both endpoints' segments. None when there is
    no route. Staying on one segment without going backwards is the direct
    leg; anything else routes from the end of seg_a to the start of seg_b
    (which covers genuine loops back onto the same segment).
    """
    ja = net.segment_index(seg_a)
    jb = net.segment_index(seg_b)
    t = router.times
    if seg_a == seg_b and off_b >= off_a:
        frac = (off_b - off_a) / net.seg_length[ja]
        return (), off_b - off_a, float(t[ja]) * frac
    r = router.route(int(net.seg_to[ja]), int(net.seg_from[jb]))
    if r is None:
        return None
    mids, mid_len, mid_tt = r
    head_len = net.seg_length[ja] - off_a
    leg_len = head_len + mid_len + off_b
    leg_tt = (
        float(t[ja]) * (head_len / net.seg_length[ja])
        + mid_tt
        + float(t[jb]) * (off_b / net.seg_length[jb])
    )
    return mids, float(leg_len), float(leg_tt)


# ---------------------------------------------------------------------------
# Viterbi
# ---------------------------------------------------------------------------


def _viterbi_partial(
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
    for l in range(len(transitions)):
        cand = v[:, None] + np.asarray(transitions[l], dtype=float)
        best = np.argmax(cand, axis=0)
        nxt = cand[best, np.arange(cand.shape[1])] + np.asarray(emissions[l + 1], dtype=float)
        if not np.any(np.isfinite(nxt)):
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
    path, score, decoded = _viterbi_partial(emissions, transitions)
    if decoded < n_layers or not math.isfinite(score):
        return None
    return path, score


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def _split_points(trace: GpsTrace, cand_per_point: list[list], params: MatchParams) -> list[list[int]]:
    """Indices of each contiguous run to match separately.

    Runs break at points without candidates (the point is discarded) and
    at observation gaps above gap_factor times the median spacing.
    """
    n = len(trace)
    dts = np.diff(trace.timestamps)
    gap_cut = params.gap_factor * float(np.median(dts)) if len(dts) else math.inf
    runs: list[list[int]] = []
    cur: list[int] = []
    for i in range(n):
        if not cand_per_point[i]:
            if cur:
                runs.append(cur)
            cur = []
            continue
        if cur and trace.timestamps[i] - trace.timestamps[cur[-1]] > gap_cut:
            runs.append(cur)
            cur = []
        cur.append(i)
    if cur:
        runs.append(cur)
    return runs


def _build_path(
    net: RoadNetwork,
    points: list[int],
    trace: GpsTrace,
    chosen: list[tuple[int, float]],
    legs: list[tuple[tuple[int, ...], float, float]],
) -> tuple[list[int], list[float]]:
    """Assemble the traversed segment sequence and entry times of a piece."""
    path: list[int] = [chosen[0][0]]
    # Cumulative distance of each point along the traversal, measured from
    # the start node of the first segment.
    d = [chosen[0][1]]
    for (seg_prev, _), (seg_next, _), (mids, leg_len, _) in zip(chosen[:-1], chosen[1:], legs):
        d.append(d[-1] + leg_len)
        if seg_next == seg_prev and not mids:
            # Direct continuation on the same segment. A genuine loop back
            # onto it always carries at least one intermediate.
            continue
        path.extend(mids)
        path.append(seg_next)

    # Trim segments the vehicle only touched at a node: entering the first
    # segment exactly at its end, or reaching the last at offset zero.
    start_shift = 0.0
    if len(path) > 1 and chosen[0][1] == net.segment_by_id(path[0]).length:
        start_shift = net.segment_by_id(path[0]).length
        path = path[1:]
    if len(path) > 1 and chosen[-1][1] == 0.0 and path[-1] == chosen[-1][0]:
        path = path[:-1]

    times = trace.timestamps[points]
    d_arr = np.asarray(d, dtype=float) - start_shift
    # Strictly increasing support for interpolation; co-located points
    # keep the earliest timestamp.
    xs, ts = [], []
    for dist_i, t_i in zip(d_arr, times):
        if not xs or dist_i > xs[-1]:
            xs.append(float(dist_i))
            ts.append(float(t_i))
    boundaries = np.concatenate(([0.0], np.cumsum([net.segment_by_id(s).length for s in path[:-1]])))
    entry = np.interp(boundaries, xs, ts)
    # np.interp clamps outside the support, but a first point that sits
    # mid-segment was observed AFTER entering that segment; project its
    # entry instant backward at the speed of the first leg, or downstream
    # rows would book a full traversal against a late-started clock.
    if len(xs) >= 2 and boundaries[0] < xs[0]:
        slope = (ts[1] - ts[0]) / (xs[1] - xs[0])
        entry[0] = ts[0] - (xs[0] - boundaries[0]) * slope
    return path, [float(t) for t in entry]


def match_trace(
    net: RoadNetwork,
    trace: GpsTrace,
    router: Router,
    params: MatchParams = MatchParams(),
) -> list[MatchedPath]:
    """Match one trace under the router's travel times; see the module docstring."""
    cands = [
        project_to_candidates(net, (float(trace.lats[i]), float(trace.lons[i])),
                              params.radius, params.max_candidates)
        for i in range(len(trace))
    ]
    pieces: list[MatchedPath] = []
    piece_no = 0
    for run in _split_points(trace, cands, params):
        for points, chosen, legs, score in _decode_run(net, trace, run, cands, router, params):
            if len(points) < 2:
                continue
            segments, entry = _build_path(net, points, trace, chosen, legs)
            pieces.append(
                MatchedPath(
                    vehicle_id=trace.vehicle_id,
                    piece=piece_no,
                    segments=segments,
                    entry_times=entry,
                    log_score=score,
                    first_point=points[0],
                    last_point=points[-1],
                    assignment=chosen,
                )
            )
            piece_no += 1
    return pieces


def _decode_run(net, trace, run, cands, router, params):
    """Viterbi over one run, splitting further where the lattice breaks.

    Yields (point indices, chosen (segment, offset) list, legs, score)
    per decoded sub-piece; legs[i] connects point i to point i+1.
    """
    start = 0
    while start < len(run):
        layers = run[start:]
        emissions = [
            np.array(
                [
                    emission_logp(
                        _candidate_distance(net, float(trace.lats[i]), float(trace.lons[i]),
                                            net.segment_index(c.segment_id), c.offset),
                        params.gps_sigma,
                    )
                    for c in cands[i]
                ]
            )
            for i in layers
        ]

        transitions = []
        leg_info: list[dict[tuple[int, int], tuple]] = []
        for k in range(len(layers) - 1):
            i, j = layers[k], layers[k + 1]
            dt = float(trace.timestamps[j] - trace.timestamps[i])
            gc = haversine(
                (float(trace.lats[i]), float(trace.lons[i])),
                (float(trace.lats[j]), float(trace.lons[j])),
            )
            ca, cb = cands[i], cands[j]
            T = np.full((len(ca), len(cb)), -np.inf)
            info: dict[tuple[int, int], tuple] = {}
            for a, canda in enumerate(ca):
                for b, candb in enumerate(cb):
                    leg = _leg(net, router, canda.segment_id, canda.offset,
                               candb.segment_id, candb.offset)
                    if leg is None:
                        continue
                    mids, leg_len, leg_tt = leg
                    T[a, b] = transition_logp(leg_len, gc, leg_tt, dt, params)
                    info[(a, b)] = leg
            transitions.append(T)
            leg_info.append(info)

        idxs, score, decoded = _viterbi_partial(emissions, transitions)
        sub = layers[:decoded]
        chosen = [(cands[p][ci].segment_id, cands[p][ci].offset) for p, ci in zip(sub, idxs)]
        legs = [leg_info[k][(idxs[k], idxs[k + 1])] for k in range(decoded - 1)]
        yield sub, chosen, legs, score
        start += decoded


def match_traces(
    net: RoadNetwork,
    traces: list[GpsTrace],
    segment_times: np.ndarray,
    params: MatchParams = MatchParams(),
) -> list[MatchedPath]:
    """Match a batch of traces against one shared route cache."""
    router = Router(net, segment_times)
    out: list[MatchedPath] = []
    for trace in traces:
        out.extend(match_trace(net, trace, router, params))
    return out


def score_assignment(
    net: RoadNetwork,
    trace: GpsTrace,
    points: list[int],
    assignment: list[tuple[int, float]],
    router: Router,
    params: MatchParams = MatchParams(),
) -> float:
    """Log-score of a fixed per-point assignment under the router's travel times.

    Uses the exact scoring primitives of the matcher, so the value is
    comparable with ``MatchedPath.log_score``. Returns -inf when some leg
    is unroutable under those times.
    """
    if len(points) != len(assignment):
        raise InputDataError("assignment length does not match point count")

    def emission(k: int) -> float:
        p, (seg, off) = points[k], assignment[k]
        d = _candidate_distance(net, float(trace.lats[p]), float(trace.lons[p]),
                                net.segment_index(seg), off)
        return emission_logp(d, params.gps_sigma)

    # Accumulation order mirrors the Viterbi recursion exactly, so identical
    # assignments under identical times produce the identical float.
    total = emission(0)
    for k in range(len(points) - 1):
        i, j = points[k], points[k + 1]
        leg = _leg(net, router, assignment[k][0], assignment[k][1],
                   assignment[k + 1][0], assignment[k + 1][1])
        if leg is None:
            return -math.inf
        _, leg_len, leg_tt = leg
        dt = float(trace.timestamps[j] - trace.timestamps[i])
        gc = haversine(
            (float(trace.lats[i]), float(trace.lons[i])),
            (float(trace.lats[j]), float(trace.lons[j])),
        )
        total = total + transition_logp(leg_len, gc, leg_tt, dt, params)
        total = total + emission(k + 1)
    return total


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


MATCHED_COLUMNS = (("vehicle_id", int), ("piece", int), ("segment_id", int), ("entry_time_s", float))


def write_matched(paths: list[MatchedPath], path: str | os.PathLike) -> None:
    write_table(path, MATCHED_COLUMNS, (
        (mp.vehicle_id, mp.piece, sid, t)
        for mp in sorted(paths, key=lambda m: (m.vehicle_id, m.piece))
        for sid, t in zip(mp.segments, mp.entry_times)))


def read_matched(path: str | os.PathLike) -> list[MatchedPath]:
    """Read matched paths; only traversal data survives the CSV."""
    groups: dict[tuple[int, int], tuple[list[int], list[float]]] = {}
    for vid, piece, sid, t in read_table(path, MATCHED_COLUMNS):
        segs, times = groups.setdefault((vid, piece), ([], []))
        segs.append(sid)
        times.append(t)
    return [
        MatchedPath(vehicle_id=vid, piece=piece, segments=segs, entry_times=times)
        for (vid, piece), (segs, times) in sorted(groups.items())
    ]
