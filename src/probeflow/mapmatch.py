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
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputDataError
from .network import (
    RoadNetwork,
    Router,
    haversine,
    meters_per_degree,
    position_on_segment,
    project_to_candidates,
)
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
        if not (self.gps_sigma > 0 and self.nk_beta > 0 and self.radius > 0):
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
        if not (np.all(np.abs(self.lats) <= 90.0) and np.all(np.abs(self.lons) <= 180.0)):
            raise InputDataError(f"vehicle {self.vehicle_id}: coordinate out of range or NaN")

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


def _legs(router: Router, seg_a: np.ndarray, off_a: np.ndarray,
          seg_b: np.ndarray, off_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(length, travel time) of every move from one candidate layer to the next.

    ``seg_*`` hold segment indices and ``off_*`` offsets along them; entry
    [a, b] of each matrix is the leg from candidate a to candidate b, inf
    where no route exists. Staying on one segment without going backwards
    is the direct leg; anything else routes from the end of seg_a to the
    start of seg_b (which covers genuine loops back onto the same segment).
    """
    net, t = router.net, router.times
    seg_a, off_a, seg_b, off_b = (np.asarray(x) for x in (seg_a, off_a, seg_b, off_b))
    us, vs = net.seg_to[seg_a], net.seg_from[seg_b]
    direct = (seg_a[:, None] == seg_b) & (off_b >= off_a[:, None])
    mid_len = np.zeros(direct.shape)
    mid_tt = np.zeros(direct.shape)
    # Searches only from sources some leg routes through, and only as far
    # as the next layer's start nodes; u == v is the empty route.
    for a in np.flatnonzero(np.any(~direct & (us[:, None] != vs), axis=1)):
        mid_tt[a], mid_len[a] = router.reach(int(us[a]), vs)
    len_a = net.seg_length[seg_a]
    head = len_a - off_a
    step = off_b - off_a[:, None]
    leg_len = np.where(direct, step, head[:, None] + mid_len + off_b)
    leg_tt = np.where(direct, t[seg_a][:, None] * (step / len_a[:, None]),
                      (t[seg_a] * (head / len_a))[:, None] + mid_tt
                      + t[seg_b] * (off_b / net.seg_length[seg_b]))
    return leg_len, leg_tt


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
    router: Router,
    points: list[int],
    trace: GpsTrace,
    chosen: list[tuple[int, float]],
    leg_lens: list[float],
) -> tuple[list[int], list[float]]:
    """Assemble the traversed segment sequence and entry times of a piece."""
    net = router.net
    path: list[int] = [chosen[0][0]]
    # Cumulative distance of each point along the traversal, measured from
    # the start node of the first segment.
    d = [chosen[0][1]]
    for (seg_prev, off_prev), (seg_next, off_next), leg_len in zip(chosen[:-1], chosen[1:], leg_lens):
        d.append(d[-1] + leg_len)
        if seg_next == seg_prev and off_next >= off_prev:
            continue  # direct continuation on the same segment
        path.extend(router.route(int(net.seg_to[net.segment_index(seg_prev)]),
                                 int(net.seg_from[net.segment_index(seg_next)])))
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
    baseline: list[MatchedPath] | None = None,
) -> list[MatchedPath]:
    """Match one trace under the router's travel times; see the module docstring.

    When ``baseline`` is a list, the trace is decoded a second time with
    tt_tau = 0 on the same lattice (candidates, emissions and legs are
    shared; only the transition scores differ), and those pieces are
    appended to it. They equal ``match_trace`` under tt_tau = 0 bit for bit.
    """
    param_sets = [params] if baseline is None else [params, replace(params, tt_tau=0.0)]
    outs: list[list[MatchedPath]] = [[] for _ in param_sets]
    cands = project_to_candidates(net, trace.lats, trace.lons, params.radius,
                                  params.max_candidates)
    for run in _split_points(trace, cands, params):
        layers = [([net.segment_index(c.segment_id) for c in cands[i]], [c.offset for c in cands[i]])
                  for i in run]
        emissions, transitions, lengths = _lattice(net, trace, run, layers, router, param_sets)
        for out, trans in zip(outs, transitions):
            for points, chosen, leg_lens, score in _decode_run(run, cands, emissions, trans,
                                                               lengths):
                if len(points) < 2:
                    continue
                segments, entry = _build_path(router, points, trace, chosen, leg_lens)
                out.append(
                    MatchedPath(
                        vehicle_id=trace.vehicle_id,
                        piece=len(out),
                        segments=segments,
                        entry_times=entry,
                        log_score=score,
                        first_point=points[0],
                        last_point=points[-1],
                        assignment=chosen,
                    )
                )
    if baseline is not None:
        baseline.extend(outs[1])
    return outs[0]


def _lattice(net, trace, points, layers, router, param_sets):
    """Emissions, transitions and leg lengths of a candidate lattice.

    ``layers[k]`` holds the (segment indices, offsets) of the candidates
    of trace point ``points[k]``. Transition and length matrix k cover
    the legs from layer k to layer k+1. The parameter sets differ at most
    in tt_tau: emissions and legs are computed once, and there is one
    list of transition matrices per parameter set.
    """
    sigma = param_sets[0].gps_sigma
    emissions = []
    for i, layer in zip(points, layers):
        lat, lon = float(trace.lats[i]), float(trace.lons[i])
        mlat, mlon = meters_per_degree(lat)
        emissions.append(np.array([
            emission_logp(math.hypot((plat - lat) * mlat, (plon - lon) * mlon), sigma)
            for plat, plon in (position_on_segment(net, j, off) for j, off in zip(*layer))]))
    transitions: list[list[np.ndarray]] = [[] for _ in param_sets]
    lengths = []
    for k, (i, j) in enumerate(zip(points, points[1:])):
        leg_len, leg_tt = _legs(router, *layers[k], *layers[k + 1])
        gc = haversine((float(trace.lats[i]), float(trace.lons[i])),
                       (float(trace.lats[j]), float(trace.lons[j])))
        dt = float(trace.timestamps[j] - trace.timestamps[i])
        for out, params in zip(transitions, param_sets):
            out.append(transition_logp(leg_len, gc, leg_tt, dt, params))
        lengths.append(leg_len)
    return emissions, transitions, lengths


def _decode_run(run, cands, emissions, transitions, lengths):
    """Viterbi over one run's lattice, splitting further where it breaks.

    Each sub-piece decodes a slice of the lattice. Yields (point indices,
    chosen (segment, offset) list, leg lengths, score) per decoded
    sub-piece; leg k connects point k to point k+1.
    """
    start = 0
    while start < len(run):
        idxs, score, decoded = _viterbi_partial(emissions[start:], transitions[start:])
        sub = run[start:start + decoded]
        chosen = [(cands[p][ci].segment_id, cands[p][ci].offset) for p, ci in zip(sub, idxs)]
        leg_lens = [float(lengths[start + k][idxs[k], idxs[k + 1]]) for k in range(decoded - 1)]
        yield sub, chosen, leg_lens, score
        start += decoded


def match_traces(
    net: RoadNetwork,
    traces: list[GpsTrace],
    segment_times: np.ndarray,
    params: MatchParams = MatchParams(),
) -> list[MatchedPath]:
    """Match a batch of traces against one router, sharing its cached trees."""
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
    layers = [([net.segment_index(seg)], [off]) for seg, off in assignment]
    emissions, (transitions,), _ = _lattice(net, trace, points, layers, router, [params])
    # Accumulation order mirrors the Viterbi recursion exactly, so identical
    # assignments under identical times produce the identical float.
    total = emissions[0][0]
    for trans, emission in zip(transitions, emissions[1:]):
        total = total + trans[0, 0]
        total = total + emission[0]
    return float(total)


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
        if not math.isfinite(t):
            raise InputDataError(f"{path}: vehicle {vid}, piece {piece}: entry time {t} is not finite")
        segs, times = groups.setdefault((vid, piece), ([], []))
        segs.append(sid)
        times.append(t)
    return [
        MatchedPath(vehicle_id=vid, piece=piece, segments=segs, entry_times=times)
        for (vid, piece), (segs, times) in sorted(groups.items())
    ]
