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

``match_traces`` takes one router per trace and matches in chunks of
consecutive traces, cut only where the chunk would pass ``_CHUNK_FIXES``
fixes, whatever the traces' routers. A chunk makes one candidate
projection, one padded lattice over all its runs (each leg routed and
timed under its own trace's router, one route resolution per router)
and one Viterbi pass that steps every run a layer at a time. Every
piece equals the one a trace matched alone under its router gives, bit
for bit.

Emission and transition scores come from one lattice builder
(``_lattice``), so rescoring a fixed assignment on a one-candidate lattice
gives the very float that Viterbi reports for it.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InputDataError
from .network import (
    M_PER_DEG_LAT,
    RoadNetwork,
    Router,
    haversine,
    meters_per_degree,
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
    gap_factor: float = 10.0

    def __post_init__(self) -> None:
        if not (self.gps_sigma > 0 and self.nk_beta > 0 and self.radius > 0):
            raise InputDataError("gps_sigma, nk_beta, and radius must be positive")
        if not (self.tt_tau >= 0 and math.isfinite(self.tt_tau)):
            raise InputDataError("tt_tau must be finite and >= 0")
        if not (self.gap_factor > 0):
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

    ``segments`` holds segment indices in traversal order (a segment may
    repeat on genuine loops); ``entry_times`` gives the interpolated entry
    instant of each, clamped to the piece's observation window.
    ``assignment`` holds the chosen (segment index, offset) per point when
    produced by the matcher; paths read back from CSV carry only segments
    and entry times.
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


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def _split_points(timestamps: list[float], counts: list[int],
                  params: MatchParams) -> list[tuple[int, int]]:
    """(first, stop) point ranges of the contiguous runs to match separately.

    ``counts[i]`` is the number of candidates of point i. Runs break at
    points without candidates (the point is discarded) and at
    observation gaps above gap_factor times the median spacing.
    """
    dts = [b - a for a, b in zip(timestamps, timestamps[1:])]
    gap_cut = math.inf
    if dts:  # the median as np.median gives it
        ordered, m = sorted(dts), len(dts) // 2
        gap_cut = params.gap_factor * (ordered[m] if len(dts) % 2
                                       else (ordered[m - 1] + ordered[m]) / 2.0)
    runs: list[tuple[int, int]] = []
    start = 0
    for i, count in enumerate(counts):
        if count == 0 or (i > start and dts[i - 1] > gap_cut):
            if i > start:
                runs.append((start, i))
            start = i + (count == 0)
    if len(counts) > start:
        runs.append((start, len(counts)))
    return runs


def _build_path(
    router: Router,
    points: list[int],
    trace: GpsTrace,
    segs: list[int],
    offs: list[float],
    leg_lens: list[float],
) -> tuple[list[int], list[float]]:
    """Traversed segment indices and entry times of a piece.

    ``segs`` and ``offs`` hold the segment index and offset of the
    candidate chosen at each point; leg k connects point k to point k+1.
    """
    net = router.net
    path: list[int] = [segs[0]]
    # Cumulative distance of each point along the traversal, measured from
    # the start node of the first segment.
    d = [offs[0]]
    for seg_prev, off_prev, seg_next, off_next, leg_len in zip(segs, offs, segs[1:], offs[1:],
                                                               leg_lens):
        d.append(d[-1] + leg_len)
        if seg_next == seg_prev and off_next >= off_prev:
            continue  # direct continuation on the same segment
        path.extend(router.route(int(net.seg_to[seg_prev]), int(net.seg_from[seg_next])))
        path.append(seg_next)

    # Trim segments the vehicle only touched at a node: entering the first
    # segment exactly at its end, or reaching the last at offset zero.
    start_shift = 0.0
    if len(path) > 1 and offs[0] == net.seg_length[path[0]]:
        start_shift = net.seg_length[path[0]]
        path = path[1:]
    if len(path) > 1 and offs[-1] == 0.0 and path[-1] == segs[-1]:
        path = path[:-1]

    # Strictly increasing support for interpolation; co-located points
    # keep the earliest timestamp.
    xs, ts = [], []
    for dist_i, t_i in zip((np.asarray(d) - start_shift).tolist(),
                           trace.timestamps[points].tolist()):
        if not xs or dist_i > xs[-1]:
            xs.append(dist_i)
            ts.append(t_i)
    boundaries = np.concatenate(([0.0], np.cumsum(net.seg_length[path[:-1]])))
    entry = np.interp(boundaries, xs, ts)
    # np.interp clamps outside the support, but a first point that sits
    # mid-segment was observed AFTER entering that segment; project its
    # entry instant backward at the speed of the first leg, or downstream
    # rows would book a full traversal against a late-started clock.
    if len(xs) >= 2 and boundaries[0] < xs[0]:
        slope = (ts[1] - ts[0]) / (xs[1] - xs[0])
        entry[0] = ts[0] - (xs[0] - boundaries[0]) * slope
    return path, entry.tolist()


# Candidate segments kept per fix, closest first; at most 8 x 8 = 64 legs
# join one fix to the next.
_MAX_CANDIDATES = 8
# Fixes per chunk of ``match_traces``, a bound on memory: a chunk's projection
# and lattice temporaries hold at most 256 fixes x 64 legs, about 3 MB at
# peak, and the per-call numpy and Python cost that chunking saves is
# already spread thin; larger chunks add memory, not speed.
_CHUNK_FIXES = 256


class _Fixes(NamedTuple):
    """Timestamps, coordinates and meters per degree of longitude of some fixes."""

    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    mlon: np.ndarray

    @classmethod
    def of(cls, traces: list[GpsTrace]) -> "_Fixes":
        """Every fix of the traces, in order; ``mlon`` as ``meters_per_degree`` gives it."""
        lat = np.concatenate([trace.lats for trace in traces])
        return cls(np.concatenate([trace.timestamps for trace in traces]), lat,
                   np.concatenate([trace.lons for trace in traces]),
                   np.array([meters_per_degree(x)[1] for x in lat.tolist()]))

    def take(self, idx) -> "_Fixes":
        return _Fixes(*(a[idx] for a in self))


def match_traces(
    net: RoadNetwork,
    traces: list[GpsTrace],
    routers: list[Router],
    params: MatchParams = MatchParams(),
    baseline: list[MatchedPath] | None = None,
) -> list[MatchedPath]:
    """Match each trace under its router's travel times; see the module docstring.

    ``routers`` holds one router per trace. Chunks hold consecutive traces
    with at most ``_CHUNK_FIXES`` fixes in all (a longer trace is a chunk
    of its own), whatever their routers. Pieces come in trace order, each
    trace's numbered from 0. When ``baseline`` is a list, every trace is
    decoded a second time with tt_tau = 0 on the same lattices (only the
    transition scores differ), and those pieces are appended to it. They
    equal ``match_traces`` under tt_tau = 0 bit for bit; ``refine`` takes
    the tandem baseline from them.
    """
    param_sets = [params] if baseline is None else [params, replace(params, tt_tau=0.0)]
    outs: list[list[MatchedPath]] = [[] for _ in param_sets]
    pairs = list(zip(traces, routers, strict=True))
    first = fixes = 0
    for i, trace in enumerate(traces):
        if i > first and fixes + len(trace) > _CHUNK_FIXES:
            _match_chunk(net, pairs[first:i], param_sets, outs)
            first, fixes = i, 0
        fixes += len(trace)
    if pairs:
        _match_chunk(net, pairs[first:], param_sets, outs)
    if baseline is not None:
        baseline.extend(outs[1])
    return outs[0]


def _match_chunk(net, pairs, param_sets, outs) -> None:
    """Match consecutive (trace, router) pairs; each of ``outs`` gets one parameter set's pieces."""
    params = param_sets[0]
    traces = [trace for trace, _ in pairs]
    fixes = _Fixes.of(traces)
    fix, seg, off, _ = project_to_candidates(net, fixes.lat, fixes.lon, fixes.mlon,
                                             params.radius, _MAX_CANDIDATES)
    counts = np.bincount(fix, minlength=len(fixes.t))
    # The runs of every trace as (trace, first point, stop point). Together
    # they hold each fix with a candidate once, in order: those are the layers.
    runs: list[tuple[int, int, int]] = []
    first = 0
    for i, trace in enumerate(traces):
        stop = first + len(trace)
        runs.extend((i, lo, hi) for lo, hi in _split_points(
            trace.timestamps.tolist(), counts[first:stop].tolist(), params))
        first = stop
    if not runs:
        return
    layers = np.flatnonzero(counts)
    bounds = np.cumsum([0] + [hi - lo for _, lo, hi in runs]).tolist()
    emission, transitions, lengths = _lattice(
        net, fixes.take(layers), counts[layers], bounds, seg, off,
        [pairs[i][1] for i, _, _ in runs], param_sets)
    starts = np.concatenate(([0], np.cumsum(counts[layers]))).tolist()  # each layer's first row
    for out, transition in zip(outs, transitions):
        current = -1
        for r, a, picked, leg_lens, score in _viterbi(emission, transition, lengths, bounds):
            i, lo, _ = runs[r]
            if i != current:  # each trace numbers its pieces from 0
                current, n0 = i, len(out)
                trace, router = pairs[i]
            if len(picked) < 2:
                continue
            p0 = lo + a - bounds[r]  # the trace point of layer a
            points = list(range(p0, p0 + len(picked)))
            chosen = [starts[a + k] + c for k, c in enumerate(picked)]
            segs, offs = seg[chosen].tolist(), off[chosen].tolist()
            path, entry = _build_path(router, points, trace, segs, offs, leg_lens)
            out.append(MatchedPath(
                vehicle_id=trace.vehicle_id, piece=len(out) - n0, segments=path,
                entry_times=entry, log_score=score, first_point=points[0],
                last_point=points[-1], assignment=list(zip(segs, offs))))


def _lattice(net, fixes, counts, runs, seg, off, routers, param_sets):
    """Emissions, transitions and leg lengths of the candidate lattices of several runs.

    Layer k holds the candidates of fix k of ``fixes``: the next
    ``counts[k]`` rows of ``seg`` (segment indices) and ``off``
    (offsets). Run r is layers ``runs[r]`` to ``runs[r + 1]``, routed by
    ``routers[r]``, and legs join consecutive layers only inside a run.
    With w the largest count, the emissions are a layers x w array and
    each parameter set's transitions, like the leg lengths, a layers x w
    x w array: entry [k, a, b] covers the leg from candidate a of layer
    k to candidate b of layer k+1. Entries with no candidate or no leg
    hold -inf (emissions and transitions) or nan (lengths). A leg that
    stays on one segment without going backwards is direct; any other
    routes from the end of its first segment to the start of its second
    (which covers loops back onto the same segment), with one
    ``Router.reach`` per distinct (router, source) over all runs, and
    takes its times from its run's router. The great-circle distance
    and the time between fixes are taken per linked layer pair. The
    parameter sets differ at most in tt_tau. Every float equals the
    scalar formulas (``position_on_segment``, ``math.hypot``,
    ``emission_logp``, ``transition_logp`` on one leg), bit for bit.
    """
    n, w = len(counts), int(counts.max())
    layer = np.repeat(np.arange(n), counts)
    starts = np.concatenate(([0], np.cumsum(counts)))
    col = np.arange(len(seg)) - starts[layer]  # each row's candidate index in its layer
    linked = np.ones(n, dtype=bool)  # layer k has legs to layer k+1
    linked[np.asarray(runs[1:]) - 1] = False

    # Emissions: the elementwise ops of position_on_segment and math.hypot.
    length = net.seg_length[seg]
    frac = np.minimum(np.maximum(off / length, 0.0), 1.0)
    alat, alon = net._seg_alat[seg], net._seg_alon[seg]
    dy = (alat + frac * (net._seg_blat[seg] - alat) - fixes.lat[layer]) * M_PER_DEG_LAT
    dx = (alon + frac * (net._seg_blon[seg] - alon) - fixes.lon[layer]) * fixes.mlon[layer]
    dist = np.fromiter(map(math.hypot, dy.tolist(), dx.tolist()), float, len(seg))
    emission = np.full((n, w), -math.inf)
    emission[layer, col] = emission_logp(dist, param_sets[0].gps_sigma)

    # Every leg: row a of a linked layer against each row b of the next layer.
    rows = np.flatnonzero(linked[layer])
    nxt = layer[rows] + 1
    fan = counts[nxt]
    ia = np.repeat(rows, fan)
    ib = np.arange(len(ia)) - np.repeat(np.cumsum(fan) - fan - starts[nxt], fan)
    seg_a, seg_b, off_a, off_b = seg[ia], seg[ib], off[ia], off[ib]
    us, vs = net.seg_to[seg_a], net.seg_from[seg_b]
    direct = (seg_a == seg_b) & (off_b >= off_a)
    routed = ~direct & (us != vs)
    # Each leg's router, numbered in order of first use.
    index: dict[Router, int] = {}
    of_run = np.array([index.setdefault(router, len(index)) for router in routers])
    leg_router = np.repeat(of_run, np.diff(runs))[layer[ia]]
    mid_tt, mid_len = np.zeros(len(ia)), np.zeros(len(ia))
    t_a, t_b = np.empty(len(ia)), np.empty(len(ia))
    for k, router in enumerate(index):
        mine = leg_router == k
        t_a[mine], t_b[mine] = router.times[seg_a[mine]], router.times[seg_b[mine]]
        legs = np.flatnonzero(mine & routed)
        if len(legs):
            mid_tt[legs], mid_len[legs] = _routes(router, us[legs], vs[legs])
    len_a = length[ia]
    head = len_a - off_a
    step = off_b - off_a
    leg_len = np.where(direct, step, head + mid_len + off_b)
    leg_tt = np.where(direct, t_a * (step / len_a),
                      t_a * (head / len_a) + mid_tt + t_b * (off_b / length[ib]))

    # Great-circle distance and time between the fixes of each linked pair, per leg.
    la, lo = fixes.lat.tolist(), fixes.lon.tolist()
    pairs = np.flatnonzero(linked[:-1])
    gc = np.zeros(n)
    gc[pairs] = [haversine((la[k], lo[k]), (la[k + 1], lo[k + 1])) for k in pairs.tolist()]
    pair = layer[ia]
    gc, dt = gc[pair], np.diff(fixes.t)[pair]

    def padded(flat, fill):
        out = np.full((n, w, w), fill)
        out[pair, col[ia], col[ib]] = flat
        return out

    transitions = [padded(transition_logp(leg_len, gc, leg_tt, dt, params), -math.inf)
                   for params in param_sets]
    return emission, transitions, padded(leg_len, math.nan)


def _routes(router: Router, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(time, length) of the fastest route from node us[e] to vs[e], inf where unreachable.

    Each distinct source is searched once, up to the sorted union of its
    targets.
    """
    n = router.net.n_nodes
    keys = us * n + vs
    pairs = np.sort(keys)
    pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
    src, dst = np.divmod(pairs, n)
    bounds = [0, *(np.flatnonzero(src[1:] != src[:-1]) + 1).tolist(), len(pairs)]
    tt, ll = np.empty(len(pairs)), np.empty(len(pairs))
    for a, b, u in zip(bounds, bounds[1:], src[bounds[:-1]].tolist()):
        tt[a:b], ll[a:b] = router.reach(u, dst[a:b])
    found = np.searchsorted(pairs, keys)
    return tt[found], ll[found]


def _viterbi(emission, transition, length, runs):
    """Viterbi over every run of a padded lattice at once, splitting runs where they break.

    ``emission``, ``transition`` and ``length`` are one parameter set's
    arrays from ``_lattice``, and run r is layers ``runs[r]`` to
    ``runs[r + 1]``. Every run steps one layer per depth, all in one
    array operation. A run whose next layer keeps no finite state ends
    its sub-piece at the layer before and restarts at that layer. Ties
    resolve to the smallest candidate index at every layer (first
    argmax); the -inf padding never wins a maximum or a first argmax
    that a candidate could, so every score and path equals a decode of
    the unpadded run. Returns (run, first layer, chosen candidate
    indices, leg lengths, score) per sub-piece, in layer order; leg k
    joins chosen candidate k to chosen candidate k+1.
    """
    n_layers, w = emission.shape
    first = np.asarray(runs[:-1])
    size = np.diff(runs)
    order = np.argsort(-size, kind="stable")  # longest first: live runs are a prefix
    first, size = first[order], size[order]
    back = np.zeros((n_layers, w), dtype=np.intp)  # best predecessor of each state
    stops, finals = [], []  # each sub-piece's stop layer and last layer's scores
    v = emission[first]
    for depth in range(1, int(size[0])):
        live = int(np.count_nonzero(size > depth))
        stops.append(first[live:len(v)] + depth)
        finals.append(v[live:])
        v = v[:live]
        k = first[:live] + depth
        cand = v[:, :, None] + transition[k - 1]
        back[k] = cand.argmax(axis=1)
        # Each column's maximum is its value at the first argmax.
        nxt = cand.max(axis=1) + emission[k]
        dead = ~np.isfinite(nxt).any(axis=1)
        if dead.any():
            stops.append(k[dead])
            finals.append(v[dead])
            nxt[dead] = emission[k[dead]]
        v = nxt
    stops.append(first[:len(v)] + size[:len(v)])
    finals.append(v)

    stop = np.concatenate(stops)
    final = np.concatenate(finals)
    at = np.argsort(stop)  # sub-pieces tile the layers, so they sort by stop
    stop, final = stop[at].tolist(), final[at]
    best = final.argmax(axis=1)
    score = final[np.arange(len(best)), best].tolist()
    backs, pick = back.tolist(), [0] * n_layers
    a = 0
    for b, j in zip(stop, best.tolist()):
        pick[b - 1] = j
        for k in range(b - 1, a, -1):
            j = pick[k - 1] = backs[k][j]
        a = b
    leg = length[np.arange(n_layers - 1), pick[:-1], pick[1:]].tolist()
    run = np.searchsorted(runs, [0, *stop[:-1]], side="right") - 1
    return [(r, a, pick[a:b], leg[a:b - 1], s)
            for r, a, b, s in zip(run.tolist(), [0, *stop[:-1]], stop, score)]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


MATCHED_COLUMNS = (("vehicle_id", int), ("piece", int), ("segment_id", int), ("entry_time_s", float))


def write_matched(paths: list[MatchedPath], path: str | os.PathLike, net: RoadNetwork) -> None:
    ids = net.segment_ids()
    paths = sorted(paths, key=lambda m: (m.vehicle_id, m.piece))
    write_table(path, MATCHED_COLUMNS, (
        [mp.vehicle_id for mp in paths for _ in mp.segments],
        [mp.piece for mp in paths for _ in mp.segments],
        [ids[j] for mp in paths for j in mp.segments],
        [t for mp in paths for t in mp.entry_times]))


def read_matched(path: str | os.PathLike, net: RoadNetwork) -> list[MatchedPath]:
    """Read matched paths; only traversal data survives the CSV.

    Entry times must be finite and must not go backwards within a piece.
    """
    groups: dict[tuple[int, int], tuple[list[int], list[float]]] = {}
    for vid, piece, sid, t in zip(*read_table(path, MATCHED_COLUMNS)):
        if not math.isfinite(t):
            raise InputDataError(f"{path}: vehicle {vid}, piece {piece}: entry time {t} is not finite")
        segs, times = groups.setdefault((vid, piece), ([], []))
        if times and t < times[-1]:
            raise InputDataError(f"{path}: vehicle {vid}, piece {piece}: entry time {t} is "
                                 f"below the previous entry time {times[-1]}")
        segs.append(sid)
        times.append(t)
    return [
        MatchedPath(vehicle_id=vid, piece=piece, segments=net.segment_indices(str(path), segs),
                    entry_times=times)
        for (vid, piece), (segs, times) in sorted(groups.items())
    ]
