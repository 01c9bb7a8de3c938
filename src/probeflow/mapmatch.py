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
consecutive traces that share a router: one candidate projection, one
lattice over all the chunk's runs and one route resolution per chunk,
then Viterbi per run. Every piece equals the one a trace matched alone
under its router gives, bit for bit.

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
    that share a router (the same object), at most ``_CHUNK_FIXES`` fixes
    (a longer trace is a chunk of its own). Pieces come in trace order,
    each trace's numbered from 0. When ``baseline`` is a list, every trace
    is decoded a second time with tt_tau = 0 on the same lattices (only
    the transition scores differ), and those pieces are appended to it.
    They equal ``match_traces`` under tt_tau = 0 bit for bit; ``refine``
    takes the tandem baseline from them.
    """
    param_sets = [params] if baseline is None else [params, replace(params, tt_tau=0.0)]
    outs: list[list[MatchedPath]] = [[] for _ in param_sets]
    chunk: list[GpsTrace] = []
    fixes = 0
    router = None
    for trace, trace_router in zip(traces, routers, strict=True):
        if chunk and (trace_router is not router or fixes + len(trace) > _CHUNK_FIXES):
            _match_chunk(net, chunk, router, param_sets, outs)
            chunk, fixes = [], 0
        chunk.append(trace)
        fixes += len(trace)
        router = trace_router
    if chunk:
        _match_chunk(net, chunk, router, param_sets, outs)
    if baseline is not None:
        baseline.extend(outs[1])
    return outs[0]


def _match_chunk(net, traces, router, param_sets, outs) -> None:
    """Match consecutive traces, appending one parameter set's pieces to each of ``outs``."""
    params = param_sets[0]
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
    emissions, transitions, lengths = _lattice(net, fixes.take(layers), counts[layers], bounds,
                                               seg, off, router, param_sets)
    starts = np.concatenate(([0], np.cumsum(counts[layers]))).tolist()  # each layer's first row
    current = -1
    for (i, lo, _), a, b in zip(runs, bounds, bounds[1:]):
        if i != current:  # each trace numbers its pieces from 0
            current, trace, numbered = i, traces[i], [len(out) for out in outs]
        for out, n0, trans in zip(outs, numbered, transitions):
            for points, chosen, leg_lens, score in _decode_run(
                    lo, starts[a:b], emissions[a:b], trans[a:b - 1], lengths[a:b - 1]):
                if len(points) < 2:
                    continue
                segs, offs = seg[chosen].tolist(), off[chosen].tolist()
                path, entry = _build_path(router, points, trace, segs, offs, leg_lens)
                out.append(MatchedPath(
                    vehicle_id=trace.vehicle_id, piece=len(out) - n0, segments=path,
                    entry_times=entry, log_score=score, first_point=points[0],
                    last_point=points[-1], assignment=list(zip(segs, offs))))


def _lattice(net, fixes, counts, runs, seg, off, router, param_sets):
    """Emissions, transitions and leg lengths of the candidate lattices of several runs.

    Layer k holds the candidates of fix k of ``fixes``: the next
    ``counts[k]`` rows of ``seg`` (segment indices) and ``off``
    (offsets). Run r is layers ``runs[r]`` to ``runs[r + 1]``, and legs
    join consecutive layers only inside a run. Matrix k covers the legs
    from layer k to layer k+1, entry [a, b] the leg from candidate a to
    candidate b, and is None where layer k ends a run; the matrices are
    views into one flat array over every leg. A leg that stays on one
    segment without going backwards is direct; any other routes from
    the end of its first segment to the start of its second (which
    covers loops back onto the same segment), with one ``Router.reach``
    per distinct source over all runs. The great-circle distance and
    the time between fixes are taken per linked layer pair. The
    parameter sets differ at most in tt_tau; each gets one list of
    transition matrices. Every float equals the scalar formulas
    (``position_on_segment``, ``math.hypot``, ``emission_logp``,
    ``transition_logp`` on one leg), bit for bit.
    """
    layer = np.repeat(np.arange(len(counts)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)))
    linked = np.ones(len(counts), dtype=bool)  # layer k has legs to layer k+1
    linked[np.asarray(runs[1:]) - 1] = False

    # Emissions: the elementwise ops of position_on_segment and math.hypot.
    length = net.seg_length[seg]
    frac = np.minimum(np.maximum(off / length, 0.0), 1.0)
    alat, alon = net._seg_alat[seg], net._seg_alon[seg]
    dy = (alat + frac * (net._seg_blat[seg] - alat) - fixes.lat[layer]) * M_PER_DEG_LAT
    dx = (alon + frac * (net._seg_blon[seg] - alon) - fixes.lon[layer]) * fixes.mlon[layer]
    dist = np.fromiter(map(math.hypot, dy.tolist(), dx.tolist()), float, len(seg))
    emission = emission_logp(dist, param_sets[0].gps_sigma)

    # Every leg: row a of a linked layer against each row b of the next layer.
    rows = np.flatnonzero(linked[layer])
    nxt = layer[rows] + 1
    fan = counts[nxt]
    ia = np.repeat(rows, fan)
    ib = np.arange(len(ia)) - np.repeat(np.cumsum(fan) - fan - starts[nxt], fan)
    seg_a, seg_b, off_a, off_b = seg[ia], seg[ib], off[ia], off[ib]
    us, vs = net.seg_to[seg_a], net.seg_from[seg_b]
    direct = (seg_a == seg_b) & (off_b >= off_a)
    mid_tt, mid_len = _routes(router, us, vs, ~direct & (us != vs))
    t = router.times
    len_a = length[ia]
    head = len_a - off_a
    step = off_b - off_a
    leg_len = np.where(direct, step, head + mid_len + off_b)
    leg_tt = np.where(direct, t[seg_a] * (step / len_a),
                      t[seg_a] * (head / len_a) + mid_tt + t[seg_b] * (off_b / length[ib]))

    # Great-circle distance and time between the fixes of each linked pair, per leg.
    la, lo = fixes.lat.tolist(), fixes.lon.tolist()
    pairs = np.flatnonzero(linked[:-1])
    gc = np.zeros(len(counts))
    gc[pairs] = [haversine((la[k], lo[k]), (la[k + 1], lo[k + 1])) for k in pairs.tolist()]
    pair = layer[ia]
    gc, dt = gc[pair], np.diff(fixes.t)[pair]

    sizes, link = counts.tolist(), linked.tolist()
    bounds = [0, *np.cumsum(np.where(linked[:-1], counts[:-1] * counts[1:], 0)).tolist()]

    def matrices(flat):
        return [flat[b0:b1].reshape(na, nb) if linked_k else None
                for b0, b1, na, nb, linked_k in zip(bounds, bounds[1:], sizes, sizes[1:], link)]

    emissions = [emission[a:b] for a, b in zip(starts.tolist(), starts[1:].tolist())]
    transitions = [matrices(transition_logp(leg_len, gc, leg_tt, dt, params))
                   for params in param_sets]
    return emissions, transitions, matrices(leg_len)


def _routes(router: Router, us: np.ndarray, vs: np.ndarray,
            need: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(time, length) of the fastest route from node us[e] to vs[e] where need[e], else 0.

    Each distinct source is searched once, up to the sorted union of its
    targets; unreachable targets give inf.
    """
    mid_tt, mid_len = np.zeros(len(us)), np.zeros(len(us))
    if not need.any():
        return mid_tt, mid_len
    n = router.net.n_nodes
    keys = us[need] * n + vs[need]
    pairs = np.sort(keys)
    pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
    src, dst = np.divmod(pairs, n)
    bounds = [0, *(np.flatnonzero(src[1:] != src[:-1]) + 1).tolist(), len(pairs)]
    tt, ll = np.empty(len(pairs)), np.empty(len(pairs))
    for a, b, u in zip(bounds, bounds[1:], src[bounds[:-1]].tolist()):
        tt[a:b], ll[a:b] = router.reach(u, dst[a:b])
    found = np.searchsorted(pairs, keys)
    mid_tt[need], mid_len[need] = tt[found], ll[found]
    return mid_tt, mid_len


def _decode_run(first, starts, emissions, transitions, lengths):
    """Viterbi over one run's lattice, splitting further where it breaks.

    The run starts at trace point ``first``, and ``starts[k]`` is the
    first candidate row of layer k. Each sub-piece decodes a slice of
    the lattice. Yields (point indices, chosen candidate rows, leg
    lengths, score) per decoded sub-piece; leg k connects point k to
    point k+1.
    """
    start = 0
    while start < len(emissions):
        idxs, score, decoded = _viterbi_partial(emissions[start:], transitions[start:])
        points = list(range(first + start, first + start + decoded))
        chosen = [starts[start + k] + i for k, i in enumerate(idxs)]
        leg_lens = [float(lengths[start + k][idxs[k], idxs[k + 1]]) for k in range(decoded - 1)]
        yield points, chosen, leg_lens, score
        start += decoded


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
