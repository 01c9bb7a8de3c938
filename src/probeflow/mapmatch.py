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

Probes stay columns from file to file: the fixes come in as one table
(``Fixes``), and the pieces go out as flat arrays in ``matched.csv``'s
own layout (``Pieces``). ``match_traces`` takes one router per vehicle
and matches in chunks of consecutive vehicles, cut from the table's
offsets only where the chunk would pass ``_CHUNK_FIXES`` fixes, whatever
the vehicles' routers. A chunk makes one candidate projection, one
padded lattice over all its runs (each leg routed and timed under its
own vehicle's router, one route resolution per router) and one Viterbi
pass that steps every run a layer at a time. Every piece equals the one
a vehicle matched alone under its router gives, bit for bit.

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


class Fixes(NamedTuple):
    """GPS fixes of several vehicles, one array per column.

    ``vehicle`` holds the vehicle ids, ascending and unique. Vehicle i's
    fixes are rows ``offsets[i]`` to ``offsets[i + 1]`` of the per-fix
    columns, in time order: ``t`` (seconds), ``lat`` and ``lon`` (degrees)
    and ``mlon``, ``meters_per_degree(lat)[1]``.
    """

    vehicle: np.ndarray
    offsets: np.ndarray
    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    mlon: np.ndarray


def fix_table(vehicle, t, lat, lon) -> Fixes:
    """The table of per-fix columns, in any vehicle order; a vehicle's fixes keep their order."""
    lat = np.asarray(lat, dtype=float)
    # nan where the latitude is out of range, which read_traces then rejects
    mlon = [meters_per_degree(x)[1] if abs(x) <= 90.0 else math.nan for x in lat.tolist()]
    return _by_vehicle(vehicle, t, lat, lon, mlon)


def _by_vehicle(vehicle, *columns) -> Fixes:
    """The table of ``vehicle`` and the per-fix columns, stably sorted by vehicle."""
    vehicle = np.asarray(vehicle, dtype=np.int64)
    order = np.argsort(vehicle, kind="stable")
    ids, first = np.unique(vehicle[order], return_index=True)
    return Fixes(ids, np.append(first, len(order)),
                 *(np.asarray(c, dtype=float)[order] for c in columns))


def concat_fixes(tables: list[Fixes]) -> Fixes:
    """One table of every fix of ``tables``, whose vehicles must differ.

    Each table's ``mlon`` is carried through the sort, not worked out again.
    """
    if not tables:
        return fix_table([], [], [], [])
    columns = [(np.repeat(f.vehicle, np.diff(f.offsets)), f.t, f.lat, f.lon, f.mlon) for f in tables]
    return _by_vehicle(*map(np.concatenate, zip(*columns)))


class Pieces(NamedTuple):
    """Matched pieces as flat arrays, in ``matched.csv``'s layout.

    Row k is one traversed segment: ``vehicle[k]``, ``piece[k]`` (from 0
    per vehicle), ``segment[k]`` (an index into ``net.segments``) and
    ``entry[k]``, the interpolated entry instant, clamped to the piece's
    observation window. Rows run by vehicle, piece, then traversal order
    (a segment may repeat on genuine loops). Piece p is rows
    ``bounds[p]`` to ``bounds[p + 1]``; ``log_score[p]`` is its Viterbi
    score (nan for pieces read from a file).
    """

    vehicle: np.ndarray
    piece: np.ndarray
    segment: np.ndarray
    entry: np.ndarray
    bounds: np.ndarray
    log_score: np.ndarray


def _pieces(vehicle, size, score, segment, entry) -> Pieces:
    """``Pieces`` of per-piece vehicle ids (ascending), row counts and scores, and per-row columns."""
    vehicle, size = np.array(vehicle, dtype=np.int64), np.array(size, dtype=np.int64)
    piece = np.arange(len(vehicle)) - np.searchsorted(vehicle, vehicle)
    return Pieces(np.repeat(vehicle, size), np.repeat(piece, size), np.array(segment, np.int64),
                  np.array(entry, float), np.append(0, np.cumsum(size)), np.array(score, float))


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
    times: list[float],
    segs: list[int],
    offs: list[float],
    leg_lens: list[float],
) -> tuple[list[int], list[float]]:
    """Traversed segment indices and entry times of a piece.

    ``times``, ``segs`` and ``offs`` hold the timestamp of each point and
    the segment index and offset of the candidate chosen there; leg k
    connects point k to point k+1.
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
    for dist_i, t_i in zip((np.asarray(d) - start_shift).tolist(), times):
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


def match_traces(
    net: RoadNetwork,
    fixes: Fixes,
    routers: list[Router],
    params: MatchParams = MatchParams(),
    baseline: list[Pieces] | None = None,
) -> Pieces:
    """Match each vehicle's fixes under its router's travel times; see the module docstring.

    ``routers`` holds one router per vehicle of ``fixes``. A chunk holds
    at most ``_CHUNK_FIXES`` fixes, or one longer trace. When
    ``baseline`` is a list, every trace is decoded a second time with
    tt_tau = 0 on the same lattices (only the transition scores differ),
    and those pieces are appended to it. They equal ``match_traces``
    under tt_tau = 0 bit for bit; ``refine`` takes the tandem baseline
    from them.
    """
    if len(routers) != len(fixes.vehicle):
        raise ValueError(f"{len(routers)} routers for {len(fixes.vehicle)} vehicles")
    param_sets = [params] if baseline is None else [params, replace(params, tt_tau=0.0)]
    # Per parameter set: vehicle, size and score per piece; segment and entry per row.
    outs = [([], [], [], [], []) for _ in param_sets]
    offsets, firsts = fixes.offsets.tolist(), [0]
    for i in range(1, len(routers)):
        if offsets[i + 1] - offsets[firsts[-1]] > _CHUNK_FIXES:
            firsts.append(i)
    for first, stop in zip(firsts, firsts[1:] + [len(routers)]):
        _match_chunk(net, fixes, first, stop, routers, param_sets, outs)
    if baseline is not None:
        baseline.append(_pieces(*outs[1]))
    return _pieces(*outs[0])


def _match_chunk(net, fixes, first, stop, routers, param_sets, outs) -> None:
    """Match vehicles ``first`` to ``stop``; each of ``outs`` gets one parameter set's pieces."""
    params = param_sets[0]
    offsets = fixes.offsets[first:stop + 1].tolist()
    lo, hi = offsets[0], offsets[-1]
    fix, seg, off, _ = project_to_candidates(net, fixes.lat[lo:hi], fixes.lon[lo:hi],
                                             fixes.mlon[lo:hi], params.radius, _MAX_CANDIDATES)
    counts = np.bincount(fix, minlength=hi - lo)
    # Each vehicle's runs as (vehicle, first row, stop row) of the table. They
    # hold each fix with a candidate once, in order: those are the layers.
    runs: list[tuple[int, int, int]] = []
    for v, a, b in zip(range(first, stop), offsets, offsets[1:]):
        runs.extend((v, a + ra, a + rb) for ra, rb in _split_points(
            fixes.t[a:b].tolist(), counts[a - lo:b - lo].tolist(), params))
    if not runs:
        return
    layers = lo + np.flatnonzero(counts)  # the table row of each layer
    counts = counts[layers - lo]
    bounds = np.cumsum([0] + [b - a for _, a, b in runs]).tolist()
    emission, transitions, lengths = _lattice(
        net, fixes, layers, counts, bounds, seg, off, [routers[v] for v, _, _ in runs],
        param_sets)
    starts = np.concatenate(([0], np.cumsum(counts))).tolist()  # each layer's first row
    rows = layers.tolist()
    for (vehicle, size, scores, segment, entry), transition in zip(outs, transitions):
        for r, a, picked, leg_lens, score in _viterbi(emission, transition, lengths, bounds):
            if len(picked) < 2:
                continue
            v = runs[r][0]
            chosen = [starts[a + k] + c for k, c in enumerate(picked)]
            # A run's layers are consecutive rows of the table.
            path, times = _build_path(routers[v], fixes.t[rows[a]:rows[a] + len(picked)].tolist(),
                                      seg[chosen].tolist(), off[chosen].tolist(), leg_lens)
            vehicle.append(int(fixes.vehicle[v]))
            size.append(len(path))
            scores.append(score)
            segment += path
            entry += times


def _lattice(net, fixes, layers, counts, runs, seg, off, routers, param_sets):
    """Emissions, transitions and leg lengths of the candidate lattices of several runs.

    Layer k holds the candidates of row ``layers[k]`` of the fix table
    ``fixes``: the next ``counts[k]`` rows of ``seg`` (segment indices)
    and ``off`` (offsets). Run r is layers ``runs[r]`` to ``runs[r + 1]``, routed by
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
    t, lat, lon, mlon = (column[layers] for column in (fixes.t, fixes.lat, fixes.lon, fixes.mlon))

    # Emissions: the elementwise ops of position_on_segment and math.hypot.
    length = net.seg_length[seg]
    frac = np.minimum(np.maximum(off / length, 0.0), 1.0)
    alat, alon = net._seg_alat[seg], net._seg_alon[seg]
    dy = (alat + frac * (net._seg_blat[seg] - alat) - lat[layer]) * M_PER_DEG_LAT
    dx = (alon + frac * (net._seg_blon[seg] - alon) - lon[layer]) * mlon[layer]
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
    la, lo = lat.tolist(), lon.tolist()
    pairs = np.flatnonzero(linked[:-1])
    gc = np.zeros(n)
    gc[pairs] = [haversine((la[k], lo[k]), (la[k + 1], lo[k + 1])) for k in pairs.tolist()]
    pair = layer[ia]
    gc, dt = gc[pair], np.diff(t)[pair]

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


def write_matched(pieces: Pieces, path: str | os.PathLike, net: RoadNetwork) -> None:
    write_table(path, MATCHED_COLUMNS, (pieces.vehicle, pieces.piece,
                                        np.asarray(net.segment_ids())[pieces.segment],
                                        pieces.entry))


def read_matched(path: str | os.PathLike, net: RoadNetwork) -> Pieces:
    """Read matched pieces; only traversal data survives the CSV.

    A piece's rows keep their file order, wherever they stand. Entry times must be
    finite and must not go backwards within a piece; the first row that breaks either is named.
    """
    vids, pieces, sids, times = read_table(path, MATCHED_COLUMNS)
    order = np.lexsort((pieces, vids))  # stable, so a piece's rows keep their order
    vehicle, piece = (np.array(column, dtype=np.int64)[order] for column in (vids, pieces))
    entry = np.array(times, dtype=float)[order]
    # A piece's first row, and rows whose entry time is not finite or goes back.
    new = np.ones(len(order), dtype=bool)
    new[1:] = (vehicle[1:] != vehicle[:-1]) | (piece[1:] != piece[:-1])
    bad = np.flatnonzero(~np.isfinite(entry) | (~new & (np.diff(entry, prepend=np.nan) < 0.0)))
    if len(bad):
        k = int(bad[np.argmin(order[bad])])
        where = f"{path}: vehicle {vehicle[k]}, piece {piece[k]}: entry time {entry[k]}"
        if not math.isfinite(entry[k]):
            raise InputDataError(f"{where} is not finite")
        raise InputDataError(f"{where} is below the previous entry time {entry[k - 1]}")
    segment = net.segment_indices(str(path), np.asarray(sids)[order].tolist())
    return Pieces(vehicle, piece, np.array(segment, dtype=np.int64), entry,
                  np.append(np.flatnonzero(new), len(order)), np.full(new.sum(), math.nan))
