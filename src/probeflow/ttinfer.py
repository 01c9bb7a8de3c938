"""Per-interval travel-time inference from matched trips.

Each matched piece contributes one linear observation: the segments it
traversed (with multiplicity) took, in total, the observed duration. Per
time interval this stacks into A x = b with integer counts in A, solved
as bound-constrained ridge regression

    minimize  ||A x - b||^2 + lambda * ||x - prior||^2
    subject to x_s >= free_flow_time_s

over the segments that actually appear in the interval's observations.
Unsupported segments keep their prior. An active-set method solves the
program exactly (see ``_active_set``), so there is no tolerance or
iteration budget to tune, and since the prior, lifted to the bound, is
feasible, the optimum never leaves the objective worse than the prior.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputDataError, SolverError
from .network import RoadNetwork, TimeGrid
from .tables import read_table, write_table


@dataclass(frozen=True)
class InferParams:
    """Solver settings: the ridge weight toward the prior (0 is allowed)."""

    lam: float = 0.05

    def __post_init__(self) -> None:
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise InputDataError(f"lambda must be finite and >= 0, got {self.lam}")


class IntervalObservations(NamedTuple):
    """Observation rows of one time interval, as flat arrays.

    Row r traversed ``segment[bounds[r]:bounds[r + 1]]`` (indices into
    ``net.segments``; a segment traversed twice is listed twice) in
    ``duration[r]`` seconds.
    """

    interval_index: int
    bounds: np.ndarray
    segment: np.ndarray
    duration: np.ndarray


@dataclass
class SegmentTimeEstimate:
    """Estimated travel times of one interval with observation support.

    ``time`` (seconds) and ``support`` (observation rows per segment) are
    per-segment arrays in ``net.segments`` order.
    """

    time: np.ndarray
    support: np.ndarray
    interval_index: int


def observations_from_matches(pieces, grid: TimeGrid) -> dict[int, IntervalObservations]:
    """Convert matched pieces (``mapmatch.Pieces``) into per-interval observation rows.

    A piece whose path holds segments s_0..s_{n-1} entered s_{n-1} at a
    known instant, so the observable quantity is the duration from
    entering s_0 to entering s_{n-1}, which covers s_0..s_{n-2} exactly
    once each (with multiplicity on loops). Pieces traversing fewer than
    two segments carry no duration information and are skipped, as are
    pieces with no positive duration. Rows land in the interval
    containing the midpoint of their observation window, in piece order.
    """
    first, last = pieces.bounds[:-1], pieces.bounds[1:] - 1
    duration = pieces.entry[last] - pieces.entry[first]
    keep = (last > first) & (duration > 0.0)
    first, last, duration = first[keep], last[keep], duration[keep]
    mid = 0.5 * (pieces.entry[first] + pieces.entry[last])
    interval = np.array([grid.interval_of(t) for t in mid.tolist()], dtype=np.int64)
    order = np.argsort(interval, kind="stable")
    first, size, duration = first[order], (last - first)[order], duration[order]
    bounds = np.concatenate(([0], np.cumsum(size)))
    segment = pieces.segment[np.arange(bounds[-1]) + np.repeat(first - bounds[:-1], size)]
    ivs, start = np.unique(interval[order], return_index=True)
    cuts = np.append(start, len(order)).tolist()
    return {iv: IntervalObservations(iv, bounds[a:b + 1] - bounds[a],
                                     segment[bounds[a]:bounds[b]], duration[a:b])
            for iv, a, b in zip(ivs.tolist(), cuts, cuts[1:])}


def build_system(
    obs: IntervalObservations, net: RoadNetwork
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack observation rows into (A, b, column segment indices).

    A[r, c] counts how many times row r traverses column c's segment;
    columns are the segments with support, ascending (by index and id).
    """
    segment, b = obs.segment, obs.duration
    if len(segment) and (segment.min() < 0 or segment.max() >= net.n_segments):
        bad = segment.min() if segment.min() < 0 else segment.max()
        raise InputDataError(f"segment index {bad} outside 0..{net.n_segments - 1}")
    bad = ~((b > 0.0) & np.isfinite(b))
    if np.any(bad):
        raise InputDataError(f"observation duration must be positive, got {b[np.argmax(bad)]}")
    columns = np.unique(segment, return_index=True)[0]  # plain np.unique imports numpy.ma
    A = np.zeros((len(b), len(columns)))
    rows = np.repeat(np.arange(len(b)), np.diff(obs.bounds))
    np.add.at(A, (rows, np.searchsorted(columns, segment)), 1.0)
    return A, b, columns


def _active_set(
    A: np.ndarray, b: np.ndarray, lam: float, lower: np.ndarray, prior: np.ndarray
) -> np.ndarray:
    """Exact minimizer of the bounded ridge program on y = x - lower >= 0.

    With G = A'A + lam I and g = A'(b - A lower) + lam (prior - lower),
    the descent is w = g - G y, and a fit solves G[F, F] y_F = g_F over
    the free set F (least squares when lam = 0). Block principal pivoting
    (Kim & Park 2011) swaps every free column that fits negative and every
    bound one with w > 0 while their count falls, which settles most
    intervals in about ten fits. Lawson-Hanson (1974, *Solving Least
    Squares Problems*, ch. 23) finishes and guarantees the optimum: the
    column of largest w enters F; while a fit leaves free columns
    nonpositive, y steps toward it until one reaches its bound and leaves.
    """
    n = A.shape[1]
    G = A.T @ A
    G.flat[:: n + 1] += lam
    g = A.T @ (b - A @ lower) + lam * (prior - lower)
    tol = 1e-12 * (1.0 + float(np.linalg.norm(b)))
    free = np.zeros(n, dtype=bool)
    y = np.zeros(n)

    def fit() -> np.ndarray:
        f = np.flatnonzero(free)
        M = G[np.ix_(f, f)]
        z = np.zeros(n)
        z[f] = np.linalg.solve(M, g[f]) if lam > 0.0 else np.linalg.lstsq(M, g[f], rcond=None)[0]
        return z

    swap, fewest = g > tol, n + 1
    while 0 < np.count_nonzero(swap) < fewest:
        fewest = np.count_nonzero(swap)
        free ^= swap
        y = fit()
        swap = np.where(free, y < 0.0, g - G @ y > tol)
    free &= y > 0.0
    y = np.where(free, y, 0.0)
    z = fit()
    for _ in range(3 * n):
        while np.any(z[free] <= 0.0):
            neg = free & (z <= 0.0)
            steps = y[neg] / (y[neg] - z[neg])
            y += steps.min() * (z - y)
            y[np.flatnonzero(neg)[np.argmin(steps)]] = 0.0
            free &= y > 0.0
            y[~free] = 0.0
            z = fit()
        y = z
        w = g - G @ y
        w[free] = -np.inf
        while True:
            j = int(np.argmax(w))
            if not w[j] > tol:
                return lower + y
            free[j] = True
            z = fit()
            if z[j] > 0.0:
                break
            free[j] = False  # only roundoff fits a column with w_j > 0 nonpositive
            w[j] = -np.inf
    raise SolverError(f"active set did not settle within {3 * n} passes")


def infer_times(
    obs: IntervalObservations,
    net: RoadNetwork,
    prior: np.ndarray,
    params: InferParams = InferParams(),
) -> SegmentTimeEstimate:
    """Solve the interval's bounded ridge program; see module docstring."""
    time = np.array(prior, dtype=float)
    if time.shape != (net.n_segments,):
        raise InputDataError(f"prior holds {time.shape} values for {net.n_segments} segments")
    if not np.all(np.isfinite(time)):
        raise InputDataError("prior contains non-finite values")
    if np.any(time < net.seg_fft * (1.0 - 1e-12)):
        raise InputDataError("prior must be at least the free-flow time everywhere")

    A, b, columns = build_system(obs, net)
    support = np.zeros(net.n_segments, dtype=np.int64)
    support[columns] = np.count_nonzero(A, axis=0)
    if len(columns):
        time[columns] = _active_set(A, b, params.lam, net.seg_fft[columns], time[columns])
    return SegmentTimeEstimate(time=time, support=support, interval_index=obs.interval_index)


def residual_sq(times: np.ndarray, obs: IntervalObservations, net: RoadNetwork) -> float:
    """||A x - b||^2 of an interval under given segment times."""
    A, b, columns = build_system(obs, net)
    r = A @ times[columns] - b
    return float(r @ r)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


ESTIMATE_COLUMNS = (("interval", int), ("segment_id", int), ("time_s", float), ("support", int))


def write_estimates(estimates: list[SegmentTimeEstimate], path: str | os.PathLike,
                    net: RoadNetwork | None = None) -> None:
    """Write estimates as `interval,segment_id,time_s,support` rows.

    ``net`` names the array rows; without it ``time`` and ``support`` must
    be id-keyed mappings, as the benchmark's perfbench/matrix.py builds.
    """
    intervals, ids, times, supports = [], [], [], []
    for est in sorted(estimates, key=lambda e: e.interval_index):
        if net is None:
            sids = sorted(est.time)
            times += [est.time[sid] for sid in sids]
            supports += [est.support[sid] for sid in sids]
        else:
            sids = net.segment_ids()
            times += est.time.tolist()
            supports += est.support.tolist()
        intervals += [est.interval_index] * len(sids)
        ids += sids
    write_table(path, ESTIMATE_COLUMNS, (intervals, ids, times, supports))


def read_estimates(path: str | os.PathLike, net: RoadNetwork,
                   grid: TimeGrid) -> dict[int, SegmentTimeEstimate]:
    """Per-interval estimates, keyed by interval.

    Each interval must lie on the grid and list every segment once, with
    time_s > 0 and support >= 0.
    """
    groups = net.interval_columns(str(path), grid, *read_table(path, ESTIMATE_COLUMNS))
    estimates = {}
    for iv, (time, support) in groups.items():
        bad = (time <= 0.0) | (support < 0)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise InputDataError(f"{path}, interval {iv}: segment {net.segments[k].id} has time_s "
                                 f"{time[k]} and support {support[k]}; need time_s > 0 and support >= 0")
        estimates[iv] = SegmentTimeEstimate(time, support, iv)
    return estimates
