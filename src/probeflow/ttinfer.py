"""Per-interval travel-time inference from matched trips.

Each matched piece contributes one linear observation: the segments it
traversed (with multiplicity) took, in total, the observed duration. Per
time interval this stacks into A x = b with integer counts in A, solved
as bound-constrained ridge regression

    minimize  ||A x - b||^2 + lambda * ||x - prior||^2
    subject to x_s >= free_flow_time_s

over the segments that actually appear in the interval's observations.
Unsupported segments keep their prior. The solver is an accelerated
projected gradient with a monotone safeguard, run until the KKT
conditions hold to tolerance; starting from the prior, the objective can
therefore never end up worse than not solving at all.
"""

from __future__ import annotations

import logging
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InputDataError
from .network import RoadNetwork, TimeGrid
from .tables import read_table, write_table

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class InferParams:
    """Solver settings: ridge weight toward the prior and KKT stop tolerance."""

    lam: float = 0.05
    tol: float = 1e-8
    max_iter: int = 20000

    def __post_init__(self) -> None:
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise InputDataError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.tol <= 0 or self.max_iter < 1:
            raise InputDataError("tol must be positive and max_iter at least 1")


@dataclass
class IntervalObservations:
    """Observations of one time interval.

    Each row pairs a segment-id multiset (id -> traversal count) with the
    observed duration in seconds of traversing exactly that multiset.
    """

    interval_index: int
    rows: list[tuple[dict[int, int], float]] = field(default_factory=list)


@dataclass
class SegmentTimeEstimate:
    """Estimated travel times of one interval with observation support."""

    time: dict[int, float]
    support: dict[int, int]
    interval_index: int


def observations_from_matches(matches, grid: TimeGrid) -> dict[int, IntervalObservations]:
    """Convert matched pieces into per-interval observation rows.

    A piece whose path holds segments s_0..s_{n-1} entered s_{n-1} at a
    known instant, so the observable quantity is the duration from
    entering s_0 to entering s_{n-1}, which covers s_0..s_{n-2} exactly
    once each (with multiplicity on loops). Pieces traversing fewer than
    two segments carry no duration information and are skipped. Rows land
    in the interval containing the midpoint of their observation window.
    """
    out: dict[int, IntervalObservations] = {}
    for mp in matches:
        if len(mp.segments) < 2:
            continue
        duration = mp.entry_times[-1] - mp.entry_times[0]
        if duration <= 0.0:
            continue
        multiset = dict(Counter(mp.segments[:-1]))
        mid = 0.5 * (mp.entry_times[0] + mp.entry_times[-1])
        interval = grid.interval_of(mid)
        out.setdefault(interval, IntervalObservations(interval)).rows.append(
            (multiset, float(duration))
        )
    return out


def build_system(
    obs: IntervalObservations, net: RoadNetwork
) -> tuple[sp.csr_matrix, np.ndarray, list[int]]:
    """Stack observation rows into (A, b, column segment ids).

    A[r][s] counts how many times row r traverses column s's segment;
    columns are the segments with support, ascending by id.
    """
    columns = sorted({sid for multiset, _ in obs.rows for sid in multiset})
    col_of = {sid: j for j, sid in enumerate(columns)}
    rows_i, cols_i, vals = [], [], []
    b = []
    r = 0
    for multiset, duration in obs.rows:
        if not (duration > 0.0 and math.isfinite(duration)):
            raise InputDataError(f"observation duration must be positive, got {duration}")
        if not multiset:
            continue
        for sid, count in multiset.items():
            if sid not in col_of:
                raise InputDataError(f"observation references unknown segment {sid}")
            net.segment_index(sid)  # raises on unknown segment
            if count <= 0:
                raise InputDataError(f"traversal count must be positive, got {count}")
            rows_i.append(r)
            cols_i.append(col_of[sid])
            vals.append(float(count))
        b.append(duration)
        r += 1
    A = sp.csr_matrix((vals, (rows_i, cols_i)), shape=(r, len(columns)))
    return A, np.asarray(b, dtype=float), columns


def _spectral_norm_sq(A: sp.csr_matrix, iters: int = 200, rtol: float = 1e-12) -> float:
    """Largest eigenvalue of A^T A by fixed-start power iteration."""
    n = A.shape[1]
    if n == 0 or A.nnz == 0:
        return 0.0
    v = np.ones(n) / math.sqrt(n)
    prev = 0.0
    lam = 0.0
    for _ in range(iters):
        w = A.T @ (A @ v)
        lam = float(v @ w)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(lam - prev) <= rtol * max(lam, 1.0):
            break
        prev = lam
    return lam


def kkt_max_violation(
    A: sp.csr_matrix,
    b: np.ndarray,
    lam: float,
    prior: np.ndarray,
    lower: np.ndarray,
    x: np.ndarray,
) -> float:
    """Worst first-order optimality violation of x for the bounded program.

    For components strictly above their bound the gradient should vanish;
    at the bound it must be nonnegative. The returned value is comparable
    against tol * (1 + ||b||).
    """
    g = 2.0 * (A.T @ (A @ x - b)) + 2.0 * lam * (x - prior)
    at_bound = x - lower <= 1e-9 * np.maximum(1.0, np.abs(lower))
    viol = np.where(at_bound, np.maximum(0.0, -g), np.abs(g))
    return float(np.max(viol)) if len(viol) else 0.0


def infer_times(
    obs: IntervalObservations,
    net: RoadNetwork,
    prior: dict[int, float],
    lam: float = 0.05,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> SegmentTimeEstimate:
    """Solve the interval's bounded ridge program; see module docstring."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise InputDataError(f"lambda must be finite and >= 0, got {lam}")
    if tol <= 0:
        raise InputDataError("tol must be positive")
    prior_arr = net.times_to_array(prior)
    if not np.all(np.isfinite(prior_arr)):
        raise InputDataError("prior contains non-finite values")
    if np.any(prior_arr < net.seg_fft * (1.0 - 1e-12)):
        raise InputDataError("prior must be at least the free-flow time everywhere")

    time = {s.id: float(prior[s.id]) for s in net.segments}
    support = {s.id: 0 for s in net.segments}
    if not obs.rows:
        return SegmentTimeEstimate(time=time, support=support, interval_index=obs.interval_index)

    A, b, columns = build_system(obs, net)
    per_column_rows = np.diff(A.tocsc().indptr)
    for j, sid in enumerate(columns):
        support[sid] = int(per_column_rows[j])
    if A.shape[0] == 0:
        return SegmentTimeEstimate(time=time, support=support, interval_index=obs.interval_index)

    idx = np.array([net.segment_index(sid) for sid in columns])
    lower = net.seg_fft[idx]
    p = prior_arr[idx]

    L = 2.0 * (1.05 * _spectral_norm_sq(A) + lam)
    if L <= 0.0:
        L = 2.0 * max(lam, 1.0)

    def objective(v: np.ndarray) -> float:
        r = A @ v - b
        d = v - p
        return float(r @ r + lam * (d @ d))

    def grad(v: np.ndarray) -> np.ndarray:
        return 2.0 * (A.T @ (A @ v - b)) + 2.0 * lam * (v - p)

    # Accelerated projected gradient with a monotone safeguard: the
    # candidate step is kept only when it does not increase the objective,
    # so f(x_k) never rises above f(prior).
    x = np.maximum(p, lower)
    y = x.copy()
    fx = objective(x)
    tk = 1.0
    threshold = tol * (1.0 + float(np.linalg.norm(b)))
    iterations = 0
    for k in range(max_iter):
        iterations = k + 1
        z = np.maximum(y - grad(y) / L, lower)
        fz = objective(z)
        if fz <= fx:
            x_new, f_new = z, fz
        else:
            x_new, f_new = x, fx
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        y = x_new + (tk / t_next) * (z - x_new) + ((tk - 1.0) / t_next) * (x_new - x)
        x, fx = x_new, f_new
        tk = t_next
        if k % 10 == 9 or k == max_iter - 1:
            if kkt_max_violation(A, b, lam, p, lower, x) <= threshold:
                break
    final_violation = kkt_max_violation(A, b, lam, p, lower, x)
    if final_violation > threshold:
        logger.warning(
            "interval %d: KKT residual %.3e above threshold %.3e after %d iterations",
            obs.interval_index, final_violation, threshold, iterations,
        )

    for j, sid in enumerate(columns):
        time[sid] = float(x[j])
    return SegmentTimeEstimate(time=time, support=support, interval_index=obs.interval_index)


def residual_sq(estimates: dict[int, float], obs: IntervalObservations, net: RoadNetwork) -> float:
    """||A x - b||^2 of an interval under given segment times."""
    if not obs.rows:
        return 0.0
    A, b, columns = build_system(obs, net)
    x = np.array([estimates[sid] for sid in columns])
    r = A @ x - b
    return float(r @ r)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


ESTIMATE_COLUMNS = (("interval", int), ("segment_id", int), ("time_s", float), ("support", int))


def write_estimates(estimates: list[SegmentTimeEstimate], path: str | os.PathLike) -> None:
    write_table(path, ESTIMATE_COLUMNS, (
        (est.interval_index, sid, est.time[sid], est.support[sid])
        for est in sorted(estimates, key=lambda e: e.interval_index)
        for sid in sorted(est.time)))


def read_estimates(path: str | os.PathLike) -> dict[int, SegmentTimeEstimate]:
    out: dict[int, SegmentTimeEstimate] = {}
    for interval, sid, t, support in read_table(path, ESTIMATE_COLUMNS):
        est = out.setdefault(interval, SegmentTimeEstimate({}, {}, interval))
        est.time[sid] = t
        est.support[sid] = support
    return out
