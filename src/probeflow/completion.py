"""Temporal completion of the weekly travel-time matrix.

Probe coverage leaves holes: a segment observed on Monday morning may
never be observed on Sunday night, and some intervals are never
estimated at all. Travel-time matrices are strongly correlated across
time (daily and weekly rhythms), so the missing entries are recovered by
low-rank matrix completion: iterate

    X  <-  X + 1.2 * (shrink(X) - X),    then restore observed entries,

where shrink() soft-thresholds the singular values of X by a fixed
threshold. The observed-entry projection is the last operation of every
iteration, so observed values come out of the solve bit-equal to how
they went in. The iteration stops when the relative Frobenius change
drops below 1e-4, or after 500 iterations. All entries are finally
clamped from below to their segment's free-flow time.

Rows with no observation at all cannot be anchored by data; they are
filled with the segment's free-flow time, flagged, and kept out of the
low-rank system.

This iteration is Soft-Impute (Mazumder, Hastie & Tibshirani 2010), and
each step costs one thin singular value decomposition from LAPACK
through numpy.linalg.svd. A step only forms the sum over the kept
singular pairs of (s_k - tau) times the outer product of u_k and v_k,
which flipping the signs of a pair leaves bit for bit the same, so no
sign convention is needed. Completion output is a pure function of its inputs for one numpy and
BLAS/LAPACK build.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputDataError
from .network import RoadNetwork, TimeGrid
from .params import CompletionParams
from .tables import write_table

logger = logging.getLogger(__name__)


@dataclass
class TravelTimeMatrix:
    """Per-segment, per-interval travel times with an observation mask.

    Row i belongs to segment i of ``net.segments`` (the writers take its
    id from the network); column j to grid interval j. An entry is
    trusted only where mask is true; unobserved entries are placeholders
    (zero by convention). free_flow carries each row's physical lower
    bound in seconds.
    """

    values: np.ndarray
    mask: np.ndarray
    free_flow: np.ndarray
    grid: TimeGrid

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        n, m = self.values.shape
        if self.mask.shape != (n, m):
            raise InputDataError(f"mask shape {self.mask.shape} != values shape {(n, m)}")
        self.free_flow = np.asarray(self.free_flow, dtype=float)
        if self.free_flow.shape != (n,):
            raise InputDataError("free_flow must hold one bound per row")
        if m != self.grid.interval_count:
            raise InputDataError(
                f"{m} columns != interval count {self.grid.interval_count}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InputDataError("travel-time matrix holds non-finite values")
        if not (np.all(np.isfinite(self.free_flow)) and np.all(self.free_flow > 0)):
            raise InputDataError("free-flow bounds must be finite and positive")
        low = self.values < self.free_flow[:, None]
        if np.any(low & self.mask):
            i, j = np.argwhere(low & self.mask)[0]
            raise InputDataError(
                f"observed time {self.values[i, j]} below free-flow bound "
                f"{self.free_flow[i]} (row {i}, interval {j})"
            )


@dataclass
class CompletionResult:
    """A fully observed matrix plus what the solve had to invent."""

    matrix: TravelTimeMatrix
    imputed: np.ndarray
    fallback_segments: list[int]  # rows filled with free flow
    iterations: int
    rel_change: float


def assemble_matrix(
    times_by_interval: dict[int, np.ndarray],
    net: RoadNetwork,
    grid: TimeGrid,
    support_by_interval: dict[int, np.ndarray] | None = None,
) -> TravelTimeMatrix:
    """Stack per-interval estimates into one weekly matrix.

    Every network segment gets a row; intervals absent from
    times_by_interval become fully missing columns. When support counts
    are given, entries whose support is zero (times merely carried over
    from a prior) are treated as missing too. Times are snapped up to
    the free-flow bound to absorb rounding dust from upstream averaging.
    """
    if not times_by_interval:
        raise InputDataError("no interval estimates to assemble")
    n = net.n_segments
    values = np.zeros((n, grid.interval_count))
    mask = np.zeros_like(values, dtype=bool)
    for iv in sorted(times_by_interval):
        if not 0 <= iv < grid.interval_count:
            raise InputDataError(f"interval {iv} outside the grid")
        t = np.asarray(times_by_interval[iv], dtype=float)
        if t.shape != (n,):
            raise InputDataError(f"interval {iv}: {t.shape} times for {n} segments")
        keep = np.ones(n, dtype=bool)
        if support_by_interval is not None:
            keep = np.asarray(support_by_interval.get(iv, np.zeros(n))) > 0
        bad = keep & ~np.isfinite(t)
        if np.any(bad):
            sid = net.segments[int(np.argmax(bad))].id
            raise InputDataError(f"non-finite time for segment {sid}, interval {iv}")
        values[keep, iv] = np.maximum(t[keep], net.seg_fft[keep])
        mask[keep, iv] = True
    return TravelTimeMatrix(values=values, mask=mask, free_flow=net.seg_fft, grid=grid)


# ---------------------------------------------------------------------------
# Completion
# ---------------------------------------------------------------------------


# Relaxation factor of each Soft-Impute step; above 1 it over-relaxes,
# which takes fewer iterations than the plain step 1.0 (25 against 29 on
# the seed-1 week-matrix benchmark world).
_STEP = 1.2
# Stop once an iteration moves the matrix by less than 1e-4 of its Frobenius
# norm, about a millisecond on a ten-second segment. The benchmark worlds
# stop within 25 iterations, so 500 only bounds a pathological solve.
_TOL = 1e-4
_MAX_ITER = 500


def default_threshold(values: np.ndarray, mask: np.ndarray) -> float:
    """Scale-aware shrinkage default: 0.5 * sqrt(n*m) * median(observed)."""
    n, m = values.shape
    # The median as np.median gives it, which would import numpy.ma.
    ordered = np.sort(values[mask])
    k = len(ordered) // 2
    median = ordered[k] if len(ordered) % 2 else (ordered[k - 1] + ordered[k]) / 2.0
    return 0.5 * math.sqrt(n * m) * float(median)


def complete(
    mat: TravelTimeMatrix, params: CompletionParams = CompletionParams()
) -> CompletionResult:
    """Fill every missing entry of the matrix; see the module docstring.

    svt_threshold None picks the scale heuristic of default_threshold().
    The returned matrix is fully observed; imputed marks the entries the
    solve produced (fallback rows count whole). Raising the threshold
    flattens the imputation toward fewer temporal patterns; lowering it
    trusts more of them.
    """
    observed_rows = mat.mask.any(axis=1)
    fallback = np.flatnonzero(~observed_rows).tolist()
    if fallback:
        logger.warning("%d segments have no observed interval, filled with free flow "
                       "(first rows: %s)", len(fallback),
                       ", ".join(str(i) for i in fallback[:5]))

    out = np.array(mat.values)
    out[~observed_rows] = mat.free_flow[~observed_rows, None]
    iterations = 0
    rel = 0.0

    if observed_rows.any():
        sub = out[observed_rows]
        sub_mask = mat.mask[observed_rows]
        obs_vals = sub[sub_mask]
        tau = params.svt_threshold
        if tau is None:
            tau = default_threshold(sub, sub_mask)

        x = sub.copy()
        row_means = np.array([row[keep].mean() for row, keep in zip(sub, sub_mask)])
        x[~sub_mask] = np.broadcast_to(row_means[:, None], x.shape)[~sub_mask]
        for k in range(1, _MAX_ITER + 1):
            scale = max(np.linalg.norm(x), 1e-12)
            u, s, vt = np.linalg.svd(x, full_matrices=False)
            kept = s - tau
            rank = int(np.sum(kept > 0.0))
            z = (u[:, :rank] * kept[:rank]) @ vt[:rank]
            del u, vt
            # z becomes x + _STEP * (z - x) and x its negated change, in
            # place; addition commutes and a - b = -(b - a) exactly, so
            # every value equals the one the out-of-place step gives.
            z -= x
            z *= _STEP
            z += x
            z[sub_mask] = obs_vals
            x -= z
            rel = float(np.linalg.norm(x) / scale)
            x = z
            iterations = k
            if rel < _TOL:
                break
        else:
            logger.warning(
                "completion stopped at max_iter=%d with relative change %.3e", _MAX_ITER, rel
            )
        logger.info("completion: %d iterations, relative change %.3e, tau %.6g, "
                    "%d singular values kept", iterations, rel, tau, rank)
        out[observed_rows] = np.maximum(x, mat.free_flow[observed_rows, None])

    completed = TravelTimeMatrix(
        values=out,
        mask=np.ones_like(mat.mask),
        free_flow=np.array(mat.free_flow),
        grid=mat.grid,
    )
    return CompletionResult(
        matrix=completed,
        imputed=~np.asarray(mat.mask, dtype=bool),
        fallback_segments=fallback,
        iterations=iterations,
        rel_change=rel,
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

MATRIX_COLUMNS = (("segment_id", int), ("interval", int), ("time_s", float), ("observed", int))
COMPLETED_COLUMNS = (("segment_id", int), ("interval", int), ("time_s", float), ("imputed", int))


def _matrix_columns(ids: list[int], values: np.ndarray,
                    flags: np.ndarray) -> tuple[np.ndarray, ...]:
    """(segment_id, interval, time, flag) columns, one cell per row; row i is segment ``ids[i]``."""
    n, m = values.shape
    return np.repeat(ids, m), np.tile(np.arange(m), n), values.ravel(), flags.ravel()


def write_matrix(mat: TravelTimeMatrix, path: str | os.PathLike, net: RoadNetwork) -> None:
    """Write the matrix as `segment_id,interval,time_s,observed` rows, segments ascending."""
    write_table(path, MATRIX_COLUMNS, _matrix_columns(net.segment_ids(), mat.values, mat.mask))


def write_completed(result: CompletionResult, path: str | os.PathLike, net: RoadNetwork) -> None:
    """Write a completed matrix as `segment_id,interval,time_s,imputed` rows, segments ascending."""
    write_table(path, COMPLETED_COLUMNS,
                _matrix_columns(net.segment_ids(), result.matrix.values, result.imputed))
