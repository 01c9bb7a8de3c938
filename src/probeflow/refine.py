"""Iterative refinement: alternate map matching and travel-time inference.

Iteration 0 matches every trace under free-flow times (the coarse pass)
and infers per-interval travel times from the result. Each following
iteration rematches under the latest times and re-infers, with the
previous estimate as the inference prior. Two contracted monotonicities
drive the loop toward a fixed point:

* with paths held fixed, the infer step cannot leave the least-squares
  residual worse than it was under the previous times;
* with times held fixed, a fresh Viterbi pass cannot score below the
  previous iteration's paths rescored under those times.

The loop stops when a rematch changes no path, when the largest relative
time change drops under stop_tol, or at max_iters. max_iters=1 is exactly
the classical sequential pipeline (one match, one infer).
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDataError
from .mapmatch import GpsTrace, MatchedPath, MatchParams, Router, match_trace
from .network import RoadNetwork, TimeGrid
from .tables import read_table, write_table
from .ttinfer import (
    InferParams,
    SegmentTimeEstimate,
    infer_times,
    observations_from_matches,
    residual_sq,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics of one completed refinement iteration."""

    iteration: int
    residual: float
    viterbi_score: float
    changed_paths: int
    max_rel_change: float


@dataclass
class RefinementDiagnostics:
    records: list[IterationRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class RefineParams:
    """Loop budget and stop thresholds of the refinement stage.

    time_weight blends each fresh estimate with the previous one (1.0
    keeps the fresh estimate; lower values damp the update).
    """

    max_iters: int = 10
    stop_tol: float = 1e-3
    time_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise InputDataError("max_iters must be at least 1")
        if self.stop_tol <= 0:
            raise InputDataError("stop_tol must be positive")
        if not (0.0 < self.time_weight <= 1.0):
            raise InputDataError("time_weight must be in (0, 1]")


def _trace_interval(trace: GpsTrace, grid: TimeGrid) -> int:
    mid = 0.5 * (float(trace.timestamps[0]) + float(trace.timestamps[-1]))
    return grid.interval_of(mid)


def refine(
    traces: list[GpsTrace],
    net: RoadNetwork,
    grid: TimeGrid,
    match_params: MatchParams = MatchParams(),
    infer_params: InferParams = InferParams(),
    params: RefineParams = RefineParams(),
) -> tuple[list[MatchedPath], dict[int, SegmentTimeEstimate], RefinementDiagnostics]:
    """Run the refinement loop; see module docstring.

    Returns the final matched paths, the per-interval estimates, and one
    diagnostics record per iteration. Each trace is matched under the
    times of the interval containing its midpoint.
    """
    if not traces:
        raise InputDataError("refine needs at least one trace")

    fft = net.seg_fft
    times: dict[int, np.ndarray] = {}
    estimates: dict[int, SegmentTimeEstimate] = {}
    diagnostics = RefinementDiagnostics()
    prev_paths: dict[tuple[int, int], tuple[int, ...]] | None = None
    last_residual = 0.0
    pieces: list[MatchedPath] = []

    for k in range(params.max_iters):
        routers: dict[int, Router] = {}
        pieces = []
        for trace in traces:
            iv = _trace_interval(trace, grid)
            router = routers.get(iv)
            if router is None:
                router = Router(net, times.get(iv, fft))
                routers[iv] = router
            pieces.extend(match_trace(net, trace, router, match_params))

        cur_paths = {(mp.vehicle_id, mp.piece): tuple(mp.segments) for mp in pieces}
        if prev_paths is None:
            changed = len(cur_paths)
        else:
            keys = set(cur_paths) | set(prev_paths)
            changed = sum(1 for key in keys if cur_paths.get(key) != prev_paths.get(key))
        viterbi = math.fsum(mp.log_score for mp in pieces)

        if k >= 1 and changed == 0:
            # Nothing to re-infer: the paths, and therefore the system, are
            # exactly the previous iteration's.
            diagnostics.records.append(IterationRecord(k, last_residual, viterbi, 0, 0.0))
            logger.info("refinement fixed point at iteration %d", k)
            break

        by_interval = observations_from_matches(pieces, grid)
        residual = 0.0
        max_rel = 0.0
        for iv in sorted(by_interval):
            prior = times.get(iv, fft)
            est = infer_times(by_interval[iv], net, prior, infer_params)
            if params.time_weight != 1.0:
                w = params.time_weight
                est.time = w * est.time + (1.0 - w) * prior
            max_rel = max(max_rel, float(np.max(np.abs(est.time - prior) / prior)))
            estimates[iv] = est
            times[iv] = est.time
            residual += residual_sq(est.time, by_interval[iv], net)

        last_residual = residual
        diagnostics.records.append(IterationRecord(k, residual, viterbi, changed, max_rel))
        prev_paths = cur_paths
        if max_rel < params.stop_tol:
            logger.info("refinement converged at iteration %d (max change %.2e)", k, max_rel)
            break

    return pieces, estimates, diagnostics


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


DIAGNOSTICS_COLUMNS = (("iteration", int), ("residual", float), ("viterbi_score", float),
                       ("changed_paths", int), ("max_rel_change", float))


def write_diagnostics(diag: RefinementDiagnostics, path: str | os.PathLike) -> None:
    write_table(path, DIAGNOSTICS_COLUMNS, (
        (r.iteration, r.residual, r.viterbi_score, r.changed_paths, r.max_rel_change)
        for r in diag.records))


def read_diagnostics(path: str | os.PathLike) -> RefinementDiagnostics:
    return RefinementDiagnostics([IterationRecord(*row)
                                  for row in read_table(path, DIAGNOSTICS_COLUMNS)])
