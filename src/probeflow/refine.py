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
time change drops under stop_tol, when a pass repeats an earlier path set
(a limit cycle; see ``refine``), or at max_iters. The classical tandem
pipeline, matching once and inferring once, is this loop with
max_iters=1 and tt_tau = 0. Iteration 0 matches under free flow, as that
baseline does, so a caller that asks for it gets the baseline from the
same pass: each trace's lattice is decoded a second time with
tt_tau = 0, and those paths are inferred under the free-flow prior. That
costs one Viterbi and one infer pass instead of a second free-flow
matching pass, and the estimates equal that one-pass loop's bit for bit.
This is the only place the baseline is computed; the ``refine`` command
writes it as ``baseline.csv``.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDataError
from .mapmatch import GpsTrace, MatchedPath, MatchParams, match_traces
from .network import RoadNetwork, Router, TimeGrid
from .tables import write_table
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
    """Loop budget and stop thresholds of the refinement stage."""

    max_iters: int = 10
    stop_tol: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise InputDataError("max_iters must be at least 1")
        if not (self.stop_tol > 0):
            raise InputDataError("stop_tol must be positive")


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
    baseline: dict[int, SegmentTimeEstimate] | None = None,
) -> tuple[list[MatchedPath], dict[int, SegmentTimeEstimate], RefinementDiagnostics]:
    """Run the refinement loop; see module docstring.

    Returns the final matched paths, the per-interval estimates, and one
    diagnostics record per iteration. Each trace is matched under the
    times of the interval containing its midpoint: a pass hands every
    trace its interval's router to one ``match_traces`` call, which
    returns the pieces in trace order, so the observation rows keep the
    order a trace-by-trace pass gives. Paths are compared across passes
    by (vehicle id, piece), so vehicle ids must be distinct. When
    ``baseline`` is a dict, it receives the tandem baseline's
    per-interval estimates, decoded from iteration 0's lattices.

    A pass whose path set equals that of an earlier pass other than the
    previous one closes a limit cycle: it is inferred and recorded as
    usual, and the loop stops there, returning that pass. The result
    therefore does not depend on where ``max_iters`` cuts the cycle.
    """
    if not traces:
        raise InputDataError("refine needs at least one trace")
    if len({trace.vehicle_id for trace in traces}) < len(traces):
        raise InputDataError("refine needs one trace per vehicle id")

    fft = net.seg_fft
    times: dict[int, np.ndarray] = {}
    estimates: dict[int, SegmentTimeEstimate] = {}
    diagnostics = RefinementDiagnostics()
    seen: list[dict[tuple[int, int], tuple[int, ...]]] = []  # path set of each inferred pass
    last_residual = 0.0

    for k in range(params.max_iters):
        # Every interval without an estimate routes under free flow through
        # one shared router, so its Dijkstra trees are built once per pass.
        free_flow = Router(net, fft)
        of_interval = {iv: Router(net, t) for iv, t in times.items()}
        routers = [of_interval.get(_trace_interval(trace, grid), free_flow) for trace in traces]
        base_pieces = [] if k == 0 and baseline is not None else None
        pieces = []  # the last pass's pieces are freed before this pass matches
        pieces = match_traces(net, traces, routers, match_params, base_pieces)
        if base_pieces is not None:
            base_obs = observations_from_matches(base_pieces, grid)
            for iv in sorted(base_obs):
                baseline[iv] = infer_times(base_obs[iv], net, fft, infer_params)
            del base_pieces, base_obs  # the later passes need neither

        cur_paths = {(mp.vehicle_id, mp.piece): tuple(mp.segments) for mp in pieces}
        prev_paths = seen[-1] if seen else {}
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
            max_rel = max(max_rel, float(np.max(np.abs(est.time - prior) / prior)))
            estimates[iv] = est
            times[iv] = est.time
            residual += residual_sq(est.time, by_interval[iv], net)

        last_residual = residual
        diagnostics.records.append(IterationRecord(k, residual, viterbi, changed, max_rel))
        if max_rel < params.stop_tol:
            logger.info("refinement converged at iteration %d (max change %.2e)", k, max_rel)
            break
        if cur_paths in seen[:-1]:
            logger.info("refinement repeats the paths of iteration %d at iteration %d",
                        seen.index(cur_paths), k)
            break
        seen.append(cur_paths)

    return pieces, estimates, diagnostics


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


DIAGNOSTICS_COLUMNS = (("iteration", int), ("residual", float), ("viterbi_score", float),
                       ("changed_paths", int), ("max_rel_change", float))


def write_diagnostics(diag: RefinementDiagnostics, path: str | os.PathLike) -> None:
    # The column names are the record's field names.
    write_table(path, DIAGNOSTICS_COLUMNS, [[getattr(r, name) for r in diag.records]
                                            for name, _ in DIAGNOSTICS_COLUMNS])
