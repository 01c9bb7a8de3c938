"""Iterative refinement: alternate map matching and travel-time inference.

Iteration 0 matches every vehicle of the fix table under free-flow
times (the coarse pass) and infers per-interval travel times from the
resulting piece arrays. Each following
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
from .mapmatch import Fixes, MatchParams, Pieces, match_traces
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


def _changed(cur: Pieces, prev: Pieces) -> int:
    """Pieces, by (vehicle, piece), that one pass lacks or holds on other segments than the other."""
    keys = np.hstack([np.stack((p.vehicle, p.piece))[:, p.bounds[:-1]] for p in (cur, prev)])
    key = np.unique(keys, axis=1, return_inverse=True)[1]
    n = len(cur.bounds) - 1
    both, i, j = np.intersect1d(key[:n], key[n:], assume_unique=True, return_indices=True)
    size = np.diff(cur.bounds)[i]
    keep = size == np.diff(prev.bounds)[j]  # pieces of one length, compared row by row
    i, j, size = i[keep], j[keep], size[keep]
    pair = np.repeat(np.arange(len(size)), size)
    step = np.arange(len(pair)) - np.repeat(np.cumsum(size) - size, size)
    differs = cur.segment[cur.bounds[i][pair] + step] != prev.segment[prev.bounds[j][pair] + step]
    unchanged = np.bincount(pair[differs], minlength=len(size)) == 0
    return keys.shape[1] - len(both) - int(np.count_nonzero(unchanged))


def refine(
    fixes: Fixes,
    net: RoadNetwork,
    grid: TimeGrid,
    match_params: MatchParams = MatchParams(),
    infer_params: InferParams = InferParams(),
    params: RefineParams = RefineParams(),
    baseline: dict[int, SegmentTimeEstimate] | None = None,
) -> tuple[Pieces, dict[int, SegmentTimeEstimate], RefinementDiagnostics]:
    """Run the refinement loop; see module docstring.

    Returns the final matched pieces, the per-interval estimates, and one
    diagnostics record per iteration. Each vehicle is matched under the
    times of the interval containing the midpoint of its fixes: a pass
    hands every vehicle its interval's router to one ``match_traces``
    call, which returns the pieces in vehicle order, so the observation
    rows keep the order a vehicle-by-vehicle pass gives. Passes are
    compared piece by piece on (vehicle, piece). When ``baseline`` is a
    dict, it receives the tandem baseline's per-interval estimates,
    decoded from iteration 0's lattices.

    A pass whose path set equals that of an earlier pass other than the
    previous one closes a limit cycle: it is inferred and recorded as
    usual, and the loop stops there, returning that pass. The result
    therefore does not depend on where ``max_iters`` cuts the cycle.
    """
    if not len(fixes.vehicle):
        raise InputDataError("refine needs at least one trace")

    fft = net.seg_fft
    mid = 0.5 * (fixes.t[fixes.offsets[:-1]] + fixes.t[fixes.offsets[1:] - 1])
    intervals = [grid.interval_of(t) for t in mid.tolist()]  # each vehicle's
    times: dict[int, np.ndarray] = {}
    estimates: dict[int, SegmentTimeEstimate] = {}
    diagnostics = RefinementDiagnostics()
    seen: list[Pieces] = []  # each inferred pass
    last_residual = 0.0

    for k in range(params.max_iters):
        # Every interval without an estimate routes under free flow through
        # one shared router, so its Dijkstra trees are built once per pass.
        free_flow = Router(net, fft)
        of_interval = {iv: Router(net, t) for iv, t in times.items()}
        routers = [of_interval.get(iv, free_flow) for iv in intervals]
        base_pieces = [] if k == 0 and baseline is not None else None
        pieces = match_traces(net, fixes, routers, match_params, base_pieces)
        if base_pieces is not None:
            base_obs = observations_from_matches(base_pieces[0], grid)
            for iv in sorted(base_obs):
                baseline[iv] = infer_times(base_obs[iv], net, fft, infer_params)
            del base_pieces, base_obs  # the later passes need neither

        changed = _changed(pieces, seen[-1]) if seen else len(pieces.log_score)
        viterbi = math.fsum(pieces.log_score.tolist())

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
        del by_interval  # the next pass builds its routers and lattices without these rows

        last_residual = residual
        diagnostics.records.append(IterationRecord(k, residual, viterbi, changed, max_rel))
        if max_rel < params.stop_tol:
            logger.info("refinement converged at iteration %d (max change %.2e)", k, max_rel)
            break
        repeat = next((i for i, old in enumerate(seen[:-1]) if not _changed(pieces, old)), None)
        if repeat is not None:
            logger.info("refinement repeats the paths of iteration %d at iteration %d", repeat, k)
            break
        seen.append(pieces)

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
