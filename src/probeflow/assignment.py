"""Static traffic assignment.

Frank-Wolfe on a road network with flow-dependent link costs. Two
variants share the machinery:

* user equilibrium (UE): links costed at their travel time, so at the
  fixed point no driver can switch routes and gain
* system optimum (SO): links costed at marginal total time
  t(v) + v * t'(v), minimizing total system travel time

Costs default to the BPR volume-delay function but any model exposing
``time`` and ``marginal_time`` over a flow array works (useful for
closed-form test networks).

Convergence is measured by the relative gap
(sum(v*t) - sum(v_hat*t)) / sum(v*t) with v_hat the all-or-nothing
loading under the current costs; the reported gap always describes the
returned flows.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputDataError, SolverError
from .network import RoadNetwork, Taz, _dijkstra
from .tables import read_table, write_table

logger = logging.getLogger(__name__)

# Bisection interval width for the Frank-Wolfe line search.
_LINE_SEARCH_TOL = 1e-10

# OD demand: (origin taz, destination taz) -> vehicles per hour.
DemandMatrix = dict[tuple[int, int], float]


@dataclass(frozen=True)
class VdfParams:
    """BPR volume-delay parameters: t = t0 * (1 + alpha * (v/c)**beta)."""

    alpha: float = 0.15
    beta: float = 4.0

    def __post_init__(self) -> None:
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise InputDataError(f"alpha must be >= 0, got {self.alpha}")
        if not (self.beta >= 1.0 and math.isfinite(self.beta)):
            raise InputDataError(f"beta must be >= 1, got {self.beta}")


def bpr_time(fft: float, capacity: float, flow: float, params: VdfParams = VdfParams()) -> float:
    """Congested travel time of one link under the BPR curve."""
    return fft * (1.0 + params.alpha * (flow / capacity) ** params.beta)


class BprCost:
    """Vectorized BPR cost model over a network's segments."""

    def __init__(self, net: RoadNetwork, params: VdfParams = VdfParams()) -> None:
        self.params = params
        self._fft = net.seg_fft
        self._cap = net.seg_capacity

    def time(self, flows: np.ndarray) -> np.ndarray:
        p = self.params
        return self._fft * (1.0 + p.alpha * (flows / self._cap) ** p.beta)

    def marginal_time(self, flows: np.ndarray) -> np.ndarray:
        # t(v) + v * t'(v); with BPR this is t0 * (1 + alpha*(1+beta)*(v/c)**beta).
        p = self.params
        return self._fft * (1.0 + p.alpha * (1.0 + p.beta) * (flows / self._cap) ** p.beta)


@dataclass
class AssignmentResult:
    """Per-segment flows (veh/h) and times (s) of one assignment, with convergence data."""

    flow: np.ndarray
    time: np.ndarray
    relative_gap: float
    iterations: int
    converged: bool


def total_system_travel_time(result: AssignmentResult) -> float:
    """Sum of flow * travel time over all segments (veh-seconds per hour)."""
    return math.fsum(result.flow * result.time)


# ---------------------------------------------------------------------------
# Frank-Wolfe
# ---------------------------------------------------------------------------


def _group_demand(
    net: RoadNetwork, demand: DemandMatrix, tazs: list[Taz]
) -> list[tuple[int, list[tuple[int, float]]]]:
    """Demand keyed by origin node index: [(origin, [(dest, veh/h), ...])].

    Validates TAZ references and rates. Zero-rate pairs and pairs whose
    TAZs share a centroid node are dropped (they load no flow).
    """
    centroid: dict[int, int] = {}
    for taz in tazs:
        if taz.id in centroid:
            raise InputDataError(f"duplicate TAZ id {taz.id}")
        centroid[taz.id] = net.node_index(taz.centroid_node)

    by_origin: dict[int, list[tuple[int, float]]] = {}
    for (o, d), rate in demand.items():
        if o not in centroid:
            raise InputDataError(f"demand references unknown origin TAZ {o}")
        if d not in centroid:
            raise InputDataError(f"demand references unknown destination TAZ {d}")
        if not (rate >= 0.0 and math.isfinite(rate)):
            raise InputDataError(f"demand for ({o}, {d}) must be finite and >= 0, got {rate}")
        src, dst = centroid[o], centroid[d]
        if rate == 0.0 or src == dst:
            continue
        by_origin.setdefault(src, []).append((dst, rate))

    grouped = []
    for src in sorted(by_origin):
        pairs = sorted(by_origin[src])
        # Merge duplicate destinations (distinct TAZ pairs on shared centroids).
        merged: list[tuple[int, float]] = []
        for dst, rate in pairs:
            if merged and merged[-1][0] == dst:
                merged[-1] = (dst, merged[-1][1] + rate)
            else:
                merged.append((dst, rate))
        grouped.append((src, merged))
    return grouped


def _all_or_nothing(
    net: RoadNetwork,
    origins: list[tuple[int, list[tuple[int, float]]]],
    costs: np.ndarray,
) -> np.ndarray:
    """Load each OD pair fully onto its minimum-cost path."""
    flows = np.zeros(net.n_segments, dtype=float)
    for src, dests in origins:
        dist, pred_seg = _dijkstra(net, costs, src, targets={d for d, _ in dests})
        for dst, rate in dests:
            if not math.isfinite(dist[dst]):
                raise SolverError(
                    f"no route from node {net.node_ids()[src]} to node {net.node_ids()[dst]}"
                )
            v = dst
            while v != src:
                j = pred_seg[v]
                flows[j] += rate
                v = int(net.seg_from[j])
    return flows


def _line_search(cost_fn, v: np.ndarray, direction: np.ndarray) -> float:
    """Step length in [0, 1] zeroing the directional derivative.

    The derivative of the assignment objective along ``direction`` is
    sum(direction * cost(v + theta*direction)); it is nondecreasing in
    theta for monotone cost models, so bisection applies.
    """

    def deriv(theta: float) -> float:
        return float(np.dot(direction, cost_fn(v + theta * direction)))

    if deriv(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > _LINE_SEARCH_TOL:
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _solve(
    net: RoadNetwork,
    demand: DemandMatrix,
    tazs: list[Taz],
    cost_model,
    use_marginal: bool,
    tol: float,
    max_iter: int,
) -> AssignmentResult:
    cost_fn = cost_model.marginal_time if use_marginal else cost_model.time
    origins = _group_demand(net, demand, tazs)

    if not origins:
        zeros = np.zeros(net.n_segments, dtype=float)
        return AssignmentResult(
            flow=zeros,
            time=np.asarray(cost_model.time(zeros), dtype=float),
            relative_gap=0.0,
            iterations=0,
            converged=True,
        )

    v = _all_or_nothing(net, origins, np.asarray(cost_fn(np.zeros(net.n_segments)), dtype=float))
    gap = math.inf
    iterations = 0
    converged = False

    for k in range(1, max_iter + 1):
        t = np.asarray(cost_fn(v), dtype=float)
        v_hat = _all_or_nothing(net, origins, t)
        total = float(np.dot(v, t))
        gap = (total - float(np.dot(v_hat, t))) / total if total > 0.0 else 0.0
        iterations = k
        if gap <= tol:
            converged = True
            break
        theta = _line_search(cost_fn, v, v_hat - v)
        v = v + theta * (v_hat - v)
    else:
        # Loop exhausted after an update; re-measure the gap of the flows
        # actually returned.
        t = np.asarray(cost_fn(v), dtype=float)
        v_hat = _all_or_nothing(net, origins, t)
        total = float(np.dot(v, t))
        gap = (total - float(np.dot(v_hat, t))) / total if total > 0.0 else 0.0
        converged = gap <= tol

    logger.debug(
        "%s assignment: gap=%.3e after %d iteration(s), converged=%s",
        "SO" if use_marginal else "UE",
        gap,
        iterations,
        converged,
    )
    return AssignmentResult(
        flow=v,
        time=np.asarray(cost_model.time(v), dtype=float),
        relative_gap=gap,
        iterations=iterations,
        converged=converged,
    )


def solve_ue(
    net: RoadNetwork,
    demand: DemandMatrix,
    tazs: list[Taz],
    params: VdfParams = VdfParams(),
    tol: float = 1e-6,
    max_iter: int = 500,
    cost_model=None,
) -> AssignmentResult:
    """User-equilibrium assignment (Frank-Wolfe)."""
    model = BprCost(net, params) if cost_model is None else cost_model
    return _solve(net, demand, tazs, model, use_marginal=False, tol=tol, max_iter=max_iter)


def solve_so(
    net: RoadNetwork,
    demand: DemandMatrix,
    tazs: list[Taz],
    params: VdfParams = VdfParams(),
    tol: float = 1e-6,
    max_iter: int = 500,
    cost_model=None,
) -> AssignmentResult:
    """System-optimal assignment (Frank-Wolfe on marginal costs)."""
    model = BprCost(net, params) if cost_model is None else cost_model
    return _solve(net, demand, tazs, model, use_marginal=True, tol=tol, max_iter=max_iter)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


DEMAND_COLUMNS = (("origin_taz", int), ("dest_taz", int), ("trips_per_hour", float))


def write_demand(demand: DemandMatrix, path: str | os.PathLike) -> None:
    write_table(path, DEMAND_COLUMNS, ((o, d, demand[(o, d)]) for (o, d) in sorted(demand)))


def read_demand(path: str | os.PathLike) -> DemandMatrix:
    demand: DemandMatrix = {}
    for o, d, rate in read_table(path, DEMAND_COLUMNS):
        if (o, d) in demand:
            raise InputDataError(f"{path}: duplicate OD pair {(o, d)}")
        if not (rate >= 0.0 and math.isfinite(rate)):
            raise InputDataError(f"{path}: demand for {(o, d)} must be finite and >= 0")
        demand[(o, d)] = rate
    return demand
