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

Each step toward the all-or-nothing loading takes the length that zeroes
the objective's directional derivative, found by Anderson-Bjorck regula
falsi (``_line_search``).

Convergence is measured by the relative gap
(sum(v*t) - sum(v_hat*t)) / sum(v*t) with v_hat the all-or-nothing
loading under the current costs; the reported gap always describes the
returned flows.

On request (``od_flows=True``) a solve also keeps one flow row per OD
pair, updated with the same step lengths as the total: demand estimation
reads each pair's route proportions at the equilibrium from them. The
total flows are computed the same way either way.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputDataError, SolverError
from .network import RoadNetwork, Taz, _settle
from .tables import read_table, write_table

logger = logging.getLogger(__name__)

# Bracket width at which the Frank-Wolfe line search stops.
_LINE_SEARCH_TOL = 1e-10

# OD demand: (origin taz, destination taz) -> vehicles per hour.
DemandMatrix = dict[tuple[int, int], float]


# BPR curve t = t0 * (1 + alpha * (v/c)**beta) with the standard coefficients
# (Bureau of Public Roads 1964, Traffic Assignment Manual). BPR_BETA stays the
# float 4.0: numpy may evaluate an int exponent with other last bits.
BPR_ALPHA = 0.15
BPR_BETA = 4.0


class BprCost:
    """Vectorized BPR cost model over a network's segments."""

    def __init__(self, net: RoadNetwork) -> None:
        self._fft = net.seg_fft
        self._cap = net.seg_capacity

    def time(self, flows: np.ndarray) -> np.ndarray:
        return self._fft * (1.0 + BPR_ALPHA * (flows / self._cap) ** BPR_BETA)

    def marginal_time(self, flows: np.ndarray) -> np.ndarray:
        # t(v) + v * t'(v); with BPR this is t0 * (1 + alpha*(1+beta)*(v/c)**beta).
        return self._fft * (1.0 + BPR_ALPHA * (1.0 + BPR_BETA) * (flows / self._cap) ** BPR_BETA)

    def slope(self, flows: np.ndarray) -> np.ndarray:
        """t'(v) = t0 * alpha * beta * (v/c)**(beta-1) / c."""
        return self._fft * BPR_ALPHA * BPR_BETA * (flows / self._cap) ** (BPR_BETA - 1.0) / self._cap


@dataclass
class AssignmentResult:
    """Per-segment flows (veh/h) and times (s) of one assignment, with convergence data."""

    flow: np.ndarray
    time: np.ndarray
    relative_gap: float
    iterations: int
    converged: bool
    # With od_flows=True: demand key -> that pair's flow per segment (veh/h),
    # for every key of the demand; the rows sum to ``flow``.
    od_flow: dict[tuple[int, int], np.ndarray] | None = None


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

    loads = []
    for (o, d), rate in demand.items():
        if o not in centroid:
            raise InputDataError(f"demand references unknown origin TAZ {o}")
        if d not in centroid:
            raise InputDataError(f"demand references unknown destination TAZ {d}")
        if not (rate >= 0.0 and math.isfinite(rate)):
            raise InputDataError(f"demand for ({o}, {d}) must be finite and >= 0, got {rate}")
        if rate > 0.0 and centroid[o] != centroid[d]:
            loads.append((centroid[o], centroid[d], rate))

    # Sum duplicate node pairs (distinct TAZ pairs on shared centroids) in ascending rate order.
    merged: dict[tuple[int, int], float] = {}
    for src, dst, rate in sorted(loads):
        merged[src, dst] = merged.get((src, dst), 0.0) + rate
    grouped: dict[int, list[tuple[int, float]]] = {}
    for (src, dst), rate in merged.items():
        grouped.setdefault(src, []).append((dst, rate))
    return list(grouped.items())


def _all_or_nothing(
    net: RoadNetwork,
    origins: list[tuple[int, list[tuple[int, float]]]],
    costs: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Load each OD pair fully onto its minimum-cost path.

    With ``rows`` (zeroed, one row per pair in ``origins`` order), pair
    k's loading also goes into rows[k].
    """
    flows = np.zeros(net.n_segments, dtype=float)
    n, weights, seg_from = net.n_nodes, costs.tolist(), net.seg_from.tolist()
    k = 0
    for src, dests in origins:
        dist, pred = [math.inf] * n, [-1] * n
        dist[src] = 0.0
        _settle(net, weights, dist, pred, [False] * n, [(0.0, src)], [d for d, _ in dests])
        for dst, rate in dests:
            if not math.isfinite(dist[dst]):  # unreachable under any costs: bad input
                raise InputDataError(
                    f"no route from node {net.node_ids()[src]} to node {net.node_ids()[dst]}")
            v = dst
            while v != src:
                j = pred[v]
                flows[j] += rate
                v = seg_from[j]
            if rows is not None:
                v = dst
                while v != src:
                    j = pred[v]
                    rows[k, j] = rate
                    v = seg_from[j]
            k += 1
    return flows


def _line_search(cost_fn, v: np.ndarray, direction: np.ndarray, slope0: float) -> float:
    """Step length in [0, 1] zeroing the directional derivative.

    g(theta) = sum(direction * cost(v + theta*direction)) is nondecreasing
    for monotone costs, and ``slope0`` is g(0) < 0. Anderson-Bjorck regula
    falsi (Anderson & Bjorck 1973, BIT 13) on a bracket g(lo) <= 0 < g(hi):
    each trial point is the secant point; when one end is replaced twice
    running, the other end's value is scaled down so the next point crosses
    the root; an unusable secant step (an infinite end value) is a bisection;
    trial points stay half the tolerance inside the bracket, so a converged
    end is closed off by one more evaluation. Returns an exact zero, or the
    secant point once the bracket is at most ``_LINE_SEARCH_TOL`` wide.
    """

    def deriv(theta: float) -> float:
        return float(np.dot(direction, cost_fn(v + theta * direction)))

    g_hi = deriv(1.0)
    if g_hi <= 0.0:
        return 1.0
    lo, hi, g_lo = 0.0, 1.0, slope0
    replaced = 0  # end the last trial point replaced: -1 lo, 1 hi
    while True:
        step = (hi - lo) * g_lo / (g_lo - g_hi)
        theta = lo + step if 0.0 < step <= hi - lo else 0.5 * (lo + hi)
        if hi - lo <= _LINE_SEARCH_TOL:
            return theta
        theta = min(max(theta, lo + 0.5 * _LINE_SEARCH_TOL), hi - 0.5 * _LINE_SEARCH_TOL)
        g = deriv(theta)
        if g == 0.0:
            return theta
        if g > 0.0:
            if replaced == 1:
                m = 1.0 - g / g_hi
                g_lo *= m if m > 0.0 else 0.5
            hi, g_hi, replaced = theta, g, 1
        else:
            if replaced == -1:
                m = 1.0 - g / g_lo
                g_hi *= m if m > 0.0 else 0.5
            lo, g_lo, replaced = theta, g, -1


def _costs(net: RoadNetwork, cost_fn, v: np.ndarray) -> np.ndarray:
    """Link costs at flows ``v``; an overflowed cost is a solver failure, not a missing route."""
    t = np.asarray(cost_fn(v), dtype=float)
    finite = np.isfinite(t)
    if not finite.all():
        j = int(np.argmin(finite))
        raise SolverError(f"cost of segment {net.segments[j].id} is not finite at a flow of "
                          f"{v[j]:.6g} veh/h")
    return t


def _solve(
    net: RoadNetwork,
    demand: DemandMatrix,
    tazs: list[Taz],
    cost_model,
    use_marginal: bool,
    tol: float,
    max_iter: int,
    od_flows: bool = False,
) -> AssignmentResult:
    cost_fn = cost_model.marginal_time if use_marginal else cost_model.time
    origins = _group_demand(net, demand, tazs)
    v = np.zeros(net.n_segments, dtype=float)
    gap, iterations, converged = 0.0, 0, True
    rows = rows_hat = None
    if od_flows:
        shape = (sum(len(dests) for _, dests in origins), net.n_segments)
        rows, rows_hat = np.zeros(shape), np.zeros(shape)

    # Costs may overflow to inf on absurd demand: _costs reports that, and
    # the line search takes an infinite derivative for a bracket end.
    with np.errstate(over="ignore", invalid="ignore"):
        if origins:
            v = _all_or_nothing(net, origins, _costs(net, cost_fn, v), rows)
            # Measurement k gauges the flows after k - 1 updates. One
            # measurement past max_iter gauges the flows of the last update,
            # so the gap always describes the returned flows.
            for k in range(1, max_iter + 2):
                t = _costs(net, cost_fn, v)
                if rows_hat is not None:
                    rows_hat.fill(0.0)
                v_hat = _all_or_nothing(net, origins, t, rows_hat)
                total = float(np.dot(v, t))
                slope0 = float(np.dot(v_hat, t)) - total
                gap = -slope0 / total if total > 0.0 else 0.0
                converged = gap <= tol
                if converged or k > max_iter:
                    break
                theta = _line_search(cost_fn, v, v_hat - v, slope0)
                v = v + theta * (v_hat - v)
                if rows is not None:  # rows + theta * (rows_hat - rows), in place
                    rows_hat -= rows
                    rows_hat *= theta
                    rows += rows_hat
            iterations = min(k, max_iter)
        time = np.asarray(cost_model.time(v), dtype=float)

    logger.debug("%s assignment: gap=%.3e after %d iteration(s), converged=%s",
                 "SO" if use_marginal else "UE", gap, iterations, converged)
    return AssignmentResult(flow=v, time=time, relative_gap=gap, iterations=iterations,
                            converged=converged,
                            od_flow=None if rows is None
                            else _od_rows(net, demand, tazs, origins, rows))


def _od_rows(net, demand, tazs, origins, rows) -> dict[tuple[int, int], np.ndarray]:
    """Per-pair flow rows by demand key, from rows in ``origins`` order.

    A key that loads no flow gets a zero row; keys that share a node pair
    split its row in proportion to their rates.
    """
    pairs = [(src, dst, rate) for src, dests in origins for dst, rate in dests]
    index = {(src, dst): (k, rate) for k, (src, dst, rate) in enumerate(pairs)}
    centroid = {taz.id: net.node_index(taz.centroid_node) for taz in tazs}
    out = {}
    for (o, d), rate in demand.items():
        k, merged = index.get((centroid[o], centroid[d]), (0, 0.0))
        if rate == 0.0 or merged == 0.0:
            out[o, d] = np.zeros(net.n_segments)
        else:
            out[o, d] = rows[k] if rate == merged else rows[k] * (rate / merged)
    return out


def solve_ue(
    net: RoadNetwork,
    demand: DemandMatrix,
    tazs: list[Taz],
    tol: float = 1e-6,
    max_iter: int = 500,
    cost_model=None,
    od_flows: bool = False,
) -> AssignmentResult:
    """User-equilibrium assignment (Frank-Wolfe); ``od_flows`` also keeps per-pair rows."""
    model = BprCost(net) if cost_model is None else cost_model
    return _solve(net, demand, tazs, model, use_marginal=False, tol=tol, max_iter=max_iter,
                  od_flows=od_flows)


def solve_so(
    net: RoadNetwork,
    demand: DemandMatrix,
    tazs: list[Taz],
    tol: float = 1e-6,
    max_iter: int = 500,
    cost_model=None,
    od_flows: bool = False,
) -> AssignmentResult:
    """System-optimal assignment (Frank-Wolfe on marginal costs); see ``solve_ue``."""
    model = BprCost(net) if cost_model is None else cost_model
    return _solve(net, demand, tazs, model, use_marginal=True, tol=tol, max_iter=max_iter,
                  od_flows=od_flows)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


DEMAND_COLUMNS = (("origin_taz", int), ("dest_taz", int), ("trips_per_hour", float, ">= 0"))


def write_demand(demand: DemandMatrix, path: str | os.PathLike) -> None:
    pairs = sorted(demand)
    write_table(path, DEMAND_COLUMNS, ([o for o, _ in pairs], [d for _, d in pairs],
                                       [demand[pair] for pair in pairs]))


def read_demand(path: str | os.PathLike) -> DemandMatrix:
    demand: DemandMatrix = {}
    for o, d, rate in zip(*read_table(path, DEMAND_COLUMNS)):
        if (o, d) in demand:
            raise InputDataError(f"{path}: duplicate OD pair {(o, d)}")
        demand[(o, d)] = rate
    return demand
