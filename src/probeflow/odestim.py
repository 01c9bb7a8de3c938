"""Demand estimation against probe-observed travel times.

A bi-level program closes the spatial gaps that probe coverage leaves:
the lower level is user-equilibrium assignment of a candidate TAZ demand
matrix (producing times and flows for every segment), and the upper
level adjusts the demand so the assigned times fit the observed ones,

    objective = mean over observed segments of (t_assigned - t_observed)^2
              + mu * ||demand - seed||^2 / ||seed||^2.

The upper level descends over log demand theta (demand = exp(theta)),
which keeps every entry strictly positive. With the route proportions
held at the equilibrium (Spiess 1990, Transportation Science 24(3)) the
gradient is

    df/dtheta_w = (2/W) sum_a w_a r_a t'_a(v_a) x_aw
                + 2 mu (d_w - s_w) d_w / ||s||^2,

with w_a the segment weights, W their sum, r_a the time residuals and
x_aw pair w's flow on segment a, which the equilibrium solve tracks. A
step goes along -g by the minimiser of the objective with times and
demand linearised along that line, capped so that no entry moves by
more than 0.5 in log space; a step that does not lower the objective is
halved and tried again. Each trial point costs one equilibrium solve,
and ``max_outer`` trials are the budget, so an interval makes at most
1 + max_outer solves. The search stops sooner once the decrease the
linearisation predicts for the next step is at the objective's rounding
level. Only a lower objective is accepted, so the result is never worse
than the seed, and the equilibrium returned is the one solved at the
returned demand.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assignment import AssignmentResult, BprCost, DemandMatrix, solve_ue
from .errors import InputDataError, SolverError
from .network import RoadNetwork, Taz, TimeGrid, haversine
from .tables import read_table, write_table
from .ttinfer import SegmentTimeEstimate

logger = logging.getLogger(__name__)

_EPS = float(np.finfo(float).eps)

# Gradients swing by orders of magnitude when congestion is light, and an
# uncapped step would send exp(theta) out of float range.
_MAX_LOG_STEP = 0.5


@dataclass(frozen=True)
class SpsaParams:
    """Upper-level settings: trial solves per interval and seed regularization weight.

    The class and its config section ``spsa`` keep the name of the SPSA
    solver the upper level used to run; the bench configs set them.
    """

    max_outer: int = 100
    mu: float = 0.01

    def __post_init__(self) -> None:
        if self.max_outer < 1:
            raise InputDataError("max_outer must be at least 1")
        if not (self.mu >= 0):
            raise InputDataError("mu must be >= 0")


@dataclass(frozen=True)
class OdSolveParams:
    """Lower-level equilibrium settings used inside demand estimation."""

    ue_tol: float = 1e-4
    ue_max_iter: int = 500
    weight_by_support: bool = False

    def __post_init__(self) -> None:
        if not (self.ue_tol > 0) or self.ue_max_iter < 1:
            raise InputDataError("ue_tol must be positive and ue_max_iter at least 1")


@dataclass(frozen=True)
class GravityParams:
    """Distance-decay seed demand settings."""

    deterrence_scale: float = 2000.0
    total_trips: float = 1000.0

    def __post_init__(self) -> None:
        if not (self.deterrence_scale > 0 and self.total_trips > 0):
            raise InputDataError("deterrence_scale and total_trips must be positive")


class ObjectiveRecord(NamedTuple):
    """The objective at one trial point; trial zero is the seed."""

    outer_iter: int
    objective: float


@dataclass
class OdEstimate:
    """Estimated demand with the equilibrium state it induces."""

    demand: DemandMatrix
    result: AssignmentResult
    objectives: list[ObjectiveRecord]


def seed_gravity(net: RoadNetwork, tazs: list[Taz], params: GravityParams) -> DemandMatrix:
    """Distance-decay seed demand: T_ij proportional to exp(-d_ij / deterrence_scale).

    Diagonal entries are zero and the off-diagonal entries sum to
    total_trips. Deterministic: same inputs, same matrix.
    """
    if len(tazs) < 2:
        raise InputDataError("gravity seed needs at least 2 TAZs")
    coords = {}
    for taz in tazs:
        j = net.node_index(taz.centroid_node)
        coords[taz.id] = (float(net.node_lat[j]), float(net.node_lon[j]))
    weights: dict[tuple[int, int], float] = {}
    for a in tazs:
        for b in tazs:
            if a.id == b.id:
                continue
            d = haversine(coords[a.id], coords[b.id])
            weights[(a.id, b.id)] = math.exp(-d / params.deterrence_scale)
    total_weight = math.fsum(weights[k] for k in sorted(weights))
    return {k: params.total_trips * w / total_weight for k, w in weights.items()}


def _objective(assigned, observed, demand, seed, mu, weight_by_support) -> tuple[float, float]:
    """The upper-level objective of the module docstring and its rounding level.

    The rounding level is the first-order change of the objective when
    every time and demand entry it reads moves by one unit in the last
    place: eps * sum of |d term / d input| * |input|. Two objectives
    closer than a few times this level differ by rounding alone.
    """
    num = 0.0
    den = 0.0
    level = 0.0
    # One term at a time in segment order: np.sum's pairwise summation
    # would change the last bits of the objective, and with them every
    # accepted step and every written artifact.
    for sup, t_assigned, t_observed in zip(observed.support.tolist(), assigned.time.tolist(),
                                           observed.time.tolist()):
        if sup <= 0:
            continue
        w = float(sup) if weight_by_support else 1.0
        r = t_assigned - t_observed
        num += w * r * r
        den += w
        level += 2.0 * w * abs(r) * (abs(t_assigned) + abs(t_observed))
    if den == 0.0:
        raise InputDataError("objective needs at least one observed segment")
    fit, level = num / den, _EPS * level / den
    if mu == 0.0:
        return fit, level
    keys = sorted(set(demand) | set(seed))
    dev = math.fsum((demand.get(k, 0.0) - seed.get(k, 0.0)) ** 2 for k in keys)
    norm = math.fsum(v * v for _, v in sorted(seed.items()))
    if norm == 0.0:
        raise InputDataError("seed demand is all zero")
    dev_level = math.fsum(2.0 * abs(demand.get(k, 0.0) - seed.get(k, 0.0))
                          * (abs(demand.get(k, 0.0)) + abs(seed.get(k, 0.0))) for k in keys)
    return fit + mu * dev / norm, level + _EPS * mu * dev_level / norm


def _lower_ue(net, demand, tazs, tol, max_iter) -> AssignmentResult:
    """Equilibrium solve, with per-pair flows, and one retry at a looser tolerance."""
    res = solve_ue(net, demand, tazs, tol=tol, max_iter=max_iter, od_flows=True)
    if res.converged:
        return res
    loose = 10.0 * tol
    logger.warning("equilibrium gap %.3e above %.1e; retrying at %.1e",
                   res.relative_gap, tol, loose)
    res = solve_ue(net, demand, tazs, tol=loose, max_iter=max_iter, od_flows=True)
    if not res.converged:
        raise SolverError(
            f"user equilibrium failed to converge: relative gap {res.relative_gap:.3e} "
            f"after {res.iterations} iterations at tol {loose:.1e}"
        )
    return res


def _gradient(res, observed, demand, seed, keys, mu, weight_by_support,
              slope) -> tuple[np.ndarray, float]:
    """The module docstring's gradient over ``keys`` and the curvature along it.

    ``slope`` is t'(v) at the equilibrium flows. The curvature is the
    second derivative of the objective along -g with the times and the
    demand linearised there, so (g . g) / curvature minimises that model.
    """
    observed_mask = observed.support > 0
    w = np.where(observed_mask, observed.support if weight_by_support else 1.0, 0.0)
    scale = 2.0 / float(np.sum(w))
    fit = scale * w * np.where(observed_mask, res.time - observed.time, 0.0) * slope
    rows = [res.od_flow[k] for k in keys]
    d = np.array([demand[k] for k in keys])
    reg = 2.0 * mu / math.fsum(v * v for _, v in sorted(seed.items()))
    g = np.array([float(np.dot(row, fit)) for row in rows])
    g += reg * (d - np.array([seed[k] for k in keys])) * d
    # Linearised time change per unit step along the gradient.
    dt = np.zeros(len(slope))
    for g_k, row in zip(g.tolist(), rows):
        dt += g_k * row
    dt *= slope
    return g, scale * float(np.dot(w, dt * dt)) + reg * float(np.dot(d * g, d * g))


def seed_equilibrium(net: RoadNetwork, tazs: list[Taz], seed: DemandMatrix,
                     od: OdSolveParams = OdSolveParams()) -> AssignmentResult:
    """The first solve of ``estimate_od``, which reads no observations.

    A caller that estimates many intervals from one seed solves it once
    and hands it to each ``estimate_od`` call as ``seed_state``.
    """
    return _lower_ue(net, seed, tazs, od.ue_tol, od.ue_max_iter)


def estimate_od(
    net: RoadNetwork,
    tazs: list[Taz],
    observed: SegmentTimeEstimate,
    seed: DemandMatrix,
    spsa: SpsaParams = SpsaParams(),
    od: OdSolveParams = OdSolveParams(),
    seed_state: AssignmentResult | None = None,
) -> OdEstimate:
    """Fit a demand matrix to observed travel times; see module docstring.

    Entries of ``seed`` that are zero stay zero (they are not part of the
    log-space parameterization); every positive entry is optimized.
    ``seed_state``, if given, is ``seed_equilibrium(net, tazs, seed, od)``.
    """
    if any(v < 0 for v in seed.values()):
        raise InputDataError("seed demand must be nonnegative")
    if not np.any(observed.support > 0):
        raise InputDataError("no observed segments to fit against")
    keys = sorted(k for k, v in seed.items() if v > 0)
    if not keys:
        raise InputDataError("seed demand has no positive entries")
    slope = BprCost(net).slope

    def demand_of(theta: np.ndarray) -> DemandMatrix:
        demand = dict(seed)
        demand.update(zip(keys, map(math.exp, theta.tolist())))
        return demand

    def objective(res: AssignmentResult, demand: DemandMatrix) -> tuple[float, float]:
        return _objective(res, observed, demand, seed, spsa.mu, od.weight_by_support)

    theta = np.log(np.array([seed[k] for k in keys]))
    demand = dict(seed)
    res = seed_equilibrium(net, tazs, seed, od) if seed_state is None else seed_state
    f, level = objective(res, demand)
    records = [ObjectiveRecord(0, f)]
    g = None  # the gradient at theta, once computed
    for trial in range(1, spsa.max_outer + 1):
        if g is None:
            g, curvature = _gradient(res, observed, demand, seed, keys, spsa.mu,
                                     od.weight_by_support, slope(res.flow))
            gg = float(np.dot(g, g))
            if not gg > 0.0:
                break
            cap = _MAX_LOG_STEP / float(np.max(np.abs(g)))
            step = min(gg / curvature, cap) if curvature > 0.0 else cap
        if not step * gg - 0.5 * step * step * curvature > level:
            break
        trial_theta = theta - step * g
        trial_demand = demand_of(trial_theta)
        trial_res = _lower_ue(net, trial_demand, tazs, od.ue_tol, od.ue_max_iter)
        trial_f, trial_level = objective(trial_res, trial_demand)
        records.append(ObjectiveRecord(trial, trial_f))
        if trial_f < f:
            theta, demand, res, f, level = trial_theta, trial_demand, trial_res, trial_f, trial_level
            g = None
        else:
            step *= 0.5

    logger.info("demand estimation: objective %.4g -> %.4g over %d trial solves",
                records[0].objective, f, len(records) - 1)
    return OdEstimate(demand=demand, result=res, objectives=records)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


STATES_COLUMNS = (("interval", int), ("segment_id", int), ("flow_vph", float), ("time_s", float),
                  ("voc", float))
OBJECTIVE_COLUMNS = (("interval", int), ("outer_iter", int), ("objective", float))


def write_states(states: dict[int, tuple[np.ndarray, np.ndarray]], net: RoadNetwork,
                 path: str | os.PathLike) -> None:
    """Each interval's (flow, time) arrays, and volume over capacity, as rows per segment."""
    intervals = sorted(states)
    flow = np.array([states[iv][0] for iv in intervals], dtype=float).reshape(-1)
    time = np.array([states[iv][1] for iv in intervals], dtype=float).reshape(-1)
    write_table(path, STATES_COLUMNS, (np.repeat(intervals, net.n_segments),
                                       net.segment_ids() * len(intervals), flow, time,
                                       flow / np.tile(net.seg_capacity, len(intervals))))


def read_states(path: str | os.PathLike, net: RoadNetwork,
                grid: TimeGrid) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-interval (flows, times, vocs); each interval lists every segment exactly once."""
    return net.interval_columns(str(path), grid, *read_table(path, STATES_COLUMNS))


def write_objectives(traces: dict[int, list[ObjectiveRecord]], path: str | os.PathLike) -> None:
    """Each interval's objective trace, intervals ascending."""
    rows = [(iv, *r) for iv in sorted(traces) for r in traces[iv]]
    write_table(path, OBJECTIVE_COLUMNS, [[row[k] for row in rows] for k in range(3)])
