"""Demand estimation against probe-observed travel times.

A bi-level program closes the spatial gaps that probe coverage leaves:
the lower level is user-equilibrium assignment of a candidate TAZ demand
matrix (producing times and flows for every segment), and the upper
level adjusts the demand so the assigned times fit the observed ones,

    objective = mean over observed segments of (t_assigned - t_observed)^2
              + mu * ||demand - seed||^2 / ||seed||^2.

The upper level runs SPSA over log-demand: each outer iteration perturbs
every entry by +-c_k in log space with independent Rademacher signs and
estimates the gradient from two equilibrium solves, whatever the matrix
dimension; an iteration whose two objectives differ only at rounding
level takes no step. Log space keeps every iterate strictly positive.
The gains are a_k = a / k**0.602 and c_k = 0.1 / k**0.101, with the step
scale a calibrated on the first gradient estimate above rounding level,
and no step moves any entry by more than 0.5. Every fifth iterate is
evaluated exactly and the best recorded one is returned, a final
equilibrium solve included; the seed is record zero, so the result can
never be worse than not estimating at all.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assignment import AssignmentResult, DemandMatrix, solve_ue
from .errors import InputDataError, SolverError
from .network import RoadNetwork, Taz, haversine
from .tables import read_table, write_table
from .ttinfer import SegmentTimeEstimate

logger = logging.getLogger(__name__)

_RECORD_EVERY = 5

_EPS = float(np.finfo(float).eps)

# An SPSA difference f(theta + c*delta) - f(theta - c*delta) is signal only
# above this many times the two objectives' summed rounding levels; the
# assigned times carry a few ulps of the equilibrium solve's rounding.
_ROUNDING_MARGIN = 16.0

# SPSA gains a_k = a / k**_ALPHA_DECAY and c_k = _C0 / k**_GAMMA_DECAY with
# Spall's practical exponents (Spall 1998, IEEE TAES 34). a is set so the
# first step moves log demand by _A0 in root mean square, whatever the
# problem's gradient scale.
_A0 = 0.1
_C0 = 0.1
_ALPHA_DECAY = 0.602
_GAMMA_DECAY = 0.101
# Gradients swing by orders of magnitude when congestion is light, and an
# uncapped step would send exp(theta) out of float range.
_MAX_LOG_STEP = 0.5


@dataclass(frozen=True)
class SpsaParams:
    """Upper-level solver settings: outer iterations and seed regularization weight."""

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
    """One exactly evaluated point of the SPSA run."""

    outer_iter: int
    objective: float


@dataclass
class OdEstimate:
    """Estimated demand with the equilibrium state it induces."""

    demand: DemandMatrix
    result: AssignmentResult
    objective_trace: list[ObjectiveRecord]
    outer_iterations: int


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
    # SPSA step and every written artifact.
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
    """Equilibrium solve with one retry at a looser tolerance."""
    res = solve_ue(net, demand, tazs, tol=tol, max_iter=max_iter)
    if res.converged:
        return res
    loose = 10.0 * tol
    logger.warning("equilibrium gap %.3e above %.1e; retrying at %.1e",
                   res.relative_gap, tol, loose)
    res = solve_ue(net, demand, tazs, tol=loose, max_iter=max_iter)
    if not res.converged:
        raise SolverError(
            f"user equilibrium failed to converge: relative gap {res.relative_gap:.3e} "
            f"after {res.iterations} iterations at tol {loose:.1e}"
        )
    return res


def estimate_od(
    net: RoadNetwork,
    tazs: list[Taz],
    observed: SegmentTimeEstimate,
    seed: DemandMatrix,
    spsa: SpsaParams = SpsaParams(),
    od: OdSolveParams = OdSolveParams(),
    rng_seed: int = 0,
) -> OdEstimate:
    """Fit a demand matrix to observed travel times; see module docstring.

    Entries of ``seed`` that are zero stay zero (they are not part of the
    log-space parameterization); every positive entry is optimized.
    """
    if any(v < 0 for v in seed.values()):
        raise InputDataError("seed demand must be nonnegative")
    if not np.any(observed.support > 0):
        raise InputDataError("no observed segments to fit against")
    keys = sorted(k for k, v in seed.items() if v > 0)
    if not keys:
        raise InputDataError("seed demand has no positive entries")

    def demand_of(theta: np.ndarray) -> DemandMatrix:
        d = dict(seed)
        for key, t in zip(keys, theta):
            d[key] = float(math.exp(t))
        assert all(v >= 0 for v in d.values())
        return d

    def evaluate(demand: DemandMatrix) -> tuple[float, float]:
        res = _lower_ue(net, demand, tazs, od.ue_tol, od.ue_max_iter)
        return _objective(res, observed, demand, seed, spsa.mu, od.weight_by_support)

    rng = np.random.default_rng(rng_seed)
    theta = np.log(np.array([seed[k] for k in keys]))
    records = [ObjectiveRecord(0, evaluate(seed)[0])]
    best_obj, best_demand = records[0].objective, dict(seed)
    a_eff: float | None = None

    for k in range(1, spsa.max_outer + 1):
        ck = _C0 / k**_GAMMA_DECAY
        delta = rng.choice([-1.0, 1.0], size=len(keys))
        f_plus, level_plus = evaluate(demand_of(theta + ck * delta))
        f_minus, level_minus = evaluate(demand_of(theta - ck * delta))
        # A difference at rounding level has no direction: a step on it, or
        # a gain calibrated on it, would be set by rounding alone.
        if abs(f_plus - f_minus) > _ROUNDING_MARGIN * (level_plus + level_minus):
            ghat = (f_plus - f_minus) / (2.0 * ck) * delta
            if a_eff is None:
                rms = float(np.sqrt(np.mean(ghat * ghat)))
                a_eff = _A0 / max(rms, 1e-12)
            ak = a_eff / k**_ALPHA_DECAY
            step = ak * ghat
            size = float(np.max(np.abs(step)))
            if size > _MAX_LOG_STEP:
                step *= _MAX_LOG_STEP / size
            theta = theta - step
        if k % _RECORD_EVERY == 0 or k == spsa.max_outer:
            demand = demand_of(theta)
            obj = evaluate(demand)[0]
            records.append(ObjectiveRecord(k, obj))
            if obj < best_obj:
                best_obj, best_demand = obj, demand

    result = _lower_ue(net, best_demand, tazs, od.ue_tol, od.ue_max_iter)
    logger.info("demand estimation: objective %.4g -> %.4g over %d outer iterations",
                records[0].objective, best_obj, spsa.max_outer)
    return OdEstimate(demand=best_demand, result=result,
                      objective_trace=records, outer_iterations=spsa.max_outer)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


STATE_COLUMNS = (("segment_id", int), ("flow_vph", float), ("time_s", float), ("voc", float))
OBJECTIVE_COLUMNS = (("outer_iter", int), ("objective", float))


def write_state(result: AssignmentResult, net: RoadNetwork, path: str | os.PathLike) -> None:
    """Full-network state: flow, time, and volume-over-capacity per segment."""
    write_table(path, STATE_COLUMNS, (
        (seg.id, flow, time, flow / seg.capacity)
        for seg, flow, time in zip(net.segments, result.flow.tolist(), result.time.tolist())))


def read_state(path: str | os.PathLike,
               net: RoadNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment (flows, times, vocs); the file must list every segment exactly once."""
    return net.segment_columns(str(path), list(read_table(path, STATE_COLUMNS)))


def write_objective_trace(records: list[ObjectiveRecord], path: str | os.PathLike) -> None:
    write_table(path, OBJECTIVE_COLUMNS, records)
