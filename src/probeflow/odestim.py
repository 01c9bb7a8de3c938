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
dimension. Log space keeps every iterate strictly positive. The step
scale is calibrated on the first gradient estimate, so a0 is the typical
log-demand movement of the first step rather than a problem-specific
constant, and no single step may move any entry by more than
max_log_step (gradient magnitudes can swing by orders of magnitude when
congestion is light, and an uncapped step would send exp(theta) out of
float range). Every fifth iterate is evaluated exactly and the best
recorded one is returned, a final equilibrium solve included; the seed
is record zero, so the result can never be worse than not estimating at
all.
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


@dataclass(frozen=True)
class SpsaParams:
    """Upper-level solver settings; defaults are calibrated for log-demand."""

    a0: float = 0.1
    c0: float = 0.1
    alpha_decay: float = 0.602
    gamma_decay: float = 0.101
    max_outer: int = 100
    mu: float = 0.01
    max_log_step: float = 0.5

    def __post_init__(self) -> None:
        if self.a0 <= 0 or self.c0 <= 0:
            raise InputDataError("a0 and c0 must be positive")
        if self.max_log_step <= 0:
            raise InputDataError("max_log_step must be positive")
        if not (0.0 < self.alpha_decay <= 1.0 and 0.0 < self.gamma_decay <= 1.0):
            raise InputDataError("decay exponents must lie in (0, 1]")
        if self.max_outer < 1:
            raise InputDataError("max_outer must be at least 1")
        if self.mu < 0:
            raise InputDataError("mu must be >= 0")


@dataclass(frozen=True)
class OdSolveParams:
    """Lower-level equilibrium settings used inside demand estimation."""

    ue_tol: float = 1e-4
    ue_max_iter: int = 500
    weight_by_support: bool = False

    def __post_init__(self) -> None:
        if self.ue_tol <= 0 or self.ue_max_iter < 1:
            raise InputDataError("ue_tol must be positive and ue_max_iter at least 1")


@dataclass(frozen=True)
class GravityParams:
    """Distance-decay seed demand settings."""

    deterrence_scale: float = 2000.0
    total_trips: float = 1000.0

    def __post_init__(self) -> None:
        if self.deterrence_scale <= 0 or self.total_trips <= 0:
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


def seed_gravity(
    net: RoadNetwork,
    tazs: list[Taz],
    deterrence_scale: float,
    total_trips: float,
) -> DemandMatrix:
    """Distance-decay seed demand: T_ij proportional to exp(-d_ij / scale).

    Diagonal entries are zero and the off-diagonal entries sum to
    total_trips. Deterministic: same inputs, same matrix.
    """
    if len(tazs) < 2:
        raise InputDataError("gravity seed needs at least 2 TAZs")
    if deterrence_scale <= 0:
        raise InputDataError("deterrence_scale must be positive")
    if total_trips <= 0:
        raise InputDataError("total_trips must be positive")
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
            weights[(a.id, b.id)] = math.exp(-d / deterrence_scale)
    total_weight = math.fsum(weights[k] for k in sorted(weights))
    return {k: total_trips * w / total_weight for k, w in weights.items()}


def upper_objective(
    assigned: AssignmentResult,
    observed: SegmentTimeEstimate,
    demand: DemandMatrix,
    seed: DemandMatrix,
    mu: float,
    weight_by_support: bool = False,
) -> float:
    """Time-fit error over observed segments plus seed regularization."""
    num = 0.0
    den = 0.0
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
    if den == 0.0:
        raise InputDataError("objective needs at least one observed segment")
    fit = num / den
    if mu == 0.0:
        return fit
    keys = sorted(set(demand) | set(seed))
    dev = math.fsum((demand.get(k, 0.0) - seed.get(k, 0.0)) ** 2 for k in keys)
    norm = math.fsum(v * v for _, v in sorted(seed.items()))
    if norm == 0.0:
        raise InputDataError("seed demand is all zero")
    return fit + mu * dev / norm


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

    def evaluate(demand: DemandMatrix) -> float:
        res = _lower_ue(net, demand, tazs, od.ue_tol, od.ue_max_iter)
        return upper_objective(res, observed, demand, seed, spsa.mu, od.weight_by_support)

    rng = np.random.default_rng(rng_seed)
    theta = np.log(np.array([seed[k] for k in keys]))
    records = [ObjectiveRecord(0, evaluate(seed))]
    best_obj, best_demand = records[0].objective, dict(seed)
    a_eff: float | None = None

    for k in range(1, spsa.max_outer + 1):
        ck = spsa.c0 / k**spsa.gamma_decay
        delta = rng.choice([-1.0, 1.0], size=len(keys))
        f_plus = evaluate(demand_of(theta + ck * delta))
        f_minus = evaluate(demand_of(theta - ck * delta))
        ghat = (f_plus - f_minus) / (2.0 * ck) * delta
        if a_eff is None:
            rms = float(np.sqrt(np.mean(ghat * ghat)))
            a_eff = spsa.a0 / max(rms, 1e-12)
        ak = a_eff / k**spsa.alpha_decay
        step = ak * ghat
        size = float(np.max(np.abs(step)))
        if size > spsa.max_log_step:
            step *= spsa.max_log_step / size
        theta = theta - step
        if k % _RECORD_EVERY == 0 or k == spsa.max_outer:
            demand = demand_of(theta)
            obj = evaluate(demand)
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


def read_objective_trace(path: str | os.PathLike) -> list[ObjectiveRecord]:
    return [ObjectiveRecord(*row) for row in read_table(path, OBJECTIVE_COLUMNS)]
