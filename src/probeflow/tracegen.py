"""Synthetic benchmark generation.

Produces the three ingredients every experiment needs: ground-truth
network conditions (system-optimal assignments at a ladder of demand
levels), truth trips routed on those conditions, and noisy low-rate GPS
traces sampled from the trips. The trips are one ``mapmatch.Pieces``
table, in ``matched.csv``'s layout, and the traces one fix table
(``mapmatch.Fixes``), from sampling to ``trips.csv`` and ``traces.csv``
and back; ``read_trips`` and ``read_traces`` check the columns.

Everything here is deterministic given its rng_seed argument. Trace noise
uses one generator per vehicle (seed = rng_seed + vehicle_id) so trips
can be generated in parallel or in any order without changing output.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .assignment import DemandMatrix, solve_so
from .errors import InputDataError
from .mapmatch import Fixes, Pieces, fix_table, piece_table
from .network import M_PER_DEG_LAT, RoadNetwork, Router, Taz, TimeGrid, meters_per_degree
from .params import AssignParams, ProbeConfig
from .tables import read_table, write_table

logger = logging.getLogger(__name__)


@dataclass
class GroundTruthScenario:
    """One congestion level: per-segment times and flows from a converged assignment."""

    id: int
    demand_multiplier: float
    time: np.ndarray
    flow: np.ndarray


# ---------------------------------------------------------------------------
# Scenario and trip generation
# ---------------------------------------------------------------------------


def gen_scenarios(
    net: RoadNetwork,
    base_demand: DemandMatrix,
    multipliers: list[float],
    tazs: list[Taz],
    params: AssignParams = AssignParams(),
) -> list[GroundTruthScenario]:
    """System-optimal assignment per (positive) demand multiplier, indexed in order."""
    scenarios = []
    for i, m in enumerate(multipliers):
        scaled = {od: rate * m for od, rate in base_demand.items()}
        result = solve_so(net, scaled, tazs, tol=params.tol, max_iter=params.max_iter)
        if not result.converged:
            logger.warning("scenario %d (multiplier %.3g): assignment gap %.2e above tol",
                           i, m, result.relative_gap)
        scenarios.append(GroundTruthScenario(id=i, demand_multiplier=m,
                                             time=result.time, flow=result.flow))
    return scenarios


def probe_trips(net: RoadNetwork, vehicle: list[int], departure: list[float],
                paths: list[list[int]], times: list[np.ndarray], cfg: ProbeConfig,
                rng_seed: int = 0) -> tuple[Pieces, Fixes]:
    """Truth trips and their GPS traces, one table each.

    Vehicle ``vehicle[i]`` (ascending) leaves at ``departure[i]`` along
    the segment indices ``paths[i]`` (not empty), taking ``times[i][j]``
    seconds on segment j. It is sampled at the departure plus each whole probe
    period and at the arrival, which replaces a last period sample
    within 1e-9 s of it, unless that sample is the departure. Positions
    are exact on the path; noise is isotropic Gaussian with std
    gps_sigma meters, converted to degrees at the true position, from a
    generator seeded with rng_seed + vehicle_id, so trip order never matters.
    """
    row_time = [time[path].tolist() for path, time in zip(paths, times)]
    entry = [e for dep, t in zip(departure, row_time) for e in accumulate(t[:-1], initial=dep)]
    trips = piece_table(vehicle, [len(p) for p in paths], [math.nan] * len(paths),
                        [j for p in paths for j in p], entry)
    row_time = np.array([x for t in row_time for x in t])
    first, last = trips.bounds[:-1], trips.bounds[1:] - 1
    start, arrival = trips.entry[first], trips.entry[last] + row_time[last]
    whole = ((arrival - start) / cfg.sampling_period).astype(np.int64)
    count = whole + 1 + ((arrival - (start + whole * cfg.sampling_period) > 1e-9) | (whole == 0))
    stop = np.cumsum(count)
    trip = np.repeat(np.arange(len(count)), count)  # the trip of each fix
    t = start[trip] + (np.arange(len(trip)) - (stop - count)[trip]) * cfg.sampling_period
    t[stop - 1] = arrival
    # Each fix's noise, and the row of the segment it is on.
    noise, row = np.empty((len(t), 2)), np.empty(len(t), dtype=np.int64)
    for v, lo, hi, a, b in zip(trips.vehicle[first].tolist(), (stop - count).tolist(),
                               stop.tolist(), first.tolist(), (last + 1).tolist()):
        noise[lo:hi] = np.random.default_rng(rng_seed + v).standard_normal((hi - lo, 2))
        row[lo:hi] = a - 1 + np.searchsorted(trips.entry[a:b], t[lo:hi], side="right")
    noise *= cfg.gps_sigma
    # The point at offset frac * length along the segment's line; frac < 0 cannot occur.
    seg, frac = trips.segment[row], (t - trips.entry[row]) / row_time[row]
    f = np.clip(frac * net.seg_length[seg] / net.seg_length[seg], 0.0, 1.0)
    lat = net._seg_alat[seg] + f * (net._seg_blat[seg] - net._seg_alat[seg])
    lon = net._seg_alon[seg] + f * (net._seg_blon[seg] - net._seg_alon[seg])
    mlon = np.array([meters_per_degree(x)[1] for x in lat.tolist()])
    return trips, fix_table(trips.vehicle[first][trip], t, lat + noise[:, 0] / M_PER_DEG_LAT,
                            lon + noise[:, 1] / mlon)


# ---------------------------------------------------------------------------
# Weekly probe-data generation
# ---------------------------------------------------------------------------


def generate_probe_data(
    net: RoadNetwork,
    tazs: list[Taz],
    base_demand: DemandMatrix,
    scenarios: list[GroundTruthScenario],
    schedule: list[int],
    grid: TimeGrid,
    cfg: ProbeConfig,
    rng_seed: int = 0,
) -> tuple[Pieces, Fixes]:
    """Simulate probed trips across the week.

    ``schedule[i]`` names the scenario active in interval i (-1 for no
    traffic). The expected probe count per OD pair and interval is
    penetration * base_rate * multiplier * interval_hours, realized by
    flooring plus one Bernoulli draw; departures are uniform within the
    interval. Vehicle ids are assigned in generation order (interval,
    then OD pair), so the whole layout is a pure function of rng_seed.
    Trips take their scenario's fastest path, routed once per OD pair on
    one router per scenario; OD pairs whose zones share a centroid make
    no trips.

    Returns the truth trips and the table of their traces (``probe_trips``).
    """
    if len(schedule) != grid.interval_count:
        raise InputDataError(
            f"schedule length {len(schedule)} != interval count {grid.interval_count}"
        )
    by_id = {s.id: s for s in scenarios}
    for sid in schedule:
        if sid >= 0 and sid not in by_id:
            raise InputDataError(f"schedule references unknown scenario {sid}")
    centroid = {t.id: t.centroid_node for t in tazs}
    for od in sorted(base_demand):
        for taz in od:
            if taz not in centroid:
                raise InputDataError(f"demand references unknown TAZ {taz}")
    od_pairs = sorted(
        od for od, rate in base_demand.items()
        if rate > 0 and od[0] != od[1] and centroid[od[0]] != centroid[od[1]]
    )
    routers = {s.id: Router(net, s.time) for s in scenarios}

    routes: dict = {}  # (scenario, OD pair) -> path
    departure, paths, times = [], [], []
    hours = grid.interval_seconds / 3600.0
    for interval, sid in enumerate(schedule):
        if sid < 0:
            continue
        scen = by_id[sid]
        rng = np.random.default_rng([rng_seed, interval])
        start = interval * grid.interval_seconds
        for od in od_pairs:
            expected = cfg.penetration * base_demand[od] * scen.demand_multiplier * hours
            n = int(expected) + (1 if rng.random() < expected - int(expected) else 0)
            if n and (sid, od) not in routes:
                routes[sid, od] = routers[sid].route(*(net.node_index(centroid[taz]) for taz in od))
                if routes[sid, od] is None:
                    raise InputDataError(
                        f"no route from TAZ {od[0]} to TAZ {od[1]} under scenario {sid}")
            for _ in range(n):
                departure.append(start + float(rng.uniform(0.0, grid.interval_seconds)))
                paths.append(routes[sid, od])
                times.append(scen.time)
    logger.info("generated %d probed trip(s) across %d scenario(s)", len(paths), len(scenarios))
    return probe_trips(net, list(range(len(paths))), departure, paths, times, cfg, rng_seed)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _segment_path(text: str) -> list[int]:
    return [int(s) for s in text.split("/")]


TRACE_COLUMNS = (("vehicle_id", int), ("timestamp", float, "finite"), ("lat", float, "in [-90, 90]"),
                 ("lon", float, "in [-180, 180]"))
TRIP_COLUMNS = (("vehicle_id", int), ("departure_s", float, "finite"), ("path", _segment_path))
TRUTH_COLUMNS = (("segment_id", int), ("time_s", float, "> 0"), ("flow_vph", float, ">= 0"))


def write_traces(fixes: Fixes, path: str | os.PathLike) -> None:
    write_table(path, TRACE_COLUMNS, (np.repeat(fixes.vehicle, np.diff(fixes.offsets)), fixes.t,
                                      fixes.lat, fixes.lon))


def read_traces(path: str | os.PathLike) -> Fixes:
    """Every fix of the file as one table; vehicles' rows may interleave.

    Each vehicle's timestamps must strictly increase; an error names the lowest id whose do not.
    """
    vids, *values = read_table(path, TRACE_COLUMNS)
    if not vids:
        raise InputDataError(f"{path}: no trace points")
    fixes = fix_table(vids, *values)
    back = np.diff(fixes.t, prepend=np.nan) <= 0.0
    back[fixes.offsets[:-1]] = False  # a vehicle's first fix
    if back.any():
        vid = np.repeat(fixes.vehicle, np.diff(fixes.offsets))[back.argmax()]
        raise InputDataError(f"{path}: vehicle {vid}: timestamps must strictly increase")
    return fixes


def write_trips(trips: Pieces, path: str | os.PathLike, net: RoadNetwork) -> None:
    """One row per truth trip: its vehicle, departure (its first entry) and path of segment ids."""
    ids = np.asarray(net.segment_ids())[trips.segment].tolist()
    bounds = trips.bounds.tolist()
    write_table(path, TRIP_COLUMNS, (trips.vehicle[bounds[:-1]], trips.entry[bounds[:-1]],
                                     ["/".join(map(str, ids[a:b]))
                                      for a, b in zip(bounds, bounds[1:])]))


def read_trips(path: str | os.PathLike, net: RoadNetwork) -> Pieces:
    """Truth trips in vehicle order, one piece per vehicle; a repeated vehicle raises.

    Only the departure survives the CSV: it is each trip's first entry,
    and its other entries are nan.
    """
    rows = sorted(zip(*read_table(path, TRIP_COLUMNS)), key=lambda row: row[0])
    repeated = [vid for (vid, _, _), (next_vid, _, _) in zip(rows, rows[1:]) if vid == next_vid]
    if repeated:
        raise InputDataError(f"{path}: vehicle {repeated[0]} has more than one trip")
    return piece_table([vid for vid, _, _ in rows], [len(p) for _, _, p in rows],
                       [math.nan] * len(rows),
                       net.segment_indices(str(path), [sid for _, _, p in rows for sid in p]),
                       [e for _, dep, p in rows for e in [dep] + [math.nan] * (len(p) - 1)])


def write_truth(scenario: GroundTruthScenario, net: RoadNetwork, path: str | os.PathLike) -> None:
    write_table(path, TRUTH_COLUMNS, (net.segment_ids(), scenario.time, scenario.flow))


def read_truth(path: str | os.PathLike, net: RoadNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment (times, flows); the file must list every segment exactly once."""
    return net.segment_columns(str(path), *read_table(path, TRUTH_COLUMNS))
