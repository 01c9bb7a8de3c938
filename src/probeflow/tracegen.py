"""Synthetic benchmark generation.

Produces the three ingredients every experiment needs: ground-truth
network conditions (system-optimal assignments at a ladder of demand
levels), truth trips routed on those conditions, and noisy low-rate GPS
traces sampled from the trips, as fix tables (``mapmatch.Fixes``) from
sampling to ``traces.csv`` and back; ``read_traces`` checks the columns.

Everything here is deterministic given its rng_seed argument. Trace noise
uses one generator per vehicle (seed = rng_seed + vehicle_id) so trips
can be generated in parallel or in any order without changing output.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .assignment import AssignParams, DemandMatrix, solve_so
from .errors import InputDataError
from .mapmatch import Fixes, concat_fixes, fix_table
from .network import RoadNetwork, Router, Taz, TimeGrid, meters_per_degree, position_on_segment
from .tables import read_table, write_table

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProbeConfig:
    """How trips are probed: sampling rate, GPS noise, fleet penetration."""

    sampling_period: float = 60.0
    gps_sigma: float = 10.0
    penetration: float = 1.0

    def __post_init__(self) -> None:
        if not (self.sampling_period > 0):
            raise InputDataError("sampling_period must be positive")
        if not (self.gps_sigma >= 0):
            raise InputDataError("gps_sigma must be >= 0")
        if not (0.0 < self.penetration <= 1.0):
            raise InputDataError("penetration must be in (0, 1]")


@dataclass
class GroundTruthScenario:
    """One congestion level: per-segment times and flows from a converged assignment."""

    id: int
    demand_multiplier: float
    time: np.ndarray
    flow: np.ndarray


@dataclass
class TruthTrip:
    """A simulated vehicle journey with known per-segment entry times.

    ``path`` holds segment indices in traversal order, and
    ``entry_times[i]`` is when the vehicle enters ``path[i]``; the trip
    ends at ``arrival``. Trips read back from CSV carry only the path and
    departure (entry times are None) until rebuilt against a scenario.
    """

    vehicle_id: int
    departure: float
    path: list[int]
    entry_times: list[float] | None
    arrival: float | None = None


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


def simulate_trip(
    net: RoadNetwork,
    router: Router,
    origin: Taz,
    dest: Taz,
    scenario: GroundTruthScenario,
    departure: float,
    vehicle_id: int,
) -> TruthTrip:
    """Route one vehicle on the scenario's fastest path at its fixed times.

    ``router`` holds the scenario's times; the trips of one scenario share
    it, so each origin costs one search, grown as far as its trips reach.
    """
    path = router.route(net.node_index(origin.centroid_node), net.node_index(dest.centroid_node))
    if path is None:
        raise InputDataError(
            f"no route from TAZ {origin.id} to TAZ {dest.id} under scenario {scenario.id}"
        )
    if not path:
        raise InputDataError(f"TAZ {origin.id} and TAZ {dest.id} share a centroid; empty trip")
    return with_times(TruthTrip(vehicle_id=vehicle_id, departure=departure, path=path,
                                entry_times=None), net, scenario)


def _position_at(net: RoadNetwork, trip: TruthTrip, scenario: GroundTruthScenario,
                 t: float) -> tuple[float, float]:
    entry = trip.entry_times
    j = int(np.searchsorted(entry, t, side="right")) - 1
    j = min(max(j, 0), len(trip.path) - 1)
    k = trip.path[j]
    frac = (t - entry[j]) / scenario.time[k]
    frac = min(max(frac, 0.0), 1.0)
    return position_on_segment(net, k, frac * net.seg_length[k])


def sample_trace(
    trip: TruthTrip,
    net: RoadNetwork,
    scenario: GroundTruthScenario,
    cfg: ProbeConfig,
    rng_seed: int = 0,
) -> Fixes:
    """Sample the trip at the probe period (plus the arrival instant), as a one-vehicle table.

    The position at each sample time is exact on the trip's path; noise is
    isotropic Gaussian with std gps_sigma meters, converted to degrees at
    the true position. The noise generator is seeded with
    rng_seed + vehicle_id, so regeneration order never matters.
    """
    if trip.entry_times is None or trip.arrival is None:
        raise InputDataError(f"trip {trip.vehicle_id} lacks entry times; rebuild it first")
    duration = trip.arrival - trip.departure
    n_whole = int(duration / cfg.sampling_period)
    ts = [trip.departure + k * cfg.sampling_period for k in range(n_whole + 1)]
    # Keep the arrival instant, avoiding a duplicate when the duration is
    # an exact multiple of the period.
    if trip.arrival - ts[-1] > 1e-9:
        ts.append(trip.arrival)
    elif len(ts) >= 2:
        ts[-1] = trip.arrival
    else:
        ts.append(trip.arrival)

    rng = np.random.default_rng(rng_seed + trip.vehicle_id)
    noise = rng.standard_normal((len(ts), 2)) * cfg.gps_sigma
    lats, lons = [], []
    for (t, (nlat, nlon)) in zip(ts, noise):
        lat, lon = _position_at(net, trip, scenario, t)
        mlat, mlon = meters_per_degree(lat)
        lats.append(lat + nlat / mlat)
        lons.append(lon + nlon / mlon)
    return fix_table([trip.vehicle_id] * len(ts), ts, lats, lons)


def with_times(trip: TruthTrip, net: RoadNetwork, scenario: GroundTruthScenario) -> TruthTrip:
    """Rebuild entry times of a path-only trip against a scenario."""
    times = scenario.time[trip.path].tolist()
    entry = list(accumulate(times[:-1], initial=trip.departure))
    return TruthTrip(vehicle_id=trip.vehicle_id, departure=trip.departure, path=list(trip.path),
                     entry_times=entry, arrival=entry[-1] + times[-1])


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
) -> dict[int, tuple[list[TruthTrip], Fixes]]:
    """Simulate probed trips across the week.

    ``schedule[i]`` names the scenario active in interval i (-1 for no
    traffic). The expected probe count per OD pair and interval is
    penetration * base_rate * multiplier * interval_hours, realized by
    flooring plus one Bernoulli draw; departures are uniform within the
    interval. Vehicle ids are assigned in generation order (interval,
    then OD pair), so the whole layout is a pure function of rng_seed.

    Returns the trips and the table of their traces, by scenario id.
    """
    if len(schedule) != grid.interval_count:
        raise InputDataError(
            f"schedule length {len(schedule)} != interval count {grid.interval_count}"
        )
    by_id = {s.id: s for s in scenarios}
    for sid in schedule:
        if sid >= 0 and sid not in by_id:
            raise InputDataError(f"schedule references unknown scenario {sid}")
    taz_by_id = {t.id: t for t in tazs}
    for od in sorted(base_demand):
        for taz in od:
            if taz not in taz_by_id:
                raise InputDataError(f"demand references unknown TAZ {taz}")
    centroid = {t.id: t.centroid_node for t in tazs}
    od_pairs = sorted(
        od for od, rate in base_demand.items()
        if rate > 0 and od[0] != od[1] and centroid[od[0]] != centroid[od[1]]
    )
    routers = {s.id: Router(net, s.time) for s in scenarios}

    out: dict[int, tuple[list[TruthTrip], list[Fixes]]] = {s.id: ([], []) for s in scenarios}
    vid = 0
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
            for _ in range(n):
                dep = start + float(rng.uniform(0.0, grid.interval_seconds))
                trip = simulate_trip(net, routers[sid], taz_by_id[od[0]], taz_by_id[od[1]], scen,
                                     dep, vid)
                out[sid][0].append(trip)
                out[sid][1].append(sample_trace(trip, net, scen, cfg, rng_seed))
                vid += 1
    total = sum(len(v[0]) for v in out.values())
    logger.info("generated %d probed trip(s) across %d scenario(s)", total, len(scenarios))
    return {sid: (trips, concat_fixes(traces)) for sid, (trips, traces) in out.items()}


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _segment_path(text: str) -> list[int]:
    return [int(s) for s in text.split("/")]


TRACE_COLUMNS = (("vehicle_id", int), ("timestamp", float), ("lat", float), ("lon", float))
TRIP_COLUMNS = (("vehicle_id", int), ("departure_s", float), ("path", _segment_path))
TRUTH_COLUMNS = (("segment_id", int), ("time_s", float), ("flow_vph", float))


def write_traces(fixes: Fixes, path: str | os.PathLike) -> None:
    write_table(path, TRACE_COLUMNS, (np.repeat(fixes.vehicle, np.diff(fixes.offsets)), fixes.t,
                                      fixes.lat, fixes.lon))


def read_traces(path: str | os.PathLike) -> Fixes:
    """Every fix of the file as one table; vehicles' rows may interleave.

    Each vehicle's timestamps must be finite and strictly increasing, and
    its coordinates in range. An error names the file, the first vehicle
    (by id) that fails a check, and the first check it fails.
    """
    vids, *values = read_table(path, TRACE_COLUMNS)
    if not vids:
        raise InputDataError(f"{path}: no trace points")
    fixes = fix_table(vids, *values)
    back = np.diff(fixes.t, prepend=np.nan) <= 0.0
    back[fixes.offsets[:-1]] = False  # a vehicle's first fix
    vehicle = np.repeat(fixes.vehicle, np.diff(fixes.offsets))
    faults = [(vehicle[mask.argmax()], k, message) for k, (mask, message) in enumerate((
        (~np.isfinite(fixes.t), "non-finite timestamp"),
        (back, "timestamps must strictly increase"),
        (~((np.abs(fixes.lat) <= 90.0) & (np.abs(fixes.lon) <= 180.0)),
         "coordinate out of range or NaN"))) if mask.any()]
    if faults:
        vid, _, message = min(faults)
        raise InputDataError(f"{path}: vehicle {vid}: {message}")
    return fixes


def write_trips(trips: list[TruthTrip], path: str | os.PathLike, net: RoadNetwork) -> None:
    ids = net.segment_ids()
    trips = sorted(trips, key=lambda t: t.vehicle_id)
    write_table(path, TRIP_COLUMNS, ([trip.vehicle_id for trip in trips],
                                     [trip.departure for trip in trips],
                                     ["/".join(str(ids[j]) for j in trip.path) for trip in trips]))


def read_trips(path: str | os.PathLike, net: RoadNetwork) -> list[TruthTrip]:
    """Read trips; entry times are not stored, rebuild with ``with_times``."""
    return [TruthTrip(vehicle_id=vid, departure=departure,
                      path=net.segment_indices(str(path), seg_path), entry_times=None)
            for vid, departure, seg_path in zip(*read_table(path, TRIP_COLUMNS))]


def write_truth(scenario: GroundTruthScenario, net: RoadNetwork, path: str | os.PathLike) -> None:
    write_table(path, TRUTH_COLUMNS, (net.segment_ids(), scenario.time, scenario.flow))


def read_truth(path: str | os.PathLike, net: RoadNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment (times, flows); the file must list every segment exactly once, times > 0."""
    times, flows = net.segment_columns(str(path), *read_table(path, TRUTH_COLUMNS))
    if np.any(times <= 0.0):
        k = int(np.argmax(times <= 0.0))
        raise InputDataError(f"{path}: segment {net.segments[k].id} has time_s {times[k]}, not > 0")
    return times, flows
