"""Workload definitions: the input files each benchmark world starts from.

Every world is a pure function of (workload, seed). The road network and
zones are fixed per workload; the seed goes into the program's config,
which drives trip sampling, GPS noise and the SPSA perturbations, and,
for ``week-matrix``, into the low-rank truth and its observation mask.

This module uses only the standard library, so the harness can write
worlds without importing the package it measures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

M_PER_DEG_LAT = 111_320.0
LAT0, LON0 = 37.75, -122.45


@dataclass(frozen=True)
class Grid:
    """A rectangular grid with bidirectional segments between 4-neighbours."""

    nx: int
    ny: int
    spacing: float
    speed: float
    capacity: float

    @property
    def n_segments(self) -> int:
        return 2 * ((self.nx - 1) * self.ny + self.nx * (self.ny - 1))


@dataclass(frozen=True)
class Workload:
    """One benchmark world and the command it times.

    ``command`` is ``pipeline`` or ``complete``. ``config`` holds the
    program's config sections except ``seed`` and the file paths, which
    the harness fills in.
    """

    name: str
    why: str
    grid: Grid
    centroids: tuple[int, ...]
    command: str
    config: dict = field(default_factory=dict)
    # Frozen (low, high) range of each output score; wide enough that no
    # seed trips it, so only a broken output does.
    limits: dict = field(default_factory=dict)
    observed_share: float = 0.0  # week-matrix only: share of cells observed
    rank: int = 0                # week-matrix only: rank of the truth

    @property
    def interval_count(self) -> int:
        return self.config["grid"]["interval_count"]


_DAY_A = [0, 0, 0, 1, 2, 2, 1, 1, 1, 2, 1, 0]
_DAY_B = [0, 0, 0, 1, 1, 3, 1, 1, 1, 3, 1, 0]

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="metro",
        why="1,598-segment grid, 2 intervals, about 400 trips: candidate search and "
            "map matching dominate, with few large routers",
        grid=Grid(21, 20, spacing=200.0, speed=13.9, capacity=800.0),
        centroids=(0, 20, 399, 419, 220, 110, 310, 205),
        command="pipeline",
        config={
            "grid": {"interval_seconds": 302400, "interval_count": 2},
            "gravity": {"deterrence_scale": 2000.0, "total_trips": 240.0},
            "probe": {"sampling_period": 30.0, "gps_sigma": 5.0, "penetration": 0.01},
            "multipliers": [1.0],
            "schedule": [0] * 2,
            "match": {"gps_sigma": 5.0},
            "spsa": {"max_outer": 3},
            "od": {"ue_tol": 1e-3, "ue_max_iter": 300},
            "refine": {"max_iters": 2},
        },
        limits={"tt_rmse_s": (0.0, 0.25), "match_acc_pct": (80.0, 100.0),
                "od_rel_err": (0.0, 0.5)},
    ),
    Workload(
        name="week",
        why="24 segments, 84 intervals, 4 scheduled scenarios: many small routers, "
            "per-interval inference and real demand-estimation work",
        grid=Grid(3, 3, spacing=300.0, speed=10.0, capacity=150.0),
        centroids=(0, 8),
        command="pipeline",
        config={
            "grid": {"interval_seconds": 7200, "interval_count": 84},
            "gravity": {"deterrence_scale": 1000.0, "total_trips": 300.0},
            "probe": {"sampling_period": 30.0, "gps_sigma": 5.0, "penetration": 0.01},
            "multipliers": [0.4, 1.0, 1.8, 1.2],
            "schedule": (_DAY_A + _DAY_B) * 3 + _DAY_A,
            "match": {"gps_sigma": 5.0},
            "spsa": {"max_outer": 5, "mu": 0.02},
            "od": {"ue_tol": 1e-3, "ue_max_iter": 1000, "weight_by_support": True},
            "refine": {"max_iters": 2},
        },
        limits={"tt_rmse_s": (0.0, 2.0), "match_acc_pct": (75.0, 100.0),
                "od_rel_err": (0.0, 1.0)},
    ),
    Workload(
        name="week-matrix",
        why="complete on a 120 x 168 hourly matrix, rank-3 truth, 30% observed: "
            "almost all Jacobi SVD",
        grid=Grid(6, 6, spacing=200.0, speed=13.9, capacity=800.0),
        centroids=(),
        command="complete",
        config={
            "grid": {"interval_seconds": 3600, "interval_count": 168},
            "completion": {"svt_threshold": 20.0},
        },
        limits={"tt_rmse_s": (0.0, 3.0)},
        observed_share=0.3,
        rank=3,
    ),
    Workload(
        name="tiny",
        why="harness self-test only: a 3x2 grid, seconds per run",
        grid=Grid(3, 2, spacing=300.0, speed=10.0, capacity=150.0),
        centroids=(0, 5),
        command="pipeline",
        config={
            "grid": {"interval_seconds": 75600, "interval_count": 8},
            "gravity": {"deterrence_scale": 1000.0, "total_trips": 100.0},
            "probe": {"sampling_period": 30.0, "gps_sigma": 5.0, "penetration": 0.02},
            "multipliers": [0.7, 1.3],
            "schedule": [0, 0, 1, 1, -1, 0, 0, 1],
            "match": {"gps_sigma": 5.0},
            "spsa": {"max_outer": 2},
            "od": {"ue_tol": 1e-3, "ue_max_iter": 200},
            "refine": {"max_iters": 2},
        },
        limits={"tt_rmse_s": (0.0, 1.0), "match_acc_pct": (60.0, 100.0),
                "od_rel_err": (0.0, 1.0)},
    ),
)}

# Files the world directory holds before set-up, relative to it.
CONFIG_FILE = "config.json"
NETWORK_FILE = "network.json"
TAZS_FILE = "tazs.csv"


def _haversine(a: tuple[float, float], b: tuple[float, float]) -> float:
    r = 6_371_000.0
    la1, lo1, la2, lo2 = map(math.radians, (*a, *b))
    h = (math.sin((la2 - la1) / 2) ** 2
         + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2) ** 2)
    return 2.0 * r * math.asin(math.sqrt(h))


def network_doc(grid: Grid) -> dict:
    """The grid as the program's network JSON.

    Node ids are row-major; segment ids count up in scan order, the
    horizontal pair before the vertical one, forward before reverse.
    """
    dlat = grid.spacing / M_PER_DEG_LAT
    dlon = grid.spacing / (M_PER_DEG_LAT * math.cos(math.radians(LAT0)))

    def coord(ix: int, iy: int) -> tuple[float, float]:
        return LAT0 + iy * dlat, LON0 + ix * dlon

    nodes = [{"id": iy * grid.nx + ix, "lat": coord(ix, iy)[0], "lon": coord(ix, iy)[1]}
             for iy in range(grid.ny) for ix in range(grid.nx)]
    segments = []
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            a = iy * grid.nx + ix
            for bx, by in ((ix + 1, iy), (ix, iy + 1)):
                if bx >= grid.nx or by >= grid.ny:
                    continue
                b = by * grid.nx + bx
                length = _haversine(coord(ix, iy), coord(bx, by))
                for u, v in ((a, b), (b, a)):
                    segments.append({"id": len(segments), "from": u, "to": v,
                                     "length_m": length, "ffs_mps": grid.speed,
                                     "cap_vph": grid.capacity, "class": "secondary"})
    assert len(segments) == grid.n_segments
    return {"nodes": nodes, "segments": segments}


def config_doc(workload: Workload, seed: int) -> dict:
    """The program config for one world; every path is relative to its directory."""
    doc = {"seed": seed, **json.loads(json.dumps(workload.config)),
           "network": NETWORK_FILE, "out_dir": "."}
    if workload.command == "pipeline":
        doc.update(tazs=TAZS_FILE, demand="demand.csv", traces="traces.csv",
                   truth="truth_000.csv", trips="trips.csv")
    else:
        doc.update(estimates="estimates.csv")
    return doc


def write_inputs(workload: Workload, seed: int, world: Path) -> None:
    """Write the network, zones and config that set-up starts from."""
    world.mkdir(parents=True, exist_ok=True)
    (world / NETWORK_FILE).write_text(json.dumps(network_doc(workload.grid), indent=1) + "\n")
    if workload.centroids:
        rows = ["taz_id,centroid_node,name"]
        rows += [f"{i},{node},t{i}" for i, node in enumerate(workload.centroids)]
        (world / TAZS_FILE).write_text("\n".join(rows) + "\n")
    (world / CONFIG_FILE).write_text(json.dumps(config_doc(workload, seed), indent=1) + "\n")


def input_size(workload: Workload) -> dict:
    """Size of a world's fixed part, recorded with every result."""
    return {"segments": workload.grid.n_segments,
            "nodes": workload.grid.nx * workload.grid.ny,
            "intervals": workload.interval_count,
            "zones": len(workload.centroids)}
