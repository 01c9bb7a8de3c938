"""Segment and node ids are labels, not array positions.

Every fixture network numbers its segments and nodes 0, 1, 2, ..., so a
lookup that confuses an id with an index passes on all of them. Here the
same jittered grid is built twice, once with its ids relabeled by an
increasing map, and the whole chain must produce bit-equal arrays and
tables equal up to that relabeling.
"""

from __future__ import annotations

import csv

import numpy as np

from probeflow.assignment import AssignParams
from probeflow.completion import (
    CompletionParams,
    assemble_matrix,
    complete,
    write_completed,
    write_matrix,
)
from probeflow.evaluation import mse, voc_series
from probeflow.mapmatch import MatchParams, read_matched, write_matched
from probeflow.network import Node, RoadNetwork, Segment, Taz, TimeGrid
from probeflow.odestim import (
    GravityParams,
    OdSolveParams,
    SpsaParams,
    estimate_od,
    seed_gravity,
    write_states,
)
from probeflow.refine import RefineParams, refine
from probeflow.tracegen import (
    ProbeConfig,
    gen_scenarios,
    generate_probe_data,
    read_trips,
    write_trips,
    write_truth,
)
from probeflow.ttinfer import write_estimates

from conftest import make_grid_network, piece_list

GRID = TimeGrid(interval_seconds=75600, interval_count=8)


def seg_label(sid: int) -> int:
    return 1000 + 5 * sid


def node_label(nid: int) -> int:
    return 100 + 3 * nid


def relabeled(net: RoadNetwork) -> RoadNetwork:
    return RoadNetwork(
        [Node(node_label(n.id), n.lat, n.lon) for n in net.nodes.values()],
        [Segment(seg_label(s.id), node_label(s.from_node), node_label(s.to_node), s.length,
                 s.free_flow_speed, s.capacity, s.road_class) for s in net.segments])


def run_chain(net: RoadNetwork, centroids: list[int], out) -> dict:
    """gen-scenarios through completion and scoring, writing each table to out."""
    out.mkdir()
    tazs = [Taz(id=i, centroid_node=n) for i, n in enumerate(centroids)]
    demand = seed_gravity(net, tazs, GravityParams(1000.0, 400.0))
    scen = gen_scenarios(net, demand, [2.0], tazs, AssignParams(tol=1e-5, max_iter=2000))[0]
    probe = ProbeConfig(sampling_period=30.0, gps_sigma=5.0, penetration=0.01)
    trips, traces = generate_probe_data(net, tazs, demand, [scen], [0, 0, 0, -1, -1, -1, -1, -1],
                                        GRID, probe, rng_seed=4319)[0]
    pieces, est, diag = refine(traces, net, GRID, MatchParams(gps_sigma=5.0),
                               params=RefineParams(max_iters=2))
    iv = min(est)
    od = estimate_od(net, tazs, est[iv], demand, SpsaParams(max_outer=5),
                     OdSolveParams(ue_tol=1e-3, ue_max_iter=1000))
    mat = assemble_matrix({k: e.time for k, e in est.items()}, net, GRID,
                          support_by_interval={k: e.support for k, e in est.items()})
    done = complete(mat, CompletionParams(svt_threshold=5.0))

    write_truth(scen, net, out / "truth.csv")
    write_matched(pieces, out / "matched.csv", net)
    write_trips(trips, out / "trips.csv", net)
    write_estimates([est[k] for k in sorted(est)], out / "estimates.csv", net)
    write_states({iv: (od.result.flow, od.result.time)}, net, out / "states.csv")
    write_matrix(mat, out / "matrix.csv", net)
    write_completed(done, out / "completed.csv", net)
    # The readers map the ids back onto the indices held in memory.
    assert [mp.segments for mp in piece_list(read_matched(out / "matched.csv", net))] == [
        mp.segments for mp in piece_list(pieces)]
    assert [trip.path for trip in read_trips(out / "trips.csv", net)] == [
        trip.path for trip in trips]
    return {
        "truth": (scen.time, scen.flow),
        "traces": list(traces),
        "paths": [trip.path for trip in trips],
        "estimates": [(k, est[k].time, est[k].support) for k in sorted(est)],
        "diagnostics": diag.records,
        "demand": od.demand,
        "state": (od.result.flow, od.result.time),
        "completed": done.matrix.values,
        "mse": mse(est[iv].time, scen.time),
        "voc": voc_series({iv: od.result.flow}, net, GRID),
    }


def rows(path, id_column: int, relabel=lambda sid: sid) -> list[list[str]]:
    """The table's rows with each id of ``id_column`` (one id, or ids joined by "/") relabeled."""
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    for row in table[1:]:
        row[id_column] = "/".join(str(relabel(int(sid))) for sid in row[id_column].split("/"))
    return table


def assert_same(a, b) -> None:
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


def test_relabeled_ids_give_bit_equal_arrays_and_relabeled_tables(tmp_path):
    net = make_grid_network(3, 3, spacing=300.0, speed=10.0, capacity=300.0,
                            jitter=30.0, jitter_seed=2)
    other = relabeled(net)
    a = run_chain(net, [0, 8], tmp_path / "a")
    b = run_chain(other, [node_label(0), node_label(8)], tmp_path / "b")

    assert b.pop("paths") == a.pop("paths")  # segment indices on both labelings
    assert a["estimates"] and any(e[2].any() for e in a["estimates"])
    assert a.keys() == b.keys()
    for key in a:
        assert_same(a[key], b[key])

    id_columns = {"truth.csv": 0, "matched.csv": 2, "trips.csv": 2, "estimates.csv": 1,
                  "states.csv": 1, "matrix.csv": 0, "completed.csv": 0}
    for name, column in id_columns.items():
        assert rows(tmp_path / "a" / name, column, seg_label) == rows(tmp_path / "b" / name, column)
