"""Traffic assignment: BPR costs, Frank-Wolfe UE/SO, the demand table."""

from __future__ import annotations

import math

import numpy as np
import pytest

from probeflow.assignment import (
    BprCost,
    VdfParams,
    bpr_time,
    read_demand,
    solve_so,
    solve_ue,
    total_system_travel_time,
    write_demand,
)
from probeflow.errors import InputDataError, SolverError
from probeflow.network import Node, RoadNetwork, Router, Segment, Taz

from conftest import make_grid_network


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------


def test_bpr_time_values():
    assert abs(bpr_time(10.0, 1000.0, 1000.0) - 11.5) < 1e-12
    assert abs(bpr_time(10.0, 1000.0, 2000.0) - 34.0) < 1e-12
    assert bpr_time(10.0, 1000.0, 0.0) == 10.0


def test_vdf_params_validation():
    with pytest.raises(InputDataError):
        VdfParams(alpha=-0.1)
    with pytest.raises(InputDataError):
        VdfParams(beta=0.5)


def test_marginal_time_matches_derivative():
    # marginal cost = d/dv of v * t(v), checked by central differences
    net = make_grid_network(2, 1, speed=10.0, capacity=1000.0)
    cost = BprCost(net, VdfParams())
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.uniform(10.0, 3000.0, size=net.n_segments)
        h = 1e-3
        tot_hi = (v + h) * cost.time(v + h)
        tot_lo = (v - h) * cost.time(v - h)
        numeric = (tot_hi - tot_lo) / (2 * h)
        assert np.allclose(cost.marginal_time(v), numeric, rtol=1e-6)


# ---------------------------------------------------------------------------
# Two-link congestion game with a closed-form optimum
# ---------------------------------------------------------------------------


class _PigouCost:
    """Parallel links: t0(v) = v (fully flow-dependent), t1(v) = 1."""

    def time(self, flows):
        return np.array([flows[0], 1.0])

    def marginal_time(self, flows):
        return np.array([2.0 * flows[0], 1.0])


def _pigou_net():
    nodes = [Node(1, 37.75, -122.45), Node(2, 37.75, -122.44)]
    segs = [Segment(0, 1, 2, 100.0, 10.0, 1000.0, "other"),
            Segment(1, 1, 2, 100.0, 10.0, 1000.0, "other")]
    return RoadNetwork(nodes, segs), [Taz(1, 1), Taz(2, 2)]


def test_pigou_equilibria():
    # With unit demand, equilibrium puts everything on the variable link
    # (t = 1 on both, total time 1.0); the optimum splits half and half
    # for total time 0.5*0.5 + 0.5*1 = 0.75.
    net, tazs = _pigou_net()
    demand = {(1, 2): 1.0}
    ue = solve_ue(net, demand, tazs, tol=1e-6, cost_model=_PigouCost())
    so = solve_so(net, demand, tazs, tol=1e-6, cost_model=_PigouCost())
    assert ue.converged and so.converged
    assert abs(ue.flow[0] - 1.0) < 1e-4
    assert abs(ue.flow[1] - 0.0) < 1e-4
    assert abs(total_system_travel_time(ue) - 1.0) < 1e-4
    assert abs(so.flow[0] - 0.5) < 1e-4
    assert abs(so.flow[1] - 0.5) < 1e-4
    assert abs(total_system_travel_time(so) - 0.75) < 1e-4


def test_identical_links_split_evenly():
    nodes = [Node(1, 37.75, -122.45), Node(2, 37.75, -122.44)]
    segs = [Segment(0, 1, 2, 1000.0, 10.0, 1000.0, "other"),
            Segment(1, 1, 2, 1000.0, 10.0, 1000.0, "other")]
    net = RoadNetwork(nodes, segs)
    tazs = [Taz(1, 1), Taz(2, 2)]
    res = solve_ue(net, {(1, 2): 1000.0}, tazs, tol=1e-6)
    assert res.converged
    assert abs(res.flow[0] - 500.0) < 1e-3
    assert abs(res.flow[1] - 500.0) < 1e-3
    assert res.relative_gap <= 1e-6


# ---------------------------------------------------------------------------
# Grid assignments
# ---------------------------------------------------------------------------


def _grid_with_tazs():
    net = make_grid_network(3, 3, spacing=300.0, speed=10.0, capacity=600.0)
    tazs = [Taz(1, 0), Taz(2, 2), Taz(3, 6), Taz(4, 8)]
    demand = {}
    for o in (1, 2, 3, 4):
        for d in (1, 2, 3, 4):
            if o != d:
                demand[(o, d)] = 250.0
    return net, tazs, demand


def test_reported_gap_matches_returned_flows():
    net, tazs, demand = _grid_with_tazs()
    res = solve_ue(net, demand, tazs, tol=1e-3, max_iter=50)
    # Recompute the relative gap from the returned flows with public
    # pieces: cost each segment, rebuild the all-or-nothing loading, and
    # apply the definition.
    times = {s.id: bpr_time(s.free_flow_time, s.capacity, res.flow[s.id]) for s in net.segments}
    centroid = {t.id: t.centroid_node for t in tazs}
    aon = {s.id: 0.0 for s in net.segments}
    router = Router(net, np.array([times[s.id] for s in net.segments]))
    for (o, d), rate in sorted(demand.items()):
        path = router.route(net.node_index(centroid[o]), net.node_index(centroid[d]))
        for sid in path:
            aon[sid] += rate
    cur = sum(res.flow[s] * times[s] for s in sorted(times))
    best = sum(aon[s] * times[s] for s in sorted(times))
    expected_gap = (cur - best) / cur
    assert abs(expected_gap - res.relative_gap) < 1e-10
    for s in net.segments:
        assert abs(res.time[s.id] - times[s.id]) < 1e-12


def test_so_total_time_not_worse_than_ue():
    # The method's first-order gap decays like 1/k, so 1e-4 is the
    # practical tolerance; TSTT comparisons get slack on the same order.
    net, tazs, demand = _grid_with_tazs()
    ue = solve_ue(net, demand, tazs, tol=1e-4, max_iter=1000)
    so = solve_so(net, demand, tazs, tol=1e-4, max_iter=1000)
    assert ue.converged and so.converged
    tstt_ue = total_system_travel_time(ue)
    tstt_so = total_system_travel_time(so)
    assert tstt_so <= tstt_ue * (1.0 + 5e-4)


def test_assignment_deterministic():
    net, tazs, demand = _grid_with_tazs()
    a = solve_ue(net, demand, tazs, tol=1e-5)
    b = solve_ue(net, demand, tazs, tol=1e-5)
    assert a.flow.tolist() == b.flow.tolist()
    assert a.time.tolist() == b.time.tolist()
    assert a.relative_gap == b.relative_gap


def test_flow_conservation_on_grid():
    # Total vehicle-distance entering equals what the OD paths require:
    # every unit of demand appears on at least one outgoing segment of its
    # origin centroid.
    net, tazs, demand = _grid_with_tazs()
    res = solve_ue(net, demand, tazs, tol=1e-5)
    per_pair = demand[(1, 2)]
    out_of_corner = sum(res.flow[np.flatnonzero(net.seg_from == net.node_index(0))])
    assert out_of_corner >= 3 * per_pair - 1e-6
    assert all(f >= 0.0 for f in res.flow)


def test_empty_demand():
    net, tazs, _ = _grid_with_tazs()
    res = solve_ue(net, {}, tazs)
    assert res.converged and res.iterations == 0
    assert all(f == 0.0 for f in res.flow)
    for s in net.segments:
        assert res.time[s.id] == s.free_flow_time


def test_disconnected_demand_raises():
    # Two 2-node islands with no connecting segment.
    nodes = [Node(1, 0.0, 0.0), Node(2, 0.0, 0.001), Node(3, 0.5, 0.5), Node(4, 0.5, 0.501)]
    segs = [Segment(0, 1, 2, 100.0, 10.0, 1000.0, "other"),
            Segment(1, 3, 4, 100.0, 10.0, 1000.0, "other")]
    net = RoadNetwork(nodes, segs)
    tazs = [Taz(1, 1), Taz(3, 3)]
    with pytest.raises(SolverError):
        solve_ue(net, {(1, 3): 10.0}, tazs)


def test_demand_validation():
    net, tazs, _ = _grid_with_tazs()
    with pytest.raises(InputDataError):
        solve_ue(net, {(1, 99): 10.0}, tazs)
    with pytest.raises(InputDataError):
        solve_ue(net, {(1, 2): -5.0}, tazs)
    with pytest.raises(InputDataError):
        solve_ue(net, {(1, 2): math.inf}, tazs)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def test_demand_round_trip(tmp_path):
    demand = {(1, 2): 400.0, (2, 1): 123.456, (1, 3): 0.1}
    path = tmp_path / "demand.csv"
    write_demand(demand, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "origin_taz,dest_taz,trips_per_hour"
    assert lines[1] == "1,2,400.0"
    assert read_demand(path) == demand


def test_read_demand_rejects_bad_tables(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("origin_taz,dest_taz,trips_per_hour\n1,2,10\n1,2,20\n")
    with pytest.raises(InputDataError):
        read_demand(p)
    p.write_text("origin,dest,rate\n1,2,10\n")
    with pytest.raises(InputDataError):
        read_demand(p)
    p.write_text("origin_taz,dest_taz,trips_per_hour\n1,2,-10\n")
    with pytest.raises(InputDataError):
        read_demand(p)
