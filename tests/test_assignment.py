"""Traffic assignment: BPR costs, Frank-Wolfe UE/SO, the demand table."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probeflow.assignment import (
    _LINE_SEARCH_TOL,
    BprCost,
    _line_search,
    read_demand,
    solve_so,
    solve_ue,
    write_demand,
)
from probeflow.errors import InputDataError, SolverError
from probeflow.network import Node, RoadNetwork, Router, Segment, Taz

from conftest import bpr_time, make_grid_network, total_system_travel_time


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------


def test_bpr_time_values():
    assert abs(bpr_time(10.0, 1000.0, 1000.0) - 11.5) < 1e-12
    assert abs(bpr_time(10.0, 1000.0, 2000.0) - 34.0) < 1e-12
    assert bpr_time(10.0, 1000.0, 0.0) == 10.0


def test_marginal_time_matches_derivative():
    # marginal cost = d/dv of v * t(v), checked by central differences
    net = make_grid_network(2, 1, speed=10.0, capacity=1000.0)
    cost = BprCost(net)
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.uniform(10.0, 3000.0, size=net.n_segments)
        h = 1e-3
        tot_hi = (v + h) * cost.time(v + h)
        tot_lo = (v - h) * cost.time(v - h)
        numeric = (tot_hi - tot_lo) / (2 * h)
        assert np.allclose(cost.marginal_time(v), numeric, rtol=1e-6)


# ---------------------------------------------------------------------------
# Line search
# ---------------------------------------------------------------------------


def _bisection_step(cost_fn, v, direction):
    """Oracle: bisect the directional derivative to a bracket of _LINE_SEARCH_TOL."""

    def deriv(theta):
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


def _parallel_links(fft, capacity):
    """Parallel one-way links between two nodes with the given BPR inputs."""
    nodes = [Node(1, 37.75, -122.45), Node(2, 37.75, -122.44)]
    segs = [Segment(i, 1, 2, 10.0 * t, 10.0, c, "other")
            for i, (t, c) in enumerate(zip(fft, capacity))]
    return RoadNetwork(nodes, segs)


class _Counted:
    """A cost function that counts its evaluations."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, flows):
        self.calls += 1
        return self.fn(flows)


def _slope0(cost_fn, v, v_hat):
    t = cost_fn(v)
    return float(np.dot(v_hat, t)) - float(np.dot(v, t))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), marginal=st.booleans())
def test_line_search_matches_bisection_on_random_bpr(data, n, marginal):
    values = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=n, max_size=n)
    net = _parallel_links(data.draw(values(1.0, 300.0)), data.draw(values(50.0, 3000.0)))
    v = np.array(data.draw(values(0.0, 5000.0)))
    v_hat = np.array(data.draw(values(0.0, 5000.0)))
    cost = BprCost(net)
    cost_fn = cost.marginal_time if marginal else cost.time
    d = v_hat - v
    slope0 = _slope0(cost_fn, v, v_hat)
    assume(slope0 < 0.0)
    theta = _line_search(cost_fn, v, d, slope0)
    assert 0.0 <= theta <= 1.0
    # Near a flat minimum, rounding in the derivative blurs its root over
    # more than the tolerance, and any two searches may part there; compare
    # where the derivative one tolerance off the oracle's root clears that
    # rounding.
    ref = _bisection_step(cost_fn, v, d)
    noise = 1e-12 * float(np.dot(np.abs(d), cost_fn(v + ref * d)))
    g = lambda x: float(np.dot(d, cost_fn(v + x * d)))
    assume(ref == 1.0 or g(ref - _LINE_SEARCH_TOL) < -noise < noise < g(ref + _LINE_SEARCH_TOL))
    assert abs(theta - ref) <= 2 * _LINE_SEARCH_TOL


def test_line_search_takes_full_step_when_slope_at_one_is_not_positive():
    # Moving everything onto a much faster empty link lowers the objective
    # all the way: the derivative at theta = 1 is negative, so no search.
    net = _parallel_links([100.0, 10.0], [1000.0, 1000.0])
    cost_fn = BprCost(net).time
    v, v_hat = np.array([500.0, 0.0]), np.array([0.0, 500.0])
    counted = _Counted(cost_fn)
    assert _line_search(counted, v, v_hat - v, _slope0(cost_fn, v, v_hat)) == 1.0
    assert counted.calls == 1


def test_line_search_evaluation_budget():
    # Bisection to 1e-10 costs 35 evaluations; the superlinear search needs
    # far fewer on a congested instance with an interior minimum.
    net = _parallel_links([60.0, 90.0, 75.0], [800.0, 1200.0, 600.0])
    cost_fn = BprCost(net).time
    v, v_hat = np.array([1800.0, 200.0, 500.0]), np.array([0.0, 2500.0, 0.0])
    counted = _Counted(cost_fn)
    theta = _line_search(counted, v, v_hat - v, _slope0(cost_fn, v, v_hat))
    assert 0.0 < theta < 1.0
    assert counted.calls <= 15
    assert abs(theta - _bisection_step(cost_fn, v, v_hat - v)) <= 2 * _LINE_SEARCH_TOL


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
        for j in path:
            aon[net.segments[j].id] += rate
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


def test_tazs_on_shared_centroids_load_as_one():
    # TAZs 1 and 5 share corner node 0: their trips to TAZ 4 load as one
    # 500 veh/h pair, and trips between them load nothing.
    net, tazs, _ = _grid_with_tazs()
    merged = solve_ue(net, {(1, 4): 500.0}, tazs, tol=1e-5)
    split = solve_ue(net, {(1, 4): 300.0, (5, 4): 200.0, (1, 5): 50.0, (5, 1): 0.0},
                     tazs + [Taz(5, 0)], tol=1e-5)
    assert split.flow.tolist() == merged.flow.tolist()
    assert split.iterations == merged.iterations


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
