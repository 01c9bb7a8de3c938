"""Demand estimation: gravity seed, upper objective, gradient descent over equilibrium."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeflow import odestim
from probeflow.assignment import AssignmentResult, solve_ue
from probeflow.errors import InputDataError, SolverError
from probeflow.network import M_PER_DEG_LAT, Node, RoadNetwork, Segment, Taz, TimeGrid
from probeflow.odestim import (
    OBJECTIVE_COLUMNS,
    ObjectiveRecord,
    OdEstimate,
    GravityParams,
    OdSolveParams,
    SpsaParams,
    estimate_od,
    read_states,
    seed_gravity,
    write_objectives,
    write_states,
)
from probeflow.tables import group_rows, read_table
from probeflow.ttinfer import SegmentTimeEstimate

from conftest import bpr_time, grid_node, make_corridor_network, make_grid_network, upper_objective


def single_route_net(capacity=1000.0):
    """One segment from A to B; equilibrium time inverts BPR exactly."""
    net = RoadNetwork(
        [Node(id=0, lat=0.0, lon=0.0), Node(id=1, lat=0.0, lon=0.01)],
        [Segment(id=0, from_node=0, to_node=1, length=1000.0, free_flow_speed=100.0,
                 capacity=capacity, road_class="primary")],
    )
    tazs = [Taz(id=0, centroid_node=0), Taz(id=1, centroid_node=1)]
    return net, tazs


def observed_everywhere(times, support: int = 1) -> SegmentTimeEstimate:
    return SegmentTimeEstimate(time=np.array(times, dtype=float),
                               support=np.full(len(times), support), interval_index=0)


# ---------------------------------------------------------------------------
# Gravity seed
# ---------------------------------------------------------------------------


def test_gravity_two_tazs_split_evenly():
    net = make_corridor_network(n_segs=1)
    tazs = [Taz(id=0, centroid_node=0), Taz(id=1, centroid_node=1)]
    demand = seed_gravity(net, tazs, GravityParams(deterrence_scale=1000.0, total_trips=100.0))
    assert set(demand) == {(0, 1), (1, 0)}
    assert abs(demand[(0, 1)] - 50.0) < 1e-9
    assert abs(demand[(1, 0)] - 50.0) < 1e-9


def test_gravity_three_equidistant_tazs():
    side = 1000.0
    dlat = side / M_PER_DEG_LAT
    nodes = [
        Node(id=0, lat=0.0, lon=0.0),
        Node(id=1, lat=0.0, lon=dlat),
        Node(id=2, lat=dlat * math.sqrt(3.0) / 2.0, lon=dlat / 2.0),
    ]
    seg = Segment(id=0, from_node=0, to_node=1, length=side, free_flow_speed=10.0,
                  capacity=100.0, road_class="other")
    net = RoadNetwork(nodes, [seg])
    tazs = [Taz(id=i, centroid_node=i) for i in range(3)]
    demand = seed_gravity(net, tazs, GravityParams(deterrence_scale=500.0, total_trips=600.0))
    assert len(demand) == 6
    for v in demand.values():
        assert abs(v - 100.0) < 1e-3
    assert abs(sum(demand.values()) - 600.0) < 1e-9


def test_gravity_kernel_ratio():
    scale = 5000.0
    dlon = scale / M_PER_DEG_LAT
    nodes = [Node(id=i, lat=0.0, lon=i * dlon) for i in range(3)]
    seg = Segment(id=0, from_node=0, to_node=1, length=scale, free_flow_speed=10.0,
                  capacity=100.0, road_class="other")
    net = RoadNetwork(nodes, [seg])
    tazs = [Taz(id=i, centroid_node=i) for i in range(3)]
    demand = seed_gravity(net, tazs, GravityParams(deterrence_scale=scale, total_trips=1000.0))
    ratio = demand[(0, 1)] / demand[(0, 2)]
    assert abs(ratio - math.e) < 1e-9


def test_gravity_validation():
    net = make_corridor_network(n_segs=1)
    tazs = [Taz(id=0, centroid_node=0), Taz(id=1, centroid_node=1)]
    with pytest.raises(InputDataError):
        seed_gravity(net, tazs[:1], GravityParams(100.0, 10.0))
    with pytest.raises(InputDataError):
        GravityParams(0.0, 10.0)
    with pytest.raises(InputDataError):
        GravityParams(100.0, 0.0)


# ---------------------------------------------------------------------------
# Upper objective
# ---------------------------------------------------------------------------


def stub_result(times) -> AssignmentResult:
    return AssignmentResult(flow=np.zeros(len(times)), time=np.array(times, dtype=float),
                            relative_gap=0.0, iterations=1, converged=True)


def test_objective_single_residual():
    observed = observed_everywhere([20.0])
    assigned = stub_result([25.0])
    seed = {(0, 1): 5.0}
    assert upper_objective(assigned, observed, seed, seed, mu=0.0) == 25.0


def test_objective_mean_of_squares():
    observed = observed_everywhere([10.0, 10.0])
    assigned = stub_result([13.0, 14.0])
    seed = {(0, 1): 5.0}
    assert upper_objective(assigned, observed, seed, seed, mu=0.0) == 12.5


def test_objective_support_weighting():
    observed = SegmentTimeEstimate(time=np.array([10.0, 10.0]), support=np.array([1, 3]),
                                   interval_index=0)
    assigned = stub_result([13.0, 14.0])
    seed = {(0, 1): 5.0}
    got = upper_objective(assigned, observed, seed, seed, mu=0.0, weight_by_support=True)
    assert abs(got - (9.0 + 3 * 16.0) / 4.0) < 1e-12


def test_objective_regularization_term():
    observed = observed_everywhere([20.0])
    assigned = stub_result([25.0])
    seed = {(0, 1): 5.0}
    demand = {(0, 1): 8.0}
    got = upper_objective(assigned, observed, demand, seed, mu=2.0)
    assert abs(got - (25.0 + 2.0 * 9.0 / 25.0)) < 1e-12


def test_objective_zero_at_perfect_fit():
    observed = observed_everywhere([20.0, 30.0])
    assigned = stub_result([20.0, 30.0])
    seed = {(0, 1): 5.0}
    assert upper_objective(assigned, observed, seed, seed, mu=0.5) == 0.0


def test_objective_requires_observed_support():
    observed = SegmentTimeEstimate(time=np.array([20.0]), support=np.array([0]),
                                   interval_index=0)
    with pytest.raises(InputDataError):
        upper_objective(stub_result([20.0]), observed, {}, {(0, 1): 1.0}, mu=0.0)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


def test_single_route_demand_recovery():
    net, tazs = single_route_net(capacity=1000.0)
    truth_flow = 1300.0
    t_star = bpr_time(net.segments[0].free_flow_time, 1000.0, truth_flow)
    observed = observed_everywhere([t_star], support=4)
    seed = {(0, 1): 1000.0}
    est = estimate_od(net, tazs, observed, seed, SpsaParams(mu=0.0))
    assert abs(est.demand[(0, 1)] - truth_flow) / truth_flow < 0.01
    assert est.result.converged
    # The search stops at rounding level, well inside the 100-trial budget.
    assert len(est.objectives) < 101


def test_seed_is_returned_when_already_optimal():
    net, tazs = single_route_net()
    seed = {(0, 1): 800.0}
    truth = solve_ue(net, seed, tazs, tol=1e-6)
    observed = observed_everywhere(truth.time)
    est = estimate_od(net, tazs, observed, seed, SpsaParams(max_outer=20))
    assert est.objectives[0] == ObjectiveRecord(0, 0.0)
    assert est.demand == seed
    assert min(r.objective for r in est.objectives) == 0.0


def _two_way_road():
    """One road as two mirror-image segments: A to B and B to A."""
    net = RoadNetwork(
        [Node(id=0, lat=0.0, lon=0.0), Node(id=1, lat=0.0, lon=0.01)],
        [Segment(id=sid, from_node=a, to_node=b, length=1000.0, free_flow_speed=20.0,
                 capacity=1000.0, road_class="primary")
         for sid, (a, b) in enumerate([(0, 1), (1, 0)])],
    )
    return net, [Taz(id=0, centroid_node=0), Taz(id=1, centroid_node=1)]


def test_a_step_that_does_not_lower_the_objective_is_halved(monkeypatch):
    """The first trial is made to look worse, so the second tries half its step."""
    net, tazs = _two_way_road()
    observed = observed_everywhere([bpr_time(50.0, 1000.0, 1300.0)] * 2)
    seed = {(0, 1): 1000.0, (1, 0): 900.0}
    objective, solved = odestim._objective, []

    def first_trial_worse(assigned, observed, demand, *args):
        value, level = objective(assigned, observed, demand, *args)
        solved.append(dict(demand))
        return (value + 1e9 if len(solved) == 2 else value), level

    monkeypatch.setattr(odestim, "_objective", first_trial_worse)
    est = estimate_od(net, tazs, observed, seed, SpsaParams(max_outer=3, mu=0.0))
    assert len(solved) == 4
    assert est.objectives[1].objective > est.objectives[0].objective
    for key in seed:
        first = math.log(solved[1][key] / seed[key])
        second = math.log(solved[2][key] / seed[key])
        assert abs(second - 0.5 * first) <= 1e-12 * abs(first)
    assert est.demand == solved[3]  # accepted from the halved point onwards


def test_search_stops_once_the_predicted_decrease_is_rounding():
    # Observed one ulp off the seed's equilibrium: the gradient is not zero,
    # but the decrease it predicts is rounding, so the seed is the only solve.
    net, tazs = _two_way_road()
    seed = {(0, 1): 1000.0, (1, 0): 1000.0}
    observed = observed_everywhere(np.nextafter(solve_ue(net, seed, tazs).time, math.inf))
    res = odestim._lower_ue(net, seed, tazs, 1e-4, 500)
    g, _ = odestim._gradient(res, observed, seed, seed, sorted(seed), 0.01, False,
                             odestim.BprCost(net).slope(res.flow))
    assert np.all(g != 0.0)
    est = estimate_od(net, tazs, observed, seed, SpsaParams(max_outer=10))
    assert len(est.objectives) == 1
    assert est.demand == seed


def _tree_world():
    """Two OD pairs on a tree, sharing the segment into the destination."""
    nodes = [Node(id=0, lat=0.0, lon=0.0), Node(id=1, lat=0.0, lon=0.01),
             Node(id=2, lat=0.0, lon=0.02), Node(id=3, lat=0.01, lon=0.01)]
    segs = [Segment(id=sid, from_node=a, to_node=b, length=1000.0, free_flow_speed=20.0,
                    capacity=cap, road_class="primary")
            for sid, (a, b, cap) in enumerate([(0, 1, 800.0), (1, 2, 1200.0), (3, 1, 600.0)])]
    tazs = [Taz(id=i, centroid_node=i) for i in (0, 2, 3)]
    return RoadNetwork(nodes, segs), tazs


@pytest.mark.parametrize("weight_by_support,mu", [(False, 0.0), (True, 0.3)])
def test_gradient_matches_finite_differences(weight_by_support, mu):
    net, tazs = _tree_world()
    seed = {(0, 2): 700.0, (3, 2): 500.0}
    observed = SegmentTimeEstimate(time=np.array([70.0, 80.0, 0.0]),
                                   support=np.array([3, 1, 0]), interval_index=0)
    keys = sorted(seed)
    theta = np.log([900.0, 450.0])

    def at(th):
        demand = dict(zip(keys, np.exp(th).tolist()))
        res = solve_ue(net, demand, tazs, tol=1e-12, max_iter=50, od_flows=True)
        assert res.converged
        return demand, res

    demand, res = at(theta)
    g, _ = odestim._gradient(res, observed, demand, seed, keys, mu, weight_by_support,
                             odestim.BprCost(net).slope(res.flow))
    h = 1e-5
    for i in range(len(keys)):
        f = []
        for sign in (1.0, -1.0):
            th = theta.copy()
            th[i] += sign * h
            d, r = at(th)
            f.append(odestim._objective(r, observed, d, seed, mu, weight_by_support)[0])
        numeric = (f[0] - f[1]) / (2.0 * h)
        assert abs(g[i] - numeric) <= 1e-6 * abs(numeric)


def test_huge_regularization_pins_demand_to_seed():
    net, tazs = single_route_net()
    t_star = bpr_time(net.segments[0].free_flow_time, 1000.0, 1300.0)
    observed = observed_everywhere([t_star])
    seed = {(0, 1): 1000.0}
    est = estimate_od(net, tazs, observed, seed, SpsaParams(mu=1e6, max_outer=50))
    assert abs(est.demand[(0, 1)] - 1000.0) / 1000.0 < 0.01


def grid_world():
    net = make_grid_network(3, 3, spacing=300.0, speed=10.0, capacity=1200.0)
    corners = [grid_node(3, 0, 0), grid_node(3, 2, 0), grid_node(3, 0, 2), grid_node(3, 2, 2)]
    tazs = [Taz(id=i, centroid_node=n) for i, n in enumerate(corners)]
    return net, tazs


def test_grid_estimation_bookkeeping():
    net, tazs = grid_world()
    seed = seed_gravity(net, tazs, GravityParams(deterrence_scale=2000.0, total_trips=300.0))
    truth = {k: 1.3 * v for k, v in seed.items()}
    truth_state = solve_ue(net, truth, tazs, tol=1e-4, max_iter=1000)
    observed = observed_everywhere(truth_state.time)
    est = estimate_od(net, tazs, observed, seed, SpsaParams(max_outer=10),
                      OdSolveParams(ue_tol=1e-3, ue_max_iter=1000))
    # One record per trial solve, the seed first.
    assert [r.outer_iter for r in est.objectives] == list(range(len(est.objectives)))
    assert len(est.objectives) <= 11
    best = min(r.objective for r in est.objectives)
    # The returned demand is the best recorded candidate, and the returned
    # equilibrium state is the one that candidate induces.
    got = upper_objective(est.result, observed, est.demand, seed, mu=SpsaParams().mu)
    assert got == best
    assert all(v >= 0.0 for v in est.demand.values())
    assert sum(1 for v in est.demand.values() if v > 0) == len(seed)
    assert len(est.result.time) == net.n_segments
    assert len(est.result.flow) == net.n_segments
    # A seed equilibrium solved beforehand stands in for the first solve.
    od = OdSolveParams(ue_tol=1e-3, ue_max_iter=1000)
    shared = estimate_od(net, tazs, observed, seed, SpsaParams(max_outer=10), od,
                         seed_state=odestim.seed_equilibrium(net, tazs, seed, od))
    assert shared.demand == est.demand
    assert shared.objectives == est.objectives
    assert shared.result.flow.tolist() == est.result.flow.tolist()


@settings(max_examples=25, deadline=None)
@given(data=st.data(), max_outer=st.integers(1, 6), mu=st.sampled_from([0.0, 0.02]),
       weight_by_support=st.booleans())
def test_estimation_contract_on_random_observations(data, max_outer, mu, weight_by_support):
    """At most 1 + max_outer solves, never worse than the seed, and the
    returned state is the equilibrium of the returned demand."""
    net, tazs = grid_world()
    seed = seed_gravity(net, tazs, GravityParams(deterrence_scale=2000.0, total_trips=1200.0))
    fft = net.seg_fft.tolist()
    times = [data.draw(st.floats(t, 3.0 * t)) for t in fft]
    support = data.draw(st.lists(st.integers(0, 3), min_size=len(fft), max_size=len(fft))
                        .filter(lambda s: any(s)))
    observed = SegmentTimeEstimate(time=np.array(times), support=np.array(support),
                                   interval_index=0)
    od = OdSolveParams(ue_tol=1e-3, ue_max_iter=1000, weight_by_support=weight_by_support)
    solves = []

    def counted(*args, **kwargs):
        solves.append(None)
        return solve_ue(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odestim, "solve_ue", counted)
        est = estimate_od(net, tazs, observed, seed, SpsaParams(max_outer=max_outer, mu=mu), od)
    assert len(solves) == len(est.objectives) <= 1 + max_outer
    best = min(r.objective for r in est.objectives)
    assert best <= est.objectives[0].objective
    assert upper_objective(est.result, observed, est.demand, seed, mu, weight_by_support) == best
    again = solve_ue(net, est.demand, tazs, tol=od.ue_tol, max_iter=od.ue_max_iter)
    assert est.result.flow.tolist() == again.flow.tolist()
    assert est.result.time.tolist() == again.time.tolist()


def test_zero_seed_entries_stay_zero():
    net, tazs = grid_world()
    seed = seed_gravity(net, tazs, GravityParams(deterrence_scale=2000.0, total_trips=300.0))
    seed[(0, 3)] = 0.0
    truth_state = solve_ue(net, seed, tazs, tol=1e-4, max_iter=1000)
    observed = observed_everywhere(truth_state.time)
    est = estimate_od(net, tazs, observed, seed, SpsaParams(max_outer=5),
                      OdSolveParams(ue_tol=1e-3, ue_max_iter=1000))
    assert est.demand[(0, 3)] == 0.0


def test_lower_level_abort_after_retry():
    # Three parallel routes: one Frank-Wolfe step moves along a line between
    # two all-or-nothing loadings and cannot reach the three-way split (with
    # two routes, that line holds the equilibrium and an exact step finds it).
    net = RoadNetwork(
        [Node(id=0, lat=0.0, lon=0.0), Node(id=1, lat=0.0, lon=0.01)],
        [Segment(id=i, from_node=0, to_node=1, length=1000.0, free_flow_speed=10.0,
                 capacity=600.0, road_class="primary") for i in range(3)],
    )
    tazs = [Taz(id=0, centroid_node=0), Taz(id=1, centroid_node=1)]
    observed = observed_everywhere([120.0, 120.0, 120.0])
    with pytest.raises(SolverError):
        estimate_od(net, tazs, observed, {(0, 1): 1500.0}, SpsaParams(max_outer=2),
                    OdSolveParams(ue_tol=1e-12, ue_max_iter=1))


def _recording_solve_ue(monkeypatch, results=None):
    """Record the tol of every lower-level solve; replay ``results`` if given."""
    tols = []

    def solve(net, demand, tazs, tol, max_iter, od_flows=False):
        tols.append(tol)
        if results is not None:
            return results[len(tols) - 1]
        return solve_ue(net, demand, tazs, tol=tol, max_iter=max_iter, od_flows=od_flows)

    monkeypatch.setattr(odestim, "solve_ue", solve)
    return tols


def test_lower_ue_retries_once_at_ten_times_tol_then_raises(monkeypatch, caplog):
    net, tazs = grid_world()
    demand = seed_gravity(net, tazs, GravityParams(deterrence_scale=2000.0, total_trips=3000.0))
    tols = _recording_solve_ue(monkeypatch)
    with pytest.raises(SolverError, match="failed to converge"):
        odestim._lower_ue(net, demand, tazs, 1e-9, 1)
    assert tols == [1e-9, 1e-8]
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "retrying at 1.0e-08" in warnings[0].getMessage()


def test_lower_ue_returns_the_converged_retry(monkeypatch, caplog):
    net, tazs = grid_world()
    flow = np.zeros(net.n_segments)
    results = [AssignmentResult(flow, flow, 1e-3, 1, False),
               AssignmentResult(flow, flow, 1e-5, 7, True)]
    tols = _recording_solve_ue(monkeypatch, results)
    assert odestim._lower_ue(net, {(0, 3): 10.0}, tazs, 1e-4, 50) is results[1]
    assert tols == [1e-4, 1e-3]
    assert len([r for r in caplog.records if r.levelname == "WARNING"]) == 1


def test_estimate_od_validation():
    net, tazs = single_route_net()
    observed = observed_everywhere([12.0])
    with pytest.raises(InputDataError):
        estimate_od(net, tazs, observed, {(0, 1): -5.0})
    with pytest.raises(InputDataError):
        estimate_od(net, tazs, observed, {(0, 1): 0.0})
    no_support = SegmentTimeEstimate(time=np.array([12.0]), support=np.array([0]),
                                     interval_index=0)
    with pytest.raises(InputDataError):
        estimate_od(net, tazs, no_support, {(0, 1): 100.0})


def test_spsa_params_validation():
    with pytest.raises(InputDataError):
        SpsaParams(max_outer=0)
    with pytest.raises(InputDataError):
        SpsaParams(mu=-0.1)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def test_state_csv_round_trip(tmp_path):
    """Two intervals, written ascending, each listing every segment once."""
    net = make_corridor_network(n_segs=3, capacity=1000.0)
    states = {5: (np.array([100.0, 1e-3, 0.0]), np.array([20.0, 20.5, 20.0])),
              2: (np.array([600.0, 0.0, 250.0]), np.array([25.0, 20.0, 21.5]))}
    p = tmp_path / "states.csv"
    write_states(states, net, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "interval,segment_id,flow_vph,time_s,voc"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [str(iv), str(sid)] for iv in (2, 5) for sid in net.segment_ids()]
    back = read_states(p, net, TimeGrid())
    assert list(back) == [2, 5]
    for iv, (flow, time) in states.items():
        flows, times, vocs = back[iv]
        assert flows.tolist() == flow.tolist() and times.tolist() == time.tolist()
        assert vocs.tolist() == (flow / net.seg_capacity).tolist()
    assert back[2][2].tolist() == [0.6, 0.0, 0.25]


def test_objective_trace_round_trip(tmp_path):
    traces = {7: [ObjectiveRecord(0, 1.5)],
              3: [ObjectiveRecord(0, 54.25), ObjectiveRecord(5, 12.0), ObjectiveRecord(10, 3.5)]}
    p = tmp_path / "objective.csv"
    write_objectives(traces, p)
    assert p.read_text().splitlines()[0] == "interval,outer_iter,objective"
    back = group_rows(*read_table(p, OBJECTIVE_COLUMNS))
    assert list(back) == [3, 7]
    assert {iv: list(zip(*cols)) for iv, cols in back.items()} == {
        iv: [tuple(r) for r in records] for iv, records in traces.items()}


def test_state_and_objective_tables_of_no_interval_are_header_only(tmp_path):
    net = make_corridor_network(n_segs=3)
    write_states({}, net, tmp_path / "states.csv")
    write_objectives({}, tmp_path / "objective.csv")
    assert (tmp_path / "states.csv").read_text() == "interval,segment_id,flow_vph,time_s,voc\n"
    assert (tmp_path / "objective.csv").read_text() == "interval,outer_iter,objective\n"
    with pytest.raises(InputDataError, match=r"states\.csv: no rows"):
        read_states(tmp_path / "states.csv", net, TimeGrid())
