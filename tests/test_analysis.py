import math

import numpy as np
import pytest

from trailflow.analysis import (
    PheromoneBoundObserver,
    PotentialObserver,
    PotentialTrace,
    check_pheromone_bound,
    check_potential_growth,
    detect_convergence,
    normalized_levels,
    ratio,
    sweep_potential_growth,
    sweep_potential_monotone,
    theorem_constants,
    update_potential,
)
from trailflow.dynamics import (
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    init_state,
    run,
)
from trailflow.graph import DirectedGraph, build_two_path, build_two_path_survival, shortest_path

from helpers import bincount_levels, kernel_graphs, reference_walk

LIN = DecisionRule.linear()


def make_state(tp, p_values):
    g = tp.graph
    st = init_state(g, {e: v for e, v in zip(g.edges, p_values)}, FlowSchedule.constant(1, 1))
    return st


# -- normalized levels ---------------------------------------------------------


def test_normalized_levels_arithmetic():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    # edge order: top chain first, then bottom chain
    st = make_state(tp, [3.0, 1.0, 1.0, 1.0, 1.0])
    lv = normalized_levels(st, tp.graph)
    assert lv.fwd[tp.s_top_eid] == pytest.approx(0.75)
    assert lv.fwd[tp.s_bottom_eid] == pytest.approx(0.25)
    # degree-1 vertex: its edge normalizes to 1 in the forward direction
    assert lv.fwd[tp.path_eids("bottom")[1]] == 1.0
    # per-vertex sums equal 1
    ga = tp.graph.arrays
    sums = np.bincount(ga.tails, weights=lv.fwd, minlength=ga.n)
    for v in range(ga.n):
        if ga.out_deg[v]:
            assert sums[v] == pytest.approx(1.0, abs=1e-12)


def test_normalized_levels_zero_total_is_nan():
    tp = build_two_path(2, 2, [0.0], [0.0])
    st = make_state(tp, [0.0, 0.0, 0.0, 0.0])
    lv = normalized_levels(st, tp.graph)
    assert all(math.isnan(x) for x in lv.fwd)


def test_normalized_levels_match_bincount_reference():
    sched = FlowSchedule.constant(1.0, 1.0)
    for g, p0 in kernel_graphs():
        lv = normalized_levels(init_state(g, p0, sched), g)
        fwd, bwd = bincount_levels(g.arrays, p0)
        np.testing.assert_allclose(lv.fwd, fwd, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(lv.bwd, bwd, rtol=1e-13, atol=0.0)


# -- convergence detector --------------------------------------------------------


def test_detect_convergence_cases():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    # fully converged on the top branch
    st = make_state(tp, [1.0, 1.0, 1e-6, 1e-6, 1e-6])
    assert detect_convergence(st, tp.graph, 0.01) == tp.top
    # symmetric state is not converged
    st2 = make_state(tp, [1.0, 1.0, 1.0, 1.0, 1.0])
    assert detect_convergence(st2, tp.graph, 0.01) is None
    with pytest.raises(ValueError):
        detect_convergence(st2, tp.graph, 1.5)


def test_detect_convergence_monotone_in_epsilon():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    rng = np.random.default_rng(5)
    for _ in range(50):
        st = make_state(tp, rng.uniform(0.0, 1.0, 5))
        found = {eps: detect_convergence(st, tp.graph, eps) for eps in (0.05, 0.2, 0.5)}
        if found[0.05] is not None:
            assert found[0.2] == found[0.05]
        if found[0.2] is not None:
            assert found[0.5] == found[0.2]


def test_detect_convergence_requires_backward_too():
    tp = build_two_path(2, 2, [0.0], [0.0])
    # forward side sharp at s, symmetric at d: no qualifying path
    st = make_state(tp, [1.0, 0.5, 1e-9, 0.5])
    assert detect_convergence(st, tp.graph, 0.01) is None


def test_detect_convergence_matches_reference_walk():
    """Pheromone concentrated on the shortest path, with background levels
    from small integers (many forward-level ties and zero-total vertices)."""
    sched = FlowSchedule.constant(1.0, 1.0)
    rng = np.random.default_rng(3)
    hits = 0
    for g, _ in kernel_graphs():
        path = shortest_path(g)
        on_path = [g.edge_id(u, v) for u, v in zip(path.vertices, path.vertices[1:])]
        for boost in (0.0, 1.0, 4.0, 100.0):
            p = rng.integers(0, 3, g.n_edges).astype(float)
            p[on_path] += boost
            fwd, bwd = bincount_levels(g.arrays, p)
            st = init_state(g, p, sched)
            for eps in (0.01, 0.3, 0.6):
                found = detect_convergence(st, g, eps)
                assert found == reference_walk(g, fwd, bwd, eps)
                hits += found is not None
    assert hits > 10


def test_detect_convergence_tie_and_zero_total():
    # s's two out-edges tie at 1/2; the walk takes the lower head, 1
    g = DirectedGraph(4, [(0, 2), (0, 1), (2, 3), (1, 3)], 0, 3)
    st = init_state(g, 1.0, FlowSchedule.constant(1, 1))
    assert detect_convergence(st, g, 0.6).vertices == (0, 1, 3)
    assert detect_convergence(st, g, 0.4) is None
    # vertex 1 is reached with full levels but its out-edges carry nothing
    g = DirectedGraph(4, [(0, 1), (0, 2), (1, 3), (1, 2), (2, 3)], 0, 3)
    st = init_state(g, np.array([1.0, 0.0, 0.0, 0.0, 1.0]), FlowSchedule.constant(1, 1))
    assert math.isnan(normalized_levels(st, g).fwd[g.edge_id(1, 3)])
    assert detect_convergence(st, g, 0.01) is None


# -- ratio potential --------------------------------------------------------------


def test_ratio_markers():
    assert ratio(1.0, 2.0) == 0.5
    assert ratio(0.0, 2.0) == 0.0
    assert math.isinf(ratio(1.0, 0.0))
    assert math.isnan(ratio(0.0, 0.0))


def test_update_potential_window_min():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    trace = PotentialTrace(window=2)
    # hand-built states: push ratios (2,2.5) then (3,4); window min = 2
    st = make_state(tp, [2.0, 2.5, 1.0, 1.0, 1.0])  # r_s=2, r_d=2.5
    update_potential(trace, st, tp)
    assert math.isnan(trace.r_min[0])
    st2 = make_state(tp, [3.0, 4.0, 1.0, 1.0, 1.0])  # r_s=3, r_d=4
    update_potential(trace, st2, tp)
    assert trace.r_min[1] == 2.0


def test_update_potential_constant_ratio():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    trace = PotentialTrace(window=3)
    st = make_state(tp, [2.0, 2.0, 1.0, 1.0, 1.0])
    for _ in range(5):
        update_potential(trace, st, tp)
    assert trace.r_min[-1] == 2.0


# -- theorem constants ------------------------------------------------------------


def test_theorem_constants_hand_values():
    tc = theorem_constants(1.0, 1.0, 0.5, 1.0, 0.9, p_init_max=1.0)
    assert tc.C == pytest.approx(20.0)
    assert tc.gamma_sl == pytest.approx(1.0 + 0.1 / 20.9, rel=1e-12)
    assert tc.gamma_l == tc.gamma_sl  # symmetric flows
    assert tc.T1 == 0.0  # p_init <= f_s + b_d clamps to zero


def test_theorem_constants_degenerate_and_t1():
    tc = theorem_constants(1.0, 1.0, 0.5, 0.9, 0.9, p_init_max=1.0)
    assert tc.gamma_l == 1.0  # equal survival: no guaranteed progress
    tc2 = theorem_constants(1.0, 1.0, 0.5, 1.0, 0.9, p_init_max=8.0)
    assert tc2.T1 == pytest.approx(math.log(4.0) / math.log(2.0))
    with pytest.raises(ValueError):
        theorem_constants(1.0, 1.0, 0.5, 0.9, 0.95, 1.0)
    with pytest.raises(ValueError):
        theorem_constants(1.0, 1.0, 1.5, 1.0, 0.9, 1.0)


def test_theorem_constants_asymmetric_flows():
    tc = theorem_constants(2.0, 1.0, 0.5, 1.0, 0.9, 1.0)
    assert tc.C == pytest.approx(5 * 3 / (1 * 0.5))
    C_d = 5 * 3 / (2 * 0.5)
    assert tc.gamma_dl == pytest.approx(1 + 0.1 / (C_d + 0.9), rel=1e-12)
    assert tc.gamma_l == min(tc.gamma_sl, tc.gamma_dl)


# -- pheromone bound ---------------------------------------------------------------


def test_check_pheromone_bound():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(tp.graph, 1.0, sched)
    res = check_pheromone_bound(st, sched, 0.5, t=0, T1=0.0)
    assert res.applicable and res.ok and res.bound == pytest.approx(8.0)
    skipped = check_pheromone_bound(st, sched, 0.5, t=0, T1=5.0)
    assert not skipped.applicable
    st.p[0] = 100.0  # fault injection
    bad = check_pheromone_bound(st, sched, 0.5, t=0, T1=0.0)
    assert not bad.ok and bad.edge == 0 and bad.value == 100.0


def test_pheromone_bound_observer_long_run():
    tp = build_two_path_survival(2, 3, 0.97, 0.95)
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5)
    st = init_state(tp.graph, 1.0, sched)
    obs = PheromoneBoundObserver(0.5, T1=0.0)
    run(st, tp.graph, LIN, sched, cfg, 2000, observers=[obs])
    assert obs.violations == []


# -- growth checks ------------------------------------------------------------------


def test_check_potential_growth_fault_injection():
    trace = PotentialTrace(window=2)
    trace.r_min = [1.0, 1.0, 2.0, 1.5, 3.0]  # decreases at t=2 -> 3
    tc = theorem_constants(1.0, 1.0, 0.5, 1.0, 0.9, 1.0)
    v = check_potential_growth(trace, tc, 2)
    assert v is not None and v.kind == "monotonic"
    viols = sweep_potential_monotone(trace, t_min=0)
    assert [x.t for x in viols] == [2]


def test_sweep_growth_requires_gamma_factor():
    trace = PotentialTrace(window=1)
    tc = theorem_constants(1.0, 1.0, 0.5, 1.0, 0.9, 1.0)
    # stagnant sequence grows slower than gamma_l
    trace.r_min = [1.0] * 10
    viols = sweep_potential_growth(trace, tc)
    assert viols  # flagged: no growth at all
    trace.r_min = [tc.gamma_l**k for k in range(10)]
    assert sweep_potential_growth(trace, tc) == []


def test_fixed_flow_distinct_leakage_potential_checks():
    """Fixed flow + distinct leakage: r_min non-decreasing and gamma_l-growing."""
    tp = build_two_path_survival(2, 3, 0.97, 0.95)
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5, epsilon_convergence=0.01)
    st = init_state(tp.graph, 1.0, sched)
    pot = PotentialObserver(tp)
    trace = run(st, tp.graph, LIN, sched, cfg, 50_000, observers=[pot])
    assert trace.converged_path == tp.top
    tc = theorem_constants(1.0, 1.0, 0.5, tp.surv_top, tp.surv_bottom, 1.0)
    assert sweep_potential_monotone(pot.trace) == []
    assert sweep_potential_growth(pot.trace, tc) == []
