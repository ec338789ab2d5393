import math

import numpy as np
import pytest

from trailflow.analysis import (
    InvariantObserver,
    PheromoneBoundObserver,
    PotentialObserver,
    PotentialTrace,
    detect_convergence,
    normalized_levels,
    ratio,
    sweep_potential_growth,
    sweep_potential_monotone,
    theorem_constants,
    update_potential,
)
from trailflow.dynamics import (
    RESCALE_BY_SOURCE,
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    UniformInit,
    init_state,
    run,
    step,
)
from trailflow.graph import (
    DirectedGraph,
    build_two_path,
    build_two_path_survival,
    gen_gnp,
    gen_grid,
    plant_path,
    shortest_path,
)

from helpers import ReferenceInvariantObserver, bincount_levels, kernel_graphs, reference_walk

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


def test_pheromone_bound_observer_skips_warmup_and_flags_fault():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(tp.graph, 1.0, sched)
    obs = PheromoneBoundObserver(0.5, T1=0.0)
    obs(0, st, None)
    assert obs.violations == []  # p = 1 within 2 (f_s + b_d) / (1 - delta) = 8
    st.p[0] = 100.0  # fault injection
    warming = PheromoneBoundObserver(0.5, T1=5.0)
    warming(4, st, None)
    assert warming.violations == []  # t < T1: the bound does not apply yet
    warming(5, st, None)
    obs(0, st, None)
    assert warming.violations == [(5, 0, 100.0, 8.0)]
    assert obs.violations == [(0, 0, 100.0, 8.0)]


def test_pheromone_bound_observer_long_run():
    tp = build_two_path_survival(2, 3, 0.97, 0.95)
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5)
    st = init_state(tp.graph, 1.0, sched)
    obs = PheromoneBoundObserver(0.5, T1=0.0)
    run(st, tp.graph, LIN, sched, cfg, 2000, observers=[obs])
    assert obs.violations == []


# -- growth checks ------------------------------------------------------------------


def test_potential_sweeps_flag_fault_injection():
    trace = PotentialTrace(window=2)
    trace.r_min = [1.0, 1.0, 2.0, 1.5, 3.0]  # decreases at t=2 -> 3
    tc = theorem_constants(1.0, 1.0, 0.5, 1.0, 0.9, 1.0)
    viols = sweep_potential_monotone(trace, t_min=0)
    assert [(v.t, v.kind, v.value, v.required) for v in viols] == [(2, "monotonic", 1.5, 2.0)]
    assert [v.t for v in sweep_potential_monotone(trace)] == [2]  # from t = window
    assert sweep_potential_growth(trace, tc) == []  # r_min(4) = 3 >= gamma_l r_min(2)
    trace.window = 1
    growth = sweep_potential_growth(trace, tc)
    assert [(v.t, v.kind, v.value) for v in growth] == [(2, "growth", 1.5)]


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


# -- invariant observer --------------------------------------------------------


def _observer_cases():
    """(graph, schedule, cfg, steps): the two-path graph under 2x growth with
    rescaling and a flush threshold that bites by step 620, the planted grid
    of the increasing protocol (1.1x growth, rescaling), leaky G(n, p)
    without a flush threshold, and a graph whose interior vertex 1 has no
    out-edges."""
    gnp = gen_gnp(60, 0.1, 4)
    leaky = gnp.with_leakage(np.random.default_rng(5).uniform(0.0, 0.5, gnp.n_vertices))
    planted, _ = plant_path(gen_grid(10, 10), 9)
    const = FlowSchedule.constant(1.0, 0.7)
    return [
        (
            build_two_path(2, 3, [0.1], [0.2, 0.0]).graph,
            FlowSchedule.exponential(1.0, 1.0, 2.0),
            EngineConfig(delta=0.5, underflow_threshold=1e-30, rescale_mode=RESCALE_BY_SOURCE),
            700,
        ),
        (
            planted,
            FlowSchedule.exponential(0.8, 0.6, 1.1),
            EngineConfig(delta=0.3, rescale_mode=RESCALE_BY_SOURCE),
            80,
        ),
        (leaky, const, EngineConfig(delta=0.6, underflow_threshold=0.0), 80),
        (DirectedGraph(4, [(2, 3), (0, 1), (0, 2)], 0, 3), const, EngineConfig(delta=0.5), 80),
    ]


def _stepped_pairs(graph, schedule, cfg, steps):
    """(prev, state) for the initial state (prev None) and each step."""
    st = init_state(graph, UniformInit(0.1, 1.0, 3), schedule)
    pairs = [(None, st)]
    for _ in range(steps):
        nxt = step(st, graph, LIN, schedule, cfg)
        pairs.append((st, nxt))
        st = nxt
    return pairs


def _observer_pairs(graph, cfg, schedule):
    """The observer and the reference at the default tolerance and at one
    tight enough that engine rounding registers."""
    return [
        (
            InvariantObserver(graph, cfg, schedule, tol),
            ReferenceInvariantObserver(graph, cfg, schedule, tol),
        )
        for tol in (1e-12, 1e-16)
    ]


def test_invariant_observer_matches_reference_on_stepped_states():
    tight_hits = 0
    flushed = 0
    for graph, schedule, cfg, steps in _observer_cases():
        pairs = _stepped_pairs(graph, schedule, cfg, steps)
        observers = _observer_pairs(graph, cfg, schedule)
        for prev, cur in pairs:
            for obs, ref in observers:
                obs(cur.t, cur, prev)
                ref(cur.t, cur, prev)
        (obs, ref), (tight, tight_ref) = observers
        assert obs.violations == ref.violations == []
        assert tight.violations == tight_ref.violations
        tight_hits += len(tight.violations)
        flushed += pairs[-1][1].underflow_flushes
    assert tight_hits > 0 and flushed > 0


def _fault(state, name, index, mode):
    arr = getattr(state, name)
    if mode == "zero":
        arr[index] = 0.0
    elif mode == "tiny":  # below the 1e-42 tolerance of a zero scale
        arr[index] = 1e-45
    elif mode == "negate":
        arr[index] = -arr[index] - 1.0
    else:
        arr[index] *= 1.0 + mode


def test_invariant_observer_matches_reference_on_faults():
    """Fault-injected stepped pairs: single faults in every array of either
    state, at random entries, the source and destination rows and
    zero-degree vertices, as relative errors above and below the tolerance,
    flushed zeros, tiny values and sign flips; then several faults at once."""
    rng = np.random.default_rng(17)
    modes = (1e-6, -1e-9, 1e-14, "zero", "tiny", "negate")
    kinds = set()
    for graph, schedule, cfg, _ in _observer_cases():
        ga = graph.arrays
        rows = {ga.source, ga.destination, int(rng.integers(ga.n))}
        rows |= {int(v) for v in np.flatnonzero((ga.out_deg == 0) | (ga.in_deg == 0))}
        targets = [(name, int(rng.integers(ga.m))) for name in ("p", "f_edge", "b_edge")]
        targets += [(name, v) for v in sorted(rows) for name in ("f_vertex", "b_vertex")]
        obs = InvariantObserver(graph, cfg, schedule)
        ref = ReferenceInvariantObserver(graph, cfg, schedule)
        for prev, cur in _stepped_pairs(graph, schedule, cfg, 40)[20::10]:
            faults = [(w, name, i, mode) for w in (0, 1) for name, i in targets for mode in modes]
            combos = [[f] for f in faults]
            for _ in range(20):
                combos.append([faults[j] for j in rng.choice(len(faults), 3, replace=False)])
            for combo in combos:
                pair = [prev.copy(), cur.copy()]
                for w, name, i, mode in combo:
                    _fault(pair[w], name, i, mode)
                obs(cur.t, pair[1], pair[0])
                ref(cur.t, pair[1], pair[0])
        assert obs.violations == ref.violations
        kinds |= {v.kind for v in ref.violations}
    assert kinds == set(InvariantObserver.KINDS)


def test_invariant_observer_rows_it_skips_and_flags():
    graph, _ = plant_path(gen_grid(10, 10), 9)
    ga = graph.arrays
    schedule = FlowSchedule.exponential(0.8, 0.6, 1.1)
    cfg = EngineConfig(delta=0.3, rescale_mode=RESCALE_BY_SOURCE)
    prev, cur = _stepped_pairs(graph, schedule, cfg, 5)[-1]

    def violations(name, index, mode):
        bad = cur.copy()
        _fault(bad, name, index, mode)
        obs = InvariantObserver(graph, cfg, schedule)
        obs(bad.t, bad, prev)
        return [(v.kind, v.index) for v in obs.violations]

    s, d = ga.source, ga.destination
    # s and d are exempt from conservation; s has out-edges, d in-edges
    assert violations("f_vertex", s, 1e-6) == [("split_f", s)]
    assert violations("b_vertex", d, 1e-6) == [("split_b", d)]
    # d has no out-edges and s no in-edges: nothing checks these rows
    assert ga.out_deg[d] == 0 and ga.in_deg[s] == 0
    assert violations("f_vertex", d, 1e-6) == []
    assert violations("b_vertex", s, 1e-6) == []
    # a flushed pheromone or vertex flow is not compared with its recurrence
    # or conservation value, but the split still sees the missing vertex flow
    assert violations("p", 5, "zero") == []
    v = int(graph.edges[5][1])
    assert cur.f_vertex[v] > 0.0
    assert violations("f_vertex", v, "zero") == [("split_f", v)]
    assert violations("p", 5, 1e-9) == [("recurrence", 5)]
    assert violations("f_vertex", v, 1e-9) == [("conservation_f", v), ("split_f", v)]
