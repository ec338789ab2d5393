import copy
import math

import numpy as np
import pytest

from trailflow.analysis import (
    BranchLevelObserver,
    InvariantObserver,
    InvariantViolation,
    PheromoneBoundObserver,
    PotentialObserver,
    PotentialTrace,
    detect_convergence,
    normalized_levels,
    ratio,
    sweep_potential_growth,
    sweep_potential_monotone,
    theorem_constants,
)
from trailflow.dynamics import (
    RESCALE_BY_SOURCE,
    ConfigError,
    DecisionRule,
    EngineConfig,
    FlowSchedule,
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
    path_leakage,
    plant_path,
    shortest_path,
)

from helpers import (
    ReferenceInvariantObserver,
    bincount_levels,
    edge_tuple,
    kernel_graphs,
    reference_walk,
)

LIN = DecisionRule.linear()


def make_state(tp, p_values):
    """A t=0 state on ``tp`` with ``p_values``, one per edge in edge-id order."""
    return init_state(tp.graph, p_values, FlowSchedule.constant(1, 1))


# -- normalized levels ---------------------------------------------------------


def test_normalized_levels_arithmetic():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    # edge order: top chain first, then bottom chain
    st = make_state(tp, [3.0, 1.0, 1.0, 1.0, 1.0])
    lv = normalized_levels(st, tp.graph)
    assert lv.fwd[tp.branch_eids("top")[0]] == pytest.approx(0.75)
    assert lv.fwd[tp.branch_eids("bottom")[0]] == pytest.approx(0.25)
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
        on_path = g.edge_ids(path.edge_pairs())
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


def test_detect_convergence_reads_the_out_sum_kernel():
    """The source's out-total is 1.0 by np.bincount, (0.0 + 1.0 + 2**-53)
    + 2**-53, and 1 + 2**-52 by reduceat, 1.0 + (2**-53 + 2**-53): at a bar
    of 1.0 the edge to vertex 1 passes only under the first. The walk
    follows whichever kernel ``GraphArrays`` chose, as the levels do. The
    destination's in-edges hold the same values, and summed in edge order
    their total is 1.0 too."""
    # (1, 4) listed first: not sorted by tail
    g = DirectedGraph(5, [(1, 4), (0, 1), (0, 2), (0, 3), (2, 4), (3, 4)], 0, 4)
    tiny = 2.0**-53
    p = np.array([1.0, 1.0, tiny, tiny, tiny, tiny])
    st = init_state(g, p, FlowSchedule.constant(1, 1))
    eps = 1e-17  # 1 - eps rounds to 1.0
    assert g.arrays.out_by_bincount
    levels = normalized_levels(st, g)
    assert levels.fwd[1] == levels.bwd[0] == 1.0
    assert detect_convergence(st, g, eps).vertices == (0, 1, 4)
    by_reduceat = copy.copy(g)
    by_reduceat.arrays = copy.copy(g.arrays)
    by_reduceat.arrays.out_by_bincount = False
    assert normalized_levels(st, by_reduceat).fwd[1] < 1.0
    assert detect_convergence(st, by_reduceat, eps) is None


def test_detect_convergence_on_a_dense_graph():
    """The dense kernel graph (more than 16 edges per vertex, so out-sums
    go by ``reduceat``): the source's edges to a and b tie at 1/2 and the
    walk takes the lower head. Each leads on to d with full levels; d's
    other in-edges hold 2**-53 each, which summed left to right in edge
    order after a's 1.0 leave the in-total at 1.0, so at a bar of 1.0 the
    edge a->d passes."""
    g, _ = kernel_graphs()[5]
    ga = g.arrays
    assert ga.m > 16 * ga.n and not ga.out_by_bincount
    s, d = ga.source, ga.destination
    edges = set(edge_tuple(g))
    into_d = sorted(u for u, v in edges if v == d)
    a, b = [u for u in into_d if (s, u) in edges][:2]
    sched = FlowSchedule.constant(1, 1)
    eps = 1e-17  # 1 - eps rounds to 1.0
    tiny = 2.0**-53
    p = np.zeros(g.n_edges)
    p[g.edge_ids([(u, d) for u in into_d if u not in (s, a, b)])] = tiny
    s_a, a_d = g.edge_ids([(s, a), (a, d)])
    p[[s_a, a_d]] = 1.0
    fwd, bwd = bincount_levels(ga, p)
    assert bwd[a_d] == 1.0
    st = init_state(g, p, sched)
    assert detect_convergence(st, g, eps).vertices == (s, a, d)
    assert detect_convergence(st, g, eps) == reference_walk(g, fwd, bwd, eps)
    # pairwise summation, as np.add.reduce takes it, gives more than 1.0
    assert np.add.reduce(p[ga.in_eids[ga.in_ptr[d] : ga.in_ptr[d + 1]]]) > 1.0
    # a tie at the source: the lower head, whichever edge comes first
    p = np.zeros(g.n_edges)
    p[g.edge_ids([(s, a), (s, b), (a, d), (b, d)])] = 1.0
    fwd, bwd = bincount_levels(ga, p)
    st = init_state(g, p, sched)
    assert detect_convergence(st, g, 0.6).vertices == (s, a, d)
    assert detect_convergence(st, g, 0.6) == reference_walk(g, fwd, bwd, 0.6)
    assert detect_convergence(st, g, 0.4) is None


def test_detect_convergence_tie_and_zero_total():
    # s's two out-edges tie at 1/2; the walk takes the lower head, 1
    g = DirectedGraph(4, [(0, 2), (0, 1), (2, 3), (1, 3)], 0, 3)
    st = init_state(g, 1.0, FlowSchedule.constant(1, 1))
    assert detect_convergence(st, g, 0.6).vertices == (0, 1, 3)
    assert detect_convergence(st, g, 0.4) is None
    # vertex 1 is reached with full levels but its out-edges carry nothing
    g = DirectedGraph(4, [(0, 1), (0, 2), (1, 3), (1, 2), (2, 3)], 0, 3)
    st = init_state(g, np.array([1.0, 0.0, 0.0, 0.0, 1.0]), FlowSchedule.constant(1, 1))
    assert math.isnan(normalized_levels(st, g).fwd[g.edge_ids([(1, 3)])[0]])
    assert detect_convergence(st, g, 0.01) is None


# -- ratio potential --------------------------------------------------------------


def test_ratio_markers():
    assert ratio(1.0, 2.0) == 0.5
    assert ratio(0.0, 2.0) == 0.0
    assert math.isinf(ratio(1.0, 0.0))
    assert math.isnan(ratio(0.0, 0.0))


def test_potential_observer_window_min():
    tp = build_two_path(2, 2, [0.0], [0.0])  # window 2
    pot = PotentialObserver(tp)
    # hand-built states: push ratios (2,2.5) then (3,4); window min = 2
    pot(0, make_state(tp, [2.0, 2.5, 1.0, 1.0]), None)  # r_s=2, r_d=2.5
    assert math.isnan(pot.trace.r_min[0])
    pot(1, make_state(tp, [3.0, 4.0, 1.0, 1.0]), None)  # r_s=3, r_d=4
    assert pot.trace.r_min[1] == 2.0


def test_potential_observer_constant_ratio():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])  # window 3
    pot = PotentialObserver(tp)
    st = make_state(tp, [2.0, 2.0, 1.0, 1.0, 1.0])
    for t in range(5):
        pot(t, st, None)
    assert pot.trace.r_min[-1] == 2.0


def test_potential_observer_all_infinite_window_is_infinite():
    tp = build_two_path(2, 2, [0.0], [0.0])  # window 2
    # no pheromone on the bottom branch at either end: r_s = r_d = +inf
    st = make_state(tp, [1.0, 1.0, 0.0, 0.0])
    pot = PotentialObserver(tp)
    for t in range(3):
        pot(t, st, None)
    trace = pot.trace
    assert trace.r_s[-1] == trace.r_d[-1] == math.inf
    assert math.isnan(trace.r_min[0])
    assert trace.r_min[1:] == [math.inf, math.inf]
    # and with no pheromone on any branch edge every sample is 0/0: NaN
    nan_pot = PotentialObserver(tp)
    for t in range(3):
        nan_pot(t, make_state(tp, [0.0, 0.0, 0.0, 0.0]), None)
    assert all(math.isnan(x) for x in nan_pot.trace.r_min)


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
    viols = sweep_potential_monotone(trace)  # from t = window
    assert [(v.t, v.kind, v.value, v.required) for v in viols] == [(2, "monotonic", 1.5, 2.0)]
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
    surv_top, surv_bottom = (1.0 - path_leakage(tp.graph, p) for p in (tp.top, tp.bottom))
    tc = theorem_constants(1.0, 1.0, 0.5, surv_top, surv_bottom, 1.0)
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
    st = init_state(graph, np.random.default_rng(3).uniform(0.1, 1.0, graph.n_edges), schedule)
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
    v = int(graph.heads[5])
    assert cur.f_vertex[v] > 0.0
    assert violations("f_vertex", v, "zero") == [("split_f", v)]
    assert violations("p", 5, 1e-9) == [("recurrence", 5)]
    assert violations("f_vertex", v, 1e-9) == [("conservation_f", v), ("split_f", v)]


@pytest.mark.parametrize(
    "schedule", [FlowSchedule.constant(1.0, 1.0), FlowSchedule.linear(1.0, 1.0, 0.1)]
)
def test_invariant_observer_rejects_rescaling_without_growth(schedule):
    """Rescaling divides by the exponential schedule's alpha: the observer
    rejects other schedules as ``validate_run_setup`` does (a constant
    schedule's alpha of 0 raised ZeroDivisionError)."""
    graph = gen_grid(3, 3)
    cfg = EngineConfig(0.5, rescale_mode=RESCALE_BY_SOURCE)
    with pytest.raises(ConfigError, match="rescaling applies to exponential schedules only"):
        InvariantObserver(graph, cfg, schedule)


# -- invariant observer blocks ---------------------------------------------------


def _block_case(rows):
    """The growth protocol's engine settings on a graph where the observer
    holds blocks of 32 pairs (the planted 10x10 grid), of 6 pairs (a 40x40
    grid: m + 4n = 9520 entries) or checks each pair on its call (a 100x100
    grid: m + 4n is about 60k entries)."""
    if rows == 32:
        graph = plant_path(gen_grid(10, 10), 9)[0]
    else:
        graph = gen_grid(40, 40) if rows == 6 else gen_grid(100, 100)
    schedule = FlowSchedule.exponential(0.8, 0.6, 1.1)
    cfg = EngineConfig(delta=0.3, rescale_mode=RESCALE_BY_SOURCE)
    assert InvariantObserver(graph, cfg, schedule)._rows == rows
    return graph, schedule, cfg


def _tight_pair(graph, schedule, cfg, rel_tol=1e-16):
    """The observer and the reference at one tolerance (by default tight
    enough that engine rounding registers)."""
    return (
        InvariantObserver(graph, cfg, schedule, rel_tol),
        ReferenceInvariantObserver(graph, cfg, schedule, rel_tol),
    )


def _chain(pairs):
    return [(cur.t, cur, prev) for prev, cur in pairs]


def _feed(calls, *observers):
    for t, state, prev in calls:
        for obs in observers:
            obs(t, state, prev)


BLOCK_ROWS = pytest.mark.parametrize(
    "rows", [32, 6, 1], ids=["blocks", "short-blocks", "one-row"]
)


@BLOCK_ROWS
def test_invariant_observer_blocks_of_any_length(rows):
    """Chains of R - 1, R, R + 1 and 2R + 1 stepped pairs."""
    graph, schedule, cfg = _block_case(rows)
    pairs = _stepped_pairs(graph, schedule, cfg, 2 * rows + 1)
    hits = 0
    for count in sorted({rows - 1, rows, rows + 1, 2 * rows + 1}):
        obs, ref = _tight_pair(graph, schedule, cfg)
        _feed(_chain(pairs[: count + 1]), obs, ref)
        assert obs.violations == ref.violations
        hits += len(ref.violations)
    assert hits > 0


@BLOCK_ROWS
def test_invariant_observer_pair_outside_the_chain(rows):
    """A faulty pair of copies in the middle of a chain: its ``prev`` is not
    the last state passed, and neither is the ``prev`` of the call after it."""
    graph, schedule, cfg = _block_case(rows)
    pairs = _stepped_pairs(graph, schedule, cfg, rows + 4)
    calls = _chain(pairs)
    mid = rows // 2 + 2
    prev, cur = pairs[mid]
    bad = cur.copy()
    _fault(bad, "p", 5, 1e-6)
    calls.insert(mid + 1, (cur.t, bad, prev.copy()))
    for rel_tol in (1e-12, 1e-16):
        obs, ref = _tight_pair(graph, schedule, cfg, rel_tol)
        _feed(calls, obs, ref)
        assert obs.violations == ref.violations
        assert InvariantViolation(cur.t, "recurrence", 5, bad.p[5] - cur.p[5]) in ref.violations


@BLOCK_ROWS
def test_invariant_observer_repeated_state_after_violating_and_clean_pairs(rows):
    """A repeated state repeats the records of the pair just before it: a
    clean one (nothing), a violating one, or a clean one after a violating
    one in the same block (nothing)."""
    graph, schedule, cfg = _block_case(rows)
    pairs = _stepped_pairs(graph, schedule, cfg, 3)
    last = pairs[-1][1]
    calls = _chain(pairs)
    calls.append((last.t + 1, last, last))  # after a clean pair
    v = int(graph.heads[7])
    bad = step(last, graph, LIN, schedule, cfg)
    _fault(bad, "f_vertex", v, 1e-6)
    nxt = step(bad, graph, LIN, schedule, cfg)
    calls += [(bad.t, bad, last), (nxt.t, nxt, bad), (nxt.t + 1, nxt, nxt)]
    bad2 = step(nxt, graph, LIN, schedule, cfg)
    _fault(bad2, "f_vertex", v, 1e-6)
    calls += [(bad2.t, bad2, nxt), (bad2.t + 1, bad2, bad2), (bad2.t + 2, bad2, bad2)]
    obs, ref = _tight_pair(graph, schedule, cfg, 1e-12)
    _feed(calls, obs, ref)
    assert obs.violations == ref.violations
    assert {v.t for v in ref.violations} == {bad.t, bad2.t, bad2.t + 1, bad2.t + 2}


@BLOCK_ROWS
def test_invariant_observer_prev_passed_before_an_initial_state(rows):
    """After an initial state, a ``prev`` passed as a stepped state before
    it starts a new chain and is read as it is on the call."""
    graph, schedule, cfg = _block_case(rows)
    pairs = _stepped_pairs(graph, schedule, cfg, 4)
    prev, cur = pairs[-1]
    obs, ref = _tight_pair(graph, schedule, cfg, 1e-12)
    _feed(_chain(pairs) + [(0, pairs[0][1], None)], obs, ref)
    nxt = step(cur, graph, LIN, schedule, cfg)
    _fault(cur, "p", 5, 1e-6)
    _feed([(nxt.t, nxt, cur)], obs, ref)
    assert obs.violations == ref.violations
    assert ref.violations[0].t == nxt.t


@BLOCK_ROWS
def test_invariant_observer_read_mid_chain(rows):
    """Reading ``violations`` checks the held pairs; the chain then goes on."""
    graph, schedule, cfg = _block_case(rows)
    calls = _chain(_stepped_pairs(graph, schedule, cfg, 2 * rows + 3))
    obs, ref = _tight_pair(graph, schedule, cfg)
    for i, call in enumerate(calls):
        _feed([call], obs, ref)
        if i in (1, 3, rows + 2):
            assert obs.violations == ref.violations
    assert obs.violations == ref.violations and ref.violations


@BLOCK_ROWS
def test_invariant_observer_reused_across_runs(rows):
    """One observer in two runs: the second from the first's final state,
    then a third from a fresh initial state."""
    graph, schedule, cfg = _block_case(rows)
    obs, ref = _tight_pair(graph, schedule, cfg)
    state = _stepped_pairs(graph, schedule, cfg, 0)[0][1]
    first = run(state, graph, LIN, schedule, cfg, rows + 3, [obs, ref])
    run(first.final_state, graph, LIN, schedule, cfg, 2 * rows, [obs, ref])
    assert obs.violations == ref.violations
    run(state, graph, LIN, schedule, cfg, rows + 1, [obs, ref])
    assert obs.violations == ref.violations and ref.violations


@BLOCK_ROWS
def test_invariant_observer_states_written_after_their_calls(rows):
    """Overwriting a state's arrays once no later call passes it changes no
    record, including records not yet read."""
    graph, schedule, cfg = _block_case(rows)
    pairs = _stepped_pairs(graph, schedule, cfg, rows + 5)
    obs, ref = _tight_pair(graph, schedule, cfg)
    _feed([(0, pairs[0][1], None)], obs, ref)
    for t, cur, prev in _chain(pairs[1:]):
        _feed([(t, cur, prev)], obs, ref)
        for a in (prev.p, prev.f_edge, prev.b_edge, prev.f_vertex, prev.b_vertex):
            a.fill(7.0)
    last = pairs[-1][1]
    for a in (last.p, last.f_edge, last.b_edge, last.f_vertex, last.b_vertex):
        a.fill(-1.0)
    assert obs.violations == ref.violations and ref.violations


def test_invariant_observer_equality_test_falls_through_exactly(monkeypatch):
    """One 32-pair block per case, with a flush threshold and without: a
    clean chain, a pheromone 1 ulp off at row 9 (its kind takes the
    tolerance test and records nothing), a vertex flow x(1 + 1e-9) at row
    17 (it records) and a NaN pheromone in the last row. The records are
    the reference's, in order, and the tolerance test sees exactly the
    kinds with a compared entry unequal to its expectation, and the split
    kinds, which it always sees."""
    graph, schedule, _ = _block_case(32)
    v = int(graph.heads[5])
    kinds = InvariantObserver.KINDS
    rec, cons, split = kinds[:1], kinds[1:3], kinds[3:]
    cases = [  # (faults as (row, array, index, new value), kinds tested, records)
        ([], [split], []),
        ([(9, "p", 5, lambda x: np.nextafter(x, np.inf))], [rec, split], []),
        (
            [(17, "f_vertex", v, lambda x: x * (1.0 + 1e-9))],
            [cons, split],
            [(18, "conservation_f", v), (18, "split_f", v)],
        ),
        ([(31, "p", 5, lambda x: np.nan)], [rec, split], []),
    ]
    tested = []
    failing = InvariantObserver._failing

    def spy(self, kinds, *args):
        tested.append(kinds)
        return failing(self, kinds, *args)

    monkeypatch.setattr(InvariantObserver, "_failing", spy)
    for threshold in (1e-300, 0.0):
        cfg = EngineConfig(delta=0.3, underflow_threshold=threshold, rescale_mode=RESCALE_BY_SOURCE)
        states = [cur for _, cur in _stepped_pairs(graph, schedule, cfg, 32)]
        assert states[18].f_vertex[v] > 0.0 and v not in (graph.source, graph.destination)
        for faults, kinds, records in cases:
            faulty = [st.copy() for st in states]
            for row, name, i, value in faults:
                arr = getattr(faulty[row + 1], name)
                arr[i] = value(arr[i])
            obs = InvariantObserver(graph, cfg, schedule)
            ref = ReferenceInvariantObserver(graph, cfg, schedule)
            tested.clear()
            _feed([(cur.t, cur, prev) for prev, cur in zip(faulty, faulty[1:])], obs, ref)
            assert obs.violations == ref.violations
            assert [(r.t, r.kind, r.index) for r in ref.violations] == records
            assert tested == kinds


def test_invariant_observers_share_the_index_arrays_of_a_graph():
    """Observers on one graph and on a ``with_leakage`` copy made before
    either read one set of index arrays, and checking leaves them as they
    were; a graph of another size has its own."""
    graph, _ = plant_path(gen_grid(10, 10), 9)
    leaky = graph.with_leakage(np.full(graph.n_vertices, 0.1))
    schedule = FlowSchedule.exponential(0.8, 0.6, 1.1)
    cfg = EngineConfig(delta=0.3, rescale_mode=RESCALE_BY_SOURCE)
    names = ("_checked", "_reach", "_leave")
    first = InvariantObserver(graph, cfg, schedule)
    again = InvariantObserver(graph, cfg, schedule)
    tight = InvariantObserver(leaky, cfg, schedule, 1e-16)
    for name in names:
        assert getattr(first, name) is getattr(again, name) is getattr(tight, name)
    saved = [getattr(first, name).tobytes() for name in names]
    _feed(_chain(_stepped_pairs(leaky, schedule, cfg, 40)), tight)
    assert tight.violations  # the tolerance test and its worst-entry search ran
    assert [getattr(first, name).tobytes() for name in names] == saved
    other, _, _ = _block_case(6)
    sized = InvariantObserver(other, cfg, schedule)
    for name in names:
        assert getattr(sized, name) is not getattr(first, name)


@pytest.mark.parametrize(
    "make, joint",
    [(lambda: plant_path(gen_grid(6, 6), 5)[0], True), (lambda: gen_gnp(40, 0.15, 2), False)],
    ids=["planted-grid", "gnp"],
)
def test_monitored_runs_alternating_with_a_leakage_copy(make, joint):
    """Runs that alternate between a graph and its leakage copy share one
    ``GraphArrays`` but each binds its own graph's survival: every
    invariant observer records nothing, and each run ends in the bytes of
    the same run on a graph built afresh with that leakage. The planted
    grid aggregates both directions in one call, G(n, p) one at a time."""
    rng = np.random.default_rng(4)
    base = make()
    graph = base.with_leakage(rng.uniform(0.0, 0.3, base.n_vertices))
    leaky = graph.with_leakage(rng.uniform(0.3, 0.6, base.n_vertices))
    assert leaky.arrays is graph.arrays and graph.arrays.out_by_bincount == joint
    schedule = FlowSchedule.constant(1.0, 0.5)
    cfg = EngineConfig(delta=0.4)
    p0 = rng.uniform(0.1, 1.0, base.n_edges)
    ends = {}
    for g in (graph, leaky, graph, leaky):
        obs = InvariantObserver(g, cfg, schedule)
        trace = run(init_state(g, p0, schedule), g, LIN, schedule, cfg, 30, [obs])
        assert obs.violations == []
        ends.setdefault(id(g), []).append(trace.final_state.buf.tobytes())
    for g in (graph, leaky):
        fresh = DirectedGraph(g.n_vertices, edge_tuple(g), g.source, g.destination, g.leakage)
        trace = run(init_state(fresh, p0, schedule), fresh, LIN, schedule, cfg, 30)
        assert ends[id(g)] == [trace.final_state.buf.tobytes()] * 2
    assert ends[id(graph)] != ends[id(leaky)]


def test_branch_level_observer_levels_and_zero_totals():
    """Each level is the branch edge's pheromone over both branch edges at s
    (at d), the same float as numpy's p / (p + p), and NaN on a zero total."""
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    s_top, d_top = tp.branch_eids("top")
    s_bot, d_bot = tp.branch_eids("bottom")
    rng = np.random.default_rng(3)
    sched = FlowSchedule.constant(1.0, 1.0)
    obs = BranchLevelObserver(tp, "top")
    cases = [rng.uniform(0.0, 2.0, tp.graph.n_edges) for _ in range(20)]
    zero_s, zero_d = cases[0].copy(), cases[1].copy()
    zero_s[[s_top, s_bot]] = 0.0
    zero_d[[d_top, d_bot]] = 0.0
    cases += [zero_s, zero_d]
    for p in cases:
        obs(0, init_state(tp.graph, p, sched), None)
    want_s = [p[s_top] / (p[s_top] + p[s_bot]) for p in cases[:-2]]
    want_d = [p[d_top] / (p[d_top] + p[d_bot]) for p in cases[:-2]]
    assert [x.hex() for x in obs.norm_s[:-2]] == [float(x).hex() for x in want_s]
    assert [x.hex() for x in obs.norm_d[:-2]] == [float(x).hex() for x in want_d]
    assert math.isnan(obs.norm_s[-2]) and not math.isnan(obs.norm_d[-2])
    assert math.isnan(obs.norm_d[-1]) and not math.isnan(obs.norm_s[-1])
