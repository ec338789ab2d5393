import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from trailflow.adversarial import AT_LEAST, FlowBoundObserver, leakage_counterexample
from trailflow.dynamics import (
    ConfigError,
    DecisionRule,
    EngineAbort,
    EngineConfig,
    FlowSchedule,
    RESCALE_BY_SOURCE,
    SystemState,
    _FLUSH_IN_PYTHON_MAX,
    _HOLD_ROWS,
    _flush,
    _hold,
    _prepare,
    branch_state,
    init_state,
    run,
    step,
)
from trailflow.graph import (
    DirectedGraph,
    GraphError,
    build_two_path,
    gen_gnp,
    gen_grid,
    plant_path,
)
from trailflow.analysis import (
    BranchLevelObserver,
    InvariantObserver,
    normalized_levels,
)
from trailflow.equilibria import equilibrium_state
from trailflow.rules import linear_rule, power_rule, sine_rule

from helpers import (
    _reference_split_linear,
    bincount_levels,
    bincount_split,
    bincount_step,
    edge_tuple,
    engine_split,
    equation_step,
    kernel_graphs,
    linear_split,
    reference_general_split,
    step_to_horizon,
)

LIN = DecisionRule.linear()


def two_path_23(leak_top=0.0, leak2=0.0, leak3=0.0):
    return build_two_path(2, 3, [leak_top], [leak2, leak3])


# -- schedules and config ------------------------------------------------------


def test_schedule_values_and_validation():
    c = FlowSchedule.constant(1.0, 2.0)
    assert (c.forward_at(5), c.backward_at(5)) == (1.0, 2.0)
    e = FlowSchedule.exponential(1.0, 1.0, 1.1)
    assert e.forward_at(3) == pytest.approx(1.1**3)
    l = FlowSchedule.linear(1.0, 1.0, 0.1)
    assert l.forward_at(10) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        FlowSchedule.constant(0.0, 1.0)
    with pytest.raises(ConfigError):
        FlowSchedule.exponential(1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        FlowSchedule.linear(1.0, 1.0, 0.0)
    # unidirectional mode allows b0 = 0
    assert FlowSchedule.constant(1.0, 0.0).backward_at(4) == 0.0


def test_exponential_schedule_past_the_float_range():
    """Python raises where alpha**t is past the float range, though x0 times
    it may not be: the schedule gives that product, or inf, and keeps
    x0 * alpha**t wherever that does not raise."""
    e = FlowSchedule.exponential(1e-300, 0.0, 1e200)
    assert [e.forward_at(t) for t in range(2)] == [1e-300, 1e-300 * 1e200]
    assert e.forward_at(2) == pytest.approx(1e100, rel=1e-15)
    assert e.forward_at(3) == pytest.approx(1e300, rel=1e-15)
    assert e.forward_at(4) == e.forward_at(10**9) == math.inf
    assert [e.backward_at(t) for t in (0, 2, 4, 10**9)] == [0.0] * 4
    g = FlowSchedule.exponential(2.0, 3.0, 1.1)
    for t in range(0, 10_000, 7):
        try:
            want = (2.0 * 1.1**t, 3.0 * 1.1**t)
        except OverflowError:
            want = (math.inf, math.inf)
        assert (g.forward_at(t), g.backward_at(t)) == want


@pytest.mark.parametrize(
    "make",
    [
        lambda: FlowSchedule.constant(math.nan, 1.0),
        lambda: FlowSchedule.constant(1.0, math.nan),
        lambda: FlowSchedule.constant(math.inf, 1.0),
        lambda: FlowSchedule.constant(1.0, math.inf),
        lambda: FlowSchedule.linear(1.0, 1.0, math.inf),
        lambda: FlowSchedule.linear(1.0, 1.0, math.nan),
        lambda: FlowSchedule.exponential(1.0, 1.0, math.inf),
        lambda: FlowSchedule("constant", 1.0, 1.0, math.nan),
    ],
)
def test_schedule_rejects_non_finite(make):
    """NaN passes a ``<= 0`` test: a non-finite schedule used to be
    accepted and abort the run at t = 1."""
    with pytest.raises(ConfigError, match="finite"):
        make()


@pytest.mark.parametrize(
    "init", [math.nan, math.inf, [1.0, math.inf, 1.0, 1.0, 1.0], [math.nan, 1.0, 1.0, 1.0, 1.0]]
)
def test_init_state_rejects_non_finite_pheromone(init):
    """Rejected before the first split, which warned on NaN."""
    tp = two_path_23()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="initial pheromone must be finite"):
            init_state(tp.graph, init, FlowSchedule.constant(1.0, 1.0))


def test_engine_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(delta=1.0)
    # NaN would pass a ``< 0`` test and turn the flush off
    for threshold in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="underflow threshold"):
            EngineConfig(delta=0.5, underflow_threshold=threshold)
    with pytest.raises(ConfigError):
        EngineConfig(delta=0.5, rescale_mode="sometimes")


# -- init ----------------------------------------------------------------------


def test_init_symmetric_split():
    tp = two_path_23()
    st = init_state(tp.graph, 1.0, FlowSchedule.constant(1.0, 1.0))
    (s_top, d_top), (s_bottom, d_bottom) = tp.branch_eids("top"), tp.branch_eids("bottom")
    assert st.f_edge[s_top] == pytest.approx(0.5)
    assert st.f_edge[s_bottom] == pytest.approx(0.5)
    assert st.b_edge[d_top] == pytest.approx(0.5)
    assert st.b_edge[d_bottom] == pytest.approx(0.5)
    assert st.t == 0


def test_init_uniform_in_range():
    tp = two_path_23()
    p0 = np.random.default_rng(42).uniform(0.0, 1.0, tp.graph.n_edges)
    st = init_state(tp.graph, p0, FlowSchedule.constant(1, 1))
    assert np.all(st.p > 0.0) and np.all(st.p < 1.0)


def test_init_strict_warns_on_zero_target_pheromone():
    tp = two_path_23(leak_top=0.0, leak2=0.1)
    p = np.ones(tp.graph.n_edges)
    p[tp.branch_eids("top")[0]] = 0.0  # zero on the min-leakage path
    st = init_state(tp.graph, p, FlowSchedule.constant(1, 1), strict=True)
    assert st.warnings and "zero initial pheromone" in st.warnings[0]
    with pytest.raises(ConfigError):
        init_state(tp.graph, -1.0, FlowSchedule.constant(1, 1))


# -- single step ----------------------------------------------------------------


def test_step_one_step_hand_value():
    tp = two_path_23()
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(tp.graph, 1.0, sched)
    st1 = step(st, tp.graph, LIN, sched, EngineConfig(delta=0.5))
    # delta * (p + f + b) = 0.5 * (1 + 0.5 + 0)
    assert st1.p[tp.branch_eids("top")[0]] == pytest.approx(0.75)
    assert st1.t == 1


def test_step_flow_free_edges_decay():
    tp = two_path_23()
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(tp.graph, 1.0, sched)
    st1 = step(st, tp.graph, LIN, sched, EngineConfig(delta=0.5))
    # interior edges carry no flow at t=0, so p(1) = delta * p(0) there
    interior = tp.path_eids("bottom")[1]
    assert st1.p[interior] == pytest.approx(0.5)


def test_step_absorbing_interior_blocks_flow():
    g = DirectedGraph(3, [(0, 1), (1, 2)], 0, 2, [0.0, 1.0, 0.0])
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(g, 1.0, sched)
    cfg = EngineConfig(delta=0.5)
    for _ in range(6):
        st = step(st, g, LIN, sched, cfg)
    assert st.f_edge[g.edge_ids([(1, 2)])[0]] == 0.0
    assert st.delivered_forward == 0.0


def test_step_matches_reference_implementation():
    """Engine vs an independent dict-based implementation of the equations."""
    for seed in range(12):
        rng = np.random.default_rng([seed, 5])
        n = int(rng.integers(4, 12))
        g = gen_gnp(n, 0.45, seed)
        lk = rng.uniform(0.0, 0.9, n)
        lk[g.source] = 0.0
        lk[g.destination] = 0.0
        g = g.with_leakage(lk)
        sched = FlowSchedule.constant(float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5)))
        delta = float(rng.uniform(0.1, 0.9))
        cfg = EngineConfig(delta=delta, underflow_threshold=0.0)
        st = init_state(g, np.random.default_rng(seed).uniform(0.1, 1.0, g.n_edges), sched)
        edges = edge_tuple(g)
        eids = g.edge_ids(edges).tolist()
        p = {e: float(st.p[eid]) for e, eid in zip(edges, eids)}
        fe = {e: float(st.f_edge[eid]) for e, eid in zip(edges, eids)}
        be = {e: float(st.b_edge[eid]) for e, eid in zip(edges, eids)}
        for t in range(20):
            st = step(st, g, LIN, sched, cfg)
            p, fe, be, fv, bv, df, db = equation_step(g, p, fe, be, delta, sched, t)
            for e, eid in zip(edges, eids):
                for got, want in (
                    (st.p[eid], p[e]),
                    (st.f_edge[eid], fe[e]),
                    (st.b_edge[eid], be[e]),
                ):
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_step_conservation_and_recurrence_properties():
    """Flow conservation, split consistency, pheromone recurrence at 1e-12."""
    rng = np.random.default_rng(9)
    g = gen_gnp(15, 0.3, 3)
    lk = rng.uniform(0.0, 0.8, 15)
    lk[g.source] = lk[g.destination] = 0.0
    g = g.with_leakage(lk)
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.4)
    ga = g.arrays
    st = init_state(g, np.random.default_rng(1).uniform(0.1, 1.0, g.n_edges), sched)
    for _ in range(30):
        prev = st
        st = step(st, g, LIN, sched, cfg)
        # recurrence
        want = cfg.delta * (prev.p + prev.f_edge + prev.b_edge)
        assert np.allclose(st.p, want, rtol=1e-12, atol=0)
        # conservation at interior vertices
        arr = np.bincount(ga.heads, weights=prev.f_edge, minlength=ga.n)
        expect = g.survival * arr
        mask = np.ones(ga.n, bool)
        mask[[g.source, g.destination]] = False
        assert np.allclose(st.f_vertex[mask], expect[mask], rtol=1e-12, atol=1e-300)
        # split consistency
        out_sum = np.bincount(ga.tails, weights=st.f_edge, minlength=ga.n)
        has_out = ga.out_deg > 0
        assert np.allclose(out_sum[has_out], st.f_vertex[has_out], rtol=1e-12, atol=1e-300)
        assert np.all(st.p >= 0) and np.all(st.f_edge >= 0) and np.all(st.b_edge >= 0)


def test_delivered_flow_accounting():
    tp = two_path_23()
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5)
    st = init_state(tp.graph, 1.0, sched)
    for _ in range(200):
        st = step(st, tp.graph, LIN, sched, cfg)
    # zero leakage: all injected flow eventually exits; in-flight is bounded
    assert st.delivered_forward == pytest.approx(st.delivered_backward, rel=1e-9)
    assert 195 <= st.delivered_forward <= 200


def test_zero_total_pheromone_splits_uniformly_and_flags():
    tp = two_path_23()
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(tp.graph, 0.0, sched)
    # degenerate config: all-zero pheromone at the branch points
    s_top, s_bottom = tp.branch_eids("top")[0], tp.branch_eids("bottom")[0]
    assert st.f_edge[s_top] == pytest.approx(0.5)
    assert st.f_edge[s_bottom] == pytest.approx(0.5)
    assert st.zero_split_events >= 2  # forward at s and backward at d


def test_step_abort_on_nan():
    tp = two_path_23()
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(tp.graph, 1.0, sched)
    st.p[0] = math.nan
    with pytest.raises(EngineAbort):
        step(st, tp.graph, LIN, sched, EngineConfig(delta=0.5))
    st2 = init_state(tp.graph, 1.0, sched)
    st2.p[0] = math.nan
    trace = run(st2, tp.graph, LIN, sched, EngineConfig(delta=0.5), 10)
    assert trace.stop_reason == "aborted"
    assert trace.failure_t == 1 and "pheromone" in trace.failure


# edges e0=(0,1), e1=(0,2), e2=(1,3), e3=(1,2), e4=(2,3): vertex 1 has two
# out-edges and vertex 2 two in-edges, both interior
BUFFER_EDGES = [(0, 1), (0, 2), (1, 3), (1, 2), (2, 3)]


def _buffer_state(leakage=None):
    g = DirectedGraph(4, BUFFER_EDGES, 0, 3, leakage)
    sched = FlowSchedule.constant(1.0, 1.0)
    return g, sched, init_state(g, 1.0, sched)


def test_step_flushes_sub_threshold_values_in_p_and_vertex_flows():
    g, sched, st = _buffer_state()
    st.p[:] = [1.0, 1.0, -1.0, 1e-305, 1.0]  # p(t+1): e2 negative, e3 tiny
    st.f_edge[:] = [1e-305, -1e-3, 0.0, 0.0, 0.0]  # f_vertex: 1 tiny, 2 negative
    st.b_edge[:] = [0.0, 0.0, 1e-305, 0.0, -1e-3]  # b_vertex: 1 tiny, 2 negative
    kept = step(st, g, LIN, sched, EngineConfig(delta=0.5, underflow_threshold=0.0))
    out = step(st, g, LIN, sched, EngineConfig(delta=0.5))
    assert out.underflow_flushes - st.underflow_flushes == 6
    for name, zeroed in (("p", [2, 3]), ("f_vertex", [1, 2]), ("b_vertex", [1, 2])):
        expect = getattr(kept, name).copy()
        assert np.all((expect[zeroed] != 0.0) & (expect[zeroed] < 1e-300))
        expect[zeroed] = 0.0
        np.testing.assert_array_equal(getattr(out, name), expect)


@pytest.mark.parametrize(
    "where, value, detail",
    [
        ("p", math.nan, "non-finite pheromone at index 0"),
        ("p", math.inf, "non-finite pheromone at index 0"),
        ("f_vertex", math.nan, "non-finite forward vertex flow at index 2"),
        ("f_vertex", math.inf, "non-finite forward vertex flow at index 2"),
        ("b_vertex", math.nan, "non-finite backward vertex flow at index 1"),
        ("b_vertex", math.inf, "non-finite backward vertex flow at index 1"),
    ],
)
def test_step_abort_names_the_nonfinite_array(where, value, detail):
    # two finite edge flows overflow in the vertex sum; a vertex with
    # leakage 1 turns that inf into 0 * inf = NaN
    absorbing = {"f_vertex": {2: 1.0}, "b_vertex": {1: 1.0}}.get(where)
    g, sched, st = _buffer_state(absorbing if math.isnan(value) else None)
    if where == "p":
        st.p[0] = value
    elif where == "f_vertex":
        st.f_edge[[1, 3]] = 1e308
    else:
        st.b_edge[[2, 3]] = 1e308
    with pytest.raises(EngineAbort) as exc, np.errstate(over="ignore", invalid="ignore"):
        step(st, g, LIN, sched, EngineConfig(delta=0.5))
    assert exc.value.t == 1 and exc.value.detail == detail


@pytest.mark.parametrize("where, index", [("p", 0), ("f_edge", 3), ("b_edge", 2)])
def test_step_abort_on_negative_inf(where, index):
    # -inf is not an underflow: it aborts as +inf does; the edge flow reaches
    # the pheromone of its edge first
    details = []
    for value in (math.inf, -math.inf):
        g, sched, st = _buffer_state()
        getattr(st, where)[index] = value
        with pytest.raises(EngineAbort) as exc:
            step(st, g, LIN, sched, EngineConfig(delta=0.5))
        details.append((exc.value.t, exc.value.detail))
    assert details == [(1, f"non-finite pheromone at index {index}")] * 2


def test_stepped_state_arrays_are_independent():
    tp = two_path_23(0.1, 0.2)
    sched = FlowSchedule.exponential(1.0, 0.5, 1.1)
    cfg = EngineConfig(delta=0.5, rescale_mode=RESCALE_BY_SOURCE)
    st1 = step(init_state(tp.graph, 1.0, sched), tp.graph, LIN, sched, cfg)
    st2 = step(st1, tp.graph, LIN, sched, cfg)
    before1, before2 = st1.copy(), st2.copy()
    st2.p[:] = 7.0
    for name in ("f_edge", "b_edge", "f_vertex", "b_vertex"):
        np.testing.assert_array_equal(getattr(st2, name), getattr(before2, name))
    for name in ("p", "f_edge", "b_edge", "f_vertex", "b_vertex"):
        np.testing.assert_array_equal(getattr(st1, name), getattr(before1, name))


def test_determinism():
    g = gen_gnp(20, 0.2, 4).with_leakage(np.linspace(0, 0.5, 20))
    sched = FlowSchedule.constant(1.0, 0.7)
    cfg = EngineConfig(delta=0.6)
    runs = []
    for _ in range(2):
        st = init_state(g, np.random.default_rng(8).uniform(0.0, 1.0, g.n_edges), sched)
        for _ in range(50):
            st = step(st, g, LIN, sched, cfg)
        runs.append(st)
    assert np.array_equal(runs[0].p, runs[1].p)
    assert np.array_equal(runs[0].f_edge, runs[1].f_edge)


def test_linear_scale_invariance_of_normalized_trajectory():
    """Scaling initial pheromone and injections by a common c > 0 leaves the
    normalized-pheromone trajectory unchanged (the homogeneity the rescaling
    protocol relies on; pheromone-only scaling is not invariant because the
    update mixes pheromone with unscaled flows)."""
    tp = two_path_23(0.03, 0.02, 0.02)
    c = 3.7
    sched_a = FlowSchedule.constant(1.0, 1.0)
    sched_b = FlowSchedule.constant(c, c)
    cfg = EngineConfig(delta=0.5)
    a = init_state(tp.graph, 1.0, sched_a)
    b = init_state(tp.graph, c, sched_b)
    worst = 0.0
    for _ in range(300):
        a = step(a, tp.graph, LIN, sched_a, cfg)
        b = step(b, tp.graph, LIN, sched_b, cfg)
        na, nb = normalized_levels(a, tp.graph), normalized_levels(b, tp.graph)
        worst = max(worst, float(np.nanmax(np.abs(na.fwd - nb.fwd))))
    assert worst <= 1e-9


def _level_rows(graph, rule, schedule, state, T):
    """The forward and backward normalized levels of every state of a run,
    the initial one first, as rows."""
    rows = []

    def record(t, st, prev):
        levels = normalized_levels(st, graph)
        rows.append(np.concatenate((levels.fwd, levels.bwd)))

    trace = run(state, graph, rule, schedule, EngineConfig(delta=0.5), T, [record])
    assert trace.failure is None and len(rows) == T + 1
    return np.array(rows)


def _scaling_cases():
    tp = two_path_23(0.03, 0.02, 0.02)
    grid = gen_grid(10, 10)
    rng = np.random.default_rng(32)
    return [
        (tp.graph, rng.uniform(0.2, 2.0, tp.graph.n_edges)),
        (grid, rng.uniform(0.2, 2.0, grid.n_edges)),
    ]


@pytest.mark.parametrize("rule", [power_rule(2), power_rule(0.5), sine_rule(0.05)])
def test_general_rule_joint_scale_invariance(rule):
    """The general rule reads only normalized levels: scaling the initial
    pheromone and both injections by a common c > 0 leaves every forward
    and backward level of the trajectory unchanged to 1e-9, on two paths
    and on a 10x10 grid, as the linear rule's does (A8). Rescaling by the
    source stays restricted to the linear rule (``validate_run_setup``)."""
    c = 3.7
    decision = DecisionRule.general(rule)
    for graph, p0 in _scaling_cases():
        rows = []
        for scale in (1.0, c):
            sched = FlowSchedule.constant(scale, scale)
            state = init_state(graph, scale * p0, sched, decision)
            rows.append(_level_rows(graph, decision, sched, state, 300))
        a, b = rows
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert float(np.nanmax(np.abs(a - b))) <= 1e-9


@pytest.mark.parametrize(
    "schedule", [FlowSchedule.constant(1.0, 0.0), FlowSchedule.exponential(1.0, 0.0, 1.1)]
)
def test_unidirectional_linear_flow_keeps_every_forward_level(schedule):
    """With no backward injection the update is p' = delta (p + f_e) and the
    linear rule sends f_e = F_v p_e / sum_v p, so every edge at a vertex
    grows by one factor: each forward level p_e / sum_v p stays where it
    started, to 1e-12 over 300 steps, on the swap graph and on leaky
    G(100, .1) graphs."""
    graphs = [two_path_23().graph]
    for seed in (1, 2, 3):
        g = gen_gnp(100, 0.1, seed)
        graphs.append(g.with_leakage(np.random.default_rng(seed).uniform(0.0, 0.3, g.n_vertices)))
    for graph in graphs:
        p0 = np.random.default_rng(graph.n_edges).uniform(0.1, 1.0, graph.n_edges)
        rows = _level_rows(graph, LIN, schedule, init_state(graph, p0, schedule), 300)
        fwd = rows[:, : graph.n_edges]
        assert not np.isnan(fwd).any()
        assert float(np.max(np.abs(fwd - fwd[0]))) <= 1e-12


def test_general_rule_matches_linear_when_g_is_identity():
    tp = two_path_23(0.05, 0.1, 0.0)
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5)
    p0 = np.random.default_rng(3).uniform(0.2, 1.0, tp.graph.n_edges)
    a = init_state(tp.graph, p0, sched, DecisionRule.linear())
    b = init_state(tp.graph, p0, sched, DecisionRule.general(linear_rule()))
    for _ in range(50):
        a = step(a, tp.graph, DecisionRule.linear(), sched, cfg)
        b = step(b, tp.graph, DecisionRule.general(linear_rule()), sched, cfg)
    assert np.allclose(a.f_edge, b.f_edge, rtol=1e-12, atol=0)
    assert np.allclose(a.p, b.p, rtol=1e-12, atol=0)


def test_general_rule_requires_two_path():
    g = gen_gnp(8, 0.6, 1)
    sched = FlowSchedule.constant(1.0, 1.0)
    with pytest.raises(GraphError):
        run(
            init_state(g, 1.0, sched),
            g,
            DecisionRule.general(power_rule(2)),
            sched,
            EngineConfig(delta=0.5),
            5,
        )
    with pytest.raises(GraphError):
        init_state(g, 1.0, sched, DecisionRule.general(power_rule(2)))


@pytest.mark.parametrize(
    "edges, named",
    [
        # vertex 1 branches three ways (and 4 gathers three in-edges)
        ([(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)], "vertex 1 has out-degree 3"),
        # every out-degree is at most 2, but 3 gathers three in-edges
        ([(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (4, 3), (3, 5)], "vertex 3 has in-degree 3"),
    ],
)
def test_general_rule_names_a_vertex_with_three_edges(edges, named):
    g = DirectedGraph(max(max(e) for e in edges) + 1, edges, 0, edges[-1][1])
    sched = FlowSchedule.constant(1.0, 1.0)
    rule = DecisionRule.general(power_rule(2))
    with pytest.raises(GraphError, match=named):
        init_state(g, 1.0, sched, rule)
    with pytest.raises(GraphError, match=named):
        run(init_state(g, 1.0, sched), g, rule, sched, EngineConfig(delta=0.5), 5)


@pytest.mark.parametrize("rule", [power_rule(2), power_rule(0.5), sine_rule(0.05)])
@pytest.mark.parametrize("leaky", [False, True])
@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (4, 7)])
def test_general_split_matches_degree_scan_reference(m, n, leaky, rule):
    rng = np.random.default_rng([m, n, int(leaky)])
    high = 0.3 if leaky else 0.0
    tp = build_two_path(m, n, rng.uniform(0.0, high, m - 1), rng.uniform(0.0, high, n - 1))
    g, ga, decision = tp.graph, tp.graph.arrays, DecisionRule.general(rule)
    base = rng.uniform(0.1, 1.0, ga.m)
    pheromones = [base]
    # zero pheromone on one branch edge, then on both branch edges of an end
    (s_top, d_top), (s_bottom, d_bottom) = tp.branch_eids("top"), tp.branch_eids("bottom")
    for zeroed in ([s_top], [d_bottom], [s_top, s_bottom], [d_top, d_bottom]):
        p = base.copy()
        p[zeroed] = 0.0
        pheromones.append(p)
    flows = rng.uniform(0.1, 1.0, ga.n)
    idle_ends = flows.copy()
    idle_ends[[g.source, g.destination]] = 0.0
    for p in pheromones:
        for vflow in (flows, idle_ends):
            got_f, got_b, z_got = engine_split(ga, decision, p, vflow, vflow)
            want_f, z_f = reference_general_split(g, decision, p, vflow, True)
            want_b, z_b = reference_general_split(g, decision, p, vflow, False)
            assert got_f.tobytes() == want_f.tobytes()
            assert got_b.tobytes() == want_b.tobytes()
            assert z_got == z_f + z_b


# -- segment-sum kernel vs a bincount reference -----------------------------------


def test_linear_split_matches_bincount_reference():
    for g, p0 in kernel_graphs():
        ga = g.arrays
        rng = np.random.default_rng(g.n_edges)
        p = p0 * rng.uniform(0.5, 2.0, g.n_edges)
        vflow = rng.uniform(0.0, 1.0, ga.n)
        for forward in (True, False):
            got, z_got = linear_split(ga, p, vflow, forward)
            want, z_want = bincount_split(ga, p, vflow, forward)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            assert z_got == z_want


def test_step_matches_bincount_reference():
    sched = FlowSchedule.constant(0.8, 0.6)
    for g, p0 in kernel_graphs():
        st = init_state(g, p0, sched)
        for _ in range(25):
            p, fe, be, fv, bv, zeros = bincount_step(st, g, sched, 0.7)
            prev_zeros = st.zero_split_events
            st = step(st, g, LIN, sched, EngineConfig(delta=0.7))
            for got, want in (
                (st.p, p),
                (st.f_edge, fe),
                (st.b_edge, be),
                (st.f_vertex, fv),
                (st.b_vertex, bv),
            ):
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            assert st.zero_split_events - prev_zeros == zeros
            assert st.underflow_flushes == 0


def test_zero_total_split_counts_match_bincount_reference():
    g, p0 = kernel_graphs()[-1]
    ga = g.arrays
    vflow = np.array([1.0, 0.5, 0.0, 0.0])
    got, z_got = linear_split(ga, p0, vflow, True)
    want, z_want = bincount_split(ga, p0, vflow, True)
    np.testing.assert_array_equal(got, want)
    assert z_got == z_want == 1
    # vertex 1 splits its flow evenly over its two out-edges
    assert got[g.edge_ids([(1, 3), (1, 2)])].tolist() == [0.25, 0.25]
    vflow[1] = 0.0
    assert linear_split(ga, p0, vflow, True)[1] == bincount_split(ga, p0, vflow, True)[1] == 0


def _flowless_state(g, p0, sched):
    """t=0 state with pheromone ``p0`` (keyed by edge), no edge flow and the
    schedule's injections at s and d."""
    n = g.n_vertices
    fv, bv = np.zeros(n), np.zeros(n)
    fv[g.source], bv[g.destination] = sched.f0, sched.b0
    p = np.array([p0[e] for e in edge_tuple(g)])
    zero = np.zeros(g.n_edges)
    return SystemState(0, p, zero, zero.copy(), fv, bv, injected_f=sched.f0, injected_b=sched.b0)


def test_step_through_subnormal_total_matches_bincount_reference():
    """With the flush off, the source and the destination each split unit
    flow over a subnormal pheromone total. flow / total overflows there, so
    those vertices split per edge; nothing aborts and the flows stay finite."""
    g = DirectedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
    ga = g.arrays
    ulp = 5e-324  # the smallest subnormal; delta = 0.5 halves these exactly
    p0 = {(0, 1): 6 * ulp, (0, 2): 2 * ulp, (1, 3): 6 * ulp, (2, 3): 2 * ulp}
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5, underflow_threshold=0.0)
    st = step(_flowless_state(g, p0, sched), g, LIN, sched, cfg)
    s_1, one_d = g.edge_ids([(0, 1), (1, 3)])
    assert 0.0 < st.p[s_1] < np.finfo(float).tiny
    for got, vflow, forward in ((st.f_edge, st.f_vertex, True), (st.b_edge, st.b_vertex, False)):
        want, zeros = bincount_split(ga, st.p, vflow, forward)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert zeros == 0
    assert st.f_edge[s_1] == st.b_edge[one_d] == 0.75
    assert st.zero_split_events == 0
    st = step(st, g, LIN, sched, cfg)
    assert np.isfinite(st.f_edge).all() and np.isfinite(st.b_edge).all()


def test_step_large_flow_over_small_total_matches_bincount_reference():
    """With the default flush, totals of 4e-300 under flows of 1e10: the
    state's values sum far above what bounds every ratio, so those vertices
    still split per edge, and flow / total (2.5e309) never overflows."""
    g = DirectedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
    p0 = {e: 4e-300 for e in edge_tuple(g)}
    sched = FlowSchedule.constant(1e10, 1e10)
    st = step(_flowless_state(g, p0, sched), g, LIN, sched, EngineConfig(delta=0.5))
    s_1, one_d = g.edge_ids([(0, 1), (1, 3)])
    assert st.underflow_flushes == 0
    for got, vflow, forward in ((st.f_edge, st.f_vertex, True), (st.b_edge, st.b_vertex, False)):
        want, _ = bincount_split(g.arrays, st.p, vflow, forward)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert st.f_edge[s_1] == st.b_edge[one_d] == 5e9


def test_zero_total_vertices_match_bincount_reference():
    """A G(n, p) whose chosen vertices carry no pheromone on their out-edges
    or in-edges: those with flow split it evenly and are counted, those
    without send nothing; the normalized levels there are NaN."""
    g = gen_gnp(80, 0.1, 5)
    ga = g.arrays
    rng = np.random.default_rng(5)
    p = rng.uniform(0.1, 1.0, ga.m)
    empty = np.arange(0, 80, 4)
    p[np.isin(ga.tails, empty) | np.isin(ga.heads, empty)] = 0.0
    vflow = rng.uniform(0.1, 1.0, ga.n)
    vflow[empty[::2]] = 0.0
    for forward in (True, False):
        got, z_got = linear_split(ga, p, vflow, forward)
        want, z_want = bincount_split(ga, p, vflow, forward)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        deg = ga.out_deg if forward else ga.in_deg
        assert z_got == z_want == np.count_nonzero(deg[empty[1::2]])
    levels = normalized_levels(init_state(g, p, FlowSchedule.constant(1.0, 1.0)), g)
    fwd, bwd = bincount_levels(ga, p)
    np.testing.assert_allclose(levels.fwd, fwd, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(levels.bwd, bwd, rtol=1e-13, atol=0.0)
    assert np.isnan(levels.fwd).any() and np.isnan(levels.bwd).any()


def test_forward_repeat_split_equals_gather_form():
    """On tail-sorted G(n, p) graphs the reference split groups only the
    vertices with edges and lays out each forward ratio with ``np.repeat``
    (``helpers._reference_split_linear``); the engine's split of either
    direction, which totals every vertex (1.0 at one with no edge to split
    over) and gathers by tail or head, gives its floats bit for bit, on the
    fast path and with zero-total vertices, with and without flow.
    G(80, .03) has vertices with no out-edges and vertices with no in-edges;
    a flow of 1e300 on those fails the ratio test, which no edge reads."""
    for g in (gen_gnp(80, 0.1, 6), gen_gnp(80, 0.03, 6)):
        ga = g.arrays
        assert ga.tail_sorted and not ga.out_by_bincount
        rng = np.random.default_rng(6)
        p = rng.uniform(0.1, 1.0, ga.m)
        vflow = rng.uniform(0.1, 1.0, ga.n)
        empty = np.arange(1, 80, 3)
        for forward, ends, deg in ((True, ga.tails, ga.out_deg), (False, ga.heads, ga.in_deg)):
            empty_p = p.copy()
            empty_p[np.isin(ends, empty)] = 0.0
            vflow_idle = vflow.copy()
            vflow_idle[empty[::2]] = 0.0
            vflow_dead = vflow.copy()
            vflow_dead[deg == 0] = 1e300
            cases = ((p, vflow), (empty_p, vflow), (empty_p, vflow_idle), (p, vflow_dead))
            for pher, flow in cases:
                for bounded in (False, True):
                    got, z_got = linear_split(ga, pher, flow, forward, bounded)
                    want, z_want = _reference_split_linear(ga, pher, flow, forward, bounded)
                    assert got.tobytes() == want.tobytes()
                    assert z_got == z_want
            assert linear_split(ga, empty_p, vflow, forward)[1] == np.count_nonzero(deg[empty])
    assert ga.no_out.size and ga.no_in.size


def test_linear_split_fast_path_sets_no_error_state(monkeypatch):
    """On a planted grid with positive totals no split or monitor call
    enters ``np.errstate`` or warns: the one ``np.errstate`` entered is the
    run's, around its whole stepping loop."""
    entered = []
    real_errstate = np.errstate

    def errstate(**kwargs):
        entered.append(kwargs)
        return real_errstate(**kwargs)

    g, _ = plant_path(gen_grid(10, 10), 9)
    sched = FlowSchedule.exponential(1.0, 1.0, 1.1)
    cfg = EngineConfig(delta=0.5, rescale_mode=RESCALE_BY_SOURCE, epsilon_convergence=0.01)
    state = init_state(g, 1.0, sched)
    monkeypatch.setattr(np, "errstate", errstate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(state, g, LIN, sched, cfg, 200, [InvariantObserver(g, cfg, sched)])
    assert trace.failure is None and trace.final_state.zero_split_events == 0
    assert entered == [{"over": "ignore"}]


# -- rescale and underflow -------------------------------------------------------


def test_rescale_preserves_normalized_levels():
    """The rescale inside ``step`` divides every stored magnitude by the
    growth factor and leaves the normalized levels as they are."""
    tp = two_path_23()
    sched = FlowSchedule.exponential(1.0, 1.0, 1.1)
    p0 = np.random.default_rng(2).uniform(0.5, 1.5, tp.graph.n_edges)
    st = init_state(tp.graph, p0, sched)
    plain = step(st, tp.graph, LIN, sched, EngineConfig(delta=0.5))
    scaled = step(st, tp.graph, LIN, sched,
                  EngineConfig(delta=0.5, rescale_mode=RESCALE_BY_SOURCE))
    for name in ("p", "f_edge", "b_edge", "f_vertex", "b_vertex"):
        np.testing.assert_allclose(getattr(scaled, name) * 1.1, getattr(plain, name), rtol=1e-15)
    before = normalized_levels(plain, tp.graph)
    after = normalized_levels(scaled, tp.graph)
    assert np.nanmax(np.abs(before.fwd - after.fwd)) <= 1e-12
    assert np.nanmax(np.abs(before.bwd - after.bwd)) <= 1e-12
    assert (scaled.injected_f, scaled.injected_b) == (1.0, 1.0)  # base magnitude


def test_rescaled_run_equals_plain_exponential_run():
    """Side-by-side trajectories agree in normalized pheromone to 1e-9."""
    tp = two_path_23()
    g = tp.graph
    sched = FlowSchedule.exponential(1.0, 1.0, 1.1)
    plain = init_state(g, 1.0, sched)
    scaled = init_state(g, 1.0, sched)
    cfg_plain = EngineConfig(delta=0.5)
    cfg_scaled = EngineConfig(delta=0.5, rescale_mode=RESCALE_BY_SOURCE)
    worst = 0.0
    for _ in range(200):
        plain = step(plain, g, LIN, sched, cfg_plain)
        scaled = step(scaled, g, LIN, sched, cfg_scaled)
        na, nb = normalized_levels(plain, g), normalized_levels(scaled, g)
        worst = max(worst, float(np.nanmax(np.abs(na.fwd - nb.fwd))))
    assert worst <= 1e-9
    # stored magnitudes stay bounded under rescaling
    assert plain.p.max() > 1e7
    assert scaled.p.max() < 1e2


def test_rescale_mode_validation():
    tp = two_path_23()
    sched_const = FlowSchedule.constant(1.0, 1.0)
    st = init_state(tp.graph, 1.0, sched_const)
    with pytest.raises(ConfigError):
        run(st, tp.graph, LIN, sched_const,
            EngineConfig(delta=0.5, rescale_mode=RESCALE_BY_SOURCE), 5)
    sched_exp = FlowSchedule.exponential(1.0, 1.0, 1.1)
    st2 = init_state(tp.graph, 1.0, sched_exp, DecisionRule.general(linear_rule()))
    with pytest.raises(ConfigError):
        run(st2, tp.graph, DecisionRule.general(linear_rule()), sched_exp,
            EngineConfig(delta=0.5, rescale_mode=RESCALE_BY_SOURCE), 5)


def test_flush_underflow():
    x = np.array([1e-310, -1e-3, 0.0, 1.0, 1e-300, math.nan])
    kept = x.copy()
    assert _flush(kept, 0.0) == 0  # a zero threshold turns the flush off
    np.testing.assert_array_equal(kept, x)
    assert _flush(x, 1e-300) == 2
    np.testing.assert_array_equal(x, [0.0, 0.0, 0.0, 1.0, 1e-300, math.nan])


@pytest.mark.parametrize(
    "size",
    [12, _FLUSH_IN_PYTHON_MAX, _FLUSH_IN_PYTHON_MAX + 1, 800, 102_000],
)
def test_flush_zeroes_negatives_and_leaves_negative_zero(size):
    """The array flush, which ``step`` takes above _FLUSH_IN_PYTHON_MAX
    entries, at two-path sizes, on both sides of that bound, and at grid
    and G(1000, .1) sizes: sub-threshold and negative entries become 0.0 and
    are counted; -0.0 keeps its bytes and is not counted; NaN is neither.
    The flush on Python floats, which ``step`` takes up to that bound, is
    checked against the reference step (``test_state_buffer.FUSED``)."""
    x = np.ones(size)
    x[:7] = [1e-310, -1e-3, -0.0, 0.0, 1e-300, -math.inf, math.nan]
    want = x.copy()
    want[[0, 1, 5]] = 0.0
    assert _flush(x, 1e-300) == 3
    assert x.tobytes() == want.tobytes()


def test_long_exponential_run_flushes_losing_branch():
    tp = two_path_23()
    sched = FlowSchedule.exponential(1.0, 1.0, 1.5)
    cfg = EngineConfig(delta=0.5, rescale_mode=RESCALE_BY_SOURCE)
    st = init_state(tp.graph, 1.0, sched)
    for _ in range(11_000):
        st = step(st, tp.graph, LIN, sched, cfg)
    assert st.p[tp.branch_eids("bottom")[0]] == 0.0  # flushed to exactly zero
    assert st.underflow_flushes > 0
    assert st.p[tp.branch_eids("top")[0]] > 0.0


# -- run loop ---------------------------------------------------------------------


def test_run_validates_horizon():
    tp = two_path_23()
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(tp.graph, 1.0, sched)
    with pytest.raises(ConfigError):
        run(st, tp.graph, LIN, sched, EngineConfig(delta=0.5), 0)


def test_run_observer_contract():
    tp = two_path_23()
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(tp.graph, 1.0, sched)
    seen = []

    def obs(t, state, prev):
        seen.append((t, prev is None))

    run(st, tp.graph, LIN, sched, EngineConfig(delta=0.5), 100, observers=[obs])
    assert seen[0] == (0, True)
    assert seen[1:] == [(t, False) for t in range(1, 101)]


class _ArrayRecorder:
    """Records, for every call, t and the bytes of every array the observer
    is shown."""

    def __init__(self):
        self.rows = []

    def __call__(self, t, state, prev):
        arrays = (state.p, state.f_edge, state.b_edge, state.f_vertex, state.b_vertex)
        self.rows.append((t, prev is None, *(a.tobytes() for a in arrays)))


def _records(obs):
    if isinstance(obs, BranchLevelObserver):
        return [x.hex() for x in obs.norm_s + obs.norm_d]
    if isinstance(obs, FlowBoundObserver):
        return obs.count, obs.first
    return obs.violations if hasattr(obs, "violations") else obs.rows


def _a5_case():
    tp = two_path_23()
    cx = leakage_counterexample(
        power_rule(2), tp, 1.0, 1.0, r=0.25, eps=0.1, surv_top=0.97, surv_bottom=0.95
    )
    cfg = EngineConfig(delta=0.5)

    def observers():
        return [
            BranchLevelObserver(tp, cx.watch_branch),
            FlowBoundObserver(tp, cx.schedule, cx.watch_branch, cx.config.bound, cx.direction),
            InvariantObserver(tp.graph, cfg, cx.schedule),
            # the bound's other direction: it records violations on every step
            FlowBoundObserver(tp, cx.schedule, cx.watch_branch, cx.config.bound, AT_LEAST),
            # checks a different decay, so it records violations on every step
            InvariantObserver(tp.graph, EngineConfig(delta=0.6), cx.schedule),
        ]

    rule = DecisionRule.general(cx.rule_fn)
    return cx.state, tp.graph, rule, cx.schedule, cfg, 3000, observers


def _linear_equilibrium_case():
    tp = build_two_path(2, 2, [0.0], [0.0])
    st = equilibrium_state(tp, linear_rule(), 0.0, 1.0, 1.0, 0.5)
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5, epsilon_convergence=0.01)
    return st, tp.graph, LIN, sched, cfg, 1000, lambda: [_ArrayRecorder()]


def _linear_schedule_case():
    tp = two_path_23()
    sched = FlowSchedule.linear(1.0, 1.0, 0.5)
    cfg = EngineConfig(delta=0.5)

    def observers():
        return [_ArrayRecorder(), InvariantObserver(tp.graph, cfg, sched)]

    return init_state(tp.graph, 1.0, sched), tp.graph, LIN, sched, cfg, 300, observers


def _flushing_case():
    # a threshold above the vertex flows flushes entries and leaves vertices
    # without pheromone on every step, stationary state included
    tp = two_path_23()
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5, underflow_threshold=0.9)
    st = init_state(tp.graph, 1.0, sched)
    return st, tp.graph, LIN, sched, cfg, 300, lambda: [_ArrayRecorder()]


def _leaky_case():
    # the flushed bottom path carries nothing, so each step delivers the top
    # path's survival, 0.9: a sum that k * 0.9 does not round the same way
    tp = two_path_23(leak_top=0.1, leak2=0.5)
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5, underflow_threshold=0.3)
    st = init_state(tp.graph, 1.0, sched)
    return st, tp.graph, LIN, sched, cfg, 300, lambda: [_ArrayRecorder()]


@pytest.mark.parametrize(
    "case, stationary, converged_t",
    [
        (_a5_case, True, None),
        (_linear_equilibrium_case, True, 16),
        (_linear_schedule_case, False, None),
        (_flushing_case, True, None),
        (_leaky_case, True, None),
    ],
    ids=["a5-counterexample", "linear-equilibrium", "linear-schedule", "flushing", "leaky"],
)
def test_run_stationary_stop_matches_stepping_to_horizon(case, stationary, converged_t):
    """A run that stops stepping at a repeated state ends with the final
    state, stop and observer records of a run stepped to the end."""
    state, graph, rule, sched, cfg, T, observers = case()
    obs_run, obs_ref = observers(), observers()
    trace = run(state, graph, rule, sched, cfg, T, obs_run)
    want, want_path, first_repeat = step_to_horizon(state, graph, rule, sched, cfg, T, obs_ref)
    assert trace.t_stationary == first_repeat
    assert (trace.t_stationary is not None) == stationary
    assert trace.converged_path == want_path
    assert trace.converged_t == converged_t == (want.t if want_path else None)
    assert trace.stop_reason == ("converged" if want_path else "horizon")
    got = trace.final_state
    for name in ("p", "f_edge", "b_edge", "f_vertex", "b_vertex"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("delivered_forward", "delivered_backward", "injected_f", "injected_b"):
        assert getattr(got, name).hex() == getattr(want, name).hex(), name
    assert (got.t, got.underflow_flushes, got.zero_split_events, got.warnings) == (
        want.t, want.underflow_flushes, want.zero_split_events, want.warnings
    )
    for a, b in zip(obs_run, obs_ref):
        assert _records(a) == _records(b)


def test_run_stationary_stop_repeats_invariant_records():
    """The mis-configured observer of the A5 case keeps recording after the
    stop, so the comparison above covers repeated records."""
    state, graph, rule, sched, cfg, T, observers = _a5_case()
    obs = observers()[-1]
    trace = run(state, graph, rule, sched, cfg, T, [obs])
    after = {v.t for v in obs.violations if v.t > trace.t_stationary}
    assert after == set(range(trace.t_stationary + 1, T + 1))


def test_run_stationary_stop_repeats_flow_bound_records():
    """The A5 case's reversed flow bound counts violations on the repeated
    state too, each t adding the last stepped call's count."""
    state, graph, rule, sched, cfg, T, observers = _a5_case()
    obs = observers()[-2]
    counts = []

    def counting(t, st, prev):
        obs(t, st, prev)
        counts.append(obs.count)

    trace = run(state, graph, rule, sched, cfg, T, [counting])
    ts = trace.t_stationary
    last = counts[ts] - counts[ts - 1]
    assert len(counts) == T + 1 and last and obs.first[0] < ts
    assert counts[ts:] == [counts[ts] + k * last for k in range(T - ts + 1)]


def test_run_does_not_call_a_skips_repeats_observer_for_held_t():
    """After the stop an observer that sets ``skips_repeats`` gets no call,
    while the A5 case's mis-configured ``InvariantObserver`` beside it keeps
    one record set, the last stepped pair's, per held t."""
    state, graph, rule, sched, cfg, T, observers = _a5_case()
    seen = []

    def skipping(t, st, prev):
        seen.append(t)

    skipping.skips_repeats = True
    inv = observers()[-1]
    trace = run(state, graph, rule, sched, cfg, T, [skipping, inv])
    ts = trace.t_stationary
    assert ts is not None and ts < T
    assert seen == list(range(ts + 1))
    last = [replace(v, t=None) for v in inv.violations if v.t == ts]
    assert last
    for t in range(ts + 1, T + 1):
        assert [replace(v, t=None) for v in inv.violations if v.t == t] == last


@pytest.mark.parametrize("k", [1, 2, 1000, 2 * _HOLD_ROWS + 5])
def test_hold_adds_the_delivered_amounts_as_stepping_does(k):
    """``_hold`` gives the state k steps after one that repeats: its
    delivered sums are those of stepping k times, bit for bit, where each
    step delivers 0.1 forward and 0.9 backward and every addition rounds;
    the longest hold spans three of its accumulate calls."""
    graph = DirectedGraph(2, [(0, 1)], 0, 1)
    sched = FlowSchedule.constant(0.1, 0.9)
    cfg = EngineConfig(delta=0.5)
    state = init_state(graph, 1.0, sched)
    for _ in range(3):
        state = step(state, graph, LIN, sched, cfg)
    nxt = step(state, graph, LIN, sched, cfg)
    assert nxt.buf[:3].tobytes() == state.buf[:3].tobytes()  # f_edge, b_edge, p repeat
    zero = replace(state, delivered_forward=0.0, delivered_backward=0.0)
    unit = step(zero, graph, LIN, sched, cfg)
    assert (unit.delivered_forward, unit.delivered_backward) == (0.1, 0.9)
    held = _hold(state, k, graph, LIN, sched, cfg, kernel=_prepare(graph, LIN, sched, cfg))
    want = state
    for _ in range(k):
        want = step(want, graph, LIN, sched, cfg)
    assert held.delivered_forward.hex() == want.delivered_forward.hex()
    assert held.delivered_backward.hex() == want.delivered_backward.hex()
    # the rounding shows: the long holds' sums are not one multiply-add
    assert k < 1000 or want.delivered_forward != state.delivered_forward + k * 0.1
    assert (held.t, held.underflow_flushes, held.zero_split_events) == (
        want.t, want.underflow_flushes, want.zero_split_events
    )


def test_branch_state_carries_flows_through_survivals():
    tp = two_path_23(0.2, 0.1, 0.3)
    g = tp.graph
    st = branch_state(tp, 2.0, 0.5, (0.7, 0.4), (0.3, 0.6))
    for branch, (pheromone, fraction) in (("top", (0.7, 0.4)), ("bottom", (0.3, 0.6))):
        eids = tp.path_eids(branch)
        prefix, suffix = tp.branch_survivals(branch)
        # the products in the order a loop from s (prefix) and from d (suffix) takes them
        surv = [1.0 - float(g.leakage[v]) for v in getattr(tp, branch).vertices]
        want_prefix, want_suffix, acc = [], [], 1.0
        for x in surv[:-1]:
            acc *= x
            want_prefix.append(acc)
        acc = 1.0
        for x in surv[:0:-1]:
            acc *= x
            want_suffix.insert(0, acc)
        assert prefix.tolist() == want_prefix and suffix.tolist() == want_suffix
        assert np.all(st.p[eids] == pheromone)
        assert np.array_equal(st.f_edge[eids], 2.0 * fraction * prefix)
        assert np.array_equal(st.b_edge[eids], 0.5 * fraction * suffix)
        # each interior vertex holds the flow its out-edge (forward) or its
        # in-edge (backward) carries
        for i, v in enumerate(getattr(tp, branch).vertices[1:-1]):
            assert st.f_vertex[v] == st.f_edge[eids[i + 1]]
            assert st.b_vertex[v] == st.b_edge[eids[i]]
    assert st.f_edge[tp.path_eids("bottom")[-1]] == pytest.approx(2.0 * 0.6 * 0.9 * 0.7)
    assert st.b_edge[tp.path_eids("bottom")[0]] == pytest.approx(0.5 * 0.6 * 0.7 * 0.9)
    assert st.f_vertex[g.source] == st.injected_f == 2.0
    assert st.b_vertex[g.destination] == st.injected_b == 0.5
    assert st.f_vertex[g.destination] == st.b_vertex[g.source] == 0.0
