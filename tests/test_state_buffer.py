"""One buffer per state: ``dynamics.step`` against the engine's step as it
was before states shared a buffer (``helpers.reference_step``), byte for
byte, the ownership of a state's buffer by every way of making one, and the
states ``run`` owns: ``step(..., into=u)`` against ``step(...)``, the
caller's state left as it was, and the checks on a state's size."""

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from trailflow.analysis import InvariantObserver
from trailflow.dynamics import (
    RESCALE_BY_SOURCE,
    ConfigError,
    DecisionRule,
    EngineAbort,
    EngineConfig,
    FlowSchedule,
    SystemState,
    _RepeatGate,
    _prepare,
    branch_state,
    init_state,
    run,
    step,
)
from trailflow.equilibria import equilibrium_state, perturb
from trailflow.graph import (
    DirectedGraph,
    build_two_path,
    gen_banded_gnp,
    gen_gnp,
    gen_grid,
    plant_band_ladder,
    plant_path,
)
from trailflow.rules import power_rule, sine_rule

from helpers import edge_tuple, kernel_graphs, reference_step, step_to_horizon

LIN = DecisionRule.linear()
FIELDS = ("f_edge", "b_edge", "p", "f_vertex", "b_vertex")  # in buffer order
SCALARS = ("delivered_forward", "delivered_backward", "injected_f", "injected_b")


def _same_step(state, graph, rule, schedule, cfg):
    """``step`` and ``reference_step`` from ``state``: the same floats, byte
    for byte, the same counters, or the same abort. Returns the stepped
    state, or None after an abort."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = reference_step(state, graph, rule, schedule, cfg)
        except EngineAbort as exc:
            with pytest.raises(EngineAbort) as got:
                step(state, graph, rule, schedule, cfg)
            assert (got.value.t, got.value.detail) == (exc.t, exc.detail)
            return None
        got = step(state, graph, rule, schedule, cfg)
    for name in FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in SCALARS:
        assert getattr(got, name).hex() == getattr(want, name).hex(), name
    assert (got.t, got.underflow_flushes, got.zero_split_events, got.warnings) == (
        want.t, want.underflow_flushes, want.zero_split_events, want.warnings
    )
    return got


def _stepped(state, graph, rule, schedule, cfg, steps):
    for _ in range(steps):
        nxt = _same_step(state, graph, rule, schedule, cfg)
        if nxt is None:
            break
        state = nxt
    return state


def _two_path_general(m, n, rule):
    tp = build_two_path(m, n, [0.1] * (m - 1), [0.2] * (n - 1))
    sched = FlowSchedule.constant(1.0, 0.7)
    p0 = np.random.default_rng(m * 10 + n).uniform(0.2, 1.0, tp.graph.n_edges)
    return init_state(tp.graph, p0, sched, rule), tp.graph, rule, sched, EngineConfig(0.5), 200


def _two_paths_beside_a_cycle():
    # two paths 0-1-4 and 0-2-3-4 beside a 2-cycle 5<->6 that no flow reaches
    edges = [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4), (5, 6), (6, 5)]
    return DirectedGraph(7, edges, 0, 4)


def _per_vertex_general(g, rule, bare=None):
    """A general-rule run on ``g``, whose vertices have at most two edges
    each way. The out-edges of vertex ``bare`` start with no pheromone, so
    its first forward flow splits over a zero total."""
    sched = FlowSchedule.constant(1.0, 0.7)
    p0 = np.random.default_rng(g.n_edges).uniform(0.2, 1.0, g.n_edges)
    if bare is not None:
        p0[g.tails == bare] = 0.0
    return init_state(g, p0, sched, rule), g, rule, sched, EngineConfig(0.5), 60


def _swap():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    g = tp.graph
    p = np.ones(g.n_edges)
    p[[tp.branch_eids("top")[0], tp.branch_eids("bottom")[0]]] = 0.3, 1.7
    sched = FlowSchedule.constant(1.0, 0.0)
    return init_state(g, p, sched), g, LIN, sched, EngineConfig(0.5), 200


def _planted_growth():
    g, _ = plant_path(gen_grid(10, 10), 9)
    sched = FlowSchedule.exponential(1.0, 1.0, 1.1)
    cfg = EngineConfig(0.5, underflow_threshold=1e-6, rescale_mode=RESCALE_BY_SOURCE)
    p0 = np.random.default_rng(2).uniform(0.1, 1.0, g.n_edges)
    return init_state(g, p0, sched), g, LIN, sched, cfg, 400


def _ladder():
    g, _ = plant_band_ladder(gen_banded_gnp(100, 0.5, 10, 2), 10)
    g = g.with_leakage(np.random.default_rng(3).uniform(0.0, 0.3, g.n_vertices))
    assert g.arrays.out_by_bincount
    sched = FlowSchedule.constant(1.0, 1.0)
    p0 = np.random.default_rng(4).uniform(0.1, 1.0, g.n_edges)
    return init_state(g, p0, sched), g, LIN, sched, EngineConfig(0.5), 150


def _leaky_gnp():
    g = gen_gnp(100, 0.05, 5)
    g = g.with_leakage(np.random.default_rng(5).uniform(0.0, 0.5, g.n_vertices))
    assert not g.arrays.out_by_bincount
    sched = FlowSchedule.constant(1.0, 1.0)
    p0 = np.random.default_rng(6).uniform(0.0, 1.0, g.n_edges)
    return init_state(g, p0, sched), g, LIN, sched, EngineConfig(0.5), 150


def _flowless(g, p0, sched):
    """t=0 state with pheromone ``p0`` (keyed by edge), no edge flow and the
    schedule's injections at s and d."""
    fv, bv = np.zeros(g.n_vertices), np.zeros(g.n_vertices)
    fv[g.source], bv[g.destination] = sched.f0, sched.b0
    zero = np.zeros(g.n_edges)
    p = np.array([p0[e] for e in edge_tuple(g)])
    return SystemState(0, p, zero, zero, fv, bv, injected_f=sched.f0, injected_b=sched.b0)


def _subnormal():
    g = DirectedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
    ulp = 5e-324
    p0 = {(0, 1): 6 * ulp, (0, 2): 2 * ulp, (1, 3): 6 * ulp, (2, 3): 2 * ulp}
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(0.5, underflow_threshold=0.0)
    return _flowless(g, p0, sched), g, LIN, sched, cfg, 20


def _small_totals():
    g = DirectedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
    sched = FlowSchedule.constant(1e10, 1e10)
    return _flowless(g, {e: 4e-300 for e in edge_tuple(g)}, sched), g, LIN, sched, EngineConfig(0.5), 20


def _zero_total():
    g, p0 = kernel_graphs()[-1]
    sched = FlowSchedule.constant(1.0, 1.0)
    return init_state(g, p0, sched), g, LIN, sched, EngineConfig(0.5, underflow_threshold=0.9), 20


CASES = {
    **{
        f"two-path-{m}x{n}-{rule.name}": (lambda m=m, n=n, rule=rule: _two_path_general(
            m, n, DecisionRule.general(rule)
        ))
        for m, n in ((2, 2), (2, 3))
        for rule in (power_rule(2), power_rule(0.5), sine_rule(0.05))
    },
    **{
        f"general-{name}-{rule.name}": (lambda graph=graph, bare=bare, rule=rule: (
            _per_vertex_general(graph(), DecisionRule.general(rule), bare)
        ))
        for name, graph, bare in (
            ("grid-4x5", lambda: gen_grid(4, 5), 1),
            ("grid-10x10", lambda: gen_grid(10, 10), 1),
            ("two-paths-beside-a-cycle", _two_paths_beside_a_cycle, None),
        )
        for rule in (power_rule(2), power_rule(0.5), sine_rule(0.05))
    },
    "unidirectional-swap": _swap,
    "planted-grid-growth": _planted_growth,
    "banded-ladder": _ladder,
    "leaky-gnp": _leaky_gnp,
    "subnormal-totals": _subnormal,
    "small-totals-large-flows": _small_totals,
    "zero-total": _zero_total,
}


@pytest.mark.parametrize("case", list(CASES))
def test_step_matches_reference_step_bytewise(case):
    state, graph, rule, sched, cfg, steps = CASES[case]()
    final = _stepped(state, graph, rule, sched, cfg, steps)
    assert final.t == steps
    if case == "planted-grid-growth":
        assert final.underflow_flushes > 0
    if case == "zero-total" or case.startswith("general-grid-"):
        assert final.zero_split_events > 0


# edges e0=(0,1), e1=(0,2), e2=(1,3), e3=(1,2), e4=(2,3)
BUFFER_EDGES = [(0, 1), (0, 2), (1, 3), (1, 2), (2, 3)]


@pytest.mark.parametrize(
    "field, index, value, absorbing",
    [
        ("p", 0, math.nan, None),
        ("p", 0, math.inf, None),
        ("p", 0, -math.inf, None),
        ("f_edge", 3, -math.inf, None),
        ("b_edge", 2, -math.inf, None),
        ("f_edge", [1, 3], 1e308, None),
        ("f_edge", [1, 3], 1e308, {2: 1.0}),
        ("b_edge", [2, 3], 1e308, None),
        ("b_edge", [2, 3], 1e308, {1: 1.0}),
    ],
)
def test_step_aborts_as_reference_step(field, index, value, absorbing):
    g = DirectedGraph(4, BUFFER_EDGES, 0, 3, absorbing)
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(g, 1.0, sched)
    getattr(st, field)[index] = value
    assert _same_step(st, g, LIN, sched, EngineConfig(0.5)) is None


def test_step_flushes_as_reference_step():
    """Under either rule: both out-edges of vertex 1 (edges 2 and 3) and
    its forward flow are flushed, so the general split, which reads them
    from the values listed before the flush, must see them zeroed."""
    g = DirectedGraph(4, BUFFER_EDGES, 0, 3)
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(g, 1.0, sched)
    st.p[:] = [1.0, 1.0, -1.0, 1e-305, 1.0]
    st.f_edge[:] = [1e-305, -1e-3, 0.0, -0.0, 0.0]
    st.b_edge[:] = [0.0, 0.0, 1e-305, 0.0, -1e-3]
    for rule in (LIN, DecisionRule.general(power_rule(2))):
        for threshold in (0.0, 1e-300):
            out = _same_step(st, g, rule, sched, EngineConfig(0.5, underflow_threshold=threshold))
            assert out.underflow_flushes == (6 if threshold else 0)


# The stored part of a step on the 2x3 linear graph (m = 5, n = 5) has 15
# entries: p(t+1) = (p + f_edge + b_edge) / 2 per edge, then f_vertex with
# f0 at s (index 5) and f_edge[e0], f_edge[e2] at vertices 1 and 2 (indices
# 6, 7), then b_vertex. numpy sums the first eight pairwise,
# ((p0+p1)+(p2+p3)) + ((p4+fv0)+(fv1+fv2)), where Python's ``sum`` goes left
# to right: two flows that each vanish beside fv0, but not together, put
# numpy's total one step above Python's.
BOUND = 1e-300 * 2.0**1020  # the default threshold times _BOUNDED_SUM
HALF_ULP_MAX = 2.0**970  # half the spacing of floats at sys.float_info.max
BIG = 2.0**61 * BOUND  # beside it the bound is less than half an ulp


def _fused(f0, threshold=1e-300, flows=(0.0, 0.0), edits=()):
    """A state on the 2x3 linear graph whose step stores f0 at s, ``flows``
    at vertices 1 and 2 (half of each in p of e0 and e2) and 1e-290 of
    pheromone on the other edges; ``edits`` are (field, edge, value) writes
    into the state at t."""
    g = build_two_path(2, 3, [0.0], [0.0, 0.0]).graph
    p = np.full(5, 2e-290)
    p[[0, 2]] = 0.0
    zero = np.zeros(5)
    st = SystemState(0, p, zero, zero, zero, zero, injected_f=f0)
    st.f_edge[[0, 2]] = flows
    for name, e, value in edits:
        getattr(st, name)[e] = value
    sched = FlowSchedule.constant(f0, 0.0)
    return st, g, LIN, sched, EngineConfig(0.5, underflow_threshold=threshold)


def _rounds_up(half_ulp):
    # two flows below a half ulp of fv0: each alone rounds away beside it,
    # the two together round it up by one ulp
    return (0.7 * half_ulp, 0.8 * half_ulp)


FUSED = {
    # one ulp below the bound: Python's sum is below it, numpy's total is at
    # it, so the split is not ``bounded`` (the flow of s over its pheromone
    # passes 2**32, where the two split forms differ)
    "sum-one-ulp-below-bound": lambda: _fused(
        np.nextafter(BOUND, 0.0), flows=_rounds_up(np.spacing(BOUND) / 2)
    ),
    "total-well-below-bound": lambda: _fused(BOUND * (1.0 - 2.0**-30), flows=(1e-3, 2e-3)),
    "total-just-above-bound": lambda: _fused(np.nextafter(BOUND, math.inf), flows=(1e-3, 2e-3)),
    # a threshold whose bound overflows: Python's sum stays at the largest
    # float, numpy's total overflows, and the step aborts
    "sum-at-float-max": lambda: _fused(
        np.finfo(float).max, threshold=1e10, flows=_rounds_up(HALF_ULP_MAX)
    ),
    "negative-zero": lambda: _fused(
        1.0, flows=(0.3, 0.7), edits=[(name, 1, -0.0) for name in ("p", "f_edge", "b_edge")]
    ),
    # p of e2 and e3 cancel: Python's sum loses p of e0, at the bound, to
    # them, numpy's total keeps it; the negative p of e2 is flushed
    "negative": lambda: _fused(
        1.0, flows=(0.1, 0.7), edits=[("p", 0, 2.5 * BOUND), ("p", 2, -BIG), ("p", 3, BIG)]
    ),
    "nan": lambda: _fused(1.0, flows=(0.3, 0.7), edits=[("p", 3, math.nan)]),
    "inf": lambda: _fused(1.0, flows=(0.3, 0.7), edits=[("p", 3, math.inf)]),
    "minus-inf": lambda: _fused(1.0, flows=(0.3, 0.7), edits=[("p", 3, -math.inf)]),
    "nan-flow": lambda: _fused(1.0, flows=(math.nan, 0.7)),
    "threshold-zero": lambda: _fused(1.0, threshold=0.0, flows=(0.3, 0.7), edits=[("p", 1, 1e-310)]),
}
FUSED_ABORTS = {"sum-at-float-max", "nan", "inf", "minus-inf", "nan-flow"}


def _stored(st, sched):
    """The stored part [p | f_vertex | b_vertex] that a step of ``st`` on
    the 2x3 graph makes before its finiteness test, written out."""
    p = (st.p + st.f_edge + st.b_edge) * 0.5
    fv = np.zeros(5)
    fv[[0, 1, 2, 3]] = sched.f0, st.f_edge[0], st.f_edge[2], st.f_edge[3]
    bv = np.zeros(5)
    bv[[1, 2, 3, 4]] = st.b_edge[1], st.b_edge[3], st.b_edge[4], sched.b0
    return np.concatenate((p, fv, bv))


@pytest.mark.parametrize("case", list(FUSED))
def test_small_buffer_step_matches_reference_step_bytewise(case):
    """The small-buffer step, which reads its stored values once as Python
    floats for the finiteness test, ``bounded`` and the flush, gives the
    floats, counters and aborts of numpy's total, at the edges of its test."""
    st, g, rule, sched, cfg = FUSED[case]()
    with np.errstate(over="ignore", invalid="ignore"):
        stored = _stored(st, sched)
        py_sum, total = sum(stored.tolist()), float(np.add.reduce(stored))
    out = _same_step(st, g, rule, sched, cfg)
    assert (out is None) == (case in FUSED_ABORTS)
    # what each case is built to show
    if case == "sum-one-ulp-below-bound":
        assert py_sum < BOUND <= total
    elif case == "sum-at-float-max":
        assert py_sum == np.finfo(float).max and total == math.inf
    elif case == "negative":
        assert py_sum < 3.0 and total >= BOUND
        assert out.underflow_flushes == 1 and out.p[2] == 0.0
    elif case == "negative-zero":
        assert out.underflow_flushes == 0 and out.p[1].hex() == "-0x0.0p+0"


# -- buffer ownership ---------------------------------------------------------


def _assert_views_of_own_buffer(st):
    m, n = st.f_edge.size, st.f_vertex.size
    buf = st.buf
    assert buf.dtype == np.float64 and buf.shape == (3 * m + 2 * n,) and buf.flags.c_contiguous
    start = buf.__array_interface__["data"][0]
    offset = 0
    for name in FIELDS:
        arr = getattr(st, name)
        assert arr.base is buf or arr.base is buf.base, name
        assert arr.__array_interface__["data"][0] == start + 8 * offset, name
        offset += arr.size
    assert offset == buf.size


def _states():
    tp = build_two_path(2, 3, [0.1], [0.2, 0.0])
    g = tp.graph
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(0.5)
    st0 = init_state(g, np.random.default_rng(1).uniform(0.5, 1.5, g.n_edges), sched)
    st1 = step(st0, g, LIN, sched, cfg)
    eq = equilibrium_state(build_two_path(2, 2, [0.0], [0.0]), power_rule(2), 0.0, 1.0, 1.0, 0.5)
    return {
        "init_state": st0,
        "step": st1,
        "branch_state": branch_state(tp, 1.0, 0.5, (0.7, 0.4), (0.3, 0.6)),
        "perturb": perturb(eq, 0.1, 0),
        "copy": st1.copy(),
        "replace": replace(st1, t=9),
        "hand-built": SystemState(
            1, *(getattr(st1, name).copy() for name in ("p",) + FIELDS[:2] + FIELDS[3:])
        ),
        "deepcopy": copy.deepcopy(st1),
        "pickle": pickle.loads(pickle.dumps(st1)),
    }


@pytest.mark.parametrize("how", list(_states()))
def test_state_fields_are_views_of_one_buffer(how):
    st = _states()[how]
    _assert_views_of_own_buffer(st)
    # a write through a field lands in the buffer, at its offset
    before = st.buf.copy()
    st.b_vertex[-1] += 1.0
    changed = np.flatnonzero(st.buf != before)
    assert changed.tolist() == [st.buf.size - 1]


def test_replace_shares_the_buffer_and_copies_do_not():
    st = _states()["step"]
    shared = replace(st, t=st.t + 1)
    assert shared.buf is st.buf
    assert all(getattr(shared, name) is getattr(st, name) for name in FIELDS)
    for other in (st.copy(), copy.deepcopy(st), pickle.loads(pickle.dumps(st))):
        assert not np.shares_memory(other.buf, st.buf)
        assert other.buf.tobytes() == st.buf.tobytes()
    # a replaced array gets a buffer of its own, filled from the arrays
    new_p = st.p + 1.0
    swapped = replace(st, p=new_p)
    _assert_views_of_own_buffer(swapped)
    assert not np.shares_memory(swapped.buf, st.buf)
    assert swapped.p.tobytes() == new_p.tobytes()
    assert swapped.f_edge.tobytes() == st.f_edge.tobytes()


@pytest.mark.parametrize("case", range(len(kernel_graphs())))
def test_state_with_a_replaced_array_steps_whole(case):
    # ``replace`` is the supported way to swap an array (``SystemState``):
    # the new state's buffer holds it, so every kernel branch of step, the
    # repeat test and the observer read the same floats as its fields
    g, p0 = kernel_graphs()[case]
    sched = FlowSchedule.constant(1.0, 0.5)
    cfg = EngineConfig(0.5)
    st = step(init_state(g, p0, sched), g, LIN, sched, cfg)
    rng = np.random.default_rng(case)
    for name in ("f_edge", "b_edge", "p"):
        swapped = replace(st, **{name: rng.uniform(0.0, 2.0, g.n_edges)})
        _assert_views_of_own_buffer(swapped)
        assert _same_step(swapped, g, LIN, sched, cfg) is not None
        assert not _RepeatGate()(swapped, st)
        obs = InvariantObserver(g, cfg, sched)
        obs(swapped.t, swapped, st)
        assert obs.violations
    assert _RepeatGate()(st.copy(), st)


def test_hand_built_state_owns_a_buffer_filled_from_its_arrays():
    p, fe, be = np.ones(5), np.full(5, 0.5), np.full(5, 0.25)
    fv, bv = np.arange(4.0), np.arange(4.0, 8.0)
    st = SystemState(0, p, fe, be, fv, bv)
    assert st.buf.tolist() == [0.5] * 5 + [0.25] * 5 + [1.0] * 5 + list(range(8))
    p[0] = 9.0
    assert st.p[0] == 1.0
    with pytest.raises(ValueError):
        SystemState(0, p, fe, be[:4], fv, bv)
    with pytest.raises(ValueError):
        SystemState(0, p, fe, be, fv, bv[:3])


def test_write_through_a_copy_reaches_what_step_reads_and_not_the_original():
    tp = build_two_path(2, 3, [0.1], [0.2, 0.0])
    g = tp.graph
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(0.5)
    st0 = init_state(g, np.random.default_rng(2).uniform(0.5, 1.5, g.n_edges), sched)
    st1 = step(st0, g, LIN, sched, cfg)
    kept = st1.buf.copy()
    for name in ("p", "f_edge", "b_edge"):
        written = st1.copy()
        getattr(written, name)[1] *= 2.0
        assert st1.buf.tobytes() == kept.tobytes()
        # step reads the written copy
        assert step(written, g, LIN, sched, cfg).p[1] != step(st1, g, LIN, sched, cfg).p[1]
        # the repeat test reads it
        assert _RepeatGate()(st1.copy(), st1)
        assert not _RepeatGate()(written, st1)
        # the invariant observer reads it as the stepped state
        obs = InvariantObserver(g, cfg, sched)
        obs(written.t, written, st0)
        clean = InvariantObserver(g, cfg, sched)
        clean(st1.t, st1, st0)
        assert obs.violations and not clean.violations


# -- stepping into a state ------------------------------------------------------


def _junk(state):
    """A state of ``state``'s size whose buffer is all NaN and whose scalar
    fields hold values no step gives: a step into it must write everything."""
    out = state.copy()
    out.buf.fill(math.nan)
    out.t = out.underflow_flushes = out.zero_split_events = -1
    out.delivered_forward = out.delivered_backward = math.nan
    out.injected_f = out.injected_b = math.nan
    out.warnings = ("junk",)
    return out


def _assert_same_state(got, want):
    assert got.buf.tobytes() == want.buf.tobytes()
    for name in SCALARS:
        assert getattr(got, name).hex() == getattr(want, name).hex(), name
    assert (got.t, got.underflow_flushes, got.zero_split_events, got.warnings) == (
        want.t, want.underflow_flushes, want.zero_split_events, want.warnings
    )


def _same_into(state, graph, rule, schedule, cfg):
    """``step`` into a junk state and into a new one from ``state``: the
    same bytes and scalars, or the same abort. Returns the stepped state, or
    None after an abort."""
    into = _junk(state)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = step(state, graph, rule, schedule, cfg)
        except EngineAbort as exc:
            with pytest.raises(EngineAbort) as got:
                step(state, graph, rule, schedule, cfg, into=into)
            assert (got.value.t, got.value.detail) == (exc.t, exc.detail)
            return None
        got = step(state, graph, rule, schedule, cfg, into=into)
    assert got is into
    _assert_views_of_own_buffer(got)
    _assert_same_state(got, want)
    return want


def _kernel_graph_case(case):
    g, p0 = kernel_graphs()[case]
    sched = FlowSchedule.constant(1.0, 0.5)
    return init_state(g, p0, sched), g, LIN, sched, EngineConfig(0.5), 30


INTO_CASES = {
    **{f"kernel-graph-{i}": (lambda i=i: _kernel_graph_case(i)) for i in range(len(kernel_graphs()))},
    **{name: CASES[name] for name in CASES if name.startswith("two-path-")},
    "planted-grid-growth": _planted_growth,
    "subnormal-totals": _subnormal,
    "small-totals-large-flows": _small_totals,
    "zero-total": _zero_total,
}


@pytest.mark.parametrize("case", list(INTO_CASES))
def test_step_into_matches_step_bytewise(case):
    state, graph, rule, sched, cfg, steps = INTO_CASES[case]()
    for _ in range(steps):
        state = _same_into(state, graph, rule, sched, cfg)
    assert state.t == steps


@pytest.mark.parametrize(
    "field, index, value",
    [("p", 0, math.nan), ("p", 0, -math.inf), ("f_edge", 3, -math.inf), ("f_edge", [1, 3], 1e308)],
)
def test_step_into_aborts_as_step(field, index, value):
    g = DirectedGraph(4, BUFFER_EDGES, 0, 3)
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(g, 1.0, sched)
    getattr(st, field)[index] = value
    assert _same_into(st, g, LIN, sched, EngineConfig(0.5)) is None


# -- run owns the states it steps into ------------------------------------------


def _scalars(state):
    return (state.t, state.underflow_flushes, state.zero_split_events, state.warnings) + tuple(
        getattr(state, name).hex() for name in SCALARS
    )


def _stop_horizon():
    tp = build_two_path(2, 3, [0.1], [0.2, 0.3])
    sched = FlowSchedule.linear(1.0, 1.0, 0.5)
    return init_state(tp.graph, 1.0, sched), tp.graph, LIN, sched, EngineConfig(0.5), 40


def _stop_converged():
    tp = build_two_path(2, 3, [0.1], [0.2, 0.3])
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(0.5, epsilon_convergence=0.05)
    return init_state(tp.graph, 1.0, sched), tp.graph, LIN, sched, cfg, 3000


def _stop_stationary():
    # the state repeats its predecessor at t = 991
    tp = build_two_path(2, 2, [0.0], [0.0])
    st = perturb(equilibrium_state(tp, power_rule(2), 0.0, 1.0, 1.0, 0.5), 0.01, 1)
    rule = DecisionRule.general(power_rule(2))
    return st, tp.graph, rule, FlowSchedule.constant(1.0, 1.0), EngineConfig(0.5), 2000


def _flushed_stationary():
    # a threshold above the vertex flows: the state repeats at t = 2
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(0.5, underflow_threshold=0.9)
    return init_state(tp.graph, 1.0, sched), tp.graph, LIN, sched, cfg, 300


def _stop_aborted():
    # the injections overflow the stored total at t = 4, after the run has
    # stepped into a state of its own
    tp = build_two_path(2, 3, [0.1], [0.2, 0.0])
    sched = FlowSchedule.linear(1.0, 1.0, 1e307)
    return init_state(tp.graph, 1.0, sched), tp.graph, LIN, sched, EngineConfig(0.5), 50


STOPS = {
    "horizon": _stop_horizon,
    "converged": _stop_converged,
    "stationary": _stop_stationary,
    "aborted": _stop_aborted,
}


@pytest.mark.parametrize("stop", list(STOPS))
def test_run_leaves_its_initial_state_as_it_was(stop):
    state, graph, rule, sched, cfg, T = STOPS[stop]()
    buf, scalars = state.buf.tobytes(), _scalars(state)
    with np.errstate(over="ignore"):
        trace = run(state, graph, rule, sched, cfg, T)
    assert trace.stop_reason == ("horizon" if stop == "stationary" else stop)
    assert (trace.t_stationary is not None) == (stop == "stationary")
    assert (trace.t_stationary or trace.final_state.t) > 2
    assert state.buf.tobytes() == buf and _scalars(state) == scalars
    assert not np.shares_memory(trace.final_state.buf, state.buf)


class _CopyRecorder:
    """Keeps a copy of every state it is shown, and the state object too."""

    def __init__(self):
        self.rows = []
        self.kept = []

    def __call__(self, t, state, prev):
        self.rows.append((t, prev is None, state.copy()))
        self.kept.append(state)


@pytest.mark.parametrize("stop", ["horizon", "converged", "stationary", "flushed-stationary"])
def test_observer_copies_record_what_stepping_gives(stop):
    cases = {**STOPS, "flushed-stationary": _flushed_stationary}
    state, graph, rule, sched, cfg, T = cases[stop]()
    got, want = _CopyRecorder(), _CopyRecorder()
    trace = run(state, graph, rule, sched, cfg, T, [got])
    final, _, _ = step_to_horizon(state, graph, rule, sched, cfg, T, [want])
    assert len(got.rows) == len(want.rows) == final.t + 1
    stationary = trace.t_stationary
    for (t, first, a), (t_want, first_want, b) in zip(got.rows, want.rows):
        assert (t, first) == (t_want, first_want)
        assert a.buf.tobytes() == b.buf.tobytes(), t
        if stationary is None or t <= stationary:
            _assert_same_state(a, b)
    # the objects themselves are the run's own and are stepped into again
    # two steps later: what an observer keeps without copying changes
    assert got.kept[0] is state
    assert len({id(s) for s in got.kept[1:]}) == 2
    if (stationary or trace.final_state.t) > 2:
        assert got.kept[1].t != 1


# -- a state must fit the graph ---------------------------------------------------


def _mismatch():
    four = DirectedGraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], 0, 3)
    three = DirectedGraph(3, [(0, 1), (1, 2), (0, 2), (2, 1)], 0, 2)
    sched = FlowSchedule.constant(1.0, 1.0)
    return init_state(four, 1.0, sched), three, sched


def test_run_rejects_a_state_of_another_graph():
    st, other, sched = _mismatch()
    before = st.buf.tobytes()
    calls = []
    with pytest.raises(ConfigError, match=r"state has 20 values.* 4 edges and 3 vertices has 18"):
        run(st, other, LIN, sched, EngineConfig(0.5), 10, [lambda *a: calls.append(a)])
    assert not calls and st.buf.tobytes() == before
    with pytest.raises(ConfigError, match="has 18"):
        step(st, other, LIN, sched, EngineConfig(0.5))
    # another edge count fails the same way, not inside a numpy kernel
    g5 = DirectedGraph(4, BUFFER_EDGES, 0, 3)
    with pytest.raises(ConfigError, match=r"state has 20 values.* 5 edges and 4 vertices has 23"):
        run(st, g5, LIN, sched, EngineConfig(0.5), 10)


def test_step_rejects_an_unfit_or_shared_into():
    g = DirectedGraph(4, BUFFER_EDGES, 0, 3)
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(0.5)
    st = init_state(g, 1.0, sched)
    small, _, _ = _mismatch()
    with pytest.raises(ConfigError, match="into has 20 values, but the state has 23"):
        step(st, g, LIN, sched, cfg, into=small)
    before = st.buf.tobytes()
    for shared in (st, replace(st), replace(st, t=5)):
        with pytest.raises(ConfigError, match="shares the buffer"):
            step(st, g, LIN, sched, cfg, into=shared)
    assert st.buf.tobytes() == before
    # a copy is a buffer of its own
    assert step(st, g, LIN, sched, cfg, into=st.copy()).t == 1


# -- one prepared step per run --------------------------------------------------


def _reuse_cases():
    """Runs on one 2x3 two-path graph that differ in delta, rescaling, the
    flush threshold, the rule and the schedule, two of them ending in an
    abort: a total past the float range at t = 1, and a NaN pheromone."""
    g = build_two_path(2, 3, [0.1], [0.0, 0.2]).graph
    RESCALE = RESCALE_BY_SOURCE
    const, grow = FlowSchedule.constant(1.0, 0.7), FlowSchedule.exponential(1.0, 0.5, 1.1)
    power, sine = DecisionRule.general(power_rule(2)), DecisionRule.general(sine_rule(0.05))
    p0 = np.random.default_rng(32).uniform(0.2, 2.0, g.n_edges)
    nan = init_state(g, p0, const)
    nan.p[2] = math.nan
    cases = {
        "linear": (init_state(g, p0, const), LIN, const, EngineConfig(0.5)),
        "power-delta": (init_state(g, p0, const, power), power, const, EngineConfig(0.3)),
        "rescaled": (init_state(g, p0, grow), LIN, grow, EngineConfig(0.5, rescale_mode=RESCALE)),
        "no-flush": (init_state(g, p0, grow), LIN, grow, EngineConfig(0.5, underflow_threshold=0.0)),
        "sine-grown": (init_state(g, p0, grow, sine), sine, grow, EngineConfig(0.7)),
        "overflow": (init_state(g, 1.7e308, const, power), power, const, EngineConfig(0.9)),
        "nan": (nan, LIN, const, EngineConfig(0.5)),
    }
    return g, cases


def _outcome(state):
    if isinstance(state, EngineAbort):
        return ("abort", state.t, state.detail)
    return (state.buf.tobytes(),) + tuple(getattr(state, name).hex() for name in SCALARS) + (
        state.t, state.underflow_flushes, state.zero_split_events,
    )


def test_runs_interleaved_on_one_graph_step_as_each_alone():
    """Every run prepares its step once and passes it to each ``step``
    call. Stepped in turn on one graph, one step each, with the kernels of
    the others in between, every run gives the bytes, counters, delivered
    totals and abort of the same run alone, of bare ``step`` calls and of
    the reference step."""
    g, cases = _reuse_cases()
    T = 60
    alone, bare, reference = {}, {}, {}
    with np.errstate(over="ignore"):
        for name, (state, rule, sched, cfg) in cases.items():
            trace = run(state, g, rule, sched, cfg, T)
            alone[name] = (
                _outcome(EngineAbort(trace.failure_t, trace.failure))
                if trace.failure
                else _outcome(trace.final_state)
            )
            for stepper, out in ((step, bare), (reference_step, reference)):
                cur = state
                try:
                    for _ in range(T):
                        cur = stepper(cur, g, rule, sched, cfg)
                except EngineAbort as exc:
                    cur = exc
                out[name] = _outcome(cur)
        # the stepping of ``run``: each case's own kernel, into the state of
        # two steps back, all cases in turn
        kernels = {name: _prepare(g, *case[1:]) for name, case in cases.items()}
        cur = {name: case[0] for name, case in cases.items()}
        spare = dict.fromkeys(cases)
        for _ in range(T):
            for name, (state, rule, sched, cfg) in cases.items():
                if isinstance(cur[name], EngineAbort):
                    continue
                try:
                    nxt = step(cur[name], g, rule, sched, cfg, spare[name], _kernel=kernels[name])
                except EngineAbort as exc:
                    cur[name] = exc
                    continue
                spare[name] = None if cur[name] is state else cur[name]
                cur[name] = nxt
    interleaved = {name: _outcome(value) for name, value in cur.items()}
    assert interleaved == alone == bare == reference
    assert alone["overflow"] == ("abort", 1, "non-finite total (overflow)")
    assert alone["nan"] == ("abort", 1, "non-finite pheromone at index 2")
    assert sum(outcome[0] == "abort" for outcome in alone.values()) == 2
