"""One buffer per state: ``dynamics.step`` against the engine's step as it
was before states shared a buffer (``helpers.reference_step``), byte for
byte, and the ownership of a state's buffer by every way of making one."""

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from trailflow.analysis import InvariantObserver
from trailflow.dynamics import (
    RESCALE_BY_SOURCE,
    DecisionRule,
    EngineAbort,
    EngineConfig,
    FlowSchedule,
    SystemState,
    _RepeatGate,
    branch_state,
    init_state,
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

from helpers import kernel_graphs, reference_step

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


def _swap():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    g = tp.graph
    p = np.ones(g.n_edges)
    p[[tp.s_top_eid, tp.s_bottom_eid]] = 0.3, 1.7
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
    p = np.array([p0[e] for e in g.edges])
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
    return _flowless(g, {e: 4e-300 for e in g.edges}, sched), g, LIN, sched, EngineConfig(0.5), 20


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
    if case == "zero-total":
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
    g = DirectedGraph(4, BUFFER_EDGES, 0, 3)
    sched = FlowSchedule.constant(1.0, 1.0)
    st = init_state(g, 1.0, sched)
    st.p[:] = [1.0, 1.0, -1.0, 1e-305, 1.0]
    st.f_edge[:] = [1e-305, -1e-3, 0.0, -0.0, 0.0]
    st.b_edge[:] = [0.0, 0.0, 1e-305, 0.0, -1e-3]
    for threshold in (0.0, 1e-300):
        out = _same_step(st, g, LIN, sched, EngineConfig(0.5, underflow_threshold=threshold))
        assert out.underflow_flushes == (6 if threshold else 0)


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
