import numpy as np
import pytest

from trailflow.adversarial import (
    AT_LEAST,
    AT_MOST,
    BranchLevelObserver,
    CASE_ABOVE,
    CASE_BELOW,
    FlowBoundObserver,
    TargetConvergenceWatcher,
    find_nonlinearity,
    flow_counterexample,
    leakage_counterexample,
    run_counterexample,
    run_positive_control,
    swap_demo_batch,
    unidirectional_swap_demo,
    verify_nonconvergence,
)
from trailflow.dynamics import (
    ConfigError,
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    init_state,
    run,
    step,
)
from trailflow.graph import build_two_path, build_two_path_survival, path_leakage
from trailflow.rules import (
    RuleError,
    RuleFunction,
    linear_rule,
    power_rule,
    sine_rule,
    table_rule,
)

TP23 = build_two_path(2, 3, [0.0], [0.0, 0.0])
LIN = DecisionRule.linear()


# -- nonlinearity detection ------------------------------------------------------


def test_find_nonlinearity_cases():
    nl = find_nonlinearity(power_rule(2))
    assert nl.r == pytest.approx(0.25)  # argmax |2x^2 - x|
    assert nl.case == CASE_BELOW
    assert 0.2 < nl.eps < 0.25 and nl.r + nl.eps < 0.5
    nl2 = find_nonlinearity(power_rule(0.5))
    assert nl2.case == CASE_ABOVE
    assert nl2.r == pytest.approx(0.125)
    with pytest.raises(RuleError, match="indistinguishable from the linear rule"):
        find_nonlinearity(linear_rule())


def test_find_nonlinearity_evaluates_scalar_rules_per_point():
    # fn collapses an array to one number; evaluated per grid point it is 2x^2
    scalar = RuleFunction("scalar 2x^2", lambda x: 2.0 * float(np.max(x)) ** 2)
    assert find_nonlinearity(scalar) == find_nonlinearity(power_rule(2))


# -- leakage counterexample --------------------------------------------------------


def test_leakage_counterexample_constants():
    cx = leakage_counterexample(
        power_rule(2), TP23, 1.0, 1.0, r=0.25, eps=0.1, surv_top=0.97, surv_bottom=0.95
    )
    assert cx.config.c_eps == pytest.approx(0.105)
    assert cx.config.c_g == pytest.approx(0.02625)
    assert cx.config.bound == pytest.approx(0.35)
    assert "1.02625" in cx.config.constraint
    assert cx.watch_branch == "top" and cx.direction == AT_MOST
    # survival products realized on the rebuilt graph
    tp = cx.two_path
    assert 1.0 - path_leakage(tp.graph, tp.top) == pytest.approx(0.97)
    assert 1.0 - path_leakage(tp.graph, tp.bottom) == pytest.approx(0.95)
    # initial state: watched branch level exactly r+eps, flows rule-consistent
    p = cx.state.p
    s_top, s_bot = cx.two_path.branch_eids("top")[0], cx.two_path.branch_eids("bottom")[0]
    assert p[s_top] / (p[s_top] + p[s_bot]) == pytest.approx(0.35)
    g_at_bound = 2 * 0.35**2
    assert cx.state.f_edge[s_top] == pytest.approx(g_at_bound)


def test_leakage_counterexample_rejects_violating_survival():
    with pytest.raises(ConfigError):
        leakage_counterexample(
            power_rule(2), TP23, 1.0, 1.0, r=0.25, eps=0.1,
            surv_top=0.99, surv_bottom=0.95,  # ratio 1.042 > 1.02625
        )
    with pytest.raises(RuleError, match="indistinguishable from the linear rule"):
        leakage_counterexample(linear_rule(), TP23, 1.0, 1.0)


def test_leakage_counterexample_case_above():
    cx = leakage_counterexample(power_rule(0.5), TP23, 1.0, 1.0)
    assert cx.config.case == CASE_ABOVE
    assert cx.watch_branch == "bottom" and cx.direction == AT_LEAST
    assert "beta/alpha >=" in cx.config.constraint
    tp = cx.two_path
    assert 1.0 - path_leakage(tp.graph, tp.bottom) < 1.0 - path_leakage(tp.graph, tp.top)


def test_leakage_counterexample_flush_floor():
    """The floor that the flow kind applies to f0 holds for f_s and b_d too:
    the smallest t = 0 flow bound (a leaky branch's survival prefix or
    suffix times the level times the injection, about 0.364 f_s here) must
    clear 1e-294, or the bounds would be compared with flushed flows."""
    for flow in (1e-300, 1e-295):
        floor = rf"f0={flow:g} and b0={flow:g} .* below the floor 1e-294"
        with pytest.raises(ConfigError, match=floor):
            leakage_counterexample(power_rule(2), TP23, flow, flow)
    cx = leakage_counterexample(power_rule(2), TP23, 1e-290, 1e-290)  # about 3.6e-291
    report, _, _ = run_counterexample(cx, 300)
    assert report.ok, report


@pytest.mark.parametrize("rule", [power_rule(2), power_rule(0.5), sine_rule(0.05)])
def test_leakage_counterexample_invariant_short_run(rule):
    cx = leakage_counterexample(rule, TP23, 1.0, 1.0)
    report, trace, obs = run_counterexample(cx, 3000)
    assert report.ok, (rule.name, report)
    assert report.flow_bound_violations == 0
    assert report.target_convergence_at is None


def test_leakage_positive_control_converges():
    cx = leakage_counterexample(power_rule(2), TP23, 1.0, 1.0, r=0.25, eps=0.1,
                                surv_top=0.97, surv_bottom=0.95)
    control = run_positive_control(cx, 100_000)
    assert control.converged_path == cx.two_path.top


# -- flow counterexample -------------------------------------------------------------


def test_flow_counterexample_constants():
    fx = flow_counterexample(power_rule(2), TP23, 1.0, mu=1.03, r=0.25, eps=0.1)
    assert fx.config.c_g == pytest.approx(0.02625)
    assert fx.schedule.alpha == 1.03
    assert fx.schedule.kind == "exponential" and fx.schedule.alpha == 1.03
    with pytest.raises(ConfigError):
        flow_counterexample(power_rule(2), TP23, 1.0, mu=1.01, r=0.25, eps=0.1)


def test_flow_counterexample_default_mu_respects_case_bound():
    fx = flow_counterexample(power_rule(2), TP23, 1.0, r=0.25, eps=0.1)
    assert fx.schedule.alpha >= (1.0 + fx.config.c_g) ** (1.0 / (TP23.n - TP23.m))
    fx2 = flow_counterexample(power_rule(0.5), TP23, 1.0)
    assert fx2.config.case == CASE_ABOVE
    assert 1.0 < fx2.schedule.alpha <= (1.0 / (1.0 - fx2.config.c_g)) ** (1.0 / (TP23.n - TP23.m))


def test_flow_counterexample_preconditions():
    equal = build_two_path(3, 3, [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ConfigError):
        flow_counterexample(power_rule(2), equal, 1.0)  # no unique shortest path
    leaky = build_two_path(2, 3, [0.1], [0.0, 0.0])
    with pytest.raises(ConfigError):
        flow_counterexample(power_rule(2), leaky, 1.0)  # leakage must be zero
    with pytest.raises(RuleError, match="indistinguishable from the linear rule"):
        flow_counterexample(linear_rule(), TP23, 1.0)
    # the smallest t = 0 flow bound, f0 (r + eps), must clear the invariant
    # check's floor (1e6 x the 1e-300 underflow threshold), or the bounds
    # would be compared with flushed flows
    with pytest.raises(ConfigError, match=r"f0=1e-300 .* below the floor 1e-294"):
        flow_counterexample(power_rule(2), TP23, 1e-300, mu=10)
    flow_counterexample(power_rule(2), TP23, 1e-290, mu=10)  # about 3.7e-291: accepted


@pytest.mark.parametrize("rule", [power_rule(2), power_rule(0.5)])
def test_flow_counterexample_invariant_short_run(rule):
    fx = flow_counterexample(rule, TP23, 1.0)
    report, trace, obs = run_counterexample(fx, 2000)
    assert report.ok, (rule.name, report)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP: check the counterexample claim across the non-linear family, "
    "and fix the near-linear failures",
)
@pytest.mark.parametrize("k", [1.002, 1.001])
def test_flow_counterexample_near_linear_holds_its_bound(k):
    # today the bound breaks at t = 4 (power 1.002) and t = 3 (power 1.001)
    report, _, _ = run_counterexample(flow_counterexample(power_rule(k), TP23, 1.0), 2000)
    assert report.ok, report


@pytest.mark.parametrize("make", [
    lambda eps: leakage_counterexample(power_rule(2), TP23, 1.0, 1.0, eps=eps),
    lambda eps: flow_counterexample(power_rule(2), TP23, 1.0, eps=eps),
])
def test_counterexamples_reject_eps_without_r(make):
    with pytest.raises(RuleError, match="explicit eps requires explicit r"):
        make(0.05)


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan")])
def test_counterexamples_reject_nonpositive_eps(eps):
    with pytest.raises(RuleError, match="eps > 0"):
        leakage_counterexample(power_rule(2), TP23, 1.0, 1.0, r=0.25, eps=eps)
    with pytest.raises(RuleError, match="eps > 0"):
        flow_counterexample(power_rule(2), TP23, 1.0, r=0.25, eps=eps)


def test_explicit_r_and_eps_skip_the_automatic_search():
    """g > x on (0.1, 0.15], but the largest gap sits at 0.25 with no grid
    point right of it on the same side: the search rejects the rule, while
    an explicit r and eps build both counterexamples. Given r and eps, the
    linear rule is still rejected, for its zero gap at r + eps."""
    rule = table_rule([0.0, 0.25, 0.2501, 0.5], [0.0, 0.25005, 0.25005, 0.5])
    with pytest.raises(RuleError, match="no grid-certified sign-consistent interval"):
        find_nonlinearity(rule)
    with pytest.raises(RuleError, match="no grid-certified sign-consistent interval"):
        leakage_counterexample(rule, TP23, 1.0, 1.0)
    for cx in (
        leakage_counterexample(rule, TP23, 1.0, 1.0, r=0.1, eps=0.05),
        flow_counterexample(rule, TP23, 1.0, r=0.1, eps=0.05),
    ):
        assert (cx.config.r, cx.config.eps, cx.config.case) == (0.1, 0.05, CASE_ABOVE)
        assert cx.config.c_eps > 0.0
    with pytest.raises(RuleError, match="gap at r\\+eps is not positive"):
        leakage_counterexample(linear_rule(), TP23, 1.0, 1.0, r=0.1, eps=0.05)
    with pytest.raises(RuleError, match="gap at r\\+eps is not positive"):
        flow_counterexample(linear_rule(), TP23, 1.0, r=0.1, eps=0.05)


# -- bound verification ----------------------------------------------------------------


def test_verify_nonconvergence_trivial_and_violation():
    obs = BranchLevelObserver(TP23, "top")
    obs.norm_s = [0.3, 0.34, 0.36]
    obs.norm_d = [0.3, 0.30, 0.30]
    rep = verify_nonconvergence(obs, bound=1.0, direction=AT_MOST)
    assert rep.ok  # bound 1.0 is trivially satisfied
    rep2 = verify_nonconvergence(obs, bound=0.35, direction=AT_MOST)
    assert not rep2.ok and rep2.first_violation_t == 2
    rep3 = verify_nonconvergence(obs, bound=0.25, direction=AT_LEAST)
    assert rep3.ok


def test_flow_bound_observer_records_the_direction_that_broke():
    """Each broken edge is recorded once, with the flow and bound of the
    direction that broke, forward when both did; a repeated state under the
    constant schedule repeats those records with the new t."""
    cx = leakage_counterexample(
        power_rule(2), TP23, 1.0, 1.0, r=0.25, eps=0.1, surv_top=0.97, surv_bottom=0.95
    )
    obs = FlowBoundObserver(cx.two_path, cx.schedule, cx.watch_branch, cx.config.bound,
                            cx.direction)
    (eid, fb, bb, upper), *_ = obs.bounds(0)  # the watched top branch's first edge
    assert upper and eid == cx.two_path.path_eids("top")[0]
    obs(0, cx.state, None)
    assert obs.violations == []
    state = cx.state.copy()
    state.b_edge[eid] = 2.0 * bb
    obs(0, state, None)
    assert obs.violations == [(0, eid, "backward", 2.0 * bb, bb)]
    obs(1, state, state)
    assert obs.violations[1:] == [(1, eid, "backward", 2.0 * bb, bb)]
    state.f_edge[eid] = 2.0 * fb
    obs(2, state, None)
    assert obs.violations[2:] == [(2, eid, "forward", 2.0 * fb, fb)]


def test_target_convergence_watcher_records_the_hit():
    """The linear rule converges to the min-leakage (top) branch, so the
    watcher's every-100th-step check sees the top path: from t = 1300 on
    this graph, and the report is then not ok whatever the level bound."""
    tp = build_two_path_survival(2, 3, 0.97, 0.95)
    sched = FlowSchedule.constant(1.0, 1.0)
    watcher = TargetConvergenceWatcher(tp.graph, tp.top)
    obs = BranchLevelObserver(tp, "top")
    state = init_state(tp.graph, 1.0, sched, LIN)
    run(state, tp.graph, LIN, sched, EngineConfig(delta=0.5), 3000, observers=[obs, watcher])
    assert watcher.seen_at == 1300
    rep = verify_nonconvergence(obs, 1.0, AT_MOST, target_convergence_at=1300)
    assert rep.first_violation_t is None and not rep.ok


# -- unidirectional swap ------------------------------------------------------------------


def test_swap_demo_flips():
    rep = unidirectional_swap_demo(TP23, LIN, 2.0, 1.0)
    assert rep.base_branch == "top"
    assert rep.swapped_branch == "bottom"
    assert rep.flipped and not rep.degenerate
    # the linear rule freezes the source ratio: no epsilon-convergence
    assert rep.base_eps_path is None


def test_swap_demo_symmetric_is_degenerate():
    rep = unidirectional_swap_demo(TP23, LIN, 1.0, 1.0)
    assert rep.degenerate and not rep.flipped


def test_swap_demo_needs_the_linear_rule():
    with pytest.raises(ConfigError, match="linear rule"):
        unidirectional_swap_demo(TP23, DecisionRule.general(power_rule(2)), 2.0, 1.0)


def test_swap_demo_flip_independent_of_downstream():
    # swap flips regardless of which branch is shorter or leakier
    tp_rev = build_two_path(3, 2, [0.1, 0.2], [0.0])  # top is the long path
    rep = unidirectional_swap_demo(tp_rev, LIN, 2.0, 1.0)
    assert rep.base_branch == "top" and rep.flipped


def test_swap_batch_full_flip_rate():
    reports, rate = swap_demo_batch(TP23, 20, base_seed=0)
    assert rate == 1.0
    assert all(not r.degenerate for r in reports)


@pytest.mark.parametrize("n_seeds", [0, -1])
def test_swap_batch_needs_a_seed(n_seeds):
    with pytest.raises(ConfigError, match="n_seeds must be >= 1"):
        swap_demo_batch(TP23, n_seeds)


def test_unidirectional_source_trajectory_independent_of_downstream():
    """With backward injection 0, the source-edge pheromone trajectory only
    depends on the source edges' own history."""
    sched = FlowSchedule.constant(1.0, 0.0)
    cfg = EngineConfig(delta=0.5)
    tp_a = build_two_path(2, 3, [0.0], [0.0, 0.0])
    tp_b = build_two_path(4, 7, [0.3, 0.1, 0.5], [0.2] * 6)
    series = []
    for tp in (tp_a, tp_b):
        s_top, s_bot = tp.branch_eids("top")[0], tp.branch_eids("bottom")[0]
        p = np.ones(tp.graph.n_edges)
        p[[s_top, s_bot]] = 1.7, 0.6
        st = init_state(tp.graph, p, sched)
        track = []
        for _ in range(60):
            st = step(st, tp.graph, LIN, sched, cfg)
            track.append((float(st.p[s_top]), float(st.p[s_bot])))
        series.append(track)
    assert series[0] == series[1]
