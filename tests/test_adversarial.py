import numpy as np
import pytest

from trailflow.adversarial import (
    AT_LEAST,
    AT_MOST,
    BranchLevelObserver,
    CASE_ABOVE,
    CASE_BELOW,
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
from trailflow.graph import build_two_path
from trailflow.rules import (
    RuleFunction,
    RuleLinearAtResolution,
    linear_rule,
    power_rule,
    sine_rule,
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
    with pytest.raises(RuleLinearAtResolution):
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
    assert cx.two_path.surv_top == pytest.approx(0.97)
    assert cx.two_path.surv_bottom == pytest.approx(0.95)
    # initial state: watched branch level exactly r+eps, flows rule-consistent
    p = cx.state.p
    s_top, s_bot = cx.two_path.s_top_eid, cx.two_path.s_bottom_eid
    assert p[s_top] / (p[s_top] + p[s_bot]) == pytest.approx(0.35)
    g_at_bound = 2 * 0.35**2
    assert cx.state.f_edge[s_top] == pytest.approx(g_at_bound)


def test_leakage_counterexample_rejects_violating_survival():
    with pytest.raises(ConfigError):
        leakage_counterexample(
            power_rule(2), TP23, 1.0, 1.0, r=0.25, eps=0.1,
            surv_top=0.99, surv_bottom=0.95,  # ratio 1.042 > 1.02625
        )
    with pytest.raises(RuleLinearAtResolution):
        leakage_counterexample(linear_rule(), TP23, 1.0, 1.0)


def test_leakage_counterexample_case_above():
    cx = leakage_counterexample(power_rule(0.5), TP23, 1.0, 1.0)
    assert cx.config.case == CASE_ABOVE
    assert cx.watch_branch == "bottom" and cx.direction == AT_LEAST
    assert "beta/alpha >=" in cx.config.constraint
    assert cx.two_path.surv_bottom < cx.two_path.surv_top


@pytest.mark.parametrize("rule", [power_rule(2), power_rule(0.5), sine_rule(0.05)])
def test_leakage_counterexample_invariant_short_run(rule):
    cx = leakage_counterexample(rule, TP23, 1.0, 1.0)
    report, trace, obs = run_counterexample(cx, 3000)
    assert report.ok, (rule.name, report)
    assert report.flow_bounds_ok
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
    with pytest.raises(RuleLinearAtResolution):
        flow_counterexample(linear_rule(), TP23, 1.0)


@pytest.mark.parametrize("rule", [power_rule(2), power_rule(0.5)])
def test_flow_counterexample_invariant_short_run(rule):
    fx = flow_counterexample(rule, TP23, 1.0)
    report, trace, obs = run_counterexample(fx, 2000)
    assert report.ok, (rule.name, report)


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


def test_swap_demo_flip_independent_of_downstream():
    # swap flips regardless of which branch is shorter or leakier
    tp_rev = build_two_path(3, 2, [0.1, 0.2], [0.0])  # top is the long path
    rep = unidirectional_swap_demo(tp_rev, LIN, 2.0, 1.0)
    assert rep.base_branch == "top" and rep.flipped


def test_swap_batch_full_flip_rate():
    reports, rate = swap_demo_batch(TP23, LIN, 20, base_seed=0)
    assert rate == 1.0
    assert all(not r.degenerate for r in reports)


def test_unidirectional_source_trajectory_independent_of_downstream():
    """With backward injection 0, the source-edge pheromone trajectory only
    depends on the source edges' own history."""
    sched = FlowSchedule.constant(1.0, 0.0)
    cfg = EngineConfig(delta=0.5)
    tp_a = build_two_path(2, 3, [0.0], [0.0, 0.0])
    tp_b = build_two_path(4, 7, [0.3, 0.1, 0.5], [0.2] * 6)
    series = []
    for tp in (tp_a, tp_b):
        p = {e: 1.0 for e in tp.graph.edges}
        p[tp.graph.edges[tp.s_top_eid]] = 1.7
        p[tp.graph.edges[tp.s_bottom_eid]] = 0.6
        st = init_state(tp.graph, p, sched)
        track = []
        for _ in range(60):
            st = step(st, tp.graph, LIN, sched, cfg)
            track.append((float(st.p[tp.s_top_eid]), float(st.p[tp.s_bottom_eid])))
        series.append(track)
    assert series[0] == series[1]
