import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailflow.dynamics import _split_linear
from trailflow.graph import DirectedGraph, build_two_path
from trailflow.rules import (
    DecisionRule,
    RuleError,
    clamp_unit_half,
    fixed_points,
    linear_rule,
    power_rule,
    rule_from_config,
    sine_rule,
    stability_margin,
    stable_fixed_points,
    table_rule,
    validate_rule,
)

from helpers import engine_split


# -- linear split -------------------------------------------------------------


def _source_split(ps):
    """The engine's linear split of one unit of flow at the source over its
    out-edges, which carry pheromone ``ps``; (edge flows, zero-split count)."""
    k = len(ps)
    fan = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    ga = DirectedGraph(k + 2, fan, 0, k + 1).arrays
    p = np.ones(ga.m)
    p[:k] = ps
    vflow = np.zeros(ga.n)
    vflow[0] = 1.0
    eflow, zero = _split_linear(ga, p, vflow, forward=True)
    return eflow[:k].tolist(), zero


def test_linear_split_examples():
    assert _source_split([1, 1]) == ([0.5, 0.5], 0)
    assert _source_split([3, 1]) == ([0.75, 0.25], 0)
    assert _source_split([0, 0]) == ([0.5, 0.5], 1)  # no pheromone: even, flagged


def test_linear_split_subnormal_total():
    # 1 / 5e-324 overflows, so this vertex splits per edge as flow * (p / total)
    assert _source_split([5e-324, 0.0]) == ([1.0, 0.0], 0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=8),
    st.floats(min_value=1e-6, max_value=1e6),
)
@settings(max_examples=100, deadline=None)
def test_linear_split_sums_to_one_and_scale_invariant(ps, c):
    fr, _ = _source_split(ps)
    assert abs(sum(fr) - 1.0) <= 1e-12
    fr2, _ = _source_split([c * p for p in ps])
    assert all(abs(a - b) <= 1e-9 for a, b in zip(fr, fr2))


# -- general split ------------------------------------------------------------

TP22 = build_two_path(2, 2, [0.0], [0.0])


def _branch_split(rule, p_top, p_bottom):
    """The engine's split of one unit of flow at the source over the two
    branch edges under a general rule; (top flow, bottom flow)."""
    ga = TP22.graph.arrays
    p = np.ones(ga.m)
    p[TP22.s_top_eid] = p_top
    p[TP22.s_bottom_eid] = p_bottom
    vflow = np.zeros(ga.n)
    vflow[TP22.graph.source] = 1.0
    eflow, _, _ = engine_split(ga, DecisionRule.general(rule), p, vflow, np.zeros(ga.n))
    return float(eflow[TP22.s_top_eid]), float(eflow[TP22.s_bottom_eid])


def test_general_split_examples():
    assert _branch_split(linear_rule(), 1.0, 3.0) == (0.25, 0.75)
    assert _branch_split(linear_rule(), 3.0, 1.0) == (0.75, 0.25)
    f_min, f_oth = _branch_split(power_rule(2), 1.0, 3.0)
    assert f_min == pytest.approx(0.125)
    assert f_oth == pytest.approx(0.875)
    # the branch minimum is validated in [0, 1/2], absorbing 1e-12 of slop
    assert clamp_unit_half(0.25) == 0.25
    assert clamp_unit_half(-1e-13) == 0.0 and clamp_unit_half(0.5 + 1e-13) == 0.5
    for bad in (0.6, -0.1, math.nan):
        with pytest.raises(RuleError):
            clamp_unit_half(bad)


def test_general_split_matches_tabulated_oracle():
    # cross-check the closed form against a dense table of the same function
    xs = np.linspace(0.0, 0.5, 2001)
    tab = table_rule(xs, 2.0 * xs**2)
    rule = power_rule(2)
    for x in np.linspace(0.0, 0.5, 97):
        a = float(rule(float(x)))
        b = float(tab(float(x)))
        assert abs(a - b) <= 1e-6  # interpolation error bound on a 2001 grid


@given(st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=80, deadline=None)
def test_general_split_fractions_sum_exactly(x):
    for rule in (power_rule(2), power_rule(0.5), sine_rule(0.05)):
        a, b = _branch_split(rule, x, 1.0 - x)
        assert a + b == 1.0  # b computed as exact complement
        assert 0.0 <= a <= 1.0


# -- validation ---------------------------------------------------------------


def test_validate_rule_ok_and_violations():
    assert validate_rule(linear_rule()) == []
    assert validate_rule(sine_rule(0.05)) == []  # derivative 1 - 0.2 pi > 0
    from trailflow.rules import RuleFunction

    bad = RuleFunction("dec", lambda x: 0.5 - x)
    kinds = {v.kind for v in validate_rule(bad)}
    assert "monotonicity" in kinds and "endpoint" in kinds


def test_table_rule_validation():
    with pytest.raises(RuleError):
        table_rule([0.0, 0.4], [0.0, 0.4])  # must span [0, 0.5]
    with pytest.raises(RuleError):
        table_rule([0.0, 0.3, 0.2, 0.5], [0.0, 0.1, 0.2, 0.5])  # not increasing


def test_rule_from_config_round_trip():
    for cfg in (
        {"kind": "linear"},
        {"kind": "power", "k": 2.0},
        {"kind": "sine", "a": 0.05},
        {"kind": "table", "xs": [0.0, 0.25, 0.5], "ys": [0.0, 0.2, 0.5]},
    ):
        rule = rule_from_config(cfg)
        again = rule_from_config(rule.config_dict())
        assert again.config == rule.config
    with pytest.raises(RuleError):
        rule_from_config({"kind": "nope"})


@pytest.mark.parametrize(
    "cfg,fragment",
    [
        ({"kind": "power", "k": True}, "power rule: k: expected a finite number"),
        ({"kind": "power", "k": "2"}, "power rule: k: expected a finite number"),
        ({"kind": "power", "k": 2, "zz": 1}, "power rule: zz: unknown key"),
        ({"kind": "sine", "a": float("nan")}, "sine rule: a: expected a finite number"),
        ({"kind": "table", "xs": [0, 0.5], "ys": "01"}, "table rule: ys: expected a list"),
        ({"kind": "table", "xs": [0, 0.5], "ys": [0, False]}, "table rule: ys: expected"),
        ({"kind": "linear", "k": 1}, "linear rule: k: unknown key"),
    ],
)
def test_rule_from_config_strict(cfg, fragment):
    with pytest.raises(RuleError, match=fragment):
        rule_from_config(cfg)


# -- fixed points -------------------------------------------------------------


def test_fixed_points_identity_flagged():
    scan = fixed_points(linear_rule())
    assert scan.identically_fixed
    assert scan.points == ()


def test_fixed_points_examples():
    assert [round(x, 9) for x in fixed_points(power_rule(2)).points] == [0.0, 0.5]
    pts = list(fixed_points(sine_rule(0.05)).points)
    assert len(pts) == 3
    assert pts[0] == 0.0 and pts[-1] == 0.5
    assert abs(pts[1] - 0.25) <= 1e-9  # zero of the sine perturbation
    with pytest.raises(RuleError):
        fixed_points(power_rule(2), grid=32)


def test_fixed_points_residuals_within_tol():
    for rule in (power_rule(2), power_rule(0.5), sine_rule(0.05)):
        scan = fixed_points(rule)
        for r in scan.points:
            assert abs(float(rule.fn(r)) - r) <= 1e-9


# -- stability ----------------------------------------------------------------


def test_stable_fixed_points_examples():
    assert stable_fixed_points(power_rule(2)).stable_points == (0.0,)
    assert stable_fixed_points(power_rule(0.5)).stable_points == (0.5,)
    rep = stable_fixed_points(sine_rule(0.05))
    assert rep.stable_points == (0.25,)
    assert rep.margins[0.25].r_eps == pytest.approx(0.25, abs=2e-4)
    assert rep.identically_fixed is False
    assert stable_fixed_points(linear_rule()).identically_fixed


def test_stable_points_subset_and_sign_pattern():
    for rule in (power_rule(2), power_rule(0.5), sine_rule(0.05)):
        rep = stable_fixed_points(rule)
        assert set(rep.stable_points) <= set(rep.fixed_points)
        for r in rep.stable_points:
            r_eps = rep.margins[r].r_eps
            assert rep.margins[r].gap > 0.0
            for x in np.linspace(max(0.0, r - r_eps), min(0.5, r + r_eps), 101):
                if abs(x - r) < 1e-12 or abs(x - r) > r_eps:
                    continue
                diff = float(rule.fn(float(x))) - float(x)
                assert math.copysign(1.0, diff) == math.copysign(1.0, r - x)


def test_stability_margin_values():
    # min over [0.1, 0.4] of (x - 2x^2) is attained at both endpoints: 0.08
    gap = stability_margin(power_rule(2), 0.0, 0.1, 0.4)
    assert gap == pytest.approx(0.08, rel=1e-12)
    assert stability_margin(linear_rule(), 0.25, 0.05, 0.2) == 0.0
    pos = stability_margin(sine_rule(0.05), 0.25, 0.05, 0.2)
    assert pos > 0.0
    with pytest.raises(RuleError):
        stability_margin(power_rule(2), 0.0, 0.0, 0.4)


# -- decision rule wrapper ----------------------------------------------------


def test_decision_rule_wrappers():
    lin = DecisionRule.linear()
    assert lin.is_linear and lin.rule_fn is None
    gen = DecisionRule.general(power_rule(2))
    assert not gen.is_linear
    with pytest.raises(RuleError):
        DecisionRule.general(None)
