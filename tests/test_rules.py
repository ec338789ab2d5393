import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailflow.graph import DirectedGraph, build_two_path
from trailflow.rules import (
    DEFAULT_GRID,
    DecisionRule,
    RuleError,
    RuleFunction,
    clamp_unit_half,
    linear_rule,
    power_rule,
    rule_from_config,
    sine_rule,
    stability_margin,
    stable_fixed_points,
    table_rule,
    validate_rule,
)

from helpers import engine_split, linear_split


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
    eflow, zero = linear_split(ga, p, vflow, forward=True)
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
    s_top, s_bottom = TP22.branch_eids("top")[0], TP22.branch_eids("bottom")[0]
    p = np.ones(ga.m)
    p[s_top] = p_top
    p[s_bottom] = p_bottom
    vflow = np.zeros(ga.n)
    vflow[TP22.graph.source] = 1.0
    eflow, _, _ = engine_split(ga, DecisionRule.general(rule), p, vflow, np.zeros(ga.n))
    return float(eflow[s_top]), float(eflow[s_bottom])


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
        a = float(rule.fn(float(x)))
        b = float(tab.fn(float(x)))
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
    bad = RuleFunction("dec", lambda x: 0.5 - x)
    kinds = {v.kind for v in validate_rule(bad)}
    assert "monotonicity" in kinds and "endpoint" in kinds


@pytest.mark.parametrize(
    "fn,kinds",
    [
        (lambda x: x * math.nan, ["endpoint", "endpoint", "monotonicity", "range"]),
        (lambda x: np.where(x > 0.3, math.nan, x), ["endpoint", "monotonicity", "range"]),
        (lambda x: np.where((0.2 < x) & (x < 0.3), math.nan, x), ["monotonicity", "range"]),
    ],
    ids=["everywhere", "right-part", "interior"],
)
def test_validate_rule_reports_nan(fn, kinds):
    """A g that is NaN on all of [0, 1/2] or on part of it fails every test
    that reads a NaN value, at the first grid point that does."""
    found = validate_rule(RuleFunction("nan", fn))
    assert [v.kind for v in found] == kinds
    xs = np.linspace(0.0, 0.5, DEFAULT_GRID)
    i = next(i for i, x in enumerate(xs) if math.isnan(fn(x)))
    assert found[-1].x == xs[i]  # range: the first NaN value
    assert found[-2].x == xs[max(i - 1, 0)]  # monotonicity: the pair that reaches it


def test_table_rule_validation():
    with pytest.raises(RuleError):
        table_rule([0.0, 0.4], [0.0, 0.4])  # must span [0, 0.5]
    with pytest.raises(RuleError):
        table_rule([0.0, 0.3, 0.2, 0.5], [0.0, 0.1, 0.2, 0.5])  # not increasing


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rule_constructors_reject_non_finite_parameters(bad):
    with pytest.raises(RuleError, match="finite"):
        power_rule(bad)
    with pytest.raises(RuleError, match="finite"):
        sine_rule(bad)
    with pytest.raises(RuleError, match="finite"):
        table_rule([0.0, 0.25, 0.5], [0.0, bad, 0.5])
    with pytest.raises(RuleError, match="finite"):
        table_rule([0.0, bad, 0.5], [0.0, 0.25, 0.5])


def test_power_rule_rejects_an_exponent_whose_coefficient_overflows():
    """2 ** (k - 1) overflows from k = 1025 on: a RuleError, not an
    OverflowError. Below that the coefficient is the same float."""
    for k in (1025.0, 2000.0):
        with pytest.raises(RuleError, match="too large"):
            power_rule(k)
    for k in (0.5, 2.0, 1024.5):
        assert power_rule(k).fn(0.3) == 2.0 ** (k - 1.0) * 0.3**k


def test_rule_from_config_round_trip():
    for cfg in (
        {"kind": "linear"},
        {"kind": "power", "k": 2.0},
        {"kind": "sine", "a": 0.05},
        {"kind": "table", "xs": [0.0, 0.25, 0.5], "ys": [0.0, 0.2, 0.5]},
    ):
        rule = rule_from_config(cfg)
        again = rule_from_config(dict(rule.config))
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
    rep = stable_fixed_points(linear_rule())
    assert rep.identically_fixed
    assert rep.fixed_points == ()


def test_fixed_points_examples():
    assert [round(x, 9) for x in stable_fixed_points(power_rule(2)).fixed_points] == [0.0, 0.5]
    pts = list(stable_fixed_points(sine_rule(0.05)).fixed_points)
    assert len(pts) == 3
    assert pts[0] == 0.0 and pts[-1] == 0.5
    assert abs(pts[1] - 0.25) <= 1e-9  # zero of the sine perturbation
    with pytest.raises(RuleError):
        stable_fixed_points(power_rule(2), grid=32)


def test_fixed_points_residuals_within_tol():
    for rule in (power_rule(2), power_rule(0.5), sine_rule(0.05)):
        for r in stable_fixed_points(rule).fixed_points:
            assert abs(float(rule.fn(r)) - r) <= 1e-9


def test_fixed_point_off_the_grid_is_bisected():
    """g(x) = x at 0.15 lies between grid points 1228 and 1229 of the
    4097-point grid (0.15 is 1228.8 steps), so the scan finds it by one
    bisection of the sign change; g crosses the diagonal upward there, so
    only 0 and 1/2 are stable."""
    rule = table_rule([0.0, 0.1, 0.2, 0.5], [0.0, 0.05, 0.25, 0.5])
    assert validate_rule(rule) == []
    rep = stable_fixed_points(rule)
    points = rep.fixed_points
    assert len(points) == 3 and (points[0], points[-1]) == (0.0, 0.5)
    assert abs(points[1] - 0.15) <= 1e-10
    assert points[1] != 0.15  # a midpoint of the bisection, not a grid point
    assert rep.stable_points == (0.0, 0.5)


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


def test_stable_fixed_points_evaluates_the_grid_once():
    """The fixed-point scan and the crossing scan read one evaluation of g on
    the grid; the report is the one of the uncounted rule."""
    for base in (power_rule(2), power_rule(0.5), sine_rule(0.05)):
        grids = []

        def fn(x, base=base):
            if np.ndim(x):
                grids.append(np.size(x))
            return base.fn(x)

        assert stable_fixed_points(RuleFunction("counted", fn)) == stable_fixed_points(base)
        assert grids == [DEFAULT_GRID]


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
