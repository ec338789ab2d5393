import csv
import math
import tracemalloc

import numpy as np
import pytest

from trailflow.dynamics import (
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    _RepeatGate,
    step,
)
from trailflow.equilibria import (
    EquilibriumError,
    equilibrium_state,
    perturb,
    stability_experiment,
    verify_equilibrium,
)
from trailflow.graph import build_two_path
from trailflow.rules import (
    RuleFunction,
    linear_rule,
    power_rule,
    sine_rule,
    stable_fixed_points,
)

from helpers import reference_deviation, repeats

TP = build_two_path(2, 2, [0.0], [0.0])
TP35 = build_two_path(3, 5, [0.0] * 2, [0.0] * 4)
SCHED = FlowSchedule.constant(1.0, 1.0)
CFG = EngineConfig(delta=0.5)


def test_equilibrium_spec_closed_form():
    """Top edges carry (delta/(1-delta)) (f_s+b_d) r of pheromone and bottom
    edges the (1-r)-complement of that scale."""
    st = equilibrium_state(TP, sine_rule(-0.05), 0.25, 1.0, 1.0, 0.5)
    for top, bottom in zip(TP.path_eids("top"), TP.path_eids("bottom")):
        assert st.p[top] == pytest.approx(0.5)
        assert st.p[bottom] == pytest.approx(1.5)
        assert st.p[top] + st.p[bottom] == pytest.approx(0.5 / 0.5 * (1.0 + 1.0))


def test_equilibrium_state_values():
    rule = sine_rule(0.05)
    st = equilibrium_state(TP, rule, 0.25, 1.0, 1.0, 0.5)
    for eid in TP.path_eids("top"):
        assert st.p[eid] == pytest.approx(0.5)
        assert st.f_edge[eid] == pytest.approx(0.25)
        assert st.b_edge[eid] == pytest.approx(0.25)
    for eid in TP.path_eids("bottom"):
        assert st.p[eid] == pytest.approx(1.5)
        assert st.f_edge[eid] == pytest.approx(0.75)


def test_equilibrium_state_symmetric_and_boundary():
    st = equilibrium_state(TP, linear_rule(), 0.5, 1.0, 1.0, 0.5)
    for eid in range(TP.graph.n_edges):
        assert st.p[eid] == pytest.approx(1.0)  # (delta/(1-delta)) (f+b) / 2
    st0 = equilibrium_state(TP, power_rule(2), 0.0, 1.0, 1.0, 0.5)
    for eid in TP.path_eids("top"):
        assert st0.p[eid] == 0.0
        assert st0.f_edge[eid] == 0.0


def test_equilibrium_state_preconditions():
    leaky = build_two_path(2, 2, [0.1], [0.0])
    with pytest.raises(EquilibriumError):
        equilibrium_state(leaky, linear_rule(), 0.5, 1.0, 1.0, 0.5)
    with pytest.raises(EquilibriumError):
        equilibrium_state(TP, power_rule(2), 0.25, 1.0, 1.0, 0.5)  # not fixed
    nan_rule = RuleFunction("nan", lambda x: math.nan)
    with pytest.raises(EquilibriumError, match="not a fixed point"):
        equilibrium_state(TP, nan_rule, 0.25, 1.0, 1.0, 0.5)  # g(r) is NaN


def test_equilibria_are_fixed_points_of_the_dynamics():
    for rule in (power_rule(2), power_rule(0.5), sine_rule(0.05)):
        for r in stable_fixed_points(rule).fixed_points:
            st = equilibrium_state(TP, rule, r, 1.0, 1.0, 0.5)
            drift = verify_equilibrium(st, TP, rule, SCHED, CFG, 100)
            assert drift <= 1e-12, (rule.name, r, drift)


def test_perturbed_unstable_point_drifts():
    rule = sine_rule(0.05)
    st = equilibrium_state(TP, rule, 0.5, 1.0, 1.0, 0.5)  # 0.5 not in S_g
    st.p[TP.branch_eids("top")[0]] += 0.1
    drift = verify_equilibrium(st, TP, rule, SCHED, CFG, 400)
    assert drift > 0.3  # walks away instead of returning


def test_perturb_properties():
    st = equilibrium_state(TP, sine_rule(0.05), 0.25, 1.0, 1.0, 0.5)
    a = perturb(st, 0.01, seed=7)
    b = perturb(st, 0.01, seed=7)
    assert np.array_equal(a.p, b.p)  # seeded determinism
    assert np.max(np.abs(a.p - st.p)) <= 0.01 + 1e-15
    assert np.all(a.p >= 0.0)
    big = perturb(equilibrium_state(TP, power_rule(2), 0.0, 1, 1, 0.5), 0.5, seed=1)
    assert any("clamped" in w for w in big.warnings)
    assert np.all(big.p >= 0.0)
    for magnitude in (0.0, -0.01, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="magnitude"):
            perturb(st, magnitude, seed=1)


def test_stability_experiment_converges_and_holds():
    rule = sine_rule(0.05)
    rep = stable_fixed_points(rule)
    r_eps = rep.margins[0.25].r_eps
    out = stability_experiment(rule, 0.25, r_eps / 4, 1e-3, 2000, TP, seed=11)
    assert out.t_converged is not None
    assert out.held_until_Tmax


def test_stability_report_carries_perturbation_warning():
    rule = power_rule(2)
    r_eps = stable_fixed_points(rule).margins[0.0].r_eps
    out = stability_experiment(rule, 0.0, r_eps / 4, 1e-3, 2000, TP, seed=0)
    assert out.warnings == ("perturbation clamped 3 values at 0",)
    assert out.to_json_dict()["warnings"] == ["perturbation clamped 3 values at 0"]
    at_zero = stability_experiment(rule, 0.0, r_eps / 4, 1e-3, 0, TP, seed=0)  # no run
    assert at_zero.warnings == out.warnings
    assert stability_experiment(rule, 0.0, 0.0, 1e-3, 50, TP).warnings == ()


def test_stability_experiment_eps_zero_trivial():
    out = stability_experiment(sine_rule(0.05), 0.25, 0.0, 1e-3, 50, TP, seed=0)
    assert out.t_converged == 0
    assert out.held_until_Tmax


def test_stability_experiment_unstable_point_reported_not_raised():
    # r = 0.5 is fixed but not stable for the sine rule; the run drifts away
    out = stability_experiment(sine_rule(0.05), 0.5, 0.02, 1e-3, 2000, TP, seed=2)
    assert not out.held_until_Tmax


def test_stability_experiment_abort_does_not_hold():
    """A run that aborts on a NaN of g has not held: its report says so and
    names the abort in its warnings."""
    rule = RuleFunction("nan-near-0", lambda x: math.nan if 0.0 < x < 0.01 else 2.0 * x * x)
    out = stability_experiment(rule, 0.0, 1e-3, 1e-2, 50, TP, seed=0)
    assert out.t_converged == 0 and not out.held_until_Tmax
    assert out.warnings == (
        "perturbation clamped 3 values at 0",
        "engine abort at t=2: non-finite pheromone at index 0",
    )


def test_stability_report_series(tmp_path):
    rule = power_rule(2)
    path = str(tmp_path / "series.csv")
    out = stability_experiment(rule, 0.0, 0.05, 1e-3, 200, TP, seed=4, series_path=path)
    assert out.max_drift_series_path == path
    lines = open(path).read().splitlines()
    assert lines[0] == "t,deviation"
    assert len(lines) == 202  # header + t=0..200
    doc = out.to_json_dict()
    assert doc["held_until_Tmax"] is True


# seeds 0-4 of the three experiments of the benchmark's two-path-regimes
# workload; seed 3 of power 2 is the "power2" case
SEEDED_CASES = [
    (name, rule, seed)
    for name, rule in (
        ("power2", power_rule(2)), ("power0.5", power_rule(0.5)), ("sine0.05", sine_rule(0.05))
    )
    for seed in range(5)
    if (name, seed) != ("power2", 3)
]
NAN_LEVEL_EPS, NAN_LEVEL_SEED = 2.5, 22


def _stable_case(rule):
    rep = stable_fixed_points(rule)
    r = rep.stable_points[0]
    return rule, r, rep.margins[r].r_eps / 4


@pytest.mark.parametrize(
    "rule, r, eps, seed, tp",
    [
        (*_stable_case(power_rule(2)), 3, TP),
        (*_stable_case(power_rule(0.5)), 5, TP),
        (*_stable_case(sine_rule(0.05)), 7, TP),
        (sine_rule(0.05), 0.5, 0.02, 2, TP),  # the unstable point: the run drifts away
        (*_stable_case(power_rule(2)), 3, TP35),
        (*_stable_case(power_rule(3)), 4, TP35),
        (*_stable_case(sine_rule(0.1)), 6, TP35),
        (sine_rule(0.1), 0.5, 0.02, 8, TP35),
    ],
    ids=[
        "power2", "power0.5", "sine0.05", "sine0.05-unstable",
        "power2-3x5", "power3-3x5", "sine0.1-3x5", "sine0.1-3x5-unstable",
    ],
)
def test_stability_series_matches_reference_deviation(tmp_path, rule, r, eps, seed, tp):
    """Every row of the series CSV is the original deviation formula's float,
    bit for bit, replayed over the same steps."""
    path = tmp_path / "series.csv"
    T = 600
    stability_experiment(rule, r, eps, 1e-3, T, tp, seed=seed, series_path=str(path))
    eq = equilibrium_state(tp, rule, r, 1.0, 1.0, 0.5)
    st = perturb(eq, eps, seed)
    decision = DecisionRule.general(rule)
    want = [(0, reference_deviation(tp, r, st, eq.f_edge, eq.b_edge).hex())]
    for _ in range(T):
        st = step(st, tp.graph, decision, SCHED, CFG)
        want.append((st.t, reference_deviation(tp, r, st, eq.f_edge, eq.b_edge).hex()))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "deviation"]
    assert [(int(t), float(d).hex()) for t, d in rows[1:]] == want


def _per_array_drifts(st, tp, rule, ks):
    """``verify_equilibrium``'s drift in its original form, one ``np.max``
    per array and step, after each number of steps in ``ks``."""
    p0, fe0, be0 = st.p.copy(), st.f_edge.copy(), st.b_edge.copy()
    decision = DecisionRule.general(rule)
    cur, want, drifts = st, 0.0, {}
    for t in range(1, max(ks) + 1):
        cur = step(cur, tp.graph, decision, SCHED, CFG)
        want = max(
            want,
            float(np.max(np.abs(cur.p - p0))),
            float(np.max(np.abs(cur.f_edge - fe0))),
            float(np.max(np.abs(cur.b_edge - be0))),
        )
        drifts[t] = want
    return [drifts[k] for k in ks]


def test_verify_equilibrium_drift_matches_per_array_maxima():
    kicked = equilibrium_state(TP, sine_rule(0.05), 0.5, 1.0, 1.0, 0.5)
    kicked.p[TP.branch_eids("top")[0]] += 0.1
    cases = [(kicked, TP, sine_rule(0.05))]
    for rule, r, eps in (_stable_case(power_rule(3)), _stable_case(sine_rule(0.1))):
        cases.append((perturb(equilibrium_state(TP35, rule, r, 1.0, 1.0, 0.5), eps, 5), TP35, rule))
    ks = (1, 100, 400, 3000)
    for st, tp, rule in cases:
        got = [verify_equilibrium(st, tp, rule, SCHED, CFG, k).hex() for k in ks]
        assert got == [d.hex() for d in _per_array_drifts(st, tp, rule, ks)], (rule.name, tp.m)


def _brute_force_stability(rule, r, eps, eps_target, T, seed):
    """A stability run stepped all the way to T with the deviation in its
    original form: the report fields, every series row and the first t
    whose state repeats its predecessor byte for byte."""
    eq = equilibrium_state(TP, rule, r, 1.0, 1.0, 0.5)
    st = perturb(eq, eps, seed)
    decision = DecisionRule.general(rule)
    rows = [(0, reference_deviation(TP, r, st, eq.f_edge, eq.b_edge))]
    t_stationary = None
    for _ in range(T):
        prev, st = st, step(st, TP.graph, decision, SCHED, CFG)
        rows.append((st.t, reference_deviation(TP, r, st, eq.f_edge, eq.b_edge)))
        same = all(
            a.tobytes() == b.tobytes()
            for a, b in ((st.p, prev.p), (st.f_edge, prev.f_edge), (st.b_edge, prev.b_edge))
        )
        if same and t_stationary is None:
            t_stationary = st.t
    t_converged = next((t for t, dev in rows if dev <= eps_target), None)
    after = [dev for t, dev in rows if t_converged is not None and t > t_converged]
    held = t_converged is not None and all(dev <= eps_target for dev in after)
    return {
        "t_converged": t_converged,
        "t_stationary": t_stationary,
        "held_until_Tmax": held,
        "max_dev_after_convergence": max(after, default=0.0).hex(),
        "rows": [(t, dev.hex()) for t, dev in rows],
    }


@pytest.mark.parametrize(
    "rule, r, eps, eps_target, T, seed, stationary",
    [
        (*_stable_case(power_rule(2)), 1e-3, 2000, 3, True),
        (*_stable_case(power_rule(0.5)), 1e-3, 2000, 5, True),
        (*_stable_case(sine_rule(0.05)), 1e-3, 2000, 7, True),
        # leaves r = 0.5 and settles on another fixed point, never within 1e-3 of r
        (sine_rule(0.05), 0.5, 0.02, 1e-3, 2000, 2, True),
        # the fixed point's deviation is not exactly 0, so 0.0 is never reached
        (*_stable_case(power_rule(0.5)), 0.0, 2000, 3, True),
        # T_max ends before the state repeats
        (*_stable_case(sine_rule(0.05)), 1e-3, 60, 7, False),
        (sine_rule(0.05), 0.5, 0.02, 1e-3, 100, 2, False),
        # eps 2.5 clamps both source-side pheromones of power 2's r = 0 to 0
        # first at seed 22 (seeds from 0): the t = 0 levels are NaN
        (power_rule(2), 0.0, NAN_LEVEL_EPS, 1e-3, 2000, NAN_LEVEL_SEED, True),
        *[(*_stable_case(rule), 1e-3, 2000, seed, True) for _, rule, seed in SEEDED_CASES],
    ],
    ids=[
        "power2", "power0.5", "sine0.05", "sine0.05-unstable", "eps-target-0",
        "sine0.05-short", "sine0.05-unstable-short", "power2-nan-level",
        *[f"{name}-seed{seed}" for name, _, seed in SEEDED_CASES],
    ],
)
def test_stability_experiment_replays_brute_force(
    tmp_path, rule, r, eps, eps_target, T, seed, stationary
):
    """Stopping at the first repeated state changes no report field and no
    series row: both are the floats of a run stepped to T_max."""
    path = tmp_path / "series.csv"
    out = stability_experiment(rule, r, eps, eps_target, T, TP, seed=seed, series_path=str(path))
    want = _brute_force_stability(rule, r, eps, eps_target, T, seed)
    if (eps, seed) == (NAN_LEVEL_EPS, NAN_LEVEL_SEED):
        st = perturb(equilibrium_state(TP, rule, r, 1.0, 1.0, 0.5), eps, seed)
        s_top, s_bottom = TP.branch_eids("top")[0], TP.branch_eids("bottom")[0]
        assert st.p[s_top] == st.p[s_bottom] == 0.0
        assert want["rows"][0] == (0, "nan")
    assert (out.t_stationary is not None) == stationary
    got = {
        "t_converged": out.t_converged,
        "t_stationary": out.t_stationary,
        "held_until_Tmax": out.held_until_Tmax,
        "max_dev_after_convergence": out.max_dev_after_convergence.hex(),
    }
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "deviation"]
    got["rows"] = [(int(t), float(d).hex()) for t, d in rows[1:]]
    assert got == want
    assert out.to_json_dict()["t_stationary"] == out.t_stationary


@pytest.mark.parametrize(
    "rule, seed", [(power_rule(2), 3), (power_rule(0.5), 5), (sine_rule(0.05), 7)]
)
def test_stability_experiment_long_horizon_holds_the_last_row(tmp_path, rule, seed):
    """At T_max 100,000 the report and the series are those of T_max 2000
    (which ``test_stability_experiment_replays_brute_force`` replays against
    stepping at these seeds), the last row repeated to T_max."""
    rule, r, eps = _stable_case(rule)
    short_path, long_path = tmp_path / "short.csv", tmp_path / "long.csv"
    short = stability_experiment(rule, r, eps, 1e-3, 2000, TP, seed=seed, series_path=str(short_path))
    long = stability_experiment(rule, r, eps, 1e-3, 100_000, TP, seed=seed, series_path=str(long_path))
    assert short.t_stationary is not None
    assert {**long.to_json_dict(), "T_max": 0, "max_drift_series_path": None} == {
        **short.to_json_dict(), "T_max": 0, "max_drift_series_path": None
    }
    assert long.max_dev_after_convergence.hex() == short.max_dev_after_convergence.hex()
    short_rows = short_path.read_text().splitlines()
    long_rows = long_path.read_text().splitlines()
    assert len(long_rows) == 100_002 and long_rows[:2002] == short_rows
    last = short_rows[-1].split(",")[1]
    assert all(row == f"{t},{last}" for t, row in enumerate(long_rows[2002:], 2001))


def test_stability_experiment_stops_stepping_at_t_stationary(monkeypatch):
    import trailflow.dynamics as dynamics

    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", counted)
    rule, r, eps = _stable_case(power_rule(2))
    out = stability_experiment(rule, r, eps, 1e-3, 10_000, TP, seed=1)
    assert out.t_stationary is not None
    assert len(calls) <= out.t_stationary + 1
    assert out.held_until_Tmax and out.T_max == 10_000


def test_stability_experiment_memory_does_not_grow_with_T_max():
    """Without a series file a stability run keeps the states it steps to,
    not one deviation per t: the power-2 run, stationary near t = 1000,
    peaks within 200 KB at T_max = 100,000 of its peak at T_max = 2,000."""
    rule, r, eps = _stable_case(power_rule(2))

    def peak(T):
        tracemalloc.start()
        out = stability_experiment(rule, r, eps, 1e-3, T, TP, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert out.t_stationary is not None and out.held_until_Tmax
        return peak

    peak(2000)  # lazy set-up
    assert peak(100_000) - peak(2000) <= 200_000


def test_repeats_compares_bytes_not_floats():
    st = equilibrium_state(TP, power_rule(2), 0.0, 1.0, 1.0, 0.5)
    assert repeats(st, st.copy())
    neg = st.copy()
    top = TP.path_eids("top")[0]
    assert st.f_edge[top] == 0.0
    neg.f_edge[top] = -0.0
    assert np.array_equal(neg.f_edge, st.f_edge)  # equal as floats
    assert not repeats(neg, st)
    assert _RepeatGate()(st, st.copy())
    assert not _RepeatGate()(neg, st)


def test_verify_equilibrium_stops_at_fixed_point_with_exact_drift(monkeypatch):
    import trailflow.dynamics as dynamics

    rule, r, eps = _stable_case(sine_rule(0.05))
    eq = equilibrium_state(TP, rule, r, 1.0, 1.0, 0.5)
    st = perturb(eq, eps, seed=4)
    k = 1000  # well past the state's fixed point (about t = 100)
    p0, fe0, be0 = st.p.copy(), st.f_edge.copy(), st.b_edge.copy()
    decision = DecisionRule.general(rule)
    cur, want = st, 0.0
    for _ in range(k):
        cur = step(cur, TP.graph, decision, SCHED, CFG)
        want = max(
            want,
            float(np.max(np.abs(cur.p - p0))),
            float(np.max(np.abs(cur.f_edge - fe0))),
            float(np.max(np.abs(cur.b_edge - be0))),
        )
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", counted)
    assert verify_equilibrium(st, TP, rule, SCHED, CFG, k).hex() == want.hex()
    assert len(calls) < k // 2
    # only a constant schedule makes a repeat a fixed point: under this
    # linear one the equilibrium repeats itself until t = 12, where 1 + 1e-17 t
    # first rounds above 1, so every step is taken
    calls.clear()
    eq_drift = verify_equilibrium(eq, TP, rule, FlowSchedule.linear(1.0, 1.0, 1e-17), CFG, 50)
    assert len(calls) == 50
    assert eq_drift > 0.0


def test_stability_inputs_rejected():
    rule, r, eps = _stable_case(sine_rule(0.05))
    st = equilibrium_state(TP, rule, r, 1.0, 1.0, 0.5)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps"):
            stability_experiment(rule, r, bad, 1e-3, 50, TP)
    with pytest.raises(ValueError, match="eps_target"):
        stability_experiment(rule, r, eps, -1e-3, 50, TP)
    with pytest.raises(ValueError, match="T_max"):
        stability_experiment(rule, r, eps, 1e-3, -5, TP)
    for k in (0, -3):
        with pytest.raises(ValueError, match="k must be"):
            verify_equilibrium(perturb(st, eps, seed=1), TP, rule, SCHED, CFG, k)
