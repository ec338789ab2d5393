"""Equilibrium states of the general-rule dynamics on two parallel paths
(zero leakage, fixed flow) and perturbation experiments for their stability.

For every fixed point r of the branch rule g, the state with

* pheromone (delta/(1-delta)) (f_s+b_d) r on every top edge and the
  (1-r)-complement on every bottom edge,
* forward flows f_s r / f_s (1-r) and backward flows b_d r / b_d (1-r)
  on the top/bottom edges,

is a fixed point of the update map. When r is a stable fixed point of g
(diagonal crossing), the state is stable under componentwise perturbation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from operator import sub
from typing import List, Optional, Tuple

import numpy as np

from .analysis import BranchLevelObserver
# ``step`` is not called here; perfbench/tracing.py patches the name on
# this module, so it stays importable
from .dynamics import (  # noqa: F401
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    RunTrace,
    SystemState,
    branch_state,
    run,
    step,
)
from .graph import TwoPathGraph
from .rules import RuleFunction


class EquilibriumError(ValueError):
    pass


@dataclass(frozen=True)
class EquilibriumSpec:
    """Closed-form equilibrium values for a fixed point r."""

    r: float
    f_s: float
    b_d: float
    delta: float

    @property
    def pheromone_scale(self) -> float:
        return self.delta / (1.0 - self.delta) * (self.f_s + self.b_d)

    @property
    def pheromone_top(self) -> float:
        return self.pheromone_scale * self.r

    @property
    def pheromone_bottom(self) -> float:
        return self.pheromone_scale * (1.0 - self.r)


def equilibrium_state(
    two_path: TwoPathGraph,
    rule: RuleFunction,
    r: float,
    f_s: float,
    b_d: float,
    delta: float,
) -> SystemState:
    """The equilibrium SystemState for fixed point r; requires zero leakage
    and |g(r) - r| <= 1e-10."""
    if np.any(two_path.graph.leakage != 0.0):
        raise EquilibriumError("equilibrium construction requires zero leakage")
    if not (0.0 <= r <= 0.5):
        raise EquilibriumError("r must lie in [0, 1/2]")
    if abs(float(rule.fn(r)) - r) > 1e-10:
        raise EquilibriumError(f"r={r} is not a fixed point of the rule")
    spec = EquilibriumSpec(r=r, f_s=f_s, b_d=b_d, delta=delta)
    top, bottom = (spec.pheromone_top, r), (spec.pheromone_bottom, 1.0 - r)
    return branch_state(two_path, f_s, b_d, top, bottom)


def _max_abs_diff(values: List[float], refs: List[float]) -> float:
    """max |values[i] - refs[i]| in Python floats: for finite values the
    floats of ``np.max(np.abs(a - b))``, without numpy's fixed price per call
    on arrays of a few entries."""
    return max(map(abs, map(sub, values, refs)))


def verify_equilibrium(
    state: SystemState,
    two_path: TwoPathGraph,
    rule: RuleFunction,
    schedule: FlowSchedule,
    cfg: EngineConfig,
    k: int,
) -> float:
    """Run k steps; the maximum absolute deviation of any pheromone or edge
    flow from its initial value. The drift is a running maximum, so the
    repeated tail of a stationary run adds nothing."""
    if k < 1:
        raise ValueError("k must be >= 1")
    refs = state.p.tolist() + state.f_edge.tolist() + state.b_edge.tolist()
    drift = [0.0]

    def observe(t: int, st: SystemState, prev: Optional[SystemState]) -> None:
        if prev is not None and prev is not st:
            values = st.p.tolist() + st.f_edge.tolist() + st.b_edge.tolist()
            drift[0] = max(drift[0], _max_abs_diff(values, refs))

    # k steps whatever the config says about convergence
    cfg = replace(cfg, epsilon_convergence=None)
    run(state, two_path.graph, DecisionRule.general(rule), schedule, cfg, k, [observe])
    return drift[0]


def perturb(state: SystemState, magnitude: float, seed: int) -> SystemState:
    """Add independent uniform noise in [-magnitude, +magnitude] to every
    pheromone and flow value, clamping at 0; clamps are recorded as a
    warning."""
    if not (0.0 < magnitude < np.inf):
        raise ValueError("perturbation magnitude must be positive and finite")
    rng = np.random.default_rng(seed)
    out = state.copy()
    clamped = 0
    for arr in (out.p, out.f_edge, out.b_edge, out.f_vertex, out.b_vertex):
        arr += rng.uniform(-magnitude, magnitude, size=arr.shape)
        neg = arr < 0.0
        clamped += int(np.count_nonzero(neg))
        arr[neg] = 0.0
    if clamped:
        out.warnings = out.warnings + (f"perturbation clamped {clamped} values at 0",)
    return out


@dataclass
class StabilityReport:
    rule: str
    r: float
    eps: float
    eps_target: float
    seed: int
    t_converged: Optional[int]
    t_stationary: Optional[int]
    held_until_Tmax: bool
    T_max: int
    max_dev_after_convergence: float
    max_drift_series_path: Optional[str] = None
    warnings: Tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {**self.__dict__, "warnings": list(self.warnings)}


def stability_experiment(
    rule: RuleFunction,
    r: float,
    eps: float,
    eps_target: float,
    T_max: int,
    two_path: TwoPathGraph,
    f_s: float = 1.0,
    b_d: float = 1.0,
    delta: float = 0.5,
    seed: int = 0,
    series_path: Optional[str] = None,
) -> StabilityReport:
    """Perturb the equilibrium at r by ``eps`` and report the first time all
    branch normalized levels and edge flows are within ``eps_target`` of the
    equilibrium, and whether they stay there through T_max.

    The schedule is constant, so the run stops stepping at ``t_stationary``,
    the first state that repeats its predecessor (see ``run``); every later
    deviation is that state's, and the report holds the floats that
    stepping to T_max gives."""
    if not (0.0 <= eps < np.inf):
        raise ValueError("perturbation eps must be finite and >= 0")
    if not eps_target >= 0.0:
        raise ValueError("eps_target must be >= 0")
    if T_max < 0:
        raise ValueError("T_max must be >= 0")
    eq = equilibrium_state(two_path, rule, r, f_s, b_d, delta)
    state = perturb(eq, eps, seed) if eps > 0.0 else eq
    flow_refs = eq.f_edge.tolist() + eq.b_edge.tolist()
    levels = BranchLevelObserver(two_path, "top").levels
    devs: List[float] = []  # the deviation at every t from 0 to T_max

    def observe(t: int, st: SystemState, prev: Optional[SystemState]) -> None:
        if prev is st:  # the repeated state of a stationary run
            devs.append(devs[-1])
            return
        level_s, level_d = levels(st.p)
        dev = max(abs(level_s - r), abs(level_d - r))
        flows = st.f_edge.tolist() + st.b_edge.tolist()
        devs.append(max(dev, _max_abs_diff(flows, flow_refs)))

    if T_max:
        decision, sched = DecisionRule.general(rule), FlowSchedule.constant(f_s, b_d)
        trace = run(state, two_path.graph, decision, sched, EngineConfig(delta), T_max, [observe])
    else:  # ``run`` takes at least one step
        observe(0, state, None)
        trace = RunTrace(warnings=state.warnings)
    t_converged = next((t for t, dev in enumerate(devs) if dev <= eps_target), None)
    after = devs[t_converged + 1 :] if t_converged is not None else []
    # a running maximum from 0.0, as the deviations arrive
    max_after = max((0.0, *after))
    if series_path:
        with open(series_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "deviation"])
            w.writerows(enumerate(devs))
    return StabilityReport(
        rule=rule.name,
        r=r,
        eps=eps,
        eps_target=eps_target,
        seed=seed,
        t_converged=t_converged,
        t_stationary=trace.t_stationary,
        held_until_Tmax=t_converged is not None and max_after <= eps_target,
        T_max=T_max,
        max_dev_after_convergence=max_after,
        max_drift_series_path=series_path,
        warnings=trace.warnings,
    )
