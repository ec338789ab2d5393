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
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .analysis import BranchLevelObserver
from .dynamics import (
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    SystemState,
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

    @property
    def flows_top(self) -> Tuple[float, float]:
        return self.f_s * self.r, self.b_d * self.r

    @property
    def flows_bottom(self) -> Tuple[float, float]:
        return self.f_s * (1.0 - self.r), self.b_d * (1.0 - self.r)


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
    g = two_path.graph
    if np.any(g.leakage != 0.0):
        raise EquilibriumError("equilibrium construction requires zero leakage")
    if not (0.0 <= r <= 0.5):
        raise EquilibriumError("r must lie in [0, 1/2]")
    if abs(float(rule.fn(r)) - r) > 1e-10:
        raise EquilibriumError(f"r={r} is not a fixed point of the rule")
    spec = EquilibriumSpec(r=r, f_s=f_s, b_d=b_d, delta=delta)
    m = g.n_edges
    p = np.zeros(m)
    fe = np.zeros(m)
    be = np.zeros(m)
    ft, bt = spec.flows_top
    fb, bb = spec.flows_bottom
    for eid in two_path.path_eids("top"):
        p[eid] = spec.pheromone_top
        fe[eid] = ft
        be[eid] = bt
    for eid in two_path.path_eids("bottom"):
        p[eid] = spec.pheromone_bottom
        fe[eid] = fb
        be[eid] = bb
    fv = np.zeros(g.n_vertices)
    bv = np.zeros(g.n_vertices)
    fv[g.source] = f_s
    bv[g.destination] = b_d
    for v in two_path.top.vertices[1:-1]:
        fv[v] = ft
        bv[v] = bt
    for v in two_path.bottom.vertices[1:-1]:
        fv[v] = fb
        bv[v] = bb
    return SystemState(
        t=0, p=p, f_edge=fe, b_edge=be, f_vertex=fv, b_vertex=bv, injected_f=f_s, injected_b=b_d
    )


def verify_equilibrium(
    state: SystemState,
    two_path: TwoPathGraph,
    rule: RuleFunction,
    schedule: FlowSchedule,
    cfg: EngineConfig,
    k: int,
) -> float:
    """Run k steps; the maximum absolute deviation of any pheromone or edge
    flow from its initial value."""
    g = two_path.graph
    decision = DecisionRule.general(rule)
    p0, fe0, be0 = state.p.copy(), state.f_edge.copy(), state.b_edge.copy()
    cur = state
    drift = 0.0
    for _ in range(k):
        cur = step(cur, g, decision, schedule, cfg)
        drift = max(
            drift,
            float(np.max(np.abs(cur.p - p0))),
            float(np.max(np.abs(cur.f_edge - fe0))),
            float(np.max(np.abs(cur.b_edge - be0))),
        )
    return drift


def perturb(state: SystemState, magnitude: float, seed: int) -> SystemState:
    """Add independent uniform noise in [-magnitude, +magnitude] to every
    pheromone and flow value, clamping at 0; clamps are recorded as a
    warning."""
    if magnitude <= 0.0:
        raise ValueError("perturbation magnitude must be positive")
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
    held_until_Tmax: bool
    T_max: int
    max_dev_after_convergence: float
    max_drift_series_path: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "r": self.r,
            "eps": self.eps,
            "eps_target": self.eps_target,
            "seed": self.seed,
            "t_converged": self.t_converged,
            "held_until_Tmax": self.held_until_Tmax,
            "T_max": self.T_max,
            "max_dev_after_convergence": self.max_dev_after_convergence,
            "max_drift_series_path": self.max_drift_series_path,
        }


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
    equilibrium, and whether they stay there through T_max."""
    eq = equilibrium_state(two_path, rule, r, f_s, b_d, delta)
    state = perturb(eq, eps, seed) if eps > 0.0 else eq
    g = two_path.graph
    decision = DecisionRule.general(rule)
    schedule = FlowSchedule.constant(f_s, b_d)
    cfg = EngineConfig(delta=delta)
    fe0, be0 = eq.f_edge, eq.b_edge
    levels = BranchLevelObserver(two_path, "top")

    def deviation(st: SystemState, prev: Optional[SystemState]) -> float:
        levels(st.t, st, prev)
        dev = max(abs(levels.norm_s[-1] - r), abs(levels.norm_d[-1] - r))
        dev = max(dev, float(np.max(np.abs(st.f_edge - fe0))))
        dev = max(dev, float(np.max(np.abs(st.b_edge - be0))))
        return dev

    t_converged: Optional[int] = None
    held = True
    max_after = 0.0
    series: List[Tuple[int, float]] = []
    cur = state
    dev = deviation(cur, None)
    if series_path:
        series.append((0, dev))
    if dev <= eps_target:
        t_converged = 0
    for _ in range(T_max):
        prev, cur = cur, step(cur, g, decision, schedule, cfg)
        dev = deviation(cur, prev)
        if series_path:
            series.append((cur.t, dev))
        if t_converged is None:
            if dev <= eps_target:
                t_converged = cur.t
        else:
            max_after = max(max_after, dev)
            if dev > eps_target:
                held = False
    if t_converged is None:
        held = False
    if series_path:
        with open(series_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "deviation"])
            w.writerows(series)
    return StabilityReport(
        rule=rule.name,
        r=r,
        eps=eps,
        eps_target=eps_target,
        seed=seed,
        t_converged=t_converged,
        held_until_Tmax=held,
        T_max=T_max,
        max_dev_after_convergence=max_after,
        max_drift_series_path=series_path,
    )
