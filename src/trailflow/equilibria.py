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
from itertools import chain, repeat
from typing import List, Optional, Tuple

import numpy as np

# ``step`` is not called here; perfbench/tracing.py patches the name on
# this module, so it stays importable
from .dynamics import (  # noqa: F401
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    Observer,
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
    if not abs(float(rule.fn(r)) - r) <= 1e-10:  # NaN is not a fixed point
        raise EquilibriumError(f"r={r} is not a fixed point of the rule")
    scale = delta / (1.0 - delta) * (f_s + b_d)
    top, bottom = (scale * r, r), (scale * (1.0 - r), 1.0 - r)
    return branch_state(two_path, f_s, b_d, top, bottom)


def _state_recorder() -> Tuple[Observer, List[bytes]]:
    """An observer that copies the buffer of each state a run shows it, and
    the list it appends the copies to; ``_recorded`` reads them back. It
    sets ``skips_repeats``, so a stationary run does not call it for the
    held t after its repeated state, which is copied once, when it is first
    stepped to."""
    rows: List[bytes] = []
    append = rows.append

    def observe(t: int, st: SystemState, prev: Optional[SystemState]) -> None:
        # the whole buffer: one call, without cutting [f_edge | b_edge | p]
        append(st.buf.tobytes())

    observe.skips_repeats = True
    return observe, rows


def _recorded(rows: List[bytes], m: int) -> np.ndarray:
    """The recorded states' ``[f_edge | b_edge | p]``, one row per state."""
    return np.frombuffer(b"".join(rows)).reshape(len(rows), -1)[:, : 3 * m]


def verify_equilibrium(
    state: SystemState,
    two_path: TwoPathGraph,
    rule: RuleFunction,
    schedule: FlowSchedule,
    cfg: EngineConfig,
    k: int,
) -> float:
    """Run k steps; the maximum absolute deviation of any pheromone or edge
    flow from its initial value, over the stepped states. The run records
    each state it steps to, and one numpy pass over them gives the drift
    after the run; the repeated tail of a stationary run adds nothing."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = two_path.graph.n_edges
    observe, rows = _state_recorder()
    # k steps whatever the config says about convergence
    cfg = replace(cfg, epsilon_convergence=None)
    run(state, two_path.graph, DecisionRule.general(rule), schedule, cfg, k, [observe])
    stepped = _recorded(rows, m)[1:]  # row 0 is ``state`` itself
    return float(np.max(np.abs(stepped - state.buf[: 3 * m]), initial=0.0))


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


def _deviations(
    states: np.ndarray, two_path: TwoPathGraph, r: float, flow_refs: np.ndarray
) -> np.ndarray:
    """Each state's deviation from the equilibrium at r, for rows of
    ``[f_edge | b_edge | p]``: the larger of the top branch's source- and
    destination-side normalized levels' distances from r (a level is NaN
    where both branch-point pheromones are 0), or the largest edge-flow
    distance from ``flow_refs`` when that is larger. Each float, NaN
    included, is the one that ``BranchLevelObserver`` and Python's ``max``
    in that order give state by state."""
    m = two_path.graph.n_edges
    p = states[:, 2 * m :]
    (s_top, d_top), (s_bot, d_bot) = two_path.branch_eids("top"), two_path.branch_eids("bottom")
    top = p[:, [s_top, d_top]]
    total = top + p[:, [s_bot, d_bot]]
    with np.errstate(divide="ignore", invalid="ignore"):
        levels = np.where(total > 0.0, top / total, np.nan)
    dist_s, dist_d = np.abs(levels - r).T
    flows = np.max(np.abs(states[:, : 2 * m] - flow_refs), axis=1)
    # Python's max(a, b) keeps a unless b > a: a NaN a stays, a NaN b loses
    dev = np.where(dist_d > dist_s, dist_d, dist_s)
    return np.where(flows > dev, flows, dev)


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
    seed: int = 0,
    series_path: Optional[str] = None,
) -> StabilityReport:
    """Perturb the equilibrium at r (injections f_s = b_d = 1, δ = 0.5) by
    ``eps`` and report the first time all branch normalized levels and edge
    flows are within ``eps_target`` of the equilibrium, and whether they
    stay there through T_max.

    The run records each state it steps to, and one numpy pass over them
    gives every deviation after the run (``_deviations``). The schedule is
    constant, so the run stops stepping at ``t_stationary``, the first state
    that repeats its predecessor (see ``run``); every later deviation is that
    state's, and the report and the series hold the floats that stepping to
    T_max gives: T_max + 1 rows, the held tail repeating the last. A run
    that aborts has not held; its abort is the last of the warnings."""
    if not (0.0 <= eps < np.inf):
        raise ValueError("perturbation eps must be finite and >= 0")
    if not eps_target >= 0.0:
        raise ValueError("eps_target must be >= 0")
    if T_max < 0:
        raise ValueError("T_max must be >= 0")
    eq = equilibrium_state(two_path, rule, r, 1.0, 1.0, 0.5)
    state = perturb(eq, eps, seed) if eps > 0.0 else eq
    m = two_path.graph.n_edges
    observe, rows = _state_recorder()
    if T_max:
        decision, sched = DecisionRule.general(rule), FlowSchedule.constant(1.0, 1.0)
        trace = run(state, two_path.graph, decision, sched, EngineConfig(0.5), T_max, [observe])
    else:  # ``run`` takes at least one step
        observe(0, state, None)
        trace = RunTrace(warnings=state.warnings)
    aborted = (f"engine abort at t={trace.failure_t}: {trace.failure}",) if trace.failure else ()
    devs = _deviations(_recorded(rows, m), two_path, r, eq.buf[: 2 * m])
    hits = np.flatnonzero(devs <= eps_target)
    t_converged = int(hits[0]) if hits.size else None
    max_after = 0.0
    if t_converged is not None:
        # Python's max from 0.0, which never takes a NaN. The held tail adds
        # nothing: the first repeated state has its predecessor's deviation,
        # so t_converged comes before it and the slice holds that deviation
        max_after = float(np.fmax.reduce(devs[t_converged + 1 :], initial=0.0))
    if series_path:
        series = devs.tolist()
        # a stationary run's observers saw its last state at every later t
        held = T_max + 1 - len(series) if trace.t_stationary is not None else 0
        with open(series_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "deviation"])
            w.writerows(enumerate(chain(series, repeat(series[-1], held))))
    return StabilityReport(
        rule=rule.name,
        r=r,
        eps=eps,
        eps_target=eps_target,
        seed=seed,
        t_converged=t_converged,
        t_stationary=trace.t_stationary,
        held_until_Tmax=t_converged is not None and max_after <= eps_target and not aborted,
        T_max=T_max,
        max_dev_after_convergence=max_after,
        max_drift_series_path=series_path,
        warnings=trace.warnings + aborted,
    )
