"""Constructors and verifiers for the negative results: unidirectional flow
swaps, leakage settings that defeat non-linear rules under fixed flow, and
growth rates that defeat non-linear rules under zero leakage.

The swap needs no run to decide: with backward injection 0 the linear rule
keeps every forward level fixed, so the t = 0 source level names the branch
a run settles on. ``unidirectional_swap_demo`` predicts it from that level
and runs the dynamics only to check that the level held.

Both counterexample constructors follow the same recipe: find an interior
point r where the rule leaves the diagonal with a consistent sign on
(r, r+eps], derive the margin constant c_g = c_eps / 4 from the gap at
r+eps, pick the adversarial parameter (leakage ratio or growth factor)
inside the constraint that c_g buys, and prescribe the initial pheromone
and per-edge flows that make the bounded branch level an invariant of the
dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .analysis import _FLUSH_FLOOR, _PROOF_SLACK, BranchLevelObserver, detect_convergence
from .dynamics import (
    ConfigError,
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    RESCALE_BY_SOURCE,
    RESCALE_OFF,
    RunTrace,
    SystemState,
    branch_state,
    run,
)
from .graph import Path, TwoPathGraph, build_two_path_survival
from .rules import DEFAULT_GRID, RuleError, RuleFunction, _eval_grid

CASE_BELOW = "below_diagonal"  # g(r+s) < r+s on (0, eps]
CASE_ABOVE = "above_diagonal"  # g(r+s) > r+s on (0, eps]

AT_MOST = "at-most"
AT_LEAST = "at-least"

DEFAULT_MARGIN = 0.1  # fraction of the constraint budget left unused


@dataclass(frozen=True)
class Nonlinearity:
    r: float
    eps: float
    case: str


def find_nonlinearity(rule: RuleFunction) -> Nonlinearity:
    """Interior point r with the largest |g(r) - r| on the ``DEFAULT_GRID``
    grid, together with the largest grid-certified eps (r + eps < 1/2) over
    which g - id keeps the sign it has at r."""
    grid = DEFAULT_GRID
    xs = np.linspace(0.0, 0.5, grid)
    h = _eval_grid(rule, xs) - xs
    interior = slice(1, grid - 1)
    mags = np.abs(h[interior])
    if float(mags.max(initial=0.0)) <= 1e-8:
        raise RuleError("rule is indistinguishable from the linear rule at grid resolution")
    idx = 1 + int(np.argmax(mags))
    r = float(xs[idx])
    below = h[idx] < 0.0
    case = CASE_BELOW if below else CASE_ABOVE
    step = 0.5 / (grid - 1)
    j = 0
    while True:
        i = idx + j + 1
        if i >= grid or xs[i] >= 0.5 - step / 2:
            break
        if below and not h[i] < 0.0:
            break
        if not below and not h[i] > 0.0:
            break
        j += 1
    if j == 0:
        raise RuleError("no grid-certified sign-consistent interval right of r")
    return Nonlinearity(r=r, eps=j * step, case=case)


@dataclass(frozen=True)
class CounterexampleConfig:
    r: float
    eps: float
    case: str
    c_eps: float
    c_g: float
    constraint: str

    @property
    def bound(self) -> float:
        return self.r + self.eps


@dataclass(frozen=True)
class Counterexample:
    rule_fn: RuleFunction
    config: CounterexampleConfig
    two_path: TwoPathGraph  # leakage applied
    state: SystemState
    schedule: FlowSchedule  # constant (leakage) or growing by alpha = mu (flow)

    @property
    def watch_branch(self) -> str:
        """The branch whose level is bounded."""
        return "top" if self.config.case == CASE_BELOW else "bottom"

    @property
    def direction(self) -> str:
        return AT_MOST if self.config.case == CASE_BELOW else AT_LEAST


def _case_constants(rule: RuleFunction, r: float, eps: float, case: str) -> Tuple[float, float]:
    x = r + eps
    gx = float(rule.fn(x))
    c_eps = (x - gx) if case == CASE_BELOW else (gx - x)
    if c_eps <= 0.0:
        raise RuleError(f"gap at r+eps is not positive for case {case}: {c_eps}")
    return c_eps, c_eps / 4.0


def _resolve_nonlinearity(
    rule: RuleFunction, r: Optional[float], eps: Optional[float]
) -> Nonlinearity:
    if r is None:
        if eps is not None:
            raise RuleError("explicit eps requires explicit r")
        found = find_nonlinearity(rule)
        # half the certified extent: the margin constant degenerates as
        # r+eps approaches the next diagonal crossing
        return Nonlinearity(found.r, found.eps / 2.0, found.case)
    if eps is None:
        raise RuleError("explicit r requires explicit eps")
    if not eps > 0.0:
        raise RuleError("need eps > 0: the bound r + eps must lie above r")
    if not (0.0 < r and r + eps < 0.5):
        raise RuleError("need 0 < r and r + eps < 1/2")
    gr = float(rule.fn(r))
    case = CASE_BELOW if gr < r else CASE_ABOVE
    return Nonlinearity(r=float(r), eps=float(eps), case=case)


def _counterexample(
    rule: RuleFunction,
    nl: Nonlinearity,
    c_eps: float,
    c_g: float,
    constraint: str,
    two_path: TwoPathGraph,
    schedule: FlowSchedule,
) -> Counterexample:
    """The proof configuration: the watched branch carries normalized
    pheromone exactly the bound r+eps at both graph ends, and the edge flows
    start rule-consistent (fraction g(bound) on the watched branch, the
    complement on the other). Rule-consistent flows are what the induction
    step produces, so the hypothesis holds from t=0 with margin. A t = 0 flow
    bound below the floor of ``InvariantObserver.abs_floor`` is a ConfigError."""
    config = CounterexampleConfig(nl.r, nl.eps, nl.case, c_eps, c_g, constraint)
    bound = config.bound
    frac = float(rule.fn(bound))
    watched, other = (bound, frac), (1.0 - bound, 1.0 - frac)
    # the case below bounds the top branch (``Counterexample.watch_branch``)
    top, bottom = (watched, other) if nl.case == CASE_BELOW else (other, watched)
    state = branch_state(two_path, schedule.forward_at(0), schedule.backward_at(0), top, bottom)
    cx = Counterexample(rule, config, two_path, state, schedule)
    flows = FlowBoundObserver(two_path, schedule, cx.watch_branch, bound, cx.direction)
    smallest = min(min(fb, bb) for _, fb, bb, _ in flows.bounds(0))
    floor = EngineConfig.underflow_threshold * _FLUSH_FLOOR
    if smallest < floor:
        raise ConfigError(
            f"t = 0 injections f0={schedule.f0:.6g} and b0={schedule.b0:.6g} put the smallest "
            f"flow bound ({smallest:.6g}) below the floor {floor:.6g}, too close to a flush"
        )
    return cx


def leakage_counterexample(
    rule: RuleFunction,
    two_path: TwoPathGraph,
    f_s: float,
    b_d: float,
    r: Optional[float] = None,
    eps: Optional[float] = None,
    surv_top: Optional[float] = None,
    surv_bottom: Optional[float] = None,
) -> Counterexample:
    """Leakage assignment and initial state under which a non-linear rule
    with fixed flow never converges to the min-leakage path.

    Case below the diagonal bounds the min-leakage (top) branch level by
    r+eps from above; case above pins the max-leakage (bottom) branch level
    at >= r+eps. The survival constraint is tightened by DEFAULT_MARGIN of
    its budget when survivals are chosen automatically.
    """
    if f_s <= 0.0 or b_d <= 0.0:
        raise ConfigError("flows must be positive")
    nl = _resolve_nonlinearity(rule, r, eps)
    c_eps, c_g = _case_constants(rule, nl.r, nl.eps, nl.case)
    budget = c_g * f_s / b_d
    if nl.case == CASE_BELOW:
        if surv_bottom is None:
            surv_bottom = 0.95
        if surv_top is None:
            surv_top = min(0.995, surv_bottom * (1.0 + (1.0 - DEFAULT_MARGIN) * budget))
        if not surv_top > surv_bottom:
            raise ConfigError("case requires the top path to be strictly min-leakage")
        if surv_top / surv_bottom > 1.0 + budget:
            raise ConfigError(
                f"survival ratio {surv_top / surv_bottom:.6g} violates the "
                f"constraint alpha/beta <= {1.0 + budget:.6g}"
            )
        constraint = f"alpha/beta <= 1 + c_g f_s/b_d = {1.0 + budget:.6g}"
    else:
        if surv_top is None:
            surv_top = 0.97
        if surv_bottom is None:
            reduction = min((1.0 - DEFAULT_MARGIN) * budget, 0.5)
            surv_bottom = surv_top * (1.0 - reduction)
        if not surv_bottom < surv_top:
            raise ConfigError("case requires the bottom path to be strictly max-leakage")
        if surv_bottom / surv_top < 1.0 - budget:
            raise ConfigError(
                f"survival ratio {surv_bottom / surv_top:.6g} violates the "
                f"constraint beta/alpha >= {1.0 - budget:.6g}"
            )
        constraint = f"beta/alpha >= 1 - c_g f_s/b_d = {1.0 - budget:.6g}"

    graph2 = build_two_path_survival(two_path.m, two_path.n, surv_top, surv_bottom)
    schedule = FlowSchedule.constant(f_s, b_d)
    return _counterexample(rule, nl, c_eps, c_g, constraint, graph2, schedule)


def flow_counterexample(
    rule: RuleFunction,
    two_path: TwoPathGraph,
    f0: float,
    mu: Optional[float] = None,
    r: Optional[float] = None,
    eps: Optional[float] = None,
) -> Counterexample:
    """Per-step multiplicative growth factor and initial state under which a
    non-linear rule with zero leakage never converges to the unique shortest
    path. The growth condition couples the factor to the path-length gap:
    mu^(n-m) >= 1 + c_g for the below-diagonal case, mu^(n-m) <= 1/(1-c_g)
    for the above-diagonal case."""
    if f0 <= 0.0:
        raise ConfigError("f0 must be positive")
    if two_path.m >= two_path.n:
        raise ConfigError("unique shortest path requires m < n")
    if np.any(two_path.graph.leakage != 0.0):
        raise ConfigError("flow counterexample requires zero leakage")
    nl = _resolve_nonlinearity(rule, r, eps)
    c_eps, c_g = _case_constants(rule, nl.r, nl.eps, nl.case)
    gap = two_path.n - two_path.m
    if nl.case == CASE_BELOW:
        mu_min = (1.0 + c_g) ** (1.0 / gap)
        if mu is None:
            mu = mu_min * (1.0 + 0.005)
        if mu < mu_min:
            raise ConfigError(f"mu={mu:.6g} below the case bound {mu_min:.6g}")
        constraint = f"mu^(n-m) >= 1 + c_g = {1.0 + c_g:.6g}"
    else:
        mu_max = (1.0 / (1.0 - c_g)) ** (1.0 / gap) if c_g < 1.0 else math.inf
        if mu is None:
            mu = 1.0 + 0.9 * (mu_max - 1.0) if math.isfinite(mu_max) else 1.1
        if not (1.0 < mu <= mu_max):
            raise ConfigError(f"mu={mu:.6g} outside (1, {mu_max:.6g}]")
        constraint = f"mu^(n-m) <= 1/(1 - c_g) = {1.0 / (1.0 - c_g):.6g}"

    schedule = FlowSchedule.exponential(f0, f0, mu)
    return _counterexample(rule, nl, c_eps, c_g, constraint, two_path, schedule)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class FlowBoundObserver:
    """Per-step check of the proof hypothesis' per-edge flow bounds.

    On the watched branch (level bound q) every forward flow is compared
    against schedule(t - age) * q * survival-prefix and every backward flow
    against the suffix version; the other branch carries the complementary
    (1-q) lower/upper bounds, each with relative slack ``_PROOF_SLACK``.
    Injection before t=0 is treated as the t=0 value. Under a constant
    schedule no bound depends on t, so on a repeated state
    (``prev is state``) the last call's records repeat with the new t.
    """

    def __init__(
        self,
        two_path: TwoPathGraph,
        schedule: FlowSchedule,
        watch_branch: str,
        bound: float,
        direction: str,
    ) -> None:
        self.schedule = schedule
        self.spec = []  # (eid, fwd_age, bwd_age, prefix, suffix, level, upper?)
        for branch in ("top", "bottom"):
            watched = branch == watch_branch
            level = bound if watched else 1.0 - bound
            upper = (direction == AT_MOST) == watched
            eids = two_path.path_eids(branch)
            prefix, suffix = (a.tolist() for a in two_path.branch_survivals(branch))
            k = len(eids)
            for i, eid in enumerate(eids):
                self.spec.append((eid, i, k - 1 - i, prefix[i], suffix[i], level, upper))
        self.violations: List[Tuple[int, int, float, float]] = []
        self._last: List[Tuple[int, int, float, float]] = []  # the last computed call's records

    def bounds(self, t: int) -> List[Tuple[int, float, float, bool]]:
        """(eid, forward bound, backward bound, upper?) of every branch edge at step t."""
        fwd, bwd = self.schedule.forward_at, self.schedule.backward_at
        return [
            (eid, fwd(max(0, t - fage)) * level * pre, bwd(max(0, t - bage)) * level * suf, upper)
            for eid, fage, bage, pre, suf, level, upper in self.spec
        ]

    def __call__(self, t, state, prev) -> None:
        if prev is state and self.schedule.kind == "constant":
            # a repeated state under bounds that do not depend on t
            self.violations.extend((t, *v[1:]) for v in self._last)
            return
        fe, be = state.f_edge, state.b_edge
        found = []
        for eid, fb, bb, upper in self.bounds(t):
            f, b = float(fe[eid]), float(be[eid])
            if upper:
                if f > fb * (1.0 + _PROOF_SLACK) or b > bb * (1.0 + _PROOF_SLACK):
                    found.append((t, eid, f, fb))
            else:
                if f < fb * (1.0 - _PROOF_SLACK) or b < bb * (1.0 - _PROOF_SLACK):
                    found.append((t, eid, f, fb))
        self._last = found
        self.violations.extend(found)


class TargetConvergenceWatcher:
    """Sparse check, every 100th step, that the dynamics never converge (at
    epsilon 0.01) to a target path."""

    def __init__(self, graph, target: Path) -> None:
        self.graph = graph
        self.target = target
        self.seen_at: Optional[int] = None

    def __call__(self, t, state, prev) -> None:
        if self.seen_at is None and t % 100 == 0:
            path = detect_convergence(state, self.graph, 0.01)
            if path is not None and path == self.target:
                self.seen_at = t


@dataclass
class NonconvergenceReport:
    ok: bool
    bound: float
    direction: str
    steps_checked: int
    first_violation_t: Optional[int]
    first_violation_value: Optional[float]
    target_convergence_at: Optional[int] = None
    flow_bound_violations: int = 0


def verify_nonconvergence(
    levels: BranchLevelObserver,
    bound: float,
    direction: str,
    *,
    target_convergence_at: Optional[int] = None,
    flow_bound_violations: int = 0,
) -> NonconvergenceReport:
    """Check the branch level bound, with slack ``_PROOF_SLACK``, at both
    graph ends over the recorded steps (<= for AT_MOST, >= for AT_LEAST).
    A NaN level compares false, so it never violates. The report is ok only
    if, besides, the run never converged to the target and broke no
    edge-flow bound."""
    limit = bound + _PROOF_SLACK if direction == AT_MOST else bound - _PROOF_SLACK
    bad = (lambda v: v > limit) if direction == AT_MOST else (lambda v: v < limit)
    pairs = enumerate(zip(levels.norm_s, levels.norm_d))
    first_t, first_v = next(((t, v) for t, pair in pairs for v in pair if bad(v)), (None, None))
    return NonconvergenceReport(
        ok=first_t is None and target_convergence_at is None and not flow_bound_violations,
        bound=bound,
        direction=direction,
        steps_checked=len(levels.norm_s),
        first_violation_t=first_t,
        first_violation_value=first_v,
        target_convergence_at=target_convergence_at,
        flow_bound_violations=flow_bound_violations,
    )


def run_counterexample(
    cx: Counterexample, T: int, delta: float = 0.5
) -> Tuple[NonconvergenceReport, RunTrace, BranchLevelObserver]:
    """Run a constructed counterexample for T steps and verify its bound
    invariant plus non-convergence (at epsilon 0.01) to the top
    (min-leakage / shortest) path."""
    graph = cx.two_path.graph
    rule = DecisionRule.general(cx.rule_fn)
    cfg = EngineConfig(delta=delta)
    bound, direction = cx.config.bound, cx.direction
    obs = BranchLevelObserver(cx.two_path, cx.watch_branch)
    flows = FlowBoundObserver(cx.two_path, cx.schedule, cx.watch_branch, bound, direction)
    watcher = TargetConvergenceWatcher(graph, cx.two_path.top)
    trace = run(cx.state, graph, rule, cx.schedule, cfg, T, observers=[obs, flows, watcher])
    report = verify_nonconvergence(
        obs, bound, direction,
        target_convergence_at=watcher.seen_at, flow_bound_violations=len(flows.violations),
    )
    return report, trace, obs


def run_positive_control(cx: Counterexample, T: int, delta: float = 0.5) -> RunTrace:
    """Re-run the same configuration under the linear rule; the dynamics
    must converge (at epsilon 0.01) to the top (min-leakage / shortest)
    path."""
    rescale = RESCALE_BY_SOURCE if cx.schedule.kind == "exponential" else RESCALE_OFF
    cfg = EngineConfig(delta=delta, epsilon_convergence=0.01, rescale_mode=rescale)
    return run(cx.state, cx.two_path.graph, DecisionRule.linear(), cx.schedule, cfg, T)


# ---------------------------------------------------------------------------
# Unidirectional flow swap demo
# ---------------------------------------------------------------------------


@dataclass
class SwapDemoReport:
    base_branch: Optional[str]
    swapped_branch: Optional[str]
    flipped: bool
    degenerate: bool
    base_eps_path: Optional[Path]
    swapped_eps_path: Optional[Path]


def unidirectional_swap_demo(
    two_path: TwoPathGraph,
    rule: DecisionRule,
    p_top: float,
    p_bottom: float,
    T: int = 200,
) -> SwapDemoReport:
    """Predict the branch of the unidirectional (backward injection 0) linear
    dynamics from the source-edge pheromones and from the swapped pair, then
    run each to check the prediction.

    The t = 0 source level p1 / (p1 + p2) names the branch: top above 1/2,
    bottom below, none (degenerate) within 1e-12 of 1/2 or NaN (both at 0).
    A run (injection 1, δ = 0.5, other edges at pheromone 1) holds if the
    level stays within 1e-12 of that value; a pair flips only if neither
    side is degenerate, the branches differ and both runs hold. A general
    rule raises ConfigError."""
    if not rule.is_linear:
        raise ConfigError("the swap demo predicts the linear rule's branch only")
    g = two_path.graph
    s_top, s_bottom = two_path.branch_eids("top")[0], two_path.branch_eids("bottom")[0]
    schedule = FlowSchedule.constant(1.0, 0.0)

    def one(p1: float, p2: float) -> Tuple[Optional[str], bool, Optional[Path]]:
        total = p1 + p2
        level = p1 / total if total > 0 else math.nan
        p = np.ones(g.n_edges)
        p[s_top] = p1
        p[s_bottom] = p2
        from .dynamics import init_state

        state = init_state(g, p, schedule, rule)
        obs = BranchLevelObserver(two_path, "top")
        trace = run(state, g, rule, schedule, EngineConfig(delta=0.5), T, observers=[obs])
        held = all(abs(x - level) <= 1e-12 for x in obs.norm_s)
        side = level - 0.5  # NaN compares false: no branch
        branch = "top" if side >= 1e-12 else "bottom" if side <= -1e-12 else None
        return branch, held, detect_convergence(trace.final_state, g, 0.01)

    base_branch, base_held, base_path = one(p_top, p_bottom)
    swap_branch, swap_held, swap_path = one(p_bottom, p_top)
    degenerate = base_branch is None or swap_branch is None
    return SwapDemoReport(
        base_branch=base_branch,
        swapped_branch=swap_branch,
        flipped=not degenerate and base_branch != swap_branch and base_held and swap_held,
        degenerate=degenerate,
        base_eps_path=base_path,
        swapped_eps_path=swap_path,
    )


def swap_demo_batch(
    two_path: TwoPathGraph,
    n_seeds: int,
    base_seed: int = 0,
    T: int = 200,
) -> Tuple[List[SwapDemoReport], float]:
    """Swap demos of the linear rule on seeded non-degenerate initial
    pheromone pairs; returns the reports and the flip rate. Raises
    ConfigError unless n_seeds >= 1."""
    if n_seeds < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n_seeds}")
    rule = DecisionRule.linear()
    reports = []
    flips = 0
    for i in range(n_seeds):
        rng = np.random.default_rng([base_seed, i])
        while True:
            p1, p2 = rng.uniform(0.1, 2.0, size=2)
            if abs(p1 - p2) > 1e-6:
                break
        rep = unidirectional_swap_demo(two_path, rule, p1, p2, T=T)
        reports.append(rep)
        flips += int(rep.flipped)
    return reports, flips / n_seeds
