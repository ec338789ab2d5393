"""Constructors and verifiers for the negative results: unidirectional flow
swaps, leakage settings that defeat non-linear rules under fixed flow, and
growth rates that defeat non-linear rules under zero leakage.

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

from .analysis import BranchLevelObserver, detect_convergence
from .dynamics import (
    ConfigError,
    DecisionRule,
    EngineConfig,
    FlowSchedule,
    RunTrace,
    SystemState,
    make_explicit_state,
    run,
)
from .graph import Path, TwoPathGraph, build_two_path_survival
from .rules import RuleError, RuleFunction, RuleLinearAtResolution, _eval_grid

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


def find_nonlinearity(rule: RuleFunction, grid: int = 4097) -> Nonlinearity:
    """Interior point r with the largest |g(r) - r|, together with the
    largest grid-certified eps (r + eps < 1/2) over which g - id keeps the
    sign it has at r."""
    xs = np.linspace(0.0, 0.5, grid)
    h = _eval_grid(rule, xs) - xs
    interior = slice(1, grid - 1)
    mags = np.abs(h[interior])
    if float(mags.max(initial=0.0)) <= 1e-8:
        raise RuleLinearAtResolution(
            "rule is indistinguishable from the linear rule at grid resolution"
        )
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
    bound: float  # r + eps
    constraint: str


@dataclass(frozen=True)
class Counterexample:
    rule_fn: RuleFunction
    config: CounterexampleConfig
    two_path: TwoPathGraph  # leakage applied
    state: SystemState
    schedule: FlowSchedule  # constant (leakage) or growing by alpha = mu (flow)
    watch_branch: str  # branch whose level is bounded
    direction: str  # AT_MOST (case below) | AT_LEAST (case above)


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
    found = find_nonlinearity(rule)
    if r is None:
        # half the certified extent: the margin constant degenerates as
        # r+eps approaches the next diagonal crossing
        return Nonlinearity(found.r, found.eps / 2.0, found.case)
    if eps is None:
        raise RuleError("explicit r requires explicit eps")
    if not (0.0 < r and r + eps < 0.5):
        raise RuleError("need 0 < r and r + eps < 1/2")
    gr = float(rule.fn(r))
    case = CASE_BELOW if gr < r else CASE_ABOVE
    return Nonlinearity(r=float(r), eps=float(eps), case=case)


def _branch_products(two_path: TwoPathGraph, branch: str) -> Tuple[List[float], List[float]]:
    """(prefix, suffix) interior survival products per edge of the branch:
    prefix[i] multiplies forward flow on edge i (vertices passed from s),
    suffix[i] multiplies backward flow on edge i (vertices passed from d)."""
    path = two_path.top if branch == "top" else two_path.bottom
    leak = two_path.graph.leakage
    survs = [1.0 - float(leak[v]) for v in path.vertices]
    k = len(path.vertices) - 1  # edges
    prefix = []
    acc = 1.0
    for i in range(k):
        acc *= survs[i]  # vertex v_i (s has survival 1)
        prefix.append(acc)
    suffix = [1.0] * k
    acc = 1.0
    for i in range(k - 1, -1, -1):
        acc *= survs[i + 1] if i + 1 < len(survs) else 1.0
        # vertex v_{i+1}; d has survival 1
        suffix[i] = acc
    return prefix, suffix


def _counterexample_state(
    two_path: TwoPathGraph,
    schedule: FlowSchedule,
    rule: RuleFunction,
    watch_branch: str,
    bound: float,
) -> SystemState:
    """Initial state for the proof configurations.

    The watched branch carries normalized pheromone exactly ``bound`` = r+eps
    at both graph ends; edge flows start rule-consistent (fraction g(bound)
    on the watched branch, complement on the other) scaled by the interior
    survival prefix/suffix products. Rule-consistent flows are what the
    induction step produces, so the hypothesis holds from t=0 with margin.
    """
    g = two_path.graph
    f_s = schedule.forward_at(0)
    b_d = schedule.backward_at(0)
    frac_watch = float(rule.fn(bound))
    p = {}
    fe = {}
    be = {}
    for branch in ("top", "bottom"):
        level = bound if branch == watch_branch else 1.0 - bound
        frac = frac_watch if branch == watch_branch else 1.0 - frac_watch
        path = two_path.top if branch == "top" else two_path.bottom
        prefix, suffix = _branch_products(two_path, branch)
        for i, (u, v) in enumerate(path.edge_pairs()):
            p[(u, v)] = level
            fe[(u, v)] = f_s * frac * prefix[i]
            be[(u, v)] = b_d * frac * suffix[i]
    return make_explicit_state(g, p, fe, be, schedule)


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
        watch, direction = "top", AT_MOST
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
        watch, direction = "bottom", AT_LEAST

    graph2 = build_two_path_survival(two_path.m, two_path.n, surv_top, surv_bottom)
    schedule = FlowSchedule.constant(f_s, b_d)
    state = _counterexample_state(graph2, schedule, rule, watch, nl.r + nl.eps)
    cfg = CounterexampleConfig(
        r=nl.r, eps=nl.eps, case=nl.case, c_eps=c_eps, c_g=c_g,
        bound=nl.r + nl.eps, constraint=constraint,
    )
    return Counterexample(
        rule_fn=rule, config=cfg, two_path=graph2, state=state, schedule=schedule,
        watch_branch=watch, direction=direction,
    )


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
        watch, direction = "top", AT_MOST
    else:
        mu_max = (1.0 / (1.0 - c_g)) ** (1.0 / gap) if c_g < 1.0 else math.inf
        if mu is None:
            mu = 1.0 + 0.9 * (mu_max - 1.0) if math.isfinite(mu_max) else 1.1
        if not (1.0 < mu <= mu_max):
            raise ConfigError(f"mu={mu:.6g} outside (1, {mu_max:.6g}]")
        constraint = f"mu^(n-m) <= 1/(1 - c_g) = {1.0 / (1.0 - c_g):.6g}"
        watch, direction = "bottom", AT_LEAST

    schedule = FlowSchedule.exponential(f0, f0, mu)
    state = _counterexample_state(two_path, schedule, rule, watch, nl.r + nl.eps)
    cfg = CounterexampleConfig(
        r=nl.r, eps=nl.eps, case=nl.case, c_eps=c_eps, c_g=c_g,
        bound=nl.r + nl.eps, constraint=constraint,
    )
    return Counterexample(
        rule_fn=rule, config=cfg, two_path=two_path, state=state, schedule=schedule,
        watch_branch=watch, direction=direction,
    )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class FlowBoundObserver:
    """Per-step check of the proof hypothesis' per-edge flow bounds.

    On the watched branch (level bound q) every forward flow is compared
    against schedule(t - age) * q * survival-prefix and every backward flow
    against the suffix version; the other branch carries the complementary
    (1-q) lower/upper bounds. Injection before t=0 is treated as the t=0
    value.
    """

    def __init__(
        self,
        two_path: TwoPathGraph,
        schedule: FlowSchedule,
        watch_branch: str,
        bound: float,
        direction: str,
        slack: float = 1e-9,
    ) -> None:
        self.schedule = schedule
        self.slack = slack
        self.spec = []  # (eid, fwd_age, bwd_age, prefix, suffix, level, upper?)
        for branch in ("top", "bottom"):
            watched = branch == watch_branch
            level = bound if watched else 1.0 - bound
            upper = (direction == AT_MOST) == watched
            eids = two_path.path_eids(branch)
            prefix, suffix = _branch_products(two_path, branch)
            k = len(eids)
            for i, eid in enumerate(eids):
                self.spec.append((eid, i, k - 1 - i, prefix[i], suffix[i], level, upper))
        self.violations: List[Tuple[int, int, float, float]] = []

    def __call__(self, t, state, prev) -> None:
        fe, be = state.f_edge, state.b_edge
        sched = self.schedule
        for eid, fage, bage, pre, suf, level, upper in self.spec:
            fb = sched.forward_at(max(0, t - fage)) * level * pre
            bb = sched.backward_at(max(0, t - bage)) * level * suf
            f, b = float(fe[eid]), float(be[eid])
            if upper:
                if f > fb * (1.0 + self.slack) or b > bb * (1.0 + self.slack):
                    self.violations.append((t, eid, f, fb))
            else:
                if f < fb * (1.0 - self.slack) or b < bb * (1.0 - self.slack):
                    self.violations.append((t, eid, f, fb))


class TargetConvergenceWatcher:
    """Sparse check that the dynamics never epsilon-converge to a target
    path."""

    def __init__(self, graph, target: Path, epsilon: float, every: int = 100) -> None:
        self.graph = graph
        self.target = target
        self.epsilon = epsilon
        self.every = max(1, every)
        self.seen_at: Optional[int] = None

    def __call__(self, t, state, prev) -> None:
        if self.seen_at is None and t % self.every == 0:
            path = detect_convergence(state, self.graph, self.epsilon)
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
    flow_bounds_ok: bool = True
    flow_bound_violations: int = 0

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def verify_nonconvergence(
    levels: BranchLevelObserver,
    bound: float,
    direction: str,
    slack: float = 1e-9,
) -> NonconvergenceReport:
    """Check the branch level bound at both graph ends over the recorded
    steps (<= for AT_MOST, >= for AT_LEAST). A NaN level compares false,
    so it never violates."""
    limit = bound + slack if direction == AT_MOST else bound - slack
    bad = (lambda v: v > limit) if direction == AT_MOST else (lambda v: v < limit)
    pairs = enumerate(zip(levels.norm_s, levels.norm_d))
    first_t, first_v = next(((t, v) for t, pair in pairs for v in pair if bad(v)), (None, None))
    return NonconvergenceReport(
        ok=first_t is None,
        bound=bound,
        direction=direction,
        steps_checked=len(levels.norm_s),
        first_violation_t=first_t,
        first_violation_value=first_v,
    )


def run_counterexample(
    cx: Counterexample,
    T: int,
    delta: float = 0.5,
    epsilon: float = 0.01,
    check_every: int = 100,
) -> Tuple[NonconvergenceReport, RunTrace, BranchLevelObserver]:
    """Run a constructed counterexample for T steps and verify its bound
    invariant plus non-convergence to the top (min-leakage / shortest)
    path."""
    graph = cx.two_path.graph
    rule = DecisionRule.general(cx.rule_fn)
    cfg = EngineConfig(delta=delta)
    obs = BranchLevelObserver(cx.two_path, cx.watch_branch)
    flows = FlowBoundObserver(
        cx.two_path, cx.schedule, cx.watch_branch, cx.config.bound, cx.direction
    )
    watcher = TargetConvergenceWatcher(graph, cx.two_path.top, epsilon, check_every)
    trace = run(cx.state, graph, rule, cx.schedule, cfg, T, observers=[obs, flows, watcher])
    report = verify_nonconvergence(obs, cx.config.bound, cx.direction)
    report.target_convergence_at = watcher.seen_at
    report.flow_bound_violations = len(flows.violations)
    report.flow_bounds_ok = not flows.violations
    report.ok = report.ok and watcher.seen_at is None and report.flow_bounds_ok
    return report, trace, obs


def run_positive_control(
    cx: Counterexample,
    T: int,
    delta: float = 0.5,
    epsilon: float = 0.01,
) -> RunTrace:
    """Re-run the same configuration under the linear rule; the dynamics
    must converge to the top (min-leakage / shortest) path."""
    graph = cx.two_path.graph
    rescale = cx.schedule.kind == "exponential"
    cfg = EngineConfig(
        delta=delta,
        epsilon_convergence=epsilon,
        rescale_mode="normalize_by_source" if rescale else "off",
    )
    return run(cx.state, graph, DecisionRule.linear(), cx.schedule, cfg, T)


# ---------------------------------------------------------------------------
# Unidirectional flow swap demo
# ---------------------------------------------------------------------------


@dataclass
class SwapDemoReport:
    base_branch: Optional[str]
    swapped_branch: Optional[str]
    flipped: bool
    degenerate: bool
    base_settled: bool
    swapped_settled: bool
    base_eps_path: Optional[Path]
    swapped_eps_path: Optional[Path]


def unidirectional_swap_demo(
    two_path: TwoPathGraph,
    rule: DecisionRule,
    p_top: float,
    p_bottom: float,
    f0: float = 1.0,
    T: int = 200,
    delta: float = 0.5,
    other_pheromone: float = 1.0,
    epsilon: float = 0.01,
) -> SwapDemoReport:
    """Run the unidirectional (backward injection 0) dynamics from the given
    source-edge pheromones and from the swapped pair; report the branch each
    run settles on.

    Under the linear rule the source-edge ratio is exactly invariant, so
    epsilon-convergence never happens; the settled branch is the one whose
    source-edge normalized level stays above 1/2.
    """

    def one(p1: float, p2: float) -> Tuple[Optional[str], bool, Optional[Path]]:
        g = two_path.graph
        p = {edge: other_pheromone for edge in g.edges}
        p[g.edges[two_path.s_top_eid]] = p1
        p[g.edges[two_path.s_bottom_eid]] = p2
        schedule = FlowSchedule.constant(f0, 0.0)
        from .dynamics import init_state

        state = init_state(g, p, schedule, rule)
        obs = BranchLevelObserver(two_path, "top")
        trace = run(state, g, rule, schedule, EngineConfig(delta=delta), T, observers=[obs])
        tail = obs.norm_s[-max(10, T // 10):]
        above = [x > 0.5 for x in tail if not math.isnan(x)]
        if not above or abs(tail[-1] - 0.5) < 1e-12:
            return None, False, None
        settled = all(above) or not any(above)
        branch = "top" if above[-1] else "bottom"
        eps_path = detect_convergence(trace.final_state, g, epsilon)
        return branch, settled, eps_path

    base_branch, base_settled, base_path = one(p_top, p_bottom)
    swap_branch, swap_settled, swap_path = one(p_bottom, p_top)
    degenerate = base_branch is None or swap_branch is None
    flipped = (not degenerate) and base_branch != swap_branch
    return SwapDemoReport(
        base_branch=base_branch,
        swapped_branch=swap_branch,
        flipped=flipped,
        degenerate=degenerate,
        base_settled=base_settled,
        swapped_settled=swap_settled,
        base_eps_path=base_path,
        swapped_eps_path=swap_path,
    )


def swap_demo_batch(
    two_path: TwoPathGraph,
    rule: DecisionRule,
    n_seeds: int,
    base_seed: int = 0,
    T: int = 200,
    delta: float = 0.5,
) -> Tuple[List[SwapDemoReport], float]:
    """Seeded non-degenerate initial pheromone pairs; returns the reports and
    the flip rate."""
    reports = []
    flips = 0
    for i in range(n_seeds):
        rng = np.random.default_rng([base_seed, i])
        while True:
            p1, p2 = rng.uniform(0.1, 2.0, size=2)
            if abs(p1 - p2) > 1e-6:
                break
        rep = unidirectional_swap_demo(two_path, rule, p1, p2, T=T, delta=delta)
        reports.append(rep)
        flips += int(rep.flipped)
    return reports, flips / n_seeds
