"""Synchronous update engine for bidirectional pheromone-guided flow.

State and update semantics (one step, time t -> t+1):

(a) pheromone decay+reinforcement per edge:
    ``p(t+1) = delta * (p(t) + f_edge(t) + b_edge(t))``;
(b) vertex aggregation with leakage:
    ``f_vertex(t+1)[v] = (1 - l_v) * sum of incoming f_edge(t)`` and the
    mirror image for backward flow along out-edges; forward flow reaching
    the destination and backward flow reaching the source leave the system
    and are tallied in the delivered counters;
(c) fresh flow injection at the source (forward) and destination (backward);
(d) edge split of the new vertex flows against p(t+1) via the decision rule;
(e) underflow flush and, for exponential schedules, optional rescaling that
    keeps stored magnitudes bounded without changing normalized levels.

Splits always use the pheromone of the same time index as the flow being
split, which is the only ordering consistent with the flow-movement and
pheromone-update equations simultaneously.

States returned by ``step`` are split-consistent: the edge flows equal the
rule's split of the stored vertex flows. Explicitly constructed states (for
reproducing proof configurations) may bypass that invariant at t=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .graph import DirectedGraph, GraphArrays, Path, min_leakage_path
from .rules import DecisionRule, clamp_unit_half


class EngineAbort(RuntimeError):
    """Non-finite value detected; carries the step index."""

    def __init__(self, t: int, detail: str) -> None:
        super().__init__(f"engine abort at t={t}: {detail}")
        self.t = t
        self.detail = detail


class ConfigError(ValueError):
    """Illegal engine/schedule/rule combination."""


# ---------------------------------------------------------------------------
# Schedules and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowSchedule:
    """Injection schedule for forward flow at s and backward flow at d.

    ``backward0`` may be 0 to run the unidirectional mode used by the
    swap experiments; the convergence guarantees assume both positive.
    """

    kind: str  # "constant" | "exponential" | "linear"
    f0: float
    b0: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.f0 <= 0.0:
            raise ConfigError("forward injection f0 must be positive")
        if self.b0 < 0.0:
            raise ConfigError("backward injection b0 must be non-negative")
        if self.kind == "exponential" and not self.alpha > 1.0:
            raise ConfigError("exponential schedule needs alpha > 1")
        if self.kind == "linear" and not self.alpha > 0.0:
            raise ConfigError("linear schedule needs alpha > 0")
        if self.kind not in ("constant", "exponential", "linear"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")

    @staticmethod
    def constant(f0: float, b0: float) -> "FlowSchedule":
        return FlowSchedule("constant", f0, b0)

    @staticmethod
    def exponential(f0: float, b0: float, alpha: float) -> "FlowSchedule":
        return FlowSchedule("exponential", f0, b0, alpha)

    @staticmethod
    def linear(f0: float, b0: float, alpha: float) -> "FlowSchedule":
        return FlowSchedule("linear", f0, b0, alpha)

    def forward_at(self, t: int) -> float:
        if self.kind == "constant":
            return self.f0
        if self.kind == "exponential":
            return self.f0 * self.alpha**t
        return self.f0 + self.alpha * t

    def backward_at(self, t: int) -> float:
        if self.kind == "constant":
            return self.b0
        if self.kind == "exponential":
            return self.b0 * self.alpha**t
        return self.b0 + self.alpha * t if self.b0 > 0.0 else 0.0


RESCALE_OFF = "off"
RESCALE_BY_SOURCE = "normalize_by_source"


@dataclass(frozen=True)
class EngineConfig:
    delta: float
    underflow_threshold: float = 1e-300
    rescale_mode: str = RESCALE_OFF
    epsilon_convergence: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("decay delta must lie in (0, 1)")
        if self.underflow_threshold < 0.0:
            raise ConfigError("underflow threshold must be >= 0")
        if self.rescale_mode not in (RESCALE_OFF, RESCALE_BY_SOURCE):
            raise ConfigError(f"unknown rescale mode {self.rescale_mode!r}")
        if self.epsilon_convergence is not None and not (0.0 < self.epsilon_convergence < 1.0):
            raise ConfigError("epsilon_convergence must lie in (0, 1)")


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------


@dataclass
class SystemState:
    """Pheromone and flow state at one time index.

    ``f_edge``/``b_edge`` are the flows moving on each edge at time t;
    ``f_vertex``/``b_vertex`` are the pending vertex amounts whose split
    produced them. Delivered counters accumulate flow that exited at the
    destination (forward) and source (backward). ``injected_f``/``injected_b``
    are the amounts injected when this state was created (in stored units,
    which matters under rescaling).
    """

    t: int
    p: np.ndarray
    f_edge: np.ndarray
    b_edge: np.ndarray
    f_vertex: np.ndarray
    b_vertex: np.ndarray
    delivered_forward: float = 0.0
    delivered_backward: float = 0.0
    injected_f: float = 0.0
    injected_b: float = 0.0
    underflow_flushes: int = 0
    zero_split_events: int = 0
    warnings: Tuple[str, ...] = ()

    def copy(self) -> "SystemState":
        return replace(
            self,
            p=self.p.copy(),
            f_edge=self.f_edge.copy(),
            b_edge=self.b_edge.copy(),
            f_vertex=self.f_vertex.copy(),
            b_vertex=self.b_vertex.copy(),
        )


PheromoneInit = Union[float, Sequence[float], Mapping[Tuple[int, int], float]]


def _resolve_pheromone(graph: DirectedGraph, init: PheromoneInit) -> np.ndarray:
    m = graph.n_edges
    if isinstance(init, Mapping):
        p = np.zeros(m)
        for (u, v), val in init.items():
            p[graph.edge_id(u, v)] = float(val)
    elif isinstance(init, (int, float)):
        p = np.full(m, float(init))
    else:
        p = np.asarray(init, dtype=float).copy()
        if p.shape != (m,):
            raise ConfigError(f"pheromone array must have length {m}")
    if np.any(p < 0.0):
        raise ConfigError("initial pheromone must be non-negative")
    return p


def init_state(
    graph: DirectedGraph,
    pheromone_init: PheromoneInit,
    schedule: FlowSchedule,
    rule: DecisionRule = DecisionRule.linear(),
    strict: bool = False,
) -> SystemState:
    """t=0 state: injected flow at s/d only, edge flows from one split."""
    p = _resolve_pheromone(graph, pheromone_init)
    ga = graph.arrays
    fv = np.zeros(ga.n)
    bv = np.zeros(ga.n)
    f0 = schedule.forward_at(0)
    b0 = schedule.backward_at(0)
    fv[ga.source] = f0
    bv[ga.destination] = b0
    f_edge, zf = _split(ga, rule, p, fv, forward=True)
    b_edge, zb = _split(ga, rule, p, bv, forward=False)
    warnings: List[str] = []
    if strict:
        target = min_leakage_path(graph)
        if target is not None:
            for u, v in target.edge_pairs():
                if p[graph.edge_id(u, v)] <= 0.0:
                    warnings.append(
                        f"zero initial pheromone on min-leakage path edge ({u},{v}); "
                        "convergence guarantees assume positive values there"
                    )
                    break
    return SystemState(
        t=0,
        p=p,
        f_edge=f_edge,
        b_edge=b_edge,
        f_vertex=fv,
        b_vertex=bv,
        injected_f=f0,
        injected_b=b0,
        zero_split_events=zf + zb,
        warnings=tuple(warnings),
    )


def make_explicit_state(
    graph: DirectedGraph,
    p: PheromoneInit,
    f_edge: Mapping[Tuple[int, int], float],
    b_edge: Mapping[Tuple[int, int], float],
    schedule: FlowSchedule,
) -> SystemState:
    """State with explicitly prescribed edge flows (proof configurations).

    The split-consistency invariant is not enforced at t=0; every state
    produced by ``step`` afterwards satisfies it.
    """
    ga = graph.arrays
    pa = _resolve_pheromone(graph, p)
    fe = np.zeros(ga.m)
    be = np.zeros(ga.m)
    for (u, v), val in f_edge.items():
        fe[graph.edge_id(u, v)] = float(val)
    for (u, v), val in b_edge.items():
        be[graph.edge_id(u, v)] = float(val)
    if np.any(fe < 0.0) or np.any(be < 0.0):
        raise ValueError("explicit edge flows must be non-negative")
    fv = np.zeros(ga.n)
    bv = np.zeros(ga.n)
    f0 = schedule.forward_at(0)
    b0 = schedule.backward_at(0)
    fv[ga.source] = f0
    bv[ga.destination] = b0
    return SystemState(
        t=0, p=pa, f_edge=fe, b_edge=be, f_vertex=fv, b_vertex=bv, injected_f=f0, injected_b=b0
    )


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def _split(
    ga: GraphArrays,
    rule: DecisionRule,
    p: np.ndarray,
    vertex_flow: np.ndarray,
    forward: bool,
) -> Tuple[np.ndarray, int]:
    if rule.is_linear:
        return _split_linear(ga, p, vertex_flow, forward)
    return _split_general(ga, rule, p, vertex_flow, forward)


def split_fraction(
    ga: GraphArrays, p: np.ndarray, forward: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The linear rule's share of each edge: its pheromone over the total on
    the out-edges of its tail (forward) or the in-edges of its head
    (backward). Returns the per-edge fractions, NaN where that total is 0,
    and a mask of the vertices that have edges but a zero total (None when
    there are none)."""
    if forward:
        group, deg, n_grouped, totals = ga.tails, ga.out_deg, ga.n_tails, ga.tail_sums(p)
    else:
        totals = np.bincount(ga.heads, weights=p, minlength=ga.n)
        group, deg, n_grouped = ga.heads, ga.in_deg, ga.n_heads
    # vertices without edges always total 0; any other zero total is a 0/0
    if np.count_nonzero(totals) == n_grouped:
        return p / totals[group], None
    with np.errstate(invalid="ignore"):
        return p / totals[group], (totals == 0.0) & (deg > 0)


def _split_linear(
    ga: GraphArrays, p: np.ndarray, vertex_flow: np.ndarray, forward: bool
) -> Tuple[np.ndarray, int]:
    group = ga.tails if forward else ga.heads
    frac, empty = split_fraction(ga, p, forward)
    zero_events = 0
    if empty is not None:
        # no pheromone to follow: split evenly
        deg = ga.out_deg if forward else ga.in_deg
        zero = empty[group]
        frac[zero] = 1.0 / deg[group[zero]]
        zero_events = int(np.count_nonzero(empty & (vertex_flow > 0.0)))
    return vertex_flow[group] * frac, zero_events


def _split_general(
    ga: GraphArrays,
    rule: DecisionRule,
    p: np.ndarray,
    vertex_flow: np.ndarray,
    forward: bool,
) -> Tuple[np.ndarray, int]:
    # on two parallel paths every vertex but the source (forward) or the
    # destination (backward) passes its flow on along its single edge
    out_s, in_d = ga.two_path_branches()
    if forward:
        eflow, amount, (e1, e2) = vertex_flow[ga.tails], vertex_flow[ga.source], out_s
    else:
        eflow, amount, (e1, e2) = vertex_flow[ga.heads], vertex_flow[ga.destination], in_d
    p1, p2 = p[e1], p[e2]
    total = p1 + p2
    if total <= 0.0:
        eflow[e1] = eflow[e2] = 0.5 * amount
        return eflow, int(amount > 0.0)
    if p1 <= p2:
        e_min, e_oth, x = e1, e2, p1 / total
    else:
        e_min, e_oth, x = e2, e1, p2 / total
    g = float(rule.rule_fn.fn(clamp_unit_half(x)))
    eflow[e_min] = amount * g
    eflow[e_oth] = amount * (1.0 - g)
    return eflow, 0


# ---------------------------------------------------------------------------
# Step
# ---------------------------------------------------------------------------


def validate_run_setup(
    graph: DirectedGraph, rule: DecisionRule, schedule: FlowSchedule, cfg: EngineConfig
) -> None:
    if cfg.rescale_mode == RESCALE_BY_SOURCE:
        if not rule.is_linear:
            raise ConfigError("rescaling requires the linear rule (scale invariance)")
        if schedule.kind != "exponential":
            raise ConfigError("rescaling applies to exponential schedules only")
    if not rule.is_linear:
        graph.arrays.two_path_branches()  # raises off two-path graphs


def step(
    state: SystemState,
    graph: DirectedGraph,
    rule: DecisionRule,
    schedule: FlowSchedule,
    cfg: EngineConfig,
) -> SystemState:
    """One synchronous update; returns the state at t+1."""
    ga = graph.arrays
    t1 = state.t + 1
    m, n = ga.m, ga.n

    # p, f_vertex and b_vertex are disjoint slices of one buffer, so the
    # rescale, the flush and the finiteness test each make one numpy call
    buf = np.empty(m + 2 * n)
    p, fv, bv = buf[:m], buf[m : m + n], buf[m + n :]

    # (a) pheromone update from the flows that traversed edges at time t
    np.add(state.p, state.f_edge, out=p)
    p += state.b_edge
    p *= cfg.delta

    # (b) aggregation with leakage; delivered flow exits
    np.multiply(ga.surv, np.bincount(ga.heads, weights=state.f_edge, minlength=n), out=fv)
    np.multiply(ga.surv, ga.tail_sums(state.b_edge), out=bv)
    delivered_f = state.delivered_forward + float(fv[ga.destination])
    delivered_b = state.delivered_backward + float(bv[ga.source])
    fv[ga.destination] = 0.0
    bv[ga.source] = 0.0

    # (e'/c) rescale before injection so fresh flow enters at base magnitude
    if cfg.rescale_mode == RESCALE_BY_SOURCE:
        buf *= 1.0 / schedule.alpha
        inj_f, inj_b = schedule.f0, schedule.b0
    else:
        inj_f = schedule.forward_at(t1)
        inj_b = schedule.backward_at(t1)
    fv[ga.source] += inj_f
    bv[ga.destination] += inj_b

    # tested before the flush, which would zero a -inf as an underflow
    if not math.isfinite(float(buf.sum())):
        raise EngineAbort(t1, _nonfinite_detail(p, fv, bv))

    flushes = _flush(buf, cfg.underflow_threshold)

    # (d) split the new vertex flows against p(t+1)
    f_edge, zf = _split(ga, rule, p, fv, forward=True)
    b_edge, zb = _split(ga, rule, p, bv, forward=False)

    return SystemState(
        t=t1,
        p=p,
        f_edge=f_edge,
        b_edge=b_edge,
        f_vertex=fv,
        b_vertex=bv,
        delivered_forward=delivered_f,
        delivered_backward=delivered_b,
        injected_f=inj_f,
        injected_b=inj_b,
        underflow_flushes=state.underflow_flushes + flushes,
        zero_split_events=state.zero_split_events + zf + zb,
        warnings=state.warnings,
    )


def _nonfinite_detail(p: np.ndarray, fv: np.ndarray, bv: np.ndarray) -> str:
    for name, arr in (("pheromone", p), ("forward vertex flow", fv), ("backward vertex flow", bv)):
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            return f"non-finite {name} at index {int(bad[0])}"
    return "non-finite total (overflow)"


def _flush(x: np.ndarray, threshold: float) -> int:
    """Zero, in place, every nonzero entry of ``x`` below ``threshold``
    (negative values included); returns how many were zeroed."""
    if threshold <= 0.0:
        return 0
    mask = x != 0.0
    mask &= x < threshold
    count = int(np.count_nonzero(mask))
    if count:
        x[mask] = 0.0
    return count


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

# the run loop tests for convergence every this many steps and after the last
CONVERGENCE_CHECK_INTERVAL = 16

# observer contract: called as obs(t, state, prev_state) after every step and
# once with prev_state=None on the initial state; a truthy return stops the run
Observer = Callable[[int, SystemState, Optional[SystemState]], Optional[bool]]


@dataclass
class RunTrace:
    stop_reason: str = "horizon"
    steps_run: int = 0
    converged_path: Optional[Path] = None
    converged_t: Optional[int] = None
    failure: Optional[str] = None
    failure_t: Optional[int] = None
    final_state: Optional[SystemState] = None
    warnings: Tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.converged_path is not None


def run(
    state: SystemState,
    graph: DirectedGraph,
    rule: DecisionRule,
    schedule: FlowSchedule,
    cfg: EngineConfig,
    T: int,
    observers: Sequence[Observer] = (),
) -> RunTrace:
    """Apply ``step`` up to T times with observers; stops early on detected
    convergence when the config asks for it."""
    if T < 1:
        raise ConfigError("T must be >= 1")
    validate_run_setup(graph, rule, schedule, cfg)
    from .analysis import detect_convergence

    trace = RunTrace(warnings=state.warnings)
    stop = False
    for obs in observers:
        if obs(state.t, state, None):
            stop = True
    eps = cfg.epsilon_convergence
    cur = state
    for i in range(T):
        if stop:
            trace.stop_reason = "observer_stop"
            break
        try:
            nxt = step(cur, graph, rule, schedule, cfg)
        except EngineAbort as exc:
            trace.stop_reason = "aborted"
            trace.failure = exc.detail
            trace.failure_t = exc.t
            break
        prev, cur = cur, nxt
        trace.steps_run += 1
        for obs in observers:
            if obs(cur.t, cur, prev):
                stop = True
        if eps is not None and (trace.steps_run % CONVERGENCE_CHECK_INTERVAL == 0 or i == T - 1):
            path = detect_convergence(cur, graph, eps)
            if path is not None:
                trace.stop_reason = "converged"
                trace.converged_path = path
                trace.converged_t = cur.t
                break
    trace.final_state = cur
    trace.warnings = cur.warnings
    return trace
