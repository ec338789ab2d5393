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
    bounded: bool = False,
) -> Tuple[np.ndarray, int]:
    if rule.is_linear:
        return _split_linear(ga, p, vertex_flow, forward, bounded)
    return _split_general(ga, rule, p, vertex_flow, forward)


def _vertex_totals(
    ga: GraphArrays, p: np.ndarray, forward: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear split's groups: each edge's slot, the vertex of each slot
    and its pheromone total, over the vertices with out-edges (forward) or
    in-edges (backward)."""
    if forward:
        return ga.out_slot, ga.with_out, ga.out_sums(p)
    totals = np.bincount(ga.in_slot, weights=p, minlength=ga.with_in.size)
    return ga.in_slot, ga.with_in, totals


def split_fraction(ga: GraphArrays, p: np.ndarray, forward: bool) -> np.ndarray:
    """The linear rule's share of each edge: its pheromone over the total on
    the out-edges of its tail (forward) or the in-edges of its head
    (backward); NaN where that total is 0."""
    slot, _, totals = _vertex_totals(ga, p, forward)
    if np.count_nonzero(totals) == totals.size:
        return p / totals[slot]
    with np.errstate(invalid="ignore"):
        return p / totals[slot]


# flow * _RATIO_SCALE < total keeps the ratio flow/total below 2**32 and
# p * ratio (p <= total) within rounding of the flow, far from overflow. A
# vertex that fails the test, a zero total among them, splits per edge in
# the form flow * (p / total), which never overflows. The product is
# subnormal, and slow, only for flows below about 1e-298.
_RATIO_SCALE = 2.0**-32
# after a flush at threshold h, a state whose values sum below h * this
# cannot hold a ratio flow/total near overflow (see ``step``)
_BOUNDED_SUM = 2.0**1020


def _split_linear(
    ga: GraphArrays,
    p: np.ndarray,
    vertex_flow: np.ndarray,
    forward: bool,
    bounded: bool = False,
) -> Tuple[np.ndarray, int]:
    """Each edge's pheromone times its vertex's ratio flow/total: one
    division per vertex and one gather per edge. ``bounded`` says that no
    ratio can overflow, so the fast path needs only positive totals."""
    slot, verts, totals = _vertex_totals(ga, p, forward)
    flow = vertex_flow[verts]
    fast = bounded and np.count_nonzero(totals) == totals.size
    if not fast:
        exact = flow * _RATIO_SCALE < totals
        fast = np.count_nonzero(exact) == exact.size
    if fast:
        return _scaled_by_vertex(ga, p, flow / totals, slot, forward), 0
    # a zero total means no pheromone on any edge of that vertex, so a ratio
    # of 0 sends its edges nothing; only positive flow needs the fix below
    ratio = np.divide(flow, totals, out=np.zeros_like(flow), where=exact)
    eflow = _scaled_by_vertex(ga, p, ratio, slot, forward)
    fix = ~exact & (flow > 0.0)
    if not fix.any():
        return eflow, 0
    # per edge: flow * (p / total), or with no pheromone to follow an even split
    e = np.flatnonzero(fix[slot])
    s = slot[e]
    total = totals[s]
    empty = total == 0.0
    share = np.divide(p[e], total, out=np.zeros_like(total), where=~empty)
    deg = ga.out_deg if forward else ga.in_deg
    share[empty] = 1.0 / deg[verts[s[empty]]]
    eflow[e] = flow[s] * share
    return eflow, int(np.count_nonzero(fix & (totals == 0.0)))


def _scaled_by_vertex(
    ga: GraphArrays, p: np.ndarray, ratio: np.ndarray, slot: np.ndarray, forward: bool
) -> np.ndarray:
    """Each edge's pheromone times its vertex's ratio. On tail-sorted graphs
    the forward ratios are laid out by ``np.repeat`` over the out-degrees,
    which costs less than the gather by slot."""
    eflow = np.repeat(ratio, ga.out_len) if forward and ga.tail_sorted else ratio[slot]
    eflow *= p
    return eflow


def _split_general(
    ga: GraphArrays,
    rule: DecisionRule,
    p: np.ndarray,
    vertex_flow: np.ndarray,
    forward: bool,
) -> Tuple[np.ndarray, int]:
    # on two parallel paths every vertex but the source (forward) or the
    # destination (backward) passes its flow on along its single edge; the
    # branch point is split in Python floats, which on four edges cost less
    # than numpy scalars
    out_s, in_d = ga.two_path_branches()
    if forward:
        eflow, amount, (e1, e2) = vertex_flow[ga.tails], vertex_flow.item(ga.source), out_s
    else:
        eflow, amount, (e1, e2) = vertex_flow[ga.heads], vertex_flow.item(ga.destination), in_d
    p1, p2 = p.item(e1), p.item(e2)
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
    total = float(buf.sum())
    if not math.isfinite(total):
        raise EngineAbort(t1, _nonfinite_detail(p, fv, bv))

    flushes = _flush(buf, cfg.underflow_threshold)
    # after the flush every positive pheromone total is at least the
    # threshold and no vertex flow exceeds ``total`` (all values are >= 0),
    # so every ratio flow/total is below _BOUNDED_SUM when this holds
    bounded = total < cfg.underflow_threshold * _BOUNDED_SUM

    # (d) split the new vertex flows against p(t+1)
    f_edge, zf = _split(ga, rule, p, fv, True, bounded)
    b_edge, zb = _split(ga, rule, p, bv, False, bounded)

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

# observer contract: called as obs(t, state, prev_state) once with
# prev_state=None on the initial state, then once for every later t. After a
# stationary stop (see ``run``) the call is obs(t, s, s) on the repeated state
# s, so ``prev is state`` means nothing changed and the time is ``t``, not s.t
Observer = Callable[[int, SystemState, Optional[SystemState]], None]


@dataclass
class RunTrace:
    stop_reason: str = "horizon"
    converged_path: Optional[Path] = None
    converged_t: Optional[int] = None
    failure: Optional[str] = None
    failure_t: Optional[int] = None
    final_state: Optional[SystemState] = None
    warnings: Tuple[str, ...] = ()
    t_stationary: Optional[int] = None  # where stepping stopped on a repeated state


_STEP_INPUTS = ("p", "f_edge", "b_edge")  # what ``step`` reads, besides ``t``


def _repeats(cur: SystemState, prev: SystemState) -> bool:
    """Whether ``cur`` holds ``prev``'s pheromone and edge flows byte for
    byte (so -0.0 does not match 0.0)."""
    return all(getattr(cur, a).tobytes() == getattr(prev, a).tobytes() for a in _STEP_INPUTS)


class _RepeatGate:
    """``_repeats`` at O(1) cost while the state changes: one entry is first
    compared as floats, a test that every repeat passes. When the bytes
    differ, the entry that changed most becomes the one compared first."""

    probe = ("p", 0)

    def __call__(self, cur: SystemState, prev: SystemState) -> bool:
        name, i = self.probe
        a = getattr(cur, name)
        if a.size and a.item(i) != getattr(prev, name).item(i):
            return False
        for name in _STEP_INPUTS:
            a, b = getattr(cur, name), getattr(prev, name)
            if a.tobytes() != b.tobytes():
                self.probe = (name, int(np.argmax(np.abs(a - b))))
                return False
        return True


def _hold(state: SystemState, k: int, *step_args) -> SystemState:
    """The state ``k`` steps after ``state``, which repeats its predecessor.
    Each of those steps maps its arrays to themselves and adds the same
    amounts to the delivered flow and the counters: one step from a copy
    with these at zero gives them exactly. The delivered amounts are added
    one step at a time, so the sums round as stepping rounds them."""
    zero = replace(state, delivered_forward=0.0, delivered_backward=0.0)
    unit = step(replace(zero, underflow_flushes=0, zero_split_events=0), *step_args)
    forward, backward = state.delivered_forward, state.delivered_backward
    for _ in range(k):
        forward += unit.delivered_forward
        backward += unit.delivered_backward
    return replace(
        state,
        t=state.t + k,
        delivered_forward=forward,
        delivered_backward=backward,
        underflow_flushes=state.underflow_flushes + k * unit.underflow_flushes,
        zero_split_events=state.zero_split_events + k * unit.zero_split_events,
    )


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
    convergence when the config asks for it.

    Under a constant schedule, stepping stops at the first state that
    repeats its predecessor (``_repeats``), at ``t_stationary``: ``step``
    reads only those arrays and ``t``, so every later state would repeat it
    too. The run still ends as stepping would end it. The observers see the
    repeated state for every remaining t, one convergence check on it stands
    for the next one stepping would make, and ``_hold`` gives the final
    state."""
    if T < 1:
        raise ConfigError("T must be >= 1")
    validate_run_setup(graph, rule, schedule, cfg)
    from .analysis import detect_convergence

    trace = RunTrace(warnings=state.warnings)
    for obs in observers:
        obs(state.t, state, None)
    eps = cfg.epsilon_convergence
    gate = _RepeatGate() if schedule.kind == "constant" else None
    path = None
    cur = state
    for i in range(1, T + 1):
        try:
            nxt = step(cur, graph, rule, schedule, cfg)
        except EngineAbort as exc:
            trace.stop_reason = "aborted"
            trace.failure = exc.detail
            trace.failure_t = exc.t
            break
        prev, cur = cur, nxt
        for obs in observers:
            obs(cur.t, cur, prev)
        if eps is not None and (i % CONVERGENCE_CHECK_INTERVAL == 0 or i == T):
            path = detect_convergence(cur, graph, eps)
            if path is not None:
                break
        if gate is not None and gate(cur, prev):
            trace.t_stationary = cur.t
            k = T - i
            if eps is not None and k:
                path = detect_convergence(cur, graph, eps)
                if path is not None:
                    k = min(k, CONVERGENCE_CHECK_INTERVAL - i % CONVERGENCE_CHECK_INTERVAL)
            for t in range(cur.t + 1, cur.t + k + 1):
                for obs in observers:
                    obs(t, cur, cur)
            if k:
                cur = _hold(cur, k, graph, rule, schedule, cfg)
            break
    if path is not None:
        trace.stop_reason = "converged"
        trace.converged_path = path
        trace.converged_t = cur.t
    trace.final_state = cur
    trace.warnings = cur.warnings
    return trace
