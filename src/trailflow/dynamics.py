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
rule's split of the stored vertex flows. ``branch_state`` builds the t=0
states of the proof configurations from a pheromone and a flow fraction per
branch: each interior vertex holds the flow its edge carries, and the state
is split-consistent when the fractions are the rule's split of the
pheromones. Perturbed states (``equilibria.perturb``) need not be.

Layout and kernels. A state's five arrays are views of one float64 buffer,
``[f_edge | b_edge | p | f_vertex | b_vertex]`` (``SystemState.buf``):
``[p | f_vertex | b_vertex]`` takes the rescale, the finiteness test and
the flush in one call each, ``[f_edge | b_edge]`` is what aggregation
reads and the split writes, and ``[f_edge | b_edge | p]`` is all that a
step reads. Forward flow splits over out-edges and backward flow over
in-edges by the same rule, so on graphs that sum out-edges by
``np.bincount`` (``GraphArrays.out_by_bincount``: sparse, not sorted by
tail) both directions go through one kernel call per phase: one bincount
aggregates ``[f_edge | b_edge]``, and one set of totals, divisions and
gathers splits ``[f_vertex | b_vertex]`` (``GraphArrays.pair``). Graphs
summed by ``reduceat`` (sorted by tail, or dense) keep one kernel per
direction, writing into the buffer's halves: there a joint bincount would
cost more than it saves. Every float is the one the per-direction kernels
give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .graph import DirectedGraph, GraphArrays, Path, TwoPathGraph, min_leakage_path
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
        # NaN fails every comparison, so each test is written to reject it
        if not 0.0 < self.f0 < math.inf:
            raise ConfigError("forward injection f0 must be finite and positive")
        if not 0.0 <= self.b0 < math.inf:
            raise ConfigError("backward injection b0 must be finite and non-negative")
        if not math.isfinite(self.alpha):
            raise ConfigError("schedule alpha must be finite")
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
        if not (0.0 <= self.underflow_threshold < math.inf):
            raise ConfigError("underflow threshold must be finite and >= 0")
        if self.rescale_mode not in (RESCALE_OFF, RESCALE_BY_SOURCE):
            raise ConfigError(f"unknown rescale mode {self.rescale_mode!r}")
        if self.epsilon_convergence is not None and not (0.0 < self.epsilon_convergence < 1.0):
            raise ConfigError("epsilon_convergence must lie in (0, 1)")


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------


# the fields of a state in the order of its buffer
_ARRAYS = ("f_edge", "b_edge", "p", "f_vertex", "b_vertex")


def _cut(buf: np.ndarray, m: int, n: int) -> Tuple[np.ndarray, ...]:
    """The views of ``buf`` = ``[f_edge | b_edge | p | f_vertex | b_vertex]``
    for m edges and n vertices, in that order."""
    return buf[:m], buf[m : 2 * m], buf[2 * m : 3 * m], buf[3 * m : 3 * m + n], buf[3 * m + n :]


@dataclass
class SystemState:
    """Pheromone and flow state at one time index.

    ``f_edge``/``b_edge`` are the flows moving on each edge at time t;
    ``f_vertex``/``b_vertex`` are the pending vertex amounts whose split
    produced them. Delivered counters accumulate flow that exited at the
    destination (forward) and source (backward). ``injected_f``/``injected_b``
    are the amounts injected when this state was created (in stored units,
    which matters under rescaling).

    The five arrays are views of one float64 buffer, ``buf``, laid out as
    ``[f_edge | b_edge | p | f_vertex | b_vertex]``, so a kernel can treat
    both flow directions, or everything ``step`` reads, as one array.
    ``copy`` copies the buffer and ``dataclasses.replace`` shares it. A state
    built from other arrays gets a buffer of its own, filled from them.

    Change an array by writing into it, or make a new state with
    ``dataclasses.replace(state, p=...)``, which then gets a buffer of its
    own. Assigning to one of the five attributes is not supported: the
    buffer, which ``step``, the repeat test and the observers read, would
    not follow, and nothing checks for it on each step.
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
    # (buf, *the five views in buffer order) when the arrays are those views
    _layout: Optional[Tuple[np.ndarray, ...]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        lay = self._layout
        if (
            lay is not None
            and lay[1] is self.f_edge
            and lay[2] is self.b_edge
            and lay[3] is self.p
            and lay[4] is self.f_vertex
            and lay[5] is self.b_vertex
        ):
            self.buf = lay[0]
            return
        arrays = [np.asarray(getattr(self, name), dtype=float) for name in _ARRAYS]
        m, n = arrays[0].size, arrays[3].size
        if [a.shape for a in arrays] != [(m,)] * 3 + [(n,)] * 2:
            raise ValueError("a state needs three edge arrays of one length and two vertex arrays")
        self._own(np.concatenate(arrays), m, n)

    def _own(self, buf: np.ndarray, m: int, n: int) -> None:
        views = _cut(buf, m, n)
        self.f_edge, self.b_edge, self.p, self.f_vertex, self.b_vertex = views
        self._layout = (buf, *views)
        self.buf = buf

    def copy(self) -> "SystemState":
        out = replace(self)
        out._own(self.buf.copy(), self.f_edge.size, self.f_vertex.size)
        return out

    # pickling (and so ``copy.deepcopy``) stores the buffer once and cuts the
    # views again, which copying each view on its own would not share
    def __getstate__(self) -> dict:
        state = {k: v for k, v in self.__dict__.items() if k not in _ARRAYS + ("_layout",)}
        state["_sizes"] = (self.f_edge.size, self.f_vertex.size)
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        m, n = state.pop("_sizes")
        self.__dict__.update(state)
        self._own(self.buf, m, n)


PheromoneInit = Union[float, Sequence[float], Mapping[Tuple[int, int], float]]


def _resolve_pheromone(graph: DirectedGraph, init: PheromoneInit, p: np.ndarray) -> None:
    """Fill ``p``, a new state's zeroed pheromone, from ``init``."""
    if isinstance(init, Mapping):
        for (u, v), val in init.items():
            p[graph.edge_id(u, v)] = float(val)
    elif isinstance(init, (int, float)):
        p.fill(float(init))
    else:
        values = np.asarray(init, dtype=float)
        if values.shape != p.shape:
            raise ConfigError(f"pheromone array must have length {p.size}")
        p[:] = values
    if np.any(p < 0.0):
        raise ConfigError("initial pheromone must be non-negative")
    if not np.all(np.isfinite(p)):
        raise ConfigError("initial pheromone must be finite")


def init_state(
    graph: DirectedGraph,
    pheromone_init: PheromoneInit,
    schedule: FlowSchedule,
    rule: DecisionRule = DecisionRule.linear(),
    strict: bool = False,
) -> SystemState:
    """t=0 state: injected flow at s/d only, edge flows from one split."""
    ga = graph.arrays
    buf = np.zeros(3 * ga.m + 2 * ga.n)
    layout = (buf, *_cut(buf, ga.m, ga.n))
    fe, be, p, fv, bv = layout[1:]
    _resolve_pheromone(graph, pheromone_init, p)
    f0 = schedule.forward_at(0)
    b0 = schedule.backward_at(0)
    fv[ga.source] = f0
    bv[ga.destination] = b0
    zeros = _split(ga, rule, layout)
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
        0, p, fe, be, fv, bv, injected_f=f0, injected_b=b0, zero_split_events=zeros,
        warnings=tuple(warnings), _layout=layout,
    )


def branch_state(
    two_path: TwoPathGraph,
    f0: float,
    b0: float,
    top: Tuple[float, float],
    bottom: Tuple[float, float],
) -> SystemState:
    """t=0 state on two parallel paths from each branch's (pheromone,
    fraction): the pheromone on every edge of the branch, forward flow
    ``f0 * fraction`` and backward flow ``b0 * fraction`` times the survival
    products the flow has passed (``branch_survivals``). Each interior
    vertex holds the flow its edge passes on, s holds f0 and d holds b0."""
    g = two_path.graph
    buf = np.zeros(3 * g.n_edges + 2 * g.n_vertices)
    layout = (buf, *_cut(buf, g.n_edges, g.n_vertices))
    fe, be, p, fv, bv = layout[1:]
    for branch, (pheromone, fraction) in (("top", top), ("bottom", bottom)):
        eids = two_path.path_eids(branch)
        prefix, suffix = two_path.branch_survivals(branch)
        p[eids] = pheromone
        fe[eids] = f0 * fraction * prefix
        be[eids] = b0 * fraction * suffix
        inner = list(getattr(two_path, branch).vertices[1:-1])
        fv[inner], bv[inner] = fe[eids[1:]], be[eids[:-1]]
    fv[g.source], bv[g.destination] = f0, b0
    return SystemState(0, p, fe, be, fv, bv, injected_f=f0, injected_b=b0, _layout=layout)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def _split(
    ga: GraphArrays,
    rule: DecisionRule,
    layout: Tuple[np.ndarray, ...],
    bounded: bool = False,
) -> int:
    """Split the vertex flows of a state buffer against its pheromone into
    its edge flows; ``layout`` is the buffer and its five views (``_cut``).
    Returns the number of zero-total splits. The general rule, and the
    linear rule on graphs that sum out-edges by ``np.bincount``, split both
    directions in one pass over ``[f_edge | b_edge]`` (``GraphArrays.pair``).
    Graphs that sum out-edges by ``reduceat`` (tail-sorted or dense) split
    one direction at a time (``_split_linear``)."""
    buf, fe, be, p, fv, bv = layout
    m2 = 2 * ga.m
    if not rule.is_linear:
        buf[:m2] = buf[ga.pair.src_at]
        out_s, in_d = ga.two_path_branches()
        zeros = _branch_split(rule, p, fe, fv.item(ga.source), *out_s)
        return zeros + _branch_split(rule, p, be, bv.item(ga.destination), *in_d)
    if ga.out_by_bincount:
        # the groups are the 2n vertex flows; one with no edge to split over
        # gets a total of 1.0, which keeps the fast path's test whole
        pair = ga.pair
        weights = np.concatenate((p, p, pair.dead_ones))
        totals = np.bincount(pair.total_bins, weights, pair.halves[1][1])
        return _split_groups(
            weights[:m2],
            totals,
            buf[m2 + ga.m :],
            pair.src,
            pair.halves,
            pair.degrees,
            bounded,
            buf[:m2],
        )
    zeros = _split_linear(ga, p, fv, True, bounded, fe)[1]
    return zeros + _split_linear(ga, p, bv, False, bounded, be)[1]


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
# from this many edge flows on, the split gathers its ratios straight into
# the state buffer and multiplies there: a temporary gather would add a pass
# over memory that no longer fits in cache, and its memory; on fewer edges
# ``np.take``'s fixed price is the larger cost (README "Performance")
_TAKE_MIN_EDGES = 2048


def _split_linear(
    ga: GraphArrays,
    p: np.ndarray,
    vertex_flow: np.ndarray,
    forward: bool,
    bounded: bool = False,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """One direction of the linear split, into ``out`` (a new array by
    default). Returns the edge flows and the number of zero-total splits."""
    slot, verts, totals = _vertex_totals(ga, p, forward)
    eflow = np.empty(ga.m) if out is None else out
    zeros = _split_groups(
        p,
        totals,
        vertex_flow[verts],
        slot,
        ((0, totals.size),),
        ga.out_len if forward else ga.in_len,
        bounded,
        eflow,
    )
    return eflow, zeros


def _split_groups(
    p: np.ndarray,
    totals: np.ndarray,
    flow: np.ndarray,
    slot: np.ndarray,
    halves: Tuple[Tuple[int, int], ...],
    sizes: np.ndarray,
    bounded: bool,
    out: np.ndarray,
) -> int:
    """The linear split over groups of edges into ``out``: edge e carries
    ``p[e] * (flow / totals)[slot[e]]``, one division per group and one
    gather per edge by ``slot``: straight into ``out`` from
    ``_TAKE_MIN_EDGES`` edge flows on, below that into a temporary.
    ``halves`` are the group ranges of the directions split and ``sizes``
    the groups' edge counts.
    ``bounded`` says that no ratio can overflow, so a direction whose totals
    are all positive takes the ratio form throughout. Returns the number of
    groups with flow and a zero total, which split evenly."""
    if bounded and np.count_nonzero(totals) == totals.size:
        exact = None
    else:
        exact = flow * _RATIO_SCALE < totals
        if bounded:
            for lo, hi in halves:
                if np.count_nonzero(totals[lo:hi]) == hi - lo:
                    exact[lo:hi] = True
        if np.count_nonzero(exact) == exact.size:
            exact = None
    if exact is None:
        ratio = flow / totals
    else:
        # a zero total means no pheromone on any edge of that group, so a
        # ratio of 0 sends its edges nothing; only positive flow needs the
        # fix below
        ratio = np.divide(flow, totals, out=np.zeros_like(flow), where=exact)
    if out.size >= _TAKE_MIN_EDGES:
        np.take(ratio, slot, out=out, mode="wrap")
        np.multiply(out, p, out)
    else:
        np.multiply(ratio[slot], p, out)
    if exact is None:
        return 0
    fix = ~exact & (flow > 0.0)
    if not fix.any():
        return 0
    # per edge: flow * (p / total), or with no pheromone to follow an even split
    e = np.flatnonzero(fix[slot])
    s = slot[e]
    total = totals[s]
    empty = total == 0.0
    share = np.divide(p[e], total, out=np.zeros_like(total), where=~empty)
    share[empty] = 1.0 / sizes[s[empty]]
    out[e] = flow[s] * share
    return int(np.count_nonzero(fix & (totals == 0.0)))


def _branch_split(
    rule: DecisionRule, p: np.ndarray, eflow: np.ndarray, amount: float, e1: int, e2: int
) -> int:
    """Split ``amount`` over the branch edges e1 and e2 by the general rule,
    into ``eflow``; returns 1 for a positive amount over a zero total (split
    evenly), else 0. Python floats, which on four edges cost less than numpy
    scalars."""
    p1, p2 = p.item(e1), p.item(e2)
    total = p1 + p2
    if total <= 0.0:
        eflow[e1] = eflow[e2] = 0.5 * amount
        return int(amount > 0.0)
    if p1 <= p2:
        e_min, e_oth, x = e1, e2, p1 / total
    else:
        e_min, e_oth, x = e2, e1, p2 / total
    g = float(rule.rule_fn.fn(clamp_unit_half(x)))
    eflow[e_min] = amount * g
    eflow[e_oth] = amount * (1.0 - g)
    return 0


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
    m, n, s, d = ga.m, ga.n, ga.source, ga.destination

    # the new state's buffer (``SystemState``) and its views, as ``_cut``
    # makes them: its stored part [p | f_vertex | b_vertex] takes the
    # rescale, the flush and the finiteness test in one numpy call each. On
    # small graphs each call costs its fixed price, so ufuncs take ``out``
    # positionally and scalars go through ``item`` and plain stores
    m2, m3 = 2 * m, 3 * m
    buf = np.empty(m3 + 2 * n)
    fe, be, p, fv, bv = buf[:m], buf[m:m2], buf[m2:m3], buf[m3 : m3 + n], buf[m3 + n :]
    layout = buf, fe, be, p, fv, bv
    stored = buf[m2:]

    # (a) pheromone update from the flows that traversed edges at time t
    np.add(state.p, state.f_edge, p)
    np.add(p, state.b_edge, p)
    np.multiply(p, cfg.delta, p)

    # (b) aggregation with leakage; delivered flow exits. Where out-edges are
    # summed by np.bincount one bincount over [f_edge | b_edge] sums both
    # directions, each bin in edge order from 0.0 as a bincount of one does
    if ga.out_by_bincount:
        np.multiply(ga.pair_surv, np.bincount(ga.pair.agg_bins, state.buf[:m2], 2 * n), buf[m3:])
    else:
        np.multiply(ga.surv, np.bincount(ga.head_bins, state.f_edge, n), fv)
        np.multiply(ga.surv, ga.tail_sums(state.b_edge), bv)
    delivered_f = state.delivered_forward + fv.item(d)
    delivered_b = state.delivered_backward + bv.item(s)
    fv[d] = 0.0
    bv[s] = 0.0

    # (e'/c) rescale before injection so fresh flow enters at base magnitude
    if cfg.rescale_mode == RESCALE_BY_SOURCE:
        np.multiply(stored, 1.0 / schedule.alpha, stored)
        inj_f, inj_b = schedule.f0, schedule.b0
    else:
        inj_f = schedule.forward_at(t1)
        inj_b = schedule.backward_at(t1)
    fv[s] = fv.item(s) + inj_f
    bv[d] = bv.item(d) + inj_b

    # tested before the flush, which would zero a -inf as an underflow
    total = float(np.add.reduce(stored))
    if not math.isfinite(total):
        raise EngineAbort(t1, _nonfinite_detail(p, fv, bv))

    flushes = _flush(stored, cfg.underflow_threshold)
    # after the flush every positive pheromone total is at least the
    # threshold and no vertex flow exceeds ``total`` (all values are >= 0),
    # so every ratio flow/total is below _BOUNDED_SUM when this holds
    bounded = total < cfg.underflow_threshold * _BOUNDED_SUM

    # (d) split the new vertex flows against p(t+1)
    zeros = _split(ga, rule, layout, bounded)

    return SystemState(
        t1,
        p,
        fe,
        be,
        fv,
        bv,
        delivered_f,
        delivered_b,
        inj_f,
        inj_b,
        state.underflow_flushes + flushes,
        state.zero_split_events + zeros,
        state.warnings,
        layout,
    )


def _nonfinite_detail(p: np.ndarray, fv: np.ndarray, bv: np.ndarray) -> str:
    for name, arr in (("pheromone", p), ("forward vertex flow", fv), ("backward vertex flow", bv)):
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            return f"non-finite {name} at index {int(bad[0])}"
    return "non-finite total (overflow)"


# ``_flush`` by buffer size (README "Performance"): up to the first bound
# (two-path graphs) it tests the entries as Python floats, below numpy's
# fixed price for its calls; up to the second (the planted grid) it reads x
# as its own mask of x != 0.0, one call fewer; above that numpy's
# bool-to-float cast in that form costs more than a second compare. Timed
# in one process, the Python test and the one-mask form cross between 32
# and 64 entries, the two mask forms between 2048 and 4096 (BENCH_18.json)
_FLUSH_IN_PYTHON_MAX = 32
_FLUSH_ONE_MASK_MAX = 2048


def _flush(x: np.ndarray, threshold: float) -> int:
    """Zero, in place, every nonzero entry of ``x`` below ``threshold``
    (negative values included; -0.0 stays as it is); returns how many were
    zeroed."""
    if threshold <= 0.0:
        return 0
    if x.size <= _FLUSH_IN_PYTHON_MAX:
        low = [i for i, v in enumerate(x.tolist()) if v < threshold and v != 0.0]
        if low:
            x[low] = 0.0
        return len(low)
    mask = x < threshold
    np.logical_and(mask, x if x.size <= _FLUSH_ONE_MASK_MAX else np.not_equal(x, 0.0), mask)
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
# s, so ``prev is state`` means nothing changed and the time is ``t``, not s.t.
# An observer may defer work until its results are read (``InvariantObserver``
# checks blocks of stepped pairs); it copies what it keeps of a state, so the
# caller may write to a state once the calls that pass it have returned
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


class _RepeatGate:
    """Whether ``cur`` repeats ``prev``: the same ``[f_edge | b_edge | p]``
    of their buffers, all that ``step`` reads besides ``t``, byte for byte
    (so -0.0 does not match 0.0). The test costs O(1) while the state
    changes: one entry is first compared as floats, a test that every
    repeat passes. When the bytes differ, the entry that changed most
    becomes the one compared first."""

    probe = 0

    def __call__(self, cur: SystemState, prev: SystemState) -> bool:
        a, b = cur.buf, prev.buf
        i = self.probe
        k = 3 * cur.f_edge.size
        if k and a.item(i) != b.item(i):
            return False
        a, b = a[:k], b[:k]
        if a.tobytes() != b.tobytes():
            self.probe = int(np.argmax(np.abs(a - b)))
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
    repeats its predecessor's pheromone and edge flows byte for byte
    (``_RepeatGate``), at ``t_stationary``: ``step`` reads only those arrays
    and ``t``, so every later state would repeat it
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
