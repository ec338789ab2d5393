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
cost more than it saves. Both forms total every vertex flow, 1.0 where it
has no edge to split over, and the joint form gives every float that the
per-direction one gives.

The step is prepared once per (graph, rule, schedule, config)
(``_prepare``), so that each step runs as straight-line code: the
preparation binds the index arrays, survivals and the source and
destination offsets, picks the out-sum form and the flush form, computes
the rescale factor, the constant injections and the flush bounds, and
builds the split (``_splitter``): for the general rule a table of each
branch's buffer offsets with g bound, for the joint linear split a
``[p | p]`` buffer of its own. ``run`` prepares it once and passes it to
every ``step`` call; a bare ``step`` and ``init_state`` prepare their own,
so every phase has one implementation. On two-path graphs one ``tolist``
read of ``[p | f_vertex | b_vertex]`` serves the finiteness test, the
flush and the general split, which reads the pheromones and vertex flows
from it.

A state keeps the joint views ``[p | f_vertex | b_vertex]``,
``[f_edge | b_edge]`` and ``[f_vertex | b_vertex]`` with its five, all cut
once per buffer (``_cut``), and ``run`` steps into two states of its own
in turn (``step``'s ``into``), so a step inside a run allocates no buffer,
cuts no view and builds no ``SystemState``.

Forms chosen by size or structure stay where they change floats (the
out-sum kernel, which also picks the joint kernels, and the split's
``bounded`` path) or where a workload of the benchmark runs slower without
them (the finiteness test and the flush in Python floats on two-path
graphs); ``BENCH_21.json``, ``BENCH_25.json`` and ``BENCH_32.json``
measure each, and those deleted for saving nothing end to end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

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
            return _grown(self.f0, self.alpha, t)
        return self.f0 + self.alpha * t

    def backward_at(self, t: int) -> float:
        if self.kind == "constant":
            return self.b0
        if self.kind == "exponential":
            return _grown(self.b0, self.alpha, t)
        return self.b0 + self.alpha * t if self.b0 > 0.0 else 0.0


def _grown(x0: float, alpha: float, t: int) -> float:
    """x0 * alpha**t. Python raises where alpha**t is past the float range,
    though the product may not be: there it grows x0 by each half of t in
    turn, and stops once it is inf (or 0, when x0 is)."""
    try:
        return x0 * alpha**t
    except OverflowError:
        half = _grown(x0, alpha, t // 2)
        return _grown(half, alpha, t - t // 2) if 0.0 < half < math.inf else half


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
    """The layout of ``buf`` = ``[f_edge | b_edge | p | f_vertex | b_vertex]``
    for m edges and n vertices: ``buf``, the five views in that order, then
    the joint views ``[p | f_vertex | b_vertex]``, ``[f_edge | b_edge]`` and
    ``[f_vertex | b_vertex]``."""
    m2, m3 = 2 * m, 3 * m
    return (
        buf, buf[:m], buf[m:m2], buf[m2:m3], buf[m3 : m3 + n], buf[m3 + n :],
        buf[m2:], buf[:m2], buf[m3:],
    )


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
    both flow directions, or everything ``step`` reads, as one array. The
    state also keeps the joint views ``step`` and its split work on,
    ``[p | f_vertex | b_vertex]``, ``[f_edge | b_edge]`` and
    ``[f_vertex | b_vertex]``, cut once with the five (``_cut``), so a step
    slices nothing. ``copy`` copies the buffer and ``dataclasses.replace``
    shares it. A state built from other arrays gets a buffer of its own,
    filled from them.

    ``run`` owns two states and steps each into the other's predecessor
    (``step``'s ``into``): a step inside a run writes the buffer and the
    scalar fields of a state it made two steps before, and allocates
    nothing. The caller's initial state is never written.

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
    # ``_cut(buf, m, n)`` when the arrays are the views it cuts
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
        layout = _cut(buf, m, n)
        self.f_edge, self.b_edge, self.p, self.f_vertex, self.b_vertex = layout[1:6]
        self._layout = layout
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


PheromoneInit = Union[float, Sequence[float]]


def _resolve_pheromone(init: PheromoneInit, p: np.ndarray) -> None:
    """Fill ``p``, a new state's zeroed pheromone, from ``init``: one value
    for every edge, or one per edge in edge-id order."""
    if isinstance(init, (int, float)):
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
    layout = _cut(np.zeros(3 * ga.m + 2 * ga.n), ga.m, ga.n)
    fe, be, p, fv, bv = layout[1:6]
    _resolve_pheromone(pheromone_init, p)
    f0 = schedule.forward_at(0)
    b0 = schedule.backward_at(0)
    fv[ga.source] = f0
    bv[ga.destination] = b0
    zeros = _splitter(ga, rule)(layout, None, False)
    warnings: List[str] = []
    if strict:
        target = min_leakage_path(graph)
        if target is not None:
            hops = target.edge_pairs()
            zero = p[graph.edge_ids(hops)] <= 0.0
            if zero.any():
                u, v = hops[int(np.argmax(zero))]
                warnings.append(
                    f"zero initial pheromone on min-leakage path edge ({u},{v}); "
                    "convergence guarantees assume positive values there"
                )
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
    layout = _cut(np.zeros(3 * g.n_edges + 2 * g.n_vertices), g.n_edges, g.n_vertices)
    fe, be, p, fv, bv = layout[1:6]
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

# (layout, vals, bounded) -> the number of zero-total splits; see ``_splitter``
_Split = Callable[[Tuple[np.ndarray, ...], Optional[List[float]], bool], int]


def _splitter(ga: GraphArrays, rule: DecisionRule) -> _Split:
    """The split of a state buffer's vertex flows against its pheromone into
    its edge flows, prepared for ``ga``'s graph and ``rule``: a function of
    ``layout``, the buffer and its views (``_cut``), ``vals``, its stored
    part ``[p | f_vertex | b_vertex]`` as Python floats or None, and
    ``bounded`` (see ``_split_groups``), returning the number of zero-total
    splits.

    The general rule passes each vertex flow on along its one edge with one
    gather over ``[f_edge | b_edge]`` (``GraphArrays.pair``), then splits
    the flow of each vertex with two edges (``GraphArrays.branches``,
    forward first; GraphError names a vertex with more) by g: the edge with
    the smaller normalized level gets g of that level, the other the rest,
    and a positive flow over a zero total splits evenly and is counted. It
    reads pheromones and vertex flows from ``vals`` (one ``tolist`` when
    None), as Python floats, which on two edges cost less than numpy
    scalars. The linear rule totals the pheromone at every vertex flow, 1.0
    where it has no edge to split over, and splits by ``_split_groups``: on
    graphs that sum out-edges by ``np.bincount`` both directions in one pass
    over the 2n vertex flows (``GraphArrays.pair``), against a ``[p | p]``
    buffer of the split's own; on graphs that sum them by ``reduceat``
    (tail-sorted or dense) one direction at a time over the n vertices
    (``_direction_totals``)."""
    m, n = ga.m, ga.n
    if not rule.is_linear:
        src, fn = ga.pair.src, rule.rule_fn.fn
        forward, backward = ga.branches
        # per branch: where ``vals`` holds the pheromone of e1 and e2 and the
        # vertex flow, and where ``[f_edge | b_edge]`` holds e1's and e2's flow
        table = tuple((e1, e2, m + v, e1, e2) for v, e1, e2 in forward) + tuple(
            (e1, e2, m + n + v, m + e1, m + e2) for v, e1, e2 in backward
        )

        def split_general(layout, vals, bounded):
            flows = layout[7]
            layout[8].take(src, None, flows, "wrap")
            if vals is None:
                vals = layout[6].tolist()
            zeros = 0
            for i1, i2, iv, f1, f2 in table:
                p1, p2, amount = vals[i1], vals[i2], vals[iv]
                total = p1 + p2
                if total <= 0.0:
                    flows[f1] = flows[f2] = 0.5 * amount
                    zeros += amount > 0.0
                    continue
                if not p1 <= p2:
                    f1, f2, p1 = f2, f1, p2
                g = float(fn(clamp_unit_half(p1 / total)))
                flows[f1] = amount * g
                flows[f2] = amount * (1.0 - g)
            return zeros

        return split_general
    if ga.out_by_bincount:
        pair = ga.pair
        src, dead, halves, degrees = pair.src, pair.dead, pair.halves, pair.degrees
        pp = np.empty(2 * m)
        rows = pp.reshape(2, m)

        def split_joint(layout, vals, bounded):
            rows[...] = layout[3]
            totals = np.bincount(src, pp, 2 * n)
            totals[dead] = 1.0  # as in ``_direction_totals``
            return _split_groups(pp, totals, layout[8], src, halves, degrees, bounded, layout[7])

        return split_joint
    whole = ((0, n),)

    def split_directions(layout, vals, bounded):
        _, fe, be, p, fv, bv, _, _, _ = layout
        fwd, bwd = _direction_totals(ga, p, True), _direction_totals(ga, p, False)
        zeros = _split_groups(p, fwd, fv, ga.tail_bins, whole, ga.out_deg, bounded, fe)
        return zeros + _split_groups(p, bwd, bv, ga.head_bins, whole, ga.in_deg, bounded, be)

    return split_directions


def _direction_totals(ga: GraphArrays, p: np.ndarray, forward: bool) -> np.ndarray:
    """The pheromone total on the out-edges (forward) or in-edges
    (backward) of each vertex, and 1.0 at a vertex with none. No edge reads
    that 1.0, and ``_split_groups`` never takes it for a zero total, so its
    all-positive test holds wherever every total an edge reads is positive.
    ``analysis.normalized_levels`` divides by the same totals."""
    if forward:
        totals, dead = ga.tail_sums(p), ga.no_out
    else:
        totals, dead = np.bincount(ga.head_bins, p, ga.n), ga.no_in
    totals[dead] = 1.0
    return totals


# flow * _RATIO_SCALE < total keeps the ratio flow/total below 2**32 and
# p * ratio (p <= total) within rounding of the flow, far from overflow. A
# vertex that fails the test, a zero total among them, splits per edge in
# the form flow * (p / total), which never overflows. The product is
# subnormal, and slow, only for flows below about 1e-298.
_RATIO_SCALE = 2.0**-32
# after a flush at threshold h, a state whose values sum below h * this
# cannot hold a ratio flow/total near overflow (see ``step``)
_BOUNDED_SUM = 2.0**1020


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
    gather per edge by ``slot`` into ``out``. ``halves`` are the group
    ranges of the directions split and ``sizes`` the groups' edge counts.
    A group whose ratio could overflow (a zero total among them) splits per
    edge as ``flow * (p / total)``. ``bounded`` says that no ratio can
    overflow, so a direction whose totals are all positive takes the ratio
    form throughout; that is not float-identical to the per-group test once
    a ratio passes 2**32. Returns the number of groups with flow and a zero
    total, which split evenly."""
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
    # the array method with positional arguments costs least at every size:
    # a temporary gather adds a pass over memory, keywords add parsing
    ratio.take(slot, None, out, "wrap")
    np.multiply(out, p, out)
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



# ---------------------------------------------------------------------------
# Step
# ---------------------------------------------------------------------------


def _check_size(state: SystemState, ga: GraphArrays) -> int:
    """The buffer size of a state on ``ga``'s graph; raises ConfigError when
    ``state`` has another."""
    size = 3 * ga.m + 2 * ga.n
    if state.buf.size != size:
        raise ConfigError(
            f"state has {state.buf.size} values, but a state on a graph with {ga.m} "
            f"edges and {ga.n} vertices has {size}"
        )
    return size


def validate_run_setup(
    state: SystemState,
    graph: DirectedGraph,
    rule: DecisionRule,
    schedule: FlowSchedule,
    cfg: EngineConfig,
) -> None:
    _check_size(state, graph.arrays)
    if cfg.rescale_mode == RESCALE_BY_SOURCE:
        if not rule.is_linear:
            raise ConfigError("rescaling requires the linear rule (scale invariance)")
        if schedule.kind != "exponential":
            raise ConfigError("rescaling applies to exponential schedules only")


# state, into (None: a new state) -> the state at t+1; see ``_prepare``
_Kernel = Callable[[SystemState, Optional[SystemState]], SystemState]


def _prepare(
    graph: DirectedGraph,
    rule: DecisionRule,
    schedule: FlowSchedule,
    cfg: EngineConfig,
) -> _Kernel:
    """``step`` prepared for one (graph, rule, schedule, cfg): a function
    of a state on ``graph`` and ``into`` that writes the state at t+1 into
    ``into`` (a new state when None) and returns it. It binds once what
    depends on these four alone: the index arrays, survivals and offsets,
    the out-sum form, the rescale factor and constant injections, the flush
    constants, and the split (``_splitter``). It checks no size."""
    ga = graph.arrays
    m, n = ga.m, ga.n
    size = 3 * m + 2 * n
    s, d = ga.source, ga.destination
    # ufuncs take a 0-d array operand at a lower fixed price than a float
    delta = np.array(cfg.delta)
    joint = ga.out_by_bincount
    agg_bins, pair_surv = (ga.pair.agg_bins, ga.pair_surv) if joint else (None, None)
    head_bins, surv, tail_sums = ga.head_bins, ga.surv, ga.tail_sums
    # rescaling injects f0 and b0 at every step, as a constant schedule does
    rescale = np.array(1.0 / schedule.alpha) if cfg.rescale_mode == RESCALE_BY_SOURCE else None
    constant = rescale is not None or schedule.kind == "constant"
    f0, b0 = schedule.f0, schedule.b0
    forward_at, backward_at = schedule.forward_at, schedule.backward_at
    # after the flush every positive pheromone total is at least the
    # threshold and no vertex flow exceeds the total of the stored values
    # (all >= 0), so every ratio flow/total is below _BOUNDED_SUM when that
    # total is below ``bound``. Non-negative values whose Python sum is below
    # ``limit`` have a numpy total that is finite and below ``bound``
    # (``_SUM_MARGIN``)
    threshold = cfg.underflow_threshold
    bound = threshold * _BOUNDED_SUM
    limit = (bound if bound < _FLOAT_MAX else _FLOAT_MAX) * _SUM_MARGIN
    # a zero threshold flushes nothing and puts ``limit`` at 0, which no
    # non-negative sum is below: its buffers take numpy's total
    in_python = threshold > 0.0 and m + 2 * n <= _FLUSH_IN_PYTHON_MAX
    split = _splitter(ga, rule)

    def kernel(state: SystemState, into: Optional[SystemState] = None) -> SystemState:
        t1 = state.t + 1
        if into is None:
            layout = _cut(np.empty(size), m, n)
            into = SystemState(t1, layout[3], layout[1], layout[2], layout[4], layout[5], _layout=layout)
        else:
            layout = into._layout
        # the new state's buffer and its views (``_cut``): its stored part
        # [p | f_vertex | b_vertex] takes the rescale, the flush and the
        # finiteness test in one numpy call each, or in one ``tolist`` read on
        # two-path graphs. On small graphs each call costs its fixed price, so
        # ufuncs take ``out`` positionally and scalars go through ``item`` and
        # plain stores
        _, fe, be, p, fv, bv, stored, _, vflows = layout
        _, fe0, be0, p0, _, _, _, flows0, _ = state._layout

        # (a) pheromone update from the flows that traversed edges at time t
        np.add(p0, fe0, p)
        np.add(p, be0, p)
        np.multiply(p, delta, p)

        # (b) aggregation with leakage; delivered flow exits. Where out-edges
        # are summed by np.bincount one bincount over [f_edge | b_edge] sums
        # both directions, each bin in edge order from 0.0 as a bincount of
        # one does
        if joint:
            np.multiply(pair_surv, np.bincount(agg_bins, flows0, 2 * n), vflows)
        else:
            np.multiply(surv, np.bincount(head_bins, fe0, n), fv)
            np.multiply(surv, tail_sums(be0), bv)
        delivered_f = state.delivered_forward + fv.item(d)
        delivered_b = state.delivered_backward + bv.item(s)
        fv[d] = 0.0
        bv[s] = 0.0

        # (e'/c) rescale before injection so fresh flow enters at base magnitude
        if rescale is not None:
            np.multiply(stored, rescale, stored)
        if constant:
            inj_f, inj_b = f0, b0
        else:
            inj_f, inj_b = forward_at(t1), backward_at(t1)
        fv[s] = fv.item(s) + inj_f
        bv[d] = bv.item(d) + inj_b

        # finiteness is tested before the flush, which would zero a -inf as an
        # underflow. Up to _FLUSH_IN_PYTHON_MAX entries one ``tolist`` serves
        # the test, ``bounded``, the flush and the general split: the entries
        # to flush, ``low``, are found on Python floats, and as every negative
        # value is among them, values with none to flush need no sign test.
        # Every other buffer (NaN, inf, a negative, a total near the bound) is
        # tested on numpy's total, as a large one is; ``run`` takes it with
        # overflow warnings off, so an overflowing total is only the abort
        vals = low = None
        if in_python:
            vals = stored.tolist()
            low = [i for i, v in enumerate(vals) if v < threshold and v != 0.0]
        if vals is not None and (not low or 0.0 <= min(vals)) and sum(vals) < limit:
            bounded = True
        else:
            total = float(np.add.reduce(stored))
            if not math.isfinite(total):
                raise EngineAbort(t1, _nonfinite_detail(p, fv, bv))
            bounded = total < bound
        if low is None:
            flushes = _flush(stored, threshold)
        else:
            if low:
                stored[low] = 0.0
                for i in low:
                    vals[i] = 0.0
            flushes = len(low)

        # (d) split the new vertex flows against p(t+1)
        zeros = split(layout, vals, bounded)

        into.t = t1
        into.delivered_forward = delivered_f
        into.delivered_backward = delivered_b
        into.injected_f = inj_f
        into.injected_b = inj_b
        into.underflow_flushes = state.underflow_flushes + flushes
        into.zero_split_events = state.zero_split_events + zeros
        into.warnings = state.warnings
        return into

    return kernel


def step(
    state: SystemState,
    graph: DirectedGraph,
    rule: DecisionRule,
    schedule: FlowSchedule,
    cfg: EngineConfig,
    into: Optional[SystemState] = None,
    *,
    _kernel: Optional[_Kernel] = None,
) -> SystemState:
    """One synchronous update; returns the state at t+1.

    With ``into``, a state on the same graph that shares no buffer with
    ``state``, the new state is written into it, buffer and scalar fields,
    and ``into`` is returned: nothing is allocated and no view is cut. After
    an abort ``into`` holds a partly written buffer. Without it the new
    state gets a buffer of its own.

    ``_kernel`` is this step prepared by ``_prepare`` for the same graph,
    rule, schedule and config, which ``run`` passes on every step; it skips
    the checks on ``state`` and ``into``. Without it the step checks them
    and prepares its own."""
    if _kernel is None:
        size = _check_size(state, graph.arrays)
        if into is not None and into.buf.size != size:
            raise ConfigError(f"into has {into.buf.size} values, but the state has {size}")
        if into is not None and into.buf is state.buf:
            raise ConfigError("into shares the buffer of the state it steps from")
        _kernel = _prepare(graph, rule, schedule, cfg)
    return _kernel(state, into)


def _nonfinite_detail(p: np.ndarray, fv: np.ndarray, bv: np.ndarray) -> str:
    for name, arr in (("pheromone", p), ("forward vertex flow", fv), ("backward vertex flow", bv)):
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            return f"non-finite {name} at index {int(bad[0])}"
    return "non-finite total (overflow)"


# up to this many entries (two-path graphs) ``step`` reads its stored values
# once as Python floats for the finiteness test, the flush and the general
# split, below the fixed price of the numpy calls (BENCH_21.json,
# BENCH_25.json, BENCH_32.json)
_FLUSH_IN_PYTHON_MAX = 32
# sums of up to _FLUSH_IN_PYTHON_MAX finite non-negative floats, added in any
# order (left to right, numpy's pairwise, Python's ``sum``), lie within a
# factor 1 +- 2**-46 of each other: a Python sum below this share of a bound
# (and of the largest float) puts numpy's total below that bound, and finite
_SUM_MARGIN = 1.0 - 2.0**-40
_FLOAT_MAX = sys.float_info.max


def _flush(x: np.ndarray, threshold: float) -> int:
    """Zero, in place, every nonzero entry of ``x`` below ``threshold``
    (negative values included; -0.0 stays as it is); returns how many were
    zeroed. ``step`` flushes up to _FLUSH_IN_PYTHON_MAX entries on Python
    floats by the same test, and larger buffers here."""
    if threshold <= 0.0:
        return 0
    mask = x < threshold
    np.logical_and(mask, np.not_equal(x, 0.0), mask)
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
# An observer with a true attribute ``skips_repeats`` is not called for those
# held t at all (the stability runs' state recorder); the others are, in
# their order.
# An observer may defer work until its results are read (``InvariantObserver``
# checks blocks of stepped pairs), but it must copy what it keeps of a state
# (``state.copy()``, or the values it needs): ``run`` steps into the state
# objects it passes two steps later, so a kept reference or view would
# change under the observer. The caller's initial state is never written
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


# ``_hold`` adds the delivered amounts of at most this many steps per
# accumulate call, so a long hold needs no array of its length
_HOLD_ROWS = 4096


def _hold(state: SystemState, k: int, *step_args, kernel: _Kernel) -> SystemState:
    """The state ``k`` steps after ``state``, which repeats its predecessor.
    Each of those steps maps its arrays to themselves and adds the same
    amounts to the delivered flow and the counters: one step from a copy
    with these at zero gives them exactly. The delivered amounts are added
    one step at a time, left to right by ``np.add.accumulate`` over at most
    ``_HOLD_ROWS`` steps at once, so the sums round as stepping rounds them."""
    zero = replace(state, delivered_forward=0.0, delivered_backward=0.0)
    unit = step(replace(zero, underflow_flushes=0, zero_split_events=0), *step_args, _kernel=kernel)
    sums = np.empty((min(k, _HOLD_ROWS) + 1, 2))  # row 0: the totals so far
    sums[0] = state.delivered_forward, state.delivered_backward
    for done in range(0, k, _HOLD_ROWS):
        rows = sums[: min(k - done, _HOLD_ROWS) + 1]
        rows[1:] = unit.delivered_forward, unit.delivered_backward
        np.add.accumulate(rows, out=rows)
        sums[0] = rows[-1]
    forward, backward = sums[0].tolist()
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
    repeated state for every remaining t (but those that set
    ``skips_repeats``, see ``Observer``), one convergence check on it stands
    for the next one stepping would make, and ``_hold`` gives the final
    state.

    The run prepares its step once (``_prepare``) and passes it to every
    ``step`` call. It allocates two states and from then on steps into the
    state of two steps back (``step``'s ``into``), so an observer must copy
    what it keeps (see ``Observer``). ``state`` itself is never written."""
    if T < 1:
        raise ConfigError("T must be >= 1")
    validate_run_setup(state, graph, rule, schedule, cfg)
    kernel = _prepare(graph, rule, schedule, cfg)
    from .analysis import detect_convergence

    trace = RunTrace(warnings=state.warnings)
    for obs in observers:
        obs(state.t, state, None)
    eps = cfg.epsilon_convergence
    gate = _RepeatGate() if schedule.kind == "constant" else None
    path = None
    # the run owns the states it steps into: from the third step on, each
    # step writes the state from two steps back, which no observer holds
    cur, spare = state, None
    # an overflowing total makes ``step`` abort the run, which is reported,
    # not warned about; one errstate for the loop costs about as much as one
    # of the totals, so ``step`` takes none of its own
    with np.errstate(over="ignore"):
        for i in range(1, T + 1):
            try:
                nxt = step(cur, graph, rule, schedule, cfg, spare, _kernel=kernel)
            except EngineAbort as exc:
                trace.stop_reason = "aborted"
                trace.failure = exc.detail
                trace.failure_t = exc.t
                break
            prev, cur = cur, nxt
            spare = None if prev is state else prev
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
                held = [obs for obs in observers if not getattr(obs, "skips_repeats", False)]
                for t in range(cur.t + 1, cur.t + k + 1):
                    for obs in held:
                        obs(t, cur, cur)
                if k:
                    cur = _hold(cur, k, graph, rule, schedule, cfg, kernel=kernel)
                break
    if path is not None:
        trace.stop_reason = "converged"
        trace.converged_path = path
        trace.converged_t = cur.t
    trace.final_state = cur
    trace.warnings = cur.warnings
    return trace
