"""Normalized pheromone levels, convergence detection, the windowed ratio
potential, and the proof constants used as runtime diagnostics.

Ratio conventions: for a two-path graph the branch ratios are
``r_s(t) = p(s, top1) / p(s, bottom1)`` and
``r_d(t) = p(topLast, d) / p(bottomLast, d)``. A ratio with zero denominator
and positive numerator is recorded as +inf (it can never be the minimum
unless everything is infinite); 0/0 is recorded as NaN and excluded from the
window minimum; a true 0/positive ratio is 0 and dominates the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .dynamics import (
    RESCALE_BY_SOURCE,
    ConfigError,
    FlowSchedule,
    SystemState,
    _direction_totals,
)
from .graph import DirectedGraph, GraphArrays, Path, TwoPathGraph


TIMESERIES_COLUMNS = ["t", "edge_id", "u", "v", "p", "f", "b", "norm_fwd", "norm_bwd"]
SUMMARY_COLUMNS = ["t", "r_min", "f_s", "b_d", "converged_path_id"]

_FIRST = np.zeros(1, dtype=np.intp)  # reduceat index of a single segment

# the proof checks' slack: a bound holds when the value is within this of it
# (relative for flows and ratio growth, absolute for pheromone and levels)
_PROOF_SLACK = 1e-9
# flush-to-zero makes discrepancies below this multiple of the underflow
# threshold meaningless (``InvariantObserver.abs_floor``)
_FLUSH_FLOOR = 1e6


# ---------------------------------------------------------------------------
# Normalized pheromone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedLevels:
    """Per-edge normalized pheromone; NaN marks an undefined ratio (zero
    total at the normalizing vertex)."""

    fwd: np.ndarray  # normalized over the out-edges of the tail
    bwd: np.ndarray  # normalized over the in-edges of the head


def normalized_levels(state: "SystemState", graph: DirectedGraph) -> NormalizedLevels:
    """The linear rule's share of each edge: its pheromone over the total on
    the out-edges of its tail (forward) or the in-edges of its head
    (backward), the totals the split reads (``_direction_totals``); NaN
    where that total is 0."""
    ga, p = graph.arrays, state.p
    fwd = _direction_totals(ga, p, True)[ga.tail_bins]
    bwd = _direction_totals(ga, p, False)[ga.head_bins]
    with np.errstate(invalid="ignore"):
        return NormalizedLevels(p / fwd, p / bwd)


class BranchLevelObserver:
    """Records a two-path branch's normalized level at the source side
    (forward: its first edge over both out-edges of s) and at the
    destination side (backward: its last edge over both in-edges of d) every
    step; NaN where both edges carry no pheromone. Both are computed in
    Python floats from the four branch-point pheromones: on two-path graphs
    that costs about a quarter of ``normalized_levels``."""

    def __init__(self, two_path: TwoPathGraph, branch: str) -> None:
        other = "bottom" if branch == "top" else "top"
        self.s_eid, self.d_eid = two_path.branch_eids(branch)
        self.s_other, self.d_other = two_path.branch_eids(other)
        self.norm_s: List[float] = []
        self.norm_d: List[float] = []

    def __call__(self, t, state, prev) -> None:
        item = state.p.item
        ps, pd = item(self.s_eid), item(self.d_eid)
        ts = ps + item(self.s_other)
        td = pd + item(self.d_other)
        self.norm_s.append(ps / ts if ts > 0 else math.nan)
        self.norm_d.append(pd / td if td > 0 else math.nan)


def _sum_in_order(values: List[float], total: float) -> float:
    """``total`` plus each of ``values`` in turn, left to right."""
    for x in values:
        total += x
    return total


def detect_convergence(
    state: "SystemState", graph: DirectedGraph, epsilon: float
) -> Optional[Path]:
    """The unique s->d path whose every edge has forward and backward
    normalized pheromone >= 1 - epsilon, found by greedily following the
    max-normalized out-edge from s (ties to the lowest head); None when no
    such chain reaches d.

    Only the chain's vertices are read: the out-edges of each chain vertex
    and the in-edges of the head it picks, as Python floats. The totals are
    summed the way ``normalized_levels`` sums them, so the levels compared
    are the same floats: an out-total as ``GraphArrays.tail_sums`` sums it
    (left to right from 0.0, as ``np.bincount`` does, or by ``reduceat``),
    an in-total left to right in edge order."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    ga = graph.arrays
    p, heads, out_eids, in_eids = state.p, ga.heads, ga.out_eids, ga.in_eids
    out_ptr, in_ptr = ga.out_ptr, ga.in_ptr
    by_bincount = ga.out_by_bincount
    bar = 1.0 - epsilon
    seq = [ga.source]
    seen = {ga.source}
    cur = ga.source
    while cur != ga.destination:
        lo, hi = out_ptr.item(cur), out_ptr.item(cur + 1)
        p_out = p[out_eids[lo:hi]]
        vals = p_out.tolist()
        if by_bincount:
            total = _sum_in_order(vals, 0.0)
        else:
            total = np.add.reduceat(p_out, _FIRST).item(0) if hi > lo else 0.0
        # a zero total leaves every level NaN: no edge to follow
        if not total > 0.0:
            return None
        fwd = [x / total for x in vals]
        best = max(fwd)
        if not best >= bar:
            return None
        # ties go to the lowest head
        k = fwd.index(best)
        if fwd.count(best) > 1:
            k = min((heads.item(out_eids.item(lo + j)), j) for j, f in enumerate(fwd) if f == best)[1]
        nxt = heads.item(out_eids.item(lo + k))
        in_vals = p[in_eids[in_ptr.item(nxt) : in_ptr.item(nxt + 1)]].tolist()
        in_total = _sum_in_order(in_vals[1:], in_vals[0])
        if not vals[k] / in_total >= bar or nxt in seen:
            return None
        seq.append(nxt)
        seen.add(nxt)
        cur = nxt
    return Path(tuple(seq))


# ---------------------------------------------------------------------------
# Ratio potential
# ---------------------------------------------------------------------------


def ratio(num: float, den: float) -> float:
    if den > 0.0:
        return num / den
    return math.inf if num > 0.0 else math.nan


@dataclass
class PotentialTrace:
    """Branch pheromone ratios and their windowed minimum.

    ``r_min[i]`` (for the state at time i, recording from t=0) is the
    minimum of the last ``window`` samples of both ratios, NaN samples
    excluded; NaN while the window is not yet full or when every sample in
    it is NaN.
    """

    window: int
    r_s: List[float] = field(default_factory=list)
    r_d: List[float] = field(default_factory=list)
    r_min: List[float] = field(default_factory=list)


class PotentialObserver:
    """Run observer recording the potential of a two-path run: each call
    pushes the current branch ratios and the window minimum."""

    def __init__(self, two_path: TwoPathGraph) -> None:
        self.top_eids = two_path.branch_eids("top")
        self.bottom_eids = two_path.branch_eids("bottom")
        self.trace = PotentialTrace(window=two_path.window)

    def __call__(self, t, state, prev) -> None:
        p, trace = state.p, self.trace
        (s_top, d_top), (s_bottom, d_bottom) = self.top_eids, self.bottom_eids
        trace.r_s.append(ratio(float(p[s_top]), float(p[s_bottom])))
        trace.r_d.append(ratio(float(p[d_top]), float(p[d_bottom])))
        L = trace.window
        if len(trace.r_s) < L:
            trace.r_min.append(math.nan)
            return
        samples = [x for series in (trace.r_s, trace.r_d) for x in series[-L:] if not math.isnan(x)]
        trace.r_min.append(min(samples) if samples else math.nan)


# ---------------------------------------------------------------------------
# Theorem constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremConstants:
    """Explicit constants from the fixed-flow convergence analysis.

    C is the pheromone-to-flow comparison constant 5(f_s+b_d)/(b_d(1-delta));
    gamma_sl/gamma_dl are the guaranteed per-window growth factors of the
    branch ratios at the source and destination side (the destination-side
    constant normalizes by f_s instead of b_d); gamma_l is their minimum.
    T1 is the warm-up time after which the pheromone bound holds.
    """

    C: float
    gamma_sl: float
    gamma_dl: float
    gamma_l: float
    T1: float


def warmup_time(p_init_max: float, injected: float, delta: float) -> float:
    """The warm-up time T1: steps until pheromone that started at
    ``p_init_max`` has decayed to the per-step injection ``injected``
    (f_s + b_d); 0 when no edge starts with pheromone."""
    if not p_init_max > 0.0:
        return 0.0
    return max(0.0, math.log(p_init_max / injected) / math.log(1.0 / delta))


def theorem_constants(
    f_s: float,
    b_d: float,
    delta: float,
    surv_top: float,
    surv_bottom: float,
    p_init_max: float,
) -> TheoremConstants:
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if f_s <= 0.0 or b_d <= 0.0:
        raise ValueError("flows must be positive")
    if surv_top < surv_bottom:
        raise ValueError("surv_top must be >= surv_bottom (top is the min-leakage path)")
    C_s = 5.0 * (f_s + b_d) / (b_d * (1.0 - delta))
    C_d = 5.0 * (f_s + b_d) / (f_s * (1.0 - delta))
    gamma_sl = 1.0 + (surv_top - surv_bottom) / (C_s + surv_bottom)
    gamma_dl = 1.0 + (surv_top - surv_bottom) / (C_d + surv_bottom)
    return TheoremConstants(
        C=C_s,
        gamma_sl=gamma_sl,
        gamma_dl=gamma_dl,
        gamma_l=min(gamma_sl, gamma_dl),
        T1=warmup_time(p_init_max, f_s + b_d, delta),
    )


# ---------------------------------------------------------------------------
# Diagnostic checks
# ---------------------------------------------------------------------------


class PheromoneBoundObserver:
    """Per-step check, from T1 on, of the pheromone bound
    max p <= 2 (f + b) / (1 - delta) + ``_PROOF_SLACK``; uses the amounts
    actually injected at each step so it stays correct under rescaling."""

    def __init__(self, delta: float, T1: float) -> None:
        self.delta = delta
        self.T1 = T1
        self.violations: List[Tuple[int, int, float, float]] = []

    def __call__(self, t, state, prev) -> None:
        if t < self.T1:
            return
        bound = 2.0 * (state.injected_f + state.injected_b) / (1.0 - self.delta)
        worst = float(state.p.max())
        if worst > bound + _PROOF_SLACK:
            self.violations.append((t, int(np.argmax(state.p)), worst, bound))


@dataclass(frozen=True)
class GrowthViolation:
    t: int
    kind: str  # "monotonic" | "growth"
    value: float
    required: float


def sweep_potential_monotone(trace: PotentialTrace) -> List[GrowthViolation]:
    """All monotonicity violations r_min(t+1) < r_min(t)(1 - 1e-12) for
    t >= the window length."""
    out: List[GrowthViolation] = []
    r = trace.r_min
    for t in range(trace.window, len(r) - 1):
        a, b = r[t], r[t + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if b < a * (1.0 - 1e-12):
            out.append(GrowthViolation(t, "monotonic", b, a))
    return out


def sweep_potential_growth(
    trace: PotentialTrace, constants: TheoremConstants
) -> List[GrowthViolation]:
    """All growth violations r_min(t+L) < gamma_l r_min(t)(1 - 1e-9) for
    t >= T1 + L."""
    L = trace.window
    start = int(math.ceil(constants.T1)) + L
    out: List[GrowthViolation] = []
    r = trace.r_min
    for t in range(start, len(r) - L):
        a, b = r[t], r[t + L]
        if math.isnan(a) or math.isnan(b):
            continue
        if math.isinf(a) and math.isinf(b):
            continue
        if b < constants.gamma_l * a * (1.0 - _PROOF_SLACK):
            out.append(GrowthViolation(t, "growth", b, constants.gamma_l * a))
    return out


# ---------------------------------------------------------------------------
# Per-step model invariants (conservation, split, recurrence)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantViolation:
    t: int
    kind: str
    index: int
    error: float


# an ``InvariantObserver`` block holds at most _BLOCK_ROWS stepped pairs, with
# m + 4n residuals each (one per entry of every kind), and at most
# _BLOCK_ELEMENTS residuals in all
_BLOCK_ROWS = 32
_BLOCK_ELEMENTS = 2**16


def _block_index(ga: GraphArrays) -> tuple:
    """The index arrays of every ``InvariantObserver`` on a graph
    (``GraphArrays.derive``): its rows R, the vertex entries each vertex
    kind checks, and the bins its conservation and split sums read."""
    m, n = ga.m, ga.n
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // (m + 4 * n)))
    # vertex entries checked, per vertex kind: all but s and d in
    # conservation, the vertices with out-/in-edges in the split checks
    checked = np.ones((4, 1, n), dtype=bool)
    checked[:2, 0, [ga.source, ga.destination]] = False
    checked[2:, 0] = ga.out_deg > 0, ga.in_deg > 0
    checked.setflags(write=False)
    if rows == 1:
        # one row: a sum per direction over the engine's writable bins,
        # with no copy of the edge arrays on the large graphs of R = 1
        return rows, checked, (ga.head_bins, ga.tail_bins), (ga.tail_bins, ga.head_bins)
    # bins of the sums over a block's [f_edge | b_edge] rows: row k sums its
    # forward flows into k*n .. k*n + n - 1 and its backward flows R*n
    # later, so the sums come out as (2, R, n). Conservation sums each edge
    # flow at the vertex it reaches, the split check at the vertex it leaves
    fwd = n * np.arange(rows)[:, None]
    bwd = fwd + rows * n
    reach = np.hstack((ga.heads + fwd, ga.tails + bwd)).ravel()
    leave = np.hstack((ga.tails + fwd, ga.heads + bwd)).ravel()
    return rows, checked, reach, leave


class InvariantObserver:
    """Per-step checks of the update equations at 1e-12 relative tolerance:

    * conservation: f_vertex(t+1)[v] = (1-l_v) sum incoming f_edge(t) for
      v not in {s, d}, and the backward mirror image;
    * split consistency: out-edge flows of v sum to f_vertex(t+1)[v];
    * pheromone recurrence: p(t+1) = delta (p(t) + f_edge(t) + b_edge(t)).

    Under rescaling the previous-step quantities are divided by the factor
    before comparison.

    The observer checks a block of consecutive stepped pairs at once: each
    call copies the new state's buffer (``SystemState.buf``) into the next
    row of a block sized once per observer, and a call whose ``prev`` is the
    previous call's ``state`` reads prev from that copy. So writing to a
    state after the calls that pass it changes no record. The block is
    checked when it holds R pairs, when ``violations`` is read, when a
    call's ``prev`` is not the previous call's ``state`` (a new chain
    starts), on an initial state and on a repeated one. R fits the block
    into a fixed element budget (at most 32 rows); where one row fills it
    (R = 1 once m + 4n exceeds 2**15, as on G(1000, .1)), each pair is
    checked on its call from the states' own buffers, with no copies. R and
    the index arrays the checks read are built once per graph, and shared
    by its ``with_leakage`` copies (``GraphArrays.derive``).

    Each kind of ``KINDS`` is checked on its own (K, m) or (K, n) view of
    the K held pairs, with the reference tolerance entry by entry. The
    recurrence and conservation kinds test equality first and take the
    tolerance test only when an entry differs (a NaN differs from
    everything): an equal entry cannot exceed a tolerance. The recurrence
    and forward conservation expectations repeat the engine's float
    operations in its order, so on stepped states no entry differs.
    Backward conservation sums by bincount, as the engine does only where
    its out-sums take the bincount branch (``GraphArrays.out_by_bincount``:
    two-path and planted graphs). On tail-sorted graphs the engine sums
    out-edges by ``reduceat``, which rounds differently at a vertex with
    three or more of them, so on G(n, p) and banded graphs backward
    conservation takes the tolerance test in nearly every block. The split
    sums round differently from the engine's split, so the two split kinds
    take the tolerance test on every block, together. A pair with a violation
    appends, per failing kind and in ``KINDS`` order, the entry with the
    largest relative error; on a stationary run's repeated state the
    observer repeats the last stepped pair's entries. The records, and
    their order, are those of checking each pair on its call: the
    conservation and split sums are bincounts over per-row bins, which sum
    every bin in edge order as a bincount of one pair does.
    """

    KINDS = ("recurrence", "conservation_f", "conservation_b", "split_f", "split_b")

    def __init__(
        self,
        graph: DirectedGraph,
        cfg,
        schedule: "FlowSchedule",
        rel_tol: float = 1e-12,
    ) -> None:
        self.graph = graph
        self.cfg = cfg
        self.rel_tol = rel_tol
        self.scale = 1.0
        if cfg.rescale_mode == RESCALE_BY_SOURCE:
            if schedule.kind != "exponential":
                raise ConfigError("rescaling applies to exponential schedules only")
            self.scale = 1.0 / schedule.alpha
        self.abs_floor = cfg.underflow_threshold * _FLUSH_FLOOR
        ga = graph.arrays
        self._rows, self._checked, self._reach, self._leave = ga.derive(_block_index)
        if self._rows > 1:
            # the buffers of the block's states: row 0 is the first pair's
            # prev, row k the state of pair k
            self._states = np.empty((self._rows + 1, 3 * ga.m + 2 * ga.n))
        self._ts: List[int] = []  # t of each held pair
        self._tail: Optional["SystemState"] = None  # the state in the block's last row
        self._last: List[InvariantViolation] = []  # the last stepped pair's records
        self._violations: List[InvariantViolation] = []

    @property
    def violations(self) -> List[InvariantViolation]:
        """Every record so far, in call order; reading it checks the held
        block first."""
        self._check()
        return self._violations

    def __call__(self, t, state, prev) -> None:
        if prev is None:
            # initial states may be explicitly constructed (proof
            # configurations, perturbations); invariants apply to stepped
            # states
            self._check()
            self._tail = None
            return
        if prev is state:  # a repeated state: the last stepped pair's records
            self._check()
            self._violations.extend(replace(v, t=t) for v in self._last)
            return
        if self._rows == 1:
            self._check_rows([t], prev.buf[None], state.buf[None])
            return
        states = self._states
        if prev is not self._tail:
            self._check()
            states[0] = prev.buf
        k = len(self._ts)
        states[k + 1] = state.buf
        self._ts.append(t)
        self._tail = state
        if k + 1 == self._rows:
            self._check()

    def _check(self) -> None:
        """Check the held block and keep its last state as the next
        block's row 0."""
        k = len(self._ts)
        if k:
            self._check_rows(self._ts, self._states[:k], self._states[1 : k + 1])
            self._states[0] = self._states[k]
            self._ts = []

    def _sums(self, bins, edges: np.ndarray) -> np.ndarray:
        """The (2, K, n) forward and backward per-vertex sums, by ``bins``,
        of the K rows of edge flows ``edges`` (each ``[f_edge | b_edge]``)."""
        m, n, R, K = self.graph.arrays.m, self.graph.arrays.n, self._rows, len(edges)
        if R == 1:
            (fwd, bwd), row = bins, edges[0]
            return np.stack((np.bincount(fwd, row[:m], n), np.bincount(bwd, row[m:], n)))[:, None]
        return np.bincount(bins[: K * 2 * m], edges.ravel(), 2 * R * n).reshape(2, R, n)[:, :K]

    def _failing(self, kinds, err, scale, compared) -> list:
        """(kind, residual, worst entry per pair, pairs hit) for each of
        ``kinds`` with a compared entry beyond tolerance; its residuals,
        scales and compared entries are the kind's rows of ``err``,
        ``scale`` and ``compared``, each of one (K, m) or (K, n) array per
        kind."""
        den = np.maximum(scale, 1e-30)
        mag = np.abs(err)
        bad = mag > np.maximum(self.rel_tol * den, self.abs_floor)
        bad &= compared
        return [
            # the largest relative error; an entry not compared has none
            (kind, e, (np.where(c, a, 0.0) / d).argmax(axis=1), hit)
            for kind, e, a, d, c, hit in zip(kinds, err, mag, den, compared, bad.any(axis=2))
            if hit.any()
        ]

    def _check_rows(self, ts: List[int], before: np.ndarray, after: np.ndarray) -> None:
        """Check K = len(ts) pairs: row k of ``before`` and ``after`` is the
        buffer of pair k's prev and stepped state."""
        ga = self.graph.arrays
        m, n = ga.m, ga.n
        f0, b0, p0 = before[:, :m], before[:, m : 2 * m], before[:, 2 * m : 3 * m]
        p1 = after[:, 2 * m : 3 * m]
        vertex = after[:, 3 * m :].reshape(len(ts), 2, n).transpose(1, 0, 2)  # stepped f, b
        expected = (p0 + f0 + b0) * self.cfg.delta * self.scale
        # conservation sums are bincounts, as the engine's forward sums are
        # and, where ``GraphArrays.out_by_bincount`` holds, its backward
        # sums; its ``reduceat`` backward sums round differently at vertices
        # with three or more out-edges
        conserved = ga.surv * self._sums(self._reach, before[:, : 2 * m]) * self.scale
        # flushed entries are not compared: zero pheromone always, zero
        # vertex flow in conservation when a flush threshold is set
        checked = self._checked
        stepped = p1 != 0.0
        flowing = checked[:2]
        if self.cfg.underflow_threshold > 0.0:
            flowing = flowing & (vertex != 0.0)
        # an entry equal to its expectation has residual 0 (or NaN, from
        # inf - inf), which exceeds no tolerance (every one is >= 0): a kind
        # whose compared entries all equal theirs has no violation
        kinds = self.KINDS
        failing = []
        if ((p1 != expected) & stepped).any():
            drift = (p1 - expected)[None]
            failing += self._failing(kinds[:1], drift, expected[None], stepped[None])
        if ((vertex != conserved) & flowing).any():
            failing += self._failing(kinds[1:3], vertex - conserved, conserved, flowing)
        # over a quarter of the split entries differ from their vertex flow by
        # rounding, so an equality test would only add to the tolerance test
        split = self._sums(self._leave, after[:, : 2 * m]) - vertex
        failing += self._failing(kinds[3:], split, vertex, checked[2:])
        self._last = []
        for k, t in enumerate(ts if failing else ()):  # no pair fails if no kind does
            self._last = [
                InvariantViolation(t, kind, int(i[k]), float(err[k, i[k]]))
                for kind, err, i, hit in failing if hit[k]
            ]
            self._violations.extend(self._last)
