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

from .dynamics import RESCALE_BY_SOURCE, FlowSchedule, SystemState, split_fraction
from .graph import DirectedGraph, Path, TwoPathGraph


TIMESERIES_COLUMNS = ["t", "edge_id", "u", "v", "p", "f", "b", "norm_fwd", "norm_bwd"]
SUMMARY_COLUMNS = ["t", "r_min", "f_s", "b_d", "converged_path_id"]

_FIRST = np.zeros(1, dtype=np.intp)  # reduceat index of a single segment


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
    ga = graph.arrays
    fwd = split_fraction(ga, state.p, forward=True)
    bwd = split_fraction(ga, state.p, forward=False)
    return NormalizedLevels(fwd=fwd, bwd=bwd)


class BranchLevelObserver:
    """Records a two-path branch's normalized level at the source side
    (forward: its first edge over both out-edges of s) and at the
    destination side (backward: its last edge over both in-edges of d) every
    step; NaN where both edges carry no pheromone. ``levels`` computes both
    in Python floats from the four branch-point pheromones: on two-path
    graphs that costs about a quarter of ``split_fraction``'s two calls."""

    def __init__(self, two_path: TwoPathGraph, branch: str) -> None:
        other = "bottom" if branch == "top" else "top"
        self.s_eid, self.d_eid = two_path.branch_eids(branch)
        self.s_other, self.d_other = two_path.branch_eids(other)
        self.norm_s: List[float] = []
        self.norm_d: List[float] = []

    def levels(self, p: np.ndarray) -> Tuple[float, float]:
        """The branch's (source-side, destination-side) levels in ``p``."""
        item = p.item
        ps, pd = item(self.s_eid), item(self.d_eid)
        ts = ps + item(self.s_other)
        td = pd + item(self.d_other)
        return (ps / ts if ts > 0 else math.nan, pd / td if td > 0 else math.nan)

    def __call__(self, t, state, prev) -> None:
        level_s, level_d = self.levels(state.p)
        self.norm_s.append(level_s)
        self.norm_d.append(level_d)


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

    Only the chain's vertices are read, in Python floats: the out-edges of
    each chain vertex and the in-edges of the head it picks. The totals are
    summed the way ``normalized_levels`` sums them, so the levels compared
    are the same floats: an out-total as ``GraphArrays.out_sums`` sums it
    (left to right from 0.0, as ``np.bincount`` does, or by ``reduceat``),
    an in-total left to right in edge order."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    ga = graph.arrays
    p, heads, out_eids, in_eids = state.p, ga.heads, ga.out_eids, ga.in_eids
    out_ptr, in_ptr = ga.out_ptr, ga.in_ptr
    bar = 1.0 - epsilon
    seq = [ga.source]
    seen = {ga.source}
    cur = ga.source
    while cur != ga.destination:
        lo = out_ptr.item(cur)
        p_out = p[out_eids[lo : out_ptr.item(cur + 1)]]
        vals = p_out.tolist()
        if ga.out_by_bincount:
            total = _sum_in_order(vals, 0.0)
        else:
            total = np.add.reduceat(p_out, _FIRST).item(0) if vals else 0.0
        # a zero total leaves every level NaN: no edge to follow
        if not total > 0.0:
            return None
        fwd = [x / total for x in vals]
        best = max(fwd)
        if not best >= bar:
            return None
        k = fwd.index(best)
        nxt = heads.item(out_eids.item(lo + k))
        if fwd.count(best) > 1:  # ties go to the lowest head
            nxt, k = min(
                (heads.item(out_eids.item(lo + j)), j) for j, f in enumerate(fwd) if f == best
            )
        in_vals = p[in_eids[in_ptr.item(nxt) : in_ptr.item(nxt + 1)]].tolist()
        if not vals[k] / _sum_in_order(in_vals[1:], in_vals[0]) >= bar or nxt in seen:
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
    minimum of the last ``window`` samples of both ratios; NaN while the
    window is not yet full.
    """

    window: int
    r_s: List[float] = field(default_factory=list)
    r_d: List[float] = field(default_factory=list)
    r_min: List[float] = field(default_factory=list)


def update_potential(
    trace: PotentialTrace, state: "SystemState", two_path: TwoPathGraph
) -> PotentialTrace:
    """Push the current branch ratios and recompute the window minimum."""
    p = state.p
    trace.r_s.append(ratio(float(p[two_path.s_top_eid]), float(p[two_path.s_bottom_eid])))
    trace.r_d.append(ratio(float(p[two_path.d_top_eid]), float(p[two_path.d_bottom_eid])))
    L = trace.window
    if len(trace.r_s) < L:
        trace.r_min.append(math.nan)
        return trace
    lo = math.inf
    for series in (trace.r_s, trace.r_d):
        for x in series[-L:]:
            if not math.isnan(x) and x < lo:
                lo = x
    trace.r_min.append(lo if lo is not math.inf else math.nan)
    return trace


class PotentialObserver:
    """Run observer recording the potential of a two-path run."""

    def __init__(self, two_path: TwoPathGraph) -> None:
        self.two_path = two_path
        self.trace = PotentialTrace(window=two_path.window)

    def __call__(self, t, state, prev) -> None:
        update_potential(self.trace, state, self.two_path)


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
    alpha_surv: float
    beta_surv: float


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
        alpha_surv=surv_top,
        beta_surv=surv_bottom,
    )


# ---------------------------------------------------------------------------
# Diagnostic checks
# ---------------------------------------------------------------------------


class PheromoneBoundObserver:
    """Per-step bound monitor; uses the amounts actually injected at each
    step so it stays correct under rescaling."""

    def __init__(self, delta: float, T1: float, slack: float = 1e-9) -> None:
        self.delta = delta
        self.T1 = T1
        self.slack = slack
        self.violations: List[Tuple[int, int, float, float]] = []

    def __call__(self, t, state, prev) -> None:
        if t < self.T1:
            return
        bound = 2.0 * (state.injected_f + state.injected_b) / (1.0 - self.delta)
        worst = float(state.p.max())
        if worst > bound + self.slack:
            self.violations.append((t, int(np.argmax(state.p)), worst, bound))


@dataclass(frozen=True)
class GrowthViolation:
    t: int
    kind: str  # "monotonic" | "growth"
    value: float
    required: float


def sweep_potential_monotone(
    trace: PotentialTrace, t_min: Optional[int] = None, rel_tol: float = 1e-12
) -> List[GrowthViolation]:
    """All monotonicity violations r_min(t+1) < r_min(t)(1 - rel_tol) for
    t >= t_min (default: the window length)."""
    L = trace.window
    start = L if t_min is None else t_min
    out: List[GrowthViolation] = []
    r = trace.r_min
    for t in range(start, len(r) - 1):
        a, b = r[t], r[t + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if b < a * (1.0 - rel_tol):
            out.append(GrowthViolation(t, "monotonic", b, a))
    return out


def sweep_potential_growth(
    trace: PotentialTrace,
    constants: TheoremConstants,
    slack: float = 1e-9,
) -> List[GrowthViolation]:
    """All growth violations r_min(t+L) < gamma_l r_min(t)(1 - slack) for
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
        if b < constants.gamma_l * a * (1.0 - slack):
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


# an ``InvariantObserver`` block holds at most _BLOCK_ROWS stepped pairs, one
# row of m + 4n entries each, and at most _BLOCK_ELEMENTS entries per array
_BLOCK_ROWS = 32
_BLOCK_ELEMENTS = 2**16


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
    checked on its call from the states' own buffers, with no copies.

    The residuals and scales of K pairs lie kind-major in flat buffers of
    K (m + 4n) entries: each kind of ``KINDS``, in that order, is one
    contiguous (K, m) or (K, n) section, so the check's array calls write
    contiguous memory and one tolerance test covers the block. A pair with
    a violation appends, per failing kind and in ``KINDS`` order, the entry
    with the largest relative error; on a stationary run's repeated state
    the observer repeats the last stepped pair's entries. The records, and
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
        self.scale = (
            1.0 / schedule.alpha if cfg.rescale_mode == RESCALE_BY_SOURCE else 1.0
        )
        # flush-to-zero makes sub-threshold discrepancies meaningless
        self.abs_floor = cfg.underflow_threshold * 1e6
        ga = graph.arrays
        m, n = ga.m, ga.n
        width = self._width = m + 4 * n
        rows = self._rows = max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // width))
        # the entries of each kind in one pair: one edge block, then four
        # vertex blocks
        self._bounds = (0, m, m + n, m + 2 * n, m + 3 * n, width)
        # tolerance = max(rel_tol * max(scale, 1e-30), abs_floor), with the
        # constant part folded (rounding is monotone, so this is exact)
        self._tol_floor = max(rel_tol * 1e-30, self.abs_floor)
        self._err = np.empty(rows * width)
        # the expected pheromone and vertex flows, then the stepped vertex flows
        self._scale = np.empty(rows * width)
        self._abs = np.empty(rows * width)
        self._tol = np.empty(rows * width)
        self._bad = np.empty(rows * width, dtype=bool)
        self._keep = np.empty(rows * width, dtype=bool)
        # vertex entries checked, per vertex kind: all but s and d in
        # conservation, the vertices with out-/in-edges in the split checks
        checked = np.ones((4, 1, n), dtype=bool)
        checked[:2, 0, [ga.source, ga.destination]] = False
        checked[2, 0] = ga.out_deg > 0
        checked[3, 0] = ga.in_deg > 0
        self._checked = checked
        if rows > 1:
            # bins of the sums over a block's [f_edge | b_edge] rows: row k
            # sums its forward flows into k*n .. k*n + n - 1 and its
            # backward flows R*n later, so the sums come out as (2, R, n).
            # Conservation sums each edge flow at the vertex it reaches,
            # the split check at the vertex it leaves
            fwd = n * np.arange(rows)[:, None]
            bwd = fwd + rows * n
            self._reach = np.hstack((ga.heads + fwd, ga.tails + bwd)).ravel()
            self._leave = np.hstack((ga.tails + fwd, ga.heads + bwd)).ravel()
            # the buffers of the block's states: row 0 is the first pair's
            # prev, row k the state of pair k
            self._states = np.empty((rows + 1, 3 * m + 2 * n))
        else:
            # one row: a sum per direction over the engine's writable bins,
            # with no copy of the edge arrays on the large graphs of R = 1
            self._reach = (ga.head_bins, ga.tail_bins)
            self._leave = (ga.tail_bins, ga.head_bins)
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
        if not k:
            return
        states = self._states
        self._check_rows(self._ts, states[:k], states[1 : k + 1])
        states[0] = states[k]
        self._ts = []

    def _sums(self, bins, edges: np.ndarray) -> np.ndarray:
        """The (2, K, n) forward and backward per-vertex sums, by ``bins``,
        of the K rows of edge flows ``edges`` (each ``[f_edge | b_edge]``)."""
        ga = self.graph.arrays
        m, n = ga.m, ga.n
        if self._rows == 1:
            fwd, bwd = bins
            row = edges[0]
            return np.stack((np.bincount(fwd, row[:m], n), np.bincount(bwd, row[m:], n)))[:, None]
        K = len(edges)
        sums = np.bincount(bins[: K * 2 * m], edges.ravel(), 2 * self._rows * n)
        return sums.reshape(2, self._rows, n)[:, :K]

    def _check_rows(self, ts: List[int], before: np.ndarray, after: np.ndarray) -> None:
        """Check K = len(ts) pairs: row k of ``before`` and ``after`` is the
        buffer of pair k's prev and stepped state."""
        ga = self.graph.arrays
        m, n = ga.m, ga.n
        K = len(ts)
        e, v = K * m, K * (m + 2 * n)  # where the vertex kinds and the split kinds start
        size = K * self._width
        err, scale, keep = self._err[:size], self._scale[:size], self._keep[:size]
        f0, b0, p0 = before[:, :m], before[:, m : 2 * m], before[:, 2 * m : 3 * m]
        p1 = after[:, 2 * m : 3 * m]
        # scales: expected p, expected f/b vertex flows (conservation), then
        # the stepped f/b vertex flows (split)
        expected = scale[:e].reshape(K, m)
        conserved = scale[e:v].reshape(2, K, n)
        vertex = scale[v:].reshape(2, K, n)
        np.copyto(vertex, after[:, 3 * m :].reshape(K, 2, n).transpose(1, 0, 2))
        np.add(p0, f0, out=expected)
        expected += b0
        expected *= self.cfg.delta
        # conservation sums are bincounts, the engine's kernel for forward
        # aggregation, and for backward aggregation where its out-sums take
        # the bincount branch (``GraphArrays.out_by_bincount``); elsewhere the
        # engine sums out-edges by ``reduceat``
        np.multiply(ga.surv, self._sums(self._reach, before[:, : 2 * m]), out=conserved)
        if self.scale != 1.0:
            scale[:v] *= self.scale
        # residuals
        np.subtract(p1, expected, out=err[:e].reshape(K, m))
        residual = err[e:].reshape(2, 2, K, n)
        np.subtract(vertex, conserved, out=residual[0])
        np.subtract(self._sums(self._leave, after[:, : 2 * m]), vertex, out=residual[1])
        # flushed entries are not compared: zero pheromone always, zero
        # vertex flow in conservation when a flush threshold is set
        np.not_equal(p1, 0.0, out=keep[:e].reshape(K, m))
        kept = keep[e:].reshape(4, K, n)
        np.copyto(kept, self._checked)
        if self.cfg.underflow_threshold > 0.0:
            kept[:2] &= np.not_equal(vertex, 0.0, out=self._bad[e:v].reshape(2, K, n))
        # one tolerance test over all five residuals of every pair
        tol = np.multiply(scale, self.rel_tol, out=self._tol[:size])
        np.maximum(tol, self._tol_floor, out=tol)
        bad = np.greater(np.abs(err, out=self._abs[:size]), tol, out=self._bad[:size])
        bad &= keep
        if not bad.any():
            self._last = []
            return
        hit = bad[:e].reshape(K, m).any(axis=1)
        hit |= bad[e:].reshape(4, K, n).any(axis=(0, 2))
        records: List[InvariantViolation] = []
        for k in np.flatnonzero(hit).tolist():
            records = self._worst(ts[k], k, K)
            self._violations.extend(records)
        self._last = records if hit[-1] else []

    def _worst(self, t: int, k: int, K: int) -> List[InvariantViolation]:
        """The worst entry of every kind with a violation in pair ``k`` of
        the K checked."""
        b = self._bounds
        bad, err, abs_, scale, keep = self._bad, self._err, self._abs, self._scale, self._keep
        out = []
        for j, kind in enumerate(self.KINDS):
            size = b[j + 1] - b[j]
            lo = K * b[j] + k * size
            hi = lo + size
            if bad[lo:hi].any():
                # an entry not compared has no error
                rel = np.where(keep[lo:hi], abs_[lo:hi], 0.0) / np.maximum(scale[lo:hi], 1e-30)
                i = int(np.argmax(rel))
                out.append(InvariantViolation(t, kind, i, float(err[lo + i])))
        return out
