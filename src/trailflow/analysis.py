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
    step; NaN where both edges carry no pheromone.

    The two levels are computed in Python floats from the four branch-point
    pheromones (``item`` reads cost less than numpy scalars on four edges),
    not through ``split_fraction``: on two-path graphs its two calls cost
    about four times as much as this whole call."""

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


def detect_convergence(
    state: "SystemState", graph: DirectedGraph, epsilon: float
) -> Optional[Path]:
    """The unique s->d path whose every edge has forward and backward
    normalized pheromone >= 1 - epsilon, found by greedily following the
    max-normalized out-edge from s (ties to the lowest head); None when no
    such chain reaches d.

    Only the chain's vertices are read: the out-edges of each chain vertex
    and the in-edges of the head it picks. The totals are summed the way
    ``normalized_levels`` sums them, so the levels compared are the same
    floats."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    ga = graph.arrays
    p = state.p
    bar = 1.0 - epsilon
    seq = [ga.source]
    seen = {ga.source}
    cur = ga.source
    while cur != ga.destination:
        out = ga.out_eids[ga.out_ptr[cur] : ga.out_ptr[cur + 1]]
        p_out = p[out]
        total = np.add.reduceat(p_out, _FIRST)[0] if out.size else 0.0
        # a zero total leaves every level NaN: no edge to follow
        if not total > 0.0:
            return None
        fwd = p_out / total
        best = fwd.max()
        if not best >= bar:
            return None
        tied = np.flatnonzero(fwd == best)
        k = tied[np.argmin(ga.heads[out[tied]])]
        nxt = int(ga.heads[out[k]])
        # in-total summed in edge order, as ``np.bincount`` does
        p_in = p[ga.in_eids[ga.in_ptr[nxt] : ga.in_ptr[nxt + 1]]]
        if not p_out[k] / np.cumsum(p_in)[-1] >= bar or nxt in seen:
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


class InvariantObserver:
    """Per-step checks of the update equations at 1e-12 relative tolerance:

    * conservation: f_vertex(t+1)[v] = (1-l_v) sum incoming f_edge(t) for
      v not in {s, d}, and the backward mirror image;
    * split consistency: out-edge flows of v sum to f_vertex(t+1)[v];
    * pheromone recurrence: p(t+1) = delta (p(t) + f_edge(t) + b_edge(t)).

    Under rescaling the previous-step quantities are divided by the factor
    before comparison.

    The five residuals and their scales sit side by side in buffers sized
    once per observer (see ``KINDS`` for the order), so one tolerance test
    covers them all. A step with a violation appends, per failing kind and
    in ``KINDS`` order, the entry with the largest relative error; on a
    stationary run's repeated state it repeats the last step's entries.
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
        self.violations: List[InvariantViolation] = []
        ga = graph.arrays
        m, n = ga.m, ga.n
        # offsets of the kinds: one edge block, then four vertex blocks
        self._bounds = (0, m, m + n, m + 2 * n, m + 3 * n, m + 4 * n)
        # tolerance = max(rel_tol * max(scale, 1e-30), abs_floor), with the
        # constant part folded (rounding is monotone, so this is exact)
        self._tol_floor = max(rel_tol * 1e-30, self.abs_floor)
        self._err = np.empty(m + 4 * n)
        self._scale = np.empty(m + 4 * n)
        self._abs = np.empty(m + 4 * n)
        self._tol = np.empty(m + 4 * n)
        self._bad = np.empty(m + 4 * n, dtype=bool)
        # entries never checked: s and d in conservation, vertices without
        # out-/in-edges in the split checks
        never = np.zeros(m + 4 * n, dtype=bool)
        for lo in (m, m + n):
            never[lo + ga.source] = never[lo + ga.destination] = True
        never[m + 2 * n : m + 3 * n] = ga.out_deg == 0
        never[m + 3 * n :] = ga.in_deg == 0
        self._never = never
        self._skip = never.copy()
        self._last: List[InvariantViolation] = []  # the last step's records

    def __call__(self, t, state, prev) -> None:
        if prev is None:
            # initial states may be explicitly constructed (proof
            # configurations, perturbations); invariants apply to stepped
            # states
            return
        if prev is state:  # a repeated state: the last step's arrays and records
            self.violations.extend(replace(v, t=t) for v in self._last)
            return
        ga = self.graph.arrays
        m, n = ga.m, ga.n
        err, scale, skip = self._err, self._scale, self._skip
        # scales: expected p, expected f/b vertex flows (conservation), then
        # the stepped f/b vertex flows (split)
        expected = scale[:m]
        np.add(prev.p, prev.f_edge, out=expected)
        expected += prev.b_edge
        expected *= self.cfg.delta
        # conservation sums use bincount rather than the engine's segment
        # sums, so the check does not share the kernel
        arr_f = np.bincount(ga.heads, weights=prev.f_edge, minlength=n)
        arr_b = np.bincount(ga.tails, weights=prev.b_edge, minlength=n)
        np.multiply(ga.surv, arr_f, out=scale[m : m + n])
        np.multiply(ga.surv, arr_b, out=scale[m + n : m + 2 * n])
        if self.scale != 1.0:
            scale[: m + 2 * n] *= self.scale
        vertex = scale[m + 2 * n :]
        np.concatenate((state.f_vertex, state.b_vertex), out=vertex)
        # residuals
        np.subtract(state.p, expected, out=err[:m])
        np.subtract(vertex, scale[m : m + 2 * n], out=err[m : m + 2 * n])
        out_sum = np.bincount(ga.tails, weights=state.f_edge, minlength=n)
        in_sum = np.bincount(ga.heads, weights=state.b_edge, minlength=n)
        split = err[m + 2 * n :]
        np.concatenate((out_sum, in_sum), out=split)
        split -= vertex
        # flushed entries are not compared: zero pheromone always, zero
        # vertex flow in conservation when a flush threshold is set
        np.equal(state.p, 0.0, out=skip[:m])
        if self.cfg.underflow_threshold > 0.0:
            np.equal(vertex, 0.0, out=skip[m : m + 2 * n])
        skip |= self._never
        np.copyto(err, 0.0, where=skip)
        # one tolerance test over all five residuals
        tol = np.multiply(scale, self.rel_tol, out=self._tol)
        np.maximum(tol, self._tol_floor, out=tol)
        np.greater(np.abs(err, out=self._abs), tol, out=self._bad)
        self._last = self._worst(t) if self._bad.any() else []
        self.violations.extend(self._last)

    def _worst(self, t: int) -> List[InvariantViolation]:
        """The worst entry of every kind with a violation."""
        b = self._bounds
        out = []
        for k, kind in enumerate(self.KINDS):
            lo, hi = b[k], b[k + 1]
            if self._bad[lo:hi].any():
                rel = self._abs[lo:hi] / np.maximum(self._scale[lo:hi], 1e-30)
                i = int(np.argmax(rel))
                out.append(InvariantViolation(t, kind, i, float(self._err[lo + i])))
        return out
