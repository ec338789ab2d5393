"""Independent test oracles: the per-edge graph constructor loop and the
generators' edge lists written as loops, a graph's edge pairs read from
its arrays, per-vertex edge lists and sorted successors read from them, a
dict-based reference implementation of the update step (kept deliberately
separate from the engine's vectorized path), the engine's step as it was when every phase ran
once per flow direction on separate arrays, a byte-for-byte repeat test of
a state's step inputs, the engine's split of both directions, a
degree-scan general split, a stability run's deviation in its original
form, a bincount-based linear split, step and normalized levels plus a
greedy convergence walk over full level arrays, ``run`` stepped to its
horizon without the stationary stop, the graphs that exercise the
engine's segment sums, a per-kind invariant observer, a brute-force
min-leakage path enumerator with sound pruning, and an enumerator of every
simple s->d path."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from trailflow.analysis import InvariantViolation, detect_convergence
from trailflow.dynamics import (
    _BOUNDED_SUM,
    _RATIO_SCALE,
    CONVERGENCE_CHECK_INTERVAL,
    RESCALE_BY_SOURCE,
    EngineAbort,
    SystemState,
    _splitter,
    step,
)
from trailflow.graph import (
    DirectedGraph,
    GraphError,
    Path,
    build_two_path,
    gen_banded_gnp,
    gen_gnp,
    gen_grid,
    plant_band_ladder,
    plant_path,
)
from trailflow.rules import DecisionRule, clamp_unit_half


class ReferenceGraph:
    """Edge validation and indexing as one loop over the edges: the same
    GraphError for the first bad edge in input order, then the edge tuple,
    the edge-id dict, the tails/heads arrays read from the edge tuples and
    the per-vertex out/in edge ids. It offers what ``GraphArrays`` reads,
    so ``GraphArrays(ReferenceGraph(...))`` gives the reference flat
    arrays."""

    def __init__(self, n_vertices, edges, source, destination, leakage=None):
        self.n_vertices, self.source, self.destination = n_vertices, source, destination
        edge_ids = {}
        clean = []
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise GraphError(f"edge ({u},{v}) endpoint out of range")
            if u == v:
                raise GraphError(f"self-loop ({u},{v}) not allowed")
            if (u, v) in edge_ids:
                raise GraphError(f"duplicate edge ({u},{v})")
            edge_ids[(u, v)] = len(clean)
            clean.append((u, v))
        self.edges = tuple(clean)
        self.edge_ids = edge_ids
        self.n_edges = len(clean)
        self.tails = np.fromiter((u for u, _ in self.edges), dtype=np.int64, count=self.n_edges)
        self.heads = np.fromiter((v for _, v in self.edges), dtype=np.int64, count=self.n_edges)
        self.out, self.inc = edge_lists(self)
        self.leakage = np.zeros(n_vertices) if leakage is None else np.asarray(leakage, float)


def edge_tuple(graph):
    """A graph's (u, v) pairs in edge-id order, as Python ints, read from
    its ``tails`` and ``heads``."""
    return tuple(zip(graph.tails.tolist(), graph.heads.tolist()))


def edge_lists(graph):
    """Each vertex's out-edge ids and in-edge ids, in edge-id order, read
    from ``edge_tuple(graph)`` with one loop."""
    out = [[] for _ in range(graph.n_vertices)]
    inc = [[] for _ in range(graph.n_vertices)]
    for eid, (u, v) in enumerate(edge_tuple(graph)):
        out[u].append(eid)
        inc[v].append(eid)
    return out, inc


def successors(graph):
    """Each vertex's out-neighbours in increasing order, from ``edge_tuple(graph)``."""
    edges = edge_tuple(graph)
    return [sorted(edges[e][1] for e in es) for es in edge_lists(graph)[0]]


def reference_gnp_edges(n, p, seed, band=None):
    """``gen_gnp``'s edge list (``gen_banded_gnp``'s with ``band``) as a
    list of Python-int pairs."""
    rng = np.random.default_rng(seed)
    mat = rng.random((n, n)) < p
    np.fill_diagonal(mat, False)
    edges = [(int(u), int(v)) for u, v in np.argwhere(mat)]
    return edges if band is None else [(u, v) for u, v in edges if abs(u - v) <= band]


def reference_grid_edges(rows, cols):
    """``gen_grid``'s edge list: each vertex's rightward then downward edge."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def reference_two_path_edges(m, n):
    """``build_two_path``'s edge list: the top path, then the bottom one."""
    top = [0] + list(range(1, m)) + [m + n - 1]
    bottom = [0] + list(range(m, m + n - 1)) + [m + n - 1]
    return list(zip(top[:-1], top[1:])) + list(zip(bottom[:-1], bottom[1:]))


def reference_planted_edges(edges, chain):
    """A planting helper's edge list: ``edges``, then each hop of ``chain``
    that is not one of them."""
    present = set(edges)
    return list(edges) + [e for e in zip(chain[:-1], chain[1:]) if e not in present]


def equation_step(graph, p, fe, be, delta, schedule, t):
    """One synchronous update on plain dicts, straight from the equations.

    Returns (p', fe', be', fv', bv', delivered_f, delivered_b) where flows
    keyed by (u, v) and vertex amounts keyed by vertex id.
    """
    edges = edge_tuple(graph)
    newp = {e: delta * (p[e] + fe[e] + be[e]) for e in edges}
    fv = {}
    bv = {}
    for v in range(graph.n_vertices):
        acc_f = sum(fe[(u, w)] for (u, w) in edges if w == v)
        acc_b = sum(be[(u, w)] for (u, w) in edges if u == v)
        fv[v] = (1.0 - graph.leakage[v]) * acc_f
        bv[v] = (1.0 - graph.leakage[v]) * acc_b
    delivered_f = fv[graph.destination]
    delivered_b = bv[graph.source]
    fv[graph.destination] = 0.0
    bv[graph.source] = 0.0
    fv[graph.source] += schedule.forward_at(t + 1)
    bv[graph.destination] += schedule.backward_at(t + 1)

    nfe = {e: 0.0 for e in edges}
    nbe = {e: 0.0 for e in edges}
    for v in range(graph.n_vertices):
        outs = [e for e in edges if e[0] == v]
        if outs:
            tot = sum(newp[e] for e in outs)
            for e in outs:
                frac = newp[e] / tot if tot > 0 else 1.0 / len(outs)
                nfe[e] = fv[v] * frac
        ins = [e for e in edges if e[1] == v]
        if ins:
            tot = sum(newp[e] for e in ins)
            for e in ins:
                frac = newp[e] / tot if tot > 0 else 1.0 / len(ins)
                nbe[e] = bv[v] * frac
    return newp, nfe, nbe, fv, bv, delivered_f, delivered_b


def reference_step(state, graph, rule, schedule, cfg):
    """``dynamics.step`` as it was before states shared one buffer: every
    phase once per flow direction, on separately allocated arrays. The
    engine's step must give the same floats, byte for byte."""
    ga = graph.arrays
    t1 = state.t + 1
    m, n, s, d = ga.m, ga.n, ga.source, ga.destination
    buf = np.empty(m + 2 * n)
    p, fv, bv = buf[:m], buf[m : m + n], buf[m + n :]
    np.add(state.p, state.f_edge, p)
    np.add(p, state.b_edge, p)
    np.multiply(p, cfg.delta, p)
    np.multiply(ga.surv, np.bincount(ga.heads, state.f_edge, n), fv)
    np.multiply(ga.surv, ga.tail_sums(state.b_edge), bv)
    delivered_f = state.delivered_forward + fv.item(d)
    delivered_b = state.delivered_backward + bv.item(s)
    fv[d] = 0.0
    bv[s] = 0.0
    if cfg.rescale_mode == RESCALE_BY_SOURCE:
        np.multiply(buf, 1.0 / schedule.alpha, buf)
        inj_f, inj_b = schedule.f0, schedule.b0
    else:
        inj_f = schedule.forward_at(t1)
        inj_b = schedule.backward_at(t1)
    fv[s] = fv.item(s) + inj_f
    bv[d] = bv.item(d) + inj_b
    total = float(np.add.reduce(buf))
    if not math.isfinite(total):
        named = (("pheromone", p), ("forward vertex flow", fv), ("backward vertex flow", bv))
        for name, arr in named:
            bad = np.nonzero(~np.isfinite(arr))[0]
            if bad.size:
                raise EngineAbort(t1, f"non-finite {name} at index {int(bad[0])}")
        raise EngineAbort(t1, "non-finite total (overflow)")
    flushes = 0
    if cfg.underflow_threshold > 0.0:
        mask = buf < cfg.underflow_threshold
        np.logical_and(mask, buf, mask)
        flushes = int(np.count_nonzero(mask))
        if flushes:
            buf[mask] = 0.0
    bounded = total < cfg.underflow_threshold * _BOUNDED_SUM
    if rule.is_linear:
        f_edge, zf = _reference_split_linear(ga, p, fv, True, bounded)
        b_edge, zb = _reference_split_linear(ga, p, bv, False, bounded)
    else:
        f_edge, zf = reference_general_split(graph, rule, p, fv, True)
        b_edge, zb = reference_general_split(graph, rule, p, bv, False)
    return SystemState(
        t1,
        p,
        f_edge,
        b_edge,
        fv,
        bv,
        delivered_f,
        delivered_b,
        inj_f,
        inj_b,
        state.underflow_flushes + flushes,
        state.zero_split_events + zf + zb,
        state.warnings,
    )


def _reference_split_linear(ga, p, vertex_flow, forward, bounded):
    """The linear split of one direction over the vertices with edges only:
    each edge's slot is its tail's (head's) index among them."""
    deg = ga.out_deg if forward else ga.in_deg
    verts = np.flatnonzero(deg)
    slot = (np.cumsum(deg > 0) - 1)[ga.tails if forward else ga.heads]
    totals = ga.tail_sums(p)[verts] if forward else np.bincount(slot, p, verts.size)
    flow = vertex_flow[verts]

    def scaled(ratio):
        eflow = np.repeat(ratio, deg[verts]) if forward and ga.tail_sorted else ratio[slot]
        eflow *= p
        return eflow

    fast = bounded and np.count_nonzero(totals) == totals.size
    if not fast:
        exact = flow * _RATIO_SCALE < totals
        fast = np.count_nonzero(exact) == exact.size
    if fast:
        return scaled(flow / totals), 0
    ratio = np.divide(flow, totals, out=np.zeros_like(flow), where=exact)
    eflow = scaled(ratio)
    fix = ~exact & (flow > 0.0)
    if not fix.any():
        return eflow, 0
    e = np.flatnonzero(fix[slot])
    s = slot[e]
    total = totals[s]
    empty = total == 0.0
    share = np.divide(p[e], total, out=np.zeros_like(total), where=~empty)
    share[empty] = 1.0 / deg[verts[s[empty]]]
    eflow[e] = flow[s] * share
    return eflow, int(np.count_nonzero(fix & (totals == 0.0)))


def repeats(cur, prev):
    """Whether ``cur`` holds ``prev``'s pheromone and edge flows byte for
    byte (so -0.0 does not match 0.0): what ``step`` reads, besides ``t``."""
    return all(
        getattr(cur, a).tobytes() == getattr(prev, a).tobytes() for a in ("p", "f_edge", "b_edge")
    )


def bincount_split(ga, p, vertex_flow, forward):
    """The linear split with per-vertex totals from ``np.bincount``."""
    group = ga.tails if forward else ga.heads
    deg = ga.out_deg if forward else ga.in_deg
    totals = np.bincount(group, weights=p, minlength=ga.n)
    denom = totals[group]
    zero = denom == 0.0
    frac = p / np.where(zero, 1.0, denom)
    frac[zero] = 1.0 / deg[group[zero]]
    zero_events = int(np.count_nonzero((totals == 0.0) & (deg > 0) & (vertex_flow > 0.0)))
    return vertex_flow[group] * frac, zero_events


def engine_split(ga, rule, p, f_vertex, b_vertex, bounded=False):
    """The engine's split (``dynamics._splitter``, as ``init_state`` and
    ``step`` prepare it) of the vertex flows of both directions against
    ``p``: (f_edge, b_edge, zero-split count)."""
    st = SystemState(0, p, np.zeros(ga.m), np.zeros(ga.m), f_vertex, b_vertex)
    zeros = _splitter(ga, rule)(st._layout, None, bounded)
    return st.f_edge, st.b_edge, zeros


def linear_split(ga, p, vertex_flow, forward, bounded=False):
    """The engine's linear split of one direction's vertex flows against
    ``p``, the other direction carrying none: (edge flows, zero-split
    count). The graph's out-sum form picks the joint kernel or the
    per-direction one, as in ``step``."""
    idle = np.zeros(ga.n)
    flows = (vertex_flow, idle) if forward else (idle, vertex_flow)
    fe, be, zeros = engine_split(ga, DecisionRule.linear(), p, *flows, bounded)
    return (fe if forward else be), zeros


def reference_general_split(graph, rule, p, vertex_flow, forward):
    """The general rule's split found by scanning every vertex's degree: a
    vertex with one out-edge (forward; in-edge backward) passes its flow on,
    a vertex with two splits it by ``rule`` at the branch minimum. Returns
    (edge flows, zero-split count)."""
    edges_of = edge_lists(graph)[0 if forward else 1]
    eflow = np.zeros(graph.n_edges)
    zero_events = 0
    for v in range(graph.n_vertices):
        es = edges_of[v]
        amount = vertex_flow[v]
        if len(es) == 1:
            eflow[es[0]] = amount
        elif len(es) == 2:
            e1, e2 = es
            p1, p2 = p[e1], p[e2]
            total = p1 + p2
            if total <= 0.0:
                eflow[e1] = eflow[e2] = 0.5 * amount
                zero_events += int(amount > 0.0)
                continue
            if p1 <= p2:
                e_min, e_oth, x = e1, e2, p1 / total
            else:
                e_min, e_oth, x = e2, e1, p2 / total
            g = float(rule.rule_fn.fn(clamp_unit_half(x)))
            eflow[e_min] = amount * g
            eflow[e_oth] = amount * (1.0 - g)
    return eflow, zero_events


def reference_deviation(two_path, r, state, fe0, be0):
    """A stability run's deviation in its original form: the top branch's
    levels at s and d from numpy scalars (NaN on a zero total), then one
    ``np.max`` per edge-flow array, combined by Python's ``max`` in that
    order."""
    p = state.p
    (s_top, d_top), (s_bot, d_bot) = two_path.branch_eids("top"), two_path.branch_eids("bottom")
    ts = p[s_top] + p[s_bot]
    td = p[d_top] + p[d_bot]
    level_s = float(p[s_top] / ts) if ts > 0 else math.nan
    level_d = float(p[d_top] / td) if td > 0 else math.nan
    dev = max(abs(level_s - r), abs(level_d - r))
    dev = max(dev, float(np.max(np.abs(state.f_edge - fe0))))
    dev = max(dev, float(np.max(np.abs(state.b_edge - be0))))
    return dev


def bincount_levels(ga, p):
    """Forward and backward normalized levels over ``np.bincount`` totals,
    NaN where the total is 0."""
    out_tot = np.bincount(ga.tails, weights=p, minlength=ga.n)[ga.tails]
    in_tot = np.bincount(ga.heads, weights=p, minlength=ga.n)[ga.heads]
    with np.errstate(invalid="ignore", divide="ignore"):
        fwd = np.where(out_tot > 0.0, p / out_tot, np.nan)
        bwd = np.where(in_tot > 0.0, p / in_tot, np.nan)
    return fwd, bwd


def reference_walk(graph, fwd, bwd, epsilon):
    """The greedy s->d chain over full level arrays: follow the max forward
    level (ties to the lowest head); stop with None on a NaN vertex, a level
    below 1 - epsilon or a revisit."""
    bar = 1.0 - epsilon
    out = edge_lists(graph)[0]
    heads = graph.heads.tolist()
    seq = [graph.source]
    cur = graph.source
    while cur != graph.destination:
        best_eid = None
        for eid in out[cur]:
            f = fwd[eid]
            if math.isnan(f):
                continue
            if (
                best_eid is None
                or f > fwd[best_eid]
                or (f == fwd[best_eid] and heads[eid] < heads[best_eid])
            ):
                best_eid = eid
        if best_eid is None or not (fwd[best_eid] >= bar and bwd[best_eid] >= bar):
            return None
        nxt = heads[best_eid]
        if nxt in seq:
            return None
        seq.append(nxt)
        cur = nxt
    return Path(tuple(seq))


def bincount_step(state, graph, schedule, delta):
    """One linear step (constant schedule, nothing flushed) on bincount sums."""
    ga = graph.arrays
    p = delta * (state.p + state.f_edge + state.b_edge)
    fv = ga.surv * np.bincount(ga.heads, weights=state.f_edge, minlength=ga.n)
    bv = ga.surv * np.bincount(ga.tails, weights=state.b_edge, minlength=ga.n)
    fv[ga.destination] = 0.0
    bv[ga.source] = 0.0
    fv[ga.source] += schedule.forward_at(state.t + 1)
    bv[ga.destination] += schedule.backward_at(state.t + 1)
    fe, zf = bincount_split(ga, p, fv, True)
    be, zb = bincount_split(ga, p, bv, False)
    return p, fe, be, fv, bv, zf + zb


def step_to_horizon(state, graph, rule, schedule, cfg, T, observers):
    """``run`` without the stationary stop: every step is taken. Returns the
    final state, the converged path and the first t whose state repeats its
    predecessor."""
    eps = cfg.epsilon_convergence
    for obs in observers:
        obs(state.t, state, None)
    cur, first_repeat = state, None
    for i in range(T):
        prev, cur = cur, step(cur, graph, rule, schedule, cfg)
        for obs in observers:
            obs(cur.t, cur, prev)
        if first_repeat is None and repeats(cur, prev):
            first_repeat = cur.t
        if eps is not None and ((i + 1) % CONVERGENCE_CHECK_INTERVAL == 0 or i == T - 1):
            path = detect_convergence(cur, graph, eps)
            if path is not None:
                return cur, path, first_repeat
    return cur, None, first_repeat


def kernel_graphs():
    """Graphs covering the grouping cases, each with an initial pheromone."""
    gnp = gen_gnp(60, 0.1, 4)
    banded = gen_banded_gnp(80, 0.5, 6, 2)
    grid = gen_grid(10, 10)
    # chain edges appended: not tail-sorted, out-sums by bincount
    planted, _ = plant_path(gen_grid(10, 10), 9)
    ladder, _ = plant_band_ladder(gen_banded_gnp(100, 0.5, 10, 2), 10)
    # a direct s->d edge appended to a dense graph: out-sums by a gather and reduceat
    dense, _ = plant_path(gen_gnp(40, 0.6, 5), 1)
    # bottom chain follows the top: not tail-sorted
    two_path = build_two_path(2, 3, [0.1], [0.2, 0.0]).graph
    # interior vertex 1 has no out-edges; edges listed out of tail order
    dead_end = DirectedGraph(4, [(2, 3), (0, 1), (0, 2)], 0, 3)
    # vertex 1 has out-edges but no pheromone on them (a 0/0 split)
    zero_total = DirectedGraph(4, [(0, 1), (0, 2), (1, 3), (1, 2), (2, 3)], 0, 3)
    rng = np.random.default_rng(11)
    cases = []
    for g in (gnp, banded, grid, planted, ladder, dense, two_path, dead_end):
        cases.append((g, rng.uniform(0.1, 1.0, g.n_edges)))
    cases.append((zero_total, np.array([1.0, 1.0, 0.0, 0.0, 1.0])))
    return cases


class ReferenceInvariantObserver:
    """The invariant checks of ``analysis.InvariantObserver`` one kind at a
    time, each with its own tolerance test and argmax, on every call: the
    observer's contract written out plainly. A repeated state (``prev is
    state``) repeats the last stepped pair's records with the new t."""

    def __init__(self, graph, cfg, schedule, rel_tol=1e-12):
        self.graph = graph
        self.cfg = cfg
        self.rel_tol = rel_tol
        self.scale = 1.0 / schedule.alpha if cfg.rescale_mode == RESCALE_BY_SOURCE else 1.0
        self.abs_floor = cfg.underflow_threshold * 1e6
        self.violations = []
        self.last = []

    def _record(self, t, kind, err, scale):
        tol = np.maximum(self.rel_tol * np.maximum(scale, 1e-30), self.abs_floor)
        bad = np.abs(err) > tol
        if bad.any():
            i = int(np.argmax(np.abs(err) / np.maximum(scale, 1e-30)))
            self.violations.append(InvariantViolation(t, kind, i, float(err[i])))

    def __call__(self, t, state, prev):
        if prev is None:
            return
        if prev is state:
            self.violations.extend(replace(v, t=t) for v in self.last)
            return
        before = len(self.violations)
        self._check(t, state, prev)
        self.last = self.violations[before:]

    def _check(self, t, state, prev):
        ga = self.graph.arrays
        thr = self.cfg.underflow_threshold
        s = self.scale
        # pheromone recurrence (skip flushed entries)
        expected = self.cfg.delta * (prev.p + prev.f_edge + prev.b_edge) * s
        err = state.p - expected
        err[state.p == 0.0] = 0.0
        self._record(t, "recurrence", err, expected)
        # conservation at interior vertices
        arr_f = np.bincount(ga.heads, weights=prev.f_edge, minlength=ga.n)
        arr_b = np.bincount(ga.tails, weights=prev.b_edge, minlength=ga.n)
        exp_f = ga.surv * arr_f * s
        exp_b = ga.surv * arr_b * s
        mask = np.ones(ga.n, dtype=bool)
        mask[ga.source] = False
        mask[ga.destination] = False
        err_f = np.where(mask, state.f_vertex - exp_f, 0.0)
        err_b = np.where(mask, state.b_vertex - exp_b, 0.0)
        if thr > 0.0:
            err_f[state.f_vertex == 0.0] = 0.0
            err_b[state.b_vertex == 0.0] = 0.0
        self._record(t, "conservation_f", err_f, exp_f)
        self._record(t, "conservation_b", err_b, exp_b)
        # split consistency on the stepped state
        out_sum = np.bincount(ga.tails, weights=state.f_edge, minlength=ga.n)
        in_sum = np.bincount(ga.heads, weights=state.b_edge, minlength=ga.n)
        err_split_f = np.where(ga.out_deg > 0, out_sum - state.f_vertex, 0.0)
        err_split_b = np.where(ga.in_deg > 0, in_sum - state.b_vertex, 0.0)
        self._record(t, "split_f", err_split_f, state.f_vertex)
        self._record(t, "split_b", err_split_b, state.b_vertex)


def brute_force_min_leakage(graph):
    """Exhaustive search over simple s->d paths for the maximum interior
    survival product, with branch-and-bound pruning (additive non-negative
    weights only grow along a path). Lexicographic tie-break."""
    w = []
    for v in range(graph.n_vertices):
        l = float(graph.leakage[v])
        w.append(math.inf if l >= 1.0 else -math.log1p(-l))
    succ = successors(graph)
    best = None
    best_w = math.inf

    def dfs(v, visited, acc, seq):
        nonlocal best, best_w
        if acc > best_w:
            return
        if v == graph.destination:
            key = tuple(seq)
            if acc < best_w or (acc == best_w and (best is None or key < best.vertices)):
                best = Path(key)
                best_w = acc
            return
        for u in succ[v]:
            if u in visited:
                continue
            cost = acc + (w[u] if u != graph.destination else 0.0)
            if not math.isfinite(cost):
                continue
            visited.add(u)
            seq.append(u)
            dfs(u, visited, cost, seq)
            visited.discard(u)
            seq.pop()

    dfs(graph.source, {graph.source}, 0.0, [graph.source])
    return best


def simple_paths(graph):
    """Every simple s->d path, in lexicographic order of vertex sequences,
    by depth-first search over sorted out-neighbours."""
    succ = successors(graph)
    seq = [graph.source]

    def extend():
        v = seq[-1]
        if v == graph.destination:
            yield Path(tuple(seq))
            return
        for u in succ[v]:
            if u not in seq:
                seq.append(u)
                yield from extend()
                seq.pop()

    return list(extend())
