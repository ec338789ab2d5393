"""Directed graph model, seeded graph families, and path oracles.

Vertices are integers ``0 .. n_vertices-1``. Edges are ordered pairs with a
stable integer id equal to their position in the edge list. A graph stores
its edges as two validated int64 arrays, ``tails`` and ``heads``; the
generators build those arrays directly, and validation runs in numpy.
Graphs are immutable after construction: those arrays, like the leakage,
are flagged read-only. Derived structures are built lazily from the arrays
and cached: the flat arrays of the flow engine (``arrays``), whose CSR
grouping is the graph's only adjacency, and the sorted edge keys
``u*n + v`` that ``edge_ids`` searches. ``with_leakage`` shares the edge
structure of the graph it copies.

Conventions fixed here and relied on elsewhere:

* leakage at the source and destination is always 0 (injection and
  extraction happen there; path leakage runs over interior vertices only);
* oracle tie-breaking is the lexicographically smallest vertex sequence;
* a vertex with leakage 1 absorbs all flow, so the min-leakage oracle treats
  it as unreachable-through.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np


class GraphError(ValueError):
    """Raised for malformed graphs, paths, or generator preconditions."""


@dataclass(frozen=True)
class Path:
    """A simple s->d path, stored as its vertex sequence."""

    vertices: Tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of edges."""
        return len(self.vertices) - 1

    def edge_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(zip(self.vertices[:-1], self.vertices[1:]))

    def __str__(self) -> str:
        return ">".join(str(v) for v in self.vertices)


def _vertex_index(v, n_vertices: int) -> int:
    """``int(v)``, checked to name one of ``n_vertices`` vertices (a negative
    index would silently pick a vertex from the end)."""
    if not 0 <= int(v) < n_vertices:
        raise GraphError(f"vertex {v} out of range 0..{n_vertices - 1}")
    return int(v)


Pairs = Union[Sequence[Tuple[int, int]], np.ndarray]
_T = TypeVar("_T")


def _pair_array(pairs: Pairs) -> np.ndarray:
    """``pairs`` ((u, v) pairs or a (k, 2) integer array) as a (k, 2) int64
    array."""
    uv = np.asarray(pairs, dtype=np.int64)
    if uv.size == 0:
        uv = uv.reshape(0, 2)
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")
    return uv


def _edge_arrays(edges: Pairs, n_vertices: int) -> Tuple[np.ndarray, np.ndarray]:
    """The int64 (tails, heads) of ``edges`` ((u, v) pairs or an (m, 2)
    array). Raises GraphError for the first edge, in input order, that has
    an endpoint out of range, is a self-loop or repeats an earlier edge."""
    pairs = _pair_array(edges)
    tails, heads = pairs[:, 0].copy(), pairs[:, 1].copy()
    bad = (tails < 0) | (tails >= n_vertices) | (heads < 0) | (heads >= n_vertices)
    bad |= tails == heads
    # keys are distinct for distinct in-range pairs; an out-of-range key may
    # match an in-range one, but that edge is itself bad and comes first
    keys = tails * n_vertices + heads
    if not np.all(keys[1:] > keys[:-1]):  # input in key order has no repeats
        order = np.argsort(keys, kind="stable")
        bad[order[1:]] |= keys[order[1:]] == keys[order[:-1]]
    if bad.any():
        i = int(np.argmax(bad))
        u, v = int(tails[i]), int(heads[i])
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise GraphError(f"edge ({u},{v}) endpoint out of range")
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) not allowed")
        raise GraphError(f"duplicate edge ({u},{v})")
    return tails, heads


def _leakage_array(
    base: np.ndarray, leakage: Union[Sequence[float], Mapping[int, float]]
) -> np.ndarray:
    """A new leakage array: ``base`` with the vertices a mapping names
    updated, or the given per-vertex values."""
    n = len(base)
    if isinstance(leakage, Mapping):
        lk = np.array(base, dtype=float)
        for v, l in leakage.items():
            lk[_vertex_index(v, n)] = float(l)
        return lk
    lk = np.array(leakage, dtype=float)
    if lk.shape != (n,):
        raise GraphError("leakage array length must equal n_vertices")
    return lk


class _EdgeKeys:
    """The table ``DirectedGraph.edge_ids`` searches, built on first use and
    shared by ``with_leakage`` copies: the edge keys ``u*n + v`` in
    increasing order, closed by ``n*n``, which no pair in range reaches, and
    the edge ids in that order (None when the keys already increase in
    edge-id order, as in every G(n, p), banded and grid graph)."""

    def __init__(self, tails: np.ndarray, heads: np.ndarray, n: int) -> None:
        self._edges = (tails, heads, n)

    @cached_property
    def table(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        tails, heads, n = self._edges
        keys = tails * n + heads
        order = None
        if not np.all(keys[1:] > keys[:-1]):
            order = np.argsort(keys)
            keys = keys[order]
        return np.append(keys, n * n), order


class DirectedGraph:
    """Immutable directed graph with designated source/destination and
    per-vertex leakage in [0, 1]."""

    def __init__(
        self,
        n_vertices: int,
        edges: Pairs,
        source: int,
        destination: int,
        leakage: Optional[Union[Sequence[float], Mapping[int, float]]] = None,
    ) -> None:
        """``edges`` is a sequence of (u, v) pairs or an (m, 2) integer
        array; edge ids follow its order."""
        if n_vertices < 2:
            raise GraphError("graph needs at least 2 vertices")
        if not (0 <= source < n_vertices and 0 <= destination < n_vertices):
            raise GraphError("source/destination out of range")
        if source == destination:
            raise GraphError("source and destination must differ")

        self.n_vertices = int(n_vertices)
        self.source = int(source)
        self.destination = int(destination)
        self.tails, self.heads = _edge_arrays(edges, self.n_vertices)
        # shared by ``with_leakage`` copies and read once by ``GraphArrays``
        self.tails.setflags(write=False)
        self.heads.setflags(write=False)

        lk = np.zeros(self.n_vertices)
        if leakage is not None:
            lk = _leakage_array(lk, leakage)
        self._set_leakage(lk)
        if lk[self.source] != 0.0 or lk[self.destination] != 0.0:
            raise GraphError("leakage at source and destination must be 0")
        self._arrays: Optional[GraphArrays] = None
        self._keys = _EdgeKeys(self.tails, self.heads, self.n_vertices)

    def _set_leakage(self, lk: np.ndarray) -> None:
        # NaN fails both comparisons, so it is rejected here too
        if not np.all((lk >= 0.0) & (lk <= 1.0)):
            raise GraphError("leakage values must lie in [0, 1]")
        lk.setflags(write=False)
        self.leakage = lk

    # -- basic queries ----------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.tails)

    def edge_ids(self, pairs: Pairs) -> np.ndarray:
        """The int64 ids of the edges ``pairs`` names ((u, v) pairs or a
        (k, 2) integer array), found by a binary search of the sorted edge
        keys ``u*n + v``. Raises GraphError for the first pair, in input
        order, with a vertex out of range, checked before any key is formed
        (on n = 5 the pair (0, 7) has the key of (1, 2)), and then for the
        first pair that is not an edge."""
        uv = _pair_array(pairs)
        n = self.n_vertices
        out = (uv < 0) | (uv >= n)
        if out.any():
            u, v = uv[int(np.argmax(out.any(axis=1)))].tolist()
            raise GraphError(f"pair ({u},{v}) has a vertex out of range 0..{n - 1}")
        keys = uv[:, 0] * n + uv[:, 1]
        table, order = self._keys.table
        pos = np.searchsorted(table, keys)
        missing = table[pos] != keys
        if missing.any():
            u, v = uv[int(np.argmax(missing))].tolist()
            raise GraphError(f"no edge ({u},{v})")
        return pos if order is None else order[pos]

    def with_leakage(
        self, leakage: Union[Sequence[float], Mapping[int, float]]
    ) -> "DirectedGraph":
        """Copy of this graph with new leakage values (a mapping updates the
        vertices it names). The source/destination entries are forced to 0
        regardless of the input, matching the model convention. The copy
        shares this graph's validated edges and the structure derived from
        them."""
        lk = _leakage_array(self.leakage, leakage)
        lk[self.source] = 0.0
        lk[self.destination] = 0.0
        g = copy.copy(self)
        g._set_leakage(lk)
        if self._arrays is not None:
            g._arrays = self._arrays.for_graph(g)
        return g

    # -- flat arrays for the flow engine ----------------------------------

    @property
    def arrays(self) -> "GraphArrays":
        if self._arrays is None:
            self._arrays = GraphArrays(self)
        return self._arrays

    # -- export ------------------------------------------------------------

    def to_dot(self, edge_weights: Optional[Sequence[float]] = None) -> str:
        """DOT export of the digraph ``flow``; optional per-edge weights scale
        pen widths up to 6.5 (weights are drawn green), vertex size shrinks
        with leakage."""
        lines = ["digraph flow {"]
        for v in range(self.n_vertices):
            size = 0.25 + 0.55 * (1.0 - float(self.leakage[v]))
            attrs = [f'width="{size:.3f}"', f'height="{size:.3f}"', "fixedsize=true"]
            if v == self.source:
                attrs.append('shape="box"')
                attrs.append('label="s"')
            elif v == self.destination:
                attrs.append('shape="box"')
                attrs.append('label="d"')
            else:
                attrs.append(f'label="{v}"')
            lines.append(f"  {v} [{', '.join(attrs)}];")
        wmax = 0.0
        if edge_weights is not None:
            wmax = max((float(w) for w in edge_weights), default=0.0)
        for eid, (u, v) in enumerate(zip(self.tails.tolist(), self.heads.tolist())):
            if edge_weights is None:
                lines.append(f"  {u} -> {v};")
                continue
            w = float(edge_weights[eid])
            pen = 0.5 + (6.0 * w / wmax if wmax > 0 else 0.0)
            color = "green" if w > 0 else "gray"
            lines.append(
                f'  {u} -> {v} [penwidth="{pen:.3f}", color="{color}", weight_value="{w:.6g}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def _edge_pairs(graph: DirectedGraph) -> np.ndarray:
    """The (m, 2) array of ``graph``'s edges in edge-id order."""
    return np.column_stack([graph.tails, graph.heads])


def _chain_pairs(vertices: Sequence[int]) -> np.ndarray:
    """The (len - 1, 2) array of the hops along a vertex sequence."""
    chain = np.asarray(vertices, dtype=np.int64)
    return np.column_stack([chain[:-1], chain[1:]])


# graphs not sorted by tail with at most this many edges per vertex sum their
# out-edges with np.bincount; denser ones pay more per edge in bincount than
# the gather and per-segment cost of ``reduceat`` (README "Performance")
_BINCOUNT_MAX_DEGREE = 16


class PairIndex(NamedTuple):
    """Index arrays of the kernels that treat both flow directions in one
    call, over a state buffer ``[f_edge | b_edge | p | f_vertex | b_vertex]``
    (``dynamics.SystemState``). Edge flow i (of ``[f_edge | b_edge]``) is
    forward edge i for i < m and backward edge i - m after; vertex flow j
    (of ``[f_vertex | b_vertex]``) is forward vertex j for j < n and
    backward vertex j - n after."""

    agg_bins: np.ndarray  # vertex flow each edge flow adds to: head, then tail + n
    src: np.ndarray  # vertex flow each edge flow splits from: tail, then head + n
    dead: np.ndarray  # the vertex flows with no edge to split over
    degrees: np.ndarray  # edges each vertex flow splits over
    halves: Tuple[Tuple[int, int], Tuple[int, int]]  # the forward and backward vertex flows


class GraphArrays:
    """Flat numpy views of a graph used by the flow engine.

    The index arrays here (the CSR grouping, ``tail_bins``, ``head_bins``,
    ``no_out``, ``no_in`` and ``pair``) must not be written: they are
    derived once from the graph's edges, and the copies ``for_graph`` makes
    for ``with_leakage`` share them. Unlike ``DirectedGraph.tails`` and
    ``heads`` they are left writable, because ``np.bincount`` copies a
    read-only index array on every call."""

    def __init__(self, g: DirectedGraph) -> None:
        self.n = g.n_vertices
        self.m = g.n_edges
        self.tails = g.tails
        self.heads = g.heads
        self.out_deg = np.bincount(self.tails, minlength=self.n).astype(np.int64)
        self.in_deg = np.bincount(self.heads, minlength=self.n).astype(np.int64)
        self._set_survival(g.leakage)
        self.source = g.source
        self.destination = g.destination
        # CSR grouping: the edges of vertex v are ``out_eids[out_ptr[v]:out_ptr[v+1]]``
        # (``in_eids``/``in_ptr`` by head); stable sorts keep each segment in
        # edge-id order, and edge ids keep their input order
        self.out_eids = np.argsort(self.tails, kind="stable")
        self.out_ptr = np.concatenate(([0], np.cumsum(self.out_deg)))
        self.in_eids = np.argsort(self.heads, kind="stable")
        self.in_ptr = np.concatenate(([0], np.cumsum(self.in_deg)))
        # tail-sorted input (every generator but the two-path builder and the
        # planting helpers) needs no gather before the segment sums
        self.tail_sorted = bool(np.all(self.tails[1:] >= self.tails[:-1]))
        self._by_tail = slice(None) if self.tail_sorted else self.out_eids
        # the one choice of how a vertex's out-edges are summed, read by
        # ``tail_sums`` and ``detect_convergence``: np.bincount (left to
        # right from 0.0, in edge-id order) on sparse graphs not sorted by
        # tail, where the gather before ``reduceat`` and its cost per
        # segment dominate; ``reduceat`` over the CSR segments otherwise
        self.out_by_bincount = not self.tail_sorted and self.m <= _BINCOUNT_MAX_DEGREE * self.n
        # each edge's tail and head as writable index arrays: np.bincount
        # copies a read-only one on every call
        self.tail_bins = self.tails.copy()
        self.head_bins = self.heads.copy()
        # the vertices with out-edges, whose segments ``reduceat`` sums, and
        # those with no out-edges / no in-edges: the linear split sets their
        # totals to 1.0
        self.with_out = np.flatnonzero(self.out_deg)
        self._seg_starts = self.out_ptr[self.with_out]
        self.no_out = np.flatnonzero(self.out_deg == 0)
        self.no_in = np.flatnonzero(self.in_deg == 0)
        # what ``derive`` built, by builder: one dict for these arrays and
        # every ``for_graph`` copy of them, whenever the copy was made
        self._derived: dict = {}

    def _set_survival(self, leakage: np.ndarray) -> None:
        self.surv = 1.0 - np.asarray(leakage, dtype=float)
        self.pair_surv = np.concatenate((self.surv, self.surv))  # over [f_vertex | b_vertex]

    def for_graph(self, g: DirectedGraph) -> "GraphArrays":
        """These arrays for ``g``, a copy of their graph with other leakage."""
        ga = copy.copy(self)
        ga._set_survival(g.leakage)
        return ga

    def derive(self, build: Callable[["GraphArrays"], _T]) -> _T:
        """``build(self)``, built on the first call for these arrays or a
        ``for_graph`` copy of them and shared by all of them after; so
        ``build`` must read no leakage. What it returns must not be
        written."""
        derived = self._derived
        if build not in derived:
            derived[build] = build(self)
        return derived[build]

    @cached_property
    def pair(self) -> PairIndex:
        """The index arrays of the kernels that treat both flow directions
        in one call (built on first use)."""
        n = self.n
        return PairIndex(
            agg_bins=np.concatenate((self.head_bins, self.tail_bins + n)),
            src=np.concatenate((self.tails, self.heads + n)),
            dead=np.concatenate((self.no_out, self.no_in + n)),
            degrees=np.concatenate((self.out_deg, self.in_deg)),
            halves=((0, n), (n, 2 * n)),
        )

    def tail_sums(self, x: np.ndarray) -> np.ndarray:
        """Per-vertex sums of the edge values ``x`` over each vertex's
        out-edges (0 at vertices without out-edges)."""
        if self.out_by_bincount:
            return np.bincount(self.tail_bins, x, self.n)
        sums = np.zeros(self.n)
        sums[self.with_out] = np.add.reduceat(x[self._by_tail], self._seg_starts)
        return sums

    @cached_property
    def branches(self) -> Tuple[Tuple[Branch, ...], Tuple[Branch, ...]]:
        """The branch points of the general (two-branch) rule, forward then
        backward: each vertex with two out-edges, and each with two
        in-edges, as (vertex, e1, e2) with its edges in edge-id order.
        Raises GraphError naming the first vertex with more than two."""
        return (
            _branch_table(self.out_eids, self.out_ptr, self.out_deg, "out"),
            _branch_table(self.in_eids, self.in_ptr, self.in_deg, "in"),
        )


Branch = Tuple[int, int, int]  # (vertex, e1, e2), e1 < e2


def _branch_table(
    eids: np.ndarray, ptr: np.ndarray, deg: np.ndarray, side: str
) -> Tuple[Branch, ...]:
    """The vertices of degree 2 of a CSR grouping, each with its two edges."""
    over = np.flatnonzero(deg > 2)
    if over.size:
        v = int(over[0])
        raise GraphError(
            f"general decision rules split over at most two edges, "
            f"but vertex {v} has {side}-degree {int(deg[v])}"
        )
    verts = np.flatnonzero(deg == 2)
    starts = ptr[verts]
    return tuple(zip(verts.tolist(), eids[starts].tolist(), eids[starts + 1].tolist()))


# ---------------------------------------------------------------------------
# Two parallel paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPathGraph:
    """Two vertex-disjoint parallel s->d paths: ``top`` with m edges and
    ``bottom`` with n edges."""

    graph: DirectedGraph
    top: Path
    bottom: Path

    @property
    def m(self) -> int:
        return self.top.length

    @property
    def n(self) -> int:
        return self.bottom.length

    @property
    def window(self) -> int:
        """Potential window, the longer of the two path lengths."""
        return max(self.m, self.n)

    @cached_property
    def _eids(self) -> dict:
        """Each branch's edge ids in path order, looked up once."""
        eids = self.graph.edge_ids(self.top.edge_pairs() + self.bottom.edge_pairs()).tolist()
        return {"top": eids[: self.m], "bottom": eids[self.m :]}

    def path_eids(self, branch: str) -> List[int]:
        """Edge ids of a branch ('top' or 'bottom') in path order."""
        try:
            return list(self._eids[branch])
        except KeyError:
            raise ValueError(f"unknown branch {branch!r}") from None

    def branch_eids(self, branch: str) -> Tuple[int, int]:
        """(s-side, d-side) edge ids of a branch ('top' or 'bottom')."""
        eids = self.path_eids(branch)
        return eids[0], eids[-1]

    def branch_survivals(self, branch: str) -> Tuple[np.ndarray, np.ndarray]:
        """(prefix, suffix) survival products per edge of a branch: prefix[i]
        over the vertices forward flow on edge i has passed from s, suffix[i]
        over those backward flow on edge i has passed from d."""
        path = self.top if branch == "top" else self.bottom
        surv = 1.0 - self.graph.leakage[list(path.vertices)]
        return np.cumprod(surv[:-1]), np.cumprod(surv[:0:-1])[::-1]


def build_two_path(
    m: int,
    n: int,
    leak_top: Sequence[float],
    leak_bottom: Sequence[float],
) -> TwoPathGraph:
    """Two parallel paths with m and n edges and the given interior leakages
    (lengths m-1 and n-1, assigned in path order)."""
    if m < 2 or n < 2:
        raise GraphError("both paths need at least 2 edges (one interior vertex)")
    if len(leak_top) != m - 1 or len(leak_bottom) != n - 1:
        raise GraphError(
            f"leakage lists must have lengths {m - 1} and {n - 1}, "
            f"got {len(leak_top)} and {len(leak_bottom)}"
        )
    for l in list(leak_top) + list(leak_bottom):
        if not (0.0 <= float(l) < 1.0):
            raise GraphError("interior leakage must lie in [0, 1)")

    s = 0
    d = m + n - 1
    top_vertices = [s] + list(range(1, m)) + [d]
    bottom_vertices = [s] + list(range(m, m + n - 1)) + [d]
    edges = np.concatenate([_chain_pairs(top_vertices), _chain_pairs(bottom_vertices)])
    leakage = np.zeros(m + n, dtype=float)
    for v, l in zip(top_vertices[1:-1], leak_top):
        leakage[v] = float(l)
    for v, l in zip(bottom_vertices[1:-1], leak_bottom):
        leakage[v] = float(l)
    g = DirectedGraph(m + n, edges, s, d, leakage)
    return TwoPathGraph(g, Path(tuple(top_vertices)), Path(tuple(bottom_vertices)))


def build_two_path_survival(m: int, n: int, surv_top: float, surv_bottom: float) -> TwoPathGraph:
    """Two-path graph whose branch survival products equal the given values,
    spread uniformly over the interior vertices."""
    if not (0.0 < surv_top <= 1.0 and 0.0 < surv_bottom <= 1.0):
        raise GraphError("survival factors must lie in (0, 1]")
    lt = 1.0 - surv_top ** (1.0 / (m - 1))
    lb = 1.0 - surv_bottom ** (1.0 / (n - 1))
    return build_two_path(m, n, [lt] * (m - 1), [lb] * (n - 1))


# ---------------------------------------------------------------------------
# Random graph families (simulation protocol)
# ---------------------------------------------------------------------------


def _gnp_matrix(n: int, p: float, seed: int) -> np.ndarray:
    """The (n, n) adjacency matrix of a directed G(n, p) draw: each ordered
    pair (i, j), i != j, is an edge with probability p."""
    if n < 2:
        raise GraphError("n must be >= 2")
    if not (0.0 <= p <= 1.0):
        raise GraphError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    mat = rng.random((n, n)) < p
    np.fill_diagonal(mat, False)
    return mat


def gen_gnp(n: int, p: float, seed: int) -> DirectedGraph:
    """Directed G(n, p). Vertex 0 is the source, vertex n-1 the destination.
    Leakage starts at 0 and is assigned separately."""
    return DirectedGraph(n, np.argwhere(_gnp_matrix(n, p, seed)), 0, n - 1)


def gen_banded_gnp(n: int, p: float, k: int, seed: int) -> DirectedGraph:
    """G(n, p) restricted to pairs with |i - j| <= k, forcing long routes."""
    if k < 1:
        raise GraphError("k must be >= 1")
    mat = _gnp_matrix(n, p, seed)
    idx = np.arange(n)
    mat &= np.abs(idx[:, None] - idx[None, :]) <= k
    return DirectedGraph(n, np.argwhere(mat), 0, n - 1)


def gen_grid(rows: int, cols: int) -> DirectedGraph:
    """Grid with rightward and downward edges; source top-left, destination
    bottom-right."""
    if rows < 2 or cols < 2:
        raise GraphError("rows and cols must be >= 2")
    v = np.arange(rows * cols)
    # each vertex's rightward then downward edge, in vertex order
    pairs = np.stack([np.column_stack([v, v + 1]), np.column_stack([v, v + cols])], axis=1)
    keep = np.column_stack([v % cols < cols - 1, v < (rows - 1) * cols])
    return DirectedGraph(rows * cols, pairs[keep], 0, rows * cols - 1)


def plant_path(graph: DirectedGraph, length: int) -> Tuple[DirectedGraph, Path]:
    """Add a fresh s->d chain of ``length`` edges through new interior
    vertices, strictly shorter than the current shortest path, so the result
    has a unique shortest path equal to the planted one. The construction is
    deterministic."""
    if length < 1:
        raise GraphError("planted length must be >= 1")
    cur = shortest_path(graph)
    cur_len = cur.length if cur is not None else math.inf
    if not length < cur_len:
        raise GraphError(
            f"planted length {length} must be strictly shorter than the "
            f"current shortest path ({cur_len})"
        )
    n0 = graph.n_vertices
    new_vertices = list(range(n0, n0 + length - 1))
    chain = [graph.source] + new_vertices + [graph.destination]
    edges = np.concatenate([_edge_pairs(graph), _chain_pairs(chain)])
    leakage = np.zeros(n0 + length - 1, dtype=float)
    leakage[:n0] = graph.leakage
    g2 = DirectedGraph(n0 + length - 1, edges, graph.source, graph.destination, leakage)
    return g2, Path(tuple(chain))


def plant_band_ladder(graph: DirectedGraph, k: int) -> Tuple[DirectedGraph, Path]:
    """Plant the fixed ladder pattern used with banded graphs: hops through
    vertices k, 2(k+1)-1, 3(k+1)-1, ... (the 1-based protocol pattern
    (1, k+1), (k+1, 2(k+1)), ... stored 0-based), ending at the destination."""
    n = graph.n_vertices
    if n < k + 2:
        raise GraphError("graph too small for the ladder pattern")
    chain = [graph.source]
    j = 1
    while True:
        v = j * (k + 1) - 1  # 0-based id of 1-based vertex j*(k+1)
        if v >= graph.destination:
            break
        chain.append(v)
        j += 1
    chain.append(graph.destination)
    hops = _chain_pairs(chain)
    present = np.isin(hops[:, 0] * n + hops[:, 1], graph.tails * n + graph.heads)
    edges = np.concatenate([_edge_pairs(graph), hops[~present]])
    g2 = DirectedGraph(n, edges, graph.source, graph.destination, graph.leakage)
    return g2, Path(tuple(chain))


# ---------------------------------------------------------------------------
# Path oracles
# ---------------------------------------------------------------------------


def validate_path(graph: DirectedGraph, path: Path) -> None:
    vs = path.vertices
    if len(vs) < 2:
        raise GraphError("path needs at least one edge")
    if vs[0] != graph.source or vs[-1] != graph.destination:
        raise GraphError("path must start at the source and end at the destination")
    if len(set(vs)) != len(vs):
        raise GraphError("path repeats a vertex")
    graph.edge_ids(path.edge_pairs())  # raises for a hop that is not an edge


def path_leakage(graph: DirectedGraph, path: Path) -> float:
    """Fraction of flow lost traversing ``path``: 1 - prod over interior
    vertices of (1 - leakage)."""
    validate_path(graph, path)
    surv = 1.0
    for v in path.vertices[1:-1]:
        surv *= 1.0 - float(graph.leakage[v])
    return 1.0 - surv


def _adjacency(ga: GraphArrays, forward: bool) -> Tuple[memoryview, List[int]]:
    """(nbrs, ptr) read from the CSR grouping: the heads of v's out-edges
    (the tails of its in-edges when not ``forward``) are
    ``nbrs[ptr[v]:ptr[v + 1]]``, in edge-id order. ``nbrs`` is a memoryview,
    which yields Python ints as it is read instead of holding one per
    edge."""
    if forward:
        return memoryview(ga.heads[ga.out_eids]), ga.out_ptr.tolist()
    return memoryview(ga.tails[ga.in_eids]), ga.in_ptr.tolist()


def _distances(graph: DirectedGraph, w: Sequence[float]) -> List[float]:
    """Cost of a cheapest walk from each vertex to the destination, where
    entering vertex v costs ``w[v]`` (inf where there is none), by Dijkstra
    over the in-edge CSR grouping."""
    tails, ptr = _adjacency(graph.arrays, forward=False)
    dist: List[float] = [math.inf] * graph.n_vertices
    d = graph.destination
    dist[d] = 0
    heap: List[Tuple[float, int]] = [(0, d)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        cand = w[v] + dv
        for u in tails[ptr[v] : ptr[v + 1]]:
            if cand < dist[u]:
                dist[u] = cand
                heapq.heappush(heap, (cand, u))
    return dist


def _lex_path(graph: DirectedGraph, w: Sequence[float], dist: List[float]) -> Optional[Path]:
    """The lexicographically smallest s->d path of cost ``dist[s]``: a
    simple path along tight out-edges u->v (``dist[u] == w[v] + dist[v]``);
    None if the destination is unreachable."""
    s, d = graph.source, graph.destination
    if dist[s] == math.inf:
        return None
    heads, ptr = _adjacency(graph.arrays, forward=True)

    def completes(v: int, blocked: set) -> bool:
        # a tight v->d chain avoiding ``blocked``: a greedy step to a vertex
        # as far from d as the current one (a zero weight) can dead-end
        stack, seen = [v], blocked | {v}
        while stack:
            x = stack.pop()
            if x == d:
                return True
            for y in heads[ptr[x] : ptr[x + 1]]:
                if y not in seen and dist[x] == w[y] + dist[y]:
                    seen.add(y)
                    stack.append(y)
        return False

    seq, visited, cur = [s], {s}, s
    while cur != d:
        # a tight step closer to d always completes: the visited vertices
        # are all at least as far from d as ``cur``
        cur = next(
            v
            for v in sorted(heads[ptr[cur] : ptr[cur + 1]])
            if v not in visited
            and dist[cur] == w[v] + dist[v]
            and (dist[v] < dist[cur] or completes(v, visited))
        )
        seq.append(cur)
        visited.add(cur)
    return Path(tuple(seq))


def _hops(graph: DirectedGraph) -> Tuple[List[int], List[float]]:
    """Unit vertex weights and the edge counts of shortest paths to the
    destination under them (ints, so the search makes no float objects)."""
    w = [1] * graph.n_vertices
    return w, _distances(graph, w)


def shortest_path(graph: DirectedGraph) -> Optional[Path]:
    """Minimum-edge-count s->d path; lexicographically smallest vertex
    sequence among ties; None if unreachable."""
    return _lex_path(graph, *_hops(graph))


def count_shortest_paths(graph: DirectedGraph) -> int:
    """Number of distinct minimum-length s->d paths (0 if unreachable)."""
    w, dist = _hops(graph)
    heads, ptr = _adjacency(graph.arrays, forward=True)
    counts = [0] * graph.n_vertices
    counts[graph.destination] = 1
    # by increasing distance, so every tight successor is counted first
    reached = [v for v in range(graph.n_vertices) if 0 < dist[v] < math.inf]
    for v in sorted(reached, key=dist.__getitem__):
        counts[v] = sum(counts[x] for x in heads[ptr[v] : ptr[v + 1]] if dist[v] == w[x] + dist[x])
    return counts[graph.source]


def min_leakage_path(graph: DirectedGraph) -> Optional[Path]:
    """s->d path maximizing the interior survival product, found as a
    shortest path under additive weights -ln(1 - l_v) per interior vertex.
    Vertices with leakage 1 are unreachable-through. Ties break to the
    lexicographically smallest vertex sequence."""
    w = [math.inf if l >= 1.0 else -math.log1p(-l) for l in graph.leakage.tolist()]
    return _lex_path(graph, w, _distances(graph, w))


def is_connected(graph: DirectedGraph) -> bool:
    """True when the destination is reachable from the source."""
    return _hops(graph)[1][graph.source] < math.inf
