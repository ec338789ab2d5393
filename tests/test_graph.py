import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailflow.dynamics import EngineConfig, FlowSchedule, init_state, run
from trailflow.graph import (
    DirectedGraph,
    GraphArrays,
    GraphError,
    Path,
    build_two_path,
    build_two_path_survival,
    count_shortest_paths,
    gen_banded_gnp,
    gen_gnp,
    gen_grid,
    is_connected,
    min_leakage_path,
    path_leakage,
    plant_band_ladder,
    plant_path,
    shortest_path,
    two_path_structure,
)
from trailflow.rules import DecisionRule, power_rule

from helpers import (
    ReferenceGraph,
    brute_force_min_leakage,
    simple_paths,
    reference_gnp_edges,
    reference_grid_edges,
    reference_planted_edges,
    reference_two_path_edges,
)


# -- construction and invariants -------------------------------------------


def _segment(eids, ptr, v):
    """Vertex ``v``'s edge ids in a CSR grouping, as a list."""
    return eids[ptr[v] : ptr[v + 1]].tolist()


def test_basic_invariants():
    g = DirectedGraph(3, [(0, 1), (1, 2)], 0, 2)
    ga = g.arrays
    assert g.n_edges == 2
    assert ga.heads[_segment(ga.out_eids, ga.out_ptr, 0)].tolist() == [1]
    assert ga.tails[_segment(ga.in_eids, ga.in_ptr, 2)].tolist() == [1]
    with pytest.raises(GraphError):
        DirectedGraph(3, [(0, 0)], 0, 2)  # self loop
    with pytest.raises(GraphError):
        DirectedGraph(3, [(0, 1), (0, 1)], 0, 2)  # duplicate
    with pytest.raises(GraphError):
        DirectedGraph(3, [(0, 1)], 0, 0)  # source == destination
    with pytest.raises(GraphError):
        DirectedGraph(3, [(0, 1)], 0, 2, [0.5, 0.0, 0.0])  # leaky source


def test_adjacency_transpose_consistency():
    g = gen_gnp(30, 0.2, 11)
    ga = g.arrays
    for eid, (u, v) in enumerate(g.edges):
        assert eid in _segment(ga.out_eids, ga.out_ptr, u)
        assert eid in _segment(ga.in_eids, ga.in_ptr, v)
    assert ga.out_ptr[-1] == ga.in_ptr[-1] == g.n_edges
    assert sorted(ga.out_eids.tolist()) == sorted(ga.in_eids.tolist()) == list(range(g.n_edges))


def test_with_leakage_forces_endpoints():
    g = gen_gnp(10, 0.4, 2)
    g2 = g.with_leakage(np.full(10, 0.7))
    assert g2.leakage[g2.source] == 0.0
    assert g2.leakage[g2.destination] == 0.0
    assert g2.leakage[1] == 0.7


def test_leakage_mapping_rejects_out_of_range_vertex():
    # a negative key would otherwise index from the end and leak a real vertex
    g = gen_gnp(10, 0.4, 2)
    for bad in (-2, 10):
        with pytest.raises(GraphError):
            DirectedGraph(10, g.edges, 0, 9, {bad: 0.5})
        with pytest.raises(GraphError):
            g.with_leakage({bad: 0.5})


def test_leakage_rejects_nan():
    with pytest.raises(GraphError, match="leakage values"):
        DirectedGraph(3, [(0, 1), (1, 2)], 0, 2, [0.0, math.nan, 0.0])
    g = gen_gnp(5, 0.5, 1)
    for bad in ({2: math.nan}, np.full(5, math.nan)):
        with pytest.raises(GraphError, match="leakage values"):
            g.with_leakage(bad)


def _built(cls, n, edges):
    """(graph, None), or (None, (exception type, message)) when ``cls``
    refuses the edges."""
    try:
        return cls(n, edges, 0, n - 1), None
    except GraphError as exc:
        return None, (type(exc), str(exc))


def _assert_matches_reference(g, ref):
    assert g.edges == ref.edges
    assert all(type(x) is int for e in g.edges for x in e)
    ga = g.arrays
    for v in range(ref.n_vertices):
        assert _segment(ga.out_eids, ga.out_ptr, v) == ref.out[v]
        assert _segment(ga.in_eids, ga.in_ptr, v) == ref.inc[v]
    assert {e: g.edge_id(*e) for e in ref.edges} == ref.edge_ids
    got, want = vars(g.arrays), vars(GraphArrays(ref))
    assert got.keys() == want.keys()
    for name in want.keys() - {"_branches"}:
        if isinstance(want[name], np.ndarray):
            assert got[name].dtype == want[name].dtype, name
            assert np.array_equal(got[name], want[name]), name
        else:
            assert got[name] == want[name], name


_EDGE_CASES = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1) | st.integers(-2, n + 1),
                st.integers(0, n - 1) | st.integers(-2, n + 1),
            ),
            max_size=40,
        ),
    )
)


@given(_EDGE_CASES)
@settings(max_examples=300, deadline=None)
def test_constructor_matches_per_edge_reference(case):
    """Out-of-range endpoints, self-loops and repeats raise the reference
    loop's exception; accepted edges give its edge tuple, adjacency, edge
    ids and flat arrays, also through ``with_leakage`` and from an (m, 2)
    array. The list with its bad edges dropped is checked too, so that
    long edge lists get accepted as well."""
    n, edges = case
    clean = []
    for u, v in edges:
        if 0 <= u < n and 0 <= v < n and u != v and (u, v) not in clean:
            clean.append((u, v))
    leak = np.linspace(0.0, 0.5, n)
    leak[[0, n - 1]] = 0.0
    for lst in (edges, clean):
        ref, ref_err = _built(ReferenceGraph, n, lst)
        for given_edges in (lst, np.array(lst, dtype=np.int64).reshape(-1, 2)):
            g, err = _built(DirectedGraph, n, given_edges)
            assert err == ref_err
            if ref is None:
                continue
            _assert_matches_reference(g, ref)
            _assert_matches_reference(g.with_leakage(leak), ReferenceGraph(n, lst, 0, n - 1, leak))
    assert _built(DirectedGraph, n, clean)[1] is None


def test_with_leakage_shares_edges_and_rebuilds_survival():
    g = gen_gnp(30, 0.2, 5)
    ga = g.arrays
    leak = np.full(30, 0.25)
    g2 = g.with_leakage(leak)
    assert g2.tails is g.tails and g2.heads is g.heads
    assert g2.arrays.out_eids is ga.out_eids
    assert g2.arrays.surv[1] == 0.75 and ga.surv[1] == 1.0
    assert g.leakage[1] == 0.0
    ref = ReferenceGraph(30, g.edges, 0, 29, g2.leakage)
    _assert_matches_reference(g2, ref)
    assert two_path_structure(g2) is None


def test_edge_and_leakage_arrays_are_read_only():
    """The arrays a graph shares with its ``with_leakage`` copies, and from
    which ``GraphArrays`` derives its grouping once, refuse writes."""
    g = gen_gnp(30, 0.2, 5)
    g2 = g.with_leakage(np.full(30, 0.25))
    for arr in (g.tails, g.heads, g.leakage, g2.tails, g2.heads, g2.leakage):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        g.tails[:] = g.heads
    # the engine's bincount bins stay writable (a read-only one is copied on
    # every call)
    ga = g.arrays
    assert ga.tail_bins.flags.writeable and ga.head_bins.flags.writeable
    assert ga.tail_bins.tolist() == g.tails.tolist() and ga.head_bins.tolist() == g.heads.tolist()


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_generators_match_reference_edges(seed):
    """Every generator and planting helper lists the reference loops' edge
    tuples, in their order."""
    assert gen_gnp(40, 0.1, seed).edges == tuple(reference_gnp_edges(40, 0.1, seed))
    assert gen_gnp(12, 1.0, seed).edges == tuple(reference_gnp_edges(12, 1.0, seed))
    banded = gen_banded_gnp(60, 0.5, 5, seed)
    assert banded.edges == tuple(reference_gnp_edges(60, 0.5, seed, band=5))
    rows, cols = 2 + seed % 5, 2 + seed % 3
    assert gen_grid(rows, cols).edges == tuple(reference_grid_edges(rows, cols))
    m, n = 2 + seed % 3, 2 + seed % 4
    assert build_two_path(m, n, [0.0] * (m - 1), [0.0] * (n - 1)).graph.edges == tuple(
        reference_two_path_edges(m, n)
    )
    g, planted = plant_path(gen_grid(rows + 3, cols + 3), 4)
    base = reference_grid_edges(rows + 3, cols + 3)
    assert g.edges == tuple(reference_planted_edges(base, planted.vertices))
    g, ladder = plant_band_ladder(banded, 5)
    base = reference_gnp_edges(60, 0.5, seed, band=5)
    assert g.edges == tuple(reference_planted_edges(base, ladder.vertices))


# -- two-path builder --------------------------------------------------------


def test_build_two_path_hand_values():
    tp = build_two_path(2, 3, [0.03], [0.05, 0.0])
    assert tp.graph.n_vertices == 5
    assert tp.graph.n_edges == 5
    assert tp.leak_top == pytest.approx(0.03)
    assert tp.leak_bottom == pytest.approx(1 - (1 - 0.05) * (1 - 0.0))


def test_build_two_path_zero_leakage():
    tp = build_two_path(2, 2, [0.0], [0.0])
    assert tp.leak_top == 0.0
    assert tp.leak_bottom == 0.0


def test_build_two_path_heavy_leakage():
    tp = build_two_path(2, 3, [0.5], [0.5, 0.5])
    assert tp.leak_top == pytest.approx(0.5)
    assert tp.leak_bottom == pytest.approx(0.75)


def test_build_two_path_errors():
    with pytest.raises(GraphError):
        build_two_path(2, 3, [0.1, 0.1], [0.0, 0.0])  # length mismatch
    with pytest.raises(GraphError):
        build_two_path(2, 3, [1.0], [0.0, 0.0])  # leakage out of range
    with pytest.raises(GraphError):
        build_two_path(1, 3, [], [0.0, 0.0])  # no interior vertex


def test_two_path_structure_roundtrip():
    tp = build_two_path(3, 4, [0.1, 0.2], [0.0, 0.0, 0.3])
    got = two_path_structure(tp.graph)
    assert got is not None
    assert set(got) == {tp.top, tp.bottom}
    assert two_path_structure(gen_grid(3, 3)) is None


def test_two_path_structure_rejects_uncovered_vertices():
    # two paths 0-1-4 and 0-2-3-4 beside a 2-cycle 5<->6 that passes every
    # degree check: the walks from s miss two vertices
    edges = [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)]
    assert two_path_structure(DirectedGraph(5, edges, 0, 4)) is not None
    g = DirectedGraph(7, edges + [(5, 6), (6, 5)], 0, 4)
    assert two_path_structure(g) is None
    schedule = FlowSchedule.constant(1.0, 1.0)
    rule = DecisionRule.general(power_rule(2))
    with pytest.raises(GraphError, match="two-parallel-path"):
        run(init_state(g, 1.0, schedule), g, rule, schedule, EngineConfig(delta=0.5), 10)


def test_build_two_path_survival_products():
    tp = build_two_path_survival(4, 5, 0.9, 0.8)
    assert tp.surv_top == pytest.approx(0.9)
    assert tp.surv_bottom == pytest.approx(0.8)


# -- generators --------------------------------------------------------------


def test_gnp_expectation_over_seeds():
    counts = [gen_gnp(100, 0.05, s).n_edges for s in range(100)]
    mean = sum(counts) / len(counts)
    # 100*99*0.05 = 495 expected edges; 3 sigma of the 100-seed mean
    sigma_mean = math.sqrt(100 * 99 * 0.05 * 0.95 / 100)
    assert abs(mean - 495.0) <= 3 * sigma_mean


def test_gnp_extremes():
    g = gen_gnp(2, 1.0, 0)
    assert set(g.edges) == {(0, 1), (1, 0)}
    assert gen_gnp(5, 0.0, 7).n_edges == 0
    with pytest.raises(GraphError):
        gen_gnp(1, 0.5, 0)


def test_gnp_reproducible():
    assert gen_gnp(50, 0.1, 123).edges == gen_gnp(50, 0.1, 123).edges


def test_banded_gnp_band():
    g = gen_banded_gnp(100, 0.5, 10, 1)
    assert not g.has_edge(0, 99)
    assert all(abs(u - v) <= 10 for u, v in g.edges)
    g2 = gen_banded_gnp(10, 1.0, 1, 0)
    assert set(g2.edges) == {(i, i + 1) for i in range(9)} | {(i + 1, i) for i in range(9)}
    g3 = gen_banded_gnp(1000, 0.5, 40, 3)
    assert all(abs(u - v) <= 40 for u, v in g3.edges)


def test_grid_counts_and_shortest():
    g = gen_grid(10, 10)
    assert g.n_vertices == 100
    assert g.n_edges == 2 * 10 * 10 - 10 - 10
    assert shortest_path(g).length == 18
    g2 = gen_grid(2, 2)
    assert (g2.n_vertices, g2.n_edges) == (4, 4)
    assert shortest_path(gen_grid(3, 2)).length == 3


# -- out-sum kernel ----------------------------------------------------------


@pytest.mark.parametrize(
    "make, bincount",
    [
        pytest.param(lambda: gen_gnp(100, 0.05, 1), False, id="gnp"),
        pytest.param(lambda: gen_gnp(1000, 0.1, 1), False, id="gnp1000"),
        pytest.param(lambda: gen_banded_gnp(100, 0.5, 10, 1), False, id="banded"),
        pytest.param(lambda: gen_grid(10, 10), False, id="grid"),
        pytest.param(lambda: plant_path(gen_grid(10, 10), 9)[0], True, id="planted-grid"),
        pytest.param(
            lambda: plant_band_ladder(gen_banded_gnp(100, 0.5, 10, 1), 10)[0], True, id="ladder"
        ),
        pytest.param(
            lambda: plant_band_ladder(gen_banded_gnp(1000, 0.5, 40, 1), 40)[0],
            False,
            id="dense-ladder",
        ),
        pytest.param(lambda: build_two_path(2, 2, [0.0], [0.0]).graph, True, id="two-path"),
    ],
)
def test_out_sum_kernel_choice(make, bincount):
    """Every generator's output is sorted by tail and sums out-edges by
    ``reduceat``; a planted path, a ladder hop or a two-path bottom chain
    breaks tail order, and such a graph sums by ``np.bincount`` unless it
    has more than 16 edges per vertex."""
    ga = make().arrays
    assert ga.out_by_bincount == bincount
    x = np.random.default_rng(ga.m).uniform(0.0, 1.0, ga.m)
    if bincount:
        want = np.bincount(ga.tails, x, ga.n)
    else:
        want = np.zeros(ga.n)
        want[ga.with_out] = np.add.reduceat(x[ga.out_eids], ga.out_ptr[ga.with_out])
    assert ga.tail_sums(x).tobytes() == want.tobytes()
    assert ga.out_sums(x).tobytes() == want[ga.with_out].tobytes()


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 5)])
def test_out_sum_kernels_agree_on_two_paths(m, n):
    """With every out-degree at most 2, ``np.bincount`` (0.0 + a + b) and
    ``reduceat`` (a + b) give the same bits on non-negative sums, zeros,
    subnormals and overflow included."""
    ga = build_two_path(m, n, [0.0] * (m - 1), [0.0] * (n - 1)).graph.arrays
    assert ga.out_by_bincount
    by_reduceat = copy.copy(ga)
    by_reduceat.out_by_bincount = False
    rng = np.random.default_rng(m * n)
    values = [0.0, 5e-324, 1e-310, 0.5, 1.0, 3.0, 1e308]
    for _ in range(200):
        x = rng.choice(values, ga.m) * rng.uniform(0.5, 1.0, ga.m)
        x[rng.random(ga.m) < 0.3] = 0.0
        assert ga.tail_sums(x).tobytes() == by_reduceat.tail_sums(x).tobytes()
        assert ga.out_sums(x).tobytes() == by_reduceat.out_sums(x).tobytes()


# -- planting ----------------------------------------------------------------


def test_plant_path_unique_shortest():
    g, planted = plant_path(gen_grid(10, 10), 9)
    assert planted.length == 9
    assert shortest_path(g) == planted
    assert count_shortest_paths(g) == 1


def test_plant_path_rejects_long():
    with pytest.raises(GraphError):
        plant_path(gen_grid(10, 10), 18)


def test_plant_band_ladder_pattern():
    g = gen_banded_gnp(100, 0.5, 10, 1)
    g2, ladder = plant_band_ladder(g, 10)
    # 1-based pattern (1,k+1),(k+1,2(k+1)),... stored 0-based
    assert ladder.vertices[:3] == (0, 10, 21)
    assert ladder.vertices[-1] == 99
    for u, v in ladder.edge_pairs():
        assert g2.has_edge(u, v)


# -- oracles -----------------------------------------------------------------


def test_shortest_path_two_path_and_unreachable():
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    assert shortest_path(tp.graph) == tp.top
    assert shortest_path(gen_gnp(5, 0.0, 7)) is None
    assert not is_connected(gen_gnp(5, 0.0, 7))


def test_shortest_path_lexicographic_tie_break():
    # two length-2 paths: 0->1->3 and 0->2->3; lexicographically smaller wins
    g = DirectedGraph(4, [(0, 2), (2, 3), (0, 1), (1, 3)], 0, 3)
    assert shortest_path(g).vertices == (0, 1, 3)


def test_path_leakage_hand_values():
    tp = build_two_path(2, 3, [0.0], [0.05, 0.0])
    assert path_leakage(tp.graph, tp.bottom) == pytest.approx(0.05)
    assert path_leakage(tp.graph, tp.top) == 0.0
    tp2 = build_two_path(2, 3, [0.0], [0.5, 0.5])
    assert path_leakage(tp2.graph, tp2.bottom) == pytest.approx(0.75)
    with pytest.raises(GraphError):
        path_leakage(tp.graph, Path((0, 3, 4)))  # missing edge


@given(
    st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=1, max_size=6),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_path_leakage_monotone_in_interior(leaks, extra):
    """Adding a leaky interior vertex strictly increases path leakage."""
    m = len(leaks) + 1
    base = build_two_path(m + 1, m + 2, leaks + [0.0], [0.0] * (m + 1))
    more = build_two_path(m + 1, m + 2, leaks + [extra], [0.0] * (m + 1))
    assert path_leakage(more.graph, more.top) > path_leakage(base.graph, base.top)


def test_min_leakage_two_path_and_uniform():
    tp = build_two_path(2, 3, [0.03], [0.05, 0.0])
    assert min_leakage_path(tp.graph) == tp.top
    # all-zero leakage: any simple path ties; lexicographic smallest sequence
    g = gen_grid(3, 3)
    p = min_leakage_path(g)
    assert p is not None and p.vertices[0] == 0 and p.vertices[-1] == 8


def test_min_leakage_absorbing_vertex():
    # interior with leakage 1 is unreachable-through
    g = DirectedGraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], 0, 3, [0, 1.0, 0.5, 0])
    assert min_leakage_path(g).vertices == (0, 2, 3)


def test_min_leakage_matches_brute_force_on_seeds():
    agree = 0
    for seed in range(100):
        rng = np.random.default_rng([seed, 77])
        n = int(rng.integers(6, 21))
        g = gen_gnp(n, 0.3, seed)
        lk = rng.uniform(0.0, 1.0, size=n)
        lk[g.source] = 0.0
        lk[g.destination] = 0.0
        g = g.with_leakage(lk)
        a = min_leakage_path(g)
        b = brute_force_min_leakage(g)
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b
        agree += 1
    assert agree == 100


def test_oracles_match_path_enumeration_with_ties():
    """Every oracle against the simple s->d paths of small G(n, p) draws.
    About half the vertices have zero leakage, so min-leakage ties need the
    reconstruction's reachability check, and about 10% have leakage 1."""
    kinds = {"tie": 0, "absorbing": 0, "unreachable": 0}
    for seed in range(300):
        rng = np.random.default_rng([seed, 15])
        n = int(rng.integers(4, 11))
        g = gen_gnp(n, float(rng.uniform(0.15, 0.6)), seed)
        lk = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 1.0, n))
        lk[rng.random(n) < 0.1] = 1.0
        lk[[g.source, g.destination]] = 0.0
        g = g.with_leakage(lk)
        paths = simple_paths(g)
        assert is_connected(g) == bool(paths)
        assert min_leakage_path(g) == brute_force_min_leakage(g)
        if not paths:
            assert shortest_path(g) is None and count_shortest_paths(g) == 0
            kinds["unreachable"] += 1
            continue
        hops = min(p.length for p in paths)
        shortest = [p for p in paths if p.length == hops]
        assert shortest_path(g) == shortest[0]
        assert count_shortest_paths(g) == len(shortest)
        kinds["tie"] += len(shortest) > 1
        kinds["absorbing"] += bool(np.any(lk == 1.0))
    assert min(kinds.values()) >= 10, kinds


# -- serialization -----------------------------------------------------------


def test_json_round_trip():
    tp = build_two_path(2, 3, [0.03], [0.05, 0.0])
    g = tp.graph
    g2 = DirectedGraph.from_json(g.to_json())
    assert g2.edges == g.edges
    assert g2.source == g.source and g2.destination == g.destination
    assert np.allclose(g2.leakage, g.leakage)


def test_dot_export():
    tp = build_two_path(2, 3, [0.03], [0.05, 0.0])
    dot = tp.graph.to_dot(edge_weights=[1.0, 1.0, 0.0, 0.0, 0.0])
    assert dot.startswith("digraph")
    assert 'color="green"' in dot and 'color="gray"' in dot
    assert dot.count("->") == 5


def test_dot_vertex_size_inverse_to_leakage():
    tp = build_two_path(2, 3, [0.6], [0.05, 0.0])
    dot = tp.graph.to_dot()
    sizes = {}
    for line in dot.splitlines():
        if "width=" in line and "->" not in line:
            vid = int(line.split()[0])
            sizes[vid] = float(line.split('width="')[1].split('"')[0])
    leaky_interior = tp.top.vertices[1]  # leakage 0.6
    light_interior = tp.bottom.vertices[1]  # leakage 0.05
    assert sizes[leaky_interior] < sizes[light_interior] < sizes[0]
