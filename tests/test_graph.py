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
    validate_path,
)
from trailflow.rules import DecisionRule, power_rule

from helpers import (
    ReferenceGraph,
    brute_force_min_leakage,
    edge_tuple,
    kernel_graphs,
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
    for eid, (u, v) in enumerate(edge_tuple(g)):
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
            DirectedGraph(10, edge_tuple(g), 0, 9, {bad: 0.5})
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
    assert edge_tuple(g) == ref.edges
    ga = g.arrays
    for v in range(ref.n_vertices):
        assert _segment(ga.out_eids, ga.out_ptr, v) == ref.out[v]
        assert _segment(ga.in_eids, ga.in_ptr, v) == ref.inc[v]
    assert dict(zip(ref.edges, g.edge_ids(ref.edges).tolist())) == ref.edge_ids
    assert g.survival.tolist() == (1.0 - ref.leakage).tolist()
    got, want = vars(g.arrays), vars(GraphArrays(ref))
    assert got.keys() - want.keys() == {"edge_keys"}  # built by the lookup above
    for name in want:
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
    leak = np.full(30, 0.25)
    g2 = g.with_leakage(leak)
    assert g2.tails is g.tails and g2.heads is g.heads and g2.arrays is g.arrays
    assert g2.survival[1] == 0.75 and g.survival[1] == 1.0
    assert g.leakage[1] == 0.0
    ref = ReferenceGraph(30, edge_tuple(g), 0, 29, g2.leakage)
    _assert_matches_reference(g2, ref)


def test_edge_and_leakage_arrays_are_read_only():
    """The arrays a graph shares with its ``with_leakage`` copies, and from
    which ``GraphArrays`` derives its grouping once, refuse writes."""
    g = gen_gnp(30, 0.2, 5)
    g2 = g.with_leakage(np.full(30, 0.25))
    for arr in (g.tails, g.heads, g.leakage, g.survival, g2.leakage, g2.survival):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        g.tails[:] = g.heads
    # the engine's bincount bins stay writable (a read-only one is copied on
    # every call)
    ga = g.arrays
    assert ga.tail_bins.flags.writeable and ga.head_bins.flags.writeable
    assert ga.tail_bins.tolist() == g.tails.tolist() and ga.head_bins.tolist() == g.heads.tolist()


# -- edge lookup ----------------------------------------------------------------

ALIAS_GRAPH = DirectedGraph(5, [(0, 1), (1, 2), (0, 2), (2, 4)], 0, 4)


@pytest.mark.parametrize("pair", [(0, 7), (1, -3)])
def test_edge_lookup_rejects_a_vertex_out_of_range(pair):
    """On n = 5, (0, 7) has the key u*n + v of edge (1, 2) and (1, -3) that
    of edge (0, 2): the range is checked before a key is formed."""
    g = ALIAS_GRAPH
    with pytest.raises(GraphError, match="out of range"):
        g.edge_ids([pair])
    with pytest.raises(GraphError, match="out of range"):
        g.edge_ids([(0, 1), pair])
    with pytest.raises(GraphError, match="out of range"):
        validate_path(g, Path((0, *pair[1:], 4)))


def test_edge_ids_are_edge_positions():
    """Every edge of every kernel graph, looked up as a sequence of pairs,
    as an (m, 2) array and one pair at a time, has its position as id."""
    for g, _ in kernel_graphs():
        pairs = edge_tuple(g)
        ids = np.arange(g.n_edges)
        assert np.array_equal(g.edge_ids(pairs), ids)
        assert np.array_equal(g.edge_ids(np.column_stack([g.tails, g.heads])), ids)
        assert [int(g.edge_ids([pair])[0]) for pair in pairs] == ids.tolist()
        assert np.array_equal(g.edge_ids(pairs[::-1]), ids[::-1])


def test_edge_lookup_names_the_first_missing_pair():
    g = ALIAS_GRAPH
    with pytest.raises(GraphError, match=r"no edge \(1,0\)"):
        g.edge_ids([(1, 0)])
    with pytest.raises(GraphError, match=r"no edge \(3,4\)"):
        g.edge_ids([(0, 1), (3, 4), (4, 0)])
    with pytest.raises(GraphError, match=r"no edge \(1,4\)"):
        validate_path(g, Path((0, 1, 4)))
    assert g.edge_ids([]).shape == (0,)


def test_edge_key_table_is_lazy_and_shared():
    """The key table is built on the first lookup, once for a graph and
    its ``with_leakage`` copies, and skips the sort when the keys already
    increase."""
    g = gen_gnp(30, 0.2, 5)
    g2 = g.with_leakage(np.full(30, 0.25))
    assert "edge_keys" not in vars(g.arrays)
    assert g2.edge_ids([(int(g.tails[3]), int(g.heads[3]))]).tolist() == [3]
    assert "edge_keys" in vars(g.arrays) and g.arrays.edge_keys[1] is None
    tp = build_two_path(2, 3, [0.0], [0.0, 0.0])
    assert tp.graph.arrays.edge_keys[1] is not None  # the bottom chain starts below the top's keys
    assert tp.path_eids("bottom") == [2, 3, 4]


def test_leakage_copies_share_one_edge_structure():
    """A ``with_leakage`` copy made before the first use of the pair index,
    the branch tables, the key table and a ``derive`` builder, and one made
    after, share the graph's ``arrays``; each of those is built once, by
    whichever graph uses it first."""
    g = build_two_path(2, 3, [0.1], [0.2, 0.3]).graph
    early = g.with_leakage([0.0, 0.5, 0.0, 0.0, 0.0])
    assert not {"pair", "branches", "edge_keys"} & vars(g.arrays).keys()
    builds = []

    def build(ga):
        builds.append(ga)
        return object()

    made = (early.arrays.pair, early.arrays.branches, early.arrays.derive(build))
    assert early.edge_ids([(0, 1)]).tolist() == [0]
    keys = early.arrays.edge_keys
    late = g.with_leakage({2: 0.5})
    for twin in (early, late):
        assert twin.arrays is g.arrays
        assert twin.tails is g.tails and twin.heads is g.heads
    for graph in (g, early, late):
        assert graph.edge_ids([(3, 4)]).tolist() == [4]
        assert graph.arrays.edge_keys is keys
        got = (graph.arrays.pair, graph.arrays.branches, graph.arrays.derive(build))
        assert all(a is b for a, b in zip(got, made))
    assert builds == [g.arrays]
    # only the leakage and the survival differ
    assert early.survival.tolist() == [1.0, 0.5, 1.0, 1.0, 1.0]
    assert late.survival.tolist() == [1.0, 0.9, 0.5, 0.7, 1.0]
    assert g.survival.tolist() == [1.0, 0.9, 0.8, 0.7, 1.0]


@pytest.mark.parametrize("bad", [1.5, True, np.bool_(True), "1"])
def test_leakage_mapping_rejects_a_vertex_id_that_is_no_integer(bad):
    """``int`` would take 1.5 and True as vertex 1."""
    g = gen_grid(3, 3)
    with pytest.raises(GraphError, match="not an integer"):
        g.with_leakage({bad: 0.3})
    with pytest.raises(GraphError, match="not an integer"):
        DirectedGraph(9, edge_tuple(g), 0, 8, {bad: 0.3})


def test_leakage_mapping_takes_numpy_integer_ids():
    g = gen_grid(3, 3)
    for v in (np.int64(1), np.int32(1), np.uint8(1)):
        assert g.with_leakage({v: 0.3}).leakage.tolist() == [0.0, 0.3] + [0.0] * 7


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_generators_match_reference_edges(seed):
    """Every generator and planting helper lists the reference loops' edge
    tuples, in their order."""
    assert edge_tuple(gen_gnp(40, 0.1, seed)) == tuple(reference_gnp_edges(40, 0.1, seed))
    assert edge_tuple(gen_gnp(12, 1.0, seed)) == tuple(reference_gnp_edges(12, 1.0, seed))
    banded = gen_banded_gnp(60, 0.5, 5, seed)
    assert edge_tuple(banded) == tuple(reference_gnp_edges(60, 0.5, seed, band=5))
    rows, cols = 2 + seed % 5, 2 + seed % 3
    assert edge_tuple(gen_grid(rows, cols)) == tuple(reference_grid_edges(rows, cols))
    m, n = 2 + seed % 3, 2 + seed % 4
    two_path = build_two_path(m, n, [0.0] * (m - 1), [0.0] * (n - 1)).graph
    assert edge_tuple(two_path) == tuple(reference_two_path_edges(m, n))
    g, planted = plant_path(gen_grid(rows + 3, cols + 3), 4)
    base = reference_grid_edges(rows + 3, cols + 3)
    assert edge_tuple(g) == tuple(reference_planted_edges(base, planted.vertices))
    g, ladder = plant_band_ladder(banded, 5)
    base = reference_gnp_edges(60, 0.5, seed, band=5)
    assert edge_tuple(g) == tuple(reference_planted_edges(base, ladder.vertices))


# -- two-path builder --------------------------------------------------------


def test_build_two_path_hand_values():
    tp = build_two_path(2, 3, [0.03], [0.05, 0.0])
    assert tp.graph.n_vertices == 5
    assert tp.graph.n_edges == 5
    assert path_leakage(tp.graph, tp.top) == pytest.approx(0.03)
    assert path_leakage(tp.graph, tp.bottom) == pytest.approx(1 - (1 - 0.05) * (1 - 0.0))


def test_build_two_path_zero_leakage():
    tp = build_two_path(2, 2, [0.0], [0.0])
    assert path_leakage(tp.graph, tp.top) == 0.0
    assert path_leakage(tp.graph, tp.bottom) == 0.0


def test_build_two_path_heavy_leakage():
    tp = build_two_path(2, 3, [0.5], [0.5, 0.5])
    assert path_leakage(tp.graph, tp.top) == pytest.approx(0.5)
    assert path_leakage(tp.graph, tp.bottom) == pytest.approx(0.75)


def test_build_two_path_errors():
    with pytest.raises(GraphError):
        build_two_path(2, 3, [0.1, 0.1], [0.0, 0.0])  # length mismatch
    with pytest.raises(GraphError):
        build_two_path(2, 3, [1.0], [0.0, 0.0])  # leakage out of range
    with pytest.raises(GraphError):
        build_two_path(1, 3, [], [0.0, 0.0])  # no interior vertex


def test_build_two_path_survival_products():
    tp = build_two_path_survival(4, 5, 0.9, 0.8)
    assert 1.0 - path_leakage(tp.graph, tp.top) == pytest.approx(0.9)
    assert 1.0 - path_leakage(tp.graph, tp.bottom) == pytest.approx(0.8)


# -- generators --------------------------------------------------------------


def test_gnp_expectation_over_seeds():
    counts = [gen_gnp(100, 0.05, s).n_edges for s in range(100)]
    mean = sum(counts) / len(counts)
    # 100*99*0.05 = 495 expected edges; 3 sigma of the 100-seed mean
    sigma_mean = math.sqrt(100 * 99 * 0.05 * 0.95 / 100)
    assert abs(mean - 495.0) <= 3 * sigma_mean


def test_gnp_extremes():
    g = gen_gnp(2, 1.0, 0)
    assert set(edge_tuple(g)) == {(0, 1), (1, 0)}
    assert gen_gnp(5, 0.0, 7).n_edges == 0
    with pytest.raises(GraphError):
        gen_gnp(1, 0.5, 0)


def test_gnp_reproducible():
    assert edge_tuple(gen_gnp(50, 0.1, 123)) == edge_tuple(gen_gnp(50, 0.1, 123))


def test_banded_gnp_band():
    g = gen_banded_gnp(100, 0.5, 10, 1)
    with pytest.raises(GraphError, match=r"no edge \(0,99\)"):
        g.edge_ids([(0, 99)])
    assert all(abs(u - v) <= 10 for u, v in edge_tuple(g))
    g2 = gen_banded_gnp(10, 1.0, 1, 0)
    assert set(edge_tuple(g2)) == {(i, i + 1) for i in range(9)} | {(i + 1, i) for i in range(9)}
    g3 = gen_banded_gnp(1000, 0.5, 40, 3)
    assert all(abs(u - v) <= 40 for u, v in edge_tuple(g3))


@pytest.mark.parametrize("n,p,k,seed", [(30, 0.2, 3, 0), (100, 0.5, 10, 1), (60, 1.0, 2, 7)])
def test_banded_gnp_is_the_band_of_gnp(n, p, k, seed):
    """The banded draw keeps the edges of the same seed's G(n, p) within
    the band, and checks p as G(n, p) does."""
    band = tuple((u, v) for u, v in edge_tuple(gen_gnp(n, p, seed)) if abs(u - v) <= k)
    assert edge_tuple(gen_banded_gnp(n, p, k, seed)) == band
    for bad in (1.5, -0.2, math.nan):
        with pytest.raises(GraphError, match=r"p must lie in \[0, 1\]"):
            gen_banded_gnp(n, bad, k, seed)


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
    g2.edge_ids(ladder.edge_pairs())  # raises for a hop that is not an edge


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


# -- export ------------------------------------------------------------------


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
