import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspmetric import (
    CUT_PARAMETER_CAP,
    VERTEX_CAP,
    CutParameters,
    DisconnectedGraphError,
    Graph,
    NotEnoughEdgesError,
    Seed,
    SizeCapExceededError,
    WeightedGraph,
    build_metric,
    complete_graph,
    cut_parameters_exact,
    cycle_graph,
    draw_weights,
    erdos_renyi_graphs,
    generate_erdos_renyi,
    is_connected,
    path_graph,
    read_graph,
    star_graph,
    sum_lightest_edges,
    weighted_graphs,
    write_graph,
)
from rspmetric import graphs as graphs_module
from rspmetric.graphs import _normalized_edges
from oracles import (
    cut_parameters_brute,
    erdos_renyi_pairs,
    normalized_edges_lexsort,
    stream_exponentials,
)

Z99 = 2.5758293035489004


# -- Graph type ---------------------------------------------------------------


def test_graph_normalizes_edge_order():
    g = Graph(3, ((3, 1), (2, 1)))
    assert g.edges.tolist() == [[1, 2], [1, 3]]
    assert Graph(3, np.array([[3, 1], [2, 1]])) == g
    assert Graph(3, np.array([[3.0, 1.0], [2.0, 1.0]])) == g


@pytest.mark.parametrize(
    "n,edges",
    [(3, ((1, 1),)), (3, ((1, 2), (2, 1))), (3, ((1, 4),)), (3, ((0, 1),)), (0, ()),
     (3, ((1.5, 3), (2, 3))), (3, (1, 2)), (3, ((1, 2, 3),)), (3.5, ((1, 2), (2, 3)))],
)
def test_graph_rejects_invalid_input(n, edges):
    with pytest.raises(ValueError):
        Graph(n, edges)


@pytest.mark.parametrize("n", [4.0, np.int64(4), np.float64(4.0)], ids=["float", "int64", "float64"])
def test_graph_accepts_an_integral_vertex_count_and_stores_an_int(n):
    g = Graph(n, ((1, 2), (2, 3), (3, 4)))
    assert type(g.n) is int and g == path_graph(4)
    assert cut_parameters_exact(g) == cut_parameters_exact(path_graph(4))


def test_weighted_graph_needs_positive_weights_per_edge():
    g = path_graph(3)
    with pytest.raises(ValueError):
        WeightedGraph(g, (0.5,))
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            WeightedGraph(g, (0.5, bad))
    source = np.array([1, 2])
    wg = WeightedGraph(g, source)
    source[0] = 7  # the graph owns a copy
    assert wg.weights.tolist() == [1.0, 2.0]
    assert wg.weights.dtype == np.float64 and not wg.weights.flags.writeable


def test_edges_are_a_read_only_int32_array_and_survive_pickling():
    g = Graph(4, ((3, 1), (2, 4), (1, 2)))
    assert g.edges.tolist() == [[1, 2], [1, 3], [2, 4]]
    assert g.edges.dtype == np.int32 and not g.edges.flags.writeable
    assert Graph(3, ()).edges.shape == (0, 2)
    wg = WeightedGraph(g, (0.5, 0.25, 2.0))
    copy = pickle.loads(pickle.dumps(wg))
    assert copy == wg and copy.graph == g
    assert not copy.graph.edges.flags.writeable and not copy.weights.flags.writeable


EDGE_DTYPES = [np.int32, np.int64, np.uint16, np.uint64, np.float32, np.float64]


@st.composite
def edge_inputs(draw):
    """(n, edges): distinct pairs sorted, shuffled or with swapped ends, in one of
    EDGE_DTYPES, sometimes with a duplicate, a loop, an id out of range, a
    non-integral id, NaN or inf written into one entry."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rows = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    order = draw(st.sampled_from(["sorted", "shuffled", "swapped"]))
    if order == "sorted":
        rows.sort()
    elif order == "swapped":
        rows = [(v, u) if draw(st.booleans()) else (u, v) for u, v in rows]
    dtype = np.dtype(draw(st.sampled_from(EDGE_DTYPES)))
    arr = np.array(rows, dtype=np.float64).reshape(-1, 2)
    flaws = ["none", "duplicate", "loop", "outside"] + (["fraction", "nan", "inf"] if dtype.kind == "f" else [])
    flaw = draw(st.sampled_from(flaws))
    if flaw == "duplicate" and len(arr):
        i = draw(st.integers(0, len(arr) - 1))
        arr = np.insert(arr, draw(st.integers(0, len(arr))), arr[i][::draw(st.sampled_from([1, -1]))], axis=0)
    elif flaw == "loop":
        at = draw(st.integers(0, len(arr)))
        arr = np.insert(arr, at, draw(st.integers(0, n + 1)), axis=0)
    elif flaw != "none" and len(arr):
        outside = [0, n + 1, n + 1000] + ([-1] if dtype.kind != "u" else [])
        value = {"outside": draw(st.sampled_from(outside)), "fraction": draw(st.integers(1, n)) + 0.5,
                 "nan": np.nan, "inf": draw(st.sampled_from([np.inf, -np.inf]))}[flaw]
        arr[draw(st.integers(0, len(arr) - 1)), draw(st.integers(0, 1))] = value
    return n, arr.astype(dtype)


@given(edge_inputs())
@settings(max_examples=600, deadline=None)
def test_normalized_edges_equal_the_lexsort_oracle(case):
    n, edges = case
    try:
        expected = normalized_edges_lexsort(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _normalized_edges(n, edges)
        assert str(got.value) == str(exc)
        return
    out, perm = _normalized_edges(n, edges)
    for got, want in zip((out, perm), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 50, 400])
def test_rows_in_order_are_kept_with_the_identity_permutation(n):
    edges = complete_graph(n).edges
    for rows in (edges, edges[::3], edges.astype(np.float64), edges.tolist()):
        out, perm = _normalized_edges(n, rows)
        want, want_perm = normalized_edges_lexsort(n, rows)
        assert np.array_equal(out, want) and np.array_equal(perm, want_perm)
        assert np.array_equal(perm, np.arange(len(out)))
    shuffled = np.random.default_rng(n).permutation(edges)[:, ::-1]
    out, perm = _normalized_edges(n, shuffled)
    assert np.array_equal(out, edges) and np.array_equal(shuffled[perm][:, ::-1], edges)


def test_vertex_ids_beyond_int32_are_refused():
    # 3e9 used to be accepted, its edge stored as [[-1294967297, 1]]
    limit = np.iinfo(np.int32).max
    with pytest.raises(ValueError, match=f"exceeds {limit}"):
        Graph(3_000_000_000, [(1, 2_999_999_999)])
    with pytest.raises(ValueError, match=f"exceeds {limit}"):
        Graph(limit + 1, ())
    g = Graph(limit, [(limit, 1), (2, limit - 1)])
    assert g.edges.tolist() == [[1, limit], [2, limit - 1]]


def test_complete_graph_is_built_below_the_old_peak():
    # row reductions, a lexsort and int64 triu_indices peaked at 26.7 MiB here
    complete_graph(1000)
    tracemalloc.start()
    try:
        graph = complete_graph(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.m == 499_500
    assert peak < 24 << 20


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(1, 0), (4, 6), (10, 45)])
def test_complete_graph_edge_count(n, m):
    g = complete_graph(n)
    assert g.m == m
    assert set(map(tuple, g.edges.tolist())) == {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)}


def test_named_graphs():
    assert path_graph(3).edges.tolist() == [[1, 2], [2, 3]]
    assert star_graph(4).edges.tolist() == [[1, 2], [1, 3], [1, 4]]
    assert cycle_graph(4).m == 4


def test_erdos_renyi_extremes():
    assert generate_erdos_renyi(5, 1.0, Seed(1)) == complete_graph(5)
    assert generate_erdos_renyi(5, 0.0, Seed(1)).m == 0


@pytest.mark.parametrize("seed", [None, 7, "7"], ids=["None", "int", "str"])
def test_random_draws_need_a_seed_object(seed):
    # None used to raise AttributeError from inside the stream
    with pytest.raises(TypeError, match="Seed"):
        generate_erdos_renyi(5, 0.5, seed)
    with pytest.raises(TypeError, match="Seed"):
        draw_weights(complete_graph(5), seed)


GENERATORS = [complete_graph, path_graph, star_graph, cycle_graph,
              lambda n: generate_erdos_renyi(n, 0.5, Seed(1))]


@pytest.mark.parametrize("make", GENERATORS, ids=["complete", "path", "star", "cycle", "er"])
@pytest.mark.parametrize("n", [True, 3.0, 1.5, np.float64(3.0), "4"])
def test_vertex_counts_must_be_integers(make, n):
    # True used to build K_1 and a one-vertex path, and 3.0 K_3
    with pytest.raises(TypeError, match="n must be an integer"):
        make(n)


@pytest.mark.parametrize("make", GENERATORS, ids=["complete", "path", "star", "cycle", "er"])
def test_vertex_counts_may_be_numpy_integers(make):
    assert make(np.int64(4)) == make(4)


def test_erdos_renyi_is_deterministic():
    assert generate_erdos_renyi(30, 0.4, Seed(99)) == generate_erdos_renyi(30, 0.4, Seed(99))
    assert generate_erdos_renyi(30, 0.4, Seed(99)) != generate_erdos_renyi(30, 0.4, Seed(100))


def test_erdos_renyi_mean_edge_count():
    """Mean edge count over 1000 seeds sits in the 99% binomial CI around 1485."""
    counts = [generate_erdos_renyi(100, 0.3, Seed(s)).m for s in range(1000)]
    mean = sum(counts) / len(counts)
    expected = 4950 * 0.3
    half_width = Z99 * math.sqrt(4950 * 0.3 * 0.7 / 1000)
    assert abs(mean - expected) < half_width


# -- weights ------------------------------------------------------------------


def test_draw_weights_is_bit_deterministic():
    g = complete_graph(12)
    assert draw_weights(g, Seed(5)).weights.tolist() == draw_weights(g, Seed(5)).weights.tolist()


def test_draw_weights_ignores_edge_construction_order():
    edges = ((1, 2), (2, 3), (1, 3))
    shuffled = ((3, 1), (1, 2), (3, 2))
    assert draw_weights(Graph(3, edges), Seed(8)) == draw_weights(Graph(3, shuffled), Seed(8))


def test_draw_weights_empty_graph():
    assert draw_weights(Graph(4, ()), Seed(1)).weights.tolist() == []


# -- a window's draws: many seeds, one kernel call each ---------------------------

WINDOW_GRAPH_SEEDS = [Seed(s).child(0, "graph") for s in range(20)]
WINDOW_WEIGHT_SEEDS = [Seed(s).child(0, "weights") for s in range(20)]


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 5, 16, 40])
def test_window_draws_are_the_per_seed_draws(n, p):
    want_edges = [erdos_renyi_pairs(n, p, s.master) for s in WINDOW_GRAPH_SEEDS]
    want_weights = [stream_exponentials(s.master, len(e))
                    for s, e in zip(WINDOW_WEIGHT_SEEDS, want_edges)]
    if p == 0.3 and n >= 5:  # windows of graphs with unequal m
        assert len({len(e) for e in want_edges}) > 1
    for size in (1, 3, 16):
        for lo in range(0, 20, size):
            window = slice(lo, lo + size)
            seeds, weight_seeds = WINDOW_GRAPH_SEEDS[window], WINDOW_WEIGHT_SEEDS[window]
            graphs = erdos_renyi_graphs(n, p, seeds)
            assert [[tuple(e) for e in g.edges.tolist()] for g in graphs] == want_edges[window]
            assert graphs == [generate_erdos_renyi(n, p, s) for s in seeds]
            weights = [wg.weights.tolist() for wg in weighted_graphs(graphs, weight_seeds)]
            assert weights == want_weights[window]
            assert weights == [draw_weights(g, s).weights.tolist()
                               for g, s in zip(graphs, weight_seeds)]


@pytest.mark.parametrize("p", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("n", (1, 2, 5, 16))
def test_window_draws_hold_the_rows_a_checked_graph_holds(n, p):
    # the draws skip Graph's row checks: their rows must be the ones it keeps
    for graph in erdos_renyi_graphs(n, p, [Seed(s) for s in range(20)]):
        assert graph == Graph(n, graph.edges)
        assert type(graph.n) is int and graph.n == n
        assert graph.edges.dtype == np.int32 and graph.edges.shape == (graph.m, 2)
        assert not graph.edges.flags.writeable
        assert graph.edges.flags.c_contiguous


def test_one_graph_draws_its_weights_below_the_old_peak():
    # the kernel's steps out of place peaked at 15.2 MiB (CPython 3.11, numpy 2.4)
    graph = complete_graph(1000)
    draw_weights(graph, Seed(0))
    tracemalloc.start()
    try:
        wg = draw_weights(graph, Seed(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(wg.weights) == 499_500
    assert peak < 13 << 20


def test_weights_of_unequal_graphs_are_each_graphs_own_draw():
    graphs = [complete_graph(6), Graph(4, ()), path_graph(3), complete_graph(6)]
    seeds = [Seed(s) for s in (1, 2, 3, 1)]
    weighted = weighted_graphs(graphs, seeds)
    assert [wg.graph for wg in weighted] == graphs
    assert [wg.weights.tolist() for wg in weighted] == [
        stream_exponentials(s.master, g.m) for g, s in zip(graphs, seeds)]
    assert weighted_graphs([], []) == []
    assert erdos_renyi_graphs(5, 0.5, []) == []


def test_window_draws_refuse_a_non_seed_and_unmatched_lists():
    with pytest.raises(TypeError, match="seed must be a Seed"):
        erdos_renyi_graphs(5, 0.5, [Seed(1), 7])
    with pytest.raises(TypeError, match="seed must be a Seed"):
        weighted_graphs([path_graph(3), path_graph(3)], [Seed(1), None])
    with pytest.raises(ValueError, match="one seed per graph"):
        weighted_graphs([path_graph(3)], [Seed(1), Seed(2)])


@pytest.mark.parametrize("bad", [0.0, math.inf], ids=["zero", "inf"])
def test_a_bad_draw_in_one_row_of_a_window_raises_the_one_graph_error(bad, monkeypatch):
    # the window's block of draws is checked once, not graph by graph
    graphs = [complete_graph(5), path_graph(5), complete_graph(5)]
    seeds = [Seed(s) for s in range(3)]
    weighted = weighted_graphs(graphs, seeds)
    assert not any(wg.weights.flags.writeable for wg in weighted)
    real = graphs_module.exponential_rows

    def corrupted(seeds, count):
        w = real(seeds, count)
        w[1, 2] = bad
        return w

    with pytest.raises(ValueError) as single:
        WeightedGraph(graphs[1], np.where(np.arange(4) == 2, bad, 1.0))
    monkeypatch.setattr(graphs_module, "exponential_rows", corrupted)
    with pytest.raises(ValueError) as window:
        weighted_graphs(graphs, seeds)
    assert str(window.value) == str(single.value)


def test_pooled_weight_mean_is_one():
    """10^4+ pooled draws of the unit exponential average to 1 within the 99% CI."""
    g = complete_graph(50)
    pooled = np.concatenate([draw_weights(g, Seed(s)).weights for s in range(10)])
    assert len(pooled) >= 10_000
    half_width = Z99 / math.sqrt(len(pooled))  # sd of Exp(1) is 1
    assert abs(pooled.mean() - 1.0) < half_width


# -- cut parameters -----------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_complete_graph_cut_parameters_are_exactly_one(n):
    assert cut_parameters_exact(complete_graph(n)) == CutParameters(1.0, 1.0)


def test_path_and_star_match_oracle():
    for graph, expected in [(path_graph(3), (Fraction(1, 2), Fraction(1))),
                            (star_graph(4), (Fraction(1, 3), Fraction(1)))]:
        cut = cut_parameters_exact(graph)
        lo, hi = cut_parameters_brute(graph)
        assert (lo, hi) == expected
        assert cut.alpha == pytest.approx(float(lo), abs=1e-15)
        assert cut.beta == pytest.approx(float(hi), abs=1e-15)


def test_is_connected_takes_a_complete_graph_at_its_edge_count():
    # n(n-1)/2 edges, the most a simple graph has, is K_n: no search is built
    graph = complete_graph(1500)
    tracemalloc.start()
    try:
        assert is_connected(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert all(is_connected(complete_graph(n)) for n in (1, 2, 3, 7))
    k6 = complete_graph(6).edges
    assert is_connected(Graph(6, k6[1:]))  # one edge short of K_6: searched
    assert not is_connected(Graph(6, k6[k6[:, 0] != 1]))  # K_5 on 2..6, vertex 1 alone
    assert not is_connected(Graph(2, []))


def test_cut_parameters_reject_disconnected():
    with pytest.raises(DisconnectedGraphError):
        cut_parameters_exact(Graph(4, ((1, 2), (3, 4))))


def test_cut_parameters_cap():
    # K_n less one edge: complete graphs need no table at any n
    n = CUT_PARAMETER_CAP + 1
    with pytest.raises(SizeCapExceededError):
        cut_parameters_exact(Graph(n, complete_graph(n).edges[1:]))


def test_vertex_cap_fires_before_any_pair_is_built():
    n = VERTEX_CAP + 1
    with pytest.raises(SizeCapExceededError):
        complete_graph(n)
    with pytest.raises(SizeCapExceededError):
        generate_erdos_renyi(n, 1.0, Seed(1))
    with pytest.raises(SizeCapExceededError):
        build_metric(draw_weights(Graph(n, ()), Seed(1)))  # an imported graph


@pytest.mark.parametrize("n", (CUT_PARAMETER_CAP + 1, 30, 200))
def test_complete_graph_cut_parameters_beyond_the_cap(n):
    # every cut of K_n has |U|(n - |U|) edges, so no table is built
    assert cut_parameters_exact(complete_graph(n)) == CutParameters(1.0, 1.0)


def test_cut_parameters_match_oracle_on_random_graphs():
    for seed in range(40):
        g = generate_erdos_renyi(7, 0.6, Seed(seed))
        if not is_connected(g):
            continue
        cut = cut_parameters_exact(g)
        lo, hi = cut_parameters_brute(g)
        assert cut.alpha == pytest.approx(float(lo), abs=1e-15)
        assert cut.beta == pytest.approx(float(hi), abs=1e-15)


def test_cut_bounds_hold_for_every_subset():
    """alpha*mu_U <= |cut(U)| <= beta*mu_U, re-enumerated independently."""
    import itertools

    g = generate_erdos_renyi(9, 0.7, Seed(3))
    assert is_connected(g)
    cut = cut_parameters_exact(g)
    n = g.n
    for size in range(1, n):
        for combo in itertools.combinations(range(1, n + 1), size):
            inside = set(combo)
            c = sum(1 for u, v in g.edges.tolist() if (u in inside) != (v in inside))
            mu = size * (n - size)
            assert cut.alpha * mu <= c + 1e-9
            assert c <= cut.beta * mu + 1e-9


# -- lightest edges -----------------------------------------------------------


def test_sum_lightest_edges_examples():
    wg = WeightedGraph(path_graph(4), (0.5, 1.2, 0.3))
    assert sum_lightest_edges(wg, 2) == pytest.approx(0.8)
    assert sum_lightest_edges(wg, 0) == 0.0
    assert sum_lightest_edges(wg, 3) == pytest.approx(2.0)
    with pytest.raises(NotEnoughEdgesError):
        sum_lightest_edges(wg, 4)


@pytest.mark.parametrize("m", [1.5, True, np.True_, 2.0])
def test_sum_lightest_edges_count_must_be_an_integer(m):
    # 1.5 used to leak numpy's slice-index TypeError, and True to sum one edge
    wg = WeightedGraph(path_graph(4), (0.5, 1.2, 0.3))
    with pytest.raises(TypeError, match="m must be an integer"):
        sum_lightest_edges(wg, m)
    assert sum_lightest_edges(wg, np.int64(2)) == sum_lightest_edges(wg, 2)


@given(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_sum_lightest_edges_is_monotone(weights):
    wg = WeightedGraph(star_graph(len(weights) + 1), tuple(weights))
    sums = [sum_lightest_edges(wg, m) for m in range(len(weights) + 1)]
    assert all(a <= b + 1e-12 for a, b in zip(sums, sums[1:]))


# -- file format --------------------------------------------------------------


def test_graph_file_round_trip(tmp_path):
    g = generate_erdos_renyi(9, 0.5, Seed(17))
    path = str(tmp_path / "g.txt")
    write_graph(path, g)
    assert read_graph(path) == g
    with open(path) as fh:
        first = fh.readline().split()
    assert first == [str(g.n), str(g.m)]


def test_weighted_graph_file_round_trip(tmp_path):
    wg = draw_weights(generate_erdos_renyi(9, 0.5, Seed(18)), Seed(19))
    path = str(tmp_path / "g.txt")
    write_graph(path, wg)
    back = read_graph(path)
    assert back == wg  # 17 significant digits round-trip doubles exactly
    (tmp_path / "unsorted.txt").write_text("3 2\n3 2 0.5\n2 1 0.25\n")
    back = read_graph(str(tmp_path / "unsorted.txt"))
    assert back == WeightedGraph(path_graph(3), (0.25, 0.5))


def test_read_graph_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1 2 0.5 9\n")
    with pytest.raises(ValueError):
        read_graph(str(path))
    path.write_text("2 2\n1 2\n")
    with pytest.raises(ValueError):
        read_graph(str(path))


def test_read_graph_takes_integral_float_ids(tmp_path):
    # ids are read as numbers: 1.0 and 2e0 are vertices 1 and 2; 1.5 is refused
    path = tmp_path / "g.txt"
    path.write_text("3 2\n1.0 2\n3 2e0\n")
    assert read_graph(str(path)) == path_graph(3)


def test_read_graph_refuses_vertex_ids_beyond_int32(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3000000000 1\n1 2999999999\n")
    with pytest.raises(ValueError, match=f"exceeds {np.iinfo(np.int32).max}"):
        read_graph(str(path))


def test_read_graph_of_no_edges_raises_no_warning(tmp_path):
    path = tmp_path / "g.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when loadtxt finds no data
        for text in ("3 0", "3 0\n", "3 0\n\n \t\n"):
            path.write_text(text)
            assert read_graph(str(path)) == Graph(3, ())
        path.write_text("3 1\n\n")
        with pytest.raises(ValueError, match="expected 1 edge lines, found 0"):
            read_graph(str(path))
