"""Whole-array kernels against their one-element-at-a-time references.

Shortest paths, tau profiles, greedy matching, nearest neighbour,
insertion, 2-opt, the clustering and the cut parameters run as numpy passes; ``tests/oracles.py``
keeps the loop versions with the same arithmetic and tie rules.  Outputs are
compared with ``==``: tours, pairs, cost sequences, exchange counts, prefix
cuts, clusters with their diameters and (alpha, beta), and whole distance
tables with ``np.array_equal``.  The graph and metric files are read and
written by numpy's text I/O; the per-line readers and the per-entry writer
there must give equal graphs, equal tables and the same bytes.
"""

import dataclasses
import itertools
import math
import multiprocessing
import os
import threading
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspmetric import (
    DisconnectedGraphError,
    ExperimentConfig,
    Graph,
    Metric,
    Seed,
    WeightedGraph,
    build_metric,
    build_metrics,
    cluster_arrays,
    cluster_partition,
    complete_graph,
    cut_parameters_exact,
    cycle_graph,
    diameter,
    draw_weights,
    erdos_renyi_graphs,
    exact_cut_parameters,
    generate_erdos_renyi,
    greedy_matching,
    has_improving_exchange,
    insertion_tour,
    is_connected,
    nearest_neighbor_tour,
    path_graph,
    prefix_cuts,
    read_graph,
    read_metric,
    run_suite,
    star_graph,
    tau_profile,
    two_opt,
    weighted_graphs,
    write_graph,
    write_metric,
)
from scipy.sparse.csgraph import dijkstra

from rspmetric import metric as metric_module
from rspmetric.errors import SizeCapExceededError
from rspmetric.graphs import CUT_BLOCK, CUT_PARAMETER_CAP, CutParameters, _split_bit_rows
from rspmetric.heuristics import Tour
from rspmetric.metric import (
    BATCH_VERTICES,
    DENSE_N,
    PROFILE_BLOCK,
    _certified_apsp,
    _check_tables,
    _dense_rows,
    _dijkstra_rows,
    _symmetric_csr,
    _union_rows,
    prune_width,
    usable_cpus,
)
from conftest import (
    all_ones_metric,
    points_on_line,
    rsp_instance,
    small_integer_metric,
    stacked_clusterings,
)
from oracles import (
    cluster_partition_loop,
    cut_parameters_enum,
    dijkstra_full,
    greedy_matching_scan,
    has_improving_exchange_loop,
    insertion_loop,
    nearest_neighbor_loop,
    read_graph_lines,
    read_metric_lines,
    tau_profile_loop,
    two_opt_loop,
    write_metric_lines,
)

RULES = ("nearest", "farthest", "cheapest", "random")


def assert_same_greedy(metric):
    got = greedy_matching(metric)
    assert (got.pairs, got.cost) == greedy_matching_scan(metric.dist)


def assert_same_nn(metric):
    for start in range(1, metric.n + 1):
        got = nearest_neighbor_tour(metric, start)
        assert (got.order, got.cost) == nearest_neighbor_loop(metric.dist, start), start


def assert_same_insertion(metric, rules=RULES):
    for rule in rules:
        seed = Seed(metric.n) if rule == "random" else None
        got = insertion_tour(metric, rule, seed)
        assert (got.order, got.cost) == insertion_loop(metric.dist, rule, seed), rule


def assert_same_two_opt(metric):
    starts = [tuple(range(1, metric.n + 1)), nearest_neighbor_tour(metric).order]
    for start in starts:
        got = two_opt(metric, start)
        order, costs = two_opt_loop(metric.dist, start)
        assert (got.final.order, got.costs, got.iterations) == (order, costs, len(costs) - 1)
        assert got.final.cost == costs[-1]
        assert not has_improving_exchange(metric, got.final)
        assert has_improving_exchange(metric, Tour(start, 0.0)) == (
            has_improving_exchange_loop(metric.dist, start)
        )


def assert_same_profiles(metric, graph):
    # every centre: the stable-sort tie rule is checked only here, since any
    # order of an (alpha, beta) graph keeps chi/(k(n-k)) inside [alpha, beta]
    rows = prefix_cuts([metric], [graph])[0]
    assert rows.shape == (graph.n, graph.n - 1)
    for v in range(1, graph.n + 1):
        taus, chis, order = tau_profile_loop(metric.dist, graph, v)
        one = tau_profile(metric, graph, v)
        assert np.array_equal(one.taus, taus)
        assert np.array_equal(one.chis, chis) and one.chis.dtype == chis.dtype
        assert np.array_equal(one.order, order)
        assert np.array_equal(rows[v - 1], chis) and rows.dtype == chis.dtype


FRACTIONS = (0.0, 0.05, 0.125, 0.25, 0.5, 1.0)
ALPHAS = (1.0, 0.3, 0.05)


def assert_same_clusters(metrics):
    """One stacked clustering of every metric at every alpha, each at each
    fraction of its diameter, and each pair's ``cluster_partition``, against
    the loop oracle."""
    pairs = [(m, alpha) for m in metrics for alpha in ALPHAS]
    deltas = [[f * diameter(m) for f in FRACTIONS] for m, _ in pairs]
    got = stacked_clusterings([m for m, _ in pairs], deltas, [alpha for _, alpha in pairs])
    assert [len(row) for row in got] == [len(FRACTIONS)] * len(pairs)
    for (m, alpha), row, parts in zip(pairs, deltas, got):
        for delta, part in zip(row, parts):
            want = cluster_partition_loop(m.dist, delta, alpha)
            assert part == want, (delta, alpha)
            one = cluster_partition(m, delta, alpha)
            assert (one.clusters, one.diameters, one.s_delta) == want, (delta, alpha)


def assert_same_table(wg):
    raw = dijkstra_full(wg)
    assert np.array_equal(build_metric(wg).dist, np.minimum(raw, raw.T))


def connected_er(n, p, seed):
    s = Seed(seed)
    while True:
        s = s.child(0)
        g = generate_erdos_renyi(n, p, s)
        if is_connected(g):
            return g, draw_weights(g, s.child(1))


# -- seeded complete graphs -----------------------------------------------------


@pytest.mark.parametrize("n", range(4, 61))
def test_kernels_match_loops_on_complete_graphs(n):
    graph, wg, metric = rsp_instance(n, seed=3000 + n)
    assert_same_table(wg)
    assert_same_profiles(metric, graph)
    assert_same_clusters([metric])
    if n % 2 == 0:
        assert_same_greedy(metric)
    assert_same_nn(metric)
    assert_same_insertion(metric)
    assert_same_two_opt(metric)


def test_kernels_match_loops_on_k200():
    graph, wg, metric = rsp_instance(200, seed=200)
    assert_same_table(wg)
    assert_same_profiles(metric, graph)
    assert_same_clusters([metric])
    assert_same_greedy(metric)
    assert_same_nn(metric)
    assert_same_insertion(metric, rules=("nearest", "farthest", "random"))
    assert_same_two_opt(metric)


# -- Erdos-Renyi graphs ---------------------------------------------------------


@pytest.mark.parametrize("n, p", [(12, 0.3), (20, 0.2), (40, 0.1), (60, 0.5)])
def test_kernels_match_loops_on_connected_er_graphs(n, p):
    for seed in range(2):
        graph, wg = connected_er(n, p, seed=100 * n + seed)
        metric = build_metric(wg)
        assert_same_table(wg)
        assert_same_profiles(metric, graph)
        assert_same_clusters([metric])
        assert_same_greedy(metric)
        assert_same_nn(metric)
        assert_same_insertion(metric)
        assert_same_two_opt(metric)


@pytest.mark.parametrize("n, p", [(10, 0.1), (30, 0.05), (80, 0.02)])
def test_table_and_profiles_match_on_disconnected_er_graphs(n, p):
    graph = generate_erdos_renyi(n, p, Seed(n))
    assert not is_connected(graph)
    wg = draw_weights(graph, Seed(n + 1))
    assert_same_table(wg)
    assert_same_profiles(build_metric(wg), graph)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_two_opt_without_position_pairs_keeps_every_start_tour(n):
    # below 4 vertices no two tour edges are disjoint: the scan reads no pair
    metric = rsp_instance(n, seed=n)[2]
    assert two_opt(metric).final.order == tuple(range(1, n + 1))
    for start in itertools.permutations(range(1, n + 1)):
        got = two_opt(metric, start)
        order, costs = two_opt_loop(metric.dist, start)
        assert (got.final.order, got.iterations, len(got.costs)) == (start, 0, 1)
        assert (got.final.order, got.costs) == (order, costs)
        assert got.final.cost == costs[0]
        assert not has_improving_exchange(metric, got.final)
        assert not has_improving_exchange_loop(metric.dist, start)


# -- tie-heavy metrics ----------------------------------------------------------


@pytest.mark.parametrize("n", (4, 7, 10, 16, 31))
def test_kernels_match_loops_on_tie_heavy_metrics(n):
    metrics = [points_on_line(n), all_ones_metric(n)]
    metrics += [small_integer_metric(n, s) for s in range(3)]
    graph = complete_graph(n)
    assert_same_clusters(metrics)
    for metric in metrics:
        assert_same_profiles(metric, graph)
        if n % 2 == 0:
            assert_same_greedy(metric)
        assert_same_nn(metric)
        assert_same_insertion(metric)
        assert_same_two_opt(metric)


def ring_metric(n):
    """Integer ring distances min(|i - j|, n - |i - j|): at every integer radius
    below n/2 two vertices tie at the radius itself."""
    gap = np.abs(np.arange(n)[:, None] - np.arange(n))
    return Metric(np.minimum(gap, n - gap).astype(float))


def test_clusters_match_the_loop_at_tied_radii_zero_and_past_the_diameter():
    metrics = [ring_metric(12), small_integer_metric(12, 7)]
    assert [diameter(m) for m in metrics] == [6.0, 3.0]
    radii = [0.0, 1.0, 2.0, 3.0, 6.0, 7.0]
    for alpha in ALPHAS + (0.25,):
        got = stacked_clusterings(metrics, [radii, radii], [alpha, alpha])
        for m, parts in zip(metrics, got):
            for delta, part in zip(radii, parts):
                assert part == cluster_partition_loop(m.dist, delta, alpha), (delta, alpha)
            # every ball is the whole vertex set, above the cap (n + 1)/2 of s_delta
            assert parts[-1][0] == (frozenset(range(1, 13)),)
            assert parts[0][0] == tuple(frozenset({v}) for v in range(1, 13))


@pytest.mark.parametrize("pairs", [1, 4, 13])
def test_partitions_do_not_depend_on_the_block_bound(pairs, monkeypatch):
    # 10 x 10 tables at six radii: blocks of one pair, of four and two radii
    # of one metric, and of two metrics with all their radii
    metrics = [rsp_instance(10, seed=s)[2] for s in range(4)]
    deltas = [[f * diameter(m) for f in FRACTIONS] for m in metrics]
    alphas = [1.0, 0.3, 0.05, 0.5]
    want = stacked_clusterings(metrics, deltas, alphas)
    bound = pairs * 10 * 10
    monkeypatch.setattr(metric_module, "CLUSTER_BLOCK", bound)
    shapes, cluster_block = [], metric_module._cluster_block

    def recording(tables, block_deltas, s_delta):
        shapes.append((len(tables), *block_deltas.shape))
        return cluster_block(tables, block_deltas, s_delta)

    monkeypatch.setattr(metric_module, "_cluster_block", recording)
    assert stacked_clusterings(metrics, deltas, alphas) == want
    # each call clusters the planner's block: stacked_clusterings clusters twice
    plan = metric_module._blocks([10 * 10] * len(metrics), len(FRACTIONS), bound)
    assert shapes == [(t1 - t0, t1 - t0, hi - lo) for t0, t1, lo, hi in plan] * 2


def test_cluster_arrays_refuse_a_malformed_stack():
    a, b, c = rsp_instance(6, seed=1)[2], rsp_instance(6, seed=2)[2], rsp_instance(7, seed=3)[2]
    for metrics, deltas, alphas in [
        ([], [], []),  # no metric
        ([a, c], [[0.1], [0.1]], [1.0, 1.0]),  # mixed sizes
        ([a, b], [[0.1, 0.2], [0.1]], [1.0, 1.0]),  # ragged radii
        ([a, b], [[0.1], [0.1]], [1.0]),  # one alpha short
        ([a, b], [[0.1]], [1.0, 1.0]),  # one list of radii short
    ]:
        with pytest.raises(ValueError):
            cluster_arrays(metrics, deltas, alphas)


def two_triangles():
    d = np.full((6, 6), np.inf)
    d[:3, :3] = d[3:, 3:] = 1.0
    np.fill_diagonal(d, 0.0)
    return Metric(d)


@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize(
    "bad",
    [
        lambda m, delta, alpha: (two_triangles(), delta, alpha),
        lambda m, delta, alpha: (m, math.nan, alpha),
        lambda m, delta, alpha: (m, -0.5, alpha),
        lambda m, delta, alpha: (m, delta, 0.0),
        lambda m, delta, alpha: (m, delta, 1.5),
        lambda m, delta, alpha: (two_triangles(), math.nan, alpha),  # the radius is checked first
    ],
    ids=["disconnected", "nan-radius", "negative-radius", "alpha-0", "alpha-above-1",
         "disconnected-and-nan"],
)
def test_a_bad_pair_anywhere_in_the_stack_raises_as_the_single_call(bad, at):
    metrics = [rsp_instance(6, seed=s)[2] for s in range(3)]
    deltas = [[0.0, 0.1] for _ in metrics]
    alphas = [1.0, 0.5, 1.0]
    metrics[at], deltas[at][1], alphas[at] = bad(metrics[at], deltas[at][1], alphas[at])
    with pytest.raises(Exception) as single:
        cluster_partition(metrics[at], deltas[at][1], alphas[at])
    assert issubclass(single.type, (ValueError, DisconnectedGraphError))
    with pytest.raises(single.type) as stacked:
        cluster_arrays(metrics, deltas, alphas)
    assert stacked.type is single.type


def test_the_first_bad_pair_of_the_stack_decides_the_error():
    metrics = [two_triangles(), rsp_instance(6, seed=1)[2]]
    with pytest.raises(DisconnectedGraphError):
        cluster_arrays(metrics, [[0.1], [math.nan]], [1.0, 1.0])
    with pytest.raises(ValueError):
        cluster_arrays(metrics[::-1], [[math.nan], [0.1]], [1.0, 1.0])


@pytest.mark.parametrize(
    "graph",
    [complete_graph(1), complete_graph(2), Graph(2, ())],
    ids=["K1", "K2", "two-isolated"],
)
def test_profiles_match_loops_on_one_and_two_vertices(graph):
    wg = draw_weights(graph, Seed(graph.m + 1))
    assert_same_table(wg)
    assert_same_profiles(build_metric(wg), graph)


def test_profile_refuses_a_centre_outside_the_vertices():
    graph, _, metric = rsp_instance(20, seed=20)
    for bad, error in ((0, ValueError), (21, ValueError), (1.5, TypeError)):
        with pytest.raises(error):
            tau_profile(metric, graph, bad)


def test_all_centre_profiles_on_k400_run_in_row_blocks():
    graph, _, metric = rsp_instance(400, seed=400)
    assert graph.m * graph.n > PROFILE_BLOCK  # more than one row block
    tracemalloc.start()
    try:
        prefix_cuts([metric], [graph])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block is about 16 MB; one unblocked 400 x 79800 int64 array is 255 MB
    assert peak < 64 << 20


def profile_window(n=12):
    """(metric, graph) pairs of one size, as a trial window stacks them: G(n, p)
    draws of unequal m, K_n, and tied metrics (integer distances, all ones)
    on a G(n, p) draw and on K_n.  At n = 12 the first two pairs are sparse."""
    pairs = []
    for p, seed in ((0.2, 1), (0.5, 2), (0.8, 3)):
        graph, wg = connected_er(n, p, seed=seed)
        pairs.append((build_metric(wg), graph))
    pairs.insert(1, (small_integer_metric(n, 5), generate_erdos_renyi(n, 0.3, Seed(7))))
    graph, _, metric = rsp_instance(n, seed=n)
    pairs.append((metric, graph))
    pairs.append((all_ones_metric(n), complete_graph(n)))
    return pairs


@pytest.mark.parametrize("bound", [PROFILE_BLOCK, 1, 500], ids=["default", "one-row", "500"])
def test_window_profiles_match_the_loop_at_any_block_bound(bound, monkeypatch):
    pairs = profile_window()
    metrics, graphs = [m for m, _ in pairs], [g for _, g in pairs]
    n, ms = 12, [g.m for g in graphs]
    assert len(set(ms)) >= 4
    monkeypatch.setattr(metric_module, "PROFILE_BLOCK", bound)
    blocks = list(metric_module._blocks([max(m, n + 1) for m in ms], n, bound))
    if bound == 500:  # blocks of two whole metrics, and of centre rows inside one
        assert any(t1 - t0 > 1 for t0, t1, _, _ in blocks)
        assert any(hi - lo < n for _, _, lo, hi in blocks)
    chis = prefix_cuts(metrics, graphs)
    assert chis.shape == (len(pairs), n, n - 1) and chis.dtype == np.int64
    for t, (metric, graph) in enumerate(pairs):
        for v in range(1, n + 1):
            assert np.array_equal(chis[t, v - 1], tau_profile_loop(metric.dist, graph, v)[1])
        assert_same_profiles(metric, graph)  # one metric, and one centre, at the same bound


def test_prefix_cuts_refuse_a_malformed_window():
    graph, _, metric = rsp_instance(6, seed=1)
    graph7, _, metric7 = rsp_instance(7, seed=2)
    for metrics, graphs in [([], []), ([metric], []), ([metric, metric7], [graph, graph7]),
                            ([metric], [graph7])]:
        with pytest.raises(ValueError):
            prefix_cuts(metrics, graphs)


def test_tables_match_with_tied_integer_weights():
    graph = complete_graph(100)
    w = np.random.default_rng(5).integers(1, 4, size=graph.m).astype(float)
    assert_same_table(WeightedGraph(graph, w))


# -- the certified shortest-path table -----------------------------------------


def _raw_tables(wg):
    """The table build_metric symmetrises, its sources per Dijkstra pass, and the
    whole-graph table: a pruned graph's is certified, another's takes one pass."""
    edges0 = wg.graph.edges - 1
    got, runs = _certified_apsp(wg.graph.n, edges0[:, 0], edges0[:, 1], wg.weights)
    return got, runs, dijkstra_full(wg)


def _pruned(graph):
    return prune_width(graph.n, graph.m) is not None


@pytest.mark.parametrize(
    "graph",
    [complete_graph(12), complete_graph(16), generate_erdos_renyi(16, 0.5, Seed(16))],
    ids=["K12", "K16", "G(16, 1/2)"],
)
def test_the_exact_dp_and_structure_graphs_take_one_pass(graph, monkeypatch):
    # one pass of the dense kernel: no scipy call, and nothing certified
    assert not _pruned(graph) and graph.n <= metric_module.DENSE_N
    wg = draw_weights(graph, Seed(graph.m))
    blocks = []

    def recording(wgs):
        blocks.append(wgs)
        return _dense_rows(wgs)

    def refused(*args, **kwargs):
        raise AssertionError("a graph of the dense kernel reached scipy or the certificate")

    monkeypatch.setattr(metric_module, "_dense_rows", recording)
    for name in ("dijkstra", "_certified_apsp", "_bellman_failures"):
        monkeypatch.setattr(metric_module, name, refused)
    got = build_metric(wg).dist
    assert blocks == [[wg]]
    want = dijkstra_full(wg)
    assert np.array_equal(got, np.minimum(want, want.T))


@pytest.mark.parametrize("n", (100, 400))
def test_certified_table_equals_full_dijkstra_on_complete_graphs(n):
    got, _, want = _raw_tables(draw_weights(complete_graph(n), Seed(n)))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n, p", [(150, 0.5), (300, 0.2)])
def test_certified_table_equals_full_dijkstra_on_er_graphs(n, p):
    graph, wg = connected_er(n, p, seed=n)
    got, _, want = _raw_tables(wg)
    assert np.array_equal(got, want)


def line_with_flat_far_pairs(n, flat):
    """K_n weighted |i - j|, capped at ``flat``: each vertex keeps only its short edges."""
    graph = complete_graph(n)
    gaps = np.abs(np.diff(graph.edges, axis=1)[:, 0]).astype(float)
    return WeightedGraph(graph, np.minimum(gaps, flat))


def test_failed_certificate_reruns_with_the_offending_edges():
    # on the kept short edges vertex 100 lies 99 from vertex 1, so the
    # dropped direct edge of weight 50 fails the certificate
    n = 100
    wg = line_with_flat_far_pairs(n, 50.0)
    assert _pruned(wg.graph)
    got, runs, want = _raw_tables(wg)
    assert len(runs) == 2
    assert np.array_equal(got, want)
    assert build_metric(wg).d(1, n) == 50.0  # only the dropped direct edge gives 50


def test_only_the_sources_that_fail_are_rerun():
    # with far pairs at 90 only a source within 9 of either end has a vertex
    # more than 90 away along the line: 18 of the 100 rows fail
    n = 100
    wg = line_with_flat_far_pairs(n, 90.0)
    assert _pruned(wg.graph)
    got, runs, want = _raw_tables(wg)
    assert runs == [n, 18]
    assert np.array_equal(got, want)
    assert build_metric(wg).d(1, n) == 90.0


def test_disconnected_graph_is_certified_in_one_pass():
    # two disjoint K_200: every vertex has a source it cannot reach, which
    # must not fail the certificate of the dropped edges inside each clique
    half = complete_graph(200).edges
    graph = Graph(400, np.concatenate([half, half + 200]))
    assert _pruned(graph)
    got, runs, want = _raw_tables(draw_weights(graph, Seed(2)))
    assert runs == [graph.n]
    assert np.array_equal(got, want)


def test_a_heavy_bridge_dropped_by_pruning_is_added_back():
    # two K_200 joined by one edge heavier than any other: the kept edges
    # form two components, so every source sees a finite and an infinite
    # end of the bridge, and every row is rerun with the bridge kept
    half = complete_graph(200).edges
    graph = Graph(400, np.concatenate([half, half + 200, [[200, 201]]]))
    assert _pruned(graph)
    w = draw_weights(graph, Seed(3)).weights.copy()
    w[graph.edges.tolist().index([200, 201])] = 100.0
    got, runs, want = _raw_tables(WeightedGraph(graph, w))
    assert runs == [graph.n, graph.n]
    assert np.array_equal(got, want)
    assert np.isfinite(got).all()


def test_a_certificate_slack_smaller_than_the_shortcut_shows():
    # K_60 weighted by ring distance where it is at most 5, and 100 elsewhere:
    # k = 9 keeps exactly the ring edges, on which every eccentricity is 30.
    # Two dropped chords beat their kept paths by 2^-13: (1, 21) well inside
    # the screen, and (16, 46) just below the eccentricity 30.  A certificate
    # or a screen with an absolute slack of 1e-3 would pass both.
    n, eps = 60, 2.0**-13
    graph = complete_graph(n)
    gap = np.abs(np.diff(graph.edges, axis=1)[:, 0])
    ring = np.minimum(gap, n - gap).astype(float)
    w = np.where(ring <= 5, ring, 100.0)
    chords = {(1, 21): 20.0 - eps, (16, 46): 30.0 - eps}
    edges = graph.edges.tolist()
    for edge, weight in chords.items():
        w[edges.index(list(edge))] = weight
    wg = WeightedGraph(graph, w)
    assert prune_width(n, graph.m) == 9
    got, runs, want = _raw_tables(wg)
    assert len(runs) == 2
    assert np.array_equal(got, want)
    for (x, y), weight in chords.items():
        assert build_metric(wg).d(x, y) == weight


@pytest.mark.parametrize("n, top", [(60, 2), (100, 3), (150, 4), (250, 10)])
def test_certified_table_equals_full_dijkstra_with_tied_integer_weights(n, top):
    graph = complete_graph(n)
    assert _pruned(graph)
    w = np.random.default_rng(n).integers(1, top + 1, size=graph.m).astype(float)
    got, _, want = _raw_tables(WeightedGraph(graph, w))
    assert np.array_equal(got, want)


# -- Dijkstra rows split over forked processes ------------------------------------


def record_forks(monkeypatch):
    """The pids of the children that os.fork starts from now on."""
    children = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return children


@pytest.fixture
def split(monkeypatch):
    """Split every Dijkstra call of two or more sources over up to three
    processes; the list collects the pid of each child forked."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the Dijkstra pass forks only on Linux")
    monkeypatch.setattr(metric_module, "SPLIT_WORK", 1)
    monkeypatch.setattr(metric_module, "usable_cpus", lambda: 3)
    return record_forks(monkeypatch)


def no_fork():
    raise AssertionError("os.fork was called")


def csr_of(wg):
    edges0 = wg.graph.edges - 1
    return _symmetric_csr(wg.graph.n, edges0[:, 0], edges0[:, 1], wg.weights)


def assert_no_child_left(children):
    """Every recorded child has been reaped (other children, such as a spawn
    pool's resource tracker, are not the split's)."""
    for pid in children:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def k60_csr():
    return csr_of(draw_weights(complete_graph(60), Seed(60)))


def two_k30_csr():
    half = complete_graph(30).edges
    return csr_of(draw_weights(Graph(60, np.concatenate([half, half + 30])), Seed(4)))


@pytest.mark.parametrize(
    "make_csr",
    [k60_csr, lambda: csr_of(connected_er(80, 0.2, seed=80)[1]), two_k30_csr],
    ids=["K60", "G(80, 0.2)", "two K30"],
)
def test_split_rows_equal_one_process_dijkstra(split, make_csr):
    csr = make_csr()
    n = csr.shape[0]
    want = dijkstra(csr, directed=True)
    assert np.array_equal(_dijkstra_rows(csr, None), want)
    assert len(split) == 2  # three parts: the parent and two children
    sources = np.array([n - 1, 0, 7, 3, 7])  # any order, repeats allowed
    assert np.array_equal(_dijkstra_rows(csr, sources), want[sources])
    assert len(split) == 4
    assert np.array_equal(_dijkstra_rows(csr, sources[:2]), want[sources[:2]])  # one child
    assert len(split) == 5
    assert_no_child_left(split)


def test_split_rows_serve_the_pruned_rerun(split):
    # the rerun of test_only_the_sources_that_fail_are_rerun, split as well
    wg = line_with_flat_far_pairs(100, 90.0)
    got, runs, want = _raw_tables(wg)
    assert runs == [100, 18]
    assert np.array_equal(got, want)
    assert len(split) == 4  # two children per pass
    assert np.array_equal(build_metric(wg).dist, np.minimum(want, want.T))
    assert_no_child_left(split)


def test_one_source_is_never_split(split):
    csr = k60_csr()
    assert np.array_equal(_dijkstra_rows(csr, np.array([5])), dijkstra(csr, directed=True, indices=[5]))
    assert split == []


def test_a_failing_child_makes_the_parent_raise(split, monkeypatch):
    parent = os.getpid()

    def fails_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            raise ValueError("child")
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(metric_module, "dijkstra", fails_in_a_child)
    with pytest.raises(RuntimeError, match="child process failed"):
        _dijkstra_rows(k60_csr(), None)
    assert len(split) == 2
    assert_no_child_left(split)


def test_a_failing_parent_still_reaps_its_children(split, monkeypatch):
    parent = os.getpid()

    def fails_in_the_parent(*args, **kwargs):
        if os.getpid() == parent:
            raise ValueError("parent")
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(metric_module, "dijkstra", fails_in_the_parent)
    with pytest.raises(ValueError, match="parent"):
        _dijkstra_rows(k60_csr(), None)
    assert len(split) == 2
    assert_no_child_left(split)


def test_no_fork_while_a_second_thread_runs(split, monkeypatch):
    monkeypatch.setattr(os, "fork", no_fork)
    csr = k60_csr()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        got = _dijkstra_rows(csr, None)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert np.array_equal(got, dijkstra(csr, directed=True))


def test_forks_raise_no_fork_with_threads_warning(split):
    # CPython 3.12+ warns when os.fork() copies a process with more than one
    # OS thread; -W error::DeprecationWarning cannot fail on it there, since the
    # interpreter clears the error after the fork, but a recording block sees it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _dijkstra_rows(k60_csr(), None)
        # past DENSE_N, so the build is certified and its Dijkstra passes fork
        build_metric(draw_weights(complete_graph(DENSE_N + 1), Seed(61)))
    assert len(split) >= 4  # two children for the rows, two or more for the build
    assert [str(w.message) for w in caught if "fork()" in str(w.message)] == []
    assert_no_child_left(split)


def rows_without_fork_in_a_pool_worker():
    """In a pool worker: split-size rules forced, os.fork disabled; the rows equal one-process rows."""
    metric_module.SPLIT_WORK = 1
    metric_module.usable_cpus = lambda: 3
    os.fork = no_fork
    csr = k60_csr()
    return multiprocessing.parent_process() is not None and np.array_equal(
        _dijkstra_rows(csr, None), dijkstra(csr, directed=True)
    )


def test_no_fork_in_a_pool_worker():
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(rows_without_fork_in_a_pool_worker).result(timeout=120)


def test_records_equal_at_one_and_two_workers_across_the_split_size(monkeypatch):
    # K_400 at the real split size: each trial's first Dijkstra pass (about
    # 2.39 million units of work, against 2 * SPLIT_WORK = 2.10 million) splits
    # in two in the parent at workers=1, and runs whole in each pool worker at
    # workers=2
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the Dijkstra pass forks only on Linux")
    monkeypatch.setattr(metric_module, "usable_cpus", lambda: 2)
    children = record_forks(monkeypatch)
    cfg = ExperimentConfig(suite="tau", model="complete", n=400, trials=3, seed=9,
                           tau_ks=(2, 200, 400))
    serial = run_suite(cfg)
    assert len(children) == cfg.trials
    pooled = run_suite(dataclasses.replace(cfg, workers=2))
    assert serial.records == pooled.records
    assert serial.render() == pooled.render()


def test_usable_cpus_reads_the_affinity_mask_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


# -- many metrics: the dense kernel and the certified path -------------------------


@st.composite
def dense_blocks(draw):
    """One to four weighted graphs of one size n in 1..DENSE_N: complete graphs,
    G(n, p) draws (disconnected ones too), two cliques, paths and no edges,
    some with tied integer weights."""
    n = draw(st.integers(1, DENSE_N))
    wgs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["complete", "er", "two cliques", "path", "no edges"]))
        seed = draw(st.integers(0, 1 << 32))
        if kind == "er":
            graph = generate_erdos_renyi(n, draw(st.sampled_from([0.02, 0.1, 0.5])), Seed(seed))
        elif kind == "two cliques" and n >= 2:
            a = draw(st.integers(1, n - 1))
            graph = Graph(n, np.concatenate([complete_graph(a).edges, complete_graph(n - a).edges + a]))
        elif kind == "path":
            graph = path_graph(n)
        elif kind == "no edges":
            graph = Graph(n, ())
        else:
            graph = complete_graph(n)
        if draw(st.booleans()):
            ties = np.random.default_rng(seed).integers(1, 4, size=graph.m).astype(float)
            wgs.append(WeightedGraph(graph, ties))
        else:
            wgs.append(draw_weights(graph, Seed(seed + 1)))
    return wgs


ROW_KERNELS = (_dense_rows, _union_rows)  # T graphs of one size n in, raw T x n x n rows out


def assert_rows_equal_full_dijkstra(kernel, wgs):
    rows = kernel(wgs)
    n = wgs[0].graph.n
    assert rows.shape == (len(wgs), n, n)
    for layer, wg in zip(rows, wgs):
        assert np.array_equal(layer, dijkstra_full(wg))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dense_blocks())
def test_dense_rows_equal_full_dijkstra(wgs):
    for kernel in ROW_KERNELS:
        assert_rows_equal_full_dijkstra(kernel, wgs)


@pytest.mark.parametrize("n", [1, 2, 3, 17, DENSE_N])
def test_dense_rows_equal_full_dijkstra_on_paths(n):
    # a path settles its vertices in path order from an end, so a kernel
    # that stopped a settle step short would leave the far end at inf
    graph = path_graph(n)
    for kernel in ROW_KERNELS:
        assert_rows_equal_full_dijkstra(
            kernel, [draw_weights(graph, Seed(n)), WeightedGraph(graph, np.ones(graph.m))])


@pytest.mark.parametrize(
    "wgs, pruned",
    [([draw_weights(path_graph(DENSE_N + 1), Seed(1))], False),
     ([line_with_flat_far_pairs(110, 90.0), line_with_flat_far_pairs(110, 90.0)], True)],
    ids=["path past DENSE_N", "two pruned K110"],
)
def test_union_rows_equal_full_dijkstra_where_the_kernel_does_not_run(wgs, pruned, monkeypatch):
    # the two K_110 prune as one 220-vertex union, and the sources near the
    # ends of each line fail their certificate and rerun: a source reaches
    # only its own graph, so its certified row is that graph's row
    runs = []

    def recording(n, u, v, w):
        dist, passes = _certified_apsp(n, u, v, w)
        runs.append(passes)
        return dist, passes

    monkeypatch.setattr(metric_module, "_certified_apsp", recording)
    assert_rows_equal_full_dijkstra(_union_rows, wgs)
    size = sum(wg.graph.n for wg in wgs)
    assert (prune_width(size, sum(wg.graph.m for wg in wgs)) is not None) == pruned
    [passes] = runs
    assert passes[0] == size
    assert (len(passes) > 1 and 0 < passes[1] < size) == pruned  # some sources rerun


def mixed_batch():
    """Weighted graphs of many sizes and shapes, in one list; the pruned K_60 sits mid-batch."""
    ties = np.random.default_rng(20)
    disconnected = generate_erdos_renyi(30, 0.05, Seed(30))
    er40 = generate_erdos_renyi(40, 0.3, Seed(40))
    return [
        draw_weights(complete_graph(12), Seed(1)),
        draw_weights(generate_erdos_renyi(16, 0.5, Seed(2)), Seed(3)),
        draw_weights(disconnected, Seed(4)),
        draw_weights(Graph(7, ()), Seed(5)),  # m = 0
        draw_weights(Graph(1, ()), Seed(6)),  # n = 1
        WeightedGraph(complete_graph(20), ties.integers(1, 3, size=190).astype(float)),
        draw_weights(complete_graph(60), Seed(60)),
        draw_weights(cycle_graph(9), Seed(7)),
        WeightedGraph(er40, ties.integers(1, 4, size=er40.m).astype(float)),
        draw_weights(generate_erdos_renyi(10, 0.1, Seed(10)), Seed(8)),
    ]


def assert_same_tables(metrics, wgs):
    assert len(metrics) == len(wgs)
    for metric, wg in zip(metrics, wgs):
        raw = dijkstra_full(wg)
        assert np.array_equal(metric.dist, np.minimum(raw, raw.T))


@pytest.mark.parametrize("bound", [1, 17, metric_module.BATCH_VERTICES])
def test_batched_tables_equal_full_dijkstra(bound, monkeypatch):
    monkeypatch.setattr(metric_module, "BATCH_VERTICES", bound)
    wgs = mixed_batch()
    assert [_pruned(wg.graph) for wg in wgs].count(True) == 1 and _pruned(wgs[6].graph)
    assert not is_connected(wgs[2].graph) and not is_connected(wgs[-1].graph)
    assert_same_tables(build_metrics(wgs), wgs)
    assert_same_tables(build_metrics(wgs[::-1]), wgs[::-1])
    assert build_metrics([]) == []


@pytest.mark.parametrize(
    "bound, groups",
    [(1, [[12], [16], [30], [7], [1], [20], [60], [9], [40], [10],
          [10], [40], [9], [60], [20], [1], [7], [30], [16], [12]]),
     (17, [[12], [16], [30], [7, 7], [1, 1], [20], [60], [9], [40], [10],
           [10], [40], [9], [60], [20], [30], [16], [12]]),
     (256, [[12, 12], [16, 16], [30, 30], [7, 7], [1, 1], [20, 20], [60, 60], [9, 9], [40, 40],
            [10, 10]])],
)
def test_one_pass_graphs_are_grouped_in_order_up_to_the_bound(bound, groups, monkeypatch):
    # with the dense kernel off, the vertex counts of each union that
    # _certified_apsp gets, in the order of the unions' first graphs: graphs
    # of one size only, at most bound // n of them (at least one); at 256
    # the two pruned K_60 form one union, which does not prune (3540 edges,
    # under 3 k n = 3600 at n = 120)
    seen = []

    def recording(n, u, v, w):
        seen.append(n)
        return _certified_apsp(n, u, v, w)

    monkeypatch.setattr(metric_module, "DENSE_N", 0)
    monkeypatch.setattr(metric_module, "BATCH_VERTICES", bound)
    monkeypatch.setattr(metric_module, "_certified_apsp", recording)
    wgs = mixed_batch() + mixed_batch()[::-1]
    assert_same_tables(build_metrics(wgs), wgs)
    assert seen == [sum(group) for group in groups]


def routed_batch():
    """Runs of G(8, 1/2) and G(5, 1/2) draws, with other graphs between them:
    the pruned K_60, which the dense kernel takes, and two graphs it does not
    take, two paths of 16 (too sparse) and a path one vertex past DENSE_N (too
    large)."""
    graphs = ([generate_erdos_renyi(8, 0.5, Seed(s)) for s in range(3)]
              + [complete_graph(60), path_graph(16)]
              + [generate_erdos_renyi(8, 0.5, Seed(s)) for s in range(3, 5)]
              + [path_graph(DENSE_N + 1)]
              + [generate_erdos_renyi(5, 0.5, Seed(s)) for s in range(5, 10)]
              + [path_graph(16)])
    return [draw_weights(g, Seed(100 + i)) for i, g in enumerate(graphs)]


D, U = "_dense_rows", "_union_rows"


@pytest.mark.parametrize(
    "bound, blocks, unions",
    [(1, [(D, [0]), (D, [1]), (D, [2]), (D, [3]), (U, [4]), (D, [5]), (D, [6]), (U, [7]),
          (D, [8]), (D, [9]), (D, [10]), (D, [11]), (D, [12]), (U, [13])],
      [16, DENSE_N + 1, 16]),
     (17, [(D, [0, 1]), (D, [2, 5]), (D, [3]), (U, [4]), (D, [6]), (U, [7]), (D, [8, 9, 10]),
           (D, [11, 12]), (U, [13])],
      [16, DENSE_N + 1, 16]),
     (256, [(D, [0, 1, 2, 5, 6]), (D, [3]), (U, [4, 13]), (U, [7]), (D, [8, 9, 10, 11, 12])],
      [32, DENSE_N + 1])],
)
def test_graphs_take_the_kernel_or_a_union_in_input_order(bound, blocks, unions, monkeypatch):
    # the graphs of one size go in input order, in blocks of bound // n
    # graphs (at least one), across the graphs between them, pruned or not;
    # each block takes one row kernel (blocks: the kernel and the batch
    # indices of each block, in the order of their first graphs; unions: the
    # vertex count of each _certified_apsp call), and _check_tables sees each
    # block's tables as one stack
    wgs = routed_batch()
    dense = [wgs[i] for kernel, block in blocks if kernel == D for i in block]
    assert all(12 * wg.graph.m >= wg.graph.n ** 2 for wg in dense)
    at = {id(wg): i for i, wg in enumerate(wgs)}
    seen, seen_unions, shapes = [], [], []

    def recording(kernel):
        def rows(block):
            seen.append((kernel.__name__, [at[id(wg)] for wg in block]))
            return kernel(block)
        return rows

    def recording_unions(n, u, v, w):
        seen_unions.append((n, w))
        return _certified_apsp(n, u, v, w)

    def recording_check(stack):
        shapes.append(stack.shape)
        return _check_tables(stack)

    monkeypatch.setattr(metric_module, "BATCH_VERTICES", bound)
    for kernel in ROW_KERNELS:
        monkeypatch.setattr(metric_module, kernel.__name__, recording(kernel))
    monkeypatch.setattr(metric_module, "_certified_apsp", recording_unions)
    monkeypatch.setattr(metric_module, "_check_tables", recording_check)
    metrics = build_metrics(wgs)
    assert seen == blocks
    assert [n for n, _ in seen_unions] == unions
    assert shapes == [(len(block), wgs[block[0]].graph.n, wgs[block[0]].graph.n) for _, block in blocks]
    assert seen_unions[1][1] is wgs[7].weights  # the lone long path's weights, not a copy
    assert_same_tables(metrics, wgs)
    assert [m.is_finite() for m in metrics] == [is_connected(wg.graph) for wg in wgs]
    assert not any(m.dist.flags.writeable for m in metrics)
    # each metric holds its layer of its block's stack
    assert all(metrics[i].dist.base is metrics[block[0]].dist.base for _, block in blocks for i in block)


def test_a_block_takes_the_kernel_from_n_squared_over_12_edges_per_graph(monkeypatch):
    # the kernel's n^3 work per graph loses to scipy's Dijkstra on sparser graphs
    calls = []

    def recording(block):
        calls.append(len(block))
        return _dense_rows(block)

    monkeypatch.setattr(metric_module, "_dense_rows", recording)
    for n in (16, 48, DENSE_N, DENSE_N + 1):
        at = -(-n * n // 12)
        for m, kernel in ((at, [1] if n <= DENSE_N else []), (at - 1, [])):
            calls.clear()
            wg = WeightedGraph(Graph(n, complete_graph(n).edges[:m]), np.ones(m))
            assert_same_tables(build_metrics([wg]), [wg])
            assert calls == kernel
    # the edges of a whole block decide: 16 paths of 16 vertices have 240
    # edges, under 16^3 / 12; with one swapped for K_16 they have 345
    paths = [draw_weights(path_graph(16), Seed(s)) for s in range(16)]
    for block, kernel in ((paths, []), (paths[1:] + [draw_weights(complete_graph(16), Seed(16))], [16])):
        calls.clear()
        assert_same_tables(build_metrics(block), block)
        assert calls == kernel
    # whether a graph prunes does not matter: two pruned K_60 are one kernel block
    calls.clear()
    k60 = draw_weights(complete_graph(60), Seed(1))
    assert _pruned(k60.graph)
    assert_same_tables(build_metrics([k60, k60]), [k60, k60])
    assert calls == [2]


def test_a_thousand_draws_reach_the_kernel_in_bounded_blocks(monkeypatch):
    # a library caller may pass any number of graphs: the kernel and the
    # stack check see at most BATCH_VERTICES vertices at a time
    seeds = [Seed(s) for s in range(1000)]
    wgs = weighted_graphs(erdos_renyi_graphs(16, 0.5, seeds), [s.child(0, "w") for s in seeds])
    blocks, shapes = [], []

    def recording_blocks(block):
        blocks.append(len(block))
        return _dense_rows(block)

    def recording_check(stack):
        shapes.append(stack.shape)
        return _check_tables(stack)

    monkeypatch.setattr(metric_module, "_dense_rows", recording_blocks)
    monkeypatch.setattr(metric_module, "_check_tables", recording_check)
    metrics = build_metrics(wgs)
    assert blocks == [BATCH_VERTICES // 16] * 62 + [8]
    assert shapes == [(count, 16, 16) for count in blocks]
    assert_same_tables(metrics[::97], wgs[::97])


def test_batched_tables_split_over_processes(split):
    wgs = mixed_batch()
    assert_same_tables(build_metrics(wgs), wgs)
    assert split  # the unions split; the pruned K_60 takes the kernel, which does not fork
    assert_no_child_left(split)


@st.composite
def small_weighted_graphs(draw):
    """A complete graph, a G(n, p) draw or two disjoint cliques, on 1 to 70 vertices."""
    n = draw(st.integers(1, 70))
    kind = draw(st.sampled_from(["complete", "er", "two cliques"]))
    seed = draw(st.integers(0, 1 << 32))
    if kind == "er":
        graph = generate_erdos_renyi(n, draw(st.sampled_from([0.02, 0.1, 0.3, 0.7])), Seed(seed))
    elif kind == "two cliques" and n >= 2:
        a = draw(st.integers(1, n - 1))
        graph = Graph(n, np.concatenate([complete_graph(a).edges, complete_graph(n - a).edges + a]))
    else:
        graph = complete_graph(n)
    return draw_weights(graph, Seed(seed + 1))


PRUNED_CLIQUES = [n for n in range(50, 71) if _pruned(complete_graph(n))]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.lists(small_weighted_graphs(), max_size=8),
    st.sampled_from(PRUNED_CLIQUES),
    st.integers(0, 8),
    st.integers(0, 1 << 32),
)
def test_build_metrics_equals_full_dijkstra_at_any_batch_bound(wgs, n, at, seed):
    wgs.insert(at, draw_weights(complete_graph(n), Seed(seed)))  # at least one pruned graph
    want = [np.minimum(raw, raw.T) for raw in map(dijkstra_full, wgs)]
    try:
        # DENSE_N = 0: every graph takes scipy; 256: every block with
        # n^2 / 12 edges per graph, pruned or not, takes the kernel
        for dense in (0, DENSE_N, 256):
            metric_module.DENSE_N = dense
            for bound in (1, 17, 64, 256):
                metric_module.BATCH_VERTICES = bound
                got = build_metrics(wgs)
                assert all(np.array_equal(m.dist, table) for m, table in zip(got, want))
    finally:
        metric_module.BATCH_VERTICES = BATCH_VERTICES
        metric_module.DENSE_N = DENSE_N


def test_runs_of_one_size_in_a_group_are_checked_as_one_stack(monkeypatch):
    # with the dense kernel off, graphs of sizes 8, 8, 8, 10, 10, 8, 1, 1: the
    # four 8s, across the 10s between them, are one block, and so are the two
    # 10s and the two 1s; each block's tables are checked as one stack
    graphs = [complete_graph(8), generate_erdos_renyi(8, 0.2, Seed(1)), cycle_graph(8),
              complete_graph(10), generate_erdos_renyi(10, 0.5, Seed(2)), path_graph(8),
              Graph(1, ()), Graph(1, ())]
    wgs = [draw_weights(g, Seed(10 + i)) for i, g in enumerate(graphs)]
    assert not is_connected(graphs[1])
    shapes = []

    def recording(stack):
        shapes.append(stack.shape)
        return _check_tables(stack)

    monkeypatch.setattr(metric_module, "DENSE_N", 0)
    monkeypatch.setattr(metric_module, "_check_tables", recording)
    metrics = build_metrics(wgs)
    assert shapes == [(4, 8, 8), (2, 10, 10), (2, 1, 1)]
    assert_same_tables(metrics, wgs)
    assert [m.is_finite() for m in metrics] == [is_connected(g) for g in graphs]
    assert not any(m.dist.flags.writeable for m in metrics)
    assert all(metrics[i].dist.base is metrics[0].dist.base for i in (1, 2, 5))  # layers of one stack


def _corrupting(monkeypatch, kernel, corrupt, at):
    """Let ``corrupt`` change raw table ``at`` of a block of K_8 in the rows of
    ``kernel``; for ``_union_rows`` the dense kernel is turned off."""
    def corrupted(wgs):
        rows = np.array(kernel(wgs))  # writable: the union's rows are a read-only view
        corrupt(rows[at])
        return rows

    if kernel is _union_rows:
        monkeypatch.setattr(metric_module, "DENSE_N", 0)
    monkeypatch.setattr(metric_module, kernel.__name__, corrupted)


CORRUPTIONS = {  # an entry of one table
    "nan": lambda d: d.__setitem__((1, 2), math.nan),
    "negative": lambda d: d.__setitem__((2, 1), -1.0),
    "diagonal": lambda d: d.__setitem__((1, 1), 0.5),
}


@pytest.mark.parametrize("count", [3, 1], ids=["3-graph-group", "1-graph-group"])
@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_group_checks_raise_the_messages_of_the_metric_constructor(corruption, count, monkeypatch):
    wgs = [draw_weights(complete_graph(8), Seed(s)) for s in range(count)]
    at = count // 2  # the middle table of three, or the one table
    table = build_metrics(wgs)[at].dist.copy()
    CORRUPTIONS[corruption](table)
    with pytest.raises(ValueError) as single:
        Metric(table)
    for kernel in ROW_KERNELS:
        with monkeypatch.context() as patch:
            _corrupting(patch, kernel, CORRUPTIONS[corruption], at)
            with pytest.raises(ValueError) as grouped:
                build_metrics(wgs)
        assert str(grouped.value) == str(single.value)


@pytest.mark.parametrize("count", [3, 1], ids=["3-graph-group", "1-graph-group"])
def test_an_asymmetric_raw_pair_is_made_symmetric_and_the_stack_check_refuses_one(
        count, monkeypatch):
    # min(d, d^T) makes every table symmetric, so the stack check on symmetry
    # is met by the smaller of the two entries; a stack that is not symmetric
    # is refused with the constructor's message
    wgs = [draw_weights(complete_graph(8), Seed(s)) for s in range(count)]
    at = count // 2
    want = build_metrics(wgs)
    for kernel in ROW_KERNELS:
        with monkeypatch.context() as patch:
            _corrupting(patch, kernel, lambda d: d.__setitem__((1, 2), 7.0), at)
            got = build_metrics(wgs)
        assert all(np.array_equal(a.dist, b.dist) for a, b in zip(got, want))
    stack = np.stack([m.dist for m in want])
    stack[at, 1, 2] = 7.0
    with pytest.raises(ValueError) as single:
        Metric(stack[at])
    with pytest.raises(ValueError) as grouped:
        _check_tables(stack)
    assert str(grouped.value) == str(single.value) == "distance table must be symmetric"


def test_a_one_table_group_takes_no_extra_table():
    # build_metric on the pruned K_400 peaked at 3.75 tables of 400 x 400
    # float64 under tracemalloc (CPython 3.11, numpy 2.4); a stack copy of the
    # table would add one more
    wg = draw_weights(complete_graph(400), Seed(1))
    build_metric(wg)
    tracemalloc.start()
    try:
        build_metric(wg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.25 * 400 * 400 * 8


# -- exact cut parameters ---------------------------------------------------------


def assert_same_cut_parameters(graph):
    want = cut_parameters_enum(graph)
    if want is None:
        with pytest.raises(DisconnectedGraphError):
            cut_parameters_exact(graph)
    else:
        got = cut_parameters_exact(graph)
        assert (got.alpha, got.beta) == want


def row_blocks(n):
    xl, _, xht, _ = _split_bit_rows(n)
    return math.ceil(len(xl) / (CUT_BLOCK // xht.shape[1]))


def assert_windows_match(graphs, want):
    # windows of one graph, of three and of all of them give each graph's entry
    for size in (1, 3, len(graphs)):
        windows = [exact_cut_parameters(graphs[i:i + size]) for i in range(0, len(graphs), size)]
        assert [(c.alpha, c.beta) for window in windows for c in window] == want


@pytest.mark.parametrize("p", (0.3, 0.5, 0.8))
@pytest.mark.parametrize("n", range(2, 21))
def test_cut_parameters_equal_enumeration_on_er_graphs(n, p):
    assert_same_cut_parameters(generate_erdos_renyi(n, p, Seed(7 * n)))
    assert_same_cut_parameters(connected_er(n, p, seed=n)[0])


@pytest.mark.parametrize("n", range(2, 19))
def test_cut_parameters_equal_enumeration_on_named_graphs(n):
    for graph in (path_graph(n), star_graph(n), complete_graph(n)):
        assert_same_cut_parameters(graph)
    if n >= 3:
        assert_same_cut_parameters(cycle_graph(n))


@pytest.mark.parametrize("n", range(2, 19))
def test_cut_parameter_windows_equal_enumeration(n):
    # connected G(n, p) draws, named graphs and K_n (the one entry without a
    # table) at its middle; the groups of rows and of columns of graphs
    # stacked in one table must not mix
    graphs = [connected_er(n, p, seed=100 * n + i)[0] for p in (0.3, 0.5, 0.8) for i in range(4)]
    graphs[6:6] = [complete_graph(n)]
    graphs += [path_graph(n), star_graph(n), cycle_graph(n) if n >= 3 else path_graph(n)]
    assert_windows_match(graphs, [cut_parameters_enum(g) for g in graphs])


def test_cut_parameters_equal_enumeration_across_row_blocks():
    # at n = 22 each table is two row blocks, and the rows of |U cap L| = 6
    # straddle them, so that group is folded into its accumulator
    assert row_blocks(22) == 2
    xl, groups, _, _ = _split_bit_rows(22)
    assert groups[5] < len(xl) // 2 < groups[6]
    graph = connected_er(22, 0.5, seed=22)[0]
    want = cut_parameters_enum(graph)
    assert_same_cut_parameters(graph)
    assert_windows_match([graph, complete_graph(22), graph], [want, (1.0, 1.0), want])


def test_cut_parameter_windows_at_the_cap_equal_enumeration():
    # eight row blocks per table; the dense draw, with no affordable oracle,
    # must give its one-graph entry in every window
    assert row_blocks(CUT_PARAMETER_CAP) == 8
    sparse = connected_er(CUT_PARAMETER_CAP, 0.2, seed=24)[0]
    dense = connected_er(CUT_PARAMETER_CAP, 0.5, seed=24)[0]
    alone = cut_parameters_exact(dense)
    assert_windows_match([sparse, complete_graph(CUT_PARAMETER_CAP), dense],
                         [cut_parameters_enum(sparse), (1.0, 1.0), (alone.alpha, alone.beta)])


def test_complete_windows_need_no_table_at_any_n():
    assert exact_cut_parameters([complete_graph(30)] * 3) == [CutParameters(1.0, 1.0)] * 3
    assert exact_cut_parameters([]) == []


def test_the_first_bad_graph_of_a_window_raises_the_one_graph_error():
    n = CUT_PARAMETER_CAP + 1
    split = Graph(n, complete_graph(n - 1).edges)  # disconnected, and past the cap
    with pytest.raises(SizeCapExceededError):
        exact_cut_parameters([complete_graph(n), split])
    path, two = path_graph(6), Graph(6, ((1, 2), (2, 3), (4, 5), (5, 6)))
    with pytest.raises(DisconnectedGraphError):
        exact_cut_parameters([path, complete_graph(6), two, path])
    with pytest.raises(ValueError, match="at least two vertices"):
        exact_cut_parameters([Graph(1, ())] * 2)
    with pytest.raises(ValueError, match="same vertex count"):
        exact_cut_parameters([complete_graph(5), complete_graph(6)])


@pytest.mark.parametrize("isolated", range(1, 23))
def test_an_isolated_vertex_is_caught_in_any_row_block(isolated):
    # K_21 on the other vertices: the only empty cut among the subsets holding
    # vertex 1 is V - {isolated}, or {1} when isolated = 1; it falls in the
    # first row block for vertices 1 and 11 and in the second for the rest
    n = 22
    assert row_blocks(n) > 1
    rest = np.array([v for v in range(1, n + 1) if v != isolated])
    graph = Graph(n, rest[complete_graph(n - 1).edges - 1])
    with pytest.raises(DisconnectedGraphError):
        cut_parameters_exact(graph)


def test_two_vertices_without_an_edge_are_disconnected():
    with pytest.raises(DisconnectedGraphError):
        cut_parameters_exact(Graph(2, ()))


@pytest.mark.parametrize("n", range(2, CUT_PARAMETER_CAP + 1))
def test_the_full_set_is_never_an_empty_cut(n):
    # a path has exactly one cut edge per prefix, so alpha = 1 / max |U|(n-|U|);
    # U = V (cut 0) must be left out, not rejected as a disconnection
    assert cut_parameters_exact(path_graph(n)).alpha == 1 / ((n // 2) * (n - n // 2))


def test_cut_parameters_at_the_cap_run_in_row_blocks():
    graph = connected_er(CUT_PARAMETER_CAP, 0.5, seed=24)[0]
    tracemalloc.start()
    try:
        cut_parameters_exact(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one row block of cuts is 4 MiB; the whole 2^23-entry table would be 32 MiB
    assert peak < 8 << 20


def test_a_window_at_the_cap_holds_one_row_block_at_a_time():
    graphs = [connected_er(CUT_PARAMETER_CAP, 0.5, seed=s)[0] for s in range(10)]
    tracemalloc.start()
    try:
        exact_cut_parameters(graphs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


# -- graph and metric files against the per-line readers ---------------------------


def messy_copy(path, rng):
    """The graph file at ``path`` with its edge lines shuffled, the ends of about
    half the edges swapped, and blank or whitespace-only lines put in between."""
    header, *lines = path.read_text().splitlines()
    out = [header]
    for i in rng.permutation(len(lines)):
        u, v, *w = lines[i].split()
        out.append(" ".join([v, u, *w] if rng.random() < 0.5 else [u, v, *w]))
        if rng.random() < 0.2:
            out.append(rng.choice(["", "  ", "\t"]))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("n", range(2, 41))
def test_read_graph_matches_the_line_reader(tmp_path, n):
    rng = np.random.default_rng(n)
    graph = generate_erdos_renyi(n, (n % 4) / 4, Seed(n))  # p = 0 at n = 4, 8, ...: no edges
    path = tmp_path / "g.txt"
    for source in (graph, draw_weights(graph, Seed(n + 1))):
        want = source if graph.m else graph  # a file without edges carries no weights
        write_graph(str(path), source)
        for text in (path.read_text(), messy_copy(path, rng)):
            path.write_text(text)
            got = read_graph(str(path))
            assert type(got) is type(want)
            assert got == read_graph_lines(str(path)) == want


@pytest.mark.parametrize(
    "text",
    [
        "2 1\n1 2 0.5 9\n",  # four fields
        "2 2\n1 2\n",  # fewer edge lines than m
        "3 1\n1\n",  # one field
        "3 2\n1 2\n2 3 0.5\n",  # weighted and unweighted lines mixed
        "3 2\n1 2 0.5\n2 3\n",
        "3 1\n1 x\n",  # no number
        "3 1\n1 2 # the only edge\n",  # no comments
        "3 2\n# two edges\n1 2\n2 3\n",
        "3 1\n1 2\n2 3\n",  # more edge lines than m
        "3 0\n1 2\n",
        "3 1\n1.5 2\n",  # no integer id
        "3 1\n1 2 0\n",  # no positive weight
        "3\n1 2\n",  # no `n m` header
    ],
)
def test_both_graph_readers_refuse_a_malformed_file(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    for reader in (read_graph, read_graph_lines):
        with pytest.raises(ValueError):
            reader(str(path))


@pytest.mark.parametrize(
    "n, p, finite", [(1, 0.0, True), (5, 0.3, False), (9, 0.1, False), (30, 0.08, False), (40, 0.5, True)]
)
def test_metric_files_match_the_per_entry_writer_and_reader(tmp_path, n, p, finite):
    metric = build_metric(draw_weights(generate_erdos_renyi(n, p, Seed(n)), Seed(n + 1)))
    assert metric.is_finite() is finite  # the others hold inf entries
    ours, theirs = tmp_path / "ours.txt", tmp_path / "theirs.txt"
    write_metric(str(ours), metric)
    write_metric_lines(str(theirs), metric)
    assert ours.read_bytes() == theirs.read_bytes()
    for reader in (read_metric, read_metric_lines):
        assert np.array_equal(reader(str(ours)).dist, metric.dist)
