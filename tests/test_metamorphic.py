"""Metamorphic tests: relations between two runs that hold bit for bit at any n.

They need no oracle, so they reach sizes where no brute-force reference runs.

Scale by 2: doubling a float is exact (no overflow or underflow at these
magnitudes), so every sum of doubled weights is the doubled sum, and every
comparison between sums comes out as before.  Dijkstra, the pruning to each
vertex's lightest edges and the Bellman certificate therefore take the same
steps, and ``build_metric`` of the doubled weights is twice the table, bit
for bit.  Clustering the doubled table at radius 2 delta with alpha / 2 asks
the same questions: d <= delta iff 2d <= 2 delta, and the density threshold's
rate alpha delta n / 5 is the same float.  So the clusters and s_delta come
out the same, bit for bit, and every cluster diameter doubles.

Scale by 2^j: the same holds for any power of two that stays clear of
overflow and subnormals, so every heuristic and exact baseline compares the
same sums in the same order and returns the same tour, pairs or centres,
with every cost times 2^j.

The same scaling, applied to every window's weight draw in ``lab``, scales
every distance a suite records: each tau_k and the ``growth_sum`` of ``tau``
(a sum of cut sizes times differences of distances), and both costs of
``ratio``, whose ratio stays the same float.

Relabel: renaming the vertices by a permutation, each weight carried with its
edge, renames every shortest path.  The certified APSP's row is the unique
solution of the Bellman equations, whose pruning keeps edges by weight alone,
so the table permutes exactly; cut sizes and the cut parameters do not see
names.  Where no two candidates tie, the closest-first order, the greedy
matching and the nearest-neighbour walk from the renamed start map through
the permutation, with the same distances and costs.  ``two_opt``, the
insertion rules and the clustering read positions or vertex indices, so
they are left out.
"""

import numpy as np
import pytest

from rspmetric import (
    ExperimentConfig,
    Graph,
    Seed,
    WeightedGraph,
    build_metric,
    complete_graph,
    cut_parameters_exact,
    diameter,
    draw_weights,
    exact_kmedian,
    exact_matching,
    exact_tsp,
    first_k_centers,
    generate_erdos_renyi,
    greedy_matching,
    insertion_tour,
    is_connected,
    nearest_neighbor_tour,
    run_suite,
    tau_profile,
    trivial_kmedian,
    two_opt,
)
from rspmetric import lab
from rspmetric.graphs import CUT_PARAMETER_CAP
from rspmetric.heuristics import INSERTION_RULES
from rspmetric.metric import prune_width
from conftest import stacked_clusterings

SEEDS = range(5)
GRAPHS = {  # name -> (graph of a seed, whether prune_width prunes it alone)
    "K_12": (lambda s: complete_graph(12), False),
    "K_60": (lambda s: complete_graph(60), True),
    "G(30, 0.3)": (lambda s: generate_erdos_renyi(30, 0.3, Seed(s).child(0, "graph")), False),
    "G(150, 0.08)": (lambda s: generate_erdos_renyi(150, 0.08, Seed(s).child(0, "graph")), False),
    "G(16, 0.5)": (lambda s: generate_erdos_renyi(16, 0.5, Seed(s).child(0, "graph")), False),
}


def _draw(name, seed):
    make, pruned = GRAPHS[name]
    graph = make(seed)
    assert (prune_width(graph.n, graph.m) is not None) == pruned
    return draw_weights(graph, Seed(seed))


def _scaled(wg, j):
    return WeightedGraph(wg.graph, 2.0**j * wg.weights)


def _tables(wg):
    """The metric of a draw and of its doubled weights."""
    return build_metric(wg), build_metric(_scaled(wg, 1))


@pytest.fixture(scope="module")
def k1000_draw():
    return draw_weights(complete_graph(1000), Seed(1000))


@pytest.fixture(scope="module")
def k1000(k1000_draw):
    return _tables(k1000_draw)


@pytest.fixture(scope="module")
def g1000_draw():
    # the sparse end: unpruned and past BATCH_VERTICES, so a block of its own
    # through _union_rows, whose one Dijkstra pass on all edges (31 million
    # units of work) splits over the usable CPUs
    wg = draw_weights(generate_erdos_renyi(1000, 0.03, Seed(1001).child(0, "graph")), Seed(1001))
    assert prune_width(wg.graph.n, wg.graph.m) is None and is_connected(wg.graph)
    return wg


@pytest.fixture(scope="module")
def g1000(g1000_draw):
    return _tables(g1000_draw)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", GRAPHS)
def test_doubled_weights_double_the_table(name, seed):
    metric, doubled = _tables(_draw(name, seed))
    assert np.array_equal(doubled.dist, 2.0 * metric.dist)


def test_doubled_weights_double_the_table_of_k1000(k1000):
    metric, doubled = k1000
    assert np.array_equal(doubled.dist, 2.0 * metric.dist)


def test_doubled_weights_double_the_table_of_sparse_g1000(g1000):
    metric, doubled = g1000
    assert np.array_equal(doubled.dist, 2.0 * metric.dist)


FRACTIONS = (0.0, 0.125, 0.25, 0.5, 1.0)
ALPHAS = (1.0, 0.3)


def assert_doubled_clusters(tables):
    """One stacked call per side: each (metric, doubled metric) pair at each alpha is one row."""
    rows = [(metric, doubled, alpha) for metric, doubled in tables for alpha in ALPHAS]
    deltas = [[f * diameter(metric) for f in FRACTIONS] for metric, _, _ in rows]
    plain = stacked_clusterings([m for m, _, _ in rows], deltas, [a for _, _, a in rows])
    twice = stacked_clusterings(
        [d for _, d, _ in rows], [[2.0 * x for x in row] for row in deltas],
        [a / 2.0 for _, _, a in rows],
    )
    for parts, doubled_parts in zip(plain, twice):
        for (clusters, diameters, s_delta), doubled in zip(parts, doubled_parts):
            assert doubled == (clusters, tuple(2.0 * x for x in diameters), s_delta)


@pytest.mark.parametrize("name", GRAPHS)
def test_doubled_weights_at_twice_the_radius_and_half_alpha_double_the_diameters(name):
    assert_doubled_clusters([_tables(_draw(name, seed)) for seed in SEEDS])


def test_doubled_weights_at_twice_the_radius_and_half_alpha_double_the_diameters_of_k1000(k1000):
    assert_doubled_clusters([k1000])


def _solutions(metric, seed, exact):
    """name -> (answer, costs) of each heuristic, and with ``exact`` of each exact baseline."""
    nn, matching = nearest_neighbor_tour(metric), greedy_matching(metric)
    out = {"nn": (nn.order, [nn.cost]), "greedy": (matching.pairs, [matching.cost])}
    for rule in INSERTION_RULES:
        tour = insertion_tour(metric, rule, Seed(seed))
        out[rule] = (tour.order, [tour.cost])
    for init, start in (("identity", None), ("nn", nn)):
        trace = two_opt(metric, start)
        out[f"2-opt from {init}"] = ((trace.final.order, trace.iterations),
                                     [trace.final.cost, *trace.costs])
    median = trivial_kmedian(metric, first_k_centers(3))
    out["k-median"] = (median.centers, [median.cost])
    if exact:
        tsp, matching, median = exact_tsp(metric), exact_matching(metric), exact_kmedian(metric, 3)
        out["tsp"] = (tsp.order, [tsp.cost])
        out["matching"] = (matching.pairs, [matching.cost])
        out["opt k-median"] = (median.centers, [median.cost])
    return out


SCALED = {"K_12": True, "G(16, 0.5)": False, "K_60": False}  # name -> run the exact baselines


@pytest.mark.parametrize("j", [-3, 5])
@pytest.mark.parametrize("name", SCALED)
def test_weights_times_a_power_of_two_scale_every_cost_and_change_no_answer(name, j):
    wg = _draw(name, 0)
    metric, scaled = build_metric(wg), build_metric(_scaled(wg, j))
    assert np.array_equal(scaled.dist, 2.0**j * metric.dist)
    plain, times = _solutions(metric, 0, SCALED[name]), _solutions(scaled, 0, SCALED[name])
    assert times.keys() == plain.keys()
    for key, (answer, costs) in plain.items():
        assert times[key] == (answer, [2.0**j * c for c in costs]), key
    if SCALED[name]:  # so the approximation ratios are equal too
        assert times["nn"][1][0] / times["tsp"][1][0] == plain["nn"][1][0] / plain["tsp"][1][0]


SUITE_RUNS = {  # name -> config, and the record keys that hold distances or costs
    "tau K_12": (ExperimentConfig(suite="tau", n=12, trials=20, seed=3), None),
    "tau G(16, 0.5)": (ExperimentConfig(suite="tau", model="er", n=16, p=0.5, trials=20,
                                        seed=3), None),
    "ratio nn K_12": (ExperimentConfig(suite="ratio", kind="nn", n=12, trials=8, seed=3),
                      ("heuristic", "exact")),
    "ratio nn G(12, 0.5)": (ExperimentConfig(suite="ratio", kind="nn", model="er", n=12, p=0.5,
                                             trials=8, seed=3), ("heuristic", "exact")),
}


@pytest.mark.parametrize("name", SUITE_RUNS)
def test_window_weights_times_a_power_of_two_scale_every_recorded_distance(name, monkeypatch):
    config, costs = SUITE_RUNS[name]
    plain = run_suite(config).records
    draw = lab.weighted_graphs
    for j in (-3, 5):
        with monkeypatch.context() as patch:
            patch.setattr(lab, "weighted_graphs",
                          lambda graphs, seeds: [_scaled(wg, j) for wg in draw(graphs, seeds)])
            scaled = run_suite(config).records
        assert [(r.index, r.seed) for r in scaled] == [(r.index, r.seed) for r in plain]
        for record, times in zip(plain, scaled):
            values = record.values
            keys = costs or [k for k in values if k.startswith("tau_")] + ["growth_sum"]
            if values.get("connected", 1):
                assert {k: times.values[k] for k in keys} == {k: 2.0**j * values[k] for k in keys}
            assert {k: v for k, v in times.values.items() if k not in keys} == {
                k: v for k, v in values.items() if k not in keys}  # the ratio is the same float


def _relabelled(wg, perm):
    """The draw with vertex v named perm[v - 1], each weight carried with its edge."""
    ends = perm[wg.graph.edges - 1]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    order = np.lexsort((hi, lo))
    return WeightedGraph(Graph(wg.graph.n, np.column_stack((lo, hi))[order]), wg.weights[order])


RELABELLED = ("K_12", "G(16, 0.5)", "G(30, 0.3)", "K_60")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", RELABELLED)
def test_renamed_vertices_rename_every_answer(name, seed):
    wg = _draw(name, seed)
    assert is_connected(wg.graph)
    n = wg.graph.n
    perm = np.random.default_rng(seed).permutation(n) + 1
    renamed = _relabelled(wg, perm)
    metric, metric_r = build_metric(wg), build_metric(renamed)
    assert np.array_equal(metric_r.dist[np.ix_(perm - 1, perm - 1)], metric.dist)
    if n <= CUT_PARAMETER_CAP:
        assert cut_parameters_exact(renamed.graph) == cut_parameters_exact(wg.graph)
    for v in (1, n // 2, n):
        profile = tau_profile(metric, wg.graph, v)
        profile_r = tau_profile(metric_r, renamed.graph, perm[v - 1])
        assert np.array_equal(profile_r.taus, profile.taus)
        assert np.array_equal(profile_r.chis, profile.chis)
        assert np.array_equal(profile_r.order, perm[profile.order - 1])
    matching, matching_r = greedy_matching(metric), greedy_matching(metric_r)
    renamed_pairs = {frozenset(perm[[a - 1, b - 1]].tolist()) for a, b in matching.pairs}
    assert {frozenset(p) for p in matching_r.pairs} == renamed_pairs
    assert matching_r.cost == matching.cost
    for start in (1, n):
        tour = nearest_neighbor_tour(metric, start)
        tour_r = nearest_neighbor_tour(metric_r, perm[start - 1])
        assert tour_r.order == tuple(perm[np.array(tour.order) - 1].tolist())
        assert tour_r.cost == tour.cost


def test_renamed_vertices_permute_the_table_of_k1000(k1000_draw, k1000):
    # the pruned first pass, its certificate and the reruns at n = 1000
    metric, _ = k1000
    perm = np.random.default_rng(1000).permutation(1000) + 1
    metric_r = build_metric(_relabelled(k1000_draw, perm))
    assert np.array_equal(metric_r.dist[np.ix_(perm - 1, perm - 1)], metric.dist)


def test_renamed_vertices_permute_the_table_of_sparse_g1000(g1000_draw, g1000):
    metric, _ = g1000
    perm = np.random.default_rng(1001).permutation(1000) + 1
    metric_r = build_metric(_relabelled(g1000_draw, perm))
    assert np.array_equal(metric_r.dist[np.ix_(perm - 1, perm - 1)], metric.dist)
