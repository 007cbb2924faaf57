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
"""

import numpy as np
import pytest

from rspmetric import (
    Seed,
    WeightedGraph,
    build_metric,
    cluster_partitions,
    complete_graph,
    diameter,
    draw_weights,
    generate_erdos_renyi,
)
from rspmetric.metric import prune_width

SEEDS = range(5)
GRAPHS = {  # name -> (graph of a seed, whether build_metric prunes it)
    "K_12": (lambda s: complete_graph(12), False),
    "K_60": (lambda s: complete_graph(60), True),
    "G(30, 0.3)": (lambda s: generate_erdos_renyi(30, 0.3, Seed(s).child(0, "graph")), False),
    "G(150, 0.08)": (lambda s: generate_erdos_renyi(150, 0.08, Seed(s).child(0, "graph")), False),
}


def _draw(name, seed):
    make, pruned = GRAPHS[name]
    graph = make(seed)
    assert (prune_width(graph.n, graph.m) is not None) == pruned
    return draw_weights(graph, Seed(seed))


def _doubled(wg):
    return WeightedGraph(wg.graph, 2.0 * wg.weights)


def _tables(wg):
    """The metric of a draw and of its doubled weights."""
    return build_metric(wg), build_metric(_doubled(wg))


@pytest.fixture(scope="module")
def k1000():
    return _tables(draw_weights(complete_graph(1000), Seed(1000)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", GRAPHS)
def test_doubled_weights_double_the_table(name, seed):
    metric, doubled = _tables(_draw(name, seed))
    assert np.array_equal(doubled.dist, 2.0 * metric.dist)


def test_doubled_weights_double_the_table_of_k1000(k1000):
    metric, doubled = k1000
    assert np.array_equal(doubled.dist, 2.0 * metric.dist)


FRACTIONS = (0.0, 0.125, 0.25, 0.5, 1.0)
ALPHAS = (1.0, 0.3)


def assert_doubled_clusters(tables):
    """One stacked call per side: each (metric, doubled metric) pair at each alpha is one row."""
    rows = [(metric, doubled, alpha) for metric, doubled in tables for alpha in ALPHAS]
    deltas = [[f * diameter(metric) for f in FRACTIONS] for metric, _, _ in rows]
    plain = cluster_partitions([m for m, _, _ in rows], deltas, [a for _, _, a in rows])
    twice = cluster_partitions(
        [d for _, d, _ in rows], [[2.0 * x for x in row] for row in deltas],
        [a / 2.0 for _, _, a in rows],
    )
    for parts, doubled_parts in zip(plain, twice):
        for part, doubled in zip(parts, doubled_parts):
            assert doubled.clusters == part.clusters
            assert doubled.s_delta == part.s_delta
            assert doubled.diameters == tuple(2.0 * x for x in part.diameters)


@pytest.mark.parametrize("name", GRAPHS)
def test_doubled_weights_at_twice_the_radius_and_half_alpha_double_the_diameters(name):
    assert_doubled_clusters([_tables(_draw(name, seed)) for seed in SEEDS])


def test_doubled_weights_at_twice_the_radius_and_half_alpha_double_the_diameters_of_k1000(k1000):
    assert_doubled_clusters([k1000])
