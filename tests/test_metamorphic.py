"""Metamorphic tests: relations between two runs that hold bit for bit at any n.

They need no oracle, so they reach sizes where no brute-force reference runs.

Scale by 2: doubling a float is exact (no overflow or underflow at these
magnitudes), so every sum of doubled weights is the doubled sum, and every
comparison between sums comes out as before.  Dijkstra, the pruning to each
vertex's lightest edges and the Bellman certificate therefore take the same
steps, and ``build_metric`` of the doubled weights is twice the table, bit
for bit.
"""

import numpy as np
import pytest

from rspmetric import (
    Seed,
    WeightedGraph,
    build_metric,
    complete_graph,
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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", GRAPHS)
def test_doubled_weights_double_the_table(name, seed):
    wg = _draw(name, seed)
    assert np.array_equal(build_metric(_doubled(wg)).dist, 2.0 * build_metric(wg).dist)


def test_doubled_weights_double_the_table_of_k1000():
    wg = draw_weights(complete_graph(1000), Seed(1000))
    assert np.array_equal(build_metric(_doubled(wg)).dist, 2.0 * build_metric(wg).dist)
