import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rspmetric import (
    Metric,
    Seed,
    build_metric,
    complete_graph,
    draw_weights,
    generate_erdos_renyi,
    is_connected,
)


@pytest.fixture
def line_metric():
    """Four points on a line at 0, 1.1, 2, 4.5; distances are gaps."""
    pos = np.array([0.0, 1.1, 2.0, 4.5])
    return Metric(np.abs(pos[:, None] - pos[None, :]))


def rsp_instance(n, seed):
    """Random shortest path metric on the complete graph, fully seeded."""
    graph = complete_graph(n)
    wg = draw_weights(graph, Seed(seed))
    return graph, wg, build_metric(wg)


def er_metric(n, seed):
    """Shortest-path metric on the first connected G(n, 1/2) draw from the seed."""
    s = Seed(seed)
    while True:
        s = s.child(0)
        g = generate_erdos_renyi(n, 0.5, s)
        if is_connected(g):
            return build_metric(draw_weights(g, s.child(1)))


def points_on_line(n):
    pos = np.arange(n, dtype=float)
    return Metric(np.abs(pos[:, None] - pos[None, :]))


def all_ones_metric(n):
    return Metric(np.ones((n, n)) - np.eye(n))


def small_integer_metric(n, seed):
    """Shortest-path closure of symmetric weights drawn from {1, 2, 3}."""
    w = np.random.default_rng(seed).integers(1, 4, size=(n, n)).astype(float)
    d = np.triu(w, 1)
    d = d + d.T
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return Metric(d)
