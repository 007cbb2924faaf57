import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rspmetric import (
    Metric,
    Seed,
    build_metric,
    cluster_arrays,
    complete_graph,
    draw_weights,
    generate_erdos_renyi,
    is_connected,
)
from rspmetric.metric import _clusterings


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


def stacked_clusterings(metrics, deltas, alphas):
    """(clusters, diameters, s_delta) of each (metric, radius) pair, entry
    [t][r] as ``cluster_partition_loop`` gives them: one ``cluster_arrays``
    call, with each cluster's members read from the ``order`` and ``starts``
    of one ``_clusterings`` call on the same stack."""
    pair, diameters, s_delta = cluster_arrays(metrics, deltas, alphas)
    _, order, starts, _ = _clusterings(metrics, deltas, alphas)
    assert np.array_equal(pair, starts // order.shape[1])
    assert np.all(np.diff(pair) >= 0)  # pair by pair, in order
    members = (order + 1).ravel().tolist()
    cuts = starts.tolist() + [len(members)]
    rows = [([], [], s) for s in s_delta.ravel().tolist()]
    for p, a, b, d in zip(pair.tolist(), cuts, cuts[1:], diameters.tolist()):
        rows[p][0].append(frozenset(members[a:b]))
        rows[p][1].append(d)
    radii = s_delta.shape[1]
    return [[(tuple(c), tuple(d), s) for c, d, s in rows[t * radii : (t + 1) * radii]]
            for t in range(len(metrics))]
