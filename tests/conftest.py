import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rspmetric import Metric, Seed, build_metric, complete_graph, draw_weights


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
