"""Graph construction, random edge weights, and exact cut parameters.

Vertices are labelled 1..n throughout.  A graph's edges are one read-only
``(m, 2)`` int32 array of 1-based pairs (u, v) with u < v, rows in
lexicographic order; its weights are one read-only float64 array aligned with
those rows.  The weight stream is tied to that order, so the same seed
produces the same weights no matter how the edge set was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    NotEnoughEdgesError,
    SizeCapExceededError,
)
from .rng import Seed, UniformStream

# Hard ceiling: a ``cap`` argument can only lower it.  2^(n-1)-1 subsets are
# enumerated in chunks of 2^20 (~60 MB of work arrays); ~1 minute at 24.
CUT_PARAMETER_CAP = 24


def _normalized_edges(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Validated pairs on 1..n as sorted (u < v) rows, and ``perm``: row i is input pair perm[i]."""
    arr = np.asarray(edges)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iuf":
        raise ValueError("edges must be an (m, 2) array of vertex pairs")
    if not (arr == np.round(arr)).all():
        raise ValueError("vertex ids must be integers")
    loops = np.flatnonzero(arr[:, 0] == arr[:, 1])
    if len(loops):
        raise ValueError(f"self-loop at vertex {arr[loops[0], 0]}")
    outside = np.flatnonzero(((arr < 1) | (arr > n)).any(axis=1))
    if len(outside):
        u, v = arr[outside[0]]
        raise ValueError(f"edge ({u}, {v}) leaves vertex range 1..{n}")
    arr = arr.astype(np.int32)
    lo, hi = arr.min(axis=1), arr.max(axis=1)
    perm = np.lexsort((hi, lo))
    out = np.column_stack((lo[perm], hi[perm]))
    dup = np.flatnonzero((out[1:] == out[:-1]).all(axis=1))
    if len(dup):
        raise ValueError(f"duplicate edge {tuple(out[dup[0]].tolist())}")
    return out, perm


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 1..n.

    ``edges`` takes any ``(m, 2)`` array-like of integral vertex pairs and is
    stored as a read-only int32 array of rows (u, v), u < v, in lexicographic
    order.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        edges, _ = _normalized_edges(self.n, self.edges)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __reduce__(self):
        return Graph, (self.n, self.edges)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """A graph plus one strictly positive, finite weight per edge.

    ``weights`` is stored as a read-only float64 copy; ``weights[i]`` belongs
    to ``graph.edges[i]``.
    """

    graph: Graph
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        if w.shape != (self.graph.m,):
            raise ValueError("need exactly one weight per edge")
        if not (np.isfinite(w) & (w > 0)).all():
            raise ValueError("edge weights must be strictly positive and finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self.weights, other.weights)

    def __reduce__(self):
        return WeightedGraph, (self.graph, self.weights)


@dataclass(frozen=True)
class CutParameters:
    """Extremes of |cut(U)| / (|U|(n-|U|)) over nonempty proper subsets U."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= self.beta <= 1:
            raise ValueError("cut parameters must satisfy 0 < alpha <= beta <= 1")


def complete_graph(n: int) -> Graph:
    """All n(n-1)/2 edges present."""
    return Graph(n, np.column_stack(np.triu_indices(n, 1)) + 1)


def path_graph(n: int) -> Graph:
    """Vertices chained 1-2-...-n."""
    return Graph(n, tuple((v, v + 1) for v in range(1, n)))


def star_graph(n: int) -> Graph:
    """Vertex 1 joined to every other vertex."""
    return Graph(n, tuple((1, v) for v in range(2, n + 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, tuple((v, v + 1) for v in range(1, n)) + ((1, n),))


def generate_erdos_renyi(n: int, p: float, seed: Seed) -> Graph:
    """G(n, p): each pair is an edge independently with probability p.

    One uniform is consumed per pair in lexicographic order, so the result is
    a pure function of (n, p, seed).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    iu, iv = np.triu_indices(n, 1)
    u = UniformStream(seed).u01_block(len(iu))
    keep = u < p
    return Graph(n, np.column_stack((iu[keep], iv[keep])) + 1)


def draw_weights(graph: Graph, seed: Seed) -> WeightedGraph:
    """Independent rate-1 exponential weight per edge, in lexicographic edge order."""
    w = UniformStream(seed).exponential_block(graph.m)
    return WeightedGraph(graph, w)


def is_connected(graph: Graph) -> bool:
    adj: list[list[int]] = [[] for _ in range(graph.n + 1)]
    for u, v in graph.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * (graph.n + 1)
    stack = [1]
    seen[1] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == graph.n


def cut_parameters_exact(graph: Graph, cap: int = CUT_PARAMETER_CAP) -> CutParameters:
    """Exact min and max of |cut(U)| / (|U|(n-|U|)) by subset enumeration.

    Only subsets containing vertex 1 are enumerated (U and its complement
    induce the same cut), i.e. 2^(n-1)-1 subsets.  Disconnected graphs are
    rejected: an empty cut would force the minimum to 0, which the definition
    excludes.
    """
    n = graph.n
    if n < 2:
        raise ValueError("cut parameters need at least two vertices")
    cap = min(cap, CUT_PARAMETER_CAP)
    if n > cap:
        raise SizeCapExceededError(f"n={n} exceeds the subset enumeration cap {cap}")

    edges0 = (graph.edges - 1).tolist()
    alpha = math.inf
    beta = -math.inf
    total = (1 << (n - 1)) - 1  # proper subsets containing vertex 1
    chunk = 1 << 20
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        t = np.arange(lo, hi, dtype=np.uint64)
        masks = (t << np.uint64(1)) | np.uint64(1)
        bits = [((masks >> np.uint64(b)) & np.uint64(1)).astype(np.uint8) for b in range(n)]
        sizes = np.zeros(len(masks), dtype=np.int64)
        for b in range(n):
            sizes += bits[b]
        cuts = np.zeros(len(masks), dtype=np.int64)
        for u, v in edges0:
            cuts += bits[u] ^ bits[v]
        if not cuts.all():
            raise DisconnectedGraphError("graph has an empty cut; cut parameters undefined")
        ratios = cuts / (sizes * (n - sizes))
        alpha = min(alpha, float(ratios.min()))
        beta = max(beta, float(ratios.max()))
    return CutParameters(alpha=alpha, beta=beta)


def sum_lightest_edges(wg: WeightedGraph, m: int) -> float:
    """Sum of the m smallest edge weights."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > wg.graph.m:
        raise NotEnoughEdgesError(f"asked for {m} edges, graph has {wg.graph.m}")
    return float(np.sort(wg.weights)[:m].sum())


def write_graph(path: str, graph: Graph | WeightedGraph) -> None:
    """Write `n m` then one `u v [w]` line per edge (1-based, 17 sig digits).

    Weights are written for a WeightedGraph; ``read_graph`` reads either back.
    """
    weighted = isinstance(graph, WeightedGraph)
    g = graph.graph if weighted else graph
    lines = [f"{g.n} {g.m}"]
    if weighted:
        lines += [f"{u} {v} {w:.17g}" for (u, v), w in zip(g.edges.tolist(), graph.weights.tolist())]
    else:
        lines += [f"{u} {v}" for u, v in g.edges.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_graph(path: str) -> Graph | WeightedGraph:
    """Read the `n m` / `u v [w]` format; returns a WeightedGraph if weights present."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split("\n")
    header = tokens[0].split()
    if len(header) != 2:
        raise ValueError("first line must be `n m`")
    n, m = int(header[0]), int(header[1])
    edges = []
    weights = []
    rows = [line.split() for line in tokens[1:] if line.strip()]
    if len(rows) != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows)}")
    for row in rows:
        if len(row) not in (2, 3):
            raise ValueError(f"bad edge line: {' '.join(row)}")
        edges.append((int(row[0]), int(row[1])))
        if len(row) == 3:
            weights.append(float(row[2]))
    if weights and len(weights) != len(edges):
        raise ValueError("either all edge lines carry a weight or none do")
    sorted_edges, perm = _normalized_edges(n, edges)
    graph = Graph(n, sorted_edges)
    if not weights:
        return graph
    return WeightedGraph(graph, np.asarray(weights)[perm])
