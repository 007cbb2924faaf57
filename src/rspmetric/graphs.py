"""Graph construction, random edge weights, and exact cut parameters.

Vertices are labelled 1..n throughout.  Edges are unordered pairs stored as
(u, v) with u < v in lexicographic order; the weight stream is tied to that
order, so the same seed produces the same weights no matter how the edge set
was built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a set of unordered pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        normalized = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) leaves vertex range 1..{self.n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            normalized.append(e)
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only ``(m, 2)`` int32 array, 1-based, built on first use."""
        flat = itertools.chain.from_iterable(self.edges)
        arr = np.fromiter(flat, dtype=np.int32, count=2 * self.m).reshape(self.m, 2)
        arr.setflags(write=False)
        return arr

    def __getstate__(self):
        # leave the cached edge_array out: unpickled arrays come back writable
        return {"n": self.n, "edges": self.edges}

    def adjacency(self) -> list[list[int]]:
        """0-based adjacency lists (index v-1 holds neighbors as 0-based ids)."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u - 1].append(v - 1)
            adj[v - 1].append(u - 1)
        return adj


@dataclass(frozen=True)
class WeightedGraph:
    """A graph plus one strictly positive weight per edge.

    ``weights[i]`` belongs to ``graph.edges[i]`` (lexicographic order).
    """

    graph: Graph
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.graph.m:
            raise ValueError("need exactly one weight per edge")
        w = np.asarray(self.weights, dtype=np.float64)
        if not (np.isfinite(w) & (w > 0)).all():
            raise ValueError("edge weights must be strictly positive and finite")
        object.__setattr__(self, "weights", tuple(w.tolist()))

    def weight_map(self) -> dict[tuple[int, int], float]:
        return dict(zip(self.graph.edges, self.weights))


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
    return Graph(n, tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


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
    edges = tuple((int(a) + 1, int(b) + 1) for a, b in zip(iu[keep], iv[keep]))
    return Graph(n, edges)


def draw_weights(graph: Graph, seed: Seed) -> WeightedGraph:
    """Independent rate-1 exponential weight per edge, in lexicographic edge order."""
    w = UniformStream(seed).exponential_block(graph.m)
    return WeightedGraph(graph, w)


def is_connected(graph: Graph) -> bool:
    if graph.n == 1:
        return True
    adj = graph.adjacency()
    seen = [False] * graph.n
    stack = [0]
    seen[0] = True
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

    edges0 = [(u - 1, v - 1) for u, v in graph.edges]
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
    if m == 0:
        return 0.0
    return float(np.sort(np.asarray(wg.weights))[:m].sum())


def write_graph(path: str, graph: Graph, weights: tuple[float, ...] | None = None) -> None:
    """Write `n m` then one `u v [w]` line per edge (1-based, 17 sig digits)."""
    lines = [f"{graph.n} {graph.m}"]
    if weights is None:
        lines += [f"{u} {v}" for u, v in graph.edges]
    else:
        if len(weights) != graph.m:
            raise ValueError("need exactly one weight per edge")
        lines += [f"{u} {v} {w:.17g}" for (u, v), w in zip(graph.edges, weights)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_weighted_graph(path: str, wg: WeightedGraph) -> None:
    write_graph(path, wg.graph, wg.weights)


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
        if len(row) == 2:
            edges.append((int(row[0]), int(row[1])))
        elif len(row) == 3:
            edges.append((int(row[0]), int(row[1])))
            weights.append(float(row[2]))
        else:
            raise ValueError(f"bad edge line: {' '.join(row)}")
    if weights and len(weights) != len(edges):
        raise ValueError("either all edge lines carry a weight or none do")
    graph = Graph(n, tuple(edges))
    if not weights:
        return graph
    # reorder weights to the normalized lexicographic edge order
    wmap = {}
    for (u, v), w in zip(edges, weights):
        wmap[(u, v) if u < v else (v, u)] = w
    return WeightedGraph(graph, tuple(wmap[e] for e in graph.edges))
