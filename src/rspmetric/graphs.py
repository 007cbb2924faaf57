"""Graph construction, random edge weights, and exact cut parameters.

Vertices are labelled 1..n throughout.  A graph's edges are one read-only
``(m, 2)`` int32 array of 1-based pairs (u, v) with u < v, rows in
lexicographic order; its weights are one read-only float64 array aligned with
those rows.  The weight stream is tied to that order, so the same seed
produces the same weights no matter how the edge set was built.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DisconnectedGraphError,
    NotEnoughEdgesError,
    SizeCapExceededError,
    check_count,
)
from .rng import Seed, exponential_rows, u01_rows

# Hard ceiling, the only size bound of the cut table.  At 24 the 2^23 cuts of
# a graph are built in row blocks of 2^19 float32 entries: 9-10 ms per graph
# in a window of 28 G(24, 1/2) draws, a 3.0 MiB traced peak and about 2.5 MB
# of extra resident memory on a 2-core Xeon host.
CUT_PARAMETER_CAP = 24
# Hard ceiling on n wherever an n x n table or all n(n-1)/2 pairs are built.
# At 2048 on a 2-core Xeon host, with one process per step:
# generate_erdos_renyi(2048, 1.0) then is_connected peaked at 170 MB RSS in
# 0.12-0.21 s (is_connected answers K_n from its edge count; its search took
# 1.8-2.2 s and raised the peak to 442 MB).  complete_graph then build_metric
# peaked at 227 MB in 2.0-2.9 s on one core (taskset -c 0) and in 1.5-1.8 s
# on two, where its first Dijkstra pass forks one child.  The child's peak
# RSS is 176 MB; all but about 18 MB of it (its half of the rows) are the
# parent's pages, shared copy-on-write.
VERTEX_CAP = 2048


def check_vertex_cap(n) -> int:
    """The vertex count n as a plain int (``check_count``); SizeCapExceededError
    if it is above ``VERTEX_CAP``."""
    n = check_count(n, "n")
    if n > VERTEX_CAP:
        raise SizeCapExceededError(f"n={n} exceeds the vertex cap {VERTEX_CAP}")
    return n


def check_vertex(v, n: int) -> int:
    """Vertex v of 1..n as a plain int.

    TypeError unless v is an integer other than a bool (``check_count``: 1.5,
    1.0 and True are refused), ValueError outside 1..n.
    """
    v = check_count(v, "vertex")
    if not 1 <= v <= n:
        raise ValueError(f"vertices must lie in 1..{n}, got {v}")
    return v


def _normalized_edges(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Validated pairs on 1..n as sorted (u < v) int32 rows, and ``perm``: row i is input pair perm[i].

    O(m) passes over the two columns.  Row (u, v) gets the int64 key
    min(u, v) * (n + 1) + max(u, v), whose order is the rows' lexicographic
    order; n is at most the int32 maximum, so ids fit int32 and keys stay
    below 2^62.  Keys that already increase strictly are rows in order with no
    duplicate, kept in their order with ``perm = arange(m)``; otherwise
    ``perm`` is the argsort of the keys, unique on valid input.
    """
    arr = np.asarray(edges)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iuf":
        raise ValueError("edges must be an (m, 2) array of vertex pairs")
    if n > np.iinfo(np.int32).max:
        raise ValueError(f"n={n} exceeds {np.iinfo(np.int32).max}, the largest int32 vertex id")
    u, v = arr.T
    if arr.dtype.kind == "f" and not ((u == np.round(u)).all() and (v == np.round(v)).all()):
        raise ValueError("vertex ids must be integers")
    loops = u == v
    if loops.any():
        raise ValueError(f"self-loop at vertex {u[loops.argmax()]}")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if len(lo) and (lo.min() < 1 or hi.max() > n):
        i = np.flatnonzero((lo < 1) | (hi > n))[0]
        raise ValueError(f"edge ({u[i]}, {v[i]}) leaves vertex range 1..{n}")
    lo, hi = lo.astype(np.int32, copy=False), hi.astype(np.int32, copy=False)  # exact in 1..n
    key = lo.astype(np.int64)
    key *= n + 1
    key += hi
    if (key[1:] > key[:-1]).all():
        return np.column_stack((lo, hi)), np.arange(len(key))
    perm = np.argsort(key)
    key = key[perm]
    dup = np.flatnonzero(key[1:] == key[:-1])
    if len(dup):
        raise ValueError(f"duplicate edge {divmod(int(key[dup[0]]), n + 1)}")
    return np.column_stack((lo[perm], hi[perm])), perm


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 1..n.

    ``edges`` takes any ``(m, 2)`` array-like of integral vertex pairs and is
    stored as a read-only int32 array of rows (u, v), u < v, in lexicographic
    order; n may be at most 2^31 - 1, the largest int32 id.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        try:
            n = int(self.n)
        except (TypeError, ValueError, OverflowError):
            n = None
        if n is None or n != self.n:
            raise ValueError(f"vertex count must be an integer, got {self.n!r}")
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        object.__setattr__(self, "n", n)
        edges, _ = _normalized_edges(n, self.edges)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _of_valid_rows(cls, n: int, edges: np.ndarray) -> Graph:
        """A graph that takes over ``edges``, int32 rows (u, v) with
        1 <= u < v <= n in lexicographic order, an array no one else holds."""
        graph = cls.__new__(cls)
        edges.setflags(write=False)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", edges)
        return graph

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

    @classmethod
    def _of_valid_weights(cls, graph: Graph, weights: np.ndarray) -> WeightedGraph:
        """A weighted graph over ``weights``, a read-only float64 array of
        ``graph.m`` strictly positive, finite weights."""
        wg = cls.__new__(cls)
        object.__setattr__(wg, "graph", graph)
        object.__setattr__(wg, "weights", weights)
        return wg

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


def _all_pairs(n: int) -> np.ndarray:
    """The n(n-1)/2 pairs u < v of 1..n as int32 rows in lexicographic order."""
    size = np.arange(n - 1, 0, -1)  # row u = 1..n-1 holds u's n - u pairs
    pairs = np.empty((n * (n - 1) // 2, 2), dtype=np.int32)
    pairs[:, 0] = np.repeat(np.arange(1, n, dtype=np.int32), size)
    # v counts up by 1 from 2, and falls back from n to u + 1 where row u > 1 starts
    step = np.ones(len(pairs), dtype=np.int32)
    step[np.cumsum(size) - size] = np.arange(2, n + 1) - n
    step[:1] = 2  # row 1 starts from 0
    np.cumsum(step, out=pairs[:, 1])
    return pairs


def complete_graph(n: int) -> Graph:
    """All n(n-1)/2 edges present."""
    n = check_vertex_cap(n)
    return Graph(n, _all_pairs(n))


def path_graph(n: int) -> Graph:
    """Vertices chained 1-2-...-n."""
    n = check_count(n, "n")
    return Graph(n, tuple((v, v + 1) for v in range(1, n)))


def star_graph(n: int) -> Graph:
    """Vertex 1 joined to every other vertex."""
    n = check_count(n, "n")
    return Graph(n, tuple((1, v) for v in range(2, n + 1)))


def cycle_graph(n: int) -> Graph:
    n = check_count(n, "n")
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, tuple((v, v + 1) for v in range(1, n)) + ((1, n),))


def erdos_renyi_graphs(n: int, p: float, seeds) -> list[Graph]:
    """One G(n, p) per seed, all from one kernel call: entry i is
    ``generate_erdos_renyi(n, p, seeds[i])``."""
    n = check_vertex_cap(n)
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    pairs = _all_pairs(n)
    # a mask's rows of the sorted pairs are in range, sorted and unique
    return [Graph._of_valid_rows(n, pairs[edge]) for edge in u01_rows(seeds, len(pairs)) < p]


def generate_erdos_renyi(n: int, p: float, seed: Seed) -> Graph:
    """G(n, p): each pair is an edge independently with probability p.

    One uniform is consumed per pair in lexicographic order, so the result is
    a pure function of (n, p, seed).
    """
    return erdos_renyi_graphs(n, p, [seed])[0]


def weighted_graphs(graphs, seeds) -> list[WeightedGraph]:
    """Each graph with its own seed's weights, all from one kernel call: entry
    i is ``draw_weights(graphs[i], seeds[i])``.

    Every seed draws as many weights as the largest graph has edges, and
    each graph keeps the first ones it needs, a view of the one block of
    draws.  The block is checked once: every weight must be finite and
    positive (a uniform of exactly 0 would draw a weight of 0).
    """
    if len(graphs) != len(seeds):
        raise ValueError(f"need one seed per graph, got {len(seeds)} for {len(graphs)}")
    w = exponential_rows(seeds, max((g.m for g in graphs), default=0))
    if not (np.isfinite(w) & (w > 0)).all():
        raise ValueError("edge weights must be strictly positive and finite")
    w.setflags(write=False)
    return [WeightedGraph._of_valid_weights(g, row[: g.m]) for g, row in zip(graphs, w)]


def draw_weights(graph: Graph, seed: Seed) -> WeightedGraph:
    """Independent rate-1 exponential weight per edge, in lexicographic edge order."""
    return weighted_graphs([graph], [seed])[0]


def is_connected(graph: Graph) -> bool:
    if graph.m == graph.n * (graph.n - 1) // 2:  # K_n, the test of cut_parameters_exact
        return True
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


CUT_BLOCK = 1 << 19  # at most this many (row, graph, column) entries per block of cut tables
# 2 MiB of float32 products per block.  At 2^20 a trial window of 25
# G(16, 1/2) draws (a whole er-structure benchmark unit) takes its cuts in one
# 3.3 MB block, and that workload's peak RSS read 89.7-89.8 MB in 10 s runs
# on a 2-core Xeon host; at 2^19 it takes blocks of at most 16 graphs,
# 2.1 MB each, and read 88.3-88.6 MB.


@lru_cache(maxsize=CUT_PARAMETER_CAP)
def _split_bit_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Float32 bit rows of the two vertex blocks that ``exact_cut_parameters`` splits n into.

    Returns ``xl``, ``groups``, ``xht`` and ``starts``.  The low block L is
    vertex 1 plus the next (n-1)//2 vertices: ``xl`` holds its 0/1 rows that
    contain vertex 1, sorted by popcount, so the rows of popcount a start at
    ``groups[a - 1]`` and the last row is all of L.  The high block H is the
    rest: the first |H| rows of ``xht`` hold all 2^|H| of its rows as columns,
    sorted by popcount, so the columns of popcount b start at ``starts[b]``
    and the last column is all of H; its last row is all ones.
    """
    low = 1 + (n - 1) // 2
    high = n - low
    xl = (np.arange(1, 1 << low, 2)[:, None] >> np.arange(low)) & 1
    sl = xl.sum(axis=1)
    order = np.argsort(sl, kind="stable")
    xl = xl[order].astype(np.float32)
    groups = np.searchsorted(sl[order], np.arange(1, low + 1))
    xh = (np.arange(1 << high)[:, None] >> np.arange(high)) & 1
    sh = xh.sum(axis=1)
    order = np.argsort(sh, kind="stable")
    xht = np.ones((high + 1, 1 << high), dtype=np.float32)
    xht[:high] = xh[order].T
    starts = np.searchsorted(sh[order], np.arange(high + 1))
    for a in (xl, groups, xht, starts):
        a.setflags(write=False)
    return xl, groups, xht, starts


def cut_parameters_exact(graph: Graph) -> CutParameters:
    """Exact min and max of |cut(U)| / (|U|(n-|U|)) over nonempty proper
    subsets U: ``exact_cut_parameters`` of one graph."""
    return exact_cut_parameters([graph])[0]


def exact_cut_parameters(graphs) -> list[CutParameters]:
    """The exact cut parameters of each graph, all on one n, in input order.

    Each graph is checked in turn, and the first bad one raises: n < 2 is a
    ValueError; K_n needs no table at any n, since each cut has exactly
    |U|(n-|U|) edges; any other graph past ``CUT_PARAMETER_CAP`` raises
    SizeCapExceededError, and one with an empty cut DisconnectedGraphError
    (an empty cut would force the minimum to 0, which the definition
    excludes).  Mixed n is a ValueError.

    U and its complement induce the same cut, so the 2^(n-1)-1 proper subsets
    that contain vertex 1 cover all of them.  With x the 0/1 indicator of U
    and A the adjacency matrix, |cut(U)| = deg.x - x'Ax.  Splitting the
    vertices into a low block L (vertex 1 and the next (n-1)//2) and a high
    block H turns this into

        |cut(U)| = f_L(x_L) + f_H(x_H) - 2 x_L' A[L, H] x_H,

    with f_B(x) = deg_B.x - x'A_BB x, so the cuts of every U form one table:
    a row per L-part and a column per H-part.  The tables of the graphs other
    than K_n are stacked as one float32 (row, graph, column) table, one
    matrix product of each (row, graph)'s cross term and f_L with the H-parts
    plus a row of ones, in blocks of at most ``CUT_BLOCK`` entries: whole
    tables, or rows of one.  Each cell (|U cap L|, |U cap H|) has a constant
    |U| and hence a constant divisor.  The rows are sorted by |U cap L|, so
    each group of rows is reduced to its min and max cut per column by one
    reduction over a contiguous slab (a group split over two blocks is folded
    into its accumulator), f_H is added, and one ``reduceat`` over the
    columns sorted by |U cap H| finishes each cell.

    The floats are those of dividing each cut by its |U|(n-|U|) one subset at
    a time: every table entry and partial sum is an integer below n^2 < 2^24
    in magnitude, exact in float32 in whatever order the product sums; the
    cells are cast to float64 before the division, and correctly rounded
    division by a fixed positive divisor is monotone, so the min (max) of the
    quotients is the quotient of the min (max) cut.
    """
    if not graphs:
        return []
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("all graphs must have the same vertex count")
    if n < 2:
        raise ValueError("cut parameters need at least two vertices")
    complete = [g.m == n * (n - 1) // 2 for g in graphs]
    tabled = [g for g, k in zip(graphs, complete) if not k]
    if not tabled:
        return [CutParameters(1.0, 1.0) for _ in graphs]
    if n > CUT_PARAMETER_CAP:
        raise SizeCapExceededError(f"n={n} exceeds the cut table cap {CUT_PARAMETER_CAP}")
    xl, _, xht, _ = _split_bit_rows(n)
    step = max(1, CUT_BLOCK // (len(xl) * xht.shape[1]))  # graphs per block of whole tables
    cells = [_cut_cells(tabled[i:i + step]) for i in range(0, len(tabled), step)]
    lo_cut, hi_cut = (np.concatenate(c) for c in zip(*cells))
    if not lo_cut.all():
        raise DisconnectedGraphError("graph has an empty cut; cut parameters undefined")
    low = xl.shape[1]
    sizes = (np.arange(1, low + 1)[:, None] + np.arange(n - low + 1)).ravel()[:-1]
    divisors = (sizes * (n - sizes)).astype(np.float64)
    cuts = iter(zip((lo_cut / divisors).min(axis=1).tolist(), (hi_cut / divisors).max(axis=1).tolist()))
    return [CutParameters(1.0, 1.0) if k else CutParameters(*next(cuts)) for k in complete]


def _cut_cells(graphs: list[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """Min and max |cut(U)| of each graph in each (|U cap L|, |U cap H|) cell
    but the last (U = V alone), as float64 (graph, cell) arrays, the cells
    in row-major order (see ``exact_cut_parameters``)."""
    n, count = graphs[0].n, len(graphs)
    xl, groups, xht, starts = _split_bit_rows(n)
    rows, cols = len(xl), xht.shape[1]
    low, high = xl.shape[1], n - xl.shape[1]
    adj = np.zeros((n, count, n), dtype=np.float32)  # adj[u, g, v]: edge (u, v) of graph g
    u, v = (np.concatenate([g.edges for g in graphs]) - 1).T
    g = np.repeat(np.arange(count), [graph.m for graph in graphs])
    adj[u, g, v] = adj[v, g, u] = 1.0
    deg = adj.sum(axis=2)
    ax = (xl @ adj[:low].reshape(low, -1)).reshape(rows, count, n)  # x_L' A[L, :]
    coef = np.empty((rows * count, high + 1), dtype=np.float32)  # (cross term, f_L) per (row, graph)
    np.multiply(ax[:, :, low:].reshape(-1, high), -2.0, out=coef[:, :high])
    coef[:, high] = ((deg[:low].T - ax[:, :, :low]) * xl[:, None]).sum(axis=2).ravel()
    xh = xht[:high]
    ah = (adj[low:, :, low:].reshape(-1, high) @ xh).reshape(high, count, cols)  # A_HH x_H
    fh = ((deg[low:, :, None] - ah) * xh[:, None]).sum(axis=0)
    lo_cut = np.full((low, count, cols), np.inf, dtype=np.float32)
    hi_cut = np.full_like(lo_cut, -np.inf)
    bounds = list(zip(groups.tolist(), groups[1:].tolist() + [rows]))
    step = max(1, CUT_BLOCK // (count * cols))  # rows per block, at least one
    for r0 in range(0, rows, step):
        block = (coef[r0 * count:(r0 + step) * count] @ xht).reshape(-1, count, cols)
        r1 = r0 + len(block)
        for a, (lo, hi) in enumerate(bounds):
            if lo < r1 and hi > r0:
                part = block[max(lo, r0) - r0:min(hi, r1) - r0]
                np.minimum(lo_cut[a], np.minimum.reduce(part, axis=0), out=lo_cut[a])
                np.maximum(hi_cut[a], np.maximum.reduce(part, axis=0), out=hi_cut[a])
        del block, part  # before the next block's product, so one block is held at a time
    cells = []
    for acc, op in ((lo_cut, np.minimum), (hi_cut, np.maximum)):
        acc += fh
        cell = op.reduceat(acc, starts, axis=2).transpose(1, 0, 2).reshape(count, -1)
        cells.append(cell[:, :-1].astype(np.float64))
    return cells[0], cells[1]


def sum_lightest_edges(wg: WeightedGraph, m: int) -> float:
    """Sum of the m smallest edge weights."""
    m = check_count(m, "m")
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


def read_rows(fh) -> np.ndarray:
    """The rest of an open text file as a float64 table, one row per nonblank line.

    ValueError on a field that is no number, ``#`` included, or on rows of
    unequal length.
    """
    text = fh.read()
    if not text or text.isspace():  # loadtxt would warn "input contained no data"
        return np.empty((0, 0))
    return np.loadtxt(io.StringIO(text), ndmin=2, comments=None)


def read_graph(path: str) -> Graph | WeightedGraph:
    """Read the `n m` / `u v [w]` format; returns a WeightedGraph if weights present.

    Vertex ids are read as numbers: ``1.0`` is vertex 1, ``1.5`` is refused.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("first line must be `n m`")
        n, m = int(header[0]), int(header[1])
        rows = read_rows(fh)
    if len(rows) != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows)}")
    if m and rows.shape[1] not in (2, 3):
        raise ValueError(f"edge lines need 2 or 3 fields, found {rows.shape[1]}")
    sorted_edges, perm = _normalized_edges(n, rows[:, :2])
    graph = Graph(n, sorted_edges)
    if rows.shape[1] < 3:
        return graph
    return WeightedGraph(graph, rows[perm, 2])
