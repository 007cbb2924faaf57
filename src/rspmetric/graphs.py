"""Graph construction, random edge weights, and exact cut parameters.

Vertices are labelled 1..n throughout.  A graph's edges are one read-only
``(m, 2)`` int32 array of 1-based pairs (u, v) with u < v, rows in
lexicographic order; its weights are one read-only float64 array aligned with
those rows.  The weight stream is tied to that order, so the same seed
produces the same weights no matter how the edge set was built.
"""

from __future__ import annotations

import io
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DisconnectedGraphError,
    NotEnoughEdgesError,
    SizeCapExceededError,
)
from .rng import Seed, UniformStream

# Hard ceiling, the only size bound of the cut table.  At 24 the 2^23 cuts are
# built in row blocks of 2^20 entries: about 35 ms, 17 MB traced peak and
# 19 MB of extra resident memory on one Xeon core.
CUT_PARAMETER_CAP = 24
# Hard ceiling on n wherever an n x n table or all n(n-1)/2 pairs are built.
# At 2048 on Xeon cores, with one process per step:
# generate_erdos_renyi(2048, 1.0) then is_connected peaked at 232 MB RSS in
# 0.4-0.5 s on one core (is_connected answers K_n from its edge count; its
# search took 1.8-2.2 s and raised the peak to 442 MB).  complete_graph then
# build_metric peaked at 225 MB in 3.2-3.5 s on one core (taskset -c 0) and
# in 2.0-2.5 s on two, where its first Dijkstra pass forks one child.  The
# child's peak RSS is 189 MB; all but about 18 MB of it (its half of the rows)
# are the parent's pages, shared copy-on-write.
VERTEX_CAP = 2048


def check_count(value, name: str) -> int:
    """A count as a plain int: TypeError naming ``name`` unless it is an
    integer (``operator.index``) other than a bool."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def check_vertex_cap(n) -> int:
    """The vertex count n as a plain int (``check_count``); SizeCapExceededError
    if it is above ``VERTEX_CAP``."""
    n = check_count(n, "n")
    if n > VERTEX_CAP:
        raise SizeCapExceededError(f"n={n} exceeds the vertex cap {VERTEX_CAP}")
    return n


def check_vertex(v, n: int) -> int:
    """Vertex v of 1..n as a plain int.

    TypeError unless v is an integer (``operator.index``: 1.5 and 1.0 are
    refused, a bool becomes 0 or 1), ValueError outside 1..n.
    """
    v = operator.index(v)
    if not 1 <= v <= n:
        raise ValueError(f"vertices must lie in 1..{n}, got {v}")
    return v


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
    n = check_vertex_cap(n)
    return Graph(n, np.column_stack(np.triu_indices(n, 1)) + 1)


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


def generate_erdos_renyi(n: int, p: float, seed: Seed) -> Graph:
    """G(n, p): each pair is an edge independently with probability p.

    One uniform is consumed per pair in lexicographic order, so the result is
    a pure function of (n, p, seed).
    """
    n = check_vertex_cap(n)
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


@lru_cache(maxsize=CUT_PARAMETER_CAP)
def _split_bit_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bit rows of the two vertex blocks that ``cut_parameters_exact`` splits n into.

    Returns ``xl``, ``sl``, ``xht`` and ``starts``.  The low block L is vertex 1
    plus the next (n-1)//2 vertices: ``xl`` holds its 0/1 rows that contain
    vertex 1, in binary order (so the last row is all of L), and ``sl`` their
    popcounts.  The high block H is the rest: ``xht`` holds all 2^|H| of its
    rows as columns, sorted by popcount, so the columns of popcount b start at
    ``starts[b]`` and the last column is all of H.
    """
    low = 1 + (n - 1) // 2
    high = n - low
    rows_l = np.arange(1, 1 << low, 2)
    xl = ((rows_l[:, None] >> np.arange(low)) & 1).astype(np.float64)
    xh = (np.arange(1 << high)[:, None] >> np.arange(high)) & 1
    sh = xh.sum(axis=1)
    order = np.argsort(sh, kind="stable")
    xht = np.ascontiguousarray(xh[order].T, dtype=np.float64)
    starts = np.searchsorted(sh[order], np.arange(high + 1))
    sl = xl.sum(axis=1)
    for a in (xl, sl, xht, starts):
        a.setflags(write=False)
    return xl, sl, xht, starts


def cut_parameters_exact(graph: Graph) -> CutParameters:
    """Exact min and max of |cut(U)| / (|U|(n-|U|)) over every U holding vertex 1.

    U and its complement induce the same cut, so the 2^(n-1)-1 proper subsets
    that contain vertex 1 cover all of them.  With x the 0/1 indicator of U
    and A the adjacency matrix, |cut(U)| = deg.x - x'Ax.  Splitting the
    vertices into a low block L (vertex 1 and the next (n-1)//2) and a high
    block H turns this into

        |cut(U)| = f_L(x_L) + f_H(x_H) - 2 x_L' A[L, H] x_H,

    with f_B(x) = deg_B.x - x'A_BB x, so the cuts of every U form one table:
    a row per L-part and a column per H-part, a matrix product over the
    blocks' bit rows plus two vectors.  It is built in row blocks of at most
    2^20 entries, and each block is reduced to the min and max cut of each
    (row, |U cap H|) cell, in which |U| and hence the divisor are constant.

    The floats are those of dividing each cut by its |U|(n-|U|) one subset at
    a time: every table entry and partial sum is an integer below n^2 in
    magnitude, exact in float64 in whatever order the product sums, and
    correctly rounded division by a fixed positive divisor is monotone, so
    the min (max) of the quotients is the quotient of the min (max) cut.
    Disconnected graphs are rejected: an empty cut would force the minimum
    to 0, which the definition excludes.  K_n needs no table at any n: each
    cut has exactly |U|(n-|U|) edges.
    """
    n = graph.n
    if n < 2:
        raise ValueError("cut parameters need at least two vertices")
    if graph.m == n * (n - 1) // 2:
        return CutParameters(1.0, 1.0)
    if n > CUT_PARAMETER_CAP:
        raise SizeCapExceededError(f"n={n} exceeds the cut table cap {CUT_PARAMETER_CAP}")

    adj = np.zeros((n, n))
    u, v = (graph.edges - 1).T
    adj[u, v] = adj[v, u] = 1.0
    deg = adj.sum(axis=1)
    xl, sl, xht, starts = _split_bit_rows(n)
    low = xl.shape[1]
    fl = xl @ deg[:low] - ((xl @ adj[:low, :low]) * xl).sum(axis=1)
    fh = deg[low:] @ xht - ((adj[low:, low:] @ xht) * xht).sum(axis=0)
    cross = -2.0 * (xl @ adj[:low, low:])
    lo_cut = np.empty((len(xl), len(starts)))
    hi_cut = np.empty_like(lo_cut)
    step = (1 << 20) // xht.shape[1]  # 2^|H| <= 2^12 columns, so at least 256 rows
    for lo in range(0, len(xl), step):
        cuts = cross[lo:lo + step] @ xht
        cuts += fh
        lo_cut[lo:lo + step] = np.minimum.reduceat(cuts, starts, axis=1)
        hi_cut[lo:lo + step] = np.maximum.reduceat(cuts, starts, axis=1)
    lo_cut += fl[:, None]
    hi_cut += fl[:, None]
    sizes = sl[:, None] + np.arange(len(starts))
    # the last cell holds U = V alone (all of L with all of H): drop it
    lo_cut, hi_cut, sizes = (t.ravel()[:-1] for t in (lo_cut, hi_cut, sizes))
    if not lo_cut.all():
        raise DisconnectedGraphError("graph has an empty cut; cut parameters undefined")
    divisors = sizes * (n - sizes)
    return CutParameters(alpha=float((lo_cut / divisors).min()),
                         beta=float((hi_cut / divisors).max()))


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
