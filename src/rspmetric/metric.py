"""Shortest-path metrics and the structural objects built on them.

A metric is the full table of shortest-path distances under drawn edge
weights; vertices in different components sit at infinite distance.  On top
of it live the growth profile around a vertex (distance to the k-th closest
vertex and the cut size of each prefix ball), radius balls, the diameter,
and the bounded-diameter clustering used by the structural analysis.

``build_metrics`` builds many metrics at once, in blocks of graphs of one
size, each through one of two row kernels: ``_dense_rows``, Dijkstra's array
form on a (graphs, n, n) stack, for small blocks with enough edges, and
``_union_rows``, one ``_certified_apsp`` call over the block's disjoint
union, which alone decides whether to prune.  Each table is the one
``build_metric`` gives the graph alone, bit for bit, whatever the batch.

``_growth_profiles`` is the one kernel of the growth profiles: the
closest-first orders and prefix cuts of many centres in many metrics, from
one stable sort of the stacked distance rows and one ``bincount`` of closing
edges per block.  ``prefix_cuts`` gives every centre's prefix cuts of many
metrics at once, and ``tau_profile`` the whole profile of one centre.  The
closest-first order breaks ties between equidistant vertices by vertex index.

``_clusterings`` is the one kernel of the bounded-diameter clustering: many
metrics of one size at once, each at its own radii, with one greedy sweep
per block of (metric, radius) pairs.  ``cluster_arrays`` gives those
clusterings as per-cluster arrays, with no object per cluster, and
``cluster_partition`` one of them as a :class:`Partition`.

Both kernels bound their memory by one block rule, ``_blocks``: whole
metrics while a block stays under its entry bound, else runs of one
metric's centre rows or radii.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .bounds import density_threshold
from .errors import InfiniteDistanceError
from .graphs import Graph, WeightedGraph, check_vertex, check_vertex_cap, read_rows


class Metric:
    """Symmetric n x n distance table with an infinity sentinel.

    Immutable once built; share freely across threads.  Whether every entry
    is finite is decided once, at construction: ``is_finite()`` returns that
    answer, and ``finite_dist`` is the only gated read of the table.  The
    heuristics, the exact baselines and the clustering read it there, so on
    a disconnected source each raises :class:`InfiniteDistanceError`.
    """

    def __init__(self, dist: np.ndarray):
        dist = np.array(dist, dtype=np.float64)  # a private copy of the caller's table
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("distance table must be square")
        if not len(dist):
            raise ValueError("a metric needs at least one vertex")
        finite = bool(_check_tables(dist[None])[0])
        dist.setflags(write=False)
        self._dist = dist
        self._finite = finite

    @classmethod
    def _of_checked_table(cls, table: np.ndarray, finite: bool) -> Metric:
        """A metric over ``table``, a read-only table that passed ``_check_tables``."""
        metric = cls.__new__(cls)
        metric._dist = table
        metric._finite = finite
        return metric

    @property
    def n(self) -> int:
        return self._dist.shape[0]

    @property
    def dist(self) -> np.ndarray:
        """The raw table, 0-based: dist[u-1, v-1] = d(u, v)."""
        return self._dist

    @property
    def finite_dist(self) -> np.ndarray:
        """The raw table of a finite metric; InfiniteDistanceError otherwise."""
        if not self._finite:
            raise InfiniteDistanceError("metric has infinite distances (disconnected source)")
        return self._dist

    def d(self, u: int, v: int) -> float:
        return float(self._dist[check_vertex(u, self.n) - 1, check_vertex(v, self.n) - 1])

    def is_finite(self) -> bool:
        return self._finite

    def __reduce__(self):
        return Metric, (self._dist,)


def _check_tables(stack: np.ndarray) -> np.ndarray:
    """Which tables of a T x n x n float64 stack have only finite entries.

    Raises ValueError unless every table is nonnegative (NaN fails too), has
    a zero diagonal and is symmetric; each check is one pass over the stack.
    """
    if not (stack >= 0).all():
        raise ValueError("distances must be nonnegative (inf allowed)")
    if (np.diagonal(stack, axis1=1, axis2=2) != 0).any():
        raise ValueError("diagonal must be zero")
    if not np.array_equal(stack, stack.swapaxes(1, 2)):
        raise ValueError("distance table must be symmetric")
    return np.isfinite(stack).all(axis=(1, 2))


@dataclass(frozen=True)
class TauProfile:
    """Growth profile around a center vertex.

    ``taus[i]`` is the distance to the (i+1)-th closest vertex (so
    ``taus[0] == 0``); ``order`` is the deterministic closest-first vertex
    ordering (ties broken by vertex index); ``chis[i]`` is the cut size, in
    the source graph, of the first i+1 vertices of that ordering.  When no
    two vertices are equidistant from the center this prefix cut equals the
    cut of the closed ball of radius ``taus[i]``.
    """

    center: int
    taus: np.ndarray
    chis: np.ndarray
    order: np.ndarray

    def tau(self, k: int) -> float:
        if not 1 <= k <= len(self.taus):
            raise ValueError(f"tau_k needs k in 1..{len(self.taus)}, got {k}")
        return float(self.taus[k - 1])

    def chi(self, k: int) -> int:
        if not 1 <= k <= len(self.chis):
            raise ValueError(f"chi_k needs k in 1..{len(self.chis)}, got {k}")
        return int(self.chis[k - 1])


@dataclass(frozen=True)
class Partition:
    """Disjoint vertex clusters, lowest member first, with per-cluster diameters.

    ``s_delta`` is the density threshold in force: a vertex whose ball is
    smaller is a singleton cluster.  Each dense cluster is grown around its
    centre, which is also its lowest member (see :func:`cluster_arrays`).
    """

    clusters: tuple[frozenset[int], ...]
    diameters: tuple[float, ...]
    s_delta: float


BATCH_VERTICES = 256  # most vertices per block of build_metrics
# Measured on one Xeon core, per connected G(16, 1/2) draw in build_metrics
# (medians of seven): over 25 draws 137, 53, 40, 31 and 29 us in kernel
# blocks of at most 16, 64, 128, 256 and 512 vertices, and 26 us in one
# block; over 100 draws 148, 54, 41, 32, 28 and 28 us.  In a union each
# source initialises a row over the whole union, so blocks far past 256
# vertices cost more than the calls they save.  The bound sizes blocks only:
# a suite window is sized by lab.WINDOW_ENTRIES and may span several blocks.

DENSE_N = 100  # largest graph that build_metrics sends through _dense_rows
# The kernel does n^3 work per graph whatever its edge count; scipy's
# Dijkstra does about n (m + n log n) after some 90 us of set-up per call.
# So a block takes the kernel only with n^2 / 12 edges per graph or more.
# build_metrics' time on BATCH_VERTICES // n draws, as a share of its time
# with one scipy call over their disjoint union (the only path before the
# kernel), medians of four alternating process pairs on a 2-core Xeon host;
# u marks blocks under n^2 / 12 edges per graph, which keep the union (the
# same code before and after: their pairs spread by up to 0.3 either way).
# K_n at 64 to 100 is against _union_rows (DENSE_N = 0), best of seven per
# process; the union of 3 K_80 or 2 K_100 prunes and is certified:
#   n                    16     32     48     64     80     100
#   G(n, 1/2)            0.50   0.48   0.52   0.49   0.52   0.58
#   G(n, 4 ln n / n)     0.48   0.50   0.60   0.69   0.70   0.88
#   K_n                  0.44   0.38   0.37   0.34   0.72   0.79
#   G(n, 1/6)            1.05u  1.02u  1.00u  0.74   0.80   0.87
#   G(n, 1.2 ln n / n)   0.74   1.04u  0.99u  1.05u  0.97u  1.04u
#   path P_n             1.00u  0.93u  0.92u  1.04u  1.04u  0.92u
# Past 100, dense unpruned draws stop gaining: through the kernel,
# G(n, 4 ln n / n) read 0.85-0.94 at n = 112 and 1.01-1.05 at 128, so the
# bound is 100.  Sent through the kernel whatever their edges,
# G(n, 1.2 ln n / n) draws read 1.37-1.60 at n = 80 and 1.41-1.96 at 100,
# and paths 3-6 at n = 64 to 100.


def build_metric(wg: WeightedGraph) -> Metric:
    """All-pairs shortest-path distances under the drawn weights."""
    return build_metrics([wg])[0]


def build_metrics(wgs: list[WeightedGraph]) -> list[Metric]:
    """The metric of each weighted graph, in input order.

    The graphs of one size n go, in input order, into blocks of at most
    ``BATCH_VERTICES // n`` (at least one).  A block with n <= ``DENSE_N``
    and n^2 / 12 edges per graph takes ``_dense_rows``, no slower than
    scipy's Dijkstra there, and every other block ``_union_rows``.
    """
    blocks: list[list[int]] = []
    filling: dict[int, list[int]] = {}  # the last block of each size
    for i, wg in enumerate(wgs):
        n = check_vertex_cap(wg.graph.n)
        block = filling.get(n)
        if block is None or len(block) == max(1, BATCH_VERTICES // n):
            filling[n] = [i]
            blocks.append(filling[n])
        else:
            block.append(i)
    built: dict[int, Metric] = {}
    for block in blocks:
        group = [wgs[i] for i in block]
        n, m = group[0].graph.n, sum(wg.graph.m for wg in group)
        dense = n <= DENSE_N and n * n * len(group) <= 12 * m
        built.update(zip(block, _checked_metrics((_dense_rows if dense else _union_rows)(group))))
    return [built[i] for i in range(len(wgs))]


def _checked_metrics(rows: np.ndarray) -> list[Metric]:
    """One metric per table of a block's raw T x n x n rows, each holding its
    layer of min(d, d^T), which ``_check_tables`` checks as one stack: Dijkstra
    from u and from v may round the same path differently."""
    stack = np.minimum(rows, rows.swapaxes(1, 2))
    del rows  # one raw table fewer while the stack is checked
    finite = _check_tables(stack).tolist()
    stack.setflags(write=False)
    return [Metric._of_checked_table(table, f) for table, f in zip(stack, finite)]


def _union_rows(wgs: list[WeightedGraph]) -> np.ndarray:
    """Raw Dijkstra rows of T graphs of one size n, T x n x n: [t, s] is from source s.

    One ``_certified_apsp`` over the disjoint union, graph t's vertices after
    those of graphs 0..t-1 (the edges stay sorted).  A source reaches only its
    own graph, so its rows are the union's diagonal block t, and the T blocks
    are returned as one view of the union's table.
    """
    count, n = len(wgs), wgs[0].graph.n
    edges = np.concatenate([wg.graph.edges for wg in wgs])
    cuts = np.cumsum([0] + [wg.graph.m for wg in wgs]).tolist()
    for t, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        edges[lo:hi] += t * n - 1  # 0-based union ids: a Python int offset keeps them int32
    # one graph's weights go in as they are: a copy would be held through the APSP
    weights = wgs[0].weights if count == 1 else np.concatenate([wg.weights for wg in wgs])
    dist, _ = _certified_apsp(count * n, edges[:, 0], edges[:, 1], weights)
    return dist.reshape(count, n, count, n).diagonal(axis1=0, axis2=2).transpose(2, 0, 1)


def _dense_rows(wgs: list[WeightedGraph]) -> np.ndarray:
    """Raw Dijkstra rows of T graphs of one size n, T x n x n: [t, s] is from source s.

    Dijkstra's O(n^2) array form, all T n rows at once.  The weights sit in
    a T n x n table, inf where there is no edge, and row t n + x holds the
    weights from vertex x of graph t.  Each of n - 1 settle steps takes, in
    every row, the least entry not yet settled (settled entries read inf
    through a penalty table), settles it, and relaxes its weight row:
    d(s, y) = min(d(s, y), fl(d(s, x) + w(x, y))).  The last vertex of a
    row holds its largest value, so relaxing it would improve nothing.

    Weights are positive and rounding is monotone, so a settled value is
    final, and each row meets the Bellman equations with every finite value
    attained along a predecessor tree, from the same sums as scipy's
    Dijkstra.  Such a row is unique (see ``_certified_apsp``), so every row
    is scipy's row, bit for bit, however ties between unsettled entries go.
    """
    count, n = len(wgs), wgs[0].graph.n
    edges = np.concatenate([wg.graph.edges for wg in wgs])
    w = np.concatenate([wg.weights for wg in wgs])
    # flat slot of entry (t, u, v) in the weight table, for 1-based u and v
    base = np.repeat(np.arange(0, count * n * n, n * n), [wg.graph.m for wg in wgs]) - (n + 1)
    weights = np.full(count * n * n, np.inf)
    weights[base + edges[:, 0] * n + edges[:, 1]] = w
    weights[base + edges[:, 1] * n + edges[:, 0]] = w
    weights = weights.reshape(count * n, n)
    dist = np.full((count * n, n), np.inf)
    dist.reshape(count, n * n)[:, :: n + 1] = 0.0
    penalty = np.zeros_like(dist)  # inf where a row's entry is settled
    key = np.empty_like(dist)
    rows = np.arange(count * n)
    at = rows * n  # flat slot of each row's entry 0
    graph_row = rows - rows % n  # the weight row of each row's vertex 0, t n
    for _ in range(n - 1):
        np.add(dist, penalty, out=key)
        x = key.argmin(axis=1)
        settled = at + x
        penalty.ravel()[settled] = np.inf
        relaxed = weights[graph_row + x]
        relaxed += dist.ravel()[settled][:, None]
        np.minimum(dist, relaxed, out=dist)
    return dist.reshape(count, n, n)


CHECK_BLOCK = 1 << 18  # at most this many (source, edge) entries per block of the Bellman check


def prune_width(n: int, m: int) -> int | None:
    """Lightest edges kept per vertex by the first APSP pass; None for one pass on all edges.

    k = ceil(2 ln n), and pruning is taken only when the kept edges, at most
    kn, are under a third of all m (3kn < m).  Both constants are measured on
    one Xeon core.  On K_1000, Dijkstra from all sources took 0.57 s on the
    edges kept at k = 28 and 0.40 s at k = 14; at k = 9 to 11, 20 to 400 of
    the 1000 sources failed their certificate, against at most 7 at k = 13.
    On K_30 to K_38 one pass was up to 25% faster than pruning, which the
    rule 2kn < m would have taken.
    """
    k = math.ceil(2 * math.log(n))
    return k if 3 * k * n < m else None


def _certified_apsp(
    n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Dijkstra from every source, on each vertex's lightest edges if ``prune_width`` prunes.

    Edges (u[i], v[i]) are 0-based with u < v, lexicographically sorted.
    Returns the raw table (row s holds the distances from source s) and, per
    Dijkstra pass, the number of sources it ran from.  Unpruned, one pass on
    all edges drops nothing, so nothing needs a certificate.

    Pruned, the first pass keeps only the edges among the k = ``prune_width``
    lightest at either endpoint; under exponential weights shortest paths use
    only O(log n) such edges per vertex (Janson 1999).  A row passes its
    certificate when both arcs of every dropped edge (x, y) meet the Bellman
    inequality exactly: d(s, y) <= fl(d(s, x) + w), and the same with x and y
    swapped.  A passing row is then bit-identical to Dijkstra's row on the
    whole graph, not just close.  An edge with one finite and one infinite
    end fails, so the row reaches all that the whole graph reaches from s.
    The row thus meets the whole graph's Bellman equations, with each finite
    value attained along a predecessor tree, and two rows that do so are
    equal: take the vertex where they differ with the smallest of the two
    values, and follow the tree attaining it back to s (rounding is monotone
    and weights are nonnegative, so values grow along the tree) to the first
    vertex where they differ, which has a smaller value still.

    Most dropped edges pass in every row at once, by a screen: if x and y
    lie in one component of the kept edges and w >= max(ecc(x), ecc(y)),
    where ecc(x) is the largest finite d(s, x) over the rows being
    certified, then in each row either both ends are infinite, or
    fl(d(s, x) + w) >= w >= ecc(y) >= d(s, y).  Only the edges the screen
    lets through are checked row by row (``_bellman_failures``).  The edges
    that fail in some row are added back, and Dijkstra reruns from the
    failing sources only.  Those rows are certified again against every
    edge still dropped, with the screen rebuilt from the new components and
    their own eccentricities, until no row fails.  Each pass keeps more
    edges, so this ends.

    Each pass runs directed Dijkstra (``_dijkstra_rows``) on a CSR holding
    both arcs of every kept edge: the arcs of undirected Dijkstra, maybe in
    another order, which cannot change a value, since the row meeting the
    Bellman equations is unique.  A disjoint union from ``_union_rows``
    prunes or not as a whole.  A source reaches only its own graph, and an
    edge of another graph, both ends infinite, passes its certificate, so
    its row meets its own graph's Bellman equations: it is the graph's own
    row, bit for bit.  A union of graphs that do not prune does not prune
    either: each has m_j <= 3 k(n_j) n_j <= 3 k(N) n_j, so m <= 3 k(N) N.
    """
    k = prune_width(n, len(w))
    if k is None:
        return _dijkstra_rows(_symmetric_csr(n, u, v, w), None), [n]
    table = np.full((n, n), np.inf)
    table[u, v] = table[v, u] = w
    table.partition(k - 1, axis=1)
    kth = table[:, k - 1]  # inf where a vertex has fewer than k edges
    del table
    keep = (w <= kth[u]) | (w <= kth[v])
    sources = np.arange(n)
    runs: list[int] = []
    while True:
        csr = _symmetric_csr(n, u[keep], v[keep], w[keep])
        rows = _dijkstra_rows(csr, sources)
        if runs:
            dist[sources] = rows
        else:
            dist = rows
        runs.append(len(sources))
        _, comp = connected_components(csr, directed=False)
        ecc = rows.max(axis=0, where=np.isfinite(rows), initial=0.0)
        # m-sized temporaries set a large build's peak memory: take the max
        # in place, and free it before the check
        reach = ecc[u]
        np.maximum(reach, ecc[v], out=reach)
        suspect = np.flatnonzero(~keep & ((comp[u] != comp[v]) | (w < reach)))
        del reach
        failed_rows, failed_edges = _bellman_failures(rows, u[suspect], v[suspect], w[suspect])
        if not failed_rows.any():
            return dist, runs
        keep[suspect[failed_edges]] = True
        sources = sources[failed_rows]


SPLIT_WORK = 1 << 20  # Dijkstra work, about sources x (arcs + n), worth one more process


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one
    (so ``taskset`` limits it), else the CPU count, 1 if that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _may_fork() -> bool:
    return (
        hasattr(os, "sched_getaffinity")  # Linux only
        and threading.active_count() == 1  # fork copies one thread, not the locks others hold
        and multiprocessing.parent_process() is None  # in a pool worker the pool is the parallelism
    )


def _dijkstra_rows(csr: csr_matrix, sources: np.ndarray | None) -> np.ndarray:
    """Rows of scipy's directed Dijkstra on ``csr`` from each of ``sources`` (None: every vertex).

    Dijkstra runs from each source on its own, and scipy holds the GIL
    throughout, so a large call is split over forked processes: the sources
    are cut into contiguous blocks, the parent runs the first and one child
    each of the others, and every block lands in one anonymous shared table.
    Each row is still scipy's row from that source, bit for bit.

    The part count is min(usable CPUs, work // ``SPLIT_WORK``, sources), with
    work counted as sources x (arcs + n).  In a union from ``_union_rows`` a
    source relaxes only its own graph's arcs, so the count runs high there,
    but such a union holds at most ``BATCH_VERTICES`` vertices: two unpruned
    G(120, 0.4) count 2.8 million and split in two, in the same time as one
    process.  On two Xeon cores, fork and wait took 4.4 ms in a 92 MB
    process, and ``SPLIT_WORK`` is about 28 ms of Dijkstra there: two parts
    took 41.8 against 56.6 ms on 120 sources of the pruned K_1000, and 271
    against 480 ms on all 1000.  Forking is skipped off Linux, with a second
    Python thread alive (OpenBLAS parks its own pool around a fork), and in a
    ``multiprocessing`` child.  Every child is reaped before this returns or
    raises, and RuntimeError reports a child that failed.
    """
    n = csr.shape[0]
    count = n if sources is None else len(sources)
    parts = min(usable_cpus(), count * (csr.nnz + n) // SPLIT_WORK, count)
    if parts < 2 or not _may_fork():
        return dijkstra(csr, directed=True, indices=sources)
    if sources is None:
        sources = np.arange(n)
    cuts = [count * i // parts for i in range(parts + 1)]
    table = np.frombuffer(mmap.mmap(-1, count * n * 8), dtype=np.float64).reshape(count, n)
    pids: list[int] = []
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            pid = os.fork()
            if pid == 0:  # the child writes its block and leaves, whatever happens
                code = 1
                try:
                    table[lo:hi] = dijkstra(csr, directed=True, indices=sources[lo:hi])
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        table[: cuts[1]] = dijkstra(csr, directed=True, indices=sources[: cuts[1]])
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise RuntimeError(f"a Dijkstra child process failed, exit codes {codes}")
    return table


def _bellman_failures(
    rows: np.ndarray, x: np.ndarray, y: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which rows, and which edges (x[i], y[i], w[i]), break d(y) <= fl(d(x) + w) either way.

    Reads ``rows`` in column blocks of at most ``CHECK_BLOCK`` entries.
    """
    failed_rows = np.zeros(len(rows), dtype=bool)
    failed_edges = np.zeros(len(w), dtype=bool)
    step = max(1, CHECK_BLOCK // len(rows))
    for lo in range(0, len(w), step):
        dx = rows[:, x[lo : lo + step]]
        dy = rows[:, y[lo : lo + step]]
        wb = w[lo : lo + step]
        bad = dy > dx + wb
        bad |= dx > dy + wb
        failed_rows |= bad.any(axis=1)
        failed_edges[lo : lo + step] = bad.any(axis=0)
    return failed_rows, failed_edges


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> csr_matrix:
    """Both arcs of every edge (u[i] < v[i], lexicographically sorted) as an n x n CSR.

    Row x lists its lower neighbours (arcs of edges (y, x)) before its higher
    ones (edges (x, y)), so a stable sort by tail keeps each row's columns
    ascending.
    """
    tails = np.concatenate((v, u))
    order = np.argsort(tails, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(tails, minlength=n))
    indices = np.concatenate((u, v)).astype(np.int32, copy=False)[order]
    return csr_matrix((np.concatenate((w, w))[order], indices, indptr), shape=(n, n))


def _blocks(widths: list[int], parts: int, bound: int):
    """The (t0, t1, lo, hi) blocks of a batch kernel: parts lo..hi-1 of
    instances t0..t1-1, where every instance has ``parts`` parts and a part
    of instance t counts ``widths[t]`` entries.

    The one block rule of ``_growth_profiles`` (parts: centre rows) and
    ``_clusterings`` (parts: radii): whole instances go, in order, into one
    block while its entries stay at most ``bound``, and an instance too large
    for a block alone is cut into runs of max(1, bound // width) parts.
    """
    t0 = 0
    while t0 < len(widths):
        if parts * widths[t0] > bound:
            step = max(1, bound // widths[t0])
            yield from ((t0, t0 + 1, lo, min(lo + step, parts)) for lo in range(0, parts, step))
            t0 += 1
            continue
        t1, size = t0, 0
        while t1 < len(widths) and size + parts * widths[t1] <= bound:
            size += parts * widths[t1]
            t1 += 1
        yield t0, t1, 0, parts
        t0 = t1


PROFILE_BLOCK = 1 << 20  # at most this many (metric, centre, edge) entries per profile block


def _growth_profiles(rows: np.ndarray, graphs: list[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """Closest-first orders and prefix cuts of c centres in each of T metrics.

    ``rows`` is a T x c x n stack: ``rows[t]`` holds the distance rows of c
    centres in a metric of ``graphs[t]``, and every graph has n vertices.
    Returns ``(order0, chis)``: the 0-based closest-first order of every row,
    T x c x n, from one stable sort of the stack (ties by vertex index), and
    the int64 cut in ``graphs[t]`` of each of its first n - 1 prefixes,
    T x c x (n - 1).

    The cut of a prefix is its degree sum minus twice its inside edges, and
    an edge is inside from the position of its later endpoint on.  Vertex x
    of metric t is slot t(n + 1) + x of one edge list, so one ``bincount``
    finds every degree.  The centre rows go in ``_blocks`` of at most
    ``PROFILE_BLOCK`` (metric, centre, edge) entries, a row of metric t
    counting max(m_t, n + 1).  A block's closing edges are counted by one
    more ``bincount``, so memory stays bounded on dense graphs.
    """
    count, c, n = rows.shape
    order0 = np.argsort(rows, axis=2, kind="stable")
    ms = [g.m for g in graphs]
    if count == 1:
        edges = graphs[0].edges  # as it is: a copy is m-sized, 4 MB on K_1000
    else:
        edges = np.concatenate([g.edges for g in graphs])
        edges += np.repeat(np.arange(0, count * (n + 1), n + 1, dtype=np.int32), ms)[:, None]
    degree = np.bincount(edges.ravel(), minlength=count * (n + 1))
    ends = np.cumsum([0] + ms).tolist()
    chis = np.empty((count, c, max(n - 1, 0)), dtype=np.int64)
    for t0, t1, lo, hi in _blocks([max(m, n + 1) for m in ms], c, PROFILE_BLOCK):
        k, r = t1 - t0, hi - lo
        block = order0[t0:t1, lo:hi].swapaxes(0, 1)  # (centre, metric, position)
        # pos[i, t, x]: the position of vertex x around centre lo + i of
        # metric t0 + t, plus (i k + t) n, so that one bincount counts every
        # row's closing edges
        pos = np.empty((r, k, n + 1), dtype=np.int64)
        np.put_along_axis(pos, block + 1, np.arange(r * k * n).reshape(r, k, n), axis=2)
        pos = pos.reshape(r, k * (n + 1))
        block_edges = edges[ends[t0] : ends[t1]]
        if t0:
            block_edges = block_edges - t0 * (n + 1)  # the block's own slots
        # plain indexing, not np.take: take copies the int32 edge columns to
        # intp, an extra m-sized array that raised peak RSS at n = 1000
        later = pos[:, block_edges[:, 0]]
        np.maximum(later, pos[:, block_edges[:, 1]], out=later)
        closing = np.bincount(later.ravel(), minlength=r * k * n).reshape(r, k, n)
        degrees = degree[block + np.arange(t0 * (n + 1) + 1, t1 * (n + 1), n + 1)[:, None]]
        cuts = np.cumsum(degrees, axis=2) - 2 * np.cumsum(closing, axis=2)
        chis[t0:t1, lo:hi] = cuts[:, :, : n - 1].swapaxes(0, 1)
    return order0, chis


def prefix_cuts(metrics: list[Metric], graphs: list[Graph]) -> np.ndarray:
    """Prefix cuts around every centre of many metrics at once, T x n x (n - 1).

    Entry [t, c - 1] is ``tau_profile(metrics[t], graphs[t], c).chis``: one
    ``_growth_profiles`` call over the stacked tables, all of one size.
    """
    if not metrics or len(metrics) != len(graphs):
        raise ValueError("prefix_cuts needs one graph per metric, and at least one metric")
    n = metrics[0].n
    if any(m.n != n or g.n != n for m, g in zip(metrics, graphs)):
        raise ValueError("graphs and metrics must all have the same vertex count")
    # one table is a view: a stack of one would copy it
    stack = metrics[0].dist[None] if len(metrics) == 1 else np.stack([m.dist for m in metrics])
    return _growth_profiles(stack, list(graphs))[1]


def tau_profile(metric: Metric, graph: Graph, v: int) -> TauProfile:
    """Closest-first growth profile of vertex v: ``_growth_profiles`` on its one row."""
    v = check_vertex(v, metric.n)
    if graph.n != metric.n:
        raise ValueError("graph and metric disagree on vertex count")
    row = metric.dist[v - 1]
    order0, chis = _growth_profiles(row[None, None], [graph])
    return TauProfile(center=v, taus=row[order0[0, 0]], chis=chis[0, 0], order=order0[0, 0] + 1)


def ball(metric: Metric, v: int, delta: float) -> frozenset[int]:
    """Vertices within distance delta of v (always contains v)."""
    if not delta >= 0:
        raise ValueError("delta must be nonnegative")
    row = metric.dist[check_vertex(v, metric.n) - 1]
    return frozenset(int(i) + 1 for i in np.flatnonzero(row <= delta))


def diameter(metric: Metric) -> float:
    """Largest pairwise distance; infinite iff the source graph was disconnected."""
    return float(metric.dist.max())


CLUSTER_BLOCK = 1 << 20  # at most this many (pair, vertex, vertex) entries per block of clusterings


def cluster_partition(metric: Metric, delta: float, alpha: float) -> Partition:
    """Partition into clusters of diameter at most 4*delta (see :func:`cluster_arrays`)."""
    s_delta, order, starts, diameters = _clusterings([metric], [[delta]], [alpha])
    members, cuts = (order[0] + 1).tolist(), starts.tolist() + [metric.n]
    clusters = tuple(frozenset(members[a:b]) for a, b in zip(cuts, cuts[1:]))
    return Partition(clusters, tuple(diameters.tolist()), float(s_delta[0, 0]))


def cluster_arrays(
    metrics: list[Metric], deltas, alphas
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clusterings of diameter at most 4*delta, for every metric at each of its radii.

    All metrics have one size n; ``deltas[t]`` holds the radii of metric t,
    the same count for every metric, and ``alphas[t]`` its cut parameter.
    Returns ``(pair, diameters, s_delta)``.  Cluster i, metric by metric,
    radius by radius and lowest member first, belongs to the (metric t,
    radius r) pair ``pair[i]`` = t R + r and has diameter ``diameters[i]``;
    ``s_delta`` is the T x R grid of density thresholds.  Every (metric,
    radius) pair is checked before any table work: the radius and alpha by
    ``density_threshold``, then the table through ``Metric.finite_dist``, so
    a disconnected source raises.

    Vertices whose delta-ball is smaller than the density threshold are
    sparse and own themselves.  The dense vertices are clustered around a
    maximal independent set of the ball-intersection graph, chosen greedily
    by ascending vertex index: the centres.  Each dense vertex is owned by
    the lowest centre whose ball meets its own, so a centre owns itself
    (centres' balls are pairwise disjoint).  A centre is the lowest member of
    its cluster: a dense non-centre was blocked at its turn by a lower centre
    that meets it, so its owner lies below it.  One stable sort by owner thus
    lists the clusters in the order of their lowest members.

    The radii go in ``_blocks`` of at most ``CLUSTER_BLOCK`` (pair, vertex,
    vertex) entries, a radius counting n^2.  A block stacks the ball masks of
    its pairs and chooses the centres of all of them in one sweep over the
    vertices.
    """
    s_grid, order, starts, diameters = _clusterings(metrics, deltas, alphas)
    return starts // order.shape[1], diameters, s_grid


def _clusterings(metrics, deltas, alphas) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The checks and blocks of :func:`cluster_arrays`.

    Returns ``(s_delta, order, starts, diameters)``: the T x R thresholds;
    for each of the T R pairs in turn, its vertices (0-based) sorted stably
    by owner, one row each; the flat indices into those rows where each
    cluster starts; and each cluster's diameter.
    """
    if not metrics:
        raise ValueError("cluster_arrays needs at least one metric")
    if not len(deltas) == len(alphas) == len(metrics):
        raise ValueError("need one list of radii and one alpha per metric")
    n = metrics[0].n
    if any(m.n != n for m in metrics):
        raise ValueError("all metrics must have the same vertex count")
    radii = len(deltas[0])
    if any(len(row) != radii for row in deltas):
        raise ValueError("every metric must have the same number of radii")
    s_delta, tables = [], []
    for metric, row, alpha in zip(metrics, deltas, alphas):
        s_delta.append([density_threshold(delta, n, alpha) for delta in row])
        tables.append(metric.finite_dist)
    grid = np.array(deltas, dtype=np.float64)
    s_grid = np.array(s_delta, dtype=np.float64)
    orders, starts, diameters = [], [], []  # every call makes a block, of no radii at R = 0
    offset = 0  # entries of the pairs before the block
    for t0, t1, lo, hi in _blocks([n * n] * len(metrics), radii, CLUSTER_BLOCK):
        stack = tables[t0][None] if t1 - t0 == 1 else np.stack(tables[t0:t1])
        block = (slice(t0, t1), slice(lo, hi))
        order, first, dia = _cluster_block(stack, grid[block], s_grid[block])
        orders.append(order)
        starts.append(first + offset)
        diameters.append(dia)
        offset += order.size
    return s_grid, np.concatenate(orders), np.concatenate(starts), np.concatenate(diameters)


def _cluster_block(
    tables: np.ndarray, deltas: np.ndarray, s_delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clusterings of T stacked n x n tables, each at its R radii; ``deltas``
    and ``s_delta`` are T x R.  Returns the arrays of ``_clusterings`` for
    the block's T R pairs."""
    count, radii = deltas.shape
    n = tables.shape[-1]
    pairs = count * radii
    balls = (tables[:, None] <= deltas[:, :, None, None]).reshape(pairs, n, n)
    dense = balls.sum(axis=2) >= s_delta.reshape(pairs, 1)
    # the greedy sweep: in each pair where v is dense and its ball misses the
    # centres' balls taken so far, v is a centre, and its ball is taken and
    # labelled v.  Centres' balls are disjoint, so each vertex keeps its one
    # label (n: in no centre's ball), and the least label over a dense ball is
    # the lowest centre meeting it
    label = np.full((pairs, n), n, dtype=np.min_scalar_type(n))
    covered = np.zeros((pairs, n), dtype=bool)
    for v in np.flatnonzero(dense.any(axis=0)).tolist():
        ball = balls[:, v]
        take = ball & (dense[:, v] > (ball & covered).any(axis=1))[:, None]
        covered |= take
        np.copyto(label, v, where=take)
    owner = np.where(dense, np.where(balls, label[:, None, :], n).min(axis=2), np.arange(n))
    order = np.argsort(owner, axis=1, kind="stable")
    # a cluster's block starts at its lowest member, the one vertex in it that
    # owns itself; each pair's row starts a cluster, so one reduceat serves all
    starts = np.flatnonzero(np.take_along_axis(owner, order, axis=1) == order)
    # the max over each cluster's block of d: singletons get their 0 diagonal
    same = (owner[:, :, None] == owner[:, None, :]).reshape(count, radii, n, n)
    rows = np.max(np.broadcast_to(tables[:, None], same.shape), axis=3, where=same, initial=0.0)
    diameters = np.maximum.reduceat(
        np.take_along_axis(rows.reshape(pairs, n), order, axis=1).ravel(), starts
    )
    return order, starts, diameters


def write_metric(path: str, metric: Metric) -> None:
    """Write n, then n rows of n distances (17 sig digits, `inf` sentinel)."""
    np.savetxt(path, metric.dist, fmt="%.17g", header=str(metric.n), comments="")


def read_metric(path: str) -> Metric:
    """Read the format ``write_metric`` writes: n on the first line, then n rows."""
    with open(path, "r", encoding="ascii") as fh:
        n = int(fh.readline())
        dist = read_rows(fh)
    if len(dist) != n:
        raise ValueError(f"expected {n} distance rows, found {len(dist)}")
    return Metric(dist)
