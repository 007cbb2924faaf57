"""Matching, TSP, and k-median heuristics with their exact baselines.

Everything operates on a finite :class:`~rspmetric.metric.Metric`.  All tie
breaking is by lowest vertex index (and earliest position for insertions) so
runs are reproducible on crafted metrics; ties are a measure-zero event under
continuous random weights.

Exact baselines are capped dynamic programs / enumerations, not
approximations: past the cap they raise instead of degrading.  The two subset
DPs run as whole-array numpy passes, never one mask at a time:

- ``exact_tsp`` (Held-Karp) anchors the tour at vertex 1 and keeps a
  ``(2^(n-1), n-1)`` table over subsets of the other vertices, filled one
  popcount layer at a time with one gather and one ``argmin`` per end vertex.
  ``argmin`` returns the lowest predecessor, and the closing step the lowest
  last vertex.
- ``exact_matching`` always matches the lowest vertex i of a subset.  The
  subsets with lowest vertex i form a strided slice of the ``2^n`` table,
  updated from the slice of subsets with lowest vertex above i by one
  ``np.minimum`` per partner j.  Pairs are recovered by taking the lowest j
  whose recomputed sum equals the table entry.

Both keep the lowest-index tie rule of a per-mask DP scanning candidates in
ascending order (the reference versions live in ``tests/oracles.py``), so they
return the same tours and pairings, not just the same costs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCenterSetError,
    InfiniteDistanceError,
    OddVertexCountError,
    SizeCapExceededError,
    TooFewVerticesError,
)
from .metric import Metric
from .rng import Seed, UniformStream

# Hard ceilings: a ``cap`` argument or config key can only lower them.
TSP_CAP = 18        # Held-Karp tables 2^17 x 17: ~18 MB float64 + ~2 MB int8 at 18
MATCHING_CAP = 20   # pairing DP table 2^20 float64: ~8 MB at 20
KMEDIAN_CAP = 10**6  # number of center sets enumerated


@dataclass(frozen=True)
class Matching:
    """Perfect matching: disjoint pairs covering all vertices, plus total cost."""

    pairs: tuple[tuple[int, int], ...]
    cost: float


@dataclass(frozen=True)
class Tour:
    """Hamiltonian cycle: visiting order plus cost including the closing edge."""

    order: tuple[int, ...]
    cost: float


@dataclass(frozen=True)
class TwoOptTrace:
    """Result of a 2-opt run: final tour, applied-exchange count, cost history."""

    final: Tour
    iterations: int
    costs: tuple[float, ...]


@dataclass(frozen=True)
class MedianSolution:
    """Chosen centers and the summed distance of every vertex to its closest one."""

    centers: tuple[int, ...]
    cost: float


def _require_finite(metric: Metric) -> None:
    if not metric.is_finite():
        raise InfiniteDistanceError("metric has infinite distances (disconnected source)")


def tour_cost(metric: Metric, order: tuple[int, ...]) -> float:
    d = metric.dist
    legs = [d[order[i] - 1, order[(i + 1) % len(order)] - 1] for i in range(len(order))]
    return math.fsum(legs)


def _check_tour(metric: Metric, order: tuple[int, ...]) -> None:
    if sorted(order) != list(range(1, metric.n + 1)):
        raise ValueError("tour must be a permutation of 1..n")


def greedy_matching(metric: Metric) -> Matching:
    """Repeatedly match the closest unmatched pair (ties lexicographic)."""
    n = metric.n
    if n % 2:
        raise OddVertexCountError(f"n={n} is odd; perfect matchings need even n")
    _require_finite(metric)
    d = metric.dist
    iu, iv = np.triu_indices(n, 1)
    order = np.lexsort((iv, iu, d[iu, iv]))
    matched = np.zeros(n, dtype=bool)
    pairs = []
    for idx in order:
        a, b = int(iu[idx]), int(iv[idx])
        if not matched[a] and not matched[b]:
            matched[a] = matched[b] = True
            pairs.append((a + 1, b + 1))
            if len(pairs) == n // 2:
                break
    cost = math.fsum(d[a - 1, b - 1] for a, b in pairs)
    return Matching(pairs=tuple(pairs), cost=cost)


def exact_matching(metric: Metric, cap: int = MATCHING_CAP) -> Matching:
    """Minimum-cost perfect matching by DP over vertex subsets.

    ``dp[mask]`` is the cheapest perfect matching of ``mask``, whose lowest
    vertex i is always the one matched.  Masks with lowest bit i are the
    strided slice ``dp[1 << i :: 2 << i]``; they draw from the masks with
    lowest bit above i, ``dp[:: 2 << i]``, so i runs from n-1 down to 0.
    """
    n = metric.n
    if n % 2:
        raise OddVertexCountError(f"n={n} is odd; perfect matchings need even n")
    cap = min(cap, MATCHING_CAP)
    if n > cap:
        raise SizeCapExceededError(f"n={n} exceeds the matching DP cap {cap}")
    _require_finite(metric)
    d = metric.dist
    dp = np.full(1 << n, np.inf)
    dp[0] = 0.0
    for i in range(n - 1, -1, -1):
        src = dp[:: 2 << i]  # index t <-> mask t << (i+1)
        dst = dp[1 << i :: 2 << i]  # index t <-> mask (t << (i+1)) | (1 << i)
        for j in range(i + 1, n):
            half = 1 << (j - i - 1)  # bit j of the mask is this bit of t
            with_j = dst.reshape(-1, 2, half)[:, 1, :]
            np.minimum(with_j, src.reshape(-1, 2, half)[:, 0, :] + d[i, j], out=with_j)
    # walk back, matching i to the lowest j whose sum attains dp[mask]
    pairs = []
    mask = (1 << n) - 1
    while mask:
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        js = np.flatnonzero((rest >> np.arange(n)) & 1)
        j = int(js[np.argmax(dp[rest ^ (1 << js)] + d[i, js] == dp[mask])])
        pairs.append((i + 1, j + 1))
        mask = rest ^ (1 << j)
    pairs.sort()
    cost = math.fsum(d[a - 1, b - 1] for a, b in pairs)
    return Matching(pairs=tuple(pairs), cost=cost)


def nearest_neighbor_tour(metric: Metric, start: int = 1) -> Tour:
    """Always walk to the nearest unvisited vertex, then close the cycle."""
    n = metric.n
    if not 1 <= start <= n:
        raise ValueError(f"start vertex {start} out of range")
    _require_finite(metric)
    d = metric.dist
    unvisited = np.ones(n, dtype=bool)
    order = [start]
    unvisited[start - 1] = False
    cur = start - 1
    for _ in range(n - 1):
        row = np.where(unvisited, d[cur], np.inf)
        nxt = int(np.argmin(row))  # first minimum = lowest index on ties
        order.append(nxt + 1)
        unvisited[nxt] = False
        cur = nxt
    order_t = tuple(order)
    return Tour(order=order_t, cost=tour_cost(metric, order_t))


def _initial_triple(metric: Metric, rule: str, stream: UniformStream | None) -> list[int]:
    """First three vertices (0-based), chosen by the insertion rule itself."""
    n = metric.n
    d = metric.dist
    if rule == "nearest":
        by = np.lexsort((np.arange(n), d[0]))
        return [0, int(by[1]), int(by[2])]
    if rule == "farthest":
        by = np.lexsort((np.arange(n), -d[0]))
        picks = [int(x) for x in by if x != 0][:2]
        return [0] + picks
    if rule == "cheapest":
        best = None
        for i, j, k in itertools.combinations(range(n), 3):
            per = d[i, j] + d[j, k] + d[i, k]
            if best is None or per < best[0]:
                best = (per, [i, j, k])
        return best[1]
    if rule == "random":
        remaining = list(range(n))
        picks = []
        for _ in range(3):
            picks.append(remaining.pop(stream.integer_below(len(remaining))))
        return sorted(picks)
    raise ValueError(f"unknown insertion rule {rule!r}")


def insertion_tour(metric: Metric, rule: str = "nearest", seed: Seed | None = None) -> Tour:
    """Grow a tour by inserting the rule's next vertex at the cheapest position.

    Starts from the (trivially optimal) triangle on the rule's first three
    vertices.  The random rule draws from the seed; other rules ignore it.
    """
    n = metric.n
    if n < 3:
        raise TooFewVerticesError("insertion needs at least 3 vertices")
    _require_finite(metric)
    if rule == "random" and seed is None:
        raise ValueError("random rule needs a seed")
    d = metric.dist
    stream = UniformStream(seed) if seed is not None else None
    order = _initial_triple(metric, rule, stream)
    in_tour = np.zeros(n, dtype=bool)
    in_tour[order] = True
    while len(order) < n:
        out = np.flatnonzero(~in_tour)
        if rule in ("nearest", "farthest"):
            dmin = d[np.ix_(out, order)].min(axis=1)  # distance of each outsider to the tour
            pick = int(out[np.argmin(dmin)] if rule == "nearest" else out[np.argmax(dmin)])
        elif rule == "cheapest":
            best = None
            for x in out:
                inc = min(
                    d[order[i], x] + d[x, order[(i + 1) % len(order)]]
                    - d[order[i], order[(i + 1) % len(order)]]
                    for i in range(len(order))
                )
                if best is None or inc < best[0]:
                    best = (inc, int(x))
            pick = best[1]
        else:  # random
            pick = int(out[stream.integer_below(len(out))])
        increases = [
            d[order[i], pick] + d[pick, order[(i + 1) % len(order)]]
            - d[order[i], order[(i + 1) % len(order)]]
            for i in range(len(order))
        ]
        pos = int(np.argmin(increases))  # earliest position on ties
        order.insert(pos + 1, pick)
        in_tour[pick] = True
    order_t = tuple(x + 1 for x in order)
    return Tour(order=order_t, cost=tour_cost(metric, order_t))


def _exchange_pairs(n: int) -> list[tuple[int, int]]:
    """Position pairs (i, j) whose tour edges are disjoint, in lexicographic order."""
    return [
        (i, j)
        for i in range(n - 1)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]


def _exchange_delta(d: list[list[float]], order: list[int], i: int, j: int, n: int) -> float:
    a, b = order[i], order[i + 1]
    c, e = order[j], order[(j + 1) % n]
    return d[a][c] + d[b][e] - d[a][b] - d[c][e]


def two_opt(
    metric: Metric,
    initial: Tour | tuple[int, ...] | None = None,
    pivot: str = "first",
) -> TwoOptTrace:
    """Apply improving 2-exchanges until a local optimum.

    ``pivot="first"`` scans position pairs lexicographically, resuming right
    after the last applied exchange; ``pivot="best"`` applies the best
    improvement each round.  An exchange counts as improving only when the
    tracked cost strictly decreases, so the recorded cost sequence is
    strictly decreasing by construction and the local-optimality check uses
    the same predicate.
    """
    _require_finite(metric)
    if pivot not in ("first", "best"):
        raise ValueError("pivot must be 'first' or 'best'")
    n = metric.n
    if initial is None:
        start_order = tuple(range(1, n + 1))
    elif isinstance(initial, Tour):
        start_order = initial.order
    else:
        start_order = tuple(initial)
    _check_tour(metric, start_order)
    d = metric.dist.tolist()
    order = [v - 1 for v in start_order]
    cost = tour_cost(metric, start_order)
    costs = [cost]
    pairs = _exchange_pairs(n)
    iterations = 0
    if pairs:
        if pivot == "first":
            pos = 0
            stale = 0
            while stale < len(pairs):
                i, j = pairs[pos % len(pairs)]
                delta = _exchange_delta(d, order, i, j, n)
                if cost + delta < cost:
                    order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
                    cost += delta
                    costs.append(cost)
                    iterations += 1
                    stale = 0
                else:
                    stale += 1
                pos += 1
        else:
            while True:
                best = None
                for i, j in pairs:
                    delta = _exchange_delta(d, order, i, j, n)
                    if cost + delta < cost and (best is None or delta < best[0]):
                        best = (delta, i, j)
                if best is None:
                    break
                _, i, j = best
                order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
                cost += best[0]
                costs.append(cost)
                iterations += 1
    final_order = tuple(v + 1 for v in order)
    final = Tour(order=final_order, cost=tour_cost(metric, final_order))
    return TwoOptTrace(final=final, iterations=iterations, costs=tuple(costs))


def has_improving_exchange(metric: Metric, tour: Tour) -> bool:
    """Full rescan: does any 2-exchange strictly decrease the tour cost?"""
    n = metric.n
    d = metric.dist.tolist()
    order = [v - 1 for v in tour.order]
    cost = tour.cost
    return any(
        cost + _exchange_delta(d, order, i, j, n) < cost for i, j in _exchange_pairs(n)
    )


def exact_tsp(metric: Metric, cap: int = TSP_CAP) -> Tour:
    """Optimal tour by the Held-Karp subset dynamic program.

    Tours are anchored at vertex 1.  ``dp[S, j]`` is the cheapest path from
    vertex 1 through the set S of other vertices, ending at vertex j+2 (bit
    j); S runs over the 2^(n-1) subsets one popcount layer at a time.
    """
    n = metric.n
    if n < 3:
        raise TooFewVerticesError("a tour needs at least 3 vertices")
    cap = min(cap, TSP_CAP)
    if n > cap:
        raise SizeCapExceededError(f"n={n} exceeds the TSP DP cap {cap}")
    _require_finite(metric)
    d = metric.dist
    m = n - 1
    masks = np.arange(1 << m)
    popcount = np.zeros(1 << m, dtype=np.int8)
    for b in range(m):
        popcount += (masks >> b) & 1
    dp = np.full((1 << m, m), np.inf)
    par = np.zeros((1 << m, m), dtype=np.int8)
    dp[1 << np.arange(m), np.arange(m)] = d[0, 1:]
    for k in range(2, m + 1):
        layer = masks[popcount == k]
        for j in range(m):
            ends = layer[(layer >> j) & 1 == 1]
            cand = dp[ends ^ (1 << j)] + d[1:, j + 1]
            arg = np.argmin(cand, axis=1)  # lowest predecessor on ties
            dp[ends, j] = cand[np.arange(len(ends)), arg]
            par[ends, j] = arg
    full = (1 << m) - 1
    cur = int(np.argmin(dp[full] + d[1:, 0]))  # lowest last vertex on ties
    path = []
    mask = full
    while mask:
        path.append(cur + 2)
        prev = int(par[mask, cur])
        mask ^= 1 << cur
        cur = prev
    order = tuple([1] + path[::-1])
    return Tour(order=order, cost=tour_cost(metric, order))


def trivial_kmedian(metric: Metric, centers: tuple[int, ...] | frozenset[int]) -> MedianSolution:
    """Cost of serving every vertex from its closest center in the given set."""
    centers_t = tuple(sorted(set(centers)))
    if not centers_t:
        raise EmptyCenterSetError("center set is empty")
    n = metric.n
    if centers_t[0] < 1 or centers_t[-1] > n:
        raise ValueError("center out of vertex range")
    _require_finite(metric)
    cols = [c - 1 for c in centers_t]
    mins = metric.dist[:, cols].min(axis=1)
    return MedianSolution(centers=centers_t, cost=math.fsum(mins.tolist()))


def first_k_centers(k: int) -> tuple[int, ...]:
    """The canonical metric-independent center choice: vertices 1..k."""
    return tuple(range(1, k + 1))


def exact_kmedian(metric: Metric, k: int, cap: int = KMEDIAN_CAP) -> MedianSolution:
    """Optimal k-median by enumerating all size-k center sets."""
    n = metric.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    cap = min(cap, KMEDIAN_CAP)
    if math.comb(n, k) > cap:
        raise SizeCapExceededError(f"C({n},{k}) exceeds the enumeration cap {cap}")
    _require_finite(metric)
    d = metric.dist
    best_cost = math.inf
    best_combo: tuple[int, ...] | None = None
    batch = 8192
    combos = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(combos, batch))
        if not block:
            break
        idx = np.array(block, dtype=np.int64)  # (b, k)
        costs = d[:, idx].min(axis=2).sum(axis=0)  # (b,)
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best_combo = block[j]
    assert best_combo is not None
    centers = tuple(c + 1 for c in best_combo)
    cols = [c - 1 for c in centers]
    cost = math.fsum(d[:, cols].min(axis=1).tolist())
    return MedianSolution(centers=centers, cost=cost)
