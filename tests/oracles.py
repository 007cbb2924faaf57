"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: subsets are
enumerated without the complement-symmetry shortcut, shortest paths come
from Floyd-Warshall instead of per-source label setting, and matchings and
tours are enumerated outright.  The per-mask subset DPs are the reference
versions of the library's vectorized exact baselines: same recurrences and
tie rules, one mask at a time.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def cut_parameters_brute(graph):
    """(alpha, beta) as exact fractions over every nonempty proper subset."""
    n = graph.n
    lo, hi = None, None
    for size in range(1, n):
        for combo in itertools.combinations(range(1, n + 1), size):
            inside = set(combo)
            cut = sum(1 for u, v in graph.edges if (u in inside) != (v in inside))
            if cut == 0:
                return None  # disconnected
            ratio = Fraction(cut, size * (n - size))
            lo = ratio if lo is None else min(lo, ratio)
            hi = ratio if hi is None else max(hi, ratio)
    return lo, hi


def floyd_warshall(wg):
    """All-pairs shortest paths by the cubic relaxation."""
    n = wg.graph.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in zip(wg.graph.edges, wg.weights):
        d[u - 1, v - 1] = d[v - 1, u - 1] = w
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def min_matching_brute(dist):
    """Minimum perfect matching cost by enumerating all pairings."""
    n = dist.shape[0]

    def rec(remaining):
        if not remaining:
            return 0.0
        a = remaining[0]
        best = math.inf
        for j in range(1, len(remaining)):
            b = remaining[j]
            rest = remaining[1:j] + remaining[j + 1 :]
            best = min(best, dist[a, b] + rec(rest))
        return best

    return rec(tuple(range(n)))


def min_tsp_brute(dist):
    """Optimal tour cost by enumerating permutations with vertex 0 fixed."""
    n = dist.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        cost = sum(dist[order[i], order[(i + 1) % n]] for i in range(n))
        best = min(best, cost)
    return best


def prefix_cut_brute(graph, prefix):
    """Cut size of a vertex prefix (1-based labels) by direct edge counting."""
    inside = set(prefix)
    return sum(1 for u, v in graph.edges if (u in inside) != (v in inside))


def held_karp_per_mask(dist):
    """Optimal tour (order, cost) by Held-Karp relaxed forward one mask at a time.

    Anchored at vertex 1; ties go to the lowest predecessor and the lowest
    last vertex.  Order is 1-based; cost is the fsum of the tour's legs.
    """
    d = np.asarray(dist)
    n = d.shape[0]
    size = 1 << n
    dp = np.full((size, n), np.inf)
    parent = np.full((size, n), -1, dtype=np.int8)
    dp[1, 0] = 0.0
    all_v = np.arange(n)
    for mask in range(1, size, 2):
        row = dp[mask]
        active = np.flatnonzero(np.isfinite(row))
        if active.size == 0:
            continue
        outside = np.flatnonzero(~((mask >> all_v) & 1).astype(bool))
        if outside.size == 0:
            continue
        cand = row[active, None] + d[np.ix_(active, outside)]
        arg = np.argmin(cand, axis=0)
        best = cand[arg, np.arange(outside.size)]
        targets = mask | (1 << outside)
        better = best < dp[targets, outside]
        dp[targets[better], outside[better]] = best[better]
        parent[targets[better], outside[better]] = active[arg[better]]
    full = size - 1
    closing = dp[full] + d[:, 0]
    closing[0] = np.inf
    cur = int(np.argmin(closing))
    order0 = []
    mask = full
    while cur != 0:
        order0.append(cur)
        prev = int(parent[mask, cur])
        mask ^= 1 << cur
        cur = prev
    order = tuple([1] + [v + 1 for v in reversed(order0)])
    cost = math.fsum(d[order[i] - 1, order[(i + 1) % n] - 1] for i in range(n))
    return order, cost


def pairing_dp_per_mask(dist):
    """Minimum perfect matching (pairs, cost) by a pure-Python subset DP.

    The lowest vertex of each mask is matched; ties go to the lowest partner.
    Pairs are 1-based and sorted; cost is the fsum of the pair distances.
    """
    d = np.asarray(dist).tolist()
    n = len(d)
    size = 1 << n
    dp = [math.inf] * size
    choice = [0] * size
    dp[0] = 0.0
    for mask in range(2, size):
        if mask.bit_count() % 2:
            continue
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best = math.inf
        best_j = -1
        r = rest
        while r:
            jbit = r & -r
            j = jbit.bit_length() - 1
            c = dp[rest ^ jbit] + d[i][j]
            if c < best:
                best = c
                best_j = j
            r ^= jbit
        dp[mask] = best
        choice[mask] = best_j
    pairs = []
    mask = size - 1
    while mask:
        i = (mask & -mask).bit_length() - 1
        j = choice[mask]
        pairs.append((i + 1, j + 1))
        mask ^= (1 << i) | (1 << j)
    pairs.sort()
    cost = math.fsum(d[a - 1][b - 1] for a, b in pairs)
    return tuple(pairs), cost
