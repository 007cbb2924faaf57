"""Matching, TSP, and k-median heuristics with their exact baselines.

Everything operates on a finite :class:`~rspmetric.metric.Metric`: each
function that needs one reads the table through ``Metric.finite_dist``, the
one gate, which raises :class:`~rspmetric.errors.InfiniteDistanceError` (a
``DisconnectedGraphError``) when the metric has infinite entries.  All tie
breaking is by lowest vertex index (and earliest position for insertions) so
runs are reproducible on crafted metrics; ties are a measure-zero event under
continuous random weights.

Exact baselines are dynamic programs / enumerations, not approximations,
bounded only by the hard ceilings ``TSP_CAP``, ``MATCHING_CAP`` and
``KMEDIAN_CAP``: past a ceiling they raise before allocating any table.  The
two subset DPs never visit one mask at a time.  Each reads a per-size index
plan, built once per process by an ``lru_cache`` and kept read-only, that
says which table entries every entry is the minimum over:

- ``exact_tsp`` (Held-Karp) anchors the tour at vertex 1 and keeps a table
  over the subsets of the other n-1 vertices and the end vertex.
  :func:`_tsp_plan` lists, per popcount layer and end vertex j, each subset's
  predecessor without j, so a layer is one gather, one add, one minimum and
  one write through flat table indices.  The walk back keeps no table: it
  recomputes each step's sums and takes the lowest predecessor by ``argmin``,
  as the closing step the lowest last vertex.
- ``exact_matching`` always matches the lowest vertex i of a subset, so from
  the full set it reaches only F(n+1) (Fibonacci) subsets, 10,946 of the 2^20
  at n = 20.  :func:`_matching_plan` lists those by size with their
  predecessors and pair distances, so a size is one gather, one add and one
  first-minimum ``argmin`` per subset.  The fill keeps where in its plan row
  each subset's minimum lies, so the walk back reads the pair and the subset
  left after it there: n/2 steps that recompute nothing.

Both keep the lowest-index tie rule of a per-mask DP scanning candidates in
ascending order (the reference versions live in ``tests/oracles.py``), so they
return the same tours and pairings, not just the same costs.  The tables are
bit-identical to the per-mask ones too: every entry is the minimum over the
same set of IEEE sums ``dp[prev] + d[., .]``, each one rounding of the same two
operands, and the minimum of non-NaN floats does not depend on the order in
which they are compared.  The walk backs then see the same entries, and
``argmin`` picks the first of equal minima, the lowest index, as the
per-mask scans do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EmptyCenterSetError,
    OddVertexCountError,
    SizeCapExceededError,
    TooFewVerticesError,
    check_count,
)
from .graphs import VERTEX_CAP, check_vertex
from .metric import Metric
from .rng import Seed, UniformStream

# Hard ceilings, the only size bound of the exact baselines.
# At 18 the Held-Karp table is 17 x 2^17 float64, about 18 MB, and its cached
# plan 4.5 MB of int32.  At 20 the pairing DP keeps 10,946 states.
TSP_CAP = 18
MATCHING_CAP = 20
KMEDIAN_CAP = 10**6  # number of center sets enumerated

_DP_BLOCK = 1 << 20  # at most this many entries per gather of a Held-Karp or k-median block
_ROW_BLOCK = 128  # rows of the distance table copied at once by greedy_matching


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


def tour_cost(metric: Metric, order: tuple[int, ...]) -> float:
    return _closed_tour(metric.dist, order)[2]


def greedy_matching(metric: Metric) -> Matching:
    """Repeatedly match the closest unmatched pair (ties lexicographic).

    Runs in rounds instead of scanning all n^2/2 sorted pairs.  Each unmatched
    vertex points at its closest unmatched partner, the first (lowest-index)
    ``argmin`` of its row, which is its least edge in the order on
    (weight, u, v).  A pair pointing at each other is least at both ends, so
    the scan would match it: it is taken, and only rows that pointed at a
    vertex just matched are recomputed, ``_ROW_BLOCK`` rows at a time.  Pairs
    come out in (weight, u, v) order, as the scan matches them.
    """
    n = metric.n
    if n % 2:
        raise OddVertexCountError(f"n={n} is odd; perfect matchings need even n")
    d = metric.finite_dist
    alive = np.arange(n)  # unmatched vertices, ascending
    partner = np.zeros(n, dtype=np.intp)
    stale = alive
    lows = [alive[:0]]  # the lower vertex of each matched pair, by round
    while len(alive):
        for lo in range(0, len(stale), _ROW_BLOCK):
            rows = stale[lo : lo + _ROW_BLOCK]
            block = d[np.ix_(rows, alive)]
            block[np.arange(len(rows)), np.searchsorted(alive, rows)] = np.inf
            partner[rows] = alive[np.argmin(block, axis=1)]
        mutual = alive[partner[partner[alive]] == alive]
        lows.append(mutual[mutual < partner[mutual]])
        matched = np.zeros(n, dtype=bool)
        matched[mutual] = True
        alive = alive[~matched[alive]]
        stale = alive[matched[partner[alive]]]
    a = np.concatenate(lows)
    b = partner[a]  # rows of matched vertices are never recomputed
    by = np.lexsort((b, a, d[a, b]))
    pairs = tuple(zip((a[by] + 1).tolist(), (b[by] + 1).tolist()))
    cost = math.fsum(d[a, b].tolist())
    return Matching(pairs=pairs, cost=cost)


@lru_cache(maxsize=None)  # one entry per even n <= MATCHING_CAP
def _matching_plan(n: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, ...], ...]]:
    """Index plan of the pairing DP on n vertices: only the reachable subsets.

    Matching the lowest vertex i of a subset to a partner j and recursing on
    the rest reaches F(n+1) (Fibonacci) of the 2^n subsets from the full set.
    Returns ``masks``, those subsets in ascending order (the state of mask
    ``masks[t]`` is t, so the empty set is state 0), and one layer per even
    size s = 2, 4, ..., n: ``(target, pred, pair)`` with ``target`` the states
    of size s, ``pred[r, c]`` the state of ``target[r]`` minus i and its c-th
    partner j in ascending order, and ``pair[r, c] = i * n + j`` the flat index
    of d[i, j].  Every subset of size s has exactly s - 1 partners, so the rows
    need no padding.
    """
    states = np.array([(1 << n) - 1])
    steps = []
    while states[0]:  # down to the empty set, one size at a time
        bits = (states[:, None] >> np.arange(n)) & 1 == 1
        i = bits.argmax(axis=1)  # the lowest vertex of each subset
        bits[np.arange(len(states)), i] = False
        js = np.nonzero(bits)[1].reshape(len(states), -1)  # its partners, ascending
        rest = states[:, None] ^ (1 << i)[:, None] ^ (1 << js)
        steps.append((states, rest, i[:, None] * n + js))
        states = np.unique(rest)
    masks = np.sort(np.concatenate([s for s, _, _ in steps] + [states]))
    layers = tuple(
        tuple(a.astype(np.int32) for a in (np.searchsorted(masks, s), np.searchsorted(masks, r), p))
        for s, r, p in reversed(steps)
    )
    for a in (masks, *(a for layer in layers for a in layer)):
        a.setflags(write=False)
    return masks, layers


def exact_matching(metric: Metric) -> Matching:
    """Minimum-cost perfect matching by DP over vertex subsets.

    ``dp[mask]`` is the cheapest perfect matching of ``mask``, whose lowest
    vertex i is always the one matched:
    ``dp[mask] = min_j dp[mask - {i, j}] + d[i, j]``.  Only the F(n+1)
    subsets that this recursion reaches from the full set are kept; the
    cached plan of :func:`_matching_plan` lists them by size, and each size
    is filled by one gather, one add and one row-wise ``argmin``, whose first
    minimum is the lowest partner j attaining it.  Its flat position in the
    layer's plan rows is kept per state, and there the walk back from the full
    set reads the pair (i, j) and the state of the subset left after it, one
    layer down per step: n/2 steps that recompute nothing.
    """
    n = metric.n
    if n % 2:
        raise OddVertexCountError(f"n={n} is odd; perfect matchings need even n")
    if n > MATCHING_CAP:
        raise SizeCapExceededError(f"n={n} exceeds the matching DP cap {MATCHING_CAP}")
    d = metric.finite_dist
    masks, layers = _matching_plan(n)
    dp = np.empty(len(masks))
    dp[0] = 0.0
    at_of = np.empty(len(masks), dtype=np.intp)  # each state's choice, flat in its layer
    for target, pred, pair in layers:
        cand = dp[pred]
        cand += np.take(d, pair)
        # the first minimum of each row: the lowest j attaining it
        at = cand.argmin(axis=1)
        at += np.arange(0, cand.size, cand.shape[1])
        dp[target] = cand.ravel()[at]
        at_of[target] = at
    # walk back from the full set, one layer down per pair
    pairs = []
    state = len(masks) - 1
    for _, pred, pair in reversed(layers):
        at = at_of[state]
        i, j = divmod(int(pair.flat[at]), n)
        pairs.append((i + 1, j + 1))
        state = int(pred.flat[at])
    pairs.sort()
    cost = math.fsum(d[a - 1, b - 1] for a, b in pairs)
    return Matching(pairs=tuple(pairs), cost=cost)


def nearest_neighbor_tour(metric: Metric, start: int = 1) -> Tour:
    """Always walk to the nearest unvisited vertex, then close the cycle."""
    n = metric.n
    start = check_vertex(start, n)
    d = metric.finite_dist
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


INSERTION_RULES = ("nearest", "farthest", "cheapest", "random")


def _initial_triple(d: np.ndarray, rule: str, stream: UniformStream | None) -> list[int]:
    """First three vertices (0-based), chosen by the insertion rule itself."""
    n = len(d)
    if rule == "nearest":
        by = np.lexsort((np.arange(n), d[0]))
        return [0, int(by[1]), int(by[2])]
    if rule == "farthest":
        by = np.lexsort((np.arange(n), -d[0]))
        picks = [int(x) for x in by if x != 0][:2]
        return [0] + picks
    if rule == "cheapest":
        # first triple (i, j, k), i < j < k, in lexicographic order with the least
        # d[i,j] + d[j,k] + d[i,k], one row i at a time
        best = None
        for i in range(n - 2):
            rest = np.arange(i + 1, n)
            per = d[i, rest, None] + d[np.ix_(rest, rest)] + d[i, rest]
            per[np.tril_indices(len(rest))] = np.inf  # keep k > j
            at = int(np.argmin(per))
            if best is None or per.flat[at] < best[0]:
                j, k = divmod(at, len(rest))
                best = (per.flat[at], [i, int(rest[j]), int(rest[k])])
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
    d = metric.finite_dist
    if rule == "random" and seed is None:
        raise ValueError("random rule needs a seed")
    stream = UniformStream(seed) if seed is not None else None
    order = _initial_triple(d, rule, stream)
    in_tour = np.zeros(n, dtype=bool)
    in_tour[order] = True
    dmin = d[order].min(axis=0)  # distance of each vertex to the tour
    # closed[:t] is the tour and closed[t] its first vertex again;
    # legs[i] = d[closed[i], closed[i+1]]
    closed = np.empty(n + 1, dtype=np.intp)
    closed[:4] = order + order[:1]
    legs = np.empty(n)
    legs[:3] = d[closed[:3], closed[1:4]]
    for t in range(3, n):
        if rule == "nearest":
            pick = int(np.argmin(np.where(in_tour, np.inf, dmin)))  # lowest index on ties
        elif rule == "farthest":
            pick = int(np.argmax(np.where(in_tour, -np.inf, dmin)))
        elif rule == "cheapest":
            out = np.flatnonzero(~in_tour)
            to_tour = d[np.ix_(out, closed[: t + 1])]
            inc = to_tour[:, :-1] + to_tour[:, 1:] - legs[:t]
            pick = int(out[np.argmin(inc.min(axis=1))])
        else:  # random
            out = np.flatnonzero(~in_tour)
            pick = int(out[stream.integer_below(len(out))])
        # d[tour[i], x] + d[x, tour[i+1]] - d[tour[i], tour[i+1]] (d is symmetric)
        to_tour = d[pick][closed[: t + 1]]
        increases = to_tour[:-1] + to_tour[1:] - legs[:t]
        pos = int(np.argmin(increases))  # earliest position on ties
        closed[pos + 2 : t + 2] = closed[pos + 1 : t + 1]
        closed[pos + 1] = pick
        legs[pos + 2 : t + 1] = legs[pos + 1 : t]
        legs[pos : pos + 2] = to_tour[pos : pos + 2]
        in_tour[pick] = True
        np.minimum(dmin, d[pick], out=dmin)
    order_t = tuple((closed[:n] + 1).tolist())
    return Tour(order=order_t, cost=tour_cost(metric, order_t))


def _row_deltas(
    d: np.ndarray, o: np.ndarray, legs: np.ndarray, i: int, lo: int, hi: int
) -> np.ndarray:
    """Cost changes of exchanging tour edge i with each edge j in lo..hi-1.

    ``o`` is the closed tour (``o[n] == o[0]``) and ``legs[j] = d[o[j], o[j+1]]``.
    Edges (a, b) and (c, e) become (a, c) and (b, e):
    ``d[a,c] + d[b,e] - d[a,b] - d[c,e]``, summed in that order.
    """
    return d[o[i]][o[lo:hi]] + d[o[i + 1]][o[lo + 1 : hi + 1]] - legs[i] - legs[lo:hi]


def _exchange(d: np.ndarray, o: np.ndarray, i: int, j: int, cost: float):
    """The closed tour with positions i+1..j reversed, its legs and its cost,
    if that cost is strictly below ``cost``; otherwise None."""
    new = o.copy()
    new[i + 1 : j + 1] = o[j:i:-1]
    legs = d[new[:-1], new[1:]]
    new_cost = math.fsum(legs.tolist())
    return (new, legs, new_cost) if new_cost < cost else None


def _closed_tour(d: np.ndarray, order: tuple[int, ...]):
    """0-based closed tour of a 1-based order, its legs and its cost."""
    # the count rule refuses True, 1.0 and 1.5; the permutation test is the range check
    o = [check_count(v, "vertex") - 1 for v in order]
    if sorted(o) != list(range(len(d))):
        raise ValueError("tour must be a permutation of 1..n")
    o = np.array(o + o[:1])
    legs = d[o[:-1], o[1:]]
    return o, legs, math.fsum(legs.tolist())


def _first_improvement(d, o, legs, cost, i, j):
    """First improving exchange in cyclic lexicographic pair order from (i, j).

    The position pairs (r, s) are those whose tour edges are disjoint:
    r + 2 <= s <= n - 1, and s <= n - 2 when r = 0.  The scan reads row i
    from s = j on, then rows i+1, ..., n-3, 0, ..., i-1, then row i up to
    j - 1, so it reads every pair once; each row is screened as one numpy
    pass.  An exchange improves iff ``cost + delta < cost`` for its row delta
    and the exchanged tour's ``fsum`` cost is strictly below ``cost``.
    Returns the pair and :func:`_exchange`'s result, or None.
    """
    n = len(legs)
    rows = [*range(i, n - 2), *range(i + 1)]  # row i first and last
    for k, r in enumerate(rows):
        lo = j if k == 0 else r + 2
        hi = j if k == len(rows) - 1 else (n - 1 if r == 0 else n)
        deltas = _row_deltas(d, o, legs, r, lo, hi)
        for t in (cost + deltas < cost).nonzero()[0]:
            exchanged = _exchange(d, o, r, lo + int(t), cost)
            if exchanged is not None:
                return r, lo + int(t), exchanged
    return None


# starts of a 2-opt run: the identity tour, or nearest_neighbor_tour
TWO_OPT_INITS = ("identity", "nn")


def two_opt(metric: Metric, initial: Tour | tuple[int, ...] | None = None) -> TwoOptTrace:
    """Apply improving 2-exchanges until a local optimum.

    The pivot rule is first improvement: position pairs (i, j) are read
    lexicographically and cyclically, starting at (0, 2) and after each
    exchange at the pair right after it, and the run stops after a full
    cycle of pairs without one (see :func:`_first_improvement`).  That stop
    is exactly :func:`has_improving_exchange` failing.  ``costs`` holds each
    tour's ``tour_cost``, so it falls strictly and the loop ends.
    """
    d = metric.finite_dist
    if initial is None:
        start_order = tuple(range(1, metric.n + 1))
    elif isinstance(initial, Tour):
        start_order = initial.order
    else:
        start_order = tuple(initial)
    o, legs, cost = _closed_tour(d, start_order)
    costs = [cost]
    i, j = 0, 2
    while (found := _first_improvement(d, o, legs, cost, i, j)) is not None:
        i, j, (o, legs, cost) = found
        costs.append(cost)
        j += 1
    final_order = tuple((o[:-1] + 1).tolist())
    final = Tour(order=final_order, cost=cost)
    return TwoOptTrace(final=final, iterations=len(costs) - 1, costs=tuple(costs))


def has_improving_exchange(metric: Metric, tour: Tour) -> bool:
    """Does any 2-exchange improve the tour, by :func:`two_opt`'s rule?  A scan
    of its own, apart from :func:`_first_improvement`: every position pair
    (r, s) with disjoint tour edges, a row r at a time, with the floats of
    ``_row_deltas`` and :func:`_exchange`'s acceptance rule."""
    d = metric.finite_dist
    o, legs, cost = _closed_tour(d, tour.order)
    n = len(legs)
    for r in range(n - 2):
        s = np.arange(r + 2, n - 1 if r == 0 else n)
        delta = d[o[r], o[s]] + d[o[r + 1], o[s + 1]] - legs[r] - legs[s]
        if any(_exchange(d, o, r, t, cost) is not None for t in s[cost + delta < cost].tolist()):
            return True
    return False


@lru_cache(maxsize=None)  # one entry per m < TSP_CAP
def _tsp_plan(m: int) -> tuple[np.ndarray, ...]:
    """Index plan of Held-Karp over the subsets of m end vertices.

    One read-only int32 array per popcount layer k = 2..m:
    ``prev[j, c] = S ^ (1 << j)`` for the c-th subset S of size k that holds
    bit j, in ascending order of S.  Every bit lies in C(m-1, k-1) such
    subsets, so the rows have one length.
    """
    masks = np.arange(1 << m, dtype=np.int32)
    popcount = np.zeros(1 << m, dtype=np.int8)
    for b in range(m):
        popcount += (masks >> b) & 1
    bit = np.arange(m, dtype=np.int32)[:, None]
    plan = []
    for k in range(2, m + 1):
        layer = masks[popcount == k]
        holds = (layer >> bit) & 1 == 1  # holds[j, c]: the c-th subset holds bit j
        prev = np.broadcast_to(layer, holds.shape)[holds].reshape(m, -1) ^ (1 << bit)
        prev.setflags(write=False)
        plan.append(prev)
    return tuple(plan)


def exact_tsp(metric: Metric) -> Tour:
    """Optimal tour by the Held-Karp subset dynamic program.

    Tours are anchored at vertex 1.  ``dp[S, j]`` is the cheapest path from
    vertex 1 through the set S of other vertices, ending at vertex j+2 (bit
    j): ``dp[S, j] = min_p dp[S - {j}, p] + d[p+2, j+2]``.  The table is kept
    end-major, ``dT[p, S] = dp[S, p]``, and filled one popcount layer at a
    time from the cached plan of :func:`_tsp_plan`: one gather of every
    candidate ``dT[p, prev[j, c]]``, one add of ``d[p+2, j+2]`` and one
    minimum over p, in blocks of at most ``_DP_BLOCK`` candidates.  The
    minima are written through ``dT.ravel()`` at the flat indices
    ``(j << m) | prev[j, c] | (1 << j)``, computed per block.  The walk back
    recomputes each step's sums and takes the lowest predecessor attaining
    the entry, as the closing step the lowest last vertex.
    """
    n = metric.n
    if n < 3:
        raise TooFewVerticesError("a tour needs at least 3 vertices")
    if n > TSP_CAP:
        raise SizeCapExceededError(f"n={n} exceeds the TSP DP cap {TSP_CAP}")
    d = metric.finite_dist
    m = n - 1
    # dT[j, S] is entry (j << m) | S of dT.ravel(), and S = prev | (1 << j)
    ends = np.arange(m)
    at_end = (ends << m) | (1 << ends)  # the flat entries of S = {j}
    dT = np.full((m, 1 << m), np.inf)
    flat = dT.ravel()
    flat[at_end] = d[0, 1:]
    legs = d[1:, 1:, None]  # legs[p, j] = d[p+2, j+2]
    for prev in _tsp_plan(m):
        width = max(1, _DP_BLOCK // (m * prev.shape[1]))  # end vertices per block
        for lo in range(0, m, width):
            j = slice(lo, lo + width)
            cand = np.take(dT, prev[j], axis=1)  # (p, j, c)
            cand += legs[:, j]
            flat[prev[j] | at_end[j, None]] = np.minimum.reduce(cand, axis=0)
            del cand  # before the next block's gather, so one block is held at a time
    dp = dT.T
    # walk back from the lowest last vertex, each time to the lowest
    # predecessor whose recomputed sum attains the table entry
    mask = (1 << m) - 1
    cur = int(np.argmin(dp[mask] + d[1:, 0]))
    path = [cur + 2]
    mask ^= 1 << cur
    while mask:
        cur = int(np.argmin(dp[mask] + d[1:, cur + 1]))
        path.append(cur + 2)
        mask ^= 1 << cur
    order = tuple([1] + path[::-1])
    return Tour(order=order, cost=tour_cost(metric, order))


def trivial_kmedian(metric: Metric, centers: tuple[int, ...] | frozenset[int]) -> MedianSolution:
    """Cost of serving every vertex from its closest center in the given set."""
    centers_t = tuple(sorted({check_vertex(c, metric.n) for c in centers}))
    if not centers_t:
        raise EmptyCenterSetError("center set is empty")
    cols = [c - 1 for c in centers_t]
    mins = metric.finite_dist[:, cols].min(axis=1)
    return MedianSolution(centers=centers_t, cost=math.fsum(mins.tolist()))


def first_k_centers(k: int) -> tuple[int, ...]:
    """The canonical metric-independent center choice: vertices 1..k, k in 1..VERTEX_CAP."""
    k = check_count(k, "k")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > VERTEX_CAP:
        raise SizeCapExceededError(f"k={k} exceeds the vertex cap {VERTEX_CAP}")
    return tuple(range(1, k + 1))


def exact_kmedian(metric: Metric, k: int) -> MedianSolution:
    """Optimal k-median by enumerating all size-k center sets, in blocks of
    at most ``_DP_BLOCK`` gathered distances (at least one set)."""
    n = metric.n
    k = check_count(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if math.comb(n, k) > KMEDIAN_CAP:
        raise SizeCapExceededError(f"C({n},{k}) exceeds the enumeration cap {KMEDIAN_CAP}")
    d = metric.finite_dist
    best_cost = math.inf
    best_combo: tuple[int, ...] | None = None
    combos = itertools.combinations(range(n), k)
    # a set's cost sums one contiguous row of the (set, vertex) minima, so it
    # does not depend on how many sets share a block
    while block := list(itertools.islice(combos, max(1, _DP_BLOCK // (n * k)))):
        costs = d[np.array(block)].min(axis=1).sum(axis=1)  # rows of the symmetric table
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best_combo = block[j]
    assert best_combo is not None
    return trivial_kmedian(metric, tuple(c + 1 for c in best_combo))
