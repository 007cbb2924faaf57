"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: subsets are
enumerated without the complement-symmetry shortcut, shortest paths come
from Floyd-Warshall instead of per-source label setting, and matchings and
tours are enumerated outright.  The per-mask subset DPs are the reference
versions of the library's vectorized exact baselines: same recurrences and
tie rules, one mask at a time.  ``cut_parameters_enum`` is the reference of
the split bilinear form behind ``cut_parameters_exact``: one XOR per edge
over every subset holding vertex 1, with the same float division.
Likewise the loop versions at the end are the references of the library's
whole-array kernels (full-graph Dijkstra, tau profiles, greedy matching,
nearest neighbour, insertion, 2-opt and the clustering): same arithmetic,
summation order and tie rules, one element at a time.
``normalized_edges_lexsort`` is the reference of the edge validation behind
``Graph``: row reductions and a lexsort in place of column passes over one
int64 key.  Then come the references of the graph and metric file readers
and of the metric writer: ``int()``, ``float()`` and ``format`` one line or
one entry at a time.  Then the counter stream one value at a time in
Python integers, the reference of the RNG kernel, with the G(n, p) and
weight draws read from it.  Then ``exp_sum_cdf``, the CDF of a sum of
exponentials, which the RNG tests read.  Last, the `tau` suite's checks
written out: the growth sums one increment at a time, and the CDF bracket
evaluated one sample at a time in ``math``, the reference of the array form
in ``bounds``.
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
            cut = sum(1 for u, v in graph.edges.tolist() if (u in inside) != (v in inside))
            if cut == 0:
                return None  # disconnected
            ratio = Fraction(cut, size * (n - size))
            lo = ratio if lo is None else min(lo, ratio)
            hi = ratio if hi is None else max(hi, ratio)
    return lo, hi


def cut_parameters_enum(graph):
    """(alpha, beta) as floats, one subset holding vertex 1 at a time; None if disconnected.

    Each subset's ratio is its integer cut divided by |U|(n-|U|) in float64,
    so the result is the float that an exact computation must reproduce.
    """
    n = graph.n
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
            return None
        ratios = cuts / (sizes * (n - sizes))
        alpha = min(alpha, float(ratios.min()))
        beta = max(beta, float(ratios.max()))
    return alpha, beta


def floyd_warshall(wg):
    """All-pairs shortest paths by the cubic relaxation."""
    n = wg.graph.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in zip(wg.graph.edges.tolist(), wg.weights.tolist()):
        d[u - 1, v - 1] = d[v - 1, u - 1] = w
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def triangle_violations(dist, tol=1e-12):
    """Number of triples (i, k, j) with d[i, j] > d[i, k] + d[k, j] + tol.

    An infinite right-hand side never counts against the inequality.
    """
    violations = 0
    for k in range(dist.shape[0]):
        rhs = dist[:, k, None] + dist[None, k, :]
        violations += int(((dist > rhs + tol) & ~np.isinf(rhs)).sum())
    return violations


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
    return sum(1 for u, v in graph.edges.tolist() if (u in inside) != (v in inside))


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


# -- reference versions of the library's whole-array kernels --------------------


def dijkstra_full(wg):
    """Raw all-pairs table of scipy Dijkstra on every edge (row = source)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = wg.graph.n
    rows = [u - 1 for u, _ in wg.graph.edges.tolist()]
    cols = [v - 1 for _, v in wg.graph.edges.tolist()]
    mat = csr_matrix((wg.weights, (rows, cols)), shape=(n, n))
    return dijkstra(mat, directed=False)


def tau_profile_loop(dist, graph, v):
    """(taus, chis, order) of vertex v by growing the prefix one vertex at a time."""
    n = dist.shape[0]
    row = dist[v - 1]
    order0 = np.lexsort((np.arange(n), row))
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[tuple((graph.edges - 1).T)] = True
    adj = [np.flatnonzero(a).tolist() for a in adjacent | adjacent.T]  # 0-based neighbour lists
    inside = [False] * n
    cuts = []
    cut = 0
    for x in order0.tolist():
        cut += len(adj[x]) - 2 * sum(map(inside.__getitem__, adj[x]))
        inside[x] = True
        cuts.append(cut)
    return row[order0], np.array(cuts[: n - 1], dtype=np.int64), order0 + 1


def tour_cost_loop(dist, order):
    n = len(order)
    return math.fsum(dist[order[i] - 1, order[(i + 1) % n] - 1] for i in range(n))


def greedy_matching_scan(dist):
    """(pairs, cost): scan all pairs sorted by (weight, u, v), matching free pairs."""
    d = np.asarray(dist)
    n = d.shape[0]
    iu, iv = np.triu_indices(n, 1)
    order = np.lexsort((iv, iu, d[iu, iv]))
    matched = np.zeros(n, dtype=bool)
    pairs = []
    for idx in order:
        a, b = int(iu[idx]), int(iv[idx])
        if not matched[a] and not matched[b]:
            matched[a] = matched[b] = True
            pairs.append((a + 1, b + 1))
    cost = math.fsum(d[a - 1, b - 1] for a, b in pairs)
    return tuple(pairs), cost


def nearest_neighbor_loop(dist, start):
    """(order, cost) of nearest neighbour from ``start``: each step scans the
    unvisited vertices in ascending order and keeps the first closest one."""
    rows = np.asarray(dist).tolist()
    unvisited = [x for x in range(len(rows)) if x != start - 1]
    order = [start - 1]
    while unvisited:
        nxt = min(unvisited, key=rows[order[-1]].__getitem__)  # lowest index on ties
        unvisited.remove(nxt)
        order.append(nxt)
    order_t = tuple(x + 1 for x in order)
    return order_t, tour_cost_loop(np.asarray(dist), order_t)


def insertion_loop(dist, rule, seed=None):
    """(order, cost) of insertion: the rule's next vertex at its cheapest position."""
    from rspmetric.rng import UniformStream

    d = np.asarray(dist)
    n = d.shape[0]
    stream = UniformStream(seed) if seed is not None else None
    if rule == "nearest":
        by = np.lexsort((np.arange(n), d[0]))
        order = [0, int(by[1]), int(by[2])]
    elif rule == "farthest":
        by = np.lexsort((np.arange(n), -d[0]))
        order = [0] + [int(x) for x in by if x != 0][:2]
    elif rule == "cheapest":
        best = None
        for i, j, k in itertools.combinations(range(n), 3):
            per = d[i, j] + d[j, k] + d[i, k]
            if best is None or per < best[0]:
                best = (per, [i, j, k])
        order = best[1]
    else:
        remaining = list(range(n))
        order = sorted(remaining.pop(stream.integer_below(len(remaining))) for _ in range(3))
    in_tour = np.zeros(n, dtype=bool)
    in_tour[order] = True

    def increase(x, i):
        nxt = order[(i + 1) % len(order)]
        return d[order[i], x] + d[x, nxt] - d[order[i], nxt]

    while len(order) < n:
        out = np.flatnonzero(~in_tour)
        if rule in ("nearest", "farthest"):
            dmin = d[np.ix_(out, order)].min(axis=1)
            pick = int(out[np.argmin(dmin)] if rule == "nearest" else out[np.argmax(dmin)])
        elif rule == "cheapest":
            best = None
            for x in out:
                inc = min(increase(x, i) for i in range(len(order)))
                if best is None or inc < best[0]:
                    best = (inc, int(x))
            pick = best[1]
        else:
            pick = int(out[stream.integer_below(len(out))])
        pos = int(np.argmin([increase(pick, i) for i in range(len(order))]))
        order.insert(pos + 1, pick)
        in_tour[pick] = True
    order_t = tuple(x + 1 for x in order)
    return order_t, tour_cost_loop(d, order_t)


def _exchange_pairs(n):
    return [(i, j) for i in range(n - 1) for j in range(i + 2, n) if not (i == 0 and j == n - 1)]


def _improving_delta(d, order, i, j, cost):
    """The pair's delta if its exchange improves (screen and fsum), else None."""
    n = len(order)
    a, b, c, e = order[i], order[i + 1], order[j], order[(j + 1) % n]
    delta = d[a][c] + d[b][e] - d[a][b] - d[c][e]
    if not cost + delta < cost:
        return None
    new = order[: i + 1] + order[i + 1 : j + 1][::-1] + order[j + 1 :]
    if not math.fsum(d[new[k]][new[(k + 1) % n]] for k in range(n)) < cost:
        return None
    return delta


def two_opt_loop(dist, start_order):
    """(order, costs) of first-improvement 2-opt, one position pair at a time."""
    d = np.asarray(dist).tolist()
    n = len(start_order)
    order = [v - 1 for v in start_order]

    def cost_of(o):
        return math.fsum(d[o[k]][o[(k + 1) % n]] for k in range(n))

    cost = cost_of(order)
    costs = [cost]
    pairs = _exchange_pairs(n)
    pos = stale = 0
    while stale < len(pairs):
        i, j = pairs[pos % len(pairs)]
        if _improving_delta(d, order, i, j, cost) is not None:
            order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
            cost = cost_of(order)
            costs.append(cost)
            stale = 0
        else:
            stale += 1
        pos += 1
    return tuple(v + 1 for v in order), tuple(costs)


def has_improving_exchange_loop(dist, tour_order):
    d = np.asarray(dist).tolist()
    order = [v - 1 for v in tour_order]
    n = len(order)
    cost = math.fsum(d[order[k]][order[(k + 1) % n]] for k in range(n))
    return any(_improving_delta(d, order, i, j, cost) is not None for i, j in _exchange_pairs(n))


def cluster_partition_loop(dist, delta, alpha):
    """(clusters, diameters, s_delta) of the bounded-diameter clustering, vertex by vertex.

    Same greedy centre scan as ``cluster_partition``; each dense non-centre
    then tries the centres in ascending order and joins the first whose ball
    meets its own.  Clusters are sorted by their lowest member, and each
    diameter is the max over the cluster's own block of the table.
    """
    from rspmetric.bounds import density_threshold

    n = dist.shape[0]
    s_delta = density_threshold(delta, n, alpha)
    in_ball = dist <= delta
    sizes = in_ball.sum(axis=1)
    dense0 = [v for v in range(n) if sizes[v] >= s_delta]
    clusters = [[v] for v in range(n) if sizes[v] < s_delta]
    shared = in_ball[dense0].astype(np.int64) @ in_ball[dense0].T.astype(np.int64)
    meets = shared > 0
    chosen = []
    blocked = [False] * len(dense0)
    for i in range(len(dense0)):
        if not blocked[i]:
            chosen.append(i)
            for j in range(len(dense0)):
                blocked[j] = blocked[j] or bool(meets[i, j])
    members = {c: [dense0[c]] for c in chosen}
    for i in range(len(dense0)):
        if i in members:
            continue
        for c in chosen:
            if meets[c, i]:
                members[c].append(dense0[i])
                break
    clusters.extend(members[c] for c in chosen)
    clusters.sort(key=min)
    diameters = tuple(
        float(dist[np.ix_(cl, cl)].max()) if len(cl) > 1 else 0.0 for cl in clusters
    )
    return tuple(frozenset(x + 1 for x in cl) for cl in clusters), diameters, float(s_delta)


# -- edge validation by row reductions and a lexsort --------------------------------


def normalized_edges_lexsort(n, edges):
    """Validated pairs on 1..n as sorted (u < v) int32 rows, and the permutation
    ``perm`` (row i is input pair perm[i]), by axis-1 reductions over the (m, 2)
    array and a two-key ``lexsort``: the reference of ``graphs._normalized_edges``
    for n up to the int32 limit."""
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


# -- file formats, one line or one float at a time ---------------------------------


def read_graph_lines(path):
    """The `n m` / `u v [w]` graph file, parsed one line at a time with int() and float()."""
    from rspmetric import Graph, WeightedGraph

    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("first line must be `n m`")
    n, m = int(header[0]), int(header[1])
    rows = [line.split() for line in lines[1:] if line.strip()]
    if len(rows) != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows)}")
    edges, weights = [], []
    for row in rows:
        if len(row) not in (2, 3):
            raise ValueError(f"bad edge line: {' '.join(row)}")
        edges.append((int(row[0]), int(row[1])))
        if len(row) == 3:
            weights.append(float(row[2]))
    if weights and len(weights) != len(edges):
        raise ValueError("either all edge lines carry a weight or none do")
    graph = Graph(n, edges)
    if not weights:
        return graph
    weight_of = {(min(e), max(e)): w for e, w in zip(edges, weights)}
    return WeightedGraph(graph, [weight_of[u, v] for u, v in graph.edges.tolist()])


def read_metric_lines(path):
    """The `n` / n rows of distances metric file, one float() per entry."""
    from rspmetric import Metric

    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} distance rows, found {len(lines) - 1}")
    return Metric(np.array([[float(x) for x in ln.split()] for ln in lines[1:]], dtype=np.float64))


def write_metric_lines(path, metric):
    """The metric file, each distance formatted on its own (17 sig digits, `inf`)."""
    rows = [str(metric.n)]
    for i in range(metric.n):
        rows.append(" ".join("inf" if math.isinf(x) else f"{x:.17g}" for x in metric.dist[i]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")


# -- the counter stream, one value at a time ---------------------------------------


def stream_uniforms(master, start, count):
    """Uniforms at counters start + 1 .. start + count of the stream keyed ``master``:
    splitmix64 in Python integers, then the top 53 bits to the midpoint of
    their cell, below 1."""
    mask = (1 << 64) - 1
    out = []
    for i in range(start + 1, start + count + 1):
        z = (master + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append(min(((z >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53))
    return out


def erdos_renyi_pairs(n, p, master):
    """The edges of G(n, p) as pairs: pair number i in lexicographic order is an
    edge iff uniform i of the stream is below p."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return [pair for pair, u in zip(pairs, stream_uniforms(master, 0, len(pairs))) if u < p]


def stream_exponentials(master, count):
    """The first ``count`` weights -log1p(-u) of the stream, as one numpy vector
    of its uniforms, as a single draw made them."""
    return (-np.log1p(-np.array(stream_uniforms(master, 0, count)))).tolist()


# -- closed forms that only the tests read ---------------------------------------


def exp_sum_cdf(c, n, a):
    """P(X <= a) = (1 - e^{-ca})^n for X a sum of exponentials with rates c, 2c, ..., nc."""
    if not c > 0:
        raise ValueError("c must be positive")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not a >= 0:
        raise ValueError("a must be nonnegative")
    return (-math.expm1(-c * a)) ** n


# -- the tau suite's checks, one sample at a time ----------------------------------


def tau_cdf_bounds_math(x, n, k, alpha, beta):
    """The pointwise bracket on P(tau_k <= x) at one float, in ``math`` arithmetic.

    A zero rate (k = n) gives the term 0^(k-1) at every x, x = inf too, where
    the product 0 * inf would be NaN.
    """
    rate = alpha * (n - k)
    lower_a = (-math.expm1(-rate * x) if rate else 0.0) ** (k - 1)
    lower_b = (-math.expm1(-alpha * n * x / 4.0)) ** n
    upper = (-math.expm1(-beta * n * x)) ** (k - 1)
    return (max(lower_a, lower_b), upper)


def growth_sums_loop(config, ctx):
    """Each trial's growth sum on the context's frozen graph, one increment
    chi_k (tau_{k+1} - tau_k) at a time from ``tau_profile_loop``: the weights
    drawn from each trial's seed as ``lab`` draws them, and the table of
    ``build_metric``."""
    from rspmetric import Seed, build_metric, draw_weights

    master = Seed(config.seed)
    sums = []
    for i in range(config.trials):
        wg = draw_weights(ctx.graph, master.child(i, "trial").child(0, "weights"))
        taus, chis, _ = tau_profile_loop(build_metric(wg).dist, ctx.graph, 1)
        sums.append(math.fsum(float(c) * float(taus[k + 1] - taus[k])
                              for k, c in enumerate(chis.tolist())))
    return sums


def tau_checks_loop(config, ctx, records):
    """The checks of the `tau` suite written out: ``growth-exact`` from the
    growth sums of ``growth_sums_loop``, and the CDF bracket per sample in ``math``."""
    from scipy.special import gammainc, gammaincc

    from rspmetric import lab

    n, alpha, beta = config.n, ctx.cut.alpha, ctx.cut.beta
    shape = config.trials * (n - 1)
    total = math.fsum(growth_sums_loop(config, ctx))
    p = 2 * min(float(gammainc(shape, total)), float(gammaincc(shape, total)))
    checks = [lab.CheckResult(
        name="growth-exact",
        passed=p >= 0.01,
        detail=f"growth sum {total:.6g} vs Gamma({shape}, 1): two-sided p {p:.4g}",
    )]
    slack = lab._dkw_slack(len(records))
    for k in lab._tau_ks(config):
        samples = sorted(r.values[f"tau_{k}"] for r in records)
        band = [tau_cdf_bounds_math(x, n, k, alpha, beta) for x in samples]
        lo = np.array([0.0 if x <= 0 else low for x, (low, _) in zip(samples, band)])
        hi = np.array([high for _, high in band])
        breach = lab._band_breach(np.array(samples), lo, hi)
        checks.append(lab.CheckResult(
            name=f"tau_{k}-cdf-bracket",
            passed=breach <= slack,
            detail=f"max bracket breach {breach:.5f} (DKW slack {slack:.5f})",
        ))
    return checks
