"""Exact subset DPs against the per-mask reference DPs, their cached index
plans, and their size ceilings.

The vectorized DPs must reproduce the reference tie rules, so tours and
pairings are compared for equality, not just their costs.
"""

import tracemalloc

import numpy as np
import pytest

from rspmetric import (
    ConfigInvalidError,
    ExperimentConfig,
    Graph,
    SizeCapExceededError,
    complete_graph,
    cut_parameters_exact,
    exact_kmedian,
    exact_matching,
    exact_tsp,
)
from rspmetric.graphs import CUT_PARAMETER_CAP
from rspmetric import heuristics
from rspmetric.heuristics import MATCHING_CAP, TSP_CAP, _matching_plan, _tsp_plan
from rspmetric.lab import config_from_mapping, validate_config
from conftest import (
    all_ones_metric,
    er_metric,
    points_on_line,
    rsp_instance,
    small_integer_metric,
)
from oracles import held_karp_per_mask, pairing_dp_per_mask


def assert_same_tour(metric):
    got = exact_tsp(metric)
    assert (got.order, got.cost) == held_karp_per_mask(metric.dist)


def assert_same_matching(metric):
    got = exact_matching(metric)
    assert (got.pairs, got.cost) == pairing_dp_per_mask(metric.dist)


# -- differential: Held-Karp ----------------------------------------------------


@pytest.mark.parametrize("n", range(3, 13))
def test_tsp_matches_per_mask_dp_on_complete_graphs(n):
    for seed in range(3):
        assert_same_tour(rsp_instance(n, seed=1000 * n + seed)[2])


@pytest.mark.parametrize("n", (5, 8, 11))
def test_tsp_matches_per_mask_dp_on_er_graphs(n):
    for seed in range(3):
        assert_same_tour(er_metric(n, seed=77 * n + seed))


@pytest.mark.parametrize("n", (3, 6, 9, 12))
def test_tsp_matches_per_mask_dp_on_tie_heavy_metrics(n):
    assert_same_tour(points_on_line(n))
    assert_same_tour(all_ones_metric(n))
    for seed in range(3):
        assert_same_tour(small_integer_metric(n, seed))


@pytest.mark.parametrize("block", (16, 1000))
@pytest.mark.parametrize("n", (5, 9, 12))
def test_tsp_matches_per_mask_dp_with_layers_split_over_end_vertices(monkeypatch, n, block):
    # at the real block size layers split only from n = 17 on; 16 holds one end
    # vertex per block, 1000 gives blocks of several ends and a shorter last one
    monkeypatch.setattr(heuristics, "_DP_BLOCK", block)
    assert_same_tour(rsp_instance(n, seed=3000 + n)[2])
    assert_same_tour(er_metric(n, seed=55 * n))
    assert_same_tour(points_on_line(n))
    assert_same_tour(small_integer_metric(n, seed=n))


# -- differential: pairing DP ---------------------------------------------------


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_matching_matches_per_mask_dp_on_complete_graphs(n):
    for seed in range(3 if n < 16 else 1):
        assert_same_matching(rsp_instance(n, seed=2000 * n + seed)[2])


@pytest.mark.parametrize("n", (4, 8, 12))
def test_matching_matches_per_mask_dp_on_er_graphs(n):
    for seed in range(3):
        assert_same_matching(er_metric(n, seed=91 * n + seed))


@pytest.mark.parametrize("n", (2, 6, 10, 14, 16, 18))
def test_matching_matches_per_mask_dp_on_tie_heavy_metrics(n):
    assert_same_matching(points_on_line(n))
    assert_same_matching(all_ones_metric(n))
    for seed in range(3):
        assert_same_matching(small_integer_metric(n, seed))


# -- k-median enumeration -------------------------------------------------------


@pytest.mark.parametrize("k", (1, 2, 4))
def test_kmedian_does_not_depend_on_the_sets_per_block(monkeypatch, k):
    metrics = [rsp_instance(9, seed=4000 + s)[2] for s in range(3)]
    metrics += [er_metric(10, seed=4100 + s) for s in range(3)]
    default = [exact_kmedian(m, k) for m in metrics]
    for sets in (1, 7):  # C(9, 2) = 36 sets are five blocks of 7 and one of 1
        for m, want in zip(metrics, default):
            monkeypatch.setattr(heuristics, "_DP_BLOCK", sets * m.n * k)
            got = exact_kmedian(m, k)
            assert (got.centers, got.cost) == (want.centers, want.cost)


def test_kmedian_peak_memory_is_bounded_by_the_block():
    metric = rsp_instance(400, seed=5)[2]  # a 2^20-entry block holds 1310 of C(400, 2) sets
    tracemalloc.start()
    try:
        exact_kmedian(metric, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


# -- index plans ----------------------------------------------------------------


def test_matching_plan_keeps_only_the_fibonacci_many_reachable_subsets():
    fib = [0, 1]
    while len(fib) <= MATCHING_CAP + 1:
        fib.append(fib[-1] + fib[-2])
    for n in range(2, MATCHING_CAP + 1, 2):
        masks, layers = _matching_plan(n)
        assert len(masks) == fib[n + 1]
        assert masks[0] == 0 and masks[-1] == (1 << n) - 1
        assert sum(len(target) for target, _, _ in layers) == len(masks) - 1


def _leaves(plan):
    """Every item a plan holds, through its nested tuples."""
    if isinstance(plan, tuple):
        return [a for item in plan for a in _leaves(item)]
    return [plan]


def test_plan_arrays_are_read_only():
    plans = [_matching_plan(n) for n in (2, 8, MATCHING_CAP)]
    plans += [_tsp_plan(m) for m in (2, 7, TSP_CAP - 1)]
    for plan in plans:
        leaves = _leaves(plan)
        assert leaves
        for a in leaves:
            assert isinstance(a, np.ndarray) and not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 0


def test_calls_interleaved_across_sizes_match_fresh_calls():
    sizes = (12, 16, 12, 14)
    metrics = [rsp_instance(n, seed=4000 + i)[2] for i, n in enumerate(sizes)]
    interleaved = [(exact_tsp(x), exact_matching(x)) for x in metrics]
    for x, got in zip(metrics, interleaved):
        _tsp_plan.cache_clear()
        _matching_plan.cache_clear()
        assert got == (exact_tsp(x), exact_matching(x))


@pytest.mark.parametrize(
    "solve, plan, n, limit_mb",
    [(exact_tsp, _tsp_plan, TSP_CAP, 32), (exact_matching, _matching_plan, MATCHING_CAP, 4)],
)
def test_exact_dp_peak_memory_at_the_ceiling(solve, plan, n, limit_mb):
    metric = rsp_instance(n, seed=5)[2]
    plan.cache_clear()  # so that building the plan counts
    tracemalloc.start()
    try:
        solve(metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_mb << 20


# -- size ceilings --------------------------------------------------------------


def test_over_ceiling_sizes_are_rejected_before_any_table():
    big_tsp = rsp_instance(TSP_CAP + 1, seed=1)[2]
    big_matching = rsp_instance(MATCHING_CAP + 2, seed=1)[2]
    k30 = rsp_instance(30, seed=1)[2]  # C(30, 15) center sets exceed KMEDIAN_CAP
    n = CUT_PARAMETER_CAP + 1
    big_cut = Graph(n, complete_graph(n).edges[1:])  # not complete, so it needs the table
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceededError):
            exact_tsp(big_tsp)
        with pytest.raises(SizeCapExceededError):
            exact_matching(big_matching)
        with pytest.raises(SizeCapExceededError):
            cut_parameters_exact(big_cut)
        with pytest.raises(SizeCapExceededError):
            exact_kmedian(k30, 15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # rejected before any subset table exists


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(suite="ratio", kind="nn", n=TSP_CAP + 1),
        dict(suite="ratio", kind="insertion", n=TSP_CAP + 2),
        dict(suite="structure", n=TSP_CAP + 2, structure_checks=("sandwich",)),
        dict(suite="ratio", kind="matching", n=MATCHING_CAP + 2),
        dict(suite="tau", model="er", n=CUT_PARAMETER_CAP + 1, p=0.5),
        dict(suite="structure", model="er", n=CUT_PARAMETER_CAP + 2, p=0.5,
             structure_checks=("chi",)),
        dict(suite="ratio", kind="kmedian", n=40, k=20),
        # below p = 1 a draw need not be complete; p = 1 always draws K_n and runs
        dict(suite="tau", model="er", n=CUT_PARAMETER_CAP + 1, p=0.99),
    ],
)
def test_config_cap_above_ceiling_is_rejected(kwargs):
    # the hard ceilings are the only bound: a config has no key to move them
    with pytest.raises(ConfigInvalidError, match=r"n <= \d+|cap \d+"):
        validate_config(ExperimentConfig(**kwargs))


def test_config_files_have_no_cap_keys():
    with pytest.raises(ConfigInvalidError, match="unknown config key"):
        config_from_mapping({"suite": "ratio", "kind": "nn", "tsp_cap": "10"})


def test_config_at_the_ceiling_is_accepted():
    validate_config(ExperimentConfig(suite="ratio", kind="nn", n=TSP_CAP))
    validate_config(ExperimentConfig(suite="ratio", kind="matching", n=MATCHING_CAP))
    validate_config(ExperimentConfig(suite="tau", model="er", n=CUT_PARAMETER_CAP, p=0.5))
    validate_config(ExperimentConfig(suite="two-opt", model="er", n=60, p=0.5))
