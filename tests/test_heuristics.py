import itertools
import math
import pickle

import numpy as np
import pytest

from rspmetric import (
    DisconnectedGraphError,
    EmptyCenterSetError,
    InfiniteDistanceError,
    Metric,
    OddVertexCountError,
    Seed,
    SizeCapExceededError,
    TooFewVerticesError,
    Tour,
    WeightedGraph,
    Graph,
    cluster_partition,
    exact_kmedian,
    exact_matching,
    exact_tsp,
    first_k_centers,
    greedy_matching,
    has_improving_exchange,
    insertion_tour,
    nearest_neighbor_tour,
    tour_cost,
    trivial_kmedian,
    two_opt,
)
from rspmetric.graphs import VERTEX_CAP
from rspmetric.heuristics import MATCHING_CAP, TSP_CAP
from conftest import all_ones_metric, rsp_instance
from oracles import min_matching_brute, min_tsp_brute

RULES = ("nearest", "farthest", "cheapest", "random")


def infinite_metric():
    return Metric(
        [[0.0, 1.0, math.inf, math.inf],
         [1.0, 0.0, math.inf, math.inf],
         [math.inf, math.inf, 0.0, 1.0],
         [math.inf, math.inf, 1.0, 0.0]]
    )


# every function that needs a finite metric, called on the two-component one
FINITE_ONLY = {
    "greedy_matching": greedy_matching,
    "exact_matching": exact_matching,
    "nearest_neighbor_tour": nearest_neighbor_tour,
    **{f"insertion_tour-{rule}": lambda m, rule=rule: insertion_tour(m, rule, Seed(1))
       for rule in RULES},
    "two_opt": two_opt,
    "has_improving_exchange": lambda m: has_improving_exchange(m, Tour((1, 3, 2, 4), 0.0)),
    "exact_tsp": exact_tsp,
    "trivial_kmedian": lambda m: trivial_kmedian(m, (1, 3)),
    "exact_kmedian": lambda m: exact_kmedian(m, 2),
    "cluster_partition": lambda m: cluster_partition(m, 0.5, alpha=1.0),
}


@pytest.mark.parametrize("call", FINITE_ONLY.values(), ids=FINITE_ONLY)
@pytest.mark.parametrize("pickled", [False, True], ids=["built", "unpickled"])
def test_infinite_metric_is_refused_at_the_finite_gate(call, pickled):
    # a metric unpickled on a worker (through Metric.__reduce__) keeps its answer
    m = pickle.loads(pickle.dumps(infinite_metric())) if pickled else infinite_metric()
    assert not m.is_finite()
    with pytest.raises(InfiniteDistanceError) as info:
        call(m)
    assert isinstance(info.value, DisconnectedGraphError)


# -- matchings ----------------------------------------------------------------


def test_greedy_on_two_vertices_is_optimal():
    m = Metric([[0.0, 0.4], [0.4, 0.0]])
    greedy = greedy_matching(m)
    assert greedy.pairs == ((1, 2),)
    assert greedy.cost == exact_matching(m).cost == 0.4


def test_greedy_line_example(line_metric):
    got = greedy_matching(line_metric)
    assert got.pairs == ((2, 3), (1, 4))
    assert got.cost == pytest.approx(5.4, rel=1e-12)


def test_exact_matching_line_example(line_metric):
    # brute force over the 3 perfect matchings: 3.6, 5.4, 5.4
    got = exact_matching(line_metric)
    assert got.pairs == ((1, 2), (3, 4))
    assert got.cost == pytest.approx(3.6, rel=1e-12)


def test_matching_errors(line_metric):
    odd = Metric(np.zeros((3, 3)))
    with pytest.raises(OddVertexCountError):
        greedy_matching(odd)
    with pytest.raises(OddVertexCountError):
        exact_matching(odd)
    with pytest.raises(SizeCapExceededError):
        exact_matching(all_ones_metric(MATCHING_CAP + 2))
    with pytest.raises(InfiniteDistanceError):
        greedy_matching(infinite_metric())
    with pytest.raises(InfiniteDistanceError):
        exact_matching(infinite_metric())


def test_exact_matching_agrees_with_enumeration():
    for n in (4, 6, 8):
        for seed in range(6):
            _, _, m = rsp_instance(n, seed=seed * 31 + n)
            assert exact_matching(m).cost == pytest.approx(
                min_matching_brute(m.dist), abs=1e-12
            )


def test_greedy_never_beats_optimal():
    for seed in range(10):
        _, _, m = rsp_instance(10, seed=seed + 50)
        assert greedy_matching(m).cost >= exact_matching(m).cost - 1e-12


def test_matching_is_perfect():
    _, _, m = rsp_instance(12, seed=3)
    for matching in (greedy_matching(m), exact_matching(m)):
        flat = [v for pair in matching.pairs for v in pair]
        assert sorted(flat) == list(range(1, 13))
        recomputed = math.fsum(m.d(a, b) for a, b in matching.pairs)
        assert matching.cost == pytest.approx(recomputed, rel=1e-12)


# -- nearest neighbor ---------------------------------------------------------


def test_nn_two_vertices():
    m = Metric([[0.0, 0.3], [0.3, 0.0]])
    assert nearest_neighbor_tour(m, 1).cost == pytest.approx(0.6)


@pytest.mark.parametrize("start", [1.5, 1.0, None])
def test_nn_start_must_be_an_integer(line_metric, start):
    with pytest.raises(TypeError):
        nearest_neighbor_tour(line_metric, start)


@pytest.mark.parametrize("start", [0, 5, -1])
def test_nn_start_must_lie_in_1_to_n(line_metric, start):
    with pytest.raises(ValueError, match=r"1\.\.4"):
        nearest_neighbor_tour(line_metric, start)


def test_nn_start_refuses_a_bool(line_metric):
    for start in (True, np.True_):  # True used to be vertex 1: the tour started there
        with pytest.raises(TypeError, match="vertex must be an integer"):
            nearest_neighbor_tour(line_metric, start)
        with pytest.raises(TypeError, match="vertex must be an integer"):
            trivial_kmedian(line_metric, (start,))
    assert [type(v) for v in nearest_neighbor_tour(line_metric, np.int64(1)).order] == [int] * 4


def test_nn_line_example(line_metric):
    got = nearest_neighbor_tour(line_metric, start=1)
    assert got.order == (1, 2, 3, 4)
    assert got.cost == pytest.approx(9.0, rel=1e-12)


def test_nn_never_beats_optimal():
    for seed in range(8):
        _, _, m = rsp_instance(8, seed=seed + 11)
        assert nearest_neighbor_tour(m, 1).cost >= exact_tsp(m).cost - 1e-12


# -- insertion ----------------------------------------------------------------


def test_insertion_three_vertices_is_optimal():
    _, _, m = rsp_instance(3, seed=21)
    for rule in RULES:
        got = insertion_tour(m, rule, Seed(0))
        assert got.cost == pytest.approx(exact_tsp(m).cost, rel=1e-12)


def test_insertion_line_example(line_metric):
    assert insertion_tour(line_metric, "nearest").cost == pytest.approx(9.0, rel=1e-12)


@pytest.mark.parametrize("rule", RULES)
def test_insertion_never_beats_optimal(rule):
    for seed in range(6):
        _, _, m = rsp_instance(9, seed=seed + 70)
        got = insertion_tour(m, rule, Seed(seed))
        assert sorted(got.order) == list(range(1, 10))
        assert got.cost >= exact_tsp(m).cost - 1e-12


def test_random_rule_is_seeded():
    _, _, m = rsp_instance(10, seed=5)
    a = insertion_tour(m, "random", Seed(7))
    b = insertion_tour(m, "random", Seed(7))
    c = insertion_tour(m, "random", Seed(8))
    assert a == b
    assert a != c  # different seed, different vertex order almost surely


def test_insertion_errors():
    tiny = Metric([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(TooFewVerticesError):
        insertion_tour(tiny, "nearest")
    with pytest.raises(ValueError):
        insertion_tour(rsp_instance(5, 1)[2], "bogus")
    with pytest.raises(ValueError):
        insertion_tour(rsp_instance(5, 1)[2], "random", None)


# -- two-opt ------------------------------------------------------------------


def test_two_opt_fixes_crossed_line_tour(line_metric):
    trace = two_opt(line_metric, (1, 3, 2, 4))
    assert trace.costs[0] == pytest.approx(10.8, rel=1e-12)
    assert trace.final.cost == pytest.approx(9.0, rel=1e-12)
    assert trace.iterations == 1


def test_two_opt_leaves_optimum_alone():
    _, _, m = rsp_instance(8, seed=13)
    best = exact_tsp(m)
    trace = two_opt(m, best)
    assert trace.iterations == 0
    assert trace.final.order == best.order


def test_two_opt_invariants_on_random_instances():
    for seed in range(12):
        _, _, m = rsp_instance(11, seed=seed + 500)
        trace = two_opt(m)
        assert all(b < a for a, b in zip(trace.costs, trace.costs[1:]))
        assert not has_improving_exchange(m, trace.final)
        assert trace.final.cost <= trace.costs[0] + 1e-12
        assert trace.final.cost >= exact_tsp(m).cost - 1e-12
        assert sorted(trace.final.order) == list(range(1, 12))


def test_two_opt_validates_input(line_metric):
    with pytest.raises(ValueError):
        two_opt(line_metric, (1, 2, 3))
    with pytest.raises(InfiniteDistanceError):
        two_opt(infinite_metric())


@pytest.mark.parametrize(
    "order", [(0, 1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6), (1, 1, 2, 3, 4)]
)
def test_tour_cost_rejects_non_tours(order):
    # a 0 used to wrap around to vertex n: (0, 1, 2, 3, 4) cost as (5, 1, 2, 3, 4)
    _, _, m = rsp_instance(5, seed=3)
    with pytest.raises(ValueError, match="permutation"):
        tour_cost(m, order)


@pytest.mark.parametrize("order", [(1.0, 2, 3, 4, 5), (1, 2, 3, 4, 4.5), (1, 2, None, 4, 5)])
def test_tour_cost_rejects_non_integer_vertices(order):
    _, _, m = rsp_instance(5, seed=3)
    with pytest.raises(TypeError):
        tour_cost(m, order)


@pytest.mark.parametrize("order", [(True, 2, 3, 4), (np.bool_(True), 2, 3, 4), (1.0, 2, 3, 4)])
@pytest.mark.parametrize("call", [
    tour_cost,
    two_opt,
    lambda m, order: has_improving_exchange(m, Tour(order, 0.0)),
], ids=["tour_cost", "two_opt", "has_improving_exchange"])
def test_tour_vertices_follow_the_count_rule(call, order):
    # True was read as vertex 1, and 1.0 raised a message naming no vertex
    m = rsp_instance(4, seed=3)[2]
    with pytest.raises(TypeError, match="vertex must be an integer"):
        call(m, order)
    assert tour_cost(m, tuple(np.arange(1, 5))) == tour_cost(m, (1, 2, 3, 4))


def test_trivial_kmedian_rejects_non_integer_centres(line_metric):
    with pytest.raises(TypeError):
        trivial_kmedian(line_metric, (1.5,))
    assert trivial_kmedian(line_metric, (np.int64(1),)) == trivial_kmedian(line_metric, (1,))


def test_has_improving_exchange_rejects_non_tours():
    _, _, m = rsp_instance(5, seed=3)
    with pytest.raises(ValueError, match="permutation"):
        has_improving_exchange(m, Tour((1, 1, 1, 1, 1), 0.0))


# -- exact TSP ----------------------------------------------------------------


def test_tsp_three_vertices_is_perimeter():
    _, _, m = rsp_instance(3, seed=2)
    want = m.d(1, 2) + m.d(2, 3) + m.d(1, 3)
    assert exact_tsp(m).cost == pytest.approx(want, rel=1e-12)


def test_tsp_line_example(line_metric):
    got = exact_tsp(line_metric)
    assert got.cost == pytest.approx(9.0, rel=1e-12)
    assert tour_cost(line_metric, got.order) == pytest.approx(got.cost, rel=1e-12)


def test_tsp_agrees_with_permutation_enumeration():
    for n in (3, 5, 6, 8):
        for seed in range(5):
            _, _, m = rsp_instance(n, seed=seed * 13 + n)
            assert exact_tsp(m).cost == pytest.approx(min_tsp_brute(m.dist), abs=1e-12)


def test_tsp_errors(line_metric):
    with pytest.raises(TooFewVerticesError):
        exact_tsp(Metric([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SizeCapExceededError):
        exact_tsp(all_ones_metric(TSP_CAP + 1))
    with pytest.raises(InfiniteDistanceError):
        exact_tsp(infinite_metric())


# -- k-median -----------------------------------------------------------------


def test_all_vertices_as_centers_cost_zero():
    _, _, m = rsp_instance(6, seed=44)
    assert trivial_kmedian(m, tuple(range(1, 7))).cost == 0.0
    assert exact_kmedian(m, 6).cost == 0.0


def test_kmedian_line_examples(line_metric):
    assert trivial_kmedian(line_metric, (1,)).cost == pytest.approx(7.6, rel=1e-12)
    best = exact_kmedian(line_metric, 1)
    assert best.cost == pytest.approx(5.4, rel=1e-12)
    assert best.centers in ((2,), (3,))  # both attain 5.4; ties go to the first


def test_kmedian_with_n_minus_one_centers():
    _, _, m = rsp_instance(7, seed=9)
    got = exact_kmedian(m, 6)
    nearest = [min(m.d(v, u) for u in range(1, 8) if u != v) for v in range(1, 8)]
    assert got.cost == pytest.approx(min(nearest), rel=1e-12)


def test_trivial_never_beats_optimal():
    for seed in range(8):
        _, _, m = rsp_instance(9, seed=seed + 29)
        for k in (1, 2, 4):
            tr = trivial_kmedian(m, first_k_centers(k)).cost
            me = exact_kmedian(m, k).cost
            assert tr >= me - 1e-12


def test_kmedian_errors(line_metric):
    with pytest.raises(EmptyCenterSetError):
        trivial_kmedian(line_metric, ())
    with pytest.raises(ValueError):
        trivial_kmedian(line_metric, (0,))
    with pytest.raises(ValueError):
        exact_kmedian(line_metric, 0)
    with pytest.raises(SizeCapExceededError):
        exact_kmedian(all_ones_metric(30), 15)  # C(30, 15) > KMEDIAN_CAP
    with pytest.raises(InfiniteDistanceError):
        trivial_kmedian(infinite_metric(), (1,))


def test_first_k_centers():
    assert first_k_centers(3) == (1, 2, 3)
    assert first_k_centers(VERTEX_CAP) == tuple(range(1, VERTEX_CAP + 1))
    # k is checked before any tuple is built: 0 and -1 were the empty set
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            first_k_centers(k)
    with pytest.raises(SizeCapExceededError):
        first_k_centers(VERTEX_CAP + 1)


@pytest.mark.parametrize("k", [True, 2.0, 2.5])
def test_exact_kmedian_takes_k_as_a_count(k):
    # True was a 1-median; 2.0 and 2.5 failed inside itertools or math.comb
    with pytest.raises(TypeError, match="k must be an integer"):
        exact_kmedian(rsp_instance(6, seed=6)[2], k)


@pytest.mark.parametrize("k", [True, 2.0, 2.5])
def test_first_k_centers_takes_k_as_a_count(k):
    # True was the centre set (1,)
    with pytest.raises(TypeError, match="k must be an integer"):
        first_k_centers(k)
    assert first_k_centers(np.int64(2)) == (1, 2)
