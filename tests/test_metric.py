import math
import pickle

import numpy as np
import pytest

from rspmetric import (
    DisconnectedGraphError,
    Graph,
    Metric,
    Seed,
    WeightedGraph,
    ball,
    build_metric,
    cluster_partition,
    complete_graph,
    density_threshold,
    diameter,
    draw_weights,
    generate_erdos_renyi,
    path_graph,
    read_metric,
    tau_profile,
    write_metric,
)
from conftest import rsp_instance
from oracles import floyd_warshall, prefix_cut_brute, triangle_violations

Z99 = 2.5758293035489004


def triangle_instance():
    g = complete_graph(3)
    return g, WeightedGraph(g, (0.2, 0.9, 0.3))  # edges (1,2), (1,3), (2,3)


def path_instance():
    g = path_graph(3)
    return g, WeightedGraph(g, (0.2, 0.3))


# -- build_metric -------------------------------------------------------------


def test_two_edge_path_beats_direct_edge():
    _, wg = triangle_instance()
    m = build_metric(wg)
    assert m.d(1, 3) == pytest.approx(0.5, abs=1e-15)
    assert m.d(1, 2) == 0.2


def test_diagonal_is_zero():
    _, _, m = rsp_instance(10, seed=4)
    assert all(m.d(v, v) == 0.0 for v in range(1, 11))


def test_disconnected_components_are_infinitely_far():
    wg = WeightedGraph(Graph(4, ((1, 2), (3, 4))), (1.0, 1.0))
    m = build_metric(wg)
    assert math.isinf(m.d(1, 3))
    assert math.isinf(m.d(2, 4))
    assert m.d(1, 2) == 1.0
    assert not m.is_finite()


def k5_metric():
    return build_metric(draw_weights(complete_graph(5), Seed(3)))


@pytest.mark.parametrize("u, v", [(0, 1), (1, 0), (6, 1), (1, 6), (-1, 2), (2, -1)])
def test_distance_rejects_vertices_outside_1_to_n(u, v):
    # 0-based or negative arguments used to wrap around to vertex n
    with pytest.raises(ValueError, match=r"1\.\.5"):
        k5_metric().d(u, v)


def test_matches_floyd_warshall_oracle():
    for seed in range(8):
        g = generate_erdos_renyi(20, 0.3, Seed(seed))
        wg = draw_weights(g, Seed(seed + 100))
        got = build_metric(wg).dist
        want = floyd_warshall(wg)
        assert np.allclose(got, want, atol=1e-12, equal_nan=False)


def test_metric_axioms_hold_on_built_metrics():
    for n, seed in [(30, 0), (50, 1)]:
        _, _, m = rsp_instance(n, seed)
        assert triangle_violations(m.dist) == 0
    # the counter sees a shortcut: d(1, 3) = 3 > d(1, 2) + d(2, 3), both ways round
    assert triangle_violations(np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])) == 2


def test_table_is_exactly_symmetric():
    _, _, m = rsp_instance(40, seed=9)
    assert np.array_equal(m.dist, m.dist.T)


@pytest.mark.parametrize(
    "bad",
    [
        [[0.0, 1.0], [2.0, 0.0]],          # asymmetric
        [[0.5, 1.0], [1.0, 0.0]],          # nonzero diagonal
        [[0.0, -1.0], [-1.0, 0.0]],        # negative
        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]],  # not square
        np.zeros((0, 0)),                  # no vertex: its diameter would be undefined
    ],
)
def test_constructor_validates(bad):
    with pytest.raises(ValueError):
        Metric(bad)


def test_metric_from_a_callers_array_does_not_alias_it():
    table = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    m = Metric(table)
    assert not np.shares_memory(m.dist, table)
    assert table.flags.writeable and not m.dist.flags.writeable
    table[0, 2] = table[2, 0] = 5.0
    assert m.d(1, 3) == 2.0
    frozen = m.dist  # a read-only table is copied too
    assert not np.shares_memory(Metric(frozen).dist, frozen)


def test_build_metric_hands_over_its_table_without_a_copy(monkeypatch):
    _, wg, m = rsp_instance(6, seed=4)

    def copying(self, dist):
        raise AssertionError("build_metric went through the copying constructor")

    monkeypatch.setattr(Metric, "__init__", copying)
    again = build_metric(wg)
    assert np.array_equal(again.dist, m.dist) and not again.dist.flags.writeable
    assert again.is_finite() and again.finite_dist is again.dist


def test_metric_survives_pickling_read_only():
    _, _, m = rsp_instance(6, seed=4)
    copy = pickle.loads(pickle.dumps(m))
    assert np.array_equal(copy.dist, m.dist) and not copy.dist.flags.writeable
    assert copy.is_finite() and copy.finite_dist is copy.dist


# -- tau profile --------------------------------------------------------------


def test_tau_starts_at_zero_everywhere():
    g, _, m = rsp_instance(9, seed=2)
    assert all(tau_profile(m, g, v).tau(1) == 0.0 for v in range(1, 10))


def test_single_edge_profile():
    g = complete_graph(2)
    m = build_metric(WeightedGraph(g, (0.7,)))
    prof = tau_profile(m, g, 1)
    assert prof.tau(2) == 0.7
    assert prof.chi(1) == 1


def test_profile_lookups_reject_k_out_of_range():
    # k = 0 used to wrap around to the last entry, k past the end to raise IndexError
    g, _, m = rsp_instance(5, seed=3)
    prof = tau_profile(m, g, 1)
    assert prof.tau(5) == prof.taus[-1] and prof.chi(4) == prof.chis[-1]
    for lookup, k in ((prof.tau, 0), (prof.tau, 6), (prof.chi, 0), (prof.chi, 5), (prof.tau, -1)):
        with pytest.raises(ValueError, match="needs k in"):
            lookup(k)


def test_path_profile_by_hand():
    g, wg = path_instance()
    prof = tau_profile(build_metric(wg), g, 1)
    assert prof.taus == pytest.approx([0.0, 0.2, 0.5], abs=1e-15)
    assert list(prof.chis) == [1, 1]
    assert list(prof.order) == [1, 2, 3]


def test_profile_cut_sizes_match_direct_recount():
    for seed in range(6):
        g, _, m = rsp_instance(9, seed=seed + 40)
        for v in (1, 5):
            prof = tau_profile(m, g, v)
            for k in range(1, 9):
                assert prof.chi(k) == prefix_cut_brute(g, prof.order[:k].tolist())


def test_ball_contains_at_least_k_vertices_at_tau_k():
    g, _, m = rsp_instance(12, seed=77)
    prof = tau_profile(m, g, 3)
    for k in range(1, 13):
        assert len(ball(m, 3, prof.tau(k))) >= k


def test_birth_process_increments_rescale_to_unit_mean():
    """Increments times the prefix cut size pool to mean 1 (99% CI)."""
    g = complete_graph(10)
    pooled = []
    for trial in range(400):
        wg = draw_weights(g, Seed(0).child(trial, "birth"))
        prof = tau_profile(build_metric(wg), g, 1)
        for k in range(2, 11):
            pooled.append((prof.tau(k) - prof.tau(k - 1)) * prof.chi(k - 1))
    mean = np.mean(pooled)
    half = Z99 / math.sqrt(len(pooled))  # rescaled increments are Exp(1)
    assert abs(mean - 1.0) < half


# -- ball / diameter ----------------------------------------------------------


@pytest.mark.parametrize("v", [0, 6, -1])
def test_ball_rejects_vertices_outside_1_to_n(v):
    with pytest.raises(ValueError, match=r"1\.\.5"):
        ball(k5_metric(), v, 0.0)


@pytest.mark.parametrize("v", [1.5, 1.0, "1", None])
def test_vertex_arguments_must_be_integers(v):
    # a float used to pass the range check and fail as an IndexError
    g, _, m = rsp_instance(5, seed=3)
    for call in (lambda: m.d(v, 1), lambda: m.d(1, v), lambda: ball(m, v, 0.5),
                 lambda: tau_profile(m, g, v)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("v", [True, False, np.True_])
def test_a_bool_vertex_is_refused(v):
    # True used to be vertex 1: m.d(True, 2) returned d(1, 2)
    g, _, m = rsp_instance(5, seed=3)
    for call in (lambda: m.d(v, 2), lambda: m.d(2, v), lambda: ball(m, v, 0.5),
                 lambda: tau_profile(m, g, v)):
        with pytest.raises(TypeError, match="vertex must be an integer"):
            call()


def test_integer_like_vertices_become_plain_ints():
    g, _, m = rsp_instance(5, seed=3)
    for v, want in ((np.int64(5), 5), (np.uint8(2), 2)):  # a bool is refused
        profile = tau_profile(m, g, v)
        assert type(profile.center) is int and profile.center == want
        assert profile.order[0] == want
        assert ball(m, v, 0.0) == {want}
        assert m.d(v, 1) == m.d(want, 1)


def test_vertex_n_keeps_its_distances_and_ball():
    m = k5_metric()
    assert m.d(5, 1) == m.d(1, 5) == float(m.dist[4, 0]) > 0
    assert m.d(5, 5) == 0.0
    assert ball(m, 5, 0.0) == {5}


def test_ball_examples():
    g, wg = path_instance()
    m = build_metric(wg)
    assert ball(m, 1, 0.0) == {1}
    assert ball(m, 1, 0.3) == {1, 2}
    assert ball(m, 1, diameter(m)) == {1, 2, 3}


def test_diameter_examples():
    g2 = complete_graph(2)
    assert diameter(build_metric(WeightedGraph(g2, (0.7,)))) == 0.7
    _, wg = path_instance()
    assert diameter(build_metric(wg)) == pytest.approx(0.5, abs=1e-15)
    disconnected = WeightedGraph(Graph(3, ((1, 2),)), (1.0,))
    assert math.isinf(diameter(build_metric(disconnected)))


def test_diameter_equals_max_tau_n():
    g, _, m = rsp_instance(15, seed=6)
    taus = [tau_profile(m, g, v).tau(15) for v in range(1, 16)]
    assert diameter(m) == max(taus)


# -- clustering ---------------------------------------------------------------


def test_delta_zero_gives_singletons():
    _, _, m = rsp_instance(8, seed=5)
    part = cluster_partition(m, 0.0, alpha=1.0)
    assert len(part.clusters) == 8
    assert part.s_delta == 1.0
    assert all(d == 0.0 for d in part.diameters)


def test_huge_delta_gives_single_cluster():
    _, _, m = rsp_instance(7, seed=8)
    part = cluster_partition(m, diameter(m), alpha=1.0)
    assert len(part.clusters) == 1
    assert part.clusters[0] == frozenset(range(1, 8))


def test_path_example_by_hand():
    _, wg = path_instance()
    m = build_metric(wg)
    part = cluster_partition(m, 0.25, alpha=0.5)
    assert part.s_delta == pytest.approx(math.exp(0.5 * 0.25 * 3 / 5), abs=1e-15)
    assert part.clusters == (frozenset({1, 2}), frozenset({3}))
    assert part.diameters == pytest.approx((0.2, 0.0), abs=1e-15)


def test_partition_invariants_on_random_instances():
    for seed in range(10):
        _, _, m = rsp_instance(14, seed=seed + 300)
        dmax = diameter(m)
        for frac in (0.0, 0.125, 0.25, 0.5, 1.0):
            delta = frac * dmax
            part = cluster_partition(m, delta, alpha=1.0)
            covered = sorted(v for c in part.clusters for v in c)
            assert covered == list(range(1, 15))  # disjoint cover
            assert all(d <= 4 * delta + 1e-12 for d in part.diameters)
            # a vertex whose ball is below the density threshold is a singleton
            for v in range(1, 15):
                if len(ball(m, v, delta)) < part.s_delta:
                    assert frozenset({v}) in part.clusters


def test_balls_sharing_256_vertices_meet():
    # vertices 1 and 2 sit at distance 2 and share 256 common neighbours at
    # distance 1, so their delta=1 balls meet in exactly 256 vertices
    n = 258
    d = np.full((n, n), 2.0)
    d[:2, 2:] = d[2:, :2] = 1.0
    np.fill_diagonal(d, 0.0)
    part = cluster_partition(Metric(d), 1.0, alpha=1.0)
    assert frozenset({1, 2}) in part.clusters
    assert len(part.clusters) == n - 1


def test_cluster_partition_rejects_disconnected():
    wg = WeightedGraph(Graph(3, ((1, 2),)), (1.0,))
    with pytest.raises(DisconnectedGraphError):
        cluster_partition(build_metric(wg), 0.5, alpha=0.5)


@pytest.mark.parametrize("delta", [-0.5, math.nan])
def test_negative_or_nan_radius_is_rejected(delta):
    _, _, m = rsp_instance(6, seed=2)
    with pytest.raises(ValueError):
        ball(m, 3, delta)
    with pytest.raises(ValueError):
        cluster_partition(m, delta, 1.0)


def test_density_threshold_clamps():
    assert density_threshold(0.0, 10, 0.5) == 1.0
    assert density_threshold(100.0, 10, 0.5) == 5.5


# -- file format --------------------------------------------------------------


def test_metric_file_round_trip(tmp_path):
    wg = WeightedGraph(Graph(3, ((1, 2),)), (0.25,))  # includes inf entries
    m = build_metric(wg)
    path = str(tmp_path / "m.txt")
    write_metric(path, m)
    back = read_metric(path)
    assert np.array_equal(back.dist, m.dist)
    with open(path) as fh:
        assert fh.readline().strip() == "3"
