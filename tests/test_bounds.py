import inspect
import math
import warnings

import numpy as np
import pytest

from rspmetric import (
    NTooSmallError,
    ParameterOutOfRangeError,
    ball_tail,
    cluster_scale,
    diameter_tail,
    evaluate,
    exp_sum_cdf,
    harmonic,
    pair_distance_bounds,
    sm_tail,
    tau_cdf_bounds,
    tau_expectation_bounds,
)
from rspmetric.bounds import FORMULAS, HARMONIC_DIRECT_BELOW

from oracles import tau_cdf_bounds_math


# -- harmonic -----------------------------------------------------------------


@pytest.mark.parametrize("n,value", [(0, 0.0), (1, 1.0), (4, 25 / 12)])
def test_harmonic_small_values(n, value):
    assert harmonic(n) == pytest.approx(value, abs=1e-15)


def test_harmonic_asymptotic_form_matches_direct_sum_at_threshold():
    for n in (HARMONIC_DIRECT_BELOW, HARMONIC_DIRECT_BELOW + 1):
        direct = math.fsum(1.0 / i for i in range(1, n + 1))
        assert abs(harmonic(n) - direct) <= 2 * math.ulp(direct)
    below = HARMONIC_DIRECT_BELOW - 1
    assert harmonic(below) == math.fsum(1.0 / i for i in range(1, below + 1))


def test_harmonic_huge_n_is_finite():
    assert harmonic(10**12) == pytest.approx(math.log(1e12) + 0.5772156649015329, rel=1e-15)
    assert math.isfinite(harmonic(10**400))


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic(-1)


# -- exponential sum CDF -------------------------------------------------------


def test_exp_sum_cdf_examples():
    assert exp_sum_cdf(1.0, 1, math.log(2)) == pytest.approx(0.5, abs=1e-15)
    assert exp_sum_cdf(3.0, 7, 0.0) == 0.0
    assert exp_sum_cdf(2.0, 3, 1.0) == pytest.approx(0.6464623147796981, abs=1e-15)


def test_exp_sum_cdf_monte_carlo_cross_check():
    """The closed form agrees with direct simulation of the sum."""
    rng = np.random.default_rng(42)
    x = sum(rng.exponential(1.0 / (2.0 * i), size=100_000) for i in (1, 2, 3))
    assert abs((x <= 1.0).mean() - exp_sum_cdf(2.0, 3, 1.0)) < 0.01


def test_exp_sum_cdf_is_a_distribution():
    grid = np.linspace(0.0, 50.0, 60)
    vals = [exp_sum_cdf(0.7, 4, a) for a in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_exp_sum_cdf_validates():
    nan = math.nan
    for bad in [(0.0, 1, 1.0), (1.0, 0, 1.0), (1.0, 1, -0.5), (nan, 1, 1.0), (1.0, 1, nan)]:
        with pytest.raises(ValueError):
            exp_sum_cdf(*bad)


# -- expectation bracket --------------------------------------------------------


def test_tau_expectation_examples():
    assert tau_expectation_bounds(9, 1, 0.4, 0.9) == (0.0, 0.0)
    assert tau_expectation_bounds(2, 2, 1.0, 1.0) == (1.0, 1.0)
    lo, hi = tau_expectation_bounds(5, 5, 0.5, 1.0)
    assert lo == pytest.approx(2 * (25 / 12) / 5, abs=1e-15)
    assert hi == pytest.approx(2 * 2 * (25 / 12) / 5, abs=1e-15)


def test_tau_expectation_validates():
    with pytest.raises(ValueError):
        tau_expectation_bounds(5, 6, 0.5, 1.0)
    with pytest.raises(ValueError):
        tau_expectation_bounds(5, 3, 0.9, 0.5)


# -- CDF bracket ----------------------------------------------------------------


def test_tau_cdf_bounds_examples():
    assert tau_cdf_bounds(3.7, 10, 1, 0.5, 1.0) == (1.0, 1.0)
    assert tau_cdf_bounds(0.0, 10, 4, 0.5, 1.0) == (0.0, 0.0)
    lo, hi = tau_cdf_bounds(0.5, 10, 5, 0.5, 1.0)
    assert lo == pytest.approx(0.25915776787768136, abs=1e-15)
    assert hi == pytest.approx(0.9733193900341046, abs=1e-15)
    for x in (-0.5, math.nan):
        with pytest.raises(ValueError):
            tau_cdf_bounds(x, 10, 5, 0.5, 1.0)


def test_tau_cdf_lower_never_exceeds_upper():
    for n in (5, 12, 40):
        for k in (1, 2, n // 2, n):
            for x in (0.0, 0.05, 0.3, 1.0, 5.0):
                for alpha, beta in ((0.3, 0.9), (0.5, 0.5), (1.0, 1.0)):
                    lo, hi = tau_cdf_bounds(x, n, k, alpha, beta)
                    assert 0.0 <= lo <= hi <= 1.0


# x = 0, the least subnormal and a huge x whose rates overflow to inf, at (n, k,
# alpha, beta, expected bracket at each x); the values are those of math arithmetic
EXTREME_X = (0.0, 5e-324, 1e308)
EXTREME_CASES = [
    ((10, 5, 0.5, 1.0), [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)]),
    ((10, 1, 0.5, 1.0), [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]),
    ((10, 10, 0.5, 1.0), [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)]),
    ((2, 2, 1.0, 1.0), [(0.0, 0.0), (0.0, 1e-323), (1.0, 1.0)]),
]


@pytest.mark.parametrize("params, expected", EXTREME_CASES)
def test_tau_cdf_bounds_at_extreme_x_warn_of_nothing(params, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, pair in zip(EXTREME_X, expected):
            assert tau_cdf_bounds(x, *params) == pair
            assert tau_cdf_bounds_math(x, *params) == pair
        lo, hi = tau_cdf_bounds(np.array(EXTREME_X), *params)
    assert list(zip(lo.tolist(), hi.tolist())) == expected


def test_tau_cdf_bounds_of_an_array_are_its_scalar_calls():
    rng = np.random.default_rng(7)
    for n in (2, 5, 12, 40, 200):
        x = np.concatenate([EXTREME_X, rng.exponential(2 * math.log(n) / n, 300)])
        for k in sorted({1, 2, n // 2, n}):
            for alpha, beta in ((0.3, 0.9), (0.5, 0.5), (1.0, 1.0)):
                lo, hi = tau_cdf_bounds(x, n, k, alpha, beta)
                assert lo.shape == hi.shape == x.shape
                for i, xi in enumerate(x.tolist()):
                    pair = tau_cdf_bounds(xi, n, k, alpha, beta)
                    assert type(pair[0]) is type(pair[1]) is float
                    assert pair == (lo[i], hi[i])
                    # numpy's expm1 and power may round apart from math's in the last digits
                    assert pair == pytest.approx(tau_cdf_bounds_math(xi, n, k, alpha, beta),
                                                 rel=1e-12, abs=1e-300)


def test_tau_cdf_bounds_check_every_entry():
    for bad in (-0.5, math.nan):
        with pytest.raises(ValueError, match="x must be nonnegative"):
            tau_cdf_bounds(np.array([0.0, 1.0, bad]), 10, 5, 0.5, 1.0)
    for n, k, alpha, beta in ((10, 0, 0.5, 1.0), (10, 11, 0.5, 1.0), (10, 5, 0.9, 0.5),
                              (10, 5, 0.0, 1.0), (10, 5, 0.5, math.nan)):
        with pytest.raises(ValueError, match="need"):
            tau_cdf_bounds(np.ones(3), n, k, alpha, beta)
    lo, hi = tau_cdf_bounds(np.array([]), 10, 5, 0.5, 1.0)
    assert lo.shape == hi.shape == (0,)


# -- pair distance bracket --------------------------------------------------------


def test_pair_distance_bounds_examples():
    assert pair_distance_bounds(2, 1.0, 1.0) == (1.0, 1.0)
    for n, alpha, beta in ((5, 0.5, 1.0), (12, 1.0, 1.0), (16, 0.2667, 0.75), (2048, 0.9, 1.0)):
        h = harmonic(n - 1)
        assert pair_distance_bounds(n, alpha, beta) == (h / (beta * (n - 1)), h / (alpha * (n - 1)))
    lo, hi = pair_distance_bounds(5, 0.5, 1.0)
    assert lo == pytest.approx(25 / 48, abs=1e-15) and hi == pytest.approx(25 / 24, abs=1e-15)


def test_pair_distance_bounds_validate():
    for n, alpha, beta in ((1, 1.0, 1.0), (5, 0.9, 0.5), (5, 0.0, 1.0), (5, 0.5, 1.5),
                           (5, math.nan, 1.0)):
        with pytest.raises(ValueError, match="need"):
            pair_distance_bounds(n, alpha, beta)


# -- tail bounds ----------------------------------------------------------------


def test_diameter_tail_examples():
    assert diameter_tail(8.0, 50) == 1.0  # exponent 0, clamped
    assert diameter_tail(12.0, 10) == pytest.approx(0.1, abs=1e-15)
    assert diameter_tail(16.0, 10) == pytest.approx(0.01, abs=1e-15)
    for c in (0.0, -10000.0, math.nan):  # c = -10000 used to overflow
        with pytest.raises(ValueError):
            diameter_tail(c, 10)


def test_ball_tail_examples():
    threshold, prob = ball_tail(0.0, 10, 0.7)
    assert (threshold, prob) == (1.0, 1.0)
    threshold, prob = ball_tail(0.5, 20, 1.0)  # alpha*delta*n = 10
    assert threshold == pytest.approx(math.exp(2.0), abs=1e-12)
    assert prob == pytest.approx(math.exp(-2.0), abs=1e-15)
    threshold, _ = ball_tail(100.0, 20, 1.0)
    assert threshold == 10.5  # saturates at (n+1)/2


def test_ball_tail_needs_five_vertices():
    with pytest.raises(NTooSmallError):
        ball_tail(0.5, 4, 1.0)


@pytest.mark.parametrize("delta", [-0.5, math.nan])
def test_ball_tail_and_cluster_scale_reject_bad_radii(delta):
    with pytest.raises(ValueError):
        ball_tail(delta, 10, 1.0)
    with pytest.raises(ValueError):
        cluster_scale(delta, 10, 1.0)
    for alpha in (0.0, -2.0, -1000.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            ball_tail(1.0, 10, alpha)
        with pytest.raises(ValueError, match="alpha"):
            cluster_scale(1.0, 10, alpha)


def test_cluster_scale_examples():
    assert cluster_scale(0.0, 10, 0.5) == (1.0, 10.0)
    s, scale = cluster_scale(1000.0, 10, 0.5)
    assert (s, scale) == (5.5, 10 / 5.5)
    s, scale = cluster_scale(1.0, 20, 0.5)
    assert s == pytest.approx(math.exp(2.0), abs=1e-12)
    assert scale == pytest.approx(20 / math.exp(2.0), abs=1e-12)


def test_sm_tail():
    phi = 0.5
    assert sm_tail(phi, 2 * phi**2 * math.exp(-2.0), 20) == pytest.approx(1.0, abs=1e-12)
    assert sm_tail(0.5, 0.05, 20) == pytest.approx(0.04851651954097914, abs=1e-15)
    assert sm_tail(0.5, 1e-12, 20) < 1e-100
    with pytest.raises(ParameterOutOfRangeError):
        sm_tail(0.999, 0.01, 20)  # phi beyond (n-1)/n
    with pytest.raises(ParameterOutOfRangeError):
        sm_tail(0.5, 0.5, 20)  # c beyond 2 phi^2 / e


def test_sm_tail_clamps_in_vacuous_regime():
    phi = 0.5
    c_max = 2 * phi**2 / math.e
    assert sm_tail(phi, c_max, 20) == 1.0


# -- registry --------------------------------------------------------------------


def test_evaluate_round_trips_formula():
    out = evaluate("harmonic", n="4")
    assert out.value == pytest.approx(25 / 12)
    assert out.inputs == {"n": 4}
    out = evaluate("tau-cdf", x="0.5", n="10", k="5", alpha="0.5", beta="1")
    assert out.value[0] == pytest.approx(0.25915776787768136)


def test_evaluate_rejects_values_beyond_the_float_range():
    with pytest.raises(ValueError, match="value out of float range"):
        evaluate("tau-expectation", n="6", k="3", alpha="1e-320", beta="1")


@pytest.mark.parametrize(
    "formula, params, name",
    [
        ("ball-tail", dict(delta="inf", n="10", alpha="1"), "delta"),  # printed as Infinity
        ("ball-tail", dict(delta="1", n="10", alpha="nan"), "alpha"),
        ("cluster-scale", dict(delta="1", n="0", alpha="1"), "n"),  # gave [0.5, 0.0]
        ("cluster-scale", dict(delta="1", n="-3", alpha="1"), "n"),  # a math domain error
        ("tau-expectation", dict(n="6", k="0", alpha="1", beta="1"), "k"),
        ("harmonic", dict(n="0"), "n"),
        ("exp-sum-cdf", dict(c="-inf", n="3", a="1"), "c"),
    ],
)
def test_evaluate_checks_its_inputs(formula, params, name):
    with pytest.raises(ValueError, match=f"{formula}: {name}="):
        evaluate(formula, **params)


def test_evaluate_reads_each_formulas_signature():
    for formula_id, fn in FORMULAS.items():
        names = tuple(inspect.signature(fn).parameters)
        with pytest.raises(ValueError) as info:
            evaluate(formula_id)
        assert str(info.value) == f"{formula_id} takes {names}; missing {list(names)}, extra []"
    out = evaluate("tau-cdf", x="1e308", n="10", k="5", alpha="0.5", beta="1")
    assert out.value == (1.0, 1.0)
    assert out.inputs == {"x": 1e308, "n": 10, "k": 5, "alpha": 0.5, "beta": 1.0}
    assert [type(v) for v in out.inputs.values()] == [float, int, int, float, float]
    with pytest.raises(ValueError, match="tau-cdf: k=0 must be >= 1"):
        evaluate("tau-cdf", x="1", n="10", k="0", alpha="0.5", beta="1")
    with pytest.raises(ValueError, match="sm-tail: c=inf must be finite"):
        evaluate("sm-tail", phi="0.5", c="inf", n="10")


def test_evaluate_rejects_bad_requests():
    with pytest.raises(ValueError):
        evaluate("no-such-formula", n=1)
    with pytest.raises(ValueError):
        evaluate("harmonic")
    with pytest.raises(ValueError):
        evaluate("harmonic", n=1, extra=2)
