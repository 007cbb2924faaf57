"""Closed-form evaluators for the structural and tail bounds.

These are comparison curves for the Monte Carlo suites: exact harmonic-sum
brackets for the growth process, CDF brackets, and the tail bounds for the
diameter, ball sizes and light edge sums.  Probability-valued results are
clamped to [0, 1]; a clamp means the bound is vacuous at those parameters
and is logged.
"""

from __future__ import annotations

import inspect
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NTooSmallError, ParameterOutOfRangeError

log = logging.getLogger(__name__)

EULER_GAMMA = 0.5772156649015329


def density_threshold(delta: float, n: int, alpha: float) -> float:
    """min{exp(alpha*delta*n/5), (n+1)/2}: balls at least this large are dense.

    The one check of the radius and the cut parameter for the ball and
    clustering bounds: delta >= 0 and alpha in (0, 1], NaN failing both.
    """
    if not delta >= 0:
        raise ValueError("delta must be nonnegative")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    rate = alpha * delta * n / 5.0
    cap = (n + 1) / 2.0
    return cap if rate >= math.log(cap) else math.exp(rate)  # no overflow at large rates


def _clamp01(value: float, formula_id: str) -> float:
    # every clamped formula is a power or an exponential, so value >= 0
    if value > 1.0:
        log.info("%s evaluated to %.6g; clamped to 1 (vacuous regime)", formula_id, value)
        return 1.0
    return value


HARMONIC_DIRECT_BELOW = 10**5


def harmonic(n: int) -> float:
    """H_n = sum_{i=1}^n 1/i (H_0 = 0).

    Summed directly below ``HARMONIC_DIRECT_BELOW``; above it the asymptotic
    series ln n + gamma + 1/(2n) - 1/(12n^2) + 1/(120n^4), whose truncation
    error (< 1/(252 n^6)) is far below one ulp there.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < HARMONIC_DIRECT_BELOW:
        return math.fsum(1.0 / i for i in range(1, n + 1))
    inv = 1 / n  # int / int: huge n underflows to 0.0 rather than overflowing a float
    inv2 = inv * inv
    return math.log(n) + EULER_GAMMA + inv / 2 - inv2 / 12 + inv2 * inv2 / 120


def exp_sum_cdf(c: float, n: int, a: float) -> float:
    """P(X <= a) = (1 - e^{-ca})^n for X a sum of exponentials with rates c, 2c, ..., nc."""
    if not c > 0:
        raise ValueError("c must be positive")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not a >= 0:
        raise ValueError("a must be nonnegative")
    return (-math.expm1(-c * a)) ** n


def _check_growth(n: int, k: int, alpha: float, beta: float) -> None:
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not 0 < alpha <= beta <= 1:
        raise ValueError("need 0 < alpha <= beta <= 1")


def tau_expectation_bounds(n: int, k: int, alpha: float, beta: float) -> tuple[float, float]:
    """Bracket on the expected distance to the k-th closest vertex.

    (H_{k-1} + H_{n-1} - H_{n-k}) / (beta n) below, the same over alpha above.
    """
    _check_growth(n, k, alpha, beta)
    num = harmonic(k - 1) + harmonic(n - 1) - harmonic(n - k)
    return (num / (beta * n), num / (alpha * n))


def pair_distance_bounds(n: int, alpha: float, beta: float) -> tuple[float, float]:
    """Bracket on the mean distance of two vertices: H_{n-1} / (beta (n-1)), or over alpha."""
    _check_growth(n, 2, alpha, beta)  # a pair needs n >= 2
    h = harmonic(n - 1)
    return (h / (beta * (n - 1)), h / (alpha * (n - 1)))


def tau_cdf_bounds(x: float | np.ndarray, n: int, k: int, alpha: float, beta: float) -> tuple:
    """Pointwise bracket on P(tau_k(v) <= x), at a float x or at each entry of an array x.

    Lower bound is the better of (1 - e^{-alpha(n-k)x})^{k-1} and
    (1 - e^{-alpha n x / 4})^n; upper bound is (1 - e^{-beta n x})^{k-1}.
    A float runs the same array code, so entry i of an array call is the call at x[i].
    """
    xs = np.array(x, dtype=np.float64, ndmin=1)
    if not (xs >= 0).all():
        raise ValueError("x must be nonnegative")
    _check_growth(n, k, alpha, beta)
    # silent as Python floats: a huge x overflows to inf (e^-inf = 0), 0 * inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        lower = np.maximum((-np.expm1(-alpha * (n - k) * xs)) ** (k - 1),
                           (-np.expm1(-alpha * n * xs / 4.0)) ** n)
        upper = (-np.expm1(-beta * n * xs)) ** (k - 1)
    return (lower, upper) if np.ndim(x) else (float(lower[0]), float(upper[0]))


def diameter_tail(c: float, n: int) -> float:
    """Bound on P(diameter > c ln(n) / (alpha n)): min{1, n^{2 - c/4}}."""
    if not c > 0:
        raise ValueError("c must be positive")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _clamp01(float(n) ** (2.0 - c / 4.0), "diameter-tail")


def ball_tail(delta: float, n: int, alpha: float) -> tuple[float, float]:
    """(size threshold, tail bound) for the ball of radius delta.

    P(|B_delta(v)| < min{e^{alpha delta n/5}, (n+1)/2}) <= e^{-alpha delta n/5};
    stated only for n >= 5.
    """
    if n < 5:
        raise NTooSmallError("ball tail bound needs n >= 5")
    return (density_threshold(delta, n, alpha), math.exp(-alpha * delta * n / 5.0))


def cluster_scale(delta: float, n: int, alpha: float) -> tuple[float, float]:
    """(s_delta, n / s_delta): density threshold and cluster-count scale."""
    s = density_threshold(delta, n, alpha)
    return (s, n / s)


def sm_tail(phi: float, c: float, n: int) -> float:
    """Bound on P(S_{phi n} <= c / beta) for the sum of the lightest edges.

    min{1, exp(phi n (2 + ln(c / (2 phi^2))))}, valid for 0 < phi <= (n-1)/n
    and 0 < c <= 2 phi^2 / e.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0 < phi <= (n - 1) / n:
        raise ParameterOutOfRangeError(f"phi must lie in (0, {(n - 1) / n:.6g}]")
    if not 0 < c <= 2.0 * phi * phi / math.e:
        raise ParameterOutOfRangeError(f"c must lie in (0, {2.0 * phi * phi / math.e:.6g}]")
    return _clamp01(math.exp(phi * n * (2.0 + math.log(c / (2.0 * phi * phi)))), "sm-tail")


@dataclass(frozen=True)
class BoundValue:
    """A formula evaluation with its identifier and echoed inputs."""

    formula_id: str
    value: float | tuple[float, ...]
    inputs: dict


# formula id -> function; ``evaluate`` takes the parameter names, in order, from
# the signature, and an ``int`` annotation marks a count
FORMULAS = {
    "harmonic": harmonic,
    "exp-sum-cdf": exp_sum_cdf,
    "tau-expectation": tau_expectation_bounds,
    "tau-cdf": tau_cdf_bounds,
    "diameter-tail": diameter_tail,
    "ball-tail": ball_tail,
    "cluster-scale": cluster_scale,
    "sm-tail": sm_tail,
}


def evaluate(formula_id: str, **params) -> BoundValue:
    """Evaluate a formula by identifier; used by the CLI."""
    if formula_id not in FORMULAS:
        raise ValueError(f"unknown formula {formula_id!r}; know {sorted(FORMULAS)}")
    signature = inspect.signature(FORMULAS[formula_id], eval_str=True).parameters
    missing = [p for p in signature if p not in params]
    extra = [p for p in params if p not in signature]
    if missing or extra:
        raise ValueError(f"{formula_id} takes {tuple(signature)}; missing {missing}, extra {extra}")
    args = {p: (int if q.annotation is int else float)(params[p]) for p, q in signature.items()}
    for p, x in args.items():
        if isinstance(x, int) and x < 1:
            raise ValueError(f"{formula_id}: {p}={x} must be >= 1")
        if isinstance(x, float) and not math.isfinite(x):  # inputs are echoed as strict JSON
            raise ValueError(f"{formula_id}: {p}={x} must be finite")
    try:
        value = FORMULAS[formula_id](**args)
    except OverflowError as exc:  # an integer parameter beyond the float range
        raise ValueError(f"{formula_id}: a parameter is out of float range ({exc})") from exc
    if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
        raise ValueError(f"{formula_id}: value out of float range")  # JSON has no inf or NaN
    return BoundValue(formula_id=formula_id, value=value, inputs=args)
