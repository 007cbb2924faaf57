import math

import numpy as np
import pytest

from rspmetric import Graph, draw_weights
from rspmetric.lab import _band_breach, _dkw_slack
from rspmetric.rng import (
    _GAMMA,
    _MASK64,
    Seed,
    UniformStream,
    _mix64,
    exponential_rows,
    u01_rows,
)

from oracles import exp_sum_cdf, stream_uniforms


def test_child_is_deterministic():
    a = Seed(42).child(3, "weights")
    b = Seed(42).child(3, "weights")
    assert a == b


@pytest.mark.parametrize(
    "other",
    [Seed(42).child(4, "weights"), Seed(42).child(3, "graph"), Seed(43).child(3, "weights")],
)
def test_child_depends_on_every_input(other):
    assert Seed(42).child(3, "weights") != other


def test_master_must_be_64_bit():
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(1 << 64)
    Seed((1 << 64) - 1)  # boundary is fine


def test_uniforms_live_in_open_unit_interval():
    u = UniformStream(Seed(7)).u01_block(10_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_block_matches_scalar_sequence():
    scalar = UniformStream(Seed(123))
    block = UniformStream(Seed(123))
    first = [scalar.u01() for _ in range(50)]
    assert np.array_equal(np.array(first), block.u01_block(50))
    # interleaving block and scalar reads stays on the same counter sequence
    assert scalar.u01() == UniformStream(Seed(123)).u01_block(51)[-1]


def test_kernel_rows_are_streams_read_in_any_blocks():
    seeds = [Seed(s) for s in range(5)] + [Seed(_MASK64)]
    rows = u01_rows(seeds, 30)
    assert rows.shape == (6, 30)
    for seed, row in zip(seeds, rows):
        stream = UniformStream(seed)
        parts = [stream.u01_block(7), [stream.u01()], stream.u01_block(0), stream.u01_block(22)]
        assert np.concatenate(parts).tolist() == row.tolist() == stream_uniforms(seed.master, 0, 30)
        # a stream continued after its blocks reads on from counter 31
        assert stream.u01_block(3).tolist() == stream_uniforms(seed.master, 30, 3)
    assert exponential_rows(seeds, 30).tolist() == [
        UniformStream(s).exponential_block(30).tolist() for s in seeds]
    assert u01_rows([], 4).shape == (0, 4)
    assert u01_rows(seeds, 0).shape == (6, 0)


@pytest.mark.parametrize("bad", [None, 7, "7", 7.0])
def test_kernel_refuses_a_non_seed(bad):
    for draw in (u01_rows, exponential_rows):
        with pytest.raises(TypeError, match="seed must be a Seed"):
            draw([Seed(1), bad], 3)


def test_kernel_count_is_a_nonnegative_integer():
    for draw in (u01_rows, exponential_rows):
        with pytest.raises(TypeError, match="count must be an integer"):
            draw([Seed(1)], 2.5)
        with pytest.raises(ValueError, match="nonnegative"):
            draw([Seed(1)], -1)


def test_exponentials_are_strictly_positive():
    x = UniformStream(Seed(9)).exponential_block(10_000)
    assert (x > 0).all()
    assert np.isfinite(x).all()


def exp_sum_ks(stream, terms, count):
    """Kolmogorov-Smirnov distance of ``count`` sums of exponentials at rates
    1, 2, ..., ``terms`` from their exact CDF, and its DKW-Massart slack at
    level 0.01 (Massart 1990)."""
    draws = stream.exponential_block(count * terms).reshape(count, terms)
    xs = np.sort((draws / np.arange(1, terms + 1)).sum(axis=1))
    cdf = np.array([exp_sum_cdf(1.0, terms, x) for x in xs.tolist()])
    return _band_breach(xs, cdf, cdf), _dkw_slack(count)


def test_exp_sum_ks_passes_on_many_samples():
    distance, slack = exp_sum_ks(UniformStream(Seed(53)), 3, 50_000)
    assert distance < min(0.02, slack)


def test_exp_sum_ks_false_failures_stay_rare_across_seeds():
    # correct draws at DKW level 0.01: about 2 failures expected in 200 seeds
    failed = 0
    for seed in range(200):
        distance, slack = exp_sum_ks(UniformStream(Seed(seed)), 1 + seed % 4, 500)
        failed += distance > slack
    assert failed <= 6


def test_exp_sum_ks_fails_on_samples_at_the_wrong_rate():
    class SlowStream(UniformStream):  # every draw 1.2 times too long
        def exponential_block(self, count):
            return 1.2 * super().exponential_block(count)

    for terms in (1, 3):
        distance, slack = exp_sum_ks(UniformStream(Seed(59)), terms, 2000)
        assert distance <= slack
        distance, slack = exp_sum_ks(SlowStream(Seed(59)), terms, 2000)
        assert distance > slack


def test_uniform_mean_is_half():
    u = UniformStream(Seed(2024)).u01_block(100_000)
    # 99% CI for the mean of U(0,1): sd = 1/sqrt(12)
    half_width = 2.5758293035489004 / math.sqrt(12 * 100_000)
    assert abs(u.mean() - 0.5) < half_width


def test_integer_below_is_in_range():
    stream = UniformStream(Seed(5))
    draws = [stream.integer_below(7) for _ in range(1000)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7  # all residues show up over 1000 draws
    with pytest.raises(ValueError):
        stream.integer_below(0)
    # one 53-bit uniform reaches every integer below 2^53, and no further
    assert 0 <= stream.integer_below(2**53) < 2**53
    for bound in (2**53 + 1, 2**70):
        with pytest.raises(ValueError, match="2\\^53"):
            stream.integer_below(bound)


def _unshift_xor(z, shift):
    """Inverse of z ^ (z >> shift) on 64 bits."""
    x = z
    for _ in range(64 // shift):
        x = z ^ (x >> shift)
    return x


def _unmix64(z):
    """Inverse of the splitmix64 finalizer (a bijection on 64-bit integers)."""
    z = _unshift_xor(z, 31)
    z = _unshift_xor(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64, 27)
    return _unshift_xor(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64, 30)


def test_an_all_ones_raw_value_stays_below_one():
    # the seed whose first raw value has all 64 bits set: (2^53 - 1 + 0.5) * 2^-53
    # rounds to exactly 1.0, which would make the exponential draw infinite
    seed = Seed((_unmix64(_MASK64) - _GAMMA) & _MASK64)
    assert _mix64((seed.master + _GAMMA) & _MASK64) == _MASK64
    assert UniformStream(seed).u01() == UniformStream(seed).u01_block(1)[0] == 1 - 2.0**-53
    assert np.isfinite(UniformStream(seed).exponential_block(1)).all()
    wg = draw_weights(Graph(2, [(1, 2)]), seed)
    assert wg.weights[0] == -math.log1p(-(1 - 2.0**-53))


# -- integer inputs follow the package's rule: operator.index, no bool ----------


def test_a_fractional_block_count_is_refused_and_leaves_the_counter():
    stream = UniformStream(Seed(1))
    with pytest.raises(TypeError, match="count must be an integer"):
        stream.u01_block(2.5)  # used to draw three values and leave the counter at 2.5
    assert stream.u01() == UniformStream(Seed(1)).u01()


def test_a_fractional_exponential_count_is_refused():
    with pytest.raises(TypeError, match="count must be an integer"):
        UniformStream(Seed(1)).exponential_block(1.5)  # used to draw two values


def test_a_fractional_bound_is_refused():
    for seed in range(50):  # used to draw 0, 1 and the float 1.5
        with pytest.raises(TypeError, match="bound must be an integer"):
            UniformStream(Seed(seed)).integer_below(2.5)
    draw = UniformStream(Seed(1)).integer_below(7)
    assert UniformStream(Seed(1)).integer_below(np.int64(7)) == draw


def test_a_numpy_child_index_is_the_same_child():
    # (index + 1) * _GAMMA used to overflow int64
    assert Seed(1).child(np.int64(3)) == Seed(1).child(3)
    assert Seed(1).child(np.uint8(3), "w") == Seed(1).child(3, "w")
    for index in (True, 3.0, 1.5, "3"):
        with pytest.raises(TypeError, match="child index must be an integer"):
            Seed(1).child(index)


def test_a_bool_master_is_refused():
    for master in (True, np.bool_(False), 1.0, 1.5, None):
        with pytest.raises(TypeError, match="master seed must be an integer"):
            Seed(master)
    seed = Seed(np.uint64(_MASK64))
    assert type(seed.master) is int and seed == Seed(_MASK64)
