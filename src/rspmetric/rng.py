"""Deterministic, splittable random number generation.

All randomness in the library flows through this module so that every result
is reproducible bit for bit across runs, platforms, and degrees of
parallelism.  The core is the splitmix64 finalizer used as a counter-based
generator: the i-th raw value of a stream is a pure function of (key, i), so
streams can be split into independent children and addressed at any counter
without shared state.

Uniform variates are ``(r + 0.5) * 2**-53`` for the top 53 bits r of a raw
value.  Below 1/2 that is the exact midpoint of r's grid cell; above 1/2,
``r + 0.5`` needs 54 bits and rounds to even, and for r = 2**53 - 1 it
would round up to exactly 1, so the variates are clamped at ``1 - 2**-53``.
They thus lie in the open interval (0, 1).  Exponential variates use the
inverse transform ``-log(1 - u)``; because u is never exactly 0 or 1 the
draws are strictly positive and finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_count

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 counter increment
_U53 = 2.0**-53
_U_MAX = 1.0 - _U53  # largest double below 1


def _mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer, in place (uint64 arithmetic wraps mod 2^64)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _label_hash(label: str) -> int:
    """FNV-1a hash of a purpose label, folded to 64 bits."""
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


@dataclass(frozen=True)
class Seed:
    """A 64-bit master seed with deterministic stream splitting.

    ``child(index, label)`` derives an independent child seed; identical
    (master, index, label) always yields the identical child, so parallel
    trials can derive their own streams without coordination.
    """

    master: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "master", check_count(self.master, "master seed"))
        if not 0 <= self.master <= _MASK64:
            raise ValueError("master seed must be a 64-bit unsigned integer")

    def child(self, index: int, label: str = "") -> "Seed":
        index = check_count(index, "child index")
        if index < 0:
            raise ValueError("child index must be nonnegative")
        keyed = _mix64(self.master ^ _label_hash(label))
        return Seed(_mix64((keyed + (index + 1) * _GAMMA) & _MASK64))

    def hex(self) -> str:
        return f"{self.master:016x}"


def _check_seed(seed) -> Seed:
    if not isinstance(seed, Seed):
        raise TypeError(f"seed must be a Seed, got {type(seed).__name__}")
    return seed


def _check_block(count) -> int:
    count = check_count(count, "count")
    if count < 0:
        raise ValueError("count must be nonnegative")
    return count


def _u01_rows(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """The uniforms at counters start + 1 .. start + count of each uint64 key, one row per key.

    The one counter kernel: every uniform of the library comes from here.
    """
    # the finalizer and the conversion work in place: beside the steps, at
    # most two (len(keys), count) arrays live at once
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    raw = _mix64_np(keys[:, None] + steps)
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= _U53
    return np.minimum(u, _U_MAX, out=u)


def _exponential(u: np.ndarray) -> np.ndarray:
    """Rate-1 exponentials -log(1 - u) of uniforms u, which it overwrites."""
    w = np.log1p(np.negative(u, out=u))
    return np.negative(w, out=w)


def u01_rows(seeds, count: int) -> np.ndarray:
    """The first ``count`` uniforms of each seed's stream, as one (len(seeds), count) array.

    Row i equals ``UniformStream(seeds[i]).u01_block(count)``, but the many
    streams cost one pass.  TypeError unless every seed is a :class:`Seed`.
    """
    keys = np.array([_check_seed(s).master for s in seeds], dtype=np.uint64)
    return _u01_rows(keys, 0, _check_block(count))


def exponential_rows(seeds, count: int) -> np.ndarray:
    """The first ``count`` rate-1 exponentials of each seed's stream, one row per seed.

    Row i equals ``UniformStream(seeds[i]).exponential_block(count)``.
    """
    return _exponential(u01_rows(seeds, count))


class UniformStream:
    """Sequential view over the counter-addressed uniforms of a :class:`Seed`.

    ``u01()`` and ``u01_block(k)`` consume counters in order; the value at
    counter i is ``min((mix64(key + (i+1)*GAMMA) >> 11 + 0.5) * 2**-53, 1 - 2**-53)``
    and does not depend on how preceding values were consumed (scalar or block).
    A block is one row of the counter kernel behind :func:`u01_rows`.
    """

    def __init__(self, seed: Seed):
        self._key = np.array([_check_seed(seed).master], dtype=np.uint64)
        self._counter = 0

    def u01(self) -> float:
        return float(self.u01_block(1)[0])

    def u01_block(self, count: int) -> np.ndarray:
        count = _check_block(count)
        u = _u01_rows(self._key, self._counter, count)[0]
        self._counter += count
        return u

    def exponential_block(self, count: int) -> np.ndarray:
        return _exponential(self.u01_block(count))

    def integer_below(self, bound: int) -> int:
        """Uniform integer in [0, bound), for an integer bound in 1..2^53: one
        53-bit uniform cannot reach every integer below a larger bound."""
        bound = check_count(bound, "bound")
        if not 1 <= bound <= 1 << 53:
            raise ValueError(f"bound must lie in 1..2^53, got {bound}")
        return min(int(self.u01() * bound), bound - 1)
