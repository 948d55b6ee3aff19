"""Deterministic randomness.

Every random choice in the package flows from a single 64-bit seed through
SplitMix64 streams, so identical seeds give bit-identical results on every
platform.  Child streams are derived with a stable byte hash, never with
Python's salted ``hash``.
"""

from __future__ import annotations

from fractions import Fraction

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


class SplitMix64:
    """SplitMix64 stream over 64-bit words."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection to avoid modulo bias."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_uint64()
            if x < limit:
                return x % n

    def unit_fraction(self) -> Fraction:
        """Exact uniform rational in [0, 1) with denominator 2**64."""
        return Fraction(self.next_uint64(), 1 << 64)

    def shuffle(self, xs: list) -> list:
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        return xs

    def permutation(self, n: int) -> tuple[int, ...]:
        return tuple(self.shuffle(list(range(n))))

    def sample(self, xs, k: int) -> list:
        pool = list(xs)
        if k > len(pool):
            raise ValueError("sample larger than population")
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def spawn(self, tag) -> "SplitMix64":
        """Derive an independent child stream from a stable tag."""
        salt = fnv1a64(repr(tag).encode("utf8"))
        return SplitMix64(_mix(self._state ^ salt))
