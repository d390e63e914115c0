"""Deterministic, portable random sampling.

The generator is splitmix64 (Steele, Lea & Flood): state advances by the
64-bit golden-ratio constant and is scrambled by two xor-multiply rounds.
The whole algorithm fits in a dozen lines, so seeds reproduce exactly on
any platform or in any language.  Bounded draws use the 128-bit
multiply-shift trick and never reject; subsets come from a partial
Fisher-Yates shuffle over a dict of displaced positions, giving exact
target cardinalities in O(k).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _scramble(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & MASK64
        return _scramble(self.state)

    def below(self, n: int) -> int:
        """Uniform draw in [0, n) for n < 2^63."""
        return (self.next_u64() * n) >> 64

    def unit(self) -> float:
        """Uniform float in [0, 1) with 53 significant bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def derive_seed(base: int, *salts: int) -> int:
    """Fold role/trial salts into a base seed, one scramble per salt."""
    s = base & MASK64
    for salt in salts:
        s = _scramble((s + _GOLDEN * ((salt & MASK64) + 1)) & MASK64)
    return s


def sample_indices(rng: SplitMix64, population: int, k: int) -> np.ndarray:
    """k distinct indices from [0, population), sorted (partial shuffle)."""
    k = min(k, population)
    moved: dict[int, int] = {}  # position -> value, where it is not the identity
    out = []
    for i in range(k):
        j = i + rng.below(population - i)
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.sort(np.array(out, dtype=np.int64))
