"""Deterministic, portable random sampling.

The generator is splitmix64 (Steele, Lea & Flood): state advances by the
64-bit golden-ratio constant and is scrambled by two xor-multiply rounds.
The whole algorithm fits in a dozen lines, so seeds reproduce exactly on
any platform or in any language.  `next_block` draws many outputs at
once with wrapping numpy arithmetic, bit-identical to as many `next_u64`
calls.  Bounded draws use the 128-bit multiply-shift trick and never
reject; subsets are the set a partial Fisher-Yates shuffle selects,
found from the block of draws in array operations, giving exact target
cardinalities in O(k log k).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _scramble(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & MASK64
        return _scramble(self.state)

    def next_block(self, n: int) -> np.ndarray:
        """The next n outputs of next_u64 as a uint64 array; state advances
        as after n calls.  Array arithmetic on uint64 wraps mod 2^64."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self.state)
        self.state = (self.state + n * _GOLDEN) & MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

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


def _mulhi(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u * v) >> 64 for uint64 arrays, from 32-bit halves (no overflow:
    every partial sum is at most the true high word)."""
    lo32 = np.uint64(0xFFFFFFFF)
    s32 = np.uint64(32)
    uh, ul, vh, vl = u >> s32, u & lo32, v >> s32, v & lo32
    lh, hl = ul * vh, uh * vl
    mid = ((ul * vl) >> s32) + (lh & lo32) + (hl & lo32)
    return uh * vh + (lh >> s32) + (hl >> s32) + (mid >> s32)


def sample_indices(rng: SplitMix64, population: int, k: int) -> np.ndarray:
    """k distinct indices from [0, population), sorted.

    The set a partial Fisher-Yates shuffle leaves in positions 0..k-1:
    step i swaps position i with j_i = i + below(population - i).  Steps
    never reach back below i, so a position p >= k ends holding what its
    last draw moved there from position i, and that is the value position
    i held just before step i: i itself, or what the last earlier draw
    into i brought, found by following those draws back (pointer
    doubling).  The sample is the set T of targets >= k together with
    0..k-1 minus the values X their last draws took out."""
    k = min(k, population)
    u = rng.next_block(k)
    i = np.arange(k, dtype=np.int64)
    j = i + _mulhi(u, np.uint64(population) - i.astype(np.uint64)).astype(np.int64)
    moved = j != i  # a draw of its own position moves nothing
    src, dst = i[moved], j[moved]
    order = np.argsort(dst)
    src, dst = src[order], dst[order]
    if dst.size:  # reduceat needs a group; with no draw moved there is none
        first = np.ones(dst.size, dtype=bool)  # each target's first entry
        first[1:] = dst[1:] != dst[:-1]
        starts = np.flatnonzero(first)
        # the last draw into a target is its latest step, whatever the sort's order
        src, dst = np.maximum.reduceat(src, starts), dst[starts]
    inside = dst < k
    held = i.copy()  # held[i]: the step whose value position i holds before step i
    held[dst[inside]] = src[inside]
    while True:
        step = held[held]
        if np.array_equal(step, held):
            break
        held = step
    keep = np.ones(k, dtype=bool)
    keep[held[src[~inside]]] = False
    return np.concatenate((np.flatnonzero(keep), dst[~inside]))
