"""Distance sets, pair-counting functions, pinned distances, the
paraboloid lift, and the theorem-style verifiers built on them.

Every answer is an exact integer count, reached by one of two routes:

* direct: enumerate all |E||F| pairs through vectorized table lookups, a
  cache-sized block of pins at a time.  A pair sums one code a coordinate
  and reads P's value table at the sum (`_pair_codes`): for separable P at
  d >= 2 the codes of P's parts, into a table of at most d^n q entries,
  else the flat index of x - y, into P's q^d value grid.  A pin's distinct
  values are the marks they set in a (pins, q) boolean array, so no row
  is sorted;
* fourier: the difference convolution D(z) = #{(x, y) in E x F : x - y = z}
  on half the spectrum: E and F are real, so their spectra at -m are the
  conjugates of those at m, and D is real.  `fourier._real_forward` takes
  each indicator to its spectrum at the m whose m_1 lies in the half rows
  R = {m_1 <= -m_1} (one real product, then d - 1 complex passes on
  grids of |R| q^(d-1) entries), the product of E's with the conjugate of
  F's is weighted 2 where m_1 != -m_1, and `fourier._real_inverse` keeps
  the real part of the inverse (d - 1 passes and one real product), so
  about half the work of 3d full passes for odd p; D is rounded to
  integers, then nu(t) = sum of D over the fiber {P = t}.  This is the
  Fourier counting identity nu(t) = q^(2d) sum_m conj(E^)(m) F^(m)
  V_t^(m) of Iosevich-Rudnev, evaluated in one pass for every t.  The products run
  on one BLAS thread, as the execution policy of `fourier` sets out.

Pinned distances convolve E with each nonempty fiber of P (those with a
size in `varieties._fiber_sizes`): d passes for E, then fiber spectra
from `varieties._fiber_spectra`, the one producer of fiber spectra (for
separable P, d - 1 passes shared by every fiber and one a spectrum).
Diagonal P transforms one fiber a scaling coset and gathers the others'
spectra from it, V_{l^K t}^(m) = V_t^(D_l m); any other P transforms
every fiber.  The counts D_{E, V_t} are real, so two fibers share one
set of d inverse passes, as the real and imaginary parts of one complex
grid, and a lone last fiber takes a zero partner.
`counting_function` and `pinned_distances` check their (P, E, F) triple
once and pick a route function by a fixed cost rule (`_use_transform`)
on |E||F| and the passes a convolution takes (`_pinned_passes` counts
the pinned ones), so small sets, and every
set at d = 1, stay on the pair kernel; `distance_set` and the verifiers
read `counting_function`.  The transform route rounds floats to integers: it
records its worst rounding residual and raises RoundingDivergence when
any value lands more than 0.1 from an integer.
Both routes give bit-identical counts; the tests check them against each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, EmptySet, MixedFields, RoundingDivergence
from .field import (
    FieldSpec,
    _frozen,
    add_table,
    decode_points,
    mul_table,
    neg_table,
)
from .fourier import _half_rows, _one_blas_thread, _passes, _real_forward, _real_inverse
from .rng import SplitMix64, _mulhi, derive_seed
from .varieties import (
    Polynomial,
    PointSet,
    _coset_dilation,
    _coset_members,
    _fiber_sizes,
    _fiber_spectra,
    _fiber_work,
    _parts,
    _phase_rows,
    _shared_levels,
    diagonal_polynomial,
    is_separable,
    make_polynomial,
    require_same_space,
    value_grid,
)

# Bytes one block of pins may hold: its int64 sums of codes and the int64
# values P(x - y), 16 B a pair, plus q B of marks a pin and, where the
# add_table rows are gathered, the pin's q-entry int64 row.  Codes are
# gathered into the add_table gather itself, so they add no bytes.  Measured
# as whole CLI runs in fresh processes (the time in `main`) while pairs
# summed flat indices, P = sum x_j^2, E and F random at --seed 1 where not
# all of F_q^d, on a 2-core x86 VM (numpy 2.4.6, 2 MiB of L2 a core), each
# row's budgets alternated, median of 5-7 runs in ms:
#
#   case                                  256 KiB 512 KiB 1 MiB  2 MiB  8 MiB
#   pinned F_101^3, 2000 x 100, 10 trials   52.9    52.0   61.2   63.6   77.8
#   pinned F_625^2, 2000 x 100, 5 trials    35.9    35.8   34.6   37.5   44.3
#   distance F_211^2, 1000 x 800, 5 trials  43.5    41.6   40.7   47.5   66.5
#   pinned F_211^2, all x 500               124     122    126    115    138
#   pinned F_61^3, all x 500                877     832    839    848    907
#
# Past the cache a block's arrays come from the allocator as fresh pages
# and go back to it when dropped, so every trial faults them in again: the
# first case took 8,548 page faults at 8 MiB and 1,025 at 512 KiB.  Warm
# loops in one process hide this, since there the allocator keeps the
# pages, so the budget is measured as whole runs.
_PAIR_BLOCK_BYTES = 512 << 10

# Gather rule: a block reads each pin's add_table row once E holds at least
# q/3 points, and reads add_table pair by pair below that.  Both give the
# same blocks.  Best of 20 for one block, the value table read included,
# P = sum x_j^2 (the codes of its parts at d >= 2, flat indices at d = 1),
# same VM, in ms:
#
#   case                          |E|/q   pairwise  by row
#   q = 101, d = 2, 64 pins       0.10    0.028     0.039
#                                 0.34    0.042     0.044
#                                 0.63    0.059     0.049
#   q = 4001, d = 1, 200 pins     0.25    0.83      0.98
#                                 0.33    1.14      1.18
#                                 1.00    3.14      1.93
#   q = 625, d = 2, 100 pins      0.16    0.12      0.18
#                                 0.33    0.22      0.22
#                                 0.48    0.33      0.25
#   q = 61, d = 3, 500 pins       0.25    0.15      0.19
#                                 0.33    0.18      0.20
#                                 0.49    0.24      0.21
#   q = 1021, d = 2, 100 pins     0.03    0.051     0.26
#                                 0.10    0.13      0.28
#                                 0.33    0.37      0.36
#
# Near |E| = q/3 the two are within the noise of each other.

_ROUNDING_BOUND = 0.1  # worst |raw - nearest integer| a transform count may show

# Route rule: the transform route is taken once |E||F| exceeds
# _PASS_COST * passes * q * q^d, a pass being q^d complex products of
# length q.  Counting is charged the passes its half-spectrum convolution
# runs (_counting_passes: 2.27 at F_101^2 and 3.87 at F_31^3).  Pinned
# distances are charged the passes that _pinned_passes counts, the ones
# their convolution runs: for P = sum x_j^2, whose fibers fall in three
# scaling cosets, d + (d - 1) + 3 + d * ceil(fibers / 2).  The constant at
# break-even is the convolution's time per pass unit (q products) over the
# pair kernel's time per pair, in pass units |E||F| / (passes * q^(d+1)).
# With P = sum x_j^2 on a 2-core x86 VM (numpy 2.4.6), counting read, as
# the median time in cli.main of whole `distance` runs in fresh
# processes, E and F random at --seed 1 where not all of F_q^d, each route
# forced, alternated, 9 runs a route; "net" takes off the median of the
# same runs with one-point sets on pairs (the field, P's tables, the
# exceptional set, emission), and "warm" times the two routes alone in
# process (median of 9 and 3):
#
#   case (times in ms)    trials  pass units  pairs  convolution  fixed  whole  net    warm
#   F_101^2, 3000 x 3000     5       3.84       227       16.9      12.2  0.29   0.085  0.061
#   F_211^2, all x 2000      2       4.19     1,396       35.4      17.6  0.11   0.054  0.049
#   F_31^3, 3000 x 3000      5       2.52       417       24.8      10.4  0.15   0.089  0.054
#   F_61^3, all x 500        2       2.15     1,793       68.2      13.1  0.082  0.067  0.050
#
# and pinned, E = F_q^d, as the median time in cli.main of whole runs in
# fresh processes, each route forced, the two alternated (7 runs a route,
# 3 at F_211^2):
#
#   case                  passes  pass units  pairs (ms)  convolution (ms)  break-even
#   F_71^2, all x all        78      0.91         183           20.0           0.099
#   F_211^2, all x all      218      0.97      11,505          525             0.044
#   F_61^3, all x 500       101      0.081        992          539             0.044
#
# Near the rule, at 0.035 pass units (|E| = |F|, warm, in process, median
# of 15, three rounds), counting read 0.034-0.039 at F_101^2, 0.036-0.046
# at F_211^2, 0.051-0.062 at F_31^3, 0.039-0.070 at F_61^3, 0.068-0.072
# at F_27^2 and 0.050-0.059 at F_16^3; a single point against F_13^2 read
# 0.069-0.074.  0.04 sits at the low end of the counting values and
# below the pinned ones; the north-star pin case, F_61^3 against 500
# pins, asks 0.081 of its pass units and takes the convolution, which it
# ran 1.8 times faster.
#
# At d = 1 every count takes the pair kernel: a pass there is a
# matrix-vector product that streams the whole 16q^2-byte kernel, and even
# full sets with the kernel built (P = x1^3 + x1, E = F = F_q, warm, medians
# of 7 over two rounds, same VM) gained only 4.6-5.5 -> 2.4-2.5 ms at
# F_1009, 17-22 -> 12-13 ms at F_2003 and 67-70 -> 53-54 ms at F_4001,
# 1-3 % of their whole CLI runs.
_PASS_COST = 0.04


def _use_transform(pairs: int, q: int, d: int, passes: float) -> bool:
    return d > 1 and pairs > _PASS_COST * passes * q ** (d + 1)


def _counting_passes(spec: FieldSpec, d: int) -> float:
    """The passes _convolution_counts runs, in whole complex passes: on
    grids of |R| q^(d-1) entries (fourier._half_rows), d - 1 forward passes
    for each of E and F and d - 1 inverse ones, and three real products as
    wide, each half a complex pass's real multiply-adds; so
    |R|/q * (3d - 3/2), near half of 3d for odd p and all of it for p = 2."""
    return len(_half_rows(spec)[0]) / spec.q * (3 * d - 1.5)


def _check_triple(P: Polynomial, E: PointSet, F: PointSet):
    require_same_space(P, E, "polynomial and E")
    require_same_space(P, F, "polynomial and F")
    if E.size == 0 or F.size == 0:
        raise EmptySet("E and F must be nonempty")


def _pair_codes(P: Polynomial) -> tuple[tuple, np.ndarray]:
    """(codes, value) with P(x - y) = value[sum_j codes[j][x_j - y_j]].

    A code is an int64 table of q entries, or an int c standing for the
    code x -> c * x.  Separable P at d >= 2 takes _separable_codes.  Any
    other P, with cross terms or at d = 1, has codes q^j, so the sum is the
    flat index of x - y, and value is value_grid(P), which caches it.
    """
    if P.d == 1 or not is_separable(P):
        return tuple(P.spec.q**j for j in range(P.d)), value_grid(P)
    return _separable_codes(P)


@lru_cache(maxsize=32)
def _separable_codes(P: Polynomial) -> tuple[tuple, np.ndarray]:
    """_pair_codes of separable P = c + sum_j g_j(x_j) at d >= 2, with no
    q^d grid: codes[j] holds g_j of varieties._parts, the constant in part
    0, each encoding's base-p digits (constant first) spread in base
    B = d(p - 1) + 1, so a sum of d codes never carries, and value takes
    each base-B digit of the sum mod p.  value has B^n <= d^n q <= q^d
    entries, as d <= p^(d-1)."""
    spec, d = P.spec, P.d
    p, n = spec.p, spec.n
    g, c = _parts(P)
    parts = np.vstack((add_table(spec)[c, g[0]], g[1:]))  # the constant in part 0
    base = d * (p - 1) + 1
    codes = _frozen(sum(parts // p**k % p * base**k for k in range(n)))
    sums = np.arange(base**n, dtype=np.int64)
    value = _frozen(sum(sums // base**k % base % p * p**k for k in range(n)))
    return tuple(codes), value


def _pair_value_blocks(P: Polynomial, E: PointSet, F: PointSet):
    """Yield blocks of P(x - y) encodings: one row per pin y in F, one column per x in E.

    Each pair sums sum_j codes[j][x_j - y_j] (_pair_codes), one add_table
    gather per coordinate, coded in place and added in place; each pin is
    negated once.  By row, each pin's add_table row at -y_j (q entries) is
    gathered and coded once, then read at every x_j of E; pairwise, at is
    read pair by pair and the gather is coded.  Then P's value table is
    read at the sum.  Each block of pins stays within _PAIR_BLOCK_BYTES as
    long as the caller drops it before asking for the next, as map does.
    """
    q, d = P.spec.q, P.d
    at = add_table(P.spec)
    codes, value = _pair_codes(P)
    ce = np.ascontiguousarray(E.coordinates().T)  # (d, |E|)
    cf = neg_table(P.spec)[F.coordinates().T]  # (d, |F|) of -y
    by_row = 3 * E.size >= q  # the gather rule above
    rows = max(1, _PAIR_BLOCK_BYTES // (16 * E.size + (8 * by_row + 1) * q))

    def differences(j: int, pins: np.ndarray) -> np.ndarray:  # codes[j][x_j - y_j]
        part = at[pins] if by_row else at[pins[:, None], ce[j]]
        if isinstance(codes[j], np.ndarray):
            # in place, each entry read before it is written; mode="raise"
            # would gather through a copy of out=
            np.take(codes[j], part, out=part, mode="clip")
        elif codes[j] > 1:
            part *= codes[j]
        return np.take(part, ce[j], axis=1) if by_row else part

    for i in range(0, F.size, rows):
        pins = cf[:, i : i + rows]
        idx = differences(0, pins[0])
        for j in range(1, d):
            idx += differences(j, pins[j])
        yield value[idx]


# ---------------------------------------------------------------------------
# The difference convolution.

def _indicator_spectrum(spec: FieldSpec, d: int, indices: np.ndarray) -> np.ndarray:
    """The d unnormalized forward passes of the indicator of a point set,
    given by its flat indices, on F_q^d: sum_x 1(x) chi(-x*m) at each m."""
    grid = np.zeros(spec.q**d, dtype=np.complex128)
    grid[indices] = 1.0
    return _passes(spec, grid, d, bufs=(None, grid))


def _half_spectrum(spec: FieldSpec, d: int, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """_indicator_spectrum at the m with m_1 in `rows`, laid out as
    fourier._real_forward lays it out."""
    grid = np.zeros(spec.q**d)
    grid[indices] = 1.0
    return _real_forward(spec, grid, d, rows)


def _rounding_residual(residual: float) -> float:
    if residual > _ROUNDING_BOUND:
        raise RoundingDivergence(
            f"difference convolution value off an integer by {residual!r}"
        )
    return residual


def _paired_difference_counts(
    spec: FieldSpec, d: int, pack: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """(D1, D2, residual) from pack = prod1 + i*prod2, two products whose
    inverse passes are real: the inverse of the pack is D1 + i*D2, so one
    set of d passes serves both.  Each half is rounded and its residual
    checked on its own; D1 and D2 are strided views of scratch."""
    raw = _passes(spec, pack, d, bufs=(scratch, pack), rows=neg_table(spec))
    raw /= float(spec.q) ** d
    halves, counts = raw.view(np.float64), scratch.view(np.float64)
    np.rint(halves, out=counts)
    halves -= counts
    residual = _rounding_residual(float(np.abs(halves, out=halves).max()))
    return counts[0::2], counts[1::2], residual


# ---------------------------------------------------------------------------
# Distance sets and counting.

@dataclass(eq=False)
class CountingHistogram:
    """nu(t) = number of pairs (x, y) in E x F with P(x - y) = t."""

    spec: FieldSpec
    counts: np.ndarray  # int64, length q
    route: str  # "direct" | "fourier"
    residual: float  # worst |raw - nearest integer|; 0.0 on the direct route

    def support(self) -> set[int]:
        return set(int(t) for t in np.nonzero(self.counts)[0])

    def total(self) -> int:
        return int(self.counts.sum())

    def __getitem__(self, t: int) -> int:
        return int(self.counts[t])


def _pair_counts(P: Polynomial, E: PointSet, F: PointSet) -> CountingHistogram:
    """nu by enumerating every pair, a block of pins at a time."""
    q = P.spec.q
    counts = sum(map(lambda v: np.bincount(v.ravel(), minlength=q), _pair_value_blocks(P, E, F)))
    return CountingHistogram(P.spec, counts, "direct", 0.0)


def _convolution_counts(P: Polynomial, E: PointSet, F: PointSet) -> CountingHistogram:
    """nu by the difference convolution, summed over each fiber of P.

    E and F are real, so E^ * conj(F^) at -m is the conjugate of its value
    at m and D is real: the forward passes run at the m whose m_1 is in
    the half rows R of fourier._half_rows, the product takes the weights
    w there, and the inverse keeps the real part, which is q^d * D."""
    spec, d = P.spec, P.d
    rows, weights = _half_rows(spec)
    with _one_blas_thread():
        prod = _half_spectrum(spec, d, E.indices, rows)
        f_hat = _half_spectrum(spec, d, F.indices, rows)
        prod *= np.conj(f_hat, out=f_hat)
        del f_hat
        prod.reshape(len(rows), -1)[...] *= weights[:, None]
        raw = _real_inverse(spec, prod, d, rows)
    raw /= float(spec.q) ** d
    diff = np.rint(raw)
    raw -= diff
    residual = _rounding_residual(float(np.abs(raw, out=raw).max()))
    # Exact: every partial sum is an integer no larger than |E||F| < 2^53.
    counts = np.bincount(value_grid(P), weights=diff, minlength=spec.q)
    return CountingHistogram(spec, counts.astype(np.int64), "fourier", residual)


def counting_function(P: Polynomial, E: PointSet, F: PointSet) -> CountingHistogram:
    """Pair counts per t, by the route the cost rule picks; both routes
    return the same integers."""
    _check_triple(P, E, F)
    if _use_transform(E.size * F.size, P.spec.q, P.d, _counting_passes(P.spec, P.d)):
        return _convolution_counts(P, E, F)
    return _pair_counts(P, E, F)


def distance_set(P: Polynomial, E: PointSet, F: PointSet) -> set[int]:
    """{P(x - y) : x in E, y in F}: the support of the counting function."""
    return counting_function(P, E, F).support()


# ---------------------------------------------------------------------------
# Pinned distances.

@dataclass(eq=False)
class PinnedReport:
    """Per-pin distance counts |{P(x - y) : x in E}| for each y in F.
    Array callers read `pins` and `counts`; `sizes` is built on access."""

    pins: np.ndarray  # F.indices, the pins in order
    counts: np.ndarray  # int64, the pinned distance count of each pin
    threshold: float  # pins must beat this count (rho * q)
    fraction_large: float  # share of pins strictly above the threshold

    @property
    def sizes(self) -> dict[int, int]:  # pin index -> pinned distance count
        return dict(zip(self.pins.tolist(), self.counts.tolist()))


def _pinned_pair_sizes(P: Polynomial, E: PointSet, F: PointSet) -> np.ndarray:
    """|{P(x - y) : x in E}| for each y in F, in the order of F.indices:
    each block's values, offset by pin * q, mark a (pins, q) boolean array,
    and each pin counts its marks."""
    q = P.spec.q

    def distinct(vals: np.ndarray) -> np.ndarray:
        vals += q * np.arange(len(vals))[:, None]
        marks = np.zeros((len(vals), q), dtype=bool)
        marks.ravel()[vals] = True
        return np.count_nonzero(marks, axis=1)

    return np.concatenate(list(map(distinct, _pair_value_blocks(P, E, F))))


# Entries of one block of a dilated fiber product (_fiber_product).
_GATHER_ENTRIES = 1 << 14


def _fiber_product(spectrum: np.ndarray, dilation, e_conj: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = V_t^ * conj(E^), whose conjugate is the product that the
    inverse passes turn into D_{E, V_t}.  V_t^ is `spectrum`, or for a
    dilation (lead, last) of varieties._coset_dilation the spectrum read
    at D m, gathered and multiplied a block of rows of m at a time: the
    index never takes a q^d array, and a block is multiplied while it is
    in cache."""
    if dilation is None:
        return np.multiply(spectrum, e_conj, out=out)
    lead, last = dilation
    q = len(last)
    grid, e_rows = out.reshape(-1, q), e_conj.reshape(-1, q)
    rows = max(1, _GATHER_ENTRIES // q)
    for lo in range(0, len(lead), rows):
        block = grid[lo : lo + rows]
        # every index is in range; mode="raise" would gather through a copy of out=
        np.take(spectrum, lead[lo : lo + rows, None] + last, out=block, mode="clip")
        block *= e_rows[lo : lo + rows]
    return out


def _pinned_convolution_sizes(
    P: Polynomial, E: PointSet, F: PointSet, fibers: np.ndarray
) -> np.ndarray:
    """The same counts by convolution: nu_y(t) = #{x in E : x - y in V_t}
    = D_{E, V_t}(y), one convolution per nonempty fiber t in `fibers`, read
    at the pins.

    The forward spectra come from varieties._fiber_spectra, one a scaling
    coset of diagonal P (varieties._coset_members), and the other fibers
    of the coset gather theirs from it, V_t^(m) = V_rep^(D m)
    (_fiber_product); any other P takes one a fiber.  Each D_{E, V_t} is
    real, so two fibers' products go through one inverse as
    prod1 + i*prod2 (_paired_difference_counts); a lone last fiber is
    paired with a zero product.

    Grids: E's spectrum, the pack that holds the first product of a pair,
    and the shared table and two grids of _fiber_spectra.  One of the two
    holds the representative's spectrum while its coset runs, the other
    the second product of a pair and then the inverse's scratch and
    counts, so no grid is allocated a fiber."""
    spec, d = P.spec, P.d
    sizes = np.zeros(F.size, dtype=np.int64)
    cosets = _coset_members(P, fibers)
    with _one_blas_thread():
        e_conj = _indicator_spectrum(spec, d, E.indices)
        np.conj(e_conj, out=e_conj)
        work = _fiber_work(P)
        pack, pending = np.empty_like(e_conj), False
        spectra = _fiber_spectra(P, [rep for rep, _ in cosets], work, 0, work[1].shape[0])
        for (rep, members), (_, spectrum) in zip(cosets, spectra):
            spare = work[4] if np.shares_memory(spectrum, work[5]) else work[5]
            for t in members:  # the representative last, so its own may be overwritten
                prod = pack if not pending else spectrum if t == rep else spare
                _fiber_product(spectrum, _coset_dilation(P, rep, t), e_conj, prod)
                pending = not pending
                if pending:
                    continue
                # pack = conj(pack) + i * conj(prod)
                pack.real += prod.imag
                np.subtract(prod.real, pack.imag, out=pack.imag)
                for counts in _paired_difference_counts(spec, d, pack, spare)[:2]:
                    sizes += (counts > 0)[F.indices]
        if pending:  # a lone last fiber, paired with zero: pack = conj(pack)
            np.conj(pack, out=pack)
            sizes += (_paired_difference_counts(spec, d, pack, work[4])[0] > 0)[F.indices]
    return sizes


def _pinned_passes(P: Polynomial, fibers: np.ndarray) -> int:
    """The passes _pinned_convolution_sizes runs: d for E, the shared
    table's L (varieties._shared_levels), d - L for each spectrum it
    transforms, one a scaling coset of diagonal P and one a fiber of any
    other, and d for each pair of fibers and for a lone last one."""
    d, shared = P.d, _shared_levels(P)
    spectra = len(_coset_members(P, fibers))
    return d + shared + (d - shared) * spectra + d * -(-len(fibers) // 2)


def pinned_distances(
    P: Polynomial, E: PointSet, F: PointSet, rho: float = 0.5
) -> PinnedReport:
    """|{P(x - y) : x in E}| for each pin y in F, in the order of F.indices,
    and the share of pins above rho * q.  The cost rule picks the pair
    kernel or one convolution a fiber; both give the same integers."""
    _check_triple(P, E, F)
    q, d, pairs = P.spec.q, P.d, E.size * F.size
    # one fiber is the least a convolution takes; past that, count them
    fibers = np.flatnonzero(_fiber_sizes(P)) if _use_transform(pairs, q, d, 3 * d) else ()
    if len(fibers) and _use_transform(pairs, q, d, _pinned_passes(P, fibers)):
        counts = _pinned_convolution_sizes(P, E, F, fibers)
    else:
        counts = _pinned_pair_sizes(P, E, F)
    threshold = rho * q
    large = int(np.count_nonzero(counts > threshold))
    return PinnedReport(F.indices, counts, threshold, large / F.size)


# ---------------------------------------------------------------------------
# Paraboloid lift and product-set experiments.

def paraboloid_lift(P: Polynomial) -> Polynomial:
    """H(x, x_{d+1}) = P(x) - x_{d+1}, one dimension up; every fiber of H
    has exactly q^d points."""
    spec, d = P.spec, P.d
    terms = [(c, e + (0,)) for c, e in P.terms]
    terms.append((spec.neg(1), (0,) * d + (1,)))
    return make_polynomial(spec, d + 1, terms)


def product_set(base: PointSet, last: PointSet) -> PointSet:
    """base x last inside F_q^(d+1); last must be one-dimensional."""
    if last.d != 1:
        raise DimensionMismatch("the extra factor must be a subset of F_q (d = 1)")
    if last.spec != base.spec:
        raise MixedFields("product factors live in different fields")
    w = base.spec.q**base.d
    idx = (base.indices[:, None] + w * last.indices[None, :]).ravel()
    return PointSet(base.spec, base.d + 1, idx)


@dataclass(eq=False)
class ProductExperimentReport:
    q: int
    d: int
    poly: str
    size_E_star: int
    size_F_star: int
    hypothesis_ratio: float  # |E*||F*| / (|F_{d+1}| * q^(d+1))
    delta_size: int
    delta_ratio: float  # |Delta_H| / q
    verdict: str  # pass | fail | vacuous
    phase_max_ratio: float  # worst |sum_x chi(sP(x) + m.x)| / q^(d/2), one s row at a time


def product_set_experiment(
    P: Polynomial,
    E: PointSet,
    E_last: PointSet,
    F: PointSet,
    F_last: PointSet,
    *,
    C: float = 1.0,
    rho: float = 0.5,
) -> ProductExperimentReport:
    """Lifted distance set of product sets E x E_{d+1}, F x F_{d+1}.

    The report also carries the phase condition: the worst
    |sum_x chi(s*P(x) + m*x)| / q^(d/2) over every s != 0 and m, the
    largest magnitude of the phase rows of P.
    """
    H = paraboloid_lift(P)
    e_star = product_set(E, E_last)
    f_star = product_set(F, F_last)
    delta = distance_set(H, e_star, f_star)
    q = P.spec.q
    ratio = (e_star.size * f_star.size) / (F_last.size * float(q) ** (P.d + 1))
    peak = max(float(np.hypot(row.real, row.imag).max()) for row in _phase_rows(P))
    return ProductExperimentReport(
        q=q,
        d=P.d,
        poly=P.text(),
        size_E_star=e_star.size,
        size_F_star=f_star.size,
        hypothesis_ratio=ratio,
        delta_size=len(delta),
        delta_ratio=len(delta) / q,
        verdict=_verdict(ratio >= C, len(delta) >= rho * q),
        phase_max_ratio=peak / float(q) ** (P.d / 2),
    )


# ---------------------------------------------------------------------------
# Theorem-style verifiers.

def _verdict(hypothesis: bool, holds: bool) -> str:
    """'vacuous' when the size hypothesis fails, else whether the claim holds."""
    if not hypothesis:
        return "vacuous"
    return "pass" if holds else "fail"


@dataclass(eq=False)
class FalconerVerdict:
    """|E||F| >= C*q^(d+1) should force |Delta| >= q - |T|."""

    status: str  # pass | fail | vacuous
    delta_size: int
    required: int  # q - |T|
    pair_product: int
    threshold: float  # C * q^(d+1)
    covers_complement: bool  # Delta contains all of F_q minus T
    missing: list[int]  # all absent distances, sorted


def _falconer_verdict(
    q: int, d: int, pair_product: int, delta: set[int], T, C: float
) -> FalconerVerdict:
    threshold = C * float(q) ** (d + 1)
    required = q - len(set(T))
    missing = sorted(set(range(q)) - delta)
    covers = not (set(range(q)) - set(T) - delta)
    return FalconerVerdict(
        status=_verdict(pair_product >= threshold, len(delta) >= required),
        delta_size=len(delta),
        required=required,
        pair_product=pair_product,
        threshold=threshold,
        covers_complement=covers,
        missing=missing,
    )


def verify_falconer(
    P: Polynomial, E: PointSet, F: PointSet, T, C: float = 1.0
) -> FalconerVerdict:
    delta = distance_set(P, E, F)
    return _falconer_verdict(P.spec.q, P.d, E.size * F.size, delta, T, C)


@dataclass(eq=False)
class ErdosVerdict:
    """|E||F| >= C*q^d should force |Delta| on the order of
    min(q, sqrt(|E||F|) / q^((d-1)/2))."""

    status: str  # pass | fail | vacuous
    ratio: float  # |Delta| / bound
    bound: float
    delta_size: int
    hypothesis_met: bool
    unconditional: bool  # A empty, so the size hypothesis is not needed


def _erdos_verdict(
    q: int, d: int, pair_product: int, delta_size: int, A, C: float, r_min: float
) -> ErdosVerdict:
    bound = min(float(q), math.sqrt(pair_product) / float(q) ** ((d - 1) / 2))
    ratio = delta_size / bound
    hypothesis_met = pair_product >= C * float(q) ** d
    unconditional = len(set(A)) == 0
    return ErdosVerdict(
        status=_verdict(hypothesis_met or unconditional, ratio >= r_min),
        ratio=ratio,
        bound=bound,
        delta_size=delta_size,
        hypothesis_met=hypothesis_met,
        unconditional=unconditional,
    )


def verify_erdos(
    P: Polynomial,
    E: PointSet,
    F: PointSet,
    A,
    C: float = 1.0,
    r_min: float = 0.25,
) -> ErdosVerdict:
    delta = distance_set(P, E, F)
    return _erdos_verdict(P.spec.q, P.d, E.size * F.size, len(delta), A, C, r_min)


def verify_square_identity(E: PointSet, trials: int = 1000, seed: int = 0) -> bool:
    """For P = sum_j x_j^2, check P(x-y) - P(x'-y) =
    (P(x) - 2*y.x) - (P(x') - 2*y.x') on random triples from E, with
    every term moved to the positive side:
    P(x-y) + 2*y.x + P(x') = P(x'-y) + 2*y.x' + P(x)."""
    spec = E.spec
    if E.size == 0:
        raise EmptySet("need a nonempty sample set")
    squares, _ = _parts(diagonal_polynomial(spec, E.d, 2))
    at, nt, mt = add_table(spec), neg_table(spec), mul_table(spec)
    rng = SplitMix64(derive_seed(seed, 0x5153))  # 'SQ'
    # rng.below(E.size) for x, x', y of every trial, in draw order
    picks = _mulhi(rng.next_block(3 * trials), np.uint64(E.size)).astype(np.int64)
    idx = E.indices[picks.reshape(trials, 3)]
    x, xp, y = (decode_points(spec, idx[:, k], E.d) for k in range(3))
    two = at[1, 1]

    def side(u, other):  # P(u - y) + 2*y.u + P(other), u - y = u + (-y)
        acc = np.zeros(trials, dtype=np.int64)
        for j, g in enumerate(squares):  # one add_table fold of P's part a coordinate
            twice = mt[two, mt[y[:, j], u[:, j]]]
            acc = at[at[at[acc, g[at[u[:, j], nt[y[:, j]]]]], twice], g[other[:, j]]]
        return acc

    return bool(np.array_equal(side(x, xp), side(xp, x)))
