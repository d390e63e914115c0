"""Distance sets, pair-counting functions, pinned distances, the
paraboloid lift, and the theorem-style verifiers built on them.

Every answer is an exact integer count, reached by one of two routes:

* direct: enumerate all |E||F| pairs through vectorized table lookups, a
  cache-sized block of pins at a time; a pin's distinct values are the
  marks they set in a (pins, q) boolean array, so no row is sorted;
* fourier: the difference convolution D(z) = #{(x, y) in E x F : x - y = z}
  through the transform passes of `fourier._passes`: the forward passes
  of the indicators of E and F, the product of E's with the conjugate of
  F's, and the inverse passes (3d passes in all), rounded to integers,
  then nu(t) = sum of D over the fiber {P = t}.  This is the Fourier
  counting identity nu(t) = q^(2d) sum_m conj(E^)(m) F^(m) V_t^(m) of
  Iosevich-Rudnev, evaluated in one pass for every t.  The products run
  on one BLAS thread, as the execution policy of `fourier` sets out.

Pinned distances convolve E with each nonempty fiber of P: d passes for
E, then each fiber's spectrum from `varieties._fiber_spectra`, the one
producer of fiber spectra (for separable P, d - 1 passes shared by every
fiber and one a fiber), and d inverse passes a fiber.
`counting_function` and `pinned_distances` check their (P, E, F) triple
once and pick a route function by a fixed cost rule (`_use_transform`)
on |E||F| and the passes a convolution takes, so small sets, and every
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

import numpy as np

from .errors import DimensionMismatch, EmptySet, MixedFields, RoundingDivergence
from .field import FieldSpec, add_table, decode_points, encode_points, mul_table, neg_table
from .fourier import _one_blas_thread, _passes
from .rng import SplitMix64, _mulhi, derive_seed
from .varieties import (
    Polynomial,
    PointSet,
    _fiber_spectra,
    _fiber_work,
    _phase_rows,
    diagonal_polynomial,
    make_polynomial,
    require_same_space,
    value_grid,
)

# Bytes one block of pins may hold: its int64 flat index of x - y and the
# int64 values P(x - y), 16 B a pair, plus q B of marks a pin and, where the
# add_table rows are gathered, the pin's scaled q-entry int64 row.  Measured
# as whole CLI runs in fresh processes (the time in `main`), P = sum x_j^2,
# E and F random at --seed 1 where not all of F_q^d, on a 2-core x86 VM (numpy 2.4.6, 2 MiB of L2 a core), each row's budgets
# alternated, median of 5-7 runs in ms:
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
# same blocks.  Best of 20 for one block, the value_grid read included,
# P = sum x_j^2, same VM, in ms:
#
#   case                          |E|/q   pairwise  by row
#   q = 101, d = 2, 64 pins       0.10    0.013     0.019
#                                 0.34    0.041     0.038
#                                 0.63    0.039     0.029
#   q = 4001, d = 1, 200 pins     0.25    1.35      1.65
#                                 0.33    1.70      1.44
#                                 1.00    4.82      2.25
#   q = 625, d = 2, 100 pins      0.16    0.11      0.14
#                                 0.33    0.23      0.26
#                                 0.48    0.33      0.27
#   q = 61, d = 3, 500 pins       0.25    0.10      0.12
#                                 0.33    0.14      0.13
#                                 0.49    0.20      0.17
#
# Near |E| = q/3 the two are within the noise of each other.

_ROUNDING_BOUND = 0.1  # worst |raw - nearest integer| a transform count may show

# Route rule: the transform route is taken once |E||F| exceeds
# _PASS_COST * passes * q * q^d, a pass being q^d products of length q.
# Counting takes 3d passes.  Pinned distances are charged d for E and 2d
# for each nonempty fiber, an upper bound: for separable P they take
# 2d - 1 + (d + 1) per fiber, since the fiber spectra share d - 1 passes
# and take one each.  The bound is kept because the actual count would
# move the north-star pin case (F_61^3 against 500 pins) onto the
# convolution, where the two routes measured alike (convolution
# 0.92-1.21 s, pairs 1.02-1.15 s).  The constant at break-even is the
# convolution's time per pass unit (q products) over the pair kernel's
# time per pair, the pinned column measured with d forward passes a
# fiber; with P = sum x_j^2 on a 2-core x86 VM (numpy 2.4.6, best of 5,
# pinned best of 3) it read:
#
#   counting, random |E| = |F|      pinned, E = F_q^d
#   F_101^2, 2000    0.023          F_101^2, |F| = 2000    0.029
#   F_125^2, 2000    0.025          F_71^2, |F| = 5041     0.040
#   F_243^2, 3000    0.025          F_256^2, |F| = 300     0.020
#   F_256^2, 1500    0.023          F_31^3, |F| = 3000     0.032
#   F_31^3, 3000     0.030          F_61^3, |F| = 500      0.035
#   F_61^3, 8000     0.030          F_16^3, |F| = 500      0.053
#   F_64^3, 5000     0.028
#   F_49^3, 8000     0.037
#   F_16^3, 700      0.065
#
# 0.03 sits in the middle of the d >= 2 values; the north-star pin case,
# F_61^3 against 500 pins, asks 0.022 of its pass units and stays on pairs.
#
# At d = 1 every count takes the pair kernel: a pass there is a
# matrix-vector product that streams the whole 16q^2-byte kernel, and even
# full sets with the kernel built (P = x1^3 + x1, E = F = F_q, warm, medians
# of 7 over two rounds, same VM) gained only 4.6-5.5 -> 2.4-2.5 ms at
# F_1009, 17-22 -> 12-13 ms at F_2003 and 67-70 -> 53-54 ms at F_4001,
# 1-3 % of their whole CLI runs.
_PASS_COST = 0.03


def _use_transform(pairs: int, q: int, d: int, passes: int) -> bool:
    return d > 1 and pairs > _PASS_COST * passes * q ** (d + 1)


def _check_triple(P: Polynomial, E: PointSet, F: PointSet):
    require_same_space(P, E, "polynomial and E")
    require_same_space(P, F, "polynomial and F")
    if E.size == 0 or F.size == 0:
        raise EmptySet("E and F must be nonempty")


def _pair_value_blocks(P: Polynomial, E: PointSet, F: PointSet):
    """Yield blocks of P(x - y) encodings: one row per pin y in F, one column per x in E.

    The flat index of x - y is sum_j q^j * at[-y_j, x_j], one add_table
    gather per coordinate, scaled by q^j and added in place; each pin is
    negated once.  By row, each pin's add_table row at -y_j (q entries) is
    gathered and scaled once, then read at every x_j of E; pairwise, at is
    read pair by pair and the gather is scaled.  Then value_grid is read at
    the index.  Each block of pins stays within _PAIR_BLOCK_BYTES as long as
    the caller drops it before asking for the next, as map does.
    """
    q, d = P.spec.q, P.d
    at = add_table(P.spec)
    vg = value_grid(P)
    ce = np.ascontiguousarray(E.coordinates().T)  # (d, |E|)
    cf = neg_table(P.spec)[F.coordinates().T]  # (d, |F|) of -y
    by_row = 3 * E.size >= q  # the gather rule above
    rows = max(1, _PAIR_BLOCK_BYTES // (16 * E.size + (8 * by_row + 1) * q))

    def differences(j: int, pins: np.ndarray) -> np.ndarray:  # q^j (x_j - y_j)
        part = at[pins] if by_row else at[pins[:, None], ce[j]]
        if j:
            part *= q**j
        return np.take(part, ce[j], axis=1) if by_row else part

    for i in range(0, F.size, rows):
        pins = cf[:, i : i + rows]
        idx = differences(0, pins[0])
        for j in range(1, d):
            idx += differences(j, pins[j])
        yield vg[idx]


# ---------------------------------------------------------------------------
# The difference convolution.

def _indicator_spectrum(spec: FieldSpec, d: int, indices: np.ndarray) -> np.ndarray:
    """The d unnormalized forward passes of the indicator of a point set,
    given by its flat indices, on F_q^d: sum_x 1(x) chi(-x*m) at each m."""
    grid = np.zeros(spec.q**d, dtype=np.complex128)
    grid[indices] = 1.0
    return _passes(spec, grid, d, bufs=(None, grid))


def _difference_counts(spec: FieldSpec, d: int, prod: np.ndarray) -> tuple[np.ndarray, float]:
    """D(z) = #{(x, y) in E x F : x - y = z} from prod = E^ * conj(F^), the
    product of the forward passes of E and F, whose d inverse passes give
    q^d * D.  D comes flat in encoding order as integral floats, with the
    worst rounding residual |raw - D| over the whole grid.  The passes
    write into prod, so the convolution holds three grids at a time."""
    raw = _passes(spec, prod, d, bufs=(None, prod), rows=neg_table(spec))
    raw /= float(spec.q) ** d
    counts = np.rint(raw.real)
    raw -= counts
    residual = float(np.max(np.abs(raw)))
    if residual > _ROUNDING_BOUND:
        raise RoundingDivergence(
            f"difference convolution value off an integer by {residual!r}"
        )
    return counts, residual


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
    """nu by the difference convolution, summed over each fiber of P."""
    spec, d = P.spec, P.d
    with _one_blas_thread():
        prod = _indicator_spectrum(spec, d, E.indices)
        prod *= np.conj(_indicator_spectrum(spec, d, F.indices))
        diff, residual = _difference_counts(spec, d, prod)
    # Exact: every partial sum is an integer no larger than |E||F| < 2^53.
    counts = np.bincount(value_grid(P), weights=diff, minlength=spec.q)
    return CountingHistogram(spec, counts.astype(np.int64), "fourier", residual)


def counting_function(P: Polynomial, E: PointSet, F: PointSet) -> CountingHistogram:
    """Pair counts per t, by the route the cost rule picks; both routes
    return the same integers."""
    _check_triple(P, E, F)
    if _use_transform(E.size * F.size, P.spec.q, P.d, 3 * P.d):
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


def _fibers(vg: np.ndarray, q: int) -> np.ndarray:
    """The values t whose fiber {P = t} is nonempty, from P's value grid."""
    return np.flatnonzero(np.bincount(vg, minlength=q))


def _pinned_convolution_sizes(
    P: Polynomial, E: PointSet, F: PointSet, fibers: np.ndarray
) -> np.ndarray:
    """The same counts by convolution: nu_y(t) = #{x in E : x - y in V_t}
    = D_{E, V_t}(y), one convolution per nonempty fiber t in `fibers`, read
    at the pins.  Each fiber's spectrum from varieties._fiber_spectra is
    consumed in place: its grid becomes the product, then the counts."""
    spec, d = P.spec, P.d
    sizes = np.zeros(F.size, dtype=np.int64)
    with _one_blas_thread():
        e_hat = _indicator_spectrum(spec, d, E.indices)
        work = _fiber_work(P)
        for _, prod in _fiber_spectra(P, fibers, work, 0, work[1].shape[0]):
            np.conj(prod, out=prod)
            prod *= e_hat
            sizes += _difference_counts(spec, d, prod)[0][F.indices] > 0
    return sizes


def pinned_distances(
    P: Polynomial, E: PointSet, F: PointSet, rho: float = 0.5
) -> PinnedReport:
    """|{P(x - y) : x in E}| for each pin y in F, in the order of F.indices,
    and the share of pins above rho * q.  The cost rule picks the pair
    kernel or one convolution a fiber; both give the same integers."""
    _check_triple(P, E, F)
    q, d, pairs = P.spec.q, P.d, E.size * F.size
    # one fiber is the least a convolution takes; past that, count them
    fibers = _fibers(value_grid(P), q) if _use_transform(pairs, q, d, 3 * d) else ()
    if len(fibers) and _use_transform(pairs, q, d, d * (1 + 2 * len(fibers))):
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
    vg = value_grid(diagonal_polynomial(spec, E.d, 2))
    at, nt, mt = add_table(spec), neg_table(spec), mul_table(spec)
    rng = SplitMix64(derive_seed(seed, 0x5153))  # 'SQ'
    # rng.below(E.size) for x, x', y of every trial, in draw order
    picks = _mulhi(rng.next_block(3 * trials), np.uint64(E.size)).astype(np.int64)
    idx = E.indices[picks.reshape(trials, 3)]
    x, xp, y = (decode_points(spec, idx[:, k], E.d) for k in range(3))
    two = at[1, 1]

    def twice_dot(u):  # 2*(y.u) per trial
        acc = np.zeros(trials, dtype=np.int64)
        for j in range(E.d):
            acc = at[acc, mt[y[:, j], u[:, j]]]
        return mt[two, acc]

    def side(u, other):  # P(u - y) + 2*y.u + P(other), u - y = u + (-y)
        return at[at[vg[encode_points(spec, at[u, nt[y]])], twice_dot(u)], vg[other]]

    lhs = side(x, idx[:, 1])
    rhs = side(xp, idx[:, 0])
    return bool(np.array_equal(lhs, rhs))
