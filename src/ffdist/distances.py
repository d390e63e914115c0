"""Distance sets, pair-counting functions, pinned distances, the
paraboloid lift, and the theorem-style verifiers built on them.

Every answer is an exact integer count, reached by one of two routes:

* direct: enumerate all |E||F| pairs through vectorized table lookups;
* fourier: the difference convolution D(z) = #{(x, y) in E x F : x - y = z}
  as a cyclic cross-correlation of the indicators of E and F over the
  n*d base-p digit axes of F_q^d (three real FFTs of q^d points), rounded
  to integers, then nu(t) = sum of D over the fiber {P = t}.  This is the
  Fourier counting identity nu(t) = q^(2d) sum_m conj(E^)(m) F^(m) V_t^(m)
  of Iosevich-Rudnev, evaluated in one pass for every t.

A fixed cost rule (`_use_transform`) picks the route from |E||F| and q^d,
so small sets stay on the pair kernel.  The transform route rounds floats
to integers: it records its worst rounding residual and raises
RoundingDivergence when any value lands more than 0.1 from an integer.
Both routes give bit-identical counts; the tests check them against each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, MixedFields, RoundingDivergence
from .field import FieldSpec, encode_points, sub_table
from .rng import SplitMix64, derive_seed
from .varieties import (
    Polynomial,
    PointSet,
    diagonal_polynomial,
    evaluate,
    make_polynomial,
    require_same_space,
    value_grid,
)

_PAIR_BLOCK = 1 << 22  # max pairs materialized at once
_ROUNDING_BOUND = 0.1  # worst |raw - nearest integer| a transform count may show

# Route rule: the transform route is taken once |E||F| exceeds
# _TRANSFORM_FACTOR * N * bitlen(N), N = q^d; pinned distances run one
# convolution per t, so their threshold carries a further factor q.
# Measured on a 2-core x86 VM with numpy 2.4.6: the pair kernel costs
# 35-50 ns per pair when counting and 47-115 ns when pinning; one
# convolution costs 6-12 ns * N * bitlen(N) on prime fields (0.23 s at
# N = 101^3) and up to 77 ns on F_16^3, whose twelve digit axes have
# length 2.  The factor 2 sits above the worst measured ratio (77/42), so
# the transform route is taken only where it wins on every field shape.
_TRANSFORM_FACTOR = 2


def _use_transform(pairs: int, N: int, convolutions: int = 1) -> bool:
    return pairs > _TRANSFORM_FACTOR * convolutions * N * N.bit_length()


def _check_triple(P: Polynomial, E: PointSet, F: PointSet):
    require_same_space(P, E, "polynomial and E")
    require_same_space(P, F, "polynomial and F")
    if E.size == 0 or F.size == 0:
        raise EmptySet("E and F must be nonempty")


def _pair_value_blocks(P: Polynomial, E: PointSet, F: PointSet):
    """Yield blocks of P(x - y) encodings, one row per x in E."""
    spec = P.spec
    st = sub_table(spec)
    vg = value_grid(P)
    ce = E.coordinates()
    cf = F.coordinates()
    rows = max(1, _PAIR_BLOCK // max(1, F.size))
    for i in range(0, E.size, rows):
        diff = st[ce[i : i + rows, None, :], cf[None, :, :]]
        yield vg[encode_points(spec, diff)]


# ---------------------------------------------------------------------------
# The difference convolution.
#
# With base-p element encodings and index(x) = sum_j enc(x_j) q^(j-1), digit
# k of coordinate j is base-p digit k + n*j of the flat index, so an
# order="F" reshape to (p,)*(n*d) puts one digit on each axis.  Subtraction
# in F_q^d is then cyclic subtraction along every axis: the additive group
# is (Z/p)^(nd), for prime and extension fields alike, and a plain FFT over
# those axes diagonalizes it.  np.fft is looked up at call time; numpy >= 2
# loads it lazily, so importing ffdist does not pay for it.

def _digit_shape(spec: FieldSpec, d: int) -> tuple[int, ...]:
    return (spec.p,) * (spec.n * d)


def _set_spectrum(spec: FieldSpec, d: int, indices: np.ndarray) -> np.ndarray:
    """Real FFT of a set's indicator on F_q^d over its digit axes."""
    shape = _digit_shape(spec, d)
    grid = np.zeros(spec.q**d)
    grid[indices] = 1.0
    return np.fft.rfftn(grid.reshape(shape, order="F"), axes=range(len(shape)))


def _correlate(
    spec: FieldSpec, d: int, e_hat: np.ndarray, f_hat: np.ndarray
) -> tuple[np.ndarray, float]:
    """D(z) = #{(x, y) in E x F : x - y = z} from the spectra of E and F,
    flat in encoding order as integral floats, and the worst rounding
    residual |raw - D| over the whole grid."""
    shape = _digit_shape(spec, d)
    raw = np.fft.irfftn(
        e_hat * np.conj(f_hat), s=shape, axes=range(len(shape))
    ).ravel(order="F")
    counts = np.rint(raw)
    residual = float(np.max(np.abs(raw - counts)))
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


def _histogram(P: Polynomial, E: PointSet, F: PointSet, method: str) -> CountingHistogram:
    spec, q, d = P.spec, P.spec.q, P.d
    if method == "auto":
        method = "fourier" if _use_transform(E.size * F.size, q**d) else "direct"
    if method == "direct":
        counts = np.zeros(q, dtype=np.int64)
        for vals in _pair_value_blocks(P, E, F):
            counts += np.bincount(vals.ravel(), minlength=q)
        return CountingHistogram(spec, counts, "direct", 0.0)
    if method == "fourier":
        diff, residual = _correlate(
            spec, d, _set_spectrum(spec, d, E.indices), _set_spectrum(spec, d, F.indices)
        )
        # Exact: every partial sum is an integer no larger than |E||F| < 2^53.
        counts = np.bincount(value_grid(P), weights=diff, minlength=q)
        return CountingHistogram(spec, counts.astype(np.int64), "fourier", residual)
    raise ValueError(f"unknown method {method!r}")


def distance_set(P: Polynomial, E: PointSet, F: PointSet) -> set[int]:
    """{P(x - y) : x in E, y in F}: the support of the counting function."""
    _check_triple(P, E, F)
    return _histogram(P, E, F, "auto").support()


def counting_function(
    P: Polynomial, E: PointSet, F: PointSet, method: str = "auto"
) -> CountingHistogram:
    """Pair counts per t by pair enumeration ('direct'), by the difference
    convolution ('fourier'), or by whichever the cost rule picks ('auto').
    All routes return the same integers."""
    _check_triple(P, E, F)
    return _histogram(P, E, F, method)


# ---------------------------------------------------------------------------
# Pinned distances.

@dataclass(eq=False)
class PinnedReport:
    """Per-pin distance counts |{P(x - y) : x in E}| for each y in F."""

    sizes: dict[int, int]  # pin index -> pinned distance count
    threshold: float  # pins must beat this count (rho * q)
    fraction_large: float  # share of pins strictly above the threshold

    def large_pins(self) -> list[int]:
        return sorted(y for y, s in self.sizes.items() if s > self.threshold)


def _pinned_sizes(P: Polynomial, E: PointSet, F: PointSet, method: str) -> np.ndarray:
    """|{P(x - y) : x in E}| for each y in F, in the order of F.indices."""
    spec, q, d = P.spec, P.spec.q, P.d
    vg = value_grid(P)
    if method == "auto":
        fourier = _use_transform(E.size * F.size, q**d, convolutions=q)
        method = "fourier" if fourier else "direct"
    if method == "direct":
        st = sub_table(spec)
        ce = E.coordinates()
        return np.array(
            [
                len(np.unique(vg[encode_points(spec, st[ce, cy[None, :]])]))
                for cy in F.coordinates()
            ],
            dtype=np.int64,
        )
    if method == "fourier":
        # nu_y(t) = #{x in E : x - y in V_t} = D_{E, V_t}(y): one convolution
        # per nonempty fiber, read at the pins.
        e_hat = _set_spectrum(spec, d, E.indices)
        sizes = np.zeros(F.size, dtype=np.int64)
        for t in np.nonzero(np.bincount(vg, minlength=q))[0]:
            fiber = _set_spectrum(spec, d, np.flatnonzero(vg == t))
            diff, _ = _correlate(spec, d, e_hat, fiber)
            sizes += diff[F.indices] > 0
        return sizes
    raise ValueError(f"unknown method {method!r}")


def pinned_distances(
    P: Polynomial, E: PointSet, F: PointSet, rho: float = 0.5
) -> PinnedReport:
    _check_triple(P, E, F)
    counts = _pinned_sizes(P, E, F, "auto")
    sizes = {int(y): int(s) for y, s in zip(F.indices, counts)}
    threshold = rho * P.spec.q
    large = int(np.count_nonzero(counts > threshold))
    return PinnedReport(
        sizes=sizes, threshold=threshold, fraction_large=large / len(sizes)
    )


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
        raise EmptySet("the extra factor must be a subset of F_q (d = 1)")
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
    phase_max_ratio: float | None


def product_set_experiment(
    P: Polynomial,
    E: PointSet,
    E_last: PointSet,
    F: PointSet,
    F_last: PointSet,
    *,
    C: float = 1.0,
    rho: float = 0.5,
    check_condition: bool = True,
) -> ProductExperimentReport:
    """Lifted distance set of product sets E x E_{d+1}, F x F_{d+1}.

    check_condition sweeps the phase sum over every (s != 0, m) and records
    the worst |sum| / q^(d/2); disable it when the sweep is too costly and
    the polynomial is already known to behave.
    """
    from .varieties import phase_sweep  # local import keeps module graph simple

    H = paraboloid_lift(P)
    e_star = product_set(E, E_last)
    f_star = product_set(F, F_last)
    delta = distance_set(H, e_star, f_star)
    q = P.spec.q
    ratio = (e_star.size * f_star.size) / (F_last.size * float(q) ** (P.d + 1))
    if ratio < C:
        verdict = "vacuous"
    else:
        verdict = "pass" if len(delta) >= rho * q else "fail"
    phase_ratio = phase_sweep(P).max_ratio if check_condition else None
    return ProductExperimentReport(
        q=q,
        d=P.d,
        poly=P.text(),
        size_E_star=e_star.size,
        size_F_star=f_star.size,
        hypothesis_ratio=ratio,
        delta_size=len(delta),
        delta_ratio=len(delta) / q,
        verdict=verdict,
        phase_max_ratio=phase_ratio,
    )


# ---------------------------------------------------------------------------
# Theorem-style verifiers.

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
    if pair_product < threshold:
        status = "vacuous"
    else:
        status = "pass" if len(delta) >= required else "fail"
    return FalconerVerdict(
        status=status,
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
    _check_triple(P, E, F)
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
    if hypothesis_met or unconditional:
        status = "pass" if ratio >= r_min else "fail"
    else:
        status = "vacuous"
    return ErdosVerdict(
        status=status,
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
    _check_triple(P, E, F)
    delta = distance_set(P, E, F)
    return _erdos_verdict(P.spec.q, P.d, E.size * F.size, len(delta), A, C, r_min)


def verify_square_identity(E: PointSet, trials: int = 1000, seed: int = 0) -> bool:
    """For P = sum_j x_j^2, check P(x-y) - P(x'-y) =
    (P(x) - 2*y.x) - (P(x') - 2*y.x') on random triples from E."""
    spec, d = E.spec, E.d
    P = diagonal_polynomial(spec, d, 2)
    two = spec.add(1, 1)
    rng = SplitMix64(derive_seed(seed, 0x5153)) # 'SQ'
    idx = E.indices
    if len(idx) == 0:
        raise EmptySet("need a nonempty sample set")
    coords = E.coordinates()

    def dot(u, v):
        acc = 0
        for uj, vj in zip(u, v):
            acc = spec.add(acc, spec.mul(int(uj), int(vj)))
        return acc

    def shifted(u, y):
        return tuple(spec.sub(int(a), int(b)) for a, b in zip(u, y))

    for _ in range(trials):
        x = coords[rng.below(len(idx))]
        xp = coords[rng.below(len(idx))]
        y = coords[rng.below(len(idx))]
        lhs = spec.sub(evaluate(P, shifted(x, y)), evaluate(P, shifted(xp, y)))
        rhs = spec.sub(
            spec.sub(evaluate(P, tuple(int(c) for c in x)), spec.mul(two, dot(y, x))),
            spec.sub(evaluate(P, tuple(int(c) for c in xp)), spec.mul(two, dot(y, xp))),
        )
        if lhs != rhs:
            return False
    return True
