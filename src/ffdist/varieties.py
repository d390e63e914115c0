"""Polynomials over F_q^d, their fibers, and exponential-sum diagnostics.

Everything here is exact enumeration: fibers V_t = {x : P(x) = t} are
listed point by point, character sums are summed term by term, and the
decay spectrum of each fiber comes straight from the grid transform.  The
phase sums sum_x chi(s*P(x) + m*x) for all s != 0 and m come as one table
(`_phase_table`), bit-identical to the scalar `phase_sum`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ArityMismatch,
    CharacteristicDividesExponent,
    DegreeSharesCharacteristic,
    DimensionMismatch,
    MixedFields,
    PolynomialSyntaxError,
    VariableOutOfRange,
    ZeroPolynomial,
)
from .field import (
    FieldSpec,
    add_table,
    decode_points,
    encode_points,
    grid_coordinates,
    mul_table,
    pow_table,
)
from .fourier import ComplexGrid, fourier_transform

DIAGONAL = "diagonal"
GENERAL = "general"


# ---------------------------------------------------------------------------
# Polynomials.

@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial over F_q in d variables.

    terms is a sorted tuple of (coefficient encoding, exponent vector);
    kind is 'diagonal' when every variable appears in exactly one term,
    alone, with exponent >= 1.
    """

    spec: FieldSpec
    d: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]
    kind: str

    @property
    def degree(self) -> int:
        return max(sum(e) for _, e in self.terms)

    def text(self) -> str:
        chunks = []
        for coeff, exps in self.terms:
            body = "*".join(
                f"x{j + 1}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(exps)
                if e
            )
            if not body:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(body)
            else:
                chunks.append(f"{coeff}*{body}")
        return " + ".join(chunks)


def _detect_kind(d: int, terms) -> str:
    if len(terms) != d:
        return GENERAL
    seen = set()
    for _, exps in terms:
        live = [j for j, e in enumerate(exps) if e]
        if len(live) != 1:
            return GENERAL
        seen.add(live[0])
    return DIAGONAL if seen == set(range(d)) else GENERAL


def make_polynomial(spec: FieldSpec, d: int, terms) -> Polynomial:
    """Canonicalize raw (coefficient, exponents) pairs: reduce, merge,
    drop zeros, sort, and classify."""
    if d < 1:
        raise DimensionMismatch(f"arity {d} must be >= 1")
    acc: dict[tuple[int, ...], int] = {}
    for coeff, exps in terms:
        exps = tuple(int(e) for e in exps)
        if len(exps) != d:
            raise ArityMismatch(f"exponent vector {exps} has arity != {d}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        acc[exps] = spec.add(acc.get(exps, 0), spec.element(coeff))
    kept = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
    if not kept or all(sum(e) == 0 for e, _ in kept):
        raise ZeroPolynomial("polynomial must have a term of degree >= 1")
    canonical = tuple((c, e) for e, c in kept)
    return Polynomial(spec=spec, d=d, terms=canonical, kind=_detect_kind(d, canonical))


_TERM_RE = re.compile(r"(?:(\d+)\*)?x(\d+)(?:\^(\d+))?")


def parse_polynomial(text: str, spec: FieldSpec, d: int) -> Polynomial:
    """Parse `3*x1^2 + x2^3 - x3` style text.

    Terms are separated by '+' or '-'; each term is [k*]xi[^e] with a
    decimal coefficient k (reduced mod q), 1-based variable index i <= d
    and exponent e >= 1.  Whitespace is ignored.
    """
    compact = "".join(text.split())
    if not compact:
        raise PolynomialSyntaxError("empty polynomial")
    pos = 0
    first = True
    raw_terms = []
    while pos < len(compact):
        sign = 1
        if compact[pos] in "+-":
            if compact[pos] == "-":
                sign = -1
            pos += 1
        elif not first:
            raise PolynomialSyntaxError(
                f"expected '+' or '-' at position {pos} of {text!r}"
            )
        first = False
        m = _TERM_RE.match(compact, pos)
        if m is None:
            raise PolynomialSyntaxError(f"malformed term at position {pos} of {text!r}")
        pos = m.end()
        k = int(m.group(1)) if m.group(1) else 1
        var = int(m.group(2))
        e = int(m.group(3)) if m.group(3) else 1
        if not 1 <= var <= d:
            raise VariableOutOfRange(f"x{var} is outside x1..x{d}")
        if e < 1:
            raise PolynomialSyntaxError(f"exponent must be >= 1 in {text!r}")
        coeff = spec.element(k)
        if sign < 0:
            coeff = spec.neg(coeff)
        raw_terms.append((coeff, tuple(e if j == var - 1 else 0 for j in range(d))))
    return make_polynomial(spec, d, raw_terms)


def diagonal_polynomial(spec: FieldSpec, d: int, exponent: int, coeffs=None) -> Polynomial:
    """a_1*x1^s + ... + a_d*xd^s (unit coefficients by default)."""
    coeffs = [1] * d if coeffs is None else list(coeffs)
    terms = [
        (coeffs[j], tuple(exponent if i == j else 0 for i in range(d)))
        for j in range(d)
    ]
    return make_polynomial(spec, d, terms)


def evaluate(P: Polynomial, x) -> int:
    """Exact evaluation at a coordinate tuple of encodings."""
    if len(x) != P.d:
        raise ArityMismatch(f"point has {len(x)} coordinates, polynomial wants {P.d}")
    spec = P.spec
    acc = 0
    for coeff, exps in P.terms:
        v = coeff
        for xj, e in zip(x, exps):
            if e:
                v = spec.mul(v, spec.pow(xj, e))
        acc = spec.add(acc, v)
    return acc


@lru_cache(maxsize=32)
def value_grid(P: Polynomial) -> np.ndarray:
    """P evaluated at every point of F_q^d, flat in encoding order."""
    spec = P.spec
    coords = grid_coordinates(spec, P.d)
    at, mt = add_table(spec), mul_table(spec)
    acc = np.zeros(len(coords), dtype=np.int64)
    for coeff, exps in P.terms:
        tv = np.full(len(coords), coeff, dtype=np.int64)
        for j, e in enumerate(exps):
            if e:
                tv = mt[tv, pow_table(spec, e)[coords[:, j]]]
        acc = at[acc, tv]
    acc.setflags(write=False)
    return acc


def common_diagonal_exponent(P: Polynomial) -> int | None:
    """The shared exponent s when P is diagonal with all exponents equal."""
    if P.kind != DIAGONAL:
        return None
    exps = {max(e) for _, e in P.terms}
    return exps.pop() if len(exps) == 1 else None


# ---------------------------------------------------------------------------
# Point sets.

@dataclass(eq=False)
class PointSet:
    """A subset of F_q^d as sorted unique flat indices."""

    spec: FieldSpec
    d: int
    indices: np.ndarray

    def __post_init__(self):
        idx = np.unique(np.asarray(self.indices, dtype=np.int64))
        if len(idx) and (idx[0] < 0 or idx[-1] >= self.spec.q**self.d):
            raise DimensionMismatch("point index outside [0, q^d)")
        self.indices = idx

    @property
    def size(self) -> int:
        return int(len(self.indices))

    def coordinates(self) -> np.ndarray:
        return decode_points(self.spec, self.indices, self.d)

    def translate(self, z) -> "PointSet":
        """The set {x + z : x in this set}."""
        shifted = add_table(self.spec)[self.coordinates(), np.asarray(z, dtype=np.int64)]
        return PointSet(self.spec, self.d, encode_points(self.spec, shifted))


def full_grid(spec: FieldSpec, d: int) -> PointSet:
    return PointSet(spec, d, np.arange(spec.q**d, dtype=np.int64))


def points_from_coords(spec: FieldSpec, d: int, coords) -> PointSet:
    arr = np.asarray(coords, dtype=np.int64).reshape(-1, d)
    if np.any(arr < 0) or np.any(arr >= spec.q):
        raise DimensionMismatch("coordinate encoding outside [0, q)")
    return PointSet(spec, d, encode_points(spec, arr))


def variety(P: Polynomial, t: int) -> PointSet:
    """The fiber V_t = {x in F_q^d : P(x) = t}, by exhaustive enumeration."""
    t = P.spec.element(t)
    return PointSet(P.spec, P.d, np.nonzero(value_grid(P) == t)[0])


# ---------------------------------------------------------------------------
# Fourier-decay spectra of fibers.

@dataclass(frozen=True)
class DecayEntry:
    """Per-t fiber statistics: size, worst nonzero-frequency amplitude,
    and that amplitude rescaled by q^((d+1)/2) and q^(d/2)."""

    t: int
    variety_size: int
    max_nonzero_freq: float
    c_sharp: float
    c_fallback: float
    classification: str  # 'sharp' | 'fallback' | 'bad'
    argmax_m: int  # first float maximum; float noise picks among exact ties (diagnostic)


@dataclass(frozen=True)
class ExceptionalReport:
    """Thresholded split of F_q into well-behaved and exceptional t."""

    T: frozenset
    A: frozenset
    band: tuple[float, float]
    vu_bound_ok: bool | None  # |T| <= degree-1, when d=2 and user asserts non-degeneracy
    size_hypothesis_droppable: bool  # A empty: the |E||F| >= C*q^d hypothesis can go
    entries: tuple[DecayEntry, ...]


def decay_spectrum(
    P: Polynomial,
    kappa_sharp: float = 3.0,
    kappa_fallback: float = 3.0,
    *,
    check_characteristic: bool = False,
) -> list[DecayEntry]:
    """One DecayEntry per t in F_q, classifying each fiber's decay."""
    spec, d, q = P.spec, P.d, P.spec.q
    if check_characteristic:
        s = common_diagonal_exponent(P)
        if s is not None and s % spec.p == 0:
            raise CharacteristicDividesExponent(
                f"characteristic {spec.p} divides the common exponent {s}"
            )
    vg = value_grid(P)
    sharp_scale = float(q) ** ((d + 1) / 2)
    fallback_scale = float(q) ** (d / 2)
    entries = []
    for t in range(q):
        mask = vg == t
        size = int(mask.sum())
        fh = fourier_transform(ComplexGrid(spec, d, mask.astype(np.complex128)))
        mag = np.abs(fh.values)
        mag[0] = -1.0  # exclude the zero frequency
        am = int(np.argmax(mag))
        mx = max(float(mag[am]), 0.0)
        c_sharp = mx * sharp_scale
        c_fallback = mx * fallback_scale
        if c_sharp <= kappa_sharp:
            cls = "sharp"
        elif c_fallback <= kappa_fallback:
            cls = "fallback"
        else:
            cls = "bad"
        entries.append(
            DecayEntry(
                t=t,
                variety_size=size,
                max_nonzero_freq=mx,
                c_sharp=c_sharp,
                c_fallback=c_fallback,
                classification=cls,
                argmax_m=am,
            )
        )
    return entries


def exceptional_set(
    P: Polynomial,
    kappa_sharp: float = 3.0,
    kappa_fallback: float = 3.0,
    *,
    band: tuple[float, float] = (0.5, 2.0),
    nondegenerate: bool = False,
    entries: list[DecayEntry] | None = None,
) -> ExceptionalReport:
    """T = fibers failing sharp decay or the expected-size band;
    A = fibers with only fallback decay."""
    if entries is None:
        entries = decay_spectrum(P, kappa_sharp, kappa_fallback)
    q, d = P.spec.q, P.d
    lo = band[0] * float(q) ** (d - 1)
    hi = band[1] * float(q) ** (d - 1)
    T = frozenset(
        e.t
        for e in entries
        if e.classification != "sharp" or not lo <= e.variety_size <= hi
    )
    A = frozenset(e.t for e in entries if e.classification == "fallback")
    vu_ok = None
    if d == 2 and nondegenerate:
        vu_ok = len(T) <= P.degree - 1
    return ExceptionalReport(
        T=T,
        A=A,
        band=(lo, hi),
        vu_bound_ok=vu_ok,
        size_hypothesis_droppable=not A,
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# Character sums.

@dataclass(frozen=True)
class WeilSumResult:
    value: complex
    bound: float
    ok: bool | None  # None when the gcd(degree, q) = 1 hypothesis fails
    hypothesis_ok: bool


def weil_sum(f: Polynomial, *, require_hypothesis: bool = False) -> WeilSumResult:
    """sum_s chi(f(s)) against the (degree-1)*sqrt(q) bound, univariate f."""
    if f.d != 1:
        raise ArityMismatch("weil_sum takes a univariate polynomial")
    spec = f.spec
    c = f.degree
    hyp_ok = c % spec.p != 0  # gcd(c, p^n) = 1  <=>  p does not divide c
    if not hyp_ok and require_hypothesis:
        raise DegreeSharesCharacteristic(
            f"gcd(deg = {c}, q = {spec.q}) != 1; the bound does not apply"
        )
    value = complex(spec.char_table[value_grid(f)].sum())
    bound = (c - 1) * math.sqrt(spec.q)
    ok = bool(abs(value) <= bound + 1e-9) if hyp_ok else None
    return WeilSumResult(value=value, bound=bound, ok=ok, hypothesis_ok=hyp_ok)


def _dot_with_grid(spec: FieldSpec, d: int, m) -> np.ndarray:
    """Encodings of x*m, one row per frequency of the (k, d) block m."""
    coords = grid_coordinates(spec, d)
    at, mt = add_table(spec), mul_table(spec)
    m = np.asarray(m, dtype=np.int64).reshape(-1, d)
    acc = np.zeros((len(m), len(coords)), dtype=np.int64)
    for j in range(d):
        acc = at[acc, mt[m[:, j, None], coords[:, j]]]
    return acc


def phase_sum(P: Polynomial, s: int, m, method: str = "direct") -> complex:
    """sum_x chi(s*P(x) + m*x) over all of F_q^d.

    method 'factored' multiplies d univariate sums instead; it requires a
    diagonal P and must agree with 'direct' up to float error.
    """
    spec = P.spec
    if len(m) != P.d:
        raise ArityMismatch(f"frequency has {len(m)} coordinates, expected {P.d}")
    s = spec.element(s)
    if method == "direct":
        mt = mul_table(spec)
        phases = add_table(spec)[mt[s, value_grid(P)], _dot_with_grid(spec, P.d, m)[0]]
        return complex(spec.char_table[phases].sum())
    if method == "factored":
        if P.kind != DIAGONAL:
            raise ArityMismatch("factored phase sums need a diagonal polynomial")
        at, mt = add_table(spec), mul_table(spec)
        u = np.arange(spec.q, dtype=np.int64)
        out = 1.0 + 0.0j
        for coeff, exps in P.terms:
            j = max(range(P.d), key=lambda i: exps[i])
            e = exps[j]
            g = at[mt[spec.mul(s, coeff), pow_table(spec, e)], mt[int(m[j]), u]]
            out *= complex(spec.char_table[g].sum())
        return out
    raise ValueError(f"unknown method {method!r}")


_PHASE_BLOCK = 1 << 16  # max phase encodings gathered at once


def _phase_table(P: Polynomial, method: str | None = None) -> np.ndarray:
    """phase_sum for s = 1..q-1 (rows) and every m (columns, flat order),
    factored iff P is diagonal unless method says otherwise.  Bit-identical
    to phase_sum: direct rows gather chi(s*P(x) + m*x) from one fused table
    and sum contiguous vectors as it does, factors multiply by Python's
    complex-product formula (numpy's may round apart), and magnitudes want
    np.hypot, as abs(complex) uses; np.abs may differ."""
    spec, d, q = P.spec, P.d, P.spec.q
    if method is None:
        method = "factored" if P.kind == DIAGONAL else "direct"
    coords = grid_coordinates(spec, d)
    out = np.ones((q - 1, len(coords)), dtype=np.complex128)
    if method == "direct":
        chi_of_sum = spec.char_table[add_table(spec)].ravel()  # [a*q + b] = chi(a + b)
        svq = mul_table(spec)[1:, value_grid(P)] * q  # row s-1 holds s*P(x)*q
        rows = max(1, _PHASE_BLOCK // len(coords))
        for lo in range(0, len(coords), rows):
            dot = _dot_with_grid(spec, d, coords[lo : lo + rows])
            for i, sv in enumerate(svq):
                out[i, lo : lo + rows] = np.take(chi_of_sum, sv + dot).sum(axis=1)
        return out
    if method == "factored":
        if P.kind != DIAGONAL:
            raise ArityMismatch("factored phase sums need a diagonal polynomial")
        for coeff, exps in P.terms:
            e = max(exps)
            g = _phase_table(make_polynomial(spec, 1, [(coeff, (e,))]), "direct")
            g = g[:, coords[:, exps.index(e)]]
            re, im = out.real, out.imag
            out.real, out.imag = re * g.real - im * g.imag, re * g.imag + im * g.real
        return out
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class PhaseSweep:
    """Worst case of |sum_x chi(s*P(x) + m*x)| over s != 0 and all m."""

    max_abs: float
    max_ratio: float  # max_abs / q^(d/2)
    argmax_s: int
    argmax_m: int  # flat encoding
    weil_product_bound: float | None  # prod_j (c_j - 1) * q^(d/2) for diagonal P


def phase_sweep(P: Polynomial) -> PhaseSweep:
    """Exhaustive sweep of the phase sum over every s != 0 and every m;
    the first maximum in (s, m) order wins."""
    q, d = P.spec.q, P.d
    t = _phase_table(P)
    mag = np.hypot(t.real, t.imag)
    s, m = divmod(int(np.argmax(mag)), q**d)
    best = float(mag[s, m])
    scale = float(q) ** (d / 2)
    weil = math.prod(max(e) - 1 for _, e in P.terms) * scale
    return PhaseSweep(
        max_abs=best,
        max_ratio=best / scale,
        argmax_s=s + 1,
        argmax_m=m,
        weil_product_bound=weil if P.kind == DIAGONAL else None,
    )


def require_same_space(a, b, what: str = "operands"):
    """Shared guard: same field and same dimension."""
    if a.spec != b.spec:
        raise MixedFields(f"{what} live in different fields")
    if a.d != b.d:
        raise DimensionMismatch(f"{what} have dimensions {a.d} and {b.d}")
