"""Polynomials over F_q^d, their fibers, and exponential-sum diagnostics.

Everything here is exact enumeration: fibers V_t = {x : P(x) = t} are
listed point by point, character sums are summed term by term, and the
decay spectrum of each fiber comes from the grid transform's passes.
`_fiber_spectra` is the one producer of fiber spectra: decay, the
exceptional set and the pinned convolution of `distances` all read it.
For separable P (every term in at most one variable, as every CLI
polynomial is) the first d-1 passes of every fiber read one shared table,
so each fiber pays for one pass.  Decay's peaks run that pass in column
ranges, one a worker, on one BLAS thread: `fourier` states that execution
policy and owns the helpers it runs on.
Exceptional sets of diagonal P transform one fiber per scaling coset of t
(`_scaling_cosets`), since dilations carry the other fibers onto it.  The
phase sums sum_x chi(s*P(x) + m*x) for all s != 0 and m come as one table
(`_phase_table`), or one row s at a time from the inverse transform of
chi(s*P) (`_phase_rows`), which checks the table and gives its maxima in
O(q^d) memory.  For diagonal P the table is the product of d univariate
tables, each on the broadcast axis of its m_j; for any other P it is the
direct table (`_direct_phase_table`), bit-identical to the scalar
`phase_sum` with its blocks of m dealt to the workers of `fourier`'s
policy.  Coordinate x_j lives on axis d-j, counted from the last, in
every grid here, so the C-order ravel is the flat encoding order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import (
    ArityMismatch,
    DimensionMismatch,
    MixedFields,
    PolynomialSyntaxError,
    VariableOutOfRange,
    ZeroPolynomial,
)
from .field import (
    FieldSpec,
    _log_antilog,
    add_table,
    decode_points,
    encode_points,
    mul_table,
    neg_table,
    pow_table,
)
from .fourier import ComplexGrid, _passes, inverse_transform
from .fourier import _column_ranges, _one_blas_thread, _run_all, _workers  # the thread rule

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


@lru_cache(maxsize=32)
def value_grid(P: Polynomial) -> np.ndarray:
    """P evaluated at every point of F_q^d, flat in encoding order.

    Broadcast evaluation: coordinate j lives on axis d-1-j of a (q,)*d
    grid, so each factor x_j^e is a pow_table view with length 1 on every
    other axis, and a term's gathers broadcast only over the axes of the
    variables it uses.  The C-order ravel of the grid is the flat encoding
    order.
    """
    spec, d = P.spec, P.d
    at, mt = add_table(spec), mul_table(spec)
    acc = np.zeros((1,) * d, dtype=np.int64)
    for coeff, exps in P.terms:
        tv = coeff
        for j, e in enumerate(exps):
            if e:
                shape = [1] * d
                shape[d - 1 - j] = spec.q
                tv = mt[tv, pow_table(spec, e).reshape(shape)]
        acc = at[acc, tv]
    acc = np.broadcast_to(acc, (spec.q,) * d).reshape(-1)
    acc.setflags(write=False)
    return acc


def is_separable(P: Polynomial) -> bool:
    """Whether every term of P has at most one variable, so that
    P = c + f_1(x_1) + ... + f_d(x_d)."""
    return all(sum(1 for e in exps if e) <= 1 for _, exps in P.terms)


def characteristic_divides_exponent(P: Polynomial) -> bool:
    """Whether P is diagonal with one exponent s shared by every term (its
    degree) and the characteristic p divides s."""
    return (
        P.kind == DIAGONAL
        and len({max(e) for _, e in P.terms}) == 1
        and P.degree % P.spec.p == 0
    )


# ---------------------------------------------------------------------------
# Point sets.

@dataclass(eq=False)
class PointSet:
    """A subset of F_q^d as sorted unique flat indices."""

    spec: FieldSpec
    d: int
    indices: np.ndarray

    def __post_init__(self):
        # sort, then drop adjacent repeats: np.unique would import numpy.ma
        idx = np.sort(np.asarray(self.indices, dtype=np.int64), axis=None)
        if len(idx) > 1:
            idx = idx[np.append(True, idx[1:] != idx[:-1])]
        if len(idx) and (idx[0] < 0 or idx[-1] >= self.spec.q**self.d):
            raise DimensionMismatch("point index outside [0, q^d)")
        self.indices = idx

    @property
    def size(self) -> int:
        return int(len(self.indices))

    def coordinates(self) -> np.ndarray:
        return decode_points(self.spec, self.indices, self.d)


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
    vu_bound_ok: bool | None  # d = 2: |T| <= degree-1, Vu's bound for non-degenerate P
    size_hypothesis_droppable: bool  # A empty: the |E||F| >= C*q^d hypothesis can go


# |V_t| / q^(d-1) bounds of a fiber of the expected size
SIZE_BAND = (0.5, 2.0)
# A decay constant equal to a threshold in exact arithmetic reads a few ulps
# either side of it, so the thresholds are compared with this relative slack.
_TIE_SLACK = 1e-9


def _decay_class(mx: float, q: int, d: int, kappa_sharp: float, kappa_fallback: float):
    """(c_sharp, c_fallback, classification) of a fiber whose worst
    nonzero-frequency amplitude is mx."""
    c_sharp = mx * float(q) ** ((d + 1) / 2)
    c_fallback = mx * float(q) ** (d / 2)
    if c_sharp <= kappa_sharp * (1 + _TIE_SLACK):
        return c_sharp, c_fallback, "sharp"
    if c_fallback <= kappa_fallback * (1 + _TIE_SLACK):
        return c_sharp, c_fallback, "fallback"
    return c_sharp, c_fallback, "bad"


def split_fibers(P: Polynomial, sizes, classes) -> ExceptionalReport:
    """T = fibers failing sharp decay or the expected-size band (SIZE_BAND);
    A = fibers with only fallback decay.  sizes[t] and classes[t] are
    |V_t| and its decay classification, for t = 0..q-1."""
    q, d = P.spec.q, P.d
    lo = SIZE_BAND[0] * float(q) ** (d - 1)
    hi = SIZE_BAND[1] * float(q) ** (d - 1)
    T = frozenset(
        t for t, (size, cls) in enumerate(zip(sizes, classes))
        if cls != "sharp" or not lo <= size <= hi
    )
    A = frozenset(t for t, cls in enumerate(classes) if cls == "fallback")
    vu_ok = len(T) <= P.degree - 1 if d == 2 else None
    return ExceptionalReport(
        T=T, A=A, band=(lo, hi), vu_bound_ok=vu_ok, size_hypothesis_droppable=not A
    )


def _shared_table(P: Polynomial, levels: int, gathered: np.ndarray, out: np.ndarray) -> np.ndarray:
    """B_levels of _fiber_spectra as a (q^levels, q) array over ((m..), w).
    Each level's operand is gathered into `gathered`, whose tail past the
    operand must be zero (the padding), and its product is written into
    `out`, or for the last level into a grid of its own."""
    spec, q, vg = P.spec, P.spec.q, value_grid(P)
    at, neg = add_table(spec), neg_table(spec)
    table = np.zeros((1, q), np.complex128)
    table[0, 0] = 1.0
    for j in range(1, levels + 1):
        # w - g_j(x) = (w + P(0)) - P(x e_j), since x_j has stride q^(j-1)
        shift = at[at[:, vg[0]][:, None], neg[vg[: q**j : q ** (j - 1)]]]
        np.take(table, shift, axis=1, out=gathered[: q ** (j + 1)].reshape(-1, q, q), mode="clip")
        dest = np.empty(vg.size, np.complex128) if j == levels else out
        table = _passes(spec, gathered, 1, (dest, None)).reshape(q, -1)[:, : q**j].reshape(-1, q)
    return table


def _fiber_work(P: Polynomial):
    """(L, the shared table B_L, the add table, -R(x) for x in flat order,
    the gathered grid, the pass output) of _fiber_spectra: the table is
    built once, the two grids that built it are the buffers every fiber
    reuses, and a range worker fetches no table of its own."""
    spec, d, q = P.spec, P.d, P.spec.q
    vg = value_grid(P)
    shared = d - 1 if is_separable(P) else 0
    # x_j has stride q^(j-1), so R reads the grid with x_1..x_L at 0
    rest_neg = neg_table(spec)[vg.reshape(-1, q**shared)[:, 0]]
    gathered = np.zeros(vg.size, np.complex128)
    out = np.empty(vg.size, np.complex128)
    table = _shared_table(P, shared, gathered, out)
    return shared, table, add_table(spec), rest_neg, gathered, out


def _fiber_spectra(P: Polynomial, ts, work, lo, hi):
    """(t, V_t^) for each t in ts, where V_t^(m) = sum_x [P(x) = t] chi(-x*m)
    is the unnormalized transform of the fiber's indicator, flat in encoding
    order.  Every fiber spectrum of the package comes from here: decay's
    peaks (_fiber_peaks) and the pinned convolution of distances.

    Write P = g_1(x_1) + ... + g_L(x_L) + R(x_{L+1}, ..., x_d) with
    g_j(0) = 0: L = d-1 when P is separable, so R holds x_d's terms and
    the constant, and L = 0 otherwise, so R = P.  The first L passes of
    the transform of [P = t] are then a shifted read of one table that
    every t shares (_shared_table):
        B_0[w] = [w = 0],
        B_j[(m_j..m_1), w] = sum_{x_j} K[m_j, x_j] B_{j-1}[(m_{j-1}..m_1), w - g_j(x_j)],
    and after L passes the grid holds B_L[(m_L..m_1), t - R(x)] at
    ((m_L..m_1), (x_d..x_{L+1})).  So each t gathers those columns of B_L
    and runs the last d-L passes: L + (d-L)*len(ts) passes instead of
    d*len(ts).

    Why the values agree: every column of a shared pass's operand equals,
    value for value, a column that the fiber's own pass reads, and a
    kernel-left product computes each output column from its operand
    column alone, by the same arithmetic wherever it sits, once the
    product has the same shape and layout.  So each shared operand is
    padded with zero columns to the fiber's (q, q) @ (q, q^(d-1)); unpadded,
    one argmax_m moved among exact ties at F_41^4.  The exception is the
    last column of an odd-width product, which OpenBLAS rounds apart (at
    1 and 2 threads alike; its column-tail kernel): a fiber value that
    passed through it, or through the shared column in that place, can
    differ in the last bit.  That
    moved no peak at the sizes the tests and the benchmark use, but it
    moves one fiber's maximum by an ulp for x1^2 + 2*x2^3 + x3 over F_31^3.

    Column ranges.  The N = q^L rows of B_L become the N output columns of
    the last pass, and each output column reads its operand column alone.
    So with `work` from _fiber_work and lo:hi a range of those columns, the
    generator gathers only B_L[lo:hi] and runs the last pass on them: it
    yields the output columns lo:hi of V_t^, flat as q^(d-L) rows of hi-lo
    entries, so column c of row m is V_t^(m*N + c).  The same arithmetic
    holds for a narrower product as long as the range starts where the
    whole product's column blocks do and the whole product's odd last
    column stays last in its range: fourier._column_ranges puts bounds at
    multiples of 64.  Ranges that partition 0:N may run at once on threads
    of their own: each writes the slice lo*r:hi*r of the two reused grids
    (r = q^(d-L) entries a column), so no grid is added.

    The table, the gathered grid and the pass output are allocated once
    and serve every t (16 + 16 + 16 bytes a point; for L = 0 the table is
    one row and the indices take its place).  The grid yielded is one of
    the last two: the consumer may overwrite it, but must be done with it
    before it asks for the next t."""
    spec, d = P.spec, P.d
    shared, table, at, rest_neg, gathered, out = work
    r = rest_neg.size
    gathered, out = gathered[lo * r : hi * r], out[lo * r : hi * r]
    rows, cols = table[lo:hi], gathered.reshape(hi - lo, r)
    idx = np.empty(r, np.int64)
    for t in ts:
        # every index is in range; mode="raise" would gather through a copy of out=
        np.take(at[t], rest_neg, out=idx, mode="clip")
        np.take(rows, idx, axis=1, out=cols, mode="clip")
        yield t, _passes(spec, gathered, d - shared, (out, gathered))


def _fiber_peaks(P: Polynomial, ts) -> list[tuple[int, float, int]]:
    """(t, max_{m != 0} |V_t^(m)|, the first flat m attaining it in floats)
    for each t in ts, from the normalized spectra of _fiber_spectra, as one
    whole transform of each fiber's indicator on one BLAS thread gives them
    (tests.oracles.per_fiber_peaks).

    Every product runs on one BLAS thread (fourier._one_blas_thread), from
    the shared table on, so the bits do not depend on the thread count
    numpy starts with.  The last pass's columns are split into one range a
    worker (fourier._column_ranges), each run on a thread of its own over
    every t; the range with the largest maximum wins, and a tie goes to the
    smallest flat m, which is where the whole grid's first maximum lies.
    Where the BLAS thread count cannot be reached, one range runs on the
    calling thread, since BLAS may then start threads of its own.

    The 1/q^d scale multiplies the float view by the reciprocal, as
    numpy's complex /= by a real does; only the signs of exact zeros may
    differ, and np.abs does not see them.  The magnitudes take one more
    grid beside those of _fiber_spectra (8 bytes a point), split among
    the ranges."""
    ts = list(ts)
    scale = 1.0 / float(P.spec.q) ** P.d

    def peaks(lo, hi):  # (max, first flat m) per t, over columns lo:hi
        width, mag, found = hi - lo, None, []
        for _, fh in _fiber_spectra(P, ts, work, lo, hi):
            fh.view(np.float64)[...] *= scale
            mag = np.abs(fh, out=mag)  # allocated once the shared table is built
            if lo == 0:
                mag[0] = -1.0  # exclude the zero frequency
            i = int(np.argmax(mag))
            m, c = divmod(i, width)
            found.append((float(mag[i]), m * n + lo + c))
        return found

    with _one_blas_thread() as capped:
        work = _fiber_work(P)
        n = work[1].shape[0]  # output columns of the last pass
        ranges = _column_ranges(n, _workers() if capped else 1)
        parts = _run_all([partial(peaks, lo, hi) for lo, hi in ranges])
    peaks_of = (max(found, key=lambda p: (p[0], -p[1])) for found in zip(*parts))
    return [(t, max(mx, 0.0), am) for t, (mx, am) in zip(ts, peaks_of)]


def decay_spectrum(
    P: Polynomial,
    kappa_sharp: float = 3.0,
    kappa_fallback: float = 3.0,
) -> list[DecayEntry]:
    """One DecayEntry per t in F_q, classifying each fiber's decay from
    its own transform."""
    d, q = P.d, P.spec.q
    sizes = np.bincount(value_grid(P), minlength=q).tolist()
    entries = []
    for t, mx, am in _fiber_peaks(P, range(q)):
        c_sharp, c_fallback, cls = _decay_class(mx, q, d, kappa_sharp, kappa_fallback)
        entries.append(DecayEntry(t, sizes[t], mx, c_sharp, c_fallback, cls, am))
    return entries


def _scaling_cosets(P: Polynomial) -> np.ndarray:
    """A label per t in F_q, equal on t and t' whenever V_t' = D V_t for
    an invertible linear D, so the fibers share their decay.

    For diagonal P = sum_j a_j x_j^k_j let K = lcm(k_j) and
    D_l = diag(l^(K/k_j)): then P(D_l x) = l^K P(x), so V_{l^K t} = D_l V_t
    and V_{l^K t}^(m) = V_t^(D_l m).  The labels are t = 0 and the cosets
    of the K-th powers in F_q^*, log(t) mod gcd(K, q-1).  Any other P
    gets one label per t.
    """
    q = P.spec.q
    if P.kind != DIAGONAL:
        return np.arange(q)
    g = math.gcd(math.lcm(*(max(e) for _, e in P.terms)), q - 1)
    log, _ = _log_antilog(P.spec)
    return np.append(0, 1 + log[1:] % g)


def exceptional_set(
    P: Polynomial,
    kappa_sharp: float = 3.0,
    kappa_fallback: float = 3.0,
) -> ExceptionalReport:
    """split_fibers of P's fibers, with one transform per scaling coset
    (_scaling_cosets): the smallest t of each coset speaks for all of it."""
    q, d = P.spec.q, P.d
    labels = _scaling_cosets(P).tolist()
    first = {}
    for t, label in enumerate(labels):
        first.setdefault(label, t)
    peak = {labels[t]: mx for t, mx, _ in _fiber_peaks(P, first.values())}
    classes = [_decay_class(peak[label], q, d, kappa_sharp, kappa_fallback)[2] for label in labels]
    sizes = np.bincount(value_grid(P), minlength=q)
    return split_fibers(P, sizes, classes)


# ---------------------------------------------------------------------------
# Character sums.

@dataclass(frozen=True)
class WeilSumResult:
    value: complex
    bound: float
    ok: bool | None  # None when the gcd(degree, q) = 1 hypothesis fails
    hypothesis_ok: bool


def weil_sum(f: Polynomial) -> WeilSumResult:
    """sum_s chi(f(s)) against the (degree-1)*sqrt(q) bound, univariate f;
    hypothesis_ok says whether gcd(degree, q) = 1, under which the bound holds."""
    if f.d != 1:
        raise ArityMismatch("weil_sum takes a univariate polynomial")
    spec = f.spec
    c = f.degree
    hyp_ok = c % spec.p != 0  # gcd(c, p^n) = 1  <=>  p does not divide c
    value = complex(spec.char_table[value_grid(f)].sum())
    bound = (c - 1) * math.sqrt(spec.q)
    ok = bool(abs(value) <= bound + 1e-9) if hyp_ok else None
    return WeilSumResult(value=value, bound=bound, ok=ok, hypothesis_ok=hyp_ok)


def _dot_with_grid(at: np.ndarray, mt: np.ndarray, d: int, m) -> np.ndarray:
    """Encodings of x*m, one row per frequency of the (k, d) block m and
    one column per x in flat order, from the add and mul tables at, mt of
    F_q: x_j lives on axis d-j of a (k, q, ..., q) grid, as in
    value_grid, so each term m_j*x_j is a mul_table row reshaped onto its
    own axis."""
    q = len(at)
    m = np.asarray(m, dtype=np.int64).reshape(-1, d)
    acc = np.zeros((len(m),) + (1,) * d, dtype=np.int64)
    for j in range(d):
        shape = [len(m)] + [1] * d
        shape[d - j] = q
        acc = at[acc, mt[m[:, j]].reshape(shape)]
    return acc.reshape(len(m), -1)


def phase_sum(P: Polynomial, s: int, m) -> complex:
    """sum_x chi(s*P(x) + m*x) over all of F_q^d."""
    spec = P.spec
    if len(m) != P.d:
        raise ArityMismatch(f"frequency has {len(m)} coordinates, expected {P.d}")
    s = spec.element(s)
    at, mt = add_table(spec), mul_table(spec)
    phases = at[mt[s, value_grid(P)], _dot_with_grid(at, mt, P.d, m)[0]]
    return complex(spec.char_table[phases].sum())


_PHASE_BLOCK = 1 << 16  # max phase encodings gathered at once by one worker
# Bytes a worker of _direct_phase_table holds an entry of its block: the
# index and value blocks (24 B), the block's dot (8 B) and the two grids
# that build the next block's dot (16 B).  Under tracemalloc, net of the
# table, the s*P(x)*q rows and the fused table, one worker read 42-43 B
# and four 37-41 B an entry at F_31^2, F_13^3, F_7^4 and F_17^3.
_PHASE_WORKER_BYTES = 48


def _phase_blocks(n: int) -> tuple[int, int]:
    """(columns a block, workers) of _direct_phase_table with n columns:
    a block gathers at most _PHASE_BLOCK entries, or one column, and
    there is a worker a usable CPU, but no more than there are blocks."""
    cols = max(1, _PHASE_BLOCK // n)
    return cols, min(_workers(), -(-n // cols))


def _phase_gather_bytes(P: Polynomial) -> int:
    """The bytes that the workers of _direct_phase_table hold at once
    while _phase_table(P) is built: a block each, and for diagonal P the
    blocks of its univariate tables."""
    n = P.spec.q ** (1 if P.kind == DIAGONAL else P.d)
    cols, workers = _phase_blocks(n)
    return _PHASE_WORKER_BYTES * cols * n * workers


def _direct_phase_table(P: Polynomial) -> np.ndarray:
    """phase_sum for s = 1..q-1 (rows) and every m (columns, flat order),
    bit for bit: each entry gathers chi(s*P(x) + m*x) from one fused table
    and sums the same contiguous vector as phase_sum does.

    The columns come in blocks of frequencies, dealt in turn to the
    workers of _phase_blocks, each on a thread of its own (_run_all).  A
    worker allocates one index block and one value block once (24 bytes
    an entry) and runs every s over each of its blocks: the indices, the
    gather and the row sums are written into them and into the table, and
    no product or BLAS call is made.  An entry is the pairwise sum of the
    same vector whichever worker computes it, so the table does not
    depend on the number of workers.  The caller fetches every table, so
    the workers call no public function and run no traced span."""
    spec, d, q = P.spec, P.d, P.spec.q
    n = q**d
    at, mt = add_table(spec), mul_table(spec)
    out = np.empty((q - 1, n), dtype=np.complex128)
    chi_of_sum = spec.char_table[at].ravel()  # [a*q + b] = chi(a + b)
    svq = mt[1:, value_grid(P)] * q  # row s-1 holds s*P(x)*q
    cols, workers = _phase_blocks(n)
    starts = range(0, n, cols)
    digits = q ** np.arange(d)

    def fill(mine):  # every s over the blocks of m that start at `mine`
        idx = np.empty((cols, n), dtype=np.int64)
        vals = np.empty((cols, n), dtype=np.complex128)
        for lo in mine:
            hi = min(lo + cols, n)
            dot = _dot_with_grid(at, mt, d, np.arange(lo, hi)[:, None] // digits % q)
            block_idx, block_vals = idx[: hi - lo], vals[: hi - lo]
            for i, sv in enumerate(svq):
                np.add(sv, dot, out=block_idx)
                # every index is in range; mode="raise" would gather through a copy of out=
                np.take(chi_of_sum, block_idx, out=block_vals, mode="clip")
                block_vals.sum(axis=1, out=out[i, lo:hi])

    _run_all([partial(fill, starts[k::workers]) for k in range(workers)])
    return out


def _phase_table(P: Polynomial) -> np.ndarray:
    """The phase-sum table of _direct_phase_table, as the product of d
    univariate tables when P is diagonal.  Factor j is a (q-1, q) table
    with m_j on axis d-j, so the product broadcasts to flat m order.  The
    factors multiply in term order by Python's complex-product formula
    (numpy's may round apart), so each entry is bit-identical to the
    product of the scalar univariate sums, starting from 1 + 0j.
    Magnitudes want np.hypot, as abs(complex) uses; np.abs may differ."""
    spec, d, q = P.spec, P.d, P.spec.q
    if P.kind != DIAGONAL:
        return _direct_phase_table(P)
    re, im = 1.0, 0.0
    for coeff, exps in P.terms:
        e = max(exps)
        shape = [q - 1] + [1] * d
        shape[d - exps.index(e)] = q
        g = _direct_phase_table(make_polynomial(spec, 1, [(coeff, (e,))])).reshape(shape)
        re, im = re * g.real - im * g.imag, re * g.imag + im * g.real
    out = np.empty((q - 1, q**d), dtype=np.complex128)
    out.real, out.imag = re.reshape(q - 1, -1), im.reshape(q - 1, -1)
    return out


def _phase_rows(P: Polynomial):
    """Row s-1 of _phase_table for s = 1..q-1, one inverse transform each:
    sum_x chi(s*P(x) + m*x) is inverse_transform(chi(s*P)) at m.  Holds
    O(q^d) at a time; it agrees with the table to float error, not bit for
    bit, so it checks the table and serves maxima, never CSV rows."""
    spec, d = P.spec, P.d
    vg, mt = value_grid(P), mul_table(spec)
    for s in range(1, spec.q):
        yield inverse_transform(ComplexGrid(spec, d, spec.char_table[mt[s, vg]])).values


def _factored_table_error(P: Polynomial, table: np.ndarray) -> float | None:
    """The largest |table - _phase_rows(P)| when P is diagonal, so that
    `table` (as _phase_table gives it) is the factored one, else None.  The
    inverse transforms run on one BLAS thread, so the error's bits do not
    depend on numpy's thread count."""
    if P.kind != DIAGONAL:
        return None
    with _one_blas_thread():
        errs = (row - want for row, want in zip(table, _phase_rows(P)))
        return max(float(np.hypot(e.real, e.imag).max()) for e in errs)


def require_same_space(a, b, what: str = "operands"):
    """Shared guard: same field and same dimension."""
    if a.spec != b.spec:
        raise MixedFields(f"{what} live in different fields")
    if a.d != b.d:
        raise DimensionMismatch(f"{what} have dimensions {a.d} and {b.d}")
