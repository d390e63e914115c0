"""Polynomials over F_q^d, their fibers, and exponential-sum diagnostics.

Everything here is exact enumeration: fibers V_t = {x : P(x) = t} are
listed point by point, character sums are summed term by term, and the
decay spectrum of each fiber comes from the grid transform's passes.
`_fiber_spectra` is the one producer of fiber spectra: decay, the
exceptional set of any P that is not a diagonal quadratic form, and the
pinned convolution of `distances` all read it.
Separable P = c + g_1(x_1) + ... + g_d(x_d) (as every CLI polynomial is)
is read through its parts g_j (`_parts`), with no q^d grid: its fiber
sizes are their value counts (`_fiber_sizes`), the first d-1 passes of
every fiber read one table shifted by them, so each fiber pays for one
pass, and they are the pair codes of `distances`.  Decay's peaks run that
last pass in column ranges, one a worker, on one BLAS thread: `fourier`
states that execution policy and owns the helpers it runs on.
Exceptional sets of diagonal P transform one fiber per scaling coset of t
(`_scaling_cosets`), since dilations carry the other fibers onto it, and
the pinned convolution gathers the other fibers' spectra from it
(`_coset_members`, `_coset_dilation`).  For P = sum_j a_j x_j^2 over a
field of odd characteristic the exceptional set needs no transform: each
fiber's peak is a Kloosterman or Salie sum in closed form
(`_quadratic_peaks`).  The
phase sums sum_x chi(s*P(x) + m*x) for all s != 0 and m come as one table
(`_phase_table`), or one row s at a time from the inverse transform of
chi(s*P) (`_phase_rows`), which checks the table and gives its maxima in
O(q^d) memory.  For diagonal P the table is the product of d univariate
tables, each on the broadcast axis of its m_j; for any other P it is the
direct table (`_direct_phase_table`), bit-identical to the scalar
`phase_sum` with its columns of m in `fourier`'s column ranges, one a
worker.  Coordinate x_j lives on axis d-j, counted from the last, in
every grid here, so the C-order ravel is the flat encoding order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ArityMismatch,
    ConfigError,
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


def _parts(P: Polynomial) -> tuple[np.ndarray, int]:
    """(g, c) of separable P = c + g_1(x_1) + ... + g_d(x_d): a read-only
    (d, q) int64 table of the g_j, g_j(0) = 0, each term added as
    value_grid adds it, and the constant apart, in O(terms * q)."""
    spec = P.spec
    at, mt = add_table(spec), mul_table(spec)
    g = np.zeros((P.d, spec.q), dtype=np.int64)
    for coeff, exps in P.terms:
        for j in np.flatnonzero(exps):  # at most one variable a term
            g[j] = at[g[j], mt[coeff, pow_table(spec, exps[j])]]
    g.setflags(write=False)
    return g, next((coeff for coeff, exps in P.terms if not any(exps)), 0)


# Bytes of one block that _value_counts adds, and of the character block
# that _quadratic_peaks gathers, at once.
_SUM_BLOCK_BYTES = 1 << 22


def _value_counts(spec: FieldSpec, rows, c: int = 0) -> np.ndarray:
    """#{x : c + sum_j rows[j][x_j] = t} for t in F_q, int64, by one
    additive convolution a row, a block of the row's values at a time
    (16 B a pair of values).  Float sums are exact while every count is
    below 2^53, so a count that reaches it is refused, never rounded."""
    q, at = spec.q, add_table(spec)
    counts = np.zeros(q)
    counts[c] = 1.0
    for row in rows:
        part = np.bincount(row, minlength=q)
        u, v = np.flatnonzero(counts), np.flatnonzero(part)
        step = max(1, _SUM_BLOCK_BYTES // (16 * len(u)))
        prev, blocks = counts[u], (v[lo : lo + step] for lo in range(0, len(v), step))
        counts = sum(
            np.bincount(at[u[:, None], w].ravel(), np.outer(prev, part[w]).ravel(), q) for w in blocks
        )
        if counts.max() >= 2.0**53:
            raise ConfigError(f"a value count over F_{q} reaches 2^53, past exact float sums")
    return counts.astype(np.int64)


def _fiber_sizes(P: Polynomial) -> np.ndarray:
    """|V_t| for t in F_q, int64: the value counts of P's parts for
    separable P, with no q^d grid, else a count of the value grid."""
    if is_separable(P):
        return _value_counts(P.spec, *_parts(P))
    return np.bincount(value_grid(P), minlength=P.spec.q)


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


def _shared_levels(P: Polynomial) -> int:
    """L of _fiber_spectra: d - 1 for separable P, 0 for any other."""
    return P.d - 1 if is_separable(P) else 0


def _fiber_work(P: Polynomial):
    """(L, the shared table B_L, the add table, -R(x) for x in flat order,
    the gathered grid, the pass output) of _fiber_spectra: the table is
    built once, the two grids that built it are the buffers every fiber
    reuses, and a range worker fetches no table of its own.  R = c + g_d
    for separable P, else P's value grid.  Each level's operand, B_{j-1}
    shifted by g_j, is gathered into the gathered grid, whose tail past the
    operand must be zero (the padding), and its product is written into the
    pass output, or for the last level into a grid of its own."""
    spec, q = P.spec, P.spec.q
    at, neg = add_table(spec), neg_table(spec)
    shared = _shared_levels(P)
    if is_separable(P):
        g, c = _parts(P)
        parts, rest = g[:shared], at[c, g[shared]]
    else:
        parts, rest = (), value_grid(P)
    gathered, out = np.zeros(q**P.d, np.complex128), np.empty(q**P.d, np.complex128)
    table = np.eye(1, q, dtype=np.complex128)  # B_0[w] = [w = 0]
    for j, part in enumerate(parts, 1):
        shift = at[:, neg[part]]  # w - g_j(x)
        np.take(table, shift, axis=1, out=gathered[: q ** (j + 1)].reshape(-1, q, q), mode="clip")
        dest = np.empty(gathered.size, np.complex128) if j == shared else out
        table = _passes(spec, gathered, 1, (dest, None)).reshape(q, -1)[:, : q**j].reshape(-1, q)
    return shared, table, at, neg[rest], gathered, out


def _fiber_spectra(P: Polynomial, ts, work, lo, hi):
    """(t, V_t^) for each t in ts, where V_t^(m) = sum_x [P(x) = t] chi(-x*m)
    is the unnormalized transform of the fiber's indicator, flat in encoding
    order.  Every fiber spectrum of the package comes from here: decay's
    peaks (_fiber_peaks) and the pinned convolution of distances.

    Write P = g_1(x_1) + ... + g_L(x_L) + R(x_{L+1}, ..., x_d) with
    g_j(0) = 0: L = d-1 when P is separable, so R holds x_d's terms and
    the constant, and L = 0 otherwise, so R = P.  The first L passes of
    the transform of [P = t] are then a shifted read of one table that
    every t shares (_fiber_work):
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
        parts = _run_all(peaks, _column_ranges(n, _workers() if capped else 1))
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
    sizes = _fiber_sizes(P).tolist()
    return [
        DecayEntry(t, sizes[t], mx, *_decay_class(mx, q, d, kappa_sharp, kappa_fallback), am)
        for t, mx, am in _fiber_peaks(P, range(q))
    ]


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


def _coset_members(P: Polynomial, ts) -> list[tuple[int, list[int]]]:
    """The t in ts grouped by _scaling_cosets, as (representative, members)
    a coset in order of first appearance: the representative is the
    smallest t of its coset in ts and comes last among the members.  Any
    P that is not diagonal has each t alone."""
    labels = _scaling_cosets(P)
    cosets: dict[int, list[int]] = {}
    for t in ts:
        cosets.setdefault(int(labels[t]), []).append(int(t))
    out = []
    for members in cosets.values():
        rep = min(members)
        out.append((rep, [t for t in members if t != rep] + [rep]))
    return out


def _coset_dilation(P: Polynomial, rep: int, t: int):
    """None when t = rep, else the dilation (lead, last) of _dilation_index
    with V_t^(m) = V_rep^(D m), for t and rep nonzero in one coset of
    _scaling_cosets of diagonal P.

    D = D_l of _scaling_cosets with l^K = t / rep, l = w^a for the
    primitive element w of _log_antilog: a*K = log t - log rep mod q-1,
    which g = gcd(K, q-1) divides, solved by one modular inverse."""
    if t == rep:
        return None
    spec, q = P.spec, P.spec.q
    exps = [0] * P.d
    for _, e in P.terms:
        exps[e.index(max(e))] = max(e)
    K = math.lcm(*exps)
    g = math.gcd(K, q - 1)
    log, antilog = _log_antilog(spec)
    a = (log[t] - log[rep]) // g * pow(K // g, -1, (q - 1) // g) % ((q - 1) // g)
    return _dilation_index(spec, [antilog[a * (K // k) % (q - 1)] for k in exps])


def _dilation_index(spec: FieldSpec, scale) -> tuple[np.ndarray, np.ndarray]:
    """(lead, last) with flat(D m) = lead[m // q] + last[m % q] for the
    diagonal D = diag(scale) on F_q^d, d = len(scale): last maps m_1 and
    lead the rows (m_d .. m_2), q^(d-1) entries."""
    mt, q = mul_table(spec), spec.q
    lead = np.zeros(1, np.int64)
    for j in range(len(scale) - 1, 0, -1):  # x_d first: it has the largest stride
        lead = (lead[:, None] + mt[scale[j]] * q**j).ravel()
    return lead, mt[scale[0]]


def _diagonal_quadratic(P: Polynomial) -> bool:
    """Whether P = sum_j a_j x_j^2 over a field of odd characteristic."""
    return P.kind == DIAGONAL and P.spec.p != 2 and all(max(e) == 2 for _, e in P.terms)


def _quadratic_peaks(P: Polynomial, ts) -> list[float]:
    """max_{m != 0} |V_t^(m)| for each t in ts, for P = sum_j a_j x_j^2
    over a field of odd characteristic (_diagonal_quadratic), in closed
    form with no transform (Iosevich-Rudnev).

    For m != 0, V_t^(m) = q^(-d-1) sum_{s != 0} chi(-s*t) prod_j
    sum_x chi(s*a_j*x^2 - m_j*x), and each factor is a Gauss sum,
    eta(s*a_j) G chi(-m_j^2 / (4*s*a_j)) with |G| = sqrt(q) and eta the
    quadratic character.  So |V_t^(m)| = q^(-d/2-1) |W(t, u)| with
    u = sum_j m_j^2 / a_j and
        W(t, u) = sum_{s != 0} eta(s)^d chi(-s*t - u/(4s)),
    a Kloosterman sum (d even) or a Salie sum (d odd).  Put s = s'/t:
    |W(t, u)| = |W(1, t*u)| for t != 0.  Put r = 1/(4s):
    W(t, v) = sum_{r != 0} eta(r)^d chi(-t/(4r)) chi(-v*r), so the rows
    t = 0 and t = 1 are two weight vectors times the forward kernel's rows
    r != 0, gathered a block of rows at a time within _SUM_BLOCK_BYTES, so
    no q x q array is held.  The maximum runs over the u that some m != 0
    attains: the value counts of the parts m_j^2 / a_j (_value_counts),
    less the one count of m = 0."""
    spec, d, q = P.spec, P.d, P.spec.q
    at, mt, neg = add_table(spec), mul_table(spec), neg_table(spec)
    log, antilog = _log_antilog(spec)
    inverse = antilog[-log % (q - 1)]  # inverse[0] is never read
    squares = pow_table(spec, 2)
    counts = _value_counts(spec, [mt[inverse[coeff], squares] for coeff, _ in P.terms])
    counts[0] -= 1  # m = 0
    attained = np.flatnonzero(counts)
    r = np.arange(1, q)
    eta = np.where(log[r] % 2, -1.0, 1.0) ** d
    four = at[at[1, 1], at[1, 1]]
    weights = np.stack([eta, eta * spec.char_table[neg[inverse[mt[four, r]]]]])
    chi_neg = spec.char_table[neg]  # chi(-x)
    sums = np.zeros((2, q), np.complex128)
    rows = max(1, _SUM_BLOCK_BYTES // (16 * q))
    with _one_blas_thread():
        for lo in range(1, q, rows):
            hi = min(lo + rows, q)
            sums += weights[:, lo - 1 : hi - 1] @ chi_neg[mt[lo:hi]]
    mag = np.abs(sums) * float(q) ** (-d / 2 - 1)
    return [
        float(mag[0, attained].max() if t == 0 else mag[1, mt[t, attained]].max())
        for t in ts
    ]


def exceptional_set(
    P: Polynomial,
    kappa_sharp: float = 3.0,
    kappa_fallback: float = 3.0,
) -> ExceptionalReport:
    """split_fibers of P's fibers, the smallest t of each scaling coset
    (_scaling_cosets) speaking for all of it.

    For P = sum_j a_j x_j^2 over a field of odd characteristic, at any d
    and over prime or extension fields, the peaks come in closed form
    (_quadratic_peaks) in O(q^2) time and O(q) memory beside the field's
    tables, with no transform and no kernel.  Every other P, among them
    p = 2, mixed exponents and any term that is not a square, transforms
    one fiber a coset (_fiber_peaks).  The two agree to float error, and
    the classes threshold the peaks with _TIE_SLACK, so T and A only move
    if a peak sits within 1e-9 of a threshold."""
    q, d = P.spec.q, P.d
    labels = _scaling_cosets(P).tolist()
    reps = [rep for rep, _ in _coset_members(P, range(q))]
    if _diagonal_quadratic(P):
        peaks = _quadratic_peaks(P, reps)
    else:
        peaks = [mx for _, mx, _ in _fiber_peaks(P, reps)]
    peak = {labels[t]: mx for t, mx in zip(reps, peaks)}
    classes = [_decay_class(peak[label], q, d, kappa_sharp, kappa_fallback)[2] for label in labels]
    return split_fibers(P, _fiber_sizes(P), classes)


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
# index and value blocks (24 B) and the block's dot (8 B), the last
# block's dot released first.  Under tracemalloc, net of the table, the
# s*P(x)*q rows and the fused table, one worker read 34-35 B and four
# 33-35 B an entry at F_31^2, F_13^3, F_7^4 and F_17^3.
_PHASE_WORKER_BYTES = 40


def _phase_gather_bytes(P: Polynomial) -> int:
    """The bytes that the workers of _direct_phase_table hold at once
    while _phase_table(P) is built: a block a column range, and for
    diagonal P the blocks of its univariate tables."""
    n = P.spec.q ** (1 if P.kind == DIAGONAL else P.d)
    cols = max(1, _PHASE_BLOCK // n)
    return _PHASE_WORKER_BYTES * n * sum(min(cols, b - a) for a, b in _column_ranges(n, _workers()))


def _direct_phase_table(P: Polynomial) -> np.ndarray:
    """phase_sum for s = 1..q-1 (rows) and every m (columns, flat order),
    bit for bit: each entry gathers chi(s*P(x) + m*x) from one fused table
    and sums the same contiguous vector as phase_sum does.

    The columns split into fourier._column_ranges, one a worker, each on
    a thread of its own (_run_all), and a worker walks its range in blocks
    of at most _PHASE_BLOCK entries, or one column.  It allocates one
    index block and one value block once (24 bytes an entry) and runs
    every s over each block: the indices, the gather and the row sums are
    written into them and into the table, and no product or BLAS call is
    made.  An entry is the pairwise sum of the same vector whichever
    worker computes it, so the table does not depend on the number of
    workers.  The caller fetches every table, so the workers call no
    public function and run no traced span."""
    spec, d, q = P.spec, P.d, P.spec.q
    n = q**d
    at, mt = add_table(spec), mul_table(spec)
    out = np.empty((q - 1, n), dtype=np.complex128)
    chi_of_sum = spec.char_table[at].ravel()  # [a*q + b] = chi(a + b)
    svq = mt[1:, value_grid(P)] * q  # row s-1 holds s*P(x)*q
    cols = max(1, _PHASE_BLOCK // n)  # columns of m a block

    def fill(start, stop):  # every s over the columns start:stop, a block at a time
        idx = np.empty((min(cols, stop - start), n), dtype=np.int64)
        vals = np.empty(idx.shape, dtype=np.complex128)
        for lo in range(start, stop, cols):
            hi = min(lo + cols, stop)
            dot = _dot_with_grid(at, mt, d, np.arange(lo, hi)[:, None] // q ** np.arange(d) % q)
            block_idx, block_vals = idx[: hi - lo], vals[: hi - lo]
            for i, sv in enumerate(svq):
                np.add(sv, dot, out=block_idx)
                # every index is in range; mode="raise" would gather through a copy of out=
                np.take(chi_of_sum, block_idx, out=block_vals, mode="clip")
                block_vals.sum(axis=1, out=out[i, lo:hi])
            del dot  # before the next block's dot is built

    _run_all(fill, _column_ranges(n, _workers()))
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
