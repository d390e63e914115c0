"""References that only the tests use: scalar ones compute by the
FieldSpec scalar methods what the package computes with tables,
factored_phase_sum gives one entry of the factored phase table as a product
of Python complex numbers, per_axis_transform computes the grid transform
by tensordot passes over F-order axes, a layout of its own,
per_fiber_peaks gives decay's fiber peaks from one whole transform a fiber,
fiber_peaks_by_phase_identity gives them from the phase sums instead, with
no transform, quadratic_fiber_size counts a fiber of sum_j a_j x_j^2 in
closed form, and dict_sample_indices runs the sampling shuffle one step at
a time."""

import numpy as np

from ffdist.errors import ArityMismatch
from ffdist.field import add_table, decode_points, mul_table, neg_table, pow_table
from ffdist.fourier import ComplexGrid, _one_blas_thread, fourier_transform
from ffdist.varieties import (
    DIAGONAL,
    PointSet,
    _direct_phase_table,
    make_polynomial,
    points_from_coords,
    value_grid,
)


def evaluate(P, x) -> int:
    """Exact evaluation of P at a coordinate tuple of encodings."""
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


def translate(points: PointSet, z) -> PointSet:
    """The set {x + z : x in points}."""
    spec = points.spec
    shifted = [
        [spec.add(int(xj), int(zj)) for xj, zj in zip(x, z)] for x in points.coordinates()
    ]
    return points_from_coords(spec, points.d, shifted)


def factored_phase_sum(P, s, m) -> complex:
    """sum_x chi(s*P(x) + m*x) for diagonal P, as the product of its d
    univariate sums in term order, starting from 1 + 0j: the reference
    that the factored phase table equals bit for bit."""
    if P.kind != DIAGONAL:
        raise ArityMismatch("factored phase sums need a diagonal polynomial")
    spec = P.spec
    s = spec.element(s)
    at, mt = add_table(spec), mul_table(spec)
    u = np.arange(spec.q, dtype=np.int64)
    out = 1.0 + 0.0j
    for coeff, exps in P.terms:
        e = max(exps)
        g = at[mt[spec.mul(s, coeff), pow_table(spec, e)], mt[int(m[exps.index(e)]), u]]
        out *= complex(spec.char_table[g].sum())
    return out


def per_axis_transform(values, spec, d, inverse=False):
    """The normalized forward transform of a flat grid, or its inverse,
    as d tensordot passes over the F-order axes (coordinate 1 first).

    The forward kernel is K[m, x] = chi(-x*m) and carries the 1/q^d
    factor; the inverse has a kernel of its own, B[x, m] = chi(x*m)."""
    q = spec.q
    chi = spec.char_table if inverse else spec.char_table[neg_table(spec)]
    kernel = chi[mul_table(spec)]
    arr = np.asarray(values, dtype=np.complex128).reshape((q,) * d, order="F")
    for axis in range(d):
        arr = np.moveaxis(np.tensordot(kernel, arr, axes=([1], [axis])), 0, axis)
    out = arr.ravel(order="F")
    if not inverse:
        out /= float(q) ** d
    return out


def per_fiber_peaks(P, ts):
    """(t, max_{m != 0} |V_t^(m)|, the first flat m attaining it in floats)
    for each t, from one whole transform of each fiber's indicator on one
    BLAS thread, as _fiber_peaks runs its products: the reference that the
    tests hold the shared-table _fiber_peaks to, bit for bit."""
    vg = value_grid(P)
    out = []
    for t in ts:
        with _one_blas_thread():
            fh = fourier_transform(ComplexGrid(P.spec, P.d, (vg == t).astype(np.complex128)))
        mag = np.abs(fh.values)
        mag[0] = -1.0  # exclude the zero frequency
        am = int(np.argmax(mag))
        out.append((t, max(float(mag[am]), 0.0), am))
    return out


def fiber_peaks_by_phase_identity(P):
    """max_{m != 0} |V_t^(m)| for t = 0..q-1, by the counting identity
    V_t^(m) = q^(-d-1) sum_{s != 0} chi(-s*t) S(s, -m)  (m != 0),
    S(s, m) = sum_x chi(s*P(x) + m*x), instead of a transform of the fiber.

    For separable P = c + f_1(x_1) + ... + f_d(x_d), S(s, m) is chi(s*c)
    times the product of the univariate _direct_phase_tables of the f_j
    at m_j (a variable without terms contributes q*[m_j = 0]).  -m runs
    over the nonzero frequencies as m does, so the maxima read S at m.
    S is built a block of m columns at a time, each (q, block) complex
    array within 4 MiB, so no (q-1) q^d table is held."""
    spec, d, q = P.spec, P.d, P.spec.q
    mt, neg = mul_table(spec), neg_table(spec)
    const, parts = 0, [[] for _ in range(d)]
    for coeff, exps in P.terms:
        live = [j for j, e in enumerate(exps) if e]
        if len(live) > 1:
            raise ArityMismatch("the phase identity needs a separable polynomial")
        if live:
            parts[live[0]].append((coeff, (exps[live[0]],)))
        else:
            const = coeff
    s = np.arange(1, q)
    lead = spec.char_table[mt[s, const]]  # chi(s*c)
    tables = [
        _direct_phase_table(make_polynomial(spec, 1, terms)) if terms
        else np.broadcast_to(np.where(np.arange(q) == 0, float(q), 0.0), (q - 1, q))
        for terms in parts
    ]
    chi_st = spec.char_table[neg[mt[np.arange(q)[:, None], s]]]  # (t, s): chi(-s*t)
    n = q**d
    cols = max(1, (4 << 20) // (16 * q))
    peaks = np.zeros(q)
    for lo in range(0, n, cols):
        m = decode_points(spec, np.arange(lo, min(lo + cols, n)), d)
        S = np.repeat(lead[:, None], len(m), axis=1)
        for j, table in enumerate(tables):
            S *= table[:, m[:, j]]
        mag = np.abs(chi_st @ S)
        if lo == 0:
            mag[:, 0] = 0.0  # the zero frequency
        np.maximum(peaks, mag.max(axis=1), out=peaks)
    return peaks / float(q) ** (d + 1)


def quadratic_fiber_size(P, t) -> int:
    """|{x in F_q^d : P(x) = t}| for P = sum_j a_j x_j^2, q odd, in closed
    form (Lidl-Niederreiter, Theorems 6.26 and 6.27), by the FieldSpec
    scalar methods.  With eta the quadratic character (eta(0) = 0) and
    D = prod_j a_j: for d even, q^(d-1) + v(t) q^(d/2-1) eta((-1)^(d/2) D)
    with v(0) = q - 1 and v(t) = -1 otherwise; for d odd,
    q^(d-1) + q^((d-1)/2) eta((-1)^((d-1)/2) t D)."""
    spec, d, q = P.spec, P.d, P.spec.q
    one = spec.element(1)

    def eta(a):
        return 0 if a == 0 else 1 if spec.pow(a, (q - 1) // 2) == one else -1

    D = one
    for coeff, _ in P.terms:
        D = spec.mul(D, coeff)
    sign = spec.pow(spec.neg(one), d // 2)  # (-1)^(d/2), or (-1)^((d-1)/2) for d odd
    if d % 2 == 0:
        v = q - 1 if t == 0 else -1
        return q ** (d - 1) + v * q ** (d // 2 - 1) * eta(spec.mul(sign, D))
    return q ** (d - 1) + q ** ((d - 1) // 2) * eta(spec.mul(sign, spec.mul(t, D)))


def dict_sample_indices(rng, population, k):
    """The partial Fisher-Yates shuffle of rng.sample_indices one step at a
    time over a dict of displaced positions, from the same block of draws:
    the reference its array form equals."""
    k = min(k, population)
    moved = {}  # position -> value, where it is not the identity
    out = []
    for i, u in enumerate(rng.next_block(k).tolist()):
        j = i + (u * (population - i) >> 64)  # rng.below(population - i)
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return sorted(out)
