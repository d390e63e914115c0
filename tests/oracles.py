"""References that only the tests use: scalar ones compute by the
FieldSpec scalar methods what the package computes with tables,
factored_phase_sum gives one entry of the factored phase table as a product
of Python complex numbers, per_axis_transform computes the grid transform
by tensordot passes over F-order axes, a layout of its own,
per_fiber_peaks gives decay's fiber peaks from one whole transform a fiber,
and dict_sample_indices runs the sampling shuffle one step at a time."""

import numpy as np

from ffdist.errors import ArityMismatch
from ffdist.field import add_table, mul_table, neg_table, pow_table
from ffdist.fourier import ComplexGrid, fourier_transform
from ffdist.varieties import DIAGONAL, PointSet, points_from_coords, value_grid


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
    for each t, from one whole transform of each fiber's indicator: the
    reference that the tests hold the shared-table _fiber_peaks to, bit
    for bit."""
    vg = value_grid(P)
    out = []
    for t in ts:
        fh = fourier_transform(ComplexGrid(P.spec, P.d, (vg == t).astype(np.complex128)))
        mag = np.abs(fh.values)
        mag[0] = -1.0  # exclude the zero frequency
        am = int(np.argmax(mag))
        out.append((t, max(float(mag[am]), 0.0), am))
    return out


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
