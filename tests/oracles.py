"""References that only the tests use: scalar ones compute by the
FieldSpec scalar methods what the package computes with tables,
factored_phase_sum gives one entry of the factored phase table as a product
of Python complex numbers, and per_axis_transform computes the grid
transform by tensordot passes over F-order axes, a layout of its own."""

import numpy as np

from ffdist.errors import ArityMismatch
from ffdist.field import add_table, mul_table, neg_table, pow_table
from ffdist.varieties import DIAGONAL, PointSet, points_from_coords


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
