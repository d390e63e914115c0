"""References that only the tests use: scalar ones compute by the
FieldSpec scalar methods what the package computes with tables, and
per_axis_transform computes the grid transform by tensordot passes over
F-order axes, a layout of its own."""

import numpy as np

from ffdist.errors import ArityMismatch
from ffdist.field import mul_table, neg_table
from ffdist.varieties import PointSet, points_from_coords


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
