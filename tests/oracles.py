"""Scalar references that only the tests use: each computes by the
FieldSpec scalar methods what the package computes with tables."""

from ffdist.errors import ArityMismatch
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
