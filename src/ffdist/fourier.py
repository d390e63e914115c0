"""Normalized Fourier analysis on complex grids over F_q^d.

The forward transform carries the 1/q^d factor and the inverse carries
none, so round trips are exact up to float error and the energy identity
reads  sum_m |f^(m)|^2 = q^(-d) * sum_x |f(x)|^2.

Transforms factor into d one-axis passes (coordinate 1 first), each a
dense q-by-q character matrix multiply; at desk scale this beats any
fast-transform cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .field import FieldSpec, mul_table, neg_table


@dataclass(eq=False)
class ComplexGrid:
    """A dense complex-valued function on F_q^d.

    values[i] is the value at the point with flat index i, where
    index(x) = sum_j enc(x_j) * q^(j-1).
    """

    spec: FieldSpec
    d: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.d < 1:
            raise DimensionMismatch(f"dimension {self.d} must be >= 1")
        if self.values.shape != (self.spec.q**self.d,):
            raise DimensionMismatch(
                f"grid has {self.values.shape} values, expected ({self.spec.q**self.d},)"
            )


def zeros_grid(spec: FieldSpec, d: int) -> ComplexGrid:
    return ComplexGrid(spec, d, np.zeros(spec.q**d, dtype=np.complex128))


def indicator_grid(spec: FieldSpec, d: int, indices) -> ComplexGrid:
    values = np.zeros(spec.q**d, dtype=np.complex128)
    values[np.asarray(indices, dtype=np.int64)] = 1.0
    return ComplexGrid(spec, d, values)


@lru_cache(maxsize=None)
def _forward_kernel(spec: FieldSpec) -> np.ndarray:
    """K[m, x] = chi(-x*m)."""
    k = spec.char_table[neg_table(spec)][mul_table(spec)]
    k.setflags(write=False)
    return k


@lru_cache(maxsize=None)
def _inverse_kernel(spec: FieldSpec) -> np.ndarray:
    """B[x, m] = chi(x*m)."""
    b = spec.char_table[mul_table(spec)]
    b.setflags(write=False)
    return b


def _apply_per_axis(kernel: np.ndarray, grid: ComplexGrid) -> np.ndarray:
    # Axis j of the reshaped array is coordinate j+1; transform in order.
    arr = grid.values.reshape((grid.spec.q,) * grid.d, order="F")
    for axis in range(grid.d):
        arr = np.moveaxis(np.tensordot(kernel, arr, axes=([1], [axis])), 0, axis)
    return arr.ravel(order="F")


def fourier_transform(f: ComplexGrid) -> ComplexGrid:
    """f^(m) = q^(-d) * sum_x f(x) chi(-x*m)."""
    out = _apply_per_axis(_forward_kernel(f.spec), f)
    out /= float(f.spec.q) ** f.d
    return ComplexGrid(f.spec, f.d, out)


def inverse_transform(g: ComplexGrid) -> ComplexGrid:
    """f(x) = sum_m chi(x*m) g(m); exact inverse of fourier_transform."""
    return ComplexGrid(g.spec, g.d, _apply_per_axis(_inverse_kernel(g.spec), g))


def plancherel_residual(f: ComplexGrid) -> float:
    """|sum_m |f^(m)|^2 - q^(-d) sum_x |f(x)|^2|; zero in exact arithmetic."""
    fh = fourier_transform(f)
    lhs = float(np.sum(np.abs(fh.values) ** 2))
    rhs = float(np.sum(np.abs(f.values) ** 2)) / float(f.spec.q) ** f.d
    return abs(lhs - rhs)
