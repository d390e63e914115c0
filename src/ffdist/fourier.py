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
numpy's complex fftn at q = 61, d = 3, 42 against 129 ms at q = 101,
d = 3, and 2.0 against 3.1 ms at q = 211, d = 2 (best of 5).

`_passes` is that loop and the one place a pass is computed.  It runs
any number of passes from any flat operand and writes into buffers the
caller may own, so the fiber spectra of `varieties._fiber_spectra` run
part of a transform on a shared table and the rest per fiber, with
every product shaped and laid out as in a whole transform.

Both directions share one kernel K[m, x] = chi(-x*m): the inverse pass
reads its output rows at -x, which leaves every value bit for bit as a
kernel of its own would.

`_passes` is also the one transform of the package.  Counting's
difference convolution (`distances._convolution_counts`) transforms real
grids and needs a real result, so it runs on half the spectrum:
`_half_rows` picks the rows m_1 <= -m_1, `_real_forward` does the first
forward pass as one real product against those columns of the kernel
and the rest as complex passes on the half grid, and `_real_inverse`
runs the inverse passes of `_passes` over m_2, ..., m_d and sums m_1 as
one real product that keeps only the real part.  The pinned convolution
keeps whole spectra, as its fiber spectra come from `_passes`.

How work uses the machine is decided here, and only here:
- `_workers()` is the number of CPUs this process may use: those it may
  run on, but no more than its cgroup's CPU quota allows
  (`field._cpu_quota`), and at least one.
- `_column_ranges` splits the output columns of a pass into at most that
  many ranges, with bounds at multiples of `_RANGE_COLUMNS`, where the
  column blocks of the whole product start; a column is then computed
  alike in any range.
- `_run_all` runs one job over each of those ranges, the first on the
  calling thread and each other on a thread of its own, and joins them
  all.  Decay's fiber peaks (`varieties._fiber_peaks`) run one range of
  their last pass a worker, and the direct phase table
  (`varieties._direct_phase_table`) one range of its columns of m;
  neither moves a bit with the number of workers.
- A worker receives every table from its caller and calls no public
  function, so the one span stack of a traced run sees the same spans
  at any worker count.
- `_one_blas_thread` caps the OpenBLAS that numpy bundles at one thread
  over one process-wide scope: the first region in saves the count, the
  last one out restores it, so overlapping regions on several threads
  keep the cap until all are done.  With numpy's two threads on a 2-core
  host, `pinned --q 71 --d 2 --poly x1^2+x2^2 --setE all --setF all`
  took 0.95-1.08 s in 4 of 16 fresh processes started after 2 s idle,
  against 0.03-0.04 s in the rest: OpenBLAS hands products far too small
  to share to its second thread.  With one thread, 8 of 8 such runs read
  0.027-0.046 s.  The difference convolution, the fiber spectra that
  the pinned convolution reads, decay's fiber peaks and `phase`'s
  self-check (`varieties._factored_table_error`) run under the cap, so
  their bits are the one-thread bits at any thread count; decay's peaks
  use the other cores through workers instead.  Whole transforms keep
  numpy's own thread count, which is faster for some shapes: a warm
  in-process `fourier-check --q 211 --d 2 --trials 5` took 55-59 ms at
  two threads and 77-80 ms at one, and `--q 61 --d 3` 216-218 against
  285-292 ms (medians of 9, two rounds).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .field import FieldSpec, _cpu_quota, mul_table, neg_table


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
    values, which moves decay's argmax_m among ties.  A buffer is a
    C-contiguous complex128 array of values.size entries, or None for a
    fresh one, made once.  Without `rows`, pass i writes into bufs[i % 2]
    and the result is a flat view of the last buffer written.  `rows`
    reorders each output axis, K[-x, m] = chi(x*m) giving the inverse
    pass: every pass writes its product into bufs[0] and the reordered
    rows into bufs[1], where the result lands, so bufs=(scratch, values)
    runs the inverse in place with one scratch grid."""
    kernel, q = _forward_kernel(spec), spec.q
    bufs = [None if b is None else b.reshape(q, -1) for b in bufs]
    arr = values
    for _ in range(n):
        arr = np.matmul(kernel, arr.reshape(-1, q).T, out=bufs[0])
        if rows is None:
            bufs.reverse()
        else:
            # every index is in range; mode="raise" would gather through a copy of out=
            bufs = [arr, np.take(arr, rows, axis=0, out=bufs[1], mode="clip")]
            arr = bufs[1]
    return arr.reshape(-1)


def _half_rows(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(R, w): R the m with m <= -m in encoding order, (q + 1)/2 of them
    for odd p and all q for p = 2, where -m = m; w is 2 where m != -m and
    1 where m = -m.  A grid g with g(-m) = conj(g(m)) has its sum over all
    m equal to the real part of the w-weighted sum over m_1 in R."""
    neg = neg_table(spec)
    rows = np.flatnonzero(np.arange(spec.q) <= neg)
    return rows, np.where(neg[rows] == rows, 1.0, 2.0)


def _real_forward(spec: FieldSpec, real: np.ndarray, d: int, rows: np.ndarray) -> np.ndarray:
    """The d unnormalized forward passes of the real flat grid `real` at
    the m with m_1 in `rows`, laid out C order over (m_1 in rows, m_d, ...,
    m_2): the rest follow as conj(f^(-m)).

    The first pass is one real product, the grid as a (q^(d-1), q) float
    array times K[:, rows] read as (q, 2|rows|) floats, which leaves
    (x_d, ..., x_2, m_1) as complex values; each later pass contracts the
    first axis and puts its output axis last (K is symmetric), two half
    grids in turn."""
    kernel, q = _forward_kernel(spec), spec.q
    half = np.ascontiguousarray(kernel[:, rows])
    arr = (real.reshape(-1, q) @ half.view(np.float64)).view(np.complex128)
    bufs = [np.empty_like(arr), arr] if d > 1 else []
    for _ in range(d - 1):
        arr = np.matmul(arr.reshape(q, -1).T, kernel, out=bufs[0].reshape(-1, q))
        bufs.reverse()
    return arr.reshape(-1)


def _real_inverse(spec: FieldSpec, half: np.ndarray, d: int, rows: np.ndarray) -> np.ndarray:
    """Re sum_m chi(x*m) g(m) at every x, flat, from g on the m with m_1 in
    `rows`, laid out as _real_forward lays it out; `half` is overwritten.

    The d - 1 inverse passes of `_passes` contract m_2, ..., m_d in place
    and leave (x_d, ..., x_2, m_1); one real product then sums m_1: the
    complex values read as (q^(d-1), 2|rows|) floats times [Re K[rows];
    Im K[rows]] interleaved, Re(g chi(x_1*m_1)) as K[m, x] = conj chi(x*m)."""
    kernel, q = _forward_kernel(spec), spec.q
    if d > 1:  # at d = 1 the half grid is already (m_1)
        half = _passes(spec, half, d - 1, bufs=(None, half), rows=neg_table(spec))
    k = kernel[rows]
    lift = np.stack((k.real, k.imag), axis=1).reshape(-1, q)
    return (half.reshape(-1, len(rows)).view(np.float64) @ lift).reshape(-1)


@lru_cache(maxsize=1)
def _blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles,
    found on first use, or None where the library or its symbols are
    missing."""
    import ctypes
    from pathlib import Path

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # the loaded copy, not a second one
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


# The BLAS thread count is process state, so the cap's scope is too.
_blas_cap_lock = threading.Lock()
_blas_regions = 0  # regions of _one_blas_thread open, on any thread
_blas_saved = None  # the count that the first region in found


@contextmanager
def _one_blas_thread():
    """Run the block's products on one BLAS thread, also when the block
    raises; where the thread count cannot be reached, the products run as
    numpy would run them.  Regions share one process-wide scope: the first
    region in, on any thread, saves the count and sets it to 1, and the
    last one out restores it.  Yields whether the count was set."""
    calls = _blas_thread_calls()
    if calls is None:
        yield False
        return
    global _blas_regions, _blas_saved
    get, put = calls
    with _blas_cap_lock:
        if not _blas_regions:
            _blas_saved = get()
            put(1)
        _blas_regions += 1
    try:
        yield True
    finally:
        with _blas_cap_lock:
            _blas_regions -= 1
            if not _blas_regions:
                put(_blas_saved)


# Column-range bounds of a pass fall at multiples of this, so a range
# starts on a column block boundary of the whole product (at 1, 2, 3 and
# 5 ranges every decay peak is the one-range bits, F_17^5 to F_61^3).
_RANGE_COLUMNS = 64


def _column_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    """Up to `workers` ranges that partition 0:n, each at least
    _RANGE_COLUMNS wide, with every bound but n a multiple of it and each
    bound as near an even split as those rules allow; the last range keeps
    the tail past the last whole block.  n < 2*_RANGE_COLUMNS is one range."""
    blocks = n // _RANGE_COLUMNS
    k = max(1, min(workers, blocks))
    cuts = [min(max(round(n * i / (_RANGE_COLUMNS * k)), i), blocks - k + i) for i in range(1, k)]
    bounds = [0] + [_RANGE_COLUMNS * c for c in cuts] + [n]
    return list(zip(bounds, bounds[1:]))


def _workers() -> int:
    """The CPUs this process may use: those it may run on, but no more
    than its cgroup's CPU quota allows, and at least one."""
    cpus, quota = len(os.sched_getaffinity(0)), _cpu_quota()
    return max(1, min(cpus, quota or cpus))


def _run_all(job, ranges):
    """[job(lo, hi) for lo, hi in ranges], the first range on the calling
    thread and every other on a thread of its own.  Every thread is joined
    before the first exception raised, if any, is raised again on the
    caller."""
    results, errors = [None] * len(ranges), []

    def run(i):
        try:
            results[i] = job(*ranges[i])
        except BaseException as exc:  # re-raised on the caller below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(ranges))]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


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
    return _energy_residual(f, fourier_transform(f))


def _energy_residual(f: ComplexGrid, f_hat: ComplexGrid) -> float:
    """plancherel_residual of f, given its transform f_hat."""
    lhs = float(np.sum(np.abs(f_hat.values) ** 2))
    rhs = float(np.sum(np.abs(f.values) ** 2)) / float(f.spec.q) ** f.d
    return abs(lhs - rhs)
