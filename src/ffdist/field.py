"""Exact arithmetic in F_q = F_{p^n} and its canonical additive character.

Field elements are plain integers in [0, q): the base-p digits of the
encoding are the coefficients of the residue polynomial, constant term
first.  That gives O(1) table indexing and a canonical total order, which
the dense grid kernels rely on.  A FieldSpec is immutable after
construction and safe to share across workers; every operation is pure.

Construction and every table work on base-p digit rows.  Row i of the
companion matrix X of the modulus holds the digits of x * x^i, so
multiplication by c = sum_k c_k x^k is the matrix sum_k c_k X^k, mod p.
Addition is digit-wise mod p; products and powers go through the
log/antilog of the smallest primitive element; Tr(a) is the trace of the
matrix of a, so the trace table needs only tr(X^i).  The scalar FieldSpec
methods are the independent reference, which nothing here calls while
building: the tests and `field-check` compare the tables with them.  The
character table chi(a) = exp(2*pi*i * Tr(a) / p) is built once per field,
and every sum kernel indexes it.

One size rule decides which fields exist, _require_tables_fit: the q x q
add and mul tables must fit in memory.  It runs before any other work.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as _iter_product

import numpy as np

from .errors import ConfigError, DegreeOutOfRange, NonPrime, ReducibleModulus


def _require_memory(need: int, holds: str):
    """Refuse a request whose peak bytes `need` exceed this machine's
    physical memory, before anything is built.  `holds` says what the
    request holds."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"{holds}, about {need / 2**30:.1f} GiB, "
            f"but this machine has {have / 2**30:.1f} GiB"
        )


def _require_tables_fit(p: int, n: int = 1) -> int:
    """q = p^n, once its q x q add and mul tables (16 q^2 bytes) fit in
    memory.  No memory comes near them from q = 2^64 on, so such a q is
    refused before p is raised to n."""
    if (abs(p).bit_length() - 1) * n >= 64:
        order = p if n == 1 else f"{p}^{n}"
        raise ConfigError(f"the tables of F_{order} hold over 2^129 entries")
    q = p**n
    _require_memory(16 * q**2, f"the tables of F_{q} hold {2 * q**2} entries")
    return q


def _prime_factors(m: int) -> dict[int, int]:
    """{prime: exponent} of m, {} for m < 2.  The one trial division here;
    fields are desk-scale, so this is plenty."""
    out, f = {}, 2
    while f * f <= m:
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += 1
    if m > 1:
        out[m] = 1  # the rest has no factor below its square root
    return out


def is_prime(p: int) -> bool:
    return _prime_factors(p) == {p: 1}


# ---------------------------------------------------------------------------
# Modulus polynomials over F_p: coefficient tuples, constant term first.

def _poly_degree(coeffs) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return -1


def _poly_rem(num, den, p):
    """Remainder of num modulo den over F_p; den must be monic."""
    num = list(num)
    dd = _poly_degree(den)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            for j in range(dd + 1):
                num[k - dd + j] = (num[k - dd + j] - c * den[j]) % p
    return num[:dd]


def _is_irreducible(coeffs, p) -> bool:
    """No monic divisor of degree 1..n//2.  The table rule keeps the search
    cheap: p^(n/2) <= q^(1/2), at most (memory / 16)^(1/4) divisors."""
    n = _poly_degree(coeffs)
    return n > 0 and all(
        any(_poly_rem(coeffs, lower + (1,), p))
        for k in range(1, n // 2 + 1)
        for lower in _iter_product(range(p), repeat=k)
    )


def _smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n, coefficient vectors ordered
    lexicographically from the constant term upward."""
    for lower in _iter_product(range(p), repeat=n):
        coeffs = lower + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("irreducible polynomial of every degree exists over F_p")


# ---------------------------------------------------------------------------
# The field itself.

@dataclass(frozen=True)
class FieldSpec:
    """A finite field F_{p^n} plus its precomputed trace and character tables.

    Elements are integer encodings in [0, q); base-p digits of the
    encoding are the residue-polynomial coefficients, constant first.
    """

    p: int
    n: int
    q: int
    modulus: tuple[int, ...] | None
    char_table: np.ndarray = field(default=None, compare=False, repr=False)
    trace_table: np.ndarray = field(default=None, compare=False, repr=False)

    # -- encoding helpers --

    def element(self, k: int) -> int:
        """Canonical element for an integer: k reduced mod q, read as an encoding."""
        return k % self.q

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.n):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def undigits(self, ds) -> int:
        acc = 0
        for c in reversed(ds):
            acc = acc * self.p + c
        return acc

    # -- exact scalar arithmetic --

    def add(self, a: int, b: int) -> int:
        p = self.p
        return self.undigits([(x + y) % p for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        p = self.p
        return self.undigits([(-x) % p for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a * b) % self.p
        p, n = self.p, self.n
        da, db = self.digits(a), self.digits(b)
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
        return self.undigits(_poly_rem(conv, self.modulus, p))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        acc, base = self.element(1), a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.q - 2)

    # -- trace and character --

    def trace(self, a: int) -> int:
        """Tr(a) = a + a^p + ... + a^(p^(n-1)), landing in the prime subfield."""
        acc, b = a, a
        for _ in range(self.n - 1):
            b = self.pow(b, self.p)
            acc = self.add(acc, b)
        assert acc < self.p, "trace left the prime subfield"
        return acc


def make_field(p: int, n: int = 1, modulus=None) -> FieldSpec:
    """Build F_{p^n}, selecting the lexicographically smallest monic
    irreducible modulus when one is not supplied (n > 1).  A field whose
    tables cannot fit is refused first."""
    if n < 1:
        raise DegreeOutOfRange(f"extension degree {n} is below 1")
    q = _require_tables_fit(p, n)
    if not is_prime(p):
        raise NonPrime(f"p = {p} is not prime")
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise DegreeOutOfRange(f"modulus must be monic of degree {n}")
        if n > 1 and not _is_irreducible(mod, p):
            raise ReducibleModulus(f"{mod} is reducible over F_{p}")
    else:
        mod = _smallest_irreducible(p, n) if n > 1 else None
    if n == 1:
        mod = None  # a degree-1 modulus carries no information
    spec = FieldSpec(p=p, n=n, q=q, modulus=mod)
    digits, _ = _digits(spec)  # Tr is F_p-linear: Tr(x^i) = tr(X^i) fixes it
    traces = digits @ np.trace(_basis_matrices(spec), axis1=1, axis2=2) % p
    object.__setattr__(spec, "trace_table", _frozen(traces))
    object.__setattr__(spec, "char_table", np.exp((2j * math.pi / p) * traces))
    return spec


def field_from_order(q: int) -> FieldSpec:
    """Resolve a prime power q = p^n into a field (smallest prime factor
    wins).  A q whose tables cannot fit is refused before it is factored."""
    _require_tables_fit(q)
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise NonPrime(f"q = {q} is not a prime power")
    [(p, n)] = factors.items()
    return make_field(p, n)


# ---------------------------------------------------------------------------
# Vectorized operation tables (cached per field, bounded, immutable once built).

def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _digits(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(q, n) base-p digits of every encoding, and the (n,) place values."""
    places = spec.p ** np.arange(spec.n, dtype=np.int64)
    return np.arange(spec.q, dtype=np.int64)[:, None] // places % spec.p, places


def _companion(spec: FieldSpec) -> np.ndarray:
    """(n, n) matrix X of multiplication by x: row i holds the digits of
    x * x^i mod the modulus, so the last row is x^n = -(a_0 + ... + a_{n-1}
    x^(n-1)).  For n = 1 only X^0 is ever read."""
    X = np.eye(spec.n, k=1, dtype=np.int64)
    if spec.modulus:
        X[-1] = np.negative(spec.modulus[:-1]) % spec.p
    return X


def _basis_matrices(spec: FieldSpec) -> np.ndarray:
    """(n, n, n) matrices X^0..X^(n-1) of multiplication by the basis x^i."""
    X, out = _companion(spec), [np.eye(spec.n, dtype=np.int64)]
    for _ in range(1, spec.n):
        out.append(out[-1] @ X % spec.p)
    return np.stack(out)


def _matrix_power(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p, by squaring."""
    acc = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            acc = acc @ m % p
        m = m @ m % p
        e >>= 1
    return acc


@lru_cache(maxsize=8)
def _log_antilog(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """log (q,) and antilog (q-1,) arrays of the smallest primitive element.

    The matrix of c = sum_k c_k x^k is sum_k c_k X^k; digit rows times it
    are the digit rows of the products with c.  g is primitive iff
    g^((q-1)/r) != 1 for every prime r | q-1, tested as matrix powers.
    The digit rows of g^L..g^(2L-1) are those of g^0..g^(L-1) times the
    matrix of g^L, whose square is the next one.
    """
    q, p = spec.q, spec.p
    digits, places = _digits(spec)
    mats = np.tensordot(digits, _basis_matrices(spec), axes=1) % p  # (q, n, n)
    unit = np.eye(spec.n, dtype=np.int64)
    cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
    g = next(
        g for g in range(1, q)
        if all((_matrix_power(mats[g], e, p) != unit).any() for e in cofactors)
    )
    block, mult = digits[1:2], mats[g]  # digit rows of g^0; the matrix of g^len(block)
    while len(block) < q - 1:
        block = np.concatenate([block, block @ mult % p])
        mult = mult @ mult % p
    antilog = block[: q - 1] @ places
    log = np.zeros(q, dtype=np.int64)
    log[antilog] = np.arange(q - 1)
    return _frozen(log), _frozen(antilog)


@lru_cache(maxsize=8)
def add_table(spec: FieldSpec) -> np.ndarray:
    """Addition is digitwise mod p: the table of the low k+1 digits puts the
    p x p digit table on the top digit and the table of the low k below it."""
    p = spec.p
    one = np.add.outer(np.arange(p, dtype=np.int64), np.arange(p)) % p
    t, size = one, p
    for _ in range(1, spec.n):
        t = (one[:, None, :, None] * size + t[None, :, None, :]).reshape(p * size, p * size)
        size *= p
    return _frozen(t)


@lru_cache(maxsize=8)
def mul_table(spec: FieldSpec) -> np.ndarray:
    log, antilog = _log_antilog(spec)
    t = np.zeros((spec.q, spec.q), dtype=np.int64)
    t[1:, 1:] = antilog[(log[1:, None] + log[None, 1:]) % (spec.q - 1)]
    return _frozen(t)


@lru_cache(maxsize=8)
def neg_table(spec: FieldSpec) -> np.ndarray:
    digits, places = _digits(spec)
    return _frozen((-digits % spec.p) @ places)


@lru_cache(maxsize=64)
def pow_table(spec: FieldSpec, e: int) -> np.ndarray:
    """a -> a^e for every encoding a, with the convention 0^0 = 1."""
    if e < 0:
        raise ValueError("pow_table requires e >= 0")
    log, antilog = _log_antilog(spec)
    t = antilog[e % (spec.q - 1) * log % (spec.q - 1)]  # log[0] = 0 sets 0^0 = 1
    t[0] = int(e == 0)
    return _frozen(t)


# ---------------------------------------------------------------------------
# Point encoding on F_q^d: index(x) = sum_j enc(x_j) * q^(j-1).

def decode_points(spec: FieldSpec, idx, d: int) -> np.ndarray:
    """(N,) flat indices -> (N, d) coordinate encodings."""
    rem = np.asarray(idx, dtype=np.int64).copy()
    out = np.empty(rem.shape + (d,), dtype=np.int64)
    for j in range(d):
        out[..., j] = rem % spec.q
        rem //= spec.q
    return out

def encode_points(spec: FieldSpec, coords) -> np.ndarray:
    """(..., d) coordinate encodings -> (...,) flat indices."""
    coords = np.asarray(coords, dtype=np.int64)
    enc = np.zeros(coords.shape[:-1], dtype=np.int64)
    w = 1
    for j in range(coords.shape[-1]):
        enc += coords[..., j] * w
        w *= spec.q
    return enc
