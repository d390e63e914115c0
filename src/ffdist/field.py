"""Exact arithmetic in F_q = F_{p^n} and its canonical additive character.

Field elements are plain integers in [0, q): the base-p digits of the
encoding are the coefficients of the residue polynomial, constant term
first.  That representation gives O(1) table indexing and a canonical
total order, which the dense grid kernels rely on.  A FieldSpec is
immutable after construction and safe to share across workers; every
operation is pure.

The scalar FieldSpec methods are the reference.  The operation tables share
one vectorized path for every q: addition is digit-wise mod p with no carries,
products and powers go through log/antilog arrays of the smallest primitive
element g.  The antilog comes by F_p-linear doubling: multiplication by g^k
is an n x n matrix over F_p acting on base-p digits, so each block of powers
is the previous block times one such matrix.

The additive character chi(a) = exp(2*pi*i * Tr(a) / p) is tabulated once
per field; all downstream sum kernels index the table instead of calling
transcendental functions.  The trace table comes by F_p-linearity: the
traces of the n basis elements x^i, dotted with each element's base-p
digits, mod p.  The scalar per-element `trace` is the independent
reference that only `field-check` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as _iter_product

import numpy as np

from .errors import DegreeOutOfRange, NonPrime, ReducibleModulus

MAX_EXTENSION_DEGREE = 4


def is_prime(p: int) -> bool:
    """Trial division; fields here are desk-scale so this is plenty."""
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


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


def _has_root(coeffs, p) -> bool:
    for r in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * r + c) % p
        if acc == 0:
            return True
    return False


def _is_irreducible(coeffs, p) -> bool:
    """Exhaustive factor search; degree <= 4 keeps this cheap."""
    n = _poly_degree(coeffs)
    if n <= 0:
        return False
    if n == 1:
        return True
    if _has_root(coeffs, p):
        return False
    if n <= 3:
        return True
    # degree 4 with no roots: a factorization must use two quadratics
    for b in range(p):
        for c in range(p):
            if not any(_poly_rem(coeffs, (c, b, 1), p)):
                return False
    return True


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
        if self.n == 1:
            return (a + b) % self.p
        p = self.p
        return self.undigits([(x + y) % p for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        if self.n == 1:
            return (-a) % self.p
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
        if self.n == 1:
            return a % self.p
        acc, b = a, a
        for _ in range(self.n - 1):
            b = self.pow(b, self.p)
            acc = self.add(acc, b)
        assert acc < self.p, "trace left the prime subfield"
        return acc

    def chi(self, a: int) -> complex:
        return complex(self.char_table[a])


def make_field(p: int, n: int = 1, modulus=None) -> FieldSpec:
    """Build F_{p^n}, selecting the lexicographically smallest monic
    irreducible modulus when one is not supplied (n > 1)."""
    if not is_prime(p):
        raise NonPrime(f"p = {p} is not prime")
    if not 1 <= n <= MAX_EXTENSION_DEGREE:
        raise DegreeOutOfRange(f"extension degree {n} outside 1..{MAX_EXTENSION_DEGREE}")
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
    spec = FieldSpec(p=p, n=n, q=p**n, modulus=mod)
    digits, places = _digits(spec)  # Tr is F_p-linear: n basis traces fix it
    traces = digits @ np.array([spec.trace(int(b)) for b in places]) % p
    object.__setattr__(spec, "trace_table", _frozen(traces))
    object.__setattr__(spec, "char_table", np.exp((2j * math.pi / p) * traces))
    return spec


def field_from_order(q: int) -> FieldSpec:
    """Resolve a prime power q = p^n into a field (smallest prime factor wins)."""
    if q < 2:
        raise NonPrime(f"q = {q} is not a prime power")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    n, rem = 0, q
    while rem % p == 0:
        rem //= p
        n += 1
    if rem != 1:
        raise NonPrime(f"q = {q} is not a prime power")
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


def _prime_factors(m: int) -> list[int]:
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    return out + [m] if m > 1 else out


@lru_cache(maxsize=8)
def _log_antilog(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """log (q,) and antilog (q-1,) arrays of the smallest primitive element.

    g is primitive iff g^((q-1)/r) != 1 for every prime r | q-1.  The powers
    g^0..g^(q-2) come by doubling: multiplication by c is F_p-linear on
    base-p digit rows, with the digits of c*x^i as row i of its matrix, so
    the digit rows of g^L..g^(2L-1) are those of g^0..g^(L-1) times the
    matrix of c = g^L, mod p.
    """
    q, p = spec.q, spec.p
    cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
    g = next(g for g in range(1, q) if all(spec.pow(g, e) != 1 for e in cofactors))
    digits, places = _digits(spec)
    block, c = digits[1:2], g  # digit rows of g^0, and c = g^len(block)
    while len(block) < q - 1:
        mult = digits[[spec.mul(c, int(b)) for b in places]]  # row i: digits of c*x^i
        block = np.concatenate([block, block @ mult % p])
        c = spec.mul(c, c)
    antilog = block[: q - 1] @ places
    log = np.zeros(q, dtype=np.int64)
    log[antilog] = np.arange(q - 1)
    return _frozen(log), _frozen(antilog)


@lru_cache(maxsize=8)
def add_table(spec: FieldSpec) -> np.ndarray:
    digits, places = _digits(spec)
    t = np.zeros((spec.q, spec.q), dtype=np.int64)
    for dk, place in zip(digits.T, places):
        t += (dk[:, None] + dk[None, :]) % spec.p * place
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


@lru_cache(maxsize=8)
def sub_table(spec: FieldSpec) -> np.ndarray:
    return _frozen(np.ascontiguousarray(add_table(spec)[:, neg_table(spec)]))


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


def decode_point(spec: FieldSpec, idx: int, d: int) -> tuple[int, ...]:
    return tuple(int(c) for c in decode_points(spec, np.array([idx]), d)[0])


def encode_point(spec: FieldSpec, coords) -> int:
    return int(encode_points(spec, np.asarray(coords, dtype=np.int64)))


@lru_cache(maxsize=8)
def grid_coordinates(spec: FieldSpec, d: int) -> np.ndarray:
    """(q^d, d) coordinates of every point, in encoding order."""
    return _frozen(decode_points(spec, np.arange(spec.q**d, dtype=np.int64), d))
