"""Field construction, exact arithmetic, trace, and character identities."""

import cmath
from itertools import product

import numpy as np
import pytest

from ffdist import field
from ffdist.errors import ConfigError, DegreeOutOfRange, NonPrime, ReducibleModulus
from ffdist.field import (
    FieldSpec,
    _is_irreducible,
    _log_antilog,
    add_table,
    decode_points,
    encode_points,
    field_from_order,
    is_prime,
    make_field,
    mul_table,
    neg_table,
    pow_table,
)
from ffdist.fourier import _forward_kernel


def brute_first_irreducible_quadratic(p):
    """Oracle: scan monic quadratics x^2 + b*x + c in lex order of the
    coefficient vector (c, b, 1) and return the first with no root, checking
    by pure modular arithmetic."""
    for c in range(p):
        for b in range(p):
            if all((r * r + b * r + c) % p for r in range(p)):
                return (c, b, 1)
    raise AssertionError


def sieve(limit):
    """Primes below limit by the sieve of Eratosthenes."""
    flags = [True] * limit
    flags[:2] = [False, False]
    for f in range(2, int(limit**0.5) + 1):
        if flags[f]:
            flags[f * f :: f] = [False] * len(flags[f * f :: f])
    return [k for k, prime in enumerate(flags) if prime]


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def monic(p, degree):
    return [lower + (1,) for lower in product(range(p), repeat=degree)]


def brute_reducible(p, degree):
    """Oracle: every product of two monic polynomials of degrees >= 1
    whose degrees sum to `degree`."""
    return {
        poly_mul(f, g, p)
        for k in range(1, degree // 2 + 1)
        for f in monic(p, k)
        for g in monic(p, degree - k)
    }


def clear_table_caches():
    for build in (_log_antilog, add_table, mul_table, neg_table, pow_table):
        build.cache_clear()


SCALAR_METHODS = (
    "element", "digits", "undigits", "add", "neg", "sub", "mul", "pow", "inv", "trace",
)


class TestConstruction:
    def test_prime_field_has_no_modulus(self):
        F = make_field(7, 1)
        assert (F.p, F.n, F.q, F.modulus) == (7, 1, 7, None)

    def test_smallest_irreducible_quadratic_over_f3(self):
        # oracle: exhaustive lexicographic search by hand arithmetic
        assert brute_first_irreducible_quadratic(3) == (1, 0, 1)
        F9 = make_field(3, 2)
        assert F9.modulus == (1, 0, 1)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_smallest_quadratic_matches_oracle(self, p):
        assert make_field(p, 2).modulus == brute_first_irreducible_quadratic(p)

    def test_nonprime_rejected(self):
        with pytest.raises(NonPrime):
            make_field(4, 1)
        with pytest.raises(NonPrime):
            make_field(1, 1)

    def test_degree_out_of_range(self):
        with pytest.raises(DegreeOutOfRange, match=r"^extension degree 0 is below 1$"):
            make_field(3, 0)
        # no cap on n: x^5 + x^3 + 1 is the first irreducible quintic over F_2
        # in this order, as x^5 + 1 and x^5 + x^4 + 1 have the factors x + 1
        # and x^2 + x + 1
        F32 = make_field(2, 5)
        assert (F32.q, F32.modulus) == (32, (1, 0, 0, 1, 0, 1))

    @pytest.mark.parametrize(
        "build, order",
        [
            (lambda: make_field(1000003), "1000003"),
            (lambda: make_field(3, 13), "1594323"),
            (lambda: make_field(3, 13, (1,) * 14), "1594323"),
            (lambda: make_field(1000004), "1000004"),
            (lambda: field_from_order(100000007), "100000007"),
            (lambda: field_from_order(1000000000000000003), "1000000000000000003"),
            (lambda: field_from_order(2**40), "1099511627776"),
        ],
    )
    def test_an_oversize_field_is_refused_before_any_work(self, monkeypatch, build, order):
        def unreachable(*args, **kwargs):
            raise AssertionError("an oversize field was factored or searched")

        for name in ("_prime_factors", "is_prime", "_is_irreducible", "_smallest_irreducible"):
            monkeypatch.setattr(field, name, unreachable)
        monkeypatch.setattr(field, "_digits", unreachable)
        message = rf"^the tables of F_{order} hold \d+ entries, about [\d.]+ GiB, but this "
        with pytest.raises(ConfigError, match=message + r"machine has [\d.]+ GiB$"):
            build()

    @pytest.mark.parametrize(
        "build, order",
        [
            (lambda: make_field(2, 64), "2\\^64"),
            (lambda: make_field(3, 10**15), "3\\^1000000000000000"),  # 3^n is never raised out
            (lambda: field_from_order(10**30), "1" + "0" * 30),
        ],
    )
    def test_an_order_past_2_64_is_refused_without_being_computed(self, build, order):
        message = rf"^the tables of F_{order} hold over 2\^129 entries$"
        with pytest.raises(ConfigError, match=message):
            build()

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ReducibleModulus):
            make_field(3, 2, (0, 0, 1))  # x^2
        with pytest.raises(ReducibleModulus):
            make_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2

    def test_wrong_degree_modulus_rejected(self):
        with pytest.raises(DegreeOutOfRange):
            make_field(3, 2, (1, 0, 0, 1))
        with pytest.raises(DegreeOutOfRange):
            make_field(3, 2, (1, 0, 2))  # not monic

    def test_explicit_modulus_accepted(self):
        F = make_field(3, 2, (2, 1, 1))  # x^2 + x + 2, irreducible over F_3
        assert F.q == 9

    def test_field_from_order(self):
        assert field_from_order(9).p == 3
        assert field_from_order(8).n == 3
        with pytest.raises(NonPrime):
            field_from_order(12)
        primes = sieve(3000)
        powers = {p**n: (p, n) for p in primes for n in range(1, 12) if p**n < 3000}
        for q in range(-2, 3000):
            if q not in powers:
                with pytest.raises(NonPrime, match=rf"^q = {q} is not a prime power$"):
                    field_from_order(q)
                continue
            p, n = powers[q]
            F = field_from_order(q)
            assert (F.p, F.n, F.q) == (p, n, q)
            assert F == make_field(p, n)

    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert [n for n in range(-3, 10**4) if is_prime(n)] == sieve(10**4)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_is_irreducible_matches_the_product_oracle(self, p):
        for degree in range(1, 5):
            reducible = brute_reducible(p, degree)
            for f in monic(p, degree):
                assert _is_irreducible(f, p) == (f not in reducible), f
        assert not _is_irreducible((3,), 5) and not _is_irreducible((0, 0), 5)


class TestArithmetic:
    def test_prime_field_add(self):
        F = make_field(7)
        assert F.add(3, 5) == 1

    def test_extension_generator_square(self):
        # x * x reduces to -1 = 2 modulo x^2 + 1 (hand oracle)
        F9 = make_field(3, 2)
        x = int(encode_points(F9, (3,)))  # encoding 3 = digits (0,1) = the class of x
        assert F9.mul(3, 3) == 2

    def test_fermat_little(self):
        F = make_field(7)
        assert F.pow(3, 6) == 1

    @pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (2, 3), (2, 4), (5, 2)])
    def test_every_nonzero_element_inverts(self, p, n):
        F = make_field(p, n)
        for a in range(1, F.q):
            assert F.mul(a, F.pow(a, F.q - 2)) == 1
            assert F.mul(a, F.inv(a)) == 1

    @pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (2, 3)])
    def test_commutative_associative(self, p, n):
        F = make_field(p, n)
        for a in range(F.q):
            for b in range(F.q):
                assert F.mul(a, b) == F.mul(b, a)
                assert F.add(a, b) == F.add(b, a)
        for a in range(F.q):
            for b in range(F.q):
                for c in range(0, F.q, max(1, F.q // 4)):
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))

    def test_sub_neg_consistency(self):
        F9 = make_field(3, 2)
        for a in range(9):
            for b in range(9):
                assert F9.add(F9.sub(a, b), b) == a
        assert F9.neg(0) == 0

    def test_element_reduces_mod_q(self):
        F = make_field(7)
        assert F.element(9) == 2
        assert F.element(-1) == 6
        F9 = make_field(3, 2)
        assert F9.element(11) == 2

    def test_tables_agree_with_scalar_ops(self):
        fields = (
            make_field(2),
            make_field(7),
            make_field(13),
            make_field(3, 2, (1, 0, 1)),  # x has order 4, not 8: not primitive
            make_field(2, 4, (1, 1, 1, 1, 1)),  # x has order 5, not 15
            make_field(2, 3),
            make_field(5, 2),
        )
        assert fields[3].pow(3, 4) == 1 and fields[4].pow(2, 5) == 1
        for F in fields:
            els = range(F.q)
            assert add_table(F).tolist() == [[F.add(a, b) for b in els] for a in els]
            assert mul_table(F).tolist() == [[F.mul(a, b) for b in els] for a in els]
            # x - y = x + (-y): the tables give every difference
            assert add_table(F)[:, neg_table(F)].tolist() == [
                [F.sub(a, b) for b in els] for a in els
            ]
            assert neg_table(F).tolist() == [F.neg(a) for a in els]
            for e in (0, 1, 2, 3, F.q - 1, F.q, F.q + 1):
                assert pow_table(F, e).tolist() == [F.pow(a, e) for a in els]
            assert pow_table(F, 0)[0] == 1  # 0^0 convention

    @pytest.mark.parametrize(
        "p,n,modulus",
        [
            (2, 1, None),
            (7, 1, None),
            (101, 1, None),
            (3, 2, (1, 0, 1)),
            (2, 4, (1, 1, 1, 1, 1)),
            (7, 3, None),
            (5, 4, None),
        ],
    )
    def test_construction_never_reaches_the_scalar_methods(self, monkeypatch, p, n, modulus):
        def refuse(*args):
            raise AssertionError("a scalar FieldSpec method was called")

        clear_table_caches()
        try:
            with monkeypatch.context() as patch:
                for name in SCALAR_METHODS:
                    patch.setattr(FieldSpec, name, refuse)
                F = make_field(p, n, modulus)
                at, mt, nt = add_table(F), mul_table(F), neg_table(F)
                exps = (0, 1, 2, 3, F.q - 2, F.q - 1, F.q + 1)
                pows = {e: pow_table(F, e) for e in exps}
            # the scalar reference, now reachable again, on a spread of rows
            els = range(F.q)
            assert F.trace_table.tolist() == [F.trace(a) for a in els]
            assert nt.tolist() == [F.neg(a) for a in els]
            for a in np.linspace(0, F.q - 1, min(F.q, 9)).astype(int).tolist():
                assert at[a].tolist() == [F.add(a, b) for b in els]
                assert mt[a].tolist() == [F.mul(a, b) for b in els]
                assert at[a, nt].tolist() == [F.sub(a, b) for b in els]
            for e, table in pows.items():
                assert table.tolist() == [F.pow(a, e) for a in els]
        finally:
            clear_table_caches()

    def test_table_caches_are_bounded(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            F = make_field(p)
            add_table(F), neg_table(F), mul_table(F)
            _forward_kernel(F)
        for table in (add_table, neg_table, mul_table, _forward_kernel):
            info = table.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_tables_agree_with_scalar_ops_on_random_fields(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(
            p=st.sampled_from([2, 3, 5, 7]),
            n=st.integers(1, 3),
            lower=st.lists(st.integers(0, 6), min_size=3, max_size=3),
            data=st.data(),
        )
        def check(p, n, lower, data):
            modulus = tuple(c % p for c in lower[:n]) + (1,)
            hyp.assume(n == 1 or _is_irreducible(modulus, p))
            F = make_field(p, n, modulus)
            el = st.integers(0, F.q - 1)
            a, b = data.draw(el), data.draw(el)
            e = data.draw(st.integers(0, 2 * F.q))
            assert add_table(F)[a, b] == F.add(a, b)
            assert mul_table(F)[a, b] == F.mul(a, b)
            assert add_table(F)[a, neg_table(F)[b]] == F.sub(a, b)
            assert neg_table(F)[a] == F.neg(a)
            assert pow_table(F, e)[a] == F.pow(a, e)

        check()


def scalar_log_antilog(F):
    """Reference: the scalar orbit walk.  g is the first element whose
    powers reach all q - 1 nonzero elements; antilog lists g^0..g^(q-2)."""
    for g in range(1, F.q):
        antilog, x = [1], g
        while x != 1:
            antilog.append(x)
            x = F.mul(x, g)
        if len(antilog) == F.q - 1:
            return g, antilog
    raise AssertionError("every finite field has a primitive element")


class TestLogAntilog:
    @pytest.mark.parametrize(
        "F",
        [
            make_field(2),
            make_field(3, 2, (1, 0, 1)),  # x is not primitive
            make_field(2, 4, (1, 1, 1, 1, 1)),  # x is not primitive
            make_field(5, 4),
            make_field(7, 4),
            make_field(101),
        ],
        ids=lambda F: f"q{F.q}",
    )
    def test_matches_the_scalar_orbit_walk(self, F):
        log, antilog = _log_antilog(F)
        g, reference = scalar_log_antilog(F)
        assert antilog.tolist() == reference
        assert sorted(antilog.tolist()) == list(range(1, F.q))
        steps = antilog.tolist()[1:] + [1]
        assert steps == [F.mul(a, g) for a in antilog.tolist()]
        assert log[antilog].tolist() == list(range(F.q - 1))


class TestTrace:
    def test_identity_on_prime_field(self):
        F = make_field(11)
        for a in range(11):
            assert F.trace(a) == a

    def test_f9_generator_trace_zero(self):
        # x + x^3 = x - x = 0 once x^2 = -1
        F9 = make_field(3, 2)
        assert F9.trace(3) == 0

    def test_f9_trace_of_one(self):
        assert make_field(3, 2).trace(1) == 2

    @pytest.mark.parametrize("p,n", [(3, 2), (2, 3), (5, 2)])
    def test_linearity(self, p, n):
        F = make_field(p, n)
        for a in range(F.q):
            for b in range(F.q):
                assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % p
            for lam in range(p):
                assert F.trace(F.mul(lam, a)) == (lam * F.trace(a)) % p

    def test_trace_lands_in_prime_subfield(self):
        F = make_field(2, 4)
        for a in range(F.q):
            assert 0 <= F.trace(a) < 2


class TestCharacter:
    def test_chi_zero_is_one(self):
        assert make_field(7).char_table[0] == 1

    def test_prime_field_chi_is_root_of_unity(self):
        F = make_field(7)
        assert abs(F.char_table[1] - cmath.exp(2j * cmath.pi / 7)) < 1e-12

    def test_sum_over_field_vanishes(self):
        F9 = make_field(3, 2)
        assert abs(sum(F9.char_table[a] for a in range(9))) < 1e-9

    @pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (2, 3), (13, 1)])
    def test_unit_modulus(self, p, n):
        F = make_field(p, n)
        assert np.max(np.abs(np.abs(F.char_table) - 1.0)) < 1e-12

    @pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (2, 3)])
    def test_multiplicative(self, p, n):
        F = make_field(p, n)
        for a in range(F.q):
            for b in range(F.q):
                assert abs(F.char_table[F.add(a, b)] - F.char_table[a] * F.char_table[b]) < 1e-12

    @pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (11, 1)])
    def test_orthogonality_for_every_scaling(self, p, n):
        F = make_field(p, n)
        for c in range(1, F.q):
            total = sum(F.char_table[F.mul(c, a)] for a in range(F.q))
            assert abs(total) < 1e-9 * F.q


class TestEncoding:
    def test_roundtrip(self):
        F = make_field(5)
        for idx in range(125):
            assert encode_points(F, decode_points(F, idx, 3)) == idx

    def test_first_coordinate_is_fastest(self):
        F = make_field(5)
        assert decode_points(F, 1, 3).tolist() == [1, 0, 0]
        assert decode_points(F, 5, 3).tolist() == [0, 1, 0]
        assert encode_points(F, (0, 0, 1)) == 25
