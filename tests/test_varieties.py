"""Polynomial parsing/evaluation, fiber enumeration, decay spectra,
exceptional sets, and character sums."""

import math

import numpy as np
import pytest

from ffdist.errors import (
    ArityMismatch,
    DimensionMismatch,
    PolynomialSyntaxError,
    VariableOutOfRange,
    ZeroPolynomial,
)
from ffdist.field import _is_irreducible, decode_points, field_from_order, make_field
from ffdist.distances import product_set_experiment
from ffdist.fourier import ComplexGrid, fourier_transform
from ffdist.harness import ExperimentConfig, run
from ffdist import characteristic_divides_exponent, varieties
from ffdist.varieties import (
    DIAGONAL,
    PointSet,
    _direct_phase_table,
    _dot_with_grid,
    _fiber_peaks,
    _phase_rows,
    _phase_table,
    _scaling_cosets,
    decay_spectrum,
    diagonal_polynomial,
    exceptional_set,
    full_grid,
    make_polynomial,
    parse_polynomial,
    phase_sum,
    split_fibers,
    value_grid,
    variety,
    weil_sum,
)

from oracles import (
    evaluate,
    factored_phase_sum,
    fiber_peaks_by_phase_identity,
    per_fiber_peaks,
)

F5 = make_field(5)
F7 = make_field(7)
F13 = make_field(13)


class TestParser:
    def test_sum_of_squares(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        assert P.kind == "diagonal"
        assert set(P.terms) == {(1, (2, 0)), (1, (0, 2))}

    def test_coefficient_reduces(self):
        P = parse_polynomial("9*x1^3 + x2^2", F7, 2)
        assert (2, (3, 0)) in P.terms

    def test_variable_index_is_one_based(self):
        with pytest.raises(VariableOutOfRange):
            parse_polynomial("x0^2", F7, 2)
        with pytest.raises(VariableOutOfRange):
            parse_polynomial("x3", F7, 2)

    def test_minus_negates_coefficient(self):
        P = parse_polynomial("x1^2 - x2^2", F7, 2)
        assert set(P.terms) == {(1, (2, 0)), (6, (0, 2))}
        assert P.kind == "diagonal"

    def test_like_terms_merge(self):
        P = parse_polynomial("x1 + 2*x1 + x2", F7, 2)
        assert (3, (1, 0)) in P.terms

    def test_cancellation_raises(self):
        with pytest.raises(ZeroPolynomial):
            parse_polynomial("7*x1", F7, 1)
        with pytest.raises(ZeroPolynomial):
            parse_polynomial("x1 + 6*x1", F7, 1)

    @pytest.mark.parametrize("bad", ["", "x1^", "2x1", "x1**2", "x1^2 *", "y1", "x1^0"])
    def test_syntax_errors(self, bad):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(bad, F7, 2)

    def test_whitespace_ignored(self):
        a = parse_polynomial("  x1 ^2+ 3 * x2 ", F7, 2)
        b = parse_polynomial("x1^2+3*x2", F7, 2)
        assert a == b

    def test_kind_general_when_variable_missing(self):
        assert parse_polynomial("x1^2", F7, 2).kind == "general"
        assert parse_polynomial("x1^2 + x1", F7, 1).kind == "general"

    def test_degree(self):
        assert parse_polynomial("x1^3 + x2^2", F7, 2).degree == 3


class TestEvaluate:
    def test_diagonal_vanishes_at_origin(self):
        P = parse_polynomial("3*x1^4 + x2^2", F7, 2)
        assert evaluate(P, (0, 0)) == 0

    def test_point_value(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        assert evaluate(P, (1, 2)) == 5

    def test_cube_over_f5(self):
        P = parse_polynomial("x1^3", F5, 1)
        assert evaluate(P, (2,)) == 3

    def test_arity_mismatch(self):
        P = parse_polynomial("x1^2", F7, 1)
        with pytest.raises(ArityMismatch):
            evaluate(P, (1, 2))

    def test_value_grid_matches_pointwise_evaluation(self):
        P = parse_polynomial("2*x1^3 + x2^2 + x1", F5, 2)
        vg = value_grid(P)
        for idx in range(25):
            assert vg[idx] == evaluate(P, decode_points(F5, idx, 2).tolist())

    @pytest.mark.parametrize(
        "F, d, terms",
        [
            (F5, 3, [(1, (1, 1, 1)), (3, (0, 0, 0))]),  # x1*x2*x3 + 3
            (F7, 3, [(2, (0, 2, 0)), (1, (0, 0, 0))]),  # 2*x2^2 + 1: x1, x3 absent
            (make_field(3, 2, (1, 0, 1)), 2, [(5, (2, 1)), (7, (0, 3)), (2, (0, 0))]),
            (make_field(2, 4, (1, 1, 1, 1, 1)), 3, [(9, (1, 0, 2)), (3, (0, 1, 0))]),
            (F13, 1, [(4, (5,)), (1, (0,))]),
        ],
    )
    def test_value_grid_mixed_terms_match_pointwise_evaluation(self, F, d, terms):
        P = make_polynomial(F, d, terms)
        vg = value_grid(P)
        assert vg.shape == (F.q**d,) and vg.dtype == np.int64
        assert vg.tolist() == [evaluate(P, decode_points(F, i, d).tolist()) for i in range(F.q**d)]

    def test_value_grid_matches_evaluate_on_random_fields_and_polynomials(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        fixed = [make_field(3, 2, (1, 0, 1)), make_field(2, 4, (1, 1, 1, 1, 1))]

        @hyp.settings(max_examples=30, deadline=None)
        @hyp.given(d=st.integers(1, 3), data=st.data())
        def check(d, data):
            if data.draw(st.booleans()):
                F = data.draw(st.sampled_from(fixed))
            else:
                p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 101]))
                n = data.draw(st.integers(1, 3 if p < 101 else 1))
                lower = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
                modulus = tuple(lower) + (1,)
                hyp.assume(n == 1 or _is_irreducible(modulus, p))
                F = make_field(p, n, modulus)
            hyp.assume(F.q**d <= 40000)
            exps = st.lists(st.integers(0, 4), min_size=d, max_size=d)
            terms = data.draw(
                st.lists(st.tuples(st.integers(0, F.q - 1), exps), min_size=1, max_size=4)
            )
            try:
                P = make_polynomial(F, d, terms)
            except ZeroPolynomial:
                hyp.reject()
            vg = value_grid(P)
            N = F.q**d
            if N <= 4096:
                points = range(N)
            else:
                points = data.draw(st.lists(st.integers(0, N - 1), min_size=200, max_size=200))
            assert [int(vg[i]) for i in points] == [
                evaluate(P, decode_points(F, i, d).tolist()) for i in points
            ]

        check()

    def test_value_grid_cache_is_bounded(self):
        misses, bound = value_grid.cache_info().misses, value_grid.cache_info().maxsize
        polys = [
            parse_polynomial(f"x1^{a} + {c}*x2", F13, 2) for a in range(1, 5) for c in range(1, 13)
        ]
        assert len(set(polys)) > bound
        for P in polys:
            value_grid(P)
        info = value_grid.cache_info()
        assert info.misses - misses == len(polys)
        assert info.currsize <= bound


def brute_circle_count(p, t):
    """Oracle: pure modular arithmetic count of x^2 + y^2 = t over F_p."""
    return sum(1 for x in range(p) for y in range(p) if (x * x + y * y) % p == t)


class TestVariety:
    def test_unit_circle_over_f7_has_eight_points(self):
        assert brute_circle_count(7, 1) == 8
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        assert variety(P, 1).size == 8

    def test_every_fiber_matches_brute_count(self):
        P = parse_polynomial("x1^2 + x2^2", F13, 2)
        for t in range(13):
            assert variety(P, t).size == brute_circle_count(13, t)

    def test_zero_fiber_of_diagonal_contains_origin(self):
        P = parse_polynomial("x1^3 + 2*x2^2", F7, 2)
        assert 0 in variety(P, 0).indices

    def test_nonzero_fibers_near_q(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        lo, hi = 7 - 2 * math.sqrt(7) - 1, 7 + 2 * math.sqrt(7) + 1
        for t in range(1, 7):
            assert lo <= variety(P, t).size <= hi

    @pytest.mark.parametrize(
        "text,d,F", [("x1^2+x2^2", 2, F7), ("x1^3+x2^2", 2, F5), ("x1^2+x2^2+x3^2", 3, F7)]
    )
    def test_fibers_partition_the_grid(self, text, d, F):
        P = parse_polynomial(text, F, d)
        assert sum(variety(P, t).size for t in range(F.q)) == F.q**d

    @pytest.mark.parametrize("text,d,F", [("x1^2-x2^2", 2, F7), ("x1^3+x2^3", 2, F7)])
    def test_schwartz_zippel_bound(self, text, d, F):
        P = parse_polynomial(text, F, d)
        for t in range(F.q):
            assert variety(P, t).size <= P.degree * F.q ** (d - 1)

    @pytest.mark.parametrize("q", [7, 11, 13])
    @pytest.mark.parametrize("d", [2, 3])
    def test_nonzero_fiber_relative_deviation(self, q, d):
        F = make_field(q)
        P = diagonal_polynomial(F, d, 2)
        dev = max(
            abs(variety(P, t).size / q ** (d - 1) - 1.0) for t in range(1, q)
        )
        assert dev < 0.9

    def test_point_set_sorted_unique(self):
        ps = PointSet(F7, 2, np.array([5, 1, 5, 3]))
        assert ps.indices.tolist() == [1, 3, 5]
        assert ps.size == 3

    @pytest.mark.parametrize("shape", [(0,), (1,), (2,), (60,), (7, 9), (0, 3), (3, 1, 4)])
    def test_point_set_indices_equal_np_unique(self, shape):
        raw = np.random.default_rng(len(shape) * 100 + sum(shape)).integers(0, 20, size=shape)
        ps = PointSet(F7, 2, raw)
        assert ps.indices.dtype == np.int64
        assert np.array_equal(ps.indices, np.unique(raw))
        assert PointSet(F7, 2, raw.tolist()).indices.tolist() == np.unique(raw).tolist()

    @pytest.mark.parametrize("bad", [[3, 49], [-1, 3], [[48, 49]]])
    def test_point_set_rejects_indices_off_the_grid(self, bad):
        with pytest.raises(DimensionMismatch):
            PointSet(F7, 2, bad)


class TestDecay:
    def test_circle_sharp_constant_at_t1(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        e = decay_spectrum(P)[1]
        assert e.c_sharp <= 3.0
        assert abs(e.c_sharp - 1.6985569235631093) < 1e-9  # frozen brute-force value

    def test_circle_zero_fiber_fallback_when_minus_one_is_square(self):
        P = parse_polynomial("x1^2 + x2^2", F13, 2)
        e = decay_spectrum(P)[0]
        assert e.classification == "fallback"
        assert e.c_sharp > 3.0
        assert e.c_fallback <= 3.0
        assert e.variety_size == 2 * 13 - 1  # two crossing lines

    def test_empty_fiber_has_zero_spectrum(self):
        P = parse_polynomial("x1^2", F7, 1)
        e = decay_spectrum(P)[3]  # 3 is not a square mod 7
        assert variety(P, 3).size == 0
        assert e.max_nonzero_freq == 0.0

    def test_fiber_transforms_sum_to_zero_off_origin(self):
        # fibers partition the grid, so their transforms cancel for m != 0
        for text in ("x1^2+x2^2", "x1^2-x2^2"):
            P = parse_polynomial(text, F7, 2)
            total = np.zeros(49, dtype=np.complex128)
            for t in range(7):
                fiber = np.isin(np.arange(49), variety(P, t).indices)
                total += fourier_transform(ComplexGrid(F7, 2, fiber)).values
            assert np.max(np.abs(total[1:])) < 1e-9

    @pytest.mark.parametrize(
        "q, d, text",
        [(9, 2, "x1^2 + x2^2"), (25, 2, "x1^2 + 2*x2^3"), (27, 2, "x1^2 + x2^2 + x1"),
         (13, 3, "x1^2 + x2^2 + x3^2"), (61, 3, "x1^2 + x2^2 + x3^2"), (211, 2, "x1^2 + x2^2"),
         (41, 4, "x1^2 + x2^2 + x3^2 + x4^2"), (17, 5, "x1^2 + x2^2 + x3^2 + x4^2 + x5^2"),
         (101, 1, "x1^3 + x1"), (16, 3, "x1^3 + x2^3 + x3^3"), (25, 2, "x1^2 + x2^2"),
         (27, 2, "x1^2 + x2^2"), (31, 2, "x1^2 + x2^2 + x1"), (13, 3, "2*x1^3 + x2^5 + x3 + x1")],
    )
    def test_fiber_peaks_with_a_shared_workspace_equal_fresh_transforms(self, q, d, text):
        # bit for bit, since argmax_m picks among exact ties by float noise:
        # at F_41^4 a shared product of another shape moved fiber 6's argmax_m
        P = parse_polynomial(text, field_from_order(q), d)
        ts = (0, 1, 6, 40) if q**d > 2 * 10**6 else range(q)
        assert list(_fiber_peaks(P, ts)) == per_fiber_peaks(P, ts)

    @pytest.mark.parametrize(
        "q, d, terms",
        [(13, 2, [(3, (0, 0)), (1, (2, 0)), (1, (0, 2))]),
         (13, 3, [(5, (0, 0, 0)), (1, (2, 0, 0)), (2, (0, 3, 0)), (1, (0, 0, 2))]),
         (13, 3, [(1, (1, 1, 0)), (1, (0, 0, 2))])],
    )
    def test_fiber_peaks_of_library_polynomials_equal_fresh_transforms(self, q, d, terms):
        # a constant term shifts R; a cross term shares no pass (L = 0)
        P = make_polynomial(field_from_order(q), d, terms)
        assert list(_fiber_peaks(P, range(q))) == per_fiber_peaks(P, range(q))

    @pytest.mark.parametrize("q, d", [(31, 3), (101, 2)])
    def test_decay_spectrum_holds_at_most_64_bytes_a_point(self, q, d):
        # beyond value_grid and the field tables, which a first call caches:
        # the shared table, the gathered grid, the pass output and the
        # magnitudes (56 B), and no setup temporary left over
        import tracemalloc

        P = diagonal_polynomial(field_from_order(q), d, 2)
        decay_spectrum(P)
        tracemalloc.start()
        try:
            decay_spectrum(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * q**d

    @pytest.mark.parametrize(
        "q, d, text",
        [
            (61, 3, "x1^2+x2^2+x3^2"),
            (31, 3, "x1^2+x2^2+x3^2+x1"),
            (101, 2, "x1^3+2*x2^5+x1"),
            (211, 2, "x1^2+x2^2"),
        ],
    )
    def test_fiber_peaks_match_the_phase_identity(self, q, d, text):
        # an oracle that runs no transform pass, at benchmark sizes
        P = parse_polynomial(text, field_from_order(q), d)
        want = fiber_peaks_by_phase_identity(P)
        entries = decay_spectrum(P)
        got = [e.max_nonzero_freq for e in entries]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        classes = [varieties._decay_class(mx, q, d, 3.0, 3.0)[2] for mx in want]
        expected = split_fibers(P, [e.variety_size for e in entries], classes)
        report = exceptional_set(P)
        assert (report.T, report.A) == (expected.T, expected.A)

    def test_characteristic_check(self):
        F4 = make_field(2, 2)
        P = diagonal_polynomial(F4, 2, 2)
        assert characteristic_divides_exponent(P)
        # the hypothesis is reported, and the spectrum is still computed
        assert len(decay_spectrum(P)) == 4


class TestExceptionalSets:
    def test_two_lines_fiber_flagged_at_tight_threshold(self):
        # the t = 0 fiber of x1^2 - x2^2 is two crossing lines; its decay
        # constant sits near sqrt(q), above kappa = 2 but below 3 at q = 7
        P = parse_polynomial("x1^2 - x2^2", F7, 2)
        rep = exceptional_set(P, kappa_sharp=2.0)
        assert 0 in rep.T
        assert 0 in rep.A
        assert not rep.size_hypothesis_droppable

    def test_two_lines_fiber_flagged_at_default_threshold_q13(self):
        P = parse_polynomial("x1^2 - x2^2", F13, 2)
        rep = exceptional_set(P)
        assert set(rep.T) == {0}
        assert set(rep.A) == {0}

    def test_sphere_three_dims_all_sharp(self):
        P = parse_polynomial("x1^2 + x2^2 + x3^2", F7, 3)
        rep = exceptional_set(P, kappa_sharp=3.0)
        assert rep.T <= {0}
        assert rep.A == frozenset()
        assert rep.size_hypothesis_droppable

    def test_vu_cardinality_bound(self):
        # reported for every P at d = 2, and None at other d
        P = parse_polynomial("x1^2 - x2^2", F13, 2)
        rep = exceptional_set(P)
        assert rep.vu_bound_ok is True  # |T| = 1 <= degree - 1
        assert split_fibers(P, [rep.band[0]] * 13, ["bad"] * 13).vu_bound_ok is False
        sphere = parse_polynomial("x1^2 + x2^2 + x3^2", F7, 3)
        assert exceptional_set(sphere).vu_bound_ok is None

    def test_report_keeps_the_spectrum_it_thresholds(self):
        # the report is the thresholding of decay_spectrum at the same kappas
        P = parse_polynomial("x1^2 - x2^2", F13, 2)
        entries = decay_spectrum(P, 2.5, 3.5)
        rep = exceptional_set(P, 2.5, 3.5)
        lo, hi = rep.band
        assert rep.band == (0.5 * 13, 2.0 * 13)
        assert rep.T == {
            e.t for e in entries
            if e.classification != "sharp" or not lo <= e.variety_size <= hi
        }
        assert rep.A == {e.t for e in entries if e.classification == "fallback"}
        assert 0 in rep.T

    def test_a_decay_constant_at_the_threshold_is_sharp_on_every_route(self):
        # over F_9 every nonzero fiber has c_sharp = 2 exactly; t = 2, 7, 8
        # read 2.0000000000000004 in floats, the rest 2.0
        P = parse_polynomial("7*x2^5+5*x1^5", field_from_order(9), 2)
        entries = decay_spectrum(P, kappa_sharp=2.0)
        assert {e.c_sharp for e in entries[1:]} == {2.0, 2.0000000000000004}
        assert [e.classification for e in entries[1:]] == ["sharp"] * 8
        rep = exceptional_set(P, kappa_sharp=2.0)
        assert rep.T == rep.A == {0}
        ref = split_fibers(
            P, [e.variety_size for e in entries], [e.classification for e in entries]
        )
        assert rep == ref

    # (q, d, polynomial, kappa_sharp, kappa_fallback): more than two cosets,
    # extension fields, p | exponent, mixed exponents and non-diagonal P
    ORBIT_CASES = [
        (13, 2, "x1^2 - x2^2", 2.5, 3.5),
        (7, 3, "x1^2 + x2^2 + x3^2", 3.0, 3.0),
        (27, 2, "x1^2 + x2^2", 3.0, 3.0),
        (27, 2, "x1^3 + 2*x2^3", 3.0, 3.0),
        (125, 2, "x1^5 + x2^2", 3.0, 3.0),
        (16, 2, "x1^3 + x2^3", 3.0, 3.0),
        (16, 2, "x1^2 + x2^2", 2.0, 3.0),
        (31, 3, "x1^3 + 2*x2^2 + x3^4", 3.0, 3.0),
        (13, 2, "x1^4 + 5*x2^3", 3.0, 3.0),
        (37, 2, "x1^6 + 3*x2^6", 3.0, 3.0),
        (25, 2, "x1^2 - x2^2", 2.0, 3.0),
        (11, 1, "4*x1^2", 3.0, 3.0),
        (31, 2, "x1^2 + x2^2 + x1", 3.0, 3.0),
        (9, 2, "x1^3 + x1 + x2^2", 3.0, 3.0),
    ]

    @pytest.mark.parametrize("q, d, text, ks, kf", ORBIT_CASES)
    def test_orbit_route_matches_the_per_fiber_spectrum(self, q, d, text, ks, kf):
        P = parse_polynomial(text, field_from_order(q), d)
        entries = decay_spectrum(P, ks, kf)
        ref = split_fibers(
            P, [e.variety_size for e in entries], [e.classification for e in entries]
        )
        rep = exceptional_set(P, ks, kf)
        assert rep == ref  # T, A, band and the flags derived from them

    def test_orbit_route_on_random_diagonal_polynomials(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(
            q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 19, 25, 27, 29, 31, 37, 49]),
            d=st.integers(1, 3),
            data=st.data(),
        )
        def check(q, d, data):
            hyp.assume(q**d <= 2500)
            spec = field_from_order(q)
            coeffs = data.draw(st.lists(st.integers(1, q - 1), min_size=d, max_size=d))
            exps = data.draw(st.lists(st.integers(1, 12), min_size=d, max_size=d))
            P = make_polynomial(
                spec, d, [(c, tuple(e if i == j else 0 for i in range(d)))
                          for j, (c, e) in enumerate(zip(coeffs, exps))]
            )
            assert P.kind == DIAGONAL
            labels = _scaling_cosets(P)
            assert labels.max() == math.gcd(math.lcm(*exps), q - 1)
            entries = decay_spectrum(P)
            first = {}
            for e in entries:  # fibers in one coset share size and decay
                f = first.setdefault(int(labels[e.t]), e)
                assert e.variety_size == f.variety_size
                assert abs(e.max_nonzero_freq - f.max_nonzero_freq) < 1e-12
            rep = exceptional_set(P)
            ref = split_fibers(
                P, [e.variety_size for e in entries], [e.classification for e in entries]
            )
            assert rep == ref

        check()

    def test_one_transform_per_scaling_coset(self, monkeypatch):
        # counts the fibers _fiber_peaks transforms, one each
        calls = []
        real = varieties._fiber_peaks

        def counting(P, ts):
            ts = list(ts)
            calls.extend(ts)
            return real(P, ts)

        monkeypatch.setattr(varieties, "_fiber_peaks", counting)
        for q, d, text, K in [
            (31, 3, "x1^3 + 2*x2^2 + x3^4", 12),
            (101, 2, "x1^2 + x2^2", 2),
            (27, 2, "x1^3 + x2^3", 3),
            (13, 2, "x1^4 + 5*x2^3", 12),
            (17, 1, "3*x1^5", 5),
        ]:
            calls.clear()
            exceptional_set(parse_polynomial(text, field_from_order(q), d))
            assert len(calls) == math.gcd(K, q - 1) + 1
        calls.clear()
        exceptional_set(parse_polynomial("x1^2 + x2^2 + x1", F13, 2))
        assert len(calls) == 13

    def test_small_fiber_lands_in_T_by_size(self):
        # q = 7: the zero fiber of the circle is just the origin
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        rep = exceptional_set(P)
        assert 0 in rep.T
        assert variety(P, 0).size == 1


class TestWeilSum:
    def test_nonconstant_linear_sums_to_zero(self):
        f = parse_polynomial("3*x1", F7, 1)
        res = weil_sum(f)
        assert abs(res.value) < 1e-12
        assert res.bound == 0.0
        assert res.ok

    def test_square_sum_has_gauss_magnitude(self):
        res = weil_sum(parse_polynomial("x1^2", F7, 1))
        assert abs(abs(res.value) - math.sqrt(7)) < 1e-9
        assert res.ok

    def test_cube_sum_obeys_weil_bound(self):
        res = weil_sum(parse_polynomial("x1^3", F7, 1))
        assert abs(res.value) <= 2 * math.sqrt(7) + 1e-9
        assert abs(abs(res.value) - 4.740938811152401) < 1e-9  # frozen direct sum
        assert res.ok

    def test_characteristic_divides_degree(self):
        F4 = make_field(2, 2)
        res = weil_sum(parse_polynomial("x1^2", F4, 1))
        assert res.ok is None
        assert not res.hypothesis_ok

    def test_multivariate_rejected(self):
        with pytest.raises(ArityMismatch):
            weil_sum(parse_polynomial("x1 + x2", F7, 2))

    @pytest.mark.parametrize("p", [5, 7])
    def test_exhaustive_monic_quadratics_and_cubics(self, p):
        F = make_field(p)
        for c in (2, 3):
            for body in range(p**c):
                coeffs = []
                k = body
                for _ in range(c):
                    coeffs.append(k % p)
                    k //= p
                terms = [(1, (c,))] + [
                    (a, (i,)) for i, a in enumerate(coeffs) if a
                ]
                f = make_polynomial(F, 1, terms)
                assert weil_sum(f).ok


class TestPhaseSum:
    def test_zero_s_nonzero_m_vanishes(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        assert abs(phase_sum(P, 0, (1, 0))) < 1e-9

    def test_gauss_square_magnitude(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        assert abs(abs(phase_sum(P, 1, (0, 0))) - 7.0) < 1e-9

    def test_factored_equals_direct_exhaustively(self):
        P = parse_polynomial("x1^2 + x2^3", F7, 2)
        for s in range(7):
            for mi in range(49):
                m = decode_points(F7, mi, 2).tolist()
                a = phase_sum(P, s, m)
                b = factored_phase_sum(P, s, m)
                assert abs(a - b) < 1e-9 * 49

    def test_factored_requires_diagonal(self):
        # x1^2 leaves x2 out, so it is not diagonal: its table is the direct one
        P = parse_polynomial("x1^2", F7, 2)
        with pytest.raises(ArityMismatch):
            factored_phase_sum(P, 1, (0, 0))
        assert np.array_equal(
            _phase_table(P).view(np.float64), _direct_phase_table(P).view(np.float64)
        )

    def test_mixed_diagonal_sweep_under_product_bound(self):
        # the phase command's maximum over every s != 0 and m, against the
        # Weil product bound prod_j (c_j - 1) * q^(d/2) = 1 * 2 * 7
        code, summary = run("phase", ExperimentConfig(q=7, d=2, poly="x1^2+x2^3"))
        assert code == 0 and summary["kind"] == DIAGONAL
        assert summary["max_abs"] <= 14.0 + 1e-9
        assert summary["max_abs"] == pytest.approx(12.543345075283467, abs=1e-9)


# d -> polynomials for the phase table: general, mixed-exponent diagonal,
# and diagonal with non-unit coefficients.
PHASE_TABLE_POLYS = {
    1: ["x1^3 + 2*x1", "x1^2", "3*x1^3"],
    2: ["x1^2 + x2^2 + x1", "x1^2 + x2^3", "3*x1^2 + 2*x2^3"],
    3: ["x1^2 + x2^2 + x3^2 + x1", "x1^2 + x2^3 + x3^2", "2*x1^2 + x2^2 + 3*x3^3"],
}


class TestPhaseTable:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("q", [5, 7, 8, 9, 25])
    def test_table_is_bit_identical_to_scalar_phase_sums(self, q, d):
        spec = field_from_order(q)
        n = q**d
        # every (s, m) on small grids; on larger ones every s and ~50 m
        ms = list(range(n)) if n <= 125 else sorted(set(range(0, n, n // 50)) | {n - 1})
        for text in PHASE_TABLE_POLYS[d]:
            P = parse_polynomial(text, spec, d)
            routes = [] if n > 5000 else [(_direct_phase_table, phase_sum)]  # (q-1) q^(2d) lookups
            if P.kind == DIAGONAL:
                routes.append((_phase_table, factored_phase_sum))
            for build, scalar in routes:
                table = build(P)
                assert table.shape == (q - 1, n)
                got = np.ascontiguousarray(table[:, ms])
                points = decode_points(spec, ms, d).tolist()
                want = np.array([[scalar(P, s, m) for m in points] for s in range(1, q)])
                assert np.array_equal(got.view(np.float64), want.view(np.float64))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("q", [5, 7, 8, 9, 25])
    def test_phase_rows_give_the_table_and_its_maximum(self, q, d):
        spec = field_from_order(q)
        n = q**d
        E = PointSet(spec, d, [0, n - 1])
        zero = PointSet(spec, 1, [0])
        for text in PHASE_TABLE_POLYS[d]:
            P = parse_polynomial(text, spec, d)
            if P.kind != DIAGONAL and n > 5000:
                continue  # the direct table takes (q-1) q^(2d) lookups: too slow here
            table = _phase_table(P)
            rows = np.array(list(_phase_rows(P)))
            assert rows.shape == table.shape
            assert np.abs(rows - table).max() <= 1e-12 * n
            rep = product_set_experiment(P, E, zero, E, zero)
            want = np.hypot(table.real, table.imag).max() / float(q) ** (d / 2)
            assert rep.phase_max_ratio == pytest.approx(want, rel=1e-12)

    def test_default_route_is_factored_iff_diagonal(self):
        P = parse_polynomial("x1^2 + x2^3", F7, 2)
        ms = [decode_points(F7, m, 2).tolist() for m in range(49)]
        want = np.array([[factored_phase_sum(P, s, m) for m in ms] for s in range(1, 7)])
        assert np.array_equal(_phase_table(P).view(np.float64), want.view(np.float64))
        P = parse_polynomial("x1^2 + x2^2 + x1", F7, 2)
        assert np.array_equal(
            _phase_table(P).view(np.float64), _direct_phase_table(P).view(np.float64)
        )

    def test_factored_and_direct_tables_agree_on_random_diagonals(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(
            q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13]),
            d=st.integers(1, 3),
            data=st.data(),
        )
        def check(q, d, data):
            hyp.assume(q**d <= 600)
            spec = field_from_order(q)
            coeffs = data.draw(st.lists(st.integers(1, q - 1), min_size=d, max_size=d))
            exps = data.draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))
            terms = [
                (c, tuple(e if i == j else 0 for i in range(d)))
                for j, (c, e) in enumerate(zip(coeffs, exps))
            ]
            P = make_polynomial(spec, d, terms)
            assert P.kind == DIAGONAL
            err = np.abs(_phase_table(P) - _direct_phase_table(P)).max()
            assert err <= 1e-9 * q**d

        check()

    @pytest.mark.parametrize("q, d", [(7, 2), (8, 3), (9, 3)])
    def test_dot_with_grid_equals_the_scalar_dot(self, q, d):
        # the kernel that the direct table and phase_sum share: column x of
        # row i is m_i . x, with x in flat order
        spec = field_from_order(q)
        n = q**d
        ms = np.random.default_rng(q + d).integers(0, q, size=(6, d))
        got = _dot_with_grid(spec, d, ms)
        assert got.shape == (6, n)
        for row, m in zip(got.tolist(), ms.tolist()):
            want = []
            for x in range(n):
                acc = 0
                for mj, xj in zip(m, decode_points(spec, x, d).tolist()):
                    acc = spec.add(acc, spec.mul(mj, xj))
                want.append(acc)
            assert row == want

    @pytest.mark.parametrize("q, d", [(101, 2), (31, 3)])
    def test_factored_table_peaks_near_its_own_size(self, q, d):
        # the 16 B an entry of the complex table, plus its real and imaginary
        # parts while they are written into it: ~32 B an entry
        import tracemalloc

        P = diagonal_polynomial(field_from_order(q), d, 2)
        _phase_table(P)  # warm the field tables
        tracemalloc.start()
        try:
            table = _phase_table(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 34 * table.size
