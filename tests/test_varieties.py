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
from ffdist.field import (
    _is_irreducible,
    _log_antilog,
    add_table,
    decode_points,
    field_from_order,
    make_field,
    mul_table,
    neg_table,
    pow_table,
)
from ffdist.distances import product_set_experiment
from ffdist.fourier import ComplexGrid, _column_ranges, fourier_transform
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

    @pytest.mark.parametrize("q, d", [(31, 3), (101, 2), (61, 3)])
    def test_decay_spectrum_holds_at_most_64_bytes_a_point(self, q, d):
        # beyond value_grid and the field tables, which a first call caches:
        # the shared table, the gathered grid, the pass output and the
        # magnitudes (56 B), and no setup temporary left over; F_61^3's
        # last pass splits into two column ranges on two CPUs and more
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
        [(61, 3, "x1^2 + x2^2 + x3^2"), (31, 3, "x1^2 + x2^2 + x3^2 + x1"),
         (41, 4, "x1^2 + x2^2 + x3^2 + x4^2"), (17, 5, "x1^2 + x2^2 + x3^2 + x4^2 + x5^2")],
    )
    def test_fiber_peaks_do_not_depend_on_the_worker_count(self, monkeypatch, q, d, text):
        # more workers than cores, switching threads often
        import sys

        P = parse_polynomial(text, field_from_order(q), d)
        ts = (0, 1, 6, 40) if q**d > 2 * 10**6 else range(q)
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 5):
                monkeypatch.setattr(varieties, "_workers", lambda: workers)
                got[workers] = _fiber_peaks(P, ts)
        finally:
            sys.setswitchinterval(interval)
        assert got[2] == got[3] == got[5] == got[1]

    def test_column_ranges_partition_the_columns_at_multiples_of_64(self):
        for n in range(1, 1200):
            for workers in range(1, 7):
                ranges = _column_ranges(n, workers)
                bounds = [lo for lo, _ in ranges] + [ranges[-1][1]]
                assert bounds[0] == 0 and bounds[-1] == n
                assert all(lo < hi for lo, hi in ranges)
                assert all(b % 64 == 0 for b in bounds[:-1])
                assert len(ranges) <= workers
                if n < 128:
                    assert len(ranges) == 1
                else:
                    assert min(hi - lo for lo, hi in ranges) >= 64
                    assert len(ranges) == min(workers, n // 64)
        # F_61^3 on two CPUs: near-even halves, the odd tail in the last
        assert _column_ranges(61**2, 2) == [(0, 1856), (1856, 3721)]

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        import threading

        from ffdist import fourier

        if fourier._blas_thread_calls() is None:
            pytest.skip("the BLAS thread count of numpy cannot be reached here")
        get = fourier._blas_thread_calls()[0]

        def failing_passes(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("synthetic failure in a worker")
            return fourier._passes(*args, **kwargs)

        P = diagonal_polynomial(F13, 3, 2)  # 169 columns: two ranges
        monkeypatch.setattr(varieties, "_workers", lambda: 2)
        monkeypatch.setattr(varieties, "_passes", failing_passes)
        before, threads = get(), threading.active_count()
        with pytest.raises(FloatingPointError, match="synthetic"):
            _fiber_peaks(P, range(13))
        assert get() == before and threading.active_count() == threads

    @pytest.mark.parametrize("q, d, text", [(61, 3, "x1^2+x2^2+x3^2"), (211, 2, "x1^2+x2^2")])
    def test_decay_stands_without_the_blas_thread_count(self, monkeypatch, q, d, text):
        # numpy's own thread count then runs every product, so the loop
        # takes one range on the calling thread, as the whole transform does
        from ffdist import fourier

        ranges = []
        real = varieties._run_all

        def counted(job, parts):
            ranges.append(len(parts))
            return real(job, parts)

        monkeypatch.setattr(fourier, "_blas_thread_calls", lambda: None)
        monkeypatch.setattr(varieties, "_run_all", counted)
        P = parse_polynomial(text, field_from_order(q), d)
        entries = [(e.t, e.max_nonzero_freq, e.argmax_m) for e in decay_spectrum(P)]
        assert ranges == [1]
        assert entries == per_fiber_peaks(P, range(q))

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
        # a diagonal quadratic form transforms no fiber: its one closed-form
        # call reads one t a coset, t = 0 and the two square classes
        closed = []
        real_closed = varieties._quadratic_peaks

        def counting_closed(P, ts):
            ts = list(ts)
            closed.append(ts)
            return real_closed(P, ts)

        monkeypatch.setattr(varieties, "_quadratic_peaks", counting_closed)
        calls.clear()
        exceptional_set(parse_polynomial("x1^2 + x2^2", field_from_order(101), 2))
        assert calls == [] and closed == [[0, 1, 2]]

    def test_small_fiber_lands_in_T_by_size(self):
        # q = 7: the zero fiber of the circle is just the origin
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        rep = exceptional_set(P)
        assert 0 in rep.T
        assert variety(P, 0).size == 1


def quadratic(q, coeffs):
    """sum_j a_j x_j^2 over F_q with the coefficient encodings `coeffs`."""
    return diagonal_polynomial(field_from_order(q), len(coeffs), 2, coeffs)


def is_square(spec, a) -> bool:
    return a != 0 and _log_antilog(spec)[0][a] % 2 == 0


# (q, coefficients): prime and extension fields, d = 1..4, square and
# non-square a_j, and at d = 2 dual forms with and without an isotropic m
QUADRATIC_CASES = [
    (13, [2]),
    (13, [1, 1]),
    (13, [1, 2, 5]),
    (13, [1, 1, 1, 2]),
    (31, [3]),
    (31, [1, 1]),  # -1 is not a square mod 31: no m != 0 has u = 0
    (31, [1, 3]),
    (31, [1, 1, 1]),
    (9, [5]),
    (9, [1, 1]),
    (9, [1, 1, 5]),
    (9, [1, 1, 1, 1]),
    (25, [1, 3]),
    (25, [1, 1, 2]),
    (27, [2]),
    (27, [1, 1]),
    (27, [1, 1, 2]),
    (125, [3]),
    (125, [1, 2]),
]


class TestQuadraticClosedForm:
    """exceptional_set's closed form for sum_j a_j x_j^2, p odd."""

    def test_cases_cover_squares_and_both_kinds_of_dual_form(self):
        squares, isotropic = set(), set()
        for q, coeffs in QUADRATIC_CASES:
            spec = field_from_order(q)
            squares |= {is_square(spec, a) for a in coeffs}
            if len(coeffs) == 2:  # u = m1^2/a1 + m2^2/a2 = 0 has m != 0 iff -a1*a2 is a square
                isotropic.add(is_square(spec, mul_table(spec)[spec.neg(coeffs[0]), coeffs[1]]))
        assert squares == isotropic == {True, False}
        assert {len(c) for _, c in QUADRATIC_CASES} == {1, 2, 3, 4}
        assert {field_from_order(q).n for q, _ in QUADRATIC_CASES} == {1, 2, 3}

    @pytest.mark.parametrize("q, coeffs", QUADRATIC_CASES)
    def test_closed_form_matches_both_oracles(self, q, coeffs):
        P = quadratic(q, coeffs)
        assert varieties._diagonal_quadratic(P)
        got = varieties._quadratic_peaks(P, range(q))
        transformed = [mx for _, mx, _ in per_fiber_peaks(P, range(q))]
        np.testing.assert_allclose(got, transformed, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got, fiber_peaks_by_phase_identity(P), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("q, coeffs", [(101, [1, 1, 1]), (31, [1, 1, 1, 3])])
    def test_closed_form_matches_the_fiber_peaks_at_size(self, q, coeffs):
        P = quadratic(q, coeffs)
        got = varieties._quadratic_peaks(P, range(q))
        want = [mx for _, mx, _ in _fiber_peaks(P, range(q))]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "q, coeffs, kappas",
        [
            (13, [1, 1], (3.0, 3.0)),
            (31, [1, 1], (3.0, 3.0)),
            (31, [1, 1, 1], (3.0, 3.0)),
            (101, [1, 1], (3.0, 3.0)),
            (9, [1, 1], (2.0, 3.0)),
            (27, [1, 1, 2], (2.5, 3.5)),
            (25, [1, 3], (1.5, 2.0)),
            (13, [2], (3.0, 3.0)),
            (13, [1, 1, 1, 2], (3.0, 9.0)),
        ],
    )
    def test_exceptional_sets_equal_the_transform_route(self, monkeypatch, q, coeffs, kappas):
        P = quadratic(q, coeffs)
        closed = exceptional_set(P, *kappas)
        monkeypatch.setattr(varieties, "_diagonal_quadratic", lambda P: False)
        transformed = exceptional_set(P, *kappas)
        assert (closed.T, closed.A) == (transformed.T, transformed.A)
        assert closed.vu_bound_ok == transformed.vu_bound_ok
        assert closed.size_hypothesis_droppable == transformed.size_hypothesis_droppable
        assert closed == transformed

    @pytest.mark.parametrize("text", ["x1^2 + x2^3", "x1^2 + x2^2 + x1", "x1^4 + x2^4"])
    def test_other_polynomials_keep_the_transforms(self, text):
        assert not varieties._diagonal_quadratic(parse_polynomial(text, F13, 2))
        assert not varieties._diagonal_quadratic(quadratic(16, [1, 1]))  # p = 2

    def test_a_line_of_4001_holds_no_q_by_q_array(self):
        # d = 1: the transform route would build the 16q^2-byte kernel; the
        # closed form holds a block of characters and O(q) vectors beside
        # the field's tables
        import tracemalloc

        from ffdist.fourier import _forward_kernel

        q = 4001
        P = quadratic(q, [3])
        spec = P.spec
        add_table(spec), mul_table(spec), neg_table(spec), pow_table(spec, 2), value_grid(P)
        _forward_kernel.cache_clear()
        tracemalloc.start()
        try:
            report = exceptional_set(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < q * q  # a sixteenth of 16q^2
        assert _forward_kernel.cache_info().currsize == 0
        # the fibers {3x^2 = t} have 0, 1 or 2 points, so each peak is
        # max_{m != 0} |sum_{x in V_t} chi(-x*m)| / q directly
        chi_neg, mt = spec.char_table[neg_table(spec)], mul_table(spec)
        vg = value_grid(P)
        peaks = varieties._quadratic_peaks(P, range(q))
        for t in range(0, q, 37):
            roots = np.flatnonzero(vg == t)
            mag = np.abs(chi_neg[mt[roots]].sum(axis=0)) / q
            assert peaks[t] == pytest.approx(mag[1:].max() if len(roots) else 0.0, rel=1e-12, abs=1e-15)
        # every nonempty fiber decays sharply (c_sharp <= 2), so T holds
        # exactly the empty ones, by size
        sizes = np.bincount(vg, minlength=q)
        assert report.T == {t for t in range(q) if sizes[t] == 0}
        assert report.A == frozenset()


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
        got = _dot_with_grid(add_table(spec), mul_table(spec), d, ms)
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

    @pytest.mark.parametrize(
        "q, d, text",
        [
            (31, 2, "x1^2 + x2^2 + x1"),  # ranges of 64+ columns in blocks of 68
            (8, 3, "x1^2 + x2^2 + x3^2 + x1"),  # an extension field
            (101, 1, "x1^3 + 2*x1"),  # one range
            (13, 3, "x1^2 + x2^2 + x3^2 + x1"),  # blocks of 29 columns, the last short
            (13, 2, "x1^2 + x2^2 + x1"),  # 169 columns: two ranges, each one block
        ],
    )
    def test_direct_table_does_not_depend_on_the_worker_count(self, monkeypatch, q, d, text):
        # more workers than cores, switching threads often
        import sys

        spec = field_from_order(q)
        P = parse_polynomial(text, spec, d)
        n = q**d
        tables = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 5):
                monkeypatch.setattr(varieties, "_workers", lambda: workers)
                tables[workers] = _direct_phase_table(P).view(np.float64)
        finally:
            sys.setswitchinterval(interval)
        for workers in (2, 3, 5):
            assert np.array_equal(tables[workers], tables[1])
        ms = sorted(set(range(0, n, max(1, n // 40))) | {n - 1})
        want = np.array(
            [[phase_sum(P, s, m) for m in decode_points(spec, ms, d).tolist()] for s in range(1, q)]
        )
        got = np.ascontiguousarray(tables[5].view(np.complex128)[:, ms])
        assert np.array_equal(got.view(np.float64), want.view(np.float64))

    @pytest.mark.parametrize(
        "name, text",
        [
            ("_direct_phase_table", "x1^2 + x2^2 + x3^2 + x1"),
            # decay's and the exceptional set's peaks, 169 columns in two ranges
            ("decay_spectrum", "x1^2 + x2^2 + x3^2"),
            ("decay_spectrum", "x1^2 + x2^2 + x3^2 + x1"),
            ("exceptional_set", "x1^2 + x2^2 + x3^2"),
            ("exceptional_set", "x1^2 + x2^2 + x3^2 + x1"),
        ],
    )
    def test_workers_call_no_public_function(self, monkeypatch, name, text):
        # the field and varieties functions that a traced run wraps run on
        # the calling thread only, since its spans share one stack
        import inspect
        import threading
        from functools import _lru_cache_wrapper

        from ffdist import field

        threads = []

        def recorded(fn):
            def call(*args, **kwargs):
                threads.append(threading.get_ident())
                return fn(*args, **kwargs)

            return call

        wrappers = {}
        for module in (field, varieties):
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") and getattr(obj, "__module__", "") == module.__name__
                if public and (inspect.isfunction(obj) or isinstance(obj, _lru_cache_wrapper)):
                    wrappers[id(obj)] = recorded(obj)
        for module in (field, varieties):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(obj)])
        monkeypatch.setattr(varieties, "_workers", lambda: 3)
        P = parse_polynomial(text, F13, 3)
        getattr(varieties, name)(P)
        assert threads and set(threads) == {threading.get_ident()}

    def test_a_phase_worker_exception_reaches_the_caller_after_every_join(self, monkeypatch):
        # of three column ranges over F_13^3, walked in blocks of 29 columns,
        # the second fails on its first block and the third is slow on its
        # first: the caller sees the failure only once the third has done
        # every block
        import threading
        import time

        q, cols = 13, 29
        ranges = _column_ranges(q**3, 3)
        done, real = [], varieties._dot_with_grid

        def dot(at, mt, d, m):
            lo = int(np.asarray(m)[0] @ q ** np.arange(d))
            worker = next(k for k, (start, stop) in enumerate(ranges) if start <= lo < stop)
            if worker == 1:
                raise FloatingPointError("synthetic failure in a worker")
            if worker == 2:
                if lo == ranges[2][0]:
                    time.sleep(0.2)
                done.append(lo)
            return real(at, mt, d, m)

        monkeypatch.setattr(varieties, "_workers", lambda: 3)
        monkeypatch.setattr(varieties, "_dot_with_grid", dot)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="synthetic"):
            _direct_phase_table(parse_polynomial("x1^2 + x2^2 + x3^2 + x1", F13, 3))
        assert done == list(range(ranges[2][0], q**3, cols))
        assert threading.active_count() == before

    @pytest.mark.parametrize("q, d", [(31, 2), (13, 3)])
    def test_a_phase_worker_holds_at_most_40_bytes_a_block_entry(self, monkeypatch, q, d):
        # net of the table, the s*P(x)*q rows and the fused table: the index
        # and value blocks and one dot (32 B), since a block's dot is
        # released before the next block's is built
        import tracemalloc

        text = "+".join(f"x{j}^2" for j in range(1, d + 1)) + "+x1"
        P = parse_polynomial(text, field_from_order(q), d)
        monkeypatch.setattr(varieties, "_workers", lambda: 1)
        _direct_phase_table(P)  # warm the field tables and the value grid
        n = q**d
        tracemalloc.start()
        try:
            _direct_phase_table(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = varieties._PHASE_BLOCK // n * n
        assert peak - 24 * (q - 1) * n - 16 * q * q <= varieties._PHASE_WORKER_BYTES * block
        assert varieties._PHASE_WORKER_BYTES <= 40
