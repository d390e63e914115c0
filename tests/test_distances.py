"""Distance sets, counting (direct vs transform), pinned distances, the
lift, product experiments, and the theorem-style verifiers."""

import numpy as np
import pytest

from ffdist.errors import (
    DimensionMismatch,
    EmptySet,
    MixedFields,
    RoundingDivergence,
    ZeroPolynomial,
)
from ffdist.distances import (
    _convolution_counts,
    _counting_passes,
    _pair_counts,
    _paired_difference_counts,
    _pinned_convolution_sizes,
    _pinned_pair_sizes,
    _pinned_passes,
    _use_transform,
    _verdict,
    counting_function,
    distance_set,
    paraboloid_lift,
    pinned_distances,
    product_set,
    product_set_experiment,
    verify_erdos,
    verify_falconer,
    verify_square_identity,
)
from ffdist.field import add_table, field_from_order, make_field, mul_table, neg_table
from ffdist.harness import ExperimentConfig, run
from ffdist.rng import SplitMix64, derive_seed, sample_indices
from ffdist.varieties import (
    PointSet,
    _coset_members,
    _fiber_sizes,
    decay_spectrum,
    diagonal_polynomial,
    exceptional_set,
    full_grid,
    make_polynomial,
    parse_polynomial,
    points_from_coords,
    value_grid,
    variety,
)

from oracles import evaluate, translate

F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)
F13 = make_field(13)


CROSS = "x1^2 + x1*x2 + 3*x2^2"


def cross_polynomial(spec):
    """x1^2 + x1*x2 + 3*x2^2, which parse_polynomial cannot spell."""
    return make_polynomial(spec, 2, [(1, (2, 0)), (1, (1, 1)), (3, (0, 2))])


def random_set(spec, d, k, seed):
    return PointSet(spec, d, sample_indices(SplitMix64(derive_seed(seed)), spec.q**d, k))


# Every public entry that takes a (P, E, F) triple, by name.
PUBLIC_TRIPLE_ENTRIES = {
    "distance_set": distance_set,
    "counting_function": counting_function,
    "pinned_distances": pinned_distances,
    "verify_falconer": lambda P, E, F: verify_falconer(P, E, F, T=()),
    "verify_erdos": lambda P, E, F: verify_erdos(P, E, F, A=()),
}


def brute_distances_prime(p, coeffs_exps, E, F):
    """Oracle: distance set by pure modular arithmetic over a prime field.

    coeffs_exps is a list of (coeff, exponent vector) with plain ints.
    """
    out = set()
    for x in E:
        for y in F:
            u = [(a - b) % p for a, b in zip(x, y)]
            val = 0
            for c, exps in coeffs_exps:
                term = c
                for uj, e in zip(u, exps):
                    term = (term * pow(uj, e, p)) % p
                val = (val + term) % p
            out.add(val)
    return out


class TestDistanceSet:
    def test_diagonal_line_kills_hyperbolic_distance(self):
        P = parse_polynomial("x1^2 - x2^2", F7, 2)
        E = points_from_coords(F7, 2, [[t, t] for t in range(7)])
        assert distance_set(P, E, E) == {0}

    def test_full_grid_gives_image_of_polynomial(self):
        P = parse_polynomial("x1^3 + x2^2", F7, 2)
        E = full_grid(F7, 2)
        image = {int(v) for v in np.unique(value_grid(P))}
        assert distance_set(P, E, E) == image

    def test_subfield_square_distance_collapses_to_sqrt_q(self):
        # F_3^2 inside F_9^2: differences stay in the subfield
        P = parse_polynomial("x1^2 + x2^2", F9, 2)
        sub = [a for a in range(9) if F9.pow(a, 3) == a]
        assert sorted(sub) == [0, 1, 2]
        E = points_from_coords(F9, 2, [[a, b] for a in sub for b in sub])
        assert E.size == 9
        delta = distance_set(P, E, E)
        assert len(delta) == 3
        assert delta == {0, 1, 2}

    def test_matches_brute_force_on_random_sets(self):
        P = parse_polynomial("x1^2 + 3*x2^3", F7, 2)
        E = random_set(F7, 2, 12, seed=1)
        F = random_set(F7, 2, 9, seed=2)
        brute = brute_distances_prime(
            7,
            [(1, (2, 0)), (3, (0, 3))],
            [tuple(map(int, c)) for c in E.coordinates()],
            [tuple(map(int, c)) for c in F.coordinates()],
        )
        assert distance_set(P, E, F) == brute

    def test_translation_invariance(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        E = random_set(F7, 2, 10, seed=3)
        F = random_set(F7, 2, 8, seed=4)
        for z in [(1, 4), (6, 6), (0, 2)]:
            assert distance_set(P, translate(E, z), translate(F, z)) == distance_set(
                P, E, F
            )

    def test_even_polynomial_is_symmetric_in_E_and_F(self):
        P = parse_polynomial("x1^2 + 2*x2^4", F5, 2)
        E = random_set(F5, 2, 7, seed=5)
        F = random_set(F5, 2, 6, seed=6)
        assert distance_set(P, E, F) == distance_set(P, F, E)

    def test_empty_set_rejected(self):
        P = parse_polynomial("x1^2", F7, 1)
        empty, full = PointSet(F7, 1, np.array([], dtype=int)), full_grid(F7, 1)
        for entry in PUBLIC_TRIPLE_ENTRIES.values():
            for E, F in [(empty, full), (full, empty)]:
                with pytest.raises(EmptySet):
                    entry(P, E, F)

    def test_dimension_and_field_mismatches(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        for entry in PUBLIC_TRIPLE_ENTRIES.values():
            with pytest.raises(DimensionMismatch):
                entry(P, full_grid(F7, 1), full_grid(F7, 2))
            with pytest.raises(DimensionMismatch):
                entry(P, full_grid(F7, 2), full_grid(F7, 1))
            with pytest.raises(MixedFields):
                entry(P, full_grid(F5, 2), full_grid(F7, 2))

    def test_each_public_entry_checks_its_triple_once(self, monkeypatch):
        from ffdist import distances

        calls = []
        real = distances._check_triple

        def counting(P, E, F):
            calls.append((P, E, F))
            return real(P, E, F)

        monkeypatch.setattr(distances, "_check_triple", counting)
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        E, F = random_set(F7, 2, 10, seed=3), random_set(F7, 2, 8, seed=4)
        for name, entry in PUBLIC_TRIPLE_ENTRIES.items():
            calls.clear()
            entry(P, E, F)
            assert calls == [(P, E, F)], name


class TestCounting:
    def test_total_mass_is_product_of_sizes(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        E = random_set(F7, 2, 11, seed=7)
        F = random_set(F7, 2, 13, seed=8)
        nu = counting_function(P, E, F)
        assert nu.total() == E.size * F.size

    def test_singleton_pair_counts_once_at_zero(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        E = points_from_coords(F7, 2, [[2, 5]])
        nu = counting_function(P, E, E)
        assert nu[0] == 1 and nu.total() == 1

    @pytest.mark.parametrize("text", ["x1^2+x2^2", "x1^2-x2^2", "x1^3+x2^2", "x1^2+x2^3"])
    def test_transform_route_equals_direct_route(self, text):
        P = parse_polynomial(text, F7, 2)
        for seed in range(5):
            E = random_set(F7, 2, 8 + seed, seed=100 + seed)
            F = random_set(F7, 2, 14 - seed, seed=200 + seed)
            direct = _pair_counts(P, E, F)
            transform = _convolution_counts(P, E, F)
            assert np.array_equal(direct.counts, transform.counts)

    def test_support_is_distance_set(self):
        P = parse_polynomial("x1^3 + x2^2", F5, 2)
        E = random_set(F5, 2, 6, seed=9)
        F = random_set(F5, 2, 9, seed=10)
        assert counting_function(P, E, F).support() == distance_set(P, E, F)


class TestPinned:
    def test_full_grid_pins_see_whole_image(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        E = full_grid(F7, 2)
        F = random_set(F7, 2, 9, seed=11)
        image_size = len({int(v) for v in np.unique(value_grid(P))})
        rep = pinned_distances(P, E, F)
        assert set(rep.sizes.values()) == {image_size}
        assert rep.fraction_large == 1.0

    def test_pin_histogram_mass_equals_E(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        E = random_set(F7, 2, 17, seed=12)
        for y in random_set(F7, 2, 5, seed=13).indices:
            pin = PointSet(F7, 2, np.array([y]))
            nu = counting_function(P, E, pin)
            assert nu.total() == E.size

    def test_fraction_counts_strictly_large_pins(self):
        P = parse_polynomial("x1^2 + x2^2", F13, 2)
        E = random_set(F13, 2, 80, seed=14)
        F = random_set(F13, 2, 40, seed=15)
        rep = pinned_distances(P, E, F, rho=0.5)
        expected = sum(1 for s in rep.sizes.values() if s > 6.5) / len(rep.sizes)
        assert rep.fraction_large == expected

    @pytest.mark.parametrize(
        "spec, d, poly",
        [
            (make_field(101), 3, "x1^2 + x2^2 + x3^2"),
            (make_field(2, 5), 3, "x1^3 + x2^3 + x3^2 + x1"),  # p = 2: codes in base 4
            (make_field(3, 3), 2, "2*x1^4 + x1 + x2^2"),
        ],
    )
    def test_separable_pins_on_the_pair_route_build_no_value_grid(
        self, monkeypatch, spec, d, poly
    ):
        # separable P sums per-variable codes into a table of B^n entries,
        # so the q^d grid of P is never built (the sets are small enough
        # that the cost rule counts no fibers)
        from ffdist import distances

        def unreachable(P):
            raise AssertionError("the pair kernel built the value grid of P")

        P = parse_polynomial(poly, spec, d)
        E, F = random_set(spec, d, 200, seed=46), random_set(spec, d, 12, seed=47)
        ce, cf = E.coordinates().tolist(), F.coordinates().tolist()
        oracle = [len({evaluate(P, tuple(map(spec.sub, x, y))) for x in ce}) for y in cf]
        monkeypatch.setattr(distances, "value_grid", unreachable)
        assert pinned_distances(P, E, F).counts.tolist() == oracle


ROUTE_POLYS = {1: "x1^3", 2: "x1^2 + 3*x2^3", 3: "x1^2 + 2*x2^2 + x3^3"}


def _pinned_convolution(P, E, F):
    """The pinned convolution over every nonempty fiber of P."""
    return _pinned_convolution_sizes(P, E, F, np.flatnonzero(_fiber_sizes(P)))


def _route_cases(spec, d):
    """(E, F) pairs for route agreement: full grids where the direct pair
    kernel stays cheap, singletons, a full grid against a small set, and
    random sets of different sizes."""
    n = spec.q**d
    one_e = PointSet(spec, d, np.array([n - 1]))
    one_f = PointSet(spec, d, np.array([n // 3]))
    small = random_set(spec, d, min(n, 7), seed=31)
    cases = [(one_e, one_f), (one_e, one_e), (one_e, small)]
    if n <= 1000:
        cases.append((full_grid(spec, d), full_grid(spec, d)))
    cases.append((full_grid(spec, d), random_set(spec, d, min(n, 20), seed=32)))
    cases.append((random_set(spec, d, min(n, 60), seed=33), random_set(spec, d, min(n, 9), seed=34)))
    return cases


class TestRoutes:
    """The pair kernel and the difference convolution give the same integers."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25, 27, 32])
    def test_direct_and_transform_routes_agree(self, monkeypatch, q, d):
        from ffdist import distances

        spec = field_from_order(q)
        P = parse_polynomial(ROUTE_POLYS[d], spec, d)
        for E, F in _route_cases(spec, d):
            direct = _pair_counts(P, E, F)
            fourier = _convolution_counts(P, E, F)
            assert (direct.route, fourier.route) == ("direct", "fourier")
            assert direct.counts.dtype == fourier.counts.dtype == np.int64
            assert np.array_equal(direct.counts, fourier.counts)
            assert direct.total() == E.size * F.size
            assert direct.support() == fourier.support() == distance_set(P, E, F)
            pinned = _pinned_pair_sizes(P, E, F)
            assert np.array_equal(pinned, _pinned_convolution(P, E, F))
            for convolve in (False, True):  # pinned_distances on each route
                monkeypatch.setattr(distances, "_use_transform", lambda *_: convolve)
                rep = pinned_distances(P, E, F)
                assert rep.counts.dtype == np.int64
                assert np.array_equal(rep.counts, pinned)
                assert rep.pins is F.indices
                assert rep.sizes == dict(zip(F.indices.tolist(), pinned.tolist()))
            monkeypatch.undo()

    def test_routes_agree_on_random_fields_sets_and_polynomials(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(
            q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]),
            d=st.integers(1, 3),
            data=st.data(),
        )
        def check(q, d, data):
            hyp.assume(q**d <= 2000)
            spec = field_from_order(q)
            n = q**d
            terms = data.draw(
                st.lists(
                    st.tuples(
                        st.integers(1, q - 1),
                        st.lists(st.integers(0, 3), min_size=d, max_size=d),
                    ),
                    min_size=1,
                    max_size=3,
                )
            )
            try:
                P = make_polynomial(spec, d, terms)
            except ZeroPolynomial:
                hyp.assume(False)
            sizes = st.integers(1, min(n, 60))
            E = random_set(spec, d, data.draw(sizes), seed=data.draw(st.integers(0, 10**6)))
            F = random_set(spec, d, data.draw(sizes), seed=data.draw(st.integers(0, 10**6)))
            direct = _pair_counts(P, E, F)
            assert np.array_equal(direct.counts, _convolution_counts(P, E, F).counts)
            assert direct.total() == E.size * F.size
            pinned = _pinned_pair_sizes(P, E, F)
            assert np.array_equal(pinned, _pinned_convolution(P, E, F))

        check()

    @pytest.mark.parametrize("separable", [False, True])
    @pytest.mark.parametrize("spec, d", [(F7, 1), (F9, 2), (F5, 3), (make_field(2, 4), 3)])
    def test_pair_blocks_split_by_bytes_give_the_unsplit_answers(
        self, monkeypatch, spec, d, separable
    ):
        # both kinds of codes: x1*...*xd + 2*xd^3 sums flat indices (at
        # d >= 2), 3 + x1 + 2*xd^3 sums the codes of its parts
        from ffdist import distances

        first = (3, (0,) * d) if separable else (1, (1,) * d)
        P = make_polynomial(spec, d, [first, (1, (1,) + (0,) * (d - 1)), (2, (0,) * (d - 1) + (3,))])
        E = random_set(spec, d, min(spec.q**d, 40), seed=38)
        F = random_set(spec, d, min(spec.q**d, 25), seed=39)
        whole = list(distances._pair_value_blocks(P, E, F))
        counts = _pair_counts(P, E, F).counts
        pinned = _pinned_pair_sizes(P, E, F)
        assert [b.shape for b in whole] == [(F.size, E.size)]
        assert E.size >= spec.q  # each pin's add_table row is gathered
        per_pin = 16 * E.size + 9 * spec.q  # the sum and values, the coded row, the marks
        for pins in (3, 1):  # a byte short of `pins` rows: blocks of 2 pins, then of 1
            monkeypatch.setattr(distances, "_PAIR_BLOCK_BYTES", per_pin * pins - 1)
            blocks = list(distances._pair_value_blocks(P, E, F))
            rows = max(1, pins - 1)
            starts = range(0, F.size, rows)
            assert [len(b) for b in blocks] == [min(rows, F.size - i) for i in starts]
            assert np.array_equal(np.concatenate(blocks), whole[0])
            assert np.array_equal(_pair_counts(P, E, F).counts, counts)
            assert np.array_equal(_pinned_pair_sizes(P, E, F), pinned)

    @pytest.mark.parametrize("second", [(0, 2), (1, 1)])  # x1^2 + x2^2, x1^2 + x1*x2
    def test_pair_blocks_of_a_small_E_stay_within_the_byte_cap(self, monkeypatch, second):
        # |E| < q: the q-entry add_table row per pin would outweigh the
        # pair itself, so the blocks gather pairwise and keep to the cap,
        # whether they sum per-variable codes or flat indices.
        import tracemalloc

        from ffdist import distances

        spec = make_field(211)
        P = make_polynomial(spec, 2, [(1, (2, 0)), (1, second)])
        E, F = points_from_coords(spec, 2, [[3, 5]]), full_grid(spec, 2)
        whole = np.concatenate(list(distances._pair_value_blocks(P, E, F)))
        cap = 1 << 20
        monkeypatch.setattr(distances, "_PAIR_BLOCK_BYTES", cap)
        tracemalloc.start()
        try:
            sizes = [len(b) for b in distances._pair_value_blocks(P, E, F)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = cap // (16 * E.size + spec.q)  # the sum and values, the marks
        assert sizes == [min(rows, F.size - i) for i in range(0, F.size, rows)]
        assert peak <= 2 * cap
        assert np.array_equal(np.concatenate(list(distances._pair_value_blocks(P, E, F))), whole)
        assert np.array_equal(_pinned_pair_sizes(P, E, F), np.ones(F.size))

    def test_pinned_pair_sizes_match_a_per_pin_set_oracle(self, monkeypatch):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        from ffdist import distances

        cap = distances._PAIR_BLOCK_BYTES

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(
            q=st.sampled_from([2, 4, 5, 7, 8, 9, 11, 16, 25, 27, 31, 49]),
            d=st.integers(1, 3),
            data=st.data(),
        )
        def check(q, d, data):
            hyp.assume(q**d <= 3000)
            spec = field_from_order(q)
            if data.draw(st.booleans()):  # a cross term: flat indices and value_grid
                P = make_polynomial(spec, d, [(1, (2,) * d), (q - 1, (0,) * (d - 1) + (3,))])
            else:  # separable, with a constant and two terms in x_j: per-variable codes
                j, e = data.draw(st.integers(0, d - 1)), data.draw(st.integers(1, 5))
                coeffs = st.integers(1, q - 1)
                terms = [(data.draw(st.integers(0, q - 1)), (0,) * d)]
                for i in range(d):
                    terms.append((data.draw(coeffs), tuple(3 * (k == i) for k in range(d))))
                terms.append((data.draw(coeffs), tuple(e * (k == j) for k in range(d))))
                try:
                    P = make_polynomial(spec, d, terms)
                except ZeroPolynomial:  # the two terms in x_j cancelled at d = 1
                    hyp.assume(False)
            seeds = st.integers(0, 10**6)
            # |E| on both sides of q and of the gather rule's q/3
            E = random_set(spec, d, data.draw(st.integers(1, min(q**d, 2 * q))), data.draw(seeds))
            F = random_set(spec, d, data.draw(st.integers(1, min(q**d, 30))), data.draw(seeds))
            one_pin = data.draw(st.booleans())
            monkeypatch.setattr(distances, "_PAIR_BLOCK_BYTES", 1 if one_pin else cap)
            ce, cf = E.coordinates().tolist(), F.coordinates().tolist()
            oracle = [len({evaluate(P, tuple(map(spec.sub, x, y))) for x in ce}) for y in cf]
            assert _pinned_pair_sizes(P, E, F).tolist() == oracle

        check()

    @pytest.mark.parametrize(
        "q, d, size_E, size_F, cross",
        [
            (1021, 1, 50, 1021, False),
            (101, 2, 3000, 400, False),
            (101, 2, 3000, 400, True),
            (211, 2, 50, 2000, False),
        ],
    )
    def test_pinned_peak_stays_within_the_block_cap(
        self, monkeypatch, q, d, size_E, size_F, cross
    ):
        # (1021, 1, 50) gathers pairwise and its marks (q B a pin) outweigh
        # its pairs (16 B each): blocks sized without them would take every
        # pin at once and hold 1.8x the cap.  (101, 2, 3000) gathers each
        # pin's add_table row, and codes it in place, or scales it when a
        # cross term x1*x2 makes the sums flat indices; (211, 2, 50) codes
        # pair by pair.
        import tracemalloc

        from ffdist import distances

        spec = make_field(q)
        P = diagonal_polynomial(spec, d, 2)
        if cross:
            P = make_polynomial(spec, d, P.terms + ((1, (1, 1)),))
        E, F = random_set(spec, d, size_E, seed=44), random_set(spec, d, size_F, seed=45)
        add_table(spec), neg_table(spec), distances._pair_codes(P)
        whole = _pinned_pair_sizes(P, E, F)
        cap = 1 << 20
        monkeypatch.setattr(distances, "_PAIR_BLOCK_BYTES", cap)
        tracemalloc.start()
        try:
            sizes = _pinned_pair_sizes(P, E, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(sizes, whole)
        # beyond the cap: E's coordinates twice over, the pins and their
        # sizes, and numpy's iteration buffers (8192 entries of 8 B)
        assert peak <= cap + 16 * d * E.size + 16 * F.size + (96 << 10)

    def test_pair_kernel_builds_no_q_by_q_table(self):
        # x - y = x + (-y): with add_table, mul_table, neg_table and the value
        # grid warm, pairs at q = 1021 cost their blocks, not a q x q table
        import tracemalloc

        spec = make_field(1021)
        P = diagonal_polynomial(spec, 2, 2)
        E, F = random_set(spec, 2, 300, seed=42), random_set(spec, 2, 50, seed=43)
        add_table(spec), mul_table(spec), neg_table(spec), value_grid(P)
        tracemalloc.start()
        try:
            _pair_counts(P, E, F)
            pinned_distances(P, E, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * spec.q**2

    @pytest.mark.parametrize("spec", [F7, F9])
    def test_pinned_sizes_read_P_of_x_minus_pin(self, spec):
        # x1^3 + x2^2 is neither even nor odd, so P(y - x) has other
        # per-pin counts than P(x - y): pinning the wrong set fails here.
        P = parse_polynomial("x1^3 + x2^2", spec, 2)
        E = random_set(spec, 2, 9, seed=36)
        F = random_set(spec, 2, 30, seed=37)
        ce, cf = E.coordinates().tolist(), F.coordinates().tolist()

        def pinned(sub):
            return [len({evaluate(P, tuple(map(sub, x, y))) for x in ce}) for y in cf]

        x_minus_y = pinned(spec.sub)
        assert x_minus_y != pinned(lambda a, b: spec.sub(b, a))
        for route in (_pinned_pair_sizes, _pinned_convolution):
            assert route(P, E, F).tolist() == x_minus_y

    def test_residual_is_recorded_and_far_below_the_bound(self):
        # largest case in the suite: 101^3 points; full x full has the known
        # answer nu(t) = q^d * |V_t|
        spec = make_field(101)
        P = parse_polynomial("x1^2 + x2^2 + x3^2", spec, 3)
        E = full_grid(spec, 3)
        nu = _convolution_counts(P, E, E)
        assert nu.route == "fourier"
        assert 0.0 <= nu.residual < 1e-6
        assert np.array_equal(nu.counts, spec.q**3 * np.bincount(value_grid(P), minlength=101))
        small = random_set(spec, 3, 5, seed=35)
        direct = counting_function(P, small, small)
        assert (direct.route, direct.residual) == ("direct", 0.0)

    @pytest.mark.parametrize(
        "q, d, size_e, size_f, pins, fourier",
        [
            # the benchmark's sparse workload: small sets in big spaces
            (101, 3, 2000, 100, True, False),
            (625, 2, 2000, 100, True, False),
            (101, 2, 200, 200, False, False),
            (343, 1, 40, 40, False, False),
            (343, 2, 40, 40, False, False),
            # its dense workload: full grids and the large scan sides
            (101, 2, 101**2, 101**2, False, True),
            (71, 2, 71**2, 71**2, True, True),
            (31, 3, 1733, 1733, False, True),
            (31, 3, 5000, 5000, False, True),
            # the north-star pin case: on pairs while pins were charged
            # 2d passes a fiber, on the convolution since fibers share
            # their cosets' spectra and pair their inverses
            (61, 3, 61**3, 500, True, True),
            # d = 1: always pairs, where a pass streams the whole kernel
            (1009, 1, 504, 504, False, False),
            (2003, 1, 1002, 1002, False, False),
            (4001, 1, 1200, 1200, False, False),
            (1009, 1, 1009, 1009, False, False),
            (1009, 1, 1009, 1009, True, False),
        ],
    )
    def test_cost_rule_routes(self, q, d, size_e, size_f, pins, fourier):
        P = diagonal_polynomial(field_from_order(q), d, 2)
        passes = _pinned_passes(P, np.flatnonzero(_fiber_sizes(P))) if pins else _counting_passes(P.spec, d)
        assert _use_transform(size_e * size_f, q, d, passes) == fourier

    @pytest.mark.parametrize("q, size", [(1009, 504), (2003, 1002), (1009, 1009)])
    def test_line_routes_count_alike(self, q, size):
        # half and full sets count on pairs even with the kernel built; the
        # convolution stays callable at d = 1 as the pairs' cross-check
        from ffdist.fourier import _forward_kernel

        spec = field_from_order(q)
        P = parse_polynomial("x1^3 + x1", spec, 1)
        E, F = random_set(spec, 1, size, seed=50), random_set(spec, 1, size, seed=51)
        _forward_kernel(spec)
        nu = counting_function(P, E, F)
        assert nu.route == "direct"
        assert np.array_equal(nu.counts, _convolution_counts(P, E, F).counts)
        assert np.array_equal(nu.counts, _pair_counts(P, E, F).counts)

    @pytest.mark.parametrize(
        "q, d, size, fourier",
        [
            # d = 1: full sets, and 2.1 q^2 pairs, still take pairs
            (1009, 1, 1009, False),
            (2003, 1, 2003, False),
            (4001, 1, 4001, False),
            (1009, 1, 1470, False),
            # full grids at d >= 2 take the convolution, counting or pinned
            (101, 2, 101**2, True),
            (31, 3, 31**3, True),
        ],
    )
    def test_cost_rule_sends_every_line_to_pairs(self, q, d, size, fourier):
        P = diagonal_polynomial(field_from_order(q), d, 2)
        for passes in (_counting_passes(P.spec, d), _pinned_passes(P, np.flatnonzero(_fiber_sizes(P)))):
            assert _use_transform(size * size, q, d, passes) == fourier

    @pytest.mark.parametrize("built", [False, True])
    def test_line_counts_full_sets_on_pairs_cold_or_warm(self, built):
        from ffdist.fourier import _forward_kernel

        spec = field_from_order(1009)
        P = parse_polynomial("x1^3 + x1", spec, 1)
        E = full_grid(spec, 1)
        _forward_kernel.cache_clear()
        if built:
            _forward_kernel(spec)
        nu = counting_function(P, E, E)
        assert nu.route == "direct"
        assert np.array_equal(nu.counts, _convolution_counts(P, E, E).counts)

    @pytest.mark.parametrize("built", [False, True])
    def test_line_pins_full_sets_on_pairs_cold_or_warm(self, monkeypatch, built):
        from ffdist import distances
        from ffdist.fourier import _forward_kernel

        spec = field_from_order(1009)
        P = parse_polynomial("x1^3 + x1", spec, 1)
        E = full_grid(spec, 1)
        F = random_set(spec, 1, 300, seed=52)
        want = _pinned_convolution(P, E, F)
        _forward_kernel.cache_clear()
        if built:
            _forward_kernel(spec)

        def no_convolution(*args):
            raise AssertionError("d = 1 pins took the convolution")

        monkeypatch.setattr(distances, "_pinned_convolution_sizes", no_convolution)
        assert np.array_equal(pinned_distances(P, E, F).counts, want)

    def test_convolutions_restore_the_blas_thread_count(self, monkeypatch):
        # and so do decay's fiber peaks, whose column ranges run on threads
        from ffdist import distances, fourier, varieties

        calls = fourier._blas_thread_calls()
        if calls is None:
            pytest.skip("the BLAS thread count of numpy cannot be reached here")
        get, put = calls
        seen = []

        def counted(passes):
            def call(*args, **kwargs):
                seen.append(get())
                return passes(*args, **kwargs)

            return call

        monkeypatch.setattr(varieties, "_passes", counted(fourier._passes))
        for name in ("_passes", "_real_forward", "_real_inverse"):  # and counting's half route
            monkeypatch.setattr(distances, name, counted(getattr(fourier, name)))
        monkeypatch.setattr(varieties, "_workers", lambda: 2)
        P = parse_polynomial("x1^2 + x2^2", F13, 2)
        E = full_grid(F13, 2)
        P3 = parse_polynomial("x1^2 + x2^2 + x3^2", F13, 3)  # 169 columns: two ranges
        before = get()
        put(2)
        try:
            for route in (_convolution_counts, _pinned_convolution):
                route(P, E, E)
                assert get() == 2
            for spectra in (decay_spectrum, exceptional_set):
                spectra(P3)
                assert get() == 2
            monkeypatch.setattr(distances, "_ROUNDING_BOUND", -1.0)
            for route in (_convolution_counts, _pinned_convolution):
                with pytest.raises(RoundingDivergence):
                    route(P, E, E)
                assert get() == 2
        finally:
            put(before)
        assert seen and set(seen) == {1}

    def test_counts_stand_without_the_blas_thread_count(self, monkeypatch):
        from ffdist import fourier

        monkeypatch.setattr(fourier, "_blas_thread_calls", lambda: None)
        P = parse_polynomial("x1^2 + 3*x2^3", F13, 2)
        E = random_set(F13, 2, 90, seed=40)
        F = random_set(F13, 2, 70, seed=41)
        assert np.array_equal(_convolution_counts(P, E, F).counts, _pair_counts(P, E, F).counts)
        assert np.array_equal(_pinned_convolution(P, E, F), _pinned_pair_sizes(P, E, F))

    @pytest.mark.parametrize(
        "q, d, text, spectra",
        [
            (13, 2, "x1^4", 4),  # separable, not diagonal: a spectrum a fiber
            (7, 3, "x1^2 + 2*x2^3 + x3", 7),
            (9, 3, "x1^2 + x2^2 + x3^2", 3),  # diagonal: t = 0 and two cosets
            (13, 2, "x1^4 + 3*x2^2", 5),  # gcd(4, 12) = 4 cosets besides t = 0
            (13, 2, CROSS, 13),  # not separable: d forward passes a fiber
        ],
    )
    def test_pinned_convolution_reads_the_shared_fiber_spectra(
        self, monkeypatch, q, d, text, spectra
    ):
        # d passes for E, the shared table's (d - 1 for separable P), then
        # one forward spectrum a scaling coset of diagonal P, or a fiber of
        # any other (d - L passes each), the other fibers of a coset
        # gathered from it, and d inverse passes a pair of fibers, or a
        # lone last one; no fiber indicator is transformed on its own
        from ffdist import distances, fourier, varieties

        passes, indicators, dilations = [], [], []
        indicator_spectrum, product = distances._indicator_spectrum, distances._fiber_product

        def counted_passes(spec, values, n, bufs=(None, None), rows=None):
            passes.append((n, rows is not None))
            return fourier._passes(spec, values, n, bufs, rows)

        def counted_indicator(spec, d, indices):
            indicators.append(indices)
            return indicator_spectrum(spec, d, indices)

        def counted_product(spectrum, dilation, e_conj, out):
            if dilation is not None:
                dilations.append(dilation)
            return product(spectrum, dilation, e_conj, out)

        monkeypatch.setattr(distances, "_passes", counted_passes)
        monkeypatch.setattr(varieties, "_passes", counted_passes)
        monkeypatch.setattr(distances, "_indicator_spectrum", counted_indicator)
        monkeypatch.setattr(distances, "_fiber_product", counted_product)
        spec = field_from_order(q)
        P = cross_polynomial(spec) if text == CROSS else parse_polynomial(text, spec, d)
        E, F = random_set(spec, d, q ** (d - 1), seed=46), random_set(spec, d, 2 * q, seed=47)
        sizes = _pinned_convolution(P, E, F)
        fibers = np.flatnonzero(_fiber_sizes(P))
        shared = d - 1 if text != CROSS else 0
        want, held, gathered = [(d, False)] + [(1, False)] * shared, 0, 0
        for rep, members in _coset_members(P, fibers):
            want.append((d - shared, False))
            for t in members:
                gathered += t != rep
                held += 1
                if held == 2:
                    want.append((d, True))
                    held = 0
        want += [(d, True)] * held
        assert passes == want
        assert sum(n for n, _ in passes) == _pinned_passes(P, fibers)
        assert len(_coset_members(P, fibers)) == spectra
        assert len(dilations) == gathered == len(fibers) - spectra
        assert len(indicators) == 1 and indicators[0] is E.indices
        assert np.array_equal(sizes, _pinned_pair_sizes(P, E, F))

    @pytest.mark.parametrize(
        "q, d, text, fibers, cosets",
        [
            (13, 1, "x1^3", 5, 2),  # K = 3, gcd(3, 12) = 3
            (11, 1, "x1^3", 11, 2),  # gcd(3, 10) = 1: every t != 0 in one coset
            (13, 1, "x1^4", 4, 2),  # an even count, one pair across two cosets
            (13, 2, "x1^4 + 3*x2^2", 13, 5),  # K = 4, gcd 4
            (13, 2, "x1^3 + 2*x2^2", 13, 7),  # K = 6, gcd 6: each t alone
            (11, 2, "x1^3 + 2*x2^2", 11, 3),  # K = 6, gcd 2
            (13, 2, "x1^6 + x2^6", 5, 3),
            (25, 2, "x1^2 + 3*x2^2", 25, 3),  # extension fields
            (27, 2, "x1^3 + 2*x2^2", 27, 3),
            (16, 2, "x1^3 + x2^3", 16, 4),  # p = 2, an even count
            (9, 3, "x1^2 + x2^2 + 2*x3^2", 9, 3),
            (13, 2, "x1^2 + x2^2 + x1", 13, 13),  # separable, not diagonal
            (13, 2, "x1^4", 4, 4),
            (13, 2, CROSS, 13, 13),  # a cross term
        ],
    )
    def test_packed_coset_route_equals_the_pair_kernel(self, q, d, text, fibers, cosets):
        spec = field_from_order(q)
        P = cross_polynomial(spec) if text == CROSS else parse_polynomial(text, spec, d)
        nonempty = np.flatnonzero(_fiber_sizes(P))
        assert (len(nonempty), len(_coset_members(P, nonempty))) == (fibers, cosets)
        n = q**d
        cases = [
            (full_grid(spec, d), full_grid(spec, d)),
            (random_set(spec, d, q ** (d - 1), seed=60), random_set(spec, d, min(n, 2 * q), seed=61)),
            (random_set(spec, d, 3, seed=62), random_set(spec, d, 5, seed=63)),
        ]
        for E, F in cases:
            assert np.array_equal(_pinned_convolution(P, E, F), _pinned_pair_sizes(P, E, F))

    @pytest.mark.parametrize("half", ["real", "imag"])
    def test_either_half_of_a_pack_off_an_integer_diverges(self, monkeypatch, half):
        # sixteen fibers: every inverse is a pack; one value of one half is
        # moved 0.3 off its integer, and the route raises with the BLAS
        # thread count restored
        from ffdist import distances, fourier

        spec = field_from_order(16)
        P = parse_polynomial("x1^3 + x2^3", spec, 2)
        E = full_grid(spec, 2)
        assert len(np.flatnonzero(_fiber_sizes(P))) == 16

        def nudged_passes(spec, values, n, bufs=(None, None), rows=None):
            out = fourier._passes(spec, values, n, bufs, rows)
            if rows is not None:
                getattr(out, half)[7] += 0.3 * spec.q**n
            return out

        calls = fourier._blas_thread_calls()
        before = calls[0]() if calls else None
        monkeypatch.setattr(distances, "_passes", nudged_passes)
        with pytest.raises(RoundingDivergence, match="off an integer by 0.(29|30)"):
            _pinned_convolution(P, E, E)
        if calls:
            assert calls[0]() == before
        monkeypatch.undo()
        assert np.array_equal(_pinned_convolution(P, E, E), _pinned_pair_sizes(P, E, E))

    def test_a_pack_rounds_each_half_on_its_own(self, monkeypatch):
        from ffdist import distances
        from ffdist.fourier import _passes

        spec = F13
        rng = np.random.default_rng(64)
        counts = rng.integers(0, 9, size=(2, 169)).astype(np.float64)
        # the forward passes of D1 + i*D2 hold what the inverse turns back
        pack = _passes(spec, counts[0] + 1j * counts[1], 2).copy()
        one, two, residual = _paired_difference_counts(spec, 2, pack, np.empty_like(pack))
        assert np.array_equal(one, counts[0]) and np.array_equal(two, counts[1])
        assert 0.0 <= residual < 1e-9
        monkeypatch.setattr(distances, "_ROUNDING_BOUND", -1.0)
        with pytest.raises(RoundingDivergence):
            _paired_difference_counts(spec, 2, pack, np.empty_like(pack))

    @pytest.mark.parametrize("fibers", [[3], [0, 1, 5], [0, 2, 4, 6, 8]])
    def test_a_lone_last_fiber_takes_the_pair_inverse(self, monkeypatch, fibers):
        # an odd number of fibers: the last one goes through the paired
        # inverse with a zero partner, and its rounding is still checked
        from ffdist import distances

        calls = []

        def counted(*args):
            calls.append(args[2].size)
            return paired(*args)

        paired = distances._paired_difference_counts
        monkeypatch.setattr(distances, "_paired_difference_counts", counted)
        P = diagonal_polynomial(F13, 2, 2)  # every fiber of F_13^2 is nonempty
        E = full_grid(F13, 2)
        sizes = _pinned_convolution_sizes(P, E, E, np.array(fibers))
        assert sizes.tolist() == [len(fibers)] * E.size
        assert len(calls) == (len(fibers) + 1) // 2
        monkeypatch.setattr(distances, "_ROUNDING_BOUND", -1.0)
        with pytest.raises(RoundingDivergence):
            _pinned_convolution_sizes(P, E, E, np.array(fibers))

    @pytest.mark.parametrize(
        "q, d, text", [(13, 3, "x1^2+x3^3"), (13, 2, "x1^3+2*x2^3"), (9, 2, "x1^2+x1+x2^2")]
    )
    def test_separable_pins_on_the_convolution_build_no_value_grid(self, monkeypatch, q, d, text):
        from ffdist import distances, varieties

        def unreachable(*args, **kwargs):
            raise AssertionError("the pinned convolution built the value grid of P")

        spec = field_from_order(q)
        P = parse_polynomial(text, spec, d)
        E = full_grid(spec, d)
        want = _pinned_pair_sizes(P, E, E)
        for module in (distances, varieties):
            monkeypatch.setattr(module, "value_grid", unreachable)
        monkeypatch.setattr(distances, "_pinned_pair_sizes", lambda *_: pytest.fail("pair route"))
        assert np.array_equal(pinned_distances(P, E, E).counts, want)

    def test_pinned_convolution_builds_the_fiber_list_once(self, monkeypatch):
        from ffdist import distances

        calls = []

        def counted_sizes(P):
            calls.append(P.spec.q)
            return _fiber_sizes(P)

        monkeypatch.setattr(distances, "_fiber_sizes", counted_sizes)
        monkeypatch.setattr(distances, "_pinned_pair_sizes", lambda *_: pytest.fail("pair route"))
        spec = make_field(31)
        P = diagonal_polynomial(spec, 2, 2)
        E = full_grid(spec, 2)
        rep = pinned_distances(P, E, E)
        assert calls == [31]  # the route rule's list is the convolution's
        assert np.array_equal(rep.counts, _pinned_pair_sizes(P, E, E))

    def test_auto_route_follows_the_cost_rule(self):
        P = parse_polynomial("x1^2 + x2^2", F13, 2)
        E = full_grid(F13, 2)
        assert counting_function(P, E, E).route == "fourier"
        pin = points_from_coords(F13, 2, [[1, 2]])
        assert counting_function(P, pin, E).route == "direct"


# (q, d) for the half-spectrum route: p = 2 fields, where the half rows are
# all q and nothing halves; extension fields of odd p; primes; d = 2 to 4.
HALF_CASES = [
    (2, 3), (4, 2), (4, 4), (8, 3), (16, 2),
    (9, 2), (9, 3), (25, 2), (27, 2), (125, 2),
    (3, 4), (5, 4), (13, 2), (31, 3),
]  # fmt: skip


def half_polynomials(spec, d):
    """sum x_j^2 and x1^2 + x1*x2 + x_d^3, a cross term make_polynomial spells."""
    unit = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    cross = [(1, tuple(2 * e for e in unit[0])), (1, tuple(a + b for a, b in zip(*unit[:2])))]
    cross.append((1, tuple(3 * e for e in unit[-1])))
    return diagonal_polynomial(spec, d, 2), make_polynomial(spec, d, cross)


class TestHalfSpectrum:
    """Counting's convolution on the half rows m_1 <= -m_1 (fourier._half_rows)."""

    @pytest.mark.parametrize("q, d", HALF_CASES)
    def test_half_route_equals_the_pair_kernel(self, q, d):
        spec = field_from_order(q)
        for P in half_polynomials(spec, d):
            for E, F in _route_cases(spec, d):
                direct, half = _pair_counts(P, E, F), _convolution_counts(P, E, F)
                assert half.route == "fourier" and half.counts.dtype == np.int64
                assert np.array_equal(direct.counts, half.counts)
                assert 0.0 <= half.residual < 1e-9

    @pytest.mark.parametrize("q", [2, 4, 9, 13, 16, 27])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_half_forward_is_the_full_spectrum_at_the_half_rows(self, q, d):
        from ffdist.distances import _half_spectrum, _indicator_spectrum
        from ffdist.fourier import _half_rows

        spec = field_from_order(q)
        rows, weights = _half_rows(spec)
        neg = neg_table(spec)
        assert rows.tolist() == [m for m in range(q) if m <= neg[m]]
        assert len(rows) == (q if spec.p == 2 else (q + 1) // 2)
        assert weights.tolist() == [1.0 if neg[m] == m else 2.0 for m in rows]
        indices = random_set(spec, d, max(1, q**d // 3), seed=q + d).indices
        full = _indicator_spectrum(spec, d, indices).reshape((q,) * d)  # (m_d, ..., m_1)
        want = np.moveaxis(full, -1, 0)[rows].ravel()  # (m_1 in R, m_d, ..., m_2)
        got = _half_spectrum(spec, d, indices, rows)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-9

    def test_half_route_off_an_integer_diverges(self, monkeypatch):
        from ffdist import distances, fourier

        spec = make_field(31)
        P = diagonal_polynomial(spec, 3, 2)
        E, F = full_grid(spec, 3), random_set(spec, 3, 900, seed=46)
        calls = fourier._blas_thread_calls()
        before = calls[0]() if calls else None
        monkeypatch.setattr(distances, "_ROUNDING_BOUND", -1.0)
        with pytest.raises(RoundingDivergence, match="off an integer"):
            _convolution_counts(P, E, F)
        if calls:
            assert calls[0]() == before
        monkeypatch.undo()
        assert np.array_equal(_convolution_counts(P, E, F).counts, _pair_counts(P, E, F).counts)

    @pytest.mark.parametrize("q, d", [(101, 2), (31, 3), (27, 2), (16, 3), (9, 4)])
    def test_half_route_peak_stays_within_its_stated_bytes(self, q, d):
        # the comment above harness._CONVOLUTION_POINT_BYTES states at most
        # 57.7 B a point for counting's convolution, P's value grid built cold
        import tracemalloc

        from ffdist.fourier import _forward_kernel

        spec = field_from_order(q)
        P = diagonal_polynomial(spec, d, 2)
        E, F = full_grid(spec, d), PointSet(spec, d, np.arange(0, q**d, 3))
        neg_table(spec), _forward_kernel(spec)
        value_grid.cache_clear()
        tracemalloc.start()
        try:
            counts = _convolution_counts(P, E, F).counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == E.size * F.size
        assert peak <= 64 * q**d


class TestLift:
    def test_parabola(self):
        P = parse_polynomial("x1^2", F7, 1)
        H = paraboloid_lift(P)
        assert set(H.terms) == {(1, (2, 0)), (6, (0, 1))}
        # V_0 of H is the standard parabola x2 = x1^2
        V0 = variety(H, 0)
        expected = points_from_coords(
            F7, 2, [[x, F7.mul(x, x)] for x in range(7)]
        )
        assert np.array_equal(V0.indices, expected.indices)

    def test_product_set_rejects_a_multidimensional_extra_factor(self):
        with pytest.raises(DimensionMismatch) as info:
            product_set(full_grid(F7, 2), full_grid(F7, 2))
        assert info.value.exit_code == 2
        with pytest.raises(MixedFields):
            product_set(full_grid(F7, 2), full_grid(F5, 1))

    @pytest.mark.parametrize("text", ["x1^2+x2^2", "x1^2+x2^3"])
    def test_every_lifted_fiber_has_q_to_the_d_points(self, text):
        P = parse_polynomial(text, F7, 2)
        H = paraboloid_lift(P)
        sizes = np.bincount(value_grid(H), minlength=7)
        assert np.all(sizes == 49)

    def test_lifted_fibers_are_counted_with_no_grid(self, monkeypatch):
        # H over F_101^5 has 1.05e10 points; its fiber sizes come from its parts
        from ffdist import distances, varieties

        def unreachable(*args, **kwargs):
            raise AssertionError("the value grid of a separable P was built")

        for module in (distances, varieties):
            monkeypatch.setattr(module, "value_grid", unreachable)
        H = paraboloid_lift(parse_polynomial("x1^2+x2^2+x3^2+x4^3", make_field(101), 4))
        assert np.all(_fiber_sizes(H) == 101**4)
        # the lift runner: extension field, separable but not diagonal P,
        # sets small enough for the pair kernel
        cfg = ExperimentConfig(q=25, d=2, poly="x1^2+2*x1+x2^3", setE="random:30", setF="random:30")
        code, summary = run("lift", cfg)
        assert code == 0 and summary["fibers_uniform"] and summary["restriction_matches"]

    @pytest.mark.parametrize("text", ["x1^2+x2^2", "x1^2+x2^3"])
    def test_restriction_to_zero_slice_reproduces_distances(self, text):
        P = parse_polynomial(text, F7, 2)
        H = paraboloid_lift(P)
        zero = points_from_coords(F7, 1, [[0]])
        for seed in range(5):
            E = random_set(F7, 2, 10, seed=300 + seed)
            F = random_set(F7, 2, 12, seed=400 + seed)
            assert distance_set(H, product_set(E, zero), product_set(F, zero)) == (
                distance_set(P, E, F)
            )


class TestProductExperiment:
    def test_zero_slice_reduces_to_plain_distance_report(self):
        P = parse_polynomial("x1^2", F7, 1)
        E = random_set(F7, 1, 5, seed=16)
        F = random_set(F7, 1, 6, seed=17)
        zero = points_from_coords(F7, 1, [[0]])
        rep = product_set_experiment(P, E, zero, F, zero)
        assert rep.delta_size == len(distance_set(P, E, F))
        assert rep.size_E_star == E.size and rep.size_F_star == F.size

    def test_dense_products_over_f11_keep_half_the_distances(self):
        # hypothesis ratio >= 4 across 50 seeds; every run kept |Delta_H| > q/2
        P = parse_polynomial("x1^2", make_field(11), 1)
        F11 = P.spec
        for seed in range(50):
            sets = {
                role: PointSet(
                    F11,
                    1,
                    sample_indices(SplitMix64(derive_seed(seed, salt)), 11, 8),
                )
                for role, salt in (("E", 1), ("F", 2), ("E2", 3), ("F2", 4))
            }
            rep = product_set_experiment(
                P, sets["E"], sets["E2"], sets["F"], sets["F2"],
                C=4.0, rho=0.5,
            )
            assert rep.hypothesis_ratio >= 4.0
            assert rep.delta_size >= 11 / 2
            assert rep.verdict == "pass"

    def test_full_products_cover_everything(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        E = full_grid(F7, 2)
        line = full_grid(F7, 1)
        rep = product_set_experiment(P, E, line, E, line)
        assert rep.delta_size == 7
        assert rep.verdict == "pass"

    def test_hypothesis_ratio(self):
        P = parse_polynomial("x1^2", F7, 1)
        E = random_set(F7, 1, 4, seed=18)
        F = random_set(F7, 1, 5, seed=19)
        two = points_from_coords(F7, 1, [[0], [1]])
        rep = product_set_experiment(P, E, two, F, two)
        assert rep.hypothesis_ratio == pytest.approx((8 * 10) / (2 * 49.0))

    def test_phase_condition_recorded_when_requested(self):
        P = parse_polynomial("x1^2", F7, 1)
        E = full_grid(F7, 1)
        zero = points_from_coords(F7, 1, [[0]])
        rep = product_set_experiment(P, E, zero, E, zero)
        assert rep.phase_max_ratio == pytest.approx(1.0)  # Gauss sum is sharp

    def test_phase_condition_never_builds_the_phase_table(self, monkeypatch):
        from ffdist import varieties

        def unreachable(*args, **kwargs):
            raise AssertionError("the product experiment built the whole phase table")

        monkeypatch.setattr(varieties, "_phase_table", unreachable)
        P = parse_polynomial("x1^2 + x2^3", F7, 2)
        E = random_set(F7, 2, 20, seed=40)
        line = full_grid(F7, 1)
        rep = product_set_experiment(P, E, line, E, line)
        assert 0 < rep.phase_max_ratio <= 2.0 + 1e-9  # Weil product bound / q^(d/2)


class TestVerifiers:
    def test_one_verdict_rule(self):
        assert [_verdict(h, ok) for h in (False, True) for ok in (False, True)] == [
            "vacuous", "vacuous", "fail", "pass",
        ]

    def test_equal_sets_always_contain_zero(self):
        P = parse_polynomial("x1^2 + x2^2", F13, 2)
        for seed in range(5):
            E = random_set(F13, 2, 20, seed=500 + seed)
            assert 0 in distance_set(P, E, E)

    def test_falconer_pass_on_dense_sets(self):
        P = parse_polynomial("x1^2 + x2^2", F13, 2)
        k = 141  # ceil(sqrt(9 * 13^3))
        for seed in range(5):
            E = random_set(F13, 2, k, seed=600 + seed)
            F = random_set(F13, 2, k, seed=700 + seed)
            v = verify_falconer(P, E, F, T={0}, C=9.0)
            assert v.status == "pass"
            assert v.delta_size >= 12
            assert v.covers_complement
            assert set(v.missing) <= {0}

    def test_falconer_vacuous_below_threshold(self):
        P = parse_polynomial("x1^2 + x2^2", F13, 2)
        E = random_set(F13, 2, 10, seed=20)
        v = verify_falconer(P, E, E, T={0}, C=9.0)
        assert v.status == "vacuous"

    def test_erdos_ratio_one_on_full_grids(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        E = full_grid(F7, 2)
        rep = exceptional_set(P)
        v = verify_erdos(P, E, E, rep.A)
        assert v.ratio == pytest.approx(1.0)
        assert v.status == "pass"

    def test_erdos_line_example_records_decay_failure(self):
        # the diagonal line with x1^2 - x2^2 keeps |Delta| = 1; the t = 0
        # fiber fails sharp decay at the tight threshold, which the report
        # surfaces through T and A
        P = parse_polynomial("x1^2 - x2^2", F7, 2)
        rep = exceptional_set(P, kappa_sharp=2.0)
        assert 0 in rep.T
        E = points_from_coords(F7, 2, [[t, t] for t in range(7)])
        v = verify_erdos(P, E, E, rep.A)
        assert v.delta_size == 1
        assert not v.unconditional

    def test_erdos_unconditional_when_A_empty(self):
        # odd-dimensional spheres keep sharp decay everywhere, so the size
        # hypothesis can be dropped
        P = parse_polynomial("x1^2 + x2^2 + x3^2", F7, 3)
        rep = exceptional_set(P)
        assert rep.A == frozenset()
        small_E = random_set(F7, 3, 4, seed=21)
        v = verify_erdos(P, small_E, small_E, rep.A, C=1.0)
        assert v.status in {"pass", "fail"}  # applicable despite tiny sets
        assert v.unconditional


def scalar_square_identity(E, trials=1000, seed=0):
    """Reference: the scalar triple loop verify_square_identity replaced."""
    spec, d = E.spec, E.d
    P = diagonal_polynomial(spec, d, 2)
    two = spec.add(1, 1)
    rng = SplitMix64(derive_seed(seed, 0x5153))
    coords = E.coordinates()

    def dot(u, v):
        acc = 0
        for uj, vj in zip(u, v):
            acc = spec.add(acc, spec.mul(int(uj), int(vj)))
        return acc

    def shifted(u, y):
        return tuple(spec.sub(int(a), int(b)) for a, b in zip(u, y))

    for _ in range(trials):
        x = coords[rng.below(E.size)]
        xp = coords[rng.below(E.size)]
        y = coords[rng.below(E.size)]
        lhs = spec.sub(evaluate(P, shifted(x, y)), evaluate(P, shifted(xp, y)))
        rhs = spec.sub(
            spec.sub(evaluate(P, tuple(int(c) for c in x)), spec.mul(two, dot(y, x))),
            spec.sub(evaluate(P, tuple(int(c) for c in xp)), spec.mul(two, dot(y, xp))),
        )
        if lhs != rhs:
            return False
    return True


class TestSquareIdentity:
    def test_holds_on_random_triples_f7(self):
        assert verify_square_identity(full_grid(F7, 2), trials=200, seed=1)

    def test_holds_on_random_triples_f13_cubed(self):
        assert verify_square_identity(full_grid(F13, 3), trials=300, seed=2)

    def test_degenerate_triples(self):
        # x = x' and y = 0 are exercised once the sample set is tiny
        E = points_from_coords(F7, 2, [[0, 0], [1, 2]])
        assert verify_square_identity(E, trials=64, seed=3)

    def test_matches_the_scalar_loop_on_random_fields_and_sets(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        fields = [make_field(p, n) for p, n in ((2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2))]

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(
            spec=st.sampled_from(fields),
            d=st.integers(1, 3),
            k=st.integers(1, 40),
            trials=st.integers(0, 60),
            seed=st.integers(0, 2**64 - 1),
        )
        def check(spec, d, k, trials, seed):
            E = PointSet(spec, d, sample_indices(SplitMix64(seed), spec.q**d, k))
            got = verify_square_identity(E, trials=trials, seed=seed)
            assert got is scalar_square_identity(E, trials=trials, seed=seed)

        check()

    @pytest.mark.parametrize("name", ["add_table", "neg_table", "mul_table"])
    def test_one_corrupted_table_entry_fails_the_identity(self, monkeypatch, name):
        from ffdist import distances

        build = getattr(distances, name)

        def corrupted(spec):
            t = build(spec).copy()
            entry = (2, 5)[: t.ndim]  # neg_table is one-dimensional
            t[entry] = (t[entry] + 1) % spec.q
            return t

        E = full_grid(F7, 2)
        monkeypatch.setattr(distances, name, corrupted)
        assert not verify_square_identity(E, trials=200, seed=1)
        assert scalar_square_identity(E, trials=200, seed=1)  # the scalar path never reads tables

    def test_reads_no_value_grid_at_f101_to_the_4(self, monkeypatch):
        # the value grid of sum x_j^2 over F_101^4 would take 833 MB
        from ffdist import distances, varieties

        def unreachable(*args, **kwargs):
            raise AssertionError("verify_square_identity built a value grid")

        for module in (distances, varieties):
            monkeypatch.setattr(module, "value_grid", unreachable)
        E = random_set(make_field(101), 4, 500, seed=65)
        assert verify_square_identity(E, trials=1000, seed=7)
        assert scalar_square_identity(E, trials=200, seed=7)

    def test_draws_the_scalar_below_triples(self, monkeypatch):
        from ffdist import distances

        seen = []

        def recording(spec, idx, d):
            seen.append(np.asarray(idx).tolist())
            return decode(spec, idx, d)

        decode = distances.decode_points
        monkeypatch.setattr(distances, "decode_points", recording)
        E = random_set(F9, 2, 30, seed=4)
        assert verify_square_identity(E, trials=50, seed=6)
        rng = SplitMix64(derive_seed(6, 0x5153))
        triples = [[int(E.indices[rng.below(E.size)]) for _ in range(3)] for _ in range(50)]
        assert [list(t) for t in zip(*seen)] == triples
