"""Distance sets, counting (direct vs transform), pinned distances, the
lift, product experiments, and the theorem-style verifiers."""

import numpy as np
import pytest

from ffdist.errors import DimensionMismatch, EmptySet, MixedFields, ZeroPolynomial
from ffdist.distances import (
    _histogram,
    _pinned_sizes,
    _use_transform,
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
from ffdist.field import field_from_order, make_field
from ffdist.rng import SplitMix64, derive_seed, sample_indices
from ffdist.varieties import (
    PointSet,
    evaluate,
    exceptional_set,
    full_grid,
    make_polynomial,
    parse_polynomial,
    points_from_coords,
    value_grid,
    variety,
)

F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)
F13 = make_field(13)


def random_set(spec, d, k, seed):
    return PointSet(spec, d, sample_indices(SplitMix64(derive_seed(seed)), spec.q**d, k))


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
            assert distance_set(P, E.translate(z), F.translate(z)) == distance_set(
                P, E, F
            )

    def test_even_polynomial_is_symmetric_in_E_and_F(self):
        P = parse_polynomial("x1^2 + 2*x2^4", F5, 2)
        E = random_set(F5, 2, 7, seed=5)
        F = random_set(F5, 2, 6, seed=6)
        assert distance_set(P, E, F) == distance_set(P, F, E)

    def test_empty_set_rejected(self):
        P = parse_polynomial("x1^2", F7, 1)
        with pytest.raises(EmptySet):
            distance_set(P, PointSet(F7, 1, np.array([], dtype=int)), full_grid(F7, 1))

    def test_dimension_and_field_mismatches(self):
        P = parse_polynomial("x1^2 + x2^2", F7, 2)
        with pytest.raises(DimensionMismatch):
            distance_set(P, full_grid(F7, 1), full_grid(F7, 2))
        with pytest.raises(MixedFields):
            distance_set(P, full_grid(F5, 2), full_grid(F7, 2))


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
            direct = counting_function(P, E, F, "direct")
            transform = counting_function(P, E, F, "fourier")
            assert np.array_equal(direct.counts, transform.counts)

    def test_support_is_distance_set(self):
        P = parse_polynomial("x1^3 + x2^2", F5, 2)
        E = random_set(F5, 2, 6, seed=9)
        F = random_set(F5, 2, 9, seed=10)
        assert counting_function(P, E, F).support() == distance_set(P, E, F)

    def test_unknown_method_rejected(self):
        P = parse_polynomial("x1^2", F5, 1)
        with pytest.raises(ValueError):
            counting_function(P, full_grid(F5, 1), full_grid(F5, 1), "magic")


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


ROUTE_POLYS = {1: "x1^3", 2: "x1^2 + 3*x2^3", 3: "x1^2 + 2*x2^2 + x3^3"}


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
    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 25, 27])
    def test_direct_and_transform_routes_agree(self, q, d):
        spec = field_from_order(q)
        P = parse_polynomial(ROUTE_POLYS[d], spec, d)
        for E, F in _route_cases(spec, d):
            direct = counting_function(P, E, F, "direct")
            fourier = counting_function(P, E, F, "fourier")
            assert (direct.route, fourier.route) == ("direct", "fourier")
            assert direct.counts.dtype == fourier.counts.dtype == np.int64
            assert np.array_equal(direct.counts, fourier.counts)
            assert direct.total() == E.size * F.size
            assert direct.support() == fourier.support() == distance_set(P, E, F)
            pinned = _pinned_sizes(P, E, F, "direct")
            assert np.array_equal(pinned, _pinned_sizes(P, E, F, "fourier"))
            rep = pinned_distances(P, E, F)
            assert [rep.sizes[int(y)] for y in F.indices] == pinned.tolist()

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
            direct = counting_function(P, E, F, "direct")
            assert np.array_equal(direct.counts, counting_function(P, E, F, "fourier").counts)
            assert direct.total() == E.size * F.size
            pinned = _pinned_sizes(P, E, F, "direct")
            assert np.array_equal(pinned, _pinned_sizes(P, E, F, "fourier"))

        check()

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
        for method in ("direct", "fourier"):
            assert _pinned_sizes(P, E, F, method).tolist() == x_minus_y

    def test_residual_is_recorded_and_far_below_the_bound(self):
        # largest case in the suite: 101^3 points; full x full has the known
        # answer nu(t) = q^d * |V_t|
        spec = make_field(101)
        P = parse_polynomial("x1^2 + x2^2 + x3^2", spec, 3)
        E = full_grid(spec, 3)
        nu = counting_function(P, E, E, "fourier")
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
        ],
    )
    def test_cost_rule_routes(self, q, d, size_e, size_f, pins, fourier):
        convolutions = q if pins else 1
        assert _use_transform(size_e * size_f, q**d, convolutions) == fourier

    def test_auto_route_follows_the_cost_rule(self):
        P = parse_polynomial("x1^2 + x2^2", F13, 2)
        E = full_grid(F13, 2)
        assert counting_function(P, E, E).route == "fourier"
        pin = points_from_coords(F13, 2, [[1, 2]])
        assert counting_function(P, pin, E).route == "direct"
        assert _histogram(P, pin, E, "auto").route == "direct"


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

    @pytest.mark.parametrize("text", ["x1^2+x2^2", "x1^2+x2^3"])
    def test_every_lifted_fiber_has_q_to_the_d_points(self, text):
        P = parse_polynomial(text, F7, 2)
        H = paraboloid_lift(P)
        sizes = np.bincount(value_grid(H), minlength=7)
        assert np.all(sizes == 49)

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


class TestVerifiers:
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


class TestSquareIdentity:
    def test_holds_on_random_triples_f7(self):
        assert verify_square_identity(full_grid(F7, 2), trials=200, seed=1)

    def test_holds_on_random_triples_f13_cubed(self):
        assert verify_square_identity(full_grid(F13, 3), trials=300, seed=2)

    def test_degenerate_triples(self):
        # x = x' and y = 0 are exercised once the sample set is tiny
        E = points_from_coords(F7, 2, [[0, 0], [1, 2]])
        assert verify_square_identity(E, trials=64, seed=3)
