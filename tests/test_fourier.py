"""Grid transforms: trivial cases, round trips, energy identity,
equivalence with the direct double-loop transform, bit identity with the
per-axis tensordot oracle (the forward direction also through the pass
helper writing into caller-owned buffers), and the memory a transform
holds."""

import numpy as np
import pytest

from ffdist.field import decode_points, make_field
from ffdist.fourier import (
    ComplexGrid,
    _passes,
    fourier_transform,
    inverse_transform,
    plancherel_residual,
)
from ffdist.rng import SplitMix64
from ffdist.varieties import parse_polynomial, value_grid
from oracles import per_axis_transform


def reference_transform(spec, d, values):
    """Direct O(q^(2d)) transform; independent of the axis-factored path."""
    q = spec.q
    out = np.zeros(q**d, dtype=np.complex128)
    points = [decode_points(spec, i, d).tolist() for i in range(q**d)]
    for mi, m in enumerate(points):
        acc = 0j
        for xi, x in enumerate(points):
            dot = 0
            for xj, mj in zip(x, m):
                dot = spec.add(dot, spec.mul(xj, mj))
            acc += values[xi] * spec.char_table[spec.neg(dot)]
        out[mi] = acc / q**d
    return out


def random_grid(spec, d, rng, bounded=True):
    n = spec.q**d
    re = np.array([rng.unit() for _ in range(n)])
    im = np.array([rng.unit() for _ in range(n)])
    vals = (2 * re - 1) + 1j * (2 * im - 1)
    if bounded:
        vals /= np.sqrt(2.0)  # keep every entry inside the unit disc
    return ComplexGrid(spec, d, vals)


class TestForward:
    def test_origin_indicator_is_flat(self):
        F = make_field(7)
        fh = fourier_transform(ComplexGrid(F, 2, np.arange(49) == 0))
        assert np.allclose(fh.values, 1 / 49, atol=1e-12)

    def test_constant_one_concentrates_at_zero(self):
        F = make_field(5)
        fh = fourier_transform(ComplexGrid(F, 2, np.ones(25)))
        assert abs(fh.values[0] - 1) < 1e-12
        assert np.max(np.abs(fh.values[1:])) < 1e-12

    def test_zero_frequency_is_density(self):
        F = make_field(7)
        idx = [3, 11, 12, 40]
        fh = fourier_transform(ComplexGrid(F, 2, np.isin(np.arange(49), idx)))
        assert abs(fh.values[0] - len(idx) / 49) < 1e-12

    def test_linearity(self):
        F = make_field(3, 2)
        rng = SplitMix64(11)
        f = random_grid(F, 2, rng)
        g = random_grid(F, 2, rng)
        combo = ComplexGrid(F, 2, 2.5 * f.values - 1j * g.values)
        lhs = fourier_transform(combo).values
        rhs = 2.5 * fourier_transform(f).values - 1j * fourier_transform(g).values
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * F.q**2


class TestInverse:
    def test_single_frequency_gives_character(self):
        F = make_field(7)
        m0 = 9  # (2, 1)
        g = ComplexGrid(F, 2, np.zeros(49))
        g.values[m0] = 1.0
        f = inverse_transform(g)
        for xi in range(49):
            x = decode_points(F, xi, 2).tolist()
            m = decode_points(F, m0, 2).tolist()
            dot = 0
            for xj, mj in zip(x, m):
                dot = F.add(dot, F.mul(xj, mj))
            assert abs(f.values[xi] - F.char_table[dot]) < 1e-12

    def test_roundtrip_random_ten_point_indicator(self):
        F = make_field(7)
        rng = SplitMix64(3)
        idx = sorted({rng.below(49) for _ in range(20)})[:10]
        f = ComplexGrid(F, 2, np.isin(np.arange(49), idx))
        back = inverse_transform(fourier_transform(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-9

    def test_zero_grid(self):
        F = make_field(5)
        assert np.all(inverse_transform(ComplexGrid(F, 2, np.zeros(25))).values == 0)

    @pytest.mark.parametrize("p,n,d", [(3, 1, 2), (7, 1, 2), (3, 2, 2), (5, 1, 3)])
    def test_roundtrip_random_grids(self, p, n, d):
        F = make_field(p, n)
        rng = SplitMix64(p * 100 + d)
        for _ in range(5):
            f = random_grid(F, d, rng)
            back = inverse_transform(fourier_transform(f))
            err = np.max(np.abs(back.values - f.values))
            assert err < 1e-9 * F.q ** (d / 2)

    def test_roundtrip_on_random_fields_and_grids(self):
        hyp = pytest.importorskip("hypothesis")
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        st = hyp.strategies

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(
            p=st.sampled_from([2, 3, 5, 7, 11, 13, 31]),
            n=st.integers(1, 4),
            d=st.integers(1, 3),
            data=st.data(),
        )
        def check(p, n, d, data):
            hyp.assume((p**n) ** d <= 4096)
            F = make_field(p, n)
            if data.draw(st.booleans()):
                f = random_grid(F, d, SplitMix64(data.draw(st.integers(0, 2**32))))
            else:
                unit = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
                f = ComplexGrid(F, d, data.draw(hnp.arrays(np.complex128, F.q**d, elements=unit)))
            back = inverse_transform(fourier_transform(f))
            assert np.max(np.abs(back.values - f.values)) < 1e-9 * F.q ** (d / 2)

        check()


class TestEnergy:
    def test_full_grid_both_sides_one(self):
        F = make_field(7)
        f = ComplexGrid(F, 2, np.ones(49))
        fh = fourier_transform(f)
        assert abs(np.sum(np.abs(fh.values) ** 2) - 1) < 1e-9
        assert plancherel_residual(f) < 1e-9

    def test_singleton(self):
        F = make_field(5)
        f = ComplexGrid(F, 2, np.arange(25) == 7)
        fh = fourier_transform(f)
        assert abs(np.sum(np.abs(fh.values) ** 2) - 1 / 25) < 1e-12
        assert plancherel_residual(f) < 1e-12

    def test_random_indicator_over_f9(self):
        F = make_field(3, 2)
        rng = SplitMix64(5)
        idx = sorted({rng.below(81) for _ in range(30)})
        f = ComplexGrid(F, 2, np.isin(np.arange(81), idx))
        # both sides evaluated independently
        fh = fourier_transform(f)
        lhs = float(np.sum(np.abs(fh.values) ** 2))
        assert abs(lhs - len(idx) / 81) < 1e-9
        assert plancherel_residual(f) < 1e-9

    def test_bounded_random_grids(self):
        F = make_field(3, 2)
        rng = SplitMix64(8)
        for _ in range(5):
            f = random_grid(F, 2, rng)
            assert plancherel_residual(f) < 1e-9 * F.q**2


class TestOracleEquivalence:
    def test_axis_factored_equals_direct_loop_on_f5_squared(self):
        F = make_field(5)
        rng = SplitMix64(17)
        for _ in range(4):
            f = random_grid(F, 2, rng, bounded=False)
            fast = fourier_transform(f).values
            slow = reference_transform(F, 2, f.values)
            assert np.max(np.abs(fast - slow)) < 1e-10

    def test_axis_factored_equals_direct_loop_on_f9(self):
        F = make_field(3, 2)
        rng = SplitMix64(18)
        f = random_grid(F, 2, rng, bounded=False)
        slow = reference_transform(F, 2, f.values)
        assert np.max(np.abs(fourier_transform(f).values - slow)) < 1e-10


CASES = [
    (spec, d)
    for spec in (
        make_field(7),
        make_field(13),
        make_field(5),
        make_field(2, 3),
        make_field(3, 2, (1, 0, 1)),
        make_field(5, 2),
        make_field(3, 3),
    )
    for d in (1, 2, 3)
]


def oracle_grids(spec, d):
    rng = SplitMix64(spec.q * 10 + d)
    grids = [random_grid(spec, d, rng) for _ in range(3)]
    thirds = np.arange(spec.q**d) % 3
    grids += [fourier_transform(ComplexGrid(spec, d, thirds == k)) for k in range(3)]
    return grids


def assert_bits_equal(got, want):
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def workspace(spec, d):
    return np.empty(spec.q**d, np.complex128), np.empty(spec.q**d, np.complex128)


# Bit identity, not closeness: decay's argmax_m picks among exact ties by
# float noise.  The kernel stays on the left of each product because
# x @ K differs in the last bit at F_13^2, F_5^3, F_9^2 and F_25^2, and a
# batched product over the middle axis flips argmax_m at F_61^3, t = 2.
@pytest.mark.parametrize("spec, d", CASES, ids=lambda v: getattr(v, "q", v))
def test_forward_equals_the_oracle_bit_for_bit(spec, d):
    work = workspace(spec, d)  # shared by every grid, as _fiber_peaks shares its pair
    for g in oracle_grids(spec, d):
        want = per_axis_transform(g.values, spec, d)
        assert_bits_equal(fourier_transform(g).values, want)
        got = _passes(spec, g.values, d, work)
        got /= float(spec.q) ** d
        assert_bits_equal(got, want)


@pytest.mark.parametrize("spec, d", CASES, ids=lambda v: getattr(v, "q", v))
def test_inverse_equals_the_explicit_kernel_bit_for_bit(spec, d):
    # the oracle's inverse has its own kernel B[x, m] = chi(x*m); the
    # package reads the forward kernel's rows at -x
    for g in oracle_grids(spec, d):
        got = inverse_transform(g).values
        assert_bits_equal(got, per_axis_transform(g.values, spec, d, inverse=True))


def test_f61_cubed_fiber_indicators_equal_the_oracle_bit_for_bit():
    spec = make_field(61)
    vg = value_grid(parse_polynomial("x1^2 + x2^2 + x3^2", spec, 3))
    for t in range(3):
        g = ComplexGrid(spec, 3, (vg == t).astype(np.complex128))
        for transform, inverse in ((fourier_transform, False), (inverse_transform, True)):
            want = per_axis_transform(g.values, spec, 3, inverse)
            assert_bits_equal(transform(g).values, want)


@pytest.mark.parametrize("p, d", [(31, 3), (13, 4)])
@pytest.mark.parametrize("transform", [fourier_transform, inverse_transform])
def test_transform_holds_at_most_two_grids(transform, p, d):
    # with the kernel and neg_table warm, a transform allocates its passes'
    # outputs and nothing else: two grids of 16 bytes a point at a time
    import tracemalloc

    spec = make_field(p)
    g = random_grid(spec, d, SplitMix64(p + d))
    transform(g)
    tracemalloc.start()
    try:
        transform(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 16 * spec.q**d


def test_transforms_sharing_a_workspace_allocate_no_grid():
    # the passes write into the caller's pair, so a batch of transforms
    # allocates nothing of grid size, the first included
    import tracemalloc

    spec, d = make_field(31), 3
    g = random_grid(spec, d, SplitMix64(7))
    work = workspace(spec, d)
    fourier_transform(g)  # warm the kernel cache
    tracemalloc.start()
    try:
        results = [_passes(spec, g.values, d, work) for _ in range(5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.shares_memory(r, work[0]) or np.shares_memory(r, work[1]) for r in results)
    assert peak < 0.1 * 16 * spec.q**d
