"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Tolerances are pinned here and nowhere else."""

import json
import math
import time
from pathlib import Path

import numpy as np

from ffdist.cli import main
from ffdist.distances import (
    _convolution_counts,
    _pair_counts,
    distance_set,
    paraboloid_lift,
    pinned_distances,
    product_set,
    verify_square_identity,
)
from ffdist.field import make_field
from ffdist.fourier import ComplexGrid, fourier_transform, inverse_transform, plancherel_residual
from ffdist.harness import build_set
from ffdist.rng import SplitMix64, derive_seed, sample_indices
from ffdist.varieties import (
    PointSet,
    characteristic_divides_exponent,
    decay_spectrum,
    diagonal_polynomial,
    full_grid,
    make_polynomial,
    parse_polynomial,
    points_from_coords,
    value_grid,
    weil_sum,
)

DATA = Path(__file__).parent / "data"


def _announce(number: int, started: float, detail: str):
    print(f"[criterion {number:2d}] PASS in {time.perf_counter() - started:6.2f}s  {detail}")


def _random_grid(spec, d, rng):
    n = spec.q**d
    re = np.array([rng.unit() for _ in range(n)])
    im = np.array([rng.unit() for _ in range(n)])
    return ComplexGrid(spec, d, ((2 * re - 1) + 1j * (2 * im - 1)) / math.sqrt(2.0))


def _random_pair(spec, d, size_e, size_f, seed):
    E = PointSet(spec, d, sample_indices(SplitMix64(derive_seed(seed, 1)), spec.q**d, size_e))
    F = PointSet(spec, d, sample_indices(SplitMix64(derive_seed(seed, 2)), spec.q**d, size_f))
    return E, F


def test_criterion_01_fourier_exactness():
    started = time.perf_counter()
    worst_round, worst_energy = 0.0, 0.0
    for q, n in ((3, 1), (5, 1), (7, 1), (9, 2), (13, 1)):
        spec = make_field(q if n == 1 else 3, n)
        for d in (1, 2, 3):
            if spec.q**d > 10**5:
                continue
            rng = SplitMix64(derive_seed(1, q, d))
            for _ in range(20):
                f = _random_grid(spec, d, rng)
                back = inverse_transform(fourier_transform(f))
                err = float(np.max(np.abs(back.values - f.values)))
                assert err < 1e-9 * spec.q ** (d / 2)
                res = plancherel_residual(f)
                assert res < 1e-9 * spec.q**d
                worst_round = max(worst_round, err)
                worst_energy = max(worst_energy, res)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _announce(1, started, f"max roundtrip {worst_round:.2e}, max energy residual {worst_energy:.2e}")


def test_criterion_02_counting_oracle_equivalence():
    started = time.perf_counter()
    polys = ("x1^2+x2^2", "x1^2-x2^2", "x1^3+x2^2", "x1^2+x2^3")
    checked = 0
    for q in (5, 7):
        spec = make_field(q)
        cap = q * q
        rng = SplitMix64(derive_seed(2, q))
        for pair in range(50):
            size_e = 1 + rng.below(cap)
            size_f = 1 + rng.below(cap)
            E, F = _random_pair(spec, 2, size_e, size_f, seed=derive_seed(2, q, pair))
            for text in polys:
                P = parse_polynomial(text, spec, 2)
                direct = _pair_counts(P, E, F)
                transform = _convolution_counts(P, E, F)
                assert np.array_equal(direct.counts, transform.counts)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _announce(2, started, f"{checked} (E,F,P) triples, transform == direct everywhere")


def test_criterion_03_weil_exhaustive():
    started = time.perf_counter()
    total = 0
    for p in (5, 7, 11, 13):
        spec = make_field(p)
        for c in (2, 3, 4):
            if math.gcd(c, p) != 1:
                continue
            for body in range(p**c):
                coeffs, k = [], body
                for _ in range(c):
                    coeffs.append(k % p)
                    k //= p
                terms = [(1, (c,))] + [(a, (i,)) for i, a in enumerate(coeffs) if a]
                res = weil_sum(make_polynomial(spec, 1, terms))
                assert res.hypothesis_ok
                assert abs(res.value) <= (c - 1) * math.sqrt(p) + 1e-9
                total += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _announce(3, started, f"{total} monic polynomials, all inside (c-1)*sqrt(p)")


def test_criterion_04_decay_constants_with_regression_pin():
    started = time.perf_counter()
    baseline = json.loads((DATA / "decay_baseline.json").read_text(encoding="utf-8"))
    for s in (2, 3):
        for d in (2, 3):
            for q in (7, 11, 13):
                spec = make_field(q)
                assert s % spec.p != 0
                P = diagonal_polynomial(spec, d, s)
                assert not characteristic_divides_exponent(P)
                entries = decay_spectrum(P)
                max_cs = max(e.c_sharp for e in entries if e.t != 0)
                cf_zero = entries[0].c_fallback
                if s == 2:
                    assert max_cs <= 3.0
                    assert cf_zero <= 3.0
                else:
                    assert max_cs <= 8.0
                pinned = baseline[f"s{s}_d{d}_q{q}"]
                assert abs(max_cs - pinned["max_c_sharp_nonzero_t"]) <= 1e-6
                assert abs(cf_zero - pinned["c_fallback_at_zero"]) <= 1e-6
    elapsed = time.perf_counter() - started
    _announce(4, started, "12 (s,d,q) spectra match the pinned constants to 1e-6")


def test_criterion_05_counterexamples_reproduce():
    started = time.perf_counter()
    # (a) an isotropic line collapses the square distance when i^2 = -1 exists
    F13 = make_field(13)
    P = parse_polynomial("x1^2+x2^2", F13, 2)
    iso = build_set("iso-line", F13, 2)
    assert len(distance_set(P, iso, iso)) == 1
    # (b) a subfield grid only realizes sqrt(q) distances
    F9 = make_field(3, 2)
    P9 = parse_polynomial("x1^2+x2^2", F9, 2)
    sub = build_set("subfield", F9, 2)
    delta = distance_set(P9, sub, sub)
    assert len(delta) == 3 == int(math.isqrt(9))
    # (c) the diagonal line kills x1^2 - x2^2
    F7 = make_field(7)
    Ph = parse_polynomial("x1^2-x2^2", F7, 2)
    line = build_set("param-line:1,1:0,0", F7, 2)
    assert len(distance_set(Ph, line, line)) == 1
    _announce(5, started, "iso-line 1, subfield 3 = sqrt(9), diagonal line 1")


def test_criterion_06_falconer_verifier_dense_sets():
    started = time.perf_counter()
    # q = 13, d = 2, |E| = |F| = ceil(sqrt(9*q^3))
    F13 = make_field(13)
    P = parse_polynomial("x1^2+x2^2", F13, 2)
    side = math.isqrt(9 * 13**3 - 1) + 1
    assert side == 141
    for trial in range(100):
        E, F = _random_pair(F13, 2, side, side, seed=derive_seed(6, 13, trial))
        assert len(distance_set(P, E, F)) >= 13 - 1
    # q = 11, d = 3, |E||F| >= 9*q^4, sides capped at the grid size
    F11 = make_field(11)
    P3 = parse_polynomial("x1^2+x2^2+x3^2", F11, 3)
    side = min(11**3, math.isqrt(9 * 11**4 - 1) + 1)
    assert side == 363
    for trial in range(100):
        E, F = _random_pair(F11, 3, side, side, seed=derive_seed(6, 11, trial))
        assert len(distance_set(P3, E, F)) >= 11 - 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _announce(6, started, "200 trials, |Delta| >= q-1 in every trial")


def test_criterion_07_pinned_verifier():
    started = time.perf_counter()
    F13 = make_field(13)
    P = parse_polynomial("x1^2+x2^2", F13, 2)
    side = math.isqrt(9 * 13**3 - 1) + 1  # |E||F| = side^2 >= 9*q^3
    worst = 1.0
    for trial in range(50):
        E, F = _random_pair(F13, 2, side, side, seed=derive_seed(7, 13, trial))
        rep = pinned_distances(P, E, F, rho=0.5)
        worst = min(worst, rep.fraction_large)
        assert rep.fraction_large >= 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _announce(7, started, f"50 trials, worst large-pin fraction {worst:.3f} >= 1/2")


def test_criterion_08_lift_consistency():
    started = time.perf_counter()
    F7 = make_field(7)
    zero = points_from_coords(F7, 1, [[0]])
    for text in ("x1^2+x2^2", "x1^2+x2^3"):
        P = parse_polynomial(text, F7, 2)
        H = paraboloid_lift(P)
        sizes = np.bincount(value_grid(H), minlength=7)
        assert np.all(sizes == 7**2)
        for trial in range(20):
            E, F = _random_pair(F7, 2, 1 + trial % 20, 20 - trial % 19, seed=derive_seed(8, trial))
            lifted = distance_set(H, product_set(E, zero), product_set(F, zero))
            assert lifted == distance_set(P, E, F)
    _announce(8, started, "40 lifted pairs match, all lifted fibers have q^d points")


def test_criterion_09_square_difference_identity():
    started = time.perf_counter()
    F13 = make_field(13)
    assert verify_square_identity(full_grid(F13, 3), trials=1000, seed=9)
    _announce(9, started, "1000 random triples over F_13^3 agree exactly")


def test_criterion_10_cli_determinism(tmp_path):
    started = time.perf_counter()
    cases = [
        [
            "distance", "--q", "13", "--d", "2", "--poly", "x1^2+x2^2",
            "--setE", "random:40", "--setF", "random:35",
            "--trials", "4", "--seed", "99", "--deterministic",
        ],
        [
            "scan", "--q", "7", "--d", "2", "--poly", "x1^2-x2^2",
            "--grid", "30,120,480", "--trials", "3", "--seed", "5",
            "--deterministic",
        ],
        [
            "decay", "--q", "9", "--d", "2", "--poly", "x1^2+x2^2",
            "--deterministic",
        ],
    ]
    for i, argv in enumerate(cases):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        for suffix in (".csv", ".json"):
            pa, pb = Path(str(a) + suffix), Path(str(b) + suffix)
            assert pa.exists() == pb.exists()
            if pa.exists():
                assert pa.read_bytes() == pb.read_bytes()
    _announce(10, started, "3 commands re-run byte-identically under --deterministic")
