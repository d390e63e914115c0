"""Set-specification grammar, seeded generation, CSV/JSON emission,
exit codes, and the reproducibility contract of the CLI."""

import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

from ffdist import errors
from ffdist.cli import build_parser, config_from_args, main
from ffdist.errors import ConfigError, IsoUnavailable
from ffdist.field import decode_points, field_from_order, make_field
from ffdist.harness import RUNNERS, ExperimentConfig, Table, _random_grid, build_set, emit, run
from ffdist.rng import SplitMix64, derive_seed, sample_indices
from ffdist.varieties import _phase_table, parse_polynomial, phase_sum, variety

from oracles import dict_sample_indices, factored_phase_sum

F7 = make_field(7)
F9 = make_field(3, 2)
F13 = make_field(13)


def list_shuffle(rng, population, k):
    """Reference: the O(population) partial shuffle of a full list."""
    k = min(k, population)
    pool = list(range(population))
    for i in range(k):
        j = i + rng.below(population - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def scalar_sparse_shuffle(rng, population, k):
    """Reference: the dict-backed shuffle drawing one scalar below() a step."""
    k = min(k, population)
    moved = {}
    out = []
    for i in range(k):
        j = i + rng.below(population - i)
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return sorted(out)


class TestRng:
    def test_splitmix_reference_stream(self):
        # golden values for the published splitmix64 test vector (seed 0)
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_derive_seed_frozen(self):
        assert derive_seed(0, 1, 0) == 5095610196844313600
        assert derive_seed(42, 2, 3) == 1517268416681542835

    def test_sample_exact_cardinality_sorted_unique(self):
        s = sample_indices(SplitMix64(9), 100, 17)
        assert len(s) == 17
        assert np.all(np.diff(s) > 0)
        assert s[0] >= 0 and s[-1] < 100

    def test_sample_caps_at_population(self):
        s = sample_indices(SplitMix64(9), 10, 25)
        assert s.tolist() == list(range(10))

    def test_sample_frozen_stream(self):
        s = sample_indices(SplitMix64(derive_seed(7, 1, 0)), 49, 10)
        assert s.tolist() == [2, 7, 22, 23, 30, 34, 40, 43, 44, 47]

    @pytest.mark.parametrize(
        "population,k", [(100, 17), (1000, 999), (49, 49), (1, 1), (10, 25), (3, 100)]
    )
    def test_sample_matches_list_shuffle(self, population, k):
        for seed in range(5):
            got = sample_indices(SplitMix64(seed), population, k)
            assert got.tolist() == list_shuffle(SplitMix64(seed), population, k)

    def test_sample_from_a_population_too_large_for_a_list(self):
        population, k = 10**12, 50
        s = sample_indices(SplitMix64(11), population, k)
        # with no repeated draw among 50 out of 10^12 the shuffle returns
        # exactly the drawn positions
        r = SplitMix64(11)
        assert s.tolist() == sorted(i + r.below(population - i) for i in range(k))

    def test_sample_equals_the_dict_shuffle(self):
        # many shapes: repeated targets (k near population), long chains of
        # displaced values, populations past 2^32 and 2^62, k = 0 and k >
        # population
        cases = SplitMix64(2024)
        for n in range(600):
            population = [
                1 + cases.below(50),
                1 + cases.below(5000),
                2**32 + cases.below(1000),
                2**62 + cases.below(2**61),
            ][n % 4]
            k = [0, population, population + 5, cases.below(population + 1)][n // 4 % 4]
            k = min(k, 3000)
            seed = cases.next_u64()
            got = sample_indices(SplitMix64(seed), population, k)
            assert got.dtype == np.int64
            assert got.tolist() == dict_sample_indices(SplitMix64(seed), population, k)

    @pytest.mark.parametrize(
        "population, k, seeds",
        [
            # k = 1, where the lone draw often moves nothing: no group to reduce
            (1, 1, 4), (2, 1, 40), (5, 1, 40), (29791, 1, 40),
            # k = population: every target drawn into many times
            (29791, 29791, 2), (961, 961, 20),
            # a population far past int64 keys dst * k + src would need
            (10**15, 3000, 5),
            # tiny populations, every k
            *[(n, k, 40) for n in (5, 6, 7) for k in range(n + 1)],
        ],
    )  # fmt: skip
    def test_sample_takes_each_targets_last_draw(self, population, k, seeds):
        # the targets' draws are grouped by an unstable sort, and the last
        # one into each target is the largest step in its group
        for seed in range(seeds):
            got = sample_indices(SplitMix64(seed), population, k)
            assert got.tolist() == dict_sample_indices(SplitMix64(seed), population, k)

    def test_block_draws_equal_scalar_draws(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 5000))
        def check(seed, n):
            block, scalar = SplitMix64(seed), SplitMix64(seed)
            got = block.next_block(n)
            assert got.dtype == np.uint64 and got.shape == (n,)
            assert got.tolist() == [scalar.next_u64() for _ in range(n)]
            assert block.state == scalar.state

        check()

    def test_block_and_scalar_draws_interleave(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        # each step is a block size, or None for one scalar next_u64 call
        steps = st.lists(st.one_of(st.none(), st.integers(0, 300)), max_size=12)

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(seed=st.integers(0, 2**64 - 1), steps=steps)
        def check(seed, steps):
            mixed, scalar = SplitMix64(seed), SplitMix64(seed)
            got = []
            for n in steps:
                if n is None:
                    got.append(mixed.next_u64())
                else:
                    got.extend(mixed.next_block(n).tolist())
            assert got == [scalar.next_u64() for _ in got]
            assert mixed.state == scalar.state

        check()

    def test_sample_matches_scalar_references_on_random_inputs(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=80, deadline=None)
        @hyp.given(
            seed=st.integers(0, 2**64 - 1),
            population=st.integers(1, 2000),
            k=st.integers(0, 2500),
        )
        def small(seed, population, k):
            got = sample_indices(SplitMix64(seed), population, k)
            assert got.tolist() == list_shuffle(SplitMix64(seed), population, k)

        @hyp.settings(max_examples=30, deadline=None)
        @hyp.given(seed=st.integers(0, 2**64 - 1), k=st.integers(0, 300))
        def huge(seed, k):
            population = 10**12
            got = sample_indices(SplitMix64(seed), population, k)
            assert got.tolist() == scalar_sparse_shuffle(SplitMix64(seed), population, k)

        small()
        huge()

    def test_random_grid_draws_the_scalar_unit_stream(self):
        for spec, d in ((F7, 2), (F9, 3), (make_field(2), 1)):
            block, scalar = SplitMix64(41), SplitMix64(41)
            for _ in range(2):
                got = _random_grid(spec, d, block).values
                n = spec.q**d
                re = np.array([scalar.unit() for _ in range(n)])
                im = np.array([scalar.unit() for _ in range(n)])
                want = ((2 * re - 1) + 1j * (2 * im - 1)) * (1.0 / math.sqrt(2.0))
                assert np.array_equal(got.view(np.float64), want.view(np.float64))
            assert block.state == scalar.state


class TestSetSpecs:
    def test_all(self):
        assert build_set("all", F7, 2).size == 49

    def test_random_count_and_determinism(self):
        a = build_set("random:12", F7, 2, seed=5, role="E", trial=0)
        b = build_set("random:12", F7, 2, seed=5, role="E", trial=0)
        c = build_set("random:12", F7, 2, seed=5, role="F", trial=0)
        d = build_set("random:12", F7, 2, seed=5, role="E", trial=1)
        assert a.size == 12
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)
        assert not np.array_equal(a.indices, d.indices)

    def test_random_explicit_seed_overrides_base(self):
        a = build_set("random:9:77", F7, 2, seed=1, role="E", trial=0)
        b = build_set("random:9:77", F7, 2, seed=2, role="E", trial=0)
        assert np.array_equal(a.indices, b.indices)

    def test_param_line(self):
        ps = build_set("param-line:1,1:0,0", F7, 2)
        assert ps.size == 7
        coords = ps.coordinates()
        assert all(c[0] == c[1] for c in coords)

    def test_param_line_single_point_when_direction_zero(self):
        ps = build_set("param-line:0,0:3,4", F7, 2)
        assert ps.size == 1

    def test_iso_line_needs_square_root_of_minus_one(self):
        ps = build_set("iso-line", F13, 2)
        assert ps.size == 13
        i = next(a for a in range(13) if F13.mul(a, a) == F13.neg(1))
        for x1, x2 in ps.coordinates():
            assert F13.mul(i, int(x1)) == int(x2) or F13.mul(13 - i, int(x1)) == int(x2)
        with pytest.raises(IsoUnavailable):
            build_set("iso-line", F7, 2)

    def test_iso_line_only_in_dimension_two(self):
        with pytest.raises(ConfigError):
            build_set("iso-line", F13, 3)

    def test_line_and_subfield_specs_match_scalar_arithmetic(self):
        F25, F81 = make_field(5, 2), make_field(3, 4)
        ps = build_set("param-line:2,7:3,11", F25, 2)
        expected = {(F25.add(3, F25.mul(t, 2)), F25.add(11, F25.mul(t, 7))) for t in range(25)}
        assert {tuple(c) for c in ps.coordinates().tolist()} == expected
        i = next(a for a in range(25) if F25.mul(a, a) == F25.neg(1))
        ps = build_set("iso-line", F25, 2)
        assert {tuple(c) for c in ps.coordinates().tolist()} == {
            (s, F25.mul(i, s)) for s in range(25)
        }
        ps = build_set("subfield", F81, 1)
        assert ps.coordinates()[:, 0].tolist() == [a for a in range(81) if F81.pow(a, 9) == a]

    def test_subfield(self):
        ps = build_set("subfield", F9, 2)
        assert ps.size == 9
        with pytest.raises(ConfigError):
            build_set("subfield", F7, 2)

    def test_sphere_uses_active_polynomial(self):
        P = parse_polynomial("x1^2+x2^2", F7, 2)
        ps = build_set("sphere:1", F7, 2, poly=P)
        assert np.array_equal(ps.indices, variety(P, 1).indices)
        with pytest.raises(ConfigError):
            build_set("sphere:1", F7, 2)

    def test_file_points(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0,0\n1,2\n# comment\n1,2\n", encoding="utf-8")
        ps = build_set(f"file:{path}", F7, 2)
        assert ps.size == 2
        with pytest.raises(ConfigError):
            build_set(f"file:{tmp_path/'nope.txt'}", F7, 2)

    def test_unknown_spec(self):
        with pytest.raises(ConfigError):
            build_set("blob:4", F7, 2)


class TestRunners:
    def test_scan_row_count_and_verdict_values(self, tmp_path):
        cfg = ExperimentConfig(
            q=7,
            d=2,
            poly="x1^2+x2^2",
            grid=(20, 100, 400),
            trials=4,
            seed=3,
            out=str(tmp_path / "scan"),
            deterministic=True,
        )
        code, summary = run("scan", cfg)
        assert code == 0
        with open(tmp_path / "scan.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 4
        for row in rows:
            assert row["falconer"] in {"pass", "fail", "vacuous"}
            assert row["erdos"] in {"pass", "fail", "vacuous"}
            assert row["poly"] == "x1^2+x2^2"

    def test_scan_keeps_grid_points_with_equal_sides_apart(self, tmp_path):
        # targets 10 and 16 both clamp to side 4; the trials of target 10
        # miss a distance and those of target 16 do not, so target 16 is
        # the first grid point at which every trial passes
        cfg = ExperimentConfig(
            q=7,
            d=2,
            poly="x1^2+x2^2",
            grid=(10, 16),
            trials=2,
            seed=1,
            C=0.01,
            out=str(tmp_path / "scan"),
            deterministic=True,
        )
        code, summary = run("scan", cfg)
        assert code == 0
        with open(tmp_path / "scan.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["size_E"] for r in rows} == {"4"}
        assert [r["falconer"] for r in rows] == ["fail", "fail", "pass", "pass"]
        assert summary["first_grid_point_all_pass"]["falconer"] == 16

    def test_scan_requires_grid(self):
        cfg = ExperimentConfig(q=7, d=2, poly="x1^2+x2^2")
        with pytest.raises(ConfigError):
            run("scan", cfg)

    def test_field_check_passes(self):
        code, summary = run("field-check", ExperimentConfig(q=9))
        assert code == 0 and summary["pass"]

    @pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (3, 4), (7, 3), (2, 5), (5, 4), (4001, 1)])
    def test_field_check_reference_equals_the_scalar_methods(self, p, n):
        from ffdist.harness import _reference_traces_and_inverses

        spec = make_field(p, n)
        traces, inverses = _reference_traces_and_inverses(spec)
        assert traces.tolist() == [spec.trace(a) for a in range(spec.q)]
        assert inverses.tolist() == [spec.inv(a) for a in range(1, spec.q)]

    @pytest.mark.parametrize("name", ["add_table", "mul_table"])
    @pytest.mark.parametrize("q", [9, 13])
    def test_field_check_fails_on_one_corrupted_table_entry(self, monkeypatch, name, q):
        from ffdist import harness

        build = getattr(harness, name)

        def corrupted(spec):
            t = build(spec).copy()
            v = int(t[2, 5])
            t[2, 5] = next(c for c in range(spec.q) if spec.trace(c) != spec.trace(v))
            return t

        monkeypatch.setattr(harness, name, corrupted)
        code, summary = run("field-check", ExperimentConfig(q=q))
        assert code == 4 and summary["pass"] is False
        assert main(["field-check", "--q", str(q)]) == 4

    @pytest.mark.parametrize("q", [9, 16, 125])
    def test_field_check_fails_on_a_corrupted_companion_row(self, monkeypatch, q):
        from ffdist import field

        companion = field._companion

        def corrupted(spec):
            # the last row of another irreducible modulus: the tables stay a
            # field, but not the one the scalar reference computes in
            other = next(
                lower
                for lower in itertools.product(range(spec.p), repeat=spec.n)
                if lower + (1,) != spec.modulus and field._is_irreducible(lower + (1,), spec.p)
            )
            X = companion(spec).copy()
            X[-1] = np.negative(other) % spec.p
            return X

        caches = (field._log_antilog, field.mul_table, field.pow_table)
        for cache in caches:
            cache.cache_clear()
        try:
            monkeypatch.setattr(field, "_companion", corrupted)
            code, summary = run("field-check", ExperimentConfig(q=q))
            assert code == 4 and summary["pass"] is False
            assert not summary["checks"]["inverse_law"]["pass"]
            assert main(["field-check", "--q", str(q)]) == 4
        finally:
            for cache in caches:
                cache.cache_clear()

    @pytest.mark.parametrize("q", [9, 13])
    def test_field_check_fails_on_one_corrupted_trace_entry(self, monkeypatch, q):
        from ffdist import harness

        def corrupted(order):
            spec = field_from_order(order)
            tr = spec.trace_table.copy()
            tr[5] = (tr[5] + 1) % spec.p
            object.__setattr__(spec, "trace_table", tr)
            return spec

        monkeypatch.setattr(harness, "field_from_order", corrupted)
        code, summary = run("field-check", ExperimentConfig(q=q))
        assert code == 4 and summary["pass"] is False
        assert [k for k, c in summary["checks"].items() if not c["pass"]] == ["trace_linear"]
        assert main(["field-check", "--q", str(q)]) == 4

    @pytest.mark.parametrize("name", ["add_table", "mul_table"])
    @pytest.mark.parametrize("q", [13, 16])
    def test_field_check_in_one_row_blocks_reads_every_row(self, monkeypatch, name, q):
        from ffdist import harness

        whole = run("field-check", ExperimentConfig(q=q))[1]["checks"]
        monkeypatch.setattr(harness, "_CHECK_BLOCK_ENTRIES", 1)
        assert run("field-check", ExperimentConfig(q=q))[1]["checks"] == whole
        build = getattr(harness, name)

        def corrupted(spec):  # in the last row, which only the last block reads
            t = build(spec).copy()
            v = int(t[-1, 5])
            t[-1, 5] = next(c for c in range(spec.q) if spec.trace(c) != spec.trace(v))
            return t

        monkeypatch.setattr(harness, name, corrupted)
        code, summary = run("field-check", ExperimentConfig(q=q))
        assert code == 4 and summary["pass"] is False

    def test_field_check_holds_one_row_block_beyond_its_tables(self):
        # The add and mul tables take 16 q^2 bytes; held whole, the checks'
        # three q x q complex arrays would take 40 q^2 bytes more.
        import tracemalloc

        from ffdist.field import add_table, mul_table

        q = 1009
        spec = make_field(q)
        add_table(spec), mul_table(spec)
        tracemalloc.start()
        try:
            code, summary = run("field-check", ExperimentConfig(q=q))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and summary["pass"]
        assert peak <= q**2

    def test_fourier_check_passes(self):
        code, summary = run(
            "fourier-check", ExperimentConfig(q=5, d=2, trials=5, seed=1)
        )
        assert code == 0 and summary["pass"]

    def test_lift_runner_checks_fibers_and_restriction(self):
        cfg = ExperimentConfig(
            q=7, d=2, poly="x1^2+x2^3", setE="random:10", setF="random:11", seed=4
        )
        code, summary = run("lift", cfg)
        assert code == 0
        assert summary["fibers_uniform"]
        assert summary["restriction_matches"]

    def test_lift_runner_product_mode(self):
        cfg = ExperimentConfig(
            q=7,
            d=1,
            poly="x1^2",
            setE="random:5",
            setF="random:5",
            setE2="param-line:0:0",
            setF2="param-line:0:0",
            seed=4,
        )
        code, summary = run("lift", cfg)
        assert code == 0
        assert summary["product"]["size_E_star"] == 5

    @pytest.mark.parametrize(
        "sets, missing",
        [
            ({"setE": "all"}, "setF"),
            ({"setF": "all"}, "setE"),
            ({"setE2": "all", "setF2": "all"}, "setE"),
            ({"setE": "all", "setF": "all", "setE2": "all"}, "setF2"),
        ],
    )
    def test_lift_refuses_a_set_without_its_partner(self, capsys, sets, missing):
        # a set without its partner is refused, not dropped
        with pytest.raises(ConfigError, match=f"^--{missing} is required here$"):
            run("lift", ExperimentConfig(q=7, d=1, poly="x1^3", **sets))
        flags = [arg for name, value in sets.items() for arg in (f"--{name}", value)]
        assert main(["lift", "--q", "7", "--d", "1", "--poly", "x1^3", *flags]) == 2
        assert capsys.readouterr().err == f"config error: --{missing} is required here\n"

    def test_distance_missing_sets_is_config_error(self):
        with pytest.raises(ConfigError):
            run("distance", ExperimentConfig(q=7, d=2, poly="x1^2+x2^2"))

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError):
            run("distance", ExperimentConfig(q=7, d=2, poly="x1", trials=0))

    def test_weil_runner(self):
        code, summary = run("weil", ExperimentConfig(q=7, d=1, poly="x1^3"))
        assert code == 0
        assert summary["ok"] and summary["abs_value"] <= summary["bound"]
        with pytest.raises(ConfigError):
            run("weil", ExperimentConfig(q=7, d=2, poly="x1^2+x2^2"))

    def test_phase_runner_reports_sweep(self, tmp_path):
        cfg = ExperimentConfig(
            q=5, d=2, poly="x1^2+x2^2", out=str(tmp_path / "ph"), deterministic=True
        )
        code, summary = run("phase", cfg)
        assert code == 0
        assert summary["factored_vs_direct_max_error"] < 1e-9 * 25
        with open(tmp_path / "ph.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 25  # every s != 0 and every m

    def test_phase_checks_its_table_above_the_old_direct_cutoff(self):
        # 17^3 = 4913 points, 78,608 sums: the check used to skip this size
        code, summary = run("phase", ExperimentConfig(q=17, d=3, poly="x1^2+x2^2+x3^2"))
        assert code == 0
        assert 0 < summary["factored_vs_direct_max_error"] < 1e-9 * 17**3

    def test_phase_check_catches_a_corrupted_table(self, monkeypatch):
        from ffdist import harness

        real = harness._phase_table

        def corrupted(P, *args):
            table = real(P, *args).copy()
            table[3, 1000] += 1.0
            return table

        monkeypatch.setattr(harness, "_phase_table", corrupted)
        code, summary = run("phase", ExperimentConfig(q=17, d=3, poly="x1^2+x2^2+x3^2"))
        assert summary["factored_vs_direct_max_error"] >= 0.5

    @pytest.mark.parametrize(
        "q, d, poly",
        [
            (7, 2, "x1^2+x2^2+x1"),
            (7, 2, "x1^2+x2^2"),
            (9, 2, "x1^2+2*x2^2"),
            (5, 3, "x1^2+x2^3+x3^2"),
        ],
    )
    def test_phase_argmax_is_the_first_maximum_in_row_order(self, q, d, poly):
        # Quadratic phase sums are Gauss sums: every |sum| ties at q^(d/2) up
        # to float noise, so the argmax rests on bit-exact sums.  Reference:
        # the scalar sweep in (s, m) row order, first maximum kept.
        spec = field_from_order(q)
        P = parse_polynomial(poly, spec, d)
        scalar = factored_phase_sum if P.kind == "diagonal" else phase_sum
        best, bs, bm = -1.0, 0, 0
        for s in range(1, q):
            for m in range(q**d):
                a = abs(scalar(P, s, decode_points(spec, m, d).tolist()))
                if a > best:
                    best, bs, bm = a, s, m
        code, summary = run("phase", ExperimentConfig(q=q, d=d, poly=poly))
        assert code == 0
        got = (summary["max_abs"], summary["argmax_s"], summary["argmax_m"])
        assert got == (best, bs, bm)

    def test_phase_csv_rows_follow_the_table_in_row_order(self, tmp_path):
        cfg = ExperimentConfig(
            q=5, d=2, poly="x1^2+x2^3", out=str(tmp_path / "ph"), deterministic=True
        )
        P = parse_polynomial(cfg.poly, make_field(5), 2)
        run("phase", cfg)
        with open(tmp_path / "ph.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "q,d,poly,s,m,abs_sum,ratio"
        want = []
        for s in range(1, 5):
            for m in range(25):
                a = abs(factored_phase_sum(P, s, decode_points(P.spec, m, 2).tolist()))
                want.append(f"5,2,x1^2+x2^3,{s},{m},{a!r},{a / 5.0!r}")
        assert lines[1:] == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["weil", "--q", "1000003", "--d", "1", "--poly", "x1^3+x1"],
            ["decay", "--q", "1000003", "--d", "1", "--poly", "x1^3"],
            ["field-check", "--p", "1000003"],
        ],
    )
    def test_an_oversize_field_is_refused_before_any_table(self, capsys, monkeypatch, argv):
        # the q x q add and mul tables of F_1000003 would take 14.6 TiB
        from ffdist import distances, field, fourier, harness, varieties

        def unreachable(*args, **kwargs):
            raise AssertionError("a table was built for an oversize field")

        for module in (field, fourier, varieties, distances, harness):
            for name in ("add_table", "mul_table", "neg_table", "pow_table", "_log_antilog"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, unreachable)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the tables of F_1000003 hold ") and err.count("\n") == 1
        assert "GiB" in err

    @pytest.mark.parametrize(
        "argv, order",
        [
            (["weil", "--q", "100000007", "--d", "1", "--poly", "x1^3"], "100000007"),
            (["weil", "--q", str(10**18 + 3), "--d", "1", "--poly", "x1^3"], str(10**18 + 3)),
            (["field-check", "--p", str(10**18 + 3)], str(10**18 + 3)),
            (["field-check", "--p", "2", "--n", "100"], "2^100"),
        ],
    )
    def test_an_oversize_field_is_refused_before_any_factoring(
        self, capsys, monkeypatch, argv, order
    ):
        # without the table rule first, trial division of q or p alone takes
        # seconds (10^8) to hours (10^18)
        from ffdist import field

        def unreachable(*args, **kwargs):
            raise AssertionError("an oversize field was factored or searched")

        for name in ("_prime_factors", "is_prime", "_smallest_irreducible", "_digits"):
            monkeypatch.setattr(field, name, unreachable)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: the tables of F_{order} hold ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("p, n", [(2, 5), (2, 8), (3, 6)])
    def test_field_check_passes_past_degree_four(self, capsys, p, n):
        assert main(["field-check", "--p", str(p), "--n", str(n)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["q"] == p**n and summary["pass"] is True

    @pytest.mark.parametrize(
        "argv, grid",
        [
            ("decay --q 101 --d 5 --poly x1^2+x2^2", "F_101^5 holds 10510100501 values"),
            (
                "distance --q 101 --d 10 --poly x1^2 --setE random:5 --setF random:5",
                "F_101^10 holds 110462212541120451001 values",
            ),
            ("pinned --q 2 --d 64 --poly x1^2 --setE all --setF all", "F_2^64 holds over 2^64 values"),
        ],
    )
    def test_an_oversize_value_grid_is_refused_before_it_is_built(
        self, capsys, monkeypatch, argv, grid
    ):
        # decay's grid at F_101^5 would take 78.3 GiB; numpy's refusal exited 1
        from ffdist import distances, harness, varieties

        argv = argv.split()
        def unreachable(*args, **kwargs):
            raise AssertionError("a grid was built for an oversize value grid")

        for module, name in (
            (varieties, "value_grid"), (harness, "_fiber_sizes"), (distances, "value_grid"),
            (harness, "build_pair"), (harness, "parse_polynomial"),
        ):
            monkeypatch.setattr(module, name, unreachable)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: the value grid of {grid}")
        assert err.count("\n") == 1
        with pytest.raises(ConfigError, match="^the value grid of "):
            run(argv[0], config_from_args(build_parser().parse_args(argv)))

    def test_phase_refuses_an_oversize_table_before_building_grids(self, monkeypatch):
        from ffdist import harness, varieties

        def unreachable(*args, **kwargs):
            raise AssertionError("a grid was built for an oversize phase request")

        monkeypatch.setattr(varieties, "value_grid", unreachable)
        monkeypatch.setattr(harness, "_phase_table", unreachable)
        cfg = ExperimentConfig(q=101, d=4, poly="x1^2+x2^2+x3^2+x4^2")
        with pytest.raises(ConfigError, match="GiB"):
            run("phase", cfg)
        argv = ["phase", "--q", "101", "--d", "4", "--poly", "x1^2+x2^2+x3^2+x4^2"]
        assert main(argv) == 2

    def test_decay_refuses_its_spectra_before_building_them(self, monkeypatch):
        # with 32 MiB, F_101^3's value grid (8 MB) fits but its spectra
        # (56 B a point) do not
        import os

        from ffdist import harness, varieties

        def unreachable(*args, **kwargs):
            raise AssertionError("a grid was built for an oversize decay request")

        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (32 << 20) // 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        for module, name in ((varieties, "value_grid"), (harness, "decay_spectrum")):
            monkeypatch.setattr(module, name, unreachable)
        cfg = ExperimentConfig(q=101, d=3, poly="x1^2+x2^2+x3^2")
        with pytest.raises(ConfigError, match=r"^decay over F_101\^3 holds grids of 1030301 points"):
            run("decay", cfg)

    @pytest.mark.parametrize(
        "d, sets",
        [
            (5, {}),  # the value grid of P: 8 B a point of F_101^5
            (4, {"setE": "random:9", "setF": "random:9", "setE2": "random:3", "setF2": "random:3"}),
        ],
    )
    def test_lift_refuses_an_oversize_request_before_building_grids(self, monkeypatch, d, sets):
        from ffdist import distances, harness, varieties

        def unreachable(*args, **kwargs):
            raise AssertionError("a grid was built for an oversize lift request")

        for module, name in (
            (varieties, "value_grid"), (harness, "_fiber_sizes"), (harness, "build_pair"),
            (distances, "value_grid"), (distances, "_phase_rows"),
        ):
            monkeypatch.setattr(module, name, unreachable)
        poly = "+".join(f"x{j}^2" for j in range(1, d + 1))
        cfg = ExperimentConfig(q=101, d=d, poly=poly, **sets)
        with pytest.raises(ConfigError, match="GiB"):
            run("lift", cfg)
        flags = [arg for name, value in sets.items() for arg in (f"--{name}", value)]
        assert main(["lift", "--q", "101", "--d", str(d), "--poly", poly, *flags]) == 2

    @pytest.mark.parametrize("q, d", [(23, 3), (5, 6)])  # mid size; phase rows outweigh the pairs
    @pytest.mark.parametrize("product", [False, True])
    def test_lift_memory_check_covers_the_measured_peak(self, monkeypatch, q, d, product):
        import tracemalloc

        from ffdist import harness, varieties

        stated = []
        monkeypatch.setattr(harness, "_require_memory", lambda need, holds: stated.append(need))
        sets = {"setE": "random:60", "setF": "random:60"}
        if product:
            sets.update(setE2="random:5", setF2="random:5")
        cfg = ExperimentConfig(q=q, d=d, poly="+".join(f"x{j}^2" for j in range(1, d + 1)), **sets)
        varieties.value_grid.cache_clear()
        tracemalloc.start()
        try:
            code, _ = run("lift", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and stated[:1] == [8 * q**d] and len(stated) == 2  # P's grid, then lift
        # H's fiber sizes come from its parts, so no grid of F_q^(d+1) is built:
        # the floor is the pair kernel's sums and values for 60 x 60 pairs
        # (16 B a pair), or with product sets P's value grid, one phase row
        # and its transform (40 B a point of F_q^d)
        assert (40 * q**d if product else 16 * 60 * 60) <= peak <= stated[1]

    @pytest.mark.parametrize("workers", [1, 4, 16])
    @pytest.mark.parametrize(
        "q, d, pad, tail",
        [(19, 3, 0, ""), (61, 2, 0, ""), (101, 2, 0, ""), (19, 3, 20, ""), (61, 2, 20, ""),
         # not diagonal: the direct table, a block gathered by each worker; at
         # 16 workers the blocks alone pass the fixed bytes of emission
         (31, 2, 0, "+x1"), (13, 3, 0, "+x1"), (7, 4, 0, "+x1"), (31, 2, 20, "+x1")],
    )
    def test_phase_memory_check_covers_the_measured_peak(
        self, monkeypatch, tmp_path, q, d, pad, tail, workers
    ):
        import tracemalloc

        from ffdist import harness, varieties

        stated = []
        monkeypatch.setattr(harness, "_require_memory", lambda need, holds: stated.append(need))
        monkeypatch.setattr(varieties, "_workers", lambda: workers)
        poly = "+".join(f"x{j}^2" for j in range(1, d + 1)) + tail
        poly += "".join(f"+{k}*x1-{k}*x1" for k in range(1, pad + 1))  # every row repeats it
        cfg = ExperimentConfig(q=q, d=d, poly=poly, out=str(tmp_path / "ph"), deterministic=True)
        varieties.value_grid.cache_clear()
        tracemalloc.start()
        try:
            code, summary = run("phase", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sums = (q - 1) * q**d
        assert code == 0 and summary["rows_written"] == sums
        assert stated[:1] == [8 * q**d] and len(stated) == 2  # P's grid, then phase
        assert 16 * sums <= peak <= stated[1]  # the complex table was built and counted

    @pytest.mark.parametrize("q, d", [(31, 3), (101, 2)])
    def test_decay_memory_check_covers_the_measured_peak(self, monkeypatch, tmp_path, q, d):
        import tracemalloc

        from ffdist import harness, varieties

        stated = []
        monkeypatch.setattr(harness, "_require_memory", lambda need, holds: stated.append(need))
        poly = "+".join(f"x{j}^2" for j in range(1, d + 1))
        cfg = ExperimentConfig(q=q, d=d, poly=poly, out=str(tmp_path / "dc"), deterministic=True)
        run("decay", cfg)  # the field's tables are built once, and cached
        stated.clear()
        varieties.value_grid.cache_clear()
        tracemalloc.start()
        try:
            code, summary = run("decay", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and summary["rows_written"] == q
        assert stated[:1] == [8 * q**d] and len(stated) == 2  # P's grid, then decay
        assert 56 * q**d <= peak <= stated[1]  # the spectra were built and counted

    def test_decay_counts_the_transform_kernel_against_free_memory(self, capsys, monkeypatch):
        # F_4001's add and mul tables take 256 MB and the transform kernel
        # 256 MB more: with 384 MB free the field is admitted, decay is not
        from ffdist import field, harness, varieties

        def unreachable(*args, **kwargs):
            raise AssertionError("a grid was built for an oversize decay request")

        q = 4001
        monkeypatch.setattr(field, "_available_memory", lambda: 24 * q**2)
        for module, name in ((varieties, "value_grid"), (harness, "decay_spectrum")):
            monkeypatch.setattr(module, name, unreachable)
        field_from_order(q)
        assert main(["decay", "--q", str(q), "--d", "1", "--poly", "x1^3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: decay over F_{q}^1 holds grids of {q} points beside the tables "
            f"and transform kernel of F_{q}, about "
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            "pinned --q 31 --d 3 --poly x1^2+x2^2+x3^2 --setE all --setF all",
            "pinned --q 101 --d 2 --poly x1^2+x2^2 --setE all --setF all",
            "pinned --q 1009 --d 1 --poly x1^3 --setE all --setF all",
            "distance --q 101 --d 2 --poly x1^2+x2^2 --setE all --setF all",
            "distance --q 1009 --d 1 --poly x1^3 --setE all --setF all",
            "scan --q 31 --d 3 --poly x1^2+x2^2+x3^2 --grid 30000,3000000 --trials 2",
            "fourier-check --q 101 --d 2 --trials 2",
            "fourier-check --q 1009 --d 1",
        ],
    )
    def test_convolution_and_fourier_check_memory_checks_cover_the_measured_peak(
        self, monkeypatch, argv
    ):
        import tracemalloc

        from ffdist import harness, varieties

        stated = []
        monkeypatch.setattr(harness, "_require_memory", lambda need, holds: stated.append(need))
        argv = argv.split()
        cfg = config_from_args(build_parser().parse_args(argv))
        run(argv[0], cfg)  # the field's tables and kernel are built once, and cached
        stated.clear()
        varieties.value_grid.cache_clear()
        tracemalloc.start()
        try:
            code, _ = run(argv[0], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(stated) == (1 if argv[0] == "fourier-check" else 2)
        assert peak <= stated[-1]

    def test_distance_and_scan_of_a_quadratic_at_d1_state_no_transform_kernel(
        self, capsys, monkeypatch
    ):
        # at d = 1 every count enumerates pairs and the exceptional set of
        # x1^2 takes its closed form, so neither command builds the kernel:
        # with 300 MB free, above F_4001's 256 MB of tables and below the
        # 512 MB of tables and kernel, both run; x1^3 transforms its fibers
        # and is still charged the kernel
        from ffdist import field
        from ffdist.fourier import _forward_kernel

        q = 4001
        monkeypatch.setattr(field, "_available_memory", lambda: 300 << 20)
        _forward_kernel.cache_clear()
        sets = ["--q", str(q), "--d", "1", "--setE", "random:100", "--setF", "random:100"]
        assert main(["distance", *sets, "--poly", "x1^2"]) == 0
        assert main(["scan", "--q", str(q), "--d", "1", "--poly", "x1^2", "--grid", "400"]) == 0
        assert _forward_kernel.cache_info().currsize == 0
        capsys.readouterr()
        for command in ("distance", "scan"):
            argv = [command, "--q", str(q), "--d", "1", "--poly", "x1^3"]
            argv += sets[4:] if command == "distance" else ["--grid", "400"]
            assert main(argv) == 2
            assert "beside the tables and transform kernel of F_4001" in capsys.readouterr().err

    def test_pinned_at_d1_states_no_transform_kernel(self, capsys, monkeypatch):
        # pins at d = 1 enumerate pairs and never build the kernel, so the
        # need leaves its 16 q^2 bytes out and still covers a cold run's
        # peak, which builds the field's tables; distance builds the kernel
        import tracemalloc

        from ffdist import field, harness, varieties
        from ffdist.fourier import _forward_kernel

        q = 1009
        stated = []
        monkeypatch.setattr(harness, "_require_memory", lambda *args: stated.append(args))
        cfg = ExperimentConfig(q=q, d=1, poly="x1^3+x1", setE="all", setF="all")
        caches = (field._log_antilog, field.add_table, field.mul_table, field.neg_table)
        for cache in caches + (varieties.value_grid, _forward_kernel):
            cache.cache_clear()
        tracemalloc.start()
        try:
            code, _ = run("pinned", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need, holds = stated[-1]
        assert code == 0 and _forward_kernel.cache_info().currsize == 0
        assert holds == f"pinned over F_{q}^1 holds grids of {q} points beside the tables of F_{q}"
        assert 16 * q**2 <= peak <= need < 32 * q**2  # the tables were built and counted
        # between the two needs, pinned is admitted and distance is not
        monkeypatch.undo()
        monkeypatch.setattr(field, "_available_memory", lambda: 24 * q**2)
        argv = ["--q", str(q), "--d", "1", "--poly", "x1^3+x1", "--setE", "all", "--setF", "all"]
        assert main(["pinned", *argv]) == 0
        assert main(["distance", *argv]) == 2
        assert "beside the tables and transform kernel of F_1009" in capsys.readouterr().err

    def test_phase_of_a_P_that_is_not_diagonal_states_no_transform_kernel(
        self, monkeypatch, tmp_path
    ):
        # only the check of a factored table builds the kernel: the direct
        # table of x1^3 + 2*x1 states the tables and the block of mul_table
        # rows in its place, covers a cold run's peak, and is admitted with
        # that much free, where 16 q^2 more was asked before
        import tracemalloc

        from ffdist import field, harness, varieties
        from ffdist.fourier import _forward_kernel

        q = 307  # 16 q^2 > _TABLE_BLOCK
        stated = []
        monkeypatch.setattr(harness, "_require_memory", lambda *args: stated.append(args))
        out = str(tmp_path / "ph")
        cfg = ExperimentConfig(q=q, d=1, poly="x1^3+2*x1", out=out, deterministic=True)
        caches = (field._log_antilog, field.add_table, field.mul_table, field.neg_table)
        for cache in caches + (varieties.value_grid, _forward_kernel):
            cache.cache_clear()
        tracemalloc.start()
        try:
            code, _ = run("phase", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need, holds = stated[-1]
        assert code == 0 and _forward_kernel.cache_info().currsize == 0
        assert holds == f"phase over F_{q}^1 holds {(q - 1) * q} sums beside the tables of F_{q}"
        assert 16 * q**2 <= peak <= need
        monkeypatch.undo()
        monkeypatch.setattr(field, "_available_memory", lambda: need)
        argv = ["phase", "--q", str(q), "--d", "1", "--poly", "x1^3+2*x1", "--deterministic"]
        assert main([*argv, "--out", str(tmp_path / "again")]) == 0

    @pytest.mark.parametrize("q, d", [(211, 2), (47, 3)])
    def test_pinned_peak_stays_within_the_rule_of_distance_and_scan(self, monkeypatch, q, d):
        # run_pinned's peak keeps to the 128 B a point that distance and scan
        # state, plus 256 KiB of fixed cost, far inside the pair block that
        # the stated rule adds.  F_211^2 has 44521 pins, just past a dict
        # resize: a per-pin dict would lift its peak past 150 B a point.
        import tracemalloc

        from ffdist import harness, varieties
        from ffdist.field import add_table, mul_table, neg_table
        from ffdist.fourier import _forward_kernel

        monkeypatch.setattr(harness, "_require_memory", lambda need, holds: None)
        spec = field_from_order(q)
        add_table(spec), mul_table(spec), neg_table(spec), _forward_kernel(spec)
        poly = "+".join(f"x{j}^2" for j in range(1, d + 1))
        cfg = ExperimentConfig(q=q, d=d, poly=poly, setE="all", setF="all")
        varieties.value_grid.cache_clear()
        tracemalloc.start()
        try:
            code, _ = run("pinned", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= harness._CONVOLUTION_POINT_BYTES * q**d + (256 << 10)

    def test_phase_releases_its_table_before_emission(self, tmp_path):
        # at F_101^2 only the four CSV columns (32 B an entry) and the
        # emission block should remain once the complex table (16 B) is dropped
        import tracemalloc

        from ffdist import varieties

        q, d = 101, 2
        cfg = ExperimentConfig(q=q, d=d, poly="x1^2+x2^2", out=str(tmp_path / "ph"), deterministic=True)
        varieties.value_grid.cache_clear()
        tracemalloc.start()
        try:
            code, _ = run("phase", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 45 * (q - 1) * q**d

    @pytest.mark.parametrize(
        "q, d, poly",
        [
            (5, 2, "x1^2+x2^3"),
            (9, 2, "x1^2+2*x2^2"),
            (7, 3, "x1^2+x2^2+x3^2"),
            (31, 2, "x1^2+x2^2+x1"),
        ],
    )
    def test_phase_csv_equals_the_row_tuple_writer(self, tmp_path, q, d, poly):
        # the writer the columnar emission replaced: one tuple of builtins a row
        cfg = ExperimentConfig(q=q, d=d, poly=poly, out=str(tmp_path / "ph"), deterministic=True)
        run("phase", cfg)
        table = _phase_table(parse_polynomial(poly, field_from_order(q), d))
        mag = np.hypot(table.real, table.imag).ravel()
        n = q**d
        rows = zip(
            itertools.repeat(q), itertools.repeat(d), itertools.repeat(poly),
            np.repeat(np.arange(1, q), n).tolist(), np.tile(np.arange(n), q - 1).tolist(),
            mag.tolist(), (mag / float(q) ** (d / 2)).tolist(),
        )
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(("q", "d", "poly", "s", "m", "abs_sum", "ratio"))
        writer.writerows(rows)
        assert (tmp_path / "ph.csv").read_bytes() == want.getvalue().encode()

    def test_pinned_runner_rows(self, tmp_path):
        cfg = ExperimentConfig(
            q=13,
            d=2,
            poly="x1^2+x2^2",
            setE="random:141",
            setF="random:141",
            trials=2,
            seed=6,
            out=str(tmp_path / "pin"),
            deterministic=True,
        )
        code, summary = run("pinned", cfg)
        assert code == 0
        with open(tmp_path / "pin.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert row["pinned"] in {"pass", "fail", "vacuous"}
            assert float(row["fraction_large"]) >= 0.5

    def test_decay_runner_t_filter(self, tmp_path):
        cfg = ExperimentConfig(
            q=7, d=2, poly="x1^2-x2^2", t=0, out=str(tmp_path / "dec"), deterministic=True
        )
        code, summary = run("decay", cfg)
        assert code == 0
        with open(tmp_path / "dec.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["t"] == "0"
        assert summary["c_fallback_at_zero"] == pytest.approx(1 - 1 / 7)


SPECIAL_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                  -1e-310, 1.7976931348623157e308, 0.1, -2.5, 1e16, 1e-5]
SPECIAL_INTS = [0, -1, 1, 2**63 - 1, -(2**63), 10**18, -(10**18)]
SPECIAL_TEXT = ["", "plain", "a,b", 'say "hi"', '"', ",", "line\nbreak", "cr\rlf\r\n", " lead",
                "trail ", "x1^2+x2^2", "tab\there", "ünï", "'single'"]


def random_column(rng, n):
    """A random column of n values and its values as csv.writer sees them."""
    kind = rng.integers(7)
    if kind == 0:  # float64 bit patterns: specials, a few repeats, random bits
        pool = np.array(SPECIAL_FLOATS + rng.normal(size=3).tolist())
        values = pool[rng.integers(len(pool), size=n)]
        if n and rng.integers(2):
            values[rng.integers(n, size=n // 3)] = rng.integers(-2**63, 2**63, size=n // 3,
                                                                dtype=np.int64).view(np.float64)
        return values, values.tolist()
    if kind == 1:  # int64 in a short range, which may sit anywhere
        base = int(rng.choice(SPECIAL_INTS[:3] + [2**63 - 40, -(2**63)]))
        values = base + rng.integers(0, n // 2 + 2, size=n)  # stays inside int64
        return values, values.tolist()
    if kind == 2:  # int64 over the whole range
        pool = np.array(SPECIAL_INTS + rng.integers(-2**63, 2**63, size=4, dtype=np.int64).tolist())
        values = pool[rng.integers(len(pool), size=n)]
        return values, values.tolist()
    if kind == 3:  # strings that need quotes, and the empty string
        values = [SPECIAL_TEXT[i] for i in rng.integers(len(SPECIAL_TEXT), size=n)]
        return values, values
    if kind == 4:  # builtin floats and ints, big ints included
        pool = SPECIAL_FLOATS + SPECIAL_INTS + [2**70, -(3**50), True, None]
        values = [pool[i] for i in rng.integers(len(pool), size=n)]
        return values, values
    if kind == 5:  # other numpy dtypes go through csv.writer value by value
        values = rng.integers(-128, 128, size=n).astype(np.int8)
        return values, list(values)
    values = rng.normal(size=n).astype(np.float32)
    return values, list(values)


class TestEmit:
    def test_columnar_writer_equals_csv_writer_on_random_columns(self, monkeypatch, tmp_path):
        from ffdist import harness

        monkeypatch.setattr(harness, "_EMIT_BLOCK", 5)  # many blocks, and a short last one
        rng = np.random.default_rng(2024)
        for trial in range(300):
            n = int(rng.choice([0, 1, 4, 5, 6, 17, 40]))
            shared = {f"c{j}": SPECIAL_TEXT[j] if j % 2 else SPECIAL_FLOATS[j]
                      for j in rng.integers(len(SPECIAL_FLOATS), size=rng.integers(3))}
            columns, seen = {}, []
            for j in range(int(rng.integers(1, 5))):
                values, as_seen = random_column(rng, n)
                columns[f"col {j}, \"{j}\""] = values
                seen.append(as_seen)
            if not shared and len(columns) == 1:
                columns["pad"] = ["x"] * n  # a row of one empty field is quoted: not a table row
                seen.append(columns["pad"])
            out = tmp_path / f"t{trial}"
            summary = emit(str(out), {}, rows=Table(shared, columns), deterministic=True)
            want = io.StringIO(newline="")
            writer = csv.writer(want, lineterminator="\n")
            writer.writerow([*shared, *columns])
            writer.writerows(zip(*[[v] * n for v in shared.values()], *seen))
            assert (tmp_path / f"t{trial}.csv").read_bytes() == want.getvalue().encode()
            assert summary["rows_written"] == n


class TestCli:
    def test_distance_full_grids(self, capsys):
        assert main(
            [
                "distance",
                "--q",
                "7",
                "--d",
                "2",
                "--poly",
                "x1^2+x2^2",
                "--setE",
                "all",
                "--setF",
                "all",
            ]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta_sizes"] == [7]

    def test_distance_param_line_counterexample(self, capsys):
        assert main(
            [
                "distance",
                "--q",
                "7",
                "--d",
                "2",
                "--poly",
                "x1^2-x2^2",
                "--setE",
                "param-line:1,1:0,0",
                "--setF",
                "same",
            ]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta_sizes"] == [1]

    def test_usage_error_exits_1(self, capsys):
        assert main(["not-a-command"]) == 1

    def test_config_error_exits_2(self, capsys):
        assert main(["distance", "--q", "12", "--d", "2", "--poly", "x1",
                     "--setE", "all", "--setF", "all"]) == 2
        assert main(["decay", "--q", "7", "--d", "2", "--poly", "x0^2"]) == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--p", "5"],
            ["--p", "7"],
            ["--n", "2"],
            ["--modulus", "2,2,1"],
            ["--C", "nan"],
            ["--C", "inf"],
            ["--rho", "nan"],
            ["--rmin", "inf"],
            ["--kappa-sharp", "nan"],
            ["--kappa-fallback", "inf"],
        ],
    )
    def test_misread_options_exit_2(self, capsys, extra):
        argv = ["distance", "--q", "7", "--d", "2", "--poly", "x1^2+x2^2",
                "--setE", "all", "--setF", "all", *extra]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "value,message",
        [
            (0.0, "C must be positive"),
            (-math.inf, "C must be positive"),
            (math.nan, "C must be finite"),
            (math.inf, "C must be finite"),
        ],
    )
    def test_threshold_messages(self, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentConfig(q=7, C=value).validate()

    def test_q_alone_or_p_with_n_and_modulus(self):
        ExperimentConfig(q=9, n=1).validate()
        ExperimentConfig(p=3, n=2, modulus=(1, 0, 1)).validate()
        for extra in ({"p": 3}, {"n": 2}, {"modulus": (1, 0, 1)}):
            with pytest.raises(ConfigError, match="--q cannot be combined"):
                ExperimentConfig(q=9, **extra).validate()

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be\n", encoding="utf-8")
        base = str(blocker / "decay")
        assert main(["decay", "--q", "7", "--d", "2", "--poly", "x1^2+x2^2", "--out", base]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {base}: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    def test_hypothesis_error_exits_3(self, capsys):
        assert main(
            [
                "distance",
                "--q",
                "7",
                "--d",
                "2",
                "--poly",
                "x1^2+x2^2",
                "--setE",
                "iso-line",
                "--setF",
                "same",
            ]
        ) == 3

    @pytest.mark.parametrize(
        "cls",
        [
            c
            for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.FFDistError)
            and c is not errors.FFDistError
        ],
        ids=lambda c: c.__name__,
    )
    def test_every_error_class_maps_to_its_exit_code(self, capsys, monkeypatch, cls):
        expected = {
            errors.IsoUnavailable: (3, "hypothesis violation"),
            errors.RoundingDivergence: (4, "numeric failure"),
        }.get(cls, (2, "config error"))

        def explode(cfg):
            raise cls("synthetic")

        monkeypatch.setitem(RUNNERS, "weil", explode)
        assert main(["weil", "--q", "7", "--poly", "x1"]) == expected[0]
        assert capsys.readouterr().err == f"{expected[1]}: synthetic\n"

    def test_every_option_is_a_config_field(self):
        from dataclasses import fields

        from ffdist.cli import build_parser, config_from_args

        names = {f.name for f in fields(ExperimentConfig)}
        parser = build_parser()
        command = next(a for a in parser._actions if a.dest == "command")
        assert command.choices == list(RUNNERS)
        dests = {a.dest for a in parser._actions if a.dest not in ("help", "command")}
        assert dests == names
        for name in RUNNERS:
            assert config_from_args(build_parser().parse_args([name])) == ExperimentConfig()

    def test_one_parser_holds_every_option_once(self):
        import argparse

        actions = build_parser()._actions
        assert not any(isinstance(a, argparse._SubParsersAction) for a in actions)
        assert len(actions) == 23  # -h, the command and 21 options

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (
                ["not-a-command"],
                "argument command: invalid choice: 'not-a-command' (choose from 'field-check',"
                " 'fourier-check', 'decay', 'weil', 'phase', 'distance', 'pinned', 'lift',"
                " 'scan')",
            ),
            (["field-check", "--q", "abc"], "argument --q: invalid int value: 'abc'"),
            (["decay", "--q"], "argument --q: expected one argument"),
            (
                ["decay", "--q", "7", "--d", "2", "--poly", "x1^2", "--bogus", "1"],
                "unrecognized arguments: --bogus 1",
            ),
        ],
    )
    def test_usage_errors_print_one_line_and_exit_1(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"usage error: {message}\n"

    def test_help_lists_every_command_with_its_description(self, capsys):
        from ffdist.cli import _COMMANDS

        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert list(_COMMANDS) == list(RUNNERS)
        for name, text in _COMMANDS.items():
            assert f"  {name:<15}{text}" in lines

    def test_options_may_come_before_the_command(self):
        after = ["decay", "--q", "7", "--d", "2", "--poly", "x1^2+x2^2", "--t", "3"]
        before = after[1:] + after[:1]
        mixed = ["--q", "7", "decay", "--d", "2", "--poly", "x1^2+x2^2", "--t", "3"]
        want = config_from_args(build_parser().parse_args(after))
        assert want.q == 7 and want.t == 3
        for argv in (before, mixed):
            args = build_parser().parse_args(argv)
            assert args.command == "decay" and config_from_args(args) == want

    def test_ops_never_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma (12-15 ms) on first use; no op needs it.
        import os
        import subprocess
        import sys

        import ffdist

        ops = [
            "distance --q 7 --d 2 --poly x1^2+x2^2 --setE random:20 --setF all",
            "pinned --p 3 --n 2 --d 2 --poly x1^2+x2^2 --setE random:30 --setF random:5",
            "scan --q 5 --d 2 --poly x1^2+x2^2 --grid 20,200 --trials 2",
            "lift --q 7 --d 1 --poly x1^3 --setE random:4 --setF random:4",
            "decay --q 7 --d 2 --poly x1^2+x2^2",
            "phase --q 5 --d 2 --poly x1^2+x2^2+x1",
            "weil --q 7 --poly x1^3",
            "field-check --q 9",
            "fourier-check --q 7 --d 2 --trials 2",
        ]
        script = (
            "import sys\n"
            "from ffdist.cli import main\n"
            f"for i, op in enumerate({ops!r}):\n"
            f"    assert main(op.split() + ['--out', {str(tmp_path)!r} + f'/op{{i}}']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ffdist.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.splitlines()[-1] == "False"

    @staticmethod
    def outputs_at_blas_threads(tmp_path, command: str) -> list:
        """The CSV and JSON bytes of `ffdist COMMAND --deterministic` run
        in a fresh process at OPENBLAS_NUM_THREADS 1 and then 2."""
        import os
        import subprocess
        import sys

        import ffdist
        from ffdist import fourier

        if fourier._blas_thread_calls() is None:
            pytest.skip("the BLAS thread count of numpy cannot be reached here")
        src = os.path.dirname(os.path.dirname(ffdist.__file__))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "ffdist", *command.split(), "--deterministic", "--out", str(out)],
                env=env, capture_output=True, check=True,
            )
            outputs.append([out.with_suffix(ext).read_bytes() for ext in (".csv", ".json")])
        return outputs

    def test_decay_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 87 CSV rows of this run differed between 1 and 2 OpenBLAS threads
        # while decay's products ran at numpy's own count
        one, two = self.outputs_at_blas_threads(tmp_path, "decay --q 211 --d 2 --poly x1^2+x2^2")
        assert one == two

    def test_phase_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the self-check of a factored table, factored_vs_direct_max_error,
        # runs its inverse transforms on one BLAS thread
        one, two = self.outputs_at_blas_threads(tmp_path, "phase --q 23 --d 2 --poly x1^3+x2^3")
        assert one == two

    def test_numeric_error_exits_4(self, capsys, monkeypatch):
        from ffdist import harness
        from ffdist.errors import RoundingDivergence

        def explode(cfg):
            raise RoundingDivergence("synthetic numeric breakdown")

        monkeypatch.setitem(harness.RUNNERS, "field-check", explode)
        assert main(["field-check", "--q", "7"]) == 4

    def test_seed_trials_rows(self, tmp_path):
        out = tmp_path / "runs"
        assert main(
            [
                "distance",
                "--q",
                "7",
                "--d",
                "2",
                "--poly",
                "x1^2+x2^2",
                "--setE",
                "random:10",
                "--setF",
                "random:10",
                "--trials",
                "5",
                "--seed",
                "11",
                "--deterministic",
                "--out",
                str(out),
            ]
        ) == 0
        with open(tmp_path / "runs.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["seed"]) for r in rows] == [11, 12, 13, 14, 15]

    def test_timestamp_header_suppressed_only_when_deterministic(self, tmp_path):
        args = [
            "decay",
            "--q",
            "7",
            "--d",
            "2",
            "--poly",
            "x1^2+x2^2",
            "--out",
            str(tmp_path / "a"),
        ]
        assert main(args) == 0
        first = (tmp_path / "a.csv").read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("# generated")
        assert main(args + ["--deterministic"]) == 0
        first = (tmp_path / "a.csv").read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("q,")

    def test_byte_identical_reruns(self, tmp_path):
        base = [
            "scan",
            "--q",
            "7",
            "--d",
            "2",
            "--poly",
            "x1^2+x2^2",
            "--grid",
            "50,200",
            "--trials",
            "3",
            "--seed",
            "21",
            "--deterministic",
            "--out",
        ]
        assert main(base + [str(tmp_path / "x")]) == 0
        assert main(base + [str(tmp_path / "y")]) == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()

    def test_scan_falconer_flips_by_dense_grid_point(self, tmp_path):
        assert main(
            [
                "scan",
                "--q",
                "13",
                "--d",
                "2",
                "--poly",
                "x1^2+x2^2",
                "--grid",
                "100,2500,19773",
                "--trials",
                "3",
                "--seed",
                "2",
                "--deterministic",
                "--out",
                str(tmp_path / "scan13"),
            ]
        ) == 0
        summary = json.loads((tmp_path / "scan13.json").read_text(encoding="utf-8"))
        flip = summary["first_grid_point_all_pass"]["falconer"]
        assert flip is not None and flip <= 19773
