"""Set-specification grammar, seeded generation, CSV/JSON emission,
exit codes, and the reproducibility contract of the CLI."""

import csv
import json
import math

import numpy as np
import pytest

from ffdist.cli import main
from ffdist.errors import ConfigError, IsoUnavailable
from ffdist.field import decode_point, field_from_order, make_field
from ffdist.harness import ExperimentConfig, _random_grid, build_set, run
from ffdist.rng import SplitMix64, derive_seed, sample_indices
from ffdist.varieties import parse_polynomial, phase_sum, phase_sweep, variety

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
        method = "factored" if P.kind == "diagonal" else "direct"
        best, bs, bm = -1.0, 0, 0
        for s in range(1, q):
            for m in range(q**d):
                a = abs(phase_sum(P, s, decode_point(spec, m, d), method=method))
                if a > best:
                    best, bs, bm = a, s, m
        code, summary = run("phase", ExperimentConfig(q=q, d=d, poly=poly))
        assert code == 0
        got = (summary["max_abs"], summary["argmax_s"], summary["argmax_m"])
        assert got == (best, bs, bm)
        sweep = phase_sweep(P)
        assert (sweep.max_abs, sweep.argmax_s, sweep.argmax_m) == (best, bs, bm)

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
                a = abs(phase_sum(P, s, decode_point(P.spec, m, 2), method="factored"))
                want.append(f"5,2,x1^2+x2^3,{s},{m},{a!r},{a / 5.0!r}")
        assert lines[1:] == want

    def test_phase_refuses_an_oversize_table_before_building_grids(self, monkeypatch):
        from ffdist import harness, varieties

        def unreachable(*args, **kwargs):
            raise AssertionError("a grid was built for an oversize phase request")

        for name in ("value_grid", "grid_coordinates"):
            monkeypatch.setattr(varieties, name, unreachable)
        monkeypatch.setattr(harness, "_phase_table", unreachable)
        cfg = ExperimentConfig(q=101, d=4, poly="x1^2+x2^2+x3^2+x4^2")
        with pytest.raises(ConfigError, match="GiB"):
            run("phase", cfg)
        argv = ["phase", "--q", "101", "--d", "4", "--poly", "x1^2+x2^2+x3^2+x4^2"]
        assert main(argv) == 2

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
