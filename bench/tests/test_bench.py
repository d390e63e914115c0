"""Tests of the benchmark itself.  Run: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import SMOKE, WORKLOADS, Op  # noqa: E402


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_workload_passes_untraced_and_traced(workload):
    assert set(SMOKE) == set(WORKLOADS)
    ops = SMOKE[workload]
    passes = {}
    for trace in (False, True):
        records = run.run_pass(ops, seed=5, trace=trace)
        assert [r["problems"] for r in records] == [[] for _ in ops]
        assert all(r["main_s"] > 0 and r["setup_s"] > 0 and r["rss_mb"] > 0 for r in records)
        if trace:
            assert all(r["layers"]["cli.calls"] >= 1 for r in records)
        passes[trace] = [records]
    metrics = run.end_to_end(passes[False])
    assert metrics["fail_ratio"] == 0.0
    assert {f"cmd.{op.command}_s" for op in ops} <= set(metrics)
    # every metric BENCHMARK.json asks for is one the runner computes
    units = run.benchmark_units()
    assert set(units["end_to_end"]) <= set(metrics)
    assert set(units["per_layer"]) <= set(run.per_layer(passes[False], passes[True], ops))


def test_trace_overhead_pairs_each_traced_pass_with_the_one_before():
    def rec(key, t):
        return {"key": key, "main_s": t}

    # The host slows op "a" by 2 s from the second traced pass on.  Unpaired
    # medians would read 3.1 - 1.0 = 2.1 s of overhead for it; paired, 0.1 s.
    untraced = [[rec("a", 1.0), rec("b", 2.0)], [rec("a", 1.0), rec("b", 2.0)],
                [rec("a", 3.0), rec("b", 2.0)]]
    traced = [[rec("a", 1.1), rec("b", 2.2)], [rec("a", 3.1), rec("b", 2.2)],
              [rec("a", 3.1), rec("b", 2.2)]]
    assert run.trace_overhead(untraced, traced) == pytest.approx(0.3)


def test_end_to_end_times_are_read_at_the_reference_host_speed():
    def rec(key, main, host):
        return {"key": key, "command": key, "main_s": main, "setup_s": 0.2 * host,
                "rss_mb": 50.0, "host": host, "problems": []}

    # The host runs at half speed in the second pass: every time doubles.
    passes = [[rec("a", 1.0, 1.0), rec("b", 3.0, 1.0)], [rec("a", 2.0, 2.0), rec("b", 6.0, 2.0)],
              [rec("a", 2.0, 2.0), rec("b", 6.0, 2.0)]]
    m = run.end_to_end(passes)
    assert m["host_slowdown"] == 2.0
    assert m["wall_raw_s"] == pytest.approx(8.0)
    assert m["wall_s"] == pytest.approx(4.0)
    assert m["setup_s"] == pytest.approx(0.2)
    assert m["cmd.b_s"] == pytest.approx(3.0)
    assert 0 < run.host_probe() < 100


def _spans(rows):
    arr = np.zeros(len(rows), dtype=tracer.SPAN_DTYPE)
    for i, (name, start, end, parent) in enumerate(rows):
        arr[i] = (i, name, start, end, parent, 0, 0, 0)
    return arr


def test_self_time_on_synthetic_tree():
    # 0: root [0, 10]; 1: [1, 4] under 0; 2: [5, 9] under 0; 3: [6, 7] under 2
    spans = _spans([(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 9.0, 0), (2, 6.0, 7.0, 2)])
    assert np.allclose(tracer.self_times(spans), [3.0, 3.0, 3.0, 1.0])
    # name 1 nested in itself would be counted once by "outer" sums
    nested = _spans([(0, 0.0, 10.0, -1), (1, 1.0, 8.0, 0), (1, 2.0, 5.0, 1)])
    outer = tracer.outermost(nested, nested["name"] == 1)
    assert outer.tolist() == [False, True, False]
    sums = tracer.op_layer_sums(nested, ["cli.main", "field.add_table"])
    assert sums["cli.self_s"] == pytest.approx(3.0)
    assert sums["field.self_s"] == pytest.approx(7.0)
    assert sums["field.calls"] == 2


def _outputs(tmp_path: Path, argv: list[str]) -> Path:
    base = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "ffdist", *argv, "--deterministic", "--out", str(base)],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    return base


def test_checker_rejects_a_changed_histogram_count(tmp_path):
    op = Op("distance", tuple("distance --q 7 --d 2 --poly x1^2+x2^2 --setE all --setF all".split()))
    base = _outputs(tmp_path, op.argv(0))
    entry, arrays = checker.record(op.key, *checker.load_outputs(base))
    reference = ({op.key: entry}, arrays)
    assert checker.check_op(op, 0, 1, base, reference) == []
    path = base.with_suffix(".json")
    summary = json.loads(path.read_text())
    summary["histogram"][3] += 1
    path.write_text(json.dumps(summary))
    problems = checker.check_op(op, 0, 1, base, reference)
    assert any("histogram" in p for p in problems)


def test_checker_rejects_a_moved_decay_constant(tmp_path):
    op = Op("decay", tuple("decay --q 7 --d 2 --poly x1^2+x2^2".split()))
    base = _outputs(tmp_path, op.argv(0))
    entry, arrays = checker.record(op.key, *checker.load_outputs(base))
    reference = ({op.key: entry}, arrays)
    assert checker.check_op(op, 0, 1, base, reference) == []
    path = base.with_suffix(".csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[2]["c_sharp"] = repr(float(rows[2]["c_sharp"]) + 1e-5)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    problems = checker.check_op(op, 0, 1, base, reference)
    assert any("c_sharp" in p for p in problems)


def test_checker_invariants_catch_a_broken_distance_row(tmp_path):
    op = SMOKE["dense"][1]  # scan, seeded: only invariants apply off the default seed
    base = _outputs(tmp_path, op.argv(9))
    assert checker.check_op(op, 9, 1, base, None) == []
    path = base.with_suffix(".csv")
    text = path.read_text().splitlines()
    header, first = text[0].split(","), text[1].split(",")
    first[header.index("delta_size")] = str(int(first[header.index("delta_size")]) - 1)
    path.write_text("\n".join([text[0], ",".join(first)] + text[2:]) + "\n")
    assert any("missing_t" in p for p in checker.check_op(op, 9, 1, base, None))


def test_wrappers_see_calls_through_harness_bindings():
    # run_scan calls sample_indices and run_pinned calls pinned_distances
    # through names harness imported with `from .x import f`.
    scan, pinned = SMOKE["dense"][1], SMOKE["dense"][2]
    rec_scan = run.run_op(scan, 5, trace=True)
    rec_pinned = run.run_op(pinned, 5, trace=True)
    assert rec_scan["problems"] == [] and rec_pinned["problems"] == []
    # two roles per (grid point, trial)
    assert rec_scan["layers"]["rng.sample_calls"] == 2 * scan.trial_rows()
    assert rec_scan["layers"]["distances.distance_set_calls"] == 2 * scan.trial_rows()
    assert rec_pinned["layers"]["distances.pins"] == 7**2
    assert rec_pinned["layers"]["harness.runner_self_s"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout.strip() == ""
