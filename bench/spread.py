"""Repeat benchmark runs over seeds and write a `BENCH_*.json` record.

    python3 bench/spread.py --out bench/BENCH_baseline.json

runs, as separate `bench/run.py` invocations of the `run_seconds` of
BENCHMARK.json each:

* two sets of one `--trace 0` run per workload and seed of `--seeds`
  (default 1-10), set after set, as the benchmark's acceptance runs do;
* then one `--trace 1` run per workload at seeds 1 and 2.

`--workloads` and `--seeds` narrow the runs, to check one workload's
spread cheaply.

Every metric comes from the full result file of its run
(bench/out/results/), not only from the last stdout line.  Per set, the
record holds each metric's values over the seeds, their median, quartiles
(`statistics.quantiles`, n=4) and spread, (Q3 - Q1) / median; per traced
seed, every metric of that run.  For the metrics BENCHMARK.json bounds it
also prints both sets' spreads and medians, and the change of the median
from the first set to the second.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = ("set_a", "set_b")
TRACED_SEEDS = [1, 2]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py invocation; its full result file."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"{' '.join(cmd[1:])} exited {res.returncode}: {res.stderr.strip()}")
    path = BENCH / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_set(workload: str, seeds: list[int], seconds: int) -> tuple[dict, dict]:
    values: dict[str, list[float]] = {}
    units = {}
    attempted = failed = 0
    env = None
    for seed in seeds:
        result = run_one(workload, seed, seconds, 0)
        env = env or result["environment"]
        ops = [rec for p in result["ops"]["untraced"] for rec in p]
        attempted += len(ops)
        failed += sum(1 for rec in ops if rec["problems"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"{workload} seed {seed}: failed={failed} wall_s={values['wall_s'][-1]:.4g} "
              f"setup_s={values['setup_s'][-1]:.4g} wall_raw_s={values['wall_raw_s'][-1]:.4g} "
              f"host_slowdown={values['host_slowdown'][-1]:.3g}", flush=True)
    metrics = {k: dict(stats(v), unit=units[k]) for k, v in values.items()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    summary: dict[str, dict] = {w: {} for w in args.workloads}
    env = None
    for name in SETS:
        for workload in args.workloads:
            summary[workload][name], env = run_set(workload, args.seeds, seconds)
    traced: dict[str, dict] = {w: {} for w in args.workloads}
    for workload in args.workloads:
        for seed in TRACED_SEEDS:
            result = run_one(workload, seed, seconds, 1)
            traced[workload][f"seed{seed}"] = {k: m["value"] for k, m in result["metrics"].items()}
            print(f"{workload} traced seed {seed}: done", flush=True)

    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in args.workloads:
            a, b = (summary[workload][s]["metrics"][name] for s in SETS)
            print(f"{workload} {name} (bound {bound}): spread {a['spread']:.3f} / "
                  f"{b['spread']:.3f}, median {a['median']:.4g} / {b['median']:.4g} "
                  f"({b['median'] / a['median'] - 1:+.3f})")

    if args.out:
        env = {k: v for k, v in env.items() if k != "seed"}  # the seeds are listed below
        seeds = f"{args.seeds[0]}-{args.seeds[-1]}"
        doc = {
            "label": args.out.stem.removeprefix("BENCH_"),
            "description": f"ffdist at commit {env['git_commit']}, measured by bench/run.py: "
                           f"{len(SETS)} sets of one --trace 0 run per seed {seeds} per workload, "
                           f"then one --trace 1 run per seed {TRACED_SEEDS}",
            "run_seconds": seconds,
            "seeds": args.seeds,
            "traced_seeds": TRACED_SEEDS,
            "environment": env,
            "end_to_end": summary,
            "traced": traced,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
