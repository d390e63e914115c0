"""Benchmark runner for ffdist.

    python3 bench/run.py --workload dense --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload dense --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --record        # rewrite the reference outputs

A workload is a fixed list of `ffdist` subcommands (bench/workloads.py),
run as a closed loop with one client: each op starts only when the
previous one has ended, in a fresh interpreter that calls
`ffdist.cli.main(argv + ["--deterministic", "--out", <tmp>])`, so every
op pays for cold caches and table builds as a user's invocation does.
Passes over the workload repeat until the next one would overrun
`--seconds`.  Every op's outputs are checked (bench/checker.py); a check
failure, a nonzero exit or an exception counts as a failed op.

With `--trace 0` the last stdout line reports the end-to-end metrics;
with `--trace 1` each untraced pass is followed by a traced one
(bench/tracer.py) and the line reports the per-layer metrics.  The full
record of the run, with an environment block, goes to
bench/out/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = (BENCH / "reference.json", BENCH / "reference.npz")
sys.path.insert(0, str(BENCH))

from checker import check_op, load_outputs, load_reference, record  # noqa: E402
from tracer import PER_LAYER, invalid_calls, op_layer_sums  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Op  # noqa: E402

OP_TIMEOUT_S = 120
WARM_UP = Op("warm-up", ("field-check", "--q", "2"))

# Host-speed probe.  The host is shared, and its speed drifts by up to 2x
# over minutes, so whole runs are fast or slow together.  Before each op,
# and after the last of a pass, the runner times a fixed pure-Python loop
# and a fixed numpy kernel, both independent of `ffdist`; an op's times are
# divided by the mean of the probes on either side of it, which reads them
# at the speed of the reference host.
PROBE_REF_S = (0.030, 0.048)  # (loop, kernel) on the reference host, a 2-core 2.1 GHz Xeon VM
_PROBE_ARRAY = np.arange(1_000_000, dtype=np.int64) % 101


def benchmark_units() -> dict[str, dict[str, str]]:
    """Name -> unit of the metrics BENCHMARK.json lists, per section: the
    `end_to_end` ones are on the untraced last line, the `per_layer` ones on
    the traced one."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {sec: {m["name"]: m["unit"] for m in spec[sec]} for sec in ("end_to_end", "per_layer")}


def unit_of(metric: str, known: dict[str, str]) -> str:
    """Unit of a metric of the result file.  Those BENCHMARK.json does not
    list are ratios, times (`cmd.*_s`, `*_raw_s` and layer times) and counts."""
    if metric in known:
        return known[metric]
    if metric in ("fail_ratio", "host_slowdown"):
        return "1"
    return "s" if metric.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# One op.

def _wait(proc: subprocess.Popen) -> tuple[int, int]:
    """Reap the op process; (exit code, peak RSS in KiB) of that child alone."""
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: do not leave the op running
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def host_probe() -> float:
    """Slowdown of the host now against the reference host: the probe's
    loop and kernel times over PROBE_REF_S, averaged."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    t1 = time.perf_counter()
    for _ in range(6):
        np.bincount((_PROBE_ARRAY * _PROBE_ARRAY + 7) % 101, minlength=101)
    t2 = time.perf_counter()
    return ((t1 - t0) / PROBE_REF_S[0] + (t2 - t1) / PROBE_REF_S[1]) / 2


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""


def run_op(op: Op, seed: int, *, trace: bool = False, reference=None, on_outputs=None) -> dict:
    """Run one op in a fresh process and check its outputs.

    `on_outputs(summary, rows)`, if given, sees the outputs of an op that
    passed its checks, before its directory is removed."""
    work = OUT / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    opdir = Path(tempfile.mkdtemp(prefix=f"{op.command}-", dir=work))
    try:
        base = opdir / "out"
        job = {
            "argv": op.argv(seed) + ["--deterministic", "--out", str(base)],
            "trace": trace,
            "result": str(opdir / "result.json"),
            "spans": str(opdir / "spans.npy"),
        }
        (opdir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(opdir / "job.json")]
        with open(opdir / "stdout.txt", "wb") as out, open(opdir / "stderr.txt", "wb") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=opdir)
            code, rss_kib = _wait(proc)
        rec = {"key": op.key, "command": op.command, "exit": code, "rss_mb": rss_kib / 1024}
        problems = []
        try:
            res = json.loads((opdir / "result.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            res = None
            problems.append(f"no result from the op process: {_tail(opdir / 'stderr.txt')}")
        if res is not None:
            if res.get("error"):
                problems.append(res["error"].strip().splitlines()[-1])
            if "main_end" in res:
                rec["setup_s"] = res["imported"] - spawned
                rec["main_s"] = res["main_end"] - res["main_start"]
        if code != 0:
            problems.append(f"exit code {code}: {_tail(opdir / 'stderr.txt')}")
        if not problems:
            problems += check_op(op, seed, DEFAULT_SEED, base, reference)
            if on_outputs is not None and not problems:
                on_outputs(*load_outputs(base))
        if trace and res is not None and "names" in res:
            spans = np.load(opdir / "spans.npy")
            rec["layers"] = op_layer_sums(spans, res["names"])
            rec["value_grid_cache"] = res["value_grid_cache"]
            problems += [f"invariant broken in {n}" for n in invalid_calls(spans, res["names"])]
        rec["problems"] = problems
        return rec
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


def run_pass(ops, seed: int, *, trace: bool = False, reference=None) -> list[dict]:
    """Every op once; each record's `host` is the mean of the host probes
    just before and just after its op."""
    records, probes = [], [host_probe()]
    for op in ops:
        records.append(run_op(op, seed, trace=trace, reference=reference))
        probes.append(host_probe())
    for rec, before, after in zip(records, probes, probes[1:]):
        rec["host"] = (before + after) / 2
    return records


# ---------------------------------------------------------------------------
# Metrics over passes.

def _per_op_medians(passes: list[list[dict]], scaled: bool) -> dict[str, tuple[str, float]]:
    """Op key -> (subcommand, median over passes of its time in cli.main),
    each time over its op's host slowdown when `scaled`."""
    times: dict[str, list[float]] = {}
    commands = {}
    for p in passes:
        for rec in p:
            if "main_s" in rec:
                t = rec["main_s"] / rec["host"] if scaled else rec["main_s"]
                times.setdefault(rec["key"], []).append(t)
                commands[rec["key"]] = rec["command"]
    return {k: (commands[k], statistics.median(v)) for k, v in times.items()}


def wall_s(passes, scaled: bool = True) -> float:
    """One pass: the sum over ops of each op's median time inside cli.main."""
    return sum(t for _, t in _per_op_medians(passes, scaled).values())


def end_to_end(passes: list[list[dict]]) -> dict[str, float]:
    """The times are at the reference host's speed: each op's times over its
    `host` slowdown.  The measured ones are kept as `*_raw_s`."""
    timed = [rec for p in passes for rec in p if "setup_s" in rec]
    setups = [rec["setup_s"] for rec in timed]
    scaled_setups = [rec["setup_s"] / rec["host"] for rec in timed]
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for rec in p if rec["problems"])
    out = {
        "wall_s": wall_s(passes),
        "setup_s": statistics.median(scaled_setups) if timed else float("nan"),
        "peak_rss_mb": statistics.median(max(rec["rss_mb"] for rec in p) for p in passes),
        "fail_ratio": failed / attempted,
        "host_slowdown": statistics.median(rec["host"] for p in passes for rec in p),
        "wall_raw_s": wall_s(passes, scaled=False),
        "setup_raw_s": statistics.median(setups) if timed else float("nan"),
    }
    for command, t in _per_op_medians(passes, scaled=True).values():
        key = f"cmd.{command}_s"
        out[key] = out.get(key, 0.0) + t
    return out


def _pass_layers(p: list[dict], ops: dict[str, Op]) -> dict[str, float]:
    total: dict[str, float] = {}
    hits = lookups = calls = trial_rows = 0
    for rec in p:
        for k, v in rec.get("layers", {}).items():
            total[k] = total.get(k, 0) + v
        if "value_grid_cache" in rec:
            h, m = rec["value_grid_cache"]
            hits, lookups = hits + h, lookups + h + m
        if rec["command"] in ("distance", "scan") and "layers" in rec:
            calls += rec["layers"]["distances.distance_set_calls"]
            trial_rows += ops[rec["key"]].trial_rows()
    total["varieties.value_grid_hit_ratio"] = hits / lookups if lookups else 0.0
    total["distances.distance_sets_per_trial"] = calls / trial_rows if trial_rows else 0.0
    return total


def trace_overhead(untraced, traced) -> float:
    """Cost of tracing per pass: for each op, the median over passes of its
    traced time minus its time in the untraced pass just before, summed
    over ops.  Pairing neighbouring passes keeps slow host drift out, but
    the op-to-op noise of one run is still of the order of the overhead."""
    diffs: dict[str, list[float]] = {}
    for plain, with_trace in zip(untraced, traced):
        for a, b in zip(plain, with_trace):
            if "main_s" in a and "main_s" in b:
                diffs.setdefault(a["key"], []).append(b["main_s"] - a["main_s"])
    return sum(statistics.median(v) for v in diffs.values())


def per_layer(untraced, traced, ops) -> dict[str, float]:
    """Medians over traced passes of each layer metric, plus the overhead."""
    by_key = {op.key: op for op in ops}
    layers = [_pass_layers(p, by_key) for p in traced]
    out = {m: statistics.median(pl.get(m, 0.0) for pl in layers) for m in PER_LAYER[:-1]}
    out["trace.overhead_s"] = trace_overhead(untraced, traced)
    return out


def measure(ops, seed: int, seconds: float, trace: bool, reference):
    """Repeat passes (untraced, then traced when tracing) until the next
    one would end after `seconds`; at least one."""
    untraced, traced, durations = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(ops, seed, reference=reference))
        if trace:
            traced.append(run_pass(ops, seed, trace=True, reference=reference))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return untraced, traced


# ---------------------------------------------------------------------------
# Environment block.

def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry points.

def record_reference() -> int:
    """Run every op once at the default seed, through the same op path as
    the benchmark, and store the outputs of those that meet the invariants."""
    entries, arrays = {}, {}
    for name, ops in WORKLOADS.items():
        for op in ops:
            got = []
            rec = run_op(op, DEFAULT_SEED, on_outputs=lambda *outputs: got.extend(outputs))
            if rec["problems"]:
                print(f"{name}/{op.key}: {rec['problems']}", file=sys.stderr)
                return 1
            entries[op.key], more = record(op.key, *got)
            arrays.update(more)
    REFERENCE[0].write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    np.savez_compressed(REFERENCE[1], **arrays)
    print(f"recorded {len(entries)} ops")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the reference outputs")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running op is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    if not (SRC / "ffdist" / "__init__.py").is_file():
        print(f"no ffdist sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    reference = load_reference(*REFERENCE)
    warm = run_op(WARM_UP, args.seed)  # compiles bytecode, proves the op path works
    if warm["problems"]:
        print(f"warm-up op failed: {warm['problems']}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload]
    started = time.perf_counter()
    untraced, traced = measure(ops, args.seed, args.seconds, bool(args.trace), reference)
    measured_s = time.perf_counter() - started
    metrics = end_to_end(untraced)
    if args.trace:
        metrics.update(per_layer(untraced, traced, ops))
    everything = untraced + traced
    attempted = sum(len(p) for p in everything)
    failed = [rec for p in everything for rec in p if rec["problems"]]
    units = benchmark_units()
    reported = units["per_layer" if args.trace else "end_to_end"]
    known = units["end_to_end"] | units["per_layer"]

    results = OUT / "results"
    results.mkdir(exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "measured_s": measured_s,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "metrics": {m: {"value": v, "unit": unit_of(m, known)} for m, v in metrics.items()},
        "ops": {"untraced": untraced, "traced": traced},
    }, indent=1) + "\n", encoding="utf-8")

    for rec in failed:
        print(f"FAILED {rec['key']}: {rec['problems']}")
    for m, v in metrics.items():
        print(f"{m} {v:.6g} {unit_of(m, known)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
