"""Output checks for benchmark ops.

Every op, at every seed, must satisfy the invariants below.  An op whose
argv does not depend on the seed is also compared with the reference
recorded for it; a seeded op is compared only at the default seed, where
the reference was recorded.  Integers, strings and verdicts compare
exactly; floats compare within FLOAT_TOL (relative above 1, absolute
below), the tolerance `tests/data/decay_baseline.json` pins for decay
constants.  Integer-valued CSV columns are compared through a SHA-256 of
the column; float columns are stored, in units of 1e-9, in
`reference.npz`.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

FLOAT_TOL = 1e-6
FLOAT_UNIT = 1e-9  # storage quantum of reference float columns


def load_outputs(base: str | Path) -> tuple[dict, list[dict] | None]:
    """The summary and CSV rows an op wrote to <base>.json / <base>.csv."""
    base = Path(base)
    summary = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    csv_path = base.with_suffix(".csv")
    rows = None
    if csv_path.exists():
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    return summary, rows


def _is_float_text(text: str) -> bool:
    try:
        int(text)
        return False
    except ValueError:
        pass
    try:
        float(text)
        return True
    except ValueError:
        return False


def _split_columns(rows: list[dict]) -> tuple[dict, dict]:
    """(exact text columns, float columns) of a CSV."""
    exact, floats = {}, {}
    for col in rows[0] if rows else ():
        values = [r[col] for r in rows]
        if any(_is_float_text(v) for v in values):
            floats[col] = np.array([float(v) for v in values])
        else:
            exact[col] = values
    return exact, floats


def _digest(values: list[str]) -> str:
    return hashlib.sha256("\n".join(values).encode("utf-8")).hexdigest()


def record(key: str, summary: dict, rows: list[dict] | None) -> tuple[dict, dict]:
    """Reference entry for one op, plus its float columns for the npz."""
    entry: dict = {"summary": summary}
    arrays = {}
    if rows is not None:
        exact, floats = _split_columns(rows)
        entry["csv"] = {
            "rows": len(rows),
            "exact": {col: _digest(v) for col, v in exact.items()},
            "float": sorted(floats),
        }
        for col, values in floats.items():
            arrays[f"{key}/{col}"] = np.rint(values / FLOAT_UNIT).astype(np.int64)
    return entry, arrays


def close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def _compare(got, want, path: str, problems: list[str]):
    if isinstance(want, float) or (isinstance(got, float) and isinstance(want, int)
                                   and not isinstance(want, bool)):
        if not isinstance(got, (int, float)) or isinstance(got, bool) or not close(got, want):
            problems.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                            f" != {sorted(want)}")
            return
        for k in want:
            _compare(got[k], want[k], f"{path}.{k}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", problems)
    elif type(got) is not type(want) or got != want:
        problems.append(f"{path}: {got!r} != {want!r}")


def compare(key: str, summary: dict, rows, entry: dict, arrays) -> list[str]:
    """Differences between an op's outputs and its reference entry."""
    problems: list[str] = []
    _compare(summary, entry["summary"], "summary", problems)
    want = entry.get("csv")
    if (rows is None) != (want is None):
        return problems + ["csv: presence differs from the reference"]
    if want is None:
        return problems
    if len(rows) != want["rows"]:
        return problems + [f"csv: {len(rows)} rows, reference has {want['rows']}"]
    exact, floats = _split_columns(rows)
    if sorted(exact) != sorted(want["exact"]) or sorted(floats) != want["float"]:
        return problems + ["csv: columns differ from the reference"]
    for col, values in exact.items():
        if _digest(values) != want["exact"][col]:
            problems.append(f"csv.{col}: integer/text column differs")
    for col, values in floats.items():
        ref = arrays[f"{key}/{col}"] * FLOAT_UNIT
        bad = np.abs(values - ref) > FLOAT_TOL * np.maximum(1.0, np.abs(ref))
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(f"csv.{col}[{i}]: {values[i]!r} != {ref[i]!r}")
    return problems


# ---------------------------------------------------------------------------
# Invariants that hold at every seed.

def _missing(row: dict) -> list[str]:
    return [t for t in row["missing_t"].split(";") if t]


def _count_spec(op, role: str, q: int, d: int) -> int | None:
    spec = op.flag(f"set{role}") or ""
    if spec == "all":
        return q**d
    if spec.startswith("random:"):
        return min(int(spec.split(":")[1]), q**d)
    return None


def invariants(op, summary: dict, rows) -> list[str]:
    """Problems with an op's outputs that no seed excuses."""
    cmd = op.command
    q = op.field_order()
    d = int(op.flag("d") or 1)
    trials = int(op.flag("trials") or 1)
    out: list[str] = []

    def need(ok: bool, what: str):
        if not ok:
            out.append(what)

    need(summary.get("command") == cmd, f"summary.command is {summary.get('command')!r}")
    if cmd in ("field-check", "fourier-check"):
        need(summary.get("pass") is True, f"{cmd} did not pass")
    elif cmd == "decay":
        need(rows is not None and len(rows) == q, "decay: one row per t")
        if rows:
            sizes = sum(int(r["variety_size"]) for r in rows)
            need(sizes == q**d, f"decay: fiber sizes sum to {sizes}, not q^d")
        need(all(0 <= t < q for t in summary["T"] + summary["A"]), "decay: T/A outside F_q")
    elif cmd == "phase":
        need(rows is not None and len(rows) == (q - 1) * q**d, "phase: one row per (s, m)")
        if rows:
            scale = float(q) ** (d / 2)
            abs_sum = [float(r["abs_sum"]) for r in rows]
            need(all(close(float(r["ratio"]), a / scale) for r, a in zip(rows, abs_sum)),
                 "phase: ratio != abs_sum / q^(d/2)")
            need(close(summary["max_abs"], max(abs_sum)), "phase: max_abs is not the row maximum")
    elif cmd in ("distance", "scan"):
        expected = op.trial_rows()
        need(rows is not None and len(rows) == expected, f"{cmd}: {expected} rows expected")
        for r in rows or ():
            size = int(r["delta_size"])
            need(size + len(_missing(r)) == q, f"{cmd}: delta_size + |missing_t| != q")
            need(0 < size <= q, f"{cmd}: delta_size {size} outside 1..q")
        if cmd == "scan" and rows:
            sides = [s for s in op.scan_sides() for _ in range(trials)]
            need(all(int(r["size_E"]) == int(r["size_F"]) == s for r, s in zip(rows, sides)),
                 "scan: set sizes do not match the grid sides")
        if "histogram" in summary and rows:
            hist = summary["histogram"]
            pairs = int(rows[0]["size_E"]) * int(rows[0]["size_F"])
            need(len(hist) == q, "distance: histogram length != q")
            need(sum(hist) == pairs, f"distance: histogram sums to {sum(hist)}, not |E||F|")
            need(sum(1 for c in hist if c) == int(rows[0]["delta_size"]),
                 "distance: histogram support != distance set")
    elif cmd == "pinned":
        need(rows is not None and len(rows) == trials, "pinned: one row per trial")
        sizes = (_count_spec(op, "E", q, d), _count_spec(op, "F", q, d))
        for r in rows or ():
            need(0.0 <= float(r["fraction_large"]) <= 1.0, "pinned: fraction outside [0, 1]")
            need(sizes[0] in (None, int(r["size_E"])) and sizes[1] in (None, int(r["size_F"])),
                 "pinned: set sizes differ from the specs")
        if rows:
            need(all(close(f, float(r["fraction_large"]))
                     for f, r in zip(summary["fractions"], rows)),
                 "pinned: summary fractions differ from the rows")
    elif cmd == "lift":
        need(summary.get("fibers_uniform") is True, "lift: fibers not uniform")
        need(summary.get("fiber_size") == q**d, "lift: fiber size != q^d")
        need(summary.get("restriction_matches", True) is True, "lift: restriction mismatch")
    return out


def check_op(op, seed: int, default_seed: int, base, reference) -> list[str]:
    """All problems with one op's outputs; empty when it passed.

    `reference` is (entries, arrays) or None (invariants only)."""
    try:
        summary, rows = load_outputs(base)
    except (OSError, ValueError) as exc:
        return [f"outputs unreadable: {exc}"]
    problems = invariants(op, summary, rows)
    if reference is not None and (not op.seeded or seed == default_seed):
        entries, arrays = reference
        entry = entries.get(op.key)
        if entry is None:
            problems.append("no reference recorded for this op")
        else:
            problems += compare(op.key, summary, rows, entry, arrays)
    return problems


def load_reference(path_json: Path, path_npz: Path):
    entries = json.loads(path_json.read_text(encoding="utf-8"))
    with np.load(path_npz) as npz:
        arrays = {k: npz[k] for k in npz.files}
    return entries, arrays
