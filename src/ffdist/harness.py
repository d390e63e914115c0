"""Experiment harness: set-specification grammar, seeded set generation,
experiment runners for every CLI command, and CSV/JSON emission.

Determinism contract: (config, seed) fully determines every generated set
and every emitted number.  Random sets draw from splitmix64 streams keyed
by (seed, role, trial), so rerunning a command with identical flags and
--deterministic reproduces the output files byte for byte.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math
from collections import namedtuple
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, IsoUnavailable
from .field import (
    _TABLE_BLOCK,
    FieldSpec,
    _require_memory,
    add_table,
    field_from_order,
    make_field,
    mul_table,
    neg_table,
    pow_table,
)
from .fourier import (
    ComplexGrid,
    _energy_residual,
    fourier_transform,
    inverse_transform,
)
from .rng import SplitMix64, derive_seed, sample_indices
from .varieties import (
    DIAGONAL,
    DecayEntry,
    PointSet,
    Polynomial,
    _diagonal_quadratic,
    _factored_table_error,
    _fiber_sizes,
    _phase_gather_bytes,
    _phase_table,
    characteristic_divides_exponent,
    decay_spectrum,
    exceptional_set,
    full_grid,
    parse_polynomial,
    points_from_coords,
    split_fibers,
    variety,
    weil_sum,
)
from .distances import (
    _PAIR_BLOCK_BYTES,
    CountingHistogram,
    _erdos_verdict,
    _falconer_verdict,
    _verdict,
    counting_function,
    distance_set,
    paraboloid_lift,
    pinned_distances,
    product_set,
    product_set_experiment,
)

ROLE_SALTS = {"E": 1, "F": 2, "E2": 3, "F2": 4}


# ---------------------------------------------------------------------------
# Configuration.

@dataclass
class ExperimentConfig:
    q: int | None = None
    p: int | None = None
    n: int = 1
    modulus: tuple[int, ...] | None = None
    d: int = 1
    poly: str | None = None
    setE: str | None = None
    setF: str | None = None
    setE2: str | None = None
    setF2: str | None = None
    t: int | None = None
    kappa_sharp: float = 3.0
    kappa_fallback: float = 3.0
    C: float = 1.0
    rho: float = 0.5
    r_min: float = 0.25
    trials: int = 1
    seed: int = 0
    grid: tuple[int, ...] | None = None
    out: str | None = None
    deterministic: bool = False

    def validate(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        for name in ("kappa_sharp", "kappa_fallback", "C", "rho", "r_min"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if self.q is None and self.p is None:
            raise ConfigError("either --q or --p (with optional --n) is required")
        if self.q is not None and (self.p is not None or self.n != 1 or self.modulus):
            raise ConfigError("--q cannot be combined with --p, --n or --modulus")

    def resolve_field(self) -> FieldSpec:
        """The field; make_field and field_from_order refuse one whose add
        and mul tables cannot fit, which every runner builds."""
        self.validate()
        if self.p is not None:
            return make_field(self.p, self.n, self.modulus)
        return field_from_order(self.q)


def require(cfg: ExperimentConfig, *names: str):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required here")


def _require_with_kernel(spec: FieldSpec, need: int, holds: str, kernel: bool = True):
    """Refuse a request that holds `need` bytes beside the field's add and
    mul tables and the transform kernel of fourier._forward_kernel, 16 q^2
    bytes each, when all of it cannot fit.  A request that builds no
    kernel states the block of mul_table rows that a cold field builds in
    its place: pinned at F_1009^1 peaked 1.1 MB above the tables."""
    q = spec.q
    if kernel:
        _require_memory(need + 32 * q**2, f"{holds} beside the tables and transform kernel of F_{q}")
    else:
        _require_memory(need + 16 * q**2 + _TABLE_BLOCK, f"{holds} beside the tables of F_{q}")


def _field_and_poly(cfg: ExperimentConfig) -> tuple[FieldSpec, Polynomial]:
    """The field and the parsed --poly, the preamble of every runner that
    takes one.  Each is charged P's q^d value grid, 8 bytes a point, which
    separable P mostly no longer builds: a grid that cannot fit is refused
    first (at d >= 64 no memory comes near)."""
    spec = cfg.resolve_field()
    require(cfg, "poly")
    q, d = spec.q, cfg.d
    if d >= 64:
        raise ConfigError(f"the value grid of F_{q}^{d} holds over 2^64 values")
    _require_memory(8 * q**d, f"the value grid of F_{q}^{d} holds {q**d} values")
    return spec, parse_polynomial(cfg.poly, spec, cfg.d)


# ---------------------------------------------------------------------------
# Set-specification grammar.
#
#   all
#   random:<count>[:<seed>]
#   param-line:<a1,..,ad>:<b1,..,bd>      the set {b + t*a : t in F_q}
#   iso-line                              {(s, i*s)} for some i with i*i = -1
#   subfield                              coordinates in F_{p^(n/2)}, n even
#   sphere:<t>                            the fiber V_t of the active polynomial
#   file:<path>                           one point per line, comma-separated
#   same                                  reuse the set built for E (F-side only)

def _parse_coords(text: str, d: int, q: int) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != d:
        raise ConfigError(f"expected {d} comma-separated coordinates in {text!r}")
    try:
        return tuple(int(c) % q for c in parts)
    except ValueError as exc:
        raise ConfigError(f"bad coordinate in {text!r}") from exc


def build_set(
    text: str,
    spec: FieldSpec,
    d: int,
    *,
    poly: Polynomial | None = None,
    seed: int = 0,
    role: str = "E",
    trial: int = 0,
) -> PointSet:
    """Materialize one set specification; see the grammar comment above."""
    kind, _, rest = text.partition(":")
    if kind == "all":
        return full_grid(spec, d)
    if kind == "random":
        bits = rest.split(":") if rest else []
        if not bits or not bits[0]:
            raise ConfigError("random spec needs a count: random:<count>[:<seed>]")
        try:
            count = int(bits[0])
            explicit = int(bits[1]) if len(bits) > 1 else None
        except ValueError as exc:
            raise ConfigError(f"bad random spec {text!r}") from exc
        if count < 1:
            raise ConfigError("random count must be >= 1")
        base = explicit if explicit is not None else seed
        rng = SplitMix64(derive_seed(base, ROLE_SALTS[role], trial))
        return PointSet(spec, d, sample_indices(rng, spec.q**d, count))
    if kind == "param-line":
        try:
            a_text, b_text = rest.split(":")
        except ValueError as exc:
            raise ConfigError("param-line:<a1,..,ad>:<b1,..,bd>") from exc
        a = list(_parse_coords(a_text, d, spec.q))
        b = list(_parse_coords(b_text, d, spec.q))
        return points_from_coords(spec, d, add_table(spec)[b, mul_table(spec)[:, a]])
    if kind == "iso-line":
        if d != 2:
            raise ConfigError("iso-line is only defined in dimension 2")
        mt = mul_table(spec)
        roots = np.flatnonzero(np.diagonal(mt) == neg_table(spec)[1])
        if not len(roots):
            raise IsoUnavailable(f"no square root of -1 in F_{spec.q}")
        return points_from_coords(spec, d, np.column_stack([np.arange(spec.q), mt[roots[0]]]))
    if kind == "subfield":
        if spec.n % 2:
            raise ConfigError("subfield needs an even extension degree n")
        h = spec.p ** (spec.n // 2)
        members = np.flatnonzero(pow_table(spec, h) == np.arange(spec.q))
        assert len(members) == h, "subfield enumeration went wrong"
        return points_from_coords(spec, d, np.stack(np.meshgrid(*[members] * d), axis=-1))
    if kind == "sphere":
        if poly is None:
            raise ConfigError("sphere:<t> needs an active polynomial (--poly)")
        try:
            t = int(rest)
        except ValueError as exc:
            raise ConfigError(f"bad sphere spec {text!r}") from exc
        return variety(poly, t)
    if kind == "file":
        path = Path(rest)
        if not path.is_file():
            raise ConfigError(f"point file {path} does not exist")
        pts = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                pts.append(_parse_coords(line, d, spec.q))
        if not pts:
            raise ConfigError(f"point file {path} holds no points")
        return points_from_coords(spec, d, pts)
    raise ConfigError(f"unknown set specification {text!r}")


def build_pair(
    cfg: ExperimentConfig,
    spec: FieldSpec,
    d: int,
    poly: Polynomial | None,
    trial: int,
    roles: tuple[str, str] = ("E", "F"),
) -> tuple[PointSet, PointSet]:
    """The sets --set<role> of both roles; the second may be 'same'."""
    names = ["set" + role for role in roles]
    require(cfg, *names)
    first, second = (getattr(cfg, name) for name in names)
    E = build_set(first, spec, d, poly=poly, seed=cfg.seed, role=roles[0], trial=trial)
    if second == "same":
        return E, E
    return E, build_set(second, spec, d, poly=poly, seed=cfg.seed, role=roles[1], trial=trial)


# ---------------------------------------------------------------------------
# Output plumbing.

_TRIAL_COLUMNS = ("trial", "seed", "size_E", "size_F", "pair_ratio")
SCAN_COLUMNS = _TRIAL_COLUMNS + ("delta_size", "delta_ratio", "falconer", "erdos", "missing_t")
ScanRow = namedtuple("ScanRow", SCAN_COLUMNS)


def _to_builtin(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def summary_json(summary: dict) -> str:
    """The summary as written to <out>.json, or printed without --out."""
    return json.dumps(summary, indent=2, sort_keys=True, default=_to_builtin)


def output_base(out: str) -> str:
    """BASE of --out BASE, which may end in .csv or .json."""
    return out.removesuffix(".csv").removesuffix(".json")


@dataclass(frozen=True)
class Table:
    """The rows of <out>.csv, held as columns.  `shared` maps the leading
    column names to the one value every row repeats; `columns` maps the
    other names, at least one, to one value per row each, as a sequence or
    a 1-d array.  len() is the number of rows."""

    shared: dict
    columns: dict

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


_EMIT_BLOCK = 1 << 16  # rows joined into one string per write


def _csv_cells(values) -> list[str]:
    """Each value as csv.writer writes it as one field of a longer row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, None))
        cells.append(buf.getvalue()[:-2])  # drop the empty field's "," and "\n"
    return cells


def _column_cells(values, end: str):
    """A function (lo, hi) -> the CSV cells of rows lo..hi-1 of a column,
    each followed by `end`, as csv.writer formats them: str for ints and
    repr for floats, neither needing quotes.  An int64 array whose range is
    no longer than it gathers from one cell per int of the range.  Another
    int64 or float64 array formats each distinct value of a block of rows
    once, by bit pattern (so -0.0 stays apart from 0.0), and gathers; a
    block at a time, no index of the whole column is held.  Any other
    column formats every value through csv.writer."""
    if not (isinstance(values, np.ndarray) and values.dtype in (np.int64, np.float64)):
        text = [cell + end for cell in _csv_cells(values)]
        return lambda lo, hi: text[lo:hi]
    # The range gather skips np.unique's sort of every block: the phase
    # Table at F_101^2 (s and m short-range) wrote in 0.23 s with it against
    # 0.33 s without (medians of 20 in-process writes, 2-core host).
    if values.dtype == np.int64 and len(values):
        base = int(values.min())
        span = int(values.max()) - base + 1
        if span <= len(values):
            table = np.array([str(v) + end for v in range(base, base + span)], dtype=object)
            return lambda lo, hi: table[values[lo:hi] - base].tolist()
    key = values.view(np.int64)

    def cells(lo, hi):
        distinct, index = np.unique(key[lo:hi], return_inverse=True)
        text = [repr(v) + end for v in distinct.view(values.dtype).tolist()]
        return np.array(text, dtype=object)[index].tolist()

    return cells


def _write_table(fh, table: Table):
    """What csv.writer(fh, lineterminator="\n") writes for the header and
    the rows of `table`, built a block of rows at a time from the cells of
    each column: the shared values are formatted once, each column's
    distinct values once, and a row is a gather from those cells."""
    csv.writer(fh, lineterminator="\n").writerow([*table.shared, *table.columns])
    ends = [","] * (len(table.columns) - 1) + ["\n"]
    pieces = [_column_cells(col, end) for col, end in zip(table.columns.values(), ends)]
    if table.shared:
        lead = ",".join(_csv_cells(table.shared.values())) + ","
        pieces.insert(0, lambda lo, hi: [lead] * (hi - lo))
    k, n = len(pieces), len(table)
    for lo in range(0, n, _EMIT_BLOCK):
        hi = min(lo + _EMIT_BLOCK, n)
        parts = [None] * ((hi - lo) * k)
        for j, cells in enumerate(pieces):
            parts[j::k] = cells(lo, hi)
        fh.write("".join(parts))


def _table(cfg: ExperimentConfig, q: int, columns: dict) -> Table:
    """A Table of `columns` led by the q, d and poly columns every CSV
    starts with."""
    return Table({"q": q, "d": cfg.d, "poly": cfg.poly}, columns)


def _columns(names, rows) -> dict:
    """The values of the row tuples `rows` as columns `names`."""
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def emit(
    out: str | None,
    summary: dict,
    *,
    rows: Table | None = None,
    deterministic: bool = False,
) -> dict:
    """Write <out>.csv (when rows exist) and <out>.json; or return the
    summary for stdout when no output path was given.  The CSV holds the
    header and rows of the Table `rows`, byte for byte as csv.writer
    writes them; summary["rows_written"] is len(rows)."""
    summary = dict(summary)
    if not deterministic:
        summary["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if out is None:
        return summary
    base = output_base(out)
    try:
        Path(base).parent.mkdir(parents=True, exist_ok=True)
        if rows is not None:
            with open(base + ".csv", "w", encoding="utf-8", newline="") as fh:
                if not deterministic:
                    fh.write(f"# generated {summary['generated']}\n")
                _write_table(fh, rows)
            summary["rows_written"] = len(rows)
        with open(base + ".json", "w", encoding="utf-8") as fh:
            fh.write(summary_json(summary) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {base}: {exc}") from exc
    return summary


# ---------------------------------------------------------------------------
# Runners.  Each returns (exit_code, summary, rows), rows a Table or None;
# `run` adds the summary's "command" key.

_CHECK_BLOCK_ENTRIES = 1 << 14  # of a q x q check that field-check holds at once


def _row_blocks(start: int, stop: int, q: int) -> list[slice]:
    """Rows start..stop-1 of a q x q check, in blocks of _CHECK_BLOCK_ENTRIES."""
    rows = max(1, _CHECK_BLOCK_ENTRIES // q)
    return [slice(r, min(r + rows, stop)) for r in range(start, stop, rows)]


def _schoolbook_product(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Digit rows of a*b, row by row, for (k, n) base-p digit rows a and b:
    the product polynomial, reduced by the monic modulus from its top term
    down over the integers, then mod p.  No entry passes n * p^(n+1), which
    the table rule keeps far below 2^63."""
    p, n = spec.p, spec.n
    prod = np.zeros((len(a), 2 * n - 1), dtype=np.int64)
    for i in range(n):
        prod[:, i : i + n] += a[:, i : i + 1] * b
    for k in range(2 * n - 2, n - 1, -1):  # c x^k = c x^(k-n) (x^n - modulus)
        prod[:, k - n : k] -= prod[:, k : k + 1] * np.array(spec.modulus[:n])
    return prod[:, :n] % p


def _schoolbook_power(spec: FieldSpec, a: np.ndarray, e: int) -> np.ndarray:
    """Digit rows of a^e, row by row, by squaring (_schoolbook_product)."""
    acc = np.zeros_like(a)
    acc[:, 0] = 1
    while e:
        if e & 1:
            acc = _schoolbook_product(spec, acc, a)
        e >>= 1
        if e:
            a = _schoolbook_product(spec, a, a)
    return acc


def _reference_traces_and_inverses(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """Tr(a) for every encoding a, and a^(q-2) = 1/a for a = 1..q-1, by
    schoolbook arithmetic on the digit rows of all q elements at once: the
    trace sums the Frobenius powers a, a^p, ..., a^(p^(n-1)).  Neither the
    tables nor log/antilog are read, so field-check compares the tables
    with arithmetic of its own; the scalar FieldSpec methods give the same
    integers (tests)."""
    q, p, n = spec.q, spec.p, spec.n
    places = p ** np.arange(n, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // places % p
    traces, frobenius = digits, digits
    for _ in range(n - 1):
        frobenius = _schoolbook_power(spec, frobenius, p)
        traces = (traces + frobenius) % p
    # a trace outside F_p encodes as p or more, which no trace_table entry is
    return traces @ places, _schoolbook_power(spec, digits[1:], q - 2) @ places


def run_field_check(cfg: ExperimentConfig):
    """Every pair of the tables against traces and inverses of its own
    (_reference_traces_and_inverses), a block of rows at a time: beyond the
    add and mul tables, the check holds O(q) memory plus one block."""
    spec = cfg.resolve_field()
    q, p = spec.q, spec.p
    table = spec.char_table
    tr, inv_ref = _reference_traces_and_inverses(spec)
    unit_err = float(np.max(np.abs(np.abs(table) - 1.0)))

    at, mt = add_table(spec), mul_table(spec)
    mult_err = max(
        float(np.max(np.abs(np.multiply.outer(table[b], table) - table[at[b]])))
        for b in _row_blocks(0, q, q)
    )
    trace_ok = (
        np.array_equal(spec.trace_table, tr)
        and all(np.all(tr[at[b]] == (tr[b, None] + tr) % p) for b in _row_blocks(0, q, q))
        and all(
            np.all(tr[mt[b]] == np.arange(b.start, b.stop)[:, None] * tr % p)
            for b in _row_blocks(0, p, q)
        )
    )
    orth_err = max(
        float(np.max(np.abs(table[mt[b]].sum(axis=1)))) for b in _row_blocks(1, q, q)
    )
    inv_law = mt[np.arange(1, q), inv_ref] == spec.element(1)
    inverse_ok = bool(np.all(pow_table(spec, q - 2)[1:] == inv_ref) and np.all(inv_law))

    checks = {
        "char_unit_modulus": {"error": unit_err, "pass": unit_err < 1e-12},
        "char_multiplicative": {"error": mult_err, "pass": mult_err < 1e-12},
        "char_orthogonality": {"error": orth_err, "pass": orth_err < 1e-9 * q},
        "trace_linear": {"pass": trace_ok},
        "inverse_law": {"pass": inverse_ok},
    }
    ok = all(c["pass"] for c in checks.values())
    summary = {
        "q": q,
        "p": spec.p,
        "n": spec.n,
        "modulus": list(spec.modulus) if spec.modulus else None,
        "checks": checks,
        "pass": ok,
    }
    return (0 if ok else 4), summary, None


def _random_grid(spec: FieldSpec, d: int, rng: SplitMix64) -> ComplexGrid:
    # entries bounded by modulus 1 so the residual tolerances apply
    n = spec.q**d
    re = (rng.next_block(n) >> np.uint64(11)) * 2.0**-53  # n rng.unit() draws
    im = (rng.next_block(n) >> np.uint64(11)) * 2.0**-53
    scale = 1.0 / math.sqrt(2.0)
    return ComplexGrid(spec, d, ((2 * re - 1) + 1j * (2 * im - 1)) * scale)


# Peak bytes of run_fourier_check, under tracemalloc: per point of F_q^d,
# two random grids, their transforms and the round-trip and linearity
# grids (128.1-128.7 B at q^d = 1e4-3e4, q = 7..101, d = 2..5), plus 1 MiB
# for the fixed costs that show on small grids (155 B at q = 1009, d = 1).
_FOURIER_CHECK_POINT_BYTES = 144


def run_fourier_check(cfg: ExperimentConfig):
    spec = cfg.resolve_field()
    d = cfg.d
    q = spec.q
    points = q**d
    need = points * _FOURIER_CHECK_POINT_BYTES + (1 << 20)
    _require_with_kernel(spec, need, f"fourier-check over F_{q}^{d} holds grids of {points} points")
    grids = cfg.trials
    rng = SplitMix64(derive_seed(cfg.seed, 0xF0))
    worst_round, worst_plan, worst_lin = 0.0, 0.0, 0.0
    for _ in range(grids):
        f = _random_grid(spec, d, rng)
        g = _random_grid(spec, d, rng)
        f_hat = fourier_transform(f)
        back = inverse_transform(f_hat)
        worst_round = max(worst_round, float(np.max(np.abs(back.values - f.values))))
        worst_plan = max(worst_plan, _energy_residual(f, f_hat))
        lhs = fourier_transform(ComplexGrid(spec, d, 2.0 * f.values + 0.5j * g.values))
        rhs = 2.0 * f_hat.values + 0.5j * fourier_transform(g).values
        worst_lin = max(worst_lin, float(np.max(np.abs(lhs.values - rhs))))
    tol_round = 1e-9 * q ** (d / 2)
    tol_grid = 1e-9 * q**d
    ok = worst_round < tol_round and worst_plan < tol_grid and worst_lin < tol_grid
    summary = {
        "q": q,
        "d": d,
        "grids": grids,
        "max_roundtrip_error": worst_round,
        "max_energy_residual": worst_plan,
        "max_linearity_error": worst_lin,
        "tolerances": {"roundtrip": tol_round, "grid": tol_grid},
        "pass": ok,
    }
    return (0 if ok else 4), summary, None


DECAY_COLUMNS = tuple(f.name for f in fields(DecayEntry))

# Peak bytes of run_decay and emit, under tracemalloc: per point of F_q^d,
# the three grids _fiber_spectra shares across fibers and the magnitudes
# of _fiber_peaks, with no value grid of separable P (56 B; 56.1-57.6 B at
# 1.0e4-2.3e5 points, q = 31..211, d = 2..3).  The column ranges that run
# on threads of their own each write a slice of the same grids and hold a
# slice of the magnitudes, so the split adds nothing a point.  Per t, its
# DecayEntry, row and CSV cells (300-830 B at q = 101..1009, d = 1); and
# the open CSV file's buffer (~140 KB, the file system's block size).
_DECAY_POINT_BYTES = 56
_DECAY_T_BYTES = 1024
_DECAY_FIXED_BYTES = 1 << 20


def run_decay(cfg: ExperimentConfig):
    spec, P = _field_and_poly(cfg)
    q, points = spec.q, spec.q**cfg.d
    need = points * _DECAY_POINT_BYTES + q * _DECAY_T_BYTES + _DECAY_FIXED_BYTES
    _require_with_kernel(spec, need, f"decay over F_{q}^{cfg.d} holds grids of {points} points")
    entries = decay_spectrum(P, cfg.kappa_sharp, cfg.kappa_fallback)
    report = split_fibers(
        P, [e.variety_size for e in entries], [e.classification for e in entries]
    )
    rows = [astuple(e) for e in entries if cfg.t is None or e.t == cfg.t % spec.q]
    nonzero = [e for e in entries if e.t != 0]
    summary = {
        "q": spec.q,
        "d": cfg.d,
        "poly": cfg.poly,
        "degree": P.degree,
        "kind": P.kind,
        "kappa_sharp": cfg.kappa_sharp,
        "kappa_fallback": cfg.kappa_fallback,
        "T": sorted(report.T),
        "A": sorted(report.A),
        "size_band": list(report.band),
        "size_hypothesis_droppable": report.size_hypothesis_droppable,
        "max_c_sharp_nonzero_t": max((e.c_sharp for e in nonzero), default=0.0),
        "c_fallback_at_zero": entries[0].c_fallback,
        "characteristic_divides_exponent": characteristic_divides_exponent(P),
    }
    return 0, summary, _table(cfg, spec.q, _columns(DECAY_COLUMNS, rows))


def run_weil(cfg: ExperimentConfig):
    spec, f = _field_and_poly(cfg)
    if cfg.d != 1:
        raise ConfigError("weil needs a univariate polynomial (--d 1)")
    res = weil_sum(f)
    summary = {
        "q": spec.q,
        "poly": cfg.poly,
        "degree": f.degree,
        "value": res.value,
        "abs_value": abs(res.value),
        "bound": res.bound,
        "ok": res.ok,
        "hypothesis_ok": res.hypothesis_ok,
    }
    return 0, summary, None


# Peak bytes of run_phase and emit, under tracemalloc: per (s, m) entry,
# the table or its four CSV columns (the factored table peaks at ~32 B,
# while its real and imaginary parts are written into it, and is dropped
# before emission; the columns hold 32 B), plus the _EMIT_BLOCK rows of
# cells being joined (~140 B a row with a short poly): 43-47 B at ~1e6
# entries, q = 101, d = 2 and q = 31, d = 3.  Summed, they cover every
# measured peak, 43-184 B an entry at q = 17..101, d = 2, 3.  Each row's
# text repeats the poly, once in the joined block and once more in the
# bytes written: 2 B a character a row, measured at polys of 9-476
# characters, q = 61, d = 2 and q = 19, d = 3.  The blocks that the
# table's workers gather come on top, one a column range
# (varieties._phase_gather_bytes), so the need grows with the CPUs used.
_PHASE_ENTRY_BYTES = 64
_PHASE_EMIT_BYTES = 12 << 20


def run_phase(cfg: ExperimentConfig):
    spec, P = _field_and_poly(cfg)
    q, d = spec.q, cfg.d
    n = q**d
    sums = (q - 1) * n
    need = sums * _PHASE_ENTRY_BYTES + _PHASE_EMIT_BYTES + 2 * _EMIT_BLOCK * len(cfg.poly)
    need += _phase_gather_bytes(P)
    # only the check of a factored table, for diagonal P, builds the kernel
    _require_with_kernel(spec, need, f"phase over F_{q}^{d} holds {sums} sums", P.kind == DIAGONAL)
    table = _phase_table(P)
    agreement = _factored_table_error(P, table)  # None unless the table is factored
    mag = np.hypot(table.real, table.imag).ravel()
    del table  # emission needs only the magnitudes
    ratio = mag / float(q) ** (d / 2)
    best = int(np.argmax(mag))  # the first maximum in row order
    s_best, m_best = divmod(best, n)
    summary = {
        "q": q,
        "d": d,
        "poly": cfg.poly,
        "kind": P.kind,
        "max_abs": float(mag[best]),
        "max_ratio": float(ratio[best]),
        "argmax_s": s_best + 1,
        "argmax_m": m_best,
        "factored_vs_direct_max_error": agreement,
    }
    columns = {
        "s": np.repeat(np.arange(1, q), n),
        "m": np.tile(np.arange(n), q - 1),
        "abs_sum": mag,
        "ratio": ratio,
    }
    return 0, summary, _table(cfg, q, columns)


def _trial_values(cfg, q: int, trial: int, E: PointSet, F: PointSet) -> tuple:
    """The _TRIAL_COLUMNS values of one trial's row; trial k reports seed + k."""
    pair_ratio = E.size * F.size / float(q) ** (cfg.d + 1)
    return (trial, cfg.seed + trial, E.size, F.size, pair_ratio)


def _scan_row(cfg, spec, P, trial, E, F, report, hist: CountingHistogram) -> ScanRow:
    """One scan/distance row; both verdicts come from the trial's histogram."""
    q, d = spec.q, P.d
    delta = hist.support()
    pair_product = E.size * F.size
    falc = _falconer_verdict(q, d, pair_product, delta, report.T, cfg.C)
    erd = _erdos_verdict(q, d, pair_product, len(delta), report.A, cfg.C, cfg.r_min)
    return ScanRow(
        *_trial_values(cfg, q, trial, E, F),
        delta_size=len(delta),
        delta_ratio=len(delta) / q,
        falconer=falc.status,
        erdos=erd.status,
        missing_t=";".join(str(t) for t in falc.missing),
    )


# Peak bytes of distance, scan and pinned, under tracemalloc: per point of
# F_q^d, E and F as full grids, then the exceptional set's decay grids
# (56 B), counting's convolution on half the spectrum (a real grid, E's and
# F's half spectra, the inverse's scratch and P's value grid: 40.1-57.7 B
# with the grid built cold at F_101^2, F_211^2, F_31^3, F_61^3, F_16^3 and
# F_9^4, E = F_q^d, F every third point), or the pinned convolution (E's
# spectrum, the pack of a pair of fibers, the fiber spectra's table and
# two grids, in which the inverse passes and their rounding run, and a
# mark a point; no value grid of separable P): run_pinned 106.0-113.4 B
# at F_211^2, F_31^3, F_47^3 and F_61^3 for sum x_j^2 and at F_47^3 for a
# P that is not diagonal (126.2 B at F_101^2, where ~70 KB of fixed cost
# shows), distance 56.5-62.2 B at F_31^3 and F_101^2; plus one block of
# the pair kernel, which is most of the peak at d = 1.
_CONVOLUTION_POINT_BYTES = 128


def _require_convolution(spec: FieldSpec, d: int, command: str, kernel: bool = True):
    """Refuse a distance, scan or pinned request whose decay grids,
    difference convolution or pinned convolution cannot fit, at
    _CONVOLUTION_POINT_BYTES a point of F_q^d and one pair block, beside
    the field's tables and, where it builds one, the transform kernel."""
    q, points = spec.q, spec.q**d
    need = points * _CONVOLUTION_POINT_BYTES + _PAIR_BLOCK_BYTES
    holds = f"{command} over F_{q}^{d} holds grids of {points} points"
    _require_with_kernel(spec, need, holds, kernel)


def _builds_kernel(P: Polynomial) -> bool:
    """Whether distance or scan of P builds the transform kernel: at d = 1
    every count enumerates pairs, and the exceptional set of a diagonal
    quadratic P takes its closed form, so only other P transform there."""
    return P.d > 1 or not _diagonal_quadratic(P)


def run_distance(cfg: ExperimentConfig):
    spec, P = _field_and_poly(cfg)
    _require_convolution(spec, cfg.d, "distance", _builds_kernel(P))
    report = exceptional_set(P, cfg.kappa_sharp, cfg.kappa_fallback)
    rows = []
    deltas = []
    zero_flags = []
    for trial in range(cfg.trials):
        E, F = build_pair(cfg, spec, cfg.d, P, trial)
        hist = counting_function(P, E, F)
        rows.append(_scan_row(cfg, spec, P, trial, E, F, report, hist))
        deltas.append(rows[-1].delta_size)
        zero_flags.append(hist[0] > 0)
    summary = {
        "q": spec.q,
        "d": cfg.d,
        "poly": cfg.poly,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "T": sorted(report.T),
        "A": sorted(report.A),
        "delta_sizes": deltas,
        "zero_in_delta": zero_flags,
        "verdicts": {
            "falconer": sorted({r.falconer for r in rows}),
            "erdos": sorted({r.erdos for r in rows}),
        },
    }
    if cfg.trials == 1:
        summary["histogram"] = hist.counts.tolist()
    return 0, summary, _table(cfg, spec.q, _columns(SCAN_COLUMNS, rows))


PINNED_COLUMNS = _TRIAL_COLUMNS + ("fraction_large", "pinned")
PinnedRow = namedtuple("PinnedRow", PINNED_COLUMNS)
MIN_FRACTION = 0.5  # share of pins that must carry many distances for a pass


def run_pinned(cfg: ExperimentConfig):
    spec, P = _field_and_poly(cfg)
    q, d = spec.q, cfg.d
    _require_convolution(spec, d, "pinned", kernel=d > 1)  # pins at d = 1 enumerate pairs
    rows = []
    for trial in range(cfg.trials):
        E, F = build_pair(cfg, spec, d, P, trial)
        rep = pinned_distances(P, E, F, cfg.rho)
        hypothesis = E.size * F.size >= cfg.C * float(q) ** (d + 1)
        verdict = _verdict(hypothesis, rep.fraction_large >= MIN_FRACTION)
        rows.append(PinnedRow(*_trial_values(cfg, q, trial, E, F), rep.fraction_large, verdict))
    summary = {
        "q": q,
        "d": d,
        "poly": cfg.poly,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "rho": cfg.rho,
        "min_fraction": MIN_FRACTION,
        "fractions": [r.fraction_large for r in rows],
        "verdicts": sorted({r.pinned for r in rows}),
    }
    return 0, summary, _table(cfg, q, _columns(PINNED_COLUMNS, rows))


# Peak bytes of a lift's product experiment, under tracemalloc: per point
# of F_q^d, one phase row of P and its transform temporaries (~105 B,
# q = 2..11).  H's fiber sizes come from its parts, with no grid.
_PHASE_ROW_BYTES = 128


def run_lift(cfg: ExperimentConfig):
    spec, P = _field_and_poly(cfg)
    q, d = spec.q, cfg.d
    points = q ** (d + 1)
    product = bool(cfg.setE2 or cfg.setF2)
    # a lone set is refused, not dropped: --setE2/--setF2 need --setE and --setF too
    paired = bool(product or cfg.setE or cfg.setF)
    if paired:  # the distance sets of H may take a convolution over F_q^(d+1)
        holds = f"lift over F_{q}^{d + 1} holds {points} values"
        need = points * _CONVOLUTION_POINT_BYTES
        if product:
            holds += f" and phase rows of {q**d} sums"
            need += q**d * _PHASE_ROW_BYTES
        _require_with_kernel(spec, need, holds)
        E, F = build_pair(cfg, spec, d, P, 0)
    if product:
        E2, F2 = build_pair(cfg, spec, 1, P, 0, ("E2", "F2"))
    H = paraboloid_lift(P)
    fibers_ok = bool(np.all(_fiber_sizes(H) == q**d))
    summary = {
        "q": q,
        "d": d,
        "poly": cfg.poly,
        "lifted": H.text(),
        "fiber_size": q**d,
        "fibers_uniform": fibers_ok,
    }
    ok = fibers_ok
    if product:
        rep = product_set_experiment(P, E, E2, F, F2, C=cfg.C, rho=cfg.rho)
        summary["product"] = {k: v for k, v in vars(rep).items() if k not in ("q", "d", "poly")}
    elif paired:
        zero = points_from_coords(spec, 1, [[0]])
        base = distance_set(P, E, F)
        lifted = distance_set(H, product_set(E, zero), product_set(F, zero))
        match = base == lifted
        summary["restriction_matches"] = match
        ok = ok and match
    return (0 if ok else 4), summary, None


def run_scan(cfg: ExperimentConfig):
    spec, P = _field_and_poly(cfg)
    if not cfg.grid:
        raise ConfigError("scan needs --grid with target |E||F| products")
    _require_convolution(spec, cfg.d, "scan", _builds_kernel(P))
    report = exceptional_set(P, cfg.kappa_sharp, cfg.kappa_fallback)
    q, d = spec.q, cfg.d
    capacity = q**d
    rows = []
    groups = []  # rows of each grid point; targets may clamp to the same side
    for gi, target in enumerate(cfg.grid):
        side = min(capacity, math.isqrt(max(int(target) - 1, 0)) + 1)  # ceil(sqrt)
        group = []
        for trial in range(cfg.trials):
            sets = {}
            for role in ("E", "F"):
                rng = SplitMix64(derive_seed(cfg.seed, ROLE_SALTS[role], trial, gi))
                sets[role] = PointSet(spec, d, sample_indices(rng, capacity, side))
            E, F = sets["E"], sets["F"]
            hist = counting_function(P, E, F)
            group.append(_scan_row(cfg, spec, P, trial, E, F, report, hist))
        rows.extend(group)
        groups.append(group)
    first_all_pass = {
        theorem: next(
            (
                int(target)
                for target, group in zip(cfg.grid, groups)
                if all(getattr(r, theorem) == "pass" for r in group)
            ),
            None,
        )
        for theorem in ("falconer", "erdos")
    }
    summary = {
        "q": q,
        "d": d,
        "poly": cfg.poly,
        "grid": list(cfg.grid),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "T": sorted(report.T),
        "A": sorted(report.A),
        "first_grid_point_all_pass": first_all_pass,
    }
    return 0, summary, _table(cfg, q, _columns(SCAN_COLUMNS, rows))


RUNNERS = {
    "field-check": run_field_check,
    "fourier-check": run_fourier_check,
    "decay": run_decay,
    "weil": run_weil,
    "phase": run_phase,
    "distance": run_distance,
    "pinned": run_pinned,
    "lift": run_lift,
    "scan": run_scan,
}


def run(command: str, cfg: ExperimentConfig) -> tuple[int, dict]:
    """Execute one command and write its outputs; returns (exit, summary)."""
    code, summary, rows = RUNNERS[command](cfg)
    summary = emit(
        cfg.out, {"command": command, **summary}, rows=rows, deterministic=cfg.deterministic
    )
    return code, summary
