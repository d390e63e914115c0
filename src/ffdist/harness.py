"""Experiment harness: set-specification grammar, seeded set generation,
experiment runners for every CLI subcommand, and CSV/JSON emission.

Determinism contract: (config, seed) fully determines every generated set
and every emitted number.  Random sets draw from splitmix64 streams keyed
by (seed, role, trial), so rerunning a command with identical flags and
--deterministic reproduces the output files byte for byte.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, IsoUnavailable
from .field import (
    FieldSpec,
    add_table,
    field_from_order,
    make_field,
    mul_table,
    neg_table,
    pow_table,
)
from .fourier import (
    ComplexGrid,
    fourier_transform,
    inverse_transform,
    plancherel_residual,
)
from .rng import SplitMix64, derive_seed, sample_indices
from .varieties import (
    DIAGONAL,
    PointSet,
    Polynomial,
    _phase_table,
    common_diagonal_exponent,
    decay_spectrum,
    exceptional_set,
    full_grid,
    parse_polynomial,
    points_from_coords,
    value_grid,
    variety,
    weil_sum,
)
from .distances import (
    CountingHistogram,
    _erdos_verdict,
    _falconer_verdict,
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
    min_fraction: float = 0.5  # share of pins that must carry many distances
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
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.q is None and self.p is None:
            raise ConfigError("either --q or --p (with optional --n) is required")

    def resolve_field(self) -> FieldSpec:
        self.validate()
        if self.p is not None:
            return make_field(self.p, self.n, self.modulus)
        return field_from_order(self.q)


def require(cfg: ExperimentConfig, *names: str):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required here")


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
) -> tuple[PointSet, PointSet]:
    require(cfg, "setE", "setF")
    E = build_set(cfg.setE, spec, d, poly=poly, seed=cfg.seed, role="E", trial=trial)
    if cfg.setF == "same":
        F = E
    else:
        F = build_set(cfg.setF, spec, d, poly=poly, seed=cfg.seed, role="F", trial=trial)
    return E, F


# ---------------------------------------------------------------------------
# Output plumbing.

SCAN_COLUMNS = (
    "q",
    "d",
    "poly",
    "trial",
    "seed",
    "size_E",
    "size_F",
    "pair_ratio",
    "delta_size",
    "delta_ratio",
    "falconer",
    "erdos",
    "missing_t",
)
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


def emit(
    out: str | None,
    summary: dict,
    *,
    rows: list[Sequence] | None = None,
    columns: tuple[str, ...] = SCAN_COLUMNS,
    deterministic: bool = False,
) -> dict:
    """Write <out>.csv (when rows exist) and <out>.json; or return the
    summary for stdout when no output path was given.  Each row holds its
    values in `columns` order."""
    if not deterministic:
        summary = dict(summary)
        summary["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if out is None:
        return summary
    base = out
    for suffix in (".csv", ".json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    Path(base).parent.mkdir(parents=True, exist_ok=True)
    if rows is not None:
        with open(base + ".csv", "w", encoding="utf-8", newline="") as fh:
            if not deterministic:
                fh.write(f"# generated {summary['generated']}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
        summary = dict(summary)
        summary["rows_written"] = len(rows)
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_to_builtin)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# Runners.  Each returns (exit_code, summary, rows, columns).

def run_field_check(cfg: ExperimentConfig):
    """Every pair of the tables against the scalar traces and the scalar inverse."""
    spec = cfg.resolve_field()
    q, p = spec.q, spec.p
    table, tr = spec.char_table, spec.trace_table
    unit_err = float(np.max(np.abs(np.abs(table) - 1.0)))

    at, mt = add_table(spec), mul_table(spec)
    mult = np.multiply.outer(table, table)
    mult -= table[at]
    mult_err = float(np.max(np.abs(mult)))
    trace_ok = bool(np.all(tr[at] == (tr[:, None] + tr) % p)) and bool(
        np.all(tr[mt[:p]] == np.arange(p)[:, None] * tr % p)
    )
    orth_err = float(np.max(np.abs(table[mt[1:]].sum(axis=1))))
    inv_ref = [spec.inv(a) for a in range(1, q)]
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
        "command": "field-check",
        "q": q,
        "p": spec.p,
        "n": spec.n,
        "modulus": list(spec.modulus) if spec.modulus else None,
        "checks": checks,
        "pass": ok,
    }
    return (0 if ok else 4), summary, None, None


def _random_grid(spec: FieldSpec, d: int, rng: SplitMix64) -> ComplexGrid:
    # entries bounded by modulus 1 so the residual tolerances apply
    n = spec.q**d
    re = (rng.next_block(n) >> np.uint64(11)) * 2.0**-53  # n rng.unit() draws
    im = (rng.next_block(n) >> np.uint64(11)) * 2.0**-53
    scale = 1.0 / math.sqrt(2.0)
    return ComplexGrid(spec, d, ((2 * re - 1) + 1j * (2 * im - 1)) * scale)


def run_fourier_check(cfg: ExperimentConfig):
    spec = cfg.resolve_field()
    d = cfg.d
    q = spec.q
    grids = max(cfg.trials, 1)
    rng = SplitMix64(derive_seed(cfg.seed, 0xF0))
    worst_round, worst_plan, worst_lin = 0.0, 0.0, 0.0
    for _ in range(grids):
        f = _random_grid(spec, d, rng)
        g = _random_grid(spec, d, rng)
        back = inverse_transform(fourier_transform(f))
        worst_round = max(worst_round, float(np.max(np.abs(back.values - f.values))))
        worst_plan = max(worst_plan, plancherel_residual(f))
        lhs = fourier_transform(ComplexGrid(spec, d, 2.0 * f.values + 0.5j * g.values))
        rhs = 2.0 * fourier_transform(f).values + 0.5j * fourier_transform(g).values
        worst_lin = max(worst_lin, float(np.max(np.abs(lhs.values - rhs))))
    tol_round = 1e-9 * q ** (d / 2)
    tol_grid = 1e-9 * q**d
    ok = worst_round < tol_round and worst_plan < tol_grid and worst_lin < tol_grid
    summary = {
        "command": "fourier-check",
        "q": q,
        "d": d,
        "grids": grids,
        "max_roundtrip_error": worst_round,
        "max_energy_residual": worst_plan,
        "max_linearity_error": worst_lin,
        "tolerances": {"roundtrip": tol_round, "grid": tol_grid},
        "pass": ok,
    }
    return (0 if ok else 4), summary, None, None


DECAY_COLUMNS = (
    "q",
    "d",
    "poly",
    "t",
    "variety_size",
    "max_nonzero_freq",
    "c_sharp",
    "c_fallback",
    "classification",
    "argmax_m",
)


def run_decay(cfg: ExperimentConfig):
    spec = cfg.resolve_field()
    require(cfg, "poly")
    P = parse_polynomial(cfg.poly, spec, cfg.d)
    entries = decay_spectrum(P, cfg.kappa_sharp, cfg.kappa_fallback)
    report = exceptional_set(
        P, cfg.kappa_sharp, cfg.kappa_fallback, entries=entries
    )
    rows = [
        (
            spec.q,
            cfg.d,
            cfg.poly,
            e.t,
            e.variety_size,
            e.max_nonzero_freq,
            e.c_sharp,
            e.c_fallback,
            e.classification,
            e.argmax_m,
        )
        for e in entries
        if cfg.t is None or e.t == cfg.t % spec.q
    ]
    s = common_diagonal_exponent(P)
    nonzero = [e for e in entries if e.t != 0]
    summary = {
        "command": "decay",
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
        "characteristic_divides_exponent": (s is not None and s % spec.p == 0),
    }
    return 0, summary, rows, DECAY_COLUMNS


def run_weil(cfg: ExperimentConfig):
    spec = cfg.resolve_field()
    require(cfg, "poly")
    if cfg.d != 1:
        raise ConfigError("weil needs a univariate polynomial (--d 1)")
    f = parse_polynomial(cfg.poly, spec, 1)
    res = weil_sum(f)
    summary = {
        "command": "weil",
        "q": spec.q,
        "poly": cfg.poly,
        "degree": f.degree,
        "value": res.value,
        "abs_value": abs(res.value),
        "bound": res.bound,
        "ok": res.ok,
        "hypothesis_ok": res.hypothesis_ok,
    }
    return 0, summary, None, None


PHASE_COLUMNS = ("q", "d", "poly", "s", "m", "abs_sum", "ratio")
# Peak bytes run_phase and emit hold per (s, m) entry: the complex table,
# its magnitudes and the CSV rows (224-237 B measured with tracemalloc).
_PHASE_ENTRY_BYTES = 256


def run_phase(cfg: ExperimentConfig):
    spec = cfg.resolve_field()
    require(cfg, "poly")
    P = parse_polynomial(cfg.poly, spec, cfg.d)
    q, d = spec.q, cfg.d
    n = q**d
    need = (q - 1) * n * _PHASE_ENTRY_BYTES
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:  # refuse before any grid or table is built
        raise ConfigError(
            f"phase over F_{q}^{d} holds {(q - 1) * n} sums, about {need / 2**30:.1f} GiB, "
            f"but this machine has {have / 2**30:.1f} GiB"
        )
    table = _phase_table(P)
    agreement = 0.0 if P.kind == DIAGONAL else None  # diagonal: check factored vs direct
    if agreement is not None and n <= 4096:
        err = table - _phase_table(P, "direct")
        agreement = float(np.hypot(err.real, err.imag).max())
    mag = np.hypot(table.real, table.imag).ravel()
    scale = float(q) ** (d / 2)
    abs_sum, ratio = mag.tolist(), (mag / scale).tolist()
    s_col = np.repeat(np.arange(1, q), n).tolist()
    m_col = np.tile(np.arange(n), q - 1).tolist()
    rows = list(zip(repeat(q), repeat(d), repeat(cfg.poly), s_col, m_col, abs_sum, ratio))
    best = int(np.argmax(mag))  # the first maximum in row order
    summary = {
        "command": "phase",
        "q": q,
        "d": d,
        "poly": cfg.poly,
        "kind": P.kind,
        "max_abs": abs_sum[best],
        "max_ratio": ratio[best],
        "argmax_s": s_col[best],
        "argmax_m": m_col[best],
        "factored_vs_direct_max_error": agreement,
    }
    return 0, summary, rows, PHASE_COLUMNS


def _scan_row(cfg, spec, P, trial, seed, E, F, report, hist: CountingHistogram) -> ScanRow:
    """One scan/distance row; both verdicts come from the trial's histogram."""
    q, d = spec.q, P.d
    delta = hist.support()
    pair_product = E.size * F.size
    falc = _falconer_verdict(q, d, pair_product, delta, report.T, cfg.C)
    erd = _erdos_verdict(q, d, pair_product, len(delta), report.A, cfg.C, cfg.r_min)
    return ScanRow(
        q=q,
        d=d,
        poly=cfg.poly,
        trial=trial,
        seed=seed,
        size_E=E.size,
        size_F=F.size,
        pair_ratio=pair_product / float(q) ** (d + 1),
        delta_size=len(delta),
        delta_ratio=len(delta) / q,
        falconer=falc.status,
        erdos=erd.status,
        missing_t=";".join(str(t) for t in falc.missing),
    )


def run_distance(cfg: ExperimentConfig):
    spec = cfg.resolve_field()
    require(cfg, "poly")
    P = parse_polynomial(cfg.poly, spec, cfg.d)
    report = exceptional_set(P, cfg.kappa_sharp, cfg.kappa_fallback)
    rows = []
    deltas = []
    zero_flags = []
    for trial in range(cfg.trials):
        seed = cfg.seed + trial
        E, F = build_pair(cfg, spec, cfg.d, P, trial)
        hist = counting_function(P, E, F)
        rows.append(_scan_row(cfg, spec, P, trial, seed, E, F, report, hist))
        deltas.append(rows[-1].delta_size)
        zero_flags.append(hist[0] > 0)
    summary = {
        "command": "distance",
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
    return 0, summary, rows, SCAN_COLUMNS


PINNED_COLUMNS = (
    "q",
    "d",
    "poly",
    "trial",
    "seed",
    "size_E",
    "size_F",
    "pair_ratio",
    "fraction_large",
    "pinned",
)
PinnedRow = namedtuple("PinnedRow", PINNED_COLUMNS)


def run_pinned(cfg: ExperimentConfig):
    spec = cfg.resolve_field()
    require(cfg, "poly")
    P = parse_polynomial(cfg.poly, spec, cfg.d)
    q, d = spec.q, cfg.d
    rows = []
    for trial in range(cfg.trials):
        seed = cfg.seed + trial
        E, F = build_pair(cfg, spec, d, P, trial)
        rep = pinned_distances(P, E, F, cfg.rho)
        vacuous = E.size * F.size < cfg.C * float(q) ** (d + 1)
        verdict = (
            "vacuous"
            if vacuous
            else ("pass" if rep.fraction_large >= cfg.min_fraction else "fail")
        )
        rows.append(
            PinnedRow(
                q=q,
                d=d,
                poly=cfg.poly,
                trial=trial,
                seed=seed,
                size_E=E.size,
                size_F=F.size,
                pair_ratio=(E.size * F.size) / float(q) ** (d + 1),
                fraction_large=rep.fraction_large,
                pinned=verdict,
            )
        )
    summary = {
        "command": "pinned",
        "q": q,
        "d": d,
        "poly": cfg.poly,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "rho": cfg.rho,
        "min_fraction": cfg.min_fraction,
        "fractions": [r.fraction_large for r in rows],
        "verdicts": sorted({r.pinned for r in rows}),
    }
    return 0, summary, rows, PINNED_COLUMNS


def run_lift(cfg: ExperimentConfig):
    spec = cfg.resolve_field()
    require(cfg, "poly")
    P = parse_polynomial(cfg.poly, spec, cfg.d)
    H = paraboloid_lift(P)
    q, d = spec.q, cfg.d
    sizes = np.bincount(value_grid(H), minlength=q)
    fibers_ok = bool(np.all(sizes == q**d))
    summary = {
        "command": "lift",
        "q": q,
        "d": d,
        "poly": cfg.poly,
        "lifted": H.text(),
        "fiber_size": q**d,
        "fibers_uniform": fibers_ok,
    }
    ok = fibers_ok
    if cfg.setE and cfg.setF:
        E, F = build_pair(cfg, spec, d, P, 0)
        if cfg.setE2 or cfg.setF2:
            require(cfg, "setE2", "setF2")
            E2 = build_set(cfg.setE2, spec, 1, poly=P, seed=cfg.seed, role="E2", trial=0)
            if cfg.setF2 == "same":
                F2 = E2
            else:
                F2 = build_set(
                    cfg.setF2, spec, 1, poly=P, seed=cfg.seed, role="F2", trial=0
                )
            rep = product_set_experiment(P, E, E2, F, F2, C=cfg.C, rho=cfg.rho)
            summary["product"] = {
                k: v for k, v in vars(rep).items() if k not in ("q", "d", "poly")
            }
        else:
            zero = points_from_coords(spec, 1, [[0]])
            base = distance_set(P, E, F)
            lifted = distance_set(H, product_set(E, zero), product_set(F, zero))
            match = base == lifted
            summary["restriction_matches"] = match
            ok = ok and match
    return (0 if ok else 4), summary, None, None


def run_scan(cfg: ExperimentConfig):
    spec = cfg.resolve_field()
    require(cfg, "poly")
    if not cfg.grid:
        raise ConfigError("scan needs --grid with target |E||F| products")
    P = parse_polynomial(cfg.poly, spec, cfg.d)
    report = exceptional_set(P, cfg.kappa_sharp, cfg.kappa_fallback)
    q, d = spec.q, cfg.d
    capacity = q**d
    rows = []
    groups = []  # rows of each grid point; targets may clamp to the same side
    for gi, target in enumerate(cfg.grid):
        side = min(capacity, math.isqrt(max(int(target) - 1, 0)) + 1)  # ceil(sqrt)
        group = []
        for trial in range(cfg.trials):
            seed = cfg.seed + trial
            sets = {}
            for role in ("E", "F"):
                rng = SplitMix64(derive_seed(cfg.seed, ROLE_SALTS[role], trial, gi))
                sets[role] = PointSet(spec, d, sample_indices(rng, capacity, side))
            E, F = sets["E"], sets["F"]
            hist = counting_function(P, E, F)
            group.append(_scan_row(cfg, spec, P, trial, seed, E, F, report, hist))
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
        "command": "scan",
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
    return 0, summary, rows, SCAN_COLUMNS


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
    """Execute one subcommand and write its outputs; returns (exit, summary)."""
    code, summary, rows, columns = RUNNERS[command](cfg)
    summary = emit(
        cfg.out,
        summary,
        rows=rows,
        columns=columns or SCAN_COLUMNS,
        deterministic=cfg.deterministic,
    )
    return code, summary
