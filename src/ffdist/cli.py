"""Command-line front end.

Exit codes: 0 success, 1 usage error; a package error exits with the code
its class carries (errors.py): 2 configuration error, 3 hypothesis
violation, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import FFDistError
from .harness import ExperimentConfig, output_base, run, summary_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


class UsageError(Exception):
    pass


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)  # the options every subcommand takes
    common.add_argument("--q", type=int, help="field order (prime power)")
    common.add_argument("--p", type=int, help="characteristic (with --n)")
    common.add_argument("--n", type=int, help="extension degree")
    common.add_argument(
        "--modulus",
        type=_int_list,
        help="modulus coefficients a0,a1,..,1 (constant first)",
    )
    common.add_argument("--d", type=int, help="ambient dimension")
    common.add_argument("--poly", help="polynomial text, e.g. 'x1^2+x2^2'")
    common.add_argument("--setE", help="set specification for E")
    common.add_argument("--setF", help="set specification for F, or 'same'")
    common.add_argument("--setE2", help="1-d set specification (product experiments)")
    common.add_argument("--setF2", help="1-d set specification (product experiments)")
    common.add_argument("--t", type=int, help="restrict reports to one t")
    common.add_argument("--seed", type=int, help="base seed (64-bit)")
    common.add_argument("--trials", type=int, help="independent trials")
    common.add_argument("--grid", type=_int_list, help="target |E||F| products")
    common.add_argument("--kappa-sharp", type=float)
    common.add_argument("--kappa-fallback", type=float)
    common.add_argument("--C", type=float)
    common.add_argument("--rho", type=float)
    common.add_argument("--rmin", dest="r_min", type=float)
    common.add_argument("--out", help="output base path; writes <out>.csv/<out>.json")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="suppress timestamps so identical runs are byte-identical",
    )
    common.set_defaults(**vars(ExperimentConfig()))  # the defaults live on the config
    parser = _Parser(
        prog="ffdist",
        description="Exact distance-set and character-sum experiments over F_q^d.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("field-check", "verify field arithmetic and character identities"),
        ("fourier-check", "round-trip and energy checks on random grids"),
        ("decay", "per-t fiber sizes and transform-decay constants"),
        ("weil", "one univariate character sum against its bound"),
        ("phase", "sweep sum_x chi(s*P(x) + m*x) over all s != 0, m"),
        ("distance", "distance set of two point sets, with verifier verdicts"),
        ("pinned", "per-pin distance counts and the large-pin fraction"),
        ("lift", "one-dimension-up lift: fiber sizes, restriction, products"),
        ("scan", "sweep target |E||F| products and locate verdict flips"),
    ):
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = config_from_args(args)
        code, summary = run(args.command, cfg)
    except FFDistError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    if cfg.out is None:
        print(summary_json(summary))
    else:
        base = output_base(cfg.out)
        extra = "" if "rows_written" not in summary else f" and {base}.csv"
        print(f"wrote {base}.json{extra}")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
