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
from .harness import RUNNERS, ExperimentConfig, output_base, run, summary_json


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


_COMMANDS = {  # the help line of each harness.RUNNERS command
    "field-check": "verify field arithmetic and character identities",
    "fourier-check": "round-trip and energy checks on random grids",
    "decay": "per-t fiber sizes and transform-decay constants",
    "weil": "one univariate character sum against its bound",
    "phase": "sweep sum_x chi(s*P(x) + m*x) over all s != 0, m",
    "distance": "distance set of two point sets, with verifier verdicts",
    "pinned": "per-pin distance counts and the large-pin fraction",
    "lift": "one-dimension-up lift: fiber sizes, restriction, products",
    "scan": "sweep target |E||F| products and locate verdict flips",
}


def build_parser() -> argparse.ArgumentParser:
    """One parser: every command takes the same options, before or after its name."""
    parser = _Parser(
        prog="ffdist",
        description="Exact distance-set and character-sum experiments over F_q^d.",
        epilog="commands:\n" + "\n".join(f"  {name:<15}{_COMMANDS[name]}" for name in RUNNERS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add = parser.add_argument
    add("command", choices=list(RUNNERS), metavar="command", help="one of the commands below")
    add("--q", type=int, help="field order (prime power)")
    add("--p", type=int, help="characteristic (with --n)")
    add("--n", type=int, help="extension degree")
    add("--modulus", type=_int_list, help="modulus coefficients a0,a1,..,1 (constant first)")
    add("--d", type=int, help="ambient dimension")
    add("--poly", help="polynomial text, e.g. 'x1^2+x2^2'")
    add("--setE", help="set specification for E")
    add("--setF", help="set specification for F, or 'same'")
    add("--setE2", help="1-d set specification (product experiments)")
    add("--setF2", help="1-d set specification (product experiments)")
    add("--t", type=int, help="restrict reports to one t")
    add("--seed", type=int, help="base seed (64-bit)")
    add("--trials", type=int, help="independent trials")
    add("--grid", type=_int_list, help="target |E||F| products")
    add("--kappa-sharp", type=float)
    add("--kappa-fallback", type=float)
    add("--C", type=float)
    add("--rho", type=float)
    add("--rmin", dest="r_min", type=float)
    add("--out", help="output base path; writes <out>.csv/<out>.json")
    add(
        "--deterministic",
        action="store_true",
        help="suppress timestamps so identical runs are byte-identical",
    )
    parser.set_defaults(**vars(ExperimentConfig()))  # the defaults live on the config
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
