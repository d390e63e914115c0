"""Check that two source trees give the CLI the same observable behaviour.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC

Each command below runs twice, as `python -m ffdist ARGS` with PYTHONPATH
set to OLD_SRC and then to NEW_SRC, each time in a fresh working directory
that holds only `points.txt` (a two-point file for `file:` set specs).  The
two runs must agree byte for byte in exit code, stdout, stderr and every
file left in the working directory.  One figure is masked first: a memory
refusal ends `... has X GiB free`, the memory free at that moment, so X
is replaced in both stderr texts (FREE_MEMORY); every other byte is
compared.  The commands are:

- every op of bench/workloads.py at seeds 1 and 2, and the commands in
  ORBIT_CASES and EDGE_CASES, with `--deterministic --out out`;
- the `ffdist` examples of README.md, with `--deterministic`;
- `--help` of the program and after each command name;
- the error cases in ERROR_CASES, with `--deterministic`.

The script prints each command whose runs differ, and what differs, and
exits 1 if any do.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)
# the free-memory figure of a refusal, which moves between runs on a busy host
FREE_MEMORY = re.compile(rb"has [0-9.]+ GiB free")
POINTS = "0,0\n1,2\n"
QUAD = "--q 7 --d 2 --poly x1^2+x2^2"
ERROR_CASES = (
    "not-a-command",
    "field-check --q abc",
    "field-check",
    "field-check --p 4",
    "field-check --p 2 --n 2 --modulus 1,0,1",
    "field-check --p 3 --n 2 --modulus 1,0,2",
    "distance --q 12 --d 2 --poly x1 --setE all --setF all",
    "decay --q 7 --d 2 --poly x0^2",
    "decay --q 7 --d 2",
    "decay --q 7 --d 2 --poly x1^2 --trials 0",
    f"distance {QUAD} --setE iso-line --setF same",
    f"distance {QUAD} --setE subfield --setF same",
    f"distance {QUAD} --setE all",
    f"distance {QUAD} --setE random:0 --setF all",
    f"distance {QUAD} --setE file:missing.txt --setF all",
    f"distance {QUAD} --setE file:points.txt --setF all",
    f"distance {QUAD} --setE all --setF all --C 0",
    f"scan {QUAD}",
    "weil --q 7 --d 2 --poly x1^2",
    "phase --q 101 --d 4 --poly x1^2+x2^2+x3^2+x4^2",
    # rejected with exit 2 since --q stopped ignoring the field options
    "field-check --q 9 --modulus 2,2,1",
    "field-check --q 9 --n 2",
    "weil --q 7 --p 5 --poly x1^3",
    # rejected with exit 2 since non-finite thresholds are refused
    f"distance {QUAD} --setE all --setF all --C nan",
    f"pinned {QUAD} --setE all --setF all --rho inf",
    f"distance {QUAD} --setE all --setF all --rmin nan",
    f"decay {QUAD} --kappa-sharp inf",
    f"decay {QUAD} --kappa-fallback nan",
    # rejected with exit 2 since an unwritable --out is a configuration error
    f"decay {QUAD} --out points.txt/decay",
    # rejected with exit 2 (not 1, numpy's allocation traceback) since a field
    # whose q x q tables cannot fit is refused; at this q a tree without the
    # check fails its table request at once instead of allocating
    "weil --q 1000003 --d 1 --poly x1^3+x1",
    "decay --q 1000003 --d 1 --poly x1^3",
    # rejected with exit 2 (not 1, numpy's allocation error) since a q^d value
    # grid that cannot fit is refused
    "decay --q 101 --d 5 --poly x1^2+x2^2",
    # rejected with exit 2 (not 0) since lift refuses a set without its partner
    "lift --q 7 --d 1 --poly x1^3 --setE all",
    # parse errors, each one `usage error:` line and exit 1
    "decay --q 7 --d 2 --poly x1^2 --bogus 1",
    "decay --q",
    "nope --q 7",
    "decay --q 7 --d 2 --poly x1^2 extra",
)


# Exceptional-set shapes no bench op reaches: more than two scaling cosets,
# extension fields, p dividing an exponent and non-diagonal polynomials,
# the last one with 961 columns, so its last pass runs in column ranges.
ORBIT_CASES = (
    "distance --q 27 --d 2 --poly x1^2+x2^2 --setE random:300 --setF random:300",
    "scan --q 31 --d 3 --poly x1^3+2*x2^2+x3^4 --grid 900,90000 --trials 2",
    "distance --q 125 --d 2 --poly x1^5+x2^2 --setE random:500 --setF random:500",
    "scan --q 31 --d 2 --poly x1^2+x2^2+x1 --grid 400,4000 --trials 2",
    "distance --q 97 --d 2 --poly x1^4+x2^4 --setE all --setF random:50",
    "distance --p 2 --n 4 --d 2 --poly x1^3+x2^3 --setE all --setF all",
    "distance --q 31 --d 3 --poly x1^2+x2^2+x3^2+x1 --setE random:900 --setF random:900",
)

# A decay constant exactly at kappa_sharp (every nonzero fiber over F_9,
# some of which read a few ulps above it), the pair kernel's add_table
# row gathers at a q where a q x q table takes 8 MB, phase's self-check
# above q^d = 4096, phase tables of an asymmetric diagonal (factored) and
# a general (direct) P at d = 3, whose axes a symmetric P would not tell
# apart, lift's product experiment, and decay spectra through the shared
# pass table at d = 4, over an extension field, for a separable P that is
# not diagonal, and at d = 1; fields past degree 4, among them the cubic
# distances of Iosevich-Koh in characteristic 2; and pinned distances on
# the pair kernel at the north-star size and over F_243 with |E| < q/3,
# where the kernel reads add_table pair by pair; and counting by the
# difference convolution over F_16^3, whose twelve base-2 digit axes the
# convolution once ran on; counting at d = 1 over all of F_1009 and in a
# scan whose sides fall below and above 0.45 q^2 pairs, where its route
# once turned on whether the kernel was built; and pinned distances on the
# convolution route, whose fiber spectra come from the shared pass table,
# for a separable P that is not diagonal, over F_16^3, and over all of
# F_211^2, whose 44521 pins are past a dict resize; and direct phase tables
# in many blocks within each column range (F_13^3, 76 blocks), over an
# extension field in one block (F_9^2), and with 128 to 256 columns, which
# once ran as one block on one worker and now run as two column ranges
# (F_13^2 and F_211^1); and the pair kernel's per-variable codes of
# separable P, in base d + 1 over F_64 (p = 2) and with two terms in x1
# over F_27, beside the flat indices it sums at d = 1 (F_4001); and the
# pinned convolution's pairs of fibers to an inverse, with spectra gathered
# from one fiber a scaling coset, over four cosets besides t = 0 (F_13^2,
# x1^3 + 2*x2^3) and over an extension field with mixed coefficients
# (F_25^2), beside exceptional sets in closed form over extension fields
# (F_27^3 and F_25^2); and counting on half the spectrum where nothing
# halves (p = 2, F_8^3, every m its own negative) and at d = 4 over an
# extension field (F_9^4).
EDGE_CASES = (
    "decay --q 9 --d 2 --poly 7*x2^5+5*x1^5 --kappa-sharp 2",
    "pinned --q 1021 --d 2 --poly x1^2+x2^2 --setE random:3000 --setF random:200 --seed 1",
    "phase --q 17 --d 3 --poly x1^2+x2^2+x3^2",
    "phase --q 13 --d 3 --poly 2*x1^2+x2^2+3*x3^3",
    "phase --q 7 --d 3 --poly x1^2+x2^2+x3^2+x1",
    "lift --q 13 --d 2 --poly x1^2+x2^2 --setE random:60 --setF random:60 "
    "--setE2 random:5 --setF2 random:5",
    "weil --q 13 --d 1 --poly x1^3+2*x1",
    "decay --q 13 --d 2 --poly x1^2+x2^2 --t 5",
    "distance --q 13 --d 2 --poly x1^2+x2^2 --setE iso-line --setF same",
    "distance --p 3 --n 2 --d 2 --poly x1^2+x2^2 --setE subfield --setF same",
    "distance --q 13 --d 2 --poly x1^2+x2^2 --setE sphere:1 --setF random:40 --trials 3",
    "pinned --q 13 --d 2 --poly x1^2+x2^2 --setE all --setF same",
    "fourier-check --p 2 --n 3 --d 2 --trials 2",
    "field-check --p 3 --n 2",
    "lift --q 11 --d 2 --poly x1^2+x2^2",
    "decay --q 13 --d 4 --poly x1^2+x2^2+x3^2+x4^2",
    "decay --p 2 --n 4 --d 3 --poly x1^3+x2^3+x3^3",
    "decay --q 25 --d 3 --poly x1^2+2*x2^2+x3^3+x1",
    "decay --q 101 --d 1 --poly x1^3+x1",
    "field-check --p 2 --n 5",
    "decay --p 2 --n 6 --d 3 --poly x1^3+x2^3+x3^3",
    "pinned --q 61 --d 3 --poly x1^2+x2^2+x3^2 --setE all --setF random:500",
    "pinned --p 3 --n 5 --d 2 --poly x1^2+x2^2 --setE random:60 --setF random:300 --trials 2",
    "distance --p 2 --n 4 --d 3 --poly x1^2+x2^2+x3^2 --setE random:700 --setF random:700 --seed 1",
    "distance --q 1009 --d 1 --poly x1^3 --setE all --setF all",
    "scan --q 1009 --d 1 --poly x1^3 --grid 300000,1018081 --trials 2",
    "pinned --q 31 --d 2 --poly x1^2+x2^2+x1 --setE all --setF all",
    "pinned --p 2 --n 4 --d 3 --poly x1^3+x2^3+x3^3 --setE all --setF random:500",
    "pinned --q 211 --d 2 --poly x1^2+x2^2 --setE all --setF all",
    "phase --q 13 --d 3 --poly x1^2+x2^2+x3^2+x1",
    "phase --p 3 --n 2 --d 2 --poly x1^2+x2^2+x1",
    "phase --q 13 --d 2 --poly x1^2+x2^2+x1",
    "phase --q 211 --d 1 --poly x1^3+2*x1",
    "pinned --p 2 --n 6 --d 3 --poly x1^3+x2^3+x3^2+x1 --setE random:300 --setF random:40",
    "distance --p 3 --n 3 --d 2 --poly 2*x1^4+x1+x2^2 --setE random:200 --setF random:50",
    "pinned --q 4001 --d 1 --poly x1^3+x1 --setE random:400 --setF random:200",
    "pinned --q 13 --d 2 --poly x1^3+2*x2^3 --setE all --setF all",
    "pinned --q 25 --d 2 --poly x1^2+3*x2^2 --setE all --setF all",
    "distance --q 27 --d 3 --poly x1^2+x2^2+2*x3^2 --setE all --setF all",
    "scan --q 25 --d 2 --poly x1^2+2*x2^2 --grid 400,40000 --trials 2",
    "distance --p 2 --n 3 --d 3 --poly x1^2+x2^2+x3^2 --setE all --setF all",
    "distance --p 3 --n 2 --d 4 --poly x1^2+x2^2+x3^2+x4^2 --setE random:3000 --setF random:3000",
)


def readme_examples() -> list[list[str]]:
    """The `ffdist ...` command lines of README.md, backslash continuations joined."""
    out, pending = [], ""
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if pending or line.startswith("ffdist "):
            pending += line.rstrip("\\").strip() + " "
            if not line.endswith("\\"):
                out.append(shlex.split(pending)[1:])
                pending = ""
    return out


def commands(subcommands) -> list[list[str]]:
    """Every command to compare, each once, in a fixed order."""
    cmds = {}
    for ops in WORKLOADS.values():
        for op in ops:
            for seed in SEEDS:
                argv = op.argv(seed) + ["--deterministic", "--out", "out"]
                cmds[tuple(argv)] = None
    for text in ORBIT_CASES + EDGE_CASES:
        cmds[tuple(text.split() + ["--deterministic", "--out", "out"])] = None
    for argv in readme_examples():
        cmds[tuple(argv + ["--deterministic"])] = None
    cmds[("--help",)] = None
    for name in subcommands:
        cmds[(name, "--help")] = None
    for text in ERROR_CASES:
        cmds[tuple(text.split() + ["--deterministic"])] = None
    return [list(c) for c in cmds]


def run_one(src: str, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, {relative path: bytes}) of one run."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "points.txt").write_text(POINTS, encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "ffdist", *argv], cwd=tmp, env=env, capture_output=True
        )
        files = {
            str(path.relative_to(tmp)): path.read_bytes()
            for path in sorted(Path(tmp).rglob("*"))
            if path.is_file()
        }
    return done.returncode, done.stdout, done.stderr, files


def masked(stderr: bytes) -> bytes:
    """stderr with each free-memory figure replaced by `_`."""
    return FREE_MEMORY.sub(b"has _ GiB free", stderr)


def differences(old: tuple, new: tuple) -> list[str]:
    """What differs between two run_one results."""
    out = []
    if old[0] != new[0]:
        out.append(f"exit {old[0]} != {new[0]}")
    if old[1] != new[1]:
        out.append("stdout")
    if masked(old[2]) != masked(new[2]):
        out.append("stderr")
    names = sorted(set(old[3]) | set(new[3]))
    out += [f"file {name}" for name in names if old[3].get(name) != new[3].get(name)]
    return out


def compare(old_src: str, new_src: str, cmds: list[list[str]]) -> list[tuple[str, list[str]]]:
    """(command, differences) for every command whose two runs differ."""

    def check(argv):
        return shlex.join(argv), differences(run_one(old_src, argv), run_one(new_src, argv))

    with ThreadPoolExecutor(max_workers=2) as pool:
        return [(cmd, diff) for cmd, diff in pool.map(check, cmds) if diff]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/same_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = (str(Path(a).resolve()) for a in args)
    sys.path.insert(0, new_src)
    from ffdist.harness import RUNNERS

    cmds = commands(RUNNERS)
    diffs = compare(old_src, new_src, cmds)
    for cmd, diff in diffs:
        print(f"differs: ffdist {cmd}: {', '.join(diff)}")
    print(f"{len(cmds)} commands, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
