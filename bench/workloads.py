"""The benchmark's workloads: each is a fixed list of `ffdist` subcommands.

An op is one CLI invocation.  `{seed}` in an argument is replaced by the
benchmark's seed, which also feeds every `random:<count>` set spec that
has no seed of its own (through `--seed`).  Ops without `{seed}` produce
the same output at every seed, so the checker compares them against the
recorded reference on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Op:
    key: str  # unique within its workload; names the reference entry
    args: tuple[str, ...]  # subcommand first, `{seed}` where the seed goes

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def seeded(self) -> bool:
        return any("{seed}" in a for a in self.args)

    def argv(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.args]

    def flag(self, name: str) -> str | None:
        """Value of `--name` in the argv template, or None."""
        for i, a in enumerate(self.args[:-1]):
            if a == f"--{name}":
                return self.args[i + 1]
        return None

    def field_order(self) -> int:
        q = self.flag("q")
        if q is not None:
            return int(q)
        return int(self.flag("p")) ** int(self.flag("n") or 1)

    def trial_rows(self) -> int:
        """Rows a distance/scan op verifies: trials times grid points."""
        grid = self.flag("grid")
        points = len(grid.split(",")) if grid else 1
        return int(self.flag("trials") or 1) * points

    def scan_sides(self) -> list[int]:
        """Set side per grid target, as `scan` clamps it: ceil(sqrt(target))."""
        capacity = self.field_order() ** int(self.flag("d") or 1)
        return [
            min(capacity, math.isqrt(max(int(t) - 1, 0)) + 1)
            for t in self.flag("grid").split(",")
        ]


def _op(key: str, text: str) -> Op:
    return Op(key, tuple(text.split()))


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # Transforms and character sums, no pairs: fourier + varieties work.
    "spectra": (
        _op("decay-q61-d3", "decay --q 61 --d 3 --poly x1^2+x2^2+x3^2"),
        _op("phase-q31-d2", "phase --q 31 --d 2 --poly x1^2+x2^2+x1"),
        _op("phase-q23-d2-cubic", "phase --q 23 --d 2 --poly x1^3+x2^3"),
        _op("fourier-check-q101-d2", "fourier-check --q 101 --d 2 --trials 5 --seed {seed}"),
    ),
    # |E||F| >= q^(d+1): the pair kernel and counting dominate.
    "dense": (
        _op(
            "distance-q101-d2-all",
            "distance --q 101 --d 2 --poly x1^2+x2^2 --setE all --setF all",
        ),
        _op(
            "scan-q31-d3",
            "scan --q 31 --d 3 --poly x1^2+x2^2+x3^2 "
            "--grid 30000,900000,3000000,25000000 --trials 3 --seed {seed}",
        ),
        _op(
            "pinned-q71-d2-all",
            "pinned --q 71 --d 2 --poly x1^2+x2^2 --setE all --setF all",
        ),
    ),
    # Big ambient spaces and extension fields, small sets: per-element and
    # per-grid-point work (tables, sampling) outweighs pair work.
    "sparse": (
        _op(
            "pinned-q101-d3-random",
            "pinned --q 101 --d 3 --poly x1^2+x2^2+x3^2 "
            "--setE random:2000 --setF random:100 --trials 10 --seed {seed}",
        ),
        _op(
            "pinned-p5n4-d2-random",
            "pinned --p 5 --n 4 --d 2 --poly x1^2+x2^2 "
            "--setE random:2000 --setF random:100 --trials 5 --seed {seed}",
        ),
        _op(
            "scan-q101-d2",
            "scan --q 101 --d 2 --poly x1^2+x2^2 --grid 400,4000,40000 "
            "--trials 5 --seed {seed}",
        ),
        _op(
            "lift-q343-d1",
            "lift --q 343 --d 1 --poly x1^3 --setE random:40 --setF random:40 "
            "--seed {seed}",
        ),
        _op("field-check-q81", "field-check --q 81"),
    ),
}

# Millisecond-sized stand-ins with the same subcommands, for the
# benchmark's own tests.
SMOKE: dict[str, tuple[Op, ...]] = {
    "spectra": (
        _op("decay", "decay --q 7 --d 2 --poly x1^2+x2^2"),
        _op("phase", "phase --q 5 --d 2 --poly x1^2+x2^2+x1"),
        _op("fourier-check", "fourier-check --q 7 --d 2 --trials 2 --seed {seed}"),
    ),
    "dense": (
        _op("distance", "distance --q 7 --d 2 --poly x1^2+x2^2 --setE all --setF all"),
        _op("scan", "scan --q 5 --d 2 --poly x1^2+x2^2 --grid 20,200 --trials 2 --seed {seed}"),
        _op("pinned", "pinned --q 7 --d 2 --poly x1^2+x2^2 --setE all --setF all"),
    ),
    "sparse": (
        _op(
            "pinned",
            "pinned --p 3 --n 2 --d 2 --poly x1^2+x2^2 "
            "--setE random:30 --setF random:5 --trials 2 --seed {seed}",
        ),
        _op("lift", "lift --q 7 --d 1 --poly x1^3 --setE random:4 --setF random:4 --seed {seed}"),
        _op("field-check", "field-check --q 9"),
    ),
}
