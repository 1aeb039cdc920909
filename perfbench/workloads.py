"""Seeded OPB inputs for the benchmark workloads.

Pure stdlib: the generators restate pbdd's analytic and random families
here so that pbdd itself only ever sees the OPB files written below.

Each workload has one fixed base instance.  The seed scrambles it, as SAT
competitions scramble instances: rows are shuffled, variables renamed and
a random half of them complemented (x := 1 - y, which normalization turns
back into a negative literal with the same coefficient).  A scramble
changes every byte of the input and output but no diagram, so sizes are
the same for every seed and timings from different seeds compare.  A
single input is small enough to repeat many times in one run; on a noisy
two-core machine the median of many short repetitions is steadier than a
few long ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# The seed picks one of this many scrambles (seed modulo FAMILY), so every
# run can be checked against a digest recorded at the seed commit.
FAMILY = 64

COMPARATORS = ("<=", ">=", "=", "<", ">")

Row = tuple[list[tuple[int, int]], str, int]  # (coefficient, variable) pairs, op, bound


def cardinality(n: int, k: int) -> Row:
    """x1 + ... + xn <= k."""
    return [(1, v) for v in range(1, n + 1)], "<=", k


def hosaka(n: int) -> Row:
    """Grid coefficients 2^(j-1) + 2^(2n+i-1); the diagram needs >= 2^n nodes."""
    side = 2 * n
    pairs = [
        ((1 << (j - 1)) + (1 << (2 * n + i - 1)), (i - 1) * side + j)
        for i in range(1, side + 1)
        for j in range(1, side + 1)
    ]
    return pairs, "<=", ((1 << (4 * n)) - 1) * n


def random_row(seed: int, n: int, max_coeff: int) -> Row:
    """pbdd's `random_constraint(seed, n, max_coeff, 0.5)`: bound half the sum."""
    rng = random.Random(seed)
    coefs = [rng.randint(1, max_coeff) for _ in range(n)]
    return [(a, v) for v, a in enumerate(coefs, 1)], "<=", sum(coefs) // 2


def many_small(seed: int, rows: int, nvars: int) -> list[Row]:
    """Short signed rows over a shared pool, all five comparators."""
    rng = random.Random(seed)
    out = []
    for _ in range(rows):
        k = rng.randint(3, 10)
        pairs = [(rng.choice((-1, 1)) * rng.randint(1, 20), v)
                 for v in rng.sample(range(1, nvars + 1), k)]
        third = sum(abs(c) for c, _ in pairs) // 3
        out.append((pairs, rng.choice(COMPARATORS), rng.randint(-third, third)))
    return out


def scramble(rows: list[Row], seed: int) -> str:
    """OPB text of `rows` with rows shuffled, variables renamed and half complemented."""
    rng = random.Random(seed)
    variables = sorted({v for pairs, _, _ in rows for _, v in pairs})
    names = dict(zip(variables, rng.sample(range(1, len(variables) + 1), len(variables))))
    flipped = {v for v in variables if rng.random() < 0.5}
    order = list(range(len(rows)))
    rng.shuffle(order)
    lines = []
    for i in order:
        pairs, op, bound = rows[i]
        terms = []
        for a, v in pairs:
            if v in flipped:  # a*x == a - a*y
                a, bound = -a, bound - a
            terms.append(f"{a:+d} x{names[v]}")
        lines.append(" ".join(terms) + f" {op} {bound} ;")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Encode:
    """One `pbdd encode` input: file name, base rows and pipeline."""

    name: str
    rows: list[Row]
    method: str


@dataclass(frozen=True)
class Verify:
    """One `pbdd verify` run and the verdict line it must print."""

    method: str
    max_n: int
    seeds: int

    def argv(self) -> list[str]:
        return ["verify", "--method", self.method,
                "--max-n", str(self.max_n), "--seeds", str(self.seeds)]

    def verdict(self) -> str:
        props = "consistency+GAC" if self.method in ("bdd1", "bdd3") else "consistency"
        return (f"checked {self.seeds} random constraints ({props}, "
                f"method {self.method}): 0 violation(s)")


@dataclass(frozen=True)
class Workload:
    encode: Encode
    verify: Verify


WORKLOADS = ("deep-bdd1", "many-small-bdd1", "bdd3-random")


def base(name: str) -> Workload:
    """The unscrambled inputs of workload `name`.

    Every workload reports every end-to-end metric, so each also times
    `pbdd verify` on its own pipeline: a full corpus up to n = 8 on
    deep-bdd1 and bdd3-random, where the check layer is measured, and a
    small one on many-small-bdd1.
    """
    if name == "deep-bdd1":
        return Workload(Encode("deep.opb", [cardinality(150, 75), hosaka(3)], "bdd1"),
                        Verify("bdd1", 8, 24))
    if name == "many-small-bdd1":
        return Workload(Encode("small.opb", many_small(0, 1500, 500), "bdd1"),
                        Verify("bdd1", 6, 12))
    if name == "bdd3-random":
        rows = [random_row(i, 16, 1000) for i in range(4)]
        return Workload(Encode("random.opb", rows, "bdd3"), Verify("bdd3", 8, 8))
    raise ValueError(f"unknown workload {name!r}")


def instance(seed: int) -> int:
    return seed % FAMILY


def write(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the scrambled OPB input for `seed` into `directory`."""
    path = directory / workload.encode.name
    path.write_text(scramble(workload.encode.rows, instance(seed)), encoding="utf-8")
    return path
