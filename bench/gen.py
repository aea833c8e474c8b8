"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed, so the same seed always
yields byte-identical inputs. Nothing here imports varlab: the program only
ever receives what these functions produce.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# 6,000 rows keep one `varlab report` process near 1.5 s, so a run holds
# a dozen of them and their median; 20,000-row processes took 5-7 s, and
# 2-3 of them per run left the run-to-run spread at 16% on a shared host.
CSV_ROWS = 6_000
# Column scales in cents. A shared Pareto factor makes the columns dependent
# without being comonotonic; per-column lognormal noise and whole-cent
# rounding leave several hundred distinct values per column.
CSV_SCALES = (120, 180, 260)

SIM_TRIALS = 1_000
SIM_MAX_N = 4
# At most 4 atoms per marginal (the CLI default is 8). With 8 atoms a single
# 4-dimensional coupling can hold 4,096 support points and cost ~70x the mean
# trial, so a few thousand trials differ in total cost by ~7% from seed to
# seed; with 4 atoms the grid is at most 256 points and the spread is ~2%.
SIM_MAX_ATOMS = 4

# Instances built in the crosscheck set-up; later segments build their own.
CROSS_COUNT = 3_000
CROSS_MAX_N = 4
CROSS_MAX_ATOMS = SIM_MAX_ATOMS
CROSS_KINDS = ("comonotonic", "coupling")


def csv_rows(seed: int, count: int = CSV_ROWS) -> list[tuple[int, ...]]:
    """Loss rows in whole cents: heavy-tailed, dependent, not comonotonic."""
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        shared = rng.paretovariate(2.5)
        rows.append(
            tuple(int(shared * rng.lognormvariate(0.0, 0.6) * s) for s in CSV_SCALES)
        )
    return rows


def cents(value: int) -> str:
    return f"{value // 100}.{value % 100:02d}"


def csv_text(rows: list[tuple[int, ...]]) -> str:
    """The CSV the program reads: a header row, then one loss column per field."""
    header = ",".join(f"loss_{i + 1}" for i in range(len(rows[0])))
    return header + "\n" + "".join(",".join(map(cents, r)) + "\n" for r in rows)


def expected_report(rows: list[tuple[int, ...]]) -> dict:
    """What a correct `varlab report` on these rows must print, in whole cents.

    "marginals" holds (distinct values, exact mean in currency units) per
    column. "columns" holds each column's values sorted and "sums" the row
    sums sorted, from which checks.py reads exact empirical quantiles.
    """
    columns = [sorted(c) for c in zip(*rows)]
    return {
        "marginals": [(len(set(c)), Fraction(sum(c), 100 * len(c))) for c in columns],
        "columns": columns,
        "sums": sorted(map(sum, rows)),
    }


def csv_properties(rows: list[tuple[int, ...]]) -> dict:
    return {
        "rows": len(rows),
        "columns": len(rows[0]),
        "distinct_points": len(set(rows)),
        "atoms_per_marginal": [len(set(c)) for c in zip(*rows)],
        "distinct_sums": len({sum(r) for r in rows}),
    }


def simulate_seeds(seed: int):
    """Endless stream of seeds for successive `varlab simulate` invocations."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(31)


def crosscheck_specs(seed: int):
    """Endless stream of (kind, n, generator seed), one per instance.

    Seeds are drawn like the acceptance suite draws them, but kind and
    dimension rotate in equal shares instead of being drawn, so the cost mix
    of every 8 consecutive instances does not depend on the seed.
    """
    rng = random.Random(seed)
    for i in itertools.count():
        yield (
            CROSS_KINDS[i % len(CROSS_KINDS)],
            1 + (i // len(CROSS_KINDS)) % CROSS_MAX_N,
            rng.getrandbits(48),
        )
