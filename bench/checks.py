"""Correctness checks on the program's outputs.

Each check returns a list of error strings; an empty list means the output
is correct. They hold for every seed, so a non-empty list is a failure of
the program, never of the input.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def _json(stdout: bytes, errors: list[str]):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        errors.append(f"stdout is not JSON: {exc}")
        return None


def check_version(code: int, stdout: bytes) -> list[str]:
    errors = [] if code == 0 else [f"exit code {code}"]
    if not stdout.startswith(b"varlab "):
        errors.append(f"unexpected --version output {stdout[:40]!r}")
    return errors


def _quantile(sorted_cents: list[int], alpha: Fraction) -> Fraction:
    """Left-continuous empirical quantile, inf{x : F(x) >= alpha}, in currency units."""
    return Fraction(sorted_cents[math.ceil(alpha * len(sorted_cents)) - 1], 100)


def _check_var_row(row: dict, expected: dict) -> list[str]:
    """One VaR table row against the exact quantiles of the generated rows."""
    alpha = Fraction(row["alpha"])
    if not 0 < alpha <= 1:
        return [f"alpha {alpha} outside (0, 1]"]
    errors = []
    marginal_vars = [Fraction(v) for v in row["marginal_vars"]]
    var_sum = Fraction(row["var_of_sum"])
    sum_vars = Fraction(row["sum_of_vars"])
    if marginal_vars != [_quantile(c, alpha) for c in expected["columns"]]:
        errors.append(f"marginal VaRs at {alpha} are not the columns' quantiles")
    if var_sum != _quantile(expected["sums"], alpha):
        errors.append(f"var_of_sum at {alpha} is not the row sums' quantile")
    if sum_vars != sum(marginal_vars):
        errors.append("sum_of_vars is not the sum of the marginal VaRs")
    want = "<" if var_sum < sum_vars else "=" if var_sum == sum_vars else ">"
    if row["relation"] != want:
        errors.append(f"relation {row['relation']!r}, expected {want!r}")
    return errors


def check_report(code: int, stdout: bytes, expected: dict) -> list[str]:
    """`varlab report` on a generated CSV.

    ``expected`` is gen.expected_report() of the generated rows. Every VaR
    figure in the table is compared with the exact empirical quantile of
    those rows at the row's alpha.
    """
    errors = [] if code == 0 else [f"exit code {code}"]
    payload = _json(stdout, errors)
    if not isinstance(payload, dict):
        return errors or ["report is not a JSON object"]
    try:
        flags = payload["theorem_flags"]
        como = payload["comonotonic"]["comonotonic"]
        if not como == flags["subadditive_everywhere"] == flags["additive_everywhere"]:
            errors.append(f"theorem flags disagree: comonotonic={como}, {flags}")
        table = payload["var_table"]
        if not table or table[-1]["alpha"] != "1/1":
            errors.append("VaR table does not end at alpha 1/1")
        for k, row in enumerate(table):
            row_errors = _check_var_row(row, expected)
            if row_errors:
                errors += [f"table row {k}: {e}" for e in row_errors]
                break
        summary = payload["marginals_summary"]
        if len(summary) != len(expected["marginals"]):
            errors.append(f"{len(summary)} marginals reported, expected {len(expected['marginals'])}")
        for m, (atoms, mean) in zip(summary, expected["marginals"]):
            if m["atom_count"] != atoms:
                errors.append(f"column {m['column']}: {m['atom_count']} atoms, expected {atoms}")
            if Fraction(m["mean"]) != mean:
                errors.append(f"column {m['column']}: mean {m['mean']}, expected {mean}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        errors.append(f"malformed report: {exc!r}")
    return errors


def check_simulate(code: int, stdout: bytes, seed: int, trials: int) -> list[str]:
    """`varlab simulate --seed seed --trials trials`."""
    errors = [] if code == 0 else [f"exit code {code}"]
    payload = _json(stdout, errors)
    if not isinstance(payload, dict):
        return errors or ["simulate output is not a JSON object"]
    if payload.get("seed") != seed or payload.get("trials") != trials:
        errors.append(f"ran seed {payload.get('seed')} x {payload.get('trials')}, asked {seed} x {trials}")
    if payload.get("all_consistent") is not True:
        errors.append("all_consistent is not true")
    if payload.get("consistent_trials") != trials:
        errors.append(f"consistent_trials {payload.get('consistent_trials')} != {trials}")
    return errors


def check_crosscheck(kind: str, min_copula: bool, convex_max: bool, leq) -> list[str]:
    """One cross-check instance.

    The min-copula identity and convex-order maximality both characterize
    comonotonicity, so they must agree; the sum is always below the
    comonotonic sum in the convex order, with equal means; and a comonotonic
    coupling passes both characterizations.
    """
    errors = []
    if min_copula != convex_max:
        errors.append(f"min_copula_check={min_copula} but convex_order_max_check={convex_max}")
    if not (leq.holds and leq.mean_equal):
        errors.append(f"sum not below the comonotonic sum in convex order: {leq}")
    if kind == "comonotonic" and not min_copula:
        errors.append("comonotonic coupling fails the min-copula identity")
    return errors
