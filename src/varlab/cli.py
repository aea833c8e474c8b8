"""Batch front door: CSV ingestion, VaR and subadditivity reports,
comonotonic couplings, seeded equivalence trials, and Gaussian checks.

Input CSV is UTF-8, comma separated, one column per loss variable, with an
optional header row and an optional weight column named "weight". Cells are
decimal numbers and convert to exact rationals, so the discrete reports carry
no floating point error at all. Rationals serialize as "num/den" strings;
the Gaussian subcommand's floating point outputs round to 12 significant
digits so identical inputs always produce identical bytes.

Exit codes: 0 on success, 2 on input validation failure, 3 on an internal
invariant breach (an equivalence violation, which should never occur).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from . import __version__
from .comonotonicity import comonotonic_coupling, is_comonotonic
from .distributions import (
    MAX_SCALE_BITS,
    DiscreteDistribution,
    JointDiscreteDistribution,
    LatticeBoundError,
)
from .gaussian import (
    GaussianSpec,
    gaussian_comonotone_condition,
    gaussian_portfolio_var,
    gaussian_subadditivity_gap,
    gaussian_var,
)
from .subadditivity import (
    GeneratorSpec,
    IntervalVerdict,
    _level_rows,
    _relation,
    _verdicts,
    equivalence_trial,
    random_comonotonic,
    random_coupling,
    subadditivity_report,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3


# ---------------------------------------------------------------------------
# CSV ingestion and dumping


# Bound on the characters, hence the digits, and on the decimal exponent of
# one number read from input. Exact parsing builds the power of ten, so
# 1e-3000000 alone would take seconds, and no integer of more than 4,300
# digits can be printed. A number within it is under 10**1995 in magnitude;
# with the common denominators of the law under 2**MAX_SCALE_BITS (about
# 1.07 * 10**1000, see `distributions`), the largest printed integer, the
# numerator of a mean, has under 4,000 digits.
MAX_NUMBER_DIGITS = 1000
# Cap on the dimension of an `elliptic` spec, checked before the covariance
# is read. Its positive-semidefiniteness check is O(n^3) pure Python:
# n = 200 validates in about 0.26 s on a 2-vCPU x86-64 host, n = 300 in 0.87 s.
MAX_DIMENSION = 200

# The grammar of Fraction(str): a decimal with an optional exponent, or
# "num/den"; underscores may group digits.
_DIGITS = r"\d+(?:_\d+)*"
_NUMBER = re.compile(
    rf"([-+]?)(?=\d|\.\d)({_DIGITS})?"
    rf"(?:/({_DIGITS})|(?:\.({_DIGITS})?)?(?:[eE]([-+]?{_DIGITS}))?)"
)


class _NotANumber(ValueError):
    """The text is no number at all, as opposed to a number out of bounds."""


def _parse_number(text: str, where: str) -> tuple[int, int]:
    """Exact value of a number as a reduced pair (numerator, denominator);
    errors start with ``where``, its origin.

    A number out of bounds raises ValueError before any power of ten is
    built, and text that is no number raises _NotANumber.
    """
    text = text.strip()
    match = _NUMBER.fullmatch(text)
    if match is None:
        raise _NotANumber(f"{where}: cannot parse {text!r} as a number")
    sign, whole, den, frac, exp = match.groups()
    if len(text) > MAX_NUMBER_DIGITS or (exp and abs(int(exp)) > MAX_NUMBER_DIGITS):
        raise ValueError(
            f"{where}: number out of range; the limit is {MAX_NUMBER_DIGITS} characters "
            f"and a decimal exponent of {MAX_NUMBER_DIGITS} in magnitude"
        )
    if den is not None:  # the lookahead puts a digit before the slash
        num, den = int(whole), int(den)
        if not den:
            raise _NotANumber(f"{where}: cannot parse {text!r} as a number")
    else:
        # int() takes the underscores that group digits, and Unicode digits
        num = int((whole or "") + (frac or ""))
        places = len(frac) - frac.count("_") if frac else 0
        places -= int(exp) if exp else 0
        num, den = (num, 10**places) if places > 0 else (num * 10**-places, 1)
    if sign == "-":
        num = -num
    g = gcd(num, den)
    return num // g, den // g


def _row_is_numeric(row: Sequence[str]) -> bool:
    try:
        for col, cell in enumerate(row, 1):
            _parse_number(cell, f"row 1, column {col}")
    except _NotANumber:
        return False
    return True


def ingest_csv(
    path,
    *,
    has_header: bool | None = None,
    weight_column: int | str | None = None,
) -> JointDiscreteDistribution:
    """Read loss samples into an exact joint distribution.

    Each data row becomes one support point with weight 1, or the value of
    the weight column when one is present; duplicate rows merge and weights
    normalize to probabilities. With ``has_header=None`` the header is
    sniffed: a first row containing any non-numeric cell is treated as a
    header. ``weight_column`` may be a 0-based index or a header name; when
    omitted, a header column named "weight" is used automatically.
    """
    # utf-8-sig drops a leading byte order mark, which would otherwise make
    # a headerless first row look non-numeric and be taken for a header.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = [row for row in reader if "".join(row).strip()]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")

    if has_header is None:
        has_header = not _row_is_numeric(rows[0])
    header = [c.strip() for c in rows[0]] if has_header else None
    data = rows[1:] if has_header else rows
    first_row_number = 2 if has_header else 1
    if not data:
        raise ValueError(f"{path}: no data rows")

    ncols = len(header) if header is not None else len(data[0])
    lowered = [h.lower() for h in header] if header is not None else []
    if weight_column is None:
        widx = lowered.index("weight") if "weight" in lowered else None
    elif isinstance(weight_column, str) and not weight_column.lstrip("-").isdigit():
        if header is None:
            raise ValueError("named weight column requires a header row")
        if weight_column.lower() not in lowered:
            raise ValueError(f"weight column {weight_column!r} not found in header")
        widx = lowered.index(weight_column.lower())
    else:
        widx = int(weight_column)
        if not 0 <= widx < ncols:
            raise ValueError(f"weight column index {widx} out of range")

    loss_cols = [c for c in range(ncols) if c != widx]
    if not loss_cols:
        raise ValueError("no loss columns left after removing the weight column")

    # Cell texts repeat, so each distinct text is parsed once. A text that
    # fails is not stored: it raises at its first row and column.
    parsed: dict[str, tuple[int, int]] = {}
    cols = loss_cols if widx is None else [*loss_cols, widx]
    pairs = []
    for rownum, row in enumerate(data, first_row_number):
        if len(row) != ncols:
            raise ValueError(f"row {rownum}: expected {ncols} cells, got {len(row)} (ragged row)")
        values = []
        for c in cols:
            text = row[c]
            value = parsed.get(text)
            if value is None:
                try:
                    value = parsed[text] = _parse_number(text, "")
                except ValueError as exc:  # the message starts ": ", so name the cell
                    raise type(exc)(f"row {rownum}, column {c + 1}{exc}") from None
            values.append(value)
        weight = (1, 1) if widx is None else values.pop()
        if weight[0] <= 0:
            raise ValueError(
                f"row {rownum}, column {widx + 1}: weight must be positive, got {Fraction(*weight)}"
            )
        pairs.append((tuple(values), weight))
    try:
        return JointDiscreteDistribution.from_weighted_points(pairs, ratios=True)
    except LatticeBoundError as exc:
        col = widx if exc.coordinate is None else loss_cols[exc.coordinate]
        raise ValueError(f"row {first_row_number + exc.row}, column {col + 1}: {exc}") from None


def decimal_cell(value: Fraction) -> str:
    """Exact decimal string for a rational whose denominator is 2^a * 5^b."""
    # a, b < bit_length(den), so such a denominator divides 10**places
    places = value.denominator.bit_length()
    digits, rest = divmod(abs(value.numerator) * 10**places, value.denominator)
    if rest:
        raise ValueError(f"{value} has no finite decimal expansion")
    whole, frac = divmod(digits, 10**places)
    sign = "-" if value < 0 else ""
    text = f"{frac:0{places}d}".rstrip("0")
    return f"{sign}{whole}.{text}" if text else f"{sign}{whole}"


def dump_csv(j: JointDiscreteDistribution, stream: TextIO) -> None:
    """Write a joint law as loss columns plus an integer weight column.

    Coordinates must have finite decimal expansions; probabilities are
    rescaled by their common denominator so weights are exact integers and
    ``ingest_csv`` reproduces the law bit for bit.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(j.dimension)] + ["weight"])
    # the minimal probability denominator makes the counts the smallest weights
    for coords, count in zip(j.xs, j.counts):
        writer.writerow([decimal_cell(Fraction(x, j.coord_denom)) for x in coords] + [count])


# ---------------------------------------------------------------------------
# Report construction and serialization


def _ratio_str(num: int, den: int) -> str:
    """The reduced "num/den" text of num / den, for a positive ``den``."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _lattice_texts(j: JointDiscreteDistribution) -> tuple[dict[int, str], dict[int, str]]:
    """The reduced "num/den" text of each distinct lattice coordinate and
    count of a joint law, each formatted once."""
    coords = {x: _ratio_str(x, j.coord_denom) for x in set().union(*j.xs)}
    counts = {c: _ratio_str(c, j.prob_denom) for c in set(j.counts)}
    return coords, counts


def _digest(j: JointDiscreteDistribution) -> str:
    """sha256 of the law's points, one "x1;x2;...|p" line each, every value
    reduced "num/den"."""
    coords, counts = _lattice_texts(j)
    text = "".join([
        f"{';'.join(map(coords.__getitem__, point))}|{counts[c]}\n"
        for point, c in zip(j.xs, j.counts)
    ])
    return hashlib.sha256(text.encode()).hexdigest()


class _AtomTexts(dict):
    """The reduced "num/den" text of a law's atoms by index, each formatted
    on first use."""

    def __init__(self, law: DiscreteDistribution) -> None:
        super().__init__()
        self.law = law

    def __missing__(self, k: int) -> str:
        text = self[k] = _ratio_str(self.law.xs[k], self.law.coord_denom)
        return text


@dataclass(frozen=True)
class MarginalSummary:
    column: int
    atom_count: int
    mean: Fraction


@dataclass(frozen=True)
class AnalysisReport:
    """Machine-readable result of a full analysis run.

    ``laws`` are the marginals, then the law of the sum. ``rows`` are the
    VaR table's integer rows from `subadditivity._var_rows`, ``(num, den,
    ks, var_sum, sum_of_vars)``, both sides in units of 1/``scale``; the
    JSON and `--output csv` are both written from them. ``var_table`` is
    their `IntervalVerdict` view, built on first use.
    """

    input_digest: str
    marginals_summary: tuple[MarginalSummary, ...]
    laws: tuple[DiscreteDistribution, ...]
    scale: int
    rows: tuple[tuple, ...]
    comonotonic: bool
    witness: tuple | None
    subadditive_everywhere: bool
    additive_everywhere: bool
    tool_version: str

    @cached_property
    def var_table(self) -> tuple[IntervalVerdict, ...]:
        return _verdicts(self.laws, self.scale, self.rows)

    def to_json(self) -> str:
        payload = {
            "input_digest": self.input_digest,
            "marginals_summary": [
                {"column": m.column, "atom_count": m.atom_count,
                 "mean": _ratio_str(*m.mean.as_integer_ratio())}
                for m in self.marginals_summary
            ],
            "comonotonic": {
                "comonotonic": self.comonotonic,
                "witness": None
                if self.witness is None
                else [[_ratio_str(*c.as_integer_ratio()) for c in point] for point in self.witness],
            },
            "theorem_flags": {
                "subadditive_everywhere": self.subadditive_everywhere,
                "additive_everywhere": self.additive_everywhere,
            },
            "tool_version": self.tool_version,
        }
        return _json_with_var_table(payload, self.laws, self.scale, self.rows)


def run_report(
    j: JointDiscreteDistribution, alphas: Iterable | None = None
) -> AnalysisReport:
    """Full analysis of a joint loss law.

    The VaR table is evaluated at the given levels, or at every critical
    level of the instance by default (breakpoint right endpoints, so the
    rows cover all of (0, 1) exactly). The subadditivity and additivity
    flags always come from the full breakpoint sweep regardless of which
    levels the table shows. Explicit levels must lie strictly inside (0, 1).
    """
    report = subadditivity_report(j)
    rows = report.rows if alphas is None else _level_rows(report.laws, report.scale, alphas)
    verdict = is_comonotonic(j)
    return AnalysisReport(
        input_digest=_digest(j),
        marginals_summary=tuple(
            MarginalSummary(column=i + 1, atom_count=len(m), mean=m.mean())
            for i, m in enumerate(j.marginals())
        ),
        laws=report.laws,
        scale=report.scale,
        rows=rows,
        comonotonic=verdict.comonotonic,
        witness=verdict.witness,
        subadditive_everywhere=report.subadditive_everywhere,
        additive_everywhere=report.additive_everywhere,
        tool_version=__version__,
    )


# A VaR table row as `json.dumps(..., sort_keys=True, indent=2)` writes it
# in "var_table"; every value is ASCII text that needs no escape.
_ROW_JSON = (
    '    {{\n      "alpha": "{}",\n      "marginal_vars": [\n        "{}"\n      ],\n'
    '      "relation": "{}",\n      "sum_of_vars": "{}",\n      "var_of_sum": "{}"\n    }}'
)


def _json_with_var_table(payload: dict, laws, scale: int, rows) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, with
    the VaR table of the integer ``rows`` of ``laws`` (`_var_rows`, both
    sides over ``scale``) added as "var_table". The rows share one key set,
    so each is written by `_ROW_JSON`; each atom is formatted once."""
    *marginal_texts, sum_texts = map(_AtomTexts, laws)
    text = ",\n".join([
        _ROW_JSON.format(
            _ratio_str(num, den),
            '",\n        "'.join([t[k] for t, k in zip(marginal_texts, ks)]),
            _relation(var_sum, sum_of_vars),
            _ratio_str(sum_of_vars, scale),
            sum_texts[ks[-1]],
        )
        for num, den, ks, var_sum, sum_of_vars in rows
    ])
    table = f"[\n{text}\n  ]" if text else "[]"
    # "var_table" sorts after every other key of the `report` and `var`
    # payloads, so it goes last, before the closing brace.
    head = json.dumps(payload, sort_keys=True, indent=2)[:-2]
    return f'{head},\n  "var_table": {table}\n}}\n'


def _var_table_csv(laws, scale: int, rows) -> str:
    """Plot-ready CSV of the VaR table of the integer ``rows`` of ``laws``
    (floats, 12 significant digits). Each float is ``int / int``, correctly
    rounded like ``float(Fraction)``."""
    header = ["alpha", *(f"var_{i}" for i in range(1, len(laws)))]
    header += ["var_of_sum", "sum_of_vars", "relation"]
    lines = (
        [
            f"{x:.12g}"
            for x in (num / den, *(m.xs[k] / m.coord_denom for m, k in zip(laws, ks)), sv / scale)
        ]
        + [_relation(vs, sv)]
        for num, den, ks, vs, sv in rows
    )
    try:
        return _csv_text(header, lines)
    except OverflowError:
        raise ValueError(
            "a VaR is beyond the floating point range of --output csv; --output json prints it exactly"
        ) from None


# ---------------------------------------------------------------------------
# Argument plumbing


def _csv_text(header: list, rows: Iterable[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _collect_alphas(args, *, required: bool) -> list[tuple[str | None, str, Fraction]]:
    """(origin, text, value) of each level of --alpha and --alphas-file. The
    origin, None for --alpha, is the file and line, which errors name."""
    texts = [(None, text.strip()) for text in args.alpha or []]
    if args.alphas_file:
        lines = Path(args.alphas_file).read_text(encoding="utf-8-sig").splitlines()
        for number, line in enumerate(lines, 1):
            text = line.split("#", 1)[0].strip()
            if text:
                texts.append((f"{args.alphas_file}: line {number}", text))
    if required and not texts:
        raise ValueError("at least one --alpha (or --alphas-file) is required")
    alphas = [
        (where, text, Fraction(*_parse_number(text, where or "alpha"))) for where, text in texts
    ]
    for where, _, a in alphas:
        if not 0 < a < 1:
            message = f"alpha must lie strictly inside (0, 1), got {a}"
            raise ValueError(f"{where}: {message}" if where else message)
    return alphas


def _add_io_flags(parser: argparse.ArgumentParser, default_format: str = "json") -> None:
    parser.add_argument("--output", choices=("json", "csv"), default=default_format,
                        help=f"output format (default: {default_format})")
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _add_alpha_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", action="append", metavar="LEVEL", help="confidence level "
                        "in (0, 1); decimals and fractions like 39/40 accepted; repeatable")
    parser.add_argument("--alphas-file", metavar="PATH",
                        help="file with one confidence level per line (# comments allowed)")


def _add_csv_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--header", action=argparse.BooleanOptionalAction, default=None,
                        help="force header row on or off (default: sniff the first row)")
    parser.add_argument("--weight-column", metavar="COL", help="weight column as 0-based "
                        "index or header name (default: header named 'weight')")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_report(args) -> int:
    """`report`, and `var`: the VaR table alone at required levels, with
    no sweep and no chain check."""
    j = ingest_csv(args.csv, has_header=args.header, weight_column=args.weight_column)
    alphas = [a for *_, a in _collect_alphas(args, required=args.command == "var")]
    if args.command == "var":
        laws = (*j.marginals(), j.sum_distribution())
        rows = _level_rows(laws, j.coord_denom, alphas)
        if args.output == "csv":
            _emit(_var_table_csv(laws, j.coord_denom, rows), args.out)
        else:
            payload = {"input_digest": _digest(j), "tool_version": __version__}
            _emit(_json_with_var_table(payload, laws, j.coord_denom, rows), args.out)
        return EXIT_OK
    report = run_report(j, alphas or None)
    if args.output == "csv":
        _emit(_var_table_csv(report.laws, report.scale, report.rows), args.out)
    else:
        _emit(report.to_json(), args.out)
    if not (report.comonotonic == report.subadditive_everywhere == report.additive_everywhere):
        print(
            "internal invariant breach: comonotonicity and subadditivity flags disagree",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_couple(args) -> int:
    marginals: list[DiscreteDistribution] = []
    denom = 1  # the coupled law's probability denominator: the lcm of the marginals'
    for path in args.csv:
        j = ingest_csv(path, has_header=args.header, weight_column=args.weight_column)
        ms = j.marginals()
        denom = lcm(denom, *(m.prob_denom for m in ms))
        if denom.bit_length() > MAX_SCALE_BITS:
            raise ValueError(
                f"{path}: the probability denominator of the coupling exceeds {MAX_SCALE_BITS} bits"
            )
        marginals.extend(ms)
    coupled = comonotonic_coupling(marginals)
    if args.output == "csv":
        buf = io.StringIO()
        try:
            dump_csv(coupled, buf)
        except ValueError as exc:  # a coordinate that no decimal cell can hold
            raise ValueError(f"{exc}; --output json prints it exactly") from None
        _emit(buf.getvalue(), args.out)
    else:
        coords, probs = _lattice_texts(coupled)
        payload = {
            "dimension": coupled.dimension,
            "points": [
                {"coords": [coords[x] for x in point], "prob": probs[c]}
                for point, c in zip(coupled.xs, coupled.counts)
            ],
            "tool_version": __version__,
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    for flag, value in (("--trials", args.trials), ("--max-n", args.max_n),
                        ("--max-atoms", args.max_atoms)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1")
    rows = []
    for t in range(args.trials):
        meta = random.Random((args.seed << 32) ^ t)
        n = meta.randint(1, args.max_n)
        gen_seed = meta.getrandbits(48)
        kind = args.kind
        if kind == "mixed":
            kind = "comonotonic" if meta.random() < 0.5 else "coupling"
        make = random_comonotonic if kind == "comonotonic" else random_coupling
        spec = GeneratorSpec(n=n, max_atoms=args.max_atoms)
        rows.append((t, kind, n, equivalence_trial(make(gen_seed, spec))))
    failures = sum(not v.consistent for *_, v in rows)
    if args.output == "csv":
        header = ["trial", "kind", "n", "comonotonic", "subadditive_everywhere",
                  "additive_everywhere", "consistent"]
        _emit(_csv_text(header, (
            [t, kind, n, v.comonotonic, v.subadditive_everywhere, v.additive_everywhere,
             v.consistent]
            for t, kind, n, v in rows
        )), args.out)
    else:
        payload = {
            "seed": args.seed,
            "trials": args.trials,
            "comonotonic_instances": sum(1 for *_, v in rows if v.comonotonic),
            "consistent_trials": args.trials - failures,
            "all_consistent": failures == 0,
            "tool_version": __version__,
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    if failures:
        print(
            f"internal invariant breach: equivalence violated in {failures} trial(s)",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_elliptic(args) -> int:
    try:
        raw = json.loads(Path(args.spec).read_text(encoding="utf-8-sig"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{args.spec}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict) or "mean" not in raw or "covariance" not in raw:
        raise ValueError(f'{args.spec}: expected an object with "mean" and "covariance"')
    if isinstance(raw["mean"], list) and len(raw["mean"]) > MAX_DIMENSION:
        raise ValueError(f"dimension {len(raw['mean'])} exceeds the cap of {MAX_DIMENSION}")
    spec = GaussianSpec(mean=raw["mean"], covariance=raw["covariance"])
    alphas = _collect_alphas(args, required=False)
    levels = [float(a) for *_, a in alphas] if alphas else [0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
    for (where, text, _), level in zip(alphas, levels):
        if not 0.0 < level < 1.0:
            message = f"alpha {text} rounds to {level} in floating point, outside (0, 1)"
            raise ValueError(f"{where}: {message}" if where else message)
    table = []
    for level in levels:
        marginal_vars = [
            gaussian_var(float(mu), float(sg), level) for mu, sg in zip(spec.mean, spec.sigmas)
        ]
        table.append({
            "alpha": _round12(level),
            "marginal_vars": [_round12(v) for v in marginal_vars],
            "sum_of_marginal_vars": _round12(sum(marginal_vars)),
            "portfolio_var": _round12(gaussian_portfolio_var(spec, level)),
            "gap": _round12(gaussian_subadditivity_gap(spec, level)),
        })
    if args.output == "csv":
        keys = ["alpha", "portfolio_var", "sum_of_marginal_vars", "gap"]
        _emit(_csv_text(keys, ([row[k] for k in keys] for row in table)), args.out)
    else:
        payload = {
            "dimension": spec.dimension,
            "comonotone_condition": gaussian_comonotone_condition(spec),
            "var_table": table,
            "tool_version": __version__,
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varlab",
        description="Exact VaR subadditivity and comonotonicity analysis "
        "on finite discrete loss distributions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("var", "per-column VaR at the given levels"),
        ("report", "full subadditivity and comonotonicity analysis"),
    ):
        p_table = sub.add_parser(name, help=text)
        p_table.add_argument("csv", help="CSV of loss samples")
        _add_csv_flags(p_table)
        _add_alpha_flags(p_table)
        _add_io_flags(p_table)
        p_table.set_defaults(func=cmd_report)

    p_couple = sub.add_parser("couple", help="comonotonic coupling of the input columns' marginals")
    p_couple.add_argument("csv", nargs="+", help="CSV file(s); every column is one marginal")
    _add_csv_flags(p_couple)
    _add_io_flags(p_couple, default_format="csv")
    p_couple.set_defaults(func=cmd_couple)

    p_sim = sub.add_parser(
        "simulate", help="seeded random equivalence trials (exact, zero tolerance)"
    )
    p_sim.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    p_sim.add_argument("--trials", type=int, default=100, help="number of trials (default: 100)")
    p_sim.add_argument("--max-n", type=int, default=4, help="max dimension per trial (default: 4)")
    p_sim.add_argument("--max-atoms", type=int, default=8, help="max atoms per marginal (default: 8)")
    p_sim.add_argument("--kind", choices=("comonotonic", "coupling", "mixed"), default="mixed",
                       help="instance generator to use (default: mixed)")
    _add_io_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ell = sub.add_parser("elliptic", help="Gaussian closed-form VaR and gap checks")
    p_ell.add_argument("spec", help='JSON file: {"mean": [...], "covariance": [[...], ...]}')
    _add_alpha_flags(p_ell)
    _add_io_flags(p_ell)
    p_ell.set_defaults(func=cmd_elliptic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
