"""Batch front door: CSV ingestion, VaR and subadditivity reports,
comonotonic couplings, seeded equivalence trials, and Gaussian checks.

Input CSV is UTF-8, comma separated, one column per loss variable, with an
optional header row and an optional weight column named "weight". Cells are
decimal numbers and convert to exact rationals, so the discrete reports carry
no floating point error at all. Rationals serialize as "num/den" strings;
the Gaussian subcommand's floating point outputs round to 12 significant
digits so identical inputs always produce identical bytes.

`simulate` splits a large run's seeded trials into contiguous chunks, one
per CPU the process may run on, and runs every chunk after the first in a
forked worker. Each trial is seeded on its own, so the output does not
depend on how many CPUs there are, and no setting controls it.

Exit codes: 0 on success, 2 on input validation failure, 3 on an internal
invariant breach (an equivalence violation, which should never occur). A
subcommand returns 0 or raises; `dispatch` maps the raised error to 2 or 3.
"""

from __future__ import annotations

import csv
import io
import json
import marshal
import os
import random
import re
import sys
from array import array
from fractions import Fraction
from itertools import islice, starmap
from math import gcd
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from . import __version__
from .cmdline import build_parser
from .comonotonicity import ComonotoneVerdict, comonotonic_coupling, is_comonotonic
from .distributions import (
    MAX_SCALE_BITS,
    DiscreteDistribution,
    JointDiscreteDistribution,
    LatticeBoundError,
    _Columns,
    _lcm_within,
    _view,
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
    SubadditivityReport,
    TrialVerdict,
    _compared,
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


class _InvariantBreach(Exception):
    """A verdict that must never occur, raised after the output is written;
    `main` exits 3 on it. Not a ValueError, LookupError or OSError, which exit 2."""


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
# Cap on a dimension read from input, checked before anything of that size
# is built: of an `elliptic` spec, before the covariance is read, and of
# `simulate --max-n`, before the first trial. The spec's positive-
# semidefiniteness check is O(n^3) pure Python: n = 200 validates in about
# 0.26 s on a 2-vCPU x86-64 host, n = 300 in 0.87 s. A trial's cost grows
# with its n: 20 comonotonic trials take about 0.1 s at --max-n 200 and 1.3 s
# at 2,000 on the same host.
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


def _row_is_numeric(line: int, row: Sequence[str]) -> bool:
    """Does every cell of ``row``, which starts on file line ``line``, parse?"""
    try:
        for col, cell in enumerate(row, 1):
            _parse_number(cell, f"row {line}, column {col}")
    except _NotANumber:
        return False
    return True


# \r\n, a lone \r and a lone \n each end a line of input, as in the CSV reader
_LINE_END = r"\r\n?|\n"


def _read_text(path) -> str:
    """The text of a UTF-8 input file. utf-8-sig drops a leading byte order
    mark, which would make a headerless first row look like a header."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object follows a dropped byte order mark
        line, byte = len(re.split(_LINE_END.encode(), exc.object[: exc.start])), exc.object[exc.start]
        raise ValueError(f"{path}: line {line}: not UTF-8 ({exc.reason}, byte 0x{byte:02x})") from None


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
    omitted, a header column named "weight" is used automatically. Errors
    name a row by the file line it starts on.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    # Column by column: each column's distinct texts, each keyed to its id in
    # order of first appearance, and an array of one id per data row; `lines`
    # holds the file line each data row starts on. No row outlives its turn.
    texts: list[dict[str, int]] = []
    ids: list[array] = []
    lines, line, header, ragged, sniffed = array("q"), 1, None, None, None
    try:
        for row in reader:
            start, line = line, reader.line_num + 1
            if not "".join(row).strip():
                continue
            if not texts:  # the first nonblank row fixes the width
                texts, ids = [{} for _ in row], [array("q") for _ in row]
                if has_header is None:
                    try:
                        has_header = not _row_is_numeric(start, row)
                    except ValueError as exc:  # raised once the reader has found no error
                        sniffed = exc
                if has_header:
                    header = [c.strip() for c in row]
                    continue
            if len(row) != len(texts):
                ragged = f"row {start}: expected {len(texts)} cells, got {len(row)} (ragged row)"
                break
            for known, column, text in zip(texts, ids, row):
                column.append(known.setdefault(text, len(known)))
            lines.append(start)
        for _ in reader:  # a reader error past a ragged row still comes first
            pass
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if sniffed is not None:
        raise sniffed
    if not lines and ragged is None:
        raise ValueError(f"{path}: no data rows")

    ncols = len(texts)
    lowered = [h.lower() for h in header] if header is not None else []
    if weight_column is None:
        widx = lowered.index("weight") if "weight" in lowered else None
    elif isinstance(weight_column, str) and not weight_column.removeprefix("-").isdecimal():
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

    # Each distinct text of a column is parsed once. A text that fails, or a
    # weight that is not positive, is kept as its error, whose message starts
    # ": ". Only then are the rows scanned in order, for the first cell that
    # holds one (loss columns first, then the weight) or for the ragged row.
    cols = loss_cols if widx is None else [*loss_cols, widx]
    tables, faults = [], {}
    for c in cols:
        table = []
        for text in texts[c]:
            try:
                pair = _parse_number(text, "")
                if c == widx and pair[0] <= 0:
                    raise ValueError(f": weight must be positive, got {Fraction(*pair)}")
            except ValueError as exc:
                faults[c, len(table)], pair = exc, None
            table.append(pair)
        tables.append(table)
    if faults or ragged:
        for k, rownum in enumerate(lines):
            for c in cols:
                exc = faults.get((c, ids[c][k]))
                if exc is not None:
                    raise type(exc)(f"row {rownum}, column {c + 1}{exc}")
        raise ValueError(ragged)

    columns = [(tables[i], ids[c]) for i, c in enumerate(loss_cols)]
    # without a weight column every row has entry 0 of a table that holds 1/1
    weights = ([(1, 1)], bytes(len(lines))) if widx is None else (tables[-1], ids[widx])
    try:
        return JointDiscreteDistribution.from_weighted_points(_Columns(columns, weights))
    except LatticeBoundError as exc:
        col = widx if exc.coordinate is None else loss_cols[exc.coordinate]
        raise ValueError(f"row {lines[exc.row]}, column {col + 1}: {exc}") from None


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
    header = [f"x{i + 1}" for i in range(j.dimension)] + ["weight"]
    cells = _Texts(j.coord_denom, lambda num, den: decimal_cell(Fraction(num, den)))
    # the minimal probability denominator makes the counts the smallest weights
    rows = ([*map(cells.__getitem__, point), count] for point, count in zip(j.xs, j.counts))
    stream.write(_csv_text(header, rows))


# ---------------------------------------------------------------------------
# Report construction and serialization


def _ratio_str(num: int, den: int) -> str:
    """The reduced "num/den" text of num / den, for a positive ``den``."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


class _Texts(dict):
    """The text ``formatter(num, den)`` of each lattice numerator over ``den``,
    formatted on first use; by default the reduced "num/den"."""

    def __init__(self, den: int, formatter=_ratio_str) -> None:
        super().__init__()
        self.den, self.formatter = den, formatter

    def __missing__(self, num: int) -> str:
        text = self[num] = self.formatter(num, self.den)
        return text


# The digest hashes its lines this many at a time: no text of the whole law.
_BLOCK_ROWS = 512


def _digest(j: JointDiscreteDistribution) -> str:
    """sha256 of the law's points, one "x1;x2;...|p" line each, every value
    reduced "num/den", hashed a block of lines at a time. The hash is
    CPython's own SHA-256 module, as `random` takes its SHA-512, so no
    process maps OpenSSL for a digest of this size; `hashlib` serves only a
    build without that module. The import is here, so a command that writes
    no digest loads neither."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    coords, counts = _Texts(j.coord_denom), _Texts(j.prob_denom)
    lines = (
        f"{';'.join(map(coords.__getitem__, point))}|{counts[c]}\n"
        for point, c in zip(j.xs, j.counts)
    )
    digest = sha256()
    for block in iter(lambda: "".join(islice(lines, _BLOCK_ROWS)), ""):
        digest.update(block.encode())
    return digest.hexdigest()


class AnalysisReport:
    """Machine-readable result of a full analysis run of the joint law ``j``.

    ``report`` is its `SubadditivityReport`, whose flags and ``scale`` this
    report reads. ``rows`` are the VaR table's integer rows from
    `subadditivity._compared`, ``(num, den, vs, var_sum, sum_of_vars)``, all
    VaRs in units of 1/``scale``; the JSON and `--output csv` are both
    written from them. ``var_table`` is their `IntervalVerdict` view, built
    on first use. ``verdict`` is the `ComonotoneVerdict` of ``j``. `to_json`
    computes the input digest and each marginal's atom count and mean, which
    only it prints, so `--output csv` computes neither.
    """

    def __init__(self, j: JointDiscreteDistribution, report: SubadditivityReport, rows: tuple,
                 verdict: ComonotoneVerdict) -> None:
        self.j, self.report, self.rows, self.verdict = j, report, rows, verdict

    scale = property(lambda self: self.report.scale)
    subadditive_everywhere = property(lambda self: self.report.subadditive_everywhere)
    additive_everywhere = property(lambda self: self.report.additive_everywhere)
    comonotonic = property(lambda self: self.verdict.comonotonic)

    @_view
    def var_table(self) -> tuple[IntervalVerdict, ...]:
        return _verdicts(self.scale, self.rows)

    def to_json(self) -> str:
        payload = {
            "input_digest": _digest(self.j),
            "marginals_summary": [
                {"column": i, "atom_count": len(m), "mean": _ratio_str(*m.mean().as_integer_ratio())}
                for i, m in enumerate(self.j.marginals(), 1)
            ],
            "comonotonic": {
                "comonotonic": self.comonotonic,
                "witness": None
                if self.verdict.witness is None
                else [[_ratio_str(*c.as_integer_ratio()) for c in point] for point in self.verdict.witness],
            },
            "theorem_flags": {
                "subadditive_everywhere": self.subadditive_everywhere,
                "additive_everywhere": self.additive_everywhere,
            },
            "tool_version": __version__,
        }
        return _table_json(payload, self.scale, self.rows)


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
    rows = report.rows if alphas is None else _compared(j, alphas)
    return AnalysisReport(j, report, rows, is_comonotonic(j))


# A VaR table row and a coupled point as `json.dumps(..., sort_keys=True, indent=2)`
# writes them; each "{}" takes ASCII text, a list's items joined by _ITEMS.
_ROW_JSON = (
    '    {{\n      "alpha": "{}",\n      "marginal_vars": [\n        "{}"\n      ],\n'
    '      "relation": "{}",\n      "sum_of_vars": "{}",\n      "var_of_sum": "{}"\n    }}'
)
_POINT_JSON = '    {{\n      "coords": [\n        "{}"\n      ],\n      "prob": "{}"\n    }}'
_ITEMS = '",\n        "'


def _json_text(payload: dict, key: str | None = None, template: str = "", rows: Iterable = ()) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, with the
    list of ``rows`` under ``key`` when one is given. Its items share one key set,
    so each is ``template`` formatted with one row: no dict and no key sort per item."""
    if key is None:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    text = json.dumps({**payload, key: None}, sort_keys=True, indent=2)
    # a newline and two spaces occur in the dump only before a top-level key
    head, tail = text.split(f'\n  "{key}": null')
    items = ",\n".join(starmap(template.format, rows))
    if not items:
        return f'{head}\n  "{key}": []{tail}\n'
    return f'{head}\n  "{key}": [\n{items}\n  ]{tail}\n'


def _table_json(payload: dict, scale: int, rows) -> str:
    """`_json_text` of ``payload`` with the integer VaR table ``rows``
    (`_compared`, all VaRs over ``scale``) under "var_table", each row a
    `_ROW_JSON`; each value is formatted once."""
    texts = _Texts(scale)
    return _json_text(payload, "var_table", _ROW_JSON, (
        (_ratio_str(num, den), _ITEMS.join(map(texts.__getitem__, vs)),
         _relation(var_sum, sum_of_vars), _ratio_str(sum_of_vars, scale), texts[var_sum])
        for num, den, vs, var_sum, sum_of_vars in rows
    ))


def _var_table_csv(n: int, scale: int, rows) -> str:
    """Plot-ready CSV of the VaR table of the integer ``rows`` of an
    ``n``-dimensional law (floats, 12 significant digits). Each float is
    ``int / int``, correctly rounded like ``float(Fraction)``."""
    header = ["alpha", *(f"var_{i}" for i in range(1, n + 1))]
    header += ["var_of_sum", "sum_of_vars", "relation"]
    lines = (
        [f"{x:.12g}" for x in (num / den, *(v / scale for v in vs), var_sum / scale, sv / scale)]
        + [_relation(var_sum, sv)]
        for num, den, vs, var_sum, sv in rows
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
        lines = re.split(_LINE_END, _read_text(args.alphas_file))
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


# ---------------------------------------------------------------------------
# Subcommands


def cmd_report(args) -> int:
    """`report`, and `var`: the VaR table alone at required levels, with
    no sweep and no chain check."""
    j = ingest_csv(args.csv, has_header=args.header, weight_column=args.weight_column)
    alphas = [a for *_, a in _collect_alphas(args, required=args.command == "var")]
    report = None if args.command == "var" else run_report(j, alphas or None)
    rows = report.rows if report else _compared(j, alphas)
    if args.output == "csv":
        text = _var_table_csv(j.dimension, j.coord_denom, rows)
    elif report:
        text = report.to_json()
    else:
        text = _table_json({"input_digest": _digest(j), "tool_version": __version__}, j.coord_denom, rows)
    _emit(text, args.out)
    if report and not (report.comonotonic == report.subadditive_everywhere == report.additive_everywhere):
        raise _InvariantBreach("comonotonicity and subadditivity flags disagree")
    return EXIT_OK


def cmd_couple(args) -> int:
    marginals: list[DiscreteDistribution] = []
    denom = 1  # the coupled law's probability denominator: the lcm of the marginals'
    for path in args.csv:
        j = ingest_csv(path, has_header=args.header, weight_column=args.weight_column)
        ms = j.marginals()
        denom, over = _lcm_within([denom, *(m.prob_denom for m in ms)])
        if over is not None:
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
        coords, probs = _Texts(coupled.coord_denom), _Texts(coupled.prob_denom)
        points = (
            (_ITEMS.join(map(coords.__getitem__, point)), probs[c])
            for point, c in zip(coupled.xs, coupled.counts)
        )
        payload = {"dimension": coupled.dimension, "tool_version": __version__}
        _emit(_json_text(payload, "points", _POINT_JSON, points), args.out)
    return EXIT_OK


# `simulate` forks at most one worker per this many trials. On a 2-vCPU
# x86-64 host a worker's fork, pipe and reaping took about 2 ms, the time of
# some 15 trials; the default 100 trials stay in one process.
MIN_TRIALS_PER_WORKER = 200


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _trial_rows(args, trials: range) -> list[tuple]:
    """(t, kind, n, *verdict) of each seeded trial t in ``trials``, as plain
    tuples, so a worker can send them back with `marshal`."""
    rows = []
    for t in trials:
        meta = random.Random((args.seed << 32) ^ t)
        n = meta.randint(1, args.max_n)
        gen_seed = meta.getrandbits(48)
        kind = args.kind
        if kind == "mixed":
            kind = "comonotonic" if meta.random() < 0.5 else "coupling"
        make = random_comonotonic if kind == "comonotonic" else random_coupling
        spec = GeneratorSpec(n=n, max_atoms=args.max_atoms)
        try:
            j = make(gen_seed, spec)
        except ValueError as exc:
            raise ValueError(f"trial {t} ({kind}, n={n}, generator seed {gen_seed}): {exc}") from None
        rows.append((t, kind, n, *equivalence_trial(j)))
    return rows


def _fork_rows(args, trials: range):
    """Fork a worker that writes `_trial_rows(args, trials)`, marshalled, to
    a pipe: its pid and the pipe's read end. The worker writes only a whole
    result, exits without one on any exception, and never returns."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            data = marshal.dumps(_trial_rows(args, trials))
            with open(w, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _received(pipe) -> list | None:
    """The rows a worker sent through ``pipe``, or None if it sent no whole
    result: `marshal` rejects every truncation of its data."""
    try:
        return marshal.loads(pipe.read())
    except (EOFError, ValueError):
        return None


def _simulated_rows(args) -> list[tuple]:
    """`_trial_rows` of every trial, in trial order, in contiguous chunks:
    one per usable CPU and per `MIN_TRIALS_PER_WORKER` trials. This process
    runs the first chunk and a forked worker each later one. A chunk whose
    worker sent nothing, or could not be forked, runs here in its turn, so
    the error raised is the first failing trial's, as in one process. Every
    worker is killed and reaped before this returns or raises. The command
    line runs no other thread, so a fork copies no lock another one holds."""
    workers = max(1, min(_cpus(), args.trials // MIN_TRIALS_PER_WORKER)) if hasattr(os, "fork") else 1
    bounds = [args.trials * k // workers for k in range(workers + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    forked = []
    try:
        for chunk in chunks[1:]:
            try:
                forked.append(_fork_rows(args, chunk))
            except OSError:  # no pipe or process to spare: run the rest here
                break
        rows = _trial_rows(args, chunks[0])
        for k, chunk in enumerate(chunks[1:]):
            part = _received(forked[k][1]) if k < len(forked) else None
            rows += part if part is not None else _trial_rows(args, chunk)
        return rows
    finally:
        import signal

        for pid, pipe in forked:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_simulate(args) -> int:
    for flag, value in (("--trials", args.trials), ("--max-n", args.max_n),
                        ("--max-atoms", args.max_atoms)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1")
    if args.max_n > MAX_DIMENSION:
        raise ValueError(f"--max-n must be at most {MAX_DIMENSION}")
    rows = _simulated_rows(args)
    failures = sum(not consistent for *_, consistent in rows)
    if args.output == "csv":
        header = ["trial", "kind", "n", *TrialVerdict._fields]
        _emit(_csv_text(header, rows), args.out)
    else:
        payload = {
            "seed": args.seed,
            "trials": args.trials,
            "comonotonic_instances": sum(comonotonic for _, _, _, comonotonic, *_ in rows),
            "consistent_trials": args.trials - failures,
            "all_consistent": failures == 0,
            "tool_version": __version__,
        }
        _emit(_json_text(payload), args.out)
    if failures:
        raise _InvariantBreach(f"equivalence violated in {failures} trial(s)")
    return EXIT_OK


def cmd_elliptic(args) -> int:
    try:
        raw = json.loads(_read_text(args.spec))
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
        _emit(_json_text(payload), args.out)
    return EXIT_OK


def dispatch(args) -> int:
    """Run the subcommand of the parsed ``args``: its exit code. Errors that
    its input causes exit 2 and an invariant breach exits 3, each with one
    line on stderr. The handler is looked up when the command runs, so a
    wrapper bound over a `cmd_*` name is the one called."""
    handler = {"var": cmd_report, "report": cmd_report, "couple": cmd_couple,
               "simulate": cmd_simulate, "elliptic": cmd_elliptic}[args.command]
    try:
        return handler(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _InvariantBreach as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main(argv: list[str] | None = None) -> int:
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
