"""The command line of varlab: its parser, and none of the code it runs.

The process entry parses the arguments with `build_parser` before it loads
`varlab.cli`, so `--version`, `--help` and a usage error load no exact-core
module. `cli` picks each subcommand's handler by ``args.command``.
"""

from __future__ import annotations

import argparse

from . import __version__


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

    p_couple = sub.add_parser("couple", help="comonotonic coupling of the input columns' marginals")
    p_couple.add_argument("csv", nargs="+", help="CSV file(s); every column is one marginal")
    _add_csv_flags(p_couple)
    _add_io_flags(p_couple, default_format="csv")

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

    p_ell = sub.add_parser("elliptic", help="Gaussian closed-form VaR and gap checks")
    p_ell.add_argument("spec", help='JSON file: {"mean": [...], "covariance": [[...], ...]}')
    _add_alpha_flags(p_ell)
    _add_io_flags(p_ell)

    return parser
