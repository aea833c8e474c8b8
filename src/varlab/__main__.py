"""The process entry of `python -m varlab` and of the `varlab` script.

It parses the command line before it loads `varlab.cli`: `--version`,
`--help` and a usage error exit inside the parser, having loaded only
`argparse`, `varlab.cmdline` and the package itself.
"""

import gc

from .cmdline import build_parser


def run() -> int:
    """Run the CLI as a process of its own: parse, import `cli`, freeze,
    dispatch.

    `gc.freeze()` puts the import-time heap out of the collector's reach, so
    no later collection walks it again, the one at exit included. It is not
    in `cli.main`, which tests call in-process: there it would make every
    object the test process holds permanent, garbage cycles included.
    """
    args = build_parser().parse_args()
    from . import cli

    gc.freeze()
    return cli.dispatch(args)


if __name__ == "__main__":
    raise SystemExit(run())
