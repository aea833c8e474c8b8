"""The process entry of `python -m varlab` and of the `varlab` script."""

import gc

from .cli import main


def run() -> int:
    """Run the CLI as a process of its own.

    `gc.freeze()` puts the import-time heap out of the collector's reach, so
    no later collection walks it again, the one at exit included. It is not
    in `main`, which tests call in-process: there it would make every object
    the test process holds permanent, garbage cycles included.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
