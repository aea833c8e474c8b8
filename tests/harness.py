"""In-process helpers shared by the test modules: an input file, a run of
``varlab.cli.main`` and the time budget of one bounded call."""

import contextlib
import io
import time

from varlab.cli import main

# Seconds one rejected input may take; a correct rejection takes milliseconds.
BUDGET_S = 1.0


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_main(argv):
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def within(seconds):
    """Fail unless the body ends within ``seconds``."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f} s"
