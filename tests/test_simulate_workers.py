"""`simulate` splits its trials among forked workers, one per usable CPU and
per `MIN_TRIALS_PER_WORKER` trials, and its output is that of one process.

Each case runs `main` with the CPU count set to 1, 2 or 3 and compares
stdout, stderr and the exit code with those of one CPU, which forks nothing.
A generator or verdict replaced by a test is inherited by the forked
workers. After every case no child of the test process is left.
"""

import io
import marshal
import os
import signal
import time

import pytest

from harness import run_main
from varlab import cli
from varlab.cli import MIN_TRIALS_PER_WORKER

ARGV = ["simulate", "--seed", "5", "--max-atoms", "4"]
TRIALS = 1001  # three workers on three CPUs: trials 0-332, 333-666, 667-1000


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The forks made by this test process, counted."""
    made = []
    fork = os.fork

    def counted():
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


def simulate(monkeypatch, cpus, *argv):
    """(exit code, stdout, stderr) of `varlab simulate` on ``cpus`` CPUs."""
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    return run_main([*ARGV, *argv])


def gen_seeds(trials):
    """The generator seed of each trial, in trial order, from one process."""
    seeds = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("random_comonotonic", "random_coupling"):
            make = getattr(cli, name)
            mp.setattr(cli, name, lambda seed, spec, make=make: seeds.append(seed) or make(seed, spec))
        simulate(mp, 1, "--trials", str(trials))
    return seeds


def fail_at(monkeypatch, failure):
    """Make each generator call ``failure(seed)`` before it builds a law."""
    for name in ("random_comonotonic", "random_coupling"):
        make = getattr(cli, name)

        def failing(seed, spec, make=make):
            failure(seed)
            return make(seed, spec)

        monkeypatch.setattr(cli, name, failing)


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("trials, cpus, workers", [
    (MIN_TRIALS_PER_WORKER, 3, 1),
    (2 * MIN_TRIALS_PER_WORKER - 1, 3, 1),
    (2 * MIN_TRIALS_PER_WORKER, 3, 2),
    (401, 2, 2),
    (401, 3, 2),
    (TRIALS, 2, 2),
    (TRIALS, 3, 3),
])
def test_output_does_not_depend_on_the_cpus(monkeypatch, forks, output, trials, cpus, workers):
    argv = ("--trials", str(trials), "--output", output)
    one = simulate(monkeypatch, 1, *argv)
    assert not forks
    assert one[0] == 0 and one[2] == ""
    assert simulate(monkeypatch, cpus, *argv) == one
    assert len(forks) == workers - 1


def test_no_fork_without_os_fork(monkeypatch):
    one = simulate(monkeypatch, 1, "--trials", "401", "--output", "csv")
    monkeypatch.delattr(os, "fork")
    assert simulate(monkeypatch, 2, "--trials", "401", "--output", "csv") == one


def test_a_failed_fork_leaves_its_chunk_to_the_parent(monkeypatch):
    one = simulate(monkeypatch, 1, "--trials", str(TRIALS), "--output", "csv")
    fork = os.fork
    made = []

    def second_fails():
        made.append(None)
        if len(made) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    assert simulate(monkeypatch, 3, "--trials", str(TRIALS), "--output", "csv") == one
    assert len(made) == 2


@pytest.mark.parametrize("failing", [[500], [400, 700], [100, 900]], ids=["chunk-1", "chunks-1-2", "chunks-0-2"])
def test_a_generator_error_names_the_first_failing_trial(monkeypatch, failing):
    seeds = gen_seeds(TRIALS)
    bad = {seeds[t] for t in failing}

    def failure(seed):
        if seed in bad:
            raise ValueError("no law")

    fail_at(monkeypatch, failure)
    one = simulate(monkeypatch, 1, "--trials", str(TRIALS))
    assert one[:2] == (2, "")
    assert one[2].startswith(f"error: trial {failing[0]} (")
    assert one[2].endswith(f"generator seed {seeds[failing[0]]}): no law\n")
    assert simulate(monkeypatch, 3, "--trials", str(TRIALS)) == one


@pytest.mark.parametrize("how", ["exit", "kill"])
@pytest.mark.parametrize("output", ["json", "csv"])
def test_a_worker_that_sends_nothing_leaves_the_output_unchanged(monkeypatch, output, how):
    argv = ("--trials", str(TRIALS), "--output", output)
    one = simulate(monkeypatch, 1, *argv)
    seeds = gen_seeds(TRIALS)
    parent = os.getpid()

    def failure(seed):  # the workers of chunks 1 and 2 end without a result
        if os.getpid() != parent and seed in (seeds[400], seeds[900]):
            if how == "exit":
                os._exit(0)
            os.kill(os.getpid(), signal.SIGKILL)

    fail_at(monkeypatch, failure)
    assert simulate(monkeypatch, 3, *argv) == one


def test_the_breach_writes_its_output_first(monkeypatch):
    verdict = cli.equivalence_trial
    broken = cli.TrialVerdict(True, False, False, False)
    # deterministic per instance, so every worker breaks the same trials
    monkeypatch.setattr(cli, "equivalence_trial", lambda j: broken if j.dimension == 3 else verdict(j))
    for output in ("json", "csv"):
        argv = ("--trials", str(TRIALS), "--output", output)
        one = simulate(monkeypatch, 1, *argv)
        assert one[0] == 3 and one[1]
        assert one[2].startswith("internal invariant breach: equivalence violated in ")
        assert simulate(monkeypatch, 3, *argv) == one


def test_an_error_in_the_parents_chunk_kills_the_workers(monkeypatch):
    seeds = gen_seeds(TRIALS)
    parent = os.getpid()

    def failure(seed):  # the workers would run for a minute
        if os.getpid() != parent:
            time.sleep(60)
        elif seed == seeds[7]:
            raise ValueError("no law")

    fail_at(monkeypatch, failure)
    start = time.monotonic()
    code, out, err = simulate(monkeypatch, 3, "--trials", str(TRIALS))
    assert time.monotonic() - start < 30
    assert (code, out) == (2, "")
    assert err.startswith("error: trial 7 (")


def test_an_interrupt_in_the_parents_chunk_reaps_the_workers(monkeypatch):
    seeds = gen_seeds(TRIALS)
    parent = os.getpid()

    def failure(seed):
        if os.getpid() != parent:
            time.sleep(60)
        elif seed == seeds[7]:
            raise KeyboardInterrupt

    fail_at(monkeypatch, failure)
    with pytest.raises(KeyboardInterrupt):
        simulate(monkeypatch, 3, "--trials", str(TRIALS))


def test_received_takes_only_a_whole_result():
    rows = [(t, "coupling", 2, True, True, True, True) for t in range(40)]
    data = marshal.dumps(rows)
    assert cli._received(io.BytesIO(data)) == rows
    for cut in range(len(data)):
        assert cli._received(io.BytesIO(data[:cut])) is None
