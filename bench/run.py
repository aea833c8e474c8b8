"""varlab benchmark: three seeded workloads, checked outputs, one JSON result.

Run from the repository root:

    python3 bench/run.py --workload report-csv --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

    report-csv       `python -m varlab report` on a generated 6,000-row CSV
    simulate-trials  `python -m varlab simulate --kind mixed` with seeded seeds
    crosscheck       min-copula, convex-order-max and convex-order checks,
                     in a child process, over seeded generated couplings
    all              the three above, one after another

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 it carries the per-layer metrics, medians over a few traced
repetitions that alternate with untraced ones.
The last stdout line is the JSON result; the lines before it are a stamp
(Python, cores, git SHA, lines of code, input properties) and a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import gen
import hostspeed
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = str(BENCH / "worker.py")
# Every child must end before the run's own 180 s limit.
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 5
CROSS_SETUP_REPEATS = 3
# Reference loops run between two CLI processes (about 0.15 s).
CLI_REF_LOOPS = 3
# A traced run alternates this many untraced and traced repetitions.
TRACE_PAIRS = 3
WORKLOADS = ("report-csv", "simulate-trials", "crosscheck")


class Run:
    """State of one benchmark run: deadline, child environment, failure tally."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # messages of the first failures

    def record(self, errors: list[str], what: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{what}: {'; '.join(errors[:3])}")

    def child(self, args: list[str], out: Path, ready_line: bool = False) -> dict:
        """Run `python args...` with stdout to ``out``.

        Returns the exit code, the wall time from start to reaped, the time
        until the first stdout line when ``ready_line`` is set, and the
        child's own peak resident memory. The peak is polled from
        /proc/<pid>/status (VmHWM) because a child's ru_maxrss starts at
        the resident size of the parent that spawned it.
        """
        err = out.with_suffix(".stderr")
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdout=subprocess.PIPE if ready_line else fout,
                stderr=ferr,
                env=self.env,
                cwd=ROOT,
            )
            peak_kb = [0]
            done = threading.Event()
            watcher = threading.Thread(target=_watch_peak, args=(proc.pid, peak_kb, done))
            watcher.start()
            ready = None
            try:
                if ready_line:
                    first = proc.stdout.readline()
                    ready = time.perf_counter() - t0
                    fout.write(first)
                    fout.write(proc.stdout.read())
                    proc.stdout.close()
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
                wall = time.perf_counter() - t0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                done.set()
                watcher.join()
        if proc.returncode != 0:
            print(f"child {args[:3]} exited {proc.returncode}:\n{err.read_text(errors='replace')[-2000:]}",
                  file=sys.stderr)
        return {"code": proc.returncode, "wall": wall, "ready": ready,
                "rss_mb": peak_kb[0] / 1024.0, "stdout": out.read_bytes()}

    def cli_setup(self) -> float:
        """Median start-up of `python -m varlab --version`, normalized by bare starts."""
        normalize = hostspeed.Normalizer(2, hostspeed.interpreter_start, hostspeed.START_NOMINAL_S)
        walls = []
        for _ in range(SETUP_REPEATS):
            res = self.child(["-m", "varlab", "--version"], WORK / "version.out")
            self.record(checks.check_version(res["code"], res["stdout"]), "--version")
            walls.append(normalize(res["wall"]))
        return statistics.median(walls)

    def import_split(self) -> dict[str, float]:
        """Cumulative import seconds of varlab and varlab.gaussian (median of 3)."""
        samples: dict[str, list[float]] = {"varlab.import_s": [], "gaussian.import_s": []}
        for _ in range(3):
            self.child(["-X", "importtime", "-c", "import varlab"], WORK / "importtime.out")
            for line in (WORK / "importtime.stderr").read_text().splitlines():
                parts = [p.strip() for p in line.split("|")]
                if len(parts) != 3 or not parts[1].isdigit():
                    continue
                key = {"varlab": "varlab.import_s", "varlab.gaussian": "gaussian.import_s"}.get(parts[2])
                if key:
                    samples[key].append(int(parts[1]) / 1e6)
        return {k: statistics.median(v) for k, v in samples.items()}


def _watch_peak(pid: int, peak_kb: list[int], done: threading.Event) -> None:
    """Keep the largest VmHWM of process ``pid`` in ``peak_kb[0]`` until ``done``."""
    while not done.wait(0.01):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb[0] = max(peak_kb[0], int(line.split()[1]))
        except OSError:
            return


def _traced_metrics(run: Run, pairs: list[tuple[float, float, Path]]) -> dict:
    """Per-layer metrics of TRACE_PAIRS alternating (untraced, traced) repetitions.

    ``pairs`` holds (untraced seconds, traced seconds, spans path) per pair,
    both times host-speed normalized. Each metric is its median over the
    traced repetitions; trace.overhead_frac compares the median times.
    """
    samples = []
    for _, _, path in pairs:
        data = json.loads(path.read_text())
        samples.append(spans.layer_metrics(data["spans"], data["counts"]))
    metrics = {k: statistics.median(m[k] for m in samples) for k in samples[0]}
    metrics.update(run.import_split())
    metrics["trace.overhead_frac"] = (statistics.median(t for _, t, _ in pairs)
                                      / statistics.median(u for u, _, _ in pairs) - 1.0)
    return metrics


def _cli_workload(run: Run, trace: bool, argv_for, check, items: int) -> dict:
    """Shared loop of the two CLI workloads.

    ``argv_for(k)`` gives the varlab arguments of repetition k and
    ``check(k, code, stdout)`` its correctness errors.
    """
    out = WORK / "cli.out"
    if trace:
        normalize = hostspeed.Normalizer(CLI_REF_LOOPS)
        pairs = []
        for k in range(TRACE_PAIRS):
            plain = run.child(["-m", "varlab", *argv_for(0)], out)
            run.record(check(0, plain["code"], plain["stdout"]), "untraced repetition")
            plain_s = normalize(plain["wall"])
            spans_path = WORK / f"spans{k}.json"
            traced = run.child([WORKER, "cli", str(spans_path), *argv_for(0)], out)
            run.record(check(0, traced["code"], traced["stdout"]), "traced repetition")
            pairs.append((plain_s, normalize(traced["wall"]), spans_path))
        return _traced_metrics(run, pairs)

    setup = run.cli_setup()
    normalize = hostspeed.Normalizer(CLI_REF_LOOPS)
    rates, raw_rates, rss = [], [], []
    start = time.perf_counter()
    last = 0.0
    # Start no repetition that would end past the run's seconds.
    while not rates or time.perf_counter() - start + last <= run.seconds:
        k = len(rates)
        t0 = time.perf_counter()
        res = run.child(["-m", "varlab", *argv_for(k)], out)
        run.record(check(k, res["code"], res["stdout"]), f"repetition {k}")
        rates.append(items / normalize(res["wall"]))
        raw_rates.append(items / res["wall"])
        rss.append(res["rss_mb"])
        last = time.perf_counter() - t0
    return {"items_per_s": statistics.median(rates), "setup_s": setup,
            "peak_rss_mb": statistics.median(rss), "repetitions": len(rates),
            "raw_items_per_s": statistics.median(raw_rates)}


def report_csv(run: Run, trace: bool) -> tuple[dict, dict]:
    rows = gen.csv_rows(run.seed)
    path = WORK / "report.csv"
    path.write_text(gen.csv_text(rows), encoding="utf-8")
    expected = gen.expected_report(rows)
    metrics = _cli_workload(
        run, trace,
        lambda k: ["report", str(path)],
        lambda k, code, stdout: checks.check_report(code, stdout, expected),
        len(rows),
    )
    return metrics, gen.csv_properties(rows)


def simulate_trials(run: Run, trace: bool) -> tuple[dict, dict]:
    seeds: list[int] = []
    stream = gen.simulate_seeds(run.seed)

    def argv_for(k: int) -> list[str]:
        while len(seeds) <= k:
            seeds.append(next(stream))
        return ["simulate", "--kind", "mixed", "--max-n", str(gen.SIM_MAX_N),
                "--max-atoms", str(gen.SIM_MAX_ATOMS), "--trials", str(gen.SIM_TRIALS),
                "--seed", str(seeds[k])]

    metrics = _cli_workload(
        run, trace, argv_for,
        lambda k, code, stdout: checks.check_simulate(code, stdout, seeds[k], gen.SIM_TRIALS),
        gen.SIM_TRIALS,
    )
    props = {"trials_per_invocation": gen.SIM_TRIALS, "max_n": gen.SIM_MAX_N,
             "max_atoms": gen.SIM_MAX_ATOMS, "varlab_seeds": seeds}
    return metrics, props


def crosscheck(run: Run, trace: bool) -> tuple[dict, dict]:
    def worker(seconds: float, setup_only: bool = False, spans_path: str = "-") -> dict:
        args = [WORKER, "crosscheck", str(run.seed), str(seconds), "1" if setup_only else "0", spans_path]
        res = run.child(args, WORK / "crosscheck.out", ready_line=True)
        if setup_only:
            run.record([] if res["code"] == 0 else [f"exit {res['code']}"], "crosscheck setup")
            return res
        try:
            summary = res["summary"] = json.loads(res["stdout"].splitlines()[-1])
        except (IndexError, ValueError):
            raise RuntimeError(f"crosscheck worker printed no summary (exit {res['code']})") from None
        run.attempted += summary["attempted"]
        run.failed += summary["failed"]
        run.errors += [f"crosscheck instance: {e}" for e in summary["errors"]]
        return res

    def checked_s(res: dict) -> float:
        return sum(norm for _, _, norm in res["summary"]["segments"])

    props = {"setup_instances": gen.CROSS_COUNT, "max_n": gen.CROSS_MAX_N,
             "max_atoms": gen.CROSS_MAX_ATOMS}
    if trace:
        # seconds=0: each worker checks the set-up's instances once.
        pairs = []
        for k in range(TRACE_PAIRS):
            spans_path = WORK / f"spans{k}.json"
            plain_s = checked_s(worker(0.0))
            pairs.append((plain_s, checked_s(worker(0.0, spans_path=str(spans_path))), spans_path))
        return _traced_metrics(run, pairs), props

    normalize = hostspeed.Normalizer(CLI_REF_LOOPS)
    setups = [normalize(worker(0.0, setup_only=True)["ready"]) for _ in range(CROSS_SETUP_REPEATS)]
    main = worker(run.seconds)
    segments = main["summary"]["segments"]
    return {"items_per_s": statistics.median(n / norm for n, _, norm in segments),
            "setup_s": statistics.median(setups), "peak_rss_mb": main["rss_mb"],
            "repetitions": len(segments),
            "raw_items_per_s": statistics.median(n / raw for n, raw, _ in segments)}, props


RUNNERS = {"report-csv": report_csv, "simulate-trials": simulate_trials, "crosscheck": crosscheck}


def lines_of_code() -> dict[str, int]:
    """Non-blank lines per module under src/varlab, as `<module>.loc`."""
    out = {}
    for path in sorted((SRC / "varlab").glob("*.py")):
        name = "varlab" if path.stem == "__init__" else path.stem.strip("_")
        out[f"{name}.loc"] = sum(1 for line in path.read_text().splitlines() if line.strip())
    return out


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    run = Run(seed, seconds)
    metrics, props = RUNNERS[name](run, trace)
    loc = lines_of_code()
    stamp = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
             "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
             "git_sha": git_sha(), "loc": loc, "inputs": props,
             "repetitions": metrics.get("repetitions", 1),
             "raw_items_per_s": metrics.get("raw_items_per_s")}
    print(json.dumps({"stamp": stamp}))

    listed = spec["per_layer" if trace else "end_to_end"]
    if trace:
        metrics = {**dict.fromkeys((m["name"] for m in listed if m["name"].endswith(".loc")), 0),
                   **metrics, **loc}
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"{name}: no value for metrics {missing}")
    failed = run.failed
    for error in run.errors[:5]:
        print(f"{name}: FAILED {error}", file=sys.stderr)
    summary = " ".join(f"{m['name']}={metrics[m['name']]:.6g} {m['unit']}" for m in listed)
    print(f"{name}: {summary} failed_frac={failed / max(run.attempted, 1):.6g} "
          f"({failed}/{run.attempted})")
    return {
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "varlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no varlab sources (src/varlab) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
