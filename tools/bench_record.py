"""Record alternating parent/change benchmark runs in BENCH_<pr>.json.

Run from anywhere in the repository:

    python3 tools/bench_record.py --pr N --workload report-csv --first-seed 101
    python3 tools/bench_record.py --pr N --summary --parent PARENT --change CHANGE

The parent and the change are two commits (by default HEAD~1 and HEAD),
exported with `git archive` into a temporary directory, so the benchmark
sees exactly the committed files and no worktree is left behind. It runs
`PAIRS` pairs per workload. Pair k runs `python3 bench/run.py --workload W
--seed S --seconds T --trace 0` in both exports on seed first_seed + k, the
parent first when k is even and the change first when k is odd; T is the
`run_seconds` of BENCHMARK.json. Each run's result, the last line
`bench/run.py` prints, is appended to BENCH_<pr>.json at the repository
root with the workload, seed, side, commit, Python version and core count;
the file is rewritten after every run. After each run the record also gets
the `STARTUP` times of that side: one `python -m varlab --version` child, one
`simulate` child and one `report` child on the pair's seed, and one `report`
child on the `LARGE_ROWS`-row CSV of seed 1, each reaped by a
blocking `os.wait4`, so a start-up gain smaller than the 50-ms step in which
`bench/run.py` polls its children still shows, and the `-X importtime`
cumulative microseconds of `import varlab.cli`, and the number of CPUs the
children may run on, the bound on `simulate`'s workers. Every such child runs with
`PYTHONDONTWRITEBYTECODE=1`, as the benchmark host does, so it compiles
`src/varlab` from source. Last, and alone with
--summary, it prints per workload and metric (the end-to-end ones of
BENCHMARK.json, then `STARTUP`) the median and quartiles of each side and in
how many pairs the change was better, and after each end-to-end metric its
`verdict` against that metric's bound. The summary reads only the runs of the
two commits asked for, so the file may hold runs of other commits.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10  # pairs per workload
# Start-up metrics of each record, all lower-is-better: wall seconds and peak
# resident MB of one `--version`, one `simulate`, one `report` and one large
# `report` child, and the cumulative microseconds of `import varlab.cli` under
# `-X importtime`.
STARTUP = ("version_wall_s", "version_maxrss_mb", "simulate_wall_s", "simulate_maxrss_mb",
           "report_wall_s", "report_maxrss_mb", "report_large_wall_s", "report_large_maxrss_mb",
           "import_cli_us")
# Rows of the large `report` child's CSV, of seed 1: ten times the bench's,
# the path where the per-law tables of a `report` are largest.
LARGE_ROWS = 60_000
# The bench's simulate-trials invocation: 1,000 trials of up to 4 dimensions
# and 4 atoms per marginal.
SIMULATE = ("simulate", "--kind", "mixed", "--max-n", "4", "--max-atoms", "4", "--trials", "1000")
# A child's ru_maxrss starts at the peak resident size of the process it was
# spawned from, so each timed child is spawned by this bare interpreter (no
# site, isolated), with its stdout to /dev/null. The spawner prints the
# child's wall seconds, its ru_maxrss and its wait status, and its own
# VmHWM, the floor under that ru_maxrss, in kB.
SPAWNER = """
import json, os, sys, time
with open("/proc/self/status") as fh:
    floor = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "status": status, "floor_kb": floor}))
"""


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str, directory: Path) -> None:
    """The files of commit ``rev``, written under ``directory``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(directory)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result record of one untraced `bench/run.py` run in ``checkout``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child_env(checkout: Path) -> dict:
    """The environment of a timed child: ``checkout/src`` on its path, and no
    bytecode written, as on the benchmark host."""
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")


def reaped(argv: list[str], cwd: Path) -> dict:
    """One `python argv` child in ``cwd`` in the `_child_env` of ``cwd``, spawned
    by `SPAWNER` and reaped by a blocking `os.wait4`: wall seconds, ru_maxrss
    and wait status of the child, and the spawner's VmHWM, ``floor_kb``,
    below which that ru_maxrss cannot read."""
    spawner = [sys.executable, "-S", "-I", "-c", SPAWNER, *argv]
    proc = subprocess.run(spawner, cwd=cwd, env=_child_env(cwd), capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout)
    if result["status"] != 0:
        raise SystemExit(f"{' '.join(argv)} in {cwd} ended with wait status {result['status']}")
    return result


def import_cli_us(checkout: Path) -> int:
    """The `-X importtime` cumulative microseconds of `import varlab.cli` in
    a child of ``checkout``: its top-level line, under which the `varlab`
    package and every module it imports are nested."""
    argv = [sys.executable, "-X", "importtime", "-c", "import varlab.cli"]
    proc = subprocess.run(argv, cwd=checkout, env=_child_env(checkout), capture_output=True, text=True,
                          check=True)
    _, cumulative, name = next(line.split("|") for line in proc.stderr.splitlines()
                               if line.startswith("import time:") and line.endswith("| varlab.cli"))
    return int(cumulative)


def _bench_gen(checkout: Path):
    """``checkout``'s bench/gen.py, loaded by path; it does not import varlab."""
    spec = importlib.util.spec_from_file_location("bench_gen", checkout / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def startup(checkout: Path, seed: int) -> dict:
    """The `STARTUP` metrics of ``checkout``: one `--version` child, one
    `SIMULATE` child on ``seed``, one `report` child on the CSV that
    ``checkout``'s bench/gen.py writes for ``seed`` and one on the
    `LARGE_ROWS` rows it writes for seed 1, and `import_cli_us`;
    then ``cpus``, the number of CPUs those children may run on, which
    bounds the workers `simulate` forks. The `simulate` child's ru_maxrss is
    the largest of the child's and of its reaped workers'."""
    gen = _bench_gen(checkout)
    metrics = {}
    with tempfile.TemporaryDirectory(prefix="varlab-startup-") as tmp:
        csv_path, large_path = Path(tmp, "report.csv"), Path(tmp, "report_large.csv")
        csv_path.write_text(gen.csv_text(gen.csv_rows(seed)), encoding="utf-8")
        large_path.write_text(gen.csv_text(gen.csv_rows(1, LARGE_ROWS)), encoding="utf-8")
        for name, argv in (("version", ["--version"]), ("simulate", [*SIMULATE, "--seed", str(seed)]),
                           ("report", ["report", str(csv_path)]),
                           ("report_large", ["report", str(large_path)])):
            result = reaped(["-m", "varlab", *argv], checkout)
            metrics[f"{name}_wall_s"] = result["wall_s"]
            metrics[f"{name}_maxrss_mb"] = result["maxrss_kb"] / 1024
    metrics["import_cli_us"] = import_cli_us(checkout)
    metrics["cpus"] = len(os.sched_getaffinity(0))
    return metrics


def record_pairs(path: Path, shas: dict, workloads: list, seeds: list, seconds: float) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    with tempfile.TemporaryDirectory(prefix="varlab-bench-") as tmp:
        for side in SIDES:
            export(shas[side], Path(tmp, side))
        for workload in workloads:
            for k, seed in enumerate(seeds):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    result = run_bench(Path(tmp, side), workload, seed, seconds)
                    records.append({"workload": workload, "seed": seed, "seconds": seconds,
                                    "side": side, "sha": shas[side],
                                    "python": platform.python_version(),
                                    "nproc": len(os.sched_getaffinity(0)), **result,
                                    "startup": startup(Path(tmp, side), seed)})
                    path.write_text(json.dumps(records, indent=1) + "\n")
                    values = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
                    print(f"{workload} seed {seed} {side}: {values}", flush=True)


def verdict(pairs: list[tuple], better: str, bound: float) -> str:
    """What the (parent, change) ``pairs`` of one end-to-end metric show,
    ``bound`` being the largest relative worsening it may take:

    - ``gain``: the change is better in at least nine tenths of the pairs,
      ties counting for neither, and its median is better than the parent's
      by more than the distance between the parent's quartiles;
    - ``worse``: the change's median is worse than the parent's by more than
      ``bound`` times the parent's median;
    - ``unresolved``: a side's range, max minus min, is wider than ``bound``
      times its median, and not every run of the change is better than
      every run of the parent;
    - ``within bound`` otherwise.
    """
    sign = 1 if better == "higher" else -1  # so that higher is better below
    parent, change = ([sign * v for v in values] for values in zip(*pairs))
    wins = sum(c > p for p, c in zip(parent, change))
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = statistics.median(change) - median
    if 10 * wins >= 9 * len(pairs) and gain > q3 - q1:
        return "gain"
    if -gain > bound * abs(median):
        return "worse"
    wide = any(max(v) - min(v) > bound * abs(statistics.median(v)) for v in (parent, change))
    if wide and not min(change) > max(parent):
        return "unresolved"
    return "within bound"


def summary(records: list, spec: dict, shas: dict) -> list[str]:
    """Per workload and metric, the end-to-end ones of ``spec`` and then the
    `STARTUP` ones of the pairs whose runs carry them: each side's median,
    quartiles and range, and in how many of the (workload, seed) pairs the
    change was better, and for an end-to-end metric the `verdict` on its
    ``bound``. Only the runs of commit ``shas[side]`` count for a side. A
    workload needs two pairs, and is not summarized if a seed of a pair has
    more than one run of a side's commit, since which one pairs is then
    unknown."""
    metrics = [(m["name"], m["better"], m["bound"], lambda r, name=m["name"]: r["metrics"][name]["value"])
               for m in spec["end_to_end"]]
    metrics += [(name, "lower", None, lambda r, name=name: r.get("startup", {}).get(name))
                for name in STARTUP]
    lines = []
    records = [r for r in records if r["sha"] == shas[r["side"]]]
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs: dict[tuple, list] = {}
        for r in records:
            if r["workload"] == workload:
                runs.setdefault((r["seed"], r["side"]), []).append(r)
        seeds = sorted({seed for seed, side in runs if all((seed, s) in runs for s in SIDES)})
        lines.append(f"{workload}: {len(seeds)} pairs, seeds {', '.join(map(str, seeds))}")
        repeated = [f"seed {seed} {side}" for seed in seeds for side in SIDES if len(runs[seed, side]) > 1]
        if repeated:
            lines.append(f"  not summarized: more than one run on {', '.join(repeated)}")
            continue
        if len(seeds) < 2:
            continue
        for name, better, bound, value in metrics:
            pairs = [tuple(value(runs[seed, side][0]) for side in SIDES) for seed in seeds]
            pairs = [pair for pair in pairs if None not in pair]
            if len(pairs) < 2:
                continue
            parts = []
            for side, values in zip(SIDES, zip(*pairs)):
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                parts.append(f"{side} {median:.4g} [{q1:.4g}, {q3:.4g}] "
                             f"(min {min(values):.4g}, max {max(values):.4g})")
            wins = sum((c > p) if better == "higher" else (c < p) for p, c in pairs)
            lines.append(f"  {name} ({better} is better): {'; '.join(parts)}; "
                         f"change better in {wins} of {len(pairs)}")
            if bound is not None:
                lines.append(f"    verdict: {verdict(pairs, better, bound)} (bound {bound:.0%})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the file is BENCH_<pr>.json")
    parser.add_argument("--change", default="HEAD", help="commit of the change (default: HEAD)")
    parser.add_argument("--parent", help="commit of the parent (default: the change's first parent)")
    parser.add_argument("--workload", action="append",
                        choices=("report-csv", "simulate-trials", "crosscheck"))
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair (default: 1)")
    parser.add_argument("--summary", action="store_true", help="only summarize the existing file")
    args = parser.parse_args(argv)

    path = ROOT / f"BENCH_{args.pr}.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    revs = {"parent": args.parent or f"{args.change}~1", "change": args.change}
    shas = {side: git("rev-parse", rev).decode().strip() for side, rev in revs.items()}
    if not args.summary:
        seeds = list(range(args.first_seed, args.first_seed + PAIRS))
        workloads = args.workload or ["report-csv", "simulate-trials", "crosscheck"]
        record_pairs(path, shas, workloads, seeds, spec["run_seconds"])
    print(f"parent {shas['parent']}, change {shas['change']}")
    print("\n".join(summary(json.loads(path.read_text()), spec, shas)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
