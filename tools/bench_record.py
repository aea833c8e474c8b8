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
the file is rewritten after every run. Last, and alone with --summary, it
prints per workload and end-to-end metric of BENCHMARK.json the median and
quartiles of each side and in how many pairs the change was better. The
summary reads only the runs of the two commits asked for, so the file may
hold runs of other commits.
"""

from __future__ import annotations

import argparse
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
                                    "nproc": len(os.sched_getaffinity(0)), **result})
                    path.write_text(json.dumps(records, indent=1) + "\n")
                    values = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
                    print(f"{workload} seed {seed} {side}: {values}", flush=True)


def summary(records: list, spec: dict, shas: dict) -> list[str]:
    """Per workload and end-to-end metric: each side's median, quartiles and
    range, and in how many of the (workload, seed) pairs the change was
    better. Only the runs of commit ``shas[side]`` count for a side. A
    workload needs two pairs, and is not summarized if a seed of a pair has
    more than one run of a side's commit, since which one pairs is then
    unknown."""
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
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {side: [runs[seed, side][0]["metrics"][name]["value"] for seed in seeds]
                      for side in SIDES}
            parts = []
            for side in SIDES:
                q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
                parts.append(f"{side} {median:.4g} [{q1:.4g}, {q3:.4g}] "
                             f"(min {min(values[side]):.4g}, max {max(values[side]):.4g})")
            pairs = zip(values["parent"], values["change"])
            better = sum((c > p) if higher else (c < p) for p, c in pairs)
            lines.append(f"  {name} ({metric['better']} is better): {'; '.join(parts)}; "
                         f"change better in {better} of {len(seeds)}")
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
