"""`tools/bench_record.py`'s summary: medians, quartiles, ranges, the count
of pairs in which the change was better, in each metric's direction, over
the runs of the two commits asked for, and each end-to-end metric's verdict
on its bound."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _path)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = {"end_to_end": [
    {"name": "items_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]}
SHAS = {"parent": "p0", "change": "c1"}


def _record(seed, side, items, rss, workload="report-csv", sha=None):
    metrics = {"items_per_s": {"value": items}, "peak_rss_mb": {"value": rss}}
    return {"workload": workload, "seed": seed, "side": side, "sha": sha or SHAS[side],
            "metrics": metrics}


def _four_pairs():
    records = []
    for seed, (items, rss) in enumerate([(10, 24.0), (11, 24.2), (12, 24.4), (13, 24.6)]):
        records.append(_record(seed, "parent", items, rss))
        # the change is faster on seeds 1 and 3 and smaller on every seed
        records.append(_record(seed, "change", items + (1 if seed % 2 else -1), rss - 2))
    return records


FOUR_PAIRS = [
    "report-csv: 4 pairs, seeds 0, 1, 2, 3",
    "  items_per_s (higher is better): parent 11.5 [10.75, 12.25] (min 10, max 13); "
    "change 11.5 [10.5, 12.5] (min 9, max 14); change better in 2 of 4",
    "    verdict: unresolved (bound 25%)",
    "  peak_rss_mb (lower is better): parent 24.3 [24.15, 24.45] (min 24, max 24.6); "
    "change 22.3 [22.15, 22.45] (min 22, max 22.6); change better in 4 of 4",
    "    verdict: gain (bound 10%)",
]


def test_summary_counts_pairs_in_each_metrics_direction():
    records = _four_pairs()
    records.append(_record(9, "parent", 99, 1.0))  # no change run: not a pair
    assert bench_record.summary(records, SPEC, SHAS) == FOUR_PAIRS


def test_summary_reads_only_the_commits_asked_for():
    records = _four_pairs()
    # runs of another change on the same seeds, after and before these
    records += [_record(seed, "change", 1000, 1.0, sha="c2") for seed in range(4)]
    records[:0] = [_record(seed, "change", 0, 99.0, sha="c0") for seed in range(4)]
    assert bench_record.summary(records, SPEC, SHAS) == FOUR_PAIRS
    other = bench_record.summary(records, SPEC, {"parent": "p0", "change": "c2"})
    assert other[0] == "report-csv: 4 pairs, seeds 0, 1, 2, 3"
    assert other[3].endswith("change 1 [1, 1] (min 1, max 1); change better in 4 of 4")


def test_summary_says_when_no_run_is_of_either_commit():
    records = [_record(seed, side, 10, 24.0, sha=sha) for seed in range(2)
               for side, sha in (("parent", "p7"), ("change", "c8"))]
    assert bench_record.summary(records, SPEC, SHAS) == [
        "no run of either commit; the file holds runs of p7: 2 as the parent; c8: 2 as the change; "
        "summarize them with --parent p7 --change c8",
    ]
    # a commit that ran on both sides, and two changes: no one pair to name
    records += [_record(seed, "change", 10, 24.0, sha="p7") for seed in range(3)]
    assert bench_record.summary(records, SPEC, SHAS) == [
        "no run of either commit; the file holds runs of p7: 2 as the parent, 3 as the change; "
        "c8: 2 as the change",
    ]
    assert bench_record.summary([], SPEC, SHAS) == ["no run of either commit; the file holds no run"]


def test_summary_defaults_to_the_files_own_pair(tmp_path, monkeypatch, capsys):
    # at the commit that records the file, HEAD~1 holds the change's runs
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "BENCH_7.json").write_text(json.dumps(_four_pairs()))
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda *args: {"HEAD": b"c2\n", "HEAD~1": b"c1\n"}[args[1]])
    assert bench_record.main(["--pr", "7", "--summary"]) == 0
    assert capsys.readouterr().out.splitlines() == ["parent p0, change c1", *FOUR_PAIRS]
    # a commit named on the command line is paired as asked
    assert bench_record.main(["--pr", "7", "--summary", "--change", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "parent c1, change c2"


def test_own_pair_needs_one_commit_per_side():
    assert bench_record.own_pair(_four_pairs()) == SHAS
    assert bench_record.own_pair(_four_pairs() + [_record(5, "change", 1, 1.0, sha="c9")]) is None
    assert bench_record.own_pair([_record(1, "parent", 1, 1.0)]) is None


def test_summary_refuses_a_seed_run_twice_by_one_commit():
    records = _four_pairs() + [_record(2, "parent", 12, 24.4)]
    assert bench_record.summary(records, SPEC, SHAS) == [
        "report-csv: 4 pairs, seeds 0, 1, 2, 3",
        "  not summarized: more than one run on seed 2 parent",
    ]


def test_summary_needs_two_pairs():
    records = [_record(1, "parent", 10, 24.0), _record(1, "change", 11, 22.0)]
    assert bench_record.summary(records, SPEC, SHAS) == ["report-csv: 1 pairs, seeds 1"]


def test_summary_adds_the_startup_metrics_of_the_pairs_that_carry_them():
    records = _four_pairs()
    for r in records[2:]:  # seeds 1 to 3: the change starts 10 ms sooner, 3.5 MB smaller
        shift = {"parent": 0.0, "change": -1.0}[r["side"]]
        r["startup"] = {"version_wall_s": 0.1 + shift / 100, "version_maxrss_mb": 20.0 + 3.5 * shift,
                        "simulate_wall_s": 0.3 + r["seed"] / 100, "simulate_maxrss_mb": 21.0}
    lines = bench_record.summary(records, SPEC, SHAS)
    assert lines[:5] == FOUR_PAIRS
    assert lines[5:] == [
        "  version_wall_s (lower is better): parent 0.1 [0.1, 0.1] (min 0.1, max 0.1); "
        "change 0.09 [0.09, 0.09] (min 0.09, max 0.09); change better in 3 of 3",
        "  version_maxrss_mb (lower is better): parent 20 [20, 20] (min 20, max 20); "
        "change 16.5 [16.5, 16.5] (min 16.5, max 16.5); change better in 3 of 3",
        "  simulate_wall_s (lower is better): parent 0.32 [0.315, 0.325] (min 0.31, max 0.33); "
        "change 0.32 [0.315, 0.325] (min 0.31, max 0.33); change better in 0 of 3",
        "  simulate_maxrss_mb (lower is better): parent 21 [21, 21] (min 21, max 21); "
        "change 21 [21, 21] (min 21, max 21); change better in 0 of 3",
    ]


TEN = list(range(100, 110))  # quartiles 102.25 and 106.75


@pytest.mark.parametrize("metric, parent, change, expected", [
    # better in 10 of 10 by 10, more than the parent's interquartile range of 4.5
    ("items_per_s", TEN, [v + 10 for v in TEN], "gain"),
    # better in 10 of 10, but by 1, less than that range
    ("items_per_s", TEN, [v + 1 for v in TEN], "within bound"),
    # the parent ranges over 50% of its median, but every change run beats every parent run
    ("items_per_s", [60, 61, 62, 63, 64, 96, 97, 98, 99, 100], list(range(101, 111)), "within bound"),
    # median 64.5 against 104.5: 38% worse, past the 25% bound
    ("items_per_s", TEN, [v - 40 for v in TEN], "worse"),
    # lower is better: 20% more memory, past the 10% bound
    ("peak_rss_mb", TEN, [v * 1.2 for v in TEN], "worse"),
    # each side ranges over 80% of its median of 100, and the change wins half the pairs
    ("items_per_s", [60, 140] * 5, [61, 139] * 5, "unresolved"),
], ids=["gain", "within-bound", "wide-but-every-run-better", "worse", "worse-lower-is-better", "unresolved"])
def test_verdict_of_ten_pairs(metric, parent, change, expected):
    def run(seed, side, v):  # the other metric reads 24 on both sides
        return _record(seed, side, v, 24.0) if metric == "items_per_s" else _record(seed, side, 24.0, v)

    records = [run(seed, side, v) for seed, pair in enumerate(zip(parent, change))
               for side, v in zip(("parent", "change"), pair)]
    verdicts = bench_record.summary(records, SPEC, SHAS)[2::2]
    want = {"items_per_s": "within bound", "peak_rss_mb": "within bound", metric: expected}
    assert verdicts == [f"    verdict: {want['items_per_s']} (bound 25%)",
                        f"    verdict: {want['peak_rss_mb']} (bound 10%)"]


def test_reaped_child_reads_its_own_peak_not_its_spawners(tmp_path):
    # the test process holds far more than a bare interpreter; a child that
    # allocates 48 MB reads about that much more than one that allocates none
    ballast = bytearray(64 << 20)
    small = bench_record.reaped(["-c", "pass"], tmp_path)
    large = bench_record.reaped(["-c", "x = bytearray(48 << 20)"], tmp_path)
    assert small["floor_kb"] <= small["maxrss_kb"] < len(ballast) >> 10
    assert 40 << 10 < large["maxrss_kb"] - small["maxrss_kb"] < 56 << 10
    assert 0 < small["wall_s"] < 30 and small["status"] == 0


def test_startup_times_version_and_simulate_children():
    checkout = Path(__file__).resolve().parents[1]
    metrics = bench_record.startup(checkout, seed=3)
    assert list(metrics) == [*bench_record.STARTUP, "cpus"]
    assert all(v > 0 for v in metrics.values())


def test_startup_records_the_cpus_its_children_may_run_on(monkeypatch):
    monkeypatch.setattr(bench_record, "_bench_gen", lambda checkout: FakeGen)
    monkeypatch.setattr(bench_record, "reaped", lambda argv, cwd: {"wall_s": 0.1, "maxrss_kb": 1024})
    monkeypatch.setattr(bench_record, "import_cli_us", lambda checkout: 1)
    monkeypatch.setattr(bench_record.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    metrics = bench_record.startup(Path("checkout"), seed=1)
    assert metrics["cpus"] == 3
    # a count, not a start-up metric: the summary does not compare it
    assert "cpus" not in bench_record.STARTUP


class FakeGen:
    csv_rows = staticmethod(lambda seed, count=6_000: [(seed, count)])
    csv_text = staticmethod(lambda rows: "x,y\n%d,%d\n" % rows[0])


def test_startup_times_a_report_child_on_the_large_csv_of_seed_1(monkeypatch):
    reports = []

    def reaped(argv, cwd):  # each report child reads the CSV of (seed, rows)
        if argv[2] == "report":
            reports.append(Path(argv[3]).read_text())
        return {"wall_s": 0.1 * len(reports), "maxrss_kb": 1024 * len(reports)}

    monkeypatch.setattr(bench_record, "_bench_gen", lambda checkout: FakeGen)
    monkeypatch.setattr(bench_record, "reaped", reaped)
    monkeypatch.setattr(bench_record, "import_cli_us", lambda checkout: 1)
    metrics = bench_record.startup(Path("checkout"), seed=7)
    assert reports == ["x,y\n7,6000\n", "x,y\n1,60000\n"]
    assert (metrics["report_large_wall_s"], metrics["report_large_maxrss_mb"]) == (0.2, 2.0)
    assert (metrics["report_wall_s"], metrics["report_maxrss_mb"]) == (0.1, 1.0)


def test_startup_in_a_fresh_export_compiles_from_source_and_writes_no_bytecode(tmp_path, monkeypatch):
    # the timed children run as on the benchmark host: every one compiles
    # src/varlab from source, so none leaves a __pycache__ behind, whatever
    # the recorder's own environment says
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    root = Path(__file__).resolve().parents[1]
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bench").mkdir()
    shutil.copy2(root / "bench" / "gen.py", tmp_path / "bench")
    metrics = bench_record.startup(tmp_path, seed=5)
    assert list(metrics) == [*bench_record.STARTUP, "cpus"]
    assert metrics["report_maxrss_mb"] > 0 and type(metrics["import_cli_us"]) is int
    assert not list(tmp_path.rglob("__pycache__"))


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       553 |      21431 |   varlab
import time:        90 |         90 |     varlab.cli_helper
import time:     10845 |      37758 | varlab.cli
import time:        12 |         12 | varlab.cli.extra
"""


def test_import_time_is_the_cumulative_of_the_top_level_line(monkeypatch):
    def run(argv, **kwargs):
        assert argv[1:] == ["-X", "importtime", "-c", "import varlab.cli"]
        assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        return subprocess.CompletedProcess(argv, 0, "", IMPORTTIME)

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    assert bench_record.import_cli_us(Path("checkout")) == 37758
