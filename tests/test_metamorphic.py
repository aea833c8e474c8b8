"""Metamorphic relations of the all-levels decision: transformations of the
input whose effect on the output is known, so the program is checked against
itself, with no oracle, at any size.

- Permuting coordinates permutes the marginal VaRs and leaves the levels, the
  VaR of the sum, the comonotonic verdict and both theorem flags unchanged.
- A strictly increasing affine map of each coordinate, each with its own
  positive slope, leaves the comonotonic verdict and both flags unchanged and
  maps each marginal's quantile at each of its breakpoints.
- Shuffling the rows of a CSV, respelling its numbers and ending its lines
  with CRLF leave the law, hence every byte `report` prints, unchanged.
"""

import importlib.util
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from harness import run_main, write
from varlab import (
    GeneratorSpec,
    JointDiscreteDistribution,
    is_comonotonic,
    random_comonotonic,
    random_coupling,
    subadditivity_report,
)

# (generator, seed, dimension): both kinds, n from 2 to 4; on none of these
# seeds is `_permutation` the identity
SEEDED = [
    (make, seed, n)
    for make in (random_comonotonic, random_coupling)
    for seed, n in ((5, 2), (17, 3), (40, 3), (101, 4), (256, 4))
]
# (slope, intercept) of the map of each coordinate: every slope differs
MAPS = ((F(3), F(1, 7)), (F(1, 7), F(-2)), (F(5, 2), F(0)), (F(2, 9), F(3, 4)))


def _law(make, seed, n):
    return make(seed, GeneratorSpec(n=n, max_atoms=5))


def _permutation(seed, n):
    perm = random.Random(seed).sample(range(n), n)
    assert perm != sorted(perm)
    return perm


def _mapped(j, maps):
    """The law of ``(f_1(X_1), ..., f_n(X_n))`` for the ``(slope, intercept)``
    maps f_i, from the lattice fields of ``j``: the same counts on the mapped
    points."""
    return JointDiscreteDistribution.from_weighted_points(
        (tuple(a * F(x, j.coord_denom) + b for x, (a, b) in zip(point, maps)), c)
        for point, c in zip(j.xs, j.counts)
    )


def _csv(j):
    """``j`` as a CSV of "num/den" cells and an integer weight column."""
    header = ",".join([f"x{i + 1}" for i in range(j.dimension)] + ["weight"])
    lines = [",".join([f"{x}/{j.coord_denom}" for x in point] + [str(c)]) for point, c in zip(j.xs, j.counts)]
    return "\n".join([header, *lines]) + "\n"


def _run(*argv):
    rc, out, err = run_main(list(argv))
    assert (rc, err) == (0, "")
    return json.loads(out)


def _flags(report):
    return report.subadditive_everywhere, report.additive_everywhere


@pytest.mark.parametrize("make, seed, n", SEEDED)
def test_permuting_coordinates_permutes_the_marginal_vars(make, seed, n, tmp_path):
    j = _law(make, seed, n)
    perm = _permutation(seed, n)
    jp = JointDiscreteDistribution.from_weighted_points(
        (tuple(F(point[i], j.coord_denom) for i in perm), c) for point, c in zip(j.xs, j.counts)
    )
    assert jp.marginals() == tuple(j.marginals()[i] for i in perm)
    before, after = subadditivity_report(j), subadditivity_report(jp)
    assert after.breakpoints == before.breakpoints
    for v, w in zip(before.verdicts, after.verdicts, strict=True):
        assert w._replace(marginal_vars=()) == v._replace(marginal_vars=())
        assert w.marginal_vars == tuple(v.marginal_vars[i] for i in perm)
    assert _flags(after) == _flags(before)
    assert is_comonotonic(jp).comonotonic == is_comonotonic(j).comonotonic == before.subadditive_everywhere

    laws = (("j.csv", j), ("jp.csv", jp))
    before, after = (_run("report", write(tmp_path, name, _csv(law))) for name, law in laws)
    assert after["theorem_flags"] == before["theorem_flags"]
    assert after["comonotonic"]["comonotonic"] == before["comonotonic"]["comonotonic"]
    assert after["marginals_summary"] == [
        {**before["marginals_summary"][i], "column": k} for k, i in enumerate(perm, 1)
    ]
    for v, w in zip(before["var_table"], after["var_table"], strict=True):
        assert {**w, "marginal_vars": None} == {**v, "marginal_vars": None}
        assert w["marginal_vars"] == [v["marginal_vars"][i] for i in perm]


@pytest.mark.parametrize("make, seed, n", SEEDED)
def test_increasing_affine_maps_keep_the_verdict_and_map_the_quantiles(make, seed, n, tmp_path):
    j = _law(make, seed, n)
    maps = MAPS[:n]
    jm = _mapped(j, maps)
    before, after = subadditivity_report(j), subadditivity_report(jm)
    assert _flags(after) == _flags(before)
    assert is_comonotonic(jm).comonotonic == is_comonotonic(j).comonotonic == before.subadditive_everywhere
    for m, mm, (a, b) in zip(j.marginals(), jm.marginals(), maps):
        assert mm.cumulative == m.cumulative
        for level in m.cumulative[:-1]:
            assert mm.quantile(level) == a * m.quantile(level) + b

    levels = sorted({level for m in j.marginals() for level in m.cumulative[:-1]}) or [F(1, 2)]
    alphas = [arg for level in levels for arg in ("--alpha", str(level))]
    paths = [write(tmp_path, name, _csv(law)) for name, law in (("j.csv", j), ("jm.csv", jm))]
    assert _run("report", paths[0])["theorem_flags"] == _run("report", paths[1])["theorem_flags"]
    before, after = (_run("var", path, *alphas)["var_table"] for path in paths)
    for level, v, w in zip(levels, before, after, strict=True):
        assert v["alpha"] == w["alpha"] == str(level)
        mapped = [a * F(x) + b for x, (a, b) in zip(v["marginal_vars"], maps)]
        assert [F(x) for x in w["marginal_vars"]] == mapped


def _bench_gen():
    """bench/gen.py, loaded read-only by path; it does not import varlab."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shuffled_respelled_crlf_csv_reports_the_same_bytes(tmp_path):
    gen = _bench_gen()
    rows = gen.csv_rows(1)
    text = gen.csv_text(rows)
    header = text.split("\n", 1)[0]
    shuffled = rows[:]
    random.Random(1).shuffle(shuffled)
    # each cent amount as "1234/100", "12.340" or "12.34", by row and column
    spellings = (lambda c: f"{c}/100", lambda c: f"{gen.cents(c)}0", gen.cents)
    lines = [",".join(spellings[(k + i) % 3](c) for i, c in enumerate(row)) for k, row in enumerate(shuffled)]
    respelled = tmp_path / "respelled.csv"
    respelled.write_bytes("".join(f"{line}\r\n" for line in [header, *lines]).encode())

    original = run_main(["report", write(tmp_path, "bench.csv", text)])
    assert original[0] == 0
    assert run_main(["report", str(respelled)]) == original
