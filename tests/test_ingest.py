"""Differential tests of CSV ingestion: `varlab report` against the row-wise
reference `fraction_oracle.ingest_rows`.

On generated CSV texts, with and without header and weight flags, `report`
must read the reference's law (its input digest, and `ingest_csv`'s points)
or exit 2 with the reference's error, byte for byte. The texts mix blank and
whitespace-only lines, `\\r` and `\\r\\n` line ends, quoted multi-line cells,
repeated cells and rows, mixed denominators, junk, ragged rows, nonpositive
weights and denominators large enough to pass either lattice bound. The
explicit cases pin the order in which the errors win, one pair at a time.
"""

import hashlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import fraction_oracle as oracle
from harness import run_main
from varlab import cli
from varlab.cli import ingest_csv
from varlab.distributions import JointDiscreteDistribution

# Three denominators of about 1,200 bits each: the lcm of any two is within
# MAX_SCALE_BITS (3,322), that of all three is not.
BIG = [f"1/{d}" for d in (3**760, 5**520, 7**430)]

NUMBERS = ["0", "1", "-3", "0.5", "2.25", "1/3", "-2/7", "1e2", "+.5", " 7 ", "1_0", "3."]
JUNK = ["abc", "", "1/0", "1e5000", "--1", "0x1"]
WEIGHTS = ["1", "2", "1/2", "3e1", "0.25", "4"]
BAD_WEIGHTS = ["0", "-1", "0/5", "w"]
# with "4", two of these weights make a probability denominator past the bound
HUGE_WEIGHTS = ["4e1000", "1e1000"]


def _digest(points):
    """`report`'s input digest of canonical `Fraction` points."""
    def text(x):
        return f"{x.numerator}/{x.denominator}"
    lines = "".join(f"{';'.join(map(text, coords))}|{text(p)}\n" for coords, p in points)
    return hashlib.sha256(lines.encode()).hexdigest()


def _flags(has_header, weight_column):
    flags = {None: [], True: ["--header"], False: ["--no-header"]}[has_header]
    return flags + ([] if weight_column is None else ["--weight-column", weight_column])


def check_against_reference(text, has_header=None, weight_column=None):
    """Run `report` on ``text`` and compare with the reference; return the
    error message both give, or None when both read a law."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in.csv")
        path.write_bytes(text.encode())
        try:
            expected = oracle.ingest_rows(path, has_header, weight_column)
        except ValueError as exc:
            expected = str(exc)
        rc, out, err = run_main(["report", str(path), *_flags(has_header, weight_column)])
        if isinstance(expected, str):
            assert (rc, out, err) == (2, "", f"error: {expected}\n")
            return expected.replace(str(path), "PATH")
        assert (rc, err) == (0, "")
        assert json.loads(out)["input_digest"] == _digest(expected)
        assert ingest_csv(path, has_header=has_header, weight_column=weight_column).points == expected
        return None


@st.composite
def csv_cases(draw):
    """(text, has_header, weight_column) of a small, often faulty CSV."""
    ncols = draw(st.integers(1, 3))
    wcol = draw(st.none() | st.integers(0, ncols - 1)) if ncols > 1 else None

    def pooled(*texts):  # a small pool makes cells, and so rows, repeat
        cell = st.sampled_from([t for group in texts for t in group])
        return st.sampled_from(draw(st.lists(cell, min_size=1, max_size=3))) | cell

    # a file without faults reads a law or passes a lattice bound
    faults = draw(st.booleans())
    loss = pooled(NUMBERS * 3, BIG * 3, JUNK * faults)
    weight = pooled(WEIGHTS * 3, HUGE_WEIGHTS * 2, BIG, BAD_WEIGHTS * faults, JUNK[:faults])
    data = st.tuples(*[weight if c == wcol else loss for c in range(ncols)]).map(list)
    ragged = st.sampled_from([k for k in (ncols - 1, ncols + 1) if k]).flatmap(
        lambda k: st.lists(loss, min_size=k, max_size=k)
    )
    blank = st.sampled_from([[], ["  "]])
    lines = draw(st.lists(st.one_of(*[data] * 12, *[ragged] * faults, blank, blank), min_size=1, max_size=10))
    if draw(st.sampled_from([True, True, False])):
        names = st.sampled_from(["x", "loss", "W", "1", " 2.5 "])
        lines.insert(0, ["weight" if c == wcol else draw(names) for c in range(ncols)])
    quoted = st.sampled_from(["{}", '"{}"', '"{}\n"'])  # the last spans two lines
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(
        ",".join(draw(quoted).format(cell) for cell in line) + draw(ends) for line in lines
    )
    has_header = draw(st.sampled_from([None, None, None, True, False]))
    # mostly the column that holds the weights, by header or flag; at times a wrong one
    named = [None] if wcol is None else [None, "weight", str(wcol)]
    weight_column = draw(st.sampled_from(named * 6 + ["W", "x", "5", "-1"]))
    return text, has_header, weight_column


@settings(max_examples=300)
@given(csv_cases())
@example(("x,y\n1,2\n\n1/3,0.5\r\n1,2\r" + "".join(f"{b},1\n" for b in BIG), None, None))
@example(("x,weight\n1,4e1000\n2,4e1000\n3,4\n", None, None))
@example(("x,weight\n" + "".join(f"{k},{b}\n" for k, b in enumerate(BIG)), None, None))
@example(('a,b\n"1\n",2\r\n  \r\n"3",2\n1,2\n', True, None))
def test_report_reads_the_reference_law_or_names_its_error(case):
    check_against_reference(*case)


FIELD_OVER_LIMIT = '"' + "9" * 140_000 + '"'

# (text, has_header, weight_column, message): in each, the error named first
# is the one that wins over the other fault in the text.
PRECEDENCE = [
    # a reader error anywhere comes before every other error
    ("x,y\n1,2,3\n" + FIELD_OVER_LIMIT + "\n", None, None,
     "PATH: line 3: field larger than field limit (131072)"),
    ("1e5000,2\n" + FIELD_OVER_LIMIT + "\n", None, None,
     "PATH: line 2: field larger than field limit (131072)"),
    # the header sniff's out-of-range number comes before "no data rows"
    ("1e5000,2\n", None, None, "row 1, column 1: number out of range; the limit is 1000 "
     "characters and a decimal exponent of 1000 in magnitude"),
    # "no data rows" comes before a weight column error
    ("x,y\n\n", None, "z", "PATH: no data rows"),
    # a weight column error comes before any row's error
    ("x,y\n1,abc\n1,2,3\n", None, "z", "weight column 'z' not found in header"),
    ("1,abc\n", False, "7", "weight column index 7 out of range"),
    # a bad cell in an earlier row comes before a later ragged row, and the
    # other way round
    ("x,y\n1,abc\n1,2,3\n", None, None, "row 2, column 2: cannot parse 'abc' as a number"),
    ("x,y\n1,2,3\n1,abc\n", None, None, "row 2: expected 2 cells, got 3 (ragged row)"),
    # in one row, the first bad loss cell comes before a later one and
    # before a bad or nonpositive weight, wherever the weight column is
    ("x,y\nabc,def\n", None, None, "row 2, column 1: cannot parse 'abc' as a number"),
    ("weight,x,y\nw,1,def\n", None, None, "row 2, column 3: cannot parse 'def' as a number"),
    ("x,weight\nabc,0\n", None, None, "row 2, column 1: cannot parse 'abc' as a number"),
    # across rows, the first faulty row wins, whichever its fault
    ("x,weight\n1,0\nabc,1\n", None, None, "row 2, column 2: weight must be positive, got 0"),
    ("x,weight\nabc,1\n1,-1\n", None, None, "row 2, column 1: cannot parse 'abc' as a number"),
    ("x,weight\n1,1\n2,3\n4,w\n5,0\n", None, None, "row 4, column 2: cannot parse 'w' as a number"),
    # a row's error comes before a lattice bound passed on an earlier row
    ("".join(f"{b},1\n" for b in BIG) + "abc,1\n", None, None,
     "row 4, column 1: cannot parse 'abc' as a number"),
    ("".join(f"{b},1\n" for b in BIG) + "1,2,3\n", None, None,
     "row 4: expected 2 cells, got 3 (ragged row)"),
    # the coordinate bound comes before the weight bound, passed on an earlier row
    ("x,y,weight\n" + "".join(f"1,0,{b}\n" for b in BIG) + "".join(f"1,{b},1\n" for b in BIG),
     None, None, "row 7, column 2: the common denominator of the coordinates exceeds 3322 bits"),
    # the weight bound comes before the probability bound
    ("x,weight\n1,4e1000\n2,4e1000\n" + "".join(f"3,{b}\n" for b in BIG), None, None,
     "row 6, column 2: the common denominator of the weights exceeds 3322 bits"),
    ("x,weight\n1,4e1000\n\n2,4e1000\n3,4\n", None, None,
     "row 4, column 2: the probability denominator exceeds 3322 bits"),
]


@pytest.mark.parametrize(
    "text, has_header, weight_column, message", PRECEDENCE, ids=[f"pair-{k}" for k in range(len(PRECEDENCE))]
)
def test_the_first_error_wins(text, has_header, weight_column, message):
    assert check_against_reference(text, has_header, weight_column) == message


def test_digest_falls_back_to_hashlib(monkeypatch):
    """Where the interpreter has neither `_sha2` nor `_sha256`, the input
    digest comes from `hashlib`, and equals the reference over every block."""
    j = JointDiscreteDistribution.from_weighted_points(
        ((Fraction(k, 7), Fraction(-k, 3 + k % 5)), 1 + k % 4) for k in range(1_200)
    )
    assert len(j) > cli._BLOCK_ROWS
    expected = _digest(j.points)
    assert cli._digest(j) == expected
    monkeypatch.setitem(sys.modules, "_sha2", None)  # a None entry makes the import fail
    monkeypatch.setitem(sys.modules, "_sha256", None)
    sha256, made = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda: made.append(1) or sha256())
    assert cli._digest(j) == expected and made == [1]
