"""The Fraction implementation that the integer-lattice kernel replaced.

Everything here works on plain `Fraction` data: a law is a tuple of
(value, probability) atoms and a joint law a tuple of (coords, probability)
points, both canonical (merged, zero mass dropped, sorted). The algorithms
are the ones the package used before it moved to integer lattices, kept as a
differential oracle: per-level bisection for the breakpoint sweep, a
sum-ordered chain check, the quantile-transform coupling (whose sum law
decides convex-order maximality), a prefix-sum grid for the min-copula
identity, suffix tables for the convex order, and the seeded generators with
their original draw order. Also the number parser that built a `Fraction`
per CSV cell before cells parsed straight to integer pairs, and the row-wise
CSV ingest that the column-wise one replaced.
"""

import contextlib
import csv
import io
import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import floor, lcm

from varlab.cli import MAX_NUMBER_DIGITS, _NotANumber, _read_text
from varlab.distributions import MAX_SCALE_BITS

_ZERO = Fraction(0)

_DIGITS = r"\d+(?:_\d+)*"
_NUMBER = re.compile(
    rf"[-+]?(?=\d|\.\d)(?:{_DIGITS})?"
    rf"(?:/{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:[eE]([-+]?{_DIGITS}))?)"
)


def parse_number(text, where):
    """Fraction(text) behind the bounds of ``varlab.cli._parse_number``."""
    text = text.strip()
    match = _NUMBER.fullmatch(text)
    if match is not None:
        if len(text) > MAX_NUMBER_DIGITS or (match[1] and abs(int(match[1])) > MAX_NUMBER_DIGITS):
            raise ValueError(
                f"{where}: number out of range; the limit is {MAX_NUMBER_DIGITS} characters "
                f"and a decimal exponent of {MAX_NUMBER_DIGITS} in magnitude"
            )
        # the grammar has placed the underscores; Fraction takes them only from 3.11
        with contextlib.suppress(ZeroDivisionError):  # 1/0
            return Fraction(text.replace("_", ""))
    raise _NotANumber(f"{where}: cannot parse {text!r} as a number")


def _is_numeric(line, row):
    try:
        for col, cell in enumerate(row, 1):
            parse_number(cell, f"row {line}, column {col}")
    except _NotANumber:
        return False
    return True


def _first_past_bound(dens):
    """Index of the first of ``dens`` whose running lcm passes MAX_SCALE_BITS bits, or None."""
    acc = 1
    for k, d in enumerate(dens):
        acc = lcm(acc, d)
        if acc.bit_length() > MAX_SCALE_BITS:
            return k
    return None


def ingest_rows(path, has_header=None, weight_column=None):
    """The canonical points of the law that ``varlab.cli.ingest_csv`` reads
    from ``path``, or the ValueError it raises, by the row-wise reading it
    replaced: every nonblank row is kept, then checked and parsed in order,
    one cell at a time, and the lattice bounds are running lcms of the
    `Fraction`s' denominators in row-major order."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    rows, lines, line = [], [], 1
    try:
        for row in reader:
            if "".join(row).strip():
                rows.append(row)
                lines.append(line)
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if has_header is None:
        has_header = not _is_numeric(lines[0], rows[0])
    header = [c.strip() for c in rows[0]] if has_header else None
    data, lines = (rows[1:], lines[1:]) if has_header else (rows, lines)
    if not data:
        raise ValueError(f"{path}: no data rows")

    ncols = len(header) if header is not None else len(data[0])
    lowered = [h.lower() for h in header] if header is not None else []
    if weight_column is None:
        widx = lowered.index("weight") if "weight" in lowered else None
    elif isinstance(weight_column, str) and not weight_column.removeprefix("-").isdecimal():
        if header is None:
            raise ValueError("named weight column requires a header row")
        if weight_column.lower() not in lowered:
            raise ValueError(f"weight column {weight_column!r} not found in header")
        widx = lowered.index(weight_column.lower())
    else:
        widx = int(weight_column)
        if not 0 <= widx < ncols:
            raise ValueError(f"weight column index {widx} out of range")
    loss_cols = [c for c in range(ncols) if c != widx]
    if not loss_cols:
        raise ValueError("no loss columns left after removing the weight column")

    pairs = []
    for rownum, row in zip(lines, data):
        if len(row) != ncols:
            raise ValueError(f"row {rownum}: expected {ncols} cells, got {len(row)} (ragged row)")
        coords = tuple(parse_number(row[c], f"row {rownum}, column {c + 1}") for c in loss_cols)
        weight = Fraction(1) if widx is None else parse_number(row[widx], f"row {rownum}, column {widx + 1}")
        if weight <= 0:
            raise ValueError(f"row {rownum}, column {widx + 1}: weight must be positive, got {weight}")
        pairs.append((coords, weight))

    bound = f"exceeds {MAX_SCALE_BITS} bits"
    k = _first_past_bound([x.denominator for coords, _ in pairs for x in coords])
    if k is not None:
        row, i = divmod(k, len(loss_cols))
        raise ValueError(f"row {lines[row]}, column {loss_cols[i] + 1}: the common denominator "
                         f"of the coordinates {bound}")
    k = _first_past_bound([w.denominator for _, w in pairs])
    if k is not None:
        raise ValueError(f"row {lines[k]}, column {widx + 1}: the common denominator of the weights {bound}")
    total = sum(w for _, w in pairs)
    points = canonical((coords, w / total) for coords, w in pairs)
    denom = lcm(*(p.denominator for _, p in points))
    if denom.bit_length() > MAX_SCALE_BITS:
        # the first row at which the running weight, in counts of 1/denom, passes the bound
        running = 0
        for rownum, (_, w) in zip(lines, pairs):
            running += w
            if floor(running * denom / total).bit_length() > MAX_SCALE_BITS:
                raise ValueError(f"row {rownum}, column {widx + 1}: the probability denominator {bound}")
    return points


def canonical(pairs):
    """Merge duplicate keys, drop zero mass, sort."""
    acc = {}
    for key, p in pairs:
        acc[key] = acc.get(key, _ZERO) + Fraction(p)
    return tuple(sorted((k, p) for k, p in acc.items() if p != 0))


def marginal(points, i):
    return canonical((coords[i], p) for coords, p in points)


def marginals(points):
    return tuple(marginal(points, i) for i in range(len(points[0][0])))


def sum_law(points):
    return canonical((sum(coords), p) for coords, p in points)


def cumulative(atoms):
    out, acc = [], _ZERO
    for _, p in atoms:
        acc += p
        out.append(acc)
    return tuple(out)


def quantile_step(atoms, cum, alpha):
    """The left-continuous quantile at ``alpha`` in (0, 1]; ``cum`` is
    ``cumulative(atoms)``."""
    return atoms[bisect_left(cum, alpha)][0]


def subadditivity(ms, s):
    """(verdicts, subadditive, additive, first_violation) of the old sweep
    over the marginals ``ms`` and the sum law ``s``.

    A verdict is (alpha_star, var_sum, sum_of_vars, relation, marginal_vars).
    """
    cums = [cumulative(m) for m in ms]
    s_cum = cumulative(s)
    levels = set(s_cum).union(*cums)
    verdicts = []
    first_violation = None
    additive = True
    for b in sorted(levels):
        var_sum = quantile_step(s, s_cum, b)
        marginal_vars = tuple(quantile_step(m, cum, b) for m, cum in zip(ms, cums))
        sum_of_vars = sum(marginal_vars)
        if var_sum < sum_of_vars:
            relation = "<"
            additive = False
        elif var_sum == sum_of_vars:
            relation = "="
        else:
            relation = ">"
            additive = False
            if first_violation is None:
                first_violation = b
        verdicts.append((b, var_sum, sum_of_vars, relation, marginal_vars))
    return tuple(verdicts), first_violation is None, additive, first_violation


def chain_witness(support):
    """None for a componentwise chain, else the first incomparable pair in
    (coordinate sum, point) order."""
    chain = sorted(set(support), key=lambda p: (sum(p), p))
    for a, b in zip(chain, chain[1:]):
        if not all(x <= y for x, y in zip(a, b)):
            return (a, b)
    return None


def comonotonic_coupling(ms):
    cums = [cumulative(m) for m in ms]
    points = []
    prev = _ZERO
    for b in sorted(set().union(*cums)):
        points.append((tuple(quantile_step(m, cum, b) for m, cum in zip(ms, cums)), b - prev))
        prev = b
    return canonical(points)


def min_copula(points, ms):
    """The min-copula identity of ``points`` with marginals ``ms``."""
    n = len(ms)
    values = [[v for v, _ in m] for m in ms]
    cums = [cumulative(m) for m in ms]
    sizes = [len(v) for v in values]
    index = [{v: k for k, v in enumerate(vs)} for vs in values]
    strides = [0] * n
    total = 1
    for i in range(n - 1, -1, -1):
        strides[i] = total
        total *= sizes[i]
    grid = [_ZERO] * total
    for coords, p in points:
        grid[sum(index[i][coords[i]] * strides[i] for i in range(n))] += p
    for i in range(n):
        for flat in range(total):
            if (flat // strides[i]) % sizes[i]:
                grid[flat] += grid[flat - strides[i]]
    for flat in range(total):
        bound = min(cums[i][(flat // strides[i]) % sizes[i]] for i in range(n))
        if grid[flat] != bound:
            return False
    return True


def convex_order_leq(a, b):
    """(holds, mean_equal, witness_c) by suffix tables and bisection."""
    if sum(v * p for v, p in a) != sum(v * p for v, p in b):
        return False, False, None

    def tables(d):
        sp, svp = [_ZERO] * (len(d) + 1), [_ZERO] * (len(d) + 1)
        for k in range(len(d) - 1, -1, -1):
            sp[k] = sp[k + 1] + d[k][1]
            svp[k] = svp[k + 1] + d[k][0] * d[k][1]
        return [v for v, _ in d], sp, svp

    def at(t, c):
        k = bisect_right(t[0], c)
        return t[2][k] - c * t[1][k]

    ta, tb = tables(a), tables(b)
    for c in sorted({v for v, _ in a} | {v for v, _ in b}):
        if at(ta, c) > at(tb, c):
            return False, True, c
    return True, True, None


def random_marginal(rng, n_max_atoms, value_range=(-10, 10), denom_bound=16):
    """The original generator: atoms of one seeded marginal."""
    lo, hi = value_range
    target = rng.randint(1, min(n_max_atoms, denom_bound))
    values = set()
    for _ in range(64 * target):
        if len(values) == target:
            break
        den = rng.randint(1, denom_bound)
        values.add(Fraction(rng.randint(lo * den, hi * den), den))
    ordered = sorted(values)
    k = len(ordered)
    denom = rng.randint(k, denom_bound)
    cuts = sorted(rng.sample(range(1, denom), k - 1))
    edges = [0, *cuts, denom]
    return tuple((v, Fraction(edges[t + 1] - edges[t], denom)) for t, v in enumerate(ordered))


def random_comonotonic(seed, n, max_atoms):
    rng = random.Random(seed)
    return comonotonic_coupling([random_marginal(rng, max_atoms) for _ in range(n)])


def random_coupling(seed, n, max_atoms):
    rng = random.Random(seed)
    ms = [random_marginal(rng, max_atoms) for _ in range(n)]
    denom = lcm(*(p.denominator for m in ms for _, p in m))
    perms = []
    for _ in ms:
        perm = list(range(denom))
        rng.shuffle(perm)
        perms.append(perm)
    cells = []
    for m in ms:
        atom_of_cell = []
        for t, (_, p) in enumerate(m):
            atom_of_cell.extend([t] * int(p * denom))
        cells.append(atom_of_cell)
    counts = {}
    for c in range(denom):
        key = tuple(cell[perm[c]] for cell, perm in zip(cells, perms))
        counts[key] = counts.get(key, 0) + 1
    return canonical(
        (tuple(m[t][0] for m, t in zip(ms, key)), Fraction(cnt, denom))
        for key, cnt in counts.items()
    )
