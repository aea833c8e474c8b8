"""Host-speed normalization of wall times.

On a shared host the speed of the same Python work changes by up to 2x
within seconds, and 20-second medians of identical work differ by about
20% from one minute to the next. Each measured wall time is therefore
divided by the duration of a fixed pure-Python reference loop (exact
fraction arithmetic, hashing and a sort, like varlab's own hot paths) run
right before and right after it, and multiplied by NOMINAL_S. The result is
seconds at the host speed where one reference loop takes NOMINAL_S. A
change to the program moves the measured work but not the reference loop,
so it still shows in full.

Process start-up is I/O and loader work more than interpreter work, and
the reference loop tracks it poorly (dividing by it raised the spread of
`python -m varlab --version` times from 9% to 13%). Start-up times are
therefore divided by the start of a bare interpreter, `python -S -c pass`,
instead, and multiplied by START_NOMINAL_S.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# About the reference loop's time and a bare interpreter start's on an
# unloaded 2-vCPU x86-64 host with Python 3.11.
NOMINAL_S = 0.05
START_NOMINAL_S = 0.0125


def _loop() -> int:
    acc = Fraction(0)
    seen: dict[Fraction, int] = {}
    for i in range(1, 6000):
        f = Fraction(i % 97 + 1, i % 89 + 2)
        acc += f
        seen[f] = seen.get(f, 0) + 1
    return len(sorted(seen)) + acc.denominator % 2


def reference(loops: int) -> float:
    """Mean seconds of one reference loop over ``loops`` runs."""
    t0 = time.perf_counter()
    for _ in range(loops):
        _loop()
    return (time.perf_counter() - t0) / loops


def interpreter_start(loops: int) -> float:
    """Mean seconds to start and end a bare interpreter over ``loops`` runs."""
    t0 = time.perf_counter()
    for _ in range(loops):
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return (time.perf_counter() - t0) / loops


class Normalizer:
    """Scales successive wall times by the reference speed around each one.

    Call it right after each measured piece of work; the reference run at
    that call also serves as the "before" sample of the next piece.
    """

    def __init__(self, loops: int, measure=reference, nominal_s: float = NOMINAL_S) -> None:
        self.loops = loops
        self.measure = measure
        self.nominal_s = nominal_s
        self.before = measure(loops)

    def __call__(self, wall_s: float) -> float:
        after = self.measure(self.loops)
        scaled = wall_s * self.nominal_s * 2 / (self.before + after)
        self.before = after
        return scaled
