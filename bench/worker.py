"""Child process started by run.py. It does the work the parent times.

    worker.py cli SPANS_PATH VARLAB_ARG...
        Run `varlab.cli.main(VARLAB_ARG...)` with the span recorder installed
        and write the spans to SPANS_PATH. Stdout is the CLI's own.

    worker.py crosscheck SEED SECONDS SETUP_ONLY SPANS_PATH
        Build gen.CROSS_COUNT seeded instances with varlab's generators and
        print "ready". Then check instances three ways, in segments of
        SEGMENT: first the ones built, then fresh ones drawn further down the
        seeded stream, each segment built before its timer starts, until
        SECONDS have gone by. Every instance is checked once, in one segment
        only. The last stdout line is a JSON summary. SETUP_ONLY=1 stops
        after "ready"; SPANS_PATH "-" means no tracing.

REF_LOOPS reference loops (hostspeed.py) run after each segment. The
summary lists each segment as (instances, raw seconds, host-speed normalized
seconds), neither including the building or the reference loops.

varlab is imported from the checkout's src directory (run.py puts it on
PYTHONPATH).
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import checks
import gen
import hostspeed
import spans
import varlab

SEGMENT = 200
REF_LOOPS = 2


def run_cli(spans_path: str, argv: list[str]) -> int:
    import varlab.cli  # only the cli mode loads it

    tracer = spans.Tracer()
    tracer.install()
    try:
        return varlab.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


def _build(specs, count: int) -> list:
    """The next ``count`` instances of the seeded stream, as (kind, law)."""
    instances = []
    for kind, n, gen_seed in itertools.islice(specs, count):
        make = varlab.random_comonotonic if kind == "comonotonic" else varlab.random_coupling
        instances.append((kind, make(gen_seed, varlab.GeneratorSpec(n=n, max_atoms=gen.CROSS_MAX_ATOMS))))
    return instances


def run_crosscheck(seed: int, seconds: float, setup_only: bool, spans_path: str) -> int:
    tracer = None
    if spans_path != "-":
        tracer = spans.Tracer()
        tracer.install()
    specs = gen.crosscheck_specs(seed)
    built = _build(specs, gen.CROSS_COUNT)
    print("ready", flush=True)
    if setup_only:
        return 0

    # Module attributes are looked up on each call so that the tracer's
    # wrappers, when installed, are the ones called.
    segments, attempted, failures = [], 0, []
    normalize = hostspeed.Normalizer(REF_LOOPS)
    start = time.perf_counter()
    last = 0.0
    # Check every instance built in the set-up; start no further segment
    # that would end past SECONDS.
    while built or time.perf_counter() - start + last <= seconds:
        t_segment = time.perf_counter()
        if built:
            batch, built = built[:SEGMENT], built[SEGMENT:]
        else:
            batch = _build(specs, SEGMENT)
        t0 = time.perf_counter()
        for kind, j in batch:
            attempted += 1
            try:
                errors = checks.check_crosscheck(
                    kind,
                    varlab.min_copula_check(j),
                    varlab.convex_order_max_check(j),
                    varlab.convex_order_leq(
                        j.sum_distribution(),
                        varlab.comonotonic_coupling(j.marginals()).sum_distribution(),
                    ),
                )
            except Exception as exc:  # an exception is a failed instance, not a failed run
                errors = [repr(exc)]
            if errors:
                failures.append(errors[0])
        wall = time.perf_counter() - t0
        segments.append((len(batch), wall, normalize(wall)))
        last = time.perf_counter() - t_segment
    if tracer is not None:
        tracer.dump(spans_path)
    summary = {"segments": segments, "attempted": attempted, "failed": len(failures),
               "errors": failures[:5]}
    print(json.dumps(summary), flush=True)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return run_cli(rest[0], rest[1:])
    if mode == "crosscheck":
        seed, seconds, setup_only, spans_path = rest
        return run_crosscheck(int(seed), float(seconds), setup_only == "1", spans_path)
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
