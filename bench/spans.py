"""Span recorder for the traced run, applied to varlab from outside.

`Tracer.install()` wraps every public function and method of the traced
modules, and `__post_init__` (the canonicalization of a law), replacing each
one at every name it is bound to in every loaded varlab module. A wrapper
records one span (name, start, end, parent index) per call and keeps a
reference to the arguments and result of the calls that counters need.
Counters are computed from those references after the run, so their cost
does not land in any span. Spans stay in memory until `dump()`.

`layer_metrics()` turns a span list into per-layer self times. A span's self
time is its duration minus the durations of its direct child spans, so the
self times of all spans partition the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

TRACED_MODULES = ("cli", "distributions", "subadditivity", "comonotonicity", "risk")

# Per-layer time metric -> span names whose self times it sums.
SELF_TIMES = {
    "cli.ingest_csv_s": ("cli.ingest_csv",),
    "cli.run_report_self_s": ("cli.run_report",),
    "cli.to_json_s": ("cli.AnalysisReport.to_json", "cli.AnalysisReport.to_json_dict"),
    "distributions.construct_s": (
        "distributions.DiscreteDistribution.__post_init__",
        "distributions.JointDiscreteDistribution.__post_init__",
        "distributions.DiscreteDistribution.from_weighted_values",
        "distributions.JointDiscreteDistribution.from_weighted_points",
    ),
    "distributions.marginals_s": (
        "distributions.JointDiscreteDistribution.marginals",
        "distributions.JointDiscreteDistribution.marginal",
    ),
    "distributions.sum_distribution_s": ("distributions.JointDiscreteDistribution.sum_distribution",),
    "subadditivity.generate_s": ("subadditivity.random_comonotonic", "subadditivity.random_coupling"),
    "subadditivity.report_self_s": ("subadditivity.subadditivity_report", "subadditivity.critical_alphas"),
    "subadditivity.trial_self_s": ("subadditivity.equivalence_trial",),
    "comonotonicity.is_comonotonic_s": (
        "comonotonicity.is_comonotonic",
        "comonotonicity.is_comonotonic_support",
    ),
    "comonotonicity.coupling_s": ("comonotonicity.comonotonic_coupling",),
    "comonotonicity.min_copula_s": ("comonotonicity.min_copula_check",),
    "comonotonicity.convex_max_self_s": ("comonotonicity.convex_order_max_check",),
    "risk.convex_order_leq_s": ("risk.convex_order_leq",),
}

# Calls whose (args, result) the counters read after the run.
_KEPT = {
    "cli.run_report",
    "cli.AnalysisReport.to_json",
    "distributions.JointDiscreteDistribution.__post_init__",
    "distributions.JointDiscreteDistribution.from_weighted_points",
    "distributions.JointDiscreteDistribution.marginals",
    "distributions.JointDiscreteDistribution.marginal",
    "distributions.JointDiscreteDistribution.sum_distribution",
    "subadditivity.subadditivity_report",
    "subadditivity.equivalence_trial",
    "comonotonicity.is_comonotonic",
    "comonotonicity.min_copula_check",
    "risk.convex_order_leq",
}


def _targets(module):
    """(span name, owner, attribute, function) for each callable to wrap."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, val in vars(obj).items():
                if attr != "__post_init__" and attr.startswith("_"):
                    continue
                if inspect.isfunction(val) or isinstance(val, classmethod):
                    yield f"{layer}.{name}.{attr}", obj, attr, val


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.kept: list[tuple] = []  # (name, parent index, args, result)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, kept = self.spans, self._stack, self.kept
        keep = name in _KEPT
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(index)
            try:
                span[1] = clock()
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                kept.append((name, parent, args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced modules' callables wherever varlab binds them."""
        replaced = {}
        for layer in TRACED_MODULES:
            module = importlib.import_module(f"varlab.{layer}")
            for name, owner, attr, val in list(_targets(module)):
                if isinstance(val, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, val.__func__)))
                elif owner is module:
                    replaced[id(val)] = (val, self._wrap(name, val))
                else:
                    setattr(owner, attr, self._wrap(name, val))
        for modname, module in list(sys.modules.items()):
            if modname != "varlab" and not modname.startswith("varlab."):
                continue
            for attr, val in list(vars(module).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])

    def counts(self) -> dict:
        """Size counters read from the kept calls."""
        c = dict.fromkeys(COUNTS, 0)
        names = [s[0] for s in self.spans]
        for name, parent, args, result in self.kept:
            if name == "distributions.JointDiscreteDistribution.from_weighted_points":
                if parent >= 0 and names[parent] == "cli.ingest_csv":
                    c["cli.rows"] += len(args[1])
            elif name == "cli.AnalysisReport.to_json":
                c["cli.out_bytes"] += len(result.encode())
            elif name == "cli.run_report":
                c["cli.table_rows"] += len(result.var_table)
            elif name == "distributions.JointDiscreteDistribution.__post_init__":
                law = args[0]
                c["distributions.laws"] += 1
                c["distributions.points"] += len(law.points)
                probs = math.lcm(*(p.denominator for _, p in law.points))
                coords = math.lcm(*(x.denominator for pt, _ in law.points for x in pt))
                c["distributions.prob_denom_bits"] = max(c["distributions.prob_denom_bits"], probs.bit_length())
                c["distributions.coord_denom_bits"] = max(c["distributions.coord_denom_bits"], coords.bit_length())
            elif name == "distributions.JointDiscreteDistribution.marginals":
                c["distributions.marginals_calls"] += 1
            elif name == "distributions.JointDiscreteDistribution.marginal":
                c["distributions.marginal_atoms"] += len(result)
            elif name == "distributions.JointDiscreteDistribution.sum_distribution":
                c["distributions.sum_atoms"] += len(result)
            elif name == "subadditivity.subadditivity_report":
                c["subadditivity.breakpoints"] += len(result.breakpoints)
                c["subadditivity.violations"] += sum(v.relation == ">" for v in result.verdicts)
            elif name == "subadditivity.equivalence_trial":
                c["subadditivity.trials"] += 1
                c["subadditivity.inconsistent"] += not result.consistent
            elif name == "comonotonicity.is_comonotonic":
                c["comonotonicity.comonotonic_laws"] += result.comonotonic
            elif name == "comonotonicity.min_copula_check":
                law = args[0]
                c["comonotonicity.grid_cells"] += math.prod(
                    len({pt[i] for pt, _ in law.points}) for i in range(law.dimension)
                )
            elif name == "risk.convex_order_leq":
                if result.mean_equal:
                    c["risk.kinks"] += len(set(args[0].values) | set(args[1].values))
        return c

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts()}, fh)


COUNTS = (
    "cli.rows",
    "cli.out_bytes",
    "cli.table_rows",
    "distributions.marginals_calls",
    "distributions.laws",
    "distributions.points",
    "distributions.marginal_atoms",
    "distributions.sum_atoms",
    "distributions.prob_denom_bits",
    "distributions.coord_denom_bits",
    "subadditivity.breakpoints",
    "subadditivity.violations",
    "subadditivity.trials",
    "subadditivity.inconsistent",
    "comonotonicity.comonotonic_laws",
    "comonotonicity.grid_cells",
    "risk.kinks",
)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start - covered)
    return out


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer self times (seconds) plus the counters."""
    by_name = self_times(spans)
    metrics = {
        metric: sum(by_name.get(n, 0.0) for n in names) for metric, names in SELF_TIMES.items()
    }
    metrics.update(counts)
    return metrics
