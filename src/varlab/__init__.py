"""Exact VaR subadditivity and comonotonicity analysis on finite discrete
loss distributions, plus the Gaussian closed-form counterpart.

The discrete core works in exact rational arithmetic: quantiles, stop-loss
transforms, couplings, and the all-levels subadditivity decision are computed
without tolerances. The Gaussian module is floating point with explicit
error bounds.

`import varlab` loads `varlab.gaussian` and no module of the exact core.
Each name of `__all__` is looked up in `_HOME`, the one table of exported
names, on its first access (PEP 562): its module is imported then, and the
name is stored here, so later reads are plain attribute reads.
"""

__version__ = "0.1.0"

# Eager: the benchmark reads the import time of varlab.gaussian under `import varlab`.
from . import gaussian

# Each exported name and the module under varlab that defines it.
_HOME = {
    "BernoulliCaseVerdict": "subadditivity",
    "ComonotoneVerdict": "comonotonicity",
    "ConvexOrderVerdict": "risk",
    "DiscreteDistribution": "distributions",
    "GaussianSpec": "gaussian",
    "GeneratorSpec": "subadditivity",
    "IntervalVerdict": "subadditivity",
    "JointDiscreteDistribution": "distributions",
    "MAX_JOINT_POINTS": "distributions",
    "Rational": "distributions",
    "SubadditivityReport": "subadditivity",
    "TrialVerdict": "subadditivity",
    "bernoulli_counterexample": "subadditivity",
    "comonotonic_coupling": "comonotonicity",
    "convex_order_leq": "risk",
    "convex_order_max_check": "comonotonicity",
    "critical_alphas": "subadditivity",
    "equivalence_trial": "subadditivity",
    "gaussian_comonotone_condition": "gaussian",
    "gaussian_portfolio_var": "gaussian",
    "gaussian_subadditivity_gap": "gaussian",
    "gaussian_var": "gaussian",
    "independent_product": "distributions",
    "is_comonotonic": "comonotonicity",
    "is_comonotonic_support": "comonotonicity",
    "min_copula_check": "comonotonicity",
    "random_comonotonic": "subadditivity",
    "random_coupling": "subadditivity",
    "std_normal_cdf": "gaussian",
    "std_normal_quantile": "gaussian",
    "stop_loss": "risk",
    "subadditivity_report": "subadditivity",
    "var": "risk",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
