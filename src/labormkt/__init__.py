"""labormkt: a numerical laboratory for multi-period labor markets.

Workers know their own productivity, employers learn it only by employing
them, and outside firms see nothing but employment histories.  The
package solves the resulting wage systems over one, two and three
periods, screens worker pools slice by slice, prices discrete
principal-agent contracts, and cross-checks everything against an
agent-based Monte Carlo replay.

Every public name loads on first use: ``import labormkt`` runs no
submodule, and reading ``labormkt.simulate`` imports
``labormkt.simulator`` then and keeps the name in the package namespace
(PEP 562).  A run so loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {name: module for module, names in (
    ("errors", (
        "LaborMarketError", "EmptyPoolError", "OutOfRangeError",
        "InvalidThresholdError", "DegenerateSystemError", "NoConvergenceError",
        "InfeasibleError", "ConfigError")),
    ("pools", (
        "ProductivityDistribution", "LaborPool", "uniform", "discrete",
        "piecewise_linear", "pool_mass", "pool_mean", "firing_split",
        "leaver_moments", "stayer_moments", "pool_inf", "quantile",
        "sample_productivities")),
    ("solvers", ("m_extended", "m_fixed_points")),
    ("screening", (
        "ScreeningConfig", "distinguishable_interval",
        "residual_below_average_probability", "critical_assessment_periods")),
    ("equilibrium", (
        "MarketCollapse", "TwoPeriodSolution", "InequalityCheck", "InequalitySuite",
        "one_period_wage", "secondhand_fixed_point", "secondhand_fixed_points",
        "solve_two_period", "check_two_period_ordering")),
    ("multiperiod", (
        "MarketNode", "MarketTree", "ThreePeriodSolution", "MultiStartReport",
        "WelfareComparison", "DecileRow", "build_market_tree",
        "submarket_count", "solve_three_period", "solve_three_period_multistart",
        "solve_regime", "check_final_wage_ordering", "check_stay_wage_discount",
        "welfare_comparison")),
    ("moral_hazard", (
        "UtilitySpec", "ContractProblem", "ContractSolution", "GapReport",
        "default_wage_grid", "solve_first_best", "solve_second_best", "welfare_gap")),
    ("simulator", (
        "TWO_PERIOD", "THREE_PERIOD", "SimulationConfig", "MarketStats",
        "SimulationReport", "simulate")),
) for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import a public name's submodule on first access and keep the name."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
