"""labormkt: a numerical laboratory for multi-period labor markets.

Workers know their own productivity, employers learn it only by employing
them, and outside firms see nothing but employment histories.  The
package solves the resulting wage systems over one, two and three
periods, screens worker pools slice by slice, prices discrete
principal-agent contracts, and cross-checks everything against an
agent-based Monte Carlo replay.
"""

from .equilibrium import (
    InequalityCheck,
    InequalitySuite,
    MarketCollapse,
    TwoPeriodSolution,
    check_two_period_ordering,
    entry_wage_two_period,
    one_period_wage,
    secondhand_fixed_point,
    secondhand_fixed_points,
    solve_two_period,
)
from .errors import (
    ConfigError,
    DegenerateSystemError,
    EmptyPoolError,
    InfeasibleError,
    InvalidThresholdError,
    LaborMarketError,
    NoConvergenceError,
    OutOfRangeError,
)
from .moral_hazard import (
    ContractProblem,
    ContractSolution,
    GapReport,
    UtilitySpec,
    default_wage_grid,
    solve_first_best,
    solve_second_best,
    welfare_gap,
)
from .multiperiod import (
    DecileRow,
    MarketNode,
    MarketTree,
    MultiStartReport,
    ThreePeriodSolution,
    WelfareComparison,
    build_market_tree,
    check_final_wage_ordering,
    check_stay_wage_discount,
    solve_regime,
    solve_three_period,
    solve_three_period_multistart,
    submarket_count,
    welfare_comparison,
)
from .pools import (
    LaborPool,
    ProductivityDistribution,
    discrete,
    firing_split,
    leaver_moments,
    piecewise_linear,
    pool_inf,
    pool_mass,
    pool_mean,
    pool_sup,
    quantile,
    sample_productivities,
    stayer_moments,
    truncated_mean,
    uniform,
)
from .screening import (
    ScreeningConfig,
    critical_assessment_periods,
    distinguishable_interval,
    residual_below_average_probability,
)
from .simulator import (
    THREE_PERIOD,
    TWO_PERIOD,
    MarketStats,
    SimulationConfig,
    SimulationReport,
    empirical_zero_profit,
    simulate,
)
from .solvers import DEFAULT_OPTIONS, SolverOptions, m_extended, m_fixed_points

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LaborMarketError", "EmptyPoolError", "OutOfRangeError",
    "InvalidThresholdError", "DegenerateSystemError", "NoConvergenceError",
    "InfeasibleError", "ConfigError",
    # pools
    "ProductivityDistribution", "LaborPool", "uniform", "discrete",
    "piecewise_linear", "pool_mass", "pool_mean", "truncated_mean",
    "firing_split", "leaver_moments", "stayer_moments", "pool_inf",
    "pool_sup", "quantile", "sample_productivities",
    # solvers
    "SolverOptions", "DEFAULT_OPTIONS", "m_extended", "m_fixed_points",
    # screening
    "ScreeningConfig", "distinguishable_interval",
    "residual_below_average_probability", "critical_assessment_periods",
    # equilibrium
    "MarketCollapse", "TwoPeriodSolution", "InequalityCheck", "InequalitySuite",
    "one_period_wage", "secondhand_fixed_point", "secondhand_fixed_points",
    "entry_wage_two_period", "solve_two_period", "check_two_period_ordering",
    # multiperiod
    "MarketNode", "MarketTree", "ThreePeriodSolution", "MultiStartReport",
    "WelfareComparison", "DecileRow", "build_market_tree",
    "submarket_count", "solve_three_period", "solve_three_period_multistart",
    "solve_regime", "check_final_wage_ordering", "check_stay_wage_discount",
    "welfare_comparison",
    # moral hazard
    "UtilitySpec", "ContractProblem", "ContractSolution", "GapReport",
    "default_wage_grid", "solve_first_best", "solve_second_best", "welfare_gap",
    # simulator
    "TWO_PERIOD", "THREE_PERIOD", "SimulationConfig", "MarketStats",
    "SimulationReport", "simulate", "empirical_zero_profit",
]
