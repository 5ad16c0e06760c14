"""The package's names: every module's ``__all__`` resolves, the helpers
that computed a quantity a second time and the solver settings that became
constants stay removed, and the lockstep's array forms stay in its module."""

import importlib
import pkgutil

import pytest

import labormkt as lm

MODULES = ["labormkt", *(f"labormkt.{m.name}" for m in pkgutil.iter_modules(lm.__path__))]

# Each of these re-derived what another function returns, carried a residual
# target that is now a solver constant, (from "_BLOCK_ELEMENTS" on) served
# a scan of a whole grid or a lockstep batch that the index search replaced,
# or (from "PoolRows" on) was an array or stack form of a pool operator,
# whose one user, the multi-start's lockstep, now builds its own stack.
REMOVED = ("_restricted_moments", "truncated_mean", "pool_sup", "_occupied_pieces",
           "entry_wage_two_period", "empirical_zero_profit", "_MAX_TREE_PERIODS",
           "SolverOptions", "DEFAULT_OPTIONS", "MAX_TOL", "_inner_opts",
           "_BLOCK_ELEMENTS", "_grid_candidates", "_grid_roots", "_distinct",
           "_stages_from_w_plus", "m_fixed_points_rows", "bisect_roots", "scan_roots",
           "_bisection_error",
           "PoolRows", "entry_split_rows", "leaver_moments_array", "stayer_moments_array",
           "_split_side_array", "_clamped_thresholds", "_real_thresholds",
           "_m_extended_array")
REMOVED_MEMBERS = (
    (lm.ProductivityDistribution, ("mass_between", "first_moment_between", "cdf",
                                   "moments_below_array")),
    (lm.GapReport, ("__float__",)),
    (lm.MarketNode, ("is_market",)),
)
# The array forms of the pool and leaver-mean kernels moved to their one
# reader, the multi-start's lockstep in multiperiod: the kernel modules keep
# the scalar path only, and solvers needs no NumPy.
MOVED_OUT = {
    "labormkt.pools": ("_split_moments",),
    "labormkt.solvers": ("_leaver_mean_rows", "np"),
}


@pytest.mark.parametrize("module", MODULES)
def test_star_import_binds_every_all_entry(module):
    """A stale __all__ entry makes the star import raise AttributeError.
    A module without __all__ (errors) binds its public names."""
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(getattr(importlib.import_module(module), "__all__", ())) <= set(namespace)


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_are_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in REMOVED if hasattr(mod, name)] == []


def test_removed_members_are_gone():
    assert [(cls.__name__, name) for cls, names in REMOVED_MEMBERS
            for name in names if hasattr(cls, name)] == []


@pytest.mark.parametrize("module", sorted(MOVED_OUT))
def test_array_forms_are_gone_from_the_kernel_modules(module):
    mod = importlib.import_module(module)
    assert [name for name in MOVED_OUT[module] if hasattr(mod, name)] == []


@pytest.mark.parametrize("dist", [lm.uniform(0, 1), lm.discrete([(0.2, 1), (0.5, 2)]),
                                  lm.piecewise_linear([(0, 0.5), (0.4, 1.6), (1, 0.8)])],
                         ids=["uniform", "discrete", "piecewise"])
def test_a_distribution_stores_each_table_once(dist):
    """The atoms or breakpoints and their cumulative moments live in the
    moment primitive's tables only, and the array primitive is the
    lockstep's."""
    assert [name for name in ("_xs", "_arrays", "_moments_below_clamped")
            if hasattr(dist, name)] == []
