"""Market trees and the three-period hiring/firing equilibrium.

Extending the two-period setting by one more round splits the workforce
along its employment history.  Histories are spelled as strings over
``S`` (stayed with the current employer) and ``L`` (left, by dismissal or
by quitting — outsiders cannot tell which); the markets that exist besides
the entry pool are exactly the histories ending in ``L``, and there are
``2**(n-1) - 1`` of them over an n-period horizon.

For three periods the unknowns are five wages:

* ``w0``      entry wage, paid to everyone in period 1;
* ``w_plus``  offer made to retained workers in period 2;
* ``w1``      wage of the released market (history ``L``) in period 2;
* ``w2``      period-3 wage of workers released after staying (``SL``),
              also what twice-retained workers (``SS``) are paid, since
              leaving would land them in that same market;
* ``w2p``     period-3 wage of twice-released workers (``LL``), also what
              the period-2 hirers pay the workers they keep (``LS``).

and five equations: the two terminal markets clear at their own pool
means (fixed points of the leaver-mean operator on the ``S`` and ``L``
pools), retained workers must be indifferent between staying and walking
(``w_plus + w2 = w1 + w2p``), and both the entry firms and the period-2
hirers break even over their hiring horizon.  The wage structure is
triangular in ``w_plus``: given the retention offer, both fixed points and
the indifference wage follow, leaving one scalar zero-profit condition to
bisect.  A damped multi-start iteration provides an independent route to
the same solution for cross-checking.

Each terminal market clears at the one sign change of its leaver-mean
residual on the scan grid, and the zero-profit condition in ``w_plus``
is solved the same way, with :func:`~labormkt.solvers.grid_root` (see
:mod:`labormkt.solvers`): a stage (:func:`_stage_from_w_plus`) evaluates 9
of each terminal market's 129 grid points, and the outer search 10 stages
of its 257, then bisects the one bracket.  That the period-2 hirers'
profit crosses zero once along that grid is observed and tested, not
proven.  The multi-start's damped steps run every start in lockstep on one
stack of its [stayed, released] pools (:func:`_split_stack`), with array
twins of the split moments and the leaver mean, and the last few
stragglers alone with the scalar step (:func:`_damped_runs`); each
converged start is finished with a stage.

The solution is read off its market tree, the one
:meth:`ThreePeriodSolution.tree` rebuilds: every cohort mass and mean, the
terminal residuals, and the entry wage ``w0`` from :func:`_break_even`, the
rule by which each market-hired cohort breaks even over the cohorts it
keeps.  The Monte Carlo replay applies the same rule to its sampled cohorts.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from ._records import Record
from .equilibrium import (
    InequalityCheck,
    InequalitySuite,
    TwoPeriodSolution,
    one_period_wage,
    solve_two_period,
)
from .errors import (
    DegenerateSystemError,
    EmptyPoolError,
    InvalidThresholdError,
    NoConvergenceError,
)
from .pools import (
    LaborPool,
    ProductivityDistribution,
    _check_count,
    _check_mu,
    _real_threshold,
    _split_moments,
    firing_split,
    pool_inf,
    pool_mean,
    quantile,
    stayer_moments,
)
from .solvers import (
    _TOL,
    _leaver_mean_rows,
    grid_root,
    m_extended,
    m_fixed_points,
    scan_grid,
)

__all__ = [
    "MarketNode",
    "MarketTree",
    "ThreePeriodSolution",
    "MultiStartReport",
    "WelfareComparison",
    "DecileRow",
    "build_market_tree",
    "REGIMES",
    "wage_schedule",
    "submarket_count",
    "solve_three_period",
    "solve_three_period_multistart",
    "solve_regime",
    "check_final_wage_ordering",
    "check_stay_wage_discount",
    "welfare_comparison",
]

STAYED = "S"
LEFT = "L"


# =====================================================================
# Market tree
# =====================================================================

@dataclass(frozen=True)
class MarketNode:
    """One employment-history cohort.

    history is the rounds survived so far ("" for the entry cohort);
    period is the 1-based period this cohort works in.  wage is attached
    when known; threshold is the review wage applied at the end of the
    period (None for terminal cohorts).
    """

    history: str
    period: int
    pool: LaborPool
    wage: float | None = None
    threshold: float | None = None
    stay_child: "MarketNode | None" = None
    leave_child: "MarketNode | None" = None

    @property
    def off_market(self) -> bool:
        """True for the hired-after-release markets (excludes the entry pool)."""
        return self.history.endswith(LEFT)

    def mass(self) -> float:
        return self.pool.moments[0]

    def mean(self) -> float:
        return pool_mean(self.pool)


@dataclass(frozen=True)
class MarketTree:
    """Full history tree for an n-period horizon."""

    dist: ProductivityDistribution
    mu: float
    n_periods: int
    root: MarketNode

    def nodes(self) -> list[MarketNode]:
        out: list[MarketNode] = []

        def walk(node: MarketNode) -> None:
            out.append(node)
            if node.stay_child is not None:
                walk(node.stay_child)
            if node.leave_child is not None:
                walk(node.leave_child)

        walk(self.root)
        return out

    def node(self, history: str) -> MarketNode:
        cur = self.root
        for step in history:
            if step == STAYED:
                cur = cur.stay_child
            elif step == LEFT:
                cur = cur.leave_child
            else:
                raise KeyError(f"history {history!r} has step {step!r}; "
                               f"expected {STAYED!r} or {LEFT!r}")
            if cur is None:
                raise KeyError(f"no cohort with history {history!r}")
        return cur

    def off_market_nodes(self) -> list[MarketNode]:
        return [n for n in self.nodes() if n.off_market]


# The tree holds 2**n - 1 cohorts, each with a pool and its piece ends:
# n = 16 peaks at about 280 MB and every two more periods cost 4x that.
MAX_TREE_PERIODS = 16


def build_market_tree(dist: ProductivityDistribution, mu: float, n_periods: int,
                      thresholds=None, wages=None) -> MarketTree:
    """Construct the history tree by replaying splits round after round.

    n_periods is an integer in [1, MAX_TREE_PERIODS].  thresholds maps a
    history string to the review wage applied at the end of that cohort's
    period; the default uses each cohort's own pool mean, enough for
    structural work like counting markets.  wages, if given, maps histories
    to the wage label attached to each node.
    """
    _check_count("n_periods", n_periods, 1, MAX_TREE_PERIODS)
    if thresholds is not None and not isinstance(thresholds, Mapping):
        raise InvalidThresholdError(
            f"thresholds must map histories to review wages, not {type(thresholds).__name__}")
    if wages is not None and not isinstance(wages, Mapping):
        raise ValueError(f"wages must map histories to wage labels, not {wages!r}")
    mu = _check_mu(mu)
    wages = wages or {}

    def lookup_threshold(history: str, pool: LaborPool) -> float:
        if thresholds is None:
            return pool_mean(pool)
        try:
            return _real_threshold(thresholds[history])
        except KeyError:
            raise InvalidThresholdError(f"no review threshold supplied for cohort {history!r}")

    def grow(history: str, period: int, pool: LaborPool) -> MarketNode:
        wage = wages.get(history)
        if period == n_periods:
            return MarketNode(history, period, pool, wage=wage)
        # An empty cohort is split at the support bottom, a no-op.
        t = lookup_threshold(history, pool) if pool.moments[0] > 0.0 else pool.base.support_low
        leavers, stayers = firing_split(pool, t, mu)
        return MarketNode(
            history, period, pool, wage=wage, threshold=t,
            stay_child=grow(history + STAYED, period + 1, stayers),
            leave_child=grow(history + LEFT, period + 1, leavers))

    root = grow("", 1, LaborPool.entry(dist))
    return MarketTree(dist=dist, mu=mu, n_periods=n_periods, root=root)


# Per regime: its horizon, as solve_regime and wage_schedule take it, and
# the wages that price it, in the order its solution lists them.  The
# one-period market pays one pooled wage and has no schedule.
REGIMES = {
    "one_period": (1, ()),
    "two_period": (2, ("w0", "w1")),
    "three_period": (3, ("w0", "w1", "w_plus", "w2", "w2p")),
}


def wage_schedule(n_periods: int, w) -> tuple[dict[str, float], dict[str, float]]:
    """build_market_tree's (thresholds, wages) maps for the named wages w of
    a two- or three-period horizon (others are ignored).  The pay map lists
    every cohort, in the Monte Carlo replay's report order."""
    if n_periods == 2:
        return {"": w["w1"]}, {"": w["w0"], "L": w["w1"], "S": w["w1"]}
    if n_periods == 3:
        return ({"": w["w_plus"], "S": w["w2"], "L": w["w2p"]},
                {"": w["w0"], "L": w["w1"], "S": w["w_plus"],
                 "SL": w["w2"], "SS": w["w2"], "LL": w["w2p"], "LS": w["w2p"]})
    raise ValueError(f"wage schedules exist for 2 or 3 periods, not {n_periods}")


def _kept(h: str, pay: dict) -> list[str]:
    """The cohorts the employers hiring h go on paying: hS, hSS, ..."""
    return [h + STAYED * i for i in range(1, max(map(len, pay)) + 1) if h + STAYED * i in pay]


def _break_even(h: str, mean: float | None, moments, pay: dict) -> float | None:
    """Wage at which the firms hiring cohort h break even.

    moments[k][0] and moments[k][1] are cohort k's mass and first moment
    (or head count and productivity sum), mean is cohort h's mean and pay a
    wage_schedule pay map.  The terminal markets break even at their own
    cohort mean; the earlier hirers at that mean plus what the cohorts they
    keep earn above their pay, per hire.  None for retained and empty
    cohorts.
    """
    if h.endswith(STAYED) or mean is None:
        return None
    terms = [moments[k][1] - moments[k][0] * pay[k] for k in _kept(h, pay)]
    if not terms:
        return mean
    return mean + reduce(add, terms) / moments[h][0]


def submarket_count(n_periods: int) -> int:
    """Number of post-release markets over an n-period horizon: 2**(n-1) - 1.

    These are the histories ending in a leave step; build_market_tree
    enumerates the same nodes.
    """
    _check_count("n_periods", n_periods, 1)
    return 2 ** (n_periods - 1) - 1


# =====================================================================
# Three-period solution container
# =====================================================================

RESIDUAL_NAMES = (
    "late_market_fixed_point",      # w2 clears the SL market
    "twice_market_fixed_point",     # w2p clears the LL market
    "stay_quit_indifference",       # w_plus + w2 = w1 + w2p
    "entry_zero_profit",            # entry firms break even over 3 periods
    "rehire_zero_profit",           # period-2 hirers break even over 2 periods
)


@dataclass(frozen=True)
class ThreePeriodSolution(Record):
    """Solved three-period equilibrium.

    Masses and means are tree-derived (each cohort's pool is the entry
    distribution times its accumulated retention/quit factors), so they
    conserve mass by construction.  residuals follows RESIDUAL_NAMES.
    """

    mu: float
    w0: float
    w1: float
    w_plus: float
    w2: float
    w2p: float
    theta_bar: float
    theta_bar_stayed: float      # mean of the retained cohort (history S)
    theta_bar_kept: float        # mean of the twice-retained cohort (SS)
    mass_entry: float
    mass_released: float         # history L
    mass_stayed: float           # history S
    mass_late: float             # history SL
    mass_kept: float             # history SS
    mass_twice: float            # history LL
    mass_rehired: float          # history LS
    residuals: tuple[float, float, float, float, float]
    diagnostics: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(abs(r) for r in self.residuals)

    def wages(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in REGIMES["three_period"][1]}

    @staticmethod
    def from_dict(d: dict) -> "ThreePeriodSolution":
        d = dict(d)
        d["residuals"] = tuple(d["residuals"])
        d["diagnostics"] = dict(d.get("diagnostics", {}))
        return ThreePeriodSolution(**d)

    def tree(self, dist: ProductivityDistribution) -> MarketTree:
        """Rebuild the solved market tree for this solution."""
        thresholds, pay = wage_schedule(3, self.wages())
        return build_market_tree(dist, self.mu, 3, thresholds=thresholds, wages=pay)


@dataclass(frozen=True)
class MultiStartReport(Record):
    """Agreement report for the damped multi-start solver.

    `solutions` holds one solution per converged start, in start order,
    and `agree` says only that their wages lie within 1e-6 of each other.
    A start that never converges (one may cycle for all its steps) is
    counted in `n_failed` and compared with nothing, so `agree` can be true
    while some starts failed.
    """

    wage_spread: float
    agree: bool
    n_failed: int = 0
    solutions: tuple[ThreePeriodSolution, ...] = ()


# =====================================================================
# Three-period solver
# =====================================================================

_INNER_SCAN = 129  # grid points of a terminal market's fixed-point scan
_INNER_TOL = 1e-12  # residual target of those scans
_OUTER_SCAN = 257  # grid points of the scan over w_plus
_MULTISTART_STEPS = 4000  # damped steps per multi-start run
_DAMPING = 0.5  # step factor of the multi-start iteration
# Live multi-start runs at or below which each goes on alone with the
# scalar step: a lockstep step costs about as much as 5.5 to 9.7 scalar ones.
_MULTISTART_TAIL = 10


def _is_point_mass(dist: ProductivityDistribution) -> bool:
    return dist.kind == "discrete" and len(dist.atoms) == 1


@dataclass
class _Stage:
    """The wages and the period-2 hirers' profit implied by a candidate
    retention offer w_plus."""

    w_plus: float
    w1: float
    w2: float
    w2p: float
    rehire_profit: float


def _stage_from_w_plus(pool0: LaborPool, mu: float, w_plus: float) -> _Stage:
    released, stayed = firing_split(pool0, w_plus, mu)
    n_rel, m1_rel = released.moments
    if stayed.moments[0] <= 0.0:
        raise DegenerateSystemError(f"no one is retained at w_plus={w_plus}")
    if n_rel <= 0.0:
        raise DegenerateSystemError(f"no one is released at w_plus={w_plus}")
    roots = [m_fixed_points(pool, mu, points=_INNER_SCAN, tol=_INNER_TOL)
             for pool in (stayed, released)]
    if not all(roots):
        raise DegenerateSystemError("a terminal market has no clearing wage")
    (w2,), (w2p,) = roots  # each terminal market clears at one wage
    w1 = w_plus + w2 - w2p  # stay/quit indifference
    n_reh, m1_reh = stayer_moments(released, w2p, mu)
    profit = (m1_rel - n_rel * w1) + (m1_reh - n_reh * w2p)
    return _Stage(w_plus, w1, w2, w2p, profit)


def _split_stack(dist: ProductivityDistribution, mu: float, offers: np.ndarray):
    """The terminal pools of the entry pool of dist at every retention offer
    of the float64 array offers, as one stack with the rows [stayed(offers[0]),
    released(offers[0]), stayed(offers[1]), ...]: the (pieces, ends) that
    :func:`~labormkt.pools._split_moments` takes, each row's moments and
    each row's :func:`~labormkt.pools.pool_inf`, as (R, 1) columns.

    Row i holds the pieces ``[(L, t, low), (t, H, high)]`` that firing_split
    makes at the clamped offer t, with (low, high) = (0, 1 - mu) or (1, mu);
    at t = L it makes only the second, and the empty first piece adds only
    zeros, so every value is bit for bit the split pool's.  A row with no
    workers raises EmptyPoolError, as pool_mean of its pool would.
    """
    lo, hi = dist.support_low, dist.support_high
    t = np.minimum(np.maximum(np.repeat(offers, 2), lo), hi)
    low, high = np.zeros_like(t), np.full_like(t, 1.0 - mu)  # cheaper than np.tile
    low[1::2], high[1::2] = 1.0, mu
    n_t, m1_t = dist._moments_below_clamped(t)
    n, m1 = _split_moments(dist, ((lo, hi, 1.0),), (dist._total,), t, low, high, (n_t, m1_t))
    if not (n > 0.0).all():
        raise EmptyPoolError("a pool row has no workers")
    # pool_inf: the start of the first piece holding workers, snapped up to
    # an atom on a discrete base.
    inf = np.where((low > 0.0) & (n_t > 0.0), lo, t)
    if dist.kind == "discrete":
        xs = dist._arrays[0]
        inf = xs[np.searchsorted(xs, inf, side="left")]
    col = lambda v: v[:, None]
    return (((lo, col(t), col(low)), (col(t), hi, col(high))),
            ((col(n_t), col(m1_t)), dist._total), (col(n), col(m1)), col(inf))


def _finish_solution(dist: ProductivityDistribution, mu: float, stage: _Stage,
                     extra_diag: dict | None = None) -> ThreePeriodSolution:
    """The solution at a stage, read off its market tree: every cohort's
    mass and mean, both terminal residuals, and the entry wage w0 at which
    the entry hirers break even over the cohorts they keep."""
    # w0 is the unknown here: the entry hirers' pay is not read by the rule.
    thresholds, pay = wage_schedule(3, vars(stage) | {"w0": math.nan})
    tree = build_market_tree(dist, mu, 3, thresholds=thresholds)
    moments = {node.history: node.pool.moments for node in tree.nodes()}

    def mean(h: str, empty):
        n_h, m1_h = moments[h]
        return m1_h / n_h if n_h > 0.0 else empty

    mass = {h: n_h for h, (n_h, _) in moments.items()}
    n = mass[""]
    theta_bar = mean("", None)
    w0 = _break_even("", theta_bar, moments, pay)
    (n_stay, m1_stay), (n_kept, m1_kept) = moments["S"], moments["SS"]
    r_late = stage.w2 - m_extended(tree.node("S").pool, stage.w2, mu)
    r_twice = stage.w2p - m_extended(tree.node("L").pool, stage.w2p, mu)
    r_indiff = (stage.w1 + stage.w2p) - (stage.w_plus + stage.w2)
    r_entry = (n * (theta_bar - w0) + (m1_stay - n_stay * stage.w_plus)
               + (m1_kept - n_kept * stage.w2))
    diag = {
        "fixed_point_roots_late": [stage.w2],
        "fixed_point_roots_twice": [stage.w2p],
        "market_means": {"released": mean("L", None), "late": mean("SL", None),
                         "twice": mean("LL", None), "rehired": mean("LS", None)},
    }
    if extra_diag:
        diag.update(extra_diag)
    return ThreePeriodSolution(
        mu=mu, w0=w0, w1=stage.w1, w_plus=stage.w_plus, w2=stage.w2, w2p=stage.w2p,
        theta_bar=theta_bar, theta_bar_stayed=mean("S", math.nan),
        theta_bar_kept=mean("SS", math.nan),
        mass_entry=n, mass_released=mass["L"], mass_stayed=mass["S"], mass_late=mass["SL"],
        mass_kept=mass["SS"], mass_twice=mass["LL"], mass_rehired=mass["LS"],
        residuals=(r_late, r_twice, r_indiff, r_entry, stage.rehire_profit),
        diagnostics=diag)


def _point_mass_solution(dist: ProductivityDistribution, mu: float) -> ThreePeriodSolution:
    theta = dist.atoms[0][0]
    n = dist.atoms[0][1]
    s1 = 1.0 - mu
    return ThreePeriodSolution(
        mu=mu, w0=theta, w1=theta, w_plus=theta, w2=theta, w2p=theta,
        theta_bar=theta, theta_bar_stayed=theta, theta_bar_kept=theta,
        mass_entry=n, mass_released=mu * n, mass_stayed=s1 * n,
        mass_late=s1 * mu * n, mass_kept=s1 * s1 * n,
        mass_twice=mu * mu * n, mass_rehired=mu * s1 * n,
        residuals=(0.0, 0.0, 0.0, 0.0, 0.0),
        diagnostics={
            "degenerate": "single productivity level",
            "market_means": {
                "entry": theta, "released": theta, "stayed": theta,
                "late": theta, "kept": theta, "twice": theta,
                "rehired": theta,
            },
        })


def solve_three_period(dist: ProductivityDistribution, mu: float) -> ThreePeriodSolution:
    """Solve the five-wage three-period system.

    Searches the retention offer w_plus over [pool bottom, entry mean],
    the multi-start's window, for the root of the period-2 hirers'
    zero-profit residual (every other wage is determined by w_plus, in
    :func:`_stage_from_w_plus`) with :func:`~labormkt.solvers.grid_root`:
    10 stages of a 257-point grid find the bracket, which is bisected.  The
    residual is positive at the bottom, where both terminal pools are the
    entry pool scaled by mu and 1 - mu, and has been observed to cross
    zero once along the grid (tested against a scan of the whole grid, not
    proven).  The two zero-profit books, in heads x wage, are gated per
    head hired.  Requires 0 < mu < 1; a single-productivity population
    short-circuits to the exact degenerate answer.
    """
    mu = _check_mu(mu)
    if not 0.0 < mu < 1.0:
        raise ValueError("three-period system needs 0 < mu < 1")
    if _is_point_mass(dist):
        return _point_mass_solution(dist, mu)
    pool0 = LaborPool.entry(dist)
    theta_bar = pool_mean(pool0)
    lo = pool_inf(pool0)

    stages: dict[float, _Stage] = {}  # every stage g solved, for the finish

    def g(w_plus: float) -> float:
        stages[w_plus] = _stage_from_w_plus(pool0, mu, w_plus)
        return stages[w_plus].rehire_profit

    roots = grid_root(g, lo, theta_bar, points=_OUTER_SCAN)
    if not roots:
        best_g, best_w = min((abs(g(w)), w) for w in scan_grid(lo, theta_bar, 33).tolist())
        raise NoConvergenceError(
            "no retention offer balances the period-2 hirers' books",
            best={"w_plus": best_w}, residuals={"rehire_zero_profit": best_g})
    sol = _finish_solution(dist, mu, stages[roots[0]], extra_diag={"w_plus_candidates": roots})
    # The two books are in heads x wage: gate them per head hired, never
    # more strictly than the wage residuals.
    r = sol.residuals
    per_head = (*r[:3], r[3] / max(1.0, sol.mass_entry), r[4] / max(1.0, sol.mass_released))
    if max(map(abs, per_head)) > 1e-8:
        raise NoConvergenceError(
            f"three-period residuals stalled at {sol.max_residual:.3e}",
            best=sol.wages(), residuals=dict(zip(RESIDUAL_NAMES, sol.residuals)))
    return sol


def _damped_steps(pool0: LaborPool, mu: float, lo: float, theta_bar: float,
                  w_plus: float, w2: float, w2p: float, steps: int) -> float | None:
    """At most `steps` damped steps of one multi-start run from the state
    (w_plus, w2, w2p): its final offer if it converged, else None."""
    d = _DAMPING
    for _ in range(steps):
        released, stayed = firing_split(pool0, w_plus, mu)
        n_rel, m1_rel = released.moments
        w2_new = w2 + d * (m_extended(stayed, w2, mu) - w2)
        w2p_new = w2p + d * (m_extended(released, w2p, mu) - w2p)
        w1 = w_plus + w2_new - w2p_new
        n_reh, m1_reh = stayer_moments(released, w2p_new, mu)
        profit = (m1_rel - n_rel * w1) + (m1_reh - n_reh * w2p_new)
        w_plus_new = w_plus + d * profit / n_rel
        # Keep the retention offer where someone is retained.
        w_plus_new = min(max(w_plus_new, lo - abs(lo)), theta_bar)
        step = max(abs(w2_new - w2), abs(w2p_new - w2p), abs(w_plus_new - w_plus))
        w2, w2p, w_plus = w2_new, w2p_new, w_plus_new
        if step <= 1e-13 and abs(profit) <= _TOL:
            return w_plus
    return None


def _damped_runs(pool0: LaborPool, mu: float, lo: float, theta_bar: float,
                 w_plus: np.ndarray) -> list[float | None]:
    """:func:`_damped_steps` from every start offer of the float64 array
    w_plus, each from the stayer and leaver means at its offer, for
    _MULTISTART_STEPS steps, bit for bit.

    The live starts ("lanes") step in lockstep: their [stayed, released]
    pools form one :func:`_split_stack`, and each update is the scalar
    step's float operations on arrays (m_extended's by its array twin
    :func:`~labormkt.solvers._leaver_mean_rows`).  A converged lane leaves;
    once at most _MULTISTART_TAIL are live, each goes on alone with the
    scalar step and the steps it has left.
    """
    base = pool0.base
    bottom, top = base.support_low, base.support_high
    final: list[float | None] = [None] * len(w_plus)
    lane = np.arange(len(w_plus))
    d, floor = _DAMPING, lo - abs(lo)
    pieces, ends, (n, m1), inf = _split_stack(base, mu, w_plus)
    w = (m1 / n).reshape(-1, 2)  # per lane [w2, w2p], the rows' order
    done = 0
    while done < _MULTISTART_STEPS and len(lane) > _MULTISTART_TAIL:
        if done:
            pieces, ends, (n, m1), inf = _split_stack(base, mu, w_plus)
        n_rel, m1_rel = n[1::2, 0], m1[1::2, 0]
        # Each row's leaver mean at its lane's [w2, w2p], as m_extended.
        m = _leaver_mean_rows(base, pieces, ends, (n, m1), inf, w.reshape(-1, 1), mu)
        w_new = w + d * (m.reshape(-1, 2) - w)
        w2_new, w2p_new = w_new[:, 0], w_new[:, 1]
        w1 = w_plus + w2_new - w2p_new
        # Every row's stayers at its lane's new [w2, w2p]; the released
        # rows' are the rehired.
        t = np.minimum(np.maximum(w_new.reshape(-1, 1), bottom), top)
        n_reh, m1_reh = (v[1::2, 0] for v in _split_moments(base, pieces, ends, t, 0.0, 1.0 - mu))
        profit = (m1_rel - n_rel * w1) + (m1_reh - n_reh * w2p_new)
        w_plus_new = w_plus + d * profit / n_rel
        w_plus_new = np.minimum(np.maximum(w_plus_new, floor), theta_bar)
        step = np.maximum(np.abs(w_new - w).max(axis=1), np.abs(w_plus_new - w_plus))
        w, w_plus = w_new, w_plus_new
        done += 1
        ended = (step <= 1e-13) & (np.abs(profit) <= _TOL)
        if ended.any():
            for i, wp in zip(lane[ended].tolist(), w_plus[ended].tolist()):
                final[i] = wp
            lane, w, w_plus = lane[~ended], w[~ended], w_plus[~ended]
    for i, wp, (w2, w2p) in zip(lane.tolist(), w_plus.tolist(), w.tolist()):
        final[i] = _damped_steps(pool0, mu, lo, theta_bar, wp, w2, w2p, _MULTISTART_STEPS - done)
    return final


def solve_three_period_multistart(dist: ProductivityDistribution, mu: float,
                                  n_starts: int = 64, seed: int = 20240601) -> MultiStartReport:
    """Damped fixed-point iteration from random starts.

    An independent route to the three-period solution: all five wages are
    updated simultaneously with step `_DAMPING` (terminal wages toward
    the current leaver means, the retention offer along the period-2
    hirers' profit), from n_starts random initial offers.  Reports the
    largest across-start wage spread; disagreement beyond 1e-6 flags a
    multi-equilibrium configuration and all solutions are returned.
    n_starts must be a positive integer and seed a nonnegative one.

    The starts run in lockstep, as arrays, and the last few stragglers run
    on one at a time with the scalar step (:func:`_damped_runs`); every
    start ends bit for bit where a run of its own would.  Each converged
    start is finished, in start order, with :func:`_stage_from_w_plus`, the
    stage :func:`solve_three_period` finishes with.
    """
    _check_count("n_starts", n_starts, 1)
    _check_count("seed", seed, 0)
    mu = _check_mu(mu)
    if not 0.0 < mu < 1.0:
        raise ValueError("three-period system needs 0 < mu < 1")
    if _is_point_mass(dist):
        sol = _point_mass_solution(dist, mu)
        return MultiStartReport(wage_spread=0.0, agree=True, solutions=(sol,))
    pool0 = LaborPool.entry(dist)
    theta_bar = pool_mean(pool0)
    lo = pool_inf(pool0)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(lo, theta_bar, n_starts)
    final = _damped_runs(pool0, mu, lo, theta_bar, starts)
    converged = [w for w in final if w is not None]  # in start order
    if not converged:
        raise NoConvergenceError("no multi-start run converged")
    sols = [_finish_solution(dist, mu, _stage_from_w_plus(pool0, mu, w)) for w in converged]
    wages = [s.wages() for s in sols]
    spread = max(max(w[k] for w in wages) - min(w[k] for w in wages) for k in wages[0])
    return MultiStartReport(wage_spread=spread, agree=spread <= 1e-6,
                            n_failed=len(final) - len(converged), solutions=tuple(sols))


def solve_regime(dist: ProductivityDistribution, mu: float, n_periods: int):
    """Solve the model under an n-period horizon (n = 1, 2 or 3).

    n = 1 returns the pooled one-period wage (or MarketCollapse), n = 2
    the :func:`solve_two_period` solution and n = 3 the full system.
    Larger horizons build trees but have no wage solver yet.
    """
    _check_count("n_periods", n_periods, 1)
    if n_periods == 1:
        return one_period_wage(dist)
    if n_periods == 2:
        return solve_two_period(dist, mu)
    if n_periods == 3:
        return solve_three_period(dist, mu)
    raise NotImplementedError(
        f"wage solving is implemented for horizons 1..3, not {n_periods} "
        "(build_market_tree still works for any horizon)")


# =====================================================================
# Wage-structure checks
# =====================================================================

def check_final_wage_ordering(sol: ThreePeriodSolution) -> InequalitySuite:
    """Period-3 wage ladder: twice-released < late-released < kept mean.

    Twice-released workers pool the worst selection, so their market
    clears lowest; workers released after surviving one review do better;
    the twice-retained cohort's average productivity tops both, which is
    what lets their employers profit from paying only w2.
    """
    return InequalitySuite(
        name="final_wage_ordering",
        asserted=(
            InequalityCheck("w2p < w2", sol.w2p, sol.w2),
            InequalityCheck("w2 < theta_bar_kept", sol.w2, sol.theta_bar_kept),
        ))


def check_stay_wage_discount(sol: ThreePeriodSolution) -> InequalitySuite:
    """Retained workers accept a discounted offer; released pools overpay.

    Asserted: the retention offer sits below the released-market wage and
    below the retained cohort's own mean (they are underpaid while
    employers hold the information rent); the retained mean sits below the
    twice-retained mean; and the twice-released wage sits below the
    retained mean.  The period-2 hirers pay above their pool's mean (they
    recoup through the workers they keep), so theta_bar_released < w1.

    Informational: w_plus vs w2p and theta_bar_stayed vs w1 flip sign with
    mu and are reported without being asserted.
    """
    released_mean = sol.diagnostics.get("market_means", {}).get("released")
    if released_mean is None:
        released_mean = float("nan")
    return InequalitySuite(
        name="stay_wage_discount",
        asserted=(
            InequalityCheck("w_plus < w1", sol.w_plus, sol.w1),
            InequalityCheck("w_plus < theta_bar_stayed", sol.w_plus, sol.theta_bar_stayed),
            InequalityCheck("theta_bar_stayed < theta_bar_kept",
                            sol.theta_bar_stayed, sol.theta_bar_kept),
            InequalityCheck("w2p < theta_bar_stayed", sol.w2p, sol.theta_bar_stayed),
            InequalityCheck("theta_bar_released < w1", released_mean, sol.w1),
        ),
        informational=(
            InequalityCheck("w_plus < w2p", sol.w_plus, sol.w2p),
            InequalityCheck("theta_bar_stayed < w1", sol.theta_bar_stayed, sol.w1),
        ))


# =====================================================================
# Lifetime wage comparison across horizons
# =====================================================================

@dataclass(frozen=True)
class DecileRow(Record):
    """Expected lifetime pay of one productivity decile under each horizon."""

    decile: int
    theta_low: float
    theta_high: float
    mass_share: float
    two_period_total: float
    three_period_total: float
    _derived = ("two_period_per_period", "three_period_per_period", "per_period_difference")

    @property
    def two_period_per_period(self) -> float:
        return self.two_period_total / 2.0

    @property
    def three_period_per_period(self) -> float:
        return self.three_period_total / 3.0

    @property
    def per_period_difference(self) -> float:
        """Three-period minus two-period average pay per period worked."""
        return self.three_period_per_period - self.two_period_per_period


@dataclass(frozen=True)
class WelfareComparison(Record):
    """Decile-by-decile lifetime pay under the 2- and 3-period horizons.

    Totals are expected wage sums over each horizon's own length; the
    comparable quantity is the per-period average (horizons differ in
    length, so raw sums are not commensurate).  The solved result: under
    both horizons every worker's expected pay per period equals the
    population mean — competition returns the whole surplus to labor in
    aggregate, and the stay/quit indifference equalizes it across workers,
    so longer screening horizons shift pay across time, not across people.
    """

    mu: float
    two_period: TwoPeriodSolution
    three_period: ThreePeriodSolution
    deciles: tuple[DecileRow, ...]
    aggregate_two_period_total: float
    aggregate_three_period_total: float
    _derived = ("aggregate_per_period_difference",)

    @property
    def aggregate_per_period_difference(self) -> float:
        return (self.aggregate_three_period_total / 3.0
                - self.aggregate_two_period_total / 2.0)

    @staticmethod
    def from_dict(d: dict) -> "WelfareComparison":
        return WelfareComparison(
            mu=d["mu"],
            two_period=TwoPeriodSolution.from_dict(d["two_period"]),
            three_period=ThreePeriodSolution.from_dict(d["three_period"]),
            deciles=tuple(DecileRow(**{k: r[k] for k in (
                "decile", "theta_low", "theta_high", "mass_share",
                "two_period_total", "three_period_total")}) for r in d["deciles"]),
            aggregate_two_period_total=d["aggregate_two_period_total"],
            aggregate_three_period_total=d["aggregate_three_period_total"])


def welfare_comparison(dist: ProductivityDistribution, mu: float) -> WelfareComparison:
    """Expected lifetime pay by productivity decile under both horizons.

    Two-period pay is w0 + w1 for every worker (retained workers are paid
    exactly the outside wage).  Three-period pay is w0 plus, for workers
    below the retention bar, the released path w1 + w2p, and for the rest
    the (1 - mu)/mu mixture of staying (w_plus + w2) and quitting
    (w1 + w2p) — which the indifference condition makes equal.
    """
    mu = _check_mu(mu)
    sol2 = solve_two_period(dist, mu)
    if sol2.collapsed:
        raise ValueError("two-period market collapsed; no comparison to make")
    sol3 = solve_three_period(dist, mu)
    n = dist.total_mass()
    n_above, _ = dist._moments_at_or_above(sol3.w_plus)

    pay2 = sol2.w0 + sol2.w1
    path_released = sol3.w1 + sol3.w2p
    path_retained = (1.0 - mu) * (sol3.w_plus + sol3.w2) + mu * path_released

    rows = []
    for k in range(10):
        share_lo, share_hi = k / 10.0, (k + 1) / 10.0
        # Overlap of this mass decile with the retained (top) tail, done in
        # cumulative-mass coordinates so straddling atoms split exactly.
        above_lo = 1.0 - n_above / n
        frac_above = max(0.0, min(share_hi, 1.0) - max(share_lo, above_lo)) * 10.0
        frac_above = min(1.0, frac_above)
        pay3 = sol3.w0 + (1.0 - frac_above) * path_released + frac_above * path_retained
        rows.append(DecileRow(
            decile=k + 1,
            theta_low=quantile(dist, share_lo),
            theta_high=quantile(dist, share_hi),
            mass_share=0.1,
            two_period_total=pay2,
            three_period_total=pay3))
    agg3 = sum(r.three_period_total for r in rows) / 10.0
    return WelfareComparison(
        mu=mu, two_period=sol2, three_period=sol3, deciles=tuple(rows),
        aggregate_two_period_total=pay2, aggregate_three_period_total=agg3)
