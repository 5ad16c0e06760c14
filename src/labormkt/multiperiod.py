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
triangular in ``w_plus``: given the retention offer, both fixed points,
the indifference wage and the entry wage follow, leaving one scalar
zero-profit condition to bisect.  A damped multi-start iteration provides
an independent route to the same solution for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .equilibrium import (
    InequalityCheck,
    TwoPeriodSolution,
    one_period_wage,
    solve_two_period,
)
from .errors import (
    DegenerateSystemError,
    InvalidThresholdError,
    NoConvergenceError,
)
from .pools import (
    LaborPool,
    ProductivityDistribution,
    _moments,
    _restricted_moments,
    firing_split,
    leaver_moments,
    pool_inf,
    pool_mass,
    pool_mean,
    quantile,
    stayer_moments,
)
from .solvers import DEFAULT_OPTIONS, SolverOptions, m_extended, m_fixed_points, scan_roots

__all__ = [
    "MarketNode",
    "MarketTree",
    "ThreePeriodSolution",
    "MultiStartReport",
    "InequalitySuite",
    "WelfareComparison",
    "DecileRow",
    "build_market_tree",
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
    def is_market(self) -> bool:
        """True for cohorts hired on an open market (entry or post-release)."""
        return self.history == "" or self.history.endswith(LEFT)

    @property
    def off_market(self) -> bool:
        """True for the hired-after-release markets (excludes the entry pool)."""
        return self.history.endswith(LEFT)

    def mass(self) -> float:
        return pool_mass(self.pool)

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


def build_market_tree(dist: ProductivityDistribution, mu: float, n_periods: int,
                      thresholds=None, wages=None) -> MarketTree:
    """Construct the history tree by replaying splits round after round.

    thresholds maps a history string to the review wage applied at the end
    of that cohort's period, or is a callable (history, pool) -> wage; the
    default uses each cohort's own pool mean, enough for structural work
    like counting markets.  wages, if given, maps histories to the wage
    label attached to each node.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be at least 1")
    from .pools import _check_mu

    _check_mu(mu)
    wages = wages or {}

    def lookup_threshold(history: str, pool: LaborPool) -> float:
        if thresholds is None:
            return pool_mean(pool)
        if callable(thresholds):
            return float(thresholds(history, pool))
        try:
            return float(thresholds[history])
        except KeyError:
            raise InvalidThresholdError(f"no review threshold supplied for cohort {history!r}")

    def grow(history: str, period: int, pool: LaborPool) -> MarketNode:
        wage = wages.get(history)
        if period == n_periods:
            return MarketNode(history, period, pool, wage=wage)
        if pool_mass(pool) > 0.0:
            t = lookup_threshold(history, pool)
        else:
            t = pool.base.support_low  # empty cohort: split is a no-op
        leavers, stayers = firing_split(pool, t, mu)
        return MarketNode(
            history, period, pool, wage=wage, threshold=t,
            stay_child=grow(history + STAYED, period + 1, stayers),
            leave_child=grow(history + LEFT, period + 1, leavers))

    root = grow("", 1, LaborPool.entry(dist))
    return MarketTree(dist=dist, mu=mu, n_periods=n_periods, root=root)


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


def submarket_count(n_periods: int) -> int:
    """Number of post-release markets over an n-period horizon: 2**(n-1) - 1.

    These are the histories ending in a leave step; build_market_tree
    enumerates the same nodes.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be at least 1")
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
class ThreePeriodSolution:
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
        return {"w0": self.w0, "w1": self.w1, "w_plus": self.w_plus,
                "w2": self.w2, "w2p": self.w2p}

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "mu", "w0", "w1", "w_plus", "w2", "w2p",
            "theta_bar", "theta_bar_stayed", "theta_bar_kept",
            "mass_entry", "mass_released", "mass_stayed", "mass_late",
            "mass_kept", "mass_twice", "mass_rehired")}
        d["residuals"] = list(self.residuals)
        d["diagnostics"] = dict(self.diagnostics)
        return d

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
class MultiStartReport:
    """Agreement report for the damped multi-start solver."""

    solutions: tuple[ThreePeriodSolution, ...]
    wage_spread: float
    agree: bool
    n_failed: int = 0

    def to_dict(self) -> dict:
        return {"wage_spread": self.wage_spread, "agree": self.agree,
                "n_failed": self.n_failed,
                "solutions": [s.to_dict() for s in self.solutions]}


# =====================================================================
# Three-period solver
# =====================================================================

_INNER_SCAN = 129
_OUTER_SCAN = 257
_DAMPING = 0.5  # step factor of the multi-start iteration


def _is_point_mass(dist: ProductivityDistribution) -> bool:
    return dist.kind == "discrete" and len(dist.atoms) == 1


def _inner_opts(opts: SolverOptions) -> SolverOptions:
    return replace(opts, scan_points=min(opts.scan_points, _INNER_SCAN),
                   tol=min(opts.tol, 1e-12))


@dataclass
class _Stage:
    """Everything implied by a candidate retention offer w_plus."""

    w_plus: float
    w1: float
    w2: float
    w2p: float
    released: LaborPool
    stayed: LaborPool
    rehire_profit: float
    roots_late: tuple[float, ...]
    roots_twice: tuple[float, ...]


def _stage_from_w_plus(pool0: LaborPool, mu: float, w_plus: float,
                       opts: SolverOptions) -> _Stage:
    released, stayed = firing_split(pool0, w_plus, mu)
    if pool_mass(stayed) <= 0.0:
        raise DegenerateSystemError(f"no one is retained at w_plus={w_plus}")
    if pool_mass(released) <= 0.0:
        raise DegenerateSystemError(f"no one is released at w_plus={w_plus}")
    inner = _inner_opts(opts)
    roots_late = m_fixed_points(stayed, mu, inner)
    roots_twice = m_fixed_points(released, mu, inner)
    if not roots_late or not roots_twice:
        raise DegenerateSystemError("a terminal market has no clearing wage")
    w2 = roots_late[-1]
    w2p = roots_twice[-1]
    w1 = w_plus + w2 - w2p  # stay/quit indifference
    n_rel, m1_rel = _moments(released)
    n_reh, m1_reh = stayer_moments(released, w2p, mu)
    profit = (m1_rel - n_rel * w1) + (m1_reh - n_reh * w2p)
    return _Stage(w_plus, w1, w2, w2p, released, stayed, profit,
                  tuple(roots_late), tuple(roots_twice))


def _finish_solution(dist: ProductivityDistribution, mu: float, stage: _Stage,
                     extra_diag: dict | None = None) -> ThreePeriodSolution:
    pool0 = LaborPool.entry(dist)
    n, m1 = _moments(pool0)
    theta_bar = m1 / n
    n_late, m1_late = leaver_moments(stage.stayed, stage.w2, mu)
    n_kept, m1_kept = stayer_moments(stage.stayed, stage.w2, mu)
    n_twice, m1_twice = leaver_moments(stage.released, stage.w2p, mu)
    n_reh, m1_reh = stayer_moments(stage.released, stage.w2p, mu)
    n_stay, m1_stay = _moments(stage.stayed)
    mean_stayed = m1_stay / n_stay if n_stay > 0.0 else float("nan")
    mean_kept = m1_kept / n_kept if n_kept > 0.0 else float("nan")
    w0 = theta_bar + ((m1_stay - n_stay * stage.w_plus)
                      + (m1_kept - n_kept * stage.w2)) / n
    r_late = stage.w2 - m_extended(stage.stayed, stage.w2, mu)
    r_twice = stage.w2p - m_extended(stage.released, stage.w2p, mu)
    r_indiff = (stage.w1 + stage.w2p) - (stage.w_plus + stage.w2)
    r_entry = (n * (theta_bar - w0) + (m1_stay - n_stay * stage.w_plus)
               + (m1_kept - n_kept * stage.w2))
    diag = {
        "fixed_point_roots_late": list(stage.roots_late),
        "fixed_point_roots_twice": list(stage.roots_twice),
        "market_means": {
            "released": pool_mean(stage.released),
            "late": m1_late / n_late if n_late > 0.0 else None,
            "twice": m1_twice / n_twice if n_twice > 0.0 else None,
            "rehired": m1_reh / n_reh if n_reh > 0.0 else None,
        },
    }
    if extra_diag:
        diag.update(extra_diag)
    return ThreePeriodSolution(
        mu=mu, w0=w0, w1=stage.w1, w_plus=stage.w_plus, w2=stage.w2, w2p=stage.w2p,
        theta_bar=theta_bar, theta_bar_stayed=mean_stayed, theta_bar_kept=mean_kept,
        mass_entry=n, mass_released=pool_mass(stage.released),
        mass_stayed=n_stay, mass_late=n_late, mass_kept=n_kept,
        mass_twice=n_twice, mass_rehired=n_reh,
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


def solve_three_period(dist: ProductivityDistribution, mu: float,
                       opts: SolverOptions = DEFAULT_OPTIONS) -> ThreePeriodSolution:
    """Solve the five-wage three-period system.

    Scans the retention offer w_plus over [pool bottom, entry mean] for
    roots of the period-2 hirers' zero-profit residual (every other wage
    is determined by w_plus), bisects, and returns the largest root.  The
    scan widens once toward the support top before giving up.  Requires
    0 < mu < 1; a single-productivity population short-circuits to the
    exact degenerate answer.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("three-period system needs 0 < mu < 1")
    if _is_point_mass(dist):
        return _point_mass_solution(dist, mu)
    pool0 = LaborPool.entry(dist)
    theta_bar = pool_mean(pool0)
    lo = pool_inf(pool0)
    scan_opts = replace(opts, scan_points=min(opts.scan_points, _OUTER_SCAN))

    def g(w_plus: float) -> float:
        return _stage_from_w_plus(pool0, mu, w_plus, opts).rehire_profit

    roots = scan_roots(g, lo, theta_bar, scan_opts)
    if not roots:
        hi2 = theta_bar + 0.75 * (dist.support_high - theta_bar)
        roots = scan_roots(g, lo, hi2, scan_opts)
    if not roots:
        best_w = min((abs(g(lo + (theta_bar - lo) * i / 32)), lo + (theta_bar - lo) * i / 32)
                     for i in range(33))
        raise NoConvergenceError(
            "no retention offer balances the period-2 hirers' books",
            best={"w_plus": best_w[1]}, residuals={"rehire_zero_profit": best_w[0]})
    stage = _stage_from_w_plus(pool0, mu, roots[-1], opts)
    sol = _finish_solution(dist, mu, stage,
                           extra_diag={"w_plus_candidates": list(roots)})
    if sol.max_residual > max(opts.tol, 1e-8):
        raise NoConvergenceError(
            f"three-period residuals stalled at {sol.max_residual:.3e}",
            best=sol.wages(), residuals=dict(zip(RESIDUAL_NAMES, sol.residuals)))
    return sol


def solve_three_period_multistart(dist: ProductivityDistribution, mu: float,
                                  n_starts: int = 64, seed: int = 20240601,
                                  opts: SolverOptions = DEFAULT_OPTIONS) -> MultiStartReport:
    """Damped fixed-point iteration from random starts.

    An independent route to the three-period solution: all five wages are
    updated simultaneously with step `_DAMPING` (terminal wages toward
    the current leaver means, the retention offer along the period-2
    hirers' profit), from n_starts random initial offers.  Reports the
    largest across-start wage spread; disagreement beyond 1e-6 flags a
    multi-equilibrium configuration and all solutions are returned.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("three-period system needs 0 < mu < 1")
    if _is_point_mass(dist):
        sol = _point_mass_solution(dist, mu)
        return MultiStartReport(solutions=(sol,), wage_spread=0.0, agree=True)
    pool0 = LaborPool.entry(dist)
    theta_bar = pool_mean(pool0)
    lo = pool_inf(pool0)
    rng = np.random.default_rng(seed)
    d = _DAMPING
    budget = max(opts.max_iter * 20, 2000)
    sols: list[ThreePeriodSolution] = []
    n_failed = 0
    for _ in range(n_starts):
        w_plus = float(rng.uniform(lo, theta_bar))
        released, stayed = firing_split(pool0, w_plus, mu)
        w2 = pool_mean(stayed)
        w2p = pool_mean(released)
        converged = False
        for _ in range(budget):
            released, stayed = firing_split(pool0, w_plus, mu)
            n_rel, m1_rel = _moments(released)
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
            if step <= 1e-13 and abs(profit) <= opts.tol:
                converged = True
                break
        if not converged:
            n_failed += 1
            continue
        stage = _stage_from_w_plus(pool0, mu, w_plus, opts)
        sols.append(_finish_solution(dist, mu, stage))
    if not sols:
        raise NoConvergenceError("no multi-start run converged")
    keys = ("w0", "w1", "w_plus", "w2", "w2p")
    spread = max(max(getattr(s, k) for s in sols) - min(getattr(s, k) for s in sols)
                 for k in keys)
    return MultiStartReport(solutions=tuple(sols), wage_spread=spread,
                            agree=spread <= 1e-6, n_failed=n_failed)


def solve_regime(dist: ProductivityDistribution, mu: float, n_periods: int,
                 opts: SolverOptions = DEFAULT_OPTIONS):
    """Solve the model under an n-period horizon (n = 1, 2 or 3).

    n = 1 returns the pooled one-period wage (or MarketCollapse), n = 2
    the :func:`solve_two_period` solution and n = 3 the full system.
    Larger horizons build trees but have no wage solver yet.
    """
    if n_periods == 1:
        return one_period_wage(dist)
    if n_periods == 2:
        return solve_two_period(dist, mu, opts)
    if n_periods == 3:
        return solve_three_period(dist, mu, opts)
    raise NotImplementedError(
        f"wage solving is implemented for horizons 1..3, not {n_periods} "
        "(build_market_tree still works for any horizon)")


# =====================================================================
# Wage-structure checks
# =====================================================================

@dataclass(frozen=True)
class InequalitySuite:
    """A named bundle of inequality checks.

    asserted rows are the claims expected to hold in equilibrium;
    informational rows are evaluated and reported but excluded from the
    pass/fail aggregate (they flip sign across configurations).
    """

    name: str
    asserted: tuple[InequalityCheck, ...]
    informational: tuple[InequalityCheck, ...] = ()

    @property
    def all_strict(self) -> bool:
        return all(c.strict for c in self.asserted)

    @property
    def all_weak(self) -> bool:
        return all(c.holds_weakly for c in self.asserted)

    def to_dict(self) -> dict:
        return {"name": self.name,
                "asserted": [c.to_dict() for c in self.asserted],
                "informational": [c.to_dict() for c in self.informational],
                "all_strict": self.all_strict, "all_weak": self.all_weak}


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
class DecileRow:
    """Expected lifetime pay of one productivity decile under each horizon."""

    decile: int
    theta_low: float
    theta_high: float
    mass_share: float
    two_period_total: float
    three_period_total: float

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

    def to_dict(self) -> dict:
        return {"decile": self.decile, "theta_low": self.theta_low,
                "theta_high": self.theta_high, "mass_share": self.mass_share,
                "two_period_total": self.two_period_total,
                "three_period_total": self.three_period_total,
                "two_period_per_period": self.two_period_per_period,
                "three_period_per_period": self.three_period_per_period,
                "per_period_difference": self.per_period_difference}


@dataclass(frozen=True)
class WelfareComparison:
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

    @property
    def aggregate_per_period_difference(self) -> float:
        return (self.aggregate_three_period_total / 3.0
                - self.aggregate_two_period_total / 2.0)

    def to_dict(self) -> dict:
        return {"mu": self.mu,
                "two_period": self.two_period.to_dict(),
                "three_period": self.three_period.to_dict(),
                "deciles": [r.to_dict() for r in self.deciles],
                "aggregate_two_period_total": self.aggregate_two_period_total,
                "aggregate_three_period_total": self.aggregate_three_period_total,
                "aggregate_per_period_difference": self.aggregate_per_period_difference}

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


def welfare_comparison(dist: ProductivityDistribution, mu: float,
                       opts: SolverOptions = DEFAULT_OPTIONS) -> WelfareComparison:
    """Expected lifetime pay by productivity decile under both horizons.

    Two-period pay is w0 + w1 for every worker (retained workers are paid
    exactly the outside wage).  Three-period pay is w0 plus, for workers
    below the retention bar, the released path w1 + w2p, and for the rest
    the (1 - mu)/mu mixture of staying (w_plus + w2) and quitting
    (w1 + w2p) — which the indifference condition makes equal.
    """
    sol2 = solve_two_period(dist, mu, opts)
    if sol2.collapsed:
        raise ValueError("two-period market collapsed; no comparison to make")
    sol3 = solve_three_period(dist, mu, opts)
    pool0 = LaborPool.entry(dist)
    n = pool_mass(pool0)
    n_above, _ = _restricted_moments(pool0, sol3.w_plus, dist.support_high)

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
