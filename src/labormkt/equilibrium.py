"""One- and two-period competitive wage formation with informed incumbents.

Period 1: firms hire blind from the entry pool at w0.  At the end of the
period each firm has seen its own workers' productivities; it keeps anyone
worth more than the outside re-hiring wage w1 (those also leave on their
own with probability mu) and releases the rest.  Period 2: released
workers are hired by uninformed firms at w1, which in equilibrium must be
the released pool's average productivity — the fixed point of the leaver
mean operator.  Competition then pins the entry wage w0 through the
two-period zero-profit condition

    N * (theta_bar - w0) + Q * (theta_bar2 - w1) = 0

where Q is the retained mass and theta_bar2 its average productivity.

If no nonnegative re-hiring wage clears the released pool the second
market cannot operate; that outcome is the value MarketCollapse rather
than an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._records import Record
from .pools import LaborPool, ProductivityDistribution, _check_mu, pool_mass, pool_mean
from .solvers import m_extended, m_fixed_points

__all__ = [
    "MarketCollapse",
    "TwoPeriodSolution",
    "InequalityCheck",
    "InequalitySuite",
    "one_period_wage",
    "secondhand_fixed_point",
    "secondhand_fixed_points",
    "solve_two_period",
    "check_two_period_ordering",
]


@dataclass(frozen=True)
class MarketCollapse:
    """Typed no-market outcome: no admissible wage clears the market."""

    reason: str = ""


# Gaps within this of zero count as equalities.
_GAP_TOL = 1e-10


@dataclass(frozen=True)
class InequalityCheck(Record):
    """One evaluated claim of the form lhs < rhs."""

    label: str
    lhs: float
    rhs: float
    _derived = ("strict", "equal")

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    @property
    def strict(self) -> bool:
        return self.gap > _GAP_TOL

    @property
    def equal(self) -> bool:
        return abs(self.gap) <= _GAP_TOL

    @property
    def holds_weakly(self) -> bool:
        return self.gap >= -_GAP_TOL


@dataclass(frozen=True)
class InequalitySuite(Record):
    """A named bundle of inequality checks.

    asserted rows are the claims expected to hold in equilibrium;
    informational rows are evaluated and reported but excluded from the
    pass/fail aggregate (they flip sign across configurations).
    """

    name: str
    asserted: tuple[InequalityCheck, ...]
    informational: tuple[InequalityCheck, ...] = ()
    _derived = ("all_strict", "all_weak")

    @property
    def all_strict(self) -> bool:
        return all(c.strict for c in self.asserted)

    @property
    def all_weak(self) -> bool:
        return all(c.holds_weakly for c in self.asserted)


@dataclass(frozen=True)
class TwoPeriodSolution(Record):
    """Solved two-period equilibrium (or its collapse record).

    Residuals are signed: residual_fixed_point = w1 - M(w1) and
    residual_zero_profit is the left side of the zero-profit condition.
    fixed_point_roots lists every root the scan found; w1 is the largest
    admissible one.
    """

    mu: float
    w0: float
    w1: float
    theta_bar: float
    theta_bar2: float
    mass_total: float
    mass_retained: float
    residual_fixed_point: float
    residual_zero_profit: float
    collapsed: bool = False
    collapse_reason: str = ""
    fixed_point_roots: tuple[float, ...] = field(default=())

    @staticmethod
    def from_dict(d: dict) -> "TwoPeriodSolution":
        d = dict(d)
        d["fixed_point_roots"] = tuple(d.get("fixed_point_roots", ()))
        return TwoPeriodSolution(**d)


# =====================================================================
# Operations
# =====================================================================

def one_period_wage(dist: ProductivityDistribution) -> float | MarketCollapse:
    """Single-period pooled wage: the population mean, if nonnegative.

    With one period there is no screening, every firm pays the same pooled
    wage, and competition drives it to the average productivity.  A
    negative average means no wage in [0, inf) lets firms break even.
    """
    theta_bar = dist.mean()
    if theta_bar < 0.0:
        return MarketCollapse(f"average productivity {theta_bar} is negative")
    return theta_bar


def secondhand_fixed_points(dist: ProductivityDistribution, mu: float) -> tuple[float, ...]:
    """The fixed point of the leaver-mean operator on the entry pool, as a
    tuple of at most one wage.

    g(w) = w - M(w) rises through zero once, so the released market clears
    at the one sign change of g on the 1,024-point scan grid, found by
    halving grid indices and bisected to |g| <= 1e-10
    (:func:`~labormkt.solvers.m_fixed_points`).  A grid point where g only
    comes within 1e-10 above zero is not a second root.  The tuple is
    empty if the grid ends do not straddle zero and neither is within
    1e-10.  Diagnostic companion to :func:`secondhand_fixed_point`; the
    root is reported even when it is inadmissible as a market wage
    (negative).
    """
    mu = _check_mu(mu)
    return tuple(m_fixed_points(LaborPool.entry(dist), mu))


def secondhand_fixed_point(dist: ProductivityDistribution, mu: float) -> float | MarketCollapse:
    """Equilibrium wage of the released-worker market.

    Solves w = M(w) where M is the leaver-pool mean and returns its root
    if that is nonnegative.  With mu = 0 the only candidate is the degenerate
    boundary root at the bottom of the support (the released pool empties
    there); it is returned when it is a nonnegative wage and reported as a
    collapse otherwise, matching the mu = 0 shutdown of the market.
    """
    return _largest_admissible_root(secondhand_fixed_points(dist, mu))


def _largest_admissible_root(roots: tuple[float, ...]) -> float | MarketCollapse:
    """The largest nonnegative root, or a collapse listing every root."""
    admissible = [r for r in roots if r >= 0.0]
    if not admissible:
        detail = f"no nonnegative re-hiring wage (roots: {list(roots)})"
        return MarketCollapse(detail)
    return admissible[-1]


def solve_two_period(dist: ProductivityDistribution, mu: float) -> TwoPeriodSolution:
    """Full two-period solve: fixed point, then zero-profit entry wage.

    A collapsed second-hand market yields a solution flagged collapsed with
    NaN wages; the population statistics are still filled in.
    """
    mu = _check_mu(mu)
    pool = LaborPool.entry(dist)
    n = pool_mass(pool)
    theta_bar = pool_mean(pool)
    roots = secondhand_fixed_points(dist, mu)
    w1 = _largest_admissible_root(roots)
    if isinstance(w1, MarketCollapse):
        nan = float("nan")
        return TwoPeriodSolution(
            mu=mu, w0=nan, w1=nan, theta_bar=theta_bar, theta_bar2=nan,
            mass_total=n, mass_retained=nan,
            residual_fixed_point=nan, residual_zero_profit=nan,
            collapsed=True, collapse_reason=w1.reason, fixed_point_roots=roots)
    # Q is the retained mass, (1 - mu) of the workers at or above w1, and
    # theta_bar2 their mean.  The review clamps its threshold to the
    # support, as firing_split does: a one-atom base whose mean rounds above
    # its atom, such as discrete([(0.1, 3.0)]), has w1 above the atom and
    # still retains it.
    n_above, m1_above = dist._moments_at_or_above(min(w1, dist.support_high))
    if n_above > 0.0:
        theta_bar2, q = m1_above / n_above, (1.0 - mu) * n_above
    else:
        # Keeps the solver total if w1 ever reaches the top of a base with
        # no mass there; nobody is then retained.
        theta_bar2, q = theta_bar, 0.0
    w0 = theta_bar + (q / n) * (theta_bar2 - w1)
    r_fp = w1 - m_extended(pool, w1, mu)
    r_zp = n * (theta_bar - w0) + q * (theta_bar2 - w1)
    return TwoPeriodSolution(
        mu=mu, w0=w0, w1=w1, theta_bar=theta_bar, theta_bar2=theta_bar2,
        mass_total=n, mass_retained=q,
        residual_fixed_point=r_fp, residual_zero_profit=r_zp,
        collapsed=False, fixed_point_roots=roots)


def check_two_period_ordering(sol: TwoPeriodSolution) -> InequalitySuite:
    """Evaluate the equilibrium wage ordering w1 < theta_bar < w0 < theta_bar2.

    Each adjacent inequality is reported separately; degenerate pools make
    them equalities, which the report flags as non-strict rather than
    failed.
    """
    if sol.collapsed:
        raise ValueError("ordering is undefined for a collapsed market")
    return InequalitySuite("two_period_ordering", asserted=(
        InequalityCheck("w1 < theta_bar", sol.w1, sol.theta_bar),
        InequalityCheck("theta_bar < w0", sol.theta_bar, sol.w0),
        InequalityCheck("w0 < theta_bar2", sol.w0, sol.theta_bar2),
    ))
