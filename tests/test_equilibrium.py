"""Two-period hiring equilibrium against two independent oracles.

Oracle 1 is algebra: for a uniform pool on [0, 1] the re-hiring wage
solves a quadratic with root sqrt(mu) / (1 + sqrt(mu)), and the entry
wage follows from the zero-profit ledger in closed form.

Oracle 2 is a damped price-adjustment iteration built on raw numpy
integrals, sharing no code with the package's pool machinery.
"""

import math

import numpy as np
import pytest

import labormkt as lm
from labormkt.equilibrium import MarketCollapse

MU_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


# ---------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------

def closed_form_w1_uniform01(mu):
    return math.sqrt(mu) / (1.0 + math.sqrt(mu))


def numeric_leaver_mean(dist, w, mu, n_grid=40_001):
    """Mean of (everyone strictly below w) + (mu slice of those at/above),
    straight from a trapezoid grid on the density."""
    xs = np.linspace(dist.support_low, dist.support_high, n_grid)
    if dist.kind == "uniform":
        dens = np.full_like(xs, dist.level)
    else:
        ts = np.array([t for t, _ in dist.nodes])
        ds = np.array([d for _, d in dist.nodes])
        dens = np.interp(xs, ts, ds)
    weight = np.where(xs < w, 1.0, mu)
    n = np.trapezoid(dens * weight, xs)
    m = np.trapezoid(xs * dens * weight, xs)
    return m / n


def tatonnement_w1(dist, mu, n_iter=400):
    w = dist.mean()
    for _ in range(n_iter):
        w = 0.5 * (w + numeric_leaver_mean(dist, w, mu))
    return w


# ---------------------------------------------------------------------
# Re-hiring wage (the secondhand market)
# ---------------------------------------------------------------------

@pytest.mark.parametrize("mu", MU_GRID)
def test_w1_matches_closed_form(mu):
    sol = lm.solve_two_period(lm.uniform(0, 1), mu)
    assert sol.w1 == pytest.approx(closed_form_w1_uniform01(mu), abs=1e-9)
    assert abs(sol.residual_fixed_point) < 1e-8


@pytest.mark.parametrize("mu", [0.2, 0.5, 0.8])
def test_w1_matches_tatonnement(mu):
    got = lm.solve_two_period(lm.uniform(0, 1), mu).w1
    assert got == pytest.approx(tatonnement_w1(lm.uniform(0, 1), mu), abs=1e-5)


def test_w1_tatonnement_piecewise():
    dist = lm.piecewise_linear([(0.0, 0.2), (0.5, 1.4), (1.0, 0.6)])
    got = lm.solve_two_period(dist, 0.5).w1
    assert got == pytest.approx(tatonnement_w1(dist, 0.5), abs=1e-5)


def test_half_mu_anchor():
    sol = lm.solve_two_period(lm.uniform(0, 1), 0.5)
    assert sol.w1 == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)
    assert sol.w0 == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
    assert sol.w0 == pytest.approx(0.585786, abs=1e-6)


def test_secondhand_fixed_point_is_largest_root():
    roots = lm.secondhand_fixed_points(lm.uniform(0, 1), 0.5)
    w1 = lm.secondhand_fixed_point(lm.uniform(0, 1), 0.5)
    assert w1 == max(roots)


# g(w) = w - m(w) comes within 1e-10 above zero at the grid point
# 0.300469483561745, 1e-11 above the heavy atom, and never crosses it there.
HEAVY_ATOM = lm.discrete([(0.0, 1.0), (0.300469483551745, 1e12), (1.0, 5e11)])


def test_market_clears_at_its_sign_change_not_where_g_only_nears_zero():
    """The one sign change of g is the only fixed point; the grid point
    where g dips to within tol above zero is not a second one, so the
    largest-root rule cannot pick it."""
    from labormkt import pools

    mu = 1e-18
    pool = pools.LaborPool.entry(HEAVY_ATOM)
    near = 0.300469483561745
    for w in np.linspace(near - 1e-9, near + 1e-9, 201).tolist() + [near]:
        assert w - lm.m_extended(pool, w, mu) > 0.0
    assert lm.secondhand_fixed_points(HEAVY_ATOM, mu) == (8.004496479214029e-07,)
    assert lm.solve_two_period(HEAVY_ATOM, mu).w1 == 8.004496479214029e-07


def test_narrow_market_clears_at_its_sign_change_not_the_first_point_within_tol():
    """On a base 1e-8 wide the 1,024 grid points are 4.9e-12 apart, so a
    run of about 20 of them below the root lies within tol = 1e-10.  The
    market clears at the bracket of the one sign change, here the exact
    fixed point 1e-8 / 3 with g = 0, not at the smallest point of that run
    (3.235581622678397e-09, where g = -9.8e-11)."""
    narrow = lm.discrete([(0.0, 1.0), (1e-08, 1.0)])
    assert lm.secondhand_fixed_points(narrow, 0.5) == (3.3333333333333334e-09,)


# ---------------------------------------------------------------------
# Entry wage and the zero-profit ledger
# ---------------------------------------------------------------------

@pytest.mark.parametrize("mu", MU_GRID)
def test_entry_wage_ledger(mu):
    """w0 = mean + (retained share) * (retained mean - w1), and the pair
    (w0, w1) sums to twice the population mean for uniform [0, 1]."""
    dist = lm.uniform(0, 1)
    sol = lm.solve_two_period(dist, mu)
    w1 = sol.w1
    q = (1 - mu) * (1 - w1)            # retained mass
    theta2 = (1 + w1) / 2              # retained mean
    want = 0.5 + q * (theta2 - w1)
    assert sol.w0 == pytest.approx(want, abs=1e-9)
    assert sol.w0 + sol.w1 == pytest.approx(2 * 0.5, abs=1e-9)
    assert abs(sol.residual_zero_profit) < 1e-10
    assert sol.theta_bar2 == pytest.approx(theta2, abs=1e-9)
    assert sol.mass_retained == pytest.approx(q, abs=1e-9)


@pytest.mark.parametrize("mu", MU_GRID)
def test_ordering_links(mu):
    """w1 < mean < w0 always; the last link w0 < theta_bar2 is a
    thick-turnover property.  On uniform [0, 1] the identity
    w0 = 2*mean - w1 turns it into w1 > 1/3, i.e. mu > 1/4, so the full
    chain genuinely reverses its tail on the low-mu grid points."""
    sol = lm.solve_two_period(lm.uniform(0, 1), mu)
    assert sol.w1 < sol.theta_bar < sol.w0
    if mu > 0.25:
        assert sol.w0 < sol.theta_bar2
    else:
        assert sol.w0 > sol.theta_bar2
    report = lm.check_two_period_ordering(sol)
    assert len(report.asserted) == 3
    assert report.all_strict == (mu > 0.25)


def test_ordering_tail_flips_exactly_at_quarter_mu():
    sol = lm.solve_two_period(lm.uniform(0, 1), 0.25)
    assert sol.w1 == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert sol.w0 == pytest.approx(sol.theta_bar2, abs=1e-9)


# ---------------------------------------------------------------------
# Degenerate and collapsed markets
# ---------------------------------------------------------------------

def test_no_exogenous_turnover_sends_rehiring_wage_to_zero():
    """With mu = 0 only the lemons leave, and the re-hiring market on
    [0, 1] unravels to the bottom of the support."""
    fp = lm.secondhand_fixed_point(lm.uniform(0, 1), 0.0)
    assert isinstance(fp, float) and fp == 0.0
    sol = lm.solve_two_period(lm.uniform(0, 1), 0.0)
    assert not sol.collapsed
    assert sol.w1 == 0.0


def test_negative_support_collapses():
    neg = lm.uniform(-2.0, -1.0)
    assert isinstance(lm.one_period_wage(neg), MarketCollapse)
    assert isinstance(lm.secondhand_fixed_point(neg, 0.5), MarketCollapse)
    sol = lm.solve_two_period(neg, 0.5)
    assert sol.collapsed
    assert sol.collapse_reason
    assert math.isnan(sol.w0) and math.isnan(sol.w1)
    assert len(sol.fixed_point_roots) >= 1  # the rejected negative root is reported


def test_support_straddling_zero_still_clears():
    mixed = lm.uniform(-0.5, 1.0)
    sol = lm.solve_two_period(mixed, 0.5)
    assert not sol.collapsed
    assert 0.0 < sol.w1 < mixed.mean() < sol.w0
    assert sol.w1 == pytest.approx(tatonnement_w1(mixed, 0.5), abs=1e-5)


def test_one_period_wage_is_population_mean():
    assert lm.one_period_wage(lm.uniform(0, 1)) == pytest.approx(0.5)
    disc = lm.discrete([(0.2, 1.0), (0.8, 3.0)])
    assert lm.one_period_wage(disc) == pytest.approx(0.65)


def test_mu_validation():
    with pytest.raises(ValueError):
        lm.solve_two_period(lm.uniform(0, 1), -0.2)
    with pytest.raises(ValueError):
        lm.solve_two_period(lm.uniform(0, 1), 1.0000001)


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------

def test_solution_round_trip():
    sol = lm.solve_two_period(lm.uniform(0, 1), 0.3)
    assert lm.TwoPeriodSolution.from_dict(sol.to_dict()) == sol


def test_collapsed_round_trip():
    sol = lm.solve_two_period(lm.uniform(-2.0, -1.0), 0.5)
    back = lm.TwoPeriodSolution.from_dict(sol.to_dict())
    assert back.collapsed == sol.collapsed
    assert back.collapse_reason == sol.collapse_reason
    assert math.isnan(back.w0)
