"""Distribution and pool mechanics, checked against brute-force oracles.

The closed-form moment code in ``labormkt.pools`` is the foundation the
rest of the package leans on, so everything here is cross-checked against
an independent midpoint-Riemann integrator (for continuous bases) or
direct atom sums (for discrete ones) before any identity is trusted.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import labormkt as lm
from labormkt import pools
from labormkt.errors import EmptyPoolError, InvalidThresholdError
from labormkt.solvers import m_extended


# ---------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------

def riemann_mass(dist, a, b, n=200_001):
    """Midpoint rule for the continuous kinds; deliberately naive."""
    a = max(a, dist.support_low)
    b = min(b, dist.support_high)
    if b <= a:
        return 0.0
    xs = np.linspace(a, b, n)
    mids = 0.5 * (xs[:-1] + xs[1:])
    return float(np.sum(density_of(dist, mids)) * (b - a) / (n - 1))


def riemann_first_moment(dist, a, b, n=200_001):
    a = max(a, dist.support_low)
    b = min(b, dist.support_high)
    if b <= a:
        return 0.0
    xs = np.linspace(a, b, n)
    mids = 0.5 * (xs[:-1] + xs[1:])
    return float(np.sum(mids * density_of(dist, mids)) * (b - a) / (n - 1))


def density_of(dist, x):
    x = np.asarray(x, dtype=float)
    if dist.kind == "uniform":
        return np.full_like(x, dist.level)
    if dist.kind == "piecewise":
        ts = np.array([t for t, _ in dist.nodes])
        ds = np.array([d for _, d in dist.nodes])
        return np.interp(x, ts, ds)
    raise AssertionError("oracle only handles continuous kinds")


UNI = lm.uniform(0.0, 1.0)
UNI_WIDE = lm.uniform(2.0, 5.0, level=0.4)
PW = lm.piecewise_linear([(0.0, 0.2), (0.3, 1.1), (0.7, 0.9), (1.0, 0.1)])
DISC = lm.discrete([(0.2, 1.0), (0.5, 2.0), (0.9, 1.5)])
POINT = lm.discrete([(0.7, 2.0)])


# ---------------------------------------------------------------------
# Base distribution moments
# ---------------------------------------------------------------------

@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW])
@pytest.mark.parametrize("window", [(-1.0, 10.0), (0.1, 0.65), (0.3, 0.3), (0.55, 0.7)])
def test_continuous_moments_match_riemann(dist, window):
    a, b = window
    assert dist.mass_between(a, b) == pytest.approx(riemann_mass(dist, a, b), abs=1e-7)
    assert dist.first_moment_between(a, b) == pytest.approx(
        riemann_first_moment(dist, a, b), abs=1e-7)


def test_totals_and_means():
    assert UNI.total_mass() == pytest.approx(1.0)
    assert UNI.mean() == pytest.approx(0.5)
    assert UNI_WIDE.total_mass() == pytest.approx(0.4 * 3.0)
    assert UNI_WIDE.mean() == pytest.approx(3.5)
    assert DISC.total_mass() == 4.5
    assert DISC.mean() == pytest.approx((0.2 + 1.0 + 1.35) / 4.5)
    assert PW.total_mass() == pytest.approx(riemann_mass(PW, 0, 1), abs=1e-7)


def test_discrete_cdf_steps():
    assert DISC.cdf(0.1) == 0.0
    assert DISC.cdf(0.2) == 1.0          # closed at the atom
    assert DISC.cdf(0.49999) == 1.0
    assert DISC.cdf(0.5) == 3.0
    assert DISC.cdf(2.0) == 4.5


def test_constructor_validation():
    with pytest.raises(ValueError):
        lm.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        lm.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        pools.ProductivityDistribution(kind="cauchy", support_low=0, support_high=1)
    inf, nan = math.inf, math.nan
    bad = [
        lambda: lm.uniform(0.0, inf),
        lambda: lm.uniform(-inf, 1.0),
        lambda: lm.uniform(nan, 1.0),
        lambda: lm.uniform(0.0, 1.0, level=inf),
        lambda: lm.uniform(0.0, 1.0, level=nan),
        lambda: lm.discrete([(0.2, 1.0), (nan, 1.0)]),
        lambda: lm.discrete([(0.2, 1.0), (inf, 1.0)]),
        lambda: lm.discrete([(0.2, 1.0), (0.5, nan)]),
        lambda: lm.discrete([(0.2, 1.0), (0.5, inf)]),
        lambda: lm.piecewise_linear([(0.0, 1.0), (1.0, inf)]),
        lambda: lm.piecewise_linear([(0.0, 1.0), (1.0, nan)]),
        lambda: lm.piecewise_linear([(0.0, 1.0), (inf, 1.0)]),
        lambda: lm.piecewise_linear([(nan, 1.0), (1.0, 1.0)]),
    ]
    for build in bad:
        with pytest.raises(ValueError):
            build()
    # Finite inputs whose total mass or first moment overflows.
    overflow = [
        lambda: lm.discrete([(0.1, 1e308), (0.2, 1e308)]),
        lambda: lm.discrete([(1e300, 1e10)]),
        lambda: lm.uniform(-1e308, 1e308),
        lambda: lm.piecewise_linear([(0.0, 1e308), (10.0, 1e308)]),
    ]
    for build in overflow:
        with pytest.raises(ValueError, match="must be finite"):
            build()


def exact_moments_between(nodes, a, b):
    """Exact integrals of N and theta * N over [a, b] for a piecewise-linear
    density, in rational arithmetic from the antiderivative of each segment."""
    n = m1 = Fraction(0)
    for (x0, d0), (x1, d1) in zip(nodes, nodes[1:]):
        x0, d0, x1, d1 = map(Fraction, (x0, d0, x1, d1))
        lo, hi = max(a, x0), min(b, x1)
        if hi <= lo:
            continue
        slope = (d1 - d0) / (x1 - x0)
        icpt = d0 - slope * x0          # density = icpt + slope * theta
        n += icpt * (hi - lo) + slope * (hi ** 2 - lo ** 2) / 2
        m1 += icpt * (hi ** 2 - lo ** 2) / 2 + slope * (hi ** 3 - lo ** 3) / 3
    return n, m1


RATIONAL_PW = lm.piecewise_linear(
    [(-0.5, 0.25), (0.375, 1.25), (0.625, 0.0), (1.0, 0.75), (2.5, 0.125)])


@pytest.mark.parametrize("dist", [PW, RATIONAL_PW])
def test_piecewise_moments_match_rational_oracle(dist):
    """The cumulative tables are exact up to rounding: against rational
    arithmetic on the stored nodes, every prefix and window agrees to a few
    ulps of the total."""
    nodes = dist.nodes
    lo, hi = dist.support_low, dist.support_high
    n_tot, m1_tot = exact_moments_between(nodes, Fraction(lo), Fraction(hi))
    scale_n, scale_m1 = float(n_tot), float(abs(m1_tot)) + float(n_tot) * max(abs(lo), abs(hi))
    xs = [t for t, _ in nodes]
    probes = xs + [lo + (hi - lo) * k / 7 for k in range(8)] + [lo - 1.0, hi + 1.0]
    for x in probes:
        want_n, want_m1 = exact_moments_between(nodes, Fraction(lo), Fraction(min(max(x, lo), hi)))
        got_n, got_m1 = dist.moments_below(x)
        assert got_n == pytest.approx(float(want_n), rel=1e-14, abs=1e-15 * scale_n)
        assert got_m1 == pytest.approx(float(want_m1), rel=1e-14, abs=1e-15 * scale_m1)
    for a, b in zip(probes, probes[3:]):
        a, b = min(a, b), max(a, b)
        want_n, want_m1 = exact_moments_between(nodes, Fraction(a), Fraction(b))
        assert dist.mass_between(a, b) == pytest.approx(float(want_n), abs=1e-15 * scale_n)
        assert dist.first_moment_between(a, b) == pytest.approx(
            float(want_m1), abs=1e-15 * scale_m1)


# ---------------------------------------------------------------------
# Pools: splits, masses, the M operator
# ---------------------------------------------------------------------

@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW, DISC])
@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 1.0])
def test_firing_split_conserves_mass_and_moment(dist, mu):
    pool = pools.LaborPool.entry(dist)
    lo, hi = pools.pool_inf(pool), pools.pool_sup(pool)
    for frac in (0.0, 0.25, 0.5, 0.9, 1.0):
        t = lo + frac * (hi - lo)
        leave, stay = pools.firing_split(pool, t, mu)
        total = pools.pool_mass(stay) + pools.pool_mass(leave)
        assert total == pytest.approx(pools.pool_mass(pool), abs=1e-12)
        moment = (pools.pool_mass(stay) * pools.pool_mean(stay)
                  if pools.pool_mass(stay) > 0 else 0.0)
        moment += (pools.pool_mass(leave) * pools.pool_mean(leave)
                   if pools.pool_mass(leave) > 0 else 0.0)
        assert moment == pytest.approx(
            pools.pool_mass(pool) * pools.pool_mean(pool), abs=1e-10)


def test_split_sides_against_direct_truncation():
    """Stayers are the (1-mu)-thinned upper part; leavers are lower part
    plus the mu slice."""
    pool = pools.LaborPool.entry(UNI)
    mu, t = 0.4, 0.3
    leave, stay = pools.firing_split(pool, t, mu)
    assert pools.pool_mass(stay) == pytest.approx((1 - mu) * (1 - t), abs=1e-12)
    assert pools.pool_mean(stay) == pytest.approx((1 + t) / 2, abs=1e-12)
    n_leave = t + mu * (1 - t)
    m_leave = t * t / 2 + mu * (1 - t * t) / 2
    assert pools.pool_mass(leave) == pytest.approx(n_leave, abs=1e-12)
    assert pools.pool_mean(leave) == pytest.approx(m_leave / n_leave, abs=1e-12)


def test_atom_at_threshold_follows_at_or_above_rule():
    pool = pools.LaborPool.entry(DISC)
    mu = 0.25
    leave, stay = pools.firing_split(pool, 0.5, mu)
    # atom at 0.5 splits mu/(1-mu); atom at 0.2 leaves outright
    assert pools.pool_mass(stay) == pytest.approx((1 - mu) * (2.0 + 1.5), abs=1e-12)
    assert pools.pool_mass(leave) == pytest.approx(1.0 + mu * 3.5, abs=1e-12)


def test_m_extended_uniform_closed_form():
    pool = pools.LaborPool.entry(UNI)
    for mu in (0.1, 0.5, 0.9):
        for w in (0.05, 0.3, 0.6, 0.95):
            n = w + mu * (1 - w)
            m = w * w / 2 + mu * (1 - w * w) / 2
            assert m_extended(pool, w, mu) == pytest.approx(m / n, abs=1e-12)


def test_m_extended_edges():
    pool = pools.LaborPool.entry(UNI)
    mean = pools.pool_mean(pool)
    # at or above the support top everyone leaves: mean of the whole pool
    assert m_extended(pool, 1.0, 0.5) == pytest.approx(mean)
    assert m_extended(pool, 7.0, 0.5) == pytest.approx(mean)
    # mu = 0 at the bottom: nobody leaves, convention pins the bottom value
    assert m_extended(pool, 0.0, 0.0) == pools.pool_inf(pool)
    # mu > 0 at the bottom: leavers are a thinned copy of the whole pool
    assert m_extended(pool, 0.0, 0.3) == pytest.approx(mean)


def _twice_split(dist):
    pool = pools.LaborPool.entry(dist)
    lo, hi = dist.support_low, dist.support_high
    _, stayed = pools.firing_split(pool, lo + 0.3 * (hi - lo), 0.4)
    released, _ = pools.firing_split(stayed, lo + 0.7 * (hi - lo), 0.25)
    return released


def _thresholds(dist):
    """Below and above the support, interior points, every piecewise node
    and every discrete atom (the last atom is the top of the support)."""
    lo, hi = dist.support_low, dist.support_high
    ts = [lo - 1.0, hi + 1.0, lo, hi, lo + 0.37 * (hi - lo)]
    ts += [t for t, _ in dist.nodes] + [t for t, _ in dist.atoms]
    return ts


@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW, DISC, POINT])
@pytest.mark.parametrize("twice_split", [False, True])
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
def test_split_moments_match_split_pools(dist, twice_split, mu):
    pool = _twice_split(dist) if twice_split else pools.LaborPool.entry(dist)
    for t in _thresholds(dist):
        leavers, stayers = pools.firing_split(pool, t, mu)
        for got, want in ((pools.leaver_moments(pool, t, mu), pools._moments(leavers)),
                          (pools.stayer_moments(pool, t, mu), pools._moments(stayers))):
            assert got[0] == pytest.approx(want[0], rel=1e-13, abs=1e-300)
            assert got[1] == pytest.approx(want[1], rel=1e-13, abs=1e-300)


def test_split_moments_reject_what_firing_split_rejects():
    pool = pools.LaborPool.entry(DISC)
    for split in (pools.leaver_moments, pools.stayer_moments):
        for bad_t in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidThresholdError):
                split(pool, bad_t, 0.5)
        for bad_mu in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                split(pool, 0.5, bad_mu)


# ---------------------------------------------------------------------
# Array kernels: equal to the scalar kernels element by element, exactly
# ---------------------------------------------------------------------

def _zero_width_pool(dist):
    """A pool with a zero-width piece in the middle of the support (and, for
    a one-atom base, the only piece is zero-width already)."""
    lo, hi = dist.support_low, dist.support_high
    if lo == hi:
        return pools.LaborPool.entry(dist)
    atoms = [t for t, _ in dist.atoms]
    m = atoms[1] if len(atoms) > 1 else lo + 0.3 * (hi - lo)
    return pools.LaborPool(dist, ((lo, m, 1.0), (m, m, 2.0), (m, hi, 0.5)))


def _array_thresholds(pool):
    ts = _thresholds(pool.base) + [x for lo, hi, _ in pool.pieces for x in (lo, hi)]
    lo, hi = pool.base.support_low, pool.base.support_high
    return ts + [lo + (hi - lo) * i / 50 for i in range(51)]


# At its interior nodes d0 + (d1 - d0) != d1 in floating point, so a node
# read as the right end of the segment before it gives different bits.
PW_NODES_ROUND = lm.piecewise_linear([(0.0, 0.2), (0.4, 0.9), (0.8, 0.1), (1.0, 0.5)])


@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW, PW_NODES_ROUND, DISC, POINT])
@pytest.mark.parametrize("shape", ["entry", "split", "twice_split", "zero_width"])
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
def test_array_kernels_equal_scalar_kernels(dist, shape, mu):
    entry = pools.LaborPool.entry(dist)
    pool = {"entry": entry,
            "split": pools.firing_split(entry, dist.support_low + 0.45 *
                                        (dist.support_high - dist.support_low), 0.35)[1],
            "twice_split": _twice_split(dist),
            "zero_width": _zero_width_pool(dist)}[shape]
    ts = _array_thresholds(pool)
    arr = np.array(ts)
    n, m1 = dist.moments_below_array(arr)
    assert [(a, b) for a, b in zip(n.tolist(), m1.tolist())] == [
        dist.moments_below(t) for t in ts]
    n, m1 = pools.leaver_moments_array(pool, arr, mu)
    assert [(a, b) for a, b in zip(n.tolist(), m1.tolist())] == [
        pools.leaver_moments(pool, t, mu) for t in ts]
    if pools.pool_mass(pool) > 0.0:
        ws = np.array(ts + [math.inf])
        assert m_extended(pool, ws, mu).tolist() == [
            m_extended(pool, w, mu) for w in ws.tolist()]


def test_array_kernels_reject_what_scalar_kernels_reject():
    pool = _twice_split(PW)
    for bad in (math.nan, -math.inf):
        ts = np.array([0.2, bad, 0.5])
        with pytest.raises(InvalidThresholdError):
            pools.leaver_moments_array(pool, ts, 0.5)
        with pytest.raises(InvalidThresholdError):
            m_extended(pool, ts, 0.5)
    with pytest.raises(InvalidThresholdError):
        pools.leaver_moments_array(pool, np.array([math.inf]), 0.5)
    for bad_mu in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            pools.leaver_moments_array(pool, np.array([0.5]), bad_mu)


def scan_roots_by_loop(g, lo, hi, opts):
    """Reference scan: scalar g at each grid point, brackets found one by one."""
    from labormkt.solvers import bisect_root

    n = opts.scan_points
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    gs = [g(x) for x in xs]
    roots = []
    for i, (x, gx) in enumerate(zip(xs, gs)):
        if gx == 0.0 or abs(gx) <= opts.tol:
            roots.append(x)
        elif i > 0 and (gs[i - 1] > 0.0) != (gx > 0.0) and abs(gs[i - 1]) > opts.tol:
            roots.append(bisect_root(g, xs[i - 1], x, gs[i - 1], gx, opts))
    scale = max(abs(lo), abs(hi), 1.0)
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-9 * scale:
            out.append(r)
    return out


@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW, DISC])
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
def test_m_fixed_points_matches_scalar_scan(dist, mu):
    """Oracle: the array-filled scan finds exactly the roots of a scan that
    evaluates the scalar operator point by point."""
    from labormkt.solvers import SolverOptions, m_fixed_points, scan_roots

    for opts in (SolverOptions(), SolverOptions(scan_points=129, tol=1e-12)):
        for pool in (pools.LaborPool.entry(dist), _twice_split(dist)):
            g = lambda w: w - m_extended(pool, w, mu)
            lo, mean = min(pools.pool_inf(pool), 0.0), pools.pool_mean(pool)
            roots = m_fixed_points(pool, mu, opts)
            assert roots == scan_roots(g, lo, mean, opts)
            assert roots == scan_roots_by_loop(g, lo, mean, opts)


def test_grid_point_within_tol_is_a_root_and_not_bisected():
    """A grid value with |g| <= tol is taken as a root; the sign change
    from it to the next grid point is not a second bracket."""
    from labormkt.solvers import SolverOptions, scan_roots

    calls = []

    def g(x):
        calls.append(x)
        return x - 0.5 - 1e-12  # -1e-12 at the grid point 0.5

    opts = SolverOptions(scan_points=129)
    g_grid = lambda xs: np.array([g(x) for x in xs.tolist()])
    for kwargs in ({}, {"g_grid": g_grid}):
        calls.clear()
        assert scan_roots(g, 0.0, 1.0, opts, **kwargs) == [0.5]
        assert len(calls) == 129


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10, 1e6, 0.01])
def test_solver_options_reject_non_finite_or_non_positive_tol(tol):
    from labormkt.solvers import SolverOptions

    with pytest.raises(ValueError, match="tol must be positive and at most 1e-06"):
        SolverOptions(tol=tol)


def test_discrete_split_moments_by_hand():
    """Atom at the threshold goes to the at-or-above side; outside the
    support the threshold is clamped."""
    pool = pools.LaborPool.entry(DISC)
    mu = 0.25
    assert pools.leaver_moments(pool, 0.5, mu) == pytest.approx(
        (1.0 + mu * 3.5, 0.2 + mu * (1.0 + 1.35)), abs=1e-15)
    assert pools.stayer_moments(pool, 0.5, mu) == pytest.approx(
        ((1 - mu) * 3.5, (1 - mu) * (1.0 + 1.35)), abs=1e-15)
    assert pools.leaver_moments(pool, -5.0, mu) == pytest.approx(
        (mu * 4.5, mu * 2.55), abs=1e-15)


def test_pool_inf_sup_on_split_discrete_pools():
    pool = pools.LaborPool.entry(DISC)
    _, stayed = pools.firing_split(pool, 0.5, 0.3)
    assert (pools.pool_inf(stayed), pools.pool_sup(stayed)) == (0.5, 0.9)
    leavers, _ = pools.firing_split(pool, 0.5, 0.0)
    assert (pools.pool_inf(leavers), pools.pool_sup(leavers)) == (0.2, 0.2)
    leavers, _ = pools.firing_split(pool, 0.6, 0.0)
    assert (pools.pool_inf(leavers), pools.pool_sup(leavers)) == (0.2, 0.5)
    point = pools.LaborPool.entry(POINT)
    assert (pools.pool_inf(point), pools.pool_sup(point)) == (0.7, 0.7)


def test_discrete_window_moments_match_atom_sums():
    """Windows are closed at both ends, on the entry pool and on a split
    pool whose piece boundary sits on an atom."""
    entry = pools.LaborPool.entry(DISC)
    _, stayed = pools.firing_split(entry, 0.5, 0.3)
    cases = ((entry, lambda t: 1.0), (stayed, lambda t: 0.7 if t >= 0.5 else 0.0))
    windows = [(0.2, 0.9), (0.2, 0.5), (0.5, 0.5), (0.5, 0.9), (0.9, 0.9), (0.3, 0.6), (-1.0, 2.0)]
    for pool, weight in cases:
        for a, b in windows:
            inside = [(t, c * weight(t)) for t, c in DISC.atoms if a <= t <= b]
            want = (sum(w for _, w in inside), sum(t * w for t, w in inside))
            assert pools._restricted_moments(pool, a, b) == pytest.approx(want, abs=1e-15)


def test_truncated_mean_windows():
    pool = pools.LaborPool.entry(UNI)
    assert pools.truncated_mean(pool, 0.2, 0.6) == pytest.approx(0.4, abs=1e-12)
    assert pools.truncated_mean(pool, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    pw_pool = pools.LaborPool.entry(PW)
    a, b = 0.25, 0.8
    want = riemann_first_moment(PW, a, b) / riemann_mass(PW, a, b)
    assert pools.truncated_mean(pw_pool, a, b) == pytest.approx(want, abs=1e-6)


def test_empty_pool_errors():
    pool = pools.LaborPool.entry(UNI)
    leave, stay = pools.firing_split(pool, 1.0, 0.0)
    # nobody stays above the top with mu = 0 pulling no slice across
    assert pools.pool_mass(stay) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(EmptyPoolError):
        pools.pool_mean(stay)


def test_mu_validation():
    pool = pools.LaborPool.entry(UNI)
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            pools.firing_split(pool, 0.5, bad)


def test_repeated_splits_compound_weights():
    """Two rounds of firing produce the same pool as direct double
    truncation: the survivor weight above both cuts is (1-mu)^2."""
    mu = 0.3
    pool = pools.LaborPool.entry(UNI)
    _, stay1 = pools.firing_split(pool, 0.4, mu)
    _, stay2 = pools.firing_split(stay1, 0.6, mu)
    assert pools.pool_mass(stay2) == pytest.approx((1 - mu) ** 2 * 0.4, abs=1e-12)
    assert pools.pool_mean(stay2) == pytest.approx(0.8, abs=1e-12)


# ---------------------------------------------------------------------
# Quantiles and sampling
# ---------------------------------------------------------------------

def test_quantile_uniform_is_affine():
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert pools.quantile(UNI_WIDE, q) == pytest.approx(2.0 + 3.0 * q, abs=1e-12)


def test_quantile_inverts_cdf_piecewise():
    total = PW.total_mass()
    for q in (0.05, 0.3, 0.5, 0.77, 0.95):
        x = pools.quantile(PW, q)
        assert PW.mass_between(PW.support_low, x) / total == pytest.approx(q, abs=1e-9)


def test_quantile_discrete_lands_on_atoms():
    values = {pools.quantile(DISC, q) for q in np.linspace(0.01, 0.99, 37)}
    assert values <= {0.2, 0.5, 0.9}
    # masses 1 : 2 : 1.5 of 4.5 -> breakpoints at 2/9 and 6/9
    assert pools.quantile(DISC, 0.1) == 0.2
    assert pools.quantile(DISC, 0.5) == 0.5
    assert pools.quantile(DISC, 0.9) == 0.9


def test_sampling_matches_quantile_map():
    u = np.linspace(0.0005, 0.9995, 2001)
    draws = pools.sample_productivities(PW, u)
    assert draws.shape == u.shape
    assert draws.min() >= PW.support_low - 1e-12
    assert draws.max() <= PW.support_high + 1e-12
    # the inverse-CDF transform of a uniform grid reproduces the mean
    assert float(draws.mean()) == pytest.approx(PW.mean(), abs=2e-3)
    # spot-check against the scalar quantile
    for i in (0, 500, 1000, 2000):
        assert draws[i] == pytest.approx(pools.quantile(PW, u[i]), abs=1e-9)
