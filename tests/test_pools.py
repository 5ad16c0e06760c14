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
from hypothesis import given, settings
from hypothesis import strategies as st

import labormkt as lm
from labormkt import multiperiod, pools, solvers
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
DISC41 = lm.discrete([(k / 40, 1.0) for k in range(41)])


# ---------------------------------------------------------------------
# Base distribution moments
# ---------------------------------------------------------------------

@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW])
@pytest.mark.parametrize("window", [(-1.0, 10.0), (0.1, 0.65), (0.3, 0.3), (0.55, 0.7)])
def test_continuous_moments_match_riemann(dist, window):
    a, b = window
    (n_a, m1_a), (n_b, m1_b) = dist.moments_below(a), dist.moments_below(b)
    assert n_b - n_a == pytest.approx(riemann_mass(dist, a, b), abs=1e-7)
    assert m1_b - m1_a == pytest.approx(riemann_first_moment(dist, a, b), abs=1e-7)


def test_totals_and_means():
    assert UNI.total_mass() == pytest.approx(1.0)
    assert UNI.mean() == pytest.approx(0.5)
    assert UNI_WIDE.total_mass() == pytest.approx(0.4 * 3.0)
    assert UNI_WIDE.mean() == pytest.approx(3.5)
    assert DISC.total_mass() == 4.5
    assert DISC.mean() == pytest.approx((0.2 + 1.0 + 1.35) / 4.5)
    assert PW.total_mass() == pytest.approx(riemann_mass(PW, 0, 1), abs=1e-7)


def test_discrete_cdf_steps():
    cdf = lambda x: DISC._moments_at_or_below(x)[0]
    assert cdf(0.1) == 0.0
    assert cdf(0.2) == 1.0          # closed at the atom
    assert cdf(0.49999) == 1.0
    assert cdf(0.5) == 3.0
    assert cdf(2.0) == 4.5


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


def test_pool_refuses_pieces_it_cannot_sum():
    """A pool's multipliers are real numbers, not bools, and its moments are
    finite; anything else is a ValueError when the pool is built."""
    for w in ("1.0", True, None):
        with pytest.raises(ValueError, match="multipliers must be real numbers"):
            pools.LaborPool(UNI, ((0.0, 1.0, w),))
    # An infinite multiplier, and a finite one whose moments overflow.
    for dist, w in ((UNI, math.inf), (lm.uniform(0.0, 10.0), 1e308)):
        with pytest.raises(ValueError, match="must be finite"):
            pools.LaborPool(dist, ((dist.support_low, dist.support_high, w),))
    for w in (2, np.float64(2.0), Fraction(2)):
        assert pools.LaborPool(UNI, ((0.0, 1.0, w),)).moments == (2.0, 1.0)


def _all_floats(values):
    return all(type(v) is float for v in values)


def test_float32_multiplier_and_threshold_are_used_as_their_floats():
    """A NumPy float32 multiplier or split threshold is stored and used as
    its float, so the pool's moments and pieces stay float64 (NumPy keeps
    float * np.float32 in float32)."""
    w = np.float32(0.1)
    pool = pools.LaborPool(UNI, ((0.0, 1.0, w),))
    assert pool == pools.LaborPool(UNI, ((0.0, 1.0, float(w)),))
    assert _all_floats(pool.pieces[0]) and _all_floats(pool.moments)
    entry, t = pools.LaborPool.entry(UNI), np.float32(0.4)
    for kernel in (pools.leaver_moments, pools.stayer_moments):
        got = kernel(entry, t, 0.5)
        assert got == kernel(entry, float(t), 0.5) and _all_floats(got)
    for side, want in zip(pools.firing_split(entry, t, 0.5),
                          pools.firing_split(entry, float(t), 0.5)):
        assert side == want and all(_all_floats(piece) for piece in side.pieces)


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
        (n_a, m1_a), (n_b, m1_b) = dist.moments_below(a), dist.moments_below(b)
        assert n_b - n_a == pytest.approx(float(want_n), abs=1e-15 * scale_n)
        assert m1_b - m1_a == pytest.approx(float(want_m1), abs=1e-15 * scale_m1)


# ---------------------------------------------------------------------
# Pools: splits, masses, the M operator
# ---------------------------------------------------------------------

@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW, DISC])
@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 1.0])
def test_firing_split_conserves_mass_and_moment(dist, mu):
    pool = pools.LaborPool.entry(dist)
    lo, hi = pools.pool_inf(pool), dist.support_high
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
        assert pools.leaver_moments(pool, t, mu) == pools._moments(leavers)
        assert pools.stayer_moments(pool, t, mu) == pools._moments(stayers)


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


def _clamped(dist, ts):
    """The float64 array of ts clamped to the support, as a split clamps them."""
    return np.minimum(np.maximum(np.array(ts, dtype=np.float64), dist.support_low),
                      dist.support_high)


@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW, PW_NODES_ROUND, DISC, POINT])
@pytest.mark.parametrize("shape", ["entry", "split", "twice_split", "zero_width"])
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
def test_array_kernels_equal_scalar_kernels(dist, shape, mu):
    """The array piece loop on a pool's own pieces and ends, the moment
    primitive on a clamped array and the array leaver mean (up to w = inf)
    are the scalar kernels bit for bit."""
    entry = pools.LaborPool.entry(dist)
    pool = {"entry": entry,
            "split": pools.firing_split(entry, dist.support_low + 0.45 *
                                        (dist.support_high - dist.support_low), 0.35)[1],
            "twice_split": _twice_split(dist),
            "zero_width": _zero_width_pool(dist)}[shape]
    ts = _array_thresholds(pool)
    t = _clamped(dist, ts)
    n, m1 = dist._moments_below_clamped(t)
    assert list(zip(n.tolist(), m1.tolist())) == [dist.moments_below(x) for x in t.tolist()]
    for scalar, low, high in ((pools.leaver_moments, 1.0, mu),
                              (pools.stayer_moments, 0.0, 1.0 - mu)):
        n, m1 = pools._split_moments(dist, pool.pieces, pool.ends, t, low, high)
        assert list(zip(n.tolist(), m1.tolist())) == [scalar(pool, x, mu) for x in ts]
    if pools.pool_mass(pool) > 0.0:
        ws = ts + [math.inf]
        m = solvers._leaver_mean_rows(dist, pool.pieces, pool.ends, pool.moments,
                                      pools.pool_inf(pool), np.array(ws), mu)
        assert m.tolist() == [m_extended(pool, w, mu) for w in ws]


@pytest.mark.parametrize("bad_mu", [5.0, -0.1, math.nan, "0.5"])
@pytest.mark.parametrize("where", ["inside", "top", "above_top"])
def test_m_extended_rejects_bad_mu_inside_at_and_above_the_top(where, bad_mu):
    """The operator checks mu at and above the support top too, where it
    returns the pool mean without a split."""
    pool = pools.LaborPool.entry(UNI)
    w = {"inside": 0.5, "top": 1.0, "above_top": 2.0}[where]
    with pytest.raises(ValueError, match="quit probability"):
        m_extended(pool, w, bad_mu)


def assert_split_rows_equal_split_pools(dist, wps, ws, mu, mu_inner):
    """multiperiod._split_stack at the offers wps holds, row by row, the
    stayed and released pools of firing_split(entry, wp, mu): their moments
    and infima, and pools._split_moments on the stack gives either side's
    split moments of each at every w, and solvers._leaver_mean_rows on it
    gives m_extended of each at every w and at inf (both of its limits),
    with ==.  A stack with an empty row raises EmptyPoolError, as pool_mean
    of that pool does; the offers whose sides both hold workers are then
    checked alone."""
    entry = pools.LaborPool.entry(dist)
    sides = {wp: pools.firing_split(entry, wp, mu)[::-1] for wp in wps}  # stayed, released
    full = [wp for wp in wps if min(pools.pool_mass(pool) for pool in sides[wp]) > 0.0]
    if len(full) < len(wps):
        with pytest.raises(EmptyPoolError):
            multiperiod._split_stack(dist, mu, np.array(wps, dtype=np.float64))
    if not full:
        return
    split = [pool for wp in full for pool in sides[wp]]
    pieces, ends, (n_rows, m1_rows), inf = multiperiod._split_stack(dist, mu, np.array(full))
    assert list(zip(n_rows[:, 0].tolist(), m1_rows[:, 0].tolist())) == [
        pool.moments for pool in split]
    assert inf[:, 0].tolist() == [pools.pool_inf(pool) for pool in split]
    grid = np.tile(_clamped(dist, ws), (len(split), 1))
    for scalar, low, high in ((pools.leaver_moments, 1.0, mu_inner),
                              (pools.stayer_moments, 0.0, 1.0 - mu_inner)):
        n, m1 = pools._split_moments(dist, pieces, ends, grid, low, high)
        assert [list(zip(a, b)) for a, b in zip(n.tolist(), m1.tolist())] == [
            [scalar(pool, w, mu_inner) for w in ws] for pool in split]
        n, m1 = pools._split_moments(dist, pieces, ends, grid[:, :1], low, high)  # one per row
        assert list(zip(n[:, 0].tolist(), m1[:, 0].tolist())) == [
            scalar(pool, ws[0], mu_inner) for pool in split]
    ws_top = ws + [math.inf]
    m = solvers._leaver_mean_rows(dist, pieces, ends, (n_rows, m1_rows), inf,
                                  np.tile(ws_top, (len(split), 1)), mu_inner)
    assert m.tolist() == [[m_extended(pool, w, mu_inner) for w in ws_top] for pool in split]
    m = solvers._leaver_mean_rows(dist, pieces, ends, (n_rows, m1_rows), inf,
                                  np.array(ws_top[:1] * len(split))[:, None], mu_inner)
    assert m[:, 0].tolist() == [m_extended(pool, ws_top[0], mu_inner) for pool in split]


@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW, PW_NODES_ROUND, DISC, POINT])
@pytest.mark.parametrize("mu", [0.0, 1e-6, 0.3, 1.0])
def test_split_rows_equal_scalar_split_pools(dist, mu):
    """The multi-start's stack of the entry split at every wp, under the
    array piece loop, equals the scalar kernels on firing_split's pools: wp
    and w on nodes, on atoms, at both support ends and outside the
    support."""
    ts = _thresholds(dist)
    assert_split_rows_equal_split_pools(dist, ts, ts, mu, mu)
    assert_split_rows_equal_split_pools(dist, ts, ts, mu, 0.45)


# Every entry point that takes a threshold, and a value that is not a real
# number: a bool, a numeric string, None, an object or a NumPy array.
THRESHOLD_ENTRY_POINTS = {
    "firing_split": lambda t: pools.firing_split(pools.LaborPool.entry(PW), t, 0.5),
    "leaver_moments": lambda t: pools.leaver_moments(pools.LaborPool.entry(PW), t, 0.5),
    "m_extended": lambda t: m_extended(pools.LaborPool.entry(PW), t, 0.5),
    "build_market_tree": lambda t: lm.build_market_tree(PW, 0.5, 2, thresholds={"": t}),
}


@pytest.mark.parametrize("entry_point", sorted(THRESHOLD_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [True, False, "0.5", None, object(), np.array(0.5),
                                 np.array([0.5])],
                         ids=["true", "false", "str", "none", "object", "array0d", "array1d"])
def test_thresholds_that_are_not_real_numbers_are_refused(entry_point, bad):
    with pytest.raises(InvalidThresholdError, match="not a usable real number"):
        THRESHOLD_ENTRY_POINTS[entry_point](bad)


def scan_roots_by_loop(g, lo, hi, tol, n):
    """Reference scan: scalar g at n grid points, brackets found one by one."""
    from labormkt.solvers import bisect_root

    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    gs = [g(x) for x in xs]
    roots = []
    for i, (x, gx) in enumerate(zip(xs, gs)):
        if gx == 0.0 or abs(gx) <= tol:
            roots.append(x)
        elif i > 0 and (gs[i - 1] > 0.0) != (gx > 0.0) and abs(gs[i - 1]) > tol:
            roots.append(bisect_root(g, xs[i - 1], x, gs[i - 1], gx, tol))
    scale = max(abs(lo), abs(hi), 1.0)
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-9 * scale:
            out.append(r)
    return out


@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW, DISC])
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
def test_m_fixed_points_matches_scalar_scan(dist, mu):
    """Oracle: the index search finds exactly the roots of a scan that
    evaluates the scalar operator at every grid point."""
    from labormkt.solvers import m_fixed_points

    for tol, n in ((solvers._TOL, 1024), (1e-12, 129)):
        for pool in (pools.LaborPool.entry(dist), _twice_split(dist)):
            g = lambda w: w - m_extended(pool, w, mu)
            lo, mean = min(pools.pool_inf(pool), 0.0), pools.pool_mean(pool)
            assert m_fixed_points(pool, mu, points=n, tol=tol) == scan_roots_by_loop(
                g, lo, mean, tol, n)


def test_grid_point_within_tol_is_a_root_and_not_bisected():
    """A grid value with |g| <= tol at a bracket end is taken as the root:
    the search evaluates the two grid ends and 7 halvings of 129 points,
    and bisects nothing."""
    from labormkt.solvers import grid_root

    calls = []

    def g(x):
        calls.append(x)
        return x - 0.5 - 1e-12  # -1e-12 at the grid point 0.5

    assert grid_root(g, 0.0, 1.0, points=129) == [0.5]
    assert len(calls) == 9


@pytest.mark.parametrize("points", [2, 3, 129, 257, 1025])
def test_grid_root_halves_grid_indices_to_the_full_scan_root(points):
    """g at both grid ends and log2(points - 1) halvings, all at scan_grid
    points, find the bracket the full scan bisects, and the root is that
    scan's."""
    from labormkt.solvers import grid_root

    calls = []
    f = lambda x: x ** 3 - 0.2
    g = lambda x: calls.append(x) or f(x)
    assert grid_root(g, 0.0, 1.0, points=points) == scan_roots_by_loop(
        f, 0.0, 1.0, solvers._TOL, points)
    grid, halvings = set(solvers.scan_grid(0.0, 1.0, points).tolist()), int(math.log2(points - 1))
    assert calls[:2] == [0.0, 1.0] and set(calls[2:2 + halvings]) <= grid
    assert not set(calls[2 + halvings:]) & grid  # the bisection of the bracket


def test_grid_root_without_a_straddle_takes_the_first_end_within_tol():
    """Grid ends of one sign: the first end with |g| <= tol is the root, a
    touch between them is not, and there is none otherwise; an interval
    whose ends meet is one point, and one that runs backwards is refused."""
    from labormkt.solvers import grid_root

    assert grid_root(lambda x: x * x, 0.0, 1.0, points=129) == [0.0]
    assert grid_root(lambda x: (x - 1.0) ** 2, 0.0, 1.0, points=129) == [1.0]
    assert grid_root(lambda x: (x - 0.5) ** 2, 0.0, 1.0, points=129) == []
    assert grid_root(lambda x: x - 0.25, 0.25, 0.25, points=129) == [0.25]
    with pytest.raises(ValueError, match="empty scan interval"):
        grid_root(lambda x: x, 1.0, 0.0, points=129)


README_PW = lm.piecewise_linear([(0.0, 0.5), (0.4, 1.6), (1.0, 0.8)])


@pytest.mark.parametrize("dist, points, tol, counts", [
    (UNI, 129, 1e-12, (39, 40, 39)), (UNI, 1024, 1e-10, (32, 32, 32)),
    (README_PW, 129, 1e-12, (40, 37, 34)), (README_PW, 1024, 1e-10, (32, 32, 34)),
    (DISC, 129, 1e-12, (37, 40, 37)), (DISC, 1024, 1e-10, (33, 33, 31))])
def test_m_fixed_points_evaluates_g_ends_halvings_and_bisection_steps(dist, points, tol,
                                                                      counts, monkeypatch):
    """Each search evaluates its residual at the two grid ends, log2(points
    - 1) halvings (7 of 129 points, 10 of 1,024) and the bisection's steps,
    on the entry pool and both sides of its split at 0.5.  The residual
    does not go through m_extended, so only a counter on the g that
    grid_root receives sees these; a scan of the whole grid fails here."""
    calls, grid_root = [], solvers.grid_root

    def counting_grid_root(g, lo, hi, **kw):
        return grid_root(lambda w: calls.append(w) or g(w), lo, hi, **kw)

    monkeypatch.setattr(solvers, "grid_root", counting_grid_root)
    entry = pools.LaborPool.entry(dist)
    got = []
    for pool in (entry, *pools.firing_split(entry, 0.5, 0.5)):
        calls.clear()
        assert len(solvers.m_fixed_points(pool, 0.5, points=points, tol=tol)) == 1
        grid = set(solvers.scan_grid(min(pools.pool_inf(pool), 0.0), pools.pool_mean(pool),
                                     points).tolist())
        halvings = math.ceil(math.log2(points - 1))
        assert set(calls[:2 + halvings]) <= grid and not set(calls[2 + halvings:]) & grid
        got.append(len(calls))
    assert tuple(got) == counts


# Every scan on a small case, called with the scan setting given;
# scan_grid takes points and no tol.
SCANS = {
    "m_fixed_points": lambda **kw: solvers.m_fixed_points(pools.LaborPool.entry(UNI), 0.5, **kw),
    "grid_root": lambda **kw: solvers.grid_root(lambda x: x - 0.3, 0.0, 1.0, **kw),
    "scan_grid": lambda points, tol: solvers.scan_grid(0.0, 1.0, points).tolist(),
}
BAD_SCAN_SETTINGS = [
    {"points": 0}, {"points": -3}, {"points": 1}, {"points": True}, {"points": 2.5},
    {"points": "129"}, {"tol": math.nan}, {"tol": math.inf}, {"tol": -1e-10},
    {"tol": True}, {"tol": "1e-10"}, {"tol": None}]


@pytest.mark.parametrize("scan, bad", [
    pytest.param(scan, bad, id=f"bad{i}-{scan}") for i, bad in enumerate(BAD_SCAN_SETTINGS)
    for scan in sorted(SCANS) if "points" in bad or scan != "scan_grid"])
def test_scans_refuse_points_and_tol_they_cannot_use(scan, bad):
    """A scan needs at least two grid points, as an integer, and a finite
    tolerance >= 0; anything else would scan a NaN grid or a point past
    its end, find no root or take every grid point as one."""
    with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
        SCANS[scan](**{"points": 129, "tol": 1e-10, **bad})


@pytest.mark.parametrize("scan", sorted(SCANS))
def test_scans_take_the_smallest_setting_as_numpy_scalars(scan):
    assert SCANS[scan](points=np.int64(2), tol=np.float64(0.0)) == SCANS[scan](points=2, tol=0.0)


def _patched_tol(opts_kw, monkeypatch):
    """The "tol" of opts_kw (default solvers._TOL), with its "max_iter", if
    any, patched into solvers._MAX_ITER."""
    if "max_iter" in opts_kw:
        monkeypatch.setattr(solvers, "_MAX_ITER", opts_kw["max_iter"])
    return opts_kw.get("tol", solvers._TOL)


# (g, a, b): smooth roots, roots on either end, a jump that bisects down to
# floating-point resolution, a root 1e-13 from the left end, a jump at 1e6
# that reaches resolution about 10 halvings before the steep root after it
# reaches tol, and that steep root.
BRACKETS = [
    (lambda x: x - 0.3, 0.0, 1.0),
    (lambda x: x ** 3 - 0.2, 0.0, 1.0),
    (lambda x: 0.7 - x, 0.0, 0.7),
    (lambda x: x - 0.5, 0.5, 1.0),
    (lambda x: 1.0 if x >= 0.4 else -1.0, 0.0, 1.0),
    (lambda x: math.sin(x), 3.0, 3.5),
    (lambda x: x - 1e-13, 0.0, 2.0),
    (lambda x: 1.0 if x >= 1e6 + 0.4 else -1.0, 1e6, 1e6 + 1.0),
    (lambda x: 1e3 * (x - 0.3), 0.0, 1.0),
]


@pytest.mark.parametrize("opts_kw", [{}, {"tol": 1e-6}, {"max_iter": 8}, {"max_iter": 1}])
def test_bisect_root_raises_its_best_point_when_out_of_steps(opts_kw, monkeypatch):
    """Every bracket ends inside itself; where _MAX_ITER halvings reach
    neither tol nor floating-point resolution, bisect_root raises
    NoConvergenceError with the best x it evaluated and g there."""
    from labormkt.solvers import bisect_root

    tol = _patched_tol(opts_kw, monkeypatch)
    n_failed = 0
    for f, a, b in BRACKETS:
        try:
            x = bisect_root(f, a, b, f(a), f(b), tol)
        except lm.NoConvergenceError as exc:
            n_failed += 1
            x = exc.best["x"]
            assert str(exc) == f"bisection did not reach tol={tol} in {solvers._MAX_ITER} steps"
            assert exc.residuals == {"g": f(x)}
        assert a <= x <= b
    assert (n_failed > 0) == (solvers._MAX_ITER < 10)
    with pytest.raises(ValueError, match="sign change"):
        bisect_root(lambda x: x, 1.0, 2.0, 1.0, 2.0, tol)


@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW, DISC, POINT, DISC41])
@pytest.mark.parametrize("opts_kw", [{}, {"points": 129, "tol": 1e-12}, {"max_iter": 20}])
def test_m_fixed_points_on_split_pools_equal_full_scalar_scans(dist, opts_kw, monkeypatch):
    """On both sides of the entry split at every threshold, m_fixed_points
    finds the roots of a scan that evaluates the scalar operator at every
    grid point, or raises the error that scan's bisection raises.  On the
    41-atom grid the leaver mean jumps at every atom, so brackets there
    bisect down to float resolution; with 20 halvings most of them raise."""
    from labormkt.solvers import m_fixed_points

    n = opts_kw.get("points", 1024)
    tol = _patched_tol(opts_kw, monkeypatch)
    facts = lambda exc: (type(exc), str(exc), exc.best, exc.residuals)
    entry = pools.LaborPool.entry(dist)
    for mu in (0.3, 0.8):
        for pool in (side for wp in _thresholds(dist) for side in pools.firing_split(entry, wp, mu)):
            if pools.pool_mass(pool) <= 0.0:
                continue
            mean, inf = pools.pool_mean(pool), pools.pool_inf(pool)
            search = lambda: m_fixed_points(pool, mu, points=n, tol=tol)
            if mean <= inf:  # a pool at a single point clears at its mean
                assert search() == [mean]
                continue
            try:
                expected = scan_roots_by_loop(lambda w: w - m_extended(pool, w, mu),
                                              min(inf, 0.0), mean, tol, n)
            except lm.NoConvergenceError as exc:
                with pytest.raises(lm.NoConvergenceError) as info:
                    search()
                assert facts(info.value) == facts(exc)
            else:
                assert search() == expected


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


@pytest.mark.parametrize("dist", [DISC, DISC41],
                         ids=["disc3", "disc41"])
@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 1.0])
def test_split_at_the_top_atom_keeps_it(dist, mu):
    """A review at the top atom H keeps that atom, as the two-period
    retention and the Monte Carlo replay do: the tree's S mass is (1 - mu)
    times the mass at or above H, and the scalar, array and row forms of
    both sides agree bit for bit."""
    top = dist.support_high
    n_top, m1_top = dist._moments_at_or_above(top)
    tree = lm.build_market_tree(dist, mu, 2, thresholds={"": top})
    assert pools._moments(tree.node("S").pool) == ((1.0 - mu) * n_top, (1.0 - mu) * m1_top)
    pool = pools.LaborPool.entry(dist)
    for scalar, low, high in ((pools.leaver_moments, 1.0, mu),
                              (pools.stayer_moments, 0.0, 1.0 - mu)):
        expected = scalar(pool, top, mu)
        n, m1 = pools._split_moments(dist, pool.pieces, pool.ends, np.array([top]), low, high)
        assert (n.tolist(), m1.tolist()) == ([expected[0]], [expected[1]])
    assert_split_rows_equal_split_pools(dist, [top], _thresholds(dist), mu, mu)
    replay = lm.simulate(lm.SimulationConfig(n_agents=10_000, seed=0, regime=lm.TWO_PERIOD,
                                             dist=dist, mu=mu, wages={"w0": 0.5, "w1": top}))
    share = (1.0 - mu) * n_top / dist.total_mass()
    stayed = next(m for m in replay.markets if m.name == "S").mass_share
    assert abs(stayed - share) <= 4.0 * math.sqrt(share * (1.0 - share) / 10_000) + 1e-12


def test_pool_inf_on_split_discrete_pools():
    pool = pools.LaborPool.entry(DISC)
    _, stayed = pools.firing_split(pool, 0.5, 0.3)
    assert pools.pool_inf(stayed) == 0.5
    leavers, _ = pools.firing_split(pool, 0.5, 0.0)
    assert pools.pool_inf(leavers) == 0.2
    leavers, _ = pools.firing_split(pool, 0.6, 0.0)
    assert pools.pool_inf(leavers) == 0.2
    assert pools.pool_inf(pools.LaborPool.entry(POINT)) == 0.7


def test_discrete_window_moments_match_atom_sums():
    """Windows taken from the moment primitive are closed at both ends: the
    moments at or above a less those at or above the float after b."""
    windows = [(0.2, 0.9), (0.2, 0.5), (0.5, 0.5), (0.5, 0.9), (0.9, 0.9), (0.3, 0.6), (-1.0, 2.0)]
    for a, b in windows:
        n_a, m1_a = DISC._moments_at_or_above(a)
        n_b, m1_b = DISC._moments_at_or_above(math.nextafter(b, math.inf))
        inside = [(t, c) for t, c in DISC.atoms if a <= t <= b]
        want = (sum(c for _, c in inside), sum(t * c for t, c in inside))
        assert (n_a - n_b, m1_a - m1_b) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("dist", [UNI, UNI_WIDE, PW, DISC, POINT])
def test_moments_at_or_above_match_oracles(dist):
    """At every atom or breakpoint, its float neighbours, both support ends
    and points outside the support: the atom sums at or above x for a
    discrete base, the midpoint rule over [x, top] for the others."""
    lo, hi = dist.support_low, dist.support_high
    probes = [lo - 1.0, lo, (lo + hi) / 2.0, hi, hi + 1.0, *dist._xs]
    probes += [math.nextafter(x, d) for x in probes for d in (-math.inf, math.inf)]
    for x in probes:
        if dist.kind == "discrete":
            kept = [(t, c) for t, c in dist.atoms if t >= x]
            want = (sum(c for _, c in kept), sum(t * c for t, c in kept))
            assert dist._moments_at_or_above(x) == pytest.approx(want, abs=1e-15)
        else:
            want = (riemann_mass(dist, x, hi), riemann_first_moment(dist, x, hi))
            assert dist._moments_at_or_above(x) == pytest.approx(want, abs=1e-7)


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
        assert PW.moments_below(x)[0] / total == pytest.approx(q, abs=1e-9)


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


def piecewise_sampler_oracle(dist, u):
    """The per-draw piecewise inverse CDF as one whole-array formula: find
    each draw's segment, then evaluate both the quadratic and the linear
    solution everywhere and pick one."""
    thetas, cum, _, ds = dist._arrays
    total = cum[-1]
    target = u * total
    idx = np.searchsorted(cum, target, side="right") - 1
    idx = np.clip(idx, 0, len(thetas) - 2)
    x0, x1 = thetas[idx], thetas[idx + 1]
    d0, d1 = ds[idx], ds[idx + 1]
    h = x1 - x0
    rem = target - cum[idx]
    a = (d1 - d0) / (2.0 * h)
    # The unused branch may overflow (rem / d0 at a subnormal d0).
    with np.errstate(all="ignore"):
        disc = np.sqrt(np.maximum(d0 * d0 + 4.0 * a * rem, 0.0))
        s_quad = np.where(a != 0.0, (disc - d0) / np.where(a != 0.0, 2.0 * a, 1.0), 0.0)
        s_lin = np.where(d0 > 0.0, rem / np.where(d0 > 0.0, d0, 1.0), 0.0)
    s = np.where(np.abs(a) < 1e-14, s_lin, s_quad)
    return x0 + np.clip(s, 0.0, h)


def many_segment_base(seed: int, n_nodes: int) -> lm.ProductivityDistribution:
    """A piecewise base of n_nodes nodes from a seeded generator, with the
    node steps of sampler_piecewise_bases: new, same, one ulp up or zero."""
    rng = np.random.default_rng(seed)
    xs = -5.0 + np.cumsum(rng.uniform(1e-3, 2.0, n_nodes))
    ds = rng.uniform(0.0, 5.0, n_nodes)
    for i, step in enumerate(rng.integers(0, 4, n_nodes)[1:], start=1):
        ds[i] = (ds[i], ds[i - 1], np.nextafter(ds[i - 1], np.inf), 0.0)[step]
    ds[rng.integers(n_nodes)] = rng.uniform(0.5, 5.0)  # positive mass
    return lm.piecewise_linear(list(zip(xs.tolist(), ds.tolist())))


def many_atom_base(seed: int, n_atoms: int) -> lm.ProductivityDistribution:
    """A discrete base of n_atoms atoms on a 1/64 grid from a seeded generator."""
    rng = np.random.default_rng(seed)
    thetas = rng.choice(np.arange(-320, 240) / 64, n_atoms, replace=False)
    counts = rng.choice([1e-300, 0.01, 1.0, 2.5, 5.0], n_atoms)  # 1e-300: tied CDF values
    return lm.discrete(list(zip(thetas.tolist(), counts.tolist())))


def is_long(dist) -> bool:
    """Whether the sampler looks up dist's segments with np.searchsorted."""
    return len(dist._inverse[0]) > pools._COUNTED_KEYS


@st.composite
def sampler_piecewise_bases(draw):
    """Piecewise bases with negative supports, zero-density nodes and flat
    segments: equal neighbouring densities (a = 0) or densities one ulp
    apart (|a| below the 1e-14 flatness cut on wide segments).  One base
    in eight has enough nodes that its lookup calls np.searchsorted."""
    if draw(st.integers(0, 7)) == 0:
        return many_segment_base(draw(st.integers(0, 2 ** 32 - 1)),
                                 draw(st.integers(pools._COUNTED_KEYS + 3, 200)))
    n = draw(st.integers(2, 7))
    xs = [draw(st.floats(-5.0, 1.0))]
    for _ in range(n - 1):
        xs.append(xs[-1] + draw(st.floats(1e-3, 2.0)))
    ds = [draw(st.floats(0.0, 5.0))]
    for _ in range(n - 1):
        step = draw(st.sampled_from(["new", "same", "ulp", "zero"]))
        ds.append({"new": lambda: draw(st.floats(0.0, 5.0)), "same": lambda: ds[-1],
                   "ulp": lambda: float(np.nextafter(ds[-1], np.inf)),
                   "zero": lambda: 0.0}[step]())
    ds[draw(st.integers(0, n - 1))] = draw(st.floats(0.5, 5.0))  # positive mass
    return lm.piecewise_linear(list(zip(xs, ds)))


def edge_draws(dist):
    """0, the largest double below 1, and the CDF at every breakpoint or
    atom with its float neighbours, those in [0, 1)."""
    cdf = dist._arrays[1] / dist._arrays[1][-1]
    edges = np.concatenate([cdf, np.nextafter(cdf, -1.0), np.nextafter(cdf, 2.0)])
    return np.concatenate([[0.0, 1.0 - 2.0 ** -53], edges[(edges >= 0.0) & (edges < 1.0)]])


def sampler_draws(draw, dist):
    """edge_draws, a grid and drawn u in [0, 1)."""
    drawn = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
    return np.concatenate([edge_draws(dist), np.linspace(0.0, 1.0, 101)[:-1], drawn])


# Draws outside [0, 1): the sampler keeps the value it had when it looked
# segments up with np.searchsorted alone, or NaN where that was NaN.
OUTSIDE = np.array([math.nan, -math.nan, math.inf, -math.inf, 1.0, math.nextafter(1.0, 2.0),
                    1.5, 2.0, 1e300, -0.0, -5e-324, -1e-300, -0.5, -1.0, -1e300])


def assert_same_or_both_nan(got, want):
    nan = np.isnan(want)
    assert np.isnan(got).tolist() == nan.tolist()
    assert got[~nan].tobytes() == want[~nan].tobytes()


def discrete_sampler_oracle(dist, u):
    thetas, cum = dist._arrays[0], dist._arrays[1]
    return thetas[np.minimum(np.searchsorted(cum[1:] / cum[-1], u, side="right"),
                             len(thetas) - 1)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_piecewise_sampler_is_bit_equal_to_whole_array_formula(data):
    dist = data.draw(sampler_piecewise_bases())
    u = sampler_draws(data.draw, dist)
    got = pools.sample_productivities(dist, u)
    assert got.tobytes() == piecewise_sampler_oracle(dist, u).tobytes()
    # One scalar draw at a time gives the same bytes as the whole array.
    assert got.tobytes() == np.array([pools.sample_productivities(dist, x) for x in u]).tobytes()
    assert_same_or_both_nan(pools.sample_productivities(dist, OUTSIDE),
                            piecewise_sampler_oracle(dist, OUTSIDE))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_discrete_sampler_is_cdf_search(data):
    """Up to 8 drawn atoms, or, one base in eight, enough atoms that the
    lookup calls np.searchsorted."""
    if data.draw(st.integers(0, 7)) == 0:
        dist = many_atom_base(data.draw(st.integers(0, 2 ** 32 - 1)),
                              data.draw(st.integers(pools._COUNTED_KEYS + 2, 200)))
    else:
        atoms = data.draw(st.lists(st.tuples(st.floats(-5.0, 3.0), st.floats(0.01, 5.0)),
                                   min_size=1, max_size=8))
        dist = lm.discrete(atoms)
    u = np.concatenate([sampler_draws(data.draw, dist), OUTSIDE])
    got = pools.sample_productivities(dist, u)
    assert got.tobytes() == discrete_sampler_oracle(dist, u).tobytes()
    assert got.tobytes() == np.array([pools.sample_productivities(dist, x) for x in u]).tobytes()


# One segment (flat or not), two, and many: one key on each side of the
# switch from counting to np.searchsorted, and far past it.
LOOKUP_PIECEWISE = {
    "1-segment": lm.piecewise_linear([(0.0, 1.0), (1.0, 2.0)]),
    "1-segment-flat": lm.piecewise_linear([(-1.0, 0.5), (2.0, 0.5)]),
    "2-segment": lm.piecewise_linear([(0.0, 0.2), (0.3, 1.1), (1.0, 0.1)]),
    "counted-at-switch": many_segment_base(1, pools._COUNTED_KEYS + 2),
    "searched-past-switch": many_segment_base(2, pools._COUNTED_KEYS + 3),
    "searched-300-nodes": many_segment_base(3, 300),
}
LOOKUP_DISCRETE = {
    "1-atom": lm.discrete([(0.5, 2.0)]),
    "2-atom": lm.discrete([(0.2, 1.0), (0.9, 3.0)]),
    "tied-cdf": lm.discrete([(0.1, 1e-300), (0.2, 1.0), (0.4, 1e-300), (0.9, 3.0)]),
    "counted-at-switch": many_atom_base(1, pools._COUNTED_KEYS + 1),
    "searched-past-switch": many_atom_base(2, pools._COUNTED_KEYS + 2),
    "searched-300-atoms": many_atom_base(3, 300),
}


@pytest.mark.parametrize("name", sorted(LOOKUP_PIECEWISE))
def test_piecewise_lookup_at_every_breakpoint(name):
    dist = LOOKUP_PIECEWISE[name]
    assert is_long(dist) == name.startswith("searched")
    u = edge_draws(dist)
    got = pools.sample_productivities(dist, u)
    assert got.tobytes() == piecewise_sampler_oracle(dist, u).tobytes()
    assert_same_or_both_nan(pools.sample_productivities(dist, OUTSIDE),
                            piecewise_sampler_oracle(dist, OUTSIDE))


@pytest.mark.parametrize("name", sorted(LOOKUP_DISCRETE))
def test_discrete_lookup_at_every_atom(name):
    dist = LOOKUP_DISCRETE[name]
    assert is_long(dist) == name.startswith("searched")
    u = np.concatenate([edge_draws(dist), OUTSIDE])
    got = pools.sample_productivities(dist, u)
    assert got.tobytes() == discrete_sampler_oracle(dist, u).tobytes()
