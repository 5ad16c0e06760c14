"""Property-based checks of the pool invariants on random bases.

Random piecewise-linear and discrete bases, optionally split once before
the check, with random thresholds (inside and outside the support) and
quit probabilities.  Examples are derandomized so every run of the suite
checks the same cases; raise max_examples locally to search further.
"""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import labormkt as lm  # noqa: E402
from labormkt import multiperiod, pools, solvers  # noqa: E402
from labormkt.solvers import m_extended, m_fixed_points  # noqa: E402
from test_pools import _clamped, assert_split_rows_equal_split_pools, scan_roots_by_loop  # noqa: E402

THETA = st.floats(-2.0, 3.0, allow_nan=False)
# Positive quit probabilities start at 1e-6: with a subnormal mu the
# weighted atom masses underflow to zero one by one, in any implementation.
MU = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1.0))


@st.composite
def piecewise_bases(draw):
    xs = draw(st.lists(THETA, min_size=2, max_size=6, unique=True).map(sorted))
    ds = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
                       min_size=len(xs), max_size=len(xs)))
    ds[draw(st.integers(0, len(xs) - 1))] = draw(st.floats(0.5, 5.0))
    hypothesis.assume(all(x1 - x0 > 1e-3 for x0, x1 in zip(xs, xs[1:])))
    return lm.piecewise_linear(list(zip(xs, ds)))


@st.composite
def discrete_bases(draw):
    atoms = draw(st.lists(st.tuples(THETA, st.floats(0.01, 5.0)), min_size=1, max_size=8))
    return lm.discrete(atoms)


BASES = st.one_of(piecewise_bases(), discrete_bases())


@st.composite
def pools_and_splits(draw, bases=BASES):
    """A pool (the entry pool, or one side of a first split) plus a
    threshold and quit probability for the split under test."""
    dist = draw(bases)
    lo, hi = dist.support_low, dist.support_high
    atoms = [t for t, _ in dist.atoms] or [t for t, _ in dist.nodes]
    thresholds = st.one_of(st.sampled_from(atoms), st.floats(lo - 1.0, hi + 1.0))
    pool = pools.LaborPool.entry(dist)
    if draw(st.booleans()):
        side = draw(st.integers(0, 1))
        pool = pools.firing_split(pool, draw(thresholds), draw(MU))[side]
    return pool, draw(thresholds), draw(MU)


def _scale(pool):
    base = pool.base
    return max(abs(base.support_low), abs(base.support_high), 1.0) * base.total_mass()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pools_and_splits())
def test_firing_split_conserves_mass_and_first_moment(case):
    pool, t, mu = case
    leavers, stayers = pools.firing_split(pool, t, mu)
    n, m1 = pools._moments(pool)
    n_l, m1_l = pools._moments(leavers)
    n_s, m1_s = pools._moments(stayers)
    tol = 1e-12 * _scale(pool)
    assert n_l + n_s == pytest.approx(n, abs=tol)
    assert m1_l + m1_s == pytest.approx(m1, abs=tol)
    assert pools.leaver_moments(pool, t, mu) == (n_l, m1_l)
    assert pools.stayer_moments(pool, t, mu) == (n_s, m1_s)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pools_and_splits())
def test_leaver_mean_lies_between_pool_inf_and_pool_mean(case):
    pool, w, mu = case
    hypothesis.assume(pools.pool_mass(pool) > 1e-9 * pool.base.total_mass())
    value = m_extended(pool, w, mu)
    tol = 1e-9 * max(abs(pool.base.support_low), abs(pool.base.support_high), 1.0)
    assert pools.pool_inf(pool) - tol <= value <= pools.pool_mean(pool) + tol


@st.composite
def entry_splits(draw):
    """A uniform, piecewise or discrete base, a threshold at a support end,
    an atom, a breakpoint or anywhere near the support, and the quit
    probabilities of that split and of a split of either side."""
    uniform = st.tuples(THETA, st.floats(1e-3, 3.0), st.floats(0.1, 5.0)).map(
        lambda a: lm.uniform(a[0], a[0] + a[1], a[2]))
    dist = draw(st.one_of(uniform, BASES))
    lo, hi = dist.support_low, dist.support_high
    marks = [lo, hi] + [t for t, _ in dist.atoms] + [t for t, _ in dist.nodes]
    t = draw(st.one_of(st.sampled_from(marks), st.floats(lo - 1.0, hi + 1.0)))
    return dist, t, draw(MU), draw(MU)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(entry_splits())
def test_split_pool_and_its_stack_row_are_the_same_pool(case):
    """Each side of firing_split(LaborPool.entry(d), t, mu) and its row of
    the multi-start's stack multiperiod._split_stack(d, mu, [t]) have the
    same moments, infimum and split moments at every piece bound of
    either side, bit for bit (a stack with an empty row raises
    EmptyPoolError).  Their ends differ: at t = L the split pool has one
    piece and the row two."""
    dist, t, mu, mu_inner = case
    sides = pools.firing_split(pools.LaborPool.entry(dist), t, mu)
    bounds = sorted({x for pool in sides for lo, hi, _ in pool.pieces for x in (lo, hi)})
    assert_split_rows_equal_split_pools(dist, [t], bounds, mu, mu_inner)


@st.composite
def flat_zero_bases(draw):
    """A piecewise base with a zero-density segment between two positive
    parts, anywhere on the line (on negative thetas too)."""
    x0 = draw(st.floats(-5.0, 2.0))
    widths = draw(st.lists(st.floats(0.01, 2.0), min_size=4, max_size=4))
    xs = [x0 + sum(widths[:i]) for i in range(5)]
    ds = [draw(st.floats(0.0, 5.0)), draw(st.floats(0.5, 5.0)), 0.0, 0.0,
          draw(st.floats(0.0, 5.0))]
    return lm.piecewise_linear(list(zip(xs, ds)))


@st.composite
def kernel_cases(draw):
    """pools_and_splits() over the usual bases, a base with a zero-density
    segment, or a base whose support is all negative."""
    negative = piecewise_bases().map(
        lambda d: lm.piecewise_linear([(t - 6.0, v) for t, v in d.nodes]))
    return draw(pools_and_splits(st.one_of(BASES, flat_zero_bases(), negative)))


def _split_leaver_mean(pool, w, mu):
    """m_extended's value read off firing_split's leaver pool."""
    if w >= pool.base.support_high:
        return pools.pool_mean(pool)
    n, m1 = pools._moments(pools.firing_split(pool, w, mu)[0])
    return m1 / n if n > 0.0 else pools.pool_inf(pool)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel_cases(), st.lists(st.floats(-8.0, 4.0), min_size=1, max_size=20))
def test_array_leaver_kernel_equals_scalar_kernel(case, extra):
    """The array piece loop on either side of a split, the array leaver
    mean and the moment primitive on a clamped array are the scalar results
    bit for bit, and the scalar leaver mean is the split leaver pool's."""
    pool, t, mu = case
    base = pool.base
    ts = [t, base.support_low, base.support_high] + extra
    ts += [x for lo, hi, _ in pool.pieces for x in (lo, hi)]
    for scalar, low, high in ((pools.leaver_moments, 1.0, mu),
                              (pools.stayer_moments, 0.0, 1.0 - mu)):
        n, m1 = pools._split_moments(base, pool.pieces, pool.ends, _clamped(base, ts), low, high)
        assert list(zip(n.tolist(), m1.tolist())) == [scalar(pool, x, mu) for x in ts]
    if pools.pool_mass(pool) > 0.0:
        for w in ts:
            assert m_extended(pool, w, mu) == _split_leaver_mean(pool, w, mu)
        ws = ts + [math.inf]
        m = solvers._leaver_mean_rows(base, pool.pieces, pool.ends, pool.moments,
                                      pools.pool_inf(pool), np.array(ws), mu)
        assert m.tolist() == [m_extended(pool, w, mu) for w in ws]
    # Every breakpoint or atom, its float neighbours, and points outside the support.
    marks = [x for x, _ in base.nodes] + [x for x, _ in base.atoms]
    xs = ts + [y for x in marks for y in (math.nextafter(x, -math.inf), x,
                                          math.nextafter(x, math.inf))]
    xs = _clamped(base, xs + [base.support_low - 1.0, base.support_high + 1.0,
                              -math.inf, math.inf])
    n, m1 = base._moments_below_clamped(xs)
    assert list(zip(n.tolist(), m1.tolist())) == [base.moments_below(x) for x in xs.tolist()]


@st.composite
def residual_cases(draw):
    """The entry pool of a uniform, piecewise or discrete base, or either
    side of its split at a support end, a node, an atom or anywhere (a
    split at mu 0 or 1 leaves a zero-weight piece), and the search's mu."""
    dist, t, mu_split, mu = draw(entry_splits())
    pool = pools.LaborPool.entry(dist)
    if draw(st.booleans()):
        pool = pools.firing_split(pool, t, mu_split)[draw(st.integers(0, 1))]
    return pool, mu


def _bound_residual(pool, mu):
    """The g that m_fixed_points hands grid_root."""
    bound = []
    with mock.patch.object(solvers, "grid_root", lambda g, lo, hi, **kw: bound.append(g) or []):
        m_fixed_points(pool, mu)
    return bound[0]


def _error(f, *args):
    try:
        f(*args)
    except Exception as exc:  # noqa: BLE001 -- the error is the result
        return type(exc), str(exc)
    raise AssertionError(f"{f.__name__}{args} raised nothing")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(residual_cases())
def test_bound_residual_is_w_minus_m_extended(case):
    """m_fixed_points checks mu and reads the pool's mean and infimum once
    per search; the residual it binds is still w - m_extended(pool, w, mu)
    bit for bit, in value and type, at float, int and np.float64 wages
    below, at the ends of, inside and above the support, and refuses what
    m_extended refuses with the same error."""
    pool, mu = case
    hypothesis.assume(pools.pool_mass(pool) > 0.0)
    mean, inf = pools.pool_mean(pool), pools.pool_inf(pool)
    hypothesis.assume(mean > inf)  # a pool at a single point clears at its mean, unsearched
    g = _bound_residual(pool, mu)
    lo, hi = pool.base.support_low, pool.base.support_high
    ws = [lo - 1.0, lo, hi, hi + 1.0, math.inf, min(inf, 0.0), mean]
    ws += [x for p_lo, p_hi, _ in pool.pieces for x in (p_lo, p_hi)]
    ws += [np.float64(w) for w in ws] + [math.floor(lo) - 1, math.floor(lo), math.ceil(hi), 0]
    for w in ws:
        assert repr(g(w)) == repr(w - m_extended(pool, w, mu))
    for w in (math.nan, -math.inf, np.float64(math.nan), np.float64(-math.inf)):
        assert _error(g, w) == _error(m_extended, pool, w, mu)
        assert _error(g, w)[0] is lm.InvalidThresholdError
    for bad in (-0.5, 1.5, math.nan, True, "0.5"):
        assert _error(m_fixed_points, pool, bad) == _error(m_extended, pool, lo, bad)
        assert _error(m_fixed_points, pool, bad)[0] is ValueError


UNIFORM_BASES = st.tuples(THETA, st.floats(0.01, 3.0), st.floats(0.1, 3.0)).map(
    lambda v: lm.uniform(v[0], v[0] + v[1], v[2]))


@st.composite
def split_and_eval_points(draw):
    """A base of any kind, split points wp and evaluation points w (atoms,
    nodes, support ends or anywhere around the support), and two quit
    probabilities: one for the split at wp, one for the split at w."""
    dist = draw(st.one_of(BASES, UNIFORM_BASES))
    lo, hi = dist.support_low, dist.support_high
    marks = [t for t, _ in dist.atoms] + [t for t, _ in dist.nodes] + [lo, hi]
    points = st.one_of(st.sampled_from(marks), st.floats(lo - 1.0, hi + 1.0))
    return (dist, draw(st.lists(points, min_size=1, max_size=4)),
            draw(st.lists(points, min_size=1, max_size=6)), draw(MU), draw(MU))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(split_and_eval_points())
def test_split_rows_kernel_equals_scalar_kernel(case):
    assert_split_rows_equal_split_pools(*case)


@st.composite
def resplit_pools(draw):
    """A pool after 0 to 3 random splits of an entry pool of any kind, and
    a quit probability of 0, 1, anywhere, or small (1e-4 to 1e-1)."""
    dist = draw(st.one_of(BASES, UNIFORM_BASES))
    lo, hi = dist.support_low, dist.support_high
    marks = [t for t, _ in dist.atoms] + [t for t, _ in dist.nodes] + [lo, hi]
    points = st.one_of(st.sampled_from(marks), st.floats(lo - 1.0, hi + 1.0))
    pool = pools.LaborPool.entry(dist)
    for _ in range(draw(st.integers(0, 3))):
        pool = pools.firing_split(pool, draw(points), draw(MU))[draw(st.integers(0, 1))]
    return pool, draw(st.one_of(MU, st.floats(1e-4, 1e-1)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(resplit_pools(), st.sampled_from([{}, {"points": 129, "tol": 1e-12}]))
def test_released_market_clears_at_exactly_one_wage(case, scan):
    """g(w) = w - m_extended(pool, w, mu) rises with slope at least 1 while
    it is negative and has slope 1 at a root; at an atom the leaver mean
    moves toward the atom, so g never crosses back.  So every terminal
    market's scan, at both scan settings, finds exactly one wage."""
    pool, mu = case
    hypothesis.assume(pools.pool_mass(pool) > 1e-9 * pool.base.total_mass())
    assert len(m_fixed_points(pool, mu, **scan)) == 1


@st.composite
def heavy_discrete_bases(draw):
    """Up to 8 atoms weighing 1e-8 to 1e12 each."""
    weights = st.floats(-8.0, 12.0).map(lambda e: 10.0 ** e)
    return lm.discrete(draw(st.lists(st.tuples(THETA, weights), min_size=1, max_size=8)))


@st.composite
def clearing_cases(draw):
    """A uniform, piecewise or heavy-atom discrete base, a quit probability
    of 0, 1, anywhere, or down to 1e-18, a pool (the entry pool or one
    twice split at that mu)."""
    dist = draw(st.one_of(UNIFORM_BASES, piecewise_bases(), heavy_discrete_bases()))
    mu = draw(st.one_of(MU, st.floats(-18.0, -6.0).map(lambda e: 10.0 ** e)))
    lo, hi = dist.support_low, dist.support_high
    marks = [t for t, _ in dist.atoms] + [t for t, _ in dist.nodes] + [lo, hi]
    points = st.one_of(st.sampled_from(marks), st.floats(lo - 1.0, hi + 1.0))
    pool = pools.LaborPool.entry(dist)
    if draw(st.booleans()):
        for _ in range(2):
            pool = pools.firing_split(pool, draw(points), mu)[draw(st.integers(0, 1))]
    return pool, mu


@settings(max_examples=150, deadline=None, derandomize=True)
@given(clearing_cases(), st.sampled_from([(1024, 1e-10), (129, 1e-12)]))
def test_market_clears_at_the_one_sign_change_of_the_full_grid(case, scan):
    """The full grid (scan_roots_by_loop) is the oracle.  m_fixed_points
    finds exactly the oracle's roots beside a sign change of g on the grid
    (with no sign change, the first grid end within tol); any other oracle
    root is a grid point where g comes within tol above zero between two
    positive neighbours, so a second crossing fails here."""
    pool, mu = case
    n, tol = scan
    hypothesis.assume(pools.pool_mass(pool) > 0.0)
    got = m_fixed_points(pool, mu, points=n, tol=tol)
    mean, inf = pools.pool_mean(pool), pools.pool_inf(pool)
    if mean <= inf:  # a pool at a single point
        assert got == [mean]
    else:
        lo = min(inf, 0.0)
        g = lambda w: w - m_extended(pool, w, mu)
        xs = [lo + (mean - lo) * i / (n - 1) for i in range(n)]
        gs = [g(x) for x in xs]
        changes = [i for i in range(1, n) if (gs[i - 1] > 0.0) != (gs[i] > 0.0)]
        oracle = scan_roots_by_loop(g, lo, mean, tol, n)
        expected = ([r for r in oracle if any(xs[i - 1] <= r <= xs[i] for i in changes)]
                    if changes else [xs[i] for i in (0, n - 1) if abs(gs[i]) <= tol][:1])
        assert got == expected
        for r in oracle:
            if r not in expected:
                i = xs.index(r)
                assert all(gs[j] > 0.0 for j in (i - 1, i + 1) if 0 <= j < n)


@st.composite
def three_period_cases(draw):
    """A uniform, piecewise or heavy-atom discrete base and a quit
    probability anywhere in [1e-3, 0.999], its ends included."""
    dist = draw(st.one_of(UNIFORM_BASES, piecewise_bases(), heavy_discrete_bases()))
    return dist, draw(st.one_of(st.sampled_from([1e-3, 0.999]), st.floats(1e-3, 0.999)))


# The entry mean of this base rounds to its bottom atom, so the outer
# window is one point.
ONE_POINT_WINDOW = (lm.discrete([(-1.0, 2e10), (-7.27836839810417e-128, 1.3450903119634369e-08)]),
                    1e-3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(three_period_cases())
@example(ONE_POINT_WINDOW)
def test_outer_search_finds_the_one_sign_change_of_the_full_grid(case):
    """The period-2 hirers' profit g(w_plus) at every point of the outer
    scan grid is the oracle.  It is positive at the bottom and changes sign
    exactly once, and solve_three_period is the solution finished at that
    crossing's root (a bracket end within tol, the lower first, or the
    bisection of the bracket), or raises the gate's error for that
    solution, or the error the full scan's bisection raises.  Where no grid
    point but one end of that bracket is within tol, the root is the
    largest of the full scan (scan_roots_by_loop); a window so narrow that
    a run of grid points is within tol is pinned in test_multiperiod.  A
    window of one point has the full scan's roots."""
    dist, mu = case
    hypothesis.assume(not multiperiod._is_point_mass(dist))  # solved in closed form
    pool0 = pools.LaborPool.entry(dist)
    lo, hi = pools.pool_inf(pool0), pools.pool_mean(pool0)
    stages = {}

    def g(w):
        if w not in stages:
            stages[w] = multiperiod._stage_from_w_plus(pool0, mu, w)
        return stages[w].rehire_profit

    n, tol = multiperiod._OUTER_SCAN, solvers._TOL
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    gs = [g(x) for x in xs]
    facts = lambda exc: (type(exc), str(exc), exc.best, exc.residuals)
    if lo == hi:
        roots = scan_roots_by_loop(g, lo, hi, tol, n)
    else:
        assert gs[0] > 0.0
        changes = [i for i in range(1, n) if (gs[i - 1] > 0.0) != (gs[i] > 0.0)]
        assert len(changes) == 1
        a, b = changes[0] - 1, changes[0]
        try:
            oracle = scan_roots_by_loop(g, lo, hi, tol, n)
        except lm.NoConvergenceError as exc:
            with pytest.raises(lm.NoConvergenceError) as info:
                lm.solve_three_period(dist, mu)
            assert facts(info.value) == facts(exc)
            return
        ends = [xs[i] for i in (a, b) if abs(gs[i]) <= tol]
        roots = ends[:1] or [solvers.bisect_root(g, xs[a], xs[b], gs[a], gs[b], tol)]
        small = {i for i, v in enumerate(gs) if abs(v) <= tol}
        if small <= {a} or small <= {b}:
            assert roots == oracle[-1:]
    if not roots:
        with pytest.raises(lm.NoConvergenceError, match="no retention offer"):
            lm.solve_three_period(dist, mu)
        return
    want = multiperiod._finish_solution(dist, mu, stages[roots[0]],
                                        extra_diag={"w_plus_candidates": roots})
    try:
        got = lm.solve_three_period(dist, mu)
    except lm.NoConvergenceError as exc:
        assert (exc.best, exc.residuals) == (
            want.wages(), dict(zip(multiperiod.RESIDUAL_NAMES, want.residuals)))
    else:
        assert got.to_dict() == want.to_dict()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(-1.0, 5.0), st.floats(0.05, 5.0), st.floats(0.01, 0.99))
def test_two_period_wages_average_to_the_uniform_mean(low, width, mu):
    """On a uniform base the entry and re-hiring wages sum to twice the
    mean productivity: w0 + w1 = 2 * theta_bar."""
    sol = lm.solve_two_period(lm.uniform(low, low + width), mu)
    hypothesis.assume(not sol.collapsed)
    scale = max(abs(low), abs(low + width), 1.0)
    assert sol.w0 + sol.w1 == pytest.approx(2.0 * sol.theta_bar, abs=1e-9 * scale)


# ---------------------------------------------------------------------
# Malformed scalars fail at the boundary with a ValueError
# ---------------------------------------------------------------------

_WAGES = {"w0": 0.6, "w1": 0.4}


def _sim(**fields):
    return lm.SimulationConfig(**{"n_agents": 10, "seed": 0, "regime": lm.TWO_PERIOD,
                                  "dist": lm.uniform(0, 1), "mu": 0.5, "wages": _WAGES,
                                  **fields})


def _screening(**fields):
    return lm.ScreeningConfig(**{"n_total": 10, "m_allowed": 1, **fields})


def _contract(**fields):
    return lm.ContractProblem(**{"outcomes": (0.0, 4.0), "efforts": (0.0, 1.0),
                                 "density": ((0.8, 0.2), (0.2, 0.8)),
                                 "effort_costs": (0.0, 0.5), "reservation": 0.5,
                                 "wage_grid": (0.0, 1.0, 2.0, 4.0), **fields})


# One builder per field: a valid object with that field replaced by v.
BUILDERS = {
    "SimulationConfig.n_agents": lambda v: _sim(n_agents=v),
    "SimulationConfig.seed": lambda v: _sim(seed=v),
    "SimulationConfig.regime": lambda v: _sim(regime=v),
    "SimulationConfig.dist": lambda v: _sim(dist=v),
    "SimulationConfig.wages": lambda v: _sim(wages=v),
    "SimulationConfig.mu": lambda v: _sim(mu=v),
    "SimulationConfig.wages.w0": lambda v: _sim(wages={**_WAGES, "w0": v}),
    "SimulationConfig.wages.w1": lambda v: _sim(wages={**_WAGES, "w1": v}),
    "ScreeningConfig.n_total": lambda v: _screening(n_total=v),
    "ScreeningConfig.m_allowed": lambda v: _screening(m_allowed=v),
    "ScreeningConfig.theta_low": lambda v: _screening(theta_low=v),
    "ScreeningConfig.theta_high": lambda v: _screening(theta_high=v),
    "ContractProblem.outcomes": lambda v: _contract(outcomes=(0.0, v)),
    "ContractProblem.efforts": lambda v: _contract(efforts=(0.0, v)),
    "ContractProblem.density": lambda v: _contract(density=((0.8, 0.2), (0.2, v))),
    "ContractProblem.effort_costs": lambda v: _contract(effort_costs=(0.0, v)),
    "ContractProblem.reservation": lambda v: _contract(reservation=v),
    "ContractProblem.wage_grid": lambda v: _contract(wage_grid=(0.0, 1.0, 2.0, v)),
    "solve_two_period.mu": lambda v: lm.solve_two_period(lm.uniform(0, 1), v),
    "build_market_tree.n_periods": lambda v: lm.build_market_tree(lm.uniform(0, 1), 0.5, v),
    "submarket_count.n_periods": lm.submarket_count,
    "solve_regime.n_periods": lambda v: lm.solve_regime(lm.uniform(0, 1), 0.5, v),
    "solve_three_period_multistart.n_starts":
        lambda v: lm.solve_three_period_multistart(lm.uniform(0, 1), 0.5, n_starts=v),
    "solve_three_period_multistart.seed":
        lambda v: lm.solve_three_period_multistart(lm.uniform(0, 1), 0.5, seed=v),
    "quantile.q": lambda v: lm.quantile(lm.uniform(0, 1), v),
    "critical_assessment_periods.m": lm.critical_assessment_periods,
    "distinguishable_interval.t":
        lambda v: lm.distinguishable_interval(v, lm.ScreeningConfig(n_total=10, m_allowed=3)),
    "default_wage_grid.n_levels": lambda v: lm.default_wage_grid((0.0, 4.0), v),
    "default_wage_grid.outcomes": lambda v: lm.default_wage_grid((1.0, v), 3),
    "UtilitySpec.param": lambda v: lm.UtilitySpec("crra", v),
    "UtilitySpec.param.linear": lambda v: lm.UtilitySpec("linear", v),
    "UtilitySpec.param.sqrt": lambda v: lm.UtilitySpec("sqrt", v),
    "UtilitySpec.param.log1p": lambda v: lm.UtilitySpec("log1p", v),
}
MALFORMED = st.one_of(st.booleans(), st.text(max_size=4),
                      st.sampled_from(["0.5", "1e-8", "3", "nan"]), st.just(float("nan")),
                      st.floats(0.01, 50.0).filter(lambda v: not v.is_integer()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BUILDERS)), MALFORMED)
def test_malformed_field_builds_or_raises_value_error(field, value):
    """A bool, a string, a non-integral float or NaN in any one field either
    builds (a float may be a valid real) or raises ValueError or a
    LaborMarketError; never a bare TypeError."""
    try:
        BUILDERS[field](value)
    except (ValueError, lm.LaborMarketError):
        pass


@pytest.mark.parametrize("field, value", [
    ("SimulationConfig.mu", True), ("SimulationConfig.mu", "0.5"),
    ("SimulationConfig.wages.w1", True), ("SimulationConfig.wages.w1", "0.4"),
    ("ScreeningConfig.n_total", 2.5), ("ScreeningConfig.n_total", True),
    ("ScreeningConfig.m_allowed", False), ("ScreeningConfig.theta_low", "0"),
    ("ScreeningConfig.theta_high", math.inf), ("ScreeningConfig.theta_low", -math.inf),
    ("ContractProblem.outcomes", math.inf), ("ContractProblem.efforts", math.nan),
    ("ContractProblem.density", math.nan), ("ContractProblem.effort_costs", math.nan),
    ("ContractProblem.reservation", math.nan), ("ContractProblem.reservation", math.inf),
    ("ContractProblem.wage_grid", math.inf),
    ("solve_two_period.mu", True), ("solve_two_period.mu", "0.5"),
    ("SimulationConfig.wages", True), ("SimulationConfig.regime", ["two_period"]),
    ("SimulationConfig.dist", "uniform"),
    ("build_market_tree.n_periods", 2.5), ("build_market_tree.n_periods", True),
    ("build_market_tree.n_periods", 17), ("submarket_count.n_periods", 2.5),
    ("solve_regime.n_periods", True), ("solve_regime.n_periods", 0),
    ("solve_three_period_multistart.n_starts", 2.5),
    ("solve_three_period_multistart.n_starts", True),
    ("solve_three_period_multistart.n_starts", 0),
    ("solve_three_period_multistart.seed", 2.5), ("solve_three_period_multistart.seed", -1),
    ("quantile.q", "0.5"), ("quantile.q", None), ("quantile.q", True),
    ("critical_assessment_periods.m", "3"), ("critical_assessment_periods.m", True),
    ("critical_assessment_periods.m", 2.5),
    ("distinguishable_interval.t", True), ("distinguishable_interval.t", 2.5),
    ("default_wage_grid.n_levels", 2.5), ("UtilitySpec.param", "0.5"),
    ("default_wage_grid.outcomes", math.nan), ("default_wage_grid.outcomes", math.inf),
    ("default_wage_grid.outcomes", "4"),
    ("UtilitySpec.param.linear", -3.0), ("UtilitySpec.param.sqrt", 0.7),
    ("UtilitySpec.param.log1p", math.nan),
])
def test_malformed_field_raises_value_error(field, value):
    with pytest.raises(ValueError):
        BUILDERS[field](value)


@pytest.mark.parametrize("solve", [lm.solve_three_period, lm.solve_three_period_multistart])
@pytest.mark.parametrize("mu", [True, "0.5"])
def test_three_period_solvers_reject_malformed_mu(solve, mu):
    with pytest.raises(ValueError, match="real number"):
        solve(lm.uniform(0, 1), mu)


# ---------------------------------------------------------------------
# Config parsing: every bad input is a ConfigError
# ---------------------------------------------------------------------

from labormkt import cli  # noqa: E402
from labormkt.errors import ConfigError  # noqa: E402
from labormkt.multiperiod import REGIMES  # noqa: E402

# Small integers only: wage_levels builds a grid of that many points.
NUMBER = st.sampled_from(["0", "1", "2", "3", "-1", "0.5", "0.1", "-0.5", "1.5", "nan",
                          "inf", "-inf", "1e308", "-1e308", "1e-300", "5e-324", "x", ""])
NUMBER_LIST = st.lists(NUMBER, min_size=1, max_size=4).map(",".join)
RANGE = st.lists(NUMBER, min_size=3, max_size=3).map(":".join)
PAIRS = st.lists(st.tuples(NUMBER, NUMBER).map(lambda p: f"({p[0]},{p[1]})"),
                 min_size=1, max_size=4).map(";".join)
DIST = st.tuples(st.sampled_from(["uniform", "discrete", "piecewise"]),
                 st.one_of(PAIRS, NUMBER_LIST)).map(lambda d: f"{d[0]}({d[1]})")
WORD = st.sampled_from(["csv", "json", "xml", "one_period", "two_period", "three_period",
                        "sqrt", "log1p", "linear", "crra(0.5)", "crra(nan)", "crra(inf)"])
ANY_VALUE = st.one_of(NUMBER, NUMBER_LIST, RANGE, PAIRS, DIST, WORD)
# Each key mostly gets a value of its own shape, sometimes any other.
VALUES = {"dist": DIST, "mu_grid": st.one_of(RANGE, NUMBER_LIST), "density": PAIRS,
          "outcomes": NUMBER_LIST, "efforts": NUMBER_LIST, "costs": NUMBER_LIST,
          "wage_grid": NUMBER_LIST, "agent_utility": WORD, "principal_utility": WORD,
          "format": WORD, "regime": WORD}
# Per subcommand, the keys its config reads, and which of them it requires.
READ = {name: {*required, *other, "out", "format"}
        for name, (_, required, other, _) in cli._SUBCOMMANDS.items()}
REQUIRED = {name: set(required) for name, (_, required, _, _) in cli._SUBCOMMANDS.items()}
KEYS = sorted(set().union(*READ.values())) + ["bogus"]


@st.composite
def config_texts(draw):
    subcommand = draw(st.sampled_from(list(READ)))
    keys = [k for k in KEYS if k in REQUIRED[subcommand] or draw(st.booleans())]
    lines = [f"{k} = {draw(st.one_of(VALUES.get(k, NUMBER), ANY_VALUE))}"
             for k in draw(st.permutations(keys))]
    return subcommand, "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(config_texts())
def test_parse_config_returns_a_config_or_raises_config_error(case):
    """Every config text either parses or raises ConfigError: no other
    exception, and no hang, whatever numbers the values hold."""
    subcommand, text = case
    try:
        assert isinstance(cli.parse_config(text, subcommand), cli.RunConfig)
    except ConfigError:
        pass


# Problem-size caps for running generated configs: the range checks admit
# far larger problems than a property test can afford to solve.
MAX_WAGE_LEVELS = 6
MAX_AGENTS = 10_000
MAX_TREE_PERIODS = 8


# Valid values only, so that generated configs reach the solvers: a config
# is refused only where two valid choices clash (the one-period regime in a
# sweep or simulation, mu at 0 or 1 with three periods, m_allowed above
# n_total).
OK_DIST = st.sampled_from(["uniform(0, 1)", "uniform(-0.5, 1)", "discrete((0.4,2))",
                           "discrete((0.2,1);(0.5,2);(0.9,1.5))",
                           "piecewise((0,0.2);(0.3,1.1);(1,0.1))"])
OK_WAGE = st.sampled_from(["0.2", "0.4", "0.5", "0.7"])
OK_VALUES = {
    "dist": OK_DIST, "mu": st.sampled_from(["0", "0.01", "0.25", "0.5", "0.9", "1"]),
    "regime": st.sampled_from(list(REGIMES)), "format": st.sampled_from(["csv", "json"]),
    "jobs": st.just("1"),
    "mu_grid": st.sampled_from(["0.5", "0.1, 0.9", "0.2:0.8:0.3"]),
    "n_periods": st.integers(1, MAX_TREE_PERIODS).map(str),
    "n_agents": st.integers(1, MAX_AGENTS).map(str), "seed": st.integers(0, 99).map(str),
    "n_total": st.integers(1, 12).map(str), "m_allowed": st.integers(0, 12).map(str),
    "theta_low": st.sampled_from(["0", "0.2"]), "theta_high": st.sampled_from(["1", "2"]),
    "agent_utility": st.sampled_from(["sqrt", "log1p", "crra(0.5)"]),
    "principal_utility": st.sampled_from(["linear", "sqrt"]),
    "reservation": st.sampled_from(["0", "0.5", "1"]),
    "wage_levels": st.integers(2, MAX_WAGE_LEVELS).map(str),
}
# Moral-hazard instances: outcomes, efforts, density rows and costs must agree.
OK_CONTRACTS = st.sampled_from([
    {"outcomes": "0, 4", "efforts": "0, 1", "density": "0.8, 0.2; 0.2, 0.8",
     "costs": "0, 0.5"},
    {"outcomes": "0, 1, 3", "efforts": "0, 1, 2",
     "density": "0.6, 0.3, 0.1; 0.3, 0.4, 0.3; 0.1, 0.3, 0.6", "costs": "0, 0.2, 0.5"},
])


@st.composite
def runnable_config_texts(draw):
    subcommand = draw(st.sampled_from(list(READ)))
    values = {k: draw(v) for k, v in OK_VALUES.items()} | draw(OK_CONTRACTS)
    # Simulation wages come all or none, and only the drawn regime's; the
    # default 21-level contract wage grid is too large to enumerate here,
    # so wage_levels is always set.
    required = REQUIRED[subcommand] | {"wage_levels"}
    if draw(st.booleans()):
        wages = REGIMES[values["regime"]][1]
        values |= {k: draw(OK_WAGE) for k in wages}
        required |= set(wages)
    allowed = sorted(READ[subcommand] & set(values) - {"out"})
    keys = [k for k in allowed if k in required or draw(st.booleans())]
    return subcommand, "".join(f"{k} = {values[k]}\n" for k in draw(st.permutations(keys)))


# config_texts() configs are nearly all refused at parsing; these run every
# subcommand to the end, and the 3-atom three-period solve exits 2.
RUNNABLE = [
    ("solve", "dist = uniform(0, 1)\nmu = 0.5\nregime = three_period\n"),
    ("solve", "dist = discrete((0.2,1);(0.5,2);(0.9,1.5))\nmu = 0.01\nregime = three_period\n"),
    ("sweep", "dist = uniform(0, 1)\nmu_grid = 0.1, 0.5\nregime = three_period\njobs = 2\n"),
    ("simulate", "dist = uniform(0, 1)\nmu = 0.5\nregime = two_period\nn_agents = 1000\n"),
    ("tree", "dist = uniform(0, 1)\nmu = 0.5\nn_periods = 4\n"),
    ("screening", "n_total = 10\nm_allowed = 3\n"),
    ("moral-hazard", "outcomes = 0, 4\nefforts = 0, 1\ndensity = 0.8, 0.2; 0.2, 0.8\n"
                     "costs = 0, 0.5\nreservation = 0.5\nwage_levels = 5\n"),
    ("welfare", "dist = piecewise((0,0.2);(0.3,1.1);(1,0.1))\nmu = 0.5\n"),
]


def _with_runnable_examples(test):
    for case in RUNNABLE:
        test = hypothesis.example(case)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@_with_runnable_examples
@given(st.one_of(config_texts(), runnable_config_texts()))
def test_cli_main_exit_code_is_0_1_or_2(case):
    """cli.main on any config text returns 0 (ran), 1 (bad input) or 2 (no
    convergence), and raises nothing.  Outputs go to a scratch directory and
    sweeps run in-process."""
    subcommand, text = case
    try:
        cfg = cli.parse_config(text, subcommand)
    except ConfigError:
        pass
    else:
        hypothesis.assume(cfg.n_agents <= MAX_AGENTS)
        hypothesis.assume(subcommand != "tree" or cfg.n_periods <= MAX_TREE_PERIODS)
        hypothesis.assume(cfg.problem is None or len(cfg.problem.wage_grid) <= MAX_WAGE_LEVELS)
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "run.cfg"
        config.write_text(text, encoding="utf-8")
        argv = [subcommand, "--config", str(config), "--out", str(Path(scratch) / "out")]
        if subcommand == "sweep":
            argv += ["--jobs", "1"]
        assert cli.main(argv) in (0, 1, 2)
