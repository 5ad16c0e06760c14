"""Root finding shared by the equilibrium solvers.

Both solver levels look for the one sign change of a residual g on an
evenly spaced scan grid, with one function, :func:`grid_root`: g at the two
grid ends, then at the middle index of the bracket until it is one grid
step wide (7 more evaluations for 129 points, 8 for 257, 10 for 1,024),
then :func:`bisect_root` on that bracket.  Where g changes sign once along
the grid, that is the bracket a scan of the whole grid would bisect, and
its ends are the grid points :func:`scan_grid` builds, so the root is that
scan's, bit for bit.  A bracket end with |g| <= tol is itself the root,
the lower end first; if the grid ends do not straddle zero, the first end
with |g| <= tol is the root, and there is none otherwise.  A grid point
where g comes within tol of zero without crossing it is not a root.

A released market clears where the wage equals the mean productivity of
the workers released into it, the lemons fixed point w = m(w) with m the
leaver mean :func:`m_extended`, found by :func:`m_fixed_points`.  Its
residual g(w) = w - m_extended(pool, w, mu) changes sign once: between
atoms dm/dw = (1 - mu) f(w) (w - m) / n(w), so g rises with slope at least
1 while it is negative and cannot fall back to 0 once positive (its slope
tends to 1 as it falls to 0); at an atom the leaver mean jumps toward the
atom, never past it, so g keeps its sign.

The three-period outer scan over the retention offer (the period-2
hirers' profit) has no such proof.  That it crosses zero once, from above,
is observed (over 1,388 adversarial bases: gapped densities, 2 to 40 atoms
weighing 1e-8 to 1e8, one heavy atom, mu from 1e-3 to 0.999) and tested
against a scan of the whole grid on random bases in
``tests/test_properties.py``.  Where the grid had two sign changes,
:func:`grid_root` would still return a root that passes the solver's
residual gate, though not necessarily the largest.

:func:`m_extended`, the package's leaver-mean operator, takes one pool
and one scalar wage and reads the piece ends and moments the pool
computed when it was built.  It checks its inputs, then calls one
unchecked core, which the residual bound by :func:`m_fixed_points` also
calls: a search checks mu and reads the pool's mean and infimum once, not
at every evaluation.  The multi-start's lockstep uses its array twin.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidThresholdError, NoConvergenceError
from .pools import (LaborPool, _check_count, _check_mu, _is_real, _real_threshold,
                    _split_moments, _split_moments_scalar, pool_inf, pool_mean)

__all__ = ["bisect_root", "grid_root", "scan_grid", "m_extended", "m_fixed_points"]


# The residual target of the scans and bisections, unless a caller passes
# its own tol (the three-period terminal markets use 1e-12).
_TOL = 1e-10
# Halvings per bracket before a bisection gives up; read at call time.
_MAX_ITER = 200


def bisect_root(g, a: float, b: float, ga: float, gb: float, tol: float = _TOL) -> float:
    """Bisect a sign-change bracket [a, b] down to a root of g.

    Stops when the residual is within tol or the interval has shrunk
    to floating-point resolution; raises NoConvergenceError if _MAX_ITER
    halvings were not enough for either.
    """
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if (ga > 0.0) == (gb > 0.0):
        raise ValueError("bisect_root needs a sign change")
    lo, hi, glo = a, b, ga
    best_x, best_g = (a, ga) if abs(ga) < abs(gb) else (b, gb)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating-point resolution
            return best_x
        gmid = g(mid)
        if abs(gmid) < abs(best_g):
            best_x, best_g = mid, gmid
        if gmid == 0.0 or abs(gmid) <= tol:
            return mid
        if (gmid > 0.0) == (glo > 0.0):
            lo, glo = mid, gmid
        else:
            hi = mid
    raise NoConvergenceError(f"bisection did not reach tol={tol} in {_MAX_ITER} steps",
                             best={"x": best_x}, residuals={"g": best_g})


def scan_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """`points` evenly spaced points from lo to hi, both included; points
    must be an integer >= 2."""
    _check_count("points", points, 2)
    return lo + (hi - lo) * np.arange(points) / (points - 1)


def _check_scan(points, tol) -> None:
    """Raise ValueError unless points is an integer >= 2 and tol a finite
    real number >= 0, neither a bool."""
    _check_count("points", points, 2)
    if not (_is_real(tol) and math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite real number >= 0, not {tol!r}")


def grid_root(g, lo: float, hi: float, *, points: int, tol: float = _TOL) -> list[float]:
    """The root of g at its sign change on the scan grid of `points` points
    from lo to hi, as a list of at most one: found by halving grid indices
    and then bisected (module docstring).

    Grid point k is scan_grid's, lo + (hi - lo) * k / (points - 1),
    computed as the search needs it.  points must be an integer >= 2 and
    tol a finite real number >= 0.
    """
    _check_scan(points, tol)
    if hi < lo:
        raise ValueError("empty scan interval")
    x = lambda k: lo + (hi - lo) * k / (points - 1)  # scan_grid's point k
    a, b = 0, points - 1
    ga, gb = g(x(a)), g(x(b))
    straddle = (ga > 0.0) != (gb > 0.0)
    while straddle and b - a > 1:
        k = (a + b) // 2
        gk = g(x(k))
        if (gk > 0.0) == (ga > 0.0):
            a, ga = k, gk
        else:
            b, gb = k, gk
    ends = [x(k) for k, gk in ((a, ga), (b, gb)) if abs(gk) <= tol]
    if ends or not straddle:
        return ends[:1]
    return [bisect_root(g, x(a), x(b), ga, gb, tol)]


def m_extended(pool: LaborPool, w: float, mu: float) -> float:
    """Leaver-pool mean extended by its limits where the pool empties.

    Inside the support this is the plain leaver mean.  When nobody leaves
    (mu = 0 at or below the bottom of the pool) the mean degenerates to
    the pool infimum, which is its limit from the right; at or above the
    top of the support everyone leaves and the value is the pool mean.

    `w` is a real number, not a bool; anything else, a NumPy array
    included, raises InvalidThresholdError.
    """
    if type(w) is not float:
        w = _real_threshold(w)
    return _leaver_mean(pool, zip(pool.pieces, pool.ends), w, _check_mu(mu))


def _leaver_mean(pool: LaborPool, rows, w: float, mu: float, mean=None, inf=None) -> float:
    """:func:`m_extended` at a float w, with mu checked and `rows` the
    pool's pieces beside their ends: its unchecked core, which the
    fixed-point residual calls with the pool's mean and infimum in hand.
    w is checked and clamped as :func:`~labormkt.pools.leaver_moments`
    checks and clamps it."""
    base = pool.base
    if w >= base.support_high:
        return pool_mean(pool) if mean is None else mean
    if not math.isfinite(w):
        raise InvalidThresholdError(f"threshold {w!r} is not a usable real number")
    low = base.support_low  # max(w, low), without max()'s costlier call
    n, m1 = _split_moments_scalar(base, rows, low if low > w else w, 1.0, mu)
    if n <= 0.0:
        return pool_inf(pool) if inf is None else inf
    return m1 / n


def _leaver_mean_rows(base, pieces, ends, moments, inf, t, mu: float) -> np.ndarray:
    """:func:`_leaver_mean`, limits included, on each row of a stack of pools
    (the (R, 1) columns of :func:`~labormkt.multiperiod._split_stack`, or
    one pool's values) at its float thresholds t, unchecked, bit for bit."""
    top = base.support_high
    t_in = np.minimum(np.maximum(t, base.support_low), top)
    n_out, m1_out = _split_moments(base, pieces, ends, t_in, 1.0, mu)
    empty = n_out <= 0.0  # an empty leaver pool divides by 1 and takes the infimum
    out = np.where(empty, inf, m1_out / np.where(empty, 1.0, n_out))
    return np.where(t >= top, moments[1] / moments[0], out)


def m_fixed_points(pool: LaborPool, mu: float, *, points: int = 1024,
                   tol: float = _TOL) -> list[float]:
    """The fixed point of w = m_extended(pool, w, mu), as a list of at
    most one wage: the :func:`grid_root` of g(w) = w - m_extended(pool, w,
    mu) on a scan grid of `points` points.

    g is bound once per search: mu is checked, the pool's mean and
    infimum are read and its pieces paired with their ends before the
    first evaluation, and each evaluation calls m_extended's core, so it
    is bit for bit ``w - m_extended(pool, w, mu)``.

    The scan window is [min(pool_inf, 0), pool_mean]: the leaver mean never
    exceeds the pool mean (leavers over-weight the bottom of the pool), and
    the window is stretched down to zero so review wages below a positive
    support floor are covered.  A pool at a single point, whose mean may
    round below that point, clears at its mean.  points must be an integer
    >= 2 and tol a finite real number >= 0.
    """
    _check_scan(points, tol)
    mean, inf = pool_mean(pool), pool_inf(pool)
    if mean <= inf:
        return [mean]
    mu, rows = _check_mu(mu), list(zip(pool.pieces, pool.ends))
    g = lambda w: w - _leaver_mean(pool, rows, w if type(w) is float else _real_threshold(w),
                                   mu, mean, inf)
    return grid_root(g, min(inf, 0.0), mean, points=points, tol=tol)
