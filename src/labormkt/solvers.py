"""Scan-and-bisect root finding shared by the equilibrium solvers.

The wage fixed points in this package are roots of well-behaved scalar
functions on known intervals, but there can be more than one of them and
the economically selected equilibrium is the largest.  So the strategy is
always: evaluate on a grid, collect every sign change plus every grid
point that is already a root, bisect each bracket, and let the caller pick
from the sorted root list.

The grid is fixed before any value is known, so a caller that can evaluate
its function on a whole array passes that form to :func:`scan_roots`:
:func:`m_fixed_points` fills its grid with one call of the leaver-mean
operator :func:`m_extended` on an array, which is bit-for-bit equal to the
scalar operator element by element.  Brackets are detected on the array;
bisection and residuals use the scalar operator.

:func:`m_extended` is the package's only leaver-mean operator: every
solver, residual and CLI series evaluates M(w) through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .pools import LaborPool, leaver_moments, leaver_moments_array, pool_inf, pool_mean

__all__ = ["SolverOptions", "bisect_root", "scan_grid", "scan_roots",
           "m_extended", "m_fixed_points"]


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and budgets for the iterative solvers.

    tol is the absolute residual target, max_iter the bisection budget per
    bracket and scan_points the grid resolution used to hunt for brackets.
    """

    tol: float = 1e-10
    max_iter: int = 200
    scan_points: int = 1024

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.scan_points < 2:
            raise ValueError("scan_points must be at least 2")


DEFAULT_OPTIONS = SolverOptions()


def bisect_root(g, a: float, b: float, ga: float, gb: float,
                opts: SolverOptions = DEFAULT_OPTIONS) -> float:
    """Bisect a sign-change bracket [a, b] down to a root of g.

    Stops when the residual is within opts.tol or the interval has shrunk
    to floating-point resolution; raises NoConvergenceError if opts.max_iter
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
    for _ in range(opts.max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating-point resolution
            return best_x
        gmid = g(mid)
        if abs(gmid) < abs(best_g):
            best_x, best_g = mid, gmid
        if gmid == 0.0 or abs(gmid) <= opts.tol:
            return mid
        if (gmid > 0.0) == (glo > 0.0):
            lo, glo = mid, gmid
        else:
            hi = mid
    raise NoConvergenceError(
        f"bisection did not reach tol={opts.tol} in {opts.max_iter} steps",
        best={"x": best_x}, residuals={"g": best_g})


def scan_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced points from lo to hi, both included."""
    return lo + (hi - lo) * np.arange(n) / (n - 1)


def _grid_roots(g, xs: list[float], gs, opts: SolverOptions = DEFAULT_OPTIONS) -> list[float]:
    """Roots of g from its values gs on the grid xs, in grid order.

    A grid point with |g| <= tol is a root; a sign change between two
    points that are not is a bracket, bisected with the scalar g.
    """
    gs = np.asarray(gs, dtype=np.float64)
    small = np.abs(gs) <= opts.tol
    pos = gs > 0.0
    bracket = np.zeros_like(small)
    bracket[1:] = ~small[1:] & (pos[1:] != pos[:-1]) & (np.abs(gs[:-1]) > opts.tol)
    g_at = gs.tolist()
    return [xs[i] if small[i] else bisect_root(g, xs[i - 1], xs[i], g_at[i - 1], g_at[i], opts)
            for i in np.flatnonzero(small | bracket).tolist()]


def scan_roots(g, lo: float, hi: float, opts: SolverOptions = DEFAULT_OPTIONS,
               g_grid=None) -> list[float]:
    """All roots of g on [lo, hi] found by grid scan plus bracket bisection.

    g_grid, if given, evaluates g on the whole float64 scan grid in one
    call; it must equal g element by element.
    """
    if hi < lo:
        raise ValueError("empty scan interval")
    if hi == lo:
        return [lo] if abs(g(lo)) <= opts.tol else []
    grid = scan_grid(lo, hi, opts.scan_points)
    xs = grid.tolist()
    gs = g_grid(grid) if g_grid is not None else [g(x) for x in xs]
    roots = _grid_roots(g, xs, gs, opts)
    # Deduplicate near-identical roots, keeping sorted order.
    scale = max(abs(lo), abs(hi), 1.0)
    out: list[float] = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-9 * scale:
            out.append(r)
    return out


def m_extended(pool: LaborPool, w: float, mu: float) -> float:
    """Leaver-pool mean extended by its limits where the pool empties.

    Inside the support this is the plain leaver mean.  When nobody leaves
    (mu = 0 at or below the bottom of the pool) the mean degenerates to
    the pool infimum, which is its limit from the right; at or above the
    top of the support everyone leaves and the value is the pool mean.

    `w` may be a float64 array; the result is then the array of the scalar
    values, bit for bit.
    """
    if isinstance(w, np.ndarray):
        return _m_extended_array(pool, w, mu)
    if w >= pool.base.support_high:
        return pool_mean(pool)
    n, m1 = leaver_moments(pool, w, mu)
    if n <= 0.0:
        return pool_inf(pool)
    return m1 / n


def _m_extended_array(pool: LaborPool, w: np.ndarray, mu: float) -> np.ndarray:
    top = w >= pool.base.support_high
    # +inf is clamped with the rest of the top; NaN and -inf still raise.
    n, m1 = leaver_moments_array(pool, np.minimum(w, pool.base.support_high), mu)
    empty = n <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = m1 / n
    if empty.any():
        out = np.where(empty, pool_inf(pool), out)
    if top.any():
        out = np.where(top, pool_mean(pool), out)
    return out


def m_fixed_points(pool: LaborPool, mu: float,
                   opts: SolverOptions = DEFAULT_OPTIONS) -> list[float]:
    """Sorted fixed points of w = m_extended(pool, w, mu).

    The scan window is [min(pool_inf, 0), pool_mean]: the leaver mean never
    exceeds the pool mean (leavers over-weight the bottom of the pool), and
    the window is stretched down to zero so review wages below a positive
    support floor are covered.
    """
    mean = pool_mean(pool)
    lo = min(pool_inf(pool), 0.0)
    if mean <= lo:
        return [mean]  # degenerate pool concentrated at a single point
    g = lambda w: w - m_extended(pool, w, mu)
    return scan_roots(g, lo, mean, opts, g_grid=g)
