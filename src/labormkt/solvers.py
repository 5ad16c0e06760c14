"""Scan-and-bisect root finding shared by the equilibrium solvers.

The wage fixed points in this package are roots of well-behaved scalar
functions on known intervals.  A terminal market's clearing wage is unique
(w - m_extended(pool, w, mu) rises with slope at least 1 while negative),
but the three-period outer scan over the retention offer can find more
than one root, and the economically selected equilibrium is the largest.
So the strategy is always: evaluate on a grid, collect every sign change
plus every grid point that is already a root, bisect each bracket, and let
the caller pick from the sorted root list.

:func:`m_extended`, the package's only leaver-mean operator, is on a
float64 array the scalar operator element by element, bit for bit.  So
:func:`m_fixed_points` fills its grid in one array call and bisects each
bracket with :func:`bisect_root` and the scalar operator, which reads the
piece ends and moments the pool computed when it was built.
:func:`m_fixed_points_rows` scans every pool of a
:class:`~labormkt.pools.PoolRows` stack (the three-period outer scan): it
fills the grids in blocks of array calls and refines every bracket in one
:func:`bisect_roots`, the lockstep form of bisect_root with its midpoints,
stopping tests and fallback.  The lockstep evaluates one stack with a row
per bracket every round, ended brackets included, so the roots are bit for
bit those of the one-pool scans; where a loop of one-pool scans would
raise NoConvergenceError, it raises that loop's first error.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError
from .pools import (LaborPool, PoolRows, _check_mu, _real_threshold, _real_thresholds,
                    leaver_moments, leaver_moments_array, pool_inf, pool_mean)

__all__ = ["bisect_root", "bisect_roots", "scan_grid", "scan_roots",
           "m_extended", "m_fixed_points", "m_fixed_points_rows"]


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
    raise _bisection_error(best_x, best_g, tol)


def _bisection_error(best_x: float, best_g: float, tol: float) -> NoConvergenceError:
    return NoConvergenceError(
        f"bisection did not reach tol={tol} in {_MAX_ITER} steps",
        best={"x": best_x}, residuals={"g": best_g})


def bisect_roots(g, a, b, ga, gb, tol: float = _TOL):
    """:func:`bisect_root` on every bracket [a[i], b[i]] at once, in lockstep.

    g(x) evaluates every bracket's function at its own point, x[i] for
    bracket i.  Every bracket takes the midpoints, stopping tests and best-x
    fallback of :func:`bisect_root`; its state stays in full-length arrays
    under the mask `live`, and a bracket that has ended is evaluated again
    at the last point it was evaluated at (at first b[i]), so it raises no
    warning.  Returns the arrays (x, best_g, failed): x[i] is bisect_root's
    result, or where bisect_root raises NoConvergenceError, its best x, with
    best_g[i] the residual there and failed[i] set.  Raises ValueError, as
    bisect_root does, for a bracket with no sign change.
    """
    a, b, ga, gb = (np.array(v, dtype=np.float64) for v in (a, b, ga, gb))
    live = (ga != 0.0) & (gb != 0.0)
    if ((ga > 0.0) == (gb > 0.0))[live].any():
        raise ValueError("bisect_root needs a sign change")
    hit = ~live  # an endpoint root ends the bracket
    root = np.where(ga == 0.0, a, b)
    take_a = np.abs(ga) < np.abs(gb)
    lo, hi, glo, x, bx, bg = a, b, ga, b, np.where(take_a, a, b), np.where(take_a, ga, gb)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        live &= ~((mid <= lo) | (mid >= hi))  # interval at floating-point resolution
        if not live.any():
            break
        x = np.where(live, mid, x)
        gx = g(x)
        size = np.abs(gx)
        better = live & (size < np.abs(bg))
        bx, bg = np.where(better, x, bx), np.where(better, gx, bg)
        up = live & ((gx > 0.0) == (glo > 0.0))
        lo, glo, hi = np.where(up, x, lo), np.where(up, gx, glo), np.where(live & ~up, x, hi)
        ended = live & ((gx == 0.0) | (size <= tol))
        root, hit, live = np.where(ended, x, root), hit | ended, live & ~ended
    return np.where(hit, root, bx), bg, live


def scan_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced points from lo to hi, both included."""
    return lo + (hi - lo) * np.arange(n) / (n - 1)


def _grid_candidates(gs: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(small, bracket) masks of grid values gs along their last axis.

    A grid point with |g| <= tol is a root; a sign change from a point that
    is not to the next point that is not either is a bracket, marked at its
    right end.
    """
    small = np.abs(gs) <= tol
    pos = gs > 0.0
    bracket = np.zeros_like(small)
    bracket[..., 1:] = (~small[..., 1:] & (pos[..., 1:] != pos[..., :-1])
                        & (np.abs(gs[..., :-1]) > tol))
    return small, bracket


def _grid_roots(g, xs: list[float], gs, tol: float) -> list[float]:
    """Roots of g from its values gs on the grid xs, in grid order; each
    bracket is bisected with the scalar g."""
    gs = np.asarray(gs, dtype=np.float64)
    small, bracket = _grid_candidates(gs, tol)
    g_at = gs.tolist()
    return [xs[i] if small[i] else bisect_root(g, xs[i - 1], xs[i], g_at[i - 1], g_at[i], tol)
            for i in np.flatnonzero(small | bracket).tolist()]


def _distinct(roots: list[float], lo: float, hi: float) -> list[float]:
    """Sorted roots with near-identical ones dropped: each cluster within
    1e-9 of the interval scale keeps its first (smallest) root."""
    if len(roots) < 2:
        return list(roots)
    scale = max(abs(lo), abs(hi), 1.0)
    out: list[float] = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-9 * scale:
            out.append(r)
    return out


def scan_roots(g, lo: float, hi: float, *, points: int, g_grid, tol: float = _TOL) -> list[float]:
    """All roots of g on [lo, hi] found by a scan of `points` grid points
    plus bracket bisection.

    g_grid evaluates g on the whole float64 scan grid in one call and must
    equal g element by element; the scalar g bisects the brackets and
    serves a one-point interval.
    """
    if hi < lo:
        raise ValueError("empty scan interval")
    if hi == lo:
        return [lo] if abs(g(lo)) <= tol else []
    grid = scan_grid(lo, hi, points)
    return _distinct(_grid_roots(g, grid.tolist(), g_grid(grid), tol), lo, hi)


def m_extended(pool: LaborPool, w: float, mu: float) -> float:
    """Leaver-pool mean extended by its limits where the pool empties.

    Inside the support this is the plain leaver mean.  When nobody leaves
    (mu = 0 at or below the bottom of the pool) the mean degenerates to
    the pool infimum, which is its limit from the right; at or above the
    top of the support everyone leaves and the value is the pool mean.

    `w` may be a float64 array; the result is then the array of the scalar
    values, bit for bit.  `pool` may then also be a
    :class:`~labormkt.pools.PoolRows` stack.
    """
    if isinstance(w, np.ndarray):
        return _m_extended_array(pool, w, mu)
    if type(w) is not float:
        w = _real_threshold(w)
    if w >= pool.base.support_high:
        _check_mu(mu)  # inside the support the split checks it
        return pool_mean(pool)
    n, m1 = leaver_moments(pool, w, mu)
    if n <= 0.0:
        return pool_inf(pool)
    return m1 / n


def _m_extended_array(pool: LaborPool, w: np.ndarray, mu: float) -> np.ndarray:
    w = _real_thresholds(w)
    top = w >= pool.base.support_high
    # +inf is clamped with the rest of the top; NaN and -inf still raise.
    n, m1 = leaver_moments_array(pool, np.minimum(w, pool.base.support_high), mu)
    empty = n <= 0.0  # an empty leaver pool divides by 1 and takes pool_inf
    out = np.where(empty, pool_inf(pool), m1 / np.where(empty, 1.0, n)) if empty.any() else m1 / n
    if top.any():
        out = np.where(top, pool_mean(pool), out)
    return out


def m_fixed_points(pool: LaborPool, mu: float, *, points: int = 1024,
                   tol: float = _TOL) -> list[float]:
    """Sorted fixed points of w = m_extended(pool, w, mu), scanned on
    `points` grid points.

    The scan window is [min(pool_inf, 0), pool_mean]: the leaver mean never
    exceeds the pool mean (leavers over-weight the bottom of the pool), and
    the window is stretched down to zero so review wages below a positive
    support floor are covered.  A pool at a single point, whose mean may
    round below that point, clears at its mean.
    """
    mean, inf = pool_mean(pool), pool_inf(pool)
    if mean <= inf:
        return [mean]
    lo = min(inf, 0.0)
    g = lambda w: w - m_extended(pool, w, mu)
    return scan_roots(g, lo, mean, points=points, g_grid=g, tol=tol)


# Scan-grid elements filled per array call of m_fixed_points_rows: enough to
# amortise the call, small enough that the grids add little to peak memory.
_BLOCK_ELEMENTS = 4096


def m_fixed_points_rows(rows: PoolRows, mu: float, *, points: int,
                        tol: float = _TOL) -> list[list[float]]:
    """:func:`m_fixed_points` on every pool of a :class:`PoolRows` stack.

    Entry i is m_fixed_points(pool_i, mu, points=points, tol=tol).  Where a
    loop of those calls would raise NoConvergenceError, this raises the
    loop's first one: that of the first failed bracket in (row, grid) order.
    The grids are filled in blocks of about _BLOCK_ELEMENTS elements, every
    bracket is refined in one :func:`bisect_roots` and each row's roots are
    sorted and deduplicated as :func:`scan_roots` does, bit for bit.
    """
    mean = pool_mean(rows)[:, 0]
    inf = pool_inf(rows)[:, 0]
    lo = np.where(0.0 < inf, 0.0, inf)  # min(pool_inf, 0.0), as the scalar form
    scanned = np.flatnonzero(~(mean <= inf))
    block = max(1, _BLOCK_ELEMENTS // points)
    # Per block, every candidate in row-major (row, then grid) order: its
    # row, its grid point, whether it is a bracket (ending at that point),
    # and the bracket's left end and both residuals.
    found = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0, dtype=bool),
              np.zeros(0), np.zeros(0), np.zeros(0))]
    for start in range(0, len(scanned), block):
        idx = scanned[start:start + block]
        xs = scan_grid(lo[idx, None], mean[idx, None], points)
        gs = xs - m_extended(rows.take(idx), xs, mu)
        small, bracket = _grid_candidates(gs, tol)
        r, c = np.nonzero(small | bracket)
        left = np.maximum(c - 1, 0)
        found.append((idx[r], xs[r, c], bracket[r, c], xs[r, left], gs[r, left], gs[r, c]))
    row, x, is_bracket, a, ga, gb = (np.concatenate(v) for v in zip(*found))
    br = np.flatnonzero(is_bracket)
    best_g, failed = np.zeros(len(x)), np.zeros(len(x), dtype=bool)
    stack = rows.take(row[br])  # one row per bracket
    x[br], best_g[br], failed[br] = bisect_roots(
        lambda p: p - m_extended(stack, p[:, None], mu)[:, 0], a[br], x[br], ga[br], gb[br], tol)

    if failed.any():  # candidates are in (row, grid) order
        j = int(np.argmax(failed))
        raise _bisection_error(float(x[j]), float(best_g[j]), tol)

    out = [[m] for m in mean.tolist()]  # a pool at a single point
    for i in scanned.tolist():
        out[i] = []
    for i, root in zip(row.tolist(), x.tolist()):
        out[i].append(root)
    lo_l, mean_l = lo.tolist(), mean.tolist()
    return [_distinct(r, lo_l[i], mean_l[i]) for i, r in enumerate(out)]

