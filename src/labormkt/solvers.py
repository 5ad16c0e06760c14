"""Scan-and-bisect root finding shared by the equilibrium solvers.

The wage fixed points in this package are roots of well-behaved scalar
functions on known intervals, but there can be more than one of them and
the economically selected equilibrium is the largest.  So the strategy is
always: evaluate on a grid, collect every sign change plus every grid
point that is already a root, bisect each bracket, and let the caller pick
from the sorted root list.

The grid is fixed before any value is known, so every caller of
:func:`scan_roots` passes both forms of its function, one that evaluates the
whole grid array in one call and the scalar one:
:func:`m_fixed_points` fills its grid with one call of the leaver-mean
operator :func:`m_extended` on an array, which is bit-for-bit equal to the
scalar operator element by element.  Brackets are detected on the array and
bisected one by one by :func:`bisect_root` with the scalar operator.

Many scans at once: :func:`m_fixed_points_rows` runs m_fixed_points on
every pool of a :class:`~labormkt.pools.PoolRows` stack.  It fills all the
grids in blocks of array calls, detects every row's brackets together and
refines them all in one :func:`bisect_roots`, the lockstep form of
bisect_root with the same midpoints, stopping tests and fallback.  The roots
are bit-for-bit those of the one-pool scans; the three-period outer scan
uses it for all its grid points at once.

:func:`m_extended` is the package's only leaver-mean operator: every
solver, residual and CLI series evaluates M(w) through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .pools import (LaborPool, PoolRows, _is_real, leaver_moments, leaver_moments_array,
                    pool_inf, pool_mean)

__all__ = ["SolverOptions", "bisect_root", "bisect_roots", "scan_grid", "scan_roots",
           "m_extended", "m_fixed_points", "m_fixed_points_rows"]


# The loosest residual target accepted: above it a solve can exit with a
# visibly wrong answer (tol = 1e6 returns w1 = 0.5 on uniform(0, 1)).
MAX_TOL = 1e-6
# Halvings per bracket before a bisection gives up; read at call time.
_MAX_ITER = 200


@dataclass(frozen=True)
class SolverOptions:
    """The residual target of the iterative solvers: a real tol in (0, MAX_TOL].

    Scan sizes are arguments of the scans and the bisection budget is
    _MAX_ITER; neither is a setting.
    """

    tol: float = 1e-10

    def __post_init__(self):
        if not _is_real(self.tol) or not 0.0 < self.tol <= MAX_TOL:
            raise ValueError(f"tol must be positive and at most {MAX_TOL!r}, not {self.tol!r}")


DEFAULT_OPTIONS = SolverOptions()


def bisect_root(g, a: float, b: float, ga: float, gb: float,
                opts: SolverOptions = DEFAULT_OPTIONS) -> float:
    """Bisect a sign-change bracket [a, b] down to a root of g.

    Stops when the residual is within opts.tol or the interval has shrunk
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
        if gmid == 0.0 or abs(gmid) <= opts.tol:
            return mid
        if (gmid > 0.0) == (glo > 0.0):
            lo, glo = mid, gmid
        else:
            hi = mid
    raise _bisection_error(best_x, best_g, opts)


def _bisection_error(best_x: float, best_g: float, opts: SolverOptions) -> NoConvergenceError:
    return NoConvergenceError(
        f"bisection did not reach tol={opts.tol} in {_MAX_ITER} steps",
        best={"x": best_x}, residuals={"g": best_g})


def bisect_roots(g, a, b, ga, gb, opts: SolverOptions = DEFAULT_OPTIONS):
    """:func:`bisect_root` on every bracket [a[i], b[i]] at once, in lockstep.

    g(x, idx) evaluates the functions of the brackets `idx` (an index
    array) at the points x.  Every bracket takes the midpoints, stopping
    tests and best-x fallback of :func:`bisect_root`.  Returns the arrays
    (x, best_g, failed): x[i] is bisect_root's result, or where bisect_root
    raises NoConvergenceError, its best x, with best_g[i] the residual there
    and failed[i] set.  Raises ValueError, as bisect_root does, for a
    bracket with no sign change.
    """
    a, b, ga, gb = (np.array(v, dtype=np.float64) for v in (a, b, ga, gb))
    out = np.where(ga == 0.0, a, b)  # an endpoint root ends the bracket
    todo = (ga != 0.0) & (gb != 0.0)
    if ((ga > 0.0) == (gb > 0.0))[todo].any():
        raise ValueError("bisect_root needs a sign change")
    lo, hi, glo = a, b, ga
    take_a = np.abs(ga) < np.abs(gb)
    best_x, best_g = np.where(take_a, a, b), np.where(take_a, ga, gb)
    active = np.flatnonzero(todo)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo[active] + hi[active])
        at_resolution = (mid <= lo[active]) | (mid >= hi[active])
        done = active[at_resolution]
        out[done] = best_x[done]
        active, mid = active[~at_resolution], mid[~at_resolution]
        if not active.size:
            break
        gmid = g(mid, active)
        better = np.abs(gmid) < np.abs(best_g[active])
        best_x[active[better]] = mid[better]
        best_g[active[better]] = gmid[better]
        hit = (gmid == 0.0) | (np.abs(gmid) <= opts.tol)
        out[active[hit]] = mid[hit]
        active, mid, gmid = active[~hit], mid[~hit], gmid[~hit]
        same = (gmid > 0.0) == (glo[active] > 0.0)
        lo[active[same]] = mid[same]
        glo[active[same]] = gmid[same]
        hi[active[~same]] = mid[~same]
    failed = np.zeros(out.shape, dtype=bool)
    failed[active] = True
    out[active] = best_x[active]
    return out, best_g, failed


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


def _grid_roots(g, xs: list[float], gs, opts: SolverOptions = DEFAULT_OPTIONS) -> list[float]:
    """Roots of g from its values gs on the grid xs, in grid order; each
    bracket is bisected with the scalar g."""
    gs = np.asarray(gs, dtype=np.float64)
    small, bracket = _grid_candidates(gs, opts.tol)
    g_at = gs.tolist()
    return [xs[i] if small[i] else bisect_root(g, xs[i - 1], xs[i], g_at[i - 1], g_at[i], opts)
            for i in np.flatnonzero(small | bracket).tolist()]


def _distinct(roots: list[float], lo: float, hi: float) -> list[float]:
    """Sorted roots with near-identical ones dropped: each cluster within
    1e-9 of the interval scale keeps its first (smallest) root."""
    scale = max(abs(lo), abs(hi), 1.0)
    out: list[float] = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-9 * scale:
            out.append(r)
    return out


def scan_roots(g, lo: float, hi: float, opts: SolverOptions = DEFAULT_OPTIONS, *,
               points: int, g_grid) -> list[float]:
    """All roots of g on [lo, hi] found by a scan of `points` grid points
    plus bracket bisection.

    g_grid evaluates g on the whole float64 scan grid in one call and must
    equal g element by element; the scalar g bisects the brackets and
    serves a one-point interval.
    """
    if hi < lo:
        raise ValueError("empty scan interval")
    if hi == lo:
        return [lo] if abs(g(lo)) <= opts.tol else []
    grid = scan_grid(lo, hi, points)
    return _distinct(_grid_roots(g, grid.tolist(), g_grid(grid), opts), lo, hi)


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


def m_fixed_points(pool: LaborPool, mu: float, opts: SolverOptions = DEFAULT_OPTIONS, *,
                   points: int = 1024) -> list[float]:
    """Sorted fixed points of w = m_extended(pool, w, mu), scanned on
    `points` grid points.

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
    return scan_roots(g, lo, mean, opts, points=points, g_grid=g)


# Scan-grid elements filled per array call of m_fixed_points_rows: enough to
# amortise the call, small enough that the grids add little to peak memory.
_BLOCK_ELEMENTS = 4096


def m_fixed_points_rows(rows: PoolRows, mu: float, opts: SolverOptions = DEFAULT_OPTIONS, *,
                        points: int) -> list:
    """:func:`m_fixed_points` on every pool of a :class:`PoolRows` stack.

    Entry i is m_fixed_points(pool_i, mu, opts, points=points), or the
    NoConvergenceError that call raises, so a caller that walks the rows in
    order can raise what a loop of m_fixed_points calls would raise first.  The scan grids
    are filled by :func:`m_extended` in blocks of about _BLOCK_ELEMENTS
    elements, the brackets of every row are refined together by one
    :func:`bisect_roots`, and each row's roots are sorted and deduplicated
    as :func:`scan_roots` does.  The roots equal the per-pool ones bit for
    bit.
    """
    mean = pool_mean(rows)[:, 0]
    inf = pool_inf(rows)[:, 0]
    lo = np.where(0.0 < inf, 0.0, inf)  # min(pool_inf, 0.0), as the scalar form
    scanned = np.flatnonzero(~(mean <= lo))
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
        small, bracket = _grid_candidates(gs, opts.tol)
        r, c = np.nonzero(small | bracket)
        left = np.maximum(c - 1, 0)
        found.append((idx[r], xs[r, c], bracket[r, c], xs[r, left], gs[r, left], gs[r, c]))
    row, x, is_bracket, a, ga, gb = (np.concatenate(v) for v in zip(*found))
    br = np.flatnonzero(is_bracket)
    brows = row[br]
    g = lambda w, i: w - m_extended(rows.take(brows[i]), w[:, None], mu)[:, 0]
    best_g, failed = np.zeros(len(x)), np.zeros(len(x), dtype=bool)
    x[br], best_g[br], failed[br] = bisect_roots(g, a[br], x[br], ga[br], gb[br], opts)

    out: list = [[m] for m in mean.tolist()]  # a pool at a single point
    for i in scanned.tolist():
        out[i] = []
    for i, root, resid, fail in zip(row.tolist(), x.tolist(), best_g.tolist(),
                                    failed.tolist()):
        if isinstance(out[i], list):  # the scalar scan stops at a failed bracket
            out[i] = _bisection_error(root, resid, opts) if fail else out[i] + [root]
    lo_l, mean_l = lo.tolist(), mean.tolist()
    for i in scanned.tolist():
        if isinstance(out[i], list):
            out[i] = _distinct(out[i], lo_l[i], mean_l[i])
    return out
