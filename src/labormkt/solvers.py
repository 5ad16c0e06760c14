"""Root finding shared by the equilibrium solvers.

A released market clears where the wage equals the mean productivity of
the workers released into it, the lemons fixed point w = m(w) with m the
leaver mean :func:`m_extended`.  Its residual g(w) = w - m_extended(pool,
w, mu) changes sign once: between atoms dm/dw = (1 - mu) f(w) (w - m) /
n(w), so g rises with slope at least 1 while it is negative and cannot
fall back to 0 once positive (its slope tends to 1 as it falls to 0); at
an atom the leaver mean jumps toward the atom, never past it, so g keeps
its sign.  Along any scan grid g is <= 0 and then > 0, and the clearing
wage is that one sign change.

:func:`m_fixed_points` finds it by halving grid indices: g at the two
grid ends, then at the middle index of the bracket until it is one grid
step wide (7 more evaluations for 129 points, 10 for 1,024).  The sign
pattern is monotone, so that is the bracket a scan of the whole grid
would bisect, and its ends are the grid points :func:`scan_grid` builds,
so :func:`bisect_root` returns that scan's root, bit for bit.  A bracket
end with |g| <= tol is itself the root, the lower end first; if the grid
ends do not straddle zero, the first end with |g| <= tol is the root, and
there is none otherwise.  A grid point where g comes within tol above
zero without crossing it (just above a heavy atom) is not a root.
:func:`m_fixed_points_rows` does the same in lockstep on every pool of a
:class:`~labormkt.pools.PoolRows` stack (the three-period outer scan),
computing each row's grid points on demand, and refines every bracket in
one :func:`bisect_roots`, the lockstep form of bisect_root with its
midpoints, stopping tests and fallback.  Where a loop of one-pool
searches would raise NoConvergenceError, it raises that loop's first
error.

The three-period outer scan over the retention offer is not known to
cross zero once, and the economically selected equilibrium is the largest
root.  So :func:`scan_roots` evaluates it on the whole grid, collects
every sign change plus every grid point that is already a root, bisects
each bracket, and lets the caller pick from the sorted root list.

:func:`m_extended`, the package's only leaver-mean operator, is on a
float64 array the scalar operator element by element, bit for bit; the
scalar form reads the piece ends and moments the pool computed when it
was built.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergenceError
from .pools import (LaborPool, PoolRows, _check_count, _check_mu, _is_real, _real_threshold,
                    _real_thresholds, leaver_moments, leaver_moments_array, pool_inf, pool_mean)

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


def _check_scan(points, tol) -> None:
    """Raise ValueError unless points is an integer >= 2 and tol a finite
    real number >= 0, neither a bool."""
    _check_count("points", points, 2)
    if not (_is_real(tol) and math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite real number >= 0, not {tol!r}")


def scan_roots(g, lo: float, hi: float, *, points: int, g_grid, tol: float = _TOL) -> list[float]:
    """All roots of g on [lo, hi] found by a scan of `points` grid points
    plus bracket bisection, sorted, each cluster within 1e-9 of the scale
    kept as its smallest root.

    g_grid evaluates g on the whole float64 scan grid in one call and must
    equal g element by element.  A grid point with |g| <= tol is a root; a
    sign change from a point that is not to the next point that is not
    either is a bracket, bisected with the scalar g, which also serves a
    one-point interval.  points must be an integer >= 2 and tol a finite
    real number >= 0.
    """
    _check_scan(points, tol)
    if hi < lo:
        raise ValueError("empty scan interval")
    if hi == lo:
        return [lo] if abs(g(lo)) <= tol else []
    grid = scan_grid(lo, hi, points)
    gs = np.asarray(g_grid(grid), dtype=np.float64)
    small = np.abs(gs) <= tol
    bracket = np.zeros_like(small)
    bracket[1:] = ~small[1:] & ((gs[1:] > 0.0) != (gs[:-1] > 0.0)) & (np.abs(gs[:-1]) > tol)
    xs, g_at = grid.tolist(), gs.tolist()
    roots = [xs[i] if small[i] else bisect_root(g, xs[i - 1], xs[i], g_at[i - 1], g_at[i], tol)
             for i in np.flatnonzero(small | bracket).tolist()]
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
    """The fixed point of w = m_extended(pool, w, mu), as a list of at
    most one wage: the sign change of g(w) = w - m_extended(pool, w, mu)
    on a scan grid of `points` points, found by halving grid indices and
    then bisected (module docstring).

    The scan window is [min(pool_inf, 0), pool_mean]: the leaver mean never
    exceeds the pool mean (leavers over-weight the bottom of the pool), and
    the window is stretched down to zero so review wages below a positive
    support floor are covered.  A bracket end with |g| <= tol is the root,
    the lower end first.  If the grid ends do not straddle zero, the first
    end with |g| <= tol is the root, and there is none otherwise.  A pool
    at a single point, whose mean may round below that point, clears at
    its mean.  points must be an integer >= 2 and tol a finite real number
    >= 0.
    """
    _check_scan(points, tol)
    mean, inf = pool_mean(pool), pool_inf(pool)
    if mean <= inf:
        return [mean]
    lo = min(inf, 0.0)
    g = lambda w: w - m_extended(pool, w, mu)
    x = lambda k: lo + (mean - lo) * k / (points - 1)  # scan_grid's point k
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


def m_fixed_points_rows(rows: PoolRows, mu: float, *, points: int,
                        tol: float = _TOL) -> list[list[float]]:
    """:func:`m_fixed_points` on every pool of a :class:`PoolRows` stack.

    Entry i is m_fixed_points(pool_i, mu, points=points, tol=tol), bit for
    bit.  Every row halves its grid indices in lockstep, with its grid
    points computed as it needs them, and every bracket left to bisect is
    refined in one :func:`bisect_roots`.  Where a loop of m_fixed_points
    calls would raise NoConvergenceError, this raises the loop's first one:
    that of the first row whose bisection fails.
    """
    _check_scan(points, tol)
    mean = pool_mean(rows)[:, 0]
    inf = pool_inf(rows)[:, 0]
    scanned = np.flatnonzero(~(mean <= inf))
    stack, hi, inf = rows.take(scanned), mean[scanned], inf[scanned]
    lo = np.where(0.0 < inf, 0.0, inf)  # min(pool_inf, 0.0), as the scalar form
    g = lambda s, w: w - m_extended(s, w[:, None], mu)[:, 0]  # g on every row of s
    x = lambda k: lo + (hi - lo) * k / (points - 1)  # scan_grid's point k of every row
    # Grid indices as float64, exact for up to 2**53 points: integer index
    # arrays page in NumPy's integer loops, 0.3 MB more peak RSS on perfbench
    # solve-closed-form.
    a, b = np.zeros(len(scanned)), np.full(len(scanned), float(points - 1))
    ga, gb = g(stack, x(a)), g(stack, x(b))
    straddle = (ga > 0.0) != (gb > 0.0)
    while (straddle & (b - a > 1)).any():
        # A row that does not straddle zero, or whose bracket is one step
        # wide, probes its lower end again and keeps its bracket.
        k = np.where(straddle, np.floor(0.5 * (a + b)), a)
        gk = g(stack, x(k))
        up = (gk > 0.0) == (ga > 0.0)
        a, ga = np.where(up, k, a), np.where(up, gk, ga)
        b, gb = np.where(up, b, k), np.where(up, gb, gk)
    xa, xb = x(a), x(b)
    small_a = np.abs(ga) <= tol
    found = small_a | (np.abs(gb) <= tol)
    root = np.where(small_a, xa, xb)  # the first end with |g| <= tol
    br = np.flatnonzero(straddle & ~found)
    sub = stack.take(br)
    root[br], best_g, failed = bisect_roots(
        lambda w: g(sub, w), xa[br], xb[br], ga[br], gb[br], tol)
    if failed.any():  # brackets are in row order
        j = int(np.argmax(failed))
        raise _bisection_error(float(root[br[j]]), float(best_g[j]), tol)

    out = [[m] for m in mean.tolist()]  # a pool at a single point
    for i, r, ok in zip(scanned.tolist(), root.tolist(), (found | straddle).tolist()):
        out[i] = [r] if ok else []
    return out
