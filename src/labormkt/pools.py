"""Productivity distributions and reweighted labor pools.

Every sub-market in the hiring/firing models is the entry distribution
N(theta) scaled by a piecewise-constant weight function: firing at a
threshold keeps the part above it, random quitting moves a slice of mass
mu across, and repeated rounds multiply those factors together.  A
:class:`LaborPool` stores exactly that — a base distribution plus an
ordered list of (interval, multiplier) pieces partitioning the support.

Conventions
-----------
* A split at threshold ``t`` sends everything strictly below ``t`` out at
  full weight; mass at or above ``t`` splits ``mu`` (leaves) versus
  ``1 - mu`` (stays).  For continuous bases the boundary carries no mass;
  for discrete bases an atom sitting exactly at ``t`` follows the
  at-or-above rule.
* Thresholds outside the support are clamped to the nearest endpoint.
* Every moment comes from one primitive,
  :meth:`ProductivityDistribution.moments_below`: the (mass, first moment)
  strictly below x.  Uniform bases use the closed form.  Piecewise-linear
  and discrete bases read cumulative tables built once per distribution:
  prefix sums of the exact per-segment integrals plus one partial segment,
  or prefix sums over the sorted atoms.  A pool's moments are weighted
  differences of the primitive at its piece boundaries, and the moments of
  a split (:func:`leaver_moments`, :func:`stayer_moments`) are taken the
  same way without building the split pools.
* :meth:`ProductivityDistribution.moments_below_array` and
  :func:`leaver_moments_array` are the same kernels over a float64 array
  of thresholds, for scan grids.  They use the same formulas in the same
  order of float operations, so each element is bit-for-bit equal to the
  scalar result.
* The leaver-mean operator built on these moments is
  :func:`labormkt.solvers.m_extended`, the only one in the package.

All values are immutable; operations return new pools.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyPoolError, InvalidThresholdError

__all__ = [
    "ProductivityDistribution",
    "LaborPool",
    "uniform",
    "discrete",
    "piecewise_linear",
    "pool_mass",
    "pool_mean",
    "truncated_mean",
    "firing_split",
    "leaver_moments",
    "leaver_moments_array",
    "stayer_moments",
    "pool_inf",
    "pool_sup",
    "quantile",
    "sample_productivities",
]


# =====================================================================
# Base distributions
# =====================================================================

@dataclass(frozen=True)
class ProductivityDistribution:
    """Base worker-productivity measure N(theta) on [support_low, support_high].

    kind is one of ``"uniform"`` (constant density `level`), ``"discrete"``
    (point masses `atoms` as (theta, count) pairs) or ``"piecewise"``
    (density linear between the (theta, density) `nodes`).  The measure is
    a head count, not a probability: total mass may be any positive real.
    """

    kind: str
    support_low: float
    support_high: float
    level: float = 1.0
    atoms: tuple[tuple[float, float], ...] = ()
    nodes: tuple[tuple[float, float], ...] = ()
    # Cumulative tables for the discrete and piecewise kinds: the sorted
    # atoms or breakpoints, and the (mass, first moment) strictly below each.
    _xs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _cum_n: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _cum_m1: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _total: tuple[float, float] = field(init=False, repr=False, compare=False)
    # The same tables as float64 arrays, plus the node densities, for
    # moments_below_array.
    _arrays: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("uniform", "discrete", "piecewise"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind != "discrete" and not self.support_low < self.support_high:
            raise ValueError("support must have positive width")
        xs, cum_n, cum_m1 = [], [0.0], [0.0]
        if self.kind == "discrete":
            for t, c in self.atoms:
                xs.append(t)
                cum_n.append(cum_n[-1] + c)
                cum_m1.append(cum_m1[-1] + t * c)
        elif self.kind == "piecewise":
            xs = [t for t, _ in self.nodes]
            for (x0, d0), (x1, d1) in zip(self.nodes, self.nodes[1:]):
                h = x1 - x0
                cum_n.append(cum_n[-1] + h * (d0 + d1) / 2.0)
                cum_m1.append(cum_m1[-1] + h / 6.0 * (x0 * (2.0 * d0 + d1)
                                                      + x1 * (d0 + 2.0 * d1)))
        object.__setattr__(self, "_xs", tuple(xs))
        object.__setattr__(self, "_cum_n", tuple(cum_n))
        object.__setattr__(self, "_cum_m1", tuple(cum_m1))
        object.__setattr__(self, "_total", self._moments_at_or_below(self.support_high))
        # Partial sums are monotone in mass, so an overflow anywhere in the
        # tables shows up in the totals.
        if not all(map(math.isfinite, self._total)):
            raise ValueError(f"total mass and first moment must be finite (got {self._total})")
        object.__setattr__(self, "_arrays", tuple(
            np.array(v, dtype=np.float64)
            for v in (xs, cum_n, cum_m1, [d for _, d in self.nodes])))

    # -- the moment primitive -------------------------------------------

    def moments_below(self, x: float) -> tuple[float, float]:
        """(mass, first moment) of N(theta) strictly below x."""
        if self.kind == "discrete":
            k = bisect_left(self._xs, x)
            return self._cum_n[k], self._cum_m1[k]
        lo = self.support_low
        if x <= lo:
            return 0.0, 0.0
        if self.kind == "uniform":
            x = min(x, self.support_high)
            h = x - lo
            return self.level * h, self.level * h * (x + lo) / 2.0
        xs = self._xs
        if x >= xs[-1]:
            return self._cum_n[-1], self._cum_m1[-1]
        k = bisect_right(xs, x) - 1  # xs[k] <= x < xs[k + 1]
        (x0, d0), (x1, d1) = self.nodes[k], self.nodes[k + 1]
        dx = d0 + (d1 - d0) * (x - x0) / (x1 - x0)
        h = x - x0
        return (self._cum_n[k] + h * (d0 + dx) / 2.0,
                self._cum_m1[k] + h / 6.0 * (x0 * (2.0 * d0 + dx) + x * (d0 + 2.0 * dx)))

    def moments_below_array(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`moments_below` at every element of a float64 array.

        The same formulas in the same order of float operations, so each
        element is bit-for-bit equal to the scalar result.
        """
        x = np.asarray(x, dtype=np.float64)
        xs, cum_n, cum_m1, ds = self._arrays
        if self.kind == "discrete":
            k = np.searchsorted(xs, x, side="left")  # bisect_left
            return cum_n[k], cum_m1[k]
        lo, hi = self.support_low, self.support_high
        # Inside (lo, hi) the clipped value is x itself; outside, the
        # partial-segment result is replaced below.
        xc = np.clip(x, lo, hi)
        if self.kind == "uniform":
            h = xc - lo
            n = self.level * h
            m1 = n * (xc + lo) / 2.0
        else:
            k = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, len(xs) - 2)
            x0, x1, d0, d1 = xs[k], xs[k + 1], ds[k], ds[k + 1]
            dx = d0 + (d1 - d0) * (xc - x0) / (x1 - x0)
            h = xc - x0
            n = cum_n[k] + h * (d0 + dx) / 2.0
            m1 = cum_m1[k] + h / 6.0 * (x0 * (2.0 * d0 + dx) + xc * (d0 + 2.0 * dx))
            top = x >= hi
            n = np.where(top, cum_n[-1], n)
            m1 = np.where(top, cum_m1[-1], m1)
        bottom = x <= lo
        return np.where(bottom, 0.0, n), np.where(bottom, 0.0, m1)

    def _moments_at_or_below(self, x: float) -> tuple[float, float]:
        # Only a discrete atom sitting at x tells this apart from moments_below.
        if self.kind == "discrete":
            x = math.nextafter(x, math.inf)
        return self.moments_below(x)

    # -- density integrals over [a, b] for the continuous kinds ---------

    def mass_between(self, a: float, b: float) -> float:
        """Integral of N(theta) over [a, b] (continuous kinds only)."""
        a = max(a, self.support_low)
        b = min(b, self.support_high)
        if b <= a:
            return 0.0
        return self.moments_below(b)[0] - self.moments_below(a)[0]

    def first_moment_between(self, a: float, b: float) -> float:
        """Integral of theta * N(theta) over [a, b] (continuous kinds only)."""
        a = max(a, self.support_low)
        b = min(b, self.support_high)
        if b <= a:
            return 0.0
        return self.moments_below(b)[1] - self.moments_below(a)[1]

    # -- whole-measure summaries ----------------------------------------

    def total_mass(self) -> float:
        return self._total[0]

    def mean(self) -> float:
        n, m1 = self._total
        if n <= 0.0:
            raise EmptyPoolError("distribution carries no mass")
        return m1 / n

    def cdf(self, x: float) -> float:
        """Mass at or below x."""
        return self._moments_at_or_below(x)[0]


def _require_finite(values, what: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite real numbers")


def uniform(low: float, high: float, level: float = 1.0) -> ProductivityDistribution:
    """Uniform base: constant density `level` on [low, high]."""
    low, high, level = float(low), float(high), float(level)
    _require_finite((low, high, level), "uniform support bounds and density level")
    if not low < high:
        raise ValueError("uniform support needs low < high")
    if not level > 0.0:
        raise ValueError("density level must be positive")
    return ProductivityDistribution("uniform", low, high, level=level)


def discrete(atoms) -> ProductivityDistribution:
    """Discrete base from (theta, count) pairs; duplicate thetas are merged."""
    merged: dict[float, float] = {}
    for theta, count in atoms:
        theta, count = float(theta), float(count)
        _require_finite((theta, count), "atom thetas and counts")
        if count < 0.0:
            raise ValueError("atom counts must be nonnegative")
        merged[theta] = merged.get(theta, 0.0) + count
    cleaned = tuple(sorted((t, c) for t, c in merged.items() if c > 0.0))
    if not cleaned:
        raise ValueError("discrete distribution needs at least one atom with positive count")
    return ProductivityDistribution(
        "discrete", cleaned[0][0], cleaned[-1][0], atoms=cleaned)


def piecewise_linear(nodes) -> ProductivityDistribution:
    """Piecewise-linear density through (theta, density) breakpoints."""
    pts = tuple((float(t), float(d)) for t, d in nodes)
    if len(pts) < 2:
        raise ValueError("piecewise density needs at least two breakpoints")
    _require_finite([v for pt in pts for v in pt], "breakpoints and densities")
    for (t0, _), (t1, _) in zip(pts, pts[1:]):
        if not t1 > t0:
            raise ValueError("breakpoints must be strictly increasing")
    if any(d < 0.0 for _, d in pts):
        raise ValueError("densities must be nonnegative")
    dist = ProductivityDistribution("piecewise", pts[0][0], pts[-1][0], nodes=pts)
    if dist.total_mass() <= 0.0:
        raise ValueError("piecewise density carries no mass")
    return dist


# =====================================================================
# Pools: base distribution x piecewise-constant weights
# =====================================================================

@dataclass(frozen=True)
class LaborPool:
    """A base distribution rescaled by interval multipliers.

    `pieces` is an ordered tuple of (lo, hi, multiplier) covering the base
    support contiguously.  Intervals are half-open [lo, hi) except the last,
    which is closed so the top of the support belongs to it.
    """

    base: ProductivityDistribution
    pieces: tuple[tuple[float, float, float], ...] = field(default=())

    def __post_init__(self):
        if not self.pieces:
            object.__setattr__(self, "pieces",
                               ((self.base.support_low, self.base.support_high, 1.0),))
        ps = self.pieces
        if ps[0][0] != self.base.support_low or ps[-1][1] != self.base.support_high:
            raise ValueError("pieces must cover the full support")
        for (_, h0, _), (l1, _, _) in zip(ps, ps[1:]):
            if h0 != l1:
                raise ValueError("pieces must be contiguous")
        for lo, hi, w in ps:
            if hi < lo:
                raise ValueError("piece with negative width")
            if not (w >= 0.0):
                raise ValueError("multipliers must be nonnegative")

    @staticmethod
    def entry(dist: ProductivityDistribution) -> "LaborPool":
        """The whole distribution at weight one (the hiring pool at entry)."""
        return LaborPool(dist)


def _rescale_pieces(pieces, cut: float, low_factor: float, high_factor: float) -> list:
    """`pieces` with weights scaled by `low_factor` strictly below `cut`,
    `high_factor` at or above; a piece straddling `cut` is cut in two."""
    out = []
    for lo, hi, w in pieces:
        if lo >= cut:
            out.append((lo, hi, w * high_factor))
        elif hi <= cut:
            out.append((lo, hi, w * low_factor))
        else:
            out.append((lo, cut, w * low_factor))
            out.append((cut, hi, w * high_factor))
    return out


def _piece_ends(base: ProductivityDistribution, pieces) -> list[tuple[float, float]]:
    """Base (mass, first moment) up to the right end of each piece.

    Pieces are [lo, hi) except the last, which is closed on the right and
    ends at the support top, so it ends with the whole base (a discrete atom
    at the top of the support included).
    """
    below = base.moments_below
    ends = [below(hi) for _, hi, _ in pieces[:-1]]
    ends.append(base._total)
    return ends


def _piece_moments(base: ProductivityDistribution, pieces) -> tuple[float, float]:
    """(mass, first moment) of `base` weighted by contiguous `pieces`."""
    n = m1 = n_lo = m1_lo = 0.0  # the first piece starts at the support bottom
    for (_, _, w), (n_hi, m1_hi) in zip(pieces, _piece_ends(base, pieces)):
        if w > 0.0:
            n += w * (n_hi - n_lo)
            m1 += w * (m1_hi - m1_lo)
        n_lo, m1_lo = n_hi, m1_hi
    return n, m1


def _moments(pool: LaborPool) -> tuple[float, float]:
    """(mass, first moment) of the whole pool."""
    return _piece_moments(pool.base, pool.pieces)


def _restricted_moments(pool: LaborPool, a: float, b: float) -> tuple[float, float]:
    """(mass, first moment) over the window [a, b].

    Discrete atoms at either endpoint are included (closed interval); for
    continuous bases the endpoints carry no mass either way.
    """
    base = pool.base
    a = max(a, base.support_low)
    b = min(b, base.support_high)
    n = m1 = 0.0
    last = len(pool.pieces) - 1
    for i, (lo, hi, w) in enumerate(pool.pieces):
        clo, chi = max(lo, a), min(hi, b)
        if w <= 0.0 or chi < clo:
            continue
        # The clipped piece is closed on the right unless it ends where its
        # half-open piece does; an atom there belongs to the next piece.
        if chi == hi and i != last:
            n_hi, m1_hi = base.moments_below(chi)
        else:
            n_hi, m1_hi = base._moments_at_or_below(chi)
        n_lo, m1_lo = base.moments_below(clo)
        n += w * (n_hi - n_lo)
        m1 += w * (m1_hi - m1_lo)
    return n, m1


def pool_mass(pool: LaborPool) -> float:
    """Total worker mass in the pool."""
    return _moments(pool)[0]


def pool_mean(pool: LaborPool) -> float:
    """Average productivity of the pool; EmptyPoolError on zero mass."""
    n, m1 = _moments(pool)
    if n <= 0.0:
        raise EmptyPoolError("pool has no workers")
    return m1 / n


def truncated_mean(pool: LaborPool, a: float, b: float) -> float:
    """Mean productivity over the window [a, b].

    The window must sit inside the support.  Discrete atoms exactly at a
    or b are included.
    """
    lo_s, hi_s = pool.base.support_low, pool.base.support_high
    window_ok = lo_s <= a < b <= hi_s or (pool.base.kind == "discrete" and lo_s <= a <= b <= hi_s)
    if not window_ok:
        raise ValueError(f"truncation window [{a}, {b}] must sit inside [{lo_s}, {hi_s}]")
    n, m1 = _restricted_moments(pool, a, b)
    if n <= 0.0:
        raise EmptyPoolError(f"no worker mass on [{a}, {b}]")
    return m1 / n


def _split_threshold(pool: LaborPool, threshold: float, mu: float) -> float:
    """Validate a split and clamp its threshold to the support."""
    _check_mu(mu)
    if not math.isfinite(threshold):
        raise InvalidThresholdError(f"threshold {threshold!r} is not a finite real")
    return min(max(threshold, pool.base.support_low), pool.base.support_high)


def firing_split(pool: LaborPool, threshold: float, mu: float) -> tuple[LaborPool, LaborPool]:
    """Split a pool at an end-of-period review.

    Workers strictly below `threshold` all leave; workers at or above it
    leave with probability `mu` and stay with probability ``1 - mu``.
    Returns ``(leavers, stayers)``; their masses sum to the original.
    Thresholds outside the support are clamped to its endpoints.
    """
    t = _split_threshold(pool, threshold, mu)
    return (LaborPool(pool.base, tuple(_rescale_pieces(pool.pieces, t, 1.0, mu))),
            LaborPool(pool.base, tuple(_rescale_pieces(pool.pieces, t, 0.0, 1.0 - mu))))


def leaver_moments(pool: LaborPool, threshold: float, mu: float) -> tuple[float, float]:
    """(mass, first moment) of ``firing_split(pool, threshold, mu)[0]``.

    Same rules and the same arithmetic as moments of the split pool, but
    no pool is built.
    """
    t = _split_threshold(pool, threshold, mu)
    return _piece_moments(pool.base, _rescale_pieces(pool.pieces, t, 1.0, mu))


def leaver_moments_array(pool: LaborPool, thresholds: np.ndarray,
                         mu: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`leaver_moments` at every element of a float64 array of thresholds.

    Each piece of the pool adds its part in the order :func:`_piece_moments`
    adds the pieces of the split pool, so every element is bit-for-bit equal
    to the scalar result.
    """
    _check_mu(mu)
    t = np.asarray(thresholds, dtype=np.float64)
    if not np.isfinite(t).all():
        raise InvalidThresholdError("thresholds must be finite reals")
    base = pool.base
    t = np.minimum(np.maximum(t, base.support_low), base.support_high)
    n_cut, m1_cut = base.moments_below_array(t)
    n = np.zeros_like(t)
    m1 = np.zeros_like(t)
    n_lo = m1_lo = 0.0
    for (lo, hi, w), (n_hi, m1_hi) in zip(pool.pieces, _piece_ends(base, pool.pieces)):
        wm = w * mu
        # As in _rescale_pieces, lo >= t is tested first: a zero-width piece
        # at t goes to the at-or-above side.
        above = lo >= t
        split = ~above & (hi > t)
        # At or above t the piece leaves at weight w * mu, below t in full;
        # a straddling piece adds [lo, t) and then [t, hi).  Where
        # _piece_moments skips a zero weight this adds 0.0: the same sum.
        for total, lo_end, hi_end, cut in ((n, n_lo, n_hi, n_cut),
                                           (m1, m1_lo, m1_hi, m1_cut)):
            below = np.where(split, w * (cut - lo_end), w * (hi_end - lo_end))
            total += np.where(above, wm * (hi_end - lo_end) if wm > 0.0 else 0.0,
                              below if w > 0.0 else 0.0)
            if wm > 0.0:
                total += np.where(split, wm * (hi_end - cut), 0.0)
        n_lo, m1_lo = n_hi, m1_hi
    return n, m1


def stayer_moments(pool: LaborPool, threshold: float, mu: float) -> tuple[float, float]:
    """(mass, first moment) of ``firing_split(pool, threshold, mu)[1]``."""
    t = _split_threshold(pool, threshold, mu)
    return _piece_moments(pool.base, _rescale_pieces(pool.pieces, t, 0.0, 1.0 - mu))


def _occupied_pieces(pool: LaborPool):
    """(index, lo, hi) of the pieces with positive weight and base mass."""
    n_lo = 0.0
    for i, ((lo, hi, w), (n_hi, _)) in enumerate(
            zip(pool.pieces, _piece_ends(pool.base, pool.pieces))):
        if w > 0.0 and n_hi > n_lo:
            yield i, lo, hi
        n_lo = n_hi


def pool_inf(pool: LaborPool) -> float:
    """Lowest productivity carrying positive weight."""
    first = next(_occupied_pieces(pool), None)
    if first is None:
        raise EmptyPoolError("pool has no workers")
    lo, base = first[1], pool.base
    return base._xs[bisect_left(base._xs, lo)] if base.kind == "discrete" else lo


def pool_sup(pool: LaborPool) -> float:
    """Highest productivity carrying positive weight."""
    occupied = list(_occupied_pieces(pool))
    if not occupied:
        raise EmptyPoolError("pool has no workers")
    i, _, hi = occupied[-1]
    base = pool.base
    if base.kind != "discrete":
        return hi
    # The last piece is closed on the right; the others are half-open.
    k = bisect_right(base._xs, hi) if i == len(pool.pieces) - 1 else bisect_left(base._xs, hi)
    return base._xs[k - 1]


def _check_mu(mu: float) -> None:
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"quit probability mu={mu} must lie in [0, 1]")


# =====================================================================
# Sampling support (inverse CDF), used by the Monte Carlo simulator
# =====================================================================

def quantile(dist: ProductivityDistribution, q: float) -> float:
    """Inverse CDF at mass fraction q in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return float(sample_productivities(dist, np.asarray([q]))[0])


def sample_productivities(dist: ProductivityDistribution, u: np.ndarray) -> np.ndarray:
    """Map uniform draws u in [0, 1) to productivities by inverse CDF."""
    u = np.asarray(u, dtype=np.float64)
    if dist.kind == "uniform":
        return dist.support_low + u * (dist.support_high - dist.support_low)
    thetas = np.array(dist._xs)
    cum = np.array(dist._cum_n)  # mass strictly below each atom or breakpoint
    total = cum[-1]
    if dist.kind == "discrete":
        idx = np.searchsorted(cum[1:] / total, u, side="right")
        idx = np.minimum(idx, len(thetas) - 1)
        return thetas[idx]
    # piecewise: invert the per-segment quadratic CDF
    ds = np.array([d for _, d in dist.nodes])
    target = u * total
    idx = np.searchsorted(cum, target, side="right") - 1
    idx = np.clip(idx, 0, len(thetas) - 2)
    x0, x1 = thetas[idx], thetas[idx + 1]
    d0, d1 = ds[idx], ds[idx + 1]
    h = x1 - x0
    rem = target - cum[idx]
    a = (d1 - d0) / (2.0 * h)
    # Solve a s^2 + d0 s = rem for the offset s in [0, h].
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(np.maximum(d0 * d0 + 4.0 * a * rem, 0.0))
        s_quad = np.where(a != 0.0, (disc - d0) / np.where(a != 0.0, 2.0 * a, 1.0), 0.0)
        s_lin = np.where(d0 > 0.0, rem / np.where(d0 > 0.0, d0, 1.0), 0.0)
    s = np.where(np.abs(a) < 1e-14, s_lin, s_quad)
    return x0 + np.clip(s, 0.0, h)
