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
* :meth:`ProductivityDistribution.moments_below_array`,
  :func:`leaver_moments_array` and :func:`stayer_moments_array` are the
  same kernels over a float64 array of thresholds, for scan grids.  They
  use the same formulas in the same order of float operations, so each
  element is bit-for-bit equal to the scalar result.  One piece loop,
  :func:`_split_moments`, serves every array moment.
* A :class:`PoolRows` stack holds many pools that differ only in where
  their pieces end (:func:`entry_split_rows`: the entry pool split at many
  thresholds), with array piece bounds that the same kernels broadcast.
* The leaver-mean operator built on these moments is
  :func:`labormkt.solvers.m_extended`, the only one in the package.

All values are immutable; operations return new pools.
"""

from __future__ import annotations

import math
import numbers
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
    "stayer_moments_array",
    "PoolRows",
    "entry_split_rows",
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
    # moments_below_array and sample_productivities.
    _arrays: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    # sample_productivities' inverse-CDF tables (see _inverse_cdf_tables).
    _inverse: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_inverse", _inverse_cdf_tables(self))

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
    """Average productivity of the pool; EmptyPoolError on zero mass.

    Per row, as an (R, 1) column, for a :class:`PoolRows` stack."""
    if isinstance(pool, PoolRows):
        n, m1 = pool.moments
        if not (n > 0.0).all():
            raise EmptyPoolError("a pool row has no workers")
        return m1 / n
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


def _split_moments(base: ProductivityDistribution, pieces, ends, t, low, high):
    """(mass, first moment) of `pieces` weighted `low` strictly below t and
    `high` at or above it: ``_piece_moments`` of
    ``_rescale_pieces(pieces, t, low, high)``, without building the pieces.

    This is the one piece loop behind every array moment.  The piece bounds,
    weights and `ends` (from :func:`_piece_ends`), the clamped thresholds t
    and the factors may each be a scalar or an array; they broadcast
    together.  Each piece adds its part in the order :func:`_piece_moments`
    adds the rescaled pieces, so every element is bit-for-bit equal to the
    scalar result.
    """
    n_cut, m1_cut = base.moments_below_array(t)
    n = m1 = 0.0
    n_lo = m1_lo = 0.0  # the first piece starts at the support bottom
    for (lo, hi, w), (n_hi, m1_hi) in zip(pieces, ends):
        w_below, w_above = w * low, w * high
        # As in _rescale_pieces, lo >= t is tested first: a zero-width piece
        # at t goes to the at-or-above side.
        above = lo >= t
        split = ~above & (hi > t)
        # A straddling piece adds [lo, t) and then [t, hi).  Where
        # _piece_moments skips a zero weight this adds a zero product, which
        # leaves the sum as it is: it starts at +0.0, so it is never -0.0.
        n = n + np.where(above, w_above * (n_hi - n_lo),
                         w_below * (np.where(split, n_cut, n_hi) - n_lo))
        n = n + np.where(split, w_above * (n_hi - n_cut), 0.0)
        m1 = m1 + np.where(above, w_above * (m1_hi - m1_lo),
                           w_below * (np.where(split, m1_cut, m1_hi) - m1_lo))
        m1 = m1 + np.where(split, w_above * (m1_hi - m1_cut), 0.0)
        n_lo, m1_lo = n_hi, m1_hi
    return n, m1


def _clamped_thresholds(base: ProductivityDistribution, thresholds) -> np.ndarray:
    """:func:`_split_threshold` on a float64 array (mu is checked apart)."""
    t = np.asarray(thresholds, dtype=np.float64)
    if not np.isfinite(t).all():
        raise InvalidThresholdError("thresholds must be finite reals")
    return np.minimum(np.maximum(t, base.support_low), base.support_high)


def _split_side_array(pool, thresholds, mu: float, leavers: bool):
    _check_mu(mu)
    t = _clamped_thresholds(pool.base, thresholds)
    low, high = (1.0, mu) if leavers else (0.0, 1.0 - mu)
    ends = pool.ends if isinstance(pool, PoolRows) else _piece_ends(pool.base, pool.pieces)
    return _split_moments(pool.base, pool.pieces, ends, t, low, high)


def leaver_moments_array(pool, thresholds: np.ndarray,
                         mu: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`leaver_moments` at every element of a float64 array of thresholds.

    `pool` is a :class:`LaborPool` or a :class:`PoolRows` stack, whose (R, 1)
    columns broadcast against an (R, k) array of thresholds.  Every element
    is bit-for-bit equal to the scalar result.
    """
    return _split_side_array(pool, thresholds, mu, leavers=True)


def stayer_moments_array(pool, thresholds: np.ndarray,
                         mu: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`stayer_moments` at every element of a float64 array of
    thresholds, as :func:`leaver_moments_array`."""
    return _split_side_array(pool, thresholds, mu, leavers=False)


@dataclass(frozen=True)
class PoolRows:
    """A stack of pools over one base, one per row, built by
    :func:`entry_split_rows`.

    Each piece bound, weight and piece end is a scalar shared by every row
    or an (R, 1) column, so a row's pool broadcasts against the row of an
    (R, k) threshold array.  `moments` and `inf` are each row's pool
    moments and :func:`pool_inf`, as (R, 1) columns.  The array kernels, :func:`pool_mean`, :func:`pool_inf`
    and :func:`labormkt.solvers.m_extended` on arrays accept a stack
    wherever they accept a pool.
    """

    base: ProductivityDistribution
    pieces: tuple
    ends: tuple
    moments: tuple[np.ndarray, np.ndarray]
    inf: np.ndarray

    def take(self, rows) -> "PoolRows":
        """The stack of the selected rows (an index array or a slice)."""
        pick = lambda v: v[rows] if isinstance(v, np.ndarray) else v
        return PoolRows(self.base,
                        tuple(tuple(map(pick, piece)) for piece in self.pieces),
                        tuple(tuple(map(pick, end)) for end in self.ends),
                        tuple(map(pick, self.moments)), pick(self.inf))


def entry_split_rows(dist: ProductivityDistribution, thresholds, low, high) -> PoolRows:
    """The entry pool of `dist` weighted `low` strictly below each threshold
    and `high` at or above it, one row per threshold.

    With (low, high) = (1, mu) row i is the leaver side of
    ``firing_split(LaborPool.entry(dist), thresholds[i], mu)``, with
    (0, 1 - mu) the stayer side; `low` and `high` may be arrays, so one
    stack can hold both sides.  Thresholds are clamped to the support, as
    the split clamps them.  Each row has the pieces ``[(L, t, low),
    (t, H, high)]``.  Where firing_split makes one piece instead, one of the
    two is empty and adds only zeros: at t = L the first, and at t = H > L
    the second, whose start is then read as the whole base so that an atom
    at H stays in the closed first piece.
    """
    t = _clamped_thresholds(dist, thresholds)
    low, high = np.broadcast_arrays(t, np.asarray(low, dtype=np.float64),
                                    np.asarray(high, dtype=np.float64))[1:]
    lo, hi = dist.support_low, dist.support_high
    n, m1 = _split_moments(dist, ((lo, hi, 1.0),), (dist._total,), t, low, high)
    n_t, m1_t = dist.moments_below_array(t)
    at_top = (t >= hi) & (t > lo)
    n_t, m1_t = np.where(at_top, dist._total[0], n_t), np.where(at_top, dist._total[1], m1_t)
    # pool_inf: the start of the first piece holding workers, snapped up to
    # an atom on a discrete base.
    inf = np.where((low > 0.0) & (n_t > 0.0), lo, t)
    if dist.kind == "discrete":
        xs = dist._arrays[0]
        inf = xs[np.searchsorted(xs, inf, side="left")]
    col = lambda v: v[:, None]
    return PoolRows(dist, ((lo, col(t), col(low)), (col(t), hi, col(high))),
                    ((col(n_t), col(m1_t)), dist._total),
                    (col(n), col(m1)), col(inf))


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
    """Lowest productivity carrying positive weight (per row, as an (R, 1)
    column, for a :class:`PoolRows` stack)."""
    if isinstance(pool, PoolRows):
        if not (pool.moments[0] > 0.0).all():
            raise EmptyPoolError("a pool row has no workers")
        return pool.inf
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


def _is_real(v) -> bool:
    """A real number that is not a bool (bools pass numbers.Real)."""
    return not isinstance(v, bool) and isinstance(v, numbers.Real)


def _is_integer(v) -> bool:
    """An integer that is not a bool."""
    return not isinstance(v, bool) and isinstance(v, numbers.Integral)


def _check_mu(mu: float) -> None:
    # The kernels check mu on every call: a plain float skips the ABC test.
    if type(mu) is not float and not _is_real(mu):
        raise ValueError(f"quit probability mu must be a real number, not {mu!r}")
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


def _inverse_cdf_tables(dist: ProductivityDistribution) -> tuple[np.ndarray, ...]:
    """The constants sample_productivities reads per draw, built once.

    Discrete: the CDF at each atom.  Piecewise: the mass below each
    breakpoint, then per segment its left end x0, width h, 4a, d0, d0*d0,
    2a (1.0 where a is 0) and whether it is flat (|a| < 1e-14), for the
    density d0 + 2a*s at offset s, whose mass up to s is a*s*s + d0*s.
    """
    thetas, cum, _, ds = dist._arrays
    if dist.kind == "discrete":
        with np.errstate(divide="ignore", invalid="ignore"):
            return (cum[1:] / cum[-1],)
    if dist.kind != "piecewise":
        return ()
    x0, d0 = thetas[:-1], ds[:-1]
    h = thetas[1:] - x0
    with np.errstate(over="ignore", invalid="ignore"):
        a = (ds[1:] - d0) / (2.0 * h)
        return (cum, x0, h, 4.0 * a, d0, d0 * d0,
                np.where(a != 0.0, 2.0 * a, 1.0), np.abs(a) < 1e-14)


def sample_productivities(dist: ProductivityDistribution, u: np.ndarray) -> np.ndarray:
    """Map uniform draws u in [0, 1) to productivities by inverse CDF.

    Each draw is mapped on its own, so the result for one draw does not
    depend on the others in u.
    """
    u = np.asarray(u, dtype=np.float64)
    if dist.kind == "uniform":
        return dist.support_low + u * (dist.support_high - dist.support_low)
    if dist.kind == "discrete":
        thetas = dist._arrays[0]
        idx = np.searchsorted(dist._inverse[0], u, side="right")
        idx = np.minimum(idx, len(thetas) - 1)
        return thetas[idx]
    # piecewise: invert the per-segment quadratic CDF, a s^2 + d0 s = rem,
    # for the offset s in [0, h] of each draw into its segment.
    cum, x0, h, a4, d0, d0sq, a2, flat = dist._inverse
    rem = np.ravel(u) * cum[-1]
    seg = np.searchsorted(cum, rem, side="right") - 1
    np.clip(seg, 0, len(x0) - 1, out=seg)
    rem -= cum[seg]
    # Flat segments take rem / d0 instead; their quadratic values, which may
    # overflow or be nan, are overwritten.
    lin = flat[seg]
    rl, dl = rem[lin], d0[seg[lin]]
    with np.errstate(all="ignore"):
        s = _quadratic_offset(rem, seg, a4, d0, d0sq, a2)
        s[lin] = np.divide(rl, dl, out=np.zeros_like(rl), where=dl > 0.0)
    np.clip(s, 0.0, h[seg], out=s)
    s += x0[seg]
    return s.reshape(u.shape)[()]  # a NumPy scalar for a 0-d u, as the other kinds give


def _quadratic_offset(rem, seg, a4, d0, d0sq, a2) -> np.ndarray:
    """(sqrt(max(d0*d0 + 4a*rem, 0)) - d0) / 2a per draw, in place of rem."""
    rem *= a4[seg]
    rem += d0sq[seg]
    np.maximum(rem, 0.0, out=rem)
    np.sqrt(rem, out=rem)
    rem -= d0[seg]
    rem /= a2[seg]
    return rem
