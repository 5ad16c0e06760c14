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
  strictly below x.  The moments at or below x (which differ only by a
  discrete atom at x) and at or above x (the whole measure less those
  below x) are taken from it.  Uniform bases use the closed form;
  piecewise-linear and discrete bases read cumulative tables built once per
  distribution.
* A pool computes its ``ends`` (the base mass and first moment up to the
  end of each piece) and its ``moments`` once, when it is built.  Those
  moments and either side's of a split (:func:`leaver_moments`,
  :func:`stayer_moments`) come from one scalar loop over the pool's pieces
  beside their ends, :func:`_split_moments_scalar`, which adds the parts of
  the split pool's pieces in their order without building them, so it is
  bit for bit the split pool's.  A caller that splits one pool many times
  pairs the pieces with their ends once.  The leaver-mean operator built
  on these moments is :func:`labormkt.solvers.m_extended`, with one array
  twin for the multi-start's lockstep beside its scalar core.  Every public
  operator takes one pool and one scalar threshold.
* :func:`_split_moments` is the same loop over arrays: piece bounds,
  weights and ends that may be (R, 1) columns, one pool per row, and an
  array of thresholds, with the same float operations in the same order,
  so each element is bit-for-bit the scalar result.  Its one caller is the
  damped multi-start's lockstep (:mod:`labormkt.multiperiod`).

All values are immutable; operations return new pools.
"""

from __future__ import annotations

import math
import numbers
import os
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
    "firing_split",
    "leaver_moments",
    "stayer_moments",
    "pool_inf",
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
    # The sorted atoms or breakpoints, and as float64 arrays those, the (mass,
    # first moment) strictly below each and the node densities.
    _xs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _arrays: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    # The moment primitive's search keys and table (see _segment_tables).
    _segments: tuple = field(init=False, repr=False, compare=False)
    _total: tuple[float, float] = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_arrays", tuple(
            np.array(v, dtype=np.float64)
            for v in (xs, cum_n, cum_m1, [d for _, d in self.nodes])))
        object.__setattr__(self, "_segments", _segment_tables(self))
        object.__setattr__(self, "_total", self._moments_at_or_below(self.support_high))
        # Partial sums are monotone in mass, so an overflow anywhere in the
        # tables shows up in the totals.
        if not all(map(math.isfinite, self._total)):
            raise ValueError(f"total mass and first moment must be finite (got {self._total})")
        object.__setattr__(self, "_inverse", _inverse_cdf_tables(self))

    # -- the moment primitive -------------------------------------------

    def moments_below(self, x: float) -> tuple[float, float]:
        """(mass, first moment) of N(theta) strictly below x."""
        _, _, keys, columns = self._segments
        if self.kind == "discrete":
            return columns[bisect_left(keys, x)]
        lo = self.support_low
        if x <= lo:
            return 0.0, 0.0
        if x > self.support_high:  # min(x, high), without min()'s costlier call
            x = self.support_high
        if self.kind == "uniform":
            h = x - lo
            return self.level * h, self.level * h * (x + lo) / 2.0
        x0, d0, dd, width, cum_n, cum_m1 = columns[bisect_right(keys, x)]
        h = x - x0
        dx = d0 + dd * h / width
        return (cum_n + h * (d0 + dx) / 2.0,
                cum_m1 + h / 6.0 * (x0 * (2.0 * d0 + dx) + x * (d0 + 2.0 * dx)))

    def _moments_below_clamped(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`moments_below` at every element of a float64 array already
        clamped to the support, with the same float operations in the same
        order, so each element is bit-for-bit the scalar result."""
        keys, table, _, _ = self._segments
        if self.kind == "discrete":
            n, m1 = table.take(np.searchsorted(keys, x, side="left"), axis=1)  # bisect_left
            return n, m1
        lo = self.support_low
        if self.kind == "uniform":
            n = self.level * (x - lo)  # +0.0 at lo
            return n, np.where(x <= lo, 0.0, n * (x + lo) / 2.0)
        k = np.searchsorted(keys, x, side="right")
        x0, d0, dd, width, cum_n, cum_m1 = table.take(k, axis=1)
        h = x - x0
        dx = d0 + dd * h / width
        return (cum_n + h * (d0 + dx) / 2.0,
                cum_m1 + h / 6.0 * (x0 * (2.0 * d0 + dx) + x * (d0 + 2.0 * dx)))

    def _moments_at_or_below(self, x: float) -> tuple[float, float]:
        # Only a discrete atom sitting at x tells this apart from moments_below.
        if self.kind == "discrete":
            x = math.nextafter(x, math.inf)
        return self.moments_below(x)

    def _moments_at_or_above(self, x: float) -> tuple[float, float]:
        # The whole measure less what lies strictly below x.
        n, m1 = self.moments_below(x)
        return self._total[0] - n, self._total[1] - m1

    # -- whole-measure summaries ----------------------------------------

    def total_mass(self) -> float:
        return self._total[0]

    def mean(self) -> float:
        n, m1 = self._total
        if n <= 0.0:
            raise EmptyPoolError("distribution carries no mass")
        return m1 / n


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
    which is closed so the top of the support belongs to it.  Multipliers
    are nonnegative real numbers and the pool's moments must be finite.
    """

    base: ProductivityDistribution
    pieces: tuple[tuple[float, float, float], ...] = field(default=())
    # The base (mass, first moment) up to the end of each piece (the closed
    # last one holds it all), and the pool's.
    ends: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    moments: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ps = self.pieces or ((self.base.support_low, self.base.support_high, 1.0),)
        if ps[0][0] != self.base.support_low or ps[-1][1] != self.base.support_high:
            raise ValueError("pieces must cover the full support")
        for (_, h0, _), (l1, _, _) in zip(ps, ps[1:]):
            if h0 != l1:
                raise ValueError("pieces must be contiguous")
        for i, (lo, hi, w) in enumerate(ps):
            if hi < lo:
                raise ValueError("piece with negative width")
            if type(w) is not float:  # a float skips the ABC test
                if not _is_real(w):
                    raise ValueError(f"multipliers must be real numbers, not {w!r}")
                # Stored as a float, or a NumPy float32 sets the pool's precision.
                w = float(w)
                ps = (*ps[:i], (lo, hi, w), *ps[i + 1:])
            if not (w >= 0.0):
                raise ValueError("multipliers must be nonnegative")
        object.__setattr__(self, "pieces", ps)
        ends = [self.base.moments_below(hi) for _, hi, _ in ps[:-1]] + [self.base._total]
        object.__setattr__(self, "ends", tuple(ends))
        object.__setattr__(self, "moments", _moments(self))
        _require_finite(self.moments, "pool mass and first moment")

    @staticmethod
    def entry(dist: ProductivityDistribution) -> "LaborPool":
        """The whole distribution at weight one (the hiring pool at entry)."""
        return LaborPool(dist)


def _rescale_pieces(pieces, cut: float, low_factor: float, high_factor: float) -> list:
    """`pieces` with weights scaled by `low_factor` strictly below `cut`,
    `high_factor` at or above; a piece straddling `cut` is cut in two.  The
    last piece is closed, so a cut at the support top H splits it into
    [lo, H) and [H, H], and an atom at H stays at or above the cut."""
    out = []
    for i, (lo, hi, w) in enumerate(pieces):
        if lo < cut and (hi > cut or i == len(pieces) - 1):  # straddles the cut
            out += [(lo, cut, w * low_factor), (cut, hi, w * high_factor)]
        else:
            out.append((lo, hi, w * (high_factor if lo >= cut else low_factor)))
    return out


def _moments(pool: LaborPool) -> tuple[float, float]:
    """(mass, first moment) of the whole pool, which its constructor stores
    as ``pool.moments``: every piece is at or above the support bottom, so
    a split there weights each by w * 1.0 = w."""
    base = pool.base
    return _split_moments_scalar(base, zip(pool.pieces, pool.ends), base.support_low, 1.0, 1.0)


def pool_mass(pool: LaborPool) -> float:
    """Total worker mass in the pool."""
    return pool.moments[0]


def pool_mean(pool: LaborPool) -> float:
    """Average productivity of the pool; EmptyPoolError on zero mass."""
    n, m1 = pool.moments
    if n <= 0.0:
        raise EmptyPoolError("pool has no workers")
    return m1 / n


def _real_threshold(threshold) -> float:
    """A threshold as a float, or InvalidThresholdError unless it is a real
    number that is not a bool (a plain float skips the ABC test)."""
    if type(threshold) is float:
        return threshold
    if not _is_real(threshold):
        raise InvalidThresholdError(f"threshold {threshold!r} is not a usable real number")
    return float(threshold)


def _split_threshold(pool: LaborPool, threshold: float, mu: float) -> tuple[float, float]:
    """Validate a split: its threshold as a float clamped to the support,
    and mu as a float."""
    mu = _check_mu(mu)
    t = _real_threshold(threshold)
    if not math.isfinite(t):
        raise InvalidThresholdError(f"threshold {threshold!r} is not a usable real number")
    return min(max(t, pool.base.support_low), pool.base.support_high), mu


def firing_split(pool: LaborPool, threshold: float, mu: float) -> tuple[LaborPool, LaborPool]:
    """Split a pool at an end-of-period review.

    Workers strictly below `threshold` all leave; workers at or above it
    leave with probability `mu` and stay with probability ``1 - mu``.
    Returns ``(leavers, stayers)``; their masses sum to the original.
    Thresholds outside the support are clamped to its endpoints.
    """
    t, mu = _split_threshold(pool, threshold, mu)
    return (LaborPool(pool.base, tuple(_rescale_pieces(pool.pieces, t, 1.0, mu))),
            LaborPool(pool.base, tuple(_rescale_pieces(pool.pieces, t, 0.0, 1.0 - mu))))


def leaver_moments(pool: LaborPool, threshold: float, mu: float) -> tuple[float, float]:
    """(mass, first moment) of ``firing_split(pool, threshold, mu)[0]``,
    bit for bit, without building the split pool."""
    t, mu = _split_threshold(pool, threshold, mu)
    return _split_moments_scalar(pool.base, zip(pool.pieces, pool.ends), t, 1.0, mu)


def stayer_moments(pool: LaborPool, threshold: float, mu: float) -> tuple[float, float]:
    """(mass, first moment) of ``firing_split(pool, threshold, mu)[1]``,
    as :func:`leaver_moments`."""
    t, mu = _split_threshold(pool, threshold, mu)
    return _split_moments_scalar(pool.base, zip(pool.pieces, pool.ends), t, 0.0, 1.0 - mu)


def _split_moments_scalar(base: ProductivityDistribution, rows, t: float, low: float,
                          high: float) -> tuple[float, float]:
    """(mass, first moment) of a pool over `base` whose pieces beside their
    ends, ``zip(pool.pieces, pool.ends)``, are `rows`, weighted `low`
    strictly below the clamped threshold t and `high` at or above it: the
    one scalar piece loop (:func:`_moments` splits at the support bottom),
    twin of :func:`_split_moments`.  A piece straddling t adds [lo, t),
    then [t, hi): the parts of ``_rescale_pieces(pool.pieces, t, low,
    high)`` in their order, zero weights skipped, so the result is bit for
    bit the split pool's moments."""
    top = base.support_high
    n = m1 = n_lo = m1_lo = 0.0  # the first piece starts at the support bottom
    for (lo, hi, w), (n_hi, m1_hi) in rows:
        # As in _rescale_pieces, lo >= t is tested first: a zero-width piece
        # at t goes to the at-or-above side.  The closed last piece holds t,
        # and an earlier piece ending at t = top adds a zero [t, hi) part.
        if lo >= t:
            w_part = w * high
        else:
            w_part = w * low
            if hi > t or hi == top:  # [lo, t), then [t, hi) below
                n_cut, m1_cut = base.moments_below(t)
                if w_part > 0.0:
                    n += w_part * (n_cut - n_lo)
                    m1 += w_part * (m1_cut - m1_lo)
                n_lo, m1_lo, w_part = n_cut, m1_cut, w * high
        if w_part > 0.0:
            n += w_part * (n_hi - n_lo)
            m1 += w_part * (m1_hi - m1_lo)
        n_lo, m1_lo = n_hi, m1_hi
    return n, m1


def _split_moments(base: ProductivityDistribution, pieces, ends, t, low, high, cut=None):
    """:func:`_split_moments_scalar` of `pieces` at every clamped threshold
    of the array t: the one piece loop behind every array moment.  The piece
    bounds, weights and `ends` (a pool's, or (R, 1) columns of a stack of
    pools, one per row), t and the factors may each be a scalar or an
    array; they broadcast together.  `cut` is the base (mass, first moment)
    below t, if the caller has it.  Each piece
    adds its parts in the scalar loop's order, so every element is bit for
    bit the scalar result."""
    n_cut, m1_cut = base._moments_below_clamped(t) if cut is None else cut
    n = m1 = 0.0
    n_lo = m1_lo = 0.0  # the first piece starts at the support bottom
    for i, ((lo, hi, w), (n_hi, m1_hi)) in enumerate(zip(pieces, ends)):
        w_above = w * high
        # As in _rescale_pieces, lo >= t is tested first: a zero-width piece
        # at t goes to the at-or-above side, and the closed last piece holds t.
        above = lo >= t
        split = ~above if i == len(pieces) - 1 else ~above & (hi > t)
        # Each piece adds [lo, hi), or [lo, t) then [t, hi) if it straddles
        # t.  Where the scalar loop skips a zero weight this adds a zero
        # product, which leaves the sum (never -0.0) as it is.  A product
        # commutes exactly, so each part is (end - start) * w.
        w_part = np.where(above, w_above, w * low)
        n = n + (np.where(split, n_cut, n_hi) - n_lo) * w_part
        m1 = m1 + (np.where(split, m1_cut, m1_hi) - m1_lo) * w_part
        w_part = np.where(split, w_above, 0.0)
        n += (n_hi - n_cut) * w_part
        m1 += (m1_hi - m1_cut) * w_part
        n_lo, m1_lo = n_hi, m1_hi
    return n, m1


def pool_inf(pool: LaborPool) -> float:
    """Lowest productivity carrying positive weight."""
    base, n_lo = pool.base, 0.0
    # The start of the first piece with positive weight and base mass.
    for (lo, _, w), (n_hi, _) in zip(pool.pieces, pool.ends):
        if w > 0.0 and n_hi > n_lo:
            return base._xs[bisect_left(base._xs, lo)] if base.kind == "discrete" else lo
        n_lo = n_hi
    raise EmptyPoolError("pool has no workers")


def _is_real(v) -> bool:
    """A real number that is not a bool (bools pass numbers.Real)."""
    return not isinstance(v, bool) and isinstance(v, numbers.Real)


def _is_integer(v) -> bool:
    """An integer that is not a bool (bools pass numbers.Integral)."""
    return not isinstance(v, bool) and isinstance(v, numbers.Integral)


def _check_count(name: str, v, low: int, high: int | None = None) -> None:
    """Raise ValueError unless v is an integer, not a bool, in [low, high]."""
    if not _is_integer(v):
        raise ValueError(f"{name} must be an integer, not {v!r}")
    if v < low or (high is not None and v > high):
        bounds = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bounds} (got {v})")


def _check_mu(mu: float) -> float:
    """mu as a float (NumPy keeps float * np.float32 in float32), or
    ValueError unless it is a real number in [0, 1]."""
    # The kernels check mu on every call: a plain float skips the ABC test.
    if type(mu) is not float and not _is_real(mu):
        raise ValueError(f"quit probability mu must be a real number, not {mu!r}")
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"quit probability mu={mu} must lie in [0, 1]")
    return mu if type(mu) is float else float(mu)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: the simulator's replay
    threads and the CLI sweep's worker processes are capped by it."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


# =====================================================================
# Sampling support (inverse CDF), used by the Monte Carlo simulator
# =====================================================================

def quantile(dist: ProductivityDistribution, q: float) -> float:
    """Inverse CDF at mass fraction q, a real number in [0, 1] (not a bool)."""
    if not (_is_real(q) and 0.0 <= q <= 1.0):
        raise ValueError(f"q must be a real number in [0, 1], not {q!r}")
    return float(sample_productivities(dist, np.asarray([q]))[0])


def _segment_tables(dist: ProductivityDistribution) -> tuple:
    """The moment primitive's search keys and table, as float64 arrays and
    tuples.  Discrete: per atom, the (mass, first moment) below it.
    Piecewise: per segment, x0, d0, d1 - d0, x1 - x0 and the (mass, first
    moment) below x0; keys [nextafter(L, inf), x_1, ..., H] send x <= L and
    x >= H to zero-width, zero-density segments: (0, 0) and the totals."""
    xs, cum_n, cum_m1, ds = dist._arrays
    if dist.kind == "discrete":
        keys, table = xs, np.array([cum_n, cum_m1])
    elif dist.kind == "piecewise":
        lo, hi = dist.support_low, dist.support_high
        pad = lambda first, body, last: np.concatenate(([first], body, [last]))
        keys = pad(math.nextafter(lo, math.inf), xs[1:-1], hi)
        table = np.array([pad(lo, xs[:-1], hi), pad(0.0, ds[:-1], 0.0),
                          pad(0.0, np.diff(ds), 0.0), pad(1.0, np.diff(xs), 1.0),
                          np.append(0.0, cum_n), np.append(0.0, cum_m1)])
    else:
        keys, table = np.zeros(0), np.zeros((0, 0))
    return keys, table, tuple(keys.tolist()), tuple(map(tuple, table.T.tolist()))


def _inverse_cdf_tables(dist: ProductivityDistribution) -> tuple:
    """The constants sample_productivities reads per draw, built once.

    Each kind's first entry is the keys of its segment lookup (see
    _count_at_or_below).  Discrete: the CDF at each atom but the top one,
    then the atoms.  Piecewise: the mass below each interior breakpoint,
    then below each breakpoint, then per segment its left end x0, width h,
    4a, d0, d0*d0, 2a (1.0 where a is 0) for the density d0 + 2a*s at
    offset s, whose mass up to s is a*s*s + d0*s, and last whether each
    segment is flat (|a| < 1e-14), or None where none is.
    """
    thetas, cum, _, ds = dist._arrays
    if dist.kind == "discrete":
        with np.errstate(divide="ignore", invalid="ignore"):
            return (cum[1:-1] / cum[-1], thetas)
    if dist.kind != "piecewise":
        return ()
    x0, d0 = thetas[:-1], ds[:-1]
    h = thetas[1:] - x0
    with np.errstate(over="ignore", invalid="ignore"):
        a = (ds[1:] - d0) / (2.0 * h)
        flat = np.abs(a) < 1e-14
        return (cum[1:-1], cum, x0, h, 4.0 * a, d0, d0 * d0,
                np.where(a != 0.0, 2.0 * a, 1.0), flat if flat.any() else None)


# Lookups over at most this many keys count them, one comparison pass per
# key into a uint8 counter (so at most 255); longer ones call
# np.searchsorted, whose cost grows with log(keys).  The switch depends on
# the table alone.  Measured per 2**15 uniform draws (2-CPU Xeon VM, NumPy
# 2.4.6): the lookup alone took 8 us counting and 0.28 ms searching at 1
# key, 0.26 and 1.2 ms at 40, 1.7 and 2.7 ms at 255; the whole discrete
# sampler took 0.88 ms counting and 2.0 ms searching at 128 keys and broke
# even near 230, the piecewise one 1.5 and 2.6 ms at 128 and 2.3 and 2.8
# ms at 255.
_COUNTED_KEYS = 128


def _count_at_or_below(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per x, the number of sorted keys <= x, and len(keys) for a NaN x:
    np.searchsorted(keys, x, side="right"), as an intp array."""
    if len(keys) > _COUNTED_KEYS:
        return np.searchsorted(keys, x, side="right")
    # len(keys) less the keys above x: a NaN x is above none.
    count = np.full(x.shape, len(keys), dtype=np.uint8)
    above = np.empty(x.shape, dtype=bool)
    for key in keys.tolist():
        np.less(x, key, out=above)
        count -= above.view(np.uint8)
    return count.astype(np.intp)


def sample_productivities(dist: ProductivityDistribution, u: np.ndarray) -> np.ndarray:
    """Map uniform draws u in [0, 1) to productivities by inverse CDF.

    Each draw is mapped on its own, so the result for one draw does not
    depend on the others in u.  A draw's atom or segment is the number of
    interior CDF breakpoints at or below it (_count_at_or_below).
    """
    u = np.asarray(u, dtype=np.float64)
    if dist.kind == "uniform":
        return dist.support_low + u * (dist.support_high - dist.support_low)
    if dist.kind == "discrete":
        keys, thetas = dist._inverse
        return thetas[_count_at_or_below(keys, np.ravel(u))].reshape(u.shape)[()]
    # piecewise: invert the per-segment quadratic CDF, a s^2 + d0 s = rem,
    # for the offset s in [0, h] of each draw into its segment.
    keys, cum, x0, h, a4, d0, d0sq, a2, flat = dist._inverse
    rem = np.ravel(u) * cum[-1]
    seg = _count_at_or_below(keys, rem)
    rem -= cum[seg]
    if flat is not None:
        # Flat segments take rem / d0 instead; their quadratic values, which
        # may overflow or be nan, are overwritten.
        lin = flat[seg]
        rl, dl = rem[lin], d0[seg[lin]]
    with np.errstate(all="ignore"):
        s = _quadratic_offset(rem, seg, a4, d0, d0sq, a2)
        if flat is not None:
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
