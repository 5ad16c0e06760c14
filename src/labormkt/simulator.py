"""Agent-based replay of the hiring/firing/quitting process.

The analytic solvers work with continuous pools; this module samples
actual workers and runs the model forward — everyone below the review
wage is released, everyone else tosses a mu-coin — then routes each
worker to a sub-market by their employment history and compares the
empirical cohort statistics against the analytic ones.

Randomness is counter-based (Philox keyed by the seed): worker i always
consumes the same fixed slice of the stream, so every worker's draws,
productivity and route, and so every cohort's head count, do not depend on
how the population is chunked.  Float sums do: each 2**18-worker chunk is
reduced on its own and the chunk sums are added in chunk index order.
Chunks are replayed on a thread pool, one thread per CPU this process may
run on (at most two, which bounds memory), and the fold keeps that order,
so reports are byte-identical for any number of threads.

Within a chunk, every per-worker step runs on blocks of 2**15 workers,
which stay in cache.  A first pass over the draw blocks samples the
productivities (pools.sample_productivities) into one chunk-length array
theta and fills one chunk-length 0/1 mask per cohort.  Each cohort is then
gathered block by block into one reused chunk-length buffer, where its sum
and sum of squares are taken; each hirer's profit book is then written
block by block into the same buffer and summed there.  So every sum runs
over one whole contiguous array (theta itself for the entry cohort) that
holds what a whole-chunk replay would sum, and its bits do not depend on
the block size.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .multiperiod import LEFT, REGIMES, STAYED, _break_even, _kept, wage_schedule
from .pools import (ProductivityDistribution, _check_count, _check_mu, _is_real,
                    sample_productivities)

__all__ = [
    "TWO_PERIOD",
    "THREE_PERIOD",
    "SimulationConfig",
    "MarketStats",
    "SimulationReport",
    "simulate",
]

TWO_PERIOD = "two_period"
THREE_PERIOD = "three_period"
# The regimes the replay runs: those with a wage schedule.
_REPLAYED = sorted(r for r, (_, wages) in REGIMES.items() if wages)
# The chunk size fixes the float summation order; see the module docstring.
_CHUNK = 1 << 18
# A chunk's per-worker steps run this many workers at a time, so that their
# operands stay in cache and a chunk in flight holds no whole-chunk
# temporaries.  Any size gives the same draws, since the chunk reads one
# Philox stream in order, and the same sums (see the module docstring).
_BLOCK = 1 << 15


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


# Threads that replay chunks: the CPUs this process may run on, at most two.
# Each chunk in flight holds about 6 MB, so memory sets the cap: perfbench
# crosscheck (seed 1) peaks at 53 MB with one thread, 59 MB with two, 73 MB
# with four and 99 MB with eight.
_WORKERS = min(2, _usable_cpus())


@dataclass(frozen=True)
class SimulationConfig:
    """One Monte Carlo run: population, randomness, and the wages to test.

    wages holds exactly the wages the regime is priced by
    (multiperiod.REGIMES), each kept as a Python float.
    """

    n_agents: int
    seed: int
    regime: str
    dist: ProductivityDistribution
    mu: float
    wages: dict = field(default_factory=dict)

    def __post_init__(self):
        # A float seed would key Philox with its integer part, and a bool
        # would run as 0 or 1, so both must be integers proper.
        _check_count("n_agents", self.n_agents, 1)
        _check_count("seed", self.seed, 0, 2 ** 64 - 1)  # Philox takes 64 bits
        if not isinstance(self.regime, str) or self.regime not in _REPLAYED:
            raise ValueError(f"regime must be one of {_REPLAYED}")
        if not isinstance(self.dist, ProductivityDistribution):
            raise ValueError(f"dist must be a ProductivityDistribution, not {self.dist!r}")
        object.__setattr__(self, "mu", _check_mu(self.mu))
        if not isinstance(self.wages, Mapping):
            raise ValueError(f"wages must map wage names to values, not {self.wages!r}")
        names = REGIMES[self.regime][1]
        missing = [k for k in names if k not in self.wages]
        if missing:
            raise ValueError(f"wages missing for this regime: {missing}")
        unread = [k for k in self.wages if k not in names]
        if unread:
            raise ValueError(f"wages this regime does not read: {unread}")
        bad = [k for k, v in self.wages.items() if not (_is_real(v) and math.isfinite(v))]
        if bad:
            raise ValueError(f"wages must be finite real numbers: {bad}")
        # Python floats, as mu is: a NumPy scalar would reach the report.
        object.__setattr__(self, "wages", {k: float(v) for k, v in self.wages.items()})


@dataclass(frozen=True)
class MarketStats:
    """Empirical statistics of one history cohort.

    mean and mean_halfwidth are None for empty cohorts; break_even_wage is
    None for cohorts that are retained rather than hired on a market.
    """

    name: str
    count: int
    mass_share: float
    mean: float | None
    mean_halfwidth: float | None
    break_even_wage: float | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "count": self.count, "mass_share": self.mass_share,
                "mean": self.mean, "mean_halfwidth": self.mean_halfwidth,
                "break_even_wage": self.break_even_wage}


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated outcome of one simulation run."""

    config_seed: int
    regime: str
    mu: float
    n_agents: int
    wages: dict
    markets: tuple[MarketStats, ...]
    profit_per_capita: float
    profit_halfwidth: float | None
    rehire_profit_per_capita: float | None = None

    def market(self, name: str) -> MarketStats:
        for m in self.markets:
            if m.name == name:
                return m
        raise KeyError(f"no cohort named {name!r}")

    def to_dict(self) -> dict:
        return {"config_seed": self.config_seed, "regime": self.regime,
                "mu": self.mu, "n_agents": self.n_agents, "wages": dict(self.wages),
                "markets": [m.to_dict() for m in self.markets],
                "profit_per_capita": self.profit_per_capita,
                "profit_halfwidth": self.profit_halfwidth,
                "rehire_profit_per_capita": self.rehire_profit_per_capita}


# =====================================================================
# Core replay
# =====================================================================

def _chunk_draws(cfg: SimulationConfig, start: int, stop: int, cols: int):
    """Uniform draws for workers [start, stop), _BLOCK workers at a time.

    Yields (rows, draws) pairs in order, where draws[i] holds the cols draws
    of worker start + rows.start + i.  Worker i owns doubles
    [i*cols, (i+1)*cols) of the keyed Philox stream.  One generator is keyed
    and advanced to the chunk start, then read block after block; each read
    continues the stream where the last one stopped, so a block may end
    inside one of Philox's 4-draw counter blocks.  Philox.advance counts
    those counter blocks, so only the chunk start must sit on a boundary:
    guaranteed because _CHUNK is a multiple of 4.  The draws array is
    overwritten by the next block.
    """
    offset = start * cols
    if offset % 4:
        raise ValueError("chunk start must align to the 4-draw Philox block")
    bg = np.random.Philox(key=cfg.seed)
    bg.advance(offset // 4)
    gen = np.random.Generator(bg)
    buf = np.empty((min(_BLOCK, stop - start), cols))
    for lo in range(0, stop - start, _BLOCK):
        rows = slice(lo, min(lo + _BLOCK, stop - start))
        draws = buf[:rows.stop - lo]
        gen.random(out=draws)
        yield rows, draws


def _stats(x: np.ndarray, count: int, squares: np.ndarray) -> tuple[int, float, float]:
    """count, sum and sum of squares of x; the squares overwrite `squares`,
    an array of x's length that may be x itself."""
    total = x.sum()
    np.multiply(x, x, out=squares)
    return count, total, squares.sum()


def _route(cfg, thresholds, cols, start, stop):
    """The first pass of _replay_chunk, over the draw blocks: returns the
    productivities theta of workers [start, stop), the 0/1 mask of each
    cohort (None for the entry cohort "": every worker) and the blocks."""
    n = stop - start
    theta = np.empty(n)
    masks = {"": None}
    masks.update((h + step, np.empty(n, dtype=bool))
                 for h in thresholds for step in (LEFT, STAYED))
    quits = np.empty((cols - 1, min(_BLOCK, n)), dtype=bool)  # quits[c]: column c + 1
    blocks = []
    for rows, draws in _chunk_draws(cfg, start, stop, cols):
        blocks.append(rows)
        th, q = theta[rows], quits[:, :len(draws)]
        th[:] = sample_productivities(cfg.dist, draws[:, 0])
        np.less(draws[:, 1:].T, cfg.mu, out=q)
        for h, t in thresholds.items():  # parents come before their children
            left, stayed, parent = masks[h + LEFT][rows], masks[h + STAYED][rows], masks[h]
            np.less(th, t, out=left)
            left |= q[len(h)]  # every worker who would leave at this review
            if parent is None:
                np.logical_not(left, out=stayed)
            else:
                left &= parent[rows]
                np.logical_xor(parent[rows], left, out=stayed)  # parent and not left
    return theta, masks, blocks


def _replay_chunk(cfg, thresholds, pay, hirers, start, stop):
    """Replay workers [start, stop) through every review round.

    A cohort with history h is reviewed at thresholds[h] against coin
    column len(h) + 1, which all of that round's cohorts share.  Returns
    the (count, sum, sum of squares) of each cohort's productivities, and
    of each market hirer's (each history in hirers) profit per worker over
    its own cohort and the cohorts it keeps.

    The first pass (_route) and every later step run on the draw blocks
    of _chunk_draws; each sum runs over a whole chunk-length array (see
    the module docstring).

    A hirer's profit book is theta - pay times each cohort's 0/1 mask,
    summed over the cohorts.  A worker outside a cohort adds
    (theta - pay) * 0, which is -0.0 where theta < pay: a nonzero partial
    sum is unchanged by it, and NumPy's sum of zeros is +0.0, so the sums
    are those of books that store +0.0 outside the cohorts.
    """
    n = stop - start
    theta, masks, blocks = _route(cfg, thresholds, max(map(len, pay)) + 1, start, stop)
    buf = np.empty(n)
    cohorts = {}
    for h in pay:
        if masks[h] is None:
            cohorts[h] = _stats(theta, n, buf)
            continue
        size = 0
        for rows in blocks:
            part = masks[h][rows]
            taken = np.count_nonzero(part)
            np.compress(part, theta[rows], out=buf[size:size + taken])
            size += taken
        cohorts[h] = _stats(buf[:size], size, buf[:size])
    d = np.empty(min(_BLOCK, n))
    books = {}
    for h in hirers:
        kept = _kept(h, pay)
        for rows in blocks:
            th, profit = theta[rows], buf[rows]
            dk = d[:len(th)]
            np.subtract(th, pay[h], out=profit)
            if masks[h] is not None:
                profit *= masks[h][rows]
            for k in kept:
                np.subtract(th, pay[k], out=dk)
                dk *= masks[k][rows]
                profit += dk
        books[h] = _stats(buf, cohorts[h][0], buf)
    return cohorts, books


def _mean_stats(a: np.ndarray) -> tuple[float | None, float | None]:
    n = int(a[0])
    if n == 0:
        return None, None
    mean = float(a[1]) / n
    if n < 2:
        return mean, None
    var = max(0.0, (float(a[2]) - n * mean * mean) / (n - 1))
    return mean, 1.96 * math.sqrt(var / n)


def simulate(cfg: SimulationConfig) -> SimulationReport:
    """Run the full replay and aggregate per-cohort statistics.

    Workers are routed and paid by multiperiod.wage_schedule, as in
    ThreePeriodSolution.tree().  Cohort names are history strings (""
    entry, then "S"/"L" per review round); the rehire profit is None when
    the released cohort "L" is not reviewed again.
    """
    # Imported here, so that importing the package does not load the
    # thread-pool module (about 0.3 MB) for runs that never simulate.
    from concurrent.futures import ThreadPoolExecutor

    thresholds, pay = wage_schedule(REGIMES[cfg.regime][0], cfg.wages)
    # Market hirers: the entry cohort and every released one that is reviewed.
    hirers = [h for h in thresholds if not h.endswith(STAYED)]
    acc = {h: np.zeros(3) for h in pay}
    books = {h: np.zeros(3) for h in hirers}
    starts = range(0, cfg.n_agents, _CHUNK)  # never empty: n_agents >= 1

    def replay(start):
        return _replay_chunk(cfg, thresholds, pay, hirers, start,
                             min(start + _CHUNK, cfg.n_agents))

    with ThreadPoolExecutor(min(_WORKERS, len(starts))) as pool:
        # map yields in chunk index order, whatever order chunks finish in.
        for cohorts, profits in pool.map(replay, starts):
            for totals, chunk in ((acc, cohorts), (books, profits)):
                for h, a in totals.items():
                    a += chunk[h]

    n = cfg.n_agents
    markets = []
    for h, a in acc.items():
        mean, half = _mean_stats(a)
        be = _break_even(h, mean, acc, pay)
        markets.append(MarketStats(
            name=h, count=int(a[0]), mass_share=float(a[0]) / n,
            mean=mean, mean_halfwidth=half,
            break_even_wage=None if be is None else float(be)))
    p_mean, p_half = _mean_stats(books[""])
    rehire_pc = (_mean_stats(books[LEFT])[0] or 0.0) if LEFT in books else None
    return SimulationReport(
        config_seed=cfg.seed, regime=cfg.regime, mu=cfg.mu, n_agents=n,
        wages=dict(cfg.wages), markets=tuple(markets),
        profit_per_capita=p_mean, profit_halfwidth=p_half,
        rehire_profit_per_capita=rehire_pc)
