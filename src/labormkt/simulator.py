"""Agent-based replay of the hiring/firing/quitting process.

The analytic solvers work with continuous pools; this module samples
actual workers and runs the model forward — everyone below the review
wage is released, everyone else tosses a mu-coin — then routes each
worker to a sub-market by their employment history and compares the
empirical cohort statistics against the analytic ones.

Randomness is counter-based (Philox keyed by the seed): worker i always
consumes the same fixed slice of the stream, so the report is identical
no matter how the population is chunked or how many processes share the
work.  Chunks are combined in index order, making float accumulation
reproducible too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .multiperiod import LEFT, STAYED, wage_schedule
from .pools import ProductivityDistribution, sample_productivities

__all__ = [
    "TWO_PERIOD",
    "THREE_PERIOD",
    "SimulationConfig",
    "MarketStats",
    "SimulationReport",
    "simulate",
    "empirical_zero_profit",
]

TWO_PERIOD = "two_period"
THREE_PERIOD = "three_period"

_REQUIRED_WAGES = {TWO_PERIOD: ("w0", "w1"),
                   THREE_PERIOD: ("w0", "w1", "w_plus", "w2", "w2p")}
_PERIODS = {TWO_PERIOD: 2, THREE_PERIOD: 3}
_CHUNK = 1 << 18


@dataclass(frozen=True)
class SimulationConfig:
    """One Monte Carlo run: population, randomness, and the wages to test."""

    n_agents: int
    seed: int
    regime: str
    dist: ProductivityDistribution
    mu: float
    wages: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("n_agents must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.regime not in _REQUIRED_WAGES:
            raise ValueError(f"regime must be one of {sorted(_REQUIRED_WAGES)}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        missing = [k for k in _REQUIRED_WAGES[self.regime] if k not in self.wages]
        if missing:
            raise ValueError(f"wages missing for this regime: {missing}")
        bad = [k for k, v in self.wages.items() if not math.isfinite(v)]
        if bad:
            raise ValueError(f"wages must be finite real numbers: {bad}")


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

def _chunk_draws(cfg: SimulationConfig, start: int, stop: int, cols: int) -> np.ndarray:
    """Uniform draws for workers [start, stop): row i is worker start+i.

    Worker i owns doubles [i*cols, (i+1)*cols) of the keyed Philox stream.
    Philox.advance counts 4-draw counter blocks, so chunk starts must sit
    on a block boundary — guaranteed because _CHUNK is a multiple of 4.
    """
    offset = start * cols
    if offset % 4:
        raise ValueError("chunk start must align to the 4-draw Philox block")
    bg = np.random.Philox(key=cfg.seed)
    bg.advance(offset // 4)
    return np.random.Generator(bg).random((stop - start, cols))


def _add(a: np.ndarray, x: np.ndarray, count: int) -> None:
    a[0] += count  # count, sum, sum of squares
    a[1] += x.sum()
    a[2] += (x * x).sum()


def _kept(h: str, pay: dict) -> list[str]:
    """The cohorts the employers hiring h go on paying: hS, hSS, ..."""
    return [h + STAYED * i for i in range(1, max(map(len, pay)) + 1) if h + STAYED * i in pay]


def _replay_chunk(cfg, thresholds, pay, start, stop, acc, books):
    """Replay workers [start, stop) through every review round.

    A cohort with history h is reviewed at thresholds[h] against coin
    column len(h) + 1, which all of that round's cohorts share.  acc
    gathers each cohort's productivities; books each market hirer's
    profit per worker over its own cohort and the cohorts it keeps.
    """
    draws = _chunk_draws(cfg, start, stop, max(map(len, pay)) + 1)
    theta = sample_productivities(cfg.dist, draws[:, 0])
    masks = {"": None}  # None: every worker
    for h, t in thresholds.items():  # parents come before their children
        leave = (theta < t) | (draws[:, len(h) + 1] < cfg.mu)
        parent = masks[h]
        masks[h + LEFT] = leave if parent is None else parent & leave
        masks[h + STAYED] = ~leave if parent is None else parent & ~leave
    counts = {}
    for h, a in acc.items():
        cohort = theta if masks[h] is None else theta[masks[h]]
        counts[h] = cohort.size
        _add(a, cohort, counts[h])
    for h, a in books.items():
        profit = (theta - pay[h] if masks[h] is None
                  else np.where(masks[h], theta - pay[h], 0.0))
        for k in _kept(h, pay):
            profit += np.where(masks[k], theta - pay[k], 0.0)
        _add(a, profit, counts[h])


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
    thresholds, pay = wage_schedule(_PERIODS[cfg.regime], cfg.wages)
    acc = {h: np.zeros(3) for h in pay}
    books = {h: np.zeros(3) for h in thresholds if not h.endswith(STAYED)}
    for start in range(0, cfg.n_agents, _CHUNK):
        _replay_chunk(cfg, thresholds, pay, start, min(start + _CHUNK, cfg.n_agents),
                      acc, books)

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


def _break_even(h: str, mean: float | None, acc, pay) -> float | None:
    """Wage at which the firms hiring cohort h break even empirically.

    The terminal markets break even at their own cohort mean; the earlier
    hirers at that mean plus what the cohorts they keep earn above their
    pay, per hire.  None for retained and empty cohorts.
    """
    if h.endswith(STAYED) or mean is None:
        return None
    terms = [acc[k][1] - acc[k][0] * pay[k] for k in _kept(h, pay)]
    if not terms:
        return mean
    return mean + reduce(add, terms) / acc[h][0]


def empirical_zero_profit(cfg: SimulationConfig) -> float:
    """Per-capita profit of the entry employers at the configured wages.

    The analytic zero-profit condition says this vanishes at the solved
    wages; feeding perturbed wages moves it linearly (an entry-wage bump
    of d shifts the result by exactly -d).
    """
    return simulate(cfg).profit_per_capita
