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

import numpy as np

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


def _accumulators(names):
    return {n: np.zeros(3) for n in names}  # count, sum, sum of squares


def _add(acc, name, theta: np.ndarray) -> None:
    a = acc[name]
    a[0] += theta.size
    a[1] += theta.sum()
    a[2] += (theta * theta).sum()


def _two_period_chunk(cfg, start, stop, acc, profit_acc):
    w = cfg.wages
    draws = _chunk_draws(cfg, start, stop, 2)
    theta = sample_productivities(cfg.dist, draws[:, 0])
    leave = (theta < w["w1"]) | (draws[:, 1] < cfg.mu)
    _add(acc, "", theta)
    _add(acc, "L", theta[leave])
    _add(acc, "S", theta[~leave])
    profit = (theta - w["w0"]) + np.where(leave, 0.0, theta - w["w1"])
    profit_acc[0] += profit.size
    profit_acc[1] += profit.sum()
    profit_acc[2] += (profit * profit).sum()


def _three_period_chunk(cfg, start, stop, acc, profit_acc, rehire_acc):
    w = cfg.wages
    draws = _chunk_draws(cfg, start, stop, 3)
    theta = sample_productivities(cfg.dist, draws[:, 0])
    left1 = (theta < w["w_plus"]) | (draws[:, 1] < cfg.mu)
    stayed = ~left1
    left2_s = (theta < w["w2"]) | (draws[:, 2] < cfg.mu)
    left2_l = (theta < w["w2p"]) | (draws[:, 2] < cfg.mu)
    _add(acc, "", theta)
    _add(acc, "L", theta[left1])
    _add(acc, "S", theta[stayed])
    _add(acc, "SL", theta[stayed & left2_s])
    _add(acc, "SS", theta[stayed & ~left2_s])
    _add(acc, "LL", theta[left1 & left2_l])
    _add(acc, "LS", theta[left1 & ~left2_l])
    kept = stayed & ~left2_s
    profit = ((theta - w["w0"])
              + np.where(stayed, theta - w["w_plus"], 0.0)
              + np.where(kept, theta - w["w2"], 0.0))
    profit_acc[0] += profit.size
    profit_acc[1] += profit.sum()
    profit_acc[2] += (profit * profit).sum()
    rehired = left1 & ~left2_l
    rehire = (np.where(left1, theta - w["w1"], 0.0)
              + np.where(rehired, theta - w["w2p"], 0.0))
    rehire_acc[0] += left1.sum()  # per released worker
    rehire_acc[1] += rehire.sum()


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

    Cohort names are history strings ("" entry, then "S"/"L" per review
    round).  break_even_wage is filled for market-hired cohorts: the
    terminal markets break even at their own cohort mean, the earlier
    hirers at the wage that zeroes their multi-period book given the later
    wages in cfg.wages.
    """
    names = (("", "L", "S") if cfg.regime == TWO_PERIOD
             else ("", "L", "S", "SL", "SS", "LL", "LS"))
    acc = _accumulators(names)
    profit_acc = np.zeros(3)
    rehire_acc = np.zeros(2)
    for start in range(0, cfg.n_agents, _CHUNK):
        stop = min(start + _CHUNK, cfg.n_agents)
        if cfg.regime == TWO_PERIOD:
            _two_period_chunk(cfg, start, stop, acc, profit_acc)
        else:
            _three_period_chunk(cfg, start, stop, acc, profit_acc, rehire_acc)

    n = cfg.n_agents
    w = cfg.wages
    markets = []
    for name in names:
        mean, half = _mean_stats(acc[name])
        be = _break_even(cfg, acc, name)
        markets.append(MarketStats(
            name=name, count=int(acc[name][0]), mass_share=float(acc[name][0]) / n,
            mean=mean, mean_halfwidth=half,
            break_even_wage=None if be is None else float(be)))
    p_mean, p_half = _mean_stats(profit_acc)
    rehire_pc = None
    if cfg.regime == THREE_PERIOD:
        rehire_pc = float(rehire_acc[1]) / rehire_acc[0] if rehire_acc[0] > 0 else 0.0
    return SimulationReport(
        config_seed=cfg.seed, regime=cfg.regime, mu=cfg.mu, n_agents=n,
        wages=dict(w), markets=tuple(markets),
        profit_per_capita=float(p_mean), profit_halfwidth=p_half,
        rehire_profit_per_capita=rehire_pc)


def _break_even(cfg: SimulationConfig, acc, name: str) -> float | None:
    """Wage at which the firms hiring this cohort break even empirically."""
    w = cfg.wages
    n0 = acc[""][0]

    def mean(nm):
        return float(acc[nm][1]) / acc[nm][0] if acc[nm][0] > 0 else None

    if name == "":
        if cfg.regime == TWO_PERIOD:
            stay = acc["S"]
            if n0 == 0:
                return None
            extra = (stay[1] - stay[0] * w["w1"]) / n0
            return mean("") + extra if mean("") is not None else None
        stay, kept = acc["S"], acc["SS"]
        extra = ((stay[1] - stay[0] * w["w_plus"]) + (kept[1] - kept[0] * w["w2"])) / n0
        return mean("") + extra
    if name == "L":
        if cfg.regime == TWO_PERIOD:
            return mean("L")
        if acc["L"][0] == 0:
            return None
        rehired = acc["LS"]
        return (acc["L"][1] + rehired[1] - rehired[0] * w["w2p"]) / acc["L"][0]
    if name in ("SL", "LL"):
        return mean(name)
    return None  # retained cohorts are not market-hired


def empirical_zero_profit(cfg: SimulationConfig) -> float:
    """Per-capita profit of the entry employers at the configured wages.

    The analytic zero-profit condition says this vanishes at the solved
    wages; feeding perturbed wages moves it linearly (an entry-wage bump
    of d shifts the result by exactly -d).
    """
    return simulate(cfg).profit_per_capita
