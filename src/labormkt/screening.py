"""Slice-by-slice productivity screening of a uniform worker pool.

A firm watching a worker for t trial periods can place them inside one of
n equal slices of the productivity support, revealing the slices from the
bottom up, one per period.  Workers revealed below the pool average get
fired.  The quantities here answer: after m trial periods, what fraction
of the survivors is still below average, and how many periods would it
take to push that fraction to zero?
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRangeError
from .pools import _check_count, _is_integer, _is_real, _require_finite

__all__ = [
    "ScreeningConfig",
    "distinguishable_interval",
    "residual_below_average_probability",
    "critical_assessment_periods",
]


@dataclass(frozen=True)
class ScreeningConfig:
    """Assessment technology: n_total slices, m_allowed trial periods."""

    n_total: int
    m_allowed: int
    theta_low: float = 0.0
    theta_high: float = 1.0

    def __post_init__(self):
        _check_count("n_total", self.n_total, 1)
        _check_count("m_allowed", self.m_allowed, 0, self.n_total)
        if not (_is_real(self.theta_low) and _is_real(self.theta_high)):
            raise ValueError("theta_low and theta_high must be real numbers")
        _require_finite((self.theta_low, self.theta_high), "theta_low and theta_high")
        if not self.theta_low < self.theta_high:
            raise ValueError("support must have positive width")


def distinguishable_interval(t: int, cfg: ScreeningConfig) -> tuple[float, float]:
    """Productivity slice a worker can be placed in after trial period t.

    Slices count from the bottom: slice t covers
    [low + t/n * width, low + (t+1)/n * width].  t must be an integer, not
    a bool (ValueError); one outside 0..n-1 raises OutOfRangeError.
    """
    if not _is_integer(t):
        raise ValueError(f"slice index must be an integer, not {t!r}")
    if not 0 <= t < cfg.n_total:
        raise OutOfRangeError(f"slice index {t} outside 0..{cfg.n_total - 1}")
    width = cfg.theta_high - cfg.theta_low
    n = cfg.n_total
    return (cfg.theta_low + width * t / n, cfg.theta_low + width * (t + 1) / n)


def residual_below_average_probability(cfg: ScreeningConfig) -> float:
    """P(a surviving worker is below the pool average) after m periods.

    With a uniform pool, m periods reveal the bottom m/n of the support and
    everyone revealed below the midpoint average is dismissed.  Survivors
    are the unrevealed workers plus the revealed-but-above-average ones, so
    the below-average survivors are the slice between m/n and 1/2 (empty
    once m/n reaches 1/2):

        p = max(0, 1/2 - m/n) / (1 - min(m/n, 1/2))
    """
    ratio = cfg.m_allowed / cfg.n_total
    num = max(0.0, 0.5 - ratio)
    den = 1.0 - min(ratio, 0.5)
    return num / den


def critical_assessment_periods(m: int) -> int:
    """Largest slice count n at which m trial periods still clear every
    below-average worker (residual probability exactly zero).

    Zero residual needs m/n >= 1/2, i.e. n <= 2m.  m must be an integer
    >= 0, not a bool.
    """
    _check_count("m", m, 0)
    return 2 * m
