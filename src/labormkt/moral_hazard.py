"""Discrete principal–agent contracts: first-best vs second-best.

A principal offers a sharing rule (a wage per observable outcome) to an
agent who privately chooses an effort level.  Outcomes, efforts and wages
all live on finite grids, so both programs are solved by exhaustive
enumeration of every wage rule and are exact:

* first-best: the effort is contractible, so the rule/effort pair only
  has to clear the agent's participation bar;
* second-best: the effort must additionally be the agent's own best
  response to the rule (ties broken in the principal's favor, the usual
  convention).

Second-best optimizes over a subset of the first-best's feasible set, so
the value gap is nonnegative; it is zero whenever the outcome
distribution does not react to effort (paying flat removes the incentive
problem at no cost) or the action set is a singleton.

An instance with more than ``_ENUMERATION_BUDGET`` wage rules (wage levels
to the power of outcomes) is refused with a ValueError when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError

__all__ = [
    "UtilitySpec",
    "ContractProblem",
    "ContractSolution",
    "GapReport",
    "default_wage_grid",
    "solve_first_best",
    "solve_second_best",
    "welfare_gap",
]

_ENUMERATION_BUDGET = 10_000_000
# Efforts x rules evaluated per array pass: keeps each per-chunk value
# table at 256 KB whatever the number of efforts.  Megabyte tables raised
# the benchmark's peak RSS; smaller ones only add per-pass overhead.
_CHUNK_VALUES = 1 << 15
_IR_TOL = 1e-12


# =====================================================================
# Utility families
# =====================================================================

@dataclass(frozen=True)
class UtilitySpec:
    """A one-parameter utility family evaluated pointwise.

    family is one of ``"linear"`` (u(s) = s), ``"sqrt"``, ``"log1p"``
    (u(s) = ln(1 + s)) or ``"crra"`` with coefficient `param` = gamma in
    [0, 1): u(s) = s**(1-gamma) / (1-gamma).  All are increasing and
    concave on s >= 0.  For payoffs that can go negative (a principal's
    net), the curved families extend linearly below zero so losses are
    penalized at least one-for-one.
    """

    family: str = "linear"
    param: float = 0.0

    def __post_init__(self):
        if self.family not in ("linear", "sqrt", "log1p", "crra"):
            raise ValueError(f"unknown utility family {self.family!r}")
        if self.family == "crra" and not 0.0 <= self.param < 1.0:
            raise ValueError("crra coefficient must lie in [0, 1)")

    def __call__(self, s: float) -> float:
        if self.family == "linear":
            return s
        if s < 0.0:
            return s  # linear extension below zero
        if self.family == "sqrt":
            return math.sqrt(s)
        if self.family == "log1p":
            return math.log1p(s)
        g = self.param
        if g == 0.0:
            return s
        return s ** (1.0 - g) / (1.0 - g)


def _check_rule_count(n_levels: int, n_outcomes: int) -> None:
    """Refuse more than _ENUMERATION_BUDGET wage rules (n_levels ** n_outcomes).

    Multiplies one outcome at a time and stops once over the budget, so a
    huge level count never builds a huge integer.
    """
    rules = 1
    for _ in range(n_outcomes):
        rules *= n_levels
        if rules > _ENUMERATION_BUDGET:
            raise ValueError(f"{n_levels} wage levels over {n_outcomes} outcomes exceed the "
                             f"budget of {_ENUMERATION_BUDGET:,} wage rules")


def default_wage_grid(outcomes, n_levels: int = 21) -> tuple[float, ...]:
    """Evenly spaced wage levels from 0 to the largest outcome."""
    if n_levels < 2:
        raise ValueError(f"a wage grid needs at least 2 wage levels (got {n_levels})")
    _check_rule_count(n_levels, len(outcomes))
    top = max(outcomes)
    if top <= 0.0:
        raise ValueError("outcomes must include a positive value to span a wage grid")
    return tuple(top * k / (n_levels - 1) for k in range(n_levels))


# =====================================================================
# Problem statement
# =====================================================================

@dataclass(frozen=True)
class ContractProblem:
    """One discrete contracting instance.

    density[i] is the outcome distribution under effort i (rows sum to
    one); effort_costs[i] is the agent's disutility of effort i, required
    non-decreasing in the effort index.  The agent accepts a rule only if
    its expected utility net of effort cost reaches `reservation`.
    """

    outcomes: tuple[float, ...]
    efforts: tuple[float, ...]
    density: tuple[tuple[float, ...], ...]
    effort_costs: tuple[float, ...]
    agent_utility: UtilitySpec = UtilitySpec("sqrt")
    principal_utility: UtilitySpec = UtilitySpec("linear")
    reservation: float = 0.0
    wage_grid: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(float(x) for x in self.outcomes))
        object.__setattr__(self, "efforts", tuple(float(a) for a in self.efforts))
        object.__setattr__(self, "density",
                           tuple(tuple(float(f) for f in row) for row in self.density))
        object.__setattr__(self, "effort_costs", tuple(float(c) for c in self.effort_costs))
        if not self.outcomes:
            raise ValueError("need at least one outcome")
        if not self.efforts:
            raise ValueError("need at least one effort level")
        if any(b <= a for a, b in zip(self.efforts, self.efforts[1:])):
            raise ValueError("efforts must be strictly increasing")
        if len(self.density) != len(self.efforts):
            raise ValueError("need one outcome distribution per effort")
        for row in self.density:
            if len(row) != len(self.outcomes):
                raise ValueError("each outcome distribution must cover every outcome")
            if any(f < 0.0 for f in row):
                raise ValueError("outcome probabilities must be nonnegative")
            if abs(sum(row) - 1.0) > 1e-12:
                raise ValueError("each effort's outcome probabilities must sum to 1")
        if len(self.effort_costs) != len(self.efforts):
            raise ValueError("need one effort cost per effort")
        if any(c1 < c0 for c0, c1 in zip(self.effort_costs, self.effort_costs[1:])):
            raise ValueError("effort costs must be non-decreasing")
        if not self.wage_grid:
            object.__setattr__(self, "wage_grid", default_wage_grid(self.outcomes))
        else:
            _check_rule_count(len(self.wage_grid), len(self.outcomes))
            object.__setattr__(self, "wage_grid", tuple(float(w) for w in self.wage_grid))
        grid = self.wage_grid
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("wage grid must be strictly increasing")
        u = self.agent_utility
        us = [u(w) for w in grid]
        if any(u1 <= u0 for u0, u1 in zip(us, us[1:])):
            raise ValueError("agent utility must be strictly increasing on the wage grid")
        seconds = [(u2 - u1) / (w2 - w1) - (u1 - u0) / (w1 - w0)
                   for (w0, w1, w2), (u0, u1, u2)
                   in zip(zip(grid, grid[1:], grid[2:]), zip(us, us[1:], us[2:]))]
        if any(s > 1e-9 for s in seconds):
            raise ValueError("agent utility must be concave on the wage grid")


@dataclass(frozen=True)
class ContractSolution:
    """A solved contract: the rule, the implemented effort, both values."""

    rule: tuple[float, ...]
    effort_index: int
    effort: float
    principal_value: float
    agent_value: float
    kind: str  # "first_best" | "second_best"

    def to_dict(self) -> dict:
        return {"rule": list(self.rule), "effort_index": self.effort_index,
                "effort": self.effort, "principal_value": self.principal_value,
                "agent_value": self.agent_value, "kind": self.kind}


@dataclass(frozen=True)
class GapReport:
    """First-best vs second-best comparison for one instance."""

    first_best: ContractSolution
    second_best: ContractSolution

    @property
    def gap(self) -> float:
        return self.first_best.principal_value - self.second_best.principal_value

    @property
    def effort_reduced(self) -> bool:
        """True when hiding the effort lowers the implemented effort."""
        return self.second_best.effort < self.first_best.effort

    def __float__(self) -> float:
        return self.gap

    def to_dict(self) -> dict:
        return {"first_best": self.first_best.to_dict(),
                "second_best": self.second_best.to_dict(),
                "gap": self.gap, "effort_reduced": self.effort_reduced}


# =====================================================================
# Solvers
# =====================================================================

def solve_first_best(p: ContractProblem) -> ContractSolution:
    """Best rule/effort pair subject only to the agent's participation bar.

    Every wage-grid rule is crossed with every effort and the first strict
    improvement wins, so the lexicographically earliest optimal rule is
    returned.
    """
    return _solve(p, incentive=False)


def solve_second_best(p: ContractProblem) -> ContractSolution:
    """Best rule when the effort must be the agent's own best response."""
    return _solve(p, incentive=True)


def welfare_gap(p: ContractProblem) -> GapReport:
    """First-best minus second-best principal value (never negative).

    The report also says whether the implemented effort dropped, which is
    the real cost of the hidden action: at any given rule the agent
    under-supplies effort relative to what a contractible-effort deal
    would pick.
    """
    return GapReport(first_best=solve_first_best(p),
                     second_best=solve_second_best(p))




def _solve(p: ContractProblem, incentive: bool) -> ContractSolution:
    """Enumerate every wage rule for the best admissible (rule, effort) pair.

    An effort is admissible when the agent accepts it and, with
    `incentive`, when it is also the agent's best response (ties go to the
    principal's best, then to the lower effort index).  Rules are evaluated
    in chunks, in lexicographic order; outcome terms are summed in
    ascending outcome order from zero and only a strict improvement
    replaces the best so far, so the values equal those of a scalar loop
    over the same rules bit for bit, and ties go to the earlier effort and
    the earlier rule.
    """
    grid = p.wage_grid
    agent_u = np.array([p.agent_utility(w) for w in grid])
    principal_u = np.array([[p.principal_utility(x - w) for w in grid] for x in p.outcomes])
    density = np.array(p.density)
    costs = np.array(p.effort_costs)[:, None]
    bar = p.reservation - _IR_TOL
    shape = (len(grid),) * len(p.outcomes)
    n_rules = math.prod(shape)
    chunk = max(1, _CHUNK_VALUES // len(p.efforts))
    best_pv, best = -math.inf, None
    for start in range(0, n_rules, chunk):
        levels = np.unravel_index(np.arange(start, min(start + chunk, n_rules)), shape)
        agent = np.zeros((len(p.efforts), len(levels[0])))
        principal = np.zeros_like(agent)
        for j, k in enumerate(levels):
            agent += density[:, j, None] * agent_u[k]
            principal += density[:, j, None] * principal_u[j, k]
        agent -= costs
        admissible = agent == agent.max(axis=0) if incentive else agent >= bar
        pick = np.where(admissible, principal, -math.inf).argmax(axis=0)
        cols = np.arange(len(pick))
        pv, av = principal[pick, cols], agent[pick, cols]
        pv[av < bar] = -math.inf
        r = int(pv.argmax())
        if pv[r] > best_pv:
            best_pv, best = pv[r], (start + r, int(pick[r]), float(av[r]))
    if best is None:
        raise InfeasibleError(
            "no wage rule on the grid meets the agent's participation bar")
    rule, i, av = best
    return ContractSolution(tuple(grid[int(k)] for k in np.unravel_index(rule, shape)), i,
                            p.efforts[i], float(best_pv), av,
                            "second_best" if incentive else "first_best")
