"""Discrete principal–agent contracts: first-best vs second-best.

A principal offers a sharing rule (a wage per observable outcome) to an
agent who privately chooses an effort level.  Outcomes, efforts and wages
all live on finite grids, so both programs can be solved by exhaustive
enumeration and checked exactly:

* first-best: the effort is contractible, so the rule/effort pair only
  has to clear the agent's participation bar;
* second-best: the effort must additionally be the agent's own best
  response to the rule (ties broken in the principal's favor, the usual
  convention).

Second-best optimizes over a subset of the first-best's feasible set, so
the value gap is nonnegative; it is zero whenever the outcome
distribution does not react to effort (paying flat removes the incentive
problem at no cost) or the action set is a singleton.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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

_ENUMERATION_BUDGET = 200_000
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


def default_wage_grid(outcomes, n_levels: int = 21) -> tuple[float, ...]:
    """Evenly spaced wage levels from 0 to the largest outcome."""
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

    def effort_independent(self) -> bool:
        """True when every effort induces the same outcome distribution."""
        first = self.density[0]
        return all(all(abs(f - g) <= 0.0 for f, g in zip(row, first))
                   for row in self.density[1:])


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
# Evaluation tables
# =====================================================================

def _tables(p: ContractProblem):
    """Per-(outcome, wage-level) utility lookups shared by both solvers."""
    grid = p.wage_grid
    agent_u = tuple(p.agent_utility(w) for w in grid)
    principal_u = tuple(tuple(p.principal_utility(x - w) for w in grid)
                        for x in p.outcomes)
    return grid, agent_u, principal_u


def _agent_value(p, rule_idx, agent_u, effort: int) -> float:
    f = p.density[effort]
    total = 0.0
    for j in range(len(p.outcomes)):  # fixed outcome order keeps floats reproducible
        total += f[j] * agent_u[rule_idx[j]]
    return total - p.effort_costs[effort]


def _principal_value(p, rule_idx, principal_u, effort: int) -> float:
    f = p.density[effort]
    total = 0.0
    for j in range(len(p.outcomes)):
        total += f[j] * principal_u[j][rule_idx[j]]
    return total


def _best_response(p, rule_idx, agent_u, principal_u) -> tuple[int, float]:
    """Agent's exact argmax effort; ties go to the principal, then low index."""
    values = [_agent_value(p, rule_idx, agent_u, i) for i in range(len(p.efforts))]
    top = max(values)
    tied = [i for i, v in enumerate(values) if v == top]
    if len(tied) > 1:
        tied.sort(key=lambda i: (-_principal_value(p, rule_idx, principal_u, i), i))
    return tied[0], top


def _all_rules(p: ContractProblem):
    return itertools.product(range(len(p.wage_grid)), repeat=len(p.outcomes))


def _enumeration_size(p: ContractProblem) -> int:
    return len(p.wage_grid) ** len(p.outcomes)


# =====================================================================
# Solvers
# =====================================================================

def solve_first_best(p: ContractProblem) -> ContractSolution:
    """Best rule/effort pair subject only to the agent's participation bar.

    Small instances are enumerated exhaustively (every wage-grid rule
    crossed with every effort, first strict improvement wins, so the
    lexicographically earliest optimal rule is returned); larger ones fall
    back to deterministic coordinate ascent from every flat rule.
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
    """Search the wage rules for the best admissible (rule, effort) pair.

    `evaluate` gives a rule's best admissible effort as (principal value,
    effort index, agent value), or None when it has none.  An effort is
    admissible when the agent accepts it and, with `incentive`, when it is
    also the agent's best response.  Rules are enumerated when the grid is
    within budget and searched by :func:`_ascent` otherwise; only strict
    improvements replace the best so far, so ties go to the earlier effort
    and the earlier rule.
    """
    grid, agent_u, principal_u = _tables(p)
    efforts = range(len(p.efforts))
    bar = p.reservation - _IR_TOL

    def evaluate(rule_idx):
        if incentive:
            i, av = _best_response(p, rule_idx, agent_u, principal_u)
            if av < bar:
                return None
            return _principal_value(p, rule_idx, principal_u, i), i, av
        best_i = None
        for i in efforts:
            av = _agent_value(p, rule_idx, agent_u, i)
            if av < bar:
                continue
            pv = _principal_value(p, rule_idx, principal_u, i)
            if best_i is None or pv > best_i[0]:
                best_i = (pv, i, av)
        return best_i

    if _enumeration_size(p) <= _ENUMERATION_BUDGET:
        best = None
        for rule_idx in _all_rules(p):
            trial = evaluate(rule_idx)
            if trial is not None and (best is None or trial[0] > best[0][0]):
                best = (trial, rule_idx)
    else:
        best = _ascent(len(p.outcomes), len(grid), evaluate)
    if best is None:
        raise InfeasibleError(
            "no wage rule on the grid meets the agent's participation bar")
    (pv, i, av), rule_idx = best
    return ContractSolution(tuple(grid[k] for k in rule_idx), i, p.efforts[i], pv, av,
                            "second_best" if incentive else "first_best")


def _ascent(n_out: int, n_grid: int, evaluate):
    """Coordinate ascent over outcome wages, restarted from every flat rule.

    Deterministic: outcomes are swept in index order, candidate wages in
    grid order, strict improvements only.  Heuristic — optimality is only
    guaranteed on the enumeration path.  Returns (evaluation, rule) of the
    best rule reached, or None when no rule visited was admissible.
    """
    best = None
    for flat in range(n_grid):
        rule = [flat] * n_out
        current = evaluate(tuple(rule))
        improved = True
        while improved:
            improved = False
            for j in range(n_out):
                for k in range(n_grid):
                    if k == rule[j]:
                        continue
                    cand = rule.copy()
                    cand[j] = k
                    trial = evaluate(tuple(cand))
                    if trial is None:
                        continue
                    if current is None or trial[0] > current[0]:
                        rule, current, improved = cand, trial, True
        if current is not None and (best is None or current[0] > best[0][0]):
            best = (current, tuple(rule))
    return best
