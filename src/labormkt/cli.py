"""Batch command-line front end.

Subcommands: solve, tree, sweep, simulate, screening, moral-hazard,
welfare.  Every run is driven by a flat ``key = value`` config file
(``#`` starts a comment); flags can override the output path/format, the
seed, the solver tolerance and the worker count.  Outputs are CSV
(RFC-4180-style, header row, LF line endings) or JSON (sorted keys,
indent 2); all floats are printed by ``repr``, i.e. shortest round-trip
form, so repeated runs are byte-identical.

Exit codes: 0 success, 1 usage or config errors (every config problem is
reported, not just the first), 2 solver non-convergence — in which case
the output path still receives a JSON diagnostics object.

Config value grammar::

    dist   = uniform(0,1) | discrete((0.4,1);(0.9,2)) | piecewise((0,0.5);(1,1.5))
    mu     = 0.5
    mu_grid = 0.1,0.2,0.3   or   0.1:0.9:0.1     (inclusive a:b:step)
    agent_utility = sqrt | log1p | linear | crra(0.4)
    density = (0.8,0.2);(0.2,0.8)                 (one row per effort)
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .equilibrium import (
    MarketCollapse,
    TwoPeriodSolution,
    one_period_wage,
    solve_two_period,
)
from .errors import ConfigError, LaborMarketError, NoConvergenceError
from .moral_hazard import ContractProblem, UtilitySpec, default_wage_grid, welfare_gap
from .multiperiod import (
    RESIDUAL_NAMES,
    MarketNode,
    build_market_tree,
    solve_three_period,
    welfare_comparison,
)
from .pools import (
    LaborPool,
    ProductivityDistribution,
    discrete,
    piecewise_linear,
    pool_mass,
    uniform,
)
from .screening import (
    ScreeningConfig,
    critical_assessment_periods,
    residual_below_average_probability,
)
from .simulator import SimulationConfig, simulate
from .solvers import DEFAULT_OPTIONS, MAX_TOL, SolverOptions, m_extended, scan_grid

__all__ = ["RunConfig", "parse_config", "run", "main"]

SUBCOMMANDS = ("solve", "tree", "sweep", "simulate", "screening",
               "moral-hazard", "welfare")
REGIMES = ("one_period", "two_period", "three_period")
_MU_GRID_MAX_POINTS = 10_001


# =====================================================================
# Config parsing
# =====================================================================

@dataclass
class RunConfig:
    """Validated inputs of one CLI run."""

    subcommand: str
    dist: ProductivityDistribution | None = None
    mu: float | None = None
    mu_grid: tuple[float, ...] = ()
    regime: str = "two_period"
    n_periods: int = 3
    n_agents: int = 10_000
    seed: int = 0
    wages: dict = field(default_factory=dict)
    screening: ScreeningConfig | None = None
    problem: ContractProblem | None = None
    fmt: str = "csv"
    out: str | None = None
    series_out: str | None = None
    tol: float | None = None
    jobs: int = 1

    def solver_options(self) -> SolverOptions:
        return DEFAULT_OPTIONS if self.tol is None else SolverOptions(self.tol)


_DIST_RE = re.compile(r"^(uniform|discrete|piecewise)\s*\((.*)\)$")
_PAIR_RE = re.compile(r"^\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")
_UTIL_RE = re.compile(r"^(sqrt|log1p|linear)$|^crra\(\s*([^()\s]+)\s*\)$")

_COMMON_KEYS = {"out", "format", "tol", "jobs"}
_ALLOWED_KEYS = {
    "solve": {"dist", "mu", "regime", "series_out"},
    "tree": {"dist", "mu", "n_periods"},
    "sweep": {"dist", "mu_grid", "regime"},
    "simulate": {"dist", "mu", "regime", "n_agents", "seed",
                 "w0", "w1", "w_plus", "w2", "w2p"},
    "screening": {"n_total", "m_allowed", "theta_low", "theta_high"},
    "moral-hazard": {"outcomes", "efforts", "density", "costs", "agent_utility",
                     "principal_utility", "reservation", "wage_levels", "wage_grid"},
    "welfare": {"dist", "mu"},
}
_REQUIRED_KEYS = {
    "solve": ("dist", "mu", "regime"),
    "tree": ("dist", "mu", "n_periods"),
    "sweep": ("dist", "mu_grid", "regime"),
    "simulate": ("dist", "mu", "regime", "n_agents"),
    "screening": ("n_total", "m_allowed"),
    "moral-hazard": ("outcomes", "efforts", "density", "costs", "reservation"),
    "welfare": ("dist", "mu"),
}


def _parse_lines(text: str, problems: list[str]) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected `key = value`, got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            problems.append(f"line {lineno}: empty key")
            continue
        if key in pairs:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        pairs[key] = value
    return pairs


def _parse_float(raw: str, key: str, problems: list[str]) -> float | None:
    try:
        return float(raw)
    except ValueError:
        problems.append(f"{key}: not a number: {raw!r}")
        return None


def _parse_int(raw: str, key: str, problems: list[str]) -> int | None:
    try:
        return int(raw, 10)
    except ValueError:
        problems.append(f"{key}: not an integer: {raw!r}")
        return None


def _parse_number_list(raw: str, key: str, problems: list[str]) -> tuple[float, ...]:
    out = []
    for part in raw.split(","):
        v = _parse_float(part.strip(), key, problems)
        if v is None:
            return ()
        out.append(v)
    return tuple(out)


def _parse_pairs(raw: str, key: str, problems: list[str]) -> list[tuple[float, float]]:
    pairs = []
    for part in raw.split(";"):
        m = _PAIR_RE.match(part.strip())
        if not m:
            problems.append(f"{key}: expected `(a,b);(c,d);...`, got {part.strip()!r}")
            return []
        try:
            pairs.append((float(m.group(1)), float(m.group(2))))
        except ValueError:
            problems.append(f"{key}: non-numeric pair {part.strip()!r}")
            return []
    return pairs


def _parse_dist(raw: str, problems: list[str]) -> ProductivityDistribution | None:
    m = _DIST_RE.match(raw.strip())
    if not m:
        problems.append(f"dist: expected uniform(a,b), discrete(...) or "
                        f"piecewise(...), got {raw!r}")
        return None
    kind, body = m.group(1), m.group(2).strip()
    try:
        if kind == "uniform":
            lo, hi = (float(p.strip()) for p in body.split(","))
            return uniform(lo, hi)
        pairs = _parse_pairs(body, "dist", problems)
        if not pairs:
            return None
        return discrete(pairs) if kind == "discrete" else piecewise_linear(pairs)
    except ValueError as exc:
        problems.append(f"dist: {exc}")
        return None


def _parse_mu_grid(raw: str, problems: list[str]) -> tuple[float, ...]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            problems.append(f"mu_grid: range form is `a:b:step`, got {raw!r}")
            return ()
        a = _parse_float(parts[0], "mu_grid", problems)
        b = _parse_float(parts[1], "mu_grid", problems)
        step = _parse_float(parts[2], "mu_grid", problems)
        if None in (a, b, step):
            return ()
        if not all(map(math.isfinite, (a, b, step))):
            problems.append(f"mu_grid: a, b and step must be finite, got {raw!r}")
            return ()
        if step <= 0 or b < a:
            problems.append("mu_grid: need a <= b and step > 0")
            return ()
        if not (0.0 <= a and b <= 1.0):
            problems.append(f"mu_grid: mu must lie in [0,1] (got {a if a < 0.0 else b})")
            return ()
        count = round(min((b - a) / step, _MU_GRID_MAX_POINTS)) + 1  # the ratio may be inf
        if count > _MU_GRID_MAX_POINTS:
            problems.append(f"mu_grid: at most {_MU_GRID_MAX_POINTS} points, got {raw!r}")
            return ()
        grid = tuple(a + i * step for i in range(count) if a + i * step <= b + 1e-12)
    else:
        grid = _parse_number_list(raw, "mu_grid", problems)
    for v in grid:
        if not 0.0 <= v <= 1.0:
            problems.append(f"mu_grid: mu must lie in [0,1] (got {v})")
            return ()
    return grid


def _parse_utility(raw: str, key: str, problems: list[str]) -> UtilitySpec | None:
    m = _UTIL_RE.match(raw.strip())
    if not m:
        problems.append(f"{key}: expected sqrt, log1p, linear or crra(g), got {raw!r}")
        return None
    if m.group(1):
        return UtilitySpec(m.group(1))
    g = _parse_float(m.group(2), key, problems)
    if g is None:
        return None
    try:
        return UtilitySpec("crra", g)
    except ValueError as exc:
        problems.append(f"{key}: {exc}")
        return None


# The tree holds 2**n - 1 cohorts, each with a pool: n = 16 takes about
# 150 MB and every two more periods cost 4x that.
_MAX_TREE_PERIODS = 16

# Range rules of the numeric keys, shared with the flags that override
# some of them: parser, accept test, rule text.
_RANGES = {
    "tol": (_parse_float, lambda v: 0.0 < v <= MAX_TOL,
            f"must be positive and at most {MAX_TOL!r}"),
    "jobs": (_parse_int, lambda v: v >= 1, "must be at least 1"),
    "n_periods": (_parse_int, lambda v: 1 <= v <= _MAX_TREE_PERIODS,
                  f"must lie in [1, {_MAX_TREE_PERIODS}]"),
    "n_agents": (_parse_int, lambda v: v >= 1, "must be at least 1"),
    "seed": (_parse_int, lambda v: 0 <= v < 2 ** 64, "must fit in 64 unsigned bits"),
}


def _set_in_range(cfg: RunConfig, key: str, v, problems: list[str]) -> None:
    """Store v as cfg.<key> if _RANGES accepts it, else record the problem.
    None (a value that did not parse, or an absent flag) is skipped."""
    if v is None:
        return
    _, ok, rule = _RANGES[key]
    if ok(v):
        setattr(cfg, key, v)
    else:
        problems.append(f"{key}: {rule} (got {v})")


def parse_config(text: str, subcommand: str = "solve") -> RunConfig:
    """Parse and validate a config document for the given subcommand.

    Raises ConfigError carrying *all* problems found: parse errors with
    line numbers, unknown and duplicate keys, missing required keys, and
    range violations.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    problems: list[str] = []
    pairs = _parse_lines(text, problems)

    allowed = _ALLOWED_KEYS[subcommand] | _COMMON_KEYS
    for key in pairs:
        if key not in allowed:
            problems.append(f"unknown key {key!r} for subcommand {subcommand}")
    for key in _REQUIRED_KEYS[subcommand]:
        if key not in pairs:
            problems.append(f"missing required key {key!r}")

    cfg = RunConfig(subcommand=subcommand)

    if "out" in pairs:
        cfg.out = pairs["out"]
    if "series_out" in pairs:
        cfg.series_out = pairs["series_out"]
    if "format" in pairs:
        if pairs["format"] not in ("csv", "json"):
            problems.append(f"format: must be csv or json, got {pairs['format']!r}")
        else:
            cfg.fmt = pairs["format"]
    for key in ("tol", "jobs"):
        if key in pairs:
            _set_in_range(cfg, key, _RANGES[key][0](pairs[key], key, problems), problems)
    if "dist" in pairs:
        cfg.dist = _parse_dist(pairs["dist"], problems)
    if "mu" in pairs:
        v = _parse_float(pairs["mu"], "mu", problems)
        if v is not None:
            if not 0.0 <= v <= 1.0:
                problems.append(f"mu must lie in [0,1] (got {v})")
            else:
                cfg.mu = v
    if "mu_grid" in pairs:
        cfg.mu_grid = _parse_mu_grid(pairs["mu_grid"], problems)
    if "regime" in pairs:
        if pairs["regime"] not in REGIMES:
            problems.append(f"regime: must be one of {', '.join(REGIMES)}, "
                            f"got {pairs['regime']!r}")
        else:
            cfg.regime = pairs["regime"]
    for key in ("n_periods", "n_agents", "seed"):
        if key in pairs:
            _set_in_range(cfg, key, _RANGES[key][0](pairs[key], key, problems), problems)
    for wage_key in ("w0", "w1", "w_plus", "w2", "w2p"):
        if wage_key in pairs:
            v = _parse_float(pairs[wage_key], wage_key, problems)
            if v is not None:
                cfg.wages[wage_key] = v

    if subcommand == "screening":
        n = _parse_int(pairs["n_total"], "n_total", problems) if "n_total" in pairs else None
        m = _parse_int(pairs["m_allowed"], "m_allowed", problems) if "m_allowed" in pairs else None
        t_lo = _parse_float(pairs.get("theta_low", "0"), "theta_low", problems)
        t_hi = _parse_float(pairs.get("theta_high", "1"), "theta_high", problems)
        if None not in (n, m, t_lo, t_hi):
            try:
                cfg.screening = ScreeningConfig(n, m, t_lo, t_hi)
            except ValueError as exc:
                problems.append(f"screening: {exc}")

    if subcommand == "moral-hazard" and all(k in pairs for k in _REQUIRED_KEYS["moral-hazard"]):
        cfg.problem = _parse_problem(pairs, problems)

    if problems:
        raise ConfigError(problems)
    return cfg


def _parse_problem(pairs: dict[str, str], problems: list[str]) -> ContractProblem | None:
    outcomes = _parse_number_list(pairs["outcomes"], "outcomes", problems)
    efforts = _parse_number_list(pairs["efforts"], "efforts", problems)
    costs = _parse_number_list(pairs["costs"], "costs", problems)
    density_rows = []
    for i, row in enumerate(pairs["density"].split(";")):
        row = row.strip()
        if row.startswith("(") and row.endswith(")"):
            row = row[1:-1]
        density_rows.append(_parse_number_list(row, f"density row {i}", problems))
    reservation = _parse_float(pairs["reservation"], "reservation", problems)
    agent_u = (_parse_utility(pairs["agent_utility"], "agent_utility", problems)
               if "agent_utility" in pairs else UtilitySpec("sqrt"))
    princ_u = (_parse_utility(pairs["principal_utility"], "principal_utility", problems)
               if "principal_utility" in pairs else UtilitySpec("linear"))
    grid: tuple[float, ...] = ()
    if "wage_grid" in pairs:
        grid = _parse_number_list(pairs["wage_grid"], "wage_grid", problems)
    elif "wage_levels" in pairs:
        n_levels = _parse_int(pairs["wage_levels"], "wage_levels", problems)
        if n_levels is not None:
            if n_levels < 2:
                problems.append(f"wage_levels: must be at least 2 (got {n_levels})")
            elif outcomes:
                try:
                    grid = default_wage_grid(outcomes, n_levels)
                except ValueError as exc:
                    problems.append(f"wage_levels: {exc}")
    if problems or reservation is None or agent_u is None or princ_u is None:
        return None
    try:
        return ContractProblem(outcomes=outcomes, efforts=efforts,
                               density=tuple(density_rows), effort_costs=costs,
                               agent_utility=agent_u, principal_utility=princ_u,
                               reservation=reservation, wage_grid=grid)
    except ValueError as exc:
        problems.append(f"moral-hazard instance: {exc}")
        return None


# =====================================================================
# Output writers
# =====================================================================

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr even for numpy scalars
    return str(v)


def _emit_csv(header: list[str], rows: list[list], out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _write_text(buf.getvalue(), out)


def _emit_json(obj, out: str | None) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


# =====================================================================
# Subcommand handlers
# =====================================================================

def _two_period_row(sol: TwoPeriodSolution) -> list:
    return [sol.mu, sol.w1, sol.theta_bar, sol.w0, sol.theta_bar2,
            sol.residual_fixed_point, sol.residual_zero_profit]


_TWO_PERIOD_HEADER = ["mu", "w1", "theta_bar", "w0", "theta_bar2",
                      "residual_fixed_point", "residual_zero_profit"]
_THREE_PERIOD_HEADER = (["mu", "w0", "w1", "w_plus", "w2", "w2p"]
                        + [f"residual_{n}" for n in RESIDUAL_NAMES])


def _three_period_row(sol) -> list:
    return ([sol.mu, sol.w0, sol.w1, sol.w_plus, sol.w2, sol.w2p]
            + list(sol.residuals))


def _run_solve(cfg: RunConfig) -> None:
    opts = cfg.solver_options()
    if cfg.regime == "one_period":
        w = one_period_wage(cfg.dist)
        collapsed = isinstance(w, MarketCollapse)
        if cfg.fmt == "csv":
            _emit_csv(["regime", "wage", "collapsed"],
                      [["one_period", None if collapsed else w, collapsed]], cfg.out)
        else:
            _emit_json({"regime": "one_period",
                        "wage": None if collapsed else w,
                        "collapsed": collapsed,
                        "reason": w.reason if collapsed else ""}, cfg.out)
        return
    if cfg.regime == "two_period":
        sol = solve_two_period(cfg.dist, cfg.mu, opts)
        if cfg.fmt == "csv":
            _emit_csv(_TWO_PERIOD_HEADER, [_two_period_row(sol)], cfg.out)
        else:
            _emit_json(sol.to_dict() | {"regime": "two_period"}, cfg.out)
    else:
        sol = solve_three_period(cfg.dist, cfg.mu, opts)
        if cfg.fmt == "csv":
            _emit_csv(_THREE_PERIOD_HEADER, [_three_period_row(sol)], cfg.out)
        else:
            _emit_json(sol.to_dict() | {"regime": "three_period"}, cfg.out)
    if cfg.series_out:
        _write_m_series(cfg)


def _write_m_series(cfg: RunConfig) -> None:
    """Plot-ready (w, leaver-mean) series used to picture the fixed point."""
    pool = LaborPool.entry(cfg.dist)
    ws = scan_grid(cfg.dist.support_low, cfg.dist.support_high, 201)
    # tolist() keeps every cell a Python float, formatted as before.
    rows = zip(ws.tolist(), m_extended(pool, ws, cfg.mu).tolist())
    _emit_csv(["w", "m_of_w"], rows, cfg.series_out)


def _node_dict(node: MarketNode) -> dict:
    d = {"history": node.history, "period": node.period,
         "mass": pool_mass(node.pool), "wage": node.wage,
         "threshold": node.threshold, "off_market": node.off_market}
    if node.stay_child is not None:
        d["stayed"] = _node_dict(node.stay_child)
    if node.leave_child is not None:
        d["left"] = _node_dict(node.leave_child)
    return d


def _run_tree(cfg: RunConfig) -> None:
    tree = build_market_tree(cfg.dist, cfg.mu, cfg.n_periods)
    nodes = tree.nodes()
    if cfg.fmt == "csv":
        header = ["history", "period", "mass", "mean", "threshold", "off_market"]
        rows = []
        for n in nodes:
            mass = pool_mass(n.pool)
            rows.append([n.history, n.period, mass,
                         n.mean() if mass > 0 else None,
                         n.threshold, n.off_market])
        _emit_csv(header, rows, cfg.out)
    else:
        _emit_json({"n_periods": cfg.n_periods, "mu": cfg.mu,
                    "off_market_count": len(tree.off_market_nodes()),
                    "root": _node_dict(tree.root)}, cfg.out)


def _sweep_cell(args) -> list:
    regime, dist, mu, opts = args
    if regime == "two_period":
        return _two_period_row(solve_two_period(dist, mu, opts))
    return _three_period_row(solve_three_period(dist, mu, opts))


def _run_sweep(cfg: RunConfig) -> None:
    if cfg.regime == "one_period":
        raise ConfigError(["sweep: regime must be two_period or three_period"])
    opts = cfg.solver_options()
    cells = [(cfg.regime, cfg.dist, mu, opts) for mu in cfg.mu_grid]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))  # order-preserving
    else:
        rows = [_sweep_cell(c) for c in cells]
    header = _TWO_PERIOD_HEADER if cfg.regime == "two_period" else _THREE_PERIOD_HEADER
    if cfg.fmt == "csv":
        _emit_csv(header, rows, cfg.out)
    else:
        _emit_json({"regime": cfg.regime,
                    "rows": [dict(zip(header, row)) for row in rows]}, cfg.out)


def _run_simulate(cfg: RunConfig) -> None:
    if cfg.regime not in ("two_period", "three_period"):
        raise ConfigError(["simulate: regime must be two_period or three_period"])
    wages = dict(cfg.wages)
    if not wages:
        opts = cfg.solver_options()
        if cfg.regime == "two_period":
            sol = solve_two_period(cfg.dist, cfg.mu, opts)
            if sol.collapsed:
                raise ConfigError([f"cannot simulate a collapsed market: {sol.collapse_reason}"])
            wages = {"w0": sol.w0, "w1": sol.w1}
        else:
            wages = solve_three_period(cfg.dist, cfg.mu, opts).wages()
    try:
        sim_cfg = SimulationConfig(n_agents=cfg.n_agents, seed=cfg.seed,
                                   regime=cfg.regime, dist=cfg.dist, mu=cfg.mu,
                                   wages=wages)
    except ValueError as exc:
        raise ConfigError([f"simulate: {exc}"])
    report = simulate(sim_cfg)
    if cfg.fmt == "json":
        _emit_json(report.to_dict(), cfg.out)
        return
    header = ["market", "count", "mass_share", "mean", "mean_halfwidth",
              "break_even_wage", "profit_per_capita"]
    rows = [[m.name or "entry", m.count, m.mass_share, m.mean, m.mean_halfwidth,
             m.break_even_wage, report.profit_per_capita if m.name == "" else None]
            for m in report.markets]
    _emit_csv(header, rows, cfg.out)


def _run_screening(cfg: RunConfig) -> None:
    sc = cfg.screening
    p = residual_below_average_probability(sc)
    crit = critical_assessment_periods(sc.m_allowed)
    if cfg.fmt == "csv":
        _emit_csv(["n_total", "m_allowed", "residual_probability", "critical_periods"],
                  [[sc.n_total, sc.m_allowed, p, crit]], cfg.out)
    else:
        _emit_json({"n_total": sc.n_total, "m_allowed": sc.m_allowed,
                    "residual_probability": p, "critical_periods": crit}, cfg.out)


def _run_moral_hazard(cfg: RunConfig) -> None:
    report = welfare_gap(cfg.problem)
    if cfg.fmt == "json":
        _emit_json(report.to_dict(), cfg.out)
        return
    header = ["kind", "effort", "principal_value", "agent_value", "rule", "gap"]
    rows = [[s.kind, s.effort, s.principal_value, s.agent_value,
             ";".join(repr(w) for w in s.rule), report.gap]
            for s in (report.first_best, report.second_best)]
    _emit_csv(header, rows, cfg.out)


def _run_welfare(cfg: RunConfig) -> None:
    comp = welfare_comparison(cfg.dist, cfg.mu, cfg.solver_options())
    if cfg.fmt == "json":
        _emit_json(comp.to_dict(), cfg.out)
        return
    header = ["decile", "theta_low", "theta_high", "two_period_total",
              "three_period_total", "two_period_per_period",
              "three_period_per_period", "per_period_difference"]
    rows = [[r.decile, r.theta_low, r.theta_high, r.two_period_total,
             r.three_period_total, r.two_period_per_period,
             r.three_period_per_period, r.per_period_difference]
            for r in comp.deciles]
    _emit_csv(header, rows, cfg.out)


_HANDLERS = {
    "solve": _run_solve,
    "tree": _run_tree,
    "sweep": _run_sweep,
    "simulate": _run_simulate,
    "screening": _run_screening,
    "moral-hazard": _run_moral_hazard,
    "welfare": _run_welfare,
}


def run(cfg: RunConfig) -> None:
    """Execute a validated config.  Raises rather than exiting."""
    _HANDLERS[cfg.subcommand](cfg)


# =====================================================================
# Entry point
# =====================================================================

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="labormkt",
                     description="Hiring/firing market laboratory, batch mode")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--seed", type=int, help="simulation seed override")
        p.add_argument("--tol", type=float, help="solver tolerance override")
        p.add_argument("--jobs", type=int, help="parallel workers for sweeps")
    return parser


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    problems = []
    if args.out is not None:
        cfg.out = args.out
    if args.format is not None:
        cfg.fmt = args.format
    for key in ("seed", "tol", "jobs"):
        _set_in_range(cfg, key, getattr(args, key), problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text, args.subcommand)
        cfg = _apply_flags(cfg, args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    try:
        run(cfg)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except NoConvergenceError as exc:
        diag = {"error": str(exc), "best": exc.best, "residuals": exc.residuals}
        _emit_json(diag, cfg.out)
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 2
    except (LaborMarketError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
