"""Regenerate three_period_golden.json from the current solver.

    PYTHONPATH=src python tests/data/make_three_period_golden.py

Each cell is one (base, mu) pair: the five wages, the w_plus candidates and
both fixed-point root lists of a successful solve, or the type, message and
diagnostics of the typed error it raised.  The table pins solver output so
that a faster solver can be checked against it; regenerate it only when the
selected equilibrium is meant to change.
"""

from __future__ import annotations

import json
from pathlib import Path

import labormkt as lm

BASES = {
    "piecewise_readme": lambda: lm.piecewise_linear([(0.0, 0.2), (0.3, 1.1), (1.0, 0.1)]),
    "uniform_0_1": lambda: lm.uniform(0.0, 1.0),
    "discrete_41": lambda: lm.discrete([(k / 40, 1.0) for k in range(41)]),
}
MUS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
WAGES = ("w0", "w1", "w_plus", "w2", "w2p")
OUT = Path(__file__).with_name("three_period_golden.json")


def cell(dist, mu: float) -> dict:
    try:
        sol = lm.solve_three_period(dist, mu)
    except lm.LaborMarketError as exc:
        return {"outcome": "error", "error": type(exc).__name__, "message": str(exc),
                "best": getattr(exc, "best", {}), "residuals": getattr(exc, "residuals", {})}
    diag = sol.diagnostics
    return {"outcome": "ok", "wages": {k: getattr(sol, k) for k in WAGES},
            "w_plus_candidates": diag["w_plus_candidates"],
            "fixed_point_roots_late": diag["fixed_point_roots_late"],
            "fixed_point_roots_twice": diag["fixed_point_roots_twice"]}


def main() -> None:
    cells = [{"base": name, "mu": mu} | cell(make(), mu)
             for name, make in BASES.items() for mu in MUS]
    OUT.write_text(json.dumps({"cells": cells}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
