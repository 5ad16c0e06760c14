"""Regenerate two_period_golden.json from the current solvers.

    PYTHONPATH=src python tests/data/make_two_period_golden.py

Two tables of (base, mu) cells.  "two_period" holds every field of
solve_two_period(...).to_dict(); "welfare" holds
welfare_comparison(...).to_dict().  A cell whose call raised records the
type, message and diagnostics of the error instead, as
make_three_period_golden.py does.  The tables pin the released-market wage,
the retained mass and mean, the entry wage and the decile pay bit for bit;
regenerate them only when those outputs are meant to change.
"""

from __future__ import annotations

import json
from pathlib import Path

import labormkt as lm

BASES = {
    "piecewise_readme": lambda: lm.piecewise_linear([(0.0, 0.2), (0.3, 1.1), (1.0, 0.1)]),
    "uniform_0_1": lambda: lm.uniform(0.0, 1.0),
    "discrete_41": lambda: lm.discrete([(k / 40, 1.0) for k in range(41)]),
    "discrete_3": lambda: lm.discrete([(0.2, 1.0), (0.5, 2.0), (0.9, 1.5)]),
    # One atom whose mean rounds above it: w1 sits above the support top.
    "discrete_point": lambda: lm.discrete([(0.1, 3.0)]),
    # No nonnegative re-hiring wage: the two-period market collapses.
    "uniform_negative": lambda: lm.uniform(-1.0, 0.0),
}
MUS = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
WELFARE_MUS = (0.3, 0.5)
OUT = Path(__file__).with_name("two_period_golden.json")


def _record(call) -> dict:
    try:
        return {"outcome": "ok", "solution": call().to_dict()}
    except (lm.LaborMarketError, ValueError) as exc:
        return {"outcome": "error", "error": type(exc).__name__, "message": str(exc),
                "best": getattr(exc, "best", {}), "residuals": getattr(exc, "residuals", {})}


def two_period_cell(dist, mu: float) -> dict:
    return _record(lambda: lm.solve_two_period(dist, mu))


def welfare_cell(dist, mu: float) -> dict:
    return _record(lambda: lm.welfare_comparison(dist, mu))


TABLES = {"two_period": (two_period_cell, MUS), "welfare": (welfare_cell, WELFARE_MUS)}


def main() -> None:
    tables = {table: [{"base": name, "mu": mu} | cell(make(), mu)
                      for name, make in BASES.items() for mu in mus]
              for table, (cell, mus) in TABLES.items()}
    OUT.write_text(json.dumps(tables, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
