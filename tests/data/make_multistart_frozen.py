"""Regenerate multistart_frozen.json from the current solver.

    PYTHONPATH=src python tests/data/make_multistart_frozen.py

Each cell is one (base, mu) pair: the to_dict() of
solve_three_period_multistart with N_STARTS starts from SEED, or the type,
message and diagnostics of the typed error it raised.  The table pins the
damped iteration and the finish of every converged start; regenerate it
only when the multi-start report is meant to change.
"""

from __future__ import annotations

import json
from pathlib import Path

import labormkt as lm

BASES = {
    "uniform_0_1": lambda: lm.uniform(0.0, 1.0),
    "piecewise_readme": lambda: lm.piecewise_linear([(0.0, 0.2), (0.3, 1.1), (1.0, 0.1)]),
    "discrete_3": lambda: lm.discrete([(0.2, 1.0), (0.5, 2.0), (0.9, 1.5)]),
}
MUS = (0.01, 0.25, 0.5, 0.75)
N_STARTS = 16
SEED = 20240601
OUT = Path(__file__).with_name("multistart_frozen.json")


def cell(dist, mu: float) -> dict:
    try:
        rep = lm.solve_three_period_multistart(dist, mu, n_starts=N_STARTS, seed=SEED)
    except lm.LaborMarketError as exc:
        return {"outcome": "error", "error": type(exc).__name__, "message": str(exc),
                "best": getattr(exc, "best", {}), "residuals": getattr(exc, "residuals", {})}
    return {"outcome": "ok", "report": rep.to_dict()}


def main() -> None:
    cells = [{"base": name, "mu": mu} | cell(make(), mu)
             for name, make in BASES.items() for mu in MUS]
    OUT.write_text(json.dumps({"n_starts": N_STARTS, "seed": SEED, "cells": cells},
                              indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
