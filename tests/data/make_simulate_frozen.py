"""Regenerate simulate_frozen.json from the current simulator.

    PYTHONPATH=src python tests/data/make_simulate_frozen.py

Each cell is one simulate() input (base, horizon, mu, wages; 300,001 agents,
more than one replay chunk) and the report's to_dict().  The wages are
the two- and three-period solutions at mu 0.5, written out as literals so
that the table pins the replay alone, not the solvers.  Regenerate it only
when the replay's output is meant to change.
"""

from __future__ import annotations

import json
from pathlib import Path

import labormkt as lm
from labormkt import simulator

BASES = {
    "uniform_0_1": lambda: lm.uniform(0, 1),
    "piecewise_readme": lambda: lm.piecewise_linear([(0.0, 0.2), (0.3, 1.1), (1.0, 0.1)]),
    "discrete_3": lambda: lm.discrete([(0.2, 1.0), (0.5, 2.0), (0.9, 1.5)]),
}
MUS = (0.0, 0.5, 1.0)
N_AGENTS = 300_001
SEED = 2024
OUT = Path(__file__).with_name("simulate_frozen.json")


def horizon_wages(dist) -> dict[str, dict[str, float]]:
    two = lm.solve_two_period(dist, 0.5)
    return {"two_period": {"w0": two.w0, "w1": two.w1},
            "three_period": lm.solve_three_period(dist, 0.5).wages()}


def main() -> None:
    cells = []
    for name, make in BASES.items():
        dist = make()
        for regime, wages in horizon_wages(dist).items():
            for mu in MUS:
                cfg = simulator.SimulationConfig(
                    n_agents=N_AGENTS, seed=SEED, regime=regime, dist=dist,
                    mu=mu, wages=wages)
                cells.append({"base": name, "regime": regime, "mu": mu, "wages": wages,
                              "report": simulator.simulate(cfg).to_dict()})
    OUT.write_text(json.dumps({"n_agents": N_AGENTS, "seed": SEED, "cells": cells},
                              indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
