"""Regenerate cli_golden.json from the current command line.

    PYTHONPATH=src python tests/data/make_cli_golden.py

Each case is one ``labormkt`` run: a subcommand, its config text and its
flags.  The table records the exit code and the exact bytes the run wrote
to stdout, stderr and every file it created.  The "ok" cases run each
subcommand on a tiny config in CSV and in JSON; the "error" cases hold one
config with a single problem per error family.  Runs happen in-process
(``cli.main``) in an empty scratch directory, so the config is always
``run.cfg`` and the output paths are relative.  Regenerate the table only
when the command line's output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from labormkt import cli

OUT = Path(__file__).with_name("cli_golden.json")

U01 = "dist = uniform(0, 1)\n"
PIECEWISE = "dist = piecewise((0,0.2);(0.3,1.1);(1,0.1))\n"
THREE_ATOMS = "dist = discrete((0.2,1);(0.5,2);(0.9,1.5))\n"
CONTRACT = ("outcomes = 0, 4\nefforts = 0, 1\ndensity = 0.8, 0.2; 0.2, 0.8\n"
            "costs = 0, 0.5\nreservation = 0.5\n")

# name: (subcommand, config text, extra flags).  Every "ok" config runs
# once per output format.
OK = {
    "solve-one": ("solve", U01 + "mu = 0.5\nregime = one_period\n", []),
    "solve-one-collapsed": ("solve", "dist = uniform(-1, 0)\nmu = 0.5\nregime = one_period\n", []),
    "solve-two": ("solve", U01 + "mu = 0.5\nregime = two_period\n", []),
    "solve-two-collapsed": ("solve", "dist = uniform(-1, 0)\nmu = 0.5\nregime = two_period\n", []),
    "solve-three": ("solve", PIECEWISE + "mu = 0.5\nregime = three_period\n", []),
    "solve-three-series": ("solve", U01 + "mu = 0.5\nregime = three_period\n"
                           "series_out = series.csv\n", ["--out", "out.txt"]),
    "tree-n3": ("tree", THREE_ATOMS + "mu = 0.5\nn_periods = 3\n", []),
    "sweep-two": ("sweep", U01 + "mu_grid = 0.1, 0.5, 0.9\nregime = two_period\n", []),
    "sweep-three-jobs2": ("sweep", U01 + "mu_grid = 0.25:0.75:0.25\nregime = three_period\n",
                          ["--jobs", "2"]),
    "simulate-two": ("simulate", U01 + "mu = 0.5\nregime = two_period\nn_agents = 1000\n", []),
    "simulate-three": ("simulate", PIECEWISE + "mu = 0.5\nregime = three_period\n"
                       "n_agents = 1000\n", ["--seed", "3"]),
    "simulate-wages": ("simulate", U01 + "mu = 0.5\nregime = two_period\nn_agents = 1000\n"
                       "seed = 5\nw0 = 0.3\nw1 = 0.6\n", []),
    "screening": ("screening", "n_total = 10\nm_allowed = 3\ntheta_low = 0.2\n", []),
    "moral-hazard": ("moral-hazard", CONTRACT + "wage_levels = 5\n", []),
    "moral-hazard-grid": ("moral-hazard", CONTRACT + "wage_grid = 0, 1, 2, 4\n"
                          "agent_utility = crra(0.5)\n", []),
    "welfare": ("welfare", U01 + "mu = 0.5\n", []),
}

# name: (subcommand, config text, extra flags), one problem each.
ERRORS = {
    "usage-no-config": ("solve", None, []),
    "usage-flag-not-read": ("solve", U01 + "mu = 0.5\nregime = two_period\n", ["--seed", "1"]),
    "usage-flag-not-int": ("sweep", U01 + "mu_grid = 0.5\nregime = two_period\n",
                           ["--jobs", "banana"]),
    "unreadable-config": ("solve", None, ["--config", "missing.cfg"]),
    "line-no-equals": ("welfare", U01 + "mu = 0.5\nmu 0.5\n", []),
    "line-empty-key": ("welfare", U01 + "mu = 0.5\n= 3\n", []),
    "duplicate-key": ("welfare", U01 + "mu = 0.5\nmu = 0.4\n", []),
    "unknown-key": ("welfare", U01 + "mu = 0.5\nregime = two_period\n", []),
    "missing-key": ("solve", U01 + "mu = 0.5\n", []),
    "bad-format": ("welfare", U01 + "mu = 0.5\nformat = xml\n", []),
    "bad-dist": ("welfare", "dist = gaussian(0, 1)\nmu = 0.5\n", []),
    "bad-dist-values": ("welfare", "dist = uniform(1, 0)\nmu = 0.5\n", []),
    "mu-not-a-number": ("welfare", U01 + "mu = half\n", []),
    "mu-out-of-range": ("welfare", U01 + "mu = 1.5\n", []),
    "mu-grid-range": ("sweep", U01 + "mu_grid = 0.9:0.1:0.1\nregime = two_period\n", []),
    "unknown-regime": ("solve", U01 + "mu = 0.5\nregime = ten_period\n", []),
    "jobs-zero": ("sweep", U01 + "mu_grid = 0.5\nregime = two_period\njobs = 0\n", []),
    "jobs-flag-zero": ("sweep", U01 + "mu_grid = 0.5\nregime = two_period\n", ["--jobs", "0"]),
    "n-periods-range": ("tree", U01 + "mu = 0.5\nn_periods = 17\n", []),
    "n-agents-not-int": ("simulate", U01 + "mu = 0.5\nregime = two_period\n"
                         "n_agents = 1e3\n", []),
    "screening-clash": ("screening", "n_total = 3\nm_allowed = 4\n", []),
    "bad-utility": ("moral-hazard", CONTRACT + "wage_levels = 5\nagent_utility = cubic\n", []),
    "wage-levels-one": ("moral-hazard", CONTRACT + "wage_levels = 1\n", []),
    "contract-shape": ("moral-hazard", CONTRACT.replace("costs = 0, 0.5", "costs = 0")
                       + "wage_levels = 5\n", []),
    "sweep-one-period": ("sweep", U01 + "mu_grid = 0.5\nregime = one_period\n", []),
    "simulate-one-period": ("simulate", U01 + "mu = 0.5\nregime = one_period\n"
                            "n_agents = 1000\n", []),
    "simulate-partial-wages": ("simulate", U01 + "mu = 0.5\nregime = two_period\n"
                               "n_agents = 1000\nw0 = 0.3\n", []),
    "simulate-collapsed": ("simulate", "dist = uniform(-1, 0)\nmu = 0.5\nregime = two_period\n"
                           "n_agents = 1000\n", []),
    "three-period-mu-zero": ("solve", U01 + "mu = 0\nregime = three_period\n", []),
    "no-convergence": ("solve", THREE_ATOMS + "mu = 0.01\nregime = three_period\n", []),
}


def run_case(subcommand: str, text: str | None, flags: list[str]) -> dict:
    """Run one case in a fresh scratch directory; return its exit code and
    the text of stdout, stderr and every file the run left besides run.cfg."""
    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            argv = [subcommand]
            if text is not None:
                Path("run.cfg").write_text(text, encoding="utf-8")
                argv += ["--config", "run.cfg"]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv + flags)
            files = {p.name: p.read_text(encoding="utf-8")
                     for p in sorted(Path(".").iterdir()) if p.name != "run.cfg"}
        finally:
            os.chdir(here)
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": files}


def cases() -> dict[str, tuple[str, str | None, list[str]]]:
    """Every case by name: each OK config in CSV and in JSON, then ERRORS."""
    runs = {f"{name}-{fmt}": (sub, text, flags + ["--format", fmt])
            for name, (sub, text, flags) in OK.items() for fmt in ("csv", "json")}
    return runs | ERRORS


def main() -> None:
    table = {name: {"subcommand": sub, "config": text, "flags": flags}
             | run_case(sub, text, flags)
             for name, (sub, text, flags) in cases().items()}
    OUT.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
