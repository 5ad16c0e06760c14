"""End-to-end command-line behavior: config grammar, output schemas,
exit codes, and byte-level determinism."""

import concurrent.futures
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import labormkt as lm
from labormkt import cli, multiperiod
from labormkt.errors import ConfigError, NoConvergenceError
from labormkt.solvers import m_extended
from test_multiperiod import _load_data_maker


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TWO_PERIOD_CFG = """\
dist = uniform(0, 1)
mu = 0.5
regime = two_period
"""

THREE_PERIOD_CFG = """\
dist = uniform(0, 1)
mu = 0.5
regime = three_period
"""

SWEEP_CFG = """\
dist = uniform(0, 1)
mu_grid = 0.1:0.9:0.1
regime = two_period
"""

SIM_CFG = """\
dist = uniform(0, 1)
mu = 0.5
regime = two_period
n_agents = 40000
seed = 7
"""

MH_CFG = """\
outcomes = 0, 4
efforts = 0, 1
density = 0.8, 0.2; 0.2, 0.8
costs = 0, 0.5
reservation = 0.5
"""


# ---------------------------------------------------------------------
# Config grammar
# ---------------------------------------------------------------------

def test_parse_round_trip_defaults():
    rc = cli.parse_config(TWO_PERIOD_CFG, "solve")
    assert rc.mu == 0.5
    assert rc.regime == "two_period"
    assert rc.dist.kind == "uniform"


def test_mu_out_of_range_message():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("dist = uniform(0, 1)\nmu = 1.5\nregime = two_period\n",
                         "solve")
    assert "mu must lie in [0,1] (got 1.5)" in str(exc.value)


def test_all_problems_reported_at_once():
    bad = "bogus = 3\nmu = 1.5\nmu = 0.2\n"
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(bad, "solve")
    text = str(exc.value)
    assert "unknown key 'bogus'" in text
    assert "duplicate key 'mu'" in text
    assert "missing required key 'dist'" in text
    assert "missing required key 'regime'" in text


def test_dist_literals():
    rc = cli.parse_config(
        "dist = discrete((0.2, 1); (0.5, 2))\nmu = 0.3\nregime = two_period\n",
        "solve")
    assert rc.dist.kind == "discrete"
    assert rc.dist.atoms == ((0.2, 1.0), (0.5, 2.0))
    rc = cli.parse_config(
        "dist = piecewise((0, 0.2); (0.5, 1.4); (1, 0.6))\n"
        "mu = 0.3\nregime = two_period\n", "solve")
    assert rc.dist.kind == "piecewise"
    with pytest.raises(ConfigError):
        cli.parse_config("dist = gaussian(0, 1)\nmu = 0.3\nregime = two_period\n",
                         "solve")
    with pytest.raises(ConfigError):
        cli.parse_config("dist = discrete(0.2: 1)\nmu = 0.3\nregime = two_period\n",
                         "solve")


def test_mu_grid_forms():
    rc = cli.parse_config(SWEEP_CFG, "sweep")
    assert len(rc.mu_grid) == 9
    assert rc.mu_grid[0] == pytest.approx(0.1)
    assert rc.mu_grid[-1] == pytest.approx(0.9)
    rc = cli.parse_config(
        "dist = uniform(0, 1)\nmu_grid = 0.25, 0.5\nregime = two_period\n", "sweep")
    assert rc.mu_grid == (0.25, 0.5)


def test_unknown_regime_rejected():
    with pytest.raises(ConfigError):
        cli.parse_config("dist = uniform(0, 1)\nmu = 0.5\nregime = ten_period\n",
                         "solve")


# ---------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------

def test_solve_two_period_csv(tmp_path):
    cfg = write(tmp_path, "a.cfg", TWO_PERIOD_CFG)
    out = tmp_path / "a.csv"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header == "mu,w1,theta_bar,w0,theta_bar2,residual_fixed_point,residual_zero_profit"
    vals = dict(zip(header.split(","), row.split(",")))
    sol = lm.solve_two_period(lm.uniform(0, 1), 0.5)
    assert float(vals["w1"]) == pytest.approx(sol.w1, abs=1e-12)
    assert float(vals["w0"]) == pytest.approx(sol.w0, abs=1e-12)


def test_solve_two_period_one_atom_base(tmp_path):
    cfg = write(tmp_path, "a.cfg",
                "dist = discrete((0.1, 3))\nmu = 0.5\nregime = two_period\n")
    out = tmp_path / "a.json"
    assert cli.main(["solve", "--config", cfg, "--format", "json",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["collapsed"] is False
    assert data["w0"] == data["w1"] == data["theta_bar"]
    assert data["mass_retained"] == 1.5


def test_solve_json_round_trips_two_period(tmp_path):
    cfg = write(tmp_path, "a.cfg", TWO_PERIOD_CFG)
    out = tmp_path / "a.json"
    assert cli.main(["solve", "--config", cfg, "--format", "json",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data.pop("regime") == "two_period"
    sol = lm.TwoPeriodSolution.from_dict(data)
    assert sol == lm.solve_two_period(lm.uniform(0, 1), 0.5)


def test_solve_json_round_trips_three_period(tmp_path):
    cfg = write(tmp_path, "b.cfg", THREE_PERIOD_CFG)
    out = tmp_path / "b.json"
    assert cli.main(["solve", "--config", cfg, "--format", "json",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data.pop("regime") == "three_period"
    sol = lm.ThreePeriodSolution.from_dict(data)
    assert sol.w_plus == pytest.approx(0.2713303702976979, abs=1e-8)
    assert max(abs(r) for r in sol.residuals) <= 1e-8


def test_solve_three_period_large_population(tmp_path):
    """30,000 heads at wages up to 30,000: the books' rounding is above
    1e-8 in heads x wage but not per head hired, so the solve succeeds."""
    cfg = write(tmp_path, "big.cfg",
                "dist = uniform(0, 30000)\nmu = 0.5\nregime = three_period\n")
    out = tmp_path / "big.json"
    assert cli.main(["solve", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["mass_entry"] == 30000.0
    assert data["w_plus"] == pytest.approx(30000 * 0.2713303702976979, rel=1e-9)


def test_solve_three_period_csv_header(tmp_path):
    cfg = write(tmp_path, "b.cfg", THREE_PERIOD_CFG)
    out = tmp_path / "b.csv"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.split(",")[:6] == ["mu", "w0", "w1", "w_plus", "w2", "w2p"]
    assert "residual_rehire_zero_profit" in header


def test_solve_series_out(tmp_path):
    cfg = write(tmp_path, "c.cfg",
                TWO_PERIOD_CFG + f"series_out = {tmp_path}/series.csv\n")
    out = tmp_path / "c.csv"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert lines[0] == "w,m_of_w"
    assert len(lines) == 202          # header + 201 samples
    w, m = map(float, lines[-1].split(","))
    assert w == pytest.approx(1.0)
    assert m == pytest.approx(0.5, abs=1e-9)   # leaver mean at the top = pool mean
    # Every row is exactly the scalar operator at the same grid point.
    pool = lm.LaborPool.entry(lm.uniform(0, 1))
    for i, line in enumerate(lines[1:]):
        w = 0.0 + (1.0 - 0.0) * i / 200
        assert line == f"{w!r},{m_extended(pool, w, 0.5)!r}"


# ---------------------------------------------------------------------
# sweep (and --jobs determinism)
# ---------------------------------------------------------------------

def test_sweep_rows_match_library(tmp_path):
    cfg = write(tmp_path, "s.cfg", SWEEP_CFG)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    first = lines[1].split(",")
    sol = lm.solve_two_period(lm.uniform(0, 1), 0.1)
    assert float(first[1]) == pytest.approx(sol.w1, abs=1e-12)


def test_sweep_identical_bytes_across_jobs(tmp_path):
    cfg = write(tmp_path, "s.cfg", SWEEP_CFG)
    outs = []
    for jobs, name in [(1, "j1.csv"), (2, "j2.csv"), (1, "j1b.csv")]:
        out = tmp_path / name
        assert cli.main(["sweep", "--config", cfg, "--jobs", str(jobs),
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------

def test_simulate_reruns_byte_identical(tmp_path):
    cfg = write(tmp_path, "m.cfg", SIM_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_flag_overrides(tmp_path):
    cfg = write(tmp_path, "m.cfg", SIM_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--seed", "8",
                     "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_simulate_explicit_wages_skip_solving(tmp_path):
    cfg = write(tmp_path, "m.cfg", SIM_CFG + "w0 = 0.6\nw1 = 0.4\n")
    out = tmp_path / "w.json"
    assert cli.main(["simulate", "--config", cfg, "--format", "json",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["wages"]["w0"] == 0.6
    assert data["wages"]["w1"] == 0.4


@pytest.mark.parametrize("wages", ["w0 = nan\nw1 = 0.4\n", "w0 = 0.6\nw1 = inf\n"])
def test_simulate_non_finite_wage_exits_1(tmp_path, capsys, wages):
    cfg = write(tmp_path, "m.cfg", SIM_CFG + wages)
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_three_period_requires_regime_wages(tmp_path):
    text = SIM_CFG.replace("regime = two_period", "regime = three_period")
    cfg = write(tmp_path, "m.cfg", text + "w0 = 0.6\nw1 = 0.4\n")  # missing 3 wages
    assert cli.main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 1


# ---------------------------------------------------------------------
# tree / screening / moral-hazard / welfare
# ---------------------------------------------------------------------

def test_tree_json_counts_submarkets(tmp_path):
    cfg = write(tmp_path, "t.cfg",
                "dist = uniform(0, 1)\nmu = 0.5\nn_periods = 3\n")
    out = tmp_path / "t.json"
    assert cli.main(["tree", "--config", cfg, "--format", "json",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["off_market_count"] == 3
    assert data["root"]["history"] == ""


@pytest.mark.parametrize("n", ["17", "30"])
def test_tree_n_periods_is_bounded(tmp_path, capsys, n):
    """2**n - 1 cohorts: n = 30 would exhaust memory, so it is refused
    before any tree is built."""
    cfg = write(tmp_path, "t.cfg", f"dist = uniform(0, 1)\nmu = 0.5\nn_periods = {n}\n")
    assert cli.main(["tree", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: n_periods: must lie in [1, 16] (got {n})")
    assert cli.parse_config("dist = uniform(0, 1)\nmu = 0.5\nn_periods = 16\n",
                            "tree").n_periods == 16


def test_tree_csv_has_all_cohorts(tmp_path):
    cfg = write(tmp_path, "t.cfg",
                "dist = uniform(0, 1)\nmu = 0.5\nn_periods = 3\n")
    out = tmp_path / "t.csv"
    assert cli.main(["tree", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "history,period,mass,mean,threshold,off_market"
    assert len(lines) == 8            # header + 7 cohorts


def test_screening_csv(tmp_path):
    cfg = write(tmp_path, "sc.cfg", "n_total = 10\nm_allowed = 3\n")
    out = tmp_path / "sc.csv"
    assert cli.main(["screening", "--config", cfg, "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header == "n_total,m_allowed,residual_probability,critical_periods"
    cells = row.split(",")
    assert float(cells[2]) == pytest.approx(2.0 / 7.0, abs=1e-12)
    assert cells[3] == "6"


def test_moral_hazard_csv(tmp_path):
    cfg = write(tmp_path, "mh.cfg", MH_CFG)
    out = tmp_path / "mh.csv"
    assert cli.main(["moral-hazard", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,effort,principal_value,agent_value,rule,gap"
    fb = lines[1].split(",")
    sb = lines[2].split(",")
    assert fb[0] == "first_best" and sb[0] == "second_best"
    assert float(fb[2]) == pytest.approx(2.2)
    assert float(sb[2]) == pytest.approx(1.92)
    assert sb[4] == "0.0;1.6"


def test_over_budget_wage_levels_is_a_fast_config_error(tmp_path, capsys):
    """10**8 levels over two outcomes is 10**16 rules: refused before the
    grid is built, so the error comes back at once."""
    cfg = write(tmp_path, "mh.cfg", MH_CFG + "wage_levels = 100000000\n")
    start = time.perf_counter()
    assert cli.main(["moral-hazard", "--config", cfg]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.startswith("config error: wage_levels: 100000000 wage levels")
    grid = ", ".join(str(k) for k in range(3163))
    with pytest.raises(ConfigError, match="moral-hazard instance: 3163 wage levels"):
        cli.parse_config(MH_CFG + f"wage_grid = {grid}\n", "moral-hazard")


@pytest.mark.parametrize("text", [MH_CFG.replace("reservation = 0.5", "reservation = nan"),
                                  MH_CFG.replace("costs = 0, 0.5", "costs = 0, nan")],
                         ids=["reservation", "costs"])
def test_moral_hazard_non_finite_number_exits_1(tmp_path, capsys, text):
    """A NaN reservation made the second-best beat the first-best, and a
    NaN effort cost dropped that effort, both with exit code 0."""
    cfg = write(tmp_path, "mh.cfg", text)
    out = tmp_path / "mh.csv"
    assert cli.main(["moral-hazard", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: moral-hazard instance: ")
    assert not out.exists()


def test_welfare_csv(tmp_path):
    cfg = write(tmp_path, "w.cfg", "dist = uniform(0, 1)\nmu = 0.5\n")
    out = tmp_path / "w.csv"
    assert cli.main(["welfare", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11           # header + 10 deciles
    last = lines[-1].split(",")
    assert float(last[-1]) == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------

def test_bad_config_lists_every_problem(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "bogus = 3\nmu = 1.5\n")
    assert cli.main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'bogus'" in err
    assert "mu must lie in [0,1] (got 1.5)" in err
    assert "missing required key 'dist'" in err


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["solve", "--config", str(tmp_path / "ghost.cfg")]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("dist", ["uniform(0, inf)", "discrete((0.2, 1); (nan, 1))",
                                  "piecewise((0, 1); (1, inf))",
                                  "discrete((0.1,1e308);(0.2,1e308))"])
def test_non_finite_dist_exits_1(tmp_path, capsys, dist):
    cfg = write(tmp_path, "nf.cfg", f"dist = {dist}\nmu = 0.5\nregime = two_period\n")
    assert cli.main(["solve", "--config", cfg]) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid, problem", [
    ("0:1:nan", "mu_grid: a, b and step must be finite"),
    ("0:inf:0.1", "mu_grid: a, b and step must be finite"),
    ("0:1:1e-300", f"mu_grid: at most {cli._MU_GRID_MAX_POINTS} points"),
    ("0.5:1.05:0.1", "mu_grid: mu must lie in [0,1] (got 1.05)"),
])
def test_bad_mu_grid_range_is_a_config_error(tmp_path, capsys, grid, problem):
    """A non-finite end or step, too many points or an end outside [0,1]
    is a config problem, reported before any grid is built."""
    text = SWEEP_CFG.replace("0.1:0.9:0.1", grid)
    with pytest.raises(ConfigError) as info:
        cli.parse_config(text, "sweep")
    assert any(p.startswith(problem) for p in info.value.problems)
    assert cli.main(["sweep", "--config", write(tmp_path, "g.cfg", text)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {problem}")


def test_mu_grid_cap_admits_exactly_the_cap():
    rc = cli.parse_config(SWEEP_CFG.replace("0.1:0.9:0.1", "0:1:1e-4"), "sweep")
    assert len(rc.mu_grid) == cli._MU_GRID_MAX_POINTS
    assert rc.mu_grid[:3] == (0.0, 1e-4, 2e-4)
    with pytest.raises(ConfigError, match="at most"):
        cli.parse_config(SWEEP_CFG.replace("0.1:0.9:0.1", "0:1:0.99e-4"), "sweep")


@pytest.mark.parametrize("key, value", [("seed", "-1"), ("jobs", "0")])
def test_flag_range_checks_match_config_keys(tmp_path, capsys, key, value):
    """A flag obeys the same range rule, and prints the same problem, as
    the config key it overrides."""
    subcommand, base = {"seed": ("simulate", SIM_CFG.replace("seed = 7\n", "")),
                        "jobs": ("sweep", SWEEP_CFG)}[key]
    by_flag = write(tmp_path, "flag.cfg", base)
    by_key = write(tmp_path, "key.cfg", base + f"{key} = {value}\n")
    assert cli.main([subcommand, "--config", by_flag, f"--{key}", value]) == 1
    flag_err = capsys.readouterr().err
    assert cli.main([subcommand, "--config", by_key]) == 1
    assert capsys.readouterr().err == flag_err
    assert flag_err.startswith(f"config error: {key}: ") and f"(got {value}" in flag_err


def test_problem_order_is_stable():
    bad = ("nonsense\nbogus = 3\nformat = xml\ntol = 0\njobs = 0\ndist = gaussian(0, 1)\n"
           "mu = 1.5\nregime = four_period\nn_periods = 0\nn_agents = 0\nseed = -1\n"
           "w0 = abc\n")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(bad, "simulate")
    assert exc.value.problems == [
        "line 1: expected `key = value`, got 'nonsense'",
        "unknown key 'bogus' for subcommand simulate",
        "unknown key 'tol' for subcommand simulate",
        "unknown key 'jobs' for subcommand simulate",
        "unknown key 'n_periods' for subcommand simulate",
        "format: must be csv or json, got 'xml'",
        "dist: expected uniform(a,b), discrete(...) or piecewise(...), got 'gaussian(0, 1)'",
        "mu must lie in [0,1] (got 1.5)",
        "regime: must be one of one_period, two_period, three_period, got 'four_period'",
        "jobs: must be at least 1 (got 0)",
        "n_periods: must lie in [1, 16] (got 0)",
        "n_agents: must be at least 1 (got 0)",
        "seed: must fit in 64 unsigned bits (got -1)",
        "w0: not a number: 'abc'",
    ]


@pytest.mark.parametrize("subcommand, text, other", [
    ("sweep", SWEEP_CFG.replace("two_period", "one_period") + "jobs = 0\n",
     "jobs: must be at least 1 (got 0)"),
    ("simulate", SIM_CFG.replace("two_period", "one_period").replace("seed = 7", "seed = -1"),
     "seed: must fit in 64 unsigned bits (got -1)"),
], ids=["sweep", "simulate"])
def test_regime_clash_is_reported_with_the_other_problems(subcommand, text, other):
    """A regime the subcommand does not run is a config problem like any
    other, listed with the rest rather than found once they are fixed."""
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(text, subcommand)
    assert exc.value.problems == [f"{subcommand}: regime must be two_period or three_period",
                                  other]


@pytest.mark.parametrize("subcommand, text, problem", [
    ("solve", TWO_PERIOD_CFG.replace("two_period", "one_period") + "series_out = m.csv\n",
     "series_out: not read under regime one_period"),
    ("simulate", SIM_CFG + "w0 = 0.6\nw1 = 0.4\nw_plus = 0.5\n",
     "w_plus: not read under regime two_period"),
    ("moral-hazard", MH_CFG + "wage_grid = 0, 1, 4\nwage_levels = 1\n",
     "wage_levels: not read when wage_grid is set"),
], ids=["series_out", "w_plus", "wage_levels"])
def test_keys_a_run_never_reads_are_refused(subcommand, text, problem):
    """A key the run would skip is refused, not silently ignored: the
    series of a one-period solve, a wage the regime's replay does not
    read, and wage_levels beside an explicit wage_grid."""
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(text, subcommand)
    assert exc.value.problems == [problem]


def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_invalid_flag_value(tmp_path, capsys):
    cfg = write(tmp_path, "a.cfg", SWEEP_CFG)
    assert cli.main(["sweep", "--config", cfg, "--jobs", "banana"]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")


def test_shared_parser_keeps_no_flag_between_calls(tmp_path, capsys):
    """The one parser main() reuses does not carry a flag from one call to
    the next: after simulate takes --seed, solve still refuses it."""
    sim = write(tmp_path, "sim.cfg", MINIMAL_CFG["simulate"])
    solve = write(tmp_path, "solve.cfg", MINIMAL_CFG["solve"])
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", sim, "--out", out, "--seed", "3"]) == 0
    assert cli.main(["solve", "--config", solve, "--out", out, "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert cli.main(["solve", "--config", solve, "--out", out]) == 0


def test_parser_is_built_once(tmp_path, monkeypatch):
    """main() builds the argparse parser on its first call only."""
    built = []
    add_subparsers = cli._Parser.add_subparsers
    monkeypatch.setattr(cli._Parser, "add_subparsers",
                        lambda self, **kw: built.append(self) or add_subparsers(self, **kw))
    cli._build_parser.cache_clear()
    cfg = write(tmp_path, "a.cfg", MINIMAL_CFG["screening"])
    for _ in range(3):
        assert cli.main(["screening", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert cli.main(["frobnicate"]) == 1
    assert len(built) == 1


# A small runnable config per subcommand.
MINIMAL_CFG = {
    "solve": TWO_PERIOD_CFG,
    "tree": "dist = uniform(0, 1)\nmu = 0.5\nn_periods = 2\n",
    "sweep": "dist = uniform(0, 1)\nmu_grid = 0.5\nregime = two_period\n",
    "simulate": "dist = uniform(0, 1)\nmu = 0.5\nregime = two_period\nn_agents = 1000\n",
    "screening": "n_total = 10\nm_allowed = 3\n",
    "moral-hazard": MH_CFG + "wage_levels = 5\n",
    "welfare": "dist = uniform(0, 1)\nmu = 0.5\n",
}
# The subcommand whose config reads each overridable key; tol is read by none.
READERS = {"seed": {"simulate"}, "jobs": {"sweep"}, "tol": set()}


@pytest.mark.parametrize("key", sorted(READERS))
@pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
def test_flag_is_accepted_only_where_its_key_is_read(tmp_path, capsys, subcommand, key):
    """--seed runs only on simulate and --jobs only on sweep; any other
    subcommand, and every subcommand for --tol, refuses the flag as a usage
    error before it reads the config."""
    cfg = write(tmp_path, "a.cfg", MINIMAL_CFG[subcommand])
    argv = [subcommand, "--config", cfg, "--out", str(tmp_path / "out"), f"--{key}", "1"]
    if subcommand in READERS[key]:
        assert cli.main(argv) == 0
    else:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("key", sorted(READERS))
@pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
def test_config_key_is_accepted_only_where_it_is_read(subcommand, key):
    text = MINIMAL_CFG[subcommand] + f"{key} = 1\n"
    if subcommand in READERS[key]:
        assert getattr(cli.parse_config(text, subcommand), key) == 1
    else:
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(text, subcommand)
        assert exc.value.problems == [f"unknown key {key!r} for subcommand {subcommand}"]


class _SerialPool:
    """A ProcessPoolExecutor stand-in that records max_workers and maps in
    this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cells):
        return map(fn, cells)


@pytest.mark.parametrize("jobs, cpus, workers", [
    (100_000, 4, 4), (100_000, 64, 9), (3, 64, 3), (100_000, 1, None), (1, 64, None)])
def test_sweep_workers_are_capped_by_cells_and_cpus(tmp_path, monkeypatch, jobs, cpus, workers):
    """The sweep asks for at most one worker per grid cell and per usable
    CPU, and runs in this process when that is one; the rows stay the same."""
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    cfg = write(tmp_path, "s.cfg", SWEEP_CFG)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", cfg, "--jobs", str(jobs), "--out", str(out)]) == 0
    assert _SerialPool.sizes == ([] if workers is None else [workers])
    serial = tmp_path / "serial.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
    assert out.read_bytes() == serial.read_bytes()


def fresh_stdout(code: str) -> str:
    """What a new interpreter running code prints, with this package first
    on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only a sweep with more than one worker loads the process pool, so a
    fresh interpreter that imports the CLI has loaded neither it nor
    multiprocessing."""
    assert fresh_stdout(
        "import sys, labormkt.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules])") == "[]"


def test_package_import_loads_no_submodule_until_a_name_is_read():
    """import labormkt runs no submodule, yet dir() lists every public name;
    reading a name imports the module that defines it."""
    assert fresh_stdout(
        "import sys, labormkt; "
        "print(sorted(m for m in sys.modules if m.startswith('labormkt.'))); "
        "print(set(labormkt.__all__) <= set(dir(labormkt))); "
        "labormkt.simulate; "
        "print('labormkt.simulator' in sys.modules)").splitlines() == ["[]", "True", "True"]


# The modules that only some subcommands run.
ON_DEMAND = ("moral_hazard", "screening", "simulator")


@pytest.mark.parametrize("subcommand, loaded", [
    ("solve", []), ("sweep", []), ("tree", []), ("welfare", []),
    ("moral-hazard", ["moral_hazard"]), ("screening", ["screening"]),
    ("simulate", ["simulator"]),
])
def test_a_cli_run_loads_only_the_modules_it_runs(tmp_path, subcommand, loaded):
    cfg_text = {**MINIMAL_CFG, "solve": THREE_PERIOD_CFG}[subcommand]
    argv = [subcommand, "--config", write(tmp_path, "run.cfg", cfg_text),
            "--out", str(tmp_path / "out")]
    out = fresh_stdout(
        f"import sys; from labormkt import cli; assert cli.main({argv!r}) == 0; "
        f"print([m for m in {ON_DEMAND!r} if 'labormkt.' + m in sys.modules])")
    assert out == repr(loaded)


def test_package_refuses_a_name_it_does_not_export():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        lm.not_a_name


def test_nonconvergence_exits_2_with_diagnostics(tmp_path, monkeypatch, capsys):
    cfg = write(tmp_path, "b.cfg", THREE_PERIOD_CFG)
    out = tmp_path / "diag.json"

    def explode(*args, **kwargs):
        raise NoConvergenceError("stalled on purpose",
                                 best={"w_plus": 0.27},
                                 residuals={"rehire_zero_profit": 1e-3})
    # The CLI solves through solve_regime, which calls multiperiod's binding.
    monkeypatch.setattr(multiperiod, "solve_three_period", explode)
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 2
    data = json.loads(out.read_text())
    assert data["error"] == "stalled on purpose"
    assert data["best"] == {"w_plus": 0.27}
    assert data["residuals"] == {"rehire_zero_profit": 1e-3}


CLI_GOLDEN_MAKER = _load_data_maker("make_cli_golden")
CLI_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json")
                        .read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden_bytes(name):
    """Every subcommand in CSV and JSON, and one single-problem config per
    error family, writes the bytes and returns the exit code recorded in
    data/cli_golden.json (see data/make_cli_golden.py)."""
    case = CLI_GOLDEN[name]
    assert CLI_GOLDEN_MAKER.cases()[name] == (case["subcommand"], case["config"], case["flags"])
    got = CLI_GOLDEN_MAKER.run_case(case["subcommand"], case["config"], case["flags"])
    assert got == {k: case[k] for k in ("exit", "stdout", "stderr", "files")}
