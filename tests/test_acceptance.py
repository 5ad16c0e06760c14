"""Acceptance battery: one test per shipping criterion.

Each test prints a single verdict line (bypassing capture, so it shows
up in any pytest invocation) and enforces its runtime budget.  Criterion
tolerances are pinned here and nowhere else.

One caveat is carried as a strict expected-failure instead of a pass:
the two-period ordering chain's final link, w0 < theta_bar2, is
provably false on uniform [0, 1] for mu <= 1/4 (the zero-profit ledger
forces w0 = 2*mean - w1, which turns the link into w1 > 1/3, i.e.
mu > 1/4).  The main criterion-1 test asserts everything that is
mathematically attainable, including the documented tail reversal; the
companion xfail asserts the chain literally at every grid point so the
discrepancy stays visible.  Details in notes/decisions.md.
"""

import json
import math
import random
import time

import pytest

import labormkt as lm
from labormkt import cli, simulator
from labormkt.equilibrium import MarketCollapse

import test_moral_hazard as mh_oracle
import test_multiperiod as mp_oracle

MU_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def run_criterion(capsys, number, label, budget_s, body):
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s over the {budget_s}s budget"
    except BaseException:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"[criterion {number}] {label}: FAIL ({elapsed:.2f}s)")
        raise
    with capsys.disabled():
        print(f"[criterion {number}] {label}: PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------------
# 1. Two-period closed forms and ordering
# ---------------------------------------------------------------------

def test_criterion_1_two_period_closed_form(capsys):
    def body():
        sol = lm.solve_two_period(lm.uniform(0, 1), 0.5)
        assert abs(sol.w1 - (math.sqrt(2.0) - 1.0)) < 1e-9
        assert abs(sol.w0 - 0.585786) < 1e-6
        assert sol.w1 < sol.theta_bar < sol.w0 < sol.theta_bar2
        for mu in MU_GRID:
            s = lm.solve_two_period(lm.uniform(0, 1), mu)
            root = math.sqrt(mu) / (1.0 + math.sqrt(mu))   # closed-form oracle
            assert abs(s.w1 - root) < 1e-9
            assert s.w1 < s.theta_bar < s.w0
            if mu > 0.25:
                assert s.w0 < s.theta_bar2
            else:
                # documented reversal; the literal chain lives in the
                # companion xfail below
                assert s.w0 > s.theta_bar2
    run_criterion(capsys, 1, "two-period closed forms and ordering", 1.0, body)


@pytest.mark.xfail(strict=True,
                   reason="w0 < theta_bar2 is provably false for mu <= 1/4 on "
                          "uniform [0,1]; see notes/decisions.md")
def test_criterion_1_literal_ordering_chain_all_mu(capsys):
    with capsys.disabled():
        print("[criterion 1] literal ordering chain at every mu: "
              "expected FAIL (tail link reverses for mu <= 1/4)")
    for mu in MU_GRID:
        s = lm.solve_two_period(lm.uniform(0, 1), mu)
        assert s.w1 < s.theta_bar < s.w0 < s.theta_bar2, f"mu={mu}"


# ---------------------------------------------------------------------
# 2. No-turnover collapse
# ---------------------------------------------------------------------

def test_criterion_2_collapse_without_turnover(capsys):
    def body():
        fp = lm.secondhand_fixed_point(lm.uniform(0, 1), 0.0)
        assert fp == 0.0 or isinstance(fp, MarketCollapse)
        below = lm.secondhand_fixed_point(lm.uniform(-0.5, 1.0), 0.0)
        assert (isinstance(below, MarketCollapse)
                or (isinstance(below, float) and below <= 0.0))
    run_criterion(capsys, 2, "mu=0 sends the re-hiring wage to zero", 1.0, body)


# ---------------------------------------------------------------------
# 3. Three-period system
# ---------------------------------------------------------------------

def test_criterion_3_three_period_system(capsys):
    def body():
        dist = lm.uniform(0, 1)
        for mu in (0.2, 0.5, 0.8):
            sol = lm.solve_three_period(dist, mu)
            for r in sol.residuals:
                assert abs(r) <= 1e-8, (mu, sol.residuals)
            report = lm.solve_three_period_multistart(dist, mu, n_starts=64)
            assert report.n_failed == 0
            assert report.wage_spread <= 1e-6
            assert report.agree
            assert lm.check_final_wage_ordering(sol).all_strict
            assert lm.check_stay_wage_discount(sol).all_strict
            two = lm.solve_regime(dist, mu, 2)
            tree = mp_oracle.tree_two_period(dist, mu)
            assert abs(two.w0 - tree["w0"]) <= 1e-8
            assert abs(two.w1 - tree["w1"]) <= 1e-8
    run_criterion(capsys, 3, "three-period residuals, multi-starts, inequalities",
                  30.0, body)


# ---------------------------------------------------------------------
# 4. Sub-market census
# ---------------------------------------------------------------------

def test_criterion_4_submarket_census(capsys):
    def body():
        for n in range(1, 7):
            tree = lm.build_market_tree(lm.uniform(0, 1), 0.5, n)
            walked = sum(1 for node in tree.nodes() if node.off_market)
            assert lm.submarket_count(n) == walked == 2 ** (n - 1) - 1
    run_criterion(capsys, 4, "2^(n-1)-1 sub-markets by enumeration", 1.0, body)


# ---------------------------------------------------------------------
# 5. Monte Carlo agreement at a million agents
# ---------------------------------------------------------------------

def test_criterion_5_monte_carlo_million(capsys):
    def body():
        dist = lm.uniform(0, 1)
        # two-period
        sol2 = lm.solve_two_period(dist, 0.5)
        cfg2 = simulator.SimulationConfig(
            n_agents=1_000_000, seed=20240601, regime="two_period", dist=dist,
            mu=0.5, wages={"w0": sol2.w0, "w1": sol2.w1})
        rep2 = simulator.simulate(cfg2)
        analytic2 = {"": sol2.theta_bar, "L": sol2.w1, "S": sol2.theta_bar2}
        for market in rep2.markets:
            se = market.mean_halfwidth / 1.96
            assert abs(market.mean - analytic2[market.name]) <= 3 * se, market.name
        assert abs(rep2.profit_per_capita) < 0.005
        # three-period: every cohort mean vs its tree pool mean
        sol3 = lm.solve_three_period(dist, 0.5)
        cfg3 = simulator.SimulationConfig(
            n_agents=1_000_000, seed=20240601, regime="three_period", dist=dist,
            mu=0.5, wages=sol3.wages())
        rep3 = simulator.simulate(cfg3)
        tree = sol3.tree(dist)
        for market in rep3.markets:
            se = market.mean_halfwidth / 1.96
            want = tree.node(market.name).mean()
            assert abs(market.mean - want) <= 3 * se, market.name
    run_criterion(capsys, 5, "million-agent means within 3 SE, profit near zero",
                  60.0, body)


# ---------------------------------------------------------------------
# 6. Screening
# ---------------------------------------------------------------------

def test_criterion_6_screening(capsys):
    def body():
        assert lm.residual_below_average_probability(
            lm.ScreeningConfig(6, 3)) == 0.0
        got = lm.residual_below_average_probability(lm.ScreeningConfig(10, 3))
        assert abs(got - 2.0 / 7.0) < 1e-12
        # brute force over 1e5 evenly spaced types
        types = [(k + 0.5) / 100_000 for k in range(100_000)]
        cut = 3 / 10
        survivors = [t for t in types if t >= cut]
        census = sum(1 for t in survivors if t < 0.5) / len(survivors)
        assert abs(got - census) < 1e-3
        assert lm.critical_assessment_periods(3) == 6
    run_criterion(capsys, 6, "screening residual probability and census", 5.0, body)


# ---------------------------------------------------------------------
# 7. Moral hazard
# ---------------------------------------------------------------------

def test_criterion_7_moral_hazard(capsys):
    def body():
        rng = random.Random(20240601)
        n_checked = 0
        for _ in range(100):
            p = mh_oracle.random_instance(rng)
            try:
                report = lm.welfare_gap(p)
            except lm.InfeasibleError:
                continue
            n_checked += 1
            assert report.gap >= 0.0
        assert n_checked >= 80
        # effort-independent output densities produce exactly no gap
        for _ in range(15):
            base = mh_oracle.random_instance(rng)
            flat = lm.ContractProblem(
                outcomes=base.outcomes, efforts=base.efforts,
                density=tuple(base.density[0] for _ in base.efforts),
                effort_costs=base.effort_costs, reservation=base.reservation,
                wage_grid=base.wage_grid)
            try:
                assert lm.welfare_gap(flat).gap == 0.0
            except lm.InfeasibleError:
                continue
        # exact agreement with independent exhaustive enumeration at the cap
        for _ in range(6):
            p = mh_oracle.random_instance(rng, n_out=3, n_eff=3, n_levels=25)
            fb, sb = lm.solve_first_best(p), lm.solve_second_best(p)
            want_fb = mh_oracle.oracle_first_best(p)
            want_sb = mh_oracle.oracle_second_best(p)
            assert fb.principal_value == want_fb[0]
            assert fb.rule == tuple(p.wage_grid[k] for k in want_fb[1])
            assert sb.principal_value == want_sb[0]
            assert sb.rule == tuple(p.wage_grid[k] for k in want_sb[1])
    run_criterion(capsys, 7, "welfare gap sign, flat-density zero, exact enumeration",
                  30.0, body)


# ---------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------

def test_criterion_8_byte_determinism(capsys, tmp_path):
    def body():
        sweep_cfg = tmp_path / "sweep.cfg"
        sweep_cfg.write_text(
            "dist = uniform(0, 1)\nmu_grid = 0.1:0.9:0.1\nregime = two_period\n")
        sim_cfg = tmp_path / "sim.cfg"
        sim_cfg.write_text(
            "dist = uniform(0, 1)\nmu = 0.5\nregime = two_period\n"
            "n_agents = 200000\nseed = 444\n")
        blobs = []
        for jobs, name in [(1, "a.csv"), (2, "b.csv"), (1, "c.csv")]:
            out = tmp_path / name
            assert cli.main(["sweep", "--config", str(sweep_cfg),
                             "--jobs", str(jobs), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        sims = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(sim_cfg),
                             "--format", "json", "--out", str(out)]) == 0
            sims.append(out.read_bytes())
        assert sims[0] == sims[1]
        assert json.loads(sims[0])["config_seed"] == 444
    run_criterion(capsys, 8, "byte-identical reruns, --jobs invariant", 10.0, body)
