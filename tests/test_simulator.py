"""Monte Carlo engine: determinism, chunking, and agreement with the
analytic solutions it is meant to audit."""

import copy
import json
from pathlib import Path

import pytest

import labormkt as lm
from labormkt import simulator


def two_period_cfg(n=200_000, seed=31, mu=0.5):
    sol = lm.solve_two_period(lm.uniform(0, 1), mu)
    return simulator.SimulationConfig(
        n_agents=n, seed=seed, regime="two_period", dist=lm.uniform(0, 1),
        mu=mu, wages={"w0": sol.w0, "w1": sol.w1})


def three_period_cfg(n=200_000, seed=77, mu=0.5):
    sol = lm.solve_three_period(lm.uniform(0, 1), mu)
    return simulator.SimulationConfig(
        n_agents=n, seed=seed, regime="three_period", dist=lm.uniform(0, 1),
        mu=mu, wages=sol.wages())


# ---------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------

def test_same_seed_same_bytes():
    a = simulator.simulate(two_period_cfg()).to_dict()
    b = simulator.simulate(two_period_cfg()).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_three_period_reruns_identically():
    a = simulator.simulate(three_period_cfg(n=60_000)).to_dict()
    b = simulator.simulate(three_period_cfg(n=60_000)).to_dict()
    assert a == b


def test_seed_actually_matters():
    a = simulator.simulate(two_period_cfg(n=20_000, seed=1))
    b = simulator.simulate(two_period_cfg(n=20_000, seed=2))
    assert a.profit_per_capita != b.profit_per_capita


@pytest.mark.parametrize("make_cfg", [two_period_cfg, three_period_cfg],
                         ids=["two_period", "three_period"])
def test_chunk_size_does_not_move_agents(monkeypatch, make_cfg):
    """Worker routing is a pure function of the agent index, so carving
    the population into different chunk sizes must reproduce the same
    per-market head counts exactly (float sums may drift in the last
    ulp, counts may not)."""
    cfg = make_cfg(n=100_000)
    base = simulator.simulate(cfg)
    monkeypatch.setattr(simulator, "_CHUNK", 1 << 12)
    small = simulator.simulate(cfg)
    for m_base, m_small in zip(base.markets, small.markets):
        assert m_base.name == m_small.name
        assert m_base.count == m_small.count
        assert m_base.mean == pytest.approx(m_small.mean, abs=1e-9)
    assert base.profit_per_capita == pytest.approx(small.profit_per_capita, abs=1e-9)


FROZEN = json.loads((Path(__file__).parent / "data" / "simulate_frozen.json").read_text())
FROZEN_BASES = {
    "uniform_0_1": lambda: lm.uniform(0, 1),
    "piecewise_readme": lambda: lm.piecewise_linear([(0.0, 0.2), (0.3, 1.1), (1.0, 0.1)]),
    "discrete_3": lambda: lm.discrete([(0.2, 1.0), (0.5, 2.0), (0.9, 1.5)]),
}


def frozen_cfg(cell, wages=None):
    return simulator.SimulationConfig(
        n_agents=FROZEN["n_agents"], seed=FROZEN["seed"],
        regime=cell["regime"], dist=FROZEN_BASES[cell["base"]](),
        mu=cell["mu"], wages=wages or cell["wages"])


@pytest.mark.parametrize("cell", FROZEN["cells"],
                         ids=lambda c: f"{c['base']}-{c['regime']}-mu{c['mu']}")
def test_replay_matches_frozen_reports(cell):
    """The full report, frozen from an earlier replay (see
    data/make_simulate_frozen.py), over two chunks of agents."""
    got = simulator.simulate(frozen_cfg(cell)).to_dict()
    want = copy.deepcopy(cell["report"])
    if cell["regime"] == "three_period":
        # The three-period L break-even wage is summed as mean + correction
        # per hire, like every other market-hired cohort; the frozen value
        # summed (m1_L + m1_LS - n_LS * w2p) / n_L, a different float order.
        got_l, want_l = got["markets"][1], want["markets"][1]
        assert got_l["name"] == want_l["name"] == "L"
        assert got_l.pop("break_even_wage") == pytest.approx(
            want_l.pop("break_even_wage"), rel=1e-15)
    assert got == want


def test_two_period_replay_ignores_later_wages():
    """The regime picks the horizon: a two-period run that also carries
    three-period wages replays the same two rounds."""
    cell = next(c for c in FROZEN["cells"]
                if c["regime"] == "two_period" and c["mu"] == 0.5)
    extra = {"w_plus": 0.1, "w2": 0.9, "w2p": 0.2}
    got = simulator.simulate(frozen_cfg(cell, wages=cell["wages"] | extra)).to_dict()
    assert got.pop("wages") == cell["wages"] | extra
    assert got == {k: v for k, v in cell["report"].items() if k != "wages"}


# ---------------------------------------------------------------------
# Agreement with the analytic solution
# ---------------------------------------------------------------------

def test_two_period_markets_near_analytic():
    cfg = two_period_cfg(n=400_000)
    sol = lm.solve_two_period(lm.uniform(0, 1), 0.5)
    rep = simulator.simulate(cfg)
    markets = {m.name: m for m in rep.markets}
    assert set(markets) == {"", "L", "S"}
    # leavers' empirical mean vs the fixed-point wage; 3 standard errors
    lmkt = markets["L"]
    se = lmkt.mean_halfwidth / 1.96
    assert abs(lmkt.mean - sol.w1) <= 3 * se
    assert abs(markets[""].mean - 0.5) <= 3 * (markets[""].mean_halfwidth / 1.96)
    assert abs(rep.profit_per_capita) < 0.01
    # shares: leavers carry w1 + mu*(1-w1) of the population
    want_share = sol.w1 + 0.5 * (1 - sol.w1)
    assert markets["L"].mass_share == pytest.approx(want_share, abs=0.01)


def test_three_period_share_accounting():
    rep = simulator.simulate(three_period_cfg(n=300_000))
    markets = {m.name: m for m in rep.markets}
    assert set(markets) == {"", "S", "L", "SS", "SL", "LS", "LL"}
    period3 = markets["SS"].mass_share + markets["SL"].mass_share \
        + markets["LS"].mass_share + markets["LL"].mass_share
    assert period3 == pytest.approx(1.0, abs=1e-12)
    assert markets["S"].mass_share + markets["L"].mass_share == pytest.approx(
        1.0, abs=1e-12)
    sol = lm.solve_three_period(lm.uniform(0, 1), 0.5)
    assert markets["S"].mass_share == pytest.approx(sol.mass_stayed, abs=0.01)
    assert markets["LL"].mass_share == pytest.approx(sol.mass_twice, abs=0.01)
    assert abs(rep.profit_per_capita) < 0.01
    assert abs(rep.rehire_profit_per_capita) < 0.01


def test_no_turnover_leaver_pool_is_bottom_half():
    cfg = simulator.SimulationConfig(
        n_agents=200_000, seed=9, regime="two_period", dist=lm.uniform(0, 1),
        mu=0.0, wages={"w0": 0.75, "w1": 0.5})
    rep = simulator.simulate(cfg)
    lmkt = rep.market("L")
    se = lmkt.mean_halfwidth / 1.96
    assert abs(lmkt.mean - 0.25) <= 3 * se
    assert lmkt.mass_share == pytest.approx(0.5, abs=0.005)


def test_entry_overpay_shows_up_one_for_one():
    """Raising w0 by 0.1 lowers per-capita profit by exactly 0.1 — same
    draws, same routing, only the entry ledger shifts."""
    cfg = two_period_cfg(n=50_000)
    base = simulator.simulate(cfg).profit_per_capita
    bumped_wages = dict(cfg.wages)
    bumped_wages["w0"] = bumped_wages["w0"] + 0.1
    cfg2 = simulator.SimulationConfig(
        n_agents=cfg.n_agents, seed=cfg.seed, regime=cfg.regime,
        dist=cfg.dist, mu=cfg.mu, wages=bumped_wages)
    assert simulator.simulate(cfg2).profit_per_capita == pytest.approx(
        base - 0.1, abs=1e-9)


def test_break_even_wage_of_leaver_market_is_its_mean():
    rep = simulator.simulate(two_period_cfg(n=100_000))
    lmkt = rep.market("L")
    assert lmkt.break_even_wage == lmkt.mean
    smkt = rep.market("S")
    assert smkt.break_even_wage is None


def test_empirical_zero_profit_helper():
    cfg = two_period_cfg(n=30_000)
    assert simulator.empirical_zero_profit(cfg) == \
        simulator.simulate(cfg).profit_per_capita


# ---------------------------------------------------------------------
# Edge cases and validation
# ---------------------------------------------------------------------

def test_single_agent_runs():
    cfg = two_period_cfg(n=1)
    rep = simulator.simulate(cfg)
    assert rep.n_agents == 1
    total = sum(m.count for m in rep.markets if m.name in ("S", "L"))
    assert total == 1
    for m in rep.markets:
        if m.count < 2:
            assert m.mean_halfwidth is None


def test_config_validation():
    sol = lm.solve_two_period(lm.uniform(0, 1), 0.5)
    good = dict(n_agents=10, seed=0, regime="two_period",
                dist=lm.uniform(0, 1), mu=0.5,
                wages={"w0": sol.w0, "w1": sol.w1})
    simulator.SimulationConfig(**good)
    with pytest.raises(ValueError):
        simulator.SimulationConfig(**{**good, "n_agents": 0})
    with pytest.raises(ValueError):
        simulator.SimulationConfig(**{**good, "regime": "four_period"})
    with pytest.raises(ValueError):
        simulator.SimulationConfig(**{**good, "wages": {"w0": 0.5}})
    with pytest.raises(ValueError):
        simulator.SimulationConfig(**{**good, "mu": 1.5})


@pytest.mark.parametrize("wage", ["w0", "w1"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_wages(wage, bad):
    """A NaN or infinite wage fails at the boundary instead of turning the
    profit into NaN (or running silently at an infinite wage)."""
    wages = {"w0": 0.6, "w1": 0.4, wage: bad}
    with pytest.raises(ValueError, match="finite"):
        simulator.SimulationConfig(n_agents=10, seed=0, regime="two_period",
                                   dist=lm.uniform(0, 1), mu=0.5, wages=wages)


def test_report_serialization_is_plain_python():
    rep = simulator.simulate(two_period_cfg(n=5_000))
    d = rep.to_dict()
    text = json.dumps(d)            # must not choke on numpy scalars
    assert json.loads(text) == d
    assert isinstance(d["profit_per_capita"], float)
    assert isinstance(d["markets"][0]["count"], int)
