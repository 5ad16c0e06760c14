"""Monte Carlo engine: determinism, chunking, and agreement with the
analytic solutions it is meant to audit."""

import json
import re
from pathlib import Path

import numpy as np
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
    assert simulator.simulate(frozen_cfg(cell)).to_dict() == cell["report"]


def solved_cfg(base, regime, n_agents, seed=3, mu=0.5):
    """A config at the frozen table's solved wages for base and regime."""
    cell = next(c for c in FROZEN["cells"] if (c["base"], c["regime"]) == (base, regime))
    return simulator.SimulationConfig(
        n_agents=n_agents, seed=seed, regime=regime, dist=FROZEN_BASES[base](),
        mu=mu, wages=cell["wages"])


@pytest.mark.parametrize("regime", ["two_period", "three_period"])
@pytest.mark.parametrize("base", sorted(FROZEN_BASES))
def test_worker_count_changes_nothing(monkeypatch, base, regime):
    """Chunks finish in any order on a pool, but their sums are folded in
    chunk order: one worker and three give the same report."""
    cfg = solved_cfg(base, regime, n_agents=50_001)  # 13 chunks, the last partial
    monkeypatch.setattr(simulator, "_CHUNK", 1 << 12)
    reports = []
    for workers in (1, 3):
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        reports.append(simulator.simulate(cfg).to_dict())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("base, block", [
    pytest.param(base, block, id=base if block == 1000 else f"{base}-{block}")
    for block in (1000, 999) for base in sorted(FROZEN_BASES)])
def test_sub_block_size_changes_nothing(monkeypatch, base, block):
    """Draws are read in sub-blocks but reduced per chunk, so sub-blocks
    that do not divide the chunk leave the frozen report as it is.  With
    three columns per worker, 999-worker sub-blocks end inside Philox's
    4-draw counter blocks: the chunk's one stream carries on across them."""
    cell = next(c for c in FROZEN["cells"]
                if (c["base"], c["regime"], c["mu"]) == (base, "three_period", 0.5))
    monkeypatch.setattr(simulator, "_BLOCK", block)
    assert simulator.simulate(frozen_cfg(cell)).to_dict() == cell["report"]


def test_a_full_chunk_traces_under_9_mb():
    """The chunk's float arrays are theta and one reused buffer, and every
    other per-worker array is a 0/1 cohort mask or holds one draw block:
    one full three-period chunk on the README piecewise base traces about
    6.1 MB at its peak.  When routing, cohorts and books ran on whole-chunk
    temporaries, it traced 11.9 MB."""
    import tracemalloc

    from labormkt.multiperiod import REGIMES, STAYED, wage_schedule

    cfg = solved_cfg("piecewise_readme", "three_period", n_agents=simulator._CHUNK)
    thresholds, pay = wage_schedule(REGIMES[cfg.regime][0], cfg.wages)
    hirers = [h for h in thresholds if not h.endswith(STAYED)]
    args = (cfg, thresholds, pay, hirers, 0, simulator._CHUNK)
    simulator._replay_chunk(*args)  # anything allocated once per process
    tracemalloc.start()
    try:
        simulator._replay_chunk(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


@pytest.mark.parametrize("workers", [1, 3])
def test_error_in_a_chunk_propagates(monkeypatch, workers):
    """The first failing chunk in chunk order raises its own exception."""
    class ChunkError(Exception):
        pass

    raised = {}
    real_draws = simulator._chunk_draws

    def failing_draws(cfg, start, stop, cols):
        if start >= 5 * 4096:
            raised[start] = ChunkError(start)
            raise raised[start]
        return real_draws(cfg, start, stop, cols)

    monkeypatch.setattr(simulator, "_chunk_draws", failing_draws)
    monkeypatch.setattr(simulator, "_CHUNK", 1 << 12)
    monkeypatch.setattr(simulator, "_WORKERS", workers)
    with pytest.raises(ChunkError) as err:
        simulator.simulate(solved_cfg("uniform_0_1", "two_period", n_agents=50_001))
    assert err.value is raised[5 * 4096]


@pytest.mark.parametrize("regime, extra", [
    ("two_period", {"w_plus": 0.1}),
    ("two_period", {"w2": 0.9, "w2p": 0.2}),
    ("two_period", {"bogus": 1.0}),
    ("three_period", {"bogus": 1.0}),
])
def test_config_refuses_wages_its_regime_does_not_read(regime, extra):
    """A wage the regime is not priced by would be echoed in the report
    without acting; it is refused, as the CLI refuses it."""
    cell = next(c for c in FROZEN["cells"] if c["regime"] == regime)
    message = f"wages this regime does not read: {list(extra)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        frozen_cfg(cell, wages=cell["wages"] | extra)


@pytest.mark.parametrize("scalar_type", [np.float32, np.float64, np.longdouble])
def test_config_keeps_each_wage_as_a_python_float(scalar_type):
    """A NumPy-scalar wage is stored as its float, in the order given, so
    the report is plain JSON and the run is the float wage's run."""
    def cfg(wages):
        return simulator.SimulationConfig(n_agents=5_000, seed=4, regime="three_period",
                                          dist=lm.uniform(0, 1), mu=0.5, wages=wages)

    floats = {"w2p": 0.625, "w0": 0.5, "w1": 0.375, "w_plus": 0.25, "w2": 0.75}
    got = cfg({k: scalar_type(v) for k, v in floats.items()})  # exact in each type
    assert list(got.wages.items()) == list(floats.items())
    assert {type(v) for v in got.wages.values()} == {float}
    report = simulator.simulate(got).to_dict()
    assert json.loads(json.dumps(report)) == report
    assert report == simulator.simulate(cfg(floats)).to_dict()


def test_float32_wage_is_stored_as_its_exact_value():
    wages = {"w0": np.float32(0.1), "w1": 0.4}
    cfg = simulator.SimulationConfig(n_agents=10, seed=0, regime="two_period",
                                     dist=lm.uniform(0, 1), mu=0.5, wages=wages)
    assert cfg.wages["w0"] == float(np.float32(0.1)) != 0.1
    assert wages["w0"] is not cfg.wages["w0"]  # the caller's mapping is left as it was


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


@pytest.mark.parametrize("field, bad", [
    ("seed", 1.5),          # would replay the stream of seed 1
    ("seed", 1.9),
    ("seed", True),         # would replay the stream of seed 1
    ("n_agents", 1000.0),   # would fail later, inside simulate
    ("n_agents", True),     # would run one agent and report n_agents True
])
def test_config_requires_integer_counts_and_seed(field, bad):
    good = dict(n_agents=10, seed=0, regime="two_period", dist=lm.uniform(0, 1),
                mu=0.5, wages={"w0": 0.6, "w1": 0.4})
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        simulator.SimulationConfig(**{**good, field: bad})


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
