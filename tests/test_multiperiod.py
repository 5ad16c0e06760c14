"""Three-period system and market trees against a closed-form oracle.

For a uniform pool on [0, 1] every equation in the five-wage system
reduces to explicit algebra: the two late fixed points are quadratic
roots in the retention offer t, the indifference and entry conditions
are linear, and the remaining scalar equation in t is solved here by
plain bisection.  The oracle below shares nothing with the package's
pool or solver code — it is straight quadratic formulas — so agreement
pins down both implementations.
"""

import functools
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import labormkt as lm
from labormkt import multiperiod, pools, solvers
from labormkt.multiperiod import RESIDUAL_NAMES, _stage_from_w_plus
from labormkt.solvers import scan_grid


@functools.lru_cache(maxsize=None)
def solved(mu):
    """Share one solve per mu across the whole module (read-only use)."""
    return lm.solve_three_period(lm.uniform(0, 1), mu)

MU_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

# Wage vectors the oracle produced once, frozen to guard against drift.
# Keys: (w0, w1, w_plus, w2, w2p).
FROZEN = {
    0.2: (0.8548782956230472, 0.47805360008628917, 0.19876291416528347,
          0.4463587902116693, 0.16706810429066368),
    0.5: (0.6555144162925296, 0.5091041255580919, 0.2713303702976979,
          0.5731552134097726, 0.3353814581493786),
    0.8: (0.5498464486844716, 0.5034719246047811, 0.3128665785939204,
          0.6372869727216081, 0.4466816267107474),
}


# ---------------------------------------------------------------------
# Closed-form oracle (uniform [0, 1] only)
# ---------------------------------------------------------------------

def oracle_late_wage(mu, t):
    """Fixed point of the leaver-mean map on the stayed slice [t, 1]."""
    return ((t - mu) + math.sqrt(mu) * (1.0 - t)) / (1.0 - mu)


def oracle_twice_wage(mu, t):
    """Fixed point on the released pool: density 1 on [0, t), mu on [t, 1].
    Two quadratic regimes depending on which side of t the root lands."""
    # candidate with w <= t
    a = 1.0 - mu
    b = 2.0 * mu * (t + mu * (1.0 - t))
    c = -mu * (t * t * (1.0 - mu) + mu)
    w_low = (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)
    if w_low <= t:
        return w_low
    # candidate with w > t
    a = mu * (1.0 - mu)
    b = 2.0 * (t * (1.0 - mu) + mu * mu)
    c = -(t * t * (1.0 - mu) + mu * mu)
    return (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)


def oracle_rehire_profit(mu, t):
    """Two-period ledger of a firm hiring the whole released pool at w1
    and keeping the survivors above the twice-released wage."""
    w2 = oracle_late_wage(mu, t)
    w2p = oracle_twice_wage(mu, t)
    w1 = t + w2 - w2p
    n1 = t + mu * (1.0 - t)
    m1 = t * t / 2.0 + mu * (1.0 - t * t) / 2.0
    if w2p <= t:
        q = (1.0 - mu) * ((t - w2p) + mu * (1.0 - t))
        m_kept = (1.0 - mu) * ((t * t - w2p * w2p) / 2.0 + mu * (1.0 - t * t) / 2.0)
    else:
        q = (1.0 - mu) * mu * (1.0 - w2p)
        m_kept = (1.0 - mu) * mu * (1.0 - w2p * w2p) / 2.0
    return (m1 - n1 * w1) + (m_kept - q * w2p)


def oracle_solve(mu, tol=1e-13):
    """Largest root of the rehire ledger over t in (0, 1/2]."""
    grid_n = 4096
    lo_best = None
    for k in range(grid_n, 0, -1):           # scan downward: largest root first
        b = 0.5 * k / grid_n
        a = 0.5 * (k - 1) / grid_n
        fa, fb = oracle_rehire_profit(mu, a), oracle_rehire_profit(mu, b)
        if fa == 0.0:
            lo_best = (a, a)
            break
        if fa * fb < 0.0:
            lo_best = (a, b)
            break
    assert lo_best is not None, f"oracle found no bracket at mu={mu}"
    a, b = lo_best
    while b - a > tol:
        mid = 0.5 * (a + b)
        if oracle_rehire_profit(mu, a) * oracle_rehire_profit(mu, mid) <= 0.0:
            b = mid
        else:
            a = mid
    t = 0.5 * (a + b)
    w2 = oracle_late_wage(mu, t)
    w2p = oracle_twice_wage(mu, t)
    w1 = t + w2 - w2p
    q1 = (1.0 - mu) * (1.0 - t)
    q2 = (1.0 - mu) ** 2 * (1.0 - w2)
    w0 = 0.5 + q1 * ((1.0 + t) / 2.0 - t) + q2 * ((1.0 + w2) / 2.0 - w2)
    return {"w0": w0, "w1": w1, "w_plus": t, "w2": w2, "w2p": w2p}


# ---------------------------------------------------------------------
# Solver vs oracle
# ---------------------------------------------------------------------

@pytest.mark.parametrize("mu", MU_GRID)
def test_solver_matches_oracle(mu):
    sol = solved(mu)
    want = oracle_solve(mu)
    for key, val in want.items():
        assert getattr(sol, key) == pytest.approx(val, abs=1e-8), key
    assert sol.max_residual <= 1e-8
    for r in sol.residuals:
        assert abs(r) <= 1e-8


@pytest.mark.parametrize("mu", sorted(FROZEN))
def test_frozen_wage_vectors(mu):
    sol = solved(mu)
    w0, w1, w_plus, w2, w2p = FROZEN[mu]
    assert sol.w0 == pytest.approx(w0, abs=5e-9)
    assert sol.w1 == pytest.approx(w1, abs=5e-9)
    assert sol.w_plus == pytest.approx(w_plus, abs=5e-9)
    assert sol.w2 == pytest.approx(w2, abs=5e-9)
    assert sol.w2p == pytest.approx(w2p, abs=5e-9)


def test_residual_names():
    assert RESIDUAL_NAMES == ("late_market_fixed_point", "twice_market_fixed_point",
                              "stay_quit_indifference", "entry_zero_profit",
                              "rehire_zero_profit")
    sol = solved(0.5)
    assert len(sol.residuals) == len(RESIDUAL_NAMES)


@pytest.mark.parametrize("mu", MU_GRID)
def test_triple_mean_identities(mu):
    """Both three-period career paths pay out three population means in
    total — the wage analogue of the two-period w0 + w1 = 2 * mean."""
    sol = solved(mu)
    assert sol.w0 + sol.w1 + sol.w2p == pytest.approx(3 * 0.5, abs=1e-8)
    assert sol.w0 + sol.w_plus + sol.w2 == pytest.approx(3 * 0.5, abs=1e-8)


def test_wage_spread_across_multistarts():
    rep = lm.solve_three_period_multistart(lm.uniform(0, 1), 0.5, n_starts=16)
    assert rep.agree
    assert rep.n_failed == 0
    assert len(rep.solutions) == 16
    assert rep.wage_spread <= 1e-6


def test_multistart_agreement_speaks_only_for_the_converged_starts():
    """One of these 16 starts cycles through w_plus of about 0.233, 1.244
    and 0.595 for all its steps: it counts as failed, and `agree` compares
    the other 15 solutions alone."""
    rep = lm.solve_three_period_multistart(
        lm.uniform(0.2343124581717, 3.1905669300626993), 0.023975332132585975,
        n_starts=16, seed=726991936)
    assert (rep.agree, rep.n_failed, len(rep.solutions)) == (True, 1, 15)


def test_mass_accounting():
    sol = solved(0.5)
    assert sol.mass_released + sol.mass_stayed == pytest.approx(sol.mass_entry, abs=1e-12)
    assert sol.mass_late + sol.mass_kept == pytest.approx(sol.mass_stayed, abs=1e-12)
    assert sol.mass_twice + sol.mass_rehired == pytest.approx(sol.mass_released, abs=1e-12)
    mu, t, w2 = sol.mu, sol.w_plus, sol.w2
    assert sol.mass_stayed == pytest.approx((1 - mu) * (1 - t), abs=1e-9)
    assert sol.mass_kept == pytest.approx((1 - mu) ** 2 * (1 - w2), abs=1e-9)


def test_regime_dispatch():
    dist = lm.uniform(0, 1)
    assert lm.solve_regime(dist, 0.5, 1) == pytest.approx(0.5)
    assert lm.solve_regime(dist, 0.5, 2) == lm.solve_two_period(dist, 0.5)
    three = lm.solve_regime(dist, 0.5, 3)
    assert isinstance(three, lm.ThreePeriodSolution)
    with pytest.raises(NotImplementedError):
        lm.solve_regime(dist, 0.5, 4)


def tree_two_period(dist, mu):
    """Two-period solve re-derived through the market tree.

    Takes the largest admissible fixed point as the review threshold,
    builds the two-period tree and reads the re-hiring wage off the
    released cohort's own mean and the entry wage off the retained
    cohort's books.  It shares the fixed-point scan with the library but
    none of the zero-profit algebra of ``solve_two_period``.
    """
    pool0 = pools.LaborPool.entry(dist)
    n, m1 = pools._moments(pool0)
    theta_bar = m1 / n
    roots = lm.m_fixed_points(pool0, mu)
    admissible = [r for r in roots if r >= 0.0]
    if not admissible:
        return None
    threshold = admissible[-1]
    tree = lm.build_market_tree(dist, mu, 2, thresholds={"": threshold})
    n_rel, m1_rel = pools._moments(tree.node("L").pool)
    n_stay, m1_stay = pools._moments(tree.node("S").pool)
    w1 = m1_rel / n_rel if n_rel > 0.0 else threshold  # terminal market mean
    theta_bar2 = m1_stay / n_stay if n_stay > 0.0 else theta_bar
    w0 = theta_bar + (m1_stay - n_stay * w1) / n
    return {"w0": w0, "w1": w1, "theta_bar2": theta_bar2, "mass_retained": n_stay}


@pytest.mark.parametrize("dist", [
    lm.uniform(0.0, 1.0),
    lm.piecewise_linear([(0.0, 0.2), (0.3, 1.1), (1.0, 0.1)]),
    lm.discrete([(k / 40, 1.0) for k in range(41)]),
    lm.discrete([(0.2, 1.0), (0.5, 2.0), (0.9, 1.5)]),
    lm.uniform(-0.5, 1.0),
    lm.discrete([(0.1, 3.0)]),
], ids=["uniform", "piecewise_readme", "discrete_41", "discrete_3", "uniform_neg",
        "one_atom"])
@pytest.mark.parametrize("mu", [0.0, 0.1, 0.2, 0.5, 0.8, 0.9, 1.0])
def test_two_period_solver_matches_tree_oracle(dist, mu):
    direct = lm.solve_two_period(dist, mu)
    tree = tree_two_period(dist, mu)
    assert direct.collapsed == (tree is None)
    if tree is None:
        return
    keys = ["w0", "w1", "mass_retained"]
    # At mu = 1 nobody is retained and the two conventions for the empty
    # cohort's mean differ, so theta_bar2 is compared only below 1.
    if mu < 1.0:
        keys.append("theta_bar2")
    for key in keys:
        assert getattr(direct, key) == pytest.approx(tree[key], abs=1e-8), key


def test_two_period_one_atom_whose_mean_rounds_up():
    # 0.1 * 3 / 3 rounds to 0.10000000000000002, above the only atom.  The
    # review clamps that threshold to the atom, as firing_split does, so
    # the atom is still retained with probability 1 - mu.
    dist = lm.discrete([(0.1, 3.0)])
    sol = lm.solve_two_period(dist, 0.5)
    assert not sol.collapsed
    assert sol.w1 > dist.support_high
    assert sol.w0 == sol.w1 == sol.theta_bar == sol.theta_bar2
    assert sol.mass_retained == 1.5
    assert sol.residual_fixed_point == sol.residual_zero_profit == 0.0
    assert lm.solve_regime(dist, 0.5, 2) == sol


def test_mu_domain():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            lm.solve_three_period(lm.uniform(0, 1), bad)


# ---------------------------------------------------------------------
# Non-uniform pools
# ---------------------------------------------------------------------

@pytest.mark.parametrize("dist", [
    lm.discrete([(0.2, 1.0), (0.5, 2.0), (0.9, 1.5)]),
    lm.piecewise_linear([(0.0, 0.2), (0.5, 1.4), (1.0, 0.6)]),
])
def test_other_bases_still_balance(dist):
    sol = lm.solve_three_period(dist, 0.4)
    assert sol.max_residual <= 1e-8
    mean = dist.mean()
    assert sol.w0 + sol.w1 + sol.w2p == pytest.approx(3 * mean, abs=1e-8)
    assert sol.w0 + sol.w_plus + sol.w2 == pytest.approx(3 * mean, abs=1e-8)
    assert sol.mass_released + sol.mass_stayed == pytest.approx(sol.mass_entry, abs=1e-9)


@pytest.mark.parametrize("scale", [3e4, 1e6])
@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9])
def test_large_population_solves_at_the_scaled_wages(scale, mu):
    """uniform(0, s) is uniform(0, 1) stretched by s in productivity and in
    head count, so its wages are s times the unit wages.  Its two books,
    in heads x wage, and their rounding grow by s**2, so they are gated per
    head hired."""
    unit = lm.solve_three_period(lm.uniform(0, 1), mu).wages()
    big = lm.solve_three_period(lm.uniform(0, scale), mu).wages()
    for key, w in unit.items():
        assert big[key] == pytest.approx(scale * w, rel=1e-9, abs=0.0), key


FAR_ATOM = lm.discrete([(0.5321807419284317, 2.5904303823460273),
                        (0.6772937196136276, 1.6855456080670204),
                        (9794.031323879735, 0.0008134888709451212)])
FAR_ATOM_MU = 0.16861864600167548


def test_terminal_pool_at_one_far_point_clears_at_its_mean():
    """At w_plus = theta_bar the stayers are the top atom alone, and their
    mean rounds 4e-9 below it: that one-point pool clears at its mean, and
    the system solves."""
    from labormkt.solvers import m_fixed_points

    entry = pools.LaborPool.entry(FAR_ATOM)
    theta_bar = pools.pool_mean(entry)
    stayed = pools.firing_split(entry, theta_bar, FAR_ATOM_MU)[1]
    mean = pools.pool_mean(stayed)
    assert mean < pools.pool_inf(stayed)
    assert m_fixed_points(stayed, FAR_ATOM_MU) == [mean]
    sol = lm.solve_three_period(FAR_ATOM, FAR_ATOM_MU)
    assert sol.w_plus == pytest.approx(0.55343233, abs=1e-8)
    assert sol.max_residual <= 1e-8


def test_narrow_outer_window_takes_its_sign_change_not_its_top_point_within_tol():
    """On uniform(0, 1e-6) the period-2 hirers' books are within tol =
    1e-10 at all 257 outer grid points, and change sign once, from grid
    point 138 to 139.  The search takes the lower end of that bracket, one
    grid step below the unit solution scaled by 1e-6; a scan of the whole
    grid took every point as a root, and its largest-root rule the top of
    the window, theta_bar = 5e-07."""
    dist, mu = lm.uniform(0.0, 1e-6), 0.5
    pool0 = pools.LaborPool.entry(dist)
    grid = scan_grid(0.0, 5e-07, 257).tolist()
    gs = [_stage_from_w_plus(pool0, mu, w).rehire_profit for w in grid]
    assert max(map(abs, gs)) <= 1e-10
    assert [i for i in range(1, 257) if (gs[i - 1] > 0.0) != (gs[i] > 0.0)] == [139]
    sol = lm.solve_three_period(dist, mu)
    assert (sol.w_plus, sol.diagnostics["w_plus_candidates"]) == (grid[138], [grid[138]])
    assert grid[138] < 1e-6 * solved(mu).w_plus < grid[139]


GOLDEN = json.loads((Path(__file__).parent / "data" / "three_period_golden.json")
                    .read_text(encoding="utf-8"))["cells"]
GOLDEN_BASES = {
    "piecewise_readme": lm.piecewise_linear([(0.0, 0.2), (0.3, 1.1), (1.0, 0.1)]),
    "uniform_0_1": lm.uniform(0.0, 1.0),
    "discrete_41": lm.discrete([(k / 40, 1.0) for k in range(41)]),
}


@pytest.mark.parametrize("cell", GOLDEN, ids=lambda c: f"{c['base']}-mu{c['mu']}")
def test_three_period_golden_table(cell):
    """The solver selects the same equilibrium, or raises the same typed
    error, as the table tests/data/make_three_period_golden.py recorded."""
    dist = GOLDEN_BASES[cell["base"]]
    if cell["outcome"] == "error":
        with pytest.raises(getattr(lm, cell["error"])) as info:
            lm.solve_three_period(dist, cell["mu"])
        assert set(info.value.residuals) == set(cell["residuals"])
        return
    sol = lm.solve_three_period(dist, cell["mu"])
    for name, value in cell["wages"].items():
        assert getattr(sol, name) == pytest.approx(value, abs=1e-8), name
    for key in ("w_plus_candidates", "fixed_point_roots_late", "fixed_point_roots_twice"):
        assert len(sol.diagnostics[key]) == len(cell[key]), key


def _load_data_maker(name):
    path = Path(__file__).parent / "data" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN_MAKER = _load_data_maker("make_three_period_golden")


@pytest.mark.parametrize("cell", GOLDEN, ids=lambda c: f"{c['base']}-mu{c['mu']}")
def test_three_period_golden_cells_regenerate_exactly(cell):
    """The table's generator reproduces every stored cell exactly: wages,
    root lists, and for a typed error its message, best and residuals."""
    make = GOLDEN_MAKER.BASES[cell["base"]]
    fresh = {"base": cell["base"], "mu": cell["mu"]} | GOLDEN_MAKER.cell(make(), cell["mu"])
    assert json.loads(json.dumps(fresh)) == cell


TWO_PERIOD_MAKER = _load_data_maker("make_two_period_golden")
TWO_PERIOD_GOLDEN = [(table, cell) for table, cells in json.loads(
    (Path(__file__).parent / "data" / "two_period_golden.json").read_text(encoding="utf-8")
).items() for cell in cells]


@pytest.mark.parametrize("table, cell", TWO_PERIOD_GOLDEN,
                         ids=lambda v: v if isinstance(v, str) else f"{v['base']}-mu{v['mu']}")
def test_two_period_and_welfare_golden_cells_regenerate_exactly(table, cell):
    """solve_two_period and welfare_comparison reproduce every stored cell
    (see data/make_two_period_golden.py).  The cells are compared as JSON
    text with ==, so NaN fields and the sign of zero are compared too."""
    make_cell = TWO_PERIOD_MAKER.TABLES[table][0]
    fresh = {"base": cell["base"], "mu": cell["mu"]} | make_cell(
        TWO_PERIOD_MAKER.BASES[cell["base"]](), cell["mu"])
    assert json.dumps(fresh) == json.dumps(cell)


@pytest.mark.parametrize("base", sorted(GOLDEN_BASES))
@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9])
def test_outer_search_takes_the_one_sign_change_of_the_whole_grid(base, mu):
    """The period-2 hirers' profit at every point of the outer scan grid is
    positive at the bottom and changes sign once, and the solution's w_plus
    is that bracket's root: an end within tol, the lower first, or the
    bisection of the bracket.  Where the residual gate refuses the solution
    (discrete_41 at mu = 0.1), its error carries that w_plus."""
    dist = GOLDEN_BASES[base]
    pool0 = pools.LaborPool.entry(dist)
    grid = scan_grid(pools.pool_inf(pool0), pools.pool_mean(pool0),
                     multiperiod._OUTER_SCAN).tolist()
    g = lambda w: _stage_from_w_plus(pool0, mu, w).rehire_profit
    gs = [g(w) for w in grid]
    changes = [i for i in range(1, len(grid)) if (gs[i - 1] > 0.0) != (gs[i] > 0.0)]
    assert gs[0] > 0.0 and len(changes) == 1
    a, b = changes[0] - 1, changes[0]
    ends = [grid[i] for i in (a, b) if abs(gs[i]) <= solvers._TOL]
    root = ends[0] if ends else solvers.bisect_root(g, grid[a], grid[b], gs[a], gs[b])
    try:
        w_plus = lm.solve_three_period(dist, mu).w_plus
    except lm.NoConvergenceError as exc:
        assert str(exc).startswith("three-period residuals stalled")
        w_plus = exc.best["w_plus"]
    assert w_plus == root


# opts maps solvers module constants to the values patched in for the case.
@pytest.mark.parametrize("dist, mu, opts, w_plus, error", [
    (GOLDEN_BASES["piecewise_readme"], 0.5, {"_MAX_ITER": 20}, 0.0,
     "bisection did not reach tol=1e-12 in 20 steps"),
    (GOLDEN_BASES["discrete_41"], 0.3, {"_MAX_ITER": 20}, 0.0,
     "bisection did not reach tol=1e-12 in 20 steps"),
    (lm.uniform(0.0, 1.0), 0.5, {}, 1.0, "no one is retained at w_plus=1.0"),
    (GOLDEN_BASES["piecewise_readme"], 0.5, {}, 2.0, "no one is retained at w_plus=2.0"),
    (lm.uniform(0.0, 1.0), 0.0, {}, -1.0, "no one is released at w_plus=-1.0"),
])
def test_failing_stage_raises_and_the_outer_search_passes_its_error_on(dist, mu, opts, w_plus,
                                                                       error, monkeypatch):
    """A stage fails on an inner bisection out of steps, on no one retained
    at or above the support top, and on no one released without quits.
    Where it fails at the bottom of the outer grid, the first point the
    search evaluates, solve_three_period raises that error unchanged."""
    for name, value in opts.items():
        monkeypatch.setattr(solvers, name, value)
    pool0 = pools.LaborPool.entry(dist)
    with pytest.raises(lm.LaborMarketError) as stage:
        _stage_from_w_plus(pool0, mu, w_plus)
    assert str(stage.value) == error
    if w_plus == pools.pool_inf(pool0) and 0.0 < mu < 1.0:
        with pytest.raises(type(stage.value)) as solve:
            lm.solve_three_period(dist, mu)
        facts = lambda exc: (str(exc), getattr(exc, "best", None), getattr(exc, "residuals", None))
        assert facts(solve.value) == facts(stage.value)


MULTISTART_FROZEN = json.loads((Path(__file__).parent / "data" / "multistart_frozen.json")
                               .read_text(encoding="utf-8"))

MULTISTART_MAKER = _load_data_maker("make_multistart_frozen")


@pytest.mark.parametrize("cell", MULTISTART_FROZEN["cells"],
                         ids=lambda c: f"{c['base']}-mu{c['mu']}")
def test_multistart_matches_frozen_reports(cell):
    """The whole multi-start report, every start's solution included,
    equals the frozen one (see data/make_multistart_frozen.py) with ==."""
    fresh = {"base": cell["base"], "mu": cell["mu"]} | MULTISTART_MAKER.cell(
        MULTISTART_MAKER.BASES[cell["base"]](), cell["mu"])
    assert json.loads(json.dumps(fresh)) == cell


NINE_NODES = lm.piecewise_linear([(k / 8, 0.3 + (k % 3) * 0.5) for k in range(9)])
THREE_ATOMS = lm.discrete([(0.2, 1.0), (0.5, 2.0), (0.9, 1.5)])


@pytest.mark.parametrize("dist, mu, n_starts", [
    (lm.uniform(0.0, 1.0), 0.5, 64),
    (NINE_NODES, 0.01, 16),  # two starts fail
    (THREE_ATOMS, 0.5, 16),
    (THREE_ATOMS, 0.1, 2),  # every start fails: NoConvergenceError
    # Some starts retain the top atom alone, whose leaver mean at w2 = H is
    # the pool mean (m_extended's top limit), not the leavers' m1 / n.
    (lm.discrete([(0.184, 1.0), (0.669, 3.0), (1.223, 3.0)]), 0.1, 8),
], ids=["uniform-64", "nine_nodes-mu0.01", "three_atoms", "three_atoms-all_fail",
        "top_atom_alone"])
def test_multistart_report_is_the_same_in_lockstep_and_scalar(dist, mu, n_starts,
                                                               monkeypatch):
    """Every start stepped in lockstep to the end (tail 0), every start
    stepped alone (tail n_starts) and the default mix give one report."""
    def report():
        try:
            return lm.solve_three_period_multistart(dist, mu, n_starts=n_starts).to_dict()
        except lm.NoConvergenceError as exc:
            return type(exc), str(exc), exc.best, exc.residuals
    default = report()
    for tail in (0, n_starts):
        monkeypatch.setattr(multiperiod, "_MULTISTART_TAIL", tail)
        assert report() == default


@pytest.mark.parametrize("dist", [*GOLDEN_BASES.values(), THREE_ATOMS],
                         ids=[*GOLDEN_BASES, "discrete_3"])
@pytest.mark.parametrize("mu", [0.25, 0.5])
def test_solution_masses_and_means_are_its_tree_nodes(dist, mu):
    """Every cohort mass and mean of a solution is the mass and mean of the
    matching node of sol.tree(dist), with ==."""
    sol = lm.solve_three_period(dist, mu)
    tree = sol.tree(dist)
    mass = lambda h: tree.node(h).mass()
    mean = lambda h: tree.node(h).mean()
    assert (sol.mass_entry, sol.mass_released, sol.mass_stayed, sol.mass_late,
            sol.mass_kept, sol.mass_twice, sol.mass_rehired) == tuple(
        map(mass, ("", "L", "S", "SL", "SS", "LL", "LS")))
    assert (sol.theta_bar, sol.theta_bar_stayed, sol.theta_bar_kept) == tuple(
        map(mean, ("", "S", "SS")))
    assert sol.diagnostics["market_means"] == {
        "released": mean("L"), "late": mean("SL"), "twice": mean("LL"), "rehired": mean("LS")}


def test_near_coincident_atoms_fail_with_typed_error():
    """Two atoms 1e-7 apart leave the period-2 hirers' books unbalanced by
    about 5e-8, above the 1e-8 residual gate: a typed failure, not a hang."""
    dist = lm.discrete([(0.5, 1.0), (0.5 + 1e-7, 1.0)])
    with pytest.raises(lm.NoConvergenceError) as info:
        lm.solve_three_period(dist, 0.5)
    worst = max(info.value.residuals, key=lambda k: abs(info.value.residuals[k]))
    assert worst == "rehire_zero_profit"
    assert 1e-8 < abs(info.value.residuals[worst]) < 1e-6


def test_point_mass_is_exactly_degenerate():
    sol = lm.solve_three_period(lm.discrete([(0.7, 2.0)]), 0.3)
    assert {sol.w0, sol.w1, sol.w_plus, sol.w2, sol.w2p} == {0.7}
    assert sol.residuals == (0.0, 0.0, 0.0, 0.0, 0.0)
    final = lm.check_final_wage_ordering(sol)
    stay = lm.check_stay_wage_discount(sol)
    assert final.all_weak and stay.all_weak
    assert not final.all_strict and not stay.all_strict


# ---------------------------------------------------------------------
# Inequality suites
# ---------------------------------------------------------------------

@pytest.mark.parametrize("mu", MU_GRID)
def test_asserted_inequalities_hold_strictly(mu):
    sol = solved(mu)
    final = lm.check_final_wage_ordering(sol)
    stay = lm.check_stay_wage_discount(sol)
    assert final.all_strict, [c.label for c in final.asserted if not c.strict]
    assert stay.all_strict, [c.label for c in stay.asserted if not c.strict]
    assert [c.label for c in final.asserted] == ["w2p < w2", "w2 < theta_bar_kept"]


def test_informational_rows_carry_known_flips():
    """Two textbook-claimed comparisons are not theorems: the retention
    offer dips below the twice-released wage only once turnover is thick
    enough, and the stayers' mean never falls below the re-hiring wage."""
    by_mu = {}
    for mu in (0.1, 0.2, 0.3, 0.5, 0.9):
        suite = lm.check_stay_wage_discount(solved(mu))
        rows = {c.label: c.strict for c in suite.informational}
        by_mu[mu] = rows
    assert set(by_mu[0.5]) == {"w_plus < w2p", "theta_bar_stayed < w1"}
    assert not by_mu[0.1]["w_plus < w2p"]
    assert not by_mu[0.2]["w_plus < w2p"]
    assert by_mu[0.3]["w_plus < w2p"]
    assert by_mu[0.5]["w_plus < w2p"]
    assert by_mu[0.9]["w_plus < w2p"]
    for mu in by_mu:
        assert not by_mu[mu]["theta_bar_stayed < w1"]


def test_suite_serialization():
    suite = lm.check_stay_wage_discount(solved(0.5))
    d = suite.to_dict()
    assert d["name"] == suite.name
    assert len(d["asserted"]) == 5
    assert len(d["informational"]) == 2


# ---------------------------------------------------------------------
# Market trees
# ---------------------------------------------------------------------

def test_submarket_count_matches_enumeration():
    for n in range(1, 7):
        tree = lm.build_market_tree(lm.uniform(0, 1), 0.5, n)
        by_walk = sum(1 for node in tree.nodes() if node.off_market)
        assert lm.submarket_count(n) == by_walk == 2 ** (n - 1) - 1
    for bad in (0, -3):
        with pytest.raises(ValueError):
            lm.submarket_count(bad)


def test_tree_masses_conserve_at_every_split():
    tree = lm.build_market_tree(lm.uniform(0, 1), 0.4, 4)
    for node in tree.nodes():
        if node.stay_child is not None:
            got = node.stay_child.mass() + node.leave_child.mass()
            assert got == pytest.approx(node.mass(), abs=1e-12), node.history
    assert tree.node("").mass() == pytest.approx(1.0, abs=1e-12)


def test_tree_lookup_and_flags():
    tree = lm.build_market_tree(lm.uniform(0, 1), 0.5, 3)
    assert not tree.node("").off_market
    assert tree.node("L").off_market
    assert tree.node("SS").period == 3
    assert not tree.node("S").off_market
    with pytest.raises(KeyError):
        tree.node("SSS")
    with pytest.raises(KeyError):
        tree.node("xy")


def test_tree_refuses_a_missing_threshold_and_clamps_one_outside_the_support():
    u = lm.uniform(0, 1)
    with pytest.raises(lm.InvalidThresholdError, match="no review threshold supplied for cohort 'S'"):
        lm.build_market_tree(u, 0.5, 3, thresholds={"": 0.5, "L": 0.4})
    for outside, end in ((5.0, 1.0), (-5.0, 0.0)):
        tree = lm.build_market_tree(u, 0.5, 2, thresholds={"": outside})
        at_end = lm.build_market_tree(u, 0.5, 2, thresholds={"": end})
        assert tree.root.threshold == outside
        assert [node.pool for node in tree.nodes()] == [node.pool for node in at_end.nodes()]
    # S is empty after a review above the support, and still reviewed: its
    # key is read by no split, but names a reviewed cohort.
    tree = lm.build_market_tree(u, 0.5, 3, thresholds={"": 5.0, "S": 0.5, "L": 0.5})
    assert tree.node("S").mass() == 0.0 and tree.node("S").threshold == 0.0


@pytest.mark.parametrize("n, thresholds, unread", [
    (2, {(): 5.0}, "[()]"),
    (2, {"": 0.5, "S": 0.6}, "['S']"),
    (3, {"": 0.5, "S": 0.6, "L": 0.4, "SS": 9.9, "typo": 1.0}, "['SS', 'typo']"),
    (1, {"": 0.5}, "['']"),
], ids=["tuple", "terminal", "deep-and-typo", "one-period"])
def test_tree_refuses_threshold_keys_of_no_reviewed_cohort(n, thresholds, unread):
    with pytest.raises(lm.InvalidThresholdError,
                       match=re.escape(f"thresholds name no cohort the tree reviews: {unread}")):
        lm.build_market_tree(lm.uniform(0, 1), 0.5, n, thresholds=thresholds)


@pytest.mark.parametrize("n, wages, unread", [
    (3, {"": 1.0, "SSS": 2.0}, "['SSS']"),
    (2, {"x": 1.0, 0: 2.0, "L": 0.5}, "['x', 0]"),
    (1, {"": 1.0, "S": 2.0}, "['S']"),
], ids=["too-deep", "not-histories", "one-period"])
def test_tree_refuses_wage_keys_of_no_cohort(n, wages, unread):
    with pytest.raises(ValueError, match=re.escape(f"wages name no cohort of the tree: {unread}")):
        lm.build_market_tree(lm.uniform(0, 1), 0.5, n, wages=wages)


@pytest.mark.parametrize("thresholds", [lambda h: 0.5, [0.5, 0.4], 3],
                         ids=["lambda", "list", "int"])
def test_tree_rejects_thresholds_that_are_not_a_mapping(thresholds):
    with pytest.raises(lm.InvalidThresholdError, match=type(thresholds).__name__):
        lm.build_market_tree(lm.uniform(0, 1), 0.5, 2, thresholds=thresholds)


@pytest.mark.parametrize("wages", [[1, 2], [], 3, "w0"], ids=["list", "empty", "int", "str"])
def test_tree_rejects_wages_that_are_not_a_mapping(wages):
    with pytest.raises(ValueError, match="wages must map histories"):
        lm.build_market_tree(lm.uniform(0, 1), 0.5, 2, wages=wages)


def test_solution_tree_attaches_wages():
    sol = solved(0.5)
    tree = sol.tree(lm.uniform(0, 1))
    wages = {node.history: node.wage for node in tree.nodes()}
    assert wages[""] == pytest.approx(sol.w0)
    assert wages["S"] == pytest.approx(sol.w_plus)
    assert wages["L"] == pytest.approx(sol.w1)
    # period-3 pay tracks the period-2 cohort: the kept are paid their
    # market alternative, so both children of a cohort share its wage
    assert wages["SS"] == wages["SL"] == pytest.approx(sol.w2)
    assert wages["LS"] == wages["LL"] == pytest.approx(sol.w2p)


def test_solution_round_trip():
    sol = solved(0.5)
    assert lm.ThreePeriodSolution.from_dict(sol.to_dict()) == sol


# ---------------------------------------------------------------------
# Welfare comparison
# ---------------------------------------------------------------------

def test_decile_table_shape_and_balance():
    cmp = lm.welfare_comparison(lm.uniform(0, 1), 0.5)
    assert len(cmp.deciles) == 10
    assert sum(r.mass_share for r in cmp.deciles) == pytest.approx(1.0, abs=1e-9)
    assert cmp.deciles[0].theta_low == pytest.approx(0.0)
    assert cmp.deciles[-1].theta_high == pytest.approx(1.0)
    for prev, cur in zip(cmp.deciles, cmp.deciles[1:]):
        assert prev.theta_high == pytest.approx(cur.theta_low)


@pytest.mark.parametrize("mu", [0.2, 0.5, 0.8])
def test_per_period_pay_is_regime_invariant(mu):
    """Every decile collects the population mean per period under both
    horizons — lengthening the horizon reshuffles, it does not enrich."""
    cmp = lm.welfare_comparison(lm.uniform(0, 1), mu)
    for row in cmp.deciles:
        assert row.per_period_difference == pytest.approx(0.0, abs=1e-8)
        assert row.two_period_total == pytest.approx(2 * 0.5, abs=1e-8)
        assert row.three_period_total == pytest.approx(3 * 0.5, abs=1e-8)
    assert cmp.aggregate_per_period_difference == pytest.approx(0.0, abs=1e-8)


def test_welfare_handles_atoms():
    cmp = lm.welfare_comparison(lm.discrete([(0.2, 1.0), (0.5, 2.0), (0.9, 1.5)]), 0.4)
    assert sum(r.mass_share for r in cmp.deciles) == pytest.approx(1.0, abs=1e-9)
    for row in cmp.deciles:
        assert row.per_period_difference == pytest.approx(0.0, abs=1e-8)


def test_welfare_round_trip():
    cmp = lm.welfare_comparison(lm.uniform(0, 1), 0.5)
    assert lm.WelfareComparison.from_dict(cmp.to_dict()) == cmp


# Each public solver, as a function of (dist, mu) whose result compares with ==.
PUBLIC_SOLVERS = {
    "secondhand_fixed_points": lm.secondhand_fixed_points,
    "solve_two_period": lambda d, mu: lm.solve_two_period(d, mu).to_dict(),
    "solve_three_period": lambda d, mu: lm.solve_three_period(d, mu).to_dict(),
    "solve_three_period_multistart":
        lambda d, mu: lm.solve_three_period_multistart(d, mu, n_starts=2).to_dict(),
    "solve_regime": lambda d, mu: lm.solve_regime(d, mu, 3).to_dict(),
    "welfare_comparison": lambda d, mu: lm.welfare_comparison(d, mu).to_dict(),
    "build_market_tree": lambda d, mu: [
        (node.history, node.threshold, pools._moments(node.pool))
        for node in lm.build_market_tree(d, mu, 3).nodes()] + [
        lm.build_market_tree(d, mu, 3).mu],
    "simulate": lambda d, mu: lm.simulate(lm.SimulationConfig(
        n_agents=1000, seed=0, regime=lm.TWO_PERIOD, dist=d, mu=mu,
        wages={"w0": 0.5, "w1": 0.4})).to_dict(),
}


@pytest.mark.parametrize("solver", sorted(PUBLIC_SOLVERS))
@pytest.mark.parametrize("scalar_type", [np.float32, np.longdouble])
def test_numpy_scalar_mu_solves_as_its_float(solver, scalar_type):
    """A NumPy scalar mu gives the result of float(mu), bit for bit: the
    kernels compute in float64 whatever scalar type mu arrives as (NumPy
    would otherwise keep float * np.float32 in float32)."""
    run = PUBLIC_SOLVERS[solver]
    dist = lm.uniform(0, 1)
    mu = scalar_type(0.3)
    assert run(dist, mu) == run(dist, float(mu))
