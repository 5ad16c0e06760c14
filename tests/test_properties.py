"""Property-based checks of the pool invariants on random bases.

Random piecewise-linear and discrete bases, optionally split once before
the check, with random thresholds (inside and outside the support) and
quit probabilities.  Examples are derandomized so every run of the suite
checks the same cases; raise max_examples locally to search further.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import labormkt as lm  # noqa: E402
from labormkt import pools  # noqa: E402
from labormkt.solvers import m_extended  # noqa: E402

THETA = st.floats(-2.0, 3.0, allow_nan=False)
# Positive quit probabilities start at 1e-6: with a subnormal mu the
# weighted atom masses underflow to zero one by one, in any implementation.
MU = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1.0))


@st.composite
def piecewise_bases(draw):
    xs = draw(st.lists(THETA, min_size=2, max_size=6, unique=True).map(sorted))
    ds = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
                       min_size=len(xs), max_size=len(xs)))
    ds[draw(st.integers(0, len(xs) - 1))] = draw(st.floats(0.5, 5.0))
    hypothesis.assume(all(x1 - x0 > 1e-3 for x0, x1 in zip(xs, xs[1:])))
    return lm.piecewise_linear(list(zip(xs, ds)))


@st.composite
def discrete_bases(draw):
    atoms = draw(st.lists(st.tuples(THETA, st.floats(0.01, 5.0)), min_size=1, max_size=8))
    return lm.discrete(atoms)


BASES = st.one_of(piecewise_bases(), discrete_bases())


@st.composite
def pools_and_splits(draw):
    """A pool (the entry pool, or one side of a first split) plus a
    threshold and quit probability for the split under test."""
    dist = draw(BASES)
    lo, hi = dist.support_low, dist.support_high
    atoms = [t for t, _ in dist.atoms] or [t for t, _ in dist.nodes]
    thresholds = st.one_of(st.sampled_from(atoms), st.floats(lo - 1.0, hi + 1.0))
    pool = pools.LaborPool.entry(dist)
    if draw(st.booleans()):
        side = draw(st.integers(0, 1))
        pool = pools.firing_split(pool, draw(thresholds), draw(MU))[side]
    return pool, draw(thresholds), draw(MU)


def _scale(pool):
    base = pool.base
    return max(abs(base.support_low), abs(base.support_high), 1.0) * base.total_mass()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pools_and_splits())
def test_firing_split_conserves_mass_and_first_moment(case):
    pool, t, mu = case
    leavers, stayers = pools.firing_split(pool, t, mu)
    n, m1 = pools._moments(pool)
    n_l, m1_l = pools._moments(leavers)
    n_s, m1_s = pools._moments(stayers)
    tol = 1e-12 * _scale(pool)
    assert n_l + n_s == pytest.approx(n, abs=tol)
    assert m1_l + m1_s == pytest.approx(m1, abs=tol)
    assert pools.leaver_moments(pool, t, mu) == (n_l, m1_l)
    assert pools.stayer_moments(pool, t, mu) == (n_s, m1_s)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pools_and_splits())
def test_leaver_mean_lies_between_pool_inf_and_pool_mean(case):
    pool, w, mu = case
    hypothesis.assume(pools.pool_mass(pool) > 1e-9 * pool.base.total_mass())
    value = m_extended(pool, w, mu)
    tol = 1e-9 * max(abs(pool.base.support_low), abs(pool.base.support_high), 1.0)
    assert pools.pool_inf(pool) - tol <= value <= pools.pool_mean(pool) + tol


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pools_and_splits(), st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=20))
def test_array_leaver_kernel_equals_scalar_kernel(case, extra):
    pool, t, mu = case
    base = pool.base
    ts = [t, base.support_low, base.support_high] + extra
    ts += [x for lo, hi, _ in pool.pieces for x in (lo, hi)]
    n, m1 = pools.leaver_moments_array(pool, np.array(ts), mu)
    assert list(zip(n.tolist(), m1.tolist())) == [pools.leaver_moments(pool, x, mu) for x in ts]
    n, m1 = base.moments_below_array(np.array(ts))
    assert list(zip(n.tolist(), m1.tolist())) == [base.moments_below(x) for x in ts]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(-1.0, 5.0), st.floats(0.05, 5.0), st.floats(0.01, 0.99))
def test_two_period_wages_average_to_the_uniform_mean(low, width, mu):
    """On a uniform base the entry and re-hiring wages sum to twice the
    mean productivity: w0 + w1 = 2 * theta_bar."""
    sol = lm.solve_two_period(lm.uniform(low, low + width), mu)
    hypothesis.assume(not sol.collapsed)
    scale = max(abs(low), abs(low + width), 1.0)
    assert sol.w0 + sol.w1 == pytest.approx(2.0 * sol.theta_bar, abs=1e-9 * scale)


# ---------------------------------------------------------------------
# Config parsing: every bad input is a ConfigError
# ---------------------------------------------------------------------

from labormkt import cli  # noqa: E402
from labormkt.errors import ConfigError  # noqa: E402

# Small integers only: wage_levels builds a grid of that many points.
NUMBER = st.sampled_from(["0", "1", "2", "3", "-1", "0.5", "0.1", "-0.5", "1.5", "nan",
                          "inf", "-inf", "1e308", "-1e308", "1e-300", "5e-324", "x", ""])
NUMBER_LIST = st.lists(NUMBER, min_size=1, max_size=4).map(",".join)
RANGE = st.lists(NUMBER, min_size=3, max_size=3).map(":".join)
PAIRS = st.lists(st.tuples(NUMBER, NUMBER).map(lambda p: f"({p[0]},{p[1]})"),
                 min_size=1, max_size=4).map(";".join)
DIST = st.tuples(st.sampled_from(["uniform", "discrete", "piecewise"]),
                 st.one_of(PAIRS, NUMBER_LIST)).map(lambda d: f"{d[0]}({d[1]})")
WORD = st.sampled_from(["csv", "json", "xml", "one_period", "two_period", "three_period",
                        "sqrt", "log1p", "linear", "crra(0.5)", "crra(nan)", "crra(inf)"])
ANY_VALUE = st.one_of(NUMBER, NUMBER_LIST, RANGE, PAIRS, DIST, WORD)
# Each key mostly gets a value of its own shape, sometimes any other.
VALUES = {"dist": DIST, "mu_grid": st.one_of(RANGE, NUMBER_LIST), "density": PAIRS,
          "outcomes": NUMBER_LIST, "efforts": NUMBER_LIST, "costs": NUMBER_LIST,
          "wage_grid": NUMBER_LIST, "agent_utility": WORD, "principal_utility": WORD,
          "format": WORD, "regime": WORD}
KEYS = sorted(set().union(*cli._ALLOWED_KEYS.values()) | cli._COMMON_KEYS) + ["bogus"]


@st.composite
def config_texts(draw):
    subcommand = draw(st.sampled_from(cli.SUBCOMMANDS))
    keys = [k for k in KEYS if k in cli._REQUIRED_KEYS[subcommand] or draw(st.booleans())]
    lines = [f"{k} = {draw(st.one_of(VALUES.get(k, NUMBER), ANY_VALUE))}"
             for k in draw(st.permutations(keys))]
    return subcommand, "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(config_texts())
def test_parse_config_returns_a_config_or_raises_config_error(case):
    """Every config text either parses or raises ConfigError: no other
    exception, and no hang, whatever numbers the values hold."""
    subcommand, text = case
    try:
        assert isinstance(cli.parse_config(text, subcommand), cli.RunConfig)
    except ConfigError:
        pass
