"""The Monte Carlo replay kernel against a frozen copy of its earlier form.

replay_chunk_reference is simulator._replay_chunk as it was before the
kernel gathered cohorts with np.compress, built profit books by multiplying
with the cohort masks and read one Philox generator per chunk: it gathers
with boolean indexing, books through np.where, and keys a fresh generator
for every 2**15-worker sub-block.  The property below checks that the
library returns the same bits on every count, sum and sum of squares.

Bits, not values, because the books could differ in the sign of a zero: a
worker outside a cohort adds (theta - pay) * 0, which is -0.0 where
theta < pay, where np.where stores +0.0.  Adding a zero leaves a nonzero
partial sum as it is, and NumPy's sum of zeros is +0.0, so the bits agree;
the empty-hirer example below is the case where every term is -0.0.
"""

from unittest import mock

import numpy as np
import pytest

import labormkt as lm
from labormkt import simulator
from labormkt.multiperiod import LEFT, REGIMES, STAYED, _kept, wage_schedule
from labormkt.pools import sample_productivities

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

REFERENCE_BLOCK = 1 << 15


def reference_draws(seed: int, start: int, stop: int, cols: int) -> np.ndarray:
    """Draws for workers [start, stop) from a generator keyed for them alone."""
    offset = start * cols
    assert offset % 4 == 0, "Philox.advance counts 4-draw blocks"
    bg = np.random.Philox(key=seed)
    bg.advance(offset // 4)
    return np.random.Generator(bg).random((stop - start, cols))


def replay_chunk_reference(cfg, thresholds, pay, hirers, start, stop):
    """simulator._replay_chunk's earlier kernel: same arguments, same result."""
    cols = max(map(len, pay)) + 1
    theta = np.empty(stop - start)
    quits = np.empty((cols - 1, stop - start), dtype=bool)
    for lo in range(0, stop - start, REFERENCE_BLOCK):
        hi = min(lo + REFERENCE_BLOCK, stop - start)
        draws = reference_draws(cfg.seed, start + lo, start + hi, cols)
        theta[lo:hi] = sample_productivities(cfg.dist, draws[:, 0])
        np.less(draws[:, 1:].T, cfg.mu, out=quits[:, lo:hi])
    masks = {"": None}
    for h, t in thresholds.items():
        leave = (theta < t) | quits[len(h)]
        parent = masks[h]
        masks[h + LEFT] = leave if parent is None else parent & leave
        masks[h + STAYED] = ~leave if parent is None else parent & ~leave
    cohorts, books = {}, {}
    for h in pay:
        cohort = theta if masks[h] is None else theta[masks[h]]
        cohorts[h] = (cohort.size, cohort.sum(), (cohort * cohort).sum())
    for h in hirers:
        profit = (theta - pay[h] if masks[h] is None
                  else np.where(masks[h], theta - pay[h], 0.0))
        for k in _kept(h, pay):
            profit += np.where(masks[k], theta - pay[k], 0.0)
        books[h] = (cohorts[h][0], profit.sum(), (profit * profit).sum())
    return cohorts, books


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def replay_both(dist, regime, mu, wages, seed, start, span, block):
    cfg = simulator.SimulationConfig(n_agents=start + span, seed=seed, regime=regime,
                                     dist=dist, mu=mu, wages=wages)
    thresholds, pay = wage_schedule(REGIMES[regime][0], wages)
    hirers = [h for h in thresholds if not h.endswith(STAYED)]  # as simulate picks them
    args = (cfg, thresholds, pay, hirers, start, start + span)
    with mock.patch.object(simulator, "_BLOCK", block):
        got = simulator._replay_chunk(*args)
    return got, replay_chunk_reference(*args)


# Wages on a 1/16 grid from -0.25 to 1.25: below, inside and above the
# supports drawn here, so that some cohorts and hirers are empty.
GRID = st.integers(-4, 20).map(lambda k: k / 16)
COUNTS = st.integers(1, 4).map(float)


@st.composite
def replay_cases(draw):
    regime = draw(st.sampled_from([simulator.TWO_PERIOD, simulator.THREE_PERIOD]))
    names = REGIMES[regime][1]
    wages = {k: draw(GRID) for k in names}
    kind = draw(st.sampled_from(["uniform", "discrete", "piecewise"]))
    if kind == "uniform":
        low = draw(st.sampled_from([-0.5, 0.0, 0.25]))
        dist = lm.uniform(low, low + draw(st.sampled_from([0.5, 1.0])))
    elif kind == "discrete":
        atoms = draw(st.lists(st.tuples(GRID, COUNTS), max_size=4))
        # An atom exactly at a pay wage: its workers earn exactly zero profit.
        atoms.append((wages[draw(st.sampled_from(names))], draw(COUNTS)))
        dist = lm.discrete(atoms)
    else:
        xs = sorted(draw(st.sets(st.integers(0, 16), min_size=3, max_size=6)))
        dens = [float(draw(st.integers(0, 4))) for _ in xs]
        i = draw(st.integers(0, len(xs) - 2))
        dens[i] = dens[i + 1] = float(draw(st.integers(1, 4)))  # a flat segment
        dist = lm.piecewise_linear([(x / 16, d) for x, d in zip(xs, dens)])
    mu = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    start = 4 * draw(st.integers(0, 1 << 30))  # chunk starts sit on 4-draw blocks
    block = draw(st.sampled_from([999, 1000, 4096, simulator._BLOCK]))
    # Up to two full sub-blocks, then a last one that is mostly partial.
    span = draw(st.integers(0, 2)) * block + draw(st.integers(1, block))
    return dist, regime, mu, wages, seed, start, span, block


# Three-period, nobody released (mu 0, w_plus below the support) and both
# released-cohort wages above it: every term of the empty hirer "L"'s book
# is -0.0.
EMPTY_HIRER = (lm.uniform(0, 1), simulator.THREE_PERIOD, 0.0,
               {"w0": 0.5, "w1": 1.25, "w_plus": -0.25, "w2": 0.5, "w2p": 1.25},
               7, 1 << 18, 5000, 999)


@hypothesis.example(EMPTY_HIRER)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(replay_cases())
def test_replay_chunk_matches_reference_bits(case):
    (got_cohorts, got_books), (want_cohorts, want_books) = replay_both(*case)
    assert list(got_cohorts) == list(want_cohorts)
    for h, (n, s, q) in want_cohorts.items():
        gn, gs, gq = got_cohorts[h]
        assert (gn, bits(gs), bits(gq)) == (n, bits(s), bits(q)), h
    assert list(got_books) == list(want_books)
    for h, (n, s, q) in want_books.items():
        gn, gs, gq = got_books[h]
        assert (gn, bits(gs), bits(gq)) == (n, bits(s), bits(q)), h
