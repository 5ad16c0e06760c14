"""Contract enumeration against a from-scratch exhaustive oracle.

The oracle below rebuilds both optimizations with plain dict/max
plumbing.  It deliberately keeps two conventions identical so results
can be compared with ``==`` rather than tolerances: outcome terms are
accumulated in ascending outcome order, and candidates are generated in
lexicographic rule order with ``max`` keeping the earliest maximizer.
"""

import itertools
import math
import random

import pytest

import labormkt as lm
from labormkt.errors import InfeasibleError

IR_SLACK = 1e-12


# ---------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------

def oracle_values(p, rule_levels):
    """(agent value per effort, principal value per effort) for one rule."""
    agent, principal = [], []
    for i, f_row in enumerate(p.density):
        a = 0.0
        v = 0.0
        for j in range(len(p.outcomes)):
            w = p.wage_grid[rule_levels[j]]
            a += f_row[j] * p.agent_utility(w)
            v += f_row[j] * p.principal_utility(p.outcomes[j] - w)
        agent.append(a - p.effort_costs[i])
        principal.append(v)
    return agent, principal


def oracle_first_best(p):
    candidates = []
    for rule in itertools.product(range(len(p.wage_grid)), repeat=len(p.outcomes)):
        agent, principal = oracle_values(p, rule)
        for i in range(len(p.efforts)):
            if agent[i] >= p.reservation - IR_SLACK:
                candidates.append((principal[i], rule, i, agent[i]))
    if not candidates:
        raise InfeasibleError("oracle: nothing feasible")
    return max(candidates, key=lambda c: c[0])


def oracle_second_best(p):
    candidates = []
    for rule in itertools.product(range(len(p.wage_grid)), repeat=len(p.outcomes)):
        agent, principal = oracle_values(p, rule)
        top = max(agent)
        tied = [i for i, a in enumerate(agent) if a == top]
        tied.sort(key=lambda i: (-principal[i], i))
        i = tied[0]
        if agent[i] >= p.reservation - IR_SLACK:
            candidates.append((principal[i], rule, i, agent[i]))
    if not candidates:
        raise InfeasibleError("oracle: nothing feasible")
    return max(candidates, key=lambda c: c[0])


def random_instance(rng, n_out=None, n_eff=None, n_levels=None):
    n_out = n_out or rng.randint(2, 3)
    n_eff = n_eff or rng.randint(2, 3)
    n_levels = n_levels or rng.randint(5, 15)
    outcomes = sorted({round(rng.uniform(0.0, 6.0), 3) for _ in range(n_out)})
    while len(outcomes) < n_out or max(outcomes) <= 0:
        outcomes = sorted({round(rng.uniform(0.5, 6.0), 3) for _ in range(n_out)})
    efforts = sorted({round(rng.uniform(0.0, 2.0), 3) for _ in range(n_eff)})
    while len(efforts) < n_eff:
        efforts = sorted({round(rng.uniform(0.0, 2.0), 3) for _ in range(n_eff)})
    density = []
    for _ in range(n_eff):
        row = [rng.uniform(0.05, 1.0) for _ in range(n_out)]
        s = sum(row)
        density.append(tuple(x / s for x in row))
    costs = sorted(round(rng.uniform(0.0, 0.7), 3) for _ in range(n_eff))
    return lm.ContractProblem(
        outcomes=tuple(outcomes), efforts=tuple(efforts),
        density=tuple(density), effort_costs=tuple(costs),
        reservation=rng.uniform(0.0, 0.5),
        wage_grid=lm.default_wage_grid(tuple(outcomes), n_levels))


# ---------------------------------------------------------------------
# The frozen 2x2 instance
# ---------------------------------------------------------------------

def two_by_two():
    return lm.ContractProblem(
        outcomes=(0.0, 4.0), efforts=(0.0, 1.0),
        density=((0.8, 0.2), (0.2, 0.8)),
        effort_costs=(0.0, 0.5), reservation=0.5,
        wage_grid=lm.default_wage_grid((0.0, 4.0), 21))


def test_frozen_instance():
    p = two_by_two()
    report = lm.welfare_gap(p)
    fb, sb = report.first_best, report.second_best
    assert fb.rule == (1.0, 1.0)
    assert fb.principal_value == pytest.approx(2.2, abs=1e-12)
    assert fb.effort == 1.0
    assert sb.rule == (0.0, 1.6)
    assert sb.principal_value == pytest.approx(1.92, abs=1e-12)
    assert sb.agent_value == pytest.approx(0.5119288512538815, abs=1e-12)
    assert sb.effort == 1.0
    assert report.gap == pytest.approx(0.28, abs=1e-9)
    assert report.gap > 0.0
    assert not report.effort_reduced


def test_frozen_instance_matches_oracle_exactly():
    p = two_by_two()
    pv, rule_idx, i, av = oracle_first_best(p)
    fb = lm.solve_first_best(p)
    assert fb.principal_value == pv
    assert fb.rule == tuple(p.wage_grid[k] for k in rule_idx)
    assert fb.effort_index == i
    pv, rule_idx, i, av = oracle_second_best(p)
    sb = lm.solve_second_best(p)
    assert sb.principal_value == pv
    assert sb.rule == tuple(p.wage_grid[k] for k in rule_idx)
    assert sb.effort_index == i
    assert sb.agent_value == av


# ---------------------------------------------------------------------
# Randomized cross-validation (must be exact, not approximate)
# ---------------------------------------------------------------------

def test_randomized_instances_match_oracle():
    rng = random.Random(91)
    for _ in range(40):
        p = random_instance(rng)
        try:
            want_fb = oracle_first_best(p)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                lm.solve_first_best(p)
            continue
        fb = lm.solve_first_best(p)
        assert fb.principal_value == want_fb[0]
        assert fb.rule == tuple(p.wage_grid[k] for k in want_fb[1])
        assert fb.effort_index == want_fb[2]
        want_sb = oracle_second_best(p)
        sb = lm.solve_second_best(p)
        assert sb.principal_value == want_sb[0]
        assert sb.rule == tuple(p.wage_grid[k] for k in want_sb[1])
        assert sb.effort_index == want_sb[2]


def test_full_cap_instances_match_oracle():
    rng = random.Random(17)
    for _ in range(6):
        p = random_instance(rng, n_out=3, n_eff=3, n_levels=25)
        fb, sb = lm.solve_first_best(p), lm.solve_second_best(p)
        want_fb, want_sb = oracle_first_best(p), oracle_second_best(p)
        assert (fb.principal_value, fb.effort_index) == (want_fb[0], want_fb[2])
        assert (sb.principal_value, sb.effort_index) == (want_sb[0], want_sb[2])
        assert fb.rule == tuple(p.wage_grid[k] for k in want_fb[1])
        assert sb.rule == tuple(p.wage_grid[k] for k in want_sb[1])


def test_gap_is_never_negative():
    """Every incentive-feasible candidate is participation-feasible too,
    so the unconstrained optimum can only be weakly better — in exact
    float comparisons, not merely within tolerance."""
    rng = random.Random(23)
    for _ in range(100):
        p = random_instance(rng)
        try:
            report = lm.welfare_gap(p)
        except InfeasibleError:
            continue
        assert report.gap >= 0.0


def test_gap_zero_when_output_ignores_effort():
    rng = random.Random(5)
    for _ in range(20):
        p0 = random_instance(rng)
        flat = lm.ContractProblem(
            outcomes=p0.outcomes, efforts=p0.efforts,
            density=tuple(p0.density[0] for _ in p0.efforts),
            effort_costs=p0.effort_costs, reservation=p0.reservation,
            wage_grid=p0.wage_grid)
        try:
            report = lm.welfare_gap(flat)
        except InfeasibleError:
            continue
        assert report.gap == 0.0


def test_single_effort_has_no_incentive_problem():
    p = lm.ContractProblem(
        outcomes=(0.0, 4.0), efforts=(1.0,), density=((0.3, 0.7),),
        effort_costs=(0.2,), reservation=0.3,
        wage_grid=lm.default_wage_grid((0.0, 4.0), 21))
    report = lm.welfare_gap(p)
    assert report.gap == 0.0
    assert report.first_best.rule == report.second_best.rule


def test_participation_bar_is_respected():
    rng = random.Random(40)
    for _ in range(25):
        p = random_instance(rng)
        try:
            report = lm.welfare_gap(p)
        except InfeasibleError:
            continue
        assert report.first_best.agent_value >= p.reservation - 1e-9
        assert report.second_best.agent_value >= p.reservation - 1e-9


def test_unreachable_reservation_is_infeasible():
    p = lm.ContractProblem(
        outcomes=(0.0, 4.0), efforts=(0.0, 1.0),
        density=((0.8, 0.2), (0.2, 0.8)),
        effort_costs=(0.0, 0.5), reservation=50.0,
        wage_grid=lm.default_wage_grid((0.0, 4.0), 21))
    with pytest.raises(InfeasibleError):
        lm.solve_first_best(p)
    with pytest.raises(InfeasibleError):
        lm.solve_second_best(p)


def test_grid_refinement_never_hurts():
    """The 41-level grid contains the 21-level one exactly (same
    rationals, same rounding), so both optima are monotone under
    refinement — exactly, not approximately."""
    p21 = two_by_two()
    p41 = lm.ContractProblem(
        outcomes=p21.outcomes, efforts=p21.efforts, density=p21.density,
        effort_costs=p21.effort_costs, reservation=p21.reservation,
        wage_grid=lm.default_wage_grid((0.0, 4.0), 41))
    assert set(p21.wage_grid) <= set(p41.wage_grid)
    assert lm.solve_first_best(p41).principal_value >= \
        lm.solve_first_best(p21).principal_value
    assert lm.solve_second_best(p41).principal_value >= \
        lm.solve_second_best(p21).principal_value


# ---------------------------------------------------------------------
# Problem statement validation and utilities
# ---------------------------------------------------------------------

def test_utility_families():
    for spec, checks in [
        (lm.UtilitySpec("sqrt"), [(0.0, 0.0), (4.0, 2.0)]),
        (lm.UtilitySpec("linear"), [(0.0, 0.0), (3.0, 3.0)]),
        (lm.UtilitySpec("log1p"), [(0.0, 0.0), (math.e - 1.0, 1.0)]),
        (lm.UtilitySpec("crra", 0.5), [(0.0, 0.0), (4.0, 4.0)]),
    ]:
        for x, want in checks:
            assert spec(x) == pytest.approx(want, abs=1e-12)


def test_problem_validation():
    grid = lm.default_wage_grid((0.0, 4.0), 5)
    ok = dict(outcomes=(0.0, 4.0), efforts=(0.0, 1.0),
              density=((0.5, 0.5), (0.2, 0.8)),
              effort_costs=(0.0, 0.5), wage_grid=grid)
    lm.ContractProblem(**ok)   # sanity: the base case constructs
    with pytest.raises(ValueError):
        lm.ContractProblem(**{**ok, "density": ((0.5, 0.6), (0.2, 0.8))})
    with pytest.raises(ValueError):
        lm.ContractProblem(**{**ok, "efforts": (1.0, 0.0)})
    with pytest.raises(ValueError):
        lm.ContractProblem(**{**ok, "effort_costs": (0.5, 0.0)})
    with pytest.raises(ValueError):
        lm.ContractProblem(**{**ok, "density": ((0.5, 0.5),)})


def test_gap_report_serialization():
    report = lm.welfare_gap(two_by_two())
    d = report.to_dict()
    assert d["gap"] == report.gap
    assert d["first_best"]["rule"] == list(report.first_best.rule)
    assert float(report) == report.gap


# ---------------------------------------------------------------------
# 4 outcomes x 22 wage levels: 234,256 rules
# ---------------------------------------------------------------------

# The expected values were computed once with oracle_first_best and
# oracle_second_best (seconds per instance, too slow to rerun here).
OUTCOMES_4X22 = (0.0, 1.0, 3.0, 6.0)
FROZEN_4X22 = [
    (dict(efforts=(0.0, 1.0),
          density=((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4)),
          effort_costs=(0.0, 0.3)),
     {'first_best': {'rule': [0.2857142857142857, 0.5714285714285714, 0.5714285714285714,
                              0.8571428571428571],
                     'effort_index': 1, 'effort': 1.0, 'principal_value': 2.8428571428571434,
                     'agent_value': 0.5017447613007326, 'kind': 'first_best'},
      'second_best': {'rule': [0.0, 0.5714285714285714, 0.5714285714285714, 1.1428571428571428],
                      'effort_index': 1, 'effort': 1.0, 'principal_value': 2.7571428571428576,
                      'agent_value': 0.5055824600691063, 'kind': 'second_best'},
      'gap': 0.08571428571428585, 'effort_reduced': False}),
    (dict(efforts=(0.0, 1.0, 2.0),
          density=((0.4, 0.3, 0.2, 0.1), (0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4)),
          effort_costs=(0.0, 0.2, 0.6)),
     {'first_best': {'rule': [0.8571428571428571, 1.7142857142857142, 1.1428571428571428,
                              1.1428571428571428],
                     'effort_index': 2, 'effort': 2.0, 'principal_value': 2.271428571428572,
                     'agent_value': 0.5027749556152342, 'kind': 'first_best'},
      'second_best': {'rule': [0.0, 0.2857142857142857, 0.5714285714285714, 2.2857142857142856],
                      'effort_index': 1, 'effort': 1.0, 'principal_value': 1.7142857142857144,
                      'agent_value': 0.5005773304700529, 'kind': 'second_best'},
      'gap': 0.5571428571428574, 'effort_reduced': True}),
    # Zero-probability outcomes leave many rules tied, which pins the
    # tie-break: the lexicographically earliest optimal rule.
    (dict(efforts=(0.0, 1.0),
          density=((0.5, 0.5, 0.0, 0.0), (0.0, 0.25, 0.25, 0.5)),
          effort_costs=(0.0, 0.3)),
     {'first_best': {'rule': [0.0, 0.2857142857142857, 0.2857142857142857, 1.1428571428571428],
                     'effort_index': 1, 'effort': 1.0, 'principal_value': 3.285714285714286,
                     'agent_value': 0.5017837257372733, 'kind': 'first_best'},
      'second_best': {'rule': [0.0, 0.2857142857142857, 0.2857142857142857, 1.1428571428571428],
                      'effort_index': 1, 'effort': 1.0, 'principal_value': 3.285714285714286,
                      'agent_value': 0.5017837257372733, 'kind': 'second_best'},
      'gap': 0.0, 'effort_reduced': False}),
    (dict(efforts=(0.0, 1.0, 2.0),
          density=((0.4, 0.6, 0.0, 0.0), (0.1, 0.2, 0.3, 0.4), (0.0, 0.0, 0.5, 0.5)),
          effort_costs=(0.0, 0.2, 0.9)),
     {'first_best': {'rule': [0.5714285714285714, 0.2857142857142857, 0.5714285714285714,
                              0.5714285714285714],
                     'effort_index': 1, 'effort': 1.0, 'principal_value': 2.985714285714286,
                     'agent_value': 0.5116476535797334, 'kind': 'first_best'},
      'second_best': {'rule': [0.0, 0.2857142857142857, 0.5714285714285714, 0.8571428571428571],
                      'effort_index': 1, 'effort': 1.0, 'principal_value': 2.928571428571429,
                      'agent_value': 0.5040112204795266, 'kind': 'second_best'},
      'gap': 0.057142857142857384, 'effort_reduced': False}),
]


@pytest.mark.parametrize("spec, want", FROZEN_4X22,
                         ids=["2-efforts", "3-efforts", "2-efforts-ties", "3-efforts-ties"])
def test_4x22_instances_match_frozen_oracle_optimum(spec, want):
    p = lm.ContractProblem(outcomes=OUTCOMES_4X22, reservation=0.5,
                           wage_grid=lm.default_wage_grid(OUTCOMES_4X22, 22), **spec)
    assert len(p.wage_grid) ** len(p.outcomes) == 234_256
    assert lm.welfare_gap(p).to_dict() == want


def test_gap_is_never_negative_on_4_outcome_instances():
    """Instances of 234,256 to 390,625 rules, with 2 or 3 efforts.  The
    first is one a coordinate-ascent search got wrong: its second-best
    came out 0.0150 above its first-best."""
    outcomes = (0.505972931668111, 0.6667113377602658, 2.5105281020688825, 7.297014525852901)
    problems = [lm.ContractProblem(
        outcomes=outcomes, efforts=(0.4888640762605223, 1.188090469733891),
        density=((0.24314425348683508, 0.2862399971159916, 0.09658977722036534,
                  0.37402597217680805),
                 (0.0746295629916777, 0.4355566802812283, 0.2171036665558795,
                  0.2727100901712145)),
        effort_costs=(0.07903808570135196, 0.2512178690328641),
        reservation=0.22092066294125567, wage_grid=lm.default_wage_grid(outcomes, 22))]
    rng = random.Random(61)
    problems += [random_instance(rng, n_out=4, n_eff=rng.randint(2, 3),
                                 n_levels=rng.randint(22, 25)) for _ in range(5)]
    assert lm.welfare_gap(problems[0]).gap >= 0.0
    for p in problems[1:]:
        try:
            report = lm.welfare_gap(p)
        except InfeasibleError:
            continue
        assert report.gap >= 0.0


def test_rule_budget_is_checked_before_any_grid_is_built():
    """More than 10**7 wage rules is refused where the instance is stated."""
    with pytest.raises(ValueError, match="wage rules"):
        lm.default_wage_grid((0.0, 4.0), 10 ** 12)
    with pytest.raises(ValueError, match="wage rules"):
        lm.default_wage_grid(tuple(float(x) for x in range(1, 7)))  # 21 ** 6 rules
    grid = tuple(k / 1000 for k in range(3163))   # 3163 ** 2 > 10 ** 7
    with pytest.raises(ValueError, match="wage rules"):
        lm.ContractProblem(outcomes=(0.0, 4.0), efforts=(0.0,), density=((0.5, 0.5),),
                           effort_costs=(0.0,), wage_grid=grid)
    lm.ContractProblem(outcomes=(0.0, 4.0), efforts=(0.0,), density=((0.5, 0.5),),
                       effort_costs=(0.0,), wage_grid=grid[:3162])  # 3162 ** 2 < 10 ** 7
