"""Every result record reaches JSON one way: to_dict() lists its fields in
declaration order, then its derived values, survives json.dumps, and
shares nothing mutable with the record."""

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil

import pytest

import labormkt as lm

UNI = lm.uniform(0, 1)


@functools.cache
def _welfare():
    return lm.welfare_comparison(UNI, 0.5)


@functools.cache
def _simulation():
    return lm.simulate(lm.SimulationConfig(
        n_agents=1000, seed=0, regime=lm.TWO_PERIOD, dist=UNI, mu=0.5,
        wages={"w0": 0.6, "w1": 0.4}))


@functools.cache
def _gap():
    return lm.welfare_gap(lm.ContractProblem(
        outcomes=(0.0, 4.0), efforts=(0.0, 1.0), density=((0.8, 0.2), (0.2, 0.8)),
        effort_costs=(0.0, 0.5), reservation=0.5))


# Per record: a builder of one instance, and the derived values its dict
# lists after its fields.
RECORDS = {
    "InequalityCheck": (lambda: lm.InequalityCheck("w1 < w0", 0.4, 0.6), ("strict", "equal")),
    "InequalitySuite": (lambda: lm.check_two_period_ordering(_welfare().two_period),
                        ("all_strict", "all_weak")),
    "TwoPeriodSolution": (lambda: _welfare().two_period, ()),
    "ThreePeriodSolution": (lambda: _welfare().three_period, ()),
    "DecileRow": (lambda: _welfare().deciles[0],
                  ("two_period_per_period", "three_period_per_period", "per_period_difference")),
    "WelfareComparison": (_welfare, ("aggregate_per_period_difference",)),
    "MarketStats": (lambda: _simulation().markets[0], ()),
    "SimulationReport": (_simulation, ()),
    "ContractSolution": (lambda: _gap().second_best, ()),
    "GapReport": (_gap, ("gap", "effort_reduced")),
    "MultiStartReport": (lambda: lm.solve_three_period_multistart(UNI, 0.5, n_starts=4), ()),
}


def _package_records() -> set[str]:
    """Every dataclass in the package that has a to_dict."""
    modules = [importlib.import_module(f"labormkt.{m.name}")
               for m in pkgutil.iter_modules(lm.__path__)]
    return {name for mod in modules for name, cls in inspect.getmembers(mod, inspect.isclass)
            if cls.__module__ == mod.__name__ and dataclasses.is_dataclass(cls)
            and hasattr(cls, "to_dict")}


def test_every_record_is_covered():
    assert _package_records() == set(RECORDS)


def _mutate(value) -> None:
    """Change every list and dict in value, all the way down."""
    if isinstance(value, dict):
        for v in value.values():
            _mutate(v)
        value["mutated"] = True
    elif isinstance(value, list):
        for v in value:
            _mutate(v)
        value.append(99.0)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_to_dict_is_fields_then_derived_values_and_a_copy(name):
    build, derived = RECORDS[name]
    record = build()
    d = record.to_dict()
    fields = [f.name for f in dataclasses.fields(record)]
    assert list(d) == fields + list(derived)
    for key in derived:
        assert d[key] == getattr(record, key)
    before = json.dumps(d, sort_keys=True)
    _mutate(d)
    assert json.dumps(record.to_dict(), sort_keys=True) == before
