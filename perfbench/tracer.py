"""Span tracer that wraps labormkt's layer entry points from outside the package.

Modules import each other's functions by name (``from .pools import
_moments``), so a boundary is rebound in every ``labormkt`` module that holds
the original function object, not just in the module that defines it.
``Tracer.install`` does that and ``Tracer.restore`` puts every original back.
A boundary whose module or function no longer exists is recorded as absent
and is not traced.

Each call through a boundary opens a span (name, start, end, parent).  Spans
are folded into per-layer totals as they close, so memory stays flat however
many calls a pass makes:

* calls    -- spans opened;
* busy_s   -- time inside the layer, counting nested spans of the same
              layer once (scan_roots and bisect_root nest in themselves);
* self_s   -- span time not covered by child spans of any traced layer;
* durations -- every span's length, for latency percentiles.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field

# Layer boundaries, as "module.function" inside the labormkt package.
BOUNDARIES = (
    "cli.main",
    "cli.parse_config",
    "pools._moments",
    "pools.firing_split",
    "pools.sample_productivities",
    "quadrature.adaptive_simpson",
    "solvers.m_extended",
    "solvers.scan_roots",
    "solvers.bisect_root",
    "solvers.m_fixed_points",
    "multiperiod._stage_from_w_plus",
    "multiperiod.solve_three_period",
    "multiperiod.solve_three_period_multistart",
    "multiperiod.welfare_comparison",
    "multiperiod.build_market_tree",
    "equilibrium.solve_two_period",
    "simulator.simulate",
    "simulator._chunk_draws",
    "moral_hazard.solve_first_best",
    "moral_hazard.solve_second_best",
    "moral_hazard._ascent",
)
PACKAGE = "labormkt"


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: array = field(default_factory=lambda: array("d"))
    # Work units counted at the boundary: roots returned, agents simulated,
    # contract rules enumerated.
    units: int = 0
    # Busy time of the calls that produced `units` (rules: enumerating calls).
    units_busy_s: float = 0.0

    def p50_s(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


def _units_m_fixed_points(args, kwargs, result, saw_ascent) -> int:
    return len(result)


def _units_simulate(args, kwargs, result, saw_ascent) -> int:
    return int(result.n_agents)


def _units_contract(args, kwargs, result, saw_ascent) -> int:
    # An enumerating solve visits every rule on the wage grid; a solve that
    # fell back to coordinate ascent enumerates none.
    if saw_ascent:
        return 0
    problem = args[0] if args else kwargs["p"]
    return len(problem.wage_grid) ** len(problem.outcomes)


_UNIT_COUNTERS = {
    "solvers.m_fixed_points": _units_m_fixed_points,
    "simulator.simulate": _units_simulate,
    "moral_hazard.solve_first_best": _units_contract,
    "moral_hazard.solve_second_best": _units_contract,
}


class Tracer:
    """Rebinds BOUNDARIES to span-recording wrappers while installed."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.stats: dict[str, LayerStats] = {}
        self.absent: list[str] = []
        self._rebound: list[tuple[object, str, object]] = []
        # One frame per open span: [time covered by child spans, saw _ascent].
        self._stack: list[list] = []
        self._open: dict[str, int] = {}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            for name in self.boundaries:
                mod_name, func_name = name.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"{PACKAGE}.{mod_name}")
                except ModuleNotFoundError:
                    self.absent.append(name)
                    continue
                original = getattr(module, func_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                self.stats[name] = LayerStats()
                self._open[name] = 0
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every rebound name back, in reverse order."""
        while self._rebound:
            mod, attr, original = self._rebound.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- span recording --------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        open_count = self._open
        count_units = _UNIT_COUNTERS.get(name)
        is_ascent = name == "moral_hazard._ascent"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if is_ascent:
                for frame in stack:
                    frame[1] = True
            frame = [0.0, False]
            stack.append(frame)
            open_count[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                open_count[name] -= 1
                stats.calls += 1
                stats.self_s += span - frame[0]
                stats.durations.append(span)
                if open_count[name] == 0:
                    stats.busy_s += span
                if stack:
                    stack[-1][0] += span
            if count_units is not None:
                units = count_units(args, kwargs, result, frame[1])
                stats.units += units
                if units:
                    stats.units_busy_s += span
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


# =====================================================================
# Per-layer metrics
# =====================================================================

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(layer):
    return ("count", (layer,), lambda s: s[layer].calls)


def _self_s(layer):
    return ("s", (layer,), lambda s: s[layer].self_s)


def _p50_s(layer):
    return ("s", (layer,), lambda s: s[layer].p50_s())


_FB, _SB = "moral_hazard.solve_first_best", "moral_hazard.solve_second_best"

# name -> (unit, boundaries it needs, value from the stats of a traced pass)
LAYER_METRICS = {
    "pools._moments.calls": _calls("pools._moments"),
    "pools._moments.self_s": _self_s("pools._moments"),
    "pools._moments.mean_us": ("us", ("pools._moments",), lambda s: 1e6 * _ratio(
        sum(s["pools._moments"].durations), s["pools._moments"].calls)),
    "quadrature.adaptive_simpson.calls": _calls("quadrature.adaptive_simpson"),
    "quadrature.adaptive_simpson.self_s": _self_s("quadrature.adaptive_simpson"),
    "quadrature.calls_per_moment": (
        "ratio", ("quadrature.adaptive_simpson", "pools._moments"), lambda s: _ratio(
            s["quadrature.adaptive_simpson"].calls, s["pools._moments"].calls)),
    "pools.firing_split.calls": _calls("pools.firing_split"),
    "pools.firing_split.self_s": _self_s("pools.firing_split"),
    "pools.sample_productivities.self_s": _self_s("pools.sample_productivities"),
    "solvers.m_extended.calls": _calls("solvers.m_extended"),
    "solvers.m_extended.self_s": _self_s("solvers.m_extended"),
    "solvers.scan_roots.calls": _calls("solvers.scan_roots"),
    "solvers.bisect_root.calls": _calls("solvers.bisect_root"),
    "solvers.m_fixed_points.calls": _calls("solvers.m_fixed_points"),
    "solvers.m_fixed_points.p50_s": _p50_s("solvers.m_fixed_points"),
    # Operator evaluations spent per fixed point found.
    "solvers.evals_per_root": (
        "ratio", ("solvers.m_extended", "solvers.m_fixed_points"), lambda s: _ratio(
            s["solvers.m_extended"].calls, s["solvers.m_fixed_points"].units)),
    "multiperiod._stage_from_w_plus.calls": _calls("multiperiod._stage_from_w_plus"),
    "multiperiod._stage_from_w_plus.p50_s": _p50_s("multiperiod._stage_from_w_plus"),
    "multiperiod.solve_three_period.p50_s": _p50_s("multiperiod.solve_three_period"),
    "multiperiod.solve_three_period_multistart.p50_s":
        _p50_s("multiperiod.solve_three_period_multistart"),
    "multiperiod.welfare_comparison.p50_s": _p50_s("multiperiod.welfare_comparison"),
    "multiperiod.build_market_tree.self_s": _self_s("multiperiod.build_market_tree"),
    "equilibrium.solve_two_period.calls": _calls("equilibrium.solve_two_period"),
    "equilibrium.solve_two_period.p50_s": _p50_s("equilibrium.solve_two_period"),
    "simulator.simulate.agents_per_s": ("1/s", ("simulator.simulate",), lambda s: _ratio(
        s["simulator.simulate"].units, s["simulator.simulate"].busy_s)),
    "simulator._chunk_draws.self_s": _self_s("simulator._chunk_draws"),
    "simulator.simulate.self_s": _self_s("simulator.simulate"),
    "moral_hazard.rules_enumerated": ("count", (_FB, _SB), lambda s: s[_FB].units + s[_SB].units),
    # Rules enumerated per second of the solves that enumerated (not _ascent).
    "moral_hazard.rules_per_s": ("1/s", (_FB, _SB), lambda s: _ratio(
        s[_FB].units + s[_SB].units, s[_FB].units_busy_s + s[_SB].units_busy_s)),
    "moral_hazard.solve_first_best.self_s": _self_s(_FB),
    "moral_hazard.solve_second_best.self_s": _self_s(_SB),
    "moral_hazard._ascent.calls": _calls("moral_hazard._ascent"),
    "cli.parse_config.self_s": _self_s("cli.parse_config"),
    # CLI time outside every traced library layer.
    "cli.main.self_s": _self_s("cli.main"),
}

# Exact work counts of one traced pass, recorded as a baseline.
COUNTS = (
    "pools._moments.calls",
    "quadrature.adaptive_simpson.calls",
    "solvers.m_extended.calls",
    "multiperiod._stage_from_w_plus.calls",
    "moral_hazard.rules_enumerated",
)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, dict], list[str]]:
    """Every LAYER_METRICS entry as {"value", "unit"}, plus the names whose
    boundaries are absent (reported as 0)."""
    metrics, absent = {}, []
    for name, (unit, needs, value) in LAYER_METRICS.items():
        if all(b in tracer.stats for b in needs):
            metrics[name] = {"value": value(tracer.stats), "unit": unit}
        else:
            metrics[name] = {"value": 0, "unit": unit}
            absent.append(name)
    return metrics, absent
