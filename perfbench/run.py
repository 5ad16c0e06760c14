#!/usr/bin/env python3
"""labormkt benchmark: fixed batches of CLI runs, timed end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-moments --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 30 --trace 1

One process runs one workload (``all`` starts one child process per
workload), with one closed-loop caller running one task at a time through
``labormkt.cli.main`` or the library, outputs going to a scratch directory
inside the checkout.  Only ``sweep --jobs 2`` starts further processes.

``--trace 0`` repeats the workload's pass while the next one is expected to
end within ``--seconds`` (and at least MIN_PASSES times) and reports, as
medians over passes:

* setup_s      -- fresh interpreter importing numpy and labormkt, plus
                  generating the inputs and any reference solve; the median
                  of several set-ups (see SETUP_MIN_REPEATS);
* wall_s       -- wall time of one pass;
* cpu_s        -- user + system CPU of one pass, this process and children;
* peak_rss_mb  -- the larger ru_maxrss of this process and of its children.

``--trace 1`` runs a traced pass between two untraced ones and reports the
per-layer metrics of tracer.LAYER_METRICS, plus trace.overhead: traced
wall time over the mean untraced wall time, minus one.

Every output is checked: residuals, contract ordering, Monte Carlo means,
byte-identical outputs across passes and, on DEFAULT_SEED, the reference
table in reference.json.  A task that raises, exits non-zero or fails a
check counts as failed.  The last stdout line is the JSON result; the line
before it is a JSON record of the machine, seed and task list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench_tmp" / str(os.getpid())  # removed on exit

# Set-up is repeated at least SETUP_MIN_REPEATS times and, while it is
# cheap, until SETUP_BUDGET_S seconds have been spent on it.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 3.0
MIN_PASSES = 3
ALL = "all"


# =====================================================================
# Measurement helpers
# =====================================================================

def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _fresh_import_seconds() -> float:
    """Start a new interpreter that imports numpy and labormkt, and wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, labormkt"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _machine(args) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "labormkt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


# =====================================================================
# Passes and checks
# =====================================================================

class Pass:
    """One timed run over a task list; failures are recorded, not raised."""

    def __init__(self, tasks, outdir: Path):
        self.tasks = tasks
        self.outdir = outdir
        self.errors: dict[str, str] = {}
        self.task_wall_s: dict[str, float] = {}
        outdir.mkdir(parents=True)
        cpu0, start = _cpu_seconds(), time.perf_counter()
        for task in tasks:
            task_start = time.perf_counter()
            try:
                task.run(outdir / task.out_name)
            except Exception:  # a failing task is counted, and the pass goes on
                self.errors[task.name] = traceback.format_exc()
            self.task_wall_s[task.name] = time.perf_counter() - task_start
        self.wall_s = time.perf_counter() - start
        self.cpu_s = _cpu_seconds() - cpu0

    def output(self, task) -> bytes:
        return (self.outdir / task.out_name).read_bytes()


def _reference_problems(facts: dict, want: dict) -> list[str]:
    from workloads import WAGE_TOLERANCE

    problems = []
    got_wages, want_wages = facts.get("wages", {}), want.get("wages", {})
    if set(got_wages) != set(want_wages):
        problems.append(f"wage keys {sorted(got_wages)} != reference {sorted(want_wages)}")
    for key in sorted(set(got_wages) & set(want_wages)):
        if not abs(got_wages[key] - want_wages[key]) <= WAGE_TOLERANCE:
            problems.append(f"wage {key} = {got_wages[key]!r}, reference {want_wages[key]!r}")
    if facts.get("exact", {}) != want.get("exact", {}):
        problems.append(f"contract {facts.get('exact')} != reference {want.get('exact')}")
    return problems


class Checker:
    """Counts attempted and failed tasks; prints each problem to stderr."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference  # this workload's entry, on DEFAULT_SEED only
        self.attempted = 0
        self.failed = 0
        self.facts: dict[str, dict] = {}
        self.warnings: list[str] = []

    def _report(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {self.workload.name} {label}: {problem}", file=sys.stderr)

    def setup(self) -> None:
        if self.workload.setup_facts:
            problems = []
            if self.reference is not None:
                problems = _reference_problems(self.workload.setup_facts,
                                               self.reference["setup"])
            self._report("set-up", problems)

    def passes(self, passes: list[Pass]) -> None:
        first: dict[str, bytes] = {}
        for k, p in enumerate(passes):
            for task in p.tasks:
                label = f"pass {k} {task.name}"
                if task.name in p.errors:
                    self._report(label, [p.errors[task.name].rstrip()])
                    continue
                try:
                    data = p.output(task)
                    problems, facts = task.check(data)
                except Exception:  # unreadable output is a failed task
                    self._report(label, [traceback.format_exc().rstrip()])
                    continue
                if task.name not in first:
                    first[task.name] = data
                    self.warnings += facts.pop("warnings", [])
                    self.facts[task.name] = facts
                    if self.reference is not None:
                        problems += _reference_problems(
                            facts, self.reference["tasks"].get(task.name, {}))
                elif data != first[task.name]:
                    problems.append("output differs from the first pass's")
                self._report(label, problems)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# =====================================================================
# Modes
# =====================================================================

def _timed(args, workloads, reference) -> tuple[Checker, dict, dict]:
    setups: list[float] = []
    while len(setups) < SETUP_MIN_REPEATS or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPEATS):
        import_s = _fresh_import_seconds()
        start = time.perf_counter()
        built = workloads.build(args.workload, args.seed, SCRATCH / f"inputs{len(setups)}")
        setups.append(import_s + time.perf_counter() - start)
        if len(setups) == 1:
            workload = built
    checker = Checker(workload, reference)
    checker.setup()

    # Start another pass while it is expected to end within --seconds.
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (time.perf_counter() - start + statistics.median(
            p.wall_s for p in passes) <= args.seconds):
        passes.append(Pass(workload.tasks, SCRATCH / f"pass{len(passes)}"))
    checker.passes(passes)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": _metric(statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    record = {"workload": workload.name, "task_list": [t.command for t in workload.tasks],
              "passes": len(passes), "setup_s_each": setups,
              "wall_s_each": [p.wall_s for p in passes],
              "cpu_s_each": [p.cpu_s for p in passes],
              "task_wall_s_each": {t.name: [p.task_wall_s[t.name] for p in passes]
                                   for t in workload.tasks}}
    return checker, metrics, record


def _traced(args, workloads, reference) -> tuple[Checker, dict, dict]:
    from tracer import COUNTS, Tracer, layer_metrics

    workload = workloads.build(args.workload, args.seed, SCRATCH / "inputs")
    tasks = workload.traced_tasks or workload.tasks
    checker = Checker(workload, reference)
    checker.setup()
    # Untraced passes on both sides of the traced one, so that the first
    # pass's warm-up does not land on one side of the overhead ratio only.
    before = Pass(tasks, SCRATCH / "untraced0")
    tracer = Tracer()
    with tracer:
        traced = Pass(tasks, SCRATCH / "traced")
    after = Pass(tasks, SCRATCH / "untraced1")
    checker.passes([before, traced, after])
    untraced_wall_s = (before.wall_s + after.wall_s) / 2.0
    metrics, absent = layer_metrics(tracer)
    metrics["trace.overhead"] = _metric(traced.wall_s / untraced_wall_s - 1.0, "ratio")
    counts = {name: metrics[name]["value"] for name in COUNTS}
    record = {"workload": workload.name, "task_list": [t.command for t in tasks],
              "trace_note": workload.traced_note or "traced tasks are the timed tasks",
              "absent": absent, "untraced_wall_s": untraced_wall_s,
              "traced_wall_s": traced.wall_s, "counts": counts}
    if reference is not None:
        record["counts_match_baseline"] = counts == reference["counts"]
    if args.record:
        _write_reference(workload.name, checker, counts)
    return checker, metrics, record


def _write_reference(name: str, checker: Checker, counts: dict) -> None:
    """Store this workload's facts and counts as the reference on DEFAULT_SEED."""
    table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    table[name] = {"setup": checker.workload.setup_facts, "tasks": checker.facts,
                   "counts": counts}
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_all(args) -> int:
    """Run each workload in a fresh child process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    from workloads import WORKLOADS

    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="with --trace 1 on the default seed, rewrite this "
                             "workload's entry of reference.json")
    args = parser.parse_args(argv)

    # The program under test is the checkout's own source tree, never an
    # installed copy.
    sys.path.insert(0, str(SRC))
    try:
        import labormkt
    except ImportError as exc:
        print(f"cannot import labormkt from {SRC}: {exc}", file=sys.stderr)
        return 1
    if not Path(labormkt.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"labormkt imported from {labormkt.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import workloads

    if args.workload not in workloads.WORKLOADS + (ALL,):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS + (ALL,))}", file=sys.stderr)
        return 1
    if args.record and not (args.trace and args.seed == workloads.DEFAULT_SEED
                            and args.workload != ALL):
        print("--record needs one workload, --trace 1 and the default seed", file=sys.stderr)
        return 1
    if args.workload == ALL:
        return _run_all(args)

    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.record:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]

    machine = _machine(args)
    try:
        mode = _traced if args.trace else _timed
        checker, metrics, record = mode(args, workloads, reference)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"record": {"machine": machine, **record,
                                 "warnings": checker.warnings}}))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
