"""Self-test of the benchmark's deterministic work counts and digests.

At the registered seeds, for each workload:

* two serial profiled passes must agree exactly on every cell digest,
  table digest and work count (result counters and the profiler's
  call counts);
* a pooled pass (``SweepRunner`` with one worker per CPU) must give
  the same cell digests, table digests and result counters;
* cells profiled inside pool workers must sum to the same call counts
  as the serial pass.

With ``--record`` the agreed values are written to ``pins.json``,
which every benchmark run checks at the registered seeds.  Run from
the repository root::

    python3 perfbench/selftest.py [--workload NAME ...] [--record]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import multiprocessing
import os
import pstats
import sys

from run import PINS, ROOT, run_pass
from tracing import call_counts
from workload import GRIDS, WORKLOADS

sys.path.insert(0, os.path.join(ROOT, "src"))

TIMEOUT_S = 600.0


def _profiled_cell(spec) -> dict:
    """Run one cell under a profiler inside a pool worker."""
    import repro
    from repro.harness.sweep import run_cell

    package_dir = os.path.dirname(repro.__file__)
    profiler = cProfile.Profile()
    profiler.enable()
    run_cell(spec)
    profiler.disable()
    return call_counts(pstats.Stats(profiler).stats, package_dir)


def pooled_call_counts(workload: str, workers: int) -> dict:
    from repro.harness.registry import REGISTRY
    from repro.harness.sweep import resolve_cell_seeds

    specs = []
    for eid in GRIDS[workload]["experiments"]:
        experiment = REGISTRY.get(eid)
        plan = experiment.plan(quick=True, seed=experiment.default_seed)
        specs += resolve_cell_seeds(plan.specs, experiment.default_seed)
    context = multiprocessing.get_context("spawn")
    with context.Pool(workers) as pool:
        per_cell = pool.map(_profiled_cell, specs)
    return {name: sum(cell[name] for cell in per_cell)
            for name in per_cell[0]}


def fingerprint(one_pass: dict) -> dict:
    return {"cells": {f"{c['exp']}/{c['index']}": c["digest"]
                      for c in one_pass["cells"]},
            "tables": one_pass["tables"],
            "counts": one_pass["counts"]}


def check_workload(workload: str, workers: int) -> tuple[dict, list[str]]:
    problems = []
    runs = [run_pass(workload, None, 1, True, TIMEOUT_S, pins=None)
            for _ in range(2)]
    for one in runs:
        problems += [f"{workload}: {p}" for p in one["problems"]]
    first, second = (fingerprint(one) for one in runs)
    if first != second:
        problems.append(f"{workload}: two serial runs differ")
    if workload in GRIDS:
        pooled = fingerprint(run_pass(workload, None, workers, False,
                                      TIMEOUT_S, pins=None))
        result_counts = {name: value for name, value
                         in first["counts"].items()
                         if name in pooled["counts"]}
        if (pooled["cells"], pooled["tables"], pooled["counts"]) \
                != (first["cells"], first["tables"], result_counts):
            problems.append(f"{workload}: serial and pooled runs differ")
        profiled = pooled_call_counts(workload, workers)
        serial = {name: first["counts"][name] for name in profiled}
        if profiled != serial:
            problems.append(f"{workload}: pooled call counts {profiled} "
                            f"!= serial {serial}")
    return first, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--record", action="store_true",
                        help="write the agreed values to pins.json")
    args = parser.parse_args(argv)
    workers = max(2, len(os.sched_getaffinity(0)))
    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as handle:
            pins = json.load(handle)
    failures = []
    for workload in args.workload or WORKLOADS:
        observed, problems = check_workload(workload, workers)
        if not args.record and observed != pins.get(workload):
            problems.append(f"{workload}: differs from pins.json")
        failures += problems
        pins[workload] = observed
        print(f"{workload}: {'FAIL' if problems else 'ok'} "
              f"{json.dumps(observed['counts'], sort_keys=True)}")
        for problem in problems:
            print(f"  {problem}")
    if args.record and not failures:
        with open(PINS, "w") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(PINS, ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
