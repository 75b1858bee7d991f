"""The repository benchmark: batch experiment grids and a million-node cell.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ftgcs_event --seed 3 \
        --seconds 20 --trace 0

Each pass of a workload runs ``perfbench/workload.py`` in a fresh
process (closed loop: one client, next pass after the previous result
is verified).  A run first makes one verification pass at the
experiments' registered seeds and checks it against
``perfbench/pins.json``, then makes passes at ``--seed`` until
``--seconds`` have elapsed and reports the median of every metric.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes
untraced, span-only and profiled passes instead and reports the
per-layer ledger.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
nonzero when any cell failed or any check did not hold.  See
``perfbench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import CALL_COUNTS, LAYERS  # noqa: E402
from workload import GRIDS, WORKLOADS  # noqa: E402

PINS = os.path.join(HERE, "pins.json")
#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_CAP_S = 170.0
#: Allowed gap between the traced wall time and span self time plus
#: profiler self time, as a share of the traced wall time.
TRACE_TOLERANCE = 0.05

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "node_rounds_per_s": "node-rounds/s"}
COUNTS = ("sim.events", "net.messages_sent", "net.messages_dropped",
          "net.messages_lost", "net.flush_calls", "net.broadcast_calls",
          "core.max_estimate.decode_calls", "faults.injections",
          "topology.nodes", "topology.edges", "engine_vec.rounds",
          "engine_vec.slots")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    **{name: "count" for name in COUNTS},
    "net.delivered_ratio": "fraction",
    "topology.graph_build_s": "s",
    "engine_vec.build_s": "s",
    "engine_vec.round_s": "s",
    "harness.straggler_s": "s",
    "harness.pool_efficiency": "fraction",
    "harness.finish_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "fraction",
    "trace.residual": "fraction",
}


class PassFailed(RuntimeError):
    """A workload pass crashed or printed no result."""


def run_pass(workload: str, seed: int | None, processes: int,
             profile: bool, timeout: float, pins: str | None = PINS) -> dict:
    """One pass in a fresh process group, killed whole on timeout.

    At the default seed (``seed=None``) the pass is checked against
    ``pins`` unless that is ``None``.
    """
    command = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", workload, "--processes", str(processes)]
    if seed is not None:
        command += ["--seed", str(seed)]
    elif pins is not None:
        command += ["--pins", pins]
    if profile:
        command.append("--profile")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise PassFailed(f"{workload} pass exceeded {timeout:.0f} s")
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass exited {child.returncode}:\n"
                         f"{stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(passes: list[dict], key: str) -> dict[str, list[float]]:
    columns: dict[str, list[float]] = {}
    for one in passes:
        for name, value in one[key].items():
            columns.setdefault(name, []).append(value)
    return columns


def ledger(workload: str, plain: dict, spans: dict, profiled: dict,
           workers: int) -> dict:
    """Per-layer metrics of one traced iteration.

    Stage timings come from the untraced span-only pass, layer self
    times and call counts from the profiled pass of the same seed.
    """
    layer = {name: 0.0 for name in PER_LAYER}
    layer.update(spans["layer"])
    layer.update({name: profiled["layer"][name] for name in CALL_COUNTS})
    if workload in GRIDS:
        layer["topology.graph_build_s"] = \
            profiled["layer"]["topology.graph_build_s"]
    cell_s = spans["layer"]["harness.cell_s"]
    if workload in GRIDS and GRIDS[workload]["pooled"]:
        layer["harness.pool_efficiency"] = cell_s / (
            plain["layer"]["harness.sweep_s"] * workers)
    else:
        layer["harness.pool_efficiency"] = \
            cell_s / spans["layer"]["harness.sweep_s"]
    traced_wall = profiled["metrics"]["wall_s"]
    profile = profiled["profile"]
    for name, seconds in profile["self_s"].items():
        layer[f"{name}.self_s"] = seconds
        layer[f"{name}.share"] = seconds / traced_wall
    layer["trace.overhead_ratio"] = traced_wall / spans["metrics"]["wall_s"]
    layer["trace.coverage"] = sum(profile["self_s"].values()) / traced_wall
    layer["trace.residual"] = abs(
        profile["span_self_s"] + profile["profiled_s"] - traced_wall
    ) / traced_wall
    return {name: layer[name] for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="applied to every experiment (default: "
                             "each experiment's registered seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    workers = len(os.sched_getaffinity(0))
    pooled = args.workload in GRIDS and GRIDS[args.workload]["pooled"]
    processes = workers if pooled else 1
    tracing = bool(args.trace)

    def remaining() -> float:
        return RUN_CAP_S - (time.monotonic() - started)

    done: list[dict] = []
    problems: list[str] = []
    samples: list[dict] = []

    def one(seed, procs=processes, profile=False) -> dict:
        result = run_pass(args.workload, seed, procs, profile, remaining())
        done.append(result)
        return result

    try:
        # Verification pass at the registered seeds, checked against the
        # pins; traced runs profile it so the call-count pins hold too.
        one(None, 1 if tracing else processes, profile=tracing)
        measure_from, step = time.monotonic(), 0.0
        # Stop early rather than let the next pass overrun the run cap.
        while not samples or (time.monotonic() - measure_from < args.seconds
                              and remaining() > 2.0 * step):
            begun = time.monotonic()
            if tracing:
                plain = one(args.seed) if pooled else None
                spans = one(args.seed, 1)
                profiled = one(args.seed, 1, profile=True)
                samples.append({"layer": ledger(
                    args.workload, plain, spans, profiled, workers)})
            else:
                samples.append(one(args.seed))
            step = time.monotonic() - begun
    except PassFailed as exc:
        problems.append(str(exc))

    attempted = sum(p["attempted"] for p in done) or 1
    failed = sum(p["failed"] for p in done)
    if problems:
        failed = max(failed, 1)
    for one_pass in done:
        problems.extend(one_pass["problems"])

    if tracing:
        columns = summarize(samples, "layer")
        names = PER_LAYER
        for value in columns.get("trace.residual", ()):
            if value > TRACE_TOLERANCE:
                problems.append(f"trace residual {value:.3f} above "
                                f"{TRACE_TOLERANCE}")
    else:
        columns = summarize(samples, "metrics")
        names = END_TO_END
    metrics = {}
    print(f"{args.workload}  seed={args.seed}  passes={len(samples)}  "
          f"workers={workers}  cells attempted={attempted} "
          f"failed={failed}")
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s}  unit")
    for name, unit in names.items():
        values = columns.get(name)
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name:34s} {median:14.6g} {q1:14.6g} {q3:14.6g}  {unit}")
    print(f"{'failed_ratio':34s} {failed / attempted:14.6g} "
          f"{'':14s} {'':14s}  fraction")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    correct = not problems and failed == 0 and len(metrics) == len(names)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
