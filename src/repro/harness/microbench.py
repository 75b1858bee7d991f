"""Dependency-free microbenchmarks of the simulation substrate.

Shared by ``python -m repro bench-quick`` (pre-merge smoke check,
finishes well under a minute) and ``benchmarks/record_baseline.py``
(dumps the numbers to ``BENCH_kernel.json`` so the perf trajectory is
tracked PR over PR).  The workloads mirror ``benchmarks/bench_kernel.py``
— event dispatch, alarm inversion under rate changes, a full system
round — plus the vectorized round engine's rounds/second on a 2e4-node
caterpillar and a small sweep-grid measurement comparing the serial
path against a worker pool.

Timing uses best-of-``repeats`` wall clock: simulations are
deterministic, so the minimum is the least-noise estimate.
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable

from repro.clocks import ConstantRate, HardwareClock, LogicalClock
from repro.core.params import Parameters
from repro.core.system import FtgcsSystem
from repro.harness.runner import gradient_offsets
from repro.harness.sweep import (
    ScenarioSpec,
    SweepRunner,
    default_processes,
)
from repro.harness.tables import Table
from repro.net.delays import UniformDelay
from repro.net.network import Network
from repro.sim import Simulator
from repro.topology import ClusterGraph


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def bench_event_throughput(events: int = 100_000,
                           repeats: int = 3) -> dict:
    """Schedule-and-run ``events`` self-chaining events."""

    def run() -> None:
        sim = Simulator()
        count = [0]

        def tick() -> None:
            count[0] += 1
            if count[0] < events:
                sim.call_in(1.0, tick)

        sim.call_at(0.0, tick)
        sim.run_until_idle()

    best = _best_of(run, repeats)
    return {"name": "event_throughput", "events": events,
            "seconds": best, "events_per_second": events / best}


def bench_repeating_throughput(ticks: int = 100_000,
                               repeats: int = 3) -> dict:
    """Drive one repeating event (the sampler fast path) for ``ticks``."""

    def run() -> None:
        sim = Simulator()
        count = [0]

        def tick() -> None:
            count[0] += 1

        sim.call_repeating(1.0, tick)
        sim.run(until=float(ticks))

    best = _best_of(run, repeats)
    return {"name": "repeating_throughput", "events": ticks,
            "seconds": best, "events_per_second": ticks / best}


def bench_alarm_inversion(alarms: int = 100, rate_changes: int = 2_000,
                          repeats: int = 3) -> dict:
    """Alarms surviving rate changes reschedule in O(log n)."""

    def run() -> None:
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.01)
        clock = LogicalClock(sim, hw, phi=0.01, mu=0.001)
        fired: list[int] = []
        for i in range(alarms):
            clock.at_value(2.0 * rate_changes + i, fired.append, i)
        for i in range(rate_changes):
            sim.call_at(float(i), clock.set_delta, 1.0 + (i % 2) * 0.5)
        sim.run(until=3.0 * rate_changes)

    best = _best_of(run, repeats)
    return {"name": "alarm_inversion", "rate_changes": rate_changes,
            "seconds": best,
            "reschedules_per_second": rate_changes / best}


def bench_system_rounds(rounds: int = 4, repeats: int = 3) -> dict:
    """Full rounds of a 12-node, 3-cluster system (events/second)."""
    params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
    events = [0]

    def run() -> None:
        system = FtgcsSystem.build(ClusterGraph.line(3), params, seed=1)
        result = system.run_rounds(rounds)
        events[0] = result.events_processed

    best = _best_of(run, repeats)
    return {"name": "system_rounds", "rounds": rounds,
            "seconds": best, "events": events[0],
            "events_per_second": events[0] / best}


def _delivery_flood(diameter: int, ttl: int) -> tuple[int, int]:
    """One D-diameter line flood: every node seeds one broadcast and
    each delivery re-broadcasts until its hop budget runs out, so
    in-flight messages are the entire event population.  Returns
    ``(delivered, kernel_events)``.
    """
    sim = Simulator()
    rng = random.Random(7)
    net = Network(sim, d=1.0, u=0.5,
                  default_delay_model=UniformDelay(1.0, 0.5, rng))
    n = diameter + 1

    def forward(node: int, message, _t: float) -> None:
        if message[1] > 0:
            net.broadcast(node, (node, message[1] - 1))

    for i in range(n):
        net.add_node(i, lambda msg, t, i=i: forward(i, msg, t))
    for i in range(diameter):
        net.add_link(i, i + 1)
    for i in range(n):
        net.broadcast(i, (i, ttl))
    sim.run_until_idle()
    return net.messages_delivered, sim.events_processed


def bench_delivery_batching(diameter: int = 64, ttl: int = 6,
                            repeats: int = 3) -> dict:
    """Network delivery on a delivery-bound D=64 line flood
    (messages/second, plus the kernel events the flushes took)."""
    last: list = [None]

    def run() -> None:
        last[0] = _delivery_flood(diameter, ttl)

    best = _best_of(run, repeats)
    # The flood is deterministic, so the timed runs' (delivered,
    # kernel_events) are the reported ones — no extra run needed.
    delivered, kernel_events = last[0]
    return {"name": "delivery_batching", "diameter": diameter,
            "messages": delivered, "kernel_events": kernel_events,
            "seconds": best, "messages_per_second": delivered / best}


def bench_vectorized_rounds(nodes: int = 20_000, rounds: int = 50,
                            repeats: int = 3) -> dict:
    """Vectorized round engine: GCS rounds/second on a caterpillar.

    The struct-of-arrays backend's headline number — one numpy kernel
    step per synchronous round over every node at once.  A caterpillar
    graph keeps the node count high (``~nodes``) at a fixed spine
    length, matching the t17 scale cells.  Skipped (``seconds = None``)
    when numpy is unavailable.
    """
    try:
        from repro.baselines.gcs_single import GcsParams
        from repro.harness.scenario import Scenario
        import numpy  # noqa: F401
    except ImportError:
        return {"name": "vectorized_rounds", "nodes": nodes,
                "rounds": rounds, "seconds": None,
                "rounds_per_second": None}

    params = GcsParams(rho=1e-3, d=1.0, u=0.01, mu=0.01, period=10.0,
                       kappa=0.3, slack=0.1)
    length = 100
    width = max(2, nodes // length)
    spec = (Scenario.on("caterpillar", length, width)
            .protocol("gcs_single").engine("vectorized")
            .payload(params=params, until=rounds * params.period)
            .seed(23).build())

    def run() -> None:
        SweepRunner(processes=1).run([spec], base_seed=23)

    best = _best_of(run, repeats)
    return {"name": "vectorized_rounds", "nodes": length * width,
            "rounds": rounds, "seconds": best,
            "rounds_per_second": rounds / best}


def bench_adversary_overhead(rounds: int = 100,
                             repeats: int = 3) -> dict:
    """Adversary-layer overhead on the vectorized round engine.

    Runs the same GCS caterpillar cell bare, with a static adversary
    (silent), and with a search-based one (random_restart), reporting
    the wall-clock ratios.  The bare run doubles as a hot-path
    regression guard: its headline skews are asserted bit-equal to the
    pre-adversary-layer constants, so ``no adversary == no new work``
    stays an enforced invariant, not a hope.  Skipped when numpy is
    unavailable.
    """
    try:
        from repro.baselines.gcs_single import GcsParams
        from repro.harness.scenario import Scenario
        import numpy  # noqa: F401
    except ImportError:
        return {"name": "adversary_overhead", "seconds": None,
                "static_ratio": None, "adaptive_ratio": None,
                "baseline_unchanged": None}

    params = GcsParams(rho=1e-3, d=1.0, u=0.01, mu=0.01, period=10.0,
                       kappa=0.3, slack=0.1)
    base = (Scenario.on("caterpillar", 15, 40)
            .protocol("gcs_single").engine("vectorized")
            .payload(params=params, until=rounds * params.period)
            .seed(42))
    bare = base.build()
    static = base.adversarial("silent").build()
    adaptive = base.adversarial("random_restart").build()

    last: list = [None]

    def run_bare() -> None:
        last[0] = SweepRunner(processes=1).run([bare],
                                               base_seed=42)[0]

    bare_best = _best_of(run_bare, repeats)
    static_best = _best_of(
        lambda: SweepRunner(processes=1).run([static], base_seed=42),
        repeats)
    adaptive_best = _best_of(
        lambda: SweepRunner(processes=1).run([adaptive],
                                             base_seed=42), repeats)
    # Pre-adversary-layer headline skews of this exact cell at
    # rounds=100 (caterpillar(15, 40), seed 42): the bare path must
    # not drift when the fault-injection layer evolves.
    result = last[0].result
    unchanged = (
        result.max_local_skew == 0.5000000000001137
        and result.max_global_skew == 0.9999999999992042
    ) if rounds == 100 else None
    return {"name": "adversary_overhead", "nodes": 600,
            "rounds": rounds, "seconds": bare_best,
            "static_ratio": static_best / bare_best,
            "adaptive_ratio": adaptive_best / bare_best,
            "baseline_unchanged": unchanged}


def bench_sweep(cells: int = 8, rounds: int = 20,
                processes: int | None = None) -> dict:
    """A small scenario grid: serial wall clock vs a worker pool.

    Speedup > 1 needs real cores; on a single-CPU machine the pool can
    only lose (the numbers are still recorded so the trajectory is
    honest about the hardware it ran on).
    """
    processes = default_processes(
        processes, fallback=min(4, os.cpu_count() or 1))
    params = Parameters.practical(rho=1e-4, d=1.0, u=0.05, f=1,
                                  eps=0.2, k_stab=1)
    specs = [
        ScenarioSpec(
            graph="line", graph_args=(4,), params=params, rounds=rounds,
            strategy="equivocate",
            config={"cluster_offsets": gradient_offsets(
                4, 2.2 * params.kappa)},
            key=("cell", i))
        for i in range(cells)]

    started = time.perf_counter()
    serial = SweepRunner(processes=1).run(specs, base_seed=17)
    serial_s = time.perf_counter() - started

    if processes > 1:
        started = time.perf_counter()
        parallel = SweepRunner(processes=processes).run(specs,
                                                        base_seed=17)
        parallel_s = time.perf_counter() - started
        identical = all(
            a.result.series == b.result.series
            and a.result.max_global_skew == b.result.max_global_skew
            for a, b in zip(serial, parallel))
    else:
        # None, not NaN: the results feed BENCH_kernel.json and bare
        # NaN is not valid JSON for strict parsers.
        parallel_s = None
        identical = True
    return {"name": "sweep_grid", "cells": cells, "rounds": rounds,
            "processes": processes, "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s else 1.0,
            "bit_identical": identical}


def run_all_micro(quick: bool = True,
                  processes: int | None = None) -> list[dict]:
    """Every microbenchmark; ``quick`` keeps the total under a minute."""
    scale = 1 if quick else 5
    return [
        bench_event_throughput(events=100_000 * scale),
        bench_repeating_throughput(ticks=100_000 * scale),
        bench_alarm_inversion(rate_changes=2_000 * scale),
        bench_delivery_batching(ttl=6 if quick else 10),
        bench_system_rounds(rounds=4 * scale),
        bench_vectorized_rounds(nodes=20_000 * scale),
        bench_adversary_overhead(),
        bench_sweep(cells=4 * scale, rounds=15, processes=processes),
    ]


def microbench_table(results: list[dict]) -> Table:
    """Render microbenchmark dicts as a harness table."""
    table = Table(
        title="Kernel / substrate microbenchmarks",
        columns=["benchmark", "seconds", "throughput", "unit"])
    for r in results:
        if r["name"] == "sweep_grid":
            table.add_row(
                f"sweep {r['cells']}x{r['rounds']}r "
                f"(p={r['processes']})", r["serial_seconds"],
                r["speedup"], "pool speedup (bit-identical: "
                + ("yes" if r["bit_identical"] else "NO") + ")")
        elif r["name"] == "delivery_batching":
            table.add_row(
                f"delivery D={r['diameter']} "
                f"({r['messages']} msgs)", r["seconds"],
                r["messages_per_second"],
                f"msg/s ({r['kernel_events']} kernel events)")
        elif r["name"] == "adversary_overhead":
            if r["seconds"] is None:
                table.add_row("adversary overhead", float("nan"),
                              float("nan"), "skipped (numpy missing)")
            else:
                guard = {True: "baseline unchanged: yes",
                         False: "baseline unchanged: NO",
                         None: "baseline guard skipped"}[
                             r["baseline_unchanged"]]
                table.add_row(
                    f"adversary n={r['nodes']} "
                    f"({r['rounds']} rounds)", r["seconds"],
                    r["adaptive_ratio"],
                    f"adaptive/bare slowdown (static "
                    f"{r['static_ratio']:.2f}x; {guard})")
        elif r["name"] == "vectorized_rounds":
            if r["seconds"] is None:
                table.add_row("vectorized rounds", float("nan"),
                              float("nan"), "skipped (numpy missing)")
            else:
                table.add_row(
                    f"vectorized n={r['nodes']} "
                    f"({r['rounds']} rounds)", r["seconds"],
                    r["rounds_per_second"], "rounds/s")
        elif "events_per_second" in r:
            table.add_row(r["name"], r["seconds"],
                          r["events_per_second"], "events/s")
        else:
            table.add_row(r["name"], r["seconds"],
                          r["reschedules_per_second"], "reschedules/s")
    return table
