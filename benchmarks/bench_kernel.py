"""Microbenchmarks of the simulation substrate itself.

These are classic pytest-benchmark measurements (many iterations): the
event loop, logical-clock alarm inversion, and a small end-to-end
system round, so substrate regressions show up independently of the
experiment suite.
"""

import pytest

from repro.clocks import ConstantRate, HardwareClock, LogicalClock
from repro.core.params import Parameters
from repro.core.system import FtgcsSystem
from repro.harness.microbench import _delivery_flood
from repro.sim import Simulator
from repro.topology import ClusterGraph


def test_event_throughput(benchmark):
    """Schedule-and-run 10k self-chaining events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.call_in(1.0, tick)

        sim.call_at(0.0, tick)
        sim.run_until_idle()
        return count[0]

    assert benchmark(run) == 10_000


def test_alarm_inversion_with_rate_changes(benchmark):
    """Alarms surviving 1k rate changes reschedule in O(log n)."""

    def run():
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.01)
        clock = LogicalClock(sim, hw, phi=0.01, mu=0.001)
        fired = []
        for i in range(100):
            clock.at_value(2000.0 + i, fired.append, i)
        for i in range(1_000):
            sim.call_at(float(i), clock.set_delta, 1.0 + (i % 2) * 0.5)
        sim.run(until=3000.0)
        return len(fired)

    assert benchmark(run) == 100


def test_delivery_batching_throughput_d64(benchmark):
    """Network delivery on a delivery-bound D=64 flood: the whole
    message stream drains through flush wake-ups, not one kernel event
    per message."""
    delivered, kernel_events = benchmark(_delivery_flood, 64, 6)
    assert delivered == 15_732
    assert kernel_events == 1  # no other events: one flush drains all


def test_system_round_throughput(benchmark):
    """One full round of a 12-node, 3-cluster system."""
    params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)

    def run():
        system = FtgcsSystem.build(ClusterGraph.line(3), params, seed=1)
        result = system.run_rounds(1)
        return result.rounds_completed

    assert benchmark(run) >= 1


def test_adversary_overhead(benchmark):
    """The adversary layer must not slow the no-adversary hot path.

    Times the bare vectorized GCS cell and asserts its headline skews
    still match the pre-adversary-layer constants bit-for-bit; the
    static/adaptive slowdown ratios ride along in the report (see
    ``repro.harness.microbench.bench_adversary_overhead``).
    """
    pytest.importorskip("numpy")
    from repro.harness.microbench import bench_adversary_overhead

    result = benchmark.pedantic(bench_adversary_overhead,
                                kwargs={"repeats": 1}, rounds=1,
                                iterations=1)
    assert result["baseline_unchanged"] is True
    # A static adversary's per-round act is O(slots) masked writes —
    # same order as the round itself; generous cap to stay hardware-
    # agnostic.
    assert result["static_ratio"] < 3.0
