"""Benchmark T14: Gradient-TRIX-style parameter grid (mu x diameter)."""

from conftest import run_registry


def test_t14_parameter_grid(benchmark, show):
    table = run_registry(benchmark, "t14")
    show(table)
    # An FTGCS row whose mu is infeasible for its rho/u has no kappa
    # and no measurements; only those rows are left out of the bounds.
    protocols = table.column("protocol")
    kappas = table.column("kappa")
    feasible = [i for i, k in enumerate(kappas) if k is not None]
    skipped = [i for i, k in enumerate(kappas) if k is None]
    assert feasible
    assert all(protocols[i] == "ftgcs" for i in skipped)
    # kappa grows with mu; the steady local skew tracks it.
    locals_ = table.column("steady local")
    assert all(kappas[i] > 0 for i in feasible)
    assert all(locals_[i] > 0 for i in feasible)
    # kappa-normalized skew stays bounded across the grid (the
    # Gradient-TRIX design-space property the claim states).
    ratios = table.column("local/kappa")
    assert max(ratios[i] for i in feasible) < 4.0
